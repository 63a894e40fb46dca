import importlib.util
import re
from pathlib import Path

import pytest

from armyant.config import ALGORITHMS, ExperimentSpec, parse_config, parse_seed_list


def write(tmp_path, text):
    path = tmp_path / "exp.conf"
    path.write_text(text)
    return path


def test_minimal_cover_config_fills_defaults(tmp_path):
    spec = parse_config(write(tmp_path, """
# minimal experiment
kind = cover
area_length_m = 500
area_width_m = 500
"""))
    assert spec.kind == "cover"
    assert spec.population == 50
    assert spec.iterations == 100
    assert spec.attack_coeff == 2.0
    assert spec.grid_interval_m == 5.0
    assert spec.node_count == 110
    assert spec.radius_m == 60.0
    assert spec.view_angle_deg == 90.0
    assert spec.algorithms == ("aaso", "vfa", "pso")
    assert spec.seeds == (1,)


def test_unknown_key_reports_line_number(tmp_path):
    path = write(tmp_path, "kind = cover\nwidgets = 7\n")
    with pytest.raises(ValueError, match=r":2: unknown key 'widgets'"):
        parse_config(path)


def test_inline_comments(tmp_path):
    # only whole-line comments were stripped: the first key wrote into a
    # directory named with its comment, the second was a bad value
    spec = parse_config(write(tmp_path, """
kind = cover  # the coverage experiment
population = 20  # ants
output_dir = runs/o  # results go here
"""))
    assert spec.population == 20
    assert spec.output_dir == "runs/o"


@pytest.mark.parametrize("text,line,key,kind", [
    ("kind = bench\nseeds = 7,8\nradius_m = 5\n", 2, "seeds", "bench"),
    ("radius_m = 5\nkind = bench\n", 1, "radius_m", "bench"),
    ("kind = bench\ndeployment_path = d.csv\n", 2, "deployment_path", "bench"),
    ("kind = cover\nruns = 3\n", 2, "runs", "cover"),
    ("base_seed = 4\n", 1, "base_seed", "cover"),
], ids=["bench_seeds", "bench_radius_before_kind", "bench_deployment", "cover_runs",
        "default_kind_base_seed"])
def test_key_the_kind_never_reads_rejected_with_line(tmp_path, text, line, key, kind):
    # such a key was silently ignored: a bench config's seeds did not seed its runs
    path = write(tmp_path, text)
    message = f"{path}:{line}: key {key!r} is not read by kind {kind!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(path)


def test_malformed_value_reports_line_number(tmp_path):
    path = write(tmp_path, "kind = cover\nnode_count = eleven\n")
    with pytest.raises(ValueError, match=r":2: bad value for 'node_count'"):
        parse_config(path)


def test_missing_equals_sign(tmp_path):
    path = write(tmp_path, "kind cover\n")
    with pytest.raises(ValueError, match=r":1: expected 'key = value'"):
        parse_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = write(tmp_path, "kind = cover\nkind = bench\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config(path)


def test_zero_grid_interval_rejected(tmp_path):
    path = write(tmp_path, "kind = cover\ngrid_interval_m = 0\n")
    with pytest.raises(ValueError, match="grid_interval_m"):
        parse_config(path)


def test_geometry_validation(tmp_path):
    with pytest.raises(ValueError, match="view_angle_deg"):
        parse_config(write(tmp_path, "kind = cover\nview_angle_deg = 361\n"))


def test_algorithm_validation_per_kind(tmp_path):
    with pytest.raises(ValueError, match="not valid for kind"):
        parse_config(write(tmp_path, "kind = cover\nalgorithms = aaso,random\n"))
    with pytest.raises(ValueError, match="not valid for kind"):
        parse_config(write(tmp_path, "kind = bench\nalgorithms = vfa\n"))


def test_bench_defaults(tmp_path):
    spec = parse_config(write(tmp_path, "kind = bench\nruns = 2\n"))
    assert spec.algorithms == ("aaso", "pso", "random")
    assert len(spec.functions) == 6
    assert spec.dimension == 30
    with pytest.raises(ValueError, match="runs"):
        parse_config(write(tmp_path, "kind = bench\nruns = 1\n"))


def test_seed_list_syntax():
    assert parse_seed_list("1..10") == tuple(range(1, 11))
    assert parse_seed_list("3,7,11") == (3, 7, 11)
    assert parse_seed_list("5") == (5,)
    with pytest.raises(ValueError):
        parse_seed_list("9..2")
    with pytest.raises(ValueError):
        parse_seed_list("a,b")


def test_view_angle_stays_in_degrees_until_the_boundary(tmp_path):
    spec = parse_config(write(tmp_path, "kind = cover\nview_angle_deg = 90\n"))
    assert spec.view_angle_deg == 90.0  # conversion to radians happens in the runner


def test_spec_validate_direct():
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec(kind="explore").validate()
    with pytest.raises(ValueError, match="seed"):
        ExperimentSpec(seeds=()).validate()


@pytest.mark.parametrize("line,message", [
    ("attack_coeff = 0.0", "attack_coeff must be positive"),
    ("attack_coeff = -1.5", "attack_coeff must be positive"),
    ("recruit_init = 999", r"recruit_init must lie in \(0, population\]"),
    ("recruit_init = 0", r"recruit_init must lie in \(0, population\]"),
], ids=["attack_coeff_zero", "attack_coeff_negative", "recruit_init_above_population",
        "recruit_init_zero"])
def test_aaso_values_rejected_at_parse_with_path(tmp_path, line, message):
    # both kinds run AASO, so a value the optimizer would refuse fails here,
    # naming the file, instead of inside every AASO run
    for kind in ("cover", "bench"):
        path = write(tmp_path, f"kind = {kind}\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": " + message):
            parse_config(path)


@pytest.mark.parametrize("key,message", [
    ("area_length_m", "monitoring area dimensions must be positive and finite"),
    ("area_width_m", "monitoring area dimensions must be positive and finite"),
    ("grid_interval_m", "grid_interval_m must be positive and finite"),
    ("radius_m", "radius_m must be positive and finite"),
    ("attack_coeff", "attack_coeff must be positive and finite"),
], ids=["area_length_m", "area_width_m", "grid_interval_m", "radius_m", "attack_coeff"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_values_rejected_at_parse_with_path(tmp_path, key, message, value):
    # NaN and infinity pass a plain sign test
    path = write(tmp_path, f"kind = cover\n{key} = {value}\n")
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": " + message):
        parse_config(path)


@pytest.mark.parametrize("text,message", [
    ("kind = cover\nseeds = -1..0\n", "seeds must be non-negative, got -1"),
    ("kind = cover\nseeds = 4,-2\n", "seeds must be non-negative, got -2"),
    ("kind = bench\nbase_seed = -1\n", "base_seed must be non-negative, got -1"),
    ("kind = cover\nseeds = 3,3\n", "seeds lists 3 more than once"),
    ("kind = cover\nalgorithms = vfa,vfa\n", "algorithms lists 'vfa' more than once"),
    ("kind = bench\nfunctions = sphere,ackley,sphere\n",
     "functions lists 'sphere' more than once"),
    ("kind = bench\nfunctions =\n", "need at least one function"),
], ids=["negative_seed_range", "negative_seed_list", "negative_base_seed", "repeated_seed",
        "repeated_algorithm", "repeated_function", "empty_functions"])
def test_seed_and_list_values_rejected_at_parse_with_path(tmp_path, text, message):
    # a negative seed failed only when its run started; a repeated entry ran,
    # wrote and summarized the same runs twice; an empty function list wrote
    # a header-only statistics.csv and exited 0
    path = write(tmp_path, text)
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": " + message):
        parse_config(path)


def test_long_seed_lists_validate_in_one_pass(tmp_path):
    # the repeat check compared each seed with every earlier one: 10,000
    # seeds took 0.69 s and 200,000 would take minutes
    spec = parse_config(write(tmp_path, "kind = cover\nseeds = 1..200000\n"))
    assert len(spec.seeds) == 200_000
    with pytest.raises(ValueError, match="seeds lists 77 more than once"):
        ExperimentSpec(seeds=spec.seeds + (77,)).validate()


def test_analyze_kind_rejected_at_parse_with_path(tmp_path):
    # only cover and bench read a config; armyant analyze takes flags
    path = write(tmp_path, "kind = analyze\n")
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": kind must be cover or bench"):
        parse_config(path)


def test_recruit_init_may_equal_population(tmp_path):
    spec = parse_config(write(tmp_path, "kind = cover\npopulation = 20\nrecruit_init = 20\n"))
    assert spec.recruit_init == 20.0


def test_spec_algorithms_default_per_kind():
    assert ExperimentSpec(kind="bench").validate().algorithms == ALGORITHMS["bench"]
    assert ExperimentSpec().validate().algorithms == ALGORITHMS["cover"]
    assert ExperimentSpec(kind="bench", algorithms=("pso",)).validate().algorithms == ("pso",)


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_example_configs_parse():
    headline = parse_config(EXAMPLES / "headline.conf")
    assert (headline.kind, headline.node_count, headline.radius_m, headline.view_angle_deg) == (
        "cover", 110, 60.0, 90.0
    )
    assert headline.algorithms == ("aaso", "vfa", "pso")
    assert headline.seeds == tuple(range(1, 11))
    bench = parse_config(EXAMPLES / "bench.conf")
    assert (bench.kind, bench.dimension, bench.population, bench.iterations, bench.runs) == (
        "bench", 30, 30, 1000, 50
    )
    assert bench.algorithms == ALGORITHMS["bench"]
    assert len(bench.functions) == 6


def test_generated_benchmark_configs_use_only_keys_their_kind_reads(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", EXAMPLES.parent / "perfbench" / "run.py"
    )
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    for name in bench_run.WORKLOADS:
        work = tmp_path / name
        work.mkdir()
        for inv in bench_run.write_configs(bench_run.workload_inputs(name, 1), work):
            assert parse_config(inv["config"]).kind == bench_run.WORKLOADS[name]["command"]
