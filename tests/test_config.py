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
