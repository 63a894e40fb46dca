import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

import armyant.cli
from armyant.benchmarks import get_benchmark
from armyant.cli import _write_atomic, analyze_report, main
from armyant.harness import compare, write_statistics_csv
from armyant.optimizer import OptimizerConfig, run
from armyant.rng import RandomSource

PI = math.pi

TINY_COVER = """
kind = cover
area_length_m = 100
area_width_m = 100
grid_interval_m = 5
node_count = 6
radius_m = 30
view_angle_deg = 90
algorithms = aaso,vfa,pso
population = 8
iterations = 5
seeds = 1,2
"""

TINY_BENCH = """
kind = bench
algorithms = aaso,random
functions = sphere
runs = 2
base_seed = 3
population = 6
iterations = 8
dimension = 3
"""


def write_config(tmp_path, text):
    path = tmp_path / "exp.conf"
    path.write_text(text)
    return str(path)


def tree_digest(root):
    digest = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            digest[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digest


# --- analyze -----------------------------------------------------------------

def test_analyze_report_headline_scenario(capsys):
    code = main(["analyze", "--area", "500x500", "--nodes", "110",
                 "--radius", "60", "--fov", "90", "--target", "0.8752"])
    out = capsys.readouterr().out
    assert code == 0
    assert "required nodes for target coverage 0.8752: 183" in out
    assert "node saving vs deployed: 73" in out
    assert "0.713827" in out


def test_analyze_without_target():
    report = analyze_report(500, 500, 110, 60, 90)
    assert "expected initial coverage" in report
    assert "required nodes" not in report


def test_analyze_extreme_target_stays_finite():
    report = analyze_report(500, 500, 110, 60, 90, target=0.9999999)
    needed = int(re.search(r"required nodes for target coverage [\d.]+: (\d+)", report).group(1))
    assert needed > 1000


def test_analyze_bad_area(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--area", "500", "--nodes", "1", "--radius", "6", "--fov", "90"])


# --- cover run ------------------------------------------------------------------

@pytest.fixture(scope="module")
def cover_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cover")
    config = write_config(tmp, TINY_COVER)
    out = tmp / "out"
    code = main(["cover", "run", "--config", config, "--out", str(out)])
    return code, out, config


def test_cover_exit_code(cover_run):
    assert cover_run[0] == 0


def test_cover_file_accounting(cover_run):
    _, out, _ = cover_run
    assert len(list(out.glob("layout_initial_*.svg"))) == 2
    assert len(list(out.glob("layout_final_*.svg"))) == 6
    assert len(list(out.glob("curve_*.csv"))) == 6
    assert len(list(out.glob("deployment_final_*.csv"))) == 6
    rows = list(csv.reader(open(out / "summary.csv")))
    assert rows[0] == ["algorithm", "runs", "mean_final", "std_final"]
    assert [r[0] for r in rows[1:]] == ["aaso", "vfa", "pso"]


def test_cover_results_schema(cover_run):
    _, out, _ = cover_run
    results = json.load(open(out / "results.json"))
    assert len(results) == 6
    for entry in results:
        assert set(entry) == {
            "algorithm", "seed", "initial_rate", "final_rate",
            "angles_deg", "evaluations", "iterations",
        }
        assert len(entry["angles_deg"]) == 6
        assert entry["final_rate"] >= entry["initial_rate"]
        assert entry["iterations"] == 5


def test_cover_curve_rows(cover_run):
    _, out, _ = cover_run
    rows = list(csv.reader(open(out / "curve_aaso_1.csv")))
    assert rows[0] == ["iter", "covr"]
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(6)]
    values = [float(r[1]) for r in rows[1:]]
    assert values == sorted(values)


def test_cover_summary_recomputable(cover_run):
    _, out, _ = cover_run
    results = json.load(open(out / "results.json"))
    rows = {r[0]: r for r in list(csv.reader(open(out / "summary.csv")))[1:]}
    for algorithm in ("aaso", "vfa", "pso"):
        finals = [e["final_rate"] for e in results if e["algorithm"] == algorithm]
        mean = sum(finals) / len(finals)
        assert float(rows[algorithm][2]) == pytest.approx(mean, abs=1e-15)


def test_cover_rerun_is_byte_identical(cover_run, tmp_path):
    _, out, config = cover_run
    again = tmp_path / "again"
    assert main(["cover", "run", "--config", config, "--out", str(again)]) == 0
    assert tree_digest(out) == tree_digest(again)


def test_cover_svg_sector_endpoints_match_deployment(cover_run):
    _, out, _ = cover_run
    sensors = list(csv.DictReader(open(out / "deployment_final_aaso_1.csv")))
    svg = (out / "layout_final_aaso_1.svg").read_text()
    paths = re.findall(r'<path d="([^"]+)"', svg)
    assert len(paths) == len(sensors)
    for record, d in zip(sensors, paths):
        nums = [float(v) for v in re.findall(r"-?\d+\.\d+", d)]
        x, y, radius = float(record["x_m"]), float(record["y_m"]), float(record["radius_m"])
        theta = math.radians(float(record["deviation_deg"]))
        half = math.radians(float(record["view_angle_deg"])) / 2
        assert nums[0] == pytest.approx(x, abs=1e-6)
        assert nums[1] == pytest.approx(y, abs=1e-6)
        assert nums[2] == pytest.approx(x + radius * math.cos(theta - half), abs=1e-6)
        assert nums[3] == pytest.approx(y + radius * math.sin(theta - half), abs=1e-6)
        assert nums[6] == pytest.approx(x + radius * math.cos(theta + half), abs=1e-6)
        assert nums[7] == pytest.approx(y + radius * math.sin(theta + half), abs=1e-6)


def test_cover_seed_override(tmp_path):
    config = write_config(tmp_path, TINY_COVER)
    out = tmp_path / "out"
    assert main(["cover", "run", "--config", config, "--seeds", "7", "--out", str(out)]) == 0
    assert len(list(out.glob("layout_initial_*.svg"))) == 1
    assert (out / "curve_aaso_7.csv").exists()


def test_cover_deployment_import(tmp_path):
    # an explicit deployment fixes the sensors for every seed
    from armyant.coverage import CoverageField, write_deployment, random_deployment
    from armyant.rng import RandomSource

    field = CoverageField(100, 100, 5)
    sensors = random_deployment(field, 4, 30.0, PI / 2, RandomSource(55))
    deploy = tmp_path / "fixed.csv"
    write_deployment(sensors, deploy)
    config = write_config(tmp_path, TINY_COVER + f"deployment_path = {deploy}\n")
    out = tmp_path / "out"
    assert main(["cover", "run", "--config", config, "--seeds", "1,2", "--out", str(out)]) == 0
    results = json.load(open(out / "results.json"))
    initial = {e["initial_rate"] for e in results}
    assert len(initial) == 1  # same deployment regardless of seed


def test_cover_kind_mismatch(tmp_path, capsys):
    config = write_config(tmp_path, TINY_BENCH)
    assert main(["cover", "run", "--config", config]) == 2
    assert "expected 'cover'" in capsys.readouterr().err


def test_cover_partial_failure_lists_seeds_and_returns_nonzero(tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    broken.write_text("not,a,deployment\n")
    config = write_config(tmp_path, TINY_COVER + f"deployment_path = {broken}\n")
    out = tmp_path / "out"
    assert main(["cover", "run", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "FAILED seed 1" in err and "FAILED seed 2" in err
    # artifacts for the failed runs are absent but the summary still exists
    assert (out / "results.json").exists()
    assert not list(out.glob("curve_*.csv"))


def test_cover_programming_error_propagates(tmp_path, monkeypatch):
    def broken_enhancer(*args, **kwargs):
        raise TypeError("enhancer called wrongly")

    monkeypatch.setattr(armyant.cli, "enhance_vfa", broken_enhancer)
    config = write_config(tmp_path, TINY_COVER)
    with pytest.raises(TypeError, match="enhancer called wrongly"):
        main(["cover", "run", "--config", config, "--out", str(tmp_path / "out")])


def test_atomic_write_failing_halfway_keeps_previous_file(tmp_path):
    path = tmp_path / "results.json"
    _write_atomic(str(path), lambda fh: fh.write("old\n"))

    def fails_halfway(fh):
        fh.write("new, part one\n")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _write_atomic(str(path), fails_halfway)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["results.json"]


def test_cover_failed_results_write_keeps_previous_outputs(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, TINY_COVER)
    out = tmp_path / "out"
    assert main(["cover", "run", "--config", config, "--out", str(out)]) == 0
    before = tree_digest(out)

    def dump_halfway(obj, fh, **kwargs):
        fh.write("[")
        raise OSError("disk full")

    monkeypatch.setattr(armyant.cli.json, "dump", dump_halfway)
    assert main(["cover", "run", "--config", config, "--out", str(out)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert tree_digest(out) == before  # same names and bytes: no partial or temporary file


def test_cover_unwritable_output_aborts(tmp_path, capsys):
    config = write_config(tmp_path, TINY_COVER)
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    assert main(["cover", "run", "--config", config, "--out", str(blocker)]) == 2
    assert "error:" in capsys.readouterr().err


# --- bench run --------------------------------------------------------------------

def test_bench_run_accounting_and_determinism(tmp_path):
    config = write_config(tmp_path, TINY_BENCH)
    out = tmp_path / "bench_out"
    assert main(["bench", "run", "--config", config, "--out", str(out)]) == 0
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    assert len(traces) == 4  # 2 runs x 1 function x 2 algorithms
    assert traces == [
        "trace_aaso_sphere_3.csv", "trace_aaso_sphere_4.csv",
        "trace_random_sphere_3.csv", "trace_random_sphere_4.csv",
    ]
    rows = list(csv.reader(open(out / "statistics.csv")))
    assert len(rows) == 3  # header + 2 summary rows

    again = tmp_path / "bench_again"
    assert main(["bench", "run", "--config", config, "--out", str(again)]) == 0
    assert tree_digest(out) == tree_digest(again)


def test_bench_statistics_recomputable_from_traces(tmp_path):
    config = write_config(tmp_path, TINY_BENCH)
    out = tmp_path / "bench_out"
    main(["bench", "run", "--config", config, "--out", str(out)])
    stats = {r[0]: r for r in list(csv.reader(open(out / "statistics.csv")))[1:]}
    for algorithm in ("aaso", "random"):
        finals = []
        for seed in (3, 4):
            rows = list(csv.reader(open(out / f"trace_{algorithm}_sphere_{seed}.csv")))
            finals.append(float(rows[-1][1]))
        assert float(stats[algorithm][3]) == min(finals)
        assert float(stats[algorithm][4]) == pytest.approx(sum(finals) / 2, abs=1e-15)


def test_bench_run_honours_aaso_keys(tmp_path):
    plain, tuned = tmp_path / "plain", tmp_path / "tuned"
    config = write_config(tmp_path, TINY_BENCH)
    assert main(["bench", "run", "--config", config, "--out", str(plain)]) == 0
    config = write_config(tmp_path, TINY_BENCH + "attack_coeff = 0.5\nstagnation = 1\n")
    assert main(["bench", "run", "--config", config, "--out", str(tuned)]) == 0
    statistics = (tuned / "statistics.csv").read_bytes()
    assert statistics != (plain / "statistics.csv").read_bytes()

    expected = tmp_path / "expected.csv"
    stats = compare(["aaso", "random"], ["sphere"], runs=2, base_seed=3, population=6,
                    iterations=8, dim=3, attack_coeff=0.5, stagnation=1)
    write_statistics_csv(stats, expected)
    assert statistics == expected.read_bytes()
    func = get_benchmark("sphere", 3)
    for seed in (3, 4):
        config = OptimizerConfig(population=6, max_iters=8, attack_coeff=0.5,
                                 stagnation_threshold=1)
        history = run(func, func.box, config, RandomSource(seed)).history
        rows = list(csv.reader(open(tuned / f"trace_aaso_sphere_{seed}.csv")))[1:]
        assert [float(r[1]) for r in rows] == history.tolist()


# --- misc -------------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "armyant" in capsys.readouterr().out


def test_config_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, "kind = cover\nbogus = 1\n")
    assert main(["cover", "run", "--config", config]) == 2
    assert "unknown key" in capsys.readouterr().err
