import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

import armyant.cli
from armyant.benchmarks import get_benchmark
from armyant.cli import analyze_report, main
from armyant.harness import compare, write_atomic, write_statistics_csv
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


GOLDEN_BENCH = """
kind = bench
algorithms = aaso,pso,random
functions = sphere,rosenbrock,rastrigin,ackley,griewank,schwefel
runs = 2
base_seed = 3
population = 6
iterations = 8
dimension = 3
"""

# sha256 of every file that TINY_COVER and GOLDEN_BENCH write: any change
# to a draw order, a result or an output format shows here
ARTIFACT_GOLDEN = {
    "cover": {
        "curve_aaso_1.csv": "f9d8f02c5e1c5cbae57ab3c3e728cdca5fc4cd5d801b3bee1cbbb39f459e8a05",
        "curve_aaso_2.csv": "b1dcf5db9cb19cdbe53bd81166617fab3a774c018681183857c01fb1f2d25d99",
        "curve_pso_1.csv": "d039a4335fb93dd7f81ecd53747d87ebeb9cb4b3ebde95630e312394a2a49b6a",
        "curve_pso_2.csv": "fa4cc27bb75315626847050ef26427eecd4e7082e02921e3a1abf8bd7d41b8a8",
        "curve_vfa_1.csv": "29475e2ad3191ed856e6fc3965e4c360fd10e18062fb1d8eee27593f274ce4f8",
        "curve_vfa_2.csv": "b252ea3f3fe71b70733fe144e6739fb4e1d808455703859a018d24b1db3d16e6",
        "deployment_final_aaso_1.csv": "79452f59f8f07b737778b1a28850240086167633b85f7bc336e692c25ab1c8a6",
        "deployment_final_aaso_2.csv": "ac70a7fc18c6bba60d41921c6477a0bdbe81eae89fd8888fd17e76603ea2a5a7",
        "deployment_final_pso_1.csv": "42573134c6e40bafde96e835e61078c40e2cd51886dd4c4249f79525238f4c30",
        "deployment_final_pso_2.csv": "2848757b21a1441197de8ec1b48e289caf7be7efc056d9bbe9245a34fe34d061",
        "deployment_final_vfa_1.csv": "2314dd93d976a85f078d74e7086bf29d4323b3af4e6154d9b2128839b1c0d944",
        "deployment_final_vfa_2.csv": "920adc06c0427378b7d955f77db35fe04241a15ed348756164d689240245690b",
        "layout_final_aaso_1.svg": "00f32abe8ed80c6dc2bc9349a9be99d53a9c18c4ce88ba349f6cb11ea7c4f257",
        "layout_final_aaso_2.svg": "8112123fe57563586c20729c1c72845d73bfb60b177cacc3c251be1b98eabac6",
        "layout_final_pso_1.svg": "6d1ec48ad543279de2b3ca5c356f12676e1199a3d22160eda65c3cd5b3dfda5f",
        "layout_final_pso_2.svg": "59a1d307a4ae4fdbceac17b1a4be540561bc7db55667051ce5dae6a89d722db9",
        "layout_final_vfa_1.svg": "5417830f488edddd25a71bc6ad729af3827b1742dcfde5615d1b15e4f7881bb5",
        "layout_final_vfa_2.svg": "faf71750640ccc790c418ea521d55a4c5b65edfaefa922032e0e63d579b03eb7",
        "layout_initial_1.svg": "50c94fdc8730f3d10f0538a5e9a8879dedf1a28de8bb8c16062b14a5aba80845",
        "layout_initial_2.svg": "048d710194682d1bc7b5be56bbc238f885bab7d7bf9cde79583a4ce0d066e81f",
        "results.json": "eda7c5da5797e8fcb1487b28864ef75f276169e7a0e14a3e3d7bbba5e9f3a72d",
        "summary.csv": "e6706f9baf798694070c25a4f5ba66f64dc103bb86085242d681e0cc2a6af623",
    },
    "bench": {
        "statistics.csv": "bd7ae9a69b192bbf818ebe31602aa2e3af1c2108b7e03060dbc6b896abd08928",
        "trace_aaso_ackley_3.csv": "09c91bbbc008ddc0bb0e958b234c13c3435da2ea77a07a897222668d17ac1caa",
        "trace_aaso_ackley_4.csv": "166201f8ff848f013b2b535c2bd6dbb65b86a6c9c0888dbc311f7831688453a7",
        "trace_aaso_griewank_3.csv": "034625b61a983ed9a4a53aac5c1d7fb6dca4b265b39d70e52b98382e36645deb",
        "trace_aaso_griewank_4.csv": "bd505d2dc1235f25cf47bbedcbcb17bd58dfc8a7049cab18d692ddb76b44720e",
        "trace_aaso_rastrigin_3.csv": "f8ada1821bae557e01b35d232b42ea4eef0b0222e7a3e26e74b5215e839b93c4",
        "trace_aaso_rastrigin_4.csv": "9016721a06e71664a62409a5b54a13547b7708b2b199a849ff832675a187f11c",
        "trace_aaso_rosenbrock_3.csv": "092644787b3f459374f8e3ed79b5f0b5db0579643448fbf4f5e91a1b47ab47ba",
        "trace_aaso_rosenbrock_4.csv": "bcad1790d70363584c9e61389d7bdb6ece23a1d8c983ed841b6bfc505bec962b",
        "trace_aaso_schwefel_3.csv": "6b06d64abbeda9c7c84f1ec7c2e31eb2f0cc7a7da13548bb2c2b4b78af89441b",
        "trace_aaso_schwefel_4.csv": "48986ac6ed7f543fdec7c7e9007edb94dd252ece49adf387ec2a7d86d87bbb93",
        "trace_aaso_sphere_3.csv": "7dd92ff970ca26b5da875a4f9d5e9b02a2278d90c39f5d03283390f4b43058ed",
        "trace_aaso_sphere_4.csv": "45d8eeca0c3b78c11a2ff5a8e54020a34641af0938e65229cbc2efff6526cc28",
        "trace_pso_ackley_3.csv": "daa86b04f5d70612fd948c7a5604736dee9ad0f4f11e19ea1b5edebfcd18dd40",
        "trace_pso_ackley_4.csv": "8e09ffa55bfc20ba3ca9030298275e420e567bbe18f144bcf77c649f189c9dad",
        "trace_pso_griewank_3.csv": "2baed0156ae8b9c6b768b00e6ad9fc8b1c22c06b92a0d604f1167bc00e3b6103",
        "trace_pso_griewank_4.csv": "3a3e614c482cc49cd2bee935caa0251dbf221cbee4c39ed9b2ebfbb54a2c1f80",
        "trace_pso_rastrigin_3.csv": "3c22f9c58e9acafe3e4309817f7fae20b4c98487d225d18cb0de963fb21138e4",
        "trace_pso_rastrigin_4.csv": "0066cb037eef23b70fbb08a07e2674eaad72c0890b6fb47d61ff68ebc701beba",
        "trace_pso_rosenbrock_3.csv": "11fd7e451abfd5a897da6214f10b0eb12093054ba296e137303ab10df6cb9bca",
        "trace_pso_rosenbrock_4.csv": "a100e922aae2027f97b8984c2823856851d19085063268fd9aad27a41ec37f16",
        "trace_pso_schwefel_3.csv": "4adccabb87b0c4d01ef3afe2ee94b62971505c4bafcdcf5d6f5594cdb70d070e",
        "trace_pso_schwefel_4.csv": "7568533441868acd6c889b9956a011faa912ca62aa4095b071beb5d8f971ea0a",
        "trace_pso_sphere_3.csv": "942f58d4854b45b19980c5d8b9d19a524824f6adcaa59bfe832a537dd2ede02a",
        "trace_pso_sphere_4.csv": "f8d0649585256aff74b36121aaeca4e6b40b99d4724d2b11b82ff04ba31232c4",
        "trace_random_ackley_3.csv": "b8061edffc37e02e1a55133e332cca6ea9edd83bae872432e801f6624911f71c",
        "trace_random_ackley_4.csv": "93f5b392427d167401904412158844e54de0ee0346131859504013b24259397a",
        "trace_random_griewank_3.csv": "bba7a834a39a052839d59e312e68f71160d59e675da5192c84904cd6a9dde738",
        "trace_random_griewank_4.csv": "b5f623d00edab3a87433ebf28749c9cbf7d6f9f821dfa252a617dbbb6234946d",
        "trace_random_rastrigin_3.csv": "c73a07f7433de4f78e0f70789c87df405942f0f15385aaaa366e3acb3c195910",
        "trace_random_rastrigin_4.csv": "23f3e779db196362176dc87ad1a3f9c8dc11a689f5ce55c0cf7ec1d50bc58f40",
        "trace_random_rosenbrock_3.csv": "61bc15ffa6c5429cc3c1a239c9665af4833ead84247b19871093b9cd51f9ae5b",
        "trace_random_rosenbrock_4.csv": "31b2500881096c359f713d9a16a7aa76b173bb3bd5b462ce00e35fe9e775545d",
        "trace_random_schwefel_3.csv": "1cb23c54765874777589d69400997bc76f10a3033160d2ed9d97e4637f3a635a",
        "trace_random_schwefel_4.csv": "c68756bbce5baf780f58c3e645d4fb02d1317818d059e00c24fa580d6f329807",
        "trace_random_sphere_3.csv": "8395eceaef812892ec7dd69f217c2bcc493b1892b48b013e26e8f2227cd94905",
        "trace_random_sphere_4.csv": "176a0958c1159efa9d187d7969da7778c7d52c884d019a56362fb1c95d8a44f8",
    },
}


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


def test_analyze_non_finite_radius_is_an_error(capsys):
    code = main(["analyze", "--area", "500x500", "--nodes", "110", "--radius", "nan", "--fov", "90"])
    assert code == 2
    assert "error: need finite positive radius and area" in capsys.readouterr().err


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


def test_cover_non_finite_deployment_fails_its_seeds(tmp_path, capsys):
    deploy = tmp_path / "nan.csv"
    deploy.write_text("x_m,y_m,radius_m,view_angle_deg,deviation_deg\n50,50,30,90,nan\n")
    config = write_config(tmp_path, TINY_COVER + f"deployment_path = {deploy}\n")
    out = tmp_path / "out"
    assert main(["cover", "run", "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"FAILED seed 1 (deploy): {deploy}:2: sensor deviation must be finite" in err
    assert json.loads((out / "results.json").read_text(), parse_constant=float) == []


def test_cover_programming_error_propagates(tmp_path, monkeypatch):
    def broken_enhancer(*args, **kwargs):
        raise TypeError("enhancer called wrongly")

    monkeypatch.setattr(armyant.cli, "enhance_vfa", broken_enhancer)
    config = write_config(tmp_path, TINY_COVER)
    with pytest.raises(TypeError, match="enhancer called wrongly"):
        main(["cover", "run", "--config", config, "--out", str(tmp_path / "out")])


def test_atomic_write_failing_halfway_keeps_previous_file(tmp_path):
    path = tmp_path / "results.json"
    write_atomic(str(path), lambda fh: fh.write("old\n"))

    def fails_halfway(fh):
        fh.write("new, part one\n")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_atomic(str(path), fails_halfway)
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


@pytest.mark.parametrize("line,message", [
    ("area_length_m = inf", "monitoring area dimensions must be positive and finite"),
    ("area_length_m = nan", "monitoring area dimensions must be positive and finite"),
    ("grid_interval_m = inf", "grid_interval_m must be positive and finite"),
    ("radius_m = nan", "radius_m must be positive and finite"),
    ("radius_m = inf", "radius_m must be positive and finite"),
    ("attack_coeff = inf", "attack_coeff must be positive and finite"),
], ids=["length_inf", "length_nan", "interval_inf", "radius_nan", "radius_inf", "attack_inf"])
def test_cover_non_finite_config_value_fails_before_running(tmp_path, capsys, line, message):
    key = line.split()[0]
    kept = [row for row in TINY_COVER.splitlines() if row.split(" ")[0] != key]
    config = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
    out = tmp_path / "out"
    assert main(["cover", "run", "--config", config, "--out", str(out)]) == 2
    assert f"error: {config}: {message}" in capsys.readouterr().err
    assert not out.exists()


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
    config = OptimizerConfig(population=6, max_iters=8, attack_coeff=0.5, stagnation_threshold=1)
    stats = compare(["aaso", "random"], ["sphere"], runs=2, base_seed=3, config=config, dim=3)
    write_statistics_csv(stats, expected)
    assert statistics == expected.read_bytes()
    func = get_benchmark("sphere", 3)
    for seed in (3, 4):
        history = run(func, func.box, config, RandomSource(seed)).history
        rows = list(csv.reader(open(tuned / f"trace_aaso_sphere_{seed}.csv")))[1:]
        assert [float(r[1]) for r in rows] == history.tolist()


@pytest.mark.parametrize("command", sorted(ARTIFACT_GOLDEN))
def test_run_artifacts_golden(command, tmp_path):
    config = write_config(tmp_path, TINY_COVER if command == "cover" else GOLDEN_BENCH)
    out = tmp_path / "out"
    assert main([command, "run", "--config", config, "--out", str(out)]) == 0
    assert tree_digest(out) == ARTIFACT_GOLDEN[command]


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
