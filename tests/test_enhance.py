import hashlib
import math

import numpy as np
import pytest

import armyant as aa
from armyant.coverage import CoverageEvaluator, with_deviations
from armyant.enhance import _pull, _wrap_signed, enhance_aaso, enhance_pso, enhance_vfa
from armyant.rng import RandomSource

PI = math.pi


def headline_instance(seed, count=8, radius=30.0):
    field = aa.CoverageField(100, 100, 5)
    sensors = aa.random_deployment(field, count, radius, PI / 2, RandomSource(seed))
    return field, sensors


def brute_force_best_count(sensor, field, step_deg=0.5):
    ev = CoverageEvaluator([sensor], field)
    return max(
        ev.covered_count(np.array([math.radians(a)]))
        for a in np.arange(0.0, 360.0, step_deg)
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_single_sensor_matches_brute_force_sweep(seed):
    field = aa.CoverageField(100, 100, 5)
    sensors = aa.random_deployment(field, 1, 30.0, PI / 2, RandomSource(seed))
    best = brute_force_best_count(sensors[0], field)
    cfg = aa.OptimizerConfig(population=20, max_iters=60)
    run = enhance_aaso(sensors, field, cfg, RandomSource(seed))
    assert abs(round(run.final_rate * field.grid_count) - best) <= 1

    pso_cfg = aa.OptimizerConfig(population=50, max_iters=100)
    pso = enhance_pso(sensors, field, pso_cfg, RandomSource(seed))
    assert abs(round(pso.final_rate * field.grid_count) - best) <= 1


def test_two_colocated_sensors_reach_disjoint_cones():
    # two sensors sharing a position can nearly double one sector's coverage
    field = aa.CoverageField(200, 200, 5)
    base = aa.Sensor(100, 100, 60, PI / 2, 0.3)
    single_best = brute_force_best_count(base, field)
    pair = [base, aa.Sensor(100, 100, 60, PI / 2, 0.3)]
    cfg = aa.OptimizerConfig(population=20, max_iters=60)
    run = enhance_aaso(pair, field, cfg, RandomSource(2))
    assert round(run.final_rate * field.grid_count) >= 1.5 * single_best - 3


@pytest.mark.parametrize("name,runner", [
    ("aaso", lambda s, f, seed: enhance_aaso(
        s, f, aa.OptimizerConfig(population=10, max_iters=15), RandomSource(seed))),
    ("pso", lambda s, f, seed: enhance_pso(
        s, f, aa.OptimizerConfig(population=10, max_iters=15), RandomSource(seed))),
    ("vfa", lambda s, f, seed: enhance_vfa(s, f, 15)),
])
def test_enhancement_run_contract(name, runner):
    # also on one grid that the one sensor does not reach, where zero
    # coverage must read 0.0, not the 1.0 of full coverage
    one_grid = aa.CoverageField(5, 5, 5), [aa.Sensor(0.1, 0.1, 3.0, 0.2, PI)]
    for field, sensors in (headline_instance(seed=5), one_grid):
        before = [(s.x, s.y, s.deviation) for s in sensors]
        run = runner(sensors, field, 5)

        assert np.all(np.diff(run.curve) >= 0.0)            # best-so-far coverage
        assert run.curve[0] >= run.initial_rate
        assert run.final_rate == run.curve[-1]
        assert run.final_rate >= run.initial_rate
        # round trip: recompute coverage of the returned angles from scratch
        assert np.all((run.best_angles >= 0.0) & (run.best_angles < 2 * PI))
        final = aa.coverage(with_deviations(sensors, run.best_angles), field)
        assert final.rate == run.final_rate
        # node positions never change and inputs are not mutated
        assert [(s.x, s.y, s.deviation) for s in sensors] == before


@pytest.mark.parametrize("runner", [
    lambda s, f, seed: enhance_aaso(
        s, f, aa.OptimizerConfig(population=8, max_iters=12), RandomSource(seed)),
    lambda s, f, seed: enhance_pso(
        s, f, aa.OptimizerConfig(population=8, max_iters=12), RandomSource(seed)),
    lambda s, f, seed: enhance_vfa(s, f, 12),
])
def test_enhancers_deterministic(runner):
    field, sensors = headline_instance(seed=9)
    a = runner(sensors, field, 9)
    b = runner(sensors, field, 9)
    assert np.array_equal(a.curve, b.curve)
    assert np.array_equal(a.best_angles, b.best_angles)
    assert a.evaluations == b.evaluations


def test_aaso_evaluation_budget():
    field, sensors = headline_instance(seed=3)
    cfg = aa.OptimizerConfig(population=10, max_iters=20)
    run = enhance_aaso(sensors, field, cfg, RandomSource(3))
    base = 10 + 10 * 20
    assert run.evaluations >= base
    assert (run.evaluations - base) % math.ceil(10 / 2) == 0  # bridge extras only


def test_pso_evaluation_budget():
    field, sensors = headline_instance(seed=4)
    cfg = aa.OptimizerConfig(population=10, max_iters=20)
    run = enhance_pso(sensors, field, cfg, RandomSource(4))
    assert run.evaluations == 10 * 21


def test_curve_matches_iteration_count():
    field, sensors = headline_instance(seed=2)
    cfg = aa.OptimizerConfig(population=8, max_iters=25)
    assert len(enhance_aaso(sensors, field, cfg, RandomSource(2)).curve) == 26
    assert len(enhance_vfa(sensors, field, 25).curve) == 26


def test_vfa_rotates_toward_uncovered_mass():
    # sensor near the right edge pointing off-field: the uncovered grids sit to
    # its left, so it turns counterclockwise by exactly one step per iteration
    field = aa.CoverageField(200, 200, 5)
    sensor = aa.Sensor(180, 100, 50, PI / 2, 0.0)
    run = enhance_vfa([sensor], field, 30)
    assert run.best_angles[0] == pytest.approx(30 * PI / 90, abs=1e-9)
    assert run.final_rate > run.initial_rate


def test_vfa_calls_sensed_subset_once_per_sweep(monkeypatch):
    # one call on the deployed angles, then one per sweep on both turns of
    # every sensor; the tracer's ``coverage.subset_calls`` counts these calls
    # by wrapping the class attribute in the same way
    shapes = []
    sensed_subset = CoverageEvaluator.sensed_subset

    def counted(self, angles):
        shapes.append(np.shape(angles))
        return sensed_subset(self, angles)

    monkeypatch.setattr(CoverageEvaluator, "sensed_subset", counted)
    field, sensors = headline_instance(seed=5)
    run = enhance_vfa(sensors, field, 15)
    n = len(sensors)
    assert shapes == [(1, n)] + [(2, n)] * 15
    assert run.evaluations > n


def test_pull_row_sums_are_the_one_dimensional_sums():
    # VFA's goldens were recorded with one pairwise sum per 1-D array; the
    # (2, m) row reduce must give the same doubles at every length
    rng = np.random.default_rng(6)
    for m in [*range(0, 300), 511, 1024, 4097, 8193, 20001]:
        bearing = rng.uniform(-PI, PI, m)
        cos_sin = np.stack([np.cos(bearing), np.sin(bearing)])
        x, y = np.add.reduce(cos_sin[0]), np.add.reduce(cos_sin[1])
        expected = 0.0 if x == 0.0 and y == 0.0 else _wrap_signed(math.atan2(y, x) - 1.0)
        assert _pull(cos_sin, 1.0) == expected


def test_vfa_zero_attraction_when_fully_covered():
    field = aa.CoverageField(20, 20, 5)
    omni = aa.Sensor(10, 10, 30, 2 * PI, 1.0)
    run = enhance_vfa([omni], field, 5)
    assert run.initial_rate == 1.0
    assert run.final_rate == 1.0
    assert run.best_angles[0] == pytest.approx(1.0)


def test_incumbent_seeding_never_starts_worse():
    # with zero iterations of improvement possible the incumbent still caps the floor
    field, sensors = headline_instance(seed=7)
    cfg = aa.OptimizerConfig(population=8, max_iters=1)
    run = enhance_aaso(sensors, field, cfg, RandomSource(7))
    assert run.curve[0] >= run.initial_rate


def test_empty_sensor_list_rejected():
    field = aa.CoverageField(50, 50, 5)
    with pytest.raises(ValueError):
        enhance_aaso([], field, aa.OptimizerConfig(), RandomSource(0))
    with pytest.raises(ValueError):
        enhance_vfa([], field, 100)
    with pytest.raises(ValueError):
        enhance_pso([], field, aa.OptimizerConfig(), RandomSource(0))


# name -> (sha256 of curve bytes, sha256 of best-angle bytes, evaluations), recorded
# with the two-add reduction kernel; any change in a sensed entry shows up here
ENHANCE_GOLDEN = {
    "aaso": ("d37ff57947e1821c68977033f29520b0b672ec2da5c8d0db8492952ea9a8dafe",
             "f5a62087c856cd3f5fc6de2119e1e6f9122602e54c3424fdfc6121a68b27f39d", 430),
    "pso": ("a3b94145cefc8b9351013f72aa239ee4365649a870f5d720b04fd32437d9b7c1",
            "bfbef12459c10471ed8a5cd851268f1e47270ef5e5bfed82a0a7647fd5dbc53d", 420),
    "vfa": ("40ee0102660989c753793acb38e047554ffafcf099954ae89f7b2dbe36a8ea37",
            "33ed2e03ed4e3c705072d4650a37877da9743dbacf1431373f34f7c0a854e079", 420),
}


@pytest.mark.parametrize("name", sorted(ENHANCE_GOLDEN))
def test_enhance_golden(name):
    field = aa.CoverageField(200, 200, 10)  # 20 x 20 grids
    sensors = aa.random_deployment(field, 20, 40.0, PI / 2, RandomSource(13))
    if name == "vfa":
        run = enhance_vfa(sensors, field, 20)
    else:
        enhance = enhance_aaso if name == "aaso" else enhance_pso
        run = enhance(sensors, field, aa.OptimizerConfig(population=20, max_iters=20), RandomSource(13))
    got = (
        hashlib.sha256(run.curve.tobytes()).hexdigest(),
        hashlib.sha256(run.best_angles.tobytes()).hexdigest(),
        run.evaluations,
    )
    assert got == ENHANCE_GOLDEN[name]


# seed -> (sha256 of curve bytes, sha256 of best-angle bytes, final rate, evaluations)
# of VFA at headline size: 500 m field, 5 m grid, 110 sensors, R = 60 m, 90 degrees
VFA_HEADLINE_GOLDEN = {
    1: ("1cf5b03edc2ea9d1c1109b0b0b6fd023b46faba5f674f2f211d6ef88ab2bc34f",
        "fe0b92ef6abd758afb934fc67a6f0fefbd65e969d688bbaf76f776772d32c490", 0.8203, 11110),
    2: ("4e45d79de647b0555b7de5042c5e645453f73a1987c8ddca20cd6c89f081a0ed",
        "3354c528d54f0ccd72af0212830e2742763654849d9fc6425d5c4a06870a242e", 0.8433, 11110),
}


@pytest.mark.parametrize("seed", sorted(VFA_HEADLINE_GOLDEN))
def test_vfa_headline_golden(seed):
    field = aa.CoverageField(500, 500, 5)
    sensors = aa.random_deployment(field, 110, 60.0, PI / 2, RandomSource(seed))
    run = enhance_vfa(sensors, field, 100)
    got = (
        hashlib.sha256(run.curve.tobytes()).hexdigest(),
        hashlib.sha256(run.best_angles.tobytes()).hexdigest(),
        run.final_rate,
        run.evaluations,
    )
    assert got == VFA_HEADLINE_GOLDEN[seed]
