import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armyant.coverage import (
    TWO_PI,
    CoverageEvaluator,
    CoverageField,
    Sensor,
    candidate_grids,
    canonicalize_angle,
    coverage,
    coverage_naive,
    expected_initial_coverage,
    is_sensed,
    random_deployment,
    read_deployment,
    required_nodes,
    with_deviations,
    write_deployment,
    _CHUNK,
    _bisect_intervals,
    _bound,
    _in_interval,
    _in_sector,
    _reduce_angle,
    _sensed,
    _sensing_intervals,
)
from armyant.rng import RandomSource

PI = math.pi


# --- types ---------------------------------------------------------------------

def test_sensor_validation_and_canonicalization():
    with pytest.raises(ValueError):
        Sensor(0, 0, radius=0.0, view_angle=PI / 2)
    with pytest.raises(ValueError):
        Sensor(0, 0, radius=1.0, view_angle=0.0)
    with pytest.raises(ValueError):
        Sensor(0, 0, radius=1.0, view_angle=2 * PI + 0.1)
    assert Sensor(0, 0, 1.0, PI, deviation=-PI / 2).deviation == pytest.approx(1.5 * PI)
    assert Sensor(0, 0, 1.0, PI, deviation=2 * PI).deviation == 0.0


@pytest.mark.parametrize("name", ["x", "y", "radius", "deviation"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sensor_rejects_non_finite_values(name, value):
    # a NaN deviation would pass every non-wrapping interval test of the
    # evaluator and score as sensed
    values = dict(x=1.0, y=2.0, radius=3.0, view_angle=PI / 2, deviation=0.5)
    values[name] = value
    with pytest.raises(ValueError, match=f"sensor {name} must be finite"):
        Sensor(**values)


def test_field_grid_layout():
    field = CoverageField(500, 500, 5)
    assert field.nx == field.ny == 100
    assert field.grid_count == 10000
    assert field.centroids.shape == (10000, 2)
    assert field.centroids.min() == 2.5
    assert field.centroids.max() == 497.5


def test_field_clipped_edge_cells_keep_geometric_centers():
    field = CoverageField(503, 500, 5)
    assert field.nx == 101
    xs = np.unique(field.centroids[:, 0])
    assert xs[-1] == pytest.approx((500 + 503) / 2)  # clipped strip [500, 503]
    assert xs[-2] == pytest.approx(497.5)
    assert np.all(field.centroids[:, 0] <= 503)


def test_field_validation():
    with pytest.raises(ValueError):
        CoverageField(0, 10, 1)
    with pytest.raises(ValueError):
        CoverageField(10, 10, 0)


@pytest.mark.parametrize("name", ["length", "width", "interval"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_field_rejects_non_finite_values(name, value):
    # the grid counts are ceil(extent / interval), which has no value here
    values = dict(length=10.0, width=10.0, interval=1.0)
    values[name] = value
    with pytest.raises(ValueError, match="must be positive and finite"):
        CoverageField(**values)


def test_deployment_scheme_canonicalizes():
    # a deployment scheme is an array of deviations; enhancers report theirs
    # through canonicalize_angle
    angles = canonicalize_angle(np.array([-0.5, 7.0, 2 * PI]))
    assert np.all(angles >= 0.0) and np.all(angles < 2 * PI)
    assert angles.shape == (3,)


# --- sensing predicate -----------------------------------------------------------

SENSOR = Sensor(0.0, 0.0, radius=60.0, view_angle=PI / 2, deviation=0.0)


def test_is_sensed_examples():
    from armyant.coverage import is_sensed

    assert is_sensed(SENSOR, (30.0, 0.0))            # on-axis interior
    assert not is_sensed(SENSOR, (0.0, 30.0))        # angular offset pi/2 > alpha/2
    assert is_sensed(SENSOR, (30.0, 30.0))           # offset exactly alpha/2, inclusive
    assert not is_sensed(SENSOR, (61.0, 0.0))        # beyond the radius


def test_zero_distance_always_sensed():
    from armyant.coverage import is_sensed

    backwards = Sensor(5.0, 5.0, radius=10.0, view_angle=0.5, deviation=PI)
    assert is_sensed(backwards, (5.0, 5.0))


def test_full_view_angle_is_a_disc():
    from armyant.coverage import is_sensed

    omni = Sensor(0.0, 0.0, radius=10.0, view_angle=2 * PI, deviation=1.0)
    for angle in np.linspace(0, 2 * PI, 13):
        assert is_sensed(omni, (9.9 * math.cos(angle), 9.9 * math.sin(angle)))


# --- candidate grids --------------------------------------------------------------

def test_candidate_single_grid_for_tiny_radius():
    field = CoverageField(10, 10, 5)  # centroids at 2.5 and 7.5
    sensor = Sensor(2.5, 2.5, radius=2.0, view_angle=PI / 2)
    assert candidate_grids(sensor, field).tolist() == [0]


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_candidate_set_equals_distance_filter_and_contains_sensed(seed):
    rng = RandomSource(seed)
    field = CoverageField(60, 45, 4)
    sensor = Sensor(
        float(rng.uniform()) * 60,
        float(rng.uniform()) * 45,
        radius=3 + float(rng.uniform()) * 30,
        view_angle=0.3 + float(rng.uniform()) * (2 * PI - 0.3),
        deviation=float(rng.uniform()) * 2 * PI,
    )
    idx = candidate_grids(sensor, field)
    dist = np.hypot(
        field.centroids[:, 0] - sensor.x, field.centroids[:, 1] - sensor.y
    )
    assert np.array_equal(idx, np.flatnonzero(dist <= sensor.radius))
    covered = coverage([sensor], field).covered
    assert set(np.flatnonzero(covered)) <= set(idx.tolist())


# --- coverage ---------------------------------------------------------------------

def test_zero_sensors_zero_rate():
    field = CoverageField(50, 50, 5)
    result = coverage([], field)
    assert result.rate == 0.0
    assert not result.covered.any()


def test_sector_area_oracle():
    # one centered sensor with a lattice-generic bisector: the centroid count
    # reproduces the analytic sector area within two grid cells
    for length, h, radius, theta in [(300, 2, 60, 0.4), (200, 1, 50, 1.1)]:
        field = CoverageField(length, length, h)
        s = Sensor(length / 2, length / 2, radius, PI / 2, theta)
        rate = coverage([s], field).rate
        analytic = (PI / 4) * radius**2 / field.area
        assert abs(rate - analytic) <= 2 * h * h / field.area


def test_disc_area_oracle():
    field = CoverageField(300, 300, 1)
    s = Sensor(150, 150, 60, 2 * PI, 0.0)
    rate = coverage([s], field).rate
    analytic = PI * 60**2 / field.area
    assert abs(rate - analytic) <= 8 * 1 / field.area


@pytest.mark.parametrize("base", [0.4, 1.0, 2.2])
def test_rotation_by_quarter_turn_preserves_count(base):
    # generic bisectors; exact lattice alignment would inflate the count via
    # the inclusive boundary rule
    field = CoverageField(500, 500, 5)
    c1 = coverage([Sensor(250, 250, 60, PI / 2, base)], field).covered_count
    c2 = coverage([Sensor(250, 250, 60, PI / 2, base + PI / 4)], field).covered_count
    assert abs(c1 - c2) <= 2


def test_relabeling_invariance():
    field = CoverageField(100, 80, 5)
    sensors = random_deployment(field, 6, 25.0, PI / 2, RandomSource(3))
    a = coverage(sensors, field)
    b = coverage(list(reversed(sensors)), field)
    assert np.array_equal(a.covered, b.covered)


def test_translation_by_grid_multiples_preserves_interior_count():
    field = CoverageField(200, 200, 5)
    cluster = [
        Sensor(60.0, 60.0, 20.0, PI / 2, 0.7),
        Sensor(75.0, 55.0, 20.0, PI / 3, 2.1),
    ]
    shifted = [
        Sensor(s.x + 3 * 5, s.y + 7 * 5, s.radius, s.view_angle, s.deviation)
        for s in cluster
    ]
    assert coverage(cluster, field).covered_count == coverage(shifted, field).covered_count


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_pruned_equals_naive(seed):
    rng = RandomSource(seed)
    field = CoverageField(
        30 + float(rng.uniform()) * 120, 30 + float(rng.uniform()) * 120,
        3 + float(rng.uniform()) * 4,
    )
    n = 1 + int(rng.uniform() * 10)
    sensors = random_deployment(
        field, n, 10 + float(rng.uniform()) * 50,
        0.2 + float(rng.uniform()) * (2 * PI - 0.2), rng,
    )
    assert np.array_equal(coverage(sensors, field).covered, coverage_naive(sensors, field).covered)


# --- deployment math ---------------------------------------------------------------

def test_expected_initial_coverage_values():
    assert expected_initial_coverage(0, 60, PI / 2, 250000) == 0.0
    # saturating single sensor: alpha R^2 = 2H
    assert expected_initial_coverage(1, 10, 2.0, 100.0) == 1.0
    value = expected_initial_coverage(110, 60, PI / 2, 250000)
    assert value == pytest.approx(0.7138271390801405, abs=1e-12)
    assert abs(value - 0.7139) <= 0.0005


def test_expected_initial_coverage_domain_errors():
    with pytest.raises(ValueError):
        expected_initial_coverage(5, 1000, 2 * PI, 100.0)
    with pytest.raises(ValueError):
        expected_initial_coverage(-1, 10, 1.0, 1000.0)


@pytest.mark.parametrize("radius,area", [
    (math.nan, 1e4), (math.inf, 1e4), (10.0, math.nan), (10.0, math.inf),
], ids=["radius_nan", "radius_inf", "area_nan", "area_inf"])
def test_deployment_math_rejects_non_finite_inputs(radius, area):
    with pytest.raises(ValueError, match="need finite positive radius and area"):
        expected_initial_coverage(5, radius, PI / 2, area)
    with pytest.raises(ValueError, match="need finite positive radius and area"):
        required_nodes(0.5, radius, PI / 2, area)


def test_required_nodes_paper_scenario():
    assert required_nodes(0.8752, 60, PI / 2, 250000) == 183


def test_required_nodes_edges():
    assert required_nodes(1e-12, 60, PI / 2, 250000) == 1
    big = required_nodes(0.9999999, 60, PI / 2, 250000)
    assert big > 1000 and math.isfinite(big)
    with pytest.raises(ValueError):
        required_nodes(1.0, 60, PI / 2, 250000)
    with pytest.raises(ValueError):
        required_nodes(0.0, 60, PI / 2, 250000)


def test_required_nodes_round_trip():
    for d in range(1, 301):
        target = expected_initial_coverage(d, 60, PI / 2, 250000)
        assert required_nodes(target, 60, PI / 2, 250000) <= d


# --- reciprocal-coverage objective ---------------------------------------------------

def test_cepw_fitness_full_and_half_and_empty():
    field = CoverageField(10, 10, 5)  # four grids
    omni = Sensor(5.0, 5.0, 20.0, 2 * PI, 0.0)
    assert CoverageEvaluator([omni], field).fitness(np.array([[0.0]])).tolist() == [1.0]

    field2 = CoverageField(10, 5, 5)  # two grids
    one_cell = Sensor(2.5, 2.5, 1.0, 2 * PI, 0.0)
    assert CoverageEvaluator([one_cell], field2).fitness(np.array([[0.0]])).tolist() == [2.0]

    blind = Sensor(4.0, 4.0, 0.5, 0.3, 0.0)  # reaches no centroid
    # grid_count squared
    assert CoverageEvaluator([blind], field2).fitness(np.array([[0.0]])).tolist() == [4.0]


def test_cepw_fitness_length_mismatch():
    field = CoverageField(10, 10, 5)
    evaluator = CoverageEvaluator([Sensor(5, 5, 3, PI)], field)
    with pytest.raises(ValueError, match="one angle per sensor"):
        evaluator.fitness(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="block"):
        evaluator.fitness(np.array([0.0]))


def test_cepw_fitness_block_rows_match_single_rows():
    field = CoverageField(60, 60, 5)
    sensors = random_deployment(field, 3, 20.0, PI / 2, RandomSource(12))
    evaluator = CoverageEvaluator(sensors, field)
    block = RandomSource(5).uniform((6, 3)) * 2 * PI
    values = evaluator.fitness(block)
    assert values.shape == (6,)
    for row, value in zip(block, values):
        assert value == field.grid_count / evaluator.covered_count(row)


def test_cepw_argmin_matches_rate_argmax():
    field = CoverageField(60, 60, 5)
    sensors = random_deployment(field, 3, 20.0, PI / 2, RandomSource(12))
    rng = RandomSource(99)
    candidates = [rng.uniform(3) * 2 * PI for _ in range(8)]
    evaluator = CoverageEvaluator(sensors, field)
    fits = evaluator.fitness(np.array(candidates))
    rates = [coverage(with_deviations(sensors, c), field).rate for c in candidates]
    assert int(np.argmin(fits)) == int(np.argmax(rates))


# --- random deployment and interchange format -----------------------------------------

def test_random_deployment_deterministic_and_in_bounds():
    field = CoverageField(500, 400, 5)
    a = random_deployment(field, 50, 60, PI / 2, RandomSource(6))
    b = random_deployment(field, 50, 60, PI / 2, RandomSource(6))
    assert all(
        (s.x, s.y, s.deviation) == (t.x, t.y, t.deviation) for s, t in zip(a, b)
    )
    for s in a:
        assert 0 <= s.x <= 500 and 0 <= s.y <= 400
        assert 0 <= s.deviation < 2 * PI


def test_random_deployment_uniform_position_mean():
    field = CoverageField(500, 500, 5)
    sensors = random_deployment(field, 10000, 60, PI / 2, RandomSource(13))
    xs = np.array([s.x for s in sensors])
    ys = np.array([s.y for s in sensors])
    three_se = 3 * (500 / math.sqrt(12)) / 100
    assert abs(xs.mean() - 250) <= three_se
    assert abs(ys.mean() - 250) <= three_se


def test_deployment_io_round_trip(tmp_path):
    field = CoverageField(120, 90, 5)
    sensors = random_deployment(field, 7, 25.0, PI / 3, RandomSource(4))
    path = tmp_path / "deploy.csv"
    write_deployment(sensors, path)
    loaded = read_deployment(path)
    assert len(loaded) == 7
    for s, t in zip(sensors, loaded):
        assert t.x == s.x and t.y == s.y and t.radius == s.radius
        assert t.view_angle == pytest.approx(s.view_angle, abs=1e-12)
        assert t.deviation == pytest.approx(s.deviation, abs=1e-12)


def test_deployment_io_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n")
    with pytest.raises(ValueError, match="header"):
        read_deployment(bad)
    bad.write_text("x_m,y_m,radius_m,view_angle_deg,deviation_deg\n1,2,3\n")
    with pytest.raises(ValueError, match="5 fields"):
        read_deployment(bad)
    bad.write_text("x_m,y_m,radius_m,view_angle_deg,deviation_deg\n1,2,3,four,5\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_deployment(bad)
    bad.write_text("x_m,y_m,radius_m,view_angle_deg,deviation_deg\n1,2,3,90,5\n1,2,3,90,nan\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}:3: sensor deviation must be finite")):
        read_deployment(bad)


def test_canonicalize_angle():
    assert canonicalize_angle(2 * PI) == 0.0
    assert canonicalize_angle(-0.5) == pytest.approx(2 * PI - 0.5)
    arr = canonicalize_angle(np.array([7.0, -7.0, 0.0]))
    assert np.all(arr >= 0.0) and np.all(arr < 2 * PI)


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_evaluator_matches_oneshot_coverage(seed):
    # the one-shot path tests entries directly; the evaluator tests the
    # intervals read off that test: the masks must agree
    rng = RandomSource(seed)
    field = CoverageField(100, 100, 5)
    sensors = random_deployment(
        field, 8, 10 + float(rng.uniform()) * 40, 0.2 + float(rng.uniform()) * (2 * PI - 0.2), rng
    )
    # a sensor on a grid centroid and an omnidirectional one
    sensors += [Sensor(52.5, 47.5, 20.0, PI / 3, float(rng.uniform()) * 2 * PI),
                Sensor(20.0, 70.0, 15.0, 2 * PI, 1.0)]
    ev = CoverageEvaluator(sensors, field)
    angles = np.array([s.deviation for s in sensors])
    assert np.array_equal(ev.covered_mask(angles), coverage(sensors, field).covered)
    assert ev.rate(angles) == coverage(sensors, field).rate
    # a deviation assigned after construction is not canonicalized yet
    sensors[0].deviation += 4 * PI
    angles = np.array([s.deviation for s in sensors])
    assert np.array_equal(ev.covered_mask(angles), coverage(sensors, field).covered)


# --- exact two-add reduction (module docstring) ----------------------------------------

def reduce_bits(bearing, theta):
    """Bits of the evaluator's reduction and of np.mod for bearing - theta."""
    diff = np.asarray(bearing, dtype=float) - np.asarray(theta, dtype=float)
    ref = np.mod(diff, TWO_PI)
    got = _reduce_angle(diff.copy(), np.empty(diff.shape, dtype=bool))
    # the one documented difference: a zero keeps its sign; + 0.0 folds -0.0 into +0.0
    return (got + 0.0).view(np.uint64), ref.view(np.uint64)


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(-PI, PI), st.floats(0.0, TWO_PI, exclude_max=True)),
                min_size=1, max_size=50))
def test_reduction_equals_np_mod_bitwise(pairs):
    bearing, theta = np.array(pairs).T
    got, ref = reduce_bits(bearing, theta)
    assert np.array_equal(got, ref)


ULP_PI = np.spacing(PI)


@pytest.mark.parametrize("bearing", [PI, -PI, 0.0, -0.0, 1.0, -2.5])
@pytest.mark.parametrize("theta", [0.0, np.nextafter(TWO_PI, 0.0), PI, 1e-300])
def test_reduction_boundary_angles(bearing, theta):
    got, ref = reduce_bits([bearing], [theta])
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("theta,target", [
    (PI, -TWO_PI),
    (PI + 2 * ULP_PI, np.nextafter(-TWO_PI, -np.inf)),
    (PI - 2 * ULP_PI, np.nextafter(-TWO_PI, 0.0)),
])
def test_reduction_around_minus_two_pi(theta, target):
    assert -PI - theta == target
    got, ref = reduce_bits([-PI], [theta])
    assert np.array_equal(got, ref)


def test_reduction_keeps_sign_of_negative_zero():
    diff = np.array([-0.0 - 0.0])
    _reduce_angle(diff, np.empty(1, dtype=bool))
    assert math.copysign(1.0, diff[0]) == -1.0
    assert np.mod(-0.0 - 0.0, TWO_PI) == diff[0] == 0.0  # same value: <= and >= agree


LATTICE = CoverageField(40, 40, 5)  # centroids at 2.5 + 5k


@pytest.mark.parametrize("view_angle", [PI / 2, PI, 2 * PI])
@pytest.mark.parametrize("theta", [0.0, np.nextafter(TWO_PI, 0.0), TWO_PI, PI, PI / 4, 3 * PI / 2])
def test_evaluator_boundary_cases_match_reference(view_angle, theta):
    # sensors on centroids (a dist == 0 entry, bearings of exactly 0, pi/2, pi
    # and the diagonals) and between them
    sensors = [
        Sensor(17.5, 17.5, 12.0, view_angle, 0.0),
        Sensor(20.0, 22.5, 9.0, view_angle, 0.0),
        Sensor(2.5, 37.5, 15.0, view_angle, 0.0),
    ]
    angles = np.full(len(sensors), theta)
    ev = CoverageEvaluator(sensors, LATTICE)
    reference = coverage_naive(with_deviations(sensors, angles), LATTICE).covered
    assert np.array_equal(ev.covered_mask(angles), reference)
    assert np.array_equal(ev.covered_mask(angles), ev.covered_mask(canonicalize_angle(angles)))
    for i, sensor in enumerate(with_deviations(sensors, angles)):
        idx = ev.per_sensor[i][0]
        expected = [is_sensed(sensor, LATTICE.centroids[g]) for g in idx]
        assert ev.sensed_subset(i, theta).tolist() == expected
    if view_angle == 2 * PI:
        assert all(ev.sensed_subset(i, theta).all() for i in range(len(sensors)))


def test_evaluator_zero_distance_entry_is_sensed_backwards():
    sensor = Sensor(17.5, 17.5, 6.0, 0.2, 0.0)  # on a centroid, others off-axis
    ev = CoverageEvaluator([sensor], LATTICE)
    idx, _, zero = ev.per_sensor[0]
    assert zero.tolist().count(True) == 1
    for theta in (0.0, PI, 4.0):
        assert ev.covered_mask([theta])[idx[zero]].all()
        assert ev.sensed_subset(0, theta)[zero].all()


# --- exact sensing intervals (module docstring) -------------------------------------

LAST = np.nextafter(TWO_PI, 0.0)
HALF_ANGLES = st.one_of(
    st.sampled_from([1e-9, PI, np.nextafter(PI, 0.0), PI - 1e-12]),
    st.floats(0.0, PI, exclude_min=True),
)


def interval_test(theta, lo, hi):
    shape = np.broadcast(theta, lo).shape
    return _in_interval(theta, lo, hi, lo <= hi, np.empty(shape, dtype=bool),
                        np.empty(shape, dtype=bool)).copy()


def before(theta):
    """The double before each theta, circularly over [0, 2*pi)."""
    return np.where(theta == 0.0, LAST, np.nextafter(theta, -1.0))


def after(theta):
    return np.where(theta == LAST, 0.0, np.nextafter(theta, 7.0))


def assert_intervals_exact(bearing, half, lo, hi, extra=()):
    for theta in (lo, before(lo), hi, after(hi), np.zeros_like(lo), np.full_like(lo, LAST), *extra):
        got = interval_test(theta, lo, hi)
        assert np.array_equal(got, _sensed(bearing, half, TWO_PI - half, theta))
        assert np.array_equal(got, _in_sector(1.0, bearing, theta, half))


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(-PI, PI), HALF_ANGLES,
                          st.floats(0.0, TWO_PI, exclude_max=True)), min_size=1, max_size=30))
def test_interval_test_equals_reduction_and_np_mod(entries):
    bearing, half, theta = (np.array(column) for column in zip(*entries))
    lo, hi = _sensing_intervals(bearing, half, False)
    assert_intervals_exact(bearing, half, lo, hi, extra=[theta])
    full = half == PI
    assert np.all(lo[full] == 0.0) and np.all(hi[full] == LAST)


def test_bisection_gives_the_bracketed_bounds():
    rng = np.random.default_rng(3)
    bearing = np.concatenate([rng.uniform(-PI, PI, 400), [0.0, PI, -PI, PI / 2, -PI / 2]])
    half = np.concatenate([rng.uniform(0.0, PI, 200), np.full(205, 1e-9)])
    half[:4] = [PI - 1e-12, np.nextafter(PI, 0.0), 1e-300, PI / 4]
    lo, hi = _sensing_intervals(bearing, half, False)
    blo, bhi = _bisect_intervals(bearing, half, TWO_PI - half)
    assert np.array_equal(lo.view(np.int64), blo.view(np.int64))
    assert np.array_equal(hi.view(np.int64), bhi.view(np.int64))


def test_intervals_exact_across_build_chunks():
    rng = np.random.default_rng(11)
    n = 2 * _CHUNK + 123
    bearing, half = rng.uniform(-PI, PI, n), rng.uniform(0.0, PI, n)
    zero = rng.uniform(size=n) < 0.01
    lo, hi = _sensing_intervals(bearing, half, zero)
    assert np.all(lo[zero] == 0.0) and np.all(hi[zero] == LAST)
    assert_intervals_exact(bearing[~zero], half[~zero], lo[~zero], hi[~zero],
                           extra=[rng.uniform(0.0, TWO_PI, np.count_nonzero(~zero))])


def test_zero_distance_and_full_view_are_full_sets():
    lo, hi = _sensing_intervals(np.array([0.3, 0.3, -2.0]), np.array([0.5, PI, 0.5]),
                               np.array([True, False, False]))
    assert lo[:2].tolist() == [0.0, 0.0] and hi[:2].tolist() == [LAST, LAST]
    assert interval_test(np.array([0.0, LAST, 3.0]), lo[0], hi[0]).all()
    assert 0.0 < lo[2] < hi[2] < TWO_PI  # an ordinary entry beside them


@pytest.mark.parametrize("bearing,wraps", [
    (0.0, True), (0.5, True), (-0.5, True), (1.0, False), (PI, False), (-PI, False),
    (PI / 4, False),   # lo is exactly 0
    (-PI / 4, True),   # hi is exactly 0
])
def test_interval_wraps_past_two_pi(bearing, wraps):
    half = np.array([PI / 4])
    lo, hi = _sensing_intervals(np.array([bearing]), half, False)
    assert (lo[0] > hi[0]) == wraps
    ends = interval_test(np.array([0.0, LAST]), lo, hi)
    assert ends.all() == wraps
    assert_intervals_exact(np.array([bearing]), half, lo, hi, extra=[np.array([PI]), np.array([1.0])])


@pytest.mark.parametrize("bearing,half", [
    (PI / 4, PI / 4), (-PI / 4, PI / 4),           # a bound exactly at theta = 0
    (1e-17, 1e-9), (-1e-300, 1e-300), (1e-9, 1e-9 + 1e-24),
    (np.nextafter(PI, 0.0), np.nextafter(PI, 0.0)),
])
def test_bounds_next_to_zero_are_exact(bearing, half):
    bearing, half = np.array([bearing]), np.array([half])
    lo, hi = _sensing_intervals(bearing, half, False)
    assert_intervals_exact(bearing, half, lo, hi)
    blo, bhi = _bisect_intervals(bearing, half, TWO_PI - half)
    assert np.array_equal(lo, blo) and np.array_equal(hi, bhi)


def test_bracket_crossing_zero_falls_back_to_bisection():
    bearing = half = np.array([PI / 4])  # lo is exactly 0
    _, ok = _bound(bearing, half, TWO_PI - half, bearing - half, rising=True)
    assert not ok[0]
    lo, _ = _sensing_intervals(bearing, half, False)
    assert lo[0] == 0.0


def test_covered_mask_matches_reduction_at_interval_bounds():
    field = CoverageField(150, 150, 5)
    sensors = random_deployment(field, 12, 35.0, 1.3, RandomSource(17))
    ev = CoverageEvaluator(sensors, field)
    rng = np.random.default_rng(17)
    for pick in (ev._lo, ev._hi, before(ev._lo), after(ev._hi), None):
        if pick is None:
            angles = rng.uniform(0.0, TWO_PI, len(sensors))
        else:  # each sensor sits on a bound of one of its entries
            angles = np.array([pick[rng.integers(p.start, p.stop)] for p in ev._parts])
        expected = np.zeros(field.grid_count, dtype=bool)
        for i, (idx, bearing, zero) in enumerate(ev.per_sensor):
            half = sensors[i].view_angle / 2.0
            sensed = zero | _sensed(bearing, half, TWO_PI - half, angles[i])
            expected[idx[sensed]] = True
            assert np.array_equal(ev.sensed_subset(i, angles[i]), sensed)
        assert np.array_equal(ev.covered_mask(angles), expected)


# --- evaluator results do not alias its scratch buffers ----------------------------------

def test_covered_mask_result_survives_later_calls():
    field = CoverageField(100, 100, 5)
    sensors = random_deployment(field, 6, 30.0, PI / 2, RandomSource(8))
    ev = CoverageEvaluator(sensors, field)
    first = ev.covered_mask(np.zeros(6))
    snapshot = first.copy()
    subset = ev.sensed_subset(0, 0.0)
    subset_snapshot = subset.copy()
    second = ev.covered_mask(np.full(6, PI))
    ev.sensed_subset(0, PI)
    assert not np.array_equal(first, second)
    assert np.array_equal(first, snapshot)
    assert np.array_equal(subset, subset_snapshot)

    result = coverage(sensors, field)
    kept = result.covered.copy()
    coverage(with_deviations(sensors, np.full(6, PI)), field)
    assert np.array_equal(result.covered, kept)


def test_covered_mask_needs_one_angle_per_sensor():
    field = CoverageField(50, 50, 5)
    ev = CoverageEvaluator(random_deployment(field, 3, 20.0, PI / 2, RandomSource(2)), field)
    for angles in (np.zeros(2), np.zeros(4)):
        with pytest.raises(ValueError):
            ev.covered_mask(angles)
