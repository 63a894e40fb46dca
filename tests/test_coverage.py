import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import armyant
from armyant.coverage import (
    TWO_PI,
    CoverageEvaluator,
    CoverageField,
    Sensor,
    candidate_grids,
    canonicalize_angle,
    canonicalize_scalar,
    coverage,
    coverage_naive,
    expected_initial_coverage,
    is_sensed,
    random_deployment,
    read_deployment,
    required_nodes,
    move_counts,
    with_deviations,
    write_deployment,
    _CHUNK,
    _bisect_intervals,
    _bound,
    _candidate_entries,
    _in_sector,
    _RunLookup,
    _run_layout,
    _sensing_intervals,
)
from armyant.enhance import _candidate_geometry
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
    assert is_sensed(SENSOR, (30.0, -30.0))          # offset exactly -alpha/2, inclusive
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


def test_coverage_reads_deviations_assigned_after_construction():
    field = CoverageField(100, 80, 5)
    sensors = random_deployment(field, 6, 25.0, PI / 2, RandomSource(4))
    expected = coverage(sensors, field)
    sensors[0].deviation += TWO_PI
    assert np.array_equal(coverage(sensors, field).covered, expected.covered)
    # a non-finite deviation used to score as 0.0 coverage for its sensor
    for bad in (math.nan, math.inf, -math.inf):
        sensors[0].deviation = bad
        with pytest.raises(ValueError, match=f"the angle of sensor 0 must be finite, got {bad}"):
            coverage(sensors, field)


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

def test_fitness_full_and_half_and_empty():
    field = CoverageField(10, 10, 5)  # four grids
    omni = Sensor(5.0, 5.0, 20.0, 2 * PI, 0.0)
    assert CoverageEvaluator([omni], field).fitness(np.array([[0.0]])).tolist() == [1.0]

    field2 = CoverageField(10, 5, 5)  # two grids
    one_cell = Sensor(2.5, 2.5, 1.0, 2 * PI, 0.0)
    assert CoverageEvaluator([one_cell], field2).fitness(np.array([[0.0]])).tolist() == [2.0]

    blind = Sensor(4.0, 4.0, 0.5, 0.3, 0.0)  # reaches no centroid
    # twice grid_count, above every finite value
    assert CoverageEvaluator([blind], field2).fitness(np.array([[0.0]])).tolist() == [4.0]

    # on one grid, full coverage scores 1.0 and zero coverage must not
    one_grid = CoverageField(5, 5, 5)
    assert CoverageEvaluator([omni], one_grid).fitness(np.array([[0.0]])).tolist() == [1.0]
    short = Sensor(0.1, 0.1, 3.0, 0.2, PI)  # the centroid (2.5, 2.5) lies out of range
    assert CoverageEvaluator([short], one_grid).fitness(np.array([[PI]])).tolist() == [2.0]


def test_fitness_length_mismatch():
    field = CoverageField(10, 10, 5)
    evaluator = CoverageEvaluator([Sensor(5, 5, 3, PI)], field)
    with pytest.raises(ValueError, match="one angle per sensor"):
        evaluator.fitness(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="block"):
        evaluator.fitness(np.array([0.0]))


def test_fitness_block_rows_match_single_rows():
    field = CoverageField(60, 60, 5)
    sensors = random_deployment(field, 3, 20.0, PI / 2, RandomSource(12))
    evaluator = CoverageEvaluator(sensors, field)
    block = RandomSource(5).uniform((6, 3)) * 2 * PI
    values = evaluator.fitness(block)
    assert values.shape == (6,)
    for row, value in zip(block, values):
        assert value == field.grid_count / evaluator.covered_count(row)


def test_fitness_argmin_matches_rate_argmax():
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
    bad.write_text("x_m,y_m,radius_m,view_angle_deg,deviation_deg\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}: no sensors")):
        read_deployment(bad)


def test_canonicalize_angle():
    assert canonicalize_angle(2 * PI) == 0.0
    assert canonicalize_angle(-0.5) == pytest.approx(2 * PI - 0.5)
    arr = canonicalize_angle(np.array([7.0, -7.0, 0.0]))
    assert np.all(arr >= 0.0) and np.all(arr < 2 * PI)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(TWO_PI)
@example(float(np.nextafter(TWO_PI, 0.0)))
@example(-TWO_PI)
@example(-2 * TWO_PI)
@example(-1000 * TWO_PI)
@example(-5e-324)
@example(1e300)
@example(-1e300)
def test_canonicalize_scalar_is_canonicalize_angle_to_the_bit(x):
    got = canonicalize_scalar(x)
    assert type(got) is float
    assert np.float64(got).view(np.int64) == np.float64(canonicalize_angle(x)).view(np.int64)


def mod_reference(angle):
    """``canonicalize_angle``'s definition: np.mod, then 2*pi mapped to 0.0."""
    with np.errstate(invalid="ignore"):  # np.mod of an infinity is NaN
        out = np.mod(angle, TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


def test_canonical_block_is_canonicalize_angle_to_the_bit():
    edges = [0.0, -0.0, float(np.nextafter(TWO_PI, 0.0)), TWO_PI, PI, 1e-300]
    inside = np.concatenate([edges, np.random.default_rng(4).uniform(0.0, TWO_PI, 94)]).reshape(4, 25)
    expected = mod_reference(inside)
    # on [0, 2*pi] the fast path runs, without np.mod
    with mock.patch("armyant.coverage.np.mod", side_effect=AssertionError):
        fast = canonicalize_angle(inside)
        assert canonicalize_angle(np.zeros((1, 0))).shape == (1, 0)
    assert np.array_equal(fast.view(np.int64), expected.view(np.int64))
    assert fast[0, :4].view(np.int64).tolist() == [0, 0, np.nextafter(TWO_PI, 0.0).view(np.int64), 0]
    outliers = [np.nextafter(TWO_PI, 7.0), -1e-300, -PI, 7.0, math.nan, math.inf, -math.inf]
    for outlier in outliers:
        block = inside.copy()
        block[2, 7] = outlier  # one angle out of range: the general path
        with np.errstate(invalid="ignore"):
            got = canonicalize_angle(block)
        assert np.array_equal(got.view(np.int64), mod_reference(block).view(np.int64))
    wide = np.concatenate([outliers, np.random.default_rng(5).uniform(-3 * TWO_PI, 3 * TWO_PI, 20_000)])
    with np.errstate(invalid="ignore"):
        got = canonicalize_angle(wide)
    assert np.array_equal(got.view(np.int64), mod_reference(wide).view(np.int64))


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_evaluator_matches_naive_coverage(seed):
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
    assert np.array_equal(ev.covered_mask(angles), coverage_naive(sensors, field).covered)
    assert ev.rate(angles) == coverage_naive(sensors, field).rate
    # a deviation assigned after construction is not canonicalized yet
    sensors[0].deviation += 4 * PI
    angles = np.array([s.deviation for s in sensors])
    assert np.array_equal(ev.covered_mask(angles), coverage_naive(sensors, field).covered)


# --- np.mod's branches at the build (module docstring) ---------------------------------

# half view angles from the narrowest to the full view
BRANCH_HALVES = np.array([1e-300, 1e-9, PI / 4, np.nextafter(PI, 0.0), PI])


def assert_build_at(bearing, theta):
    """The build's intervals of one bearing, at every half angle, hold theta as
    ``_in_sector`` does, from the bracket and from the fallback bisection alike."""
    bearing = np.full(BRANCH_HALVES.size, bearing)
    theta = np.full(BRANCH_HALVES.size, theta)
    lo, hi = _sensing_intervals(bearing, BRANCH_HALVES, False)
    assert_intervals_exact(bearing, BRANCH_HALVES, lo, hi, extra=[theta])
    part = BRANCH_HALVES < PI  # the fallback takes no full set
    blo, bhi = _bisect_intervals(bearing[part], BRANCH_HALVES[part])
    assert np.array_equal(lo[part], blo) and np.array_equal(hi[part], bhi)


ULP_PI = np.spacing(PI)


@pytest.mark.parametrize("bearing", [PI, -PI, 0.0, -0.0, 1.0, -2.5])
@pytest.mark.parametrize("theta", [0.0, np.nextafter(TWO_PI, 0.0), PI, 1e-300])
def test_reduction_boundary_angles(bearing, theta):
    # bearing - theta at np.mod's branch edges 0 and -pi, at -0.0 and next to -2*pi
    assert_build_at(bearing, theta)


@pytest.mark.parametrize("theta,target", [
    (PI, -TWO_PI),
    (PI + 2 * ULP_PI, np.nextafter(-TWO_PI, -np.inf)),
    (PI - 2 * ULP_PI, np.nextafter(-TWO_PI, 0.0)),
])
def test_reduction_around_minus_two_pi(theta, target):
    # the edge of branches 1 and 2, where np.mod adds 2*pi once or twice
    assert -PI - theta == target
    assert_build_at(-PI, theta)


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
    entries = candidate_parts(sensors, LATTICE)
    for i, sensor in enumerate(with_deviations(sensors, angles)):
        idx = entries[i][0]
        expected = [is_sensed(sensor, LATTICE.centroids[g]) for g in idx]
        assert subset_grids(ev, i, theta) == sorted(idx[expected].tolist())
    if view_angle == 2 * PI:
        assert all(subset_grids(ev, i, theta) == sorted(idx.tolist())
                   for i, (idx, _, _) in enumerate(entries))


def test_evaluator_zero_distance_entry_is_sensed_backwards():
    sensor = Sensor(17.5, 17.5, 6.0, 0.2, 0.0)  # on a centroid, others off-axis
    ev = CoverageEvaluator([sensor], LATTICE)
    (idx, _, zero), = candidate_parts([sensor], LATTICE)
    assert zero.tolist().count(True) == 1
    for theta in (0.0, PI, 4.0):
        assert ev.covered_mask([theta])[idx[zero]].all()
        assert set(idx[zero].tolist()) <= set(subset_grids(ev, 0, theta))


# --- exact sensing intervals (module docstring) -------------------------------------

LAST = np.nextafter(TWO_PI, 0.0)
HALF_ANGLES = st.one_of(
    st.sampled_from([1e-9, PI, np.nextafter(PI, 0.0), PI - 1e-12]),
    st.floats(0.0, PI, exclude_min=True),
)


def interval_test(theta, lo, hi):
    """Whether theta lies in the circular [lo, hi], which wraps past 2*pi when lo > hi."""
    return np.where(lo <= hi, (theta >= lo) & (theta <= hi), (theta >= lo) | (theta <= hi))


def candidate_parts(sensors, field):
    """Per sensor, its candidate grids, bearings and zero-distance flags.

    From ``_candidate_entries``, which the evaluator's build starts from, so
    that these oracles do not rest on what the evaluator keeps.
    """
    idx, bearing, zero, counts = _candidate_entries(sensors, field)
    cuts = np.cumsum(counts)[:-1]
    return list(zip(*(np.split(part, cuts) for part in (idx, bearing, zero))))


def grids_of(runs):
    """The grid indices held by a ``sensed_subset`` result, sorted."""
    return sorted(g for grids, a, b, a2 in runs for g in [*grids[a:b].tolist(), *grids[a2:].tolist()])


def subset_grids(ev, i, theta):
    return grids_of(ev.sensed_subset(i, theta))


def entry_intervals(entries, halves):
    """Per sensor, its entries' intervals in candidate order, from its half view angle."""
    return [_sensing_intervals(bearing, half, zero)
            for (_, bearing, zero), half in zip(entries, halves)]


def before(theta):
    """The double before each theta, circularly over [0, 2*pi)."""
    return np.where(theta == 0.0, LAST, np.nextafter(theta, -1.0))


def after(theta):
    return np.where(theta == LAST, 0.0, np.nextafter(theta, 7.0))


def assert_intervals_exact(bearing, half, lo, hi, extra=()):
    for theta in (lo, before(lo), hi, after(hi), np.zeros_like(lo), np.full_like(lo, LAST), *extra):
        got = interval_test(theta, lo, hi)
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
    blo, bhi = _bisect_intervals(bearing, half)
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
    blo, bhi = _bisect_intervals(bearing, half)
    assert np.array_equal(lo, blo) and np.array_equal(hi, bhi)


def test_bracket_crossing_zero_falls_back_to_bisection():
    bearing = half = np.array([PI / 4])  # lo is exactly 0
    _, ok = _bound(bearing, half, bearing - half, rising=True)
    assert not ok[0]
    lo, _ = _sensing_intervals(bearing, half, False)
    assert lo[0] == 0.0


def test_covered_mask_matches_reduction_at_interval_bounds():
    field = CoverageField(150, 150, 5)
    sensors = random_deployment(field, 12, 35.0, 1.3, RandomSource(17))
    ev = CoverageEvaluator(sensors, field)
    entries = candidate_parts(sensors, field)
    intervals = entry_intervals(entries, [s.view_angle / 2.0 for s in sensors])
    rng = np.random.default_rng(17)
    for pick in (lambda lo, hi: lo, lambda lo, hi: hi,
                 lambda lo, hi: before(lo), lambda lo, hi: after(hi), None):
        if pick is None:
            angles = rng.uniform(0.0, TWO_PI, len(sensors))
        else:  # each sensor sits on a bound of one of its entries
            angles = np.array([pick(lo, hi)[rng.integers(lo.size)] for lo, hi in intervals])
        expected = np.zeros(field.grid_count, dtype=bool)
        for i, (idx, bearing, zero) in enumerate(entries):
            half = sensors[i].view_angle / 2.0
            sensed = zero | _in_sector(1.0, bearing, angles[i], half)
            expected[idx[sensed]] = True
            assert subset_grids(ev, i, angles[i]) == sorted(idx[sensed].tolist())
        assert np.array_equal(ev.covered_mask(angles), expected)


# --- run search (module docstring) ------------------------------------------------------

RUN_FIELD = CoverageField(60, 60, 5)  # centroids at 2.5 + 5k
RUN_VIEWS = [1e-9, PI / 2, PI, 2 * PI - 1e-12, 2 * PI]
# block sizes below, at and past the 51 rows of one bit-parallel pass: 51 is
# one full pass and 102 two
BLOCK_ROWS = [0, 1, 25, 50, 51, 52, 53, 54, 102, 107]


def reference_masks(ev, grids, intervals, block):
    """Per row, the grids of the entries whose interval holds the canonical angle.

    ``grids`` and ``intervals`` hold each sensor's candidate grids and entry
    intervals, in candidate order.
    """
    masks = np.zeros((len(block), ev.grid_count), dtype=bool)
    for i, row in enumerate(block):
        for j, (idx, (lo, hi)) in enumerate(zip(grids, intervals)):
            theta = canonicalize_angle(row[j])
            masks[i, idx[interval_test(theta, lo, hi)]] = True
    return masks


def probe_pools(intervals):
    """Per sensor, its interval bounds, their outer neighbours and the circle's ends,
    also as negative angles and angles above 2*pi."""
    return [
        np.concatenate([
            lo, hi, before(lo), after(hi), lo + TWO_PI, -hi,
            [0.0, TWO_PI, LAST, -0.0, -1.0, -TWO_PI, 7.0, 3 * TWO_PI + 0.5],
        ])
        for lo, hi in intervals
    ]


def probe_block(intervals, rng, rows):
    """Rows of angles drawn from each sensor's probe pool."""
    return np.column_stack([rng.choice(pool, rows) for pool in probe_pools(intervals)])


def sweep_block(intervals):
    """Rows that reach every angle of every sensor's probe pool."""
    pools = probe_pools(intervals)
    rows = max(pool.size for pool in pools)
    return np.column_stack([np.resize(pool, rows) for pool in pools])


def assert_kernel_matches(ev, grids, intervals, block):
    expected = reference_masks(ev, grids, intervals, block)
    counts = expected.sum(axis=1)
    with np.errstate(divide="ignore"):
        values = np.where(counts > 0, ev.grid_count / counts, 2.0 * ev.grid_count)
    got = ev.fitness(block)
    assert got.shape == (len(block),)
    assert np.array_equal(got, values)
    for row, mask in zip(block, expected):
        assert np.array_equal(ev.covered_mask(row), mask)
    return expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(BLOCK_ROWS))
def test_run_kernel_equals_interval_test_and_naive_coverage(seed, rows):
    rng = np.random.default_rng(seed)
    sensors = []
    for _ in range(int(rng.integers(1, 7))):
        if rng.uniform() < 0.4:  # on a centroid: a zero-distance entry
            x, y = 2.5 + 5 * rng.integers(0, 12, 2)
        else:
            x, y = rng.uniform(0.0, 60.0, 2)
        view = RUN_VIEWS[rng.integers(len(RUN_VIEWS))] if rng.uniform() < 0.8 else rng.uniform(0.01, 2 * PI)
        sensors.append(Sensor(x, y, rng.uniform(3.0, 30.0), view))
    sensors.insert(int(rng.integers(len(sensors) + 1)), Sensor(5.0, 5.0, 0.5, PI / 2))  # no candidate
    ev = CoverageEvaluator(sensors, RUN_FIELD)
    entries = candidate_parts(sensors, RUN_FIELD)
    grids = [idx for idx, _, _ in entries]
    assert min(idx.size for idx in grids) == 0
    intervals = entry_intervals(entries, [s.view_angle / 2.0 for s in sensors])
    block = probe_block(intervals, rng, rows)
    expected = assert_kernel_matches(ev, grids, intervals, block)
    for row, mask in zip(block, expected):
        assert np.array_equal(coverage_naive(with_deviations(sensors, row), RUN_FIELD).covered, mask)
    assert_kernel_matches(ev, grids, intervals, sweep_block(intervals))


HEADLINE_FIELD = CoverageField(500.0, 500.0, 5.0)


@pytest.fixture(scope="module")
def headline():
    """The evaluator of headline seed 1, its deployed angles and its sensors."""
    sensors = random_deployment(HEADLINE_FIELD, 110, 60.0, PI / 2, RandomSource(1))
    return CoverageEvaluator(sensors, HEADLINE_FIELD), np.array([s.deviation for s in sensors]), sensors


def test_run_kernel_on_the_headline_instance(headline):
    ev, _, sensors = headline
    assert ev._segment_sensor.size == 110  # no cuts: every sensor's bounds rise together
    entries = candidate_parts(sensors, HEADLINE_FIELD)
    intervals = entry_intervals(entries, np.full(110, PI / 4))
    block = probe_block(intervals, np.random.default_rng(1), 50)
    assert_kernel_matches(ev, [idx for idx, _, _ in entries], intervals, block)


def test_run_layout_unwraps_puts_full_sets_last_and_cuts_where_ends_fall():
    # sensor 0: a full set, a wrapped interval, an interval and one angle;
    # sensor 1 has no entry; sensor 2's second interval ends before its first
    lo = np.array([0.0, 6.0, 1.0, 0.5, 1.0, 1.5, 2.0])
    hi = np.array([LAST, 0.25, 2.0, 0.5, 3.0, 2.0, 4.0])
    order, start, end, first, stop, sensors = _run_layout(lo, hi, np.array([4, 0, 3]))
    assert order.tolist() == [3, 2, 1, 0, 4, 5, 6]
    span = np.float64(TWO_PI).view(np.uint64)
    assert end[2] == np.float64(0.25).view(np.uint64) + span
    assert (start[3], end[3]) == (span - 1, 2 * span - 2)
    assert (first.tolist(), stop.tolist(), sensors.tolist()) == ([0, 4, 5], [4, 5, 7], [0, 2, 2])
    empty = _run_layout(np.empty(0), np.empty(0), np.zeros(2, dtype=np.intp))
    assert [part.size for part in empty] == [0] * 6


def crafted_intervals(rng, size):
    """Intervals of any widths, so that a sensor's upper bounds fall in lower-bound order."""
    lo = rng.uniform(0.0, TWO_PI, size)
    hi = rng.uniform(0.0, TWO_PI, size)
    kind = rng.integers(0, 6, size)
    hi[kind == 0] = lo[kind == 0]                 # one angle
    lo[kind == 1], hi[kind == 1] = 0.0, LAST      # full set
    hi[kind == 2] = before(lo[kind == 2])         # all but nothing: every angle, wrapped
    lo[kind == 3] = 0.0
    hi[kind == 4] = LAST
    return lo, hi


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(BLOCK_ROWS))
def test_run_kernel_cuts_where_upper_bounds_fall(seed, rows):
    rng = np.random.default_rng(seed)
    sensors = [Sensor(30.0, 30.0, 20.0, PI / 2), Sensor(12.0, 40.0, 0.5, PI),
               Sensor(40.0, 17.5, 15.0, PI / 3)]

    built = []

    def crafted(bearing, half, zero):
        built.append(crafted_intervals(rng, len(bearing)))
        return built[-1]

    with mock.patch("armyant.coverage._sensing_intervals", crafted):
        ev = CoverageEvaluator(sensors, RUN_FIELD)
    (lo, hi), = built
    grids = [idx for idx, _, _ in candidate_parts(sensors, RUN_FIELD)]
    cuts = np.cumsum([idx.size for idx in grids])[:-1]
    intervals = list(zip(np.split(lo, cuts), np.split(hi, cuts)))
    # each segment's merged keys are sorted and end in the sentinel; each
    # entry gives one lower key
    keys, base = ev._lookup._keys, ev._lookup._base
    stops = np.append(base[1:], keys.size)
    sentinel = np.float64(TWO_PI).view(np.uint64)
    for segment, stop, count in zip(np.split(keys, base[1:]), stops, ev._entry_count):
        assert np.all(segment[1:] >= segment[:-1]) and segment[-1] == sentinel
        assert ev._lookup._lower[stop - 1] == count
    assert ev._segment_sensor.size > sum(idx.size > 0 for idx in grids)  # cuts were needed
    # each run-order entry position appears exactly once, in its grid's group
    assert sorted(ev._grid_slots.tolist()) == list(range(sum(idx.size for idx in grids)))
    sizes = np.diff(np.append(ev._grid_starts, ev._grid_slots.size))
    assert sorted(np.repeat(ev._grids, sizes).tolist()) == sorted(np.concatenate(grids).tolist())
    assert_kernel_matches(ev, grids, intervals, probe_block(intervals, rng, rows))
    assert_kernel_matches(ev, grids, intervals, sweep_block(intervals))


def test_run_kernel_marks_stay_exact_where_segments_meet():
    # sensor 0's entries all end below every row's angle (a = b = a2 = count)
    # and sensor 1's all wrap past it (a = b = a2 = 0), so in each row the
    # position of sensor 1's first entry takes four +2**i and three -2**i
    # marks: the most that the 51-row bound allows
    sensors = [Sensor(30.0, 30.0, 20.0, PI / 2), Sensor(40.0, 17.5, 15.0, PI / 3)]
    grids = [idx for idx, _, _ in candidate_parts(sensors, RUN_FIELD)]
    intervals = [(np.full(idx.size, lo), np.full(idx.size, hi))
                 for idx, (lo, hi) in zip(grids, [(0.1, 0.2), (6.0, 5.0)])]

    def crafted(bearing, half, zero):
        return tuple(np.concatenate(bound) for bound in zip(*intervals))

    with mock.patch("armyant.coverage._sensing_intervals", crafted):
        ev = CoverageEvaluator(sensors, RUN_FIELD)
    assert ev._entry_count.tolist() == [idx.size for idx in grids]
    # two full 51-row passes, each with every row piled up on one position
    block = np.column_stack([np.linspace(1.0, 4.0, 102), np.linspace(4.5, 0.5, 102)])
    expected = assert_kernel_matches(ev, grids, intervals, block)
    assert expected.sum(axis=1).tolist() == [grids[1].size] * 102


def lookup_intervals(rng, size):
    """Intervals whose bounds repeat, crowd one bucket, wrap, fill the circle or sit
    at 0 and just below 2*pi."""
    pool = np.concatenate([
        rng.uniform(0.0, TWO_PI, 4),
        [0.0, LAST, np.spacing(0.0)],
        1.0 + np.spacing(1.0) * np.arange(4),  # distinct keys one ulp apart
    ])
    lo, hi = rng.choice(pool, size), rng.choice(pool, size)
    kind = rng.integers(0, 4, size)
    lo[kind == 0], hi[kind == 0] = 0.0, LAST  # full set
    hi[kind == 1] = before(lo[kind == 1])     # every angle, wrapped unless lo is 0
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bucketed_lookup_equals_the_three_searches(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 30, int(rng.integers(1, 5)))
    lo, hi = lookup_intervals(rng, counts.sum())
    # one more sensor whose keys all lie within a few ulps of 2: one bucket
    near = 2.0 + np.spacing(2.0) * np.sort(rng.integers(0, 6, 12))
    lo, hi = np.append(lo, near), np.append(hi, near + np.spacing(2.0) * rng.integers(0, 3, 12))
    counts = np.append(counts, 12)
    _, start, end, first, stop, sensors = _run_layout(lo, hi, counts)
    lookup = _RunLookup(start, end, first, stop)
    bounds = np.concatenate([lo, hi, after(hi)])
    probes = np.concatenate([bounds, before(bounds), after(bounds), [0.0, LAST, TWO_PI]])
    theta = np.tile(canonicalize_angle(probes), (first.size, 1))
    a, a2, b = lookup.runs(theta)
    span = np.float64(TWO_PI).view(np.uint64)
    k = theta.view(np.uint64)
    for s, (f, e) in enumerate(zip(first, stop)):
        searched = (end[f:e].searchsorted(k[s]), end[f:e].searchsorted(k[s] + span),
                    start[f:e].searchsorted(k[s], side="right"))
        for found, expected in zip((a[s], a2[s], b[s]), searched):
            assert np.array_equal(found, expected)
        # the scalar form that ``sensed_subset`` calls, one probe at a time
        scalar = [lookup.runs_at(s, key) for key in k[s].tolist()]
        assert scalar == list(zip(*(expected.tolist() for expected in searched)))
    # the last sensor's keys fill one bucket; the sentinel has its own
    table = np.split(lookup._buckets, lookup._bucket_first[1:])
    for s in np.flatnonzero(sensors == counts.size - 1):
        assert np.count_nonzero(np.diff(table[s])) == 2


@pytest.mark.parametrize("buckets", [16, 256, 4096])
def test_bucketed_lookup_on_the_first_angle_of_each_bucket(buckets):
    # keys and queries on the first double of each bucket: a query bucketed by
    # another rounding of the product (say buckets * fl(theta / 2*pi)) lands
    # one bucket below some of these keys and misses them
    scale = np.float64(buckets) / TWO_PI
    j = np.arange(1, buckets)
    edge = j / scale
    for _ in range(4):
        down = np.nextafter(edge, 0.0)
        edge = np.where(np.floor(down * scale) >= j, down, edge)
        edge = np.where(np.floor(edge * scale) < j, np.nextafter(edge, TWO_PI), edge)
    assert np.all(np.floor(edge * scale) == j) and np.all(np.floor(before(edge) * scale) < j)
    # bucket j's first angle is the lower key of entry j (j odd) and the
    # upper key of entry j - 1: every edge below the last holds a key
    lo, hi = edge[0:-2:2], before(edge[1::2])
    _, start, end, first, stop, _ = _run_layout(lo, hi, np.array([lo.size]))
    lookup = _RunLookup(start, end, first, stop)
    assert lookup._scale.tolist() == [scale]
    probes = np.concatenate([[0.0], edge, before(edge), after(edge)])
    a, a2, b = lookup.runs(probes[None])
    k = probes.view(np.uint64)
    span = np.float64(TWO_PI).view(np.uint64)
    assert np.array_equal(a[0], end.searchsorted(k))
    assert np.array_equal(a2[0], end.searchsorted(k + span))
    assert np.array_equal(b[0], start.searchsorted(k, side="right"))


# --- VFA's run deltas (module docstring) ------------------------------------------------

STEP = PI / 90  # enhance.ROTATION_STEP


def recount(entries, sensed, thetas):
    """Per grid of RUN_FIELD, the sensors among the first len(thetas) that sense it.

    ``entries`` holds each sensor's candidate grids, bearings and
    zero-distance flags; ``sensed(j, theta)`` masks sensor j's candidate
    grids at a canonical angle.
    """
    counts = np.zeros(RUN_FIELD.grid_count, dtype=np.int64)
    for j, theta in enumerate(thetas):
        np.add.at(counts, entries[j][0][sensed(j, canonicalize_scalar(theta))], 1)
    return counts


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_run_deltas_keep_counts_equal_to_a_recount(seed, cut):
    rng = np.random.default_rng(seed)
    sensors = []
    for _ in range(int(rng.integers(1, 6))):
        if rng.uniform() < 0.5:  # on a centroid: a zero-distance entry
            x, y = 2.5 + 5 * rng.integers(0, 12, 2)
        else:
            x, y = rng.uniform(0.0, 60.0, 2)
        sensors.append(Sensor(x, y, rng.uniform(3.0, 30.0), RUN_VIEWS[rng.integers(len(RUN_VIEWS))]))
    entries = candidate_parts(sensors, RUN_FIELD)
    if cut:  # crafted intervals, so that sensors have several segments
        built = []

        def crafted(bearing, half, zero):
            built.append(crafted_intervals(rng, len(bearing)))
            return built[-1]

        with mock.patch("armyant.coverage._sensing_intervals", crafted):
            ev = CoverageEvaluator(sensors, RUN_FIELD)
        (lo, hi), = built
        cuts = np.cumsum([idx.size for idx, _, _ in entries])[:-1]
        intervals = list(zip(*(np.split(bound, cuts) for bound in (lo, hi))))

        def sensed(j, theta):
            return interval_test(theta, *intervals[j])
    else:
        ev = CoverageEvaluator(sensors, RUN_FIELD)

        def sensed(j, theta):
            _, bearing, zero = entries[j]
            half = sensors[j].view_angle / 2.0
            return zero | _in_sector(1.0, bearing, theta, half)

    counts = np.zeros(ev.grid_count, dtype=np.int32)
    runs = [[(grids, 0, 0, grids.size) for grids in segments] for segments in ev.run_grids]

    def sense(i):
        new = ev.sensed_subset(i, thetas[i])
        move_counts(counts, runs[i], new)
        runs[i] = new

    # start next to 0 and 2*pi, so that the steps cross them
    thetas = rng.choice([0.0, STEP / 2, LAST, TWO_PI - STEP / 3, TWO_PI], len(sensors)).tolist()
    for i in range(len(sensors)):  # the first pass starts from (0, 0, n)
        sense(i)
        assert np.array_equal(counts, recount(entries, sensed, thetas[: i + 1]))
    jumps = [0.0, -0.0, LAST, TWO_PI, PI, 7.0, -1.0]
    for i in rng.integers(0, len(sensors), 80).tolist():
        if rng.uniform() < 0.25:  # an arbitrary jump
            thetas[i] = float(rng.choice(jumps)) if rng.uniform() < 0.5 else rng.uniform(0.0, TWO_PI)
        else:  # one rotation step, as VFA takes it
            thetas[i] = (thetas[i] + (STEP if rng.uniform() < 0.5 else -STEP)) % TWO_PI
        sense(i)
        assert np.array_equal(counts, recount(entries, sensed, thetas))


def assert_geometry_from_run_grids(ev, sensors, field):
    """VFA's candidate grids, bearings and zero flags, rebuilt from ``run_grids``,
    equal ``_candidate_entries``'s to the bit."""
    assert len(ev.run_grids) == len(sensors)
    for sensor, segments, expected in zip(sensors, ev.run_grids, candidate_parts(sensors, field)):
        idx, bearing, zero = _candidate_geometry(sensor, field, segments)
        assert idx.dtype == expected[0].dtype and np.array_equal(idx, expected[0])
        assert np.array_equal(bearing.view(np.int64), expected[1].view(np.int64))
        assert zero.dtype == bool and np.array_equal(zero, expected[2])


def test_vfa_geometry_from_run_grids_is_candidate_entries_to_the_bit(headline):
    ev, _, sensors = headline
    assert_geometry_from_run_grids(ev, sensors, HEADLINE_FIELD)
    # a sensor on a centroid (a zero-distance entry), one with no candidate
    # grid and two more; under crafted intervals the sensors have several
    # segments each
    sensors = [Sensor(27.5, 27.5, 20.0, PI / 2), Sensor(5.0, 5.0, 0.5, PI),
               Sensor(40.0, 17.5, 15.0, PI / 3), Sensor(12.0, 40.0, 9.0, 2 * PI)]
    ev = CoverageEvaluator(sensors, RUN_FIELD)
    assert ev.run_grids[1] == [] and candidate_parts(sensors, RUN_FIELD)[0][2].sum() == 1
    assert_geometry_from_run_grids(ev, sensors, RUN_FIELD)
    rng = np.random.default_rng(7)
    with mock.patch("armyant.coverage._sensing_intervals",
                    lambda bearing, half, zero: crafted_intervals(rng, len(bearing))):
        ev = CoverageEvaluator(sensors, RUN_FIELD)
    assert min(len(ev.run_grids[i]) for i in (0, 2, 3)) > 1
    assert_geometry_from_run_grids(ev, sensors, RUN_FIELD)


# --- evaluator results are fresh and the evaluator is read-only -------------------------

def test_covered_mask_result_survives_later_calls():
    field = CoverageField(100, 100, 5)
    sensors = random_deployment(field, 6, 30.0, PI / 2, RandomSource(8))
    ev = CoverageEvaluator(sensors, field)
    first = ev.covered_mask(np.zeros(6))
    snapshot = first.copy()
    subset = ev.sensed_subset(0, 0.0)
    subset_snapshot = grids_of(subset)
    second = ev.covered_mask(np.full(6, PI))
    ev.sensed_subset(0, PI)
    assert not np.array_equal(first, second)
    assert np.array_equal(first, snapshot)
    assert grids_of(subset) == subset_snapshot

    result = coverage(sensors, field)
    kept = result.covered.copy()
    coverage(with_deviations(sensors, np.full(6, PI)), field)
    assert np.array_equal(result.covered, kept)


THREADED_EVALUATIONS = """
import math, sys, threading
import numpy as np
from armyant.coverage import CoverageEvaluator, CoverageField, random_deployment
from armyant.enhance import _candidate_geometry
from armyant.rng import RandomSource

field = CoverageField(500.0, 500.0, 5.0)
sensors = random_deployment(field, 110, 60.0, math.pi / 2, RandomSource(1))
ev = CoverageEvaluator(sensors, field)
angles = np.random.default_rng(0).uniform(0.0, 2 * math.pi, (100, 110))
masks = [ev.covered_mask(a) for a in angles]

def grids_of(runs):
    return sorted(g for grids, a, b, a2 in runs for g in [*grids[a:b].tolist(), *grids[a2:].tolist()])

subsets = [grids_of(ev.sensed_subset(k % 110, a[k % 110])) for k, a in enumerate(angles)]
# two 50-row blocks and one of 60 rows, which takes a 51-row bit-parallel pass and a 9-row one
blocks = [angles[:50], angles[50:], np.random.default_rng(1).uniform(0.0, 2 * math.pi, (60, 110))]
values = [ev.fitness(b) for b in blocks]
mismatches = []

def work():
    for k, b in enumerate(blocks):
        if not np.array_equal(ev.fitness(b), values[k]):
            mismatches.append(("fitness", k))
    for k, a in enumerate(angles):
        if not np.array_equal(ev.covered_mask(a), masks[k]):
            mismatches.append(("mask", k))
        if grids_of(ev.sensed_subset(k % 110, a[k % 110])) != subsets[k]:
            mismatches.append(("subset", k))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(len(mismatches), sum(t.is_alive() for t in threads))
"""


def test_one_evaluator_shared_by_threads_matches_serial_results():
    # in a child process, so that a corrupted heap fails this test instead of
    # aborting the test run
    env = dict(os.environ)
    src = str(Path(armyant.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", THREADED_EVALUATIONS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    mismatches, alive = map(int, done.stdout.split())
    assert alive == 0
    assert mismatches == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_are_rejected_naming_row_and_sensor(headline, bad):
    # a NaN or infinite angle used to select meaningless runs: the deployed
    # rate 0.6394 became 0.6427 with a NaN at sensor 3
    ev, deployed, _ = headline
    angles = deployed.copy()
    angles[3] = bad
    message = f"row 0: the angle of sensor 3 must be finite, got {bad}"
    for evaluate in (ev.rate, ev.covered_mask):
        with pytest.raises(ValueError, match=message):
            evaluate(angles)
    block = np.tile(deployed, (60, 1))
    block[57, 108] = bad
    with pytest.raises(ValueError, match="row 57: the angle of sensor 108 must be finite"):
        ev.fitness(block)
    with pytest.raises(ValueError, match="row 0: the angle of sensor 0 must be finite"):
        ev.fitness(np.full((2, 110), bad))
    value = ev.grid_count / ev.covered_count(deployed)
    assert ev.fitness(np.tile(deployed, (2, 1))).tolist() == [value, value]
    # VFA's one-sensor path: a NaN used to sense 65 of sensor 0's 343
    # candidate grids, and an infinite angle none
    for sensor in (0, 109):
        with pytest.raises(ValueError, match=f"the angle of sensor {sensor} must be finite, got {bad}"):
            ev.sensed_subset(sensor, bad)
    turned = deployed[109] + TWO_PI
    assert grids_of(ev.sensed_subset(109, turned)) == grids_of(ev.sensed_subset(109, deployed[109]))


def test_one_block_evaluation_allocates_under_two_megabytes(headline):
    # a 50-row pass holds a few slot-sized arrays (about 0.8 MB in all); a
    # large per-call temporary would show here, not as timing noise
    ev, _, _ = headline
    block = np.random.default_rng(3).uniform(0.0, TWO_PI, (50, 110))
    ev.fitness(block)
    tracemalloc.start()
    try:
        ev.fitness(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_headline_evaluator_retains_under_2_9_megabytes():
    # 2.83 MB (tracemalloc, numpy 2.4): the entries' grids in run order and
    # the slot arrays take about 0.9 MB; the lookup's merged keys, prefix
    # counts and bucket tables, the one copy of the bounds, add about 1.9 MB
    field = CoverageField(500.0, 500.0, 5.0)
    sensors = random_deployment(field, 110, 60.0, PI / 2, RandomSource(1))
    tracemalloc.start()
    try:
        ev = CoverageEvaluator(sensors, field)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ev.grid_count == 10_000
    assert retained < 2_900_000


def test_fine_grid_evaluator_keeps_one_sensing_representation():
    # 283,144 entries on a 2 m grid retain 17.87 MB (tracemalloc, numpy 2.4):
    # no interval arrays in candidate order beside the run layout, no bounds
    # in run order beside the lookup's merged keys, no grids, bearings or
    # zero-distance flags in candidate order beside the grids in run order,
    # and no Python list per entry
    field = CoverageField(500.0, 500.0, 2.0)
    sensors = random_deployment(field, 110, 60.0, PI / 2, RandomSource(1))
    tracemalloc.start()
    try:
        ev = CoverageEvaluator(sensors, field)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ev._grid_slots.size == 283_144
    assert retained < 18_500_000
    kept = set(vars(ev))
    assert not {"_lo", "_hi", "_in_order", "_parts", "_run_lower", "_run_upper"} & kept
    assert not {"per_sensor", "_idx", "_segments"} & kept
    # nor any bearings (float) or zero-distance flags (bool)
    assert not [name for name, v in vars(ev).items() if isinstance(v, np.ndarray) and v.dtype.kind in "fb"]
    assert all(len(v) <= len(sensors) for v in vars(ev).values() if isinstance(v, list))


def test_covered_mask_needs_one_angle_per_sensor():
    field = CoverageField(50, 50, 5)
    ev = CoverageEvaluator(random_deployment(field, 3, 20.0, PI / 2, RandomSource(2)), field)
    for angles in (np.zeros(2), np.zeros(4)):
        with pytest.raises(ValueError):
            ev.covered_mask(angles)
    for block in (np.zeros((2, 2)), np.zeros((0, 4)), np.zeros(3)):
        with pytest.raises(ValueError):
            ev.fitness(block)
    assert ev.fitness(np.zeros((0, 3))).shape == (0,)
