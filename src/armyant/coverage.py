"""Directional-sensor area coverage over a discretized rectangle.

A sensor perceives a circular sector: apex at its position, radius R,
full apex angle ``view_angle``, bisector at ``deviation`` from the x axis.
The monitoring rectangle is cut into square grids (edge cells clipped,
keeping their geometric centers) and a grid counts as covered when any
sensor senses its centroid. Membership is decided on centroids only.

The sensing test is phrased angularly: a point is sensed when it lies
within range and the bearing from sensor to point deviates from the
sensing direction by at most half the view angle. This is equivalent to
the dot-product form but keeps exact boundary equalities honest.

The reference path (``is_sensed``, ``coverage_naive``) reduces the
difference ``bearing - theta`` with ``np.mod``. The pruned evaluator
reduces it with two conditional ``+2*pi`` adds instead, which give the
same doubles, so pruning never changes a result. Write P for
``TWO_PI`` = fl(2*pi); fl(pi) = P/2 exactly. Precondition: the bearing
lies in [-P/2, P/2] (the range of ``arctan2``) and theta in [0, P) (the
evaluator canonicalizes first), so x = fl(bearing - theta) lies in
(-2P, P/2]. ``np.mod(x, P)`` takes the exact remainder r = fmod(x, P)
and returns fl(r + P) when r < 0, +0.0 when r is zero, and r otherwise.

- x >= 0: x < P, so np.mod returns x, and neither add fires.
- -P <= x < 0: r = x, or r = -0.0 at x = -P. Both paths return
  fl(x + P), which is not negative, so the second add does not fire.
- -2P < x < -P: r = x + P. The first add computes x + P exactly by
  the Sterbenz lemma, since P < -x < 2P (Goldberg 1991, "What every
  computer scientist should know about floating-point arithmetic").
  The sum is negative, so the second add returns fl((x + P) + P),
  which is np.mod's result.

The one difference is the sign of a zero: x = -0.0 (bearing -0.0, theta
+0.0) stays -0.0 where np.mod returns +0.0. The ``<=``/``>=`` tests cannot
tell the two apart, and the evaluator's bearings are never -0.0 (a
centroid's y offset from a sensor is never -0.0).

An evaluator owns scratch buffers that every evaluation overwrites, so
one evaluator must not be called concurrently from several threads.
"""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi


def canonicalize_angle(angle):
    """Reduce angles into [0, 2*pi); works on scalars and arrays."""
    out = np.mod(angle, TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


@dataclass
class Sensor:
    """Directional sensing node; angles in radians, lengths in meters."""

    x: float
    y: float
    radius: float
    view_angle: float
    deviation: float = 0.0

    def __post_init__(self):
        self.x = float(self.x)
        self.y = float(self.y)
        self.radius = float(self.radius)
        self.view_angle = float(self.view_angle)
        if self.radius <= 0.0:
            raise ValueError("sensing radius must be positive")
        if not 0.0 < self.view_angle <= TWO_PI:
            raise ValueError("view angle must lie in (0, 2*pi]")
        self.deviation = float(canonicalize_angle(self.deviation))

    @property
    def position(self):
        return np.array([self.x, self.y])


@dataclass
class CoverageField:
    """Monitoring rectangle [0, length] x [0, width] cut into square grids."""

    length: float
    width: float
    interval: float

    def __post_init__(self):
        if self.length <= 0.0 or self.width <= 0.0:
            raise ValueError("field dimensions must be positive")
        if self.interval <= 0.0:
            raise ValueError("grid interval must be positive")
        self.nx = math.ceil(self.length / self.interval)
        self.ny = math.ceil(self.width / self.interval)
        self.grid_count = self.nx * self.ny
        self.area = self.length * self.width
        cx = _axis_centers(self.length, self.interval, self.nx)
        cy = _axis_centers(self.width, self.interval, self.ny)
        # flat index = p * ny + q for grid column p, row q
        self.centroids = np.column_stack(
            [np.repeat(cx, self.ny), np.tile(cy, self.nx)]
        )


def _axis_centers(extent, interval, n):
    starts = np.arange(n) * interval
    ends = np.minimum(starts + interval, extent)
    return (starts + ends) / 2.0


@dataclass
class DeploymentScheme:
    """One deviation angle per sensor, canonicalized into [0, 2*pi)."""

    angles: np.ndarray

    def __post_init__(self):
        self.angles = np.asarray(canonicalize_angle(np.asarray(self.angles, dtype=float)))

    def __len__(self):
        return self.angles.size


@dataclass
class CoverageResult:
    covered: np.ndarray
    rate: float

    @property
    def covered_count(self):
        return int(np.count_nonzero(self.covered))


def _in_sector(dist, bearing, theta, half_angle):
    """Reference sensing test of ``is_sensed`` and ``coverage_naive``.

    Scalar or vector. Reduces with ``np.mod``, so it stays an independent
    oracle for ``CoverageEvaluator``, which reduces with two conditional
    ``+2*pi`` adds. For bearings in [-pi, pi] and theta in [0, 2*pi) the
    two give the same doubles, the first add being exact by the Sterbenz
    lemma (Goldberg 1991); the module docstring has the proof.
    """
    diff = np.mod(bearing - theta, TWO_PI)
    return (dist == 0.0) | (diff <= half_angle) | (diff >= TWO_PI - half_angle)


def _reduce_angle(diff, spare):
    """In place, ``diff = np.mod(diff, TWO_PI)`` for ``diff = bearing - theta``.

    Two conditional ``+2*pi`` adds, exact under the precondition of the
    module docstring; ``spare`` is a bool buffer of the same shape.
    """
    for _ in range(2):
        np.less(diff, 0.0, out=spare)
        np.add(diff, TWO_PI, out=diff, where=spare)
    return diff


def is_sensed(sensor, point):
    """True when the point lies inside the sensor's sensing sector."""
    dx = point[0] - sensor.x
    dy = point[1] - sensor.y
    dist = np.hypot(dx, dy)
    if dist > sensor.radius:
        return False
    bearing = np.arctan2(dy, dx)
    return bool(_in_sector(dist, bearing, sensor.deviation, sensor.view_angle / 2.0))


def candidate_grids(sensor, field):
    """Flat indices of grids whose centroid lies within sensing range.

    A superset of the sensed set for every deviation angle (the sector is a
    subset of the disc), so it can be cached once per sensor and reused for
    the whole optimization.
    """
    dx = field.centroids[:, 0] - sensor.x
    dy = field.centroids[:, 1] - sensor.y
    # cheap box rejection first; the disc test below is authoritative
    window = (np.abs(dx) <= sensor.radius) & (np.abs(dy) <= sensor.radius)
    idx = np.flatnonzero(window)
    dist = np.hypot(dx[idx], dy[idx])
    return idx[dist <= sensor.radius]


class CoverageEvaluator:
    """Coverage of fixed sensor positions as a function of deviation angles.

    Candidate grids, bearings and zero-distance flags are precomputed per
    sensor and flattened, so each evaluation is a handful of vectorized
    passes over roughly sum-of-candidate-counts elements instead of
    sensors x grids. The passes reduce ``bearing - theta`` (bearing in
    [-pi, pi], theta canonicalized into [0, 2*pi)) with two conditional
    ``+2*pi`` adds, which equal ``np.mod`` bit for bit (Sterbenz lemma,
    Goldberg 1991; the module docstring has the proof). They write into
    scratch buffers allocated at build; an evaluation allocates only the
    grid indices of the sensed entries and the returned mask. One
    evaluator must not be called concurrently from several threads (it
    owns scratch buffers).

    ``per_sensor[i]`` holds views of sensor i's candidate grid indices,
    bearings and zero-distance flags.
    """

    def __init__(self, sensors, field):
        self.sensors = list(sensors)
        self.field = field
        self.grid_count = field.grid_count
        idx_parts, bear_parts, zero_parts = [], [], []
        for sensor in self.sensors:
            idx = candidate_grids(sensor, field)
            dx = field.centroids[idx, 0] - sensor.x
            dy = field.centroids[idx, 1] - sensor.y
            idx_parts.append(idx)
            bear_parts.append(np.arctan2(dy, dx))
            zero_parts.append(np.hypot(dx, dy) == 0.0)
        self._idx = np.concatenate(idx_parts) if idx_parts else np.empty(0, dtype=np.intp)
        self._bearing = np.concatenate(bear_parts) if bear_parts else np.empty(0)
        self._zero = np.concatenate(zero_parts) if zero_parts else np.empty(0, dtype=bool)
        counts = [idx.size for idx in idx_parts]
        ends = np.cumsum(counts, dtype=np.intp).tolist()
        self._parts = [slice(e - c, e) for c, e in zip(counts, ends)]
        self.per_sensor = [(self._idx[p], self._bearing[p], self._zero[p]) for p in self._parts]
        self._owner = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
        self._half = np.repeat([s.view_angle / 2.0 for s in self.sensors], counts)
        self._upper = TWO_PI - self._half
        entries = self._idx.size
        self._diff = np.empty(entries)
        self._hit = np.empty(entries, dtype=bool)
        self._spare = np.empty(entries, dtype=bool)

    def _sense(self, part, theta):
        """Sensed flags of the entries in slice ``part`` at angles ``theta``.

        Returns a view of the scratch buffers, valid until the next call.
        """
        diff, hit, spare = self._diff[part], self._hit[part], self._spare[part]
        np.subtract(self._bearing[part], theta, out=diff)
        _reduce_angle(diff, spare)
        np.less_equal(diff, self._half[part], out=hit)
        np.greater_equal(diff, self._upper[part], out=spare)
        hit |= spare
        hit |= self._zero[part]
        return hit

    def sensed_subset(self, sensor_index, theta):
        """Mask over sensor_index's candidate grids sensed at angle theta."""
        theta = float(canonicalize_angle(theta))
        return self._sense(self._parts[sensor_index], theta).copy()

    def covered_mask(self, angles):
        """Fresh grid-sized mask of the grids covered at the given angles."""
        # canonicalizing first makes theta = 2*pi and theta = 0 evaluate
        # identically down to the float boundary cases
        angles = np.asarray(canonicalize_angle(np.asarray(angles, dtype=float)))
        if angles.shape != (len(self.sensors),):
            raise ValueError("need exactly one angle per sensor")
        # indices are in range, so mode="wrap" changes nothing and, unlike
        # the default mode, writes straight into the buffer
        np.take(angles, self._owner, out=self._diff, mode="wrap")
        sensed = self._sense(slice(None), self._diff)
        covered = np.zeros(self.grid_count, dtype=bool)
        covered[self._idx[sensed]] = True
        return covered

    def covered_count(self, angles):
        return int(np.count_nonzero(self.covered_mask(angles)))

    def rate(self, angles):
        return self.covered_count(angles) / self.grid_count

    def fitness(self, angles):
        """Reciprocal-coverage objective; see ``cepw_fitness``."""
        covered = self.covered_count(angles)
        if covered == 0:
            return float(self.grid_count * self.grid_count)
        return self.grid_count / covered


def coverage(sensors, field):
    """Coverage of the field by the sensors (pruned candidate-grid path)."""
    sensors = list(sensors)
    if not sensors:
        return CoverageResult(np.zeros(field.grid_count, dtype=bool), 0.0)
    evaluator = CoverageEvaluator(sensors, field)
    covered = evaluator.covered_mask(np.array([s.deviation for s in sensors]))
    return CoverageResult(covered, int(np.count_nonzero(covered)) / field.grid_count)


def coverage_naive(sensors, field):
    """All-pairs reference computation, intentionally free of pruning."""
    covered = np.zeros(field.grid_count, dtype=bool)
    for sensor in sensors:
        dx = field.centroids[:, 0] - sensor.x
        dy = field.centroids[:, 1] - sensor.y
        dist = np.hypot(dx, dy)
        bearing = np.arctan2(dy, dx)
        sensed = (dist <= sensor.radius) & _in_sector(
            dist, bearing, sensor.deviation, sensor.view_angle / 2.0
        )
        covered |= sensed
    return CoverageResult(covered, int(np.count_nonzero(covered)) / field.grid_count)


def with_deviations(sensors, angles):
    """Copies of the sensors with deviation angles replaced."""
    angles = np.asarray(angles, dtype=float)
    if angles.size != len(sensors):
        raise ValueError("need exactly one angle per sensor")
    return [replace(s, deviation=float(a)) for s, a in zip(sensors, angles)]


def cepw_fitness(angles, sensors, field):
    """Reciprocal of the coverage rate, to be minimized.

    Full coverage scores 1.0, half coverage 2.0; zero coverage returns the
    finite sentinel grid_count**2 so the objective stays total.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.size != len(sensors):
        raise ValueError("need exactly one angle per sensor")
    return CoverageEvaluator(sensors, field).fitness(angles)


def expected_initial_coverage(count, radius, alpha, area):
    """Expected coverage rate of a uniform random deployment of ``count`` nodes.

    Treats each node as covering the sector fraction alpha*R^2/(2H) of the
    region independently; boundary losses make this an upper bound on what a
    bounded field actually achieves.
    """
    p = _sector_fraction(radius, alpha, area)
    if count < 0:
        raise ValueError("node count must be non-negative")
    return 1.0 - (1.0 - p) ** count


def required_nodes(target, radius, alpha, area):
    """Smallest node count whose expected initial coverage reaches ``target``."""
    if not 0.0 < target < 1.0:
        raise ValueError("target coverage must lie strictly between 0 and 1")
    p = _sector_fraction(radius, alpha, area)
    if p >= 1.0:
        return 1
    ratio = math.log(1.0 - target) / (math.log(2.0 * area - alpha * radius**2) - math.log(2.0 * area))
    d = max(1, math.ceil(ratio - 1e-9))
    while expected_initial_coverage(d, radius, alpha, area) < target:
        d += 1
    while d > 1 and expected_initial_coverage(d - 1, radius, alpha, area) >= target:
        d -= 1
    return d


def _sector_fraction(radius, alpha, area):
    if radius <= 0.0 or not 0.0 < alpha <= TWO_PI or area <= 0.0:
        raise ValueError("need positive radius and area and view angle in (0, 2*pi]")
    p = alpha * radius**2 / (2.0 * area)
    if p > 1.0:
        raise ValueError("sensor sector area exceeds the monitoring region")
    return p


def random_deployment(field, count, radius, alpha, rng):
    """Uniform random positions and deviations over the field, seeded.

    Draw order: one (count, 2) block for positions, then ``count`` deviation
    angles.
    """
    if count < 1:
        raise ValueError("need at least one sensor")
    pos = rng.uniform((count, 2))
    thetas = rng.uniform(count) * TWO_PI
    return [
        Sensor(pos[i, 0] * field.length, pos[i, 1] * field.width, radius, alpha, thetas[i])
        for i in range(count)
    ]


DEPLOYMENT_HEADER = ["x_m", "y_m", "radius_m", "view_angle_deg", "deviation_deg"]


def write_deployment(sensors, path):
    """One flat record per sensor; angles in degrees at the file boundary."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DEPLOYMENT_HEADER)
        for s in sensors:
            writer.writerow(
                [repr(s.x), repr(s.y), repr(s.radius),
                 repr(math.degrees(s.view_angle)), repr(math.degrees(s.deviation))]
            )


def read_deployment(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != DEPLOYMENT_HEADER:
        raise ValueError(f"{path}: expected header {','.join(DEPLOYMENT_HEADER)}")
    sensors = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
        try:
            x, y, radius, view_deg, dev_deg = (float(v) for v in row)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field") from None
        sensors.append(Sensor(x, y, radius, math.radians(view_deg), math.radians(dev_deg)))
    return sensors
