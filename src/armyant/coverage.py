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
difference ``bearing - theta`` with ``np.mod``. The pruned evaluator's
test reduces it with two conditional ``+2*pi`` adds instead, which give
the same doubles, so pruning never changes a result. Write P for
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

The evaluator does not reduce when it evaluates. At build it reads off,
per (sensor, grid) entry, the angles at which the reduced test holds
(``_sensed``: d <= h or d >= U, where d is the reduced difference, h the
half view angle and U = fl(P - h); a grid at the sensor's position is
always sensed). These doubles form one circular interval [lo, hi] of
[0, P):

- h = P/2 (a 2*pi view) gives U = h, so every d passes; a zero-distance
  entry passes too. Both are the full set [0, prev(P)], prev(P) being
  the largest double below P. Otherwise h < P/2 and U > P/2, since
  P - h exceeds P/2 by at least one ulp of P/2.
- Number the adds that fire. As theta grows, x = fl(b - theta) never
  increases (rounding is monotone), so this branch number never
  decreases, and within a branch d never increases (each add is
  monotone). So within a branch the test holds on a prefix (d >= U),
  fails in the middle and holds on a suffix (d <= h).
- theta <= prev(P) = P - ulp(P) and x rounds by at most ulp(P), so
  x >= b - P throughout. For b >= 0 that leaves branches 0 and 1; for
  b < 0, x <= b < 0 leaves branches 1 and 2.
- Two branches give at most two sensed runs, circularly: the first
  branch's prefix joined to the second's suffix across theta = 0, and
  the first branch's suffix joined to the second's prefix. They are one
  run when one of these runs, or one of the two failing middles, is
  empty:
  - b >= 0: branch 0 has d = x <= b <= P/2 < U, so its prefix is empty.
    If b > h, so is branch 1's suffix: there x + P >= b, so d >= b > h.
    If b <= h, branch 0's middle is empty, since d <= b <= h.
  - b < 0: branch 2 has y = x + P >= b exactly (Sterbenz), so
    d = fl(y + P) >= fl(b + P) >= P/2 > h and its suffix is empty. If
    branch 1's prefix is not empty, then fl(b + P) >= U (its d at
    theta = 0), every branch-2 d >= U, and branch 2's middle is empty.

``_sensing_intervals`` finds lo (sensed, the double before it not) and hi
(sensed, the double after it not) by evaluating ``_sensed`` itself. On
random entries the bounds lie within two ulps of P of the estimates
b - h and b + h, so each is bisected over the bit patterns of a bracket
reaching four ulps of P either side (non-negative doubles order like
their bit patterns read as integers). Near theta = 0 an ulp of P spans
many doubles; an entry whose bracket crosses 0 or misses its bound is
bisected over all of [0, P) instead, branch by branch
(``_bisect_intervals``). An evaluation then tests lo <= theta <= hi, or
theta >= lo or theta <= hi when lo > hi: two compares and two XORs
(``_in_interval``).

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
        # the evaluator would score a NaN deviation as sensed on most entries
        for name in ("x", "y", "radius", "view_angle", "deviation"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"sensor {name} must be finite, got {value!r}")
            setattr(self, name, value)
        if self.radius <= 0.0:
            raise ValueError("sensing radius must be positive")
        if not 0.0 < self.view_angle <= TWO_PI:
            raise ValueError("view angle must lie in (0, 2*pi]")
        self.deviation = float(canonicalize_angle(self.deviation))


@dataclass
class CoverageField:
    """Monitoring rectangle [0, length] x [0, width] cut into square grids."""

    length: float
    width: float
    interval: float

    def __post_init__(self):
        if not (0.0 < self.length < math.inf and 0.0 < self.width < math.inf):
            raise ValueError("field dimensions must be positive and finite")
        if not 0.0 < self.interval < math.inf:
            raise ValueError("grid interval must be positive and finite")
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
class CoverageResult:
    covered: np.ndarray
    rate: float

    @property
    def covered_count(self):
        return int(np.count_nonzero(self.covered))


def _in_sector(dist, bearing, theta, half_angle):
    """Reference sensing test of ``is_sensed`` and ``coverage_naive``.

    Scalar or vector. Reduces with ``np.mod``, so it stays an independent
    oracle for ``CoverageEvaluator``, whose intervals are read off a test
    that reduces with two conditional ``+2*pi`` adds. For bearings in
    [-pi, pi] and theta in [0, 2*pi) the two give the same doubles, the
    first add being exact by the Sterbenz lemma (Goldberg 1991); the
    module docstring has the proof.
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


# theta in [0, TWO_PI) <-> its bit pattern k in [0, _SPAN): the order of the
# non-negative doubles is the order of their bit patterns read as int64
_SPAN = int(np.float64(TWO_PI).view(np.int64))
_LAST = np.nextafter(TWO_PI, 0.0)
# half-width of the bracket around an estimated bound: the estimate and the
# tested difference each round by about one ulp of TWO_PI, and the bounds
# measured on random entries lie within two ulps of their estimates
_REACH = 4 * np.spacing(TWO_PI)
_CHUNK = 8192  # entries per interval build step


def _sensed(bearing, half, upper, theta):
    """The exact sensing test of a nonzero-distance entry at angle ``theta``.

    ``upper`` is ``TWO_PI - half``; a zero-distance entry is always sensed.
    This is the only definition of "sensed" the evaluator uses: its
    intervals are read off this test.
    """
    diff = bearing - theta
    _reduce_angle(diff, np.empty(diff.shape, dtype=bool))
    return (diff <= half) | (diff >= upper)


def _in_interval(theta, lo, hi, in_order, ge, le):
    """In place into ``ge``: whether ``theta`` lies in the circular ``[lo, hi]``.

    ``in_order`` is ``lo <= hi``. When it holds, one of ``theta >= lo`` and
    ``theta <= hi`` always does, so XOR-ing their XOR with it gives their
    AND; when the interval wraps, both cannot hold, so their XOR is their OR.
    """
    np.greater_equal(theta, lo, out=ge)
    np.less_equal(theta, hi, out=le)
    ge ^= le
    ge ^= in_order
    return ge


def _sensing_intervals(bearing, half, zero):
    """Per entry, the circular interval ``[lo, hi]`` of sensed angles in [0, 2*pi).

    ``lo > hi`` means the interval wraps: theta >= lo or theta <= hi. Full
    sets are ``[0, nextafter(2*pi, 0)]``. Each bound is bisected from a
    bracket around its estimate ``bearing -/+ half``; entries whose
    bracket does not straddle the bound are bisected over all of [0, 2*pi).
    """
    bearing = np.asarray(bearing, dtype=float)
    half = np.broadcast_to(np.asarray(half, dtype=float), bearing.shape)
    zero = np.broadcast_to(np.asarray(zero, dtype=bool), bearing.shape)
    lo, hi = np.empty(bearing.shape), np.empty(bearing.shape)
    # in chunks, so the bisection's temporaries stay small beside the result
    for start in range(0, bearing.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        lo[part], hi[part] = _chunk_intervals(bearing[part], half[part], zero[part])
    return lo, hi


def _chunk_intervals(bearing, half, zero):
    """``_sensing_intervals`` of one chunk of entries."""
    upper = TWO_PI - half
    lo, lo_ok = _bound(bearing, half, upper, bearing - half, rising=True)
    hi, hi_ok = _bound(bearing, half, upper, bearing + half, rising=False)
    lo, hi = lo.view(np.float64), hi.view(np.float64)
    full = zero | (half >= upper)
    lo[full] = 0.0
    hi[full] = _LAST
    rest = np.flatnonzero(~(full | (lo_ok & hi_ok)))
    if rest.size:
        lo[rest], hi[rest] = _bisect_intervals(bearing[rest], half[rest], upper[rest])
    return lo, hi


def _bound(bearing, half, upper, estimate, rising):
    """Bit patterns of the bound near ``estimate``: ``lo`` if ``rising``, else ``hi``.

    ``lo`` is sensed and the double before it is not; ``hi`` is sensed and
    the double after it is not. The sensed set is one circular interval,
    so when the bracket ``estimate -/+ _REACH`` does not cross 0 and its
    ends differ as the bound asks (unsensed, then sensed when rising),
    the bound lies inside it, found by bisection. Returns the patterns
    and whether each bracket qualified.
    """
    # conditional turns move the estimate and the bracket ends into
    # [0, 2*pi); the masks select by arithmetic because np.where is several
    # times slower on a mask without a pattern
    estimate = estimate + TWO_PI * (estimate < 0.0)
    estimate = estimate - TWO_PI * (estimate >= TWO_PI)
    first = estimate - _REACH
    first = (first + TWO_PI * (first < 0.0)).view(np.int64)
    last = estimate + _REACH
    last = (last - TWO_PI * (last >= TWO_PI)).view(np.int64)
    ok = ((first < last)
          & (_sensed(bearing, half, upper, first.view(np.float64)) != rising)
          & (_sensed(bearing, half, upper, last.view(np.float64)) == rising))
    found = first.copy()
    # the transition lies after ``near`` and at most ``width`` patterns on
    live = np.flatnonzero(ok)
    near, b, h = first[live], bearing[live], half[live]
    width = last[live] - near
    while live.size:
        done = width == 1
        if 2 * np.count_nonzero(done) >= live.size:  # retire settled entries in batches
            found[live[done]] = near[done] + rising
            keep = ~done
            live, near, width, b, h = (x[keep] for x in (live, near, width, b, h))
            continue
        # a settled entry bisects in place: its jump is 0
        jump = width >> 1
        beyond = _sensed(b, h, TWO_PI - h, (near + jump).view(np.float64))
        if not rising:
            beyond = ~beyond
        near += jump * ~beyond
        width = jump + (width & 1) * ~beyond
    return found, ok


def _bisect_intervals(bearing, half, upper):
    """Exact intervals of entries that are not full sets, by bisection.

    Number the branches of the reduction by the adds that fire (0, 1, 2);
    the branch never decreases as theta grows and, within a branch, the
    reduced difference never increases. So for each branch j, "branch < j,
    or branch j and diff >= upper" holds on a prefix of [0, _SPAN), and so
    does "... diff > half"; branch j's unsensed run ``[start, end)`` lies
    between the two prefix lengths. The sensed set is one circular
    interval (module docstring): ``lo`` is the run end that no run starts
    at and ``hi`` precedes the run start that no run ends at, circularly.
    """
    rows = np.arange(6)[:, None]
    branch_of_row, upper_row = rows // 2, rows % 2 == 0

    def prefix(k):
        diff = bearing - k.view(np.float64)
        branch = (diff < 0.0).astype(np.intp) + (diff < -TWO_PI)
        _reduce_angle(diff, np.empty(diff.shape, dtype=bool))
        beyond = np.where(upper_row, diff >= upper, diff > half)
        return (branch < branch_of_row) | ((branch == branch_of_row) & beyond)

    first = np.zeros((6, bearing.size), dtype=np.int64)
    stop = np.full((6, bearing.size), _SPAN, dtype=np.int64)
    while True:
        active = first < stop
        if not active.any():
            break
        mid = first + (stop - first) // 2
        holds = prefix(mid)
        first = np.where(active & holds, mid + 1, first)
        stop = np.where(active & ~holds, mid, stop)
    start, end = first[0::2], first[1::2] % _SPAN
    run = start != first[1::2]
    # [j, j2]: run j2 exists and starts where run j ends / ends where run j starts
    meets = run[None] & (start[None] == end[:, None])
    met = run[None] & (end[None] == start[:, None])
    lo_row = np.argmax(run & ~meets.any(axis=1), axis=0)
    hi_row = np.argmax(run & ~met.any(axis=1), axis=0)
    cols = np.arange(bearing.size)
    full = ~run.any(axis=0)
    lo = np.where(full, 0, end[lo_row, cols])
    hi = np.where(full, _SPAN - 1, (start[hi_row, cols] - 1) % _SPAN)
    return lo.view(np.float64), hi.view(np.float64)


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


def _candidate_entries(sensors, field):
    """Every sensor's candidate grids, flattened into (sensor, grid) entries.

    Returns the grid indices, bearings and zero-distance flags of the
    entries, sensor by sensor, and each sensor's entry count.
    """
    idx_parts, bear_parts, zero_parts = [], [], []
    for sensor in sensors:
        idx = candidate_grids(sensor, field)
        dx = field.centroids[idx, 0] - sensor.x
        dy = field.centroids[idx, 1] - sensor.y
        idx_parts.append(idx)
        bear_parts.append(np.arctan2(dy, dx))
        zero_parts.append(np.hypot(dx, dy) == 0.0)
    if not idx_parts:
        empty = np.empty(0, dtype=np.intp)
        return empty, np.empty(0), np.empty(0, dtype=bool), empty
    counts = np.array([idx.size for idx in idx_parts], dtype=np.intp)
    return np.concatenate(idx_parts), np.concatenate(bear_parts), np.concatenate(zero_parts), counts


class CoverageEvaluator:
    """Coverage of fixed sensor positions as a function of deviation angles.

    Candidate grids, bearings and zero-distance flags are precomputed per
    sensor and flattened. The build then turns each (sensor, grid) entry
    into the circular interval ``[lo, hi]`` of deviation angles at which
    the grid is sensed (module docstring), so an evaluation is two
    compares and two XORs per entry. Per entry it keeps the grid index
    ``_idx``, the interval ``_lo``/``_hi`` and the flag ``_in_order``
    (``lo <= hi``; clear when the interval wraps past 2*pi), plus the
    scratch flags ``_ge`` and ``_le`` that every evaluation overwrites.
    An evaluation allocates only the per-entry angles, the grid indices
    of the sensed entries and the returned mask. One evaluator must not be
    called concurrently from several threads (it owns the scratch flags).

    ``per_sensor[i]`` holds views of sensor i's candidate grid indices,
    bearings and zero-distance flags.
    """

    def __init__(self, sensors, field):
        self.sensors = list(sensors)
        self.field = field
        self.grid_count = field.grid_count
        self._idx, bearing, zero, self._counts = _candidate_entries(self.sensors, field)
        ends = np.cumsum(self._counts).tolist()
        self._parts = [slice(e - c, e) for c, e in zip(self._counts.tolist(), ends)]
        self.per_sensor = [(self._idx[p], bearing[p], zero[p]) for p in self._parts]
        half = np.repeat([s.view_angle / 2.0 for s in self.sensors], self._counts)
        self._lo, self._hi = _sensing_intervals(bearing, half, zero)
        self._in_order = self._lo <= self._hi
        self._ge = np.empty(self._idx.size, dtype=bool)
        self._le = np.empty(self._idx.size, dtype=bool)

    def sensed_subset(self, sensor_index, theta):
        """Mask over sensor_index's candidate grids sensed at angle theta."""
        theta = float(canonicalize_angle(theta))
        part = self._parts[sensor_index]
        return _in_interval(theta, self._lo[part], self._hi[part], self._in_order[part],
                            self._ge[part], self._le[part]).copy()

    def covered_mask(self, angles):
        """Fresh grid-sized mask of the grids covered at the given angles.

        The angles must be finite. That is not checked here, as it would
        add to every evaluation: the interval test scores a NaN angle as
        sensed on every interval that does not wrap. ``Sensor`` rejects
        non-finite deviations, and the optimizers search a finite box.
        """
        # the intervals hold for theta in [0, 2*pi); canonicalizing also makes
        # theta = 2*pi and theta = 0 evaluate identically
        angles = np.asarray(canonicalize_angle(np.asarray(angles, dtype=float)))
        if angles.shape != (len(self.sensors),):
            raise ValueError("need exactly one angle per sensor")
        # np.repeat measured faster than a padded per-sensor layout; it
        # allocates, but the allocation adds no page faults per call
        sensed = _in_interval(np.repeat(angles, self._counts), self._lo, self._hi,
                              self._in_order, self._ge, self._le)
        covered = np.zeros(self.grid_count, dtype=bool)
        covered[self._idx[sensed]] = True
        return covered

    def covered_count(self, angles):
        return int(np.count_nonzero(self.covered_mask(angles)))

    def rate(self, angles):
        return self.covered_count(angles) / self.grid_count

    def fitness(self, angles):
        """Reciprocal coverage rates of an (n, sensors) block, to be minimized.

        Row i holds one angle per sensor; value i is its reciprocal rate.
        Full coverage scores 1.0, half coverage 2.0; zero coverage returns
        the finite sentinel grid_count**2 so the objective stays total.
        The rows are evaluated one at a time: a batched kernel measured no
        faster.
        """
        block = np.asarray(angles, dtype=float)
        if block.ndim != 2:
            raise ValueError("fitness takes an (n, sensors) block of angle vectors")
        values = np.empty(len(block))
        for i, row in enumerate(block):
            covered = self.covered_count(row)
            values[i] = self.grid_count / covered if covered else float(self.grid_count**2)
        return values


def coverage(sensors, field):
    """Coverage of the field by the sensors (pruned candidate-grid path).

    One evaluation, so it tests each candidate entry with ``_sensed``
    directly instead of building the evaluator's intervals, which are read
    off that same test: the two give the same mask.
    """
    sensors = list(sensors)
    idx, bearing, zero, counts = _candidate_entries(sensors, field)
    half = np.repeat([s.view_angle / 2.0 for s in sensors], counts)
    # a deviation set after construction may lie outside [0, 2*pi)
    theta = np.repeat(canonicalize_angle(np.array([s.deviation for s in sensors])), counts)
    covered = np.zeros(field.grid_count, dtype=bool)
    covered[idx[zero | _sensed(bearing, half, TWO_PI - half, theta)]] = True
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
    if not (0.0 < radius < math.inf and 0.0 < alpha <= TWO_PI and 0.0 < area < math.inf):
        raise ValueError("need finite positive radius and area and view angle in (0, 2*pi]")
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
        try:
            sensors.append(Sensor(x, y, radius, math.radians(view_deg), math.radians(dev_deg)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return sensors
