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
(``_bisect_intervals``).

An evaluation of all sensors does not test the entries one by one. Read
the bounds as their bit patterns L and H in [0, S), S being the pattern
of P (``_SPAN``), and unwrap each interval onto [0, 2S): H' = H, or
H + S when it wraps (L > H); a full set becomes [S - 1, 2S - 2]. The
patterns stay exact as uint64 (2S exceeds the int64 range). An angle
theta with pattern k in [0, S) lies in the interval exactly when
L <= k <= H' or k + S <= H', and H' < L + S, so the second case has
L > k.

Sort each sensor's entries by L, ties in candidate order. When H' is
then nondecreasing too, the entries with L <= k are a prefix [0, b) of the
sensor's slice, those with H' >= k a suffix [a, n) and those with
H' >= k + S a suffix [a2, n), which starts at or after b since its
entries have L > k. So the sensed entries are the two runs [a, b) and
[a2, n), with b = #(L <= k), a = #(H' < k) <= b (as H' >= L) and
a2 = #(H' < k + S). Entry x of the slice is then sensed exactly when
[x < b] - [x < a] - [x < a2] + 1 is 1; it is 0 otherwise.

The order holds in exact arithmetic: a sensor's intervals all span its
view angle, so H' rises with L (the bit patterns and the unwrapping are
monotone maps of [0, 2P)). A full set, placed last, has the largest L
and H' there are. Rounding moves a bound by a few ulps of P, so two
entries whose lower bounds lie that close, or are equal, could swap
their H'. The build does not rely on the order: it cuts a sensor's
entries wherever H' falls and treats each stretch, a segment, like a
sensor (``_run_layout``). No sensor of the headline instances needs a cut.

VFA turns one sensor at a time. ``CoverageEvaluator.sensed_subset``
finds that sensor's a, b and a2 per segment with the lookup below. The
indicator above is a sum of three steps, at b, a and a2. So a turn from
(a, b, a2) to (a', b', a2') changes only the entries between an old count
and its new one: [x < b'] - [x < b] is +1 on [b, b') and -1 on [b', b),
and the steps at a and a2 enter with the opposite sign (``move_counts``).
(0, 0, n) senses nothing, so the first pass moves the per-grid counts
like any turn. The three slices may overlap; integer adds are exact, so
their order does not matter.

The three counts come from one lookup per segment and angle
(``_RunLookup``). Give each entry the upper key U = H + 1, the pattern
of the double just past its upper bound, read on [1, S]: H' + 1 for an
unwrapped interval, H' - S + 1 for a wrapped one and S - 1 for a full
set (H' - S + 1 too). The patterns are integers, so for an unwrapped
entry H' < k exactly when U <= k, and for the others H' < k + S exactly
when U <= k; every unwrapped entry has H' < S <= k + S. A segment's
merged keys are its L and its U, sorted together. A U equal to S (an
unwrapped bound at prev(P)) exceeds every k and would never count, so it
is left out. Let p = #(keys <= k): the first p merged keys are exactly
those at most k, whatever the order of equal keys. Among them, the lower
bounds number b and the unwrapped entries' U number a. The other
p - a - b are the wrapped and full entries with H' < k + S, to which a2
adds every unwrapped entry: a2 = p - a - b + #unwrapped. Two
prefix-count tables over the merged keys give b and a at p.

For one segment at one angle (``sensed_subset``), one binary search over
the segment's merged keys, up to the sentinel S that closes them (below),
finds p (``_RunLookup.runs_at``).

A block of rows is looked up for all segments and rows at once, and
finding p takes no search over the whole segment. Segment s puts an
angle x in bucket floor(x * c_s), with c_s = fl(B_s / P) and B_s the
power of two at or above its key count, so its buckets hold at most one
key each on average. A key and a query land in their buckets by the same rounded
product, and a product with a positive constant and the floor are both
monotone, so every key in a lower bucket than theta lies below theta and
every key in a higher one above it. A table of bucket starts gives the
keys below theta's bucket. Only the keys in that bucket remain: a fixed
number of halvings, set at build from the fullest bucket, counts those
at most k. The halvings are branch-free arithmetic over all segments
and rows, where a binary search would take one hard-to-predict branch
per comparison (Khuong & Morin 2017, "Array layouts for
comparison-based searching"). The key S, which exceeds every query,
closes each segment, so an empty bucket's first position always holds a
key above k.

The rows of a block are then evaluated together, bit-parallel across
rows in the manner of shift-or string matching (Baeza-Yates & Gonnet
1992): row i of a pass of at most 51 rows is bit i of an int64 word. The
entries lie in run order, segment by segment. Since 1 - [x < c] is
[x >= c], VFA's indicator [x < b] - [x < a] - [x < a2] + 1 of entry x of
a segment of n entries is [x >= a] + [x >= a2] - [x >= b], a running sum
of signed steps. Row i marks them as +2**i at the positions of a and a2
and -2**i at the position of b, and adds -2**i at the segment's end n:
as a, a2 and b are at most n, that step cancels the other three from the
end on, so the running sum is 0 again where the next segment starts. A
running sum over the entries in run order then holds, at each entry, the
sum of 2**i over the rows that sense it.

One weighted ``bincount`` over the entry positions adds the marks (the
last segment's end mark falls past the last entry, where no entry reads
it). One row marks a position at most seven times: a segment's end mark,
and its a, a2 and b where they equal n, fall on the next segment's first
entry, where that segment's a, a2 and b can fall too. Those are four
+2**i and three -2**i, so with every i below 51, every partial sum, in
whatever order the adds come, is an integer of magnitude below
4 * 2**51 = 2**53, exact in float64. Cast to int64, one ``cumsum`` gives
every entry its word. A ``bitwise_or.reduceat`` over the entries
regrouped grid by grid (at build) gives one word per grid, and a 256-bin
histogram of each of the words' eight bytes, times the bits of each byte
value, gives each row's count of covered grids. Past the lookup, the cost
of a pass follows the number of entries, not the rows times the sensed
entries.
"""

import csv
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi


def canonicalize_angle(angle):
    """Reduce angles into [0, 2*pi); works on scalars and arrays.

    The result is ``np.mod(angle, 2*pi)`` with 2*pi mapped to 0.0. On
    [0, 2*pi] ``np.mod`` changes only 2*pi, to 0.0, and -0.0, to +0.0;
    adding +0.0 makes the same change to -0.0 and keeps every other double.
    So an input that lies there, as the optimizers' blocks do, skips
    ``np.mod``; any other takes the general path.
    """
    angle = np.asarray(angle)
    if angle.min(initial=0.0) >= 0.0 and angle.max(initial=0.0) <= TWO_PI:
        return np.where(angle >= TWO_PI, 0.0, angle + 0.0)
    out = np.mod(angle, TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


def canonicalize_scalar(angle):
    """``float(canonicalize_angle(angle))`` in plain Python, to the bit.

    CPython's float ``%`` and NumPy's ``np.mod`` both take ``fmod`` and add
    the divisor when the signs differ, and both return +0.0 for a zero
    remainder, so ``-0.0`` becomes ``+0.0`` here too.
    """
    out = float(angle) % TWO_PI
    return 0.0 if out >= TWO_PI else out


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
        self.deviation = canonicalize_scalar(self.deviation)


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


def _reduce_angle(diff):
    """In place, ``diff = np.mod(diff, TWO_PI)`` for ``diff = bearing - theta``.

    Two conditional ``+2*pi`` adds, exact under the precondition of the
    module docstring.
    """
    for _ in range(2):
        np.add(diff, TWO_PI, out=diff, where=diff < 0.0)
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
# a double's bit pattern as a Python int, for ``sensed_subset``'s search
_DOUBLE, _UINT64 = struct.Struct("<d"), struct.Struct("<Q")


def _sensed(bearing, half, upper, theta):
    """The exact sensing test of a nonzero-distance entry at angle ``theta``.

    ``upper`` is ``TWO_PI - half``; a zero-distance entry is always sensed.
    This is the only definition of "sensed" the evaluator uses: its
    intervals are read off this test.
    """
    diff = bearing - theta
    _reduce_angle(diff)
    return (diff <= half) | (diff >= upper)


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
    # the transition lies after ``near`` and at most ``width`` patterns on; all
    # entries bisect in step, and a settled or unqualified one has width 1 and
    # jump 0, so it does not move
    near, width = first, np.where(ok, last - first, 1)
    while (width > 1).any():
        jump = width >> 1
        beyond = _sensed(bearing, half, upper, (near + jump).view(np.float64))
        if not rising:
            beyond = ~beyond
        near += jump * ~beyond
        width = jump + (width & 1) * ~beyond
    return near + rising, ok


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
        _reduce_angle(diff)
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


_USPAN = np.uint64(_SPAN)
# rows per bit-parallel pass: row i is bit i, and a position's seven signed
# marks per row keep every partial sum of the marks below 4 * 2**51 = 2**53,
# exact in float64 (module docstring)
_WORD = 51
# _BYTE_BITS[v, i] is bit i of the byte value v
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


def _pairs(majors, minors):
    """The complex numbers ``major + minor * 1j`` of the concatenated parts.

    ``majors`` hold small non-negative integers and ``minors`` bit patterns
    below S, which order like the doubles they encode. NumPy orders complex
    numbers by real part, then imaginary part, so one stable sort of the
    pairs (a timsort, quick on already sorted runs) orders by major, then
    minor.
    """
    pairs = np.empty(sum(part.size for part in majors), dtype=complex)
    np.concatenate(majors, out=pairs.real)
    np.concatenate([part.view(np.float64) for part in minors], out=pairs.imag)
    return pairs


def _run_layout(lo, hi, counts):
    """Order the entries for the run lookup of the module docstring.

    ``lo``/``hi`` are the entries' intervals, sensor by sensor, and
    ``counts`` each sensor's entry count. Returns the entry order (by
    sensor, then unwrapped lower bound, ties in candidate order), the
    unwrapped pattern bounds ``start``/``end`` in that order, and the
    first entries, stops and sensors of the segments: the stretches of one
    sensor's entries along which ``end`` does not fall, so that both
    bounds are nondecreasing in each.
    """
    start, end = lo.view(np.uint64), hi.view(np.uint64)
    full = (start == 0) & (end == _USPAN - 1)
    end = end + (start > end) * _USPAN
    # a full set becomes [S - 1, 2S - 2]: the largest bounds there are
    start = np.where(full, _USPAN - 1, start)
    end = np.where(full, 2 * _USPAN - 2, end)
    owner = np.repeat(np.arange(counts.size), counts)
    order = np.argsort(_pairs([owner], [start]), kind="stable")
    owner, start, end = owner[order], start[order], end[order]
    # entry i starts a segment; the last flag closes the last segment
    starts = np.ones(owner.size + 1, dtype=bool)
    starts[1:-1] = (owner[1:] != owner[:-1]) | (end[1:] < end[:-1])
    bounds = np.flatnonzero(starts)
    return order, start, end, bounds[:-1], bounds[1:], owner[bounds[:-1]]


class _RunLookup:
    """Each segment's runs at any angle from one bucketed lookup (module docstring).

    Built from ``_run_layout``'s unwrapped bounds ``start``/``end`` and its
    segments ``first``/``stop`` without a loop over segments. Segment s
    owns positions ``_base[s]`` on of the key arrays: its merged keys in
    order, then the sentinel S, the pattern of 2*pi, which exceeds every
    query. At position ``_base[s] + p``, ``_lower`` counts the lower bounds
    among the segment's first p keys and ``_below`` its unwrapped upper
    keys. The segment's bucket j starts at key position
    ``_buckets[_bucket_first[s] + j]``; no bucket holds more than
    ``2**_steps`` keys. ``runs`` looks up blocks through the buckets;
    ``runs_at`` looks up one segment at one angle by binary search.
    """

    def __init__(self, start, end, first, stop):
        m = first.size
        segment = np.repeat(np.arange(m, dtype=np.int32), stop - first)
        unwrapped = end < _USPAN
        # H + 1: H' + 1, or H' - S + 1 for a wrapped interval or a full set
        upper = end + np.uint64(1)
        upper[~unwrapped] -= _USPAN
        below = unwrapped & (upper < _USPAN)
        count = stop - first
        n_below, n_unwrapped = (np.bincount(segment[part], minlength=m) for part in (below, unwrapped))
        # lower bounds, unwrapped upper keys, the other upper keys and the
        # sentinels, each group already sorted by segment and key: the
        # stable sort only merges four runs
        pairs = _pairs(
            [segment, segment[below], segment[~unwrapped], np.arange(m)],
            [start, upper[below], upper[~unwrapped], np.full(m, _USPAN)],
        )
        del segment, upper
        order = np.argsort(pairs, kind="stable")
        self._keys = pairs.imag[order].view(np.uint64)
        del pairs
        size = 2 * count - n_unwrapped + n_below + 1
        self._base = np.cumsum(size) - size
        is_lower = order < start.size
        self._lower = self._prefix(is_lower, count)
        self._below = self._prefix(~is_lower & (order < start.size + n_below.sum()), n_below)
        del order
        self._offset = n_unwrapped - self._base
        # for ``runs_at``: per segment, the positions of its first key and of
        # its sentinel and its offset, and views that read the key and prefix
        # arrays as Python ints without a copy
        sentinel = self._base + size - 1
        self._spans = list(zip(self._base.tolist(), sentinel.tolist(), self._offset.tolist()))
        self._key_items, self._lower_items, self._below_items = (
            memoryview(part) for part in (self._keys, self._lower, self._below))
        # B_s = 2**e buckets of equal angle for at least as many keys; the
        # table runs to the sentinel's bucket floor(P * c_s), B_s or next to
        # it after rounding. Keys are bucketed by the same product as queries
        self._scale = np.ldexp(1.0, np.frexp(size - 2)[1]) / TWO_PI
        buckets = (TWO_PI * self._scale).astype(np.intp) + 2
        self._bucket_first = np.cumsum(buckets) - buckets
        bucket = np.repeat(self._scale, size)
        bucket *= self._keys.view(np.float64)
        bucket = bucket.astype(np.intp)
        bucket += np.repeat(self._bucket_first + 1, size)
        filled = np.bincount(bucket, minlength=buckets.sum())
        self._buckets = np.cumsum(filled, dtype=np.int32)
        self._steps = int(np.frexp(filled.max(initial=1) - 1)[1])

    def _prefix(self, counted, per_segment):
        """Per key position, the counted keys before it in its segment.

        ``per_segment`` holds each segment's count of counted keys; it
        resets the running count where the next segment starts.
        """
        total = np.empty(counted.size, dtype=np.int32)
        total[:1] = 0
        total[1:] = counted[:-1]
        total[self._base[1:]] = -per_segment[:-1]
        return np.cumsum(total, out=total)

    def runs(self, theta):
        """The runs ``(a, a2, b)`` of every segment at angles in [0, 2*pi).

        ``theta`` holds one row of angles per segment; each result has its
        shape and counts entries from the segment's first.
        """
        k = theta.view(np.uint64)
        at = (theta * self._scale[:, None]).astype(np.intp)
        at += self._bucket_first[:, None]
        width = self._buckets[1:].take(at)
        at = self._buckets.take(at)
        width -= at
        # a fixed number of halvings, each keeping the half that holds the
        # first key above k (Khuong & Morin 2017); an empty bucket's first
        # position holds a key above k, or the sentinel
        for _ in range(self._steps):
            half = width >> 1
            at += half * (self._keys.take(at + half) <= k)
            width -= half
        at += self._keys.take(at) <= k
        b = self._lower.take(at)
        a = self._below.take(at)
        return a, at - a - b + self._offset[:, None], b

    def runs_at(self, s, k):
        """``runs`` of segment s alone, at the angle whose bit pattern is k < S.

        One binary search over the segment's merged keys, up to its
        sentinel, finds the position of the first key above k.
        """
        first, sentinel, offset = self._spans[s]
        at = bisect_right(self._key_items, k, first, sentinel)
        b = self._lower_items[at]
        a = self._below_items[at]
        return a, at - a - b + offset, b


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


def entry_geometry(sensor, field, idx):
    """Bearings from the sensor to the centroids of grids ``idx``, and whether
    each centroid lies at the sensor's position."""
    dx = field.centroids[idx, 0] - sensor.x
    dy = field.centroids[idx, 1] - sensor.y
    return np.arctan2(dy, dx), np.hypot(dx, dy) == 0.0


def _candidate_entries(sensors, field):
    """Every sensor's candidate grids, flattened into (sensor, grid) entries.

    Returns the grid indices, bearings and zero-distance flags of the
    entries, sensor by sensor, and each sensor's entry count.
    """
    idx_parts, bear_parts, zero_parts = [], [], []
    for sensor in sensors:
        idx = candidate_grids(sensor, field)
        bearing, zero = entry_geometry(sensor, field, idx)
        idx_parts.append(idx)
        bear_parts.append(bearing)
        zero_parts.append(zero)
    if not idx_parts:
        empty = np.empty(0, dtype=np.intp)
        return empty, np.empty(0), np.empty(0, dtype=bool), empty
    counts = np.array([idx.size for idx in idx_parts], dtype=np.intp)
    return np.concatenate(idx_parts), np.concatenate(bear_parts), np.concatenate(zero_parts), counts


class CoverageEvaluator:
    """Coverage of fixed sensor positions as a function of deviation angles.

    The build finds each sensor's candidate grids with their bearings and
    zero-distance flags, turns each (sensor, grid) entry into the circular
    interval ``[lo, hi]`` of deviation angles at which the grid is sensed,
    and orders each sensor's entries so that the entries sensed at any
    angle form two runs of a segment (module docstring). Only what
    evaluations read is retained:

    - ``_lookup``, the segments' merged keys and prefix tables: the one
      copy of the bounds, which both the bit-parallel pass and
      ``sensed_subset`` read;
    - ``run_grids[i]``, views of sensor i's grid indices in run order, one
      per segment, and ``_segment_first[i]``, the number of its first
      segment (a sensor's segments are numbered consecutively);
    - for the bit-parallel pass, per segment, its sensor
      ``_segment_sensor``, the run-order position of its first entry
      ``_entry_first`` and its entry count ``_entry_count``, and the
      entries' run-order positions grouped grid by grid, ``_grid_slots``,
      with each group's start ``_grid_starts`` and grid ``_grids``.

    Nothing is written after the build: every evaluation allocates its own
    arrays, so one evaluator may be shared by several threads.
    """

    def __init__(self, sensors, field):
        sensors = list(sensors)
        self.grid_count = field.grid_count
        idx, bearing, zero, counts = _candidate_entries(sensors, field)
        half = np.repeat([s.view_angle / 2.0 for s in sensors], counts)
        lo, hi = _sensing_intervals(bearing, half, zero)
        del bearing, zero, half
        order, start, end, first, stop, self._segment_sensor = _run_layout(lo, hi, counts)
        del lo, hi  # freed before the lookup's sort, which sets the build's peak
        self._lookup = _RunLookup(start, end, first, stop)
        del start, end
        entry_grids = idx[order]
        del idx, order
        # _run_layout sorts by sensor, so sensor i's segments are numbered
        # consecutively from its first
        segment_counts = np.bincount(self._segment_sensor, minlength=len(sensors))
        self._segment_first = (np.cumsum(segment_counts) - segment_counts).tolist()
        self.run_grids = [[] for _ in sensors]
        for f, e, sensor in zip(first.tolist(), stop.tolist(), self._segment_sensor.tolist()):
            self.run_grids[sensor].append(entry_grids[f:e])
        self._entry_first = first
        self._entry_count = stop - first
        self._grid_slots = np.argsort(entry_grids, kind="stable")
        grids = entry_grids[self._grid_slots]
        self._grid_starts = np.flatnonzero(np.diff(grids, prepend=-1))
        self._grids = grids[self._grid_starts]

    def sensed_subset(self, sensor_index, theta):
        """Sensor sensor_index's grids sensed at angle theta, as runs.

        One tuple ``(grids, a, b, a2)`` per segment of the sensor: ``grids``
        holds the segment's grid indices in run order, and the sensed ones
        are ``grids[a:b]`` and ``grids[a2:]`` (module docstring). One
        binary search per segment, over its merged keys in ``_lookup``,
        finds a, b and a2. A non-finite angle raises ``ValueError``.
        """
        theta = float(theta)
        if not math.isfinite(theta):
            raise ValueError(f"the angle of sensor {sensor_index} must be finite, got {theta!r}")
        k = _UINT64.unpack(_DOUBLE.pack(canonicalize_scalar(theta)))[0]
        runs = []
        first = self._segment_first[sensor_index]
        for s, grids in enumerate(self.run_grids[sensor_index], first):
            a, a2, b = self._lookup.runs_at(s, k)
            runs.append((grids, a, b, a2))
        return runs

    def _check(self, block):
        """Reject a block that is not (n, sensors) or holds a non-finite angle."""
        if block.ndim != 2 or block.shape[1] != len(self.run_grids):
            raise ValueError("need exactly one angle per sensor")
        if not np.isfinite(block).all():
            row, sensor = np.argwhere(~np.isfinite(block))[0].tolist()
            value = float(block[row, sensor])
            raise ValueError(
                f"row {row}: the angle of sensor {sensor} must be finite, got {value!r}"
            )

    def _marks(self, block):
        """The entry positions that a checked block of at most 51 rows marks, and the weights.

        One lookup finds the runs of every segment and row (module
        docstring). Row i marks the signed steps of the indicator: +2.0**i
        at each segment's a and a2, -2.0**i at its b and at its end, as one
        flat array of run-order positions and one of weights.
        """
        # the intervals hold for theta in [0, 2*pi); canonicalizing also makes
        # 2*pi and 0 evaluate alike
        theta = canonicalize_angle(block).T.take(self._segment_sensor, axis=0)
        # per segment and row, the runs [a, b) and [a2, count) as positions
        # within the segment
        a, a2, b = self._lookup.runs(theta)
        marks = np.stack([a, a2, b, np.broadcast_to(self._entry_count[:, None], a.shape)])
        marks += self._entry_first[:, None]
        weights = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None] * 2.0 ** np.arange(len(block))
        return marks.ravel(), np.broadcast_to(weights, marks.shape).ravel()

    def _words(self, block):
        """Per grid of ``_grids``, the rows of a checked block that sense it.

        The block has at most 51 rows; row i is bit i of the grid's word
        (module docstring).
        """
        # each position's sum is exact; the marks are freed before the word
        # array exists, which keeps the peak of a pass below the heap's trim
        # threshold and spares page faults
        words = np.bincount(*self._marks(block)).astype(np.int64)
        np.cumsum(words, out=words)
        return np.bitwise_or.reduceat(words.take(self._grid_slots), self._grid_starts)

    def _covered_counts(self, block):
        """Covered-grid count of each row of a checked block of at most 51 rows."""
        lanes = self._words(block).astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
        # byte k of a word holds rows 8k to 8k + 7
        lane_count = (len(block) + 7) // 8
        hist = np.stack([np.bincount(lanes[:, k], minlength=256) for k in range(lane_count)])
        return (hist @ _BYTE_BITS).ravel()[: len(block)]

    def covered_mask(self, angles):
        """Fresh grid-sized mask of the grids covered at the given angles.

        ``fitness``'s kernel on a one-row block: the row's grids are the
        grids whose word has bit 0 set. A non-finite angle raises
        ``ValueError``.
        """
        block = np.asarray(angles, dtype=float)[None]
        self._check(block)
        covered = np.zeros(self.grid_count, dtype=bool)
        covered[self._grids] = self._words(block) & 1
        return covered

    def covered_count(self, angles):
        return int(np.count_nonzero(self.covered_mask(angles)))

    def rate(self, angles):
        return self.covered_count(angles) / self.grid_count

    def fitness(self, angles):
        """Reciprocal coverage rates of an (n, sensors) block, to be minimized.

        Row i holds one angle per sensor; value i is its reciprocal rate.
        Full coverage scores 1.0, half coverage 2.0, and the worst finite
        value, one covered grid, is grid_count. Zero coverage returns the
        finite sentinel 2.0 * grid_count, above every finite value, so the
        objective stays total and ranks it last.
        The block is evaluated in bit-parallel passes of up to 51 rows
        (module docstring): each pass looks up the runs of every segment and
        row at once, marks their signed steps, and sums and ORs one word
        per entry and per grid, whatever its number of rows. A non-finite
        angle raises ``ValueError`` naming its row and sensor.
        """
        block = np.asarray(angles, dtype=float)
        if block.ndim != 2:
            raise ValueError("fitness takes an (n, sensors) block of angle vectors")
        self._check(block)
        values = np.full(len(block), 2.0 * self.grid_count)
        for first in range(0, len(block), _WORD):
            counts = self._covered_counts(block[first : first + _WORD])
            covered = counts > 0
            values[first : first + _WORD][covered] = self.grid_count / counts[covered]
        return values


def move_counts(counts, old, new):
    """Move one sensor's sensed grids in ``counts`` from the runs ``old`` to ``new``.

    ``old`` and ``new`` are ``sensed_subset`` results of the same sensor;
    ``(grids, 0, 0, grids.size)`` senses nothing. Only the entries between
    an old bound and its new one are touched (module docstring).
    """
    for (grids, a, b, a2), (_, a0, b0, a20) in zip(new, old):
        # [x < b] - [x < a] - [x < a2] + 1: the count rises with b, falls with a and a2
        if b > b0:
            counts[grids[b0:b]] += 1
        elif b < b0:
            counts[grids[b:b0]] -= 1
        if a > a0:
            counts[grids[a0:a]] -= 1
        elif a < a0:
            counts[grids[a:a0]] += 1
        if a2 > a20:
            counts[grids[a20:a2]] -= 1
        elif a2 < a20:
            counts[grids[a2:a20]] += 1


def coverage(sensors, field):
    """Coverage of the field by the sensors at their deviations.

    One ``CoverageEvaluator`` pass, the kernel every search runs. A
    non-finite deviation assigned after construction raises ``ValueError``
    naming its sensor.
    """
    sensors = list(sensors)
    covered = CoverageEvaluator(sensors, field).covered_mask([s.deviation for s in sensors])
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
    if not sensors:
        raise ValueError(f"{path}: no sensors")
    return sensors
