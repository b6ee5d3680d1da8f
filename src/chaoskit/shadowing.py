"""Pseudo-orbit tracing probes and chain-recurrence graphs in binary64.

A delta-pseudo-orbit is a finite point sequence whose consecutive steps obey
d(f(x_n), x_{n+1}) < delta; the trace set of a candidate start x against the
orbit is {n : d(f^n(x), p_n) < eps}.  All float comparisons that sit on the
strict side get FLOAT_SLACK = 2^-40 of headroom so that exact-arithmetic
equalities do not flip on rounding.

The probes are grid searches and their verdicts are grid-relative:

  pass        at some delta of the ladder, every sampled pseudo-orbit had a
              grid tracer meeting the target (evidence, not proof)
  falsified   at every delta, a constructed challenge orbit defeated every
              candidate on the grid; challenges are built so that failure is
              structural (e.g. an orbit that crosses between two invariant
              halves can be traced by no point at all, grid or not)
  undetermined  anything in between (random failures only)

A system is lo, hi, name, step_array, grid and random_point; every orbit,
pseudo or true, is stepped through step_array with all of its rows at once,
and a point is clamped into the space by np.clip to [lo, hi].  A probe
builds all of its pseudo-orbits together and scores them together
(best_tracers), in two passes over blocks of the candidate grid sized from
one byte budget.  fl(x - p) rises with x, so abs(x - p) < eps holds on one
float window about each orbit point (_window), and each hit is two compares.
A perfect score (a hit at every step for max_cardinality, a hit at step 0
and at no later step for min_max_gap) cannot be beaten and needs a hit at
step 0.  So on an ascending grid, as every probe's is, pass 1 follows only
each orbit's run of step-0 matches, and drops each pair at the first step
where it leaves that pattern; an orbit's first surviving candidate is the
first with the best score, which is the sweep's own tie rule.  Pass 2 sweeps
the whole grid, each step of a block compared with every orbit at once, for
the orbits that pass 1 left without a winner, and for all of them on any
other array.  Either pass holds at most rows x block pairs at once, and the
grid is walked at most twice per probe, not once per pseudo-orbit.  While
the probe runs, its winners sit in a dict keyed by (orbit, id(candidates),
eps, objective), from which best_tracer reads each row's winner.

Chain graphs discretize the delta-chain relation: nodes are grid points,
with an edge i -> j whenever d(f(p_i), p_j) < delta; chain_nodes sizes the
grid from delta, at most delta / 2 between neighbours.  The grid must
ascend; then the successors of each node i are one index range
[lo[i], hi[i]), stored as two read-only int arrays (ChainGraph.succ is a
view of ranges over them), whose ends ascend together with f(p_i).  So each node's
predecessors are a run of the nodes sorted by (lo, hi), and the reverse
graph is a range graph too.  Chain transitivity is strong connectivity;
chain mixing also needs the cycle-length gcd to be 1.  One level-synchronous
BFS, O(n) numpy work a level and no edge listed, runs from node 0 on the
graph and on its reverse, each at most once per graph: the graph is chain
transitive iff both reach every node, the forward levels give the period by
Denardo's gcd, and every node of a strongly connected graph with more than
one node is chain recurrent.  A BFS may expand at most _BFS_LEVELS levels
(the fixtures are at most 12 deep).  Past that cap, and for the recurrent
nodes of a graph that is not strongly connected, Kosaraju's two passes find
the SCCs: one depth-first walk of a "next unvisited index" union-find, on
the graph and then on its reverse.  The forward walk's depths then give the
period.
"""

from __future__ import annotations

import math
import random
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import setfam
from .budgets import charge
from .interval import PLMap
from .setfam import FamilyParams, WindowSet

FLOAT_SLACK = 2.0 ** -40

JUMP_FRACTION = 0.9  # jumps are capped at this fraction of delta


class IntervalSystem:
    """A piecewise-linear map pushed down to binary64 for bulk iteration."""

    def __init__(self, m: PLMap, name: str = ""):
        self.name = name
        self.xs = np.array([float(x) for x in m.xs])
        self.ys = np.array([float(y) for y in m.ys])
        self.lo = float(m.lo)
        self.hi = float(m.hi)

    def step_array(self, arr: np.ndarray) -> np.ndarray:
        # xs runs from lo to hi and np.interp holds ys[0] and ys[-1] outside
        # it, so no clamp is needed (NaN stays NaN either way).
        return np.interp(arr, self.xs, self.ys)

    def grid(self, n: int) -> np.ndarray:
        if n < 2:
            raise ValueError("grid needs at least two points")
        charge("enum_nodes", n)
        return np.linspace(self.lo, self.hi, n)

    def random_point(self, rng: random.Random) -> float:
        return rng.uniform(self.lo, self.hi)


class DiscreteSystem:
    """A finite metric space (points on the real line) with an index map.

    The points must ascend strictly.  step_array clamps each value into
    [lo, hi], snaps it to the nearest listed point (the lower one on a tie)
    and returns that point's image, and NaN as NaN; useful as a worked
    fixture where pseudo-orbits with delta below the minimum spacing are
    exact orbits.
    """

    def __init__(self, points: Sequence[float], images: Sequence[int],
                 name: str = ""):
        if len(points) != len(images) or len(points) < 1:
            raise ValueError("need matching points/images")
        if any(not 0 <= i < len(points) for i in images):
            raise ValueError("image indices out of range")
        self.points = np.array([float(p) for p in points])
        if not np.all(np.diff(self.points) > 0):
            raise ValueError("points must be strictly ascending")
        self.images = np.array(images, dtype=np.intp)
        self.name = name
        self.lo = float(self.points[0])
        self.hi = float(self.points[-1])

    def _nearest(self, arr: np.ndarray) -> np.ndarray:
        """Index of the nearest point to each value, the lowest on a tie."""
        pts = self.points
        k = np.searchsorted(pts, arr)
        left, right = np.maximum(k - 1, 0), np.minimum(k, len(pts) - 1)
        d = np.minimum(np.abs(arr - pts[left]), np.abs(arr - pts[right]))
        # No point is nearer than a neighbour, and the points at rounded
        # distance d are the run in the window for the tolerance just above
        # d; argmin takes the first of them.
        return np.searchsorted(pts, _window(arr, np.nextafter(d, np.inf))[0])

    def step_array(self, arr: np.ndarray) -> np.ndarray:
        # A value past an end is nearest that end, though its rounded
        # distances may tie with every point; so it is clamped first.  NaN
        # has no nearest point: it is looked up as lo and comes back NaN.
        arr = np.clip(arr, self.lo, self.hi)
        nan = np.isnan(arr)
        image = self.points[self.images[self._nearest(np.where(nan, self.lo, arr))]]
        return np.where(nan, np.nan, image)

    def grid(self, n: int) -> np.ndarray:
        charge("enum_nodes", len(self.points))
        return self.points.copy()

    def random_point(self, rng: random.Random) -> float:
        return float(rng.choice(list(self.points)))


def orbit_points(system, x0, length: int) -> np.ndarray:
    """True orbits x0, f(x0), ..., f^(length-1)(x0), the start clamped into
    the space: shape (length,) for a float start, one row per start for an
    array of starts, all rows stepped by one step_array call per step."""
    if length < 1:
        raise ValueError("length must be >= 1")
    charge("iter_steps", length)
    start = np.clip(np.asarray(x0, dtype=float), system.lo, system.hi)
    out = np.empty(start.shape + (length,))
    out[..., 0] = start
    for n in range(1, length):
        out[..., n] = system.step_array(out[..., n - 1])
    return out


# ---------------------------------------------------------------------------
# Pseudo-orbits.

SCHEMES = ("zero", "uniform", "bounded", "adversarial")


@dataclass(eq=False)
class PseudoOrbit:
    points: np.ndarray
    delta: float
    label: str
    valid_set: WindowSet = field(repr=False)

    def __len__(self) -> int:
        return len(self.points)


def recompute_valid_set(system, points: np.ndarray, delta: float) -> WindowSet:
    """Indices n with d(f(p_n), p_{n+1}) < delta + slack, horizon len-1."""
    if len(points) < 2:
        raise ValueError("a pseudo-orbit needs at least two points")
    steps = system.step_array(np.asarray(points[:-1], dtype=float))
    hit = np.abs(steps - points[1:]) < delta + FLOAT_SLACK
    return WindowSet(len(points) - 1, tuple(int(i) for i in np.flatnonzero(hit)))


def check_pseudo_orbits(deltas: Sequence[float], length: int, trials: int = 1,
                        challenges: Sequence = ()) -> None:
    """ValueError unless the delta ladder is non-empty, positive and finite,
    length >= 2, and each delta gets at least one pseudo-orbit (a trial or a
    challenge)."""
    if not deltas:
        raise ValueError("empty delta ladder")
    if not all(0 < d < math.inf for d in deltas):
        raise ValueError("delta must be positive and finite")
    if length < 2:
        raise ValueError("length must be >= 2")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if trials == 0 and not challenges:
        raise ValueError("trials 0 and no challenge: no pseudo-orbit to trace")


def make_pseudo_orbit(system, delta: float, length: int, scheme: str = "uniform",
                      seed: str = "0", x0: float | None = None,
                      target: float | None = None, label: str = "") -> PseudoOrbit:
    """Generate a delta-pseudo-orbit with jumps capped at 0.9*delta.

    Schemes: zero (true orbit), uniform (jump ~ U[-cap, cap]), bounded
    (random extreme jumps +-cap), adversarial (steer toward the target point
    as fast as the cap allows).  Points are clamped into the space, which can
    only shrink a jump.
    """
    return _pseudo_orbits(system, length,
                          [(delta, scheme, seed, x0, target, label)])[0]


def _pseudo_orbits(system, length: int, rows: Sequence[tuple]) -> list[PseudoOrbit]:
    """make_pseudo_orbit for each row of (delta, scheme, seed, x0, target,
    label), every row checked before any work and all of them stepped by one
    step_array call per step.  Each row draws its start and jumps from its
    own generator, in make_pseudo_orbit's order, so no row depends on
    another; only the adversarial jumps depend on the step."""
    for delta, scheme, _, _, target, _ in rows:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        check_pseudo_orbits((delta,), length)
        if scheme == "adversarial" and target is None:
            raise ValueError("adversarial scheme needs a target")
    charge("iter_steps", length)
    start, caps, steer = np.zeros((3, len(rows)))
    jumps = np.zeros((len(rows), length - 1))
    for r, (delta, scheme, seed, x0, target, _) in enumerate(rows):
        rng = random.Random(f"{seed}/{scheme}/{length}")
        start[r] = x0 if x0 is not None else system.random_point(rng)
        caps[r] = cap_ = JUMP_FRACTION * delta
        if scheme == "uniform":
            jumps[r] = [rng.uniform(-cap_, cap_) for _ in range(length - 1)]
        elif scheme == "bounded":
            jumps[r] = [cap_ if rng.random() < 0.5 else -cap_
                        for _ in range(length - 1)]
        elif scheme == "adversarial":
            steer[r] = target
    adversarial = np.array([scheme == "adversarial" for _, scheme, *_ in rows])
    pts = np.empty((len(rows), length))
    pts[:, 0] = np.clip(start, system.lo, system.hi)
    for n in range(1, length):
        fx = system.step_array(pts[:, n - 1])
        jump = np.where(adversarial, np.clip(steer - fx, -caps, caps),
                        jumps[:, n - 1])
        pts[:, n] = np.clip(fx + jump, system.lo, system.hi)
    return [PseudoOrbit(points=p, delta=delta, label=label or scheme,
                        valid_set=recompute_valid_set(system, p, delta))
            for p, (delta, scheme, *_, label) in zip(pts, rows)]


# ---------------------------------------------------------------------------
# Tracing.

@dataclass(frozen=True)
class TraceReport:
    x0: float
    hits: WindowSet
    cardinality: int


def trace_set(system, orbit: PseudoOrbit, x0: float, eps: float) -> TraceReport:
    """Hit times {n : d(f^n(x0), p_n) < eps + slack} of a single candidate."""
    return _trace_sets(system, (orbit,), (x0,), eps)[0]


def _trace_sets(system, orbits: Sequence[PseudoOrbit], starts: Sequence[float],
                eps: float) -> list[TraceReport]:
    """trace_set of each start against its orbit, which share one length;
    their true orbits come from one orbit_points call."""
    points = np.stack([o.points for o in orbits])
    true = orbit_points(system, np.asarray(starts, dtype=float), points.shape[1])
    hits = [WindowSet(len(hit), tuple(np.flatnonzero(hit).tolist()))
            for hit in np.abs(true - points) < eps + FLOAT_SLACK]
    return [TraceReport(x0=float(x0), hits=h, cardinality=len(h))
            for x0, h in zip(starts, hits)]


@dataclass(frozen=True)
class BestTracer:
    score: float
    report: TraceReport


OBJECTIVES = ("max_cardinality", "min_max_gap")

# The bytes of block state that either pass of best_tracers, or chain_graph,
# holds, about half a megabyte whatever the grid size and the number of
# orbits; larger blocks raised peak RSS for little speed.
_BLOCK_BYTES = 2 ** 19


def _block_size(rows: int, cell_bytes: int) -> int:
    """Candidates (chain_graph: nodes) per block for rows orbits at
    cell_bytes of state a pair."""
    return max(1, _BLOCK_BYTES // (rows * cell_bytes))


def _window(points: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """Per point p, the floats a <= p <= b such that abs(x - p) < tol holds
    exactly when a <= x <= b; (NaN, NaN), which no x meets, where p is not
    finite; tol is one float, or one per point.  Subtraction is correctly
    rounded, so fl(x - p) rises with x: fl(x - p) < tol while the exact
    x - p is below the midpoint of tol and the float under it, and > -tol
    mirrors it.  TwoSum (Knuth) puts p plus that midpoint within an ulp,
    clamped to the largest float, and np.nextafter under the rounded test
    itself settles each end."""
    p = np.asarray(points, dtype=float)
    below = np.nextafter(tol, -np.inf)
    finite, big, ends = np.isfinite(p), np.finfo(float).max, []
    with np.errstate(over="ignore", invalid="ignore"):
        # math.ulp(below) per point: np.spacing is signed, and inf at the
        # largest float.
        half = np.minimum(np.spacing(np.abs(below)), big - np.nextafter(big, 0)) / 2
        for sign, away in ((-1.0, -np.inf), (1.0, np.inf)):
            t = sign * below
            s = p + t
            z = s - p       # TwoSum's error, and the half ulp to the midpoint
            err = (p - (s - z)) + (t - z) + sign * half
            x = np.where(finite, np.clip(np.where(np.isfinite(s), s + err, s),
                                         -big, big), np.nan)
            while (fail := finite & ~(sign * (x - p) < tol)).any():
                x[fail] = np.nextafter(x[fail], -away)
            while (more := sign * ((out := np.nextafter(x, away)) - p) < tol).any():
                x[more] = out[more]
            ends.append(x)
    return ends[0], ends[1]


def best_tracers(system, orbits: Sequence[PseudoOrbit], candidates: np.ndarray,
                 eps: float, objective: str = "max_cardinality") -> list[BestTracer]:
    """The best tracing start among the candidates for each orbit, from at
    most two walks of the candidate grid.

    The orbits must share one length L, and step n is hit inside that
    point's _window.  Both passes iterate the candidates in blocks
    (_block_size), one step_array call per step of a block, so memory is
    O(L * len(orbits)) beside about _BLOCK_BYTES, whatever the grid size.

    Pass 1 (_perfect_tracers), on an ascending array only, finds each
    orbit's first candidate with a perfect score, one that no candidate can
    beat: L hits, or a largest gap of 0.  Such a candidate hits at step 0,
    so only the step-0 matches are stepped, and each is dropped where it
    leaves the perfect pattern.  The first survivor in candidate order is
    exactly what the sweep returns, the first candidate with the best score.

    Pass 2 (_sweep) scores the other orbits, or all of them on any other
    array, over every candidate: each step of a block is compared with every
    orbit's window at once, with a running score per (orbit, candidate) of
    the block.  max_cardinality counts the hits and scores their number.
    min_max_gap keeps the last hit (-1 before any) and the largest gap so
    far, and updates only the pairs that hit: a hit at step n opens a gap of
    n after no earlier hit (the leading gap) and of n - last otherwise; a
    candidate that never hits has gap L + 1, and the score is minus the gap.
    Ties break toward the first candidate: within a block by argmax, across
    blocks because only a strictly better score replaces an orbit's winner.
    The winners are traced again for their reports, in one orbit_points call.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if not orbits:
        raise ValueError("no pseudo-orbit to trace")
    length = len(orbits[0])
    if any(len(o) != length for o in orbits):
        raise ValueError("pseudo-orbits differ in length")
    cand = np.asarray(candidates, dtype=float)
    if not len(cand):
        raise ValueError("no candidates")
    charge("iter_steps", length)
    by_gap = objective == "min_max_gap"
    a, b = _window(np.stack([o.points for o in orbits], axis=1), eps + FLOAT_SLACK)
    winner = np.full(len(orbits), -1, dtype=np.intp)
    if (cand[1:] >= cand[:-1]).all():
        winner = _perfect_tracers(system, a, b, cand, by_gap)
    best = np.where(winner >= 0, 0.0 if by_gap else float(length), -np.inf)
    if len(rest := np.flatnonzero(winner < 0)):
        best[rest], winner[rest] = _sweep(system, a[:, rest], b[:, rest], cand, by_gap)
    reports = _trace_sets(system, orbits, cand[winner], eps)
    return [BestTracer(score=s, report=r) for s, r in zip(best.tolist(), reports)]


def _perfect_tracers(system, a: np.ndarray, b: np.ndarray, cand: np.ndarray,
                     by_gap: bool) -> np.ndarray:
    """Each orbit's first candidate with a perfect score, -1 where none has
    one; a[n], b[n] hold the windows of step n of every orbit.

    Perfect is a hit at every step (max_cardinality), or a hit at step 0 and
    at no later step (min_max_gap), so only the (orbit, candidate) pairs
    that hit at step 0 are followed, and a pair is dropped at the first step
    where it leaves that pattern.  The array must ascend, as chain_graph's
    does: then each orbit's step-0 matches are one index run (_match_runs).
    The pairs of one block of candidates are stepped together, one
    step_array call a step, and the blocks go in candidate order, skipping
    those that no open orbit's run meets, until every orbit has its winner
    or no step-0 match left; so a block holds at most rows x block pairs.
    """
    length, rows = a.shape
    size = _block_size(rows, 16)    # a pair's index and point; its row too ran slower
    winner = np.full(rows, -1, dtype=np.intp)
    first, stop = _match_runs(cand, a[0], b[0])
    start = 0
    while (ahead := (winner < 0) & (np.maximum(first, start) < stop)).any():
        start = max(start, int(first[ahead].min()))    # skip blocks no run meets
        # Each open orbit's run clipped to the block, laid end to end.
        lo = np.clip(first, start, start + size)
        take = np.where(ahead, np.minimum(stop, start + size) - lo, 0)
        rid = np.repeat(np.arange(rows), take)
        idx = np.arange(len(rid)) + np.repeat(lo - np.cumsum(take) + take, take)
        x = cand[idx]
        for n in range(1, length):
            if not len(rid):
                break
            x = system.step_array(x)
            keep = ((x >= a[n].take(rid)) & (x <= b[n].take(rid))) != by_gap
            rid, idx, x = rid[keep], idx[keep], x[keep]
        # The pairs run orbit by orbit, each in candidate order.
        rid, at = np.unique(rid, return_index=True)
        winner[rid] = idx[at]
        start += size
    return winner


def _match_runs(cand: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The ends [lo, hi) of the runs of ascending candidates in the windows
    [a, b], for the perfect walk's step 0 and chain_graph's ranges."""
    return np.searchsorted(cand, a, "left"), np.searchsorted(cand, b, "right")


def _sweep(system, a: np.ndarray, b: np.ndarray, cand: np.ndarray,
           by_gap: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each orbit's best score and the first candidate that reaches it, from
    running scores over blocks of the candidates (best_tracers).  Under
    max_cardinality a step adds x >= a[n] and takes away x > b[n] (exact, as
    a <= b) in np.min_scalar_type(L) counts; min_max_gap keeps int32 state."""
    length, rows = a.shape
    a, b = a[:, :, None], b[:, :, None]    # step n's windows, as columns
    count_type = np.int32 if by_gap else np.min_scalar_type(length)
    # A cell's count and 1-byte buffer, and min_max_gap's last hit and buffer.
    size = _block_size(rows, np.dtype(count_type).itemsize + (6 if by_gap else 1))
    best = np.full(rows, -np.inf)
    winner = np.zeros(rows, dtype=np.intp)
    for start in range(0, len(cand), size):
        cur = cand[start:start + size]
        shape = (rows, len(cur))
        count = np.zeros(shape, dtype=count_type)   # hits, or the largest gap
        hit = np.empty(shape, dtype=bool)           # step buffers, reused
        if by_gap:
            below = np.empty(shape, dtype=bool)
            last = np.full(shape, -1, dtype=np.int32)
            flat_count, flat_last = count.reshape(-1), last.reshape(-1)
        for n in range(length):
            if n:
                cur = system.step_array(cur)
            np.greater_equal(cur, a[n], out=hit)
            if by_gap:
                np.logical_and(hit, np.less_equal(cur, b[n], out=below), out=hit)
                idx = np.flatnonzero(hit)
                flat_count[idx] = np.maximum(
                    flat_count[idx], n - np.maximum(flat_last[idx], 0))
                flat_last[idx] = n
            else:
                np.add(count, hit, out=count)
                np.subtract(count, np.greater(cur, b[n], out=hit), out=count)
        if by_gap:
            count[last < 0] = length + 1
            np.negative(count, out=count)
        k = count.argmax(axis=1)
        score = count[np.arange(rows), k]
        better = score > best
        best[better] = score[better]
        winner[better] = start + k[better]
    return best, winner


# The winners of the fg_shadowing_probe in progress, keyed by (orbit,
# id(candidates), eps, objective); unset outside a probe, so no winner
# outlives its call.  The probe holds its candidate array while the dict
# lives, so the id cannot be reused meanwhile.
_sweeps: ContextVar[dict[tuple, BestTracer]] = ContextVar("_sweeps")


def best_tracer(system, orbit: PseudoOrbit, candidates: np.ndarray, eps: float,
                objective: str = "max_cardinality") -> BestTracer:
    """The best tracing start among the candidates for one orbit: the
    one-orbit case of best_tracers.

    Inside fg_shadowing_probe, which scores all of its pseudo-orbits in one
    sweep first, the winner of a probe orbit is read from that sweep when
    the candidate array, eps and objective are the probe's own.
    """
    won = _sweeps.get({}).get((orbit, id(candidates), eps, objective))
    return won or best_tracers(system, (orbit,), candidates, eps, objective)[0]


TARGETS = ("full", *setfam.TAGS)


# ---------------------------------------------------------------------------
# The probe.

@dataclass(frozen=True)
class Challenge:
    """A family of adversarial pseudo-orbits, one per delta."""

    name: str
    x0_of_delta: Callable[[float], float]
    target: float


def crossing_challenge() -> Challenge:
    """Defeats tracing for the two-invariant-halves map on [0, 1].

    The start (1/2 - 1.15*delta)/3 maps to just below the midpoint; steered
    upward at the jump cap, the orbit crosses into the upper half by step two
    and is then pushed toward 1 (the upper half is invariant, so it never
    returns).  Any real point within eps of the start has its whole true
    orbit in the lower half, hence misses the later points near 1 whenever
    eps < 1/6; so no tracer exists at all.
    """
    return Challenge(
        name="crossing",
        x0_of_delta=lambda d: (0.5 - 1.15 * d) / 3.0,
        target=1.0,
    )


@dataclass(frozen=True)
class ProbeRow:
    delta: float
    label: str
    valid_count: int
    tracer: float
    cardinality: int
    trace_max_gap: int | None
    tags: tuple[str, ...]
    ok: bool
    challenge: bool


@dataclass(frozen=True)
class ProbeResult:
    eps: float
    target: str
    length: int
    n_candidates: int
    trials: int
    deltas: tuple[float, ...]
    rows: tuple[ProbeRow, ...]
    verdict: str                 # pass | falsified | undetermined
    delta_pass: float | None     # largest ladder delta whose row set passed
    witness: ProbeRow | None


def check_probe(system, eps: float, deltas: Sequence[float], length: int,
                trials: int, targets: Sequence[str], params: FamilyParams | None,
                n_candidates: int, challenges: Sequence[Challenge]):
    """fg_shadowing_probe's checks, made before any work, for a probe of
    each target: eps positive and finite, check_pseudo_orbits, the targets
    and the trace-set horizon, length.  Returns the descending ladder, the
    params and the candidate grid, which the system charges as it builds."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    ladder = sorted(set(float(d) for d in deltas), reverse=True)
    check_pseudo_orbits(ladder, length, trials, challenges)
    if unknown := [t for t in targets if t not in TARGETS]:
        raise ValueError(f"unknown target {unknown[0]!r}")
    params = params or FamilyParams()
    params.check_horizon(length)   # every trace set has horizon length
    return ladder, params, system.grid(n_candidates)


def fg_shadowing_probe(system, eps: float, deltas: Sequence[float], length: int,
                       trials: int, target: str = "full",
                       params: FamilyParams | None = None,
                       n_candidates: int = 1001, seed: str = "probe",
                       challenges: Sequence[Challenge] = ()) -> ProbeResult:
    """Ladder probe: for each delta, sample pseudo-orbits and grid-search
    tracers; the target family is checked on each best trace set.

    The ladder is processed in descending order.  A pass at some delta is a
    pass overall (smaller deltas only shrink the pseudo-orbit supply); the
    probe is falsified when a challenge defeats the grid at every delta.

    No pseudo-orbit depends on a tracing result, so all of them, at every
    delta, are built first, stepped together, and scored by one best_tracers
    sweep.  Each row still asks best_tracer for its winner, which reads it
    from that sweep while the probe runs; the sweep is dropped when the
    probe returns or raises.
    """
    ladder, params, candidates = check_probe(
        system, eps, deltas, length, trials, (target,), params, n_candidates,
        challenges)
    # Gap-bounded targets want the smallest largest gap, the rest most hits.
    objective = ("min_max_gap" if target in ("syndetic", "thickly_syndetic")
                 else "max_cardinality")
    specs = []      # (make_pseudo_orbit's arguments, is_challenge) per row
    for delta in ladder:
        for t in range(trials):
            scheme = ("uniform", "bounded", "adversarial")[t % 3]
            rng = random.Random(f"{seed}/pick/{delta!r}/{t}")
            tgt = system.random_point(rng) if scheme == "adversarial" else None
            specs.append(((delta, scheme, f"{seed}/{delta!r}/{t}", None, tgt,
                           f"trial{t}:{scheme}"), False))
        for ch in challenges:
            specs.append(((delta, "adversarial", f"{seed}/{delta!r}/{ch.name}",
                           ch.x0_of_delta(delta), ch.target, ch.name), True))
    orbits = _pseudo_orbits(system, length, [args for args, _ in specs])
    winners = best_tracers(system, orbits, candidates, eps, objective)
    rows = []
    token = _sweeps.set({(o, id(candidates), eps, objective): w
                         for o, w in zip(orbits, winners)})
    try:
        for orbit, (_, is_challenge) in zip(orbits, specs):
            bt = best_tracer(system, orbit, candidates, eps, objective)
            hits = bt.report.hits
            verdict = setfam.classify(hits, params)
            rows.append(ProbeRow(
                delta=orbit.delta, label=orbit.label,
                valid_count=len(orbit.valid_set),
                tracer=bt.report.x0, cardinality=bt.report.cardinality,
                trace_max_gap=verdict.max_gap, tags=verdict.tags(),
                ok=(len(hits) == hits.horizon if target == "full"
                    else getattr(verdict, target)),
                challenge=is_challenge,
            ))
    finally:
        _sweeps.reset(token)
    by_delta = [[r for r in rows if r.delta == d] for d in ladder]
    delta_pass = next((d for d, here in zip(ladder, by_delta)
                       if all(r.ok for r in here)), None)
    if delta_pass is not None:
        verdict, witness = "pass", None
    elif challenges and all(any(r.challenge and not r.ok for r in here)
                            for here in by_delta):
        verdict = "falsified"
        witness = next(r for r in reversed(rows) if r.challenge and not r.ok)
    else:
        verdict = "undetermined"
        witness = next((r for r in reversed(rows) if not r.ok), None)
    return ProbeResult(
        eps=eps, target=target, length=length, n_candidates=len(candidates),
        trials=trials, deltas=tuple(ladder), rows=tuple(rows),
        verdict=verdict, delta_pass=delta_pass, witness=witness,
    )


# ---------------------------------------------------------------------------
# Chain graphs.  The grid ascends and fl(f(p_i) - p_j) falls as j rises, so
# the exact predicate holds on one run of j; the graph algorithms below work
# on those ranges and never list an edge.

class _Ranges:
    """A read-only sequence of range(lo[i], hi[i]) over two int arrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = lo, hi

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, i) -> range:
        return range(self.lo[i], self.hi[i])

    def __iter__(self):
        return map(range, self.lo.tolist(), self.hi.tolist())


@dataclass(frozen=True, eq=False)
class ChainGraph:
    """Node i's successors are range(lo[i], hi[i]); succ is that sequence of
    ranges, a view over lo and hi.

    points is kept as a float64 array, and lo and hi as int arrays, all three
    made read-only, because every chain check is cached per graph.  Any
    succ other than such a view (hand-built, or a tuple handed to
    dataclasses.replace) is read into arrays here.  A successor that is not
    range(lo, hi) with 0 <= lo <= hi <= n raises ValueError.
    """

    points: np.ndarray
    delta: float
    succ: Sequence[range]
    lo: np.ndarray = field(init=False, repr=False)
    hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        succ, n = self.succ, len(points)
        if not isinstance(succ, _Ranges):
            # Anything but a unit-step range is read as range(-1, -1), which
            # the bounds check below refuses.
            rows = [r if isinstance(r, range) and r.step == 1 else range(-1, -1)
                    for r in succ]
            succ = _Ranges(np.fromiter((r.start for r in rows), np.intp, len(rows)),
                           np.fromiter((r.stop for r in rows), np.intp, len(rows)))
        lo, hi = succ.lo, succ.hi
        if len(lo) != n:
            raise ValueError(f"{len(lo)} successor ranges for {n} nodes")
        if len(bad := np.flatnonzero((lo < 0) | (lo > hi) | (hi > n))):
            raise ValueError(f"the successors of node {bad[0]} are not a "
                             f"range(lo, hi) with 0 <= lo <= hi <= {n}")
        for a in (points, lo, hi):
            a.flags.writeable = False
        for name, value in (("points", points), ("succ", succ), ("lo", lo), ("hi", hi)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lo, hi and the nodes sorted by (lo, hi), sorted once per graph.
        Every chain check starts here, so a graph whose ranges do not ascend
        together (hi falls somewhere in that order) raises ValueError before
        any work."""
        by = np.lexsort((self.hi, self.lo))
        if (np.diff(self.hi[by]) < 0).any():
            raise ValueError("successor ranges do not ascend together")
        return self.lo, self.hi, by

    @cached_property
    def _reverse(self) -> tuple[np.ndarray, np.ndarray]:
        """The reverse ranges, built once per graph: over the positions of
        the (lo, hi) order, node by[k]'s predecessors sit at positions
        [rlo[k], rhi[k]).  hi ascends in that order too, so the u with
        lo[u] <= v < hi[u] run from the count of hi <= v to that of lo <= v."""
        lo, hi, by = self._bounds
        n = len(self)
        return (np.cumsum(np.bincount(hi, minlength=n + 1))[by],
                np.cumsum(np.bincount(lo, minlength=n + 1))[by])

    @cached_property
    def _levels(self) -> np.ndarray | None:
        """The forward BFS from node 0, run once per graph."""
        return _bfs_levels(*self._bounds[:2], 0)

    @cached_property
    def _coreach(self) -> bool | None:
        """Whether every node reaches node 0, from the backward BFS (the BFS
        on the reverse ranges from node 0's position), run once per graph;
        None past the level cap."""
        level = _bfs_levels(*self._reverse, int(np.argmin(self._bounds[2])))
        return None if level is None else bool((level >= 0).all())

    @cached_property
    def _forward(self) -> tuple[list[int], list[int]]:
        """Kosaraju's forward pass, run once per graph: _dfs from every node
        in index order.  Node 0 roots the first tree, which spans a strongly
        connected graph."""
        return _dfs(*self._bounds[:2], range(len(self)))

    @cached_property
    def components(self) -> list[list[int]]:
        """The strongly connected components, found once per graph; only a
        BFS past the level cap, or chain_recurrent_nodes on a graph that is
        not strongly connected, asks for them."""
        return strongly_connected_components(self)

    @cached_property
    def period(self) -> int | None:
        """gcd of cycle lengths of a strongly connected graph (None
        otherwise), found once per graph; 1 means aperiodic.

        For the depths of any spanning tree rooted at node 0, here the levels
        of the forward BFS, the period is the gcd over all edges u->v of
        depth(u)+1-depth(v): each term is a difference of two closed-walk
        lengths through 0, and each cycle's length is the sum of its terms
        (Denardo 1977).  Over one successor range [lo, hi) the terms reduce
        to depth(u)+1-depth(lo) and the differences depth(k+1)-depth(k) for
        k in [lo, hi-1); a difference array marks every k that some range
        covers.  Each family takes one gcd reduction in O(n), one after the
        other, so that only one is held at a time.  Past the BFS level cap,
        the first tree of Kosaraju's forward pass gives the depths instead.
        """
        if not chain_transitive_check(self):
            return None
        lo, hi, _ = self._bounds
        if (lo == hi).any():
            # Strongly connected, so this is one node, and it has no loop.
            return None
        n = len(self)
        depth = self._levels
        if depth is None:
            depth = np.array(self._forward[1], dtype=np.int64)
        covered = np.cumsum(np.bincount(lo, minlength=n)
                            - np.bincount(hi - 1, minlength=n)) > 0
        along = int(np.gcd.reduce(np.diff(depth)[covered[:-1]]))
        across = int(np.gcd.reduce(depth + 1 - depth[lo]))
        return math.gcd(along, across) or None


def _check_chain_delta(delta: float) -> None:
    if not 0 < delta < math.inf:
        raise ValueError(f"chain delta must be positive and finite, got {delta}")


def chain_nodes(system, delta: float) -> int:
    """The chain-graph size for delta: 2^k + 1 nodes for the least k >= 0
    whose grid spacing (hi - lo) / 2^k is at most delta / 2, worked out on
    the exact values of the floats.  At half the delta each spacing splits
    in two at most, so the finer grid keeps every node of the coarser one."""
    _check_chain_delta(delta)
    spacings = (Fraction(system.hi) - Fraction(system.lo)) / (Fraction(delta) / 2)
    return 2 ** (max(math.ceil(spacings), 1) - 1).bit_length() + 1


def chain_graph(system, n_nodes: int, delta: float) -> ChainGraph:
    """Edges i -> j whenever d(f(p_i), p_j) < delta + slack; succ[i] is the
    range of those j (the system's grid must ascend).  The nodes are stepped
    and windowed in blocks (_block_size), so beside the points and the two
    int arrays of range ends, memory is about _BLOCK_BYTES whatever n."""
    _check_chain_delta(delta)
    pts = system.grid(n_nodes)      # charged to enum_nodes as it is built
    lo, hi = np.empty((2, len(pts)), dtype=np.intp)
    size = _block_size(1, 8)        # nodes whose float64 images fill the budget
    for k in range(0, len(pts), size):
        # abs(fx - p) equals abs(p - fx) in floats, so the j with
        # abs(f(p_i) - p_j) < tol are the run of the points in f(p_i)'s window.
        lo[k:k + size], hi[k:k + size] = _match_runs(pts, *_window(
            system.step_array(pts[k:k + size]), delta + FLOAT_SLACK))
    return ChainGraph(points=pts, delta=delta, succ=_Ranges(lo, hi))


# The levels a BFS may expand before the chain checks fall back to Kosaraju.
# The fixture graphs are at most 12 levels deep at any size; a graph whose
# chains creep (two clusters, each chain alternating between them) can be
# about n/2 deep.
_BFS_LEVELS = 48


def _bfs_levels(lo: np.ndarray, hi: np.ndarray, start: int) -> np.ndarray | None:
    """Each node's distance from start along the ranges [lo, hi), -1 where
    start does not reach; None if some node is _BFS_LEVELS or more levels
    from start.  The next level is the nodes that the frontier's ranges
    cover, a difference array over their ends summed in one cumsum, that no
    earlier level holds: O(n) numpy work a level, and no edge is listed."""
    n = len(lo)
    level = np.full(n, -1, dtype=np.int64)
    front = np.array([start])
    level[front] = 0
    for k in range(1, _BFS_LEVELS + 1):
        cover = np.cumsum(np.bincount(lo[front], minlength=n + 1)
                          - np.bincount(hi[front], minlength=n + 1))[:n] > 0
        front = np.flatnonzero(cover & (level < 0))
        if not len(front):
            return level
        level[front] = k
    return None


def _dfs(lo: np.ndarray, hi: np.ndarray, roots) -> tuple[list[int], list[int]]:
    """A depth-first walk along the ranges [lo, hi) that roots a tree at
    each root not yet visited, in the order given.  Returns the nodes in the
    order they finish, where each tree is one run that its root ends, and
    each node's depth in its tree (the stack height when it is pushed, 0 at
    a root).  A "next unvisited index" union-find hands out each unvisited
    node of a range once: find(x) is the least unvisited index >= x (n when
    none is left), and a visited v links to v + 1."""
    lo, hi = lo.tolist(), hi.tolist()
    nxt = list(range(len(lo) + 1))

    def find(x: int) -> int:
        root = x
        while nxt[root] != root:
            root = nxt[root]
        while nxt[x] != root:
            nxt[x], x = root, nxt[x]
        return root

    order, depth = [], [0] * len(lo)
    for root in roots:
        if nxt[root] != root:
            continue
        nxt[root] = root + 1
        stack = [root]
        while stack:
            u = stack[-1]
            v = find(lo[u])
            if v < hi[u]:
                nxt[v] = v + 1
                depth[v] = len(stack)
                stack.append(v)
            else:
                order.append(stack.pop())
    return order, depth


def strongly_connected_components(g: ChainGraph) -> list[list[int]]:
    """Kosaraju's two passes (Sharir 1981), each a _dfs walk; the chain
    checks come here only past the BFS level cap (_BFS_LEVELS), or for the
    recurrent nodes of a graph that is not strongly connected.

    The forward pass is the graph's cached _forward.  The reverse pass walks
    the reverse ranges (ChainGraph._reverse), rooted at the nodes' positions
    in reverse finishing order, and maps each tree back through the (lo, hi)
    order to a component.  No edge list is built; a graph whose ranges do
    not ascend together raises ValueError before either pass.
    """
    by = g._bounds[2]
    order, depth = _dfs(*g._reverse, np.argsort(by)[g._forward[0][::-1]].tolist())
    ends = (np.flatnonzero(np.array(depth)[order] == 0) + 1).tolist()
    nodes = by[order].tolist()
    return [nodes[a:b] for a, b in zip([0] + ends, ends)]


def chain_transitive_check(g: ChainGraph) -> bool:
    """Strong connectivity: the forward and the backward BFS from node 0
    each reach every node.  Where a BFS passes the level cap, the graph is
    transitive iff it is one SCC."""
    if not len(g):
        return False
    level = g._levels
    if level is not None and (level < 0).any():
        return False
    coreach = None if level is None else g._coreach
    if coreach is None:
        return len(g.components) == 1
    return coreach


def chain_period(g: ChainGraph) -> int | None:
    """gcd of cycle lengths of a strongly connected graph (None otherwise);
    see ChainGraph.period."""
    return g.period


def chain_mixing_check(g: ChainGraph) -> bool:
    return chain_transitive_check(g) and chain_period(g) == 1


def chain_recurrent_nodes(g: ChainGraph) -> tuple[int, ...]:
    """Nodes lying on some cycle: every node of a strongly connected graph
    with more than one node; otherwise the nodes of an SCC of size > 1, or
    with a self-loop."""
    if chain_transitive_check(g) and len(g) > 1:
        return tuple(range(len(g)))
    node = np.arange(len(g))
    loop = ((g.lo <= node) & (node < g.hi)).tolist()
    return tuple(sorted(u for comp in g.components for u in comp
                        if len(comp) > 1 or loop[u]))
