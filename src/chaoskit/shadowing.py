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
builds all of its pseudo-orbits together and scores them in one sweep of
the candidate grid (best_tracers): the candidates are iterated in blocks,
and each step of a block is compared with every pseudo-orbit at once, so
the grid is walked once per probe, not once per pseudo-orbit.  While the
probe runs, best_tracer reads each row's winner from that sweep.

Chain graphs discretize the delta-chain relation: nodes are grid points,
with an edge i -> j whenever d(f(p_i), p_j) < delta.  The grid must ascend;
then the successors of each node are one index range, stored as
range(lo, hi), and both ends of the ranges ascend together with f(p_i).
Chain transitivity is strong connectivity; chain mixing additionally needs
an aperiodic graph (cycle-length gcd 1).  Kosaraju's two passes find the
SCCs, each walking a "next unvisited index" union-find: the forward pass over
successor ranges, the reverse pass over runs of predecessors in the nodes
sorted by their ranges.  After that O(n log n) sort every check runs on the
ranges in near-linear time and O(n) memory, and each graph is traversed
once per pass: the forward pass records depth-first depths, and the period
is read off them.
"""

from __future__ import annotations

import math
import random
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import setfam
from .budgets import charge
from .interval import PLMap
from .setfam import FamilyParams, WindowSet

FLOAT_SLACK = 2.0 ** -40

JUMP_FRACTION = 0.9  # jumps are capped at this fraction of delta


def _first_true(pred, lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """Per row r, the least j in [lo[r], hi[r]) with pred(j)[r] true, else hi[r].

    pred takes one index into an array of the given size per row and must be
    monotone in j on each row's interval (false, then true); bisection, all
    rows at once.
    """
    lo, hi = lo.copy(), hi.copy()
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        ok = pred(np.minimum(mid, size - 1))
        hi = np.where(active & ok, mid, hi)
        lo = np.where(active & ~ok, mid + 1, lo)


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

    The points must ascend strictly.  step_array snaps each value to the
    nearest listed point (the lower one on a tie) and returns that point's
    image; useful as a worked fixture where pseudo-orbits with delta below
    the minimum spacing are exact orbits.
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
        d_left, d_right = np.abs(arr - pts[left]), np.abs(arr - pts[right])
        best = np.where(d_left <= d_right, left, right)
        d = np.minimum(d_left, d_right)
        # Rounded distances fall toward arr, so the points at distance d below
        # best form one run ending at best; argmin takes its first.
        return _first_true(lambda j: np.abs(arr - pts[j]) <= d,
                           np.zeros_like(best), best + 1, len(pts))

    def step_array(self, arr: np.ndarray) -> np.ndarray:
        return self.points[self.images[self._nearest(arr)]]

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

# Orbit x candidate cells scored per block of the sweep.  A block's buffers
# take at most 17 bytes a cell (about half a megabyte), whatever the grid
# size and the number of orbits; larger blocks raised peak RSS for little
# speed.
_SWEEP_CELLS = 2 ** 15


def best_tracers(system, orbits: Sequence[PseudoOrbit], candidates: np.ndarray,
                 eps: float, objective: str = "max_cardinality") -> list[BestTracer]:
    """The best tracing start among the candidates for each orbit, from one
    walk of the candidate grid.

    The orbits must share one length L.  The candidates are iterated in
    blocks of about _SWEEP_CELLS / len(orbits): one step_array call per step
    of a block, each step compared with every orbit's point at once, and a
    running score per (orbit, candidate) of the block, so memory is
    O(L * len(orbits)) beside a block whatever the grid size.
    max_cardinality counts the hits and scores their number.  min_max_gap
    keeps the last hit (-1 before any) and the largest gap so far, and
    updates only the pairs that hit: a hit at step n opens a gap of n after
    no earlier hit (the leading gap) and of n - last otherwise; a candidate
    that never hits has gap L + 1, and the score is minus the gap.  Ties
    break toward the first candidate: within a block by argmax, across
    blocks because only a strictly better score replaces an orbit's winner.
    The winners are traced again, all in one orbit_points call, for their
    reports.
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
    tol = eps + FLOAT_SLACK
    by_gap = objective == "min_max_gap"
    rows = len(orbits)
    # points[n] is step n of every orbit, as a column against a block's row.
    points = np.stack([o.points for o in orbits], axis=1)[:, :, None]
    best = np.full(rows, -np.inf)
    winner = np.zeros(rows, dtype=np.intp)
    size = max(1, _SWEEP_CELLS // rows)
    for start in range(0, len(cand), size):
        cur = cand[start:start + size]
        shape = (rows, len(cur))
        count = np.zeros(shape, dtype=np.int32)   # hits, or the largest gap
        dist = np.empty(shape)                    # step buffers, reused
        hit = np.empty(shape, dtype=bool)
        if by_gap:
            last = np.full(shape, -1, dtype=np.int32)
            flat_count, flat_last = count.reshape(-1), last.reshape(-1)
        for n in range(length):
            if n:
                cur = system.step_array(cur)
            np.subtract(cur, points[n], out=dist)
            np.abs(dist, out=dist)
            np.less(dist, tol, out=hit)
            if by_gap:
                idx = np.flatnonzero(hit)
                flat_count[idx] = np.maximum(
                    flat_count[idx], n - np.maximum(flat_last[idx], 0))
                flat_last[idx] = n
            else:
                np.add(count, hit, out=count)
        if by_gap:
            count[last < 0] = length + 1
            np.negative(count, out=count)
        k = count.argmax(axis=1)
        score = count[np.arange(rows), k]
        better = score > best
        best[better] = score[better]
        winner[better] = start + k[better]
    reports = _trace_sets(system, orbits, cand[winner], eps)
    return [BestTracer(score=s, report=r) for s, r in zip(best.tolist(), reports)]


@dataclass(frozen=True)
class _Sweep:
    """The winners of one probe's sweep and the arguments they answer for."""

    candidates: np.ndarray
    eps: float
    objective: str
    winners: dict[PseudoOrbit, BestTracer]


# The sweep of the fg_shadowing_probe in progress; unset outside a probe, so
# no winner outlives its call.
_sweeps: ContextVar[_Sweep] = ContextVar("_sweeps")


def best_tracer(system, orbit: PseudoOrbit, candidates: np.ndarray, eps: float,
                objective: str = "max_cardinality") -> BestTracer:
    """The best tracing start among the candidates for one orbit: the
    one-orbit case of best_tracers.

    Inside fg_shadowing_probe, which scores all of its pseudo-orbits in one
    sweep first, the winner of a probe orbit is read from that sweep when
    the candidates, eps and objective are the probe's own.
    """
    sweep = _sweeps.get(None)
    if (sweep is not None and sweep.candidates is candidates
            and sweep.eps == eps and sweep.objective == objective
            and orbit in sweep.winners):
        return sweep.winners[orbit]
    return best_tracers(system, (orbit,), candidates, eps, objective)[0]


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
    token = _sweeps.set(_Sweep(candidates, eps, objective,
                               dict(zip(orbits, winners))))
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

@dataclass(frozen=True)
class ChainGraph:
    points: tuple[float, ...]
    delta: float
    succ: tuple[range, ...]

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The ends lo, hi of the successor ranges as int arrays, built once
        per graph for the reverse pass and the period."""
        lo = np.fromiter((r.start for r in self.succ), np.intp, len(self))
        hi = np.fromiter((r.stop for r in self.succ), np.intp, len(self))
        return lo, hi

    @cached_property
    def _forward(self) -> tuple[list[int], list[int]]:
        """Kosaraju's forward pass, run once per graph: the nodes in the order
        they finish, and each node's depth in its depth-first tree, the stack
        height when it is pushed.  Node 0 roots the first tree, which spans a
        strongly connected graph.  The union-find hands out each unvisited
        successor once."""
        succ = self.succ
        find, visit = _unvisited(len(self))
        order, depth = [], [0] * len(self)
        for root in range(len(self)):
            if find(root) != root:
                continue
            visit(root)
            stack = [root]
            while stack:
                r = succ[stack[-1]]
                v = find(r.start)
                if v < r.stop:
                    visit(v)
                    depth[v] = len(stack)
                    stack.append(v)
                else:
                    order.append(stack.pop())
        return order, depth

    @cached_property
    def components(self) -> list[list[int]]:
        """The strongly connected components, found once per graph."""
        return strongly_connected_components(self)

    @cached_property
    def period(self) -> int | None:
        """gcd of cycle lengths of a strongly connected graph (None
        otherwise), found once per graph; 1 means aperiodic.

        For the depths of any spanning tree rooted at node 0, here the first
        tree of the forward pass, the period is the gcd over all edges u->v
        of depth(u)+1-depth(v): each term is a difference of two closed-walk
        lengths through 0, and each cycle's length is the sum of its terms
        (Denardo 1977).  Over one successor range [lo, hi) the terms reduce
        to depth(u)+1-depth(lo) and the differences depth(k+1)-depth(k) for
        k in [lo, hi-1); a difference array marks every k that some range
        covers, and one gcd reduction takes them all, in O(n).
        """
        if not chain_transitive_check(self):
            return None
        n = len(self)
        depth = np.array(self._forward[1], dtype=np.int64)
        lo, hi = self._bounds
        rows = np.flatnonzero(hi > lo)
        lo, hi = lo[rows], hi[rows]
        covered = np.cumsum(np.bincount(lo, minlength=n)
                            - np.bincount(hi - 1, minlength=n)) > 0
        terms = np.concatenate([depth[rows] + 1 - depth[lo],
                                np.diff(depth)[covered[:-1]]])
        return int(np.gcd.reduce(np.abs(terms))) or None


def chain_graph(system, n_nodes: int, delta: float) -> ChainGraph:
    """Edges i -> j whenever d(f(p_i), p_j) < delta + slack; succ[i] is the
    range of those j (the system's grid must ascend)."""
    pts = system.grid(n_nodes)      # charged to enum_nodes as it is built
    n = len(pts)
    fx = system.step_array(pts)
    tol = delta + FLOAT_SLACK
    # abs(fx - p) < tol, split into its two halves, each monotone in j.
    lo = _first_true(lambda j: fx - pts[j] < tol,
                     np.zeros(n, dtype=np.intp), np.full(n, n), n)
    hi = _first_true(lambda j: ~(fx - pts[j] > -tol), lo, np.full(n, n), n)
    succ = tuple(map(range, lo.tolist(), hi.tolist()))
    return ChainGraph(points=tuple(pts.tolist()), delta=delta, succ=succ)


def _unvisited(n: int):
    """A "next unvisited index" union-find: find(x) is the least unvisited
    index >= x (n when none is left); visit(v) removes v."""
    nxt = list(range(n + 1))

    def find(x: int) -> int:
        root = x
        while nxt[root] != root:
            root = nxt[root]
        while nxt[x] != root:
            nxt[x], x = root, nxt[x]
        return root

    def visit(v: int) -> None:
        nxt[v] = v + 1

    return find, visit


def strongly_connected_components(g: ChainGraph) -> list[list[int]]:
    """Kosaraju's two passes over the successor ranges, each a walk of one
    _unvisited union-find.

    The forward pass is the graph's cached _forward.  The reverse pass needs
    the unassigned u with lo[u] <= v < hi[u].  In every graph chain_graph
    builds, both ends are non-decreasing in f(p_i), so in the order by
    (lo, hi) hi ascends too, and those u are one run by[a:b]: a is the first
    position whose hi exceeds v, b the first whose lo does.  The union-find
    over positions hands out each node once (Sharir 1981 has the two-pass
    method), and no reverse edge list is built.  A graph whose ranges do not
    ascend together raises ValueError before either pass.
    """
    n = len(g)
    lo, hi = g._bounds
    by = np.lexsort((hi, lo))
    if (np.diff(hi[by]) < 0).any():
        raise ValueError("successor ranges do not ascend together")
    order = g._forward[0]
    nodes = np.arange(n)
    pos = np.empty(n, dtype=np.intp)
    pos[by] = nodes
    # memoryviews read the arrays as Python ints without copying them.
    first = memoryview(np.searchsorted(hi[by], nodes, "right"))
    stop = memoryview(np.searchsorted(lo[by], nodes, "right"))
    pos, by = memoryview(pos), memoryview(by)
    find, visit = _unvisited(n)
    comps: list[list[int]] = []
    for root in reversed(order):
        k = pos[root]
        if find(k) != k:
            continue
        visit(k)
        comp = [root]
        for v in comp:      # comp grows while it is walked
            k = find(first[v])
            while k < stop[v]:
                visit(k)
                comp.append(by[k])
                k = find(k)
        comps.append(comp)
    return comps


def chain_transitive_check(g: ChainGraph) -> bool:
    return len(g.components) == 1


def chain_period(g: ChainGraph) -> int | None:
    """gcd of cycle lengths of a strongly connected graph (None otherwise);
    see ChainGraph.period."""
    return g.period


def chain_mixing_check(g: ChainGraph) -> bool:
    return chain_transitive_check(g) and chain_period(g) == 1


def chain_recurrent_nodes(g: ChainGraph) -> tuple[int, ...]:
    """Nodes lying on some cycle: SCC of size > 1, or a self-loop."""
    out = []
    for comp in g.components:
        if len(comp) > 1:
            out.extend(comp)
        elif comp[0] in g.succ[comp[0]]:
            out.append(comp[0])
    return tuple(sorted(out))
