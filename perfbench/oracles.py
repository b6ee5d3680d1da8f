"""Reference computations written apart from chaoskit.

Each oracle recomputes one kind of output from the definitions in the
chaoskit docstrings, with naive algorithms and without importing the module
whose output it checks:

  FamilyOracle       the set-family verdicts of setfam.classify
  PLOracle           exact images of intervals under a piecewise-linear map,
                     hitting sets member by member, fixed points of powers
  spacing_gap_set    u 0^s v membership by checking every pairwise distance
  chain_expectation  chain graph edges from np.searchsorted, verdicts from
                     scipy.sparse.csgraph and networkx
  probe_expectation  pseudo-orbits, C x L hit masks and best tracers in numpy
  sturmian_prefix    the golden rotation coding, by exact Fraction arithmetic

Only numpy is imported at module level; scipy and networkx are imported by
the functions that need them, after the timed passes have ended.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

FLOAT_SLACK = 2.0 ** -40   # the slack the binary64 engine documents
JUMP_FRACTION = 0.9        # pseudo-orbit jumps are capped at 0.9 * delta


# ---------------------------------------------------------------------------
# Set families.

@dataclass(frozen=True)
class Verdict:
    max_gap: int | None
    longest_block: int
    cofinite_head: int
    syndetic: bool
    thick: bool
    thickly_syndetic: bool
    piecewise_syndetic: bool
    cofinite: bool
    lower_density: Fraction
    upper_density: Fraction

    def tags(self) -> tuple[str, ...]:
        names = ("syndetic", "thick", "thickly_syndetic", "piecewise_syndetic",
                 "cofinite")
        return tuple(n for n in names if getattr(self, n))


def _gaps(members: list[int], horizon: int, strict: bool) -> list[int]:
    gaps = [members[0]] + [b - a for a, b in zip(members, members[1:])]
    if strict:
        gaps.append(horizon - members[-1])
    return gaps


def _runs(members: list[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive members as (first, last)."""
    runs: list[tuple[int, int]] = []
    for m in members:
        if runs and m == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], m)
        else:
            runs.append((m, m))
    return runs


def classify(horizon: int, members, gap: int, block: int, cofinite_head: int,
             burnin: int, strict: bool = False) -> Verdict:
    """Family verdicts of A = members on [0, horizon), from the definitions."""
    members = sorted(members)
    inside = set(members)
    if not members:
        return Verdict(None, 0, horizon, False, False, False, False, False,
                       Fraction(0), Fraction(0))
    max_gap = max(_gaps(members, horizon, strict))
    longest = max(b - a + 1 for a, b in _runs(members))
    head = horizon
    while head > 0 and head - 1 in inside:
        head -= 1
    # Thickly syndetic: for every n <= block, the n-block starts are syndetic.
    thickly = True
    for n in range(1, block + 1):
        width = horizon - n + 1
        starts = [i for i in range(max(width, 0))
                  if all(i + t in inside for t in range(n))]
        if not starts or max(_gaps(starts, width, strict)) > gap:
            thickly = False
            break
    # Piecewise syndetic: thick, syndetic over a window of length >= block, or
    # a gap-linked stretch spanning >= block.
    span = 0
    first = prev = None
    for m in members:
        if prev is None or m - prev > gap:
            first = m
        span = max(span, m - first + 1)
        prev = m
    syndetic = max_gap <= gap
    thick = longest >= block
    piecewise = thick or (syndetic and horizon >= block) or span >= block
    # |A ∩ [0, n)| / n for n in [burnin, horizon].
    densities = []
    count = 0
    for n in range(1, horizon + 1):
        count += n - 1 in inside
        if n >= burnin:
            densities.append(Fraction(count, n))
    return Verdict(max_gap, longest, head, syndetic, thick, thickly, piecewise,
                   head <= cofinite_head, min(densities), max(densities))


@dataclass(frozen=True)
class FamilyOracle:
    """classify() bound to one parameter set."""

    gap: int
    block: int
    cofinite_head: int
    burnin: int
    strict: bool = False

    def __call__(self, horizon: int, members) -> Verdict:
        return classify(horizon, members, self.gap, self.block,
                        self.cofinite_head, self.burnin, self.strict)


def verdict_fields(v) -> tuple:
    """The comparable fields of a chaoskit FamilyVerdict or an oracle Verdict."""
    return (v.max_gap, v.longest_block, v.cofinite_head, v.syndetic, v.thick,
            v.thickly_syndetic, v.piecewise_syndetic, v.cofinite,
            v.lower_density, v.upper_density)


# ---------------------------------------------------------------------------
# Piecewise-linear maps, exact.

BUILTIN_POINTS = {
    # S on [-1, 1]: 2x+2 / -2x / -x; the halves swap.
    "S": ((-1, 0), (Fraction(-1, 2), 1), (0, 0), (1, -1)),
    "tent": ((0, 0), (Fraction(1, 2), 1), (1, 0)),
    # Two invariant halves [0, 1/2] and [1/2, 1], slopes +-3.
    "example211": ((0, 0), (Fraction(1, 6), Fraction(1, 2)), (Fraction(1, 3), 0),
                   (Fraction(2, 3), 1), (Fraction(5, 6), Fraction(1, 2)), (1, 1)),
}


class PLOracle:
    """A continuous piecewise-linear map given by its breakpoints."""

    def __init__(self, points):
        self.xs = [Fraction(x) for x, _ in points]
        self.ys = [Fraction(y) for _, y in points]
        self.lo, self.hi = self.xs[0], self.xs[-1]

    def __call__(self, x: Fraction) -> Fraction:
        for k in range(len(self.xs) - 1):
            x0, x1 = self.xs[k], self.xs[k + 1]
            if x0 <= x <= x1:
                y0, y1 = self.ys[k], self.ys[k + 1]
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise ValueError(f"{x} outside the domain")

    def image(self, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
        """f([a, b]): its extremes sit at a, b or a breakpoint in between."""
        vals = [self(a), self(b)]
        vals += [y for x, y in zip(self.xs, self.ys) if a < x < b]
        return min(vals), max(vals)

    def images(self, u, steps: int) -> list[tuple[Fraction, Fraction]]:
        out = []
        cur = (Fraction(u[0]), Fraction(u[1]))
        for _ in range(steps):
            cur = self.image(*cur)
            out.append(cur)
        return out

    def cells(self, cells: int, margin: Fraction) -> list[tuple[Fraction, Fraction]]:
        width = (self.hi - self.lo) / cells
        return [(self.lo + k * width + margin, self.lo + (k + 1) * width - margin)
                for k in range(cells)]

    def transitivity_set(self, u, v, steps: int) -> list[int]:
        """{n in [1, steps] : f^n(U) meets V}, closed intervals."""
        return [n for n, (a, b) in enumerate(self.images(u, steps), start=1)
                if max(a, v[0]) <= min(b, v[1])]

    def sensitivity_set(self, u, delta: Fraction, steps: int) -> list[int]:
        """{n in [1, steps] : diam f^n(U) > delta}."""
        return [n for n, (a, b) in enumerate(self.images(u, steps), start=1)
                if b - a > delta]

    def iterate(self, x: Fraction, n: int) -> Fraction:
        for _ in range(n):
            x = self(x)
        return x


# ---------------------------------------------------------------------------
# Spacing shifts.

def spacing_accepts(p_members: set[int], p_horizon: int, word: str) -> bool:
    """Every pairwise distance of the word's 1-positions lies in P."""
    ones = [i for i, c in enumerate(word) if c == "1"]
    for i in ones:
        for j in ones:
            if j > i:
                if j - i >= p_horizon:
                    raise ValueError("distance beyond the horizon of P")
                if j - i not in p_members:
                    return False
    return True


def spacing_language(p_members: set[int], p_horizon: int, max_len: int) -> list[str]:
    """Every non-empty accepted word of length <= max_len, sorted."""
    words = []
    for n in range(1, max_len + 1):
        for k in range(2 ** n):
            w = format(k, f"0{n}b")
            if spacing_accepts(p_members, p_horizon, w):
                words.append(w)
    return sorted(words)


def spacing_gap_set(p_members: set[int], p_horizon: int, u: str, v: str,
                    n_max: int) -> list[int]:
    """{s <= n_max : u 0^s v is accepted}, checking the whole glued word."""
    return [s for s in range(n_max + 1)
            if spacing_accepts(p_members, p_horizon, u + "0" * s + v)]


# ---------------------------------------------------------------------------
# Sturmian words.

def sturmian_prefix(alpha: Fraction, length: int) -> str:
    """x_n = 1 iff frac(n * alpha) lies in [1 - alpha, 1)."""
    out = []
    for n in range(length):
        t = n * alpha
        out.append("1" if t - floor(t) >= 1 - alpha else "0")
    return "".join(out)


def occurrences(text: str, w: str) -> list[int]:
    return [i for i in range(len(text) - len(w) + 1) if text[i:i + len(w)] == w]


# ---------------------------------------------------------------------------
# Chain graphs.

def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()


def chain_edges(points: np.ndarray, images: np.ndarray, delta: float):
    """CSR (indptr, indices) of {i -> j : |images[i] - points[j]| < delta + slack}.

    points must ascend, so each successor set is one index range; searchsorted
    brackets it and the bracket ends are then settled with the exact float
    predicate, since x - p < t and x < p + t can round differently.
    """
    tol = delta + FLOAT_SLACK
    n = len(points)

    def close(i, j):
        ok = (j >= 0) & (j < n)
        jj = np.clip(j, 0, n - 1)
        return ok & (np.abs(images[i] - points[jj]) < tol)

    rows = np.arange(n)
    lo = np.searchsorted(points, images - tol, side="left")
    hi = np.searchsorted(points, images + tol, side="right")
    for _ in range(4):
        lo = np.where(close(rows, lo - 1), lo - 1, lo)
        lo = np.where((lo < hi) & ~close(rows, lo), lo + 1, lo)
        hi = np.where(close(rows, hi), hi + 1, hi)
        hi = np.where((hi > lo) & ~close(rows, hi - 1), hi - 1, hi)
    counts = np.maximum(hi - lo, 0)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.repeat(lo - indptr[:-1], counts) + np.arange(indptr[-1])
    return indptr, indices


def chain_expectation(points: np.ndarray, images: np.ndarray, delta: float) -> dict:
    """Chain verdicts on an independently built edge list."""
    import networkx as nx
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, shortest_path

    n = len(points)
    indptr, indices = chain_edges(points, images, delta)
    src = np.repeat(np.arange(n), np.diff(indptr))
    adj = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr),
                     shape=(n, n))
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    sizes = np.bincount(labels)
    self_loop = np.zeros(n, dtype=bool)
    self_loop[src[src == indices]] = True
    recurrent = np.flatnonzero((sizes[labels] > 1) | self_loop)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(src.tolist(), indices.tolist()))
    transitive = n_comp == 1
    aperiodic = transitive and nx.is_aperiodic(graph)
    period = None
    if transitive:
        # gcd of dist(u) + 1 - dist(v) over the edges, BFS levels from node 0.
        dist = shortest_path(adj, unweighted=True, indices=0).astype(np.int64)
        period = int(np.gcd.reduce(np.abs(dist[src] + 1 - dist[indices])))
    return {
        "edges": len(indices),
        "edges_digest": digest(indptr, indices),
        "transitive": transitive,
        "mixing": bool(aperiodic),
        "period": period,
        "recurrent_digest": digest(recurrent),
    }


# ---------------------------------------------------------------------------
# Tracing probes.

class FloatMap:
    """A PL map in binary64, iterated with np.interp like the tracing engine."""

    def __init__(self, points):
        self.xs = np.array([float(Fraction(x)) for x, _ in points])
        self.ys = np.array([float(Fraction(y)) for _, y in points])
        self.lo, self.hi = float(self.xs[0]), float(self.xs[-1])

    def clamp(self, x: float) -> float:
        return min(self.hi, max(self.lo, x))

    def step(self, x: float) -> float:
        return float(np.interp(self.clamp(x), self.xs, self.ys))

    def step_array(self, arr: np.ndarray) -> np.ndarray:
        return np.interp(np.clip(arr, self.lo, self.hi), self.xs, self.ys)


def pseudo_orbit(fmap: FloatMap, delta: float, length: int, scheme: str,
                 seed: str, x0: float | None = None,
                 target: float | None = None) -> np.ndarray:
    """The documented pseudo-orbit generator: jumps capped at 0.9 * delta."""
    rng = random.Random(f"{seed}/{scheme}/{length}")
    cap = JUMP_FRACTION * delta
    pts = np.empty(length)
    pts[0] = fmap.clamp(x0 if x0 is not None else rng.uniform(fmap.lo, fmap.hi))
    for n in range(1, length):
        fx = fmap.step(pts[n - 1])
        if scheme == "uniform":
            jump = rng.uniform(-cap, cap)
        elif scheme == "bounded":
            jump = cap if rng.random() < 0.5 else -cap
        else:
            jump = min(cap, max(-cap, target - fx))
        pts[n] = fmap.clamp(fx + jump)
    return pts


def hit_mask(fmap: FloatMap, orbit: np.ndarray, candidates: np.ndarray,
             eps: float) -> np.ndarray:
    """C x L mask: candidate c's n-th iterate lies within eps of orbit[n]."""
    cur = candidates.astype(float)
    rows = []
    for p in orbit:
        rows.append(np.abs(cur - p) < eps + FLOAT_SLACK)
        cur = fmap.step_array(cur)
    return np.stack(rows, axis=1)


def max_gaps(mask: np.ndarray) -> np.ndarray:
    """Per row: the largest of the leading gap and the successive differences
    of the hit indices; length + 1 for a row without hits."""
    length = mask.shape[1]
    idx = np.arange(length)
    last = np.maximum.accumulate(np.where(mask, idx, -1), axis=1)
    prev = np.concatenate([np.full((len(mask), 1), -1), last[:, :-1]], axis=1)
    # A hit at n after the previous hit at p contributes n - p; the first hit
    # contributes its own index (the leading gap).
    step = np.where(mask, np.where(prev >= 0, idx - prev, idx), 0)
    gaps = step.max(axis=1)
    return np.where(mask.any(axis=1), gaps, length + 1)


def crossing_start(delta: float) -> float:
    """Start of the crossing challenge for the two-halves map."""
    return (0.5 - 1.15 * delta) / 3.0


def probe_expectation(points, *, eps: float, deltas, length: int, trials: int,
                      target: str, n_candidates: int, seed: str,
                      family: FamilyOracle, crossing: bool = False) -> dict:
    """Rows and verdict of a tracing probe, recomputed from the definitions.

    For every row it also checks, on the full hit mask, that no candidate
    beats the chosen one and that the chosen one is the first of the ties.
    """
    fmap = FloatMap(points)
    candidates = np.linspace(fmap.lo, fmap.hi, n_candidates)
    by_cardinality = target not in ("syndetic", "thickly_syndetic")
    rows = []
    ladder = sorted(set(float(d) for d in deltas), reverse=True)
    delta_pass = None
    beaten_everywhere = True
    for delta in ladder:
        orbits = []
        for t in range(trials):
            scheme = ("uniform", "bounded", "adversarial")[t % 3]
            pick = random.Random(f"{seed}/pick/{delta!r}/{t}")
            tgt = pick.uniform(fmap.lo, fmap.hi) if scheme == "adversarial" else None
            orbits.append((f"trial{t}:{scheme}", False, pseudo_orbit(
                fmap, delta, length, scheme, f"{seed}/{delta!r}/{t}", target=tgt)))
        if crossing:
            orbits.append(("crossing", True, pseudo_orbit(
                fmap, delta, length, "adversarial", f"{seed}/{delta!r}/crossing",
                x0=crossing_start(delta), target=1.0)))
        all_ok = True
        challenge_failed = False
        for label, is_challenge, orbit in orbits:
            mask = hit_mask(fmap, orbit, candidates, eps)
            scores = mask.sum(axis=1) if by_cardinality else -max_gaps(mask)
            k = int(np.flatnonzero(scores == scores.max())[0])
            hits = np.flatnonzero(mask[k]).tolist()
            valid = np.abs(fmap.step_array(orbit[:-1]) - orbit[1:]) < delta + FLOAT_SLACK
            verdict = family(length, hits) if hits else None
            if target == "full":
                ok = len(hits) == length
            else:
                ok = verdict is not None and getattr(verdict, target)
            rows.append({
                "delta": delta, "label": label, "valid_count": int(valid.sum()),
                "tracer": float(candidates[k]), "cardinality": len(hits),
                "max_gap": verdict.max_gap if verdict else None,
                "tags": verdict.tags() if verdict else (), "ok": ok,
                "challenge": is_challenge, "best_score": float(scores[k]),
                "first_best": k,
            })
            if not ok:
                all_ok = False
                challenge_failed |= is_challenge
        if all_ok and delta_pass is None:
            delta_pass = delta
        beaten_everywhere &= challenge_failed
    if delta_pass is not None:
        verdict = "pass"
    elif crossing and beaten_everywhere:
        verdict = "falsified"
    else:
        verdict = "undetermined"
    return {"rows": rows, "verdict": verdict, "delta_pass": delta_pass,
            "candidates": candidates}
