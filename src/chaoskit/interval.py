"""Exact piecewise-linear interval maps over the rationals.

Everything in this module is exact: evaluation, images of closed intervals,
composition, periodic points, and the hitting sets

  N_f(U, V)     = {n : f^n(U) ∩ V nonempty}          (transitivity)
  N_f(U, delta) = {n : diam(f^n(U)) > delta}         (sensitivity)

computed on an explicit window [1, N].  Intervals are closed; a boundary-only
intersection counts as a hit unless strict=True.  The sensitivity comparison
is strict (>).

A map stores Python-int numerators over one denominator for its breakpoints
and one for its values, in lowest terms.  The engine compares and combines
rationals by cross-multiplying ints, and carries single points as reduced
(numerator, denominator) pairs; fractions.Fraction appears only at the API
boundary (the xs/ys views, pl_eval, pl_image and the reports).

The breakpoints of f∘g are g's breakpoints merged with the g-preimages of
f's breakpoints.  Each piece of g is monotone, so the preimages on it come
out in order and carry known values, and the composed map is emitted sorted,
evaluating f only at g's breakpoint values.

The periodic points of period n are the fixed points of f^n, solved piece by
piece.  Every point of a periodic orbit is one of them, so each orbit is
walked once under f and its length is the prime period of all its points.

The image of an interval depends on the interval alone, so every image orbit
f^n(U) is eventually periodic: it is iterated to its first repeat only, each
test runs once per distinct image, and the remaining steps of the window
follow by index.  Inside devaney_report the orbits are memoised, so each
cell's orbit is walked once however many hitting sets read it; the memo is
dropped when the report returns or raises.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import lt
from typing import Sequence

from . import setfam
from .budgets import BudgetError, cap, charge
from .setfam import FamilyParams, FamilyVerdict, WindowSet

Interval = tuple[Fraction, Fraction]
Ratio = tuple[int, int]   # (numerator, denominator > 0) in lowest terms


@dataclass(frozen=True)
class PLMap:
    """Continuous piecewise-linear self-map of [xs[0], xs[-1]].

    Breakpoint i is X[i] / dx with value Y[i] / dy; both are brought to
    lowest terms when the map is built, so equal maps have equal fields.
    xs are strictly increasing; linear interpolation between breakpoints.
    Self-map is enforced: all ys must lie inside the domain (extremes of a
    PL map sit at breakpoints).
    """

    X: tuple[int, ...]
    dx: int
    Y: tuple[int, ...]
    dy: int

    def __post_init__(self) -> None:
        X, Y, dx, dy = self.X, self.Y, self.dx, self.dy
        if len(X) < 2 or len(X) != len(Y):
            raise ValueError("need matching xs/ys with at least two breakpoints")
        if dx < 1 or dy < 1:
            raise ValueError("denominators must be positive")
        if not all(map(lt, X, X[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        lo, hi = X[0] * dy, X[-1] * dy
        if not (lo <= min(Y) * dx and max(Y) * dx <= hi):
            y = next(y for y in Y if not lo <= y * dx <= hi)
            raise ValueError(f"value {Fraction(y, dy)} escapes the domain "
                             f"[{Fraction(X[0], dx)}, {Fraction(X[-1], dx)}]")
        gx, gy = gcd(dx, *X), gcd(dy, *Y)
        if gx > 1:
            object.__setattr__(self, "X", tuple(v // gx for v in X))
            object.__setattr__(self, "dx", dx // gx)
        if gy > 1:
            object.__setattr__(self, "Y", tuple(v // gy for v in Y))
            object.__setattr__(self, "dy", dy // gy)

    @cached_property
    def xs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.dx) for x in self.X)

    @cached_property
    def ys(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(y, self.dy) for y in self.Y)

    @property
    def lo(self) -> Fraction:
        return self.xs[0]

    @property
    def hi(self) -> Fraction:
        return self.xs[-1]

    @property
    def domain(self) -> Interval:
        return (self.xs[0], self.xs[-1])


def _over_one(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Numerators over the least common denominator of the values."""
    d = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (d // v.denominator) for v in values), d


def pl_map(points: Sequence[tuple[Fraction | int | str, Fraction | int | str]]) -> PLMap:
    """Build a PLMap from (x, y) pairs; coordinates read as Fractions."""
    X, dx = _over_one([Fraction(x) for x, _ in points])
    Y, dy = _over_one([Fraction(y) for _, y in points])
    return PLMap(X, dx, Y, dy)


def builtin(name: str) -> PLMap:
    """Named maps used throughout the reports and tests.

    S           on [-1, 1]: 2x+2 / -2x / -x; transitive but the two halves
                swap, so same-side returns happen only at even times
    tent        on [0, 1]
    example211  on [0, 1]: slopes ±3; each half [0,1/2] and [1/2,1] is
                mapped onto itself, so periodic points are dense, but no
                orbit crosses the midpoint and a pseudo-orbit that does
                cannot be shadowed
    identity    on [0, 1]
    """
    if name == "S":
        return pl_map([(-1, 0), (Fraction(-1, 2), 1), (0, 0), (1, -1)])
    if name == "tent":
        return pl_map([(0, 0), (Fraction(1, 2), 1), (1, 0)])
    if name == "example211":
        return pl_map([
            (0, 0), (Fraction(1, 6), Fraction(1, 2)), (Fraction(1, 3), 0),
            (Fraction(2, 3), 1), (Fraction(5, 6), Fraction(1, 2)), (1, 1),
        ])
    if name == "identity":
        return pl_map([(0, 0), (1, 1)])
    raise ValueError(f"unknown builtin map {name!r}")


def parse_pl_text(text: str) -> PLMap:
    """Text format: first line domain=a,b then one x:y line per breakpoint."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("domain="):
        raise ValueError("map text must start with domain=a,b")
    try:
        lo_s, hi_s = lines[0].split("=", 1)[1].split(",")
        lo, hi = Fraction(lo_s), Fraction(hi_s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad domain line {lines[0]!r}")
    pts = []
    for ln in lines[1:]:
        try:
            x_s, y_s = ln.split(":")
            pts.append((Fraction(x_s), Fraction(y_s)))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad breakpoint line {ln!r}")
    m = pl_map(pts)
    if (m.lo, m.hi) != (lo, hi):
        raise ValueError("domain line disagrees with breakpoints")
    return m


def _ratio(n: int, d: int) -> Ratio:
    g = gcd(n, d)
    return n // g, d // g


def _ev(m: PLMap, p: int, q: int) -> Ratio:
    """m(p/q) in lowest terms, for p/q (q > 0) inside the domain.

    p/q >= X[i]/dx iff X[i] <= floor(p dx / q), so one bisect over the
    integer numerators finds the piece."""
    X, Y, dx, dy = m.X, m.Y, m.dx, m.dy
    t = p * dx
    i = bisect_right(X, t // q) - 1
    x0 = X[i]
    if x0 * q == t:
        n, d = Y[i], dy
    else:
        w, y0 = X[i + 1] - x0, Y[i]
        n = y0 * q * w + (Y[i + 1] - y0) * (t - x0 * q)
        d = dy * q * w
    return _ratio(n, d)


def _in_domain(m: PLMap, x: Fraction) -> Ratio:
    p, q = x.numerator, x.denominator
    if not m.X[0] * q <= p * m.dx <= m.X[-1] * q:
        raise ValueError(f"{x} outside domain [{m.lo}, {m.hi}]")
    return p, q


def pl_eval(m: PLMap, x: Fraction | int | str) -> Fraction:
    return Fraction(*_ev(m, *_in_domain(m, Fraction(x))))


def pl_image(m: PLMap, iv: Interval) -> Interval:
    """Exact image of a closed subinterval: extremes occur at the endpoints
    or at interior breakpoints."""
    c, d = Fraction(iv[0]), Fraction(iv[1])
    if c > d:
        raise ValueError("empty interval")
    (p, q), (r, s) = _in_domain(m, c), _in_domain(m, d)
    lo, hi = _ev(m, p, q), _ev(m, r, s)
    if lo[0] * hi[1] > hi[0] * lo[1]:
        lo, hi = hi, lo
    # The breakpoints strictly inside (c, d): X[i] > c dx and X[i] < d dx.
    inner = m.Y[bisect_right(m.X, p * m.dx // q):bisect_left(m.X, -(-r * m.dx // s))]
    if inner:
        a, b = min(inner), max(inner)
        if a * lo[1] < lo[0] * m.dy:
            lo = (a, m.dy)
        if b * hi[1] > hi[0] * m.dy:
            hi = (b, m.dy)
    return (Fraction(*lo), Fraction(*hi))


def pl_compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact f∘g (apply g first); domains must agree.

    On each non-flat piece of g the solutions of g(x) = b, b in f.xs, lie
    strictly inside the piece and ascend with b on a rising piece and with -b
    on a falling one.  So the breakpoints come out in order, and their values
    are known without evaluating g: f(g.ys[i]) at g's own breakpoints and
    f.ys[j] where g(x) = f.xs[j].

    The new breakpoints are written over gdx·fdx·L, L the lcm of |ΔY| over
    g's non-flat pieces, and the values over fdy·gdy·M, M the lcm of f's
    piece widths; every term is then an integer."""
    fX, fY, fdx, fdy = f.X, f.Y, f.dx, f.dy
    gX, gY, gdx, gdy = g.X, g.Y, g.dx, g.dy
    if fX[0] * gdx != gX[0] * fdx or fX[-1] * gdx != gX[-1] * fdx:
        raise ValueError("compose needs maps on the same domain")
    limit = cap("breakpoints")
    scale = fdx * lcm(*{abs(b - a) for a, b in zip(gY, gY[1:]) if a != b})
    vden = fdy * gdy * lcm(*(b - a for a, b in zip(fX, fX[1:])))
    inner_ys = [y * (vden // fdy) for y in fY]
    at: dict[int, int] = {}

    def f_at(y: int) -> int:
        """f(y / gdy) as a numerator over vden."""
        v = at.get(y)
        if v is None:
            n, d = _ev(f, y, gdy)
            v = at[y] = n * (vden // d)
        return v

    count = len(gX)
    xs = [gX[0] * scale]
    ys = [f_at(gY[0])]
    for i in range(len(gX) - 1):
        x0, x1 = gX[i], gX[i + 1]
        y0, y1 = gY[i], gY[i + 1]
        if y0 != y1:
            # f.xs[j] lies strictly between y0 and y1 iff fX[j]·gdy does
            # between y0·fdx and y1·fdx.
            a0, a1 = y0 * fdx, y1 * fdx
            if y0 < y1:
                inner = range(bisect_right(fX, a0 // gdy), bisect_left(fX, -(-a1 // gdy)))
            else:
                inner = range(bisect_left(fX, -(-a0 // gdy)) - 1,
                              bisect_right(fX, a1 // gdy) - 1, -1)
            # x = x0 + (b - y0)(x1 - x0)/(y1 - y0), times gdx·fdx·L.
            base, step = x0 * scale, (x1 - x0) * (scale // fdx // (y1 - y0))
            for j in inner:
                xs.append(base + (fX[j] * gdy - a0) * step)
                ys.append(inner_ys[j])
            count += len(inner)
            if count > limit:
                raise BudgetError(f"compose exceeded {limit} breakpoints")
        xs.append(x1 * scale)
        ys.append(f_at(y1))
    return PLMap(tuple(xs), gdx * scale, tuple(ys), vden)


def pl_power(m: PLMap, n: int) -> PLMap:
    if n < 1:
        raise ValueError("power must be >= 1")
    charge("power", n)
    out = m
    for _ in range(n - 1):
        out = pl_compose(m, out)
    return out


# ---------------------------------------------------------------------------
# Periodic points.

@dataclass(frozen=True)
class PeriodicReport:
    points: tuple[tuple[Fraction, int], ...]   # (point, prime period)
    segments: tuple[tuple[Fraction, Fraction], ...]  # slope-1 fixed stretches


def _fixed_of(m: PLMap) -> tuple[list[Ratio], list[tuple[Ratio, Ratio]]]:
    """The isolated fixed points and the merged slope-1 fixed stretches of m,
    ascending, as reduced pairs.

    On piece i the fixed point is (Y0·ΔX − ΔY·X0) / (ΔX·dy − ΔY·dx), which
    lies in [x_i, x_{i+1}]; the slope is 1 iff that denominator is 0.  So the
    points come out in order, a repeat only where two pieces share one."""
    X, Y, dx, dy = m.X, m.Y, m.dx, m.dy
    points: list[Ratio] = []
    segments: list[list[int]] = []      # [X_a, X_b] over dx
    for i in range(len(X) - 1):
        x0, x1, y0 = X[i], X[i + 1], Y[i]
        w, h = x1 - x0, Y[i + 1] - y0
        den = w * dy - h * dx
        if den == 0:
            if y0 * dx == x0 * dy:
                if segments and segments[-1][1] == x0:
                    segments[-1][1] = x1
                else:
                    segments.append([x0, x1])
            continue
        num = y0 * w - h * x0
        if den < 0:
            num, den = -num, -den
        if x0 * den <= num * dx <= x1 * den:
            p = _ratio(num, den)
            if not points or points[-1] != p:
                points.append(p)
    # Points swallowed by a fixed segment are reported once, via the segment.
    if segments:
        kept, k = [], 0
        for n, d in points:
            while k < len(segments) and segments[k][1] * d < n * dx:
                k += 1
            if k == len(segments) or segments[k][0] * d > n * dx:
                kept.append((n, d))
        points = kept
    return points, [(_ratio(a, dx), _ratio(b, dx)) for a, b in segments]


def periodic_points(m: PLMap, period: int) -> PeriodicReport:
    """Exact fixed points of m^period with their prime periods.

    Each orbit is walked once under m until it returns, at most period steps,
    and its length is the prime period of every point on it.  The orbit of a
    listed point is listed throughout: an orbit that met a slope-1 fixed
    segment of m^period would lie in such segments, as m is one-to-one on a
    segment and m^period is the identity on its image."""
    power = pl_power(m, period)
    points, segments = _fixed_of(power)
    prime: dict[Ratio, int] = {}
    for p in points:
        if p in prime:
            continue
        orbit = [p]
        x = _ev(m, *p)
        while x != p:
            orbit.append(x)
            x = _ev(m, *x)
        prime.update(dict.fromkeys(orbit, len(orbit)))
    return PeriodicReport(points=tuple((Fraction(*p), prime[p]) for p in points),
                          segments=tuple((Fraction(*a), Fraction(*b)) for a, b in segments))


@dataclass(frozen=True)
class DensityReport:
    epsilon: Fraction
    n_max: int
    covered_fraction: Fraction
    cells: int
    uncovered: tuple[Interval, ...]
    period_reached: int  # coverage completed at this period (or n_max)


def density_cells(m: PLMap, epsilon: Fraction, n_max: int) -> int:
    """ceil(width / epsilon), the number of epsilon-cells of m's domain,
    charged to enum_nodes before any cell is allocated; the largest period
    searched, n_max >= 1, is charged to power."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    lo, hi = m.domain
    cells = int(-((lo - hi) // epsilon))
    charge("enum_nodes", cells)
    charge("power", n_max)
    return cells


def periodic_density_report(m: PLMap, epsilon: Fraction | str,
                            n_max: int) -> DensityReport:
    """Fraction of epsilon-cells containing a periodic point of period <= n_max.

    Periods are accumulated in increasing order with early exit on full
    coverage, which keeps the composed maps small for expanding fixtures.
    """
    epsilon = Fraction(epsilon)
    cells = density_cells(m, epsilon, n_max)
    lo, hi = m.domain
    covered = [False] * cells
    x0, dx = m.X[0], m.dx
    en, ed = epsilon.numerator, epsilon.denominator

    def cell(x: Ratio) -> int:
        """floor((x - lo) / epsilon)."""
        n, d = x
        return (n * dx - x0 * d) * ed // (d * dx * en)

    def cell_range(a: Ratio, b: Ratio) -> range:
        return range(max(0, cell(a)), min(cells - 1, cell(b)) + 1)

    power = None
    reached = 0
    for n in range(1, n_max + 1):
        power = m if power is None else pl_compose(m, power)
        pts, segs = _fixed_of(power)
        for p in pts:
            for c in cell_range(p, p):
                covered[c] = True
        for a, b in segs:
            for c in cell_range(a, b):
                covered[c] = True
        reached = n
        if all(covered):
            break
    uncovered = []
    i = 0
    while i < cells:
        if not covered[i]:
            j = i
            while j + 1 < cells and not covered[j + 1]:
                j += 1
            uncovered.append((lo + i * epsilon, min(hi, lo + (j + 1) * epsilon)))
            i = j + 1
        i += 1
    return DensityReport(
        epsilon=epsilon, n_max=n_max,
        covered_fraction=Fraction(sum(covered), cells),
        cells=cells, uncovered=tuple(uncovered), period_reached=reached,
    )


# ---------------------------------------------------------------------------
# Hitting sets on a window.

@dataclass(frozen=True)
class HittingSet:
    window: WindowSet


Orbit = tuple[tuple[Interval, ...], tuple[int, ...]]

# The orbits walked so far by the devaney_report in progress, keyed by
# (map, U, N); unset outside a report, so no orbit outlives its call.
_orbits: ContextVar[dict[tuple[PLMap, Interval, int], Orbit]] = ContextVar("_orbits")


def _orbit(m: PLMap, u: Interval, n_max: int) -> Orbit:
    """The distinct images f^1(U), f^2(U), ... and, for each step n in
    [1, N], the index of f^n(U) among them.

    pl_image is a function of the interval alone, so at the first repeat
    f^n(U) = f^k(U) the orbit cycles with period n - k and the remaining
    steps are filled by index.  The budget is charged for all N steps on
    every call.  Inside devaney_report the result is memoised for the rest
    of the report, so the hitting sets of one cell share one walk; callers
    share it, so it is returned as tuples.
    """
    charge("iter_steps", n_max)
    cur = (Fraction(u[0]), Fraction(u[1]))
    memo = _orbits.get({})          # a throwaway dict outside a report
    key = (m, cur, n_max)
    orbit = memo.get(key)
    if orbit is not None:
        return orbit
    images: list[Interval] = []
    first: dict[Interval, int] = {}
    while len(images) < n_max:
        cur = pl_image(m, cur)
        k = first.setdefault(cur, len(images))
        if k < len(images):
            break
        images.append(cur)
    n = len(images)
    index = [t if t < n else k + (t - k) % (n - k) for t in range(n_max)]
    orbit = memo[key] = (tuple(images), tuple(index))
    return orbit


def _hits(flags: list[bool], index: tuple[int, ...], n_max: int) -> HittingSet:
    """The steps whose image is flagged, on the window [0, N]."""
    return HittingSet(WindowSet._trusted(n_max + 1, tuple(
        n for n, k in enumerate(index, start=1) if flags[k])))


def sensitivity_hitting_set(m: PLMap, u: Interval, delta: Fraction | str,
                            n_max: int) -> HittingSet:
    """{n in [1, N] : diam(f^n(U)) > delta}, exact, strict comparison."""
    delta = Fraction(delta)
    images, index = _orbit(m, u, n_max)
    return _hits([b - a > delta for a, b in images], index, n_max)


def intervals_meet(a: Interval, b: Interval, strict: bool = False) -> bool:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return lo < hi if strict else lo <= hi


def transitivity_hitting_set(m: PLMap, u: Interval, v: Interval, n_max: int,
                             strict: bool = False) -> HittingSet:
    """{n in [1, N] : f^n(U) meets V}; boundary touches count unless strict."""
    v = (Fraction(v[0]), Fraction(v[1]))
    images, index = _orbit(m, u, n_max)
    return _hits([intervals_meet(img, v, strict) for img in images], index, n_max)


def leo_check(m: PLMap, u: Interval, n_max: int) -> int | None:
    """Least n* with f^n(U) equal to the whole domain for all n in [n*, N];
    None when no such stabilization is observed on the window."""
    full = m.domain
    images, index = _orbit(m, u, n_max)
    bad = [img != full for img in images]
    last_bad = max((n for n, k in enumerate(index, start=1) if bad[k]), default=0)
    if last_bad == n_max:
        return None
    return last_bad + 1


# ---------------------------------------------------------------------------
# Whole-map survey: sensitivity + transitivity over an interval grid, dense
# periodic points, and the per-family chaos verdicts.

@dataclass(frozen=True)
class SurveyParams:
    cells: int = 10
    margin: Fraction = Fraction(1, 100)
    delta: Fraction = Fraction(1, 2)
    n_steps: int = 64
    family: FamilyParams = FamilyParams(gap=16, block=8, cofinite_head=16, burnin=8)
    density_epsilon: Fraction = Fraction(1, 16)
    density_n_max: int = 10

    def grid(self, m: PLMap) -> list[Interval]:
        """The cells, each shrunk by the margin, after all of devaney_report's
        checks: density_cells, the cells**2 transitivity sets charged to
        enum_nodes, the margin, and the hitting-set horizon n_steps + 1."""
        density_cells(m, self.density_epsilon, self.density_n_max)
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")
        charge("enum_nodes", self.cells ** 2)
        lo, hi = m.domain
        width = (hi - lo) / self.cells
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        if 2 * self.margin >= width:
            raise ValueError("margin too large for the cell width")
        self.family.check_horizon(self.n_steps + 1)
        return [(lo + k * width + self.margin, lo + (k + 1) * width - self.margin)
                for k in range(self.cells)]


@dataclass(frozen=True)
class ChaosSurvey:
    map_name: str
    params: SurveyParams
    fixed_points: tuple[Fraction, ...]
    fixed_segments: tuple[Interval, ...]
    sensitivity: tuple[tuple[Interval, FamilyVerdict], ...]
    transitivity: tuple[tuple[int, int, FamilyVerdict], ...]
    density: DensityReport
    verdicts: dict[str, bool]      # family name -> chaos triple passes
    anomalies: tuple[str, ...]


def devaney_report(m: PLMap, params: SurveyParams | None = None,
                   map_name: str = "") -> ChaosSurvey:
    """Window-scoped chaos survey: for each family F, the verdict is pass iff
    every transitivity set and every sensitivity set over the grid lies in F
    and the periodic-point cells are fully covered.

    The consistency flag mirrors the implication "F-transitive + dense
    periodic points => F-sensitive": an anomaly is recorded (never raised)
    when transitivity and density pass but sensitivity fails.

    Each cell's sensitivity set and each pair's transitivity set is built by
    its own hitting-set call, but the report opens an orbit memo for its
    duration, so every cell's image orbit is walked once and shared by its
    sensitivity set and its row of transitivity sets (cells walks in place
    of cells + cells**2).  Each distinct set is classified once per call:
    the 110 sets of a 10-cell survey hold only a few distinct ones.  Both
    memos are dropped when the report returns or raises.
    """
    params = params or SurveyParams()
    grid = params.grid(m)       # every input check, before any work
    verdict = setfam.classifier(params.family)
    density = periodic_density_report(m, params.density_epsilon, params.density_n_max)
    token = _orbits.set({})
    try:
        sens = []
        for u in grid:
            hs = sensitivity_hitting_set(m, u, params.delta, params.n_steps)
            sens.append((u, verdict(hs.window)))
        trans = []
        for i, u in enumerate(grid):
            for j, v in enumerate(grid):
                hs = transitivity_hitting_set(m, u, v, params.n_steps)
                trans.append((i, j, verdict(hs.window)))
    finally:
        _orbits.reset(token)
    density_pass = density.covered_fraction == 1
    fixed_pts, fixed_segs = _fixed_of(m)
    verdicts = {}
    anomalies = []
    for fam, flag in setfam.FAMILIES.items():
        all_trans = all(getattr(v, flag) for _, _, v in trans)
        all_sens = all(getattr(v, flag) for _, v in sens)
        verdicts[fam] = all_trans and all_sens and density_pass
        if all_trans and density_pass and not all_sens:
            anomalies.append(
                f"{fam}: transitivity and dense periodicity hold on the window "
                f"but sensitivity does not")
    return ChaosSurvey(
        map_name=map_name, params=params,
        fixed_points=tuple(Fraction(*p) for p in fixed_pts),
        fixed_segments=tuple((Fraction(*a), Fraction(*b)) for a, b in fixed_segs),
        sensitivity=tuple(sens), transitivity=tuple(trans),
        density=density, verdicts=verdicts, anomalies=tuple(anomalies),
    )
