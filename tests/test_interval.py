"""Exact piecewise-linear map fixtures.

The engine is exact, so every expected value is computed by an independent
route (iterated pointwise evaluation vs symbolic composition, or the
Fraction engine kept below as the integer engine's oracle) or frozen by hand.
"""

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit import budgets, interval, setfam
from chaoskit.budgets import BudgetError, cap, charge
from chaoskit.interval import (
    SurveyParams, builtin, devaney_report, leo_check, parse_pl_text,
    periodic_density_report, periodic_points, pl_compose, pl_eval, pl_image,
    pl_map, pl_power, sensitivity_hitting_set, transitivity_hitting_set,
)

from test_setfam import dilate

S = builtin("S")
TENT = builtin("tent")
EX = builtin("example211")
IDENT = builtin("identity")


def pl_iterate(m, x, n):
    """m applied n times to x, one pl_eval per step."""
    x = F(x)
    for _ in range(n):
        x = pl_eval(m, x)
    return x


# ---------------------------------------------------------------------------
# Construction, evaluation, serialization.

def test_builtins_present():
    assert [builtin(n).domain for n in ("S", "tent", "example211", "identity")] \
        == [(-1, 1), (0, 1), (0, 1), (0, 1)]
    with pytest.raises(ValueError):
        builtin("unknown")


def test_eval_frozen():
    assert pl_eval(S, F(-3, 4)) == F(1, 2)
    assert pl_eval(S, F(-1, 4)) == F(1, 2)
    assert pl_eval(S, F(1, 2)) == F(-1, 2)
    assert pl_eval(S, 0) == 0
    assert pl_eval(TENT, F(1, 3)) == F(2, 3)
    assert pl_eval(TENT, F(3, 4)) == F(1, 2)
    assert pl_eval(EX, F(1, 12)) == F(1, 4)
    assert pl_eval(EX, F(1, 4)) == F(1, 4)
    with pytest.raises(ValueError):
        pl_eval(TENT, 2)


def test_validation():
    with pytest.raises(ValueError):
        pl_map([(0, 0)])                    # need two breakpoints
    with pytest.raises(ValueError):
        pl_map([(0, 0), (0, 1)])            # xs must strictly increase
    with pytest.raises(ValueError):
        pl_map([(0, 0), (1, 2)])            # value escapes the domain


def test_parse_format_round_trip():
    assert parse_pl_text("domain=-1,1\n-1:0\n-1/2:1\n0:0\n1:-1\n") == S
    assert parse_pl_text("domain=0,1\n0:0\n1/6:1/2\n1/3:0\n2/3:1\n"
                         "5/6:1/2\n1:1") == EX
    with pytest.raises(ValueError):
        parse_pl_text("domain=0,1\n0:0\n1:1/2\ndomain=0,2\n")
    with pytest.raises(ValueError):
        parse_pl_text("0:0\n1:1\n")


# ---------------------------------------------------------------------------
# Composition against pointwise iteration; the square of S is the tent map.

@given(st.fractions(min_value=-1, max_value=1), st.integers(1, 5))
@settings(max_examples=80)
def test_power_matches_iteration(x, n):
    assert pl_eval(pl_power(S, n), x) == pl_iterate(S, x, n)


def test_square_of_half_swap_is_tent():
    two = pl_power(S, 2)
    for k in range(0, 33):
        x = F(k, 32)
        assert pl_eval(two, x) == pl_eval(TENT, x)
        # Negative side: one step lands on T(x), then the pattern repeats,
        # so odd iterates advance the tent orbit and even ones negate it.
        assert pl_iterate(S, -x, 3) == pl_iterate(TENT, x, 2)
        assert pl_iterate(S, -x, 4) == -pl_iterate(TENT, x, 2)


def test_tent_square_breakpoints():
    two = pl_power(TENT, 2)
    assert two.xs == (0, F(1, 4), F(1, 2), F(3, 4), 1)
    assert two.ys == (0, 1, 0, 1, 0)


def test_compose_order():
    # f(g(x)) with g = tent, f = example211 at x = 1/3: g -> 2/3, f -> 1.
    m = pl_compose(EX, TENT)
    assert pl_eval(m, F(1, 3)) == 1


def test_power_budget():
    with pytest.raises(BudgetError):
        pl_power(TENT, 13)


# ---------------------------------------------------------------------------
# Periodic points.

def test_fixed_points_frozen():
    assert periodic_points(S, 1).points == ((0, 1),)
    assert periodic_points(TENT, 1).points == ((0, 1), (F(2, 3), 1))
    assert periodic_points(EX, 1).points == (
        (0, 1), (F(1, 4), 1), (F(1, 2), 1), (F(3, 4), 1), (1, 1))
    assert periodic_points(EX, 1).segments == ()


def test_period_two_frozen():
    assert periodic_points(TENT, 2).points == (
        (0, 1), (F(2, 5), 2), (F(2, 3), 1), (F(4, 5), 2))
    assert periodic_points(S, 2).points == ((F(-2, 3), 2), (0, 1), (F(2, 3), 2))


def test_identity_segment():
    rep = periodic_points(IDENT, 1)
    assert rep.points == ()
    assert rep.segments == (((0, 1)),)


@given(st.integers(1, 6))
def test_periodic_points_really_periodic(n):
    for x, prime in periodic_points(TENT, n).points:
        assert prime == min(k for k in range(1, n + 1)
                            if pl_iterate(TENT, x, k) == x)


# ---------------------------------------------------------------------------
# Images, exactness of the interval propagation.

def test_image_frozen():
    assert pl_image(TENT, (F(1, 10), F(1, 5))) == (F(1, 5), F(2, 5))
    assert pl_image(TENT, (F(2, 5), F(3, 5))) == (F(4, 5), 1)
    assert pl_image(S, (F(-1, 2), F(1, 2))) == (F(-1, 2), 1)


@given(st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1), st.integers(1, 6))
@settings(max_examples=60)
def test_image_contains_sampled_orbit(a, b, n):
    lo, hi = min(a, b), max(a, b)
    m = pl_power(TENT, n)
    img = pl_image(m, (lo, hi))
    for t in range(5):
        x = lo + (hi - lo) * F(t, 4)
        assert img[0] <= pl_eval(m, x) <= img[1]


def test_leo_frozen():
    assert leo_check(TENT, (F(3, 10), F(7, 20)), 64) == 5
    assert leo_check(IDENT, (F(1, 4), F(1, 2)), 16) is None
    # example211 keeps the left half invariant, so no expansion to [0,1]:
    assert leo_check(EX, (F(1, 10), F(1, 5)), 32) is None
    # S grows a symmetric seed by a factor of two every other step, so the
    # interval [-0.1, 0.1] first covers [-1, 1] at step 8.
    assert leo_check(S, (F(-1, 10), F(1, 10)), 32) == 8


# ---------------------------------------------------------------------------
# Hitting sets: sensitivity, transitivity, the parity law of S.

def test_sensitivity_frozen():
    hs = sensitivity_hitting_set(S, (F(1, 10), F(2, 5)), F(1, 2), 64)
    assert hs.window.members == tuple(range(2, 65))


def test_transitivity_parity_frozen():
    u = (F(1, 10), F(2, 5))
    same = transitivity_hitting_set(S, u, u, 64)
    assert same.window.members == tuple(range(2, 65, 2))
    opposite = transitivity_hitting_set(S, u, (F(-2, 5), F(-1, 10)), 64)
    assert opposite.window.members == tuple(range(1, 64, 2))


def test_transitivity_tent_frozen():
    u = (F(1, 10), F(1, 5))
    hs = transitivity_hitting_set(TENT, u, u, 64)
    assert hs.window.members == (1,) + tuple(range(4, 65))


def test_transitivity_strict_vs_touching():
    # Image of [0, 1/2] at step 1 is [0, 1]; it touches {1} only at the edge.
    u, v = (F(0), F(1, 2)), (F(1), F(1))
    loose = transitivity_hitting_set(TENT, u, v, 4)
    strict = transitivity_hitting_set(TENT, u, v, 4, strict=True)
    assert 1 in loose.window
    assert 1 not in strict.window


# ---------------------------------------------------------------------------
# Image orbits: the cycle-detecting orbit against the step-by-step loop.

def stepwise_images(m, u, n_max):
    """f^1(U), ..., f^N(U), one pl_image call per step."""
    cur, out = (F(u[0]), F(u[1])), []
    for _ in range(n_max):
        cur = pl_image(m, cur)
        out.append(cur)
    return out


def stepwise_leo(m, u, n_max):
    bad = [n for n, img in enumerate(stepwise_images(m, u, n_max), start=1)
           if img != m.domain]
    last_bad = bad[-1] if bad else 0
    return None if last_bad == n_max else last_bad + 1


def random_pl_map(rng):
    inner = sorted({F(rng.randint(1, 11), 12) for _ in range(rng.randint(0, 4))})
    xs = [F(0)] + inner + [F(1)]
    return pl_map([(x, F(rng.randint(0, 10), 10)) for x in xs])


def random_interval(rng, m):
    a, b = sorted(m.lo + (m.hi - m.lo) * F(rng.randint(0, 24), 24) for _ in range(2))
    return (a, b)


# f(x) = x / 2: the image of [a, b] is [a/2, b/2], so no orbit repeats.
HALVING = pl_map([(0, 0), (1, F(1, 2))])


def orbit_cases():
    rng = random.Random(8)
    for m in (S, TENT, EX, IDENT, HALVING):
        grid = SurveyParams(cells=5).grid(m)
        for u in grid:
            for v in grid:
                yield m, u, v, 64
    for _ in range(60):
        m = random_pl_map(rng)
        yield m, random_interval(rng, m), random_interval(rng, m), 40


def test_orbit_tiles_the_stepwise_images():
    repeats = 0
    for m, u, _, n_max in orbit_cases():
        images, index = interval._orbit(m, u, n_max)
        assert len(set(images)) == len(images)
        assert [images[k] for k in index] == stepwise_images(m, u, n_max)
        repeats += len(images) < n_max
    assert 0 < repeats < len(list(orbit_cases()))   # both kinds are covered


def test_hitting_sets_and_leo_match_stepwise_loop():
    for m, u, v, n_max in orbit_cases():
        images = stepwise_images(m, u, n_max)
        for strict in (False, True):
            want = tuple(n for n, img in enumerate(images, start=1)
                         if interval.intervals_meet(img, v, strict))
            got = transitivity_hitting_set(m, u, v, n_max, strict).window
            assert got == setfam.WindowSet(n_max + 1, want)
        for delta in (F(0), F(1, 4), (m.hi - m.lo) / 2):
            want = tuple(n for n, (a, b) in enumerate(images, start=1) if b - a > delta)
            got = sensitivity_hitting_set(m, u, delta, n_max).window
            assert got == setfam.WindowSet(n_max + 1, want)
        assert leo_check(m, u, n_max) == stepwise_leo(m, u, n_max)


def test_repeating_orbit_charges_the_whole_window(monkeypatch):
    """identity repeats at step 1, yet the step budget is charged for all
    N steps, so the cap is hit at the same N as with no repeat."""
    u = (F(1, 4), F(1, 2))
    charged = []
    monkeypatch.setattr(interval, "charge",
                        lambda name, amount: charged.append((name, amount)))
    transitivity_hitting_set(IDENT, u, u, 100)
    sensitivity_hitting_set(IDENT, u, F(1, 8), 100)
    leo_check(IDENT, u, 100)
    assert charged == [("iter_steps", 100)] * 3
    monkeypatch.undo()
    n_cap = cap("iter_steps")
    assert transitivity_hitting_set(IDENT, u, u, n_cap).window.members \
        == tuple(range(1, n_cap + 1))
    for call in (lambda: transitivity_hitting_set(IDENT, u, u, n_cap + 1),
                 lambda: sensitivity_hitting_set(IDENT, u, F(1, 8), n_cap + 1),
                 lambda: leo_check(IDENT, u, n_cap + 1)):
        with pytest.raises(BudgetError):
            call()


def test_dilation_embedding():
    import random
    rng = random.Random("dilate")
    for m, dom in ((S, (-1, 1)), (TENT, (0, 1))):
        for n in (2, 3, 4):
            mn = pl_power(m, n)
            for _ in range(10):
                a = F(rng.randrange(0, 200), 200) * (dom[1] - dom[0]) + dom[0]
                b = a + F(1, 20)
                if b > dom[1]:
                    a, b = dom[1] - F(1, 20), dom[1]
                fast = transitivity_hitting_set(mn, (a, b), (a, b), 16)
                slow = transitivity_hitting_set(m, (a, b), (a, b), 16 * n)
                dilated = dilate(fast.window, n)
                assert set(dilated.members) <= set(slow.window.members)


def test_backward_covering_slope_two():
    # With slope 2 everywhere, a delta-spread at step m forces a spread of
    # at least delta / 2 ** (n-1) for the n-th power map at step m // n.
    u = (F(1, 10), F(2, 5))
    big = sensitivity_hitting_set(TENT, u, F(1, 2), 64)
    small = sensitivity_hitting_set(pl_power(TENT, 2), u, F(1, 4), 32)
    for m in big.window.members:
        if m >= 2:
            assert m // 2 in small.window


# ---------------------------------------------------------------------------
# The Fraction engine that the integer engine replaced, kept as its oracle.
# It reads only .xs and .ys, so it runs on PLMaps as well as on its own
# FracMaps.

@dataclass(frozen=True)
class FracMap:
    xs: tuple
    ys: tuple

    @property
    def lo(self):
        return self.xs[0]

    @property
    def hi(self):
        return self.xs[-1]

    @property
    def domain(self):
        return (self.xs[0], self.xs[-1])


def frac_eval(m, x):
    x = F(x)
    if not m.lo <= x <= m.hi:
        raise ValueError(f"{x} outside domain [{m.lo}, {m.hi}]")
    i = bisect_right(m.xs, x) - 1
    if i == len(m.xs) - 1:
        return m.ys[-1]
    x0, x1 = m.xs[i], m.xs[i + 1]
    y0, y1 = m.ys[i], m.ys[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def frac_image(m, iv):
    c, d = F(iv[0]), F(iv[1])
    if c > d:
        raise ValueError("empty interval")
    vals = [frac_eval(m, c), frac_eval(m, d)]
    i = bisect_right(m.xs, c)
    while i < len(m.xs) and m.xs[i] < d:
        vals.append(m.ys[i])
        i += 1
    return (min(vals), max(vals))


def frac_compose(f, g):
    if f.domain != g.domain:
        raise ValueError("compose needs maps on the same domain")
    limit = cap("breakpoints")
    count = len(g.xs)
    xs = [g.xs[0]]
    ys = [frac_eval(f, g.ys[0])]
    for i in range(len(g.xs) - 1):
        x0, x1 = g.xs[i], g.xs[i + 1]
        y0, y1 = g.ys[i], g.ys[i + 1]
        if y0 != y1:
            if y0 < y1:
                inner = range(bisect_right(f.xs, y0), bisect_left(f.xs, y1))
            else:
                inner = range(bisect_left(f.xs, y0) - 1, bisect_right(f.xs, y1) - 1, -1)
            scale = (x1 - x0) / (y1 - y0)
            for j in inner:
                xs.append(x0 + (f.xs[j] - y0) * scale)
                ys.append(f.ys[j])
            count += len(inner)
            if count > limit:
                raise BudgetError(f"compose exceeded {limit} breakpoints")
        xs.append(x1)
        ys.append(frac_eval(f, y1))
    return FracMap(tuple(xs), tuple(ys))


def frac_power(m, n):
    if n < 1:
        raise ValueError("power must be >= 1")
    charge("power", n)
    out = m
    for _ in range(n - 1):
        out = frac_compose(m, out)
    return out


def frac_fixed_of(m):
    points = set()
    segments = []
    for i in range(len(m.xs) - 1):
        x0, x1 = m.xs[i], m.xs[i + 1]
        y0, y1 = m.ys[i], m.ys[i + 1]
        slope = (y1 - y0) / (x1 - x0)
        if slope == 1:
            if y0 == x0:
                segments.append((x0, x1))
            continue
        x_star = (y0 - slope * x0) / (1 - slope)
        if x0 <= x_star <= x1:
            points.add(x_star)
    points = {p for p in points if not any(a <= p <= b for a, b in segments)}
    merged = []
    for a, b in sorted(segments):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return sorted(points), merged


def frac_periodic_points(m, period):
    points, segments = frac_fixed_of(frac_power(m, period))
    prime = {}
    for p in points:
        if p in prime:
            continue
        orbit = [p]
        x = frac_eval(m, p)
        while x != p:
            orbit.append(x)
            x = frac_eval(m, x)
        prime.update(dict.fromkeys(orbit, len(orbit)))
    return interval.PeriodicReport(points=tuple((p, prime[p]) for p in points),
                                   segments=tuple(segments))


def frac_density_report(m, epsilon, n_max):
    epsilon = F(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    charge("power", n_max)
    lo, hi = m.domain
    cells = int(-((lo - hi) // epsilon))
    covered = [False] * cells

    def cell_range(a, b):
        first = max(0, int((a - lo) // epsilon))
        last = min(cells - 1, int((b - lo) // epsilon))
        return range(first, last + 1)

    power = None
    reached = 0
    for n in range(1, n_max + 1):
        power = m if power is None else frac_compose(m, power)
        pts, segs = frac_fixed_of(power)
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
    return interval.DensityReport(
        epsilon=epsilon, n_max=n_max, covered_fraction=F(sum(covered), cells),
        cells=cells, uncovered=tuple(uncovered), period_reached=reached)


def fixed_as_fractions(fixed):
    """_fixed_of's reduced pairs as Fractions, in the oracle's shape."""
    points, segments = fixed
    return ([F(*p) for p in points], [(F(*a), F(*b)) for a, b in segments])


def raised(call, *args):
    """The type and message of the BudgetError or ValueError call raises, or
    its result; a map result as its breakpoints and values."""
    try:
        out = call(*args)
    except (BudgetError, ValueError) as err:
        return (type(err), str(err))
    return (out.xs, out.ys) if hasattr(out, "xs") else out


def mixed_map(rng, lo, hi):
    """A PL map on [lo, hi] whose breakpoints and values have denominators
    from 1 to 12, with flat pieces, stretches on the diagonal and values far
    apart, so |ΔY| > 1 over the common denominator."""
    def point():
        d = rng.randint(1, 12)
        return lo + (hi - lo) * F(rng.randint(0, d), d)

    xs = [lo, *sorted({point() for _ in range(rng.randint(0, 5))} - {lo, hi}), hi]
    ys = []
    for x in xs:
        kind = rng.choice(("free", "free", "flat", "diagonal"))
        ys.append(ys[-1] if kind == "flat" and ys else x if kind == "diagonal" else point())
    return pl_map(list(zip(xs, ys)))


DOMAINS = [(F(0), F(1)), (F(-1), F(1)), (F(1, 3), F(2))]


def mixed_pair(rng):
    lo, hi = rng.choice(DOMAINS)
    return mixed_map(rng, lo, hi), mixed_map(rng, lo, hi)


def test_mixed_maps_cover_every_feature():
    """The maps the engine is checked on below have mixed denominators, flat
    pieces, slope-1 fixed stretches and numerator steps |ΔY| > 1."""
    seen = dict.fromkeys(("mixed", "flat", "diagonal", "wide"), 0)
    rng = random.Random("features")
    for _ in range(100):
        m, _ = mixed_pair(rng)
        seen["mixed"] += len({x.denominator for x in m.xs + m.ys}) > 2
        seen["flat"] += any(a == b for a, b in zip(m.Y, m.Y[1:]))
        seen["diagonal"] += bool(interval._fixed_of(m)[1])
        seen["wide"] += any(abs(b - a) > 1 for a, b in zip(m.Y, m.Y[1:]))
    assert min(seen.values()) > 5, seen


@given(st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_integer_engine_matches_fraction_engine(rng):
    f, g = mixed_pair(rng)
    lo, hi = f.domain
    samples = sorted(lo + (hi - lo) * F(rng.randint(0, d), d)
                     for d in (rng.randint(1, 30) for _ in range(6)))
    for x in [*samples, *f.xs, hi + F(1, 7)]:
        assert raised(pl_eval, f, x) == raised(frac_eval, f, x)
    for a, b in zip(samples, samples[1:]):
        assert pl_image(f, (a, b)) == frac_image(f, (a, b))
    assert raised(pl_image, f, (hi, lo)) == raised(frac_image, f, (hi, lo))
    for h, want in ((pl_compose(f, g), frac_compose(f, g)),
                    (pl_compose(g, f), frac_compose(g, f)),
                    (pl_power(f, 3), frac_power(f, 3))):
        assert (h.xs, h.ys) == (want.xs, want.ys)
        assert fixed_as_fractions(interval._fixed_of(h)) == frac_fixed_of(want)
    for n in (1, 2, 3):
        assert periodic_points(f, n) == frac_periodic_points(f, n)
    for eps, n_max in ((F(1, 7), 3), (F(2, 9), 4), (F(1, 16), 2)):
        assert periodic_density_report(f, eps, n_max) \
            == frac_density_report(f, eps, n_max)
    # BudgetError parity: the same caps raise with the same messages (a cap
    # is never below 1).
    n = len(pl_compose(f, g).xs)
    for budget in {n - 2, n - 1, n, rng.randint(1, n + 1)} - {0}:
        with mock.patch.dict(budgets.CAPS, breakpoints=budget):
            assert raised(pl_compose, f, g) == raised(frac_compose, f, g)
            assert raised(pl_power, f, 3) == raised(frac_power, f, 3)
    top = cap("power") + 1
    assert raised(periodic_points, f, top) == raised(frac_periodic_points, f, top)
    assert raised(periodic_density_report, f, F(1, 8), top) \
        == raised(frac_density_report, f, F(1, 8), top)


# ---------------------------------------------------------------------------
# The ordered compose and the orbit walk for prime periods, against the
# set-and-sort compose and the divisor filter they replaced.

def compose_by_sorting(f, g):
    """f∘g from the sorted set of g's breakpoints and the solved g-preimages
    of f's, with f(g(x)) evaluated at each."""
    limit = cap("breakpoints")
    xs = set(g.xs)
    for i in range(len(g.xs) - 1):
        x0, x1 = g.xs[i], g.xs[i + 1]
        y0, y1 = g.ys[i], g.ys[i + 1]
        if y0 == y1:
            continue
        lo_y, hi_y = min(y0, y1), max(y0, y1)
        for b in f.xs:
            if lo_y < b < hi_y:
                xs.add(x0 + (b - y0) * (x1 - x0) / (y1 - y0))
        if len(xs) > limit:
            raise BudgetError(f"compose exceeded {limit} breakpoints")
    xs = tuple(sorted(xs))
    return pl_map([(x, pl_eval(f, pl_eval(g, x))) for x in xs])


def periodic_points_by_divisors(m, period):
    """The fixed points of m^period (built with compose_by_sorting), each
    with the least divisor d of the period for which iterating m d times
    from the point afresh returns to it."""
    power = m
    for _ in range(period - 1):
        power = compose_by_sorting(m, power)
    points, segments = frac_fixed_of(power)
    out = []
    for p in points:
        prime = period
        for d in range(1, period):
            if period % d == 0 and pl_iterate(m, p, d) == p:
                prime = d
                break
        out.append((p, prime))
    return interval.PeriodicReport(points=tuple(out), segments=tuple(segments))


def zigzag(a, b):
    """Three full branches: 0 -> 0, a -> 1, b -> 0, 1 -> 1."""
    return pl_map([(0, 0), (a, 1), (b, 0), (1, 1)])


ZIGZAGS = [zigzag(F(16, 64), F(36, 64)), zigzag(F(21, 64), F(41, 64)),
           zigzag(F(28, 64), F(48, 64))]

# x + 1/2 on [1/4, 1/2] and x - 1/2 on [3/4, 1], so the square is the
# identity on both stretches; slopes 3 and -3 elsewhere.
STRETCH = pl_map([(0, 0), (F(1, 4), F(3, 4)), (F(1, 2), 1),
                  (F(3, 4), F(1, 4)), (1, F(1, 2))])


def random_maps(count, seed):
    """random_pl_map, with every third map pinning about half its breakpoints
    to the diagonal, so that slope-1 fixed stretches occur."""
    rng = random.Random(seed)
    for k in range(count):
        m = random_pl_map(rng)
        if k % 3 == 0:
            m = pl_map([(x, x if rng.random() < 0.5 else y)
                        for x, y in zip(m.xs, m.ys)])
        yield m


def test_compose_matches_sorting_oracle():
    """Every power of S and tent up to the power cap, of example211 up to 8
    and of the zigzags up to 6, composed one step at a time, and f∘g and g∘f
    for 60 random pairs: the same breakpoints and values."""
    for m, top in [(S, cap("power")), (TENT, cap("power")), (EX, 8),
                   *((z, 6) for z in ZIGZAGS)]:
        power = m
        for _ in range(top - 1):
            want = compose_by_sorting(m, power)
            power = pl_compose(m, power)
            assert power == want
    maps = list(random_maps(120, "compose"))
    flat_pieces = 0
    for f, g in zip(maps[::2], maps[1::2]):
        assert pl_compose(f, g) == compose_by_sorting(f, g)
        assert pl_compose(g, f) == compose_by_sorting(g, f)
        flat_pieces += any(a == b for a, b in zip(g.ys, g.ys[1:]))
    assert flat_pieces > 0


def budget_error(compose, f, g, budget):
    """The BudgetError message compose raises under a breakpoints cap of
    budget, or None."""
    try:
        with mock.patch.dict(budgets.CAPS, breakpoints=budget):
            compose(f, g)
    except BudgetError as err:
        return str(err)
    return None


def test_compose_budget_parity():
    """At a budget of exactly the composed map's breakpoint count neither
    compose raises; one below it both raise with the same message.  A g with
    no rising or falling piece is never checked, whatever its size."""
    pairs = [(TENT, pl_power(TENT, 5)), (EX, pl_power(EX, 3)), (S, S),
             (ZIGZAGS[0], ZIGZAGS[1]), (STRETCH, TENT), (TENT, STRETCH)]
    maps = list(random_maps(40, "budget"))
    pairs += zip(maps[::2], maps[1::2])
    for f, g in pairs:
        n = len(pl_compose(f, g).xs)
        for budget in (n - 1, n, n + 1):
            got = budget_error(pl_compose, f, g, budget)
            assert got == budget_error(compose_by_sorting, f, g, budget)
            assert (got is not None) == (budget < n)
    flat = pl_map([(F(k, 8), F(1, 2)) for k in range(9)])
    for budget in (1, 8, 9):
        assert budget_error(pl_compose, TENT, flat, budget) is None
        assert budget_error(compose_by_sorting, TENT, flat, budget) is None


def test_periodic_points_match_divisor_oracle():
    cases = [(S, cap("power")), (TENT, 10), (EX, 6), (STRETCH, 6),
             *((z, 5) for z in ZIGZAGS),
             *((m, 4) for m in random_maps(60, "periodic"))]
    segments = 0
    for m, top in cases:
        for n in range(1, top + 1):
            got = periodic_points(m, n)
            assert got == periodic_points_by_divisors(m, n)
            segments += bool(got.segments)
    assert segments > 0


def test_orbits_of_listed_points_stay_listed():
    """m is one-to-one on a slope-1 fixed stretch of m^n and m^n is the
    identity on its image, so an orbit that met a stretch would lie in
    stretches throughout: the orbit of a listed point is listed."""
    for n in range(1, 7):
        rep = periodic_points(STRETCH, n)
        if n % 2 == 0:
            assert rep.segments == ((F(1, 4), F(1, 2)), (F(3, 4), 1))
        listed = dict(rep.points)
        assert len(listed) > 1
        for p, prime in rep.points:
            orbit = [pl_iterate(STRETCH, p, k) for k in range(prime)]
            assert all(listed.get(q) == prime for q in orbit)


def test_prime_periods_cost_one_eval_per_point(monkeypatch):
    """Beyond building tent^10, periodic_points(tent, 10) evaluates tent once
    per periodic point: each orbit is walked once, not once per divisor.
    The walk runs on the integer evaluator _ev, so that is what is counted."""
    calls = []
    real = interval._ev
    monkeypatch.setattr(interval, "_ev",
                        lambda m, p, q: calls.append((p, q)) or real(m, p, q))
    pl_power(TENT, 10)
    power_calls = len(calls)
    calls.clear()
    assert len(periodic_points(TENT, 10).points) == 1024
    assert len(calls) - power_calls == 1024


# ---------------------------------------------------------------------------
# Density of periodic points.

def test_density_tent_full():
    rep = periodic_density_report(TENT, F(1, 64), 10)
    assert rep.covered_fraction == 1
    assert rep.uncovered == ()
    assert rep.period_reached == 6     # early exit once every cell is hit


def test_density_tent_partial():
    rep = periodic_density_report(TENT, F(1, 64), 3)
    assert 0 < rep.covered_fraction < 1
    assert rep.period_reached == 3
    assert rep.uncovered


def test_density_identity():
    # The whole interval is fixed, so one step covers everything.
    rep = periodic_density_report(IDENT, F(1, 16), 4)
    assert rep.covered_fraction == 1
    assert rep.period_reached == 1


def test_density_budget():
    with pytest.raises(BudgetError):
        periodic_density_report(TENT, F(1, 1024), 13)


@pytest.mark.parametrize("n_max", [0, -3])
def test_density_rejects_no_period(n_max):
    # No period searched would report coverage 0 on no evidence.
    with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
        periodic_density_report(TENT, F(1, 16), n_max)
    with pytest.raises(ValueError, match="epsilon must be positive, got -1/4"):
        interval.density_cells(TENT, F(-1, 4), 3)


# ---------------------------------------------------------------------------
# The survey wrapper.

def test_devaney_report_tent():
    params = SurveyParams(delta=F(1, 4), density_epsilon=F(1, 64),
                          family=setfam.FamilyParams(gap=16, block=8,
                                                     cofinite_head=16,
                                                     burnin=8))
    rep = devaney_report(TENT, params, "tent")
    assert rep.verdicts == {"Fs": True, "Ft": True, "Fts": True, "Fcf": True}
    assert rep.density.covered_fraction == 1
    assert not rep.anomalies


def test_devaney_report_S():
    rep = devaney_report(S, SurveyParams(), "S")
    assert rep.verdicts["Fs"] is True
    assert rep.verdicts["Ft"] is False     # parity kills every thick target
    assert rep.verdicts["Fcf"] is False


# The per-family checks devaney_report read before setfam.FAMILIES.
FAMILY_CHECKS = {
    "Fs": lambda v: v.syndetic,
    "Ft": lambda v: v.thick,
    "Fts": lambda v: v.thickly_syndetic,
    "Fcf": lambda v: v.cofinite,
}


@pytest.mark.parametrize("name", ["S", "tent", "example211", "identity"])
def test_devaney_verdicts_follow_the_family_checks(name):
    rep = devaney_report(builtin(name), SurveyParams(), name)
    verdicts = [v for _, _, v in rep.transitivity] + [v for _, v in rep.sensitivity]
    dense = rep.density.covered_fraction == 1
    assert list(rep.verdicts) == list(FAMILY_CHECKS)
    for fam, check in FAMILY_CHECKS.items():
        assert rep.verdicts[fam] == (dense and all(map(check, verdicts))), fam


def test_devaney_report_checks_density_before_any_hitting_set(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a hitting set was built before the density check")

    monkeypatch.setattr(interval, "sensitivity_hitting_set", refuse)
    monkeypatch.setattr(interval, "transitivity_hitting_set", refuse)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        devaney_report(S, SurveyParams(density_epsilon=F(0)), "S")


@pytest.mark.parametrize("params, message", [
    (SurveyParams(n_steps=4, family=setfam.FamilyParams(burnin=8)),
     "burnin 8 exceeds horizon 5"),
    (SurveyParams(density_n_max=0), "n_max must be >= 1, got 0"),
])
def test_devaney_report_checks_before_any_work(monkeypatch, params, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the survey composed a map before its checks")

    monkeypatch.setattr(interval, "pl_compose", refuse)
    monkeypatch.setattr(interval, "pl_image", refuse)
    with pytest.raises(ValueError, match=message):
        devaney_report(S, params, "S")
    with pytest.raises(ValueError, match=message):
        params.grid(S)


def test_devaney_report_identity():
    rep = devaney_report(IDENT, SurveyParams(), "identity")
    assert all(v is False for v in rep.verdicts.values())
    # Transitivity already fails, so nothing is flagged as anomalous.
    assert not rep.anomalies


def test_survey_keeps_no_state_between_calls(monkeypatch):
    """A second identical survey and periodic-point search make as many
    pl_image and pl_compose calls as the first, so no orbit or power
    outlives the call that made it."""
    calls = []
    for name in ("pl_image", "pl_compose"):
        monkeypatch.setattr(interval, name, lambda *a, f=getattr(interval, name),
                            name=name: calls.append(name) or f(*a))
    counts = []
    for _ in range(2):
        calls.clear()
        devaney_report(TENT, SurveyParams(cells=4, n_steps=32), "tent")
        periodic_points(TENT, 4)
        counts.append((calls.count("pl_image"), calls.count("pl_compose")))
    assert counts[0] == counts[1] and min(counts[0]) > 0


def count_pl_image(monkeypatch) -> list:
    """Patch interval.pl_image to log each call; returns the log."""
    calls = []
    monkeypatch.setattr(interval, "pl_image", lambda *a, f=interval.pl_image:
                        calls.append(a) or f(*a))
    return calls


@pytest.mark.parametrize("name", ["S", "tent", "example211", "identity"])
def test_report_walks_each_cell_orbit_once(monkeypatch, name):
    """The report's cells + cells**2 hitting sets cost as many images as
    the cells' sensitivity sets built alone, outside any report."""
    m, params = builtin(name), SurveyParams(cells=6, n_steps=128)
    calls = count_pl_image(monkeypatch)
    for u in params.grid(m):
        sensitivity_hitting_set(m, u, params.delta, params.n_steps)
    alone = len(calls)
    calls.clear()
    devaney_report(m, params, name)
    assert len(calls) == alone > 0


def test_orbit_memo_is_unset_after_the_report(monkeypatch):
    assert interval._orbits.get(None) is None
    devaney_report(TENT, SurveyParams(cells=3, n_steps=16), "tent")
    assert interval._orbits.get(None) is None
    seen = []

    def classify(a, p):
        seen.append(interval._orbits.get(None))
        raise RuntimeError("classify failed")

    monkeypatch.setattr(setfam, "classify", classify)
    with pytest.raises(RuntimeError, match="classify failed"):
        devaney_report(TENT, SurveyParams(cells=3, n_steps=16), "tent")
    assert seen and seen[0]     # raised mid-report, with orbits memoised
    assert interval._orbits.get(None) is None


def test_direct_hitting_sets_walk_their_orbit_each_call(monkeypatch):
    u, v = (F(1, 10), F(1, 5)), (F(1, 2), F(3, 5))
    calls = count_pl_image(monkeypatch)
    transitivity_hitting_set(TENT, u, v, 64)
    once = len(calls)
    transitivity_hitting_set(TENT, u, v, 64)
    assert len(calls) == 2 * once > 0


def per_cell_rows(m, params):
    """The survey's sensitivity and transitivity rows with one classify per
    cell and per pair: the loop the report replaced."""
    grid = params.grid(m)
    fam = params.family
    sens = tuple((u, setfam.classify(
        sensitivity_hitting_set(m, u, params.delta, params.n_steps).window, fam))
        for u in grid)
    trans = tuple((i, j, setfam.classify(
        transitivity_hitting_set(m, u, v, params.n_steps).window, fam))
        for i, u in enumerate(grid) for j, v in enumerate(grid))
    return sens, trans


@pytest.mark.parametrize("name", ["S", "tent", "example211"])
@pytest.mark.parametrize("params", [SurveyParams(), SurveyParams(cells=6, n_steps=256)])
def test_devaney_report_matches_per_cell_loop(monkeypatch, name, params):
    m = builtin(name)
    sens, trans = per_cell_rows(m, params)
    calls = {"sensitivity_hitting_set": 0, "transitivity_hitting_set": 0}
    windows = []
    for fn in calls:
        monkeypatch.setattr(interval, fn, lambda *a, f=getattr(interval, fn), fn=fn:
                            calls.__setitem__(fn, calls[fn] + 1) or f(*a))
    monkeypatch.setattr(setfam, "classify", lambda a, p, f=setfam.classify:
                        windows.append(a) or f(a, p))
    for _ in range(2):   # no memo outlives the call
        calls.update(dict.fromkeys(calls, 0))
        windows.clear()
        rep = devaney_report(m, params, name)
        assert rep.sensitivity == sens
        assert rep.transitivity == trans
        # One hitting set per cell and per pair, one classify per distinct set.
        cells = params.cells
        assert calls == {"sensitivity_hitting_set": cells,
                         "transitivity_hitting_set": cells * cells}
        assert len(windows) == len(set(windows)) < cells + cells * cells


def test_survey_grid_margin():
    grid = SurveyParams(cells=10).grid(TENT)
    assert len(grid) == 10
    assert all(lo < hi for lo, hi in grid)
    assert grid[0][0] >= F(1, 100)
    assert grid[-1][1] <= 1 - F(1, 100)
