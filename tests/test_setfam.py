"""Window-set combinatorics: frozen fixtures plus hypothesis properties."""

import re
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, assume, settings
from hypothesis import strategies as st

from chaoskit import setfam
from chaoskit.budgets import BudgetError
from chaoskit.setfam import (
    CENSORED, STRICT, FamilyParams, WindowSet, classify, from_generator,
    full_window, window_set,
)


# Window-set arithmetic and scans that only the tests use.

def max_gap(a: WindowSet, tail_policy: str = CENSORED) -> int:
    """Largest gap of a non-empty window set.

    Gaps are the leading gap a_1 (distance from the window start) and the
    successive differences a_{i+1} - a_i.  Under the strict policy the
    trailing gap horizon - a_k is counted as well.
    """
    if not a.members:
        raise ValueError("max_gap of the empty set is undefined")
    gaps = [a.members[0]]
    gaps.extend(b - c for c, b in zip(a.members, a.members[1:]))
    if tail_policy == STRICT:
        gaps.append(a.horizon - a.members[-1])
    elif tail_policy != CENSORED:
        raise ValueError(f"unknown tail policy {tail_policy!r}")
    return max(gaps)


def longest_block(a: WindowSet) -> int:
    """Length of the longest run of consecutive members (0 for the empty set)."""
    best = 0
    run = 0
    prev = None
    for m in a.members:
        run = run + 1 if prev is not None and m == prev + 1 else 1
        best = max(best, run)
        prev = m
    return best


def empty_window(horizon: int) -> WindowSet:
    return WindowSet(horizon, ())


def union(a: WindowSet, b: WindowSet) -> WindowSet:
    """A ∪ B; the horizons must be equal."""
    if a.horizon != b.horizon:
        raise ValueError(f"horizon mismatch: {a.horizon} != {b.horizon}")
    return window_set(a.horizon, set(a.members) | set(b.members))


def complement(a: WindowSet) -> WindowSet:
    inside = set(a.members)
    return WindowSet(a.horizon, tuple(n for n in range(a.horizon) if n not in inside))


def dilate(a: WindowSet, n: int) -> WindowSet:
    """{n*a : a in A, n*a < horizon}, same horizon."""
    if n < 1:
        raise ValueError("dilation factor must be >= 1")
    return WindowSet(a.horizon, tuple(n * m for m in a.members if n * m < a.horizon))


def shift_down(a: WindowSet, q: int) -> WindowSet:
    """A - q elementwise, dropping members that fall below 0."""
    if q < 0:
        raise ValueError("shift must be >= 0")
    return WindowSet(a.horizon, tuple(m - q for m in a.members if m >= q))


def with_horizon(a: WindowSet, horizon: int) -> WindowSet:
    """Re-embed on a different horizon, dropping members beyond it."""
    return WindowSet(horizon, tuple(m for m in a.members if m < horizon))


def evens(h):
    return WindowSet(h, tuple(range(0, h, 2)))


def nonpowers(h):
    return from_generator("complement(powers(2))", h)


def least_cofinite_head(a):
    """Least m with [m, horizon) ⊆ A; horizon if the tail is broken at the
    end.  The member scan that classify's run-based head is checked against."""
    if not a.members or a.members[-1] != a.horizon - 1:
        return a.horizon
    head = a.horizon - 1
    for m in reversed(a.members[:-1]):
        if m == head - 1:
            head = m
        else:
            break
    return head


# ---------------------------------------------------------------------------
# Frozen gap / block / head fixtures.

def test_max_gap_frozen():
    assert max_gap(evens(16)) == 2
    assert max_gap(window_set(16, set(range(16)) - {2, 4, 8})) == 2
    assert max_gap(WindowSet(16, (7,))) == 7
    # strict policy counts the trailing gap
    assert max_gap(WindowSet(16, (0, 5)), STRICT) == 11
    assert max_gap(WindowSet(16, (0, 5)), CENSORED) == 5
    with pytest.raises(ValueError):
        max_gap(empty_window(8))


def test_longest_block_frozen():
    assert longest_block(window_set(8, [1, 2, 3, 7])) == 3
    assert longest_block(window_set(64, set(range(64)) - {2, 4, 8, 16, 32})) == 31
    assert longest_block(evens(64)) == 1
    assert longest_block(empty_window(4)) == 0
    assert longest_block(full_window(9)) == 9


def test_cofinite_head_frozen():
    cases = [
        (full_window(16), 0),
        (evens(16), 16),                  # last point 15 missing
        (window_set(16, range(5, 16)), 5),
        (WindowSet(16, (14, 15)), 14),
        (empty_window(16), 16),
    ]
    for a, head in cases:
        assert least_cofinite_head(a) == head
        assert classify(a, FamilyParams()).cofinite_head == head


# ---------------------------------------------------------------------------
# Oracles: the per-prefix density scan and the per-n block-start sets that
# classify used to build, kept to check the linear passes against.

def block_starts(a, n):
    """Start positions of runs of n consecutive members, as a WindowSet."""
    width = a.horizon - n + 1
    if width < 1:
        return WindowSet(1, ())
    inside = set(a.members)
    starts = []
    run = 0
    for i in range(a.horizon - 1, -1, -1):
        run = run + 1 if i in inside else 0
        if run >= n and i < width:
            starts.append(i)
    starts.reverse()
    return WindowSet(width, tuple(starts))


def thickly_syndetic_by_starts(a, p):
    for n in range(1, p.block + 1):
        if n > a.horizon:
            return False
        starts = block_starts(a, n)
        if not starts.members or max_gap(starts, p.tail_policy) > p.gap:
            return False
    return True


def linked_span(a, g):
    """Longest span first..last of a maximal run whose successive gaps are <= g."""
    best = 0
    start = None
    prev = None
    for m in a.members:
        if prev is None or m - prev > g:
            start = m
        best = max(best, m - start + 1)
        prev = m
    return best


def density_bounds_by_prefix(a, burnin):
    """min and max of |A ∩ [0, n)| / n, one Fraction per n in [burnin, horizon]."""
    ratios = [Fraction(a.count_below(n), n) for n in range(burnin, a.horizon + 1)]
    return min(ratios), max(ratios)


def oracle_classify(a, p):
    """classify's verdict, built from the oracles and the public helpers."""
    p.check_horizon(a.horizon)
    if not a.members:
        return setfam.FamilyVerdict(
            horizon=a.horizon, syndetic=False, max_gap=None, thick=False,
            longest_block=0, thickly_syndetic=False, piecewise_syndetic=False,
            cofinite=False, cofinite_head=a.horizon,
            lower_density=Fraction(0), upper_density=Fraction(0))
    gap, block = max_gap(a, p.tail_policy), longest_block(a)
    lo, hi = density_bounds_by_prefix(a, p.burnin)
    head = least_cofinite_head(a)
    return setfam.FamilyVerdict(
        horizon=a.horizon, syndetic=gap <= p.gap, max_gap=gap,
        thick=block >= p.block, longest_block=block,
        thickly_syndetic=thickly_syndetic_by_starts(a, p),
        piecewise_syndetic=(block >= p.block
                            or (gap <= p.gap and a.horizon >= p.block)
                            or linked_span(a, p.gap) >= p.block),
        cofinite=head < a.horizon and head <= p.cofinite_head,
        cofinite_head=head,
        lower_density=lo, upper_density=hi)


def thickly_syndetic_by_levels(runs, horizon, p):
    """The run filter classify used before its one-pass check: the runs are
    re-filtered for every block length n <= L and their block-start gaps
    measured afresh."""
    for n in range(1, p.block + 1):
        runs = [(s, e) for s, e in runs if e - s >= n]
        if not runs:
            return False
        gap = max([runs[0][0]]
                  + [s - (e - n) for (_, e), (s, _) in zip(runs, runs[1:])])
        if p.tail_policy == STRICT:
            gap = max(gap, horizon + 1 - runs[-1][1])
        if gap > p.gap:
            return False
    return True


def test_block_starts_frozen():
    a = window_set(8, [0, 1, 2, 5, 6])
    starts = block_starts(a, 2)
    assert starts.horizon == 7
    assert starts.members == (0, 1, 5)
    assert block_starts(a, 9).members == ()


def test_linear_passes_match_oracles_on_every_small_set():
    """Every subset of every horizon up to 9: the thickly-syndetic check and
    the whole verdict at gap and block 1..3 under both tail policies, and both
    density bounds at every burn-in."""
    for h in range(1, 10):
        for mask in range(1, 1 << h):
            a = WindowSet(h, tuple(n for n in range(h) if mask >> n & 1))
            for gap, block, policy in product((1, 2, 3), (1, 2, 3), (CENSORED, STRICT)):
                p = FamilyParams(gap=gap, block=block, tail_policy=policy)
                assert setfam._thickly_syndetic(setfam._runs(a), a.horizon, p) \
                    == thickly_syndetic_by_starts(a, p)
                p = replace(p, burnin=1)
                assert classify(a, p) == oracle_classify(a, p)
            for burnin in range(1, h + 1):
                assert setfam._density_bounds(a, setfam._runs(a), burnin) \
                    == density_bounds_by_prefix(a, burnin)


oracle_cases = st.integers(1, 90).flatmap(lambda h: st.tuples(
    st.just(h), st.sets(st.integers(0, h - 1)),
    st.builds(FamilyParams, gap=st.integers(1, 12), block=st.integers(1, 12),
              cofinite_head=st.integers(0, 12), burnin=st.integers(1, h),
              tail_policy=st.sampled_from([CENSORED, STRICT]))))


@given(oracle_cases)
@settings(max_examples=400)
@example(case=(20, set(), FamilyParams(burnin=5)))
@example(case=(20, set(range(20)), FamilyParams(burnin=20, tail_policy=STRICT)))
@example(case=(20, {5, 6, 7, 12}, FamilyParams(gap=5, block=2, burnin=5)))
@example(case=(20, {5, 6, 7, 12}, FamilyParams(gap=5, block=2, burnin=5,
                                               tail_policy=STRICT)))
# The strict tail of the block starts is (horizon - n + 1) - (end - n).
@example(case=(20, set(range(10)), FamilyParams(gap=10, block=3, burnin=1,
                                                tail_policy=STRICT)))
def test_classify_matches_oracle(case):
    """The linear density pass and the run-based thickly-syndetic check give
    the verdict of the prefix scan and the block-start sets, field for field."""
    h, members, p = case
    a = window_set(h, members)
    assert classify(a, p) == oracle_classify(a, p)


# Runs of mixed lengths, so that long runs sit between short ones and the
# nearest earlier run that reaches a level is often not the previous one.
run_cases = st.tuples(
    st.lists(st.tuples(st.integers(1, 6), st.integers(1, 14)), max_size=12),
    st.integers(0, 4), st.integers(0, 6),
    st.builds(FamilyParams, gap=st.integers(1, 16), block=st.integers(1, 15),
              tail_policy=st.sampled_from([CENSORED, STRICT])))


@given(run_cases)
@settings(max_examples=500)
@example(case=([(3, 5), (90, 1)], 0, 0, FamilyParams(gap=4, block=2)))
@example(case=([(3, 5), (90, 1)], 0, 0, FamilyParams(gap=4, block=2,
                                                      tail_policy=STRICT)))
def test_one_pass_thickly_syndetic_matches_level_filter(case):
    """The one-pass check against the per-level run filter, under both tail
    policies: runs given as (gap before, length) pairs after a lead-in."""
    steps, lead, tail, p = case
    runs, at = [], lead
    for before, length in steps:
        at += before
        runs.append((at, at + length))
        at += length
    horizon = at + tail if runs else 1 + tail
    assert setfam._thickly_syndetic(runs, horizon, p) \
        == thickly_syndetic_by_levels(runs, horizon, p)


def test_classifiers_share_no_cache(monkeypatch):
    # Each classifier(p) decides a set once, and only for itself: a second
    # classifier, of the same or of other params, classifies afresh.
    calls = []
    real = setfam.classify
    monkeypatch.setattr(setfam, "classify",
                        lambda a, p: calls.append((a, p)) or real(a, p))
    a, b = window_set(16, range(0, 16, 2)), window_set(16, range(0, 16, 3))
    tight = FamilyParams(gap=2, block=2, cofinite_head=2, burnin=2)
    first, second, other = (setfam.classifier(FamilyParams()),
                            setfam.classifier(FamilyParams()),
                            setfam.classifier(tight))
    for _ in range(3):
        assert first(a) == second(a) == real(a, FamilyParams())
        assert first(b) == real(b, FamilyParams())
        assert other(a) == real(a, tight)
    assert first(window_set(16, range(0, 16, 2))) == first(a)
    assert calls == [(a, FamilyParams()), (a, FamilyParams()), (b, FamilyParams()),
                     (a, tight)]


# ---------------------------------------------------------------------------
# Classifier fixtures.

def test_classify_evens():
    v = classify(evens(256), FamilyParams())
    assert v.syndetic and v.max_gap == 2
    assert not v.thick and v.longest_block == 1
    assert not v.thickly_syndetic
    assert v.piecewise_syndetic          # syndetic across the whole window
    assert not v.cofinite and v.cofinite_head == 256
    assert v.lower_density == Fraction(1, 2)
    assert v.upper_density == Fraction(5, 9)


def test_classify_nonpowers():
    v = classify(nonpowers(256), FamilyParams())
    assert v.syndetic and v.max_gap == 2
    assert v.thick and v.longest_block == 127
    assert not v.thickly_syndetic        # 8-block starts stall around powers
    assert v.piecewise_syndetic
    assert not v.cofinite and v.cofinite_head == 129
    assert v.lower_density == Fraction(5, 9)
    assert v.upper_density == Fraction(31, 32)


def test_classify_empty_and_full():
    v = classify(empty_window(32), FamilyParams())
    assert not (v.syndetic or v.thick or v.thickly_syndetic
                or v.piecewise_syndetic or v.cofinite)
    assert v.max_gap is None and v.lower_density == 0
    v = classify(full_window(32), FamilyParams())
    assert v.syndetic and v.thick and v.thickly_syndetic and v.cofinite
    assert v.lower_density == v.upper_density == 1


def tags_by_branch(v):
    """The if-chain that tags() read from before setfam.TAGS: one branch per
    flag, kept as its oracle."""
    out = []
    if v.syndetic:
        out.append("syndetic")
    if v.thick:
        out.append("thick")
    if v.thickly_syndetic:
        out.append("thickly_syndetic")
    if v.piecewise_syndetic:
        out.append("piecewise_syndetic")
    if v.cofinite:
        out.append("cofinite")
    return tuple(out)


def test_tags_match_the_branch_chain():
    flags = ("syndetic", "thick", "thickly_syndetic", "piecewise_syndetic",
             "cofinite")
    base = classify(evens(16), FamilyParams())
    for values in product((False, True), repeat=len(flags)):
        v = replace(base, **dict(zip(flags, values)))
        assert v.tags() == tags_by_branch(v), values


def test_classify_burnin_over_horizon():
    with pytest.raises(ValueError):
        classify(full_window(4), FamilyParams(burnin=8))


def test_censored_tail_is_not_monotone():
    # Documented quirk: adding a far-out member can grow the censored max gap,
    # because the censored policy only ignores the gap after the *last* point.
    small = window_set(256, [0, 1, 2])
    big = window_set(256, [0, 1, 2, 200])
    assert max_gap(small, CENSORED) == 1
    assert max_gap(big, CENSORED) == 198
    # The strict policy restores monotonicity on this pair.
    assert max_gap(big, STRICT) <= max_gap(small, STRICT)


# ---------------------------------------------------------------------------
# Generators and text round trip.

def test_from_generator_frozen():
    assert from_generator("multiples(3)", 10).members == (0, 3, 6, 9)
    assert from_generator("complement(powers(2))", 10).members == (1, 3, 5, 6, 7, 9)
    assert from_generator("evens", 7).members == (0, 2, 4, 6)
    assert len(from_generator("all", 12)) == 12
    with pytest.raises(ValueError):
        from_generator("odds", 10)


@pytest.mark.parametrize("expr, message", [
    ("Evens", "unknown set generator 'Evens'"),
    ("multiples(0)", "multiples(k) needs k >= 1"),
])
def test_from_generator_checks_the_name_before_charging(expr, message,
                                                        monkeypatch):
    # A horizon past the cap must not mask a bad name as a budget breach.
    def refuse(name, amount):
        raise AssertionError("charged before the name was checked")

    monkeypatch.setattr(setfam, "charge", refuse)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_generator(expr, 2_000_000)


def test_from_generator_charges_a_good_name():
    with pytest.raises(BudgetError, match="enum_nodes budget exceeded"):
        from_generator("evens", 2_000_000)


def test_parse_format_round_trip():
    assert setfam.parse_window_text("horizon=40\n" + ",".join(
        str(n) for n in range(0, 40, 2))) == evens(40)
    assert setfam.parse_window_text("horizon=12\n1,3,5,6,7,9,10,11") \
        == nonpowers(12)
    assert setfam.parse_window_text("horizon=5\n") == empty_window(5)
    assert setfam.parse_window_text("horizon=3\n0,1,2") == full_window(3)
    assert setfam.parse_window_text("horizon=9\nevens") == evens(9)
    with pytest.raises(ValueError):
        setfam.parse_window_text("members=1,2")


def test_parse_reads_every_member_line():
    # One member per line, as the README documents the @file format, and
    # lines after "explicit" are members too.
    assert setfam.parse_window_text("horizon=10\n1\n2\n3") == WindowSet(10, (1, 2, 3))
    assert setfam.parse_window_text("horizon=10\nexplicit\n1,2,3") \
        == WindowSet(10, (1, 2, 3))
    assert setfam.parse_window_text("horizon=10\n1,2\n\n 5 \n") == WindowSet(10, (1, 2, 5))
    assert setfam.parse_window_text("horizon=10\nexplicit") == empty_window(10)


@pytest.mark.parametrize("body", ["1,,2", "+1,2", " 0, 5 ,7", ""])
def test_inline_members_read_as_a_file_body(body):
    # The CLI's inline member list and an @file body share one token rule.
    assert (setfam.from_members([body], 8, ascending=False)
            == setfam.parse_window_text(f"horizon=8\n{body}"))


@pytest.mark.parametrize("body", ["3,x", "1.5", "-", "1;2"])
def test_bad_member_list_message_is_shared(body):
    for parse in (lambda: setfam.from_members([body], 8, ascending=False),
                  lambda: setfam.parse_window_text(f"horizon=8\n{body}")):
        with pytest.raises(ValueError, match=f"^bad member list {body!r}$"):
            parse()


@pytest.mark.parametrize("body", ["Evens", "multiples (3)", "odds", "x1,2"])
def test_bad_generator_message_is_shared(body):
    # A spec that starts with a letter names a generator, inline and in a
    # file alike, so a misspelt one is never read as a member list.
    for parse in (lambda: setfam.from_body([body], 8, ascending=False),
                  lambda: setfam.parse_window_text(f"horizon=8\n{body}")):
        with pytest.raises(ValueError, match=f"^unknown set generator {re.escape(repr(body))}$"):
            parse()


def test_explicit_line_reads_the_rest_as_members():
    assert setfam.from_body(["explicit", "5,1"], 8, ascending=False) == WindowSet(8, (1, 5))
    assert setfam.from_body(["explicit"], 8) == empty_window(8)
    with pytest.raises(ValueError, match="^bad member list 'evens'$"):
        setfam.from_body(["explicit", "evens"], 8)
    with pytest.raises(ValueError, match="^stray line '1' after generator 'evens'$"):
        setfam.from_body(["evens", "1"], 8, ascending=False)


def test_only_inline_members_may_come_in_any_order():
    assert setfam.from_members(["5,1,5"], 8, ascending=False) == WindowSet(8, (1, 5))
    with pytest.raises(ValueError, match="strictly ascending"):
        setfam.from_members(["5,1"], 8)


@pytest.mark.parametrize("text", ["horizon=10\nevens\n1",
                                  "horizon=10\nmultiples(3)\nevens",
                                  "horizon=10\n1\n2\nx",
                                  "horizon=10\n1\nevens",
                                  "horizon=10\n3\n1"])
def test_parse_rejects_stray_and_bad_lines(text):
    with pytest.raises(ValueError):
        setfam.parse_window_text(text)


@pytest.mark.parametrize("build", [
    lambda: WindowSet(10, (3, 1)),                       # unsorted
    lambda: WindowSet(10, (1, 1)),                       # duplicate
    lambda: WindowSet(10, (1, 10)),                      # out of range
    lambda: WindowSet(10, (-1, 2)),
    lambda: WindowSet(10, (1.0, 2)),                     # not an int
    lambda: WindowSet(0, ()),
    lambda: window_set(10, [3, 10]),
    lambda: window_set(10, [-1]),
    lambda: window_set(10, [1.5]),
    lambda: from_generator("evens", 0),
    lambda: setfam.parse_window_text("horizon=10\n3,1"),
    lambda: setfam.parse_window_text("horizon=10\n1,1"),
    lambda: setfam.parse_window_text("horizon=10\n1,10"),
    lambda: setfam.parse_window_text("horizon=10\n1,x"),
])
def test_user_given_sets_are_still_validated(build):
    """Only the engines' own ascending sets skip the member check; every
    parsed, generated or directly built set is still validated."""
    with pytest.raises(ValueError):
        build()


def test_trusted_sets_equal_validated_ones():
    a = WindowSet._trusted(10, (1, 4, 9))
    assert a == WindowSet(10, (1, 4, 9)) and hash(a) == hash(WindowSet(10, (1, 4, 9)))
    assert 4 in a and len(a) == 3


def test_set_algebra():
    a, b = evens(16), window_set(16, [1, 2, 3])
    assert union(a, b).members == (0, 1, 2, 3, 4, 6, 8, 10, 12, 14)
    with pytest.raises(ValueError):
        union(a, evens(8))
    assert shift_down(b, 2).members == (0, 1)
    assert with_horizon(a, 5).members == (0, 2, 4)


def test_dilation_union_frozen():
    # n*A spread across residues: with A = {1,2,3} and n = 2 the union of
    # 2A - q over q in {0,1} is exactly {1,...,6}; 0 does not appear.
    a = window_set(8, [1, 2, 3])
    d = dilate(a, 2)
    assert d.members == (2, 4, 6)
    b = union(d, shift_down(d, 1))
    assert b.members == (1, 2, 3, 4, 5, 6)


# ---------------------------------------------------------------------------
# Hypothesis properties.

member_sets = st.integers(min_value=8, max_value=80).flatmap(
    lambda h: st.tuples(st.just(h), st.sets(st.integers(0, h - 1))))

params_st = st.builds(
    FamilyParams,
    gap=st.integers(1, 6), block=st.integers(1, 10),
    cofinite_head=st.integers(0, 12), burnin=st.integers(1, 8),
    tail_policy=st.just(CENSORED))


@given(member_sets, member_sets)
# {0..7} on horizon 11 is strictly thickly syndetic only if block starts are
# checked tail-censored; adding member 10 must not turn the verdict off.
@example(xs=(11, set(range(8))), ys=(11, {10}))
def test_strict_monotonicity(xs, ys):
    """Adding members never hurts any family under the strict tail policy."""
    h, base = xs
    _, extra = ys
    extra = {m for m in extra if m < h}
    assume(base)
    small = window_set(h, base)
    big = window_set(h, base | extra)
    assert max_gap(big, STRICT) <= max_gap(small, STRICT)
    assert longest_block(big) >= longest_block(small)
    assert least_cofinite_head(big) <= least_cofinite_head(small)
    p = FamilyParams(burnin=1, tail_policy=STRICT)
    vs, vb = classify(small, p), classify(big, p)
    for fam in ("syndetic", "thick", "thickly_syndetic",
                "piecewise_syndetic", "cofinite"):
        assert not getattr(vs, fam) or getattr(vb, fam)


@given(member_sets, st.one_of(
    params_st, params_st.map(lambda p: replace(p, tail_policy=STRICT))))
@example(xs=(11, set(range(8))), p=FamilyParams(burnin=1, tail_policy=STRICT))
def test_thickly_syndetic_implies_syndetic_and_thick(xs, p):
    h, base = xs
    assume(base)
    a = window_set(h, base)
    assume(p.burnin <= h)
    v = classify(a, p)
    if v.thickly_syndetic:
        assert v.syndetic and v.thick


@given(member_sets, params_st)
def test_piecewise_follows_from_syndetic_or_thick(xs, p):
    h, base = xs
    assume(base)
    assume(p.burnin <= h)
    v = classify(window_set(h, base), p)
    if v.thick or (v.syndetic and h >= p.block):
        assert v.piecewise_syndetic


@given(member_sets, params_st)
def test_cofinite_coherence(xs, p):
    """Provable forms: a small head forces thickness (given room) and
    syndeticity (given the head fits under the gap bound)."""
    h, base = xs
    assume(base)
    assume(p.burnin <= h)
    v = classify(window_set(h, base), p)
    if v.cofinite and h - v.cofinite_head >= p.block:
        assert v.thick
    if v.cofinite and v.cofinite_head <= p.gap:
        assert v.syndetic


# Horizons up to 24 under co-finite bounds up to 30, so the bound often
# reaches the horizon itself.
short_sets = st.integers(min_value=1, max_value=24).flatmap(
    lambda h: st.tuples(st.just(h), st.sets(st.integers(0, h - 1))))


@given(short_sets, st.builds(
    FamilyParams, cofinite_head=st.integers(0, 30), burnin=st.just(1),
    tail_policy=st.sampled_from([CENSORED, STRICT])))
# classify-set --members 0 --horizon 8 at the default parameters.
@example(xs=(8, {0}), p=FamilyParams())
@example(xs=(4, {0, 1, 2}), p=FamilyParams(cofinite_head=4, burnin=1))
def test_cofinite_needs_a_tail_that_reaches_the_horizon(xs, p):
    """Co-finite on the window means a non-empty member tail [m, horizon)
    with m within the bound; a set that misses the last slot is never
    co-finite, even where the bound reaches past the horizon."""
    h, base = xs
    assume(p.burnin <= h)
    v = classify(window_set(h, base), p)
    if v.cofinite:
        assert h - 1 in base
        assert v.cofinite_head <= p.cofinite_head
        assert all(n in base for n in range(v.cofinite_head, h))
    if h - 1 not in base:
        assert not v.cofinite and v.cofinite_head == h
    elif any(set(range(m, h)) <= base for m in range(p.cofinite_head + 1)):
        assert v.cofinite


@given(member_sets)
def test_density_bounds_ordered(xs):
    h, base = xs
    assume(base)
    v = classify(window_set(h, base), FamilyParams(burnin=1))
    assert 0 <= v.lower_density <= v.upper_density <= 1


@given(member_sets, st.integers(1, 4))
@settings(max_examples=60)
def test_dilation_gap_bound(xs, n):
    """max_gap of union(nA - q, q < n) is at most n * max_gap(A)."""
    h, base = xs
    assume(base)
    a = window_set(h, base)
    assume(min(base) * n < h)
    d = dilate(a, n)
    b = d
    for q in range(1, n):
        b = union(b, shift_down(d, q))
    assert max_gap(b, CENSORED) <= n * max_gap(a, CENSORED)


@given(member_sets)
def test_complement_involution(xs):
    h, base = xs
    a = window_set(h, base)
    assert complement(complement(a)) == a
    assert len(a) + len(complement(a)) == h


@given(member_sets, st.integers(0, 90))
def test_count_below_matches_contains(xs, n):
    h, base = xs
    a = window_set(h, base)
    n = min(n, h)
    assert a.count_below(n) == sum(1 for m in range(n) if m in a)
