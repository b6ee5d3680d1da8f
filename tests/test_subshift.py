"""Subshift fixtures with independent oracles.

The spacing-shift fast paths (gap criterion, cross distances) are checked
against plain filler-word enumeration; the exact integer Sturmian coding is
checked against a certified rational surrogate of the rotation and against a
60-digit Decimal computation of it.  The one language search and the one
cylinder rule are checked on the Sturmian shift against the prefix scans
they replaced.
"""

import itertools
import random
from decimal import Decimal, getcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from chaoskit import budgets, setfam, subshift
from chaoskit.budgets import BudgetError
from chaoskit.setfam import WindowSet, window_set
from chaoskit.subshift import (
    FullShift, SpacingShift, SturmianShift, cylinder_hitting_set, gap_set,
    golden_spec, language, occurrence_gaps, parse_word, periodicity_probe,
    spacing_dense_periodic, dense_periodic_witness_ok, spacing_member,
    spacing_witness, sturmian_prefix,
)


def evens(h=64):
    return WindowSet(h, tuple(range(0, h, 2)))


def nonpowers(h=128):
    return setfam.from_generator("complement(powers(2))", h)


# ---------------------------------------------------------------------------
# Words.

def test_word_basics():
    assert parse_word("-") == ""
    assert parse_word("0101") == "0101"
    with pytest.raises(ValueError):
        parse_word("012")
    assert subshift.format_word("") == "-"


def test_spacing_member():
    p = evens(16)
    assert spacing_member(p, "101")        # gap 2
    assert spacing_member(p, "0000")
    assert not spacing_member(p, "11")     # gap 1
    assert not spacing_member(p, "1001")   # gap 3
    with pytest.raises(ValueError):
        spacing_member(evens(4), "10001")  # gap 4 is beyond the horizon


@pytest.mark.parametrize("word", ["1" + "0" * 69 + "11", "11" + "0" * 69 + "1"])
def test_spacing_member_is_false_on_any_decidable_miss(word):
    # Distance 1 is not in P, so the word is out whatever the undecidable
    # distances 70 and 71 are, in either order of the pairs.
    assert not spacing_member(evens(64), word)


def test_spacing_member_names_the_largest_undecidable_gap():
    # 1s at 0, 68 and 70: distance 2 is in P, and 68 and 70 are past the
    # horizon, so only the undecidable gaps are left.
    with pytest.raises(ValueError, match="^gap 70 not decidable below horizon 64$"):
        spacing_member(evens(64), "1" + "0" * 67 + "101")


# ---------------------------------------------------------------------------
# Language enumeration.

def test_language_spacing_evens_frozen():
    words = language(SpacingShift(evens(32)), 3)
    assert words == {"", "0", "1", "00", "01", "10",
                     "000", "001", "010", "100", "101"}


def test_language_full_shift_count():
    assert len(language(FullShift(), 4)) == 31      # 1+2+4+8+16


def test_language_budget():
    with pytest.raises(BudgetError):
        language(FullShift(), 4, node_budget=10)
    with pytest.raises(BudgetError):
        language(FullShift(), 17)


@pytest.mark.parametrize("max_len", [0, -1])
def test_language_rejects_no_words(max_len):
    # A small node cap makes a search that never stops at max_len fail fast.
    with mock.patch.dict(budgets.CAPS, enum_nodes=64), \
            pytest.raises(ValueError,
                          match=f"word length must be >= 1, got {max_len}"):
        language(FullShift(), max_len)


# ---------------------------------------------------------------------------
# Gap sets and cylinders against brute enumeration.

def brute_hitting(p_set, u, v, n_max):
    """Scan every admissible word of length n_max + 3 once, collecting all
    (prefix, shift, segment) coincidences; completely independent of the
    gap-criterion shortcuts."""
    length = n_max + 3
    seen = set()
    stack = [""]
    while stack:
        w = stack.pop()
        if len(w) == length:
            continue
        for c in "01":
            cand = w + c
            if spacing_member(p_set, cand):
                stack.append(cand)
                if len(cand) == length:
                    for a in range(1, 4):
                        for n in range(1, n_max + 1):
                            for b in range(1, 4):
                                seen.add((cand[:a], n, cand[n:n + b]))
    return seen


def test_cylinder_hitting_matches_brute():
    rng = random.Random("cylinder-brute")
    for _ in range(12):
        members = {m for m in range(1, 32) if rng.random() < 0.5}
        p = window_set(32, members | {1})
        oracle = SpacingShift(p)
        truth = brute_hitting(p, "", "", 8)
        words = sorted(w for w in language(oracle, 3) if w)
        for u in words:
            for v in words:
                got = cylinder_hitting_set(oracle, u, v, 8)
                expected = tuple(n for n in range(1, 9) if (u, n, v) in truth)
                assert got.members == expected, (p.members, u, v)


def test_cylinder_overlap_region_frozen():
    # u = v = 101 over the even spacing set: overlaps at even shifts only.
    got = cylinder_hitting_set(SpacingShift(evens(64)), "101", "101", 8)
    assert got.members == (2, 4, 6, 8)
    # On the full shift every shift is realizable.
    got = cylinder_hitting_set(FullShift(), "01", "10", 10)
    assert got.members == tuple(range(1, 11))


@pytest.mark.parametrize("oracle", [
    FullShift(), SpacingShift(evens(64)), SpacingShift(nonpowers(128)),
    SturmianShift(golden_spec(400))], ids=["full", "evens", "nonpowers", "sturmian"])
def test_cylinder_of_the_empty_word_starts_at_1(oracle):
    # The empty word's cylinder is the whole space, so every shift n >= 1
    # meets every cylinder of the language; n = 0 is outside {1..n_max}.
    for n_max in (0, 1, 5, 12):
        for v in sorted(language(oracle, 3)):
            assert cylinder_hitting_set(oracle, "", v, n_max).members \
                == tuple(range(1, n_max + 1)), (v, n_max)


def test_gap_set_is_shifted_p():
    """gap_set(1, 1) recovers P - 1 on the window, for every fixture."""
    for p in (evens(64), nonpowers(128), setfam.full_window(64),
              window_set(64, [1, 2, 5, 11, 29])):
        got = gap_set(SpacingShift(p), "1", "1", 32)
        expected = tuple(q - 1 for q in p.members if 1 <= q <= 33)
        assert got.members == expected


def test_gap_set_nonpowers_frozen():
    got = gap_set(SpacingShift(nonpowers(128)), "1", "1", 32)
    assert got.members == tuple(sorted(set(range(33)) - {1, 3, 7, 15, 31}))


def test_gap_set_undecidable_horizon():
    with pytest.raises(ValueError):
        gap_set(SpacingShift(evens(16)), "1", "1", 32)


@pytest.mark.parametrize("n_max", [-1, -5])
def test_gap_set_rejects_negative_horizon(n_max):
    # A window [0, n_max] with n_max < 0 is no window; it is refused before
    # any budget is charged.
    refuse = mock.Mock(side_effect=AssertionError("charged"))
    for oracle in (SpacingShift(evens(64)), FullShift(),
                   SturmianShift(golden_spec(400))):
        with mock.patch.object(subshift, "charge", refuse), \
                pytest.raises(ValueError,
                              match=f"largest filler length must be >= 0, got {n_max}"):
            gap_set(oracle, "1", "1", n_max)


def dfs_gap_set(oracle, u, v, n_max, budget=2 ** 20):
    """Brute-force gap set: depth-first over filler words, prefix-pruned,
    asking the oracle nothing but accepts."""
    visited = 0
    members = []
    for s in range(0, n_max + 1):
        stack = [u]
        found = False
        while stack and not found:
            w = stack.pop()
            if len(w) == len(u) + s:
                if oracle.accepts(w + v):
                    found = True
                continue
            for c in "01":
                visited += 1
                assert visited <= budget, "gap set enumeration budget exceeded"
                cand = w + c
                if oracle.accepts(cand):
                    stack.append(cand)
        if found:
            members.append(s)
    return WindowSet(n_max + 1, tuple(members))


def test_gap_set_generic_fallback_agrees():
    """The cross-distance kernel agrees with filler-word enumeration."""
    for members in ([1, 2, 5], [2, 4, 6, 8, 10, 12], [1, 4, 9, 16]):
        p = window_set(32, members)
        fast = gap_set(SpacingShift(p), "1", "1", 10)
        slow = dfs_gap_set(SpacingShift(p), "1", "1", 10)
        assert fast.members == slow.members


def all_pairs_gaps(p_set, u, v, n_max):
    """SpacingShift.gaps by testing every pair of 1-positions for every s."""
    u_ones, v_ones = subshift.one_positions(u), subshift.one_positions(v)
    if u_ones and v_ones:
        worst = len(u) + n_max + v_ones[-1] - u_ones[0]
        if worst >= p_set.horizon:
            raise ValueError(f"gap {worst} not decidable below horizon {p_set.horizon}")
    return WindowSet(n_max + 1, tuple(
        s for s in range(n_max + 1)
        if all(len(u) + s + j - i in p_set for i in u_ones for j in v_ones)))


def test_spacing_gaps_match_all_pairs():
    """The AND of shifted indicators equals the all-pairs test, including
    words without 1s and the undecidable-horizon error."""
    rng = random.Random(8)
    checked = errors = 0
    for _ in range(400):
        h = rng.randint(1, 80)
        p = window_set(h, (q for q in range(h) if rng.random() < rng.random()))
        u = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        n_max = rng.randint(0, 60)
        try:
            want = all_pairs_gaps(p, u, v, n_max)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                SpacingShift(p).gaps(u, v, n_max)
            errors += 1
            continue
        got = SpacingShift(p).gaps(u, v, n_max)
        assert got == want
        assert all(type(s) is int for s in got.members)
        checked += 1
    assert checked > 200 and errors > 50


# ---------------------------------------------------------------------------
# Dense periodic points in spacing shifts.

def test_witness_rule_even_spacing():
    # k = 2 works for every even p: all three progressions stay even.
    p_set = evens(256)
    for p in range(2, 65, 2):
        assert dense_periodic_witness_ok(p_set, p, 2)


def test_witness_rule_nonpowers_and_p1_exception():
    p_set = nonpowers(256)
    # Doubling rule: for p >= 2 every multiple of p keeps an odd factor.
    for p in p_set.members:
        if 2 <= p <= 64:
            assert dense_periodic_witness_ok(p_set, p, 2 * p)
    # p = 1 is the exception: k = 2 sweeps out all of N, hitting the powers.
    assert 1 in p_set
    assert not dense_periodic_witness_ok(p_set, 1, 2)
    assert dense_periodic_witness_ok(p_set, 1, 6)


def test_spacing_dense_periodic_reports():
    rep = spacing_dense_periodic(nonpowers(128))
    assert rep.passed and not rep.failures
    assert rep.witnesses[1] == 6           # ascending search skips k <= 5
    rep = spacing_dense_periodic(evens(128))
    assert rep.passed
    assert all(k == 2 for k in rep.witnesses.values())


@pytest.mark.parametrize("k_max", [0, -3])
def test_spacing_dense_periodic_rejects_no_modulus(k_max):
    # With no modulus to try, every member would fail unsearched.
    with pytest.raises(ValueError,
                       match=f"modulus bound must be >= 1, got {k_max}"):
        spacing_dense_periodic(evens(128), k_max)


def test_spacing_witness_frozen():
    p = nonpowers(32)
    w = spacing_witness("1", 3, "1", p)
    assert w.word == "10001" and not w.member          # gap 4 is a power
    w = spacing_witness("1", 4, "1", p)
    assert w.word == "100001" and w.member
    assert not w.block_start                           # 4 itself is missing
    w = spacing_witness("1", 5, "1", p)
    assert w.member and w.block_start                  # 5,6 both in P


@given(st.integers(1, 20), st.integers(0, 12))
@settings(max_examples=40)
def test_spacing_witness_block_start_sufficient(seed, k):
    """Whenever k starts a long enough run of P, the glued word is a member."""
    rng = random.Random(f"witness/{seed}")
    members = {m for m in range(1, 40) if rng.random() < 0.6}
    p = window_set(40, members | {1})
    u, v = "101", "11"
    assume(spacing_member(p, u) and spacing_member(p, v))
    w = spacing_witness(u, k, v, p)
    if w.block_start:
        assert w.member


# ---------------------------------------------------------------------------
# Sturmian coding, against a certified rational surrogate and a Decimal oracle.

def decimal_prefix(n):
    getcontext().prec = 60
    alpha = (Decimal(5).sqrt() - 1) / 2
    out = []
    for i in range(n):
        frac = (i * alpha) % 1
        out.append("1" if frac >= 1 - alpha else "0")
    return "".join(out)


def surrogate_prefix(length):
    """The coding from a Fibonacci convergent a/b of alpha, |alpha - a/b| <
    1/b^2, with every symbol certified: frac(n*a/b) must stay more than
    (n+1)/b^2 away from the coding boundaries 1 - a/b and 0."""
    a, b = 1, 1
    while b < 4 * length ** 2:
        a, b = b, a + b
    ulp = Fraction(1, b * b)
    threshold = b - a   # frac(n*a/b) >= 1 - a/b  <=>  (n*a mod b) >= b - a
    out = []
    for n in range(length):
        r = (n * a) % b
        if n:
            margin = min(abs(r - threshold), r, b - r)
            assert Fraction(margin, b) > (n + 1) * ulp, n
        out.append("1" if r >= threshold else "0")
    return "".join(out)


def test_sturmian_first_symbols_frozen():
    assert sturmian_prefix(golden_spec(8)) == "01011010"


@pytest.mark.parametrize("length", [1, 2, 3, 55, 89, 400, 1597, 4181, 10_000])
def test_sturmian_matches_certified_surrogate(length):
    assert sturmian_prefix(golden_spec(length)) == surrogate_prefix(length)


def test_sturmian_matches_decimal_oracle():
    assert sturmian_prefix(golden_spec(10_000)) == decimal_prefix(10_000)


def test_factor_complexity_small():
    oracle = SturmianShift(golden_spec(2000))
    lang = language(oracle, 8)
    for n in range(1, 9):
        assert sum(1 for w in lang if len(w) == n) == n + 1


def test_occurrences_match_decimal_prefix():
    spec = golden_spec(400)
    ref = decimal_prefix(400)
    for w in ("0", "10", "010", "0110"):
        occ = occurrence_gaps(spec, w)
        expected = tuple(i for i in range(len(ref) - len(w) + 1)
                         if ref.startswith(w, i))
        assert occ.members == expected


def test_sturmian_hitting_sets_match_prefix_scan():
    """The cylinder rule and the Sturmian gap kernel agree with a direct scan
    of the Decimal prefix."""
    spec = golden_spec(400)
    ref = decimal_prefix(400)
    oracle = SturmianShift(spec)

    def meets(u, v, n):
        return any(ref.startswith(u, p) and ref.startswith(v, p + n)
                   for p in range(len(ref)))

    words = sorted(w for w in language(oracle, 3) if w)
    for u in words:
        for v in words:
            assert cylinder_hitting_set(oracle, u, v, 12).members == tuple(
                n for n in range(1, 13) if meets(u, v, n)), (u, v)
            assert gap_set(oracle, u, v, 12).members == tuple(
                s for s in range(13) if meets(u, v, len(u) + s)), (u, v)


def test_periodicity_probe():
    # No short word powers occur in the rotation coding...
    assert not periodicity_probe(SturmianShift(golden_spec(400)), 6, 8)
    # ...but spacing shifts always carry them (all-zero word, and for the
    # even fixture also the 2-periodic word 10).
    ev = SpacingShift(evens(64))
    assert periodicity_probe(ev, 2, 8)
    assert ev.accepts("10" * 8)


def test_sturmian_word_budget():
    oracle = SturmianShift(golden_spec(100))
    with pytest.raises(BudgetError):
        oracle.accepts("0" * 26)
    with pytest.raises(BudgetError):
        occurrence_gaps(oracle.spec, "01" * 20)
    with pytest.raises(ValueError, match="^empty word: nothing to locate$"):
        occurrence_gaps(oracle.spec, "")
    # The search asks accepts for a word of length 6 > 20 // 4.
    with pytest.raises(BudgetError, match="word too long for the prefix"):
        language(SturmianShift(golden_spec(20)), 8)


# ---------------------------------------------------------------------------
# The Sturmian prefix scans and the zero-filling merge that the generic
# language search and cylinder rule replaced, kept as oracles.

def prefix_scan_language(prefix, max_len):
    """Every factor of the prefix of length <= max_len, the empty word too."""
    return {prefix[i:i + n] for n in range(max_len + 1)
            for i in range(len(prefix) - n + 1)}


@pytest.mark.parametrize("prefix_len", [100, 2000, 10_000])
def test_language_matches_prefix_scan(prefix_len):
    oracle = SturmianShift(golden_spec(prefix_len))
    prefix = sturmian_prefix(oracle.spec)
    for max_len in range(1, min(12, prefix_len // 4) + 1):
        assert language(oracle, max_len) == prefix_scan_language(prefix, max_len)


def offsets_kernel(prefix_len, occ_u, occ_v, first, last):
    """n in [first, last] such that u occurs at some p and v at p + n, by
    v's occurrence indicator read at every start of u."""
    occ_u = np.array(occ_u, dtype=np.intp)
    at_v = np.zeros(prefix_len + last + 1, dtype=bool)
    at_v[occ_v] = True
    return tuple(n for n in range(first, last + 1) if at_v[occ_u + n].any())


def test_cylinder_and_gap_sets_match_offsets_kernel():
    """Every pair of Sturmian words of length <= 4, overlaps n < |u| and
    windows shorter than u included."""
    oracle = SturmianShift(golden_spec(2000))
    prefix = sturmian_prefix(oracle.spec)
    words = sorted(w for w in language(oracle, 4) if w)
    occ = {w: [i for i in range(len(prefix)) if prefix.startswith(w, i)]
           for w in words}
    for u in words:
        for v in words:
            for n_max in (1, 2, 3, 64):
                assert cylinder_hitting_set(oracle, u, v, n_max).members \
                    == offsets_kernel(len(prefix), occ[u], occ[v], 1, n_max)
            assert gap_set(oracle, u, v, 64).members == tuple(
                n - len(u) for n in offsets_kernel(
                    len(prefix), occ[u], occ[v], len(u), len(u) + 64))


def zero_filled_merge(u, v, n):
    """Word pinned by u at 0 and v at n, free slots filled with 0."""
    slots = [None] * max(len(u), n + len(v))
    for i, c in enumerate(u):
        slots[i] = c
    for j, c in enumerate(v):
        if slots[n + j] is not None and slots[n + j] != c:
            return None
        slots[n + j] = c
    return "".join(c if c is not None else "0" for c in slots)


def test_merged_word_matches_zero_filled_merge():
    words = [format(i, f"0{k}b") if k else "" for k in range(5)
             for i in range(2 ** k)]
    for u in words:
        for v in words:
            for n in range(1, len(u)):
                assert subshift._merged_word(u, v, n) \
                    == zero_filled_merge(u, v, n), (u, v, n)


# ---------------------------------------------------------------------------
# Transitivity survey panels.

def test_transitivity_report_evens():
    rep = subshift.fs_transitivity_report(
        SpacingShift(evens(128)), 3, 64,
        setfam.FamilyParams(gap=2, block=8, cofinite_head=8, burnin=8))
    assert rep.all_syndetic
    assert not rep.all_thick
    assert not rep.all_cofinite
    assert rep.p_verdict is not None and not rep.p_verdict.thick
    # Rows with an empty u or v never appear: only non-empty words pair up.
    assert all(r.u and r.v for r in rep.rows)


def test_transitivity_report_mixing_iff_cofinite():
    params = setfam.FamilyParams(gap=2, block=8, cofinite_head=8, burnin=8)
    fixtures = [
        setfam.full_window(128),
        window_set(128, set(range(1, 128)) - {3}),
        evens(128),
        nonpowers(128),
    ]
    for p in fixtures:
        rep = subshift.fs_transitivity_report(SpacingShift(p), 2, 64, params)
        assert rep.all_cofinite == rep.p_verdict.cofinite


@pytest.mark.parametrize("word_len", [0, -1])
def test_transitivity_report_rejects_no_words(word_len):
    # Zero words make zero pairs, and every all_* panel would hold vacuously.
    for oracle in (SpacingShift(evens(128)), FullShift()):
        with pytest.raises(ValueError,
                           match=f"word length must be >= 1, got {word_len}"):
            subshift.fs_transitivity_report(oracle, word_len, 8, REPORT_PARAMS)


@pytest.mark.parametrize("word_len, n_max, burnin, message", [
    # u = 1000 and v = 0001 put their 1s 2 * 4 - 1 + 60 = 67 apart.
    (4, 60, 8, "word length 4 and largest filler length 60 need gap 67, "
               "not decidable below horizon 64"),
    # Every gap set has horizon n_max + 1, below P's once the widest gap is.
    (2, 6, 8, "burnin 8 exceeds horizon 7"),
])
def test_transitivity_report_checks_before_any_gap_set(
        monkeypatch, word_len, n_max, burnin, message):
    def refuse(self, u, v, n_max):
        raise AssertionError("a gap set was built before the checks")

    monkeypatch.setattr(SpacingShift, "gaps", refuse)
    params = setfam.FamilyParams(burnin=burnin)
    with pytest.raises(ValueError, match=message):
        subshift.fs_transitivity_report(SpacingShift(evens(64)), word_len,
                                        n_max, params)


# ---------------------------------------------------------------------------
# The report decides each distinct set once; the per-pair loop is its oracle.

REPORT_PARAMS = setfam.FamilyParams(gap=2, block=8, cofinite_head=8, burnin=8)


def per_pair_rows(oracle, word_len, n_max, params):
    """(u, v, gap set, verdict) of every ordered pair of non-empty words, one
    gap_set and one classify per pair: the loop the report replaced."""
    words = sorted(w for w in language(oracle, word_len) if w)
    rows = []
    for u in words:
        for v in words:
            g = gap_set(oracle, u, v, n_max)
            rows.append((u, v, g, setfam.classify(g, params)))
    return rows


def report_shifts():
    rng = random.Random(17)
    member_list = window_set(128, [q for q in range(1, 128) if rng.random() < 0.7]
                             + [1, 2, 3])
    return {
        "evens": SpacingShift(evens(128)),
        "nonpowers": SpacingShift(nonpowers(128)),
        "cofinite": SpacingShift(window_set(128, [1, 2, 4] + list(range(6, 128)))),
        "member_list": SpacingShift(member_list),
        "full": FullShift(),
    }


@pytest.mark.parametrize("word_len", [4, 6])
@pytest.mark.parametrize("name", ["evens", "nonpowers", "cofinite", "member_list", "full"])
def test_transitivity_report_matches_per_pair_loop(monkeypatch, name, word_len):
    oracle = report_shifts()[name]
    n_max = 64
    want = per_pair_rows(oracle, word_len, n_max, REPORT_PARAMS)
    calls = {"gap_set": 0, "classify": 0}
    for module, fn in ((subshift, "gap_set"), (setfam, "classify")):
        monkeypatch.setattr(module, fn, lambda *a, f=getattr(module, fn), fn=fn:
                            calls.__setitem__(fn, calls[fn] + 1) or f(*a))
    reports, counts = [], []
    for _ in range(2):
        calls.update(gap_set=0, classify=0)
        reports.append(subshift.fs_transitivity_report(oracle, word_len, n_max, REPORT_PARAMS))
        counts.append(dict(calls))
    # No memo outlives the call: a second report does the same work.
    rep, calls = reports[0], counts[0]
    assert reports[1] == rep and counts[1] == calls
    assert [(r.u, r.v, r.gaps, r.verdict) for r in rep.rows] == want
    assert rep.all_syndetic == all(v.syndetic for *_, v in want)
    assert rep.all_thick == all(v.thick for *_, v in want)
    assert rep.all_thickly_syndetic == all(v.thickly_syndetic for *_, v in want)
    assert rep.all_cofinite == all(v.cofinite for *_, v in want)
    # gap_set runs once per distinct cross-distance set on a spacing shift and
    # once per pair otherwise; classify once per distinct set (plus P itself).
    if oracle.p_set is None:
        assert calls["gap_set"] == len(want)
    else:
        distances = {subshift._cross_distances(u, v) for u, v, *_ in want}
        assert calls["gap_set"] == len(distances) < len(want)
    sets = {g for _, _, g, _ in want}
    assert calls["classify"] == len(sets) + (oracle.p_set is not None)


def shared_cross_distance_classes(max_len=5):
    """The word pairs (lengths 1..max_len) grouped by cross-distance set,
    keeping the groups of two or more pairs."""
    words = ["".join(t) for n in range(1, max_len + 1)
             for t in itertools.product("01", repeat=n)]
    classes = {}
    for u, v in itertools.product(words, repeat=2):
        classes.setdefault(subshift._cross_distances(u, v), []).append((u, v))
    return sorted((pairs for pairs in classes.values() if len(pairs) > 1),
                  key=lambda pairs: pairs[0])


SHARED_CLASSES = shared_cross_distance_classes()


def gaps_or_error(f):
    try:
        return f()
    except ValueError as exc:
        return str(exc)


@given(st.data(), st.integers(1, 40), st.integers(0, 30))
@settings(max_examples=300, deadline=None)
def test_equal_cross_distances_give_equal_gap_sets(data, horizon, n_max):
    """Two word pairs with one cross-distance set have one gap set, or both
    raise the same horizon error, so the report may key gap_set by it."""
    pairs = data.draw(st.sampled_from(SHARED_CLASSES))
    (u1, v1), (u2, v2) = data.draw(st.lists(st.sampled_from(pairs), min_size=2,
                                            max_size=2, unique=True))
    members = data.draw(st.sets(st.integers(1, horizon - 1))) if horizon > 1 else set()
    shift = SpacingShift(window_set(horizon, members))
    assert gaps_or_error(lambda: shift.gaps(u1, v1, n_max)) \
        == gaps_or_error(lambda: shift.gaps(u2, v2, n_max))
    if all(gaps_or_error(lambda w=w: shift.accepts(w)) is True for w in (u1, v1, u2, v2)):
        assert gaps_or_error(lambda: gap_set(shift, u1, v1, n_max)) \
            == gaps_or_error(lambda: gap_set(shift, u2, v2, n_max))
