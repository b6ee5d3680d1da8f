"""Binary subshifts at desk scale: spacing shifts, Sturmian words, languages.

Words are plain str over the alphabet {'0','1'}; the empty word is allowed
and spelled '-' in text interfaces.

A spacing shift is the set of 0/1 sequences whose 1-positions have all
pairwise differences inside a prescribed set P of positive integers.  On a
window, P is a WindowSet and a gap can only be decided when it is below the
horizon of P; otherwise a horizon error is raised rather than guessed.

A Sturmian word is coded from an irrational rotation: x_n = 1 iff
frac(n*alpha) lies in [1-alpha, 1), that is iff floor((n+1)*alpha) -
floor(n*alpha) = 1.  For the golden rotation alpha = (sqrt(5)-1)/2 the floors
are integer square roots, so every symbol is exact and nothing is approximated.

Each shift is a subclass of Shift that defines accepts(w) (the factor test)
and gaps(u, v, n_max) (its gap-set kernel).  The language, gap sets and
cylinder hitting sets of every shift come from the module functions over
those two methods, so the survey code needs no change for a new shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from . import setfam
from .budgets import BudgetError, cap, charge
from .setfam import FamilyParams, FamilyVerdict, WindowSet

EMPTY_WORD_TEXT = "-"


def check_word(w: str) -> str:
    if any(c not in "01" for c in w):
        raise ValueError(f"word must be over alphabet 0/1, got {w!r}")
    return w


def parse_word(text: str) -> str:
    """Parse the text spelling of a word ('-' is the empty word)."""
    if text == EMPTY_WORD_TEXT:
        return ""
    return check_word(text)


def format_word(w: str) -> str:
    return w if w else EMPTY_WORD_TEXT


def one_positions(w: str) -> list[int]:
    return [i for i, c in enumerate(w) if c == "1"]


def spacing_member(p_set: WindowSet, w: str) -> bool:
    """Gap criterion: every pairwise distance of 1-positions must lie in P.

    Raises a horizon error when some pairwise distance is >= P.horizon, since
    the window cannot decide such a gap.
    """
    check_word(w)
    ones = one_positions(w)
    for a_idx in range(len(ones)):
        for b_idx in range(a_idx + 1, len(ones)):
            g = ones[b_idx] - ones[a_idx]
            if g >= p_set.horizon:
                raise ValueError(
                    f"gap {g} not decidable below horizon {p_set.horizon}")
            if g not in p_set:
                return False
    return True


def _cross_distances(u: str, v: str) -> frozenset[int]:
    """D = {|u| + j - i : u_i = v_j = 1}: the distances from each 1 of u to
    each 1 of v when v starts right after u."""
    v_ones = one_positions(v)
    return frozenset(len(u) + j - i for i in one_positions(u) for j in v_ones)


class Shift:
    """A binary subshift, known through accepts(w) and gaps(u, v, n_max),
    the two methods a subclass defines.  The module functions language,
    gap_set and cylinder_hitting_set check the words, charge the budgets and
    hold the one rule each that every shift shares."""

    p_set: WindowSet | None = None  # the defining set of a spacing shift


class FullShift(Shift):
    """Every binary sequence; the language is all words."""

    def accepts(self, w: str) -> bool:
        check_word(w)
        return True

    def gaps(self, u: str, v: str, n_max: int) -> WindowSet:
        return setfam.full_window(n_max + 1)


class SpacingShift(Shift):
    """Sequences whose 1-positions have pairwise differences in P."""

    def __init__(self, p_set: WindowSet):
        self.p_set = p_set
        self._in_p = np.zeros(p_set.horizon, dtype=bool)   # P's indicator
        self._in_p[list(p_set.members)] = True

    def accepts(self, w: str) -> bool:
        return spacing_member(self.p_set, w)

    def gaps(self, u: str, v: str, n_max: int) -> WindowSet:
        """The gap criterion on the cross distances D of u and v, with no
        word enumeration; the all-zero filler word witnesses admissibility.
        u 0^s v passes iff d + s is in P for every d in D, so the members are
        the AND of one shifted indicator of P per d, and the widest gap is
        max(D) + n_max.  The result depends on u and v only through D."""
        cross = _cross_distances(u, v)
        if cross:
            worst = max(cross) + n_max
            if worst >= self.p_set.horizon:
                raise ValueError(
                    f"gap {worst} not decidable below horizon {self.p_set.horizon}")
        ok = np.ones(n_max + 1, dtype=bool)
        for d in cross:
            ok &= self._in_p[d:d + n_max + 1]
        return WindowSet._trusted(n_max + 1, tuple(np.flatnonzero(ok).tolist()))


@dataclass(frozen=True)
class SturmianSpec:
    """The golden rotation coding, observed on its first prefix_len symbols."""

    prefix_len: int

    def __post_init__(self) -> None:
        if self.prefix_len < 1:
            raise ValueError("prefix_len must be >= 1")
        limit = cap("prefix_len")
        if self.prefix_len > limit:
            raise BudgetError(f"prefix_len budget exceeded: "
                              f"{self.prefix_len} > {limit}")


def golden_spec(prefix_len: int) -> SturmianSpec:
    """The coding of alpha = (sqrt(5)-1)/2 over prefix_len symbols."""
    return SturmianSpec(prefix_len)


def _check_prefix_word(spec: SturmianSpec, w: str) -> None:
    """check_word, then BudgetError for a word over a quarter of the prefix."""
    check_word(w)
    if len(w) > spec.prefix_len // 4:
        raise BudgetError("word too long for the prefix")


def _floor_alpha(k: int) -> int:
    """floor(k * (sqrt(5)-1)/2) for k >= 0, in integers: floor(x/2) =
    floor(floor(x)/2) and floor(k*sqrt(5)) = isqrt(5k^2)."""
    return (isqrt(5 * k * k) - k) // 2


@lru_cache(maxsize=8)
def sturmian_prefix(spec: SturmianSpec) -> str:
    """x_0 .. x_{prefix_len-1} of the mechanical word of the golden rotation."""
    floors = [_floor_alpha(k) for k in range(spec.prefix_len + 1)]
    return "".join("01"[b - a] for a, b in zip(floors, floors[1:]))


class SturmianShift(Shift):
    """Orbit closure of the coded rotation, observed through a finite prefix.

    accepts(w) means w occurs in the prefix; this is exact for the true
    Sturmian language up to the usual finite-window caveat (factors
    recur with bounded gaps, so a 10^4 prefix sees every short factor).
    Both methods read the prefix directly.
    """

    def __init__(self, spec: SturmianSpec):
        self.spec = spec
        self._prefix = sturmian_prefix(spec)

    def accepts(self, w: str) -> bool:
        _check_prefix_word(self.spec, w)
        return w in self._prefix

    def gaps(self, u: str, v: str, n_max: int) -> WindowSet:
        """s in [0, n_max] such that u occurs at some p and v at p + |u| + s;
        each s reads v's occurrence indicator at every end of u at once."""
        ends = np.array(_occurrences(self._prefix, u), dtype=np.intp) + len(u)
        at_v = np.zeros(len(self._prefix) + n_max + 1, dtype=bool)
        at_v[_occurrences(self._prefix, v)] = True
        return WindowSet._trusted(n_max + 1, tuple(
            s for s in range(n_max + 1) if at_v[ends + s].any()))


def language(oracle, max_len: int, node_budget: int | None = None) -> set[str]:
    """All accepted words of length <= max_len, including the empty word, by
    depth-first search over accepts.  Subshift languages are factor-closed,
    hence prefix-closed, so rejected prefixes never extend."""
    charge("word_len", max_len)
    budget = cap("enum_nodes") if node_budget is None else node_budget
    visited = 0
    out = {""}
    stack = [""]
    while stack:
        w = stack.pop()
        if len(w) == max_len:
            continue
        for c in "01":
            visited += 1
            if visited > budget:
                raise BudgetError(f"language enumeration exceeded {budget} nodes")
            cand = w + c
            if oracle.accepts(cand):
                out.add(cand)
                stack.append(cand)
    return out


def _require_in_language(oracle, *words: str) -> None:
    for w in words:
        if w and not oracle.accepts(w):
            raise ValueError(f"word {format_word(w)} is not in the language")


def gap_set(oracle, u: str, v: str, n_max: int) -> WindowSet:
    """{|w| <= n_max : u w v is in the language}, as a WindowSet."""
    check_word(u), check_word(v)
    charge("iter_steps", n_max)
    _require_in_language(oracle, u, v)
    return oracle.gaps(u, v, n_max)


def _occurrences(text: str, w: str) -> list[int]:
    if w == "":
        return list(range(len(text) + 1))
    out = []
    i = text.find(w)
    while i != -1:
        out.append(i)
        i = text.find(w, i + 1)
    return out


def _merged_word(u: str, v: str, n: int) -> str | None:
    """Word pinned by u at 0 and v at 0 < n < |u|, None if the overlap
    conflicts; the two blocks cover every slot, so no slot is free."""
    k = min(len(u) - n, len(v))
    if u[n:n + k] != v[:k]:
        return None
    return u[:n] + v + u[n + len(v):]


def cylinder_hitting_set(oracle, u: str, v: str, n_max: int) -> WindowSet:
    """{1 <= n <= n_max : shift^n(cylinder u) meets cylinder v}.

    For n < |u| the pinned blocks overlap and the merged word decides;
    for n >= |u| they do not, and membership reduces to the gap set."""
    check_word(u), check_word(v)
    _require_in_language(oracle, u, v)
    members = []
    for n in range(1, min(len(u), n_max + 1)):
        merged = _merged_word(u, v, n)
        if merged is not None and oracle.accepts(merged):
            members.append(n)
    if n_max >= len(u):
        gaps = gap_set(oracle, u, v, n_max - len(u))
        members += [len(u) + s for s in gaps.members]
    return WindowSet(n_max + 1, tuple(members))


# ---------------------------------------------------------------------------
# Transitivity survey over all short cylinder pairs.

@dataclass(frozen=True)
class PairRow:
    u: str
    v: str
    gaps: WindowSet
    verdict: FamilyVerdict


@dataclass(frozen=True)
class TransitivityReport:
    rows: tuple[PairRow, ...]
    all_syndetic: bool
    all_thick: bool
    all_thickly_syndetic: bool
    all_cofinite: bool
    # For spacing shifts only: the defining set's own verdict, so reports can
    # show the necessity panel (P syndetic) next to the sufficiency panel
    # (P thickly syndetic) without asserting the open equivalence.
    p_verdict: FamilyVerdict | None = None


def check_transitivity_report(oracle, word_len: int, n_max: int,
                              params: FamilyParams) -> None:
    """fs_transitivity_report's checks, made before any work: ValueError
    unless word_len >= 1, params can classify every gap set (horizon n_max
    + 1) and P, and every gap a spacing survey meets is below P's horizon."""
    if word_len < 1:
        raise ValueError(f"word_len must be >= 1, got {word_len}")
    p = oracle.p_set
    if p is not None:
        # u = 1 0^(w-1) and v = 0^(w-1) 1 are in every spacing language,
        # and u 0^n_max v puts their 1s 2w - 1 + n_max apart.
        widest = 2 * word_len - 1 + n_max
        if widest >= p.horizon:
            raise ValueError(
                f"word-len {word_len} and n-max {n_max} need gap "
                f"{widest}, not decidable below horizon {p.horizon}")
    # A gap set's horizon n_max + 1 is at most the widest gap, below P's.
    params.check_horizon(n_max + 1)


def fs_transitivity_report(oracle, word_len: int, n_max: int,
                           params: FamilyParams) -> TransitivityReport:
    """Classify gap_set(u, v) for every ordered pair of short language words.

    Each distinct set is built and classified once per call.  A spacing
    shift's gap set depends on u and v only through their cross distances,
    so gap_set runs once per distinct distance set; other shifts run it once
    per pair."""
    check_transitivity_report(oracle, word_len, n_max, params)
    words = sorted(w for w in language(oracle, word_len) if w)
    verdict = setfam.classifier(params)
    by_key: dict = {}
    rows = []
    for u in words:
        for v in words:
            key = (u, v) if oracle.p_set is None else _cross_distances(u, v)
            g = by_key.get(key)
            if g is None:
                g = by_key[key] = gap_set(oracle, u, v, n_max)
            rows.append(PairRow(u, v, g, verdict(g)))
    p_verdict = None
    if oracle.p_set is not None:
        p_verdict = setfam.classify(oracle.p_set, params)
    return TransitivityReport(
        rows=tuple(rows),
        **{f"all_{flag}": all(getattr(r.verdict, flag) for r in rows)
           for flag in setfam.FAMILIES.values()},
        p_verdict=p_verdict,
    )


# ---------------------------------------------------------------------------
# Dense periodic points for spacing shifts.

def dense_periodic_witness_ok(p_set: WindowSet, p: int, k: int) -> bool:
    """Check kN ∪ (kN+p) ∪ (kN-p), restricted to [1, horizon), lies in P."""
    if k < 1 or p < 1:
        raise ValueError("p and k must be positive")
    for m in range(1, (p_set.horizon + p) // k + 2):
        for t in (m * k, m * k + p, m * k - p):
            if 1 <= t < p_set.horizon and t not in p_set:
                return False
    return True


@dataclass(frozen=True)
class DensePeriodicReport:
    passed: bool
    witnesses: dict[int, int]
    failures: tuple[int, ...]
    skipped: tuple[int, ...]
    k_max: int


K_MAX = 128   # default modulus bound of spacing_dense_periodic


def spacing_dense_periodic(p_set: WindowSet, k_max: int = K_MAX) -> DensePeriodicReport:
    """Search, for every p in P with p <= horizon/4, a modulus k <= k_max whose
    three arithmetic progressions stay inside P on the window.

    Tested p are capped at horizon/4 so the progressions are observed over a
    meaningful stretch; larger members are reported as skipped.
    """
    witnesses: dict[int, int] = {}
    failures = []
    skipped = []
    for p in p_set.members:
        if p < 1:
            continue
        if p > p_set.horizon // 4:
            skipped.append(p)
            continue
        for k in range(1, k_max + 1):
            if dense_periodic_witness_ok(p_set, p, k):
                witnesses[p] = k
                break
        else:
            failures.append(p)
    return DensePeriodicReport(
        passed=not failures, witnesses=witnesses,
        failures=tuple(failures), skipped=tuple(skipped), k_max=k_max,
    )


@dataclass(frozen=True)
class SpacingWitness:
    word: str
    member: bool
    k: int
    block_start: bool  # k starts a (|u|+|v|)-block of P


def spacing_witness(u: str, k: int, v: str, p_set: WindowSet) -> SpacingWitness:
    """Build z = u 0^k v and verify membership by the gap criterion.

    When k is the start of a (|u|+|v|)-block of P, every cross distance falls
    inside that block and membership is guaranteed; the report records whether
    that sufficient condition held.
    """
    check_word(u), check_word(v)
    if k < 0:
        raise ValueError("k must be >= 0")
    word = u + "0" * k + v
    need = len(u) + len(v)
    block = all(k + t in p_set for t in range(need)) if k + need - 1 < p_set.horizon else False
    return SpacingWitness(
        word=word,
        member=spacing_member(p_set, word),
        k=k,
        block_start=block,
    )


# ---------------------------------------------------------------------------
# Occurrence statistics and periodicity probe.

def occurrence_gaps(spec: SturmianSpec, w: str) -> WindowSet:
    """Start positions of w in the prefix, as a WindowSet."""
    _check_prefix_word(spec, w)
    if not w:
        raise ValueError("occurrence_gaps needs a non-empty word")
    prefix = sturmian_prefix(spec)
    return WindowSet._trusted(len(prefix) - len(w) + 1,
                              tuple(_occurrences(prefix, w)))


def periodicity_probe(oracle, max_len: int, power: int) -> bool:
    """True iff some non-empty word w with |w| <= max_len has w^power accepted."""
    if power < 2:
        raise ValueError("power must be >= 2")
    for w in sorted(language(oracle, max_len)):
        if not w:
            continue
        try:
            if oracle.accepts(w * power):
                return True
        except ValueError:
            # Undecidable gap at this horizon: treat as not witnessed.
            continue
    return False
