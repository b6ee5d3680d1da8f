"""Finite-window combinatorics for subsets of the natural numbers.

A WindowSet is the observable part A ∩ [0, N) of a set of non-negative
integers, together with the horizon N.  Family membership questions that are
asymptotic for infinite sets (syndetic: bounded gaps; thick: arbitrarily long
blocks; thickly/piecewise syndetic; co-finite; positive density) are decided
here against explicit surrogate parameters, and every verdict carries the
witness that produced it:

  syndetic(g)          max gap <= g, where gaps are the leading gap a_1 and
                       the successive differences; the trailing gap
                       (horizon - a_k) is censored by default because the
                       window cannot see past the horizon
  thick(L)             some run of L consecutive members
  thickly syndetic     for every block length n <= L the set of n-block
                       start positions is syndetic with gap <= g
  piecewise syndetic   a g-linked stretch of members spanning >= L (or thick,
                       or syndetic with the whole window as the block)
  cofinite(m)          [m, horizon) is contained in the set and holds the
                       last slot horizon - 1
  density              min/max of |A ∩ [0, n)| / n over n in [burnin, horizon]

Sets "over N" (positive integers) are embedded by simply not listing 0; no
verdict here gives special meaning to membership of 0.  The empty set is
classified as belonging to none of the families.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable

from .budgets import charge

CENSORED = "censored"
STRICT = "strict"

# The families the chaos is indexed by, in report order: survey name ->
# the FamilyVerdict flag that decides membership.
FAMILIES = {"Fs": "syndetic", "Ft": "thick", "Fts": "thickly_syndetic",
            "Fcf": "cofinite"}
# Every FamilyVerdict flag, in the order tags() lists them.
TAGS = ("syndetic", "thick", "thickly_syndetic", "piecewise_syndetic", "cofinite")


@dataclass(frozen=True)
class WindowSet:
    """A subset of [0, horizon), members stored strictly ascending."""

    horizon: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        prev = -1
        for m in self.members:
            if not isinstance(m, int):
                raise ValueError(f"member {m!r} is not an integer")
            if m <= prev:
                raise ValueError("members must be strictly ascending without duplicates")
            if not 0 <= m < self.horizon:
                raise ValueError(f"member {m} outside [0, {self.horizon})")
            prev = m

    @classmethod
    def _trusted(cls, horizon: int, members: tuple[int, ...]) -> "WindowSet":
        """A set an engine built itself, members already ascending ints in
        [0, horizon): nothing is re-checked."""
        ws = object.__new__(cls)
        object.__setattr__(ws, "horizon", horizon)
        object.__setattr__(ws, "members", members)
        return ws

    def __contains__(self, n: int) -> bool:
        i = bisect_left(self.members, n)
        return i < len(self.members) and self.members[i] == n

    def __len__(self) -> int:
        return len(self.members)

    def count_below(self, n: int) -> int:
        """|A ∩ [0, n)|."""
        return bisect_left(self.members, n)


def window_set(horizon: int, members: Iterable[int]) -> WindowSet:
    """Normalizing constructor: sorts, deduplicates, validates."""
    return WindowSet(horizon, tuple(sorted(set(members))))


def full_window(horizon: int) -> WindowSet:
    return WindowSet(horizon, tuple(range(horizon)))


@dataclass(frozen=True)
class FamilyParams:
    """Surrogate thresholds for the family checks.

    gap: syndeticity bound g >= 1.
    block: thickness length L >= 1 (also the block budget for the thickly /
        piecewise checks).
    cofinite_head: largest admissible head m >= 0 for the co-finite check.
    burnin: density estimates use prefixes of length >= burnin (>= 1).
    tail_policy: 'censored' (default) ignores the trailing gap at the horizon;
        'strict' counts it.
    """

    gap: int = 2
    block: int = 8
    cofinite_head: int = 8
    burnin: int = 8
    tail_policy: str = CENSORED

    def __post_init__(self) -> None:
        if self.gap < 1:
            raise ValueError("gap must be >= 1")
        if self.block < 1:
            raise ValueError("block must be >= 1")
        if self.cofinite_head < 0:
            raise ValueError("co-finite head must be >= 0")
        if self.burnin < 1:
            raise ValueError("burnin must be >= 1")
        if self.tail_policy not in (CENSORED, STRICT):
            raise ValueError(f"tail policy must be censored|strict, got {self.tail_policy!r}")

    def check_horizon(self, horizon: int) -> None:
        """ValueError unless a set on this horizon can be classified."""
        if self.burnin > horizon:
            raise ValueError(f"burnin {self.burnin} exceeds horizon {horizon}")


@dataclass(frozen=True)
class FamilyVerdict:
    """Window-scoped family classification with witnesses.

    max_gap is None exactly when the set is empty.  cofinite_head is the least
    m with [m, horizon) contained in the set (horizon when the last point is
    missing, and then cofinite is false at any bound).  Densities are exact
    rationals.
    """

    horizon: int
    syndetic: bool
    max_gap: int | None
    thick: bool
    longest_block: int
    thickly_syndetic: bool
    piecewise_syndetic: bool
    cofinite: bool
    cofinite_head: int
    lower_density: Fraction
    upper_density: Fraction

    def tags(self) -> tuple[str, ...]:
        return tuple(t for t in TAGS if getattr(self, t))


def _runs(a: WindowSet) -> list[tuple[int, int]]:
    """Maximal runs of consecutive members, as (start, end) with end exclusive."""
    m = a.members
    if not m:
        return []
    cuts = [i for i in range(1, len(m)) if m[i] != m[i - 1] + 1]
    return [(m[i], m[j - 1] + 1) for i, j in zip([0] + cuts, cuts + [len(m)])]


def _thickly_syndetic(runs: list[tuple[int, int]], horizon: int,
                      p: FamilyParams) -> bool:
    # The n-block starts of a run [s, e) are s .. e - n, on the window
    # [0, horizon - n + 1); inside a run they are 1 apart, so their gaps are
    # the first start, the jumps between runs of length >= n and the tail.
    # Block-start gaps follow the tail policy, as the syndetic check does:
    # the starts of 1-blocks are the members themselves, so a censored check
    # here could pass a set that fails strict syndeticity.
    #
    # One pass decides every n <= L: a run [s, e) of length l takes part at
    # each n <= k = min(l, L), and its gap from the nearest earlier run
    # [s', e') of length >= n, s - e' + n, only grows with n (e' can only move
    # back).  So its gap at level k bounds all the others; when no earlier
    # run reaches k, its leading gap s does (s - e' + n <= s as e' >= n).  A
    # stack of (level, end) with strictly falling levels finds that run; the
    # strict tail gap grows with n too, so it is read at level L.
    if not runs or max([e - s for s, e in runs]) < p.block:
        return False
    stack: list[tuple[int, int]] = []
    for s, e in runs:
        k = min(e - s, p.block)
        while stack and stack[-1][0] < k:
            stack.pop()
        if (s - stack[-1][1] + k if stack else s) > p.gap:
            return False
        if stack and stack[-1][0] == k:
            stack.pop()
        stack.append((k, e))
    # The bottom of the stack is the last run that reaches level L.
    return p.tail_policy != STRICT or horizon + 1 - stack[0][1] <= p.gap


def classify(a: WindowSet, p: FamilyParams) -> FamilyVerdict:
    """Classify a window set against all families at the given parameters.

    Every verdict is read from the maximal runs of consecutive members, which
    are built in one pass: successive differences are 1 inside a run and
    s' - e + 1 from a run [s, e) to the next one [s', e')."""
    p.check_horizon(a.horizon)
    if not a.members:
        return FamilyVerdict(
            horizon=a.horizon,
            syndetic=False, max_gap=None,
            thick=False, longest_block=0,
            thickly_syndetic=False, piecewise_syndetic=False,
            cofinite=False, cofinite_head=a.horizon,
            lower_density=Fraction(0), upper_density=Fraction(0),
        )
    runs = _runs(a)
    jumps = [s - e + 1 for (_, e), (s, _) in zip(runs, runs[1:])]
    block = max(e - s for s, e in runs)
    # The gaps are the leading gap, 1 inside any run of two or more members
    # and the jumps between runs.
    gap = max(runs[0][0], 1 if block > 1 else 0, *jumps)
    if p.tail_policy == STRICT:
        gap = max(gap, a.horizon + 1 - runs[-1][1])
    # The longest span of members whose successive gaps are <= p.gap.
    span, first = 0, runs[0][0]
    for (s, e), jump in zip(runs, [0] + jumps):
        if jump > p.gap:
            first = s
        span = max(span, e - first)
    syndetic = gap <= p.gap
    thick = block >= p.block
    piecewise = thick or (syndetic and a.horizon >= p.block) or span >= p.block
    # A tail broken at the last slot is never co-finite, whatever the bound.
    tail = runs[-1][1] == a.horizon
    head = runs[-1][0] if tail else a.horizon
    lo, hi = _density_bounds(a, runs, p.burnin)
    return FamilyVerdict(
        horizon=a.horizon,
        syndetic=syndetic, max_gap=gap,
        thick=thick, longest_block=block,
        thickly_syndetic=_thickly_syndetic(runs, a.horizon, p),
        piecewise_syndetic=piecewise,
        cofinite=tail and head <= p.cofinite_head, cofinite_head=head,
        lower_density=lo, upper_density=hi,
    )


def classifier(p: FamilyParams) -> Callable[[WindowSet], FamilyVerdict]:
    """classify(·, p) deciding each distinct set once: a functools.cache of
    its own per call.  A report makes one and drops it when it returns, so
    no verdict outlives the call."""
    return cache(lambda a: classify(a, p))


def _density_bounds(a: WindowSet, runs: list[tuple[int, int]],
                    burnin: int) -> tuple[Fraction, Fraction]:
    """min and max of count(n)/n over n in [burnin, horizon], count(n) being
    |A ∩ [0, n)|.  Between runs the count is constant and the ratio falls as
    n rises; across a run [s, e) it rises, as count(s) <= s.  So the minimum
    sits at a run start or at the horizon and the maximum at a run end or at
    the burn-in; (count, n) pairs are compared by cross-multiplying."""
    lo_c = hi_c = a.count_below(burnin)
    lo_n = hi_n = burnin
    count = 0
    for s, e in runs:
        if s > burnin and count * lo_n < lo_c * s:
            lo_c, lo_n = count, s
        count += e - s
        if e > burnin and count * hi_n > hi_c * e:
            hi_c, hi_n = count, e
    if count * lo_n < lo_c * a.horizon:
        lo_c, lo_n = count, a.horizon
    return Fraction(lo_c, lo_n), Fraction(hi_c, hi_n)


# ---------------------------------------------------------------------------
# Text format and generator grammar.
#
#   horizon=<N>
#   <generator>, or an optional "explicit" line and then the members,
#   comma- or newline-separated, ascending unless ascending=False
#
# A body whose first line starts with a letter, "explicit" aside, is one
# generator line: all | evens | multiples(k) | complement(powers(2)).


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and n & (n - 1) == 0


def from_generator(expr: str, horizon: int) -> WindowSet:
    """A named set on [0, horizon); the name is checked first, then the
    horizon is charged to enum_nodes before the set is built."""
    expr = expr.strip()
    m = re.fullmatch(r"multiples\((\d+)\)", expr)
    step = int(m.group(1)) if m else {"evens": 2}.get(expr)
    if step is None and expr not in ("all", "complement(powers(2))"):
        raise ValueError(f"unknown set generator {expr!r}")
    if step is not None and step < 1:
        raise ValueError("multiples(k) needs k >= 1")
    charge("enum_nodes", horizon)
    if step is not None:
        return WindowSet(horizon, tuple(range(0, horizon, step)))
    if expr == "all":
        return full_window(horizon)
    # The positive integers minus {2, 4, 8, ...}; 0 is not listed because the
    # underlying set lives in the positive integers.
    return WindowSet(horizon, tuple(n for n in range(1, horizon) if not _is_power_of_two(n)))


def from_members(lines: Iterable[str], horizon: int,
                 ascending: bool = True) -> WindowSet:
    """The set listed on lines, comma-separated with blanks skipped, its
    horizon charged to enum_nodes first; ascending=False takes any order."""
    members = []
    for line in lines:
        try:
            members += [int(tok) for tok in line.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"bad member list {line!r}") from None
    charge("enum_nodes", horizon)
    return WindowSet(horizon, tuple(members)) if ascending else window_set(horizon, members)


def from_body(lines: list[str], horizon: int, ascending: bool = True) -> WindowSet:
    """The set a body of stripped lines names; ascending=False as in from_members."""
    if lines[:1] == ["explicit"]:
        lines = lines[1:]
    elif lines and lines[0][:1].isalpha():
        if len(lines) > 1:
            raise ValueError(f"stray line {lines[1]!r} after generator {lines[0]!r}")
        return from_generator(lines[0], horizon)
    return from_members(lines, horizon, ascending)


def parse_window_text(text: str) -> WindowSet:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("horizon="):
        raise ValueError("window set text must start with horizon=<N>")
    try:
        horizon = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise ValueError(f"bad horizon line {lines[0]!r}")
    return from_body(lines[1:], horizon)
