"""Central resource caps for the desk-scale engines.

Every potentially explosive computation (word enumeration, map composition,
image iteration) checks one of these caps and raises BudgetError when it
would be exceeded.  The single supported environment override is
CHAOS_BUDGET_OVERRIDE: a positive finite float multiplier applied to all
caps, each capped at sys.maxsize.
"""

from __future__ import annotations

import math
import os
import sys

ENV_OVERRIDE = "CHAOS_BUDGET_OVERRIDE"

# Baseline caps (before the optional multiplier).
CAPS = {
    "word_len": 16,          # longest word the language enumerator will emit
    "enum_nodes": 2 ** 20,   # nodes visited per enumeration call
    "power": 12,             # largest exponent for exact map composition
    "breakpoints": 2 ** 16,  # breakpoints of a composed piecewise-linear map
    "iter_steps": 4096,      # image-iteration horizon for hitting sets
    "prefix_len": 2 ** 17,   # symbols of the golden Sturmian prefix
}


class BudgetError(RuntimeError):
    """A computation would exceed one of the configured resource caps."""


def multiplier() -> float:
    """The CHAOS_BUDGET_OVERRIDE multiplier (1.0 when unset); ValueError
    unless it is a positive finite float."""
    raw = os.environ.get(ENV_OVERRIDE)
    if raw is None:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ValueError(f"{ENV_OVERRIDE} must be a positive finite float, got {raw!r}")
    return value


def cap(name: str) -> int:
    """Return the effective value of a named cap, applying any override."""
    return max(1, int(min(CAPS[name] * multiplier(), sys.maxsize)))


def charge(name: str, amount: int) -> None:
    """Raise BudgetError if amount exceeds the named cap."""
    limit = cap(name)
    if amount > limit:
        raise BudgetError(f"{name} budget exceeded: {amount} > {limit}")
