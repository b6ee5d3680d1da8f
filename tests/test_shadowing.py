"""Pseudo-orbit, tracing, and chain-graph fixtures.

Everything here is deterministic: orbits are seeded by strings, tracer grids
are ascending, and the float comparisons all use the shared slack constant,
so expected values can be frozen.
"""

import itertools
import random
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import ceil, gcd, inf, log2, nextafter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit import budgets, shadowing
from chaoskit.budgets import BudgetError
from chaoskit.interval import builtin, parse_pl_text
from chaoskit.setfam import CENSORED, STRICT, FamilyParams, WindowSet, classify
from chaoskit.shadowing import (
    BestTracer, ChainGraph, DiscreteSystem, IntervalSystem, PseudoOrbit,
    TraceReport, best_tracer, best_tracers, chain_graph, chain_mixing_check,
    chain_nodes, chain_period, chain_recurrent_nodes, chain_transitive_check,
    crossing_challenge, fg_shadowing_probe, make_pseudo_orbit, orbit_points,
    recompute_valid_set, strongly_connected_components, trace_set,
)
from test_interval import random_maps

TENT = IntervalSystem(builtin("tent"), name="tent")
S = IntervalSystem(builtin("S"), name="S")
EX = IntervalSystem(builtin("example211"), name="example211")
IDENT = IntervalSystem(builtin("identity"), name="identity")


def _clusters():
    """Two clusters of 40 points; each point maps to its twin in the other
    cluster, shifted by one."""
    k = np.arange(40) / 40
    return DiscreteSystem(np.concatenate([k, 2 + k]),
                          [40 + (i + 1) % 40 for i in range(40)] + list(range(40)),
                          name="clusters")


CLUSTERS = _clusters()

TIGHT = FamilyParams(gap=2, block=4, cofinite_head=2, burnin=4)


def two_point_swap() -> DiscreteSystem:
    return DiscreteSystem([0.0, 1.0], [1, 0], name="two_point_swap")


def manual_orbit(system, points, delta):
    pts = np.array(points, dtype=float)
    return PseudoOrbit(points=pts, delta=delta, label="manual",
                       valid_set=recompute_valid_set(system, pts, delta))


# ---------------------------------------------------------------------------
# Orbits and pseudo-orbits.

def test_orbit_points_frozen():
    got = orbit_points(TENT, 0.3, 5)
    assert np.allclose(got, [0.3, 0.6, 0.8, 0.4, 0.8])
    with pytest.raises(BudgetError):
        orbit_points(TENT, 0.3, 5000)


def test_zero_scheme_is_true_orbit():
    orb = make_pseudo_orbit(TENT, 0.01, 12, scheme="zero", seed="z", x0=0.3)
    assert np.array_equal(orb.points, orbit_points(TENT, 0.3, 12))
    assert len(orb.valid_set) == 11          # every transition is exact


def test_pseudo_orbit_determinism():
    a = make_pseudo_orbit(TENT, 1e-3, 32, scheme="uniform", seed="d")
    b = make_pseudo_orbit(TENT, 1e-3, 32, scheme="uniform", seed="d")
    c = make_pseudo_orbit(TENT, 1e-3, 32, scheme="uniform", seed="e")
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_jump_cap_keeps_orbit_valid():
    for scheme in ("uniform", "bounded"):
        orb = make_pseudo_orbit(TENT, 1e-3, 64, scheme=scheme, seed="cap")
        assert len(orb.valid_set) == 63
    orb = make_pseudo_orbit(EX, 1e-4, 64, scheme="adversarial", seed="cap",
                            x0=0.2, target=1.0)
    assert len(orb.valid_set) == 63


def test_tampering_shows_in_valid_set():
    orb = make_pseudo_orbit(TENT, 0.01, 8, scheme="zero", seed="t", x0=0.3)
    pts = orb.points.copy()
    pts[3] += 10 * orb.delta                 # 0.4 -> 0.5, slope-2 neighborhood
    vs = recompute_valid_set(TENT, pts, orb.delta)
    assert set(range(7)) - set(vs.members) == {2, 3}


def test_slack_admits_exact_delta():
    # A defect of exactly delta still counts: comparisons are < delta + slack.
    vs = recompute_valid_set(IDENT, np.array([0.0, 0.01, 0.01]), 0.01)
    assert vs.members == (0, 1)
    vs = recompute_valid_set(IDENT, np.array([0.0, 0.02]), 0.01)
    assert vs.members == ()


def test_systems_step_only_arrays():
    for system in (TENT, CLUSTERS):
        assert not hasattr(system, "step") and not hasattr(system, "clamp")


@pytest.mark.parametrize("system", [TENT, S, EX, IDENT, CLUSTERS, two_point_swap()],
                         ids=lambda s: s.name)
def test_step_array_takes_any_shape(system):
    # 0-d, 1-d and 2-d input, inside and outside the domain, each against
    # the one-element call on the same value.
    rng = np.random.default_rng(23)
    width = system.hi - system.lo
    grid = rng.uniform(system.lo - width, system.hi + width, size=(3, 5))
    grid[0, :2] = system.lo, system.hi
    want = np.array([system.step_array(np.array([x]))[0] for x in grid.flat])
    for x, w in zip(grid.flat, want):
        for zero_d in (np.array(x), float(x)):
            got = system.step_array(zero_d)
            assert np.shape(got) == () and got == w
    assert np.array_equal(system.step_array(grid.reshape(-1)), want)
    assert np.array_equal(system.step_array(grid), want.reshape(grid.shape))


# The loops that stepped one point at a time through the systems' former
# scalar step and clamp, which orbit_points and the pseudo-orbit builder
# replaced, kept as oracles.

def scalar_clamp(system, x):
    return min(system.hi, max(system.lo, x))


def scalar_step(system, x):
    if isinstance(system, IntervalSystem):
        return float(np.interp(scalar_clamp(system, x), system.xs, system.ys))
    return float(system.step_array(np.array([float(x)]))[0])


def scalar_orbit_points(system, x0, length):
    out = np.empty(length)
    out[0] = scalar_clamp(system, x0)
    for n in range(1, length):
        out[n] = scalar_step(system, out[n - 1])
    return out


def scalar_pseudo_orbit(system, length, delta, scheme, seed, x0, target, label):
    rng = random.Random(f"{seed}/{scheme}/{length}")
    cap_ = shadowing.JUMP_FRACTION * delta
    pts = np.empty(length)
    pts[0] = scalar_clamp(system, x0 if x0 is not None else system.random_point(rng))
    for n in range(1, length):
        fx = scalar_step(system, pts[n - 1])
        if scheme == "zero":
            jump = 0.0
        elif scheme == "uniform":
            jump = rng.uniform(-cap_, cap_)
        elif scheme == "bounded":
            jump = cap_ if rng.random() < 0.5 else -cap_
        else:
            jump = min(cap_, max(-cap_, target - fx))
        pts[n] = scalar_clamp(system, fx + jump)
    return PseudoOrbit(points=pts, delta=delta, label=label or scheme,
                       valid_set=recompute_valid_set(system, pts, delta))


@pytest.mark.parametrize("length", [2, 10, 64])
@pytest.mark.parametrize("system", [TENT, S, EX, CLUSTERS], ids=lambda s: s.name)
def test_batched_orbits_match_scalar_oracles(system, length):
    lo, hi = system.lo, system.hi
    starts = [lo, hi, lo - 0.5, hi + 0.5, lo + (hi - lo) / 3, lo + (hi - lo) * 0.7]
    rows = orbit_points(system, np.array(starts), length)
    assert rows.shape == (len(starts), length)
    for x0, row in zip(starts, rows):
        assert np.array_equal(row, scalar_orbit_points(system, x0, length))
        assert np.array_equal(orbit_points(system, x0, length), row)
    # Every scheme, from a random start, from a start outside the domain and
    # from one on it; adversarial targets at both domain ends.
    specs = [(delta, scheme, f"oracle/{system.name}/{delta}", x0, target, label)
             for delta in (0.01, 0.3)
             for scheme in shadowing.SCHEMES
             for x0 in (None, hi + 0.25, lo - 0.25, lo + (hi - lo) / 2)
             for target in ((lo, hi) if scheme == "adversarial" else (None,))
             for label in ("", "named")]
    batched = shadowing._pseudo_orbits(system, length, specs)
    assert len(batched) == len(specs)
    for args, orbit in zip(specs, batched):
        want = scalar_pseudo_orbit(system, length, *args)
        one = make_pseudo_orbit(system, args[0], length, *args[1:])
        for got in (orbit, one):
            assert np.array_equal(got.points, want.points)
            assert (got.delta, got.label, got.valid_set) == \
                (want.delta, want.label, want.valid_set)
    # The winners' trace sets: one orbit_points call for all rows, or one
    # row through trace_set, against the scalar true orbit.
    tracers = [starts[i % len(starts)] for i in range(len(batched))]
    reports = shadowing._trace_sets(system, batched, tracers, 0.05)
    for orbit, x0, report in zip(batched, tracers, reports):
        dist = np.abs(scalar_orbit_points(system, x0, length) - orbit.points)
        want = WindowSet(length, tuple(np.flatnonzero(
            dist < 0.05 + shadowing.FLOAT_SLACK).tolist()))
        assert report == trace_set(system, orbit, x0, 0.05)
        assert (report.x0, report.hits, report.cardinality) == (x0, want, len(want))


def test_probe_steps_every_row_together(monkeypatch):
    # One builder call holds every delta, trial and challenge.  Only the
    # perfect walk steps fewer points than the probe has rows, as its pairs
    # drop out: at most length - 1 calls for each of its blocks, where
    # stepping the builder, the sweep or the winners' traces row by row
    # makes rows x (length - 1) such calls.
    built, sizes, walks = [], [], []
    original, walk = shadowing._pseudo_orbits, shadowing._perfect_tracers

    def builder(system, length, rows):
        built.append(len(rows))
        return original(system, length, rows)

    def perfect(system, a, b, cand, *rest):
        with spied_block_sizes() as blocks:
            winner = walk(system, a, b, cand, *rest)
        walks.append(-(-len(cand) // blocks[0]))
        return winner

    class Counted(IntervalSystem):
        def step_array(self, arr):
            sizes.append(np.size(arr))
            return super().step_array(arr)
    monkeypatch.setattr(shadowing, "_pseudo_orbits", builder)
    monkeypatch.setattr(shadowing, "_perfect_tracers", perfect)
    for target in ("full", "syndetic"):
        built.clear()
        sizes.clear()
        walks.clear()
        res = fg_shadowing_probe(Counted(builtin("example211")), 0.05, [0.01, 1e-3],
                                 24, trials=3, target=target,
                                 n_candidates=501, seed="together",
                                 challenges=[crossing_challenge()])
        assert built == [8] == [len(res.rows)]
        assert walks == [1]
        assert sum(size < 8 for size in sizes) <= walks[0] * (24 - 1)


def test_bad_arguments():
    with pytest.raises(ValueError):
        make_pseudo_orbit(TENT, 0.0, 8)
    with pytest.raises(ValueError):
        make_pseudo_orbit(TENT, 0.01, 1)
    with pytest.raises(ValueError):
        make_pseudo_orbit(TENT, 0.01, 8, scheme="adversarial")   # no target
    with pytest.raises(ValueError):
        make_pseudo_orbit(TENT, 0.01, 8, scheme="sneaky")


# ---------------------------------------------------------------------------
# Tracing.

def test_trace_set_frozen():
    orb = manual_orbit(IDENT, [0.3, 0.3, 0.9], 1.0)
    rep = trace_set(IDENT, orb, 0.35, 0.1)
    assert rep.hits.members == (0, 1)
    assert rep.cardinality == 2
    rep = trace_set(IDENT, orb, 0.85, 0.1)
    assert rep.hits.members == (2,)


def test_trace_monotone_in_eps():
    orb = make_pseudo_orbit(TENT, 1e-3, 24, scheme="uniform", seed="mono")
    small = trace_set(TENT, orb, 0.3, 0.01).hits
    big = trace_set(TENT, orb, 0.3, 0.1).hits
    assert set(small.members) <= set(big.members)


def test_best_tracer_tie_breaks_to_smallest():
    orb = manual_orbit(IDENT, [0.3] * 6, 1.0)
    bt = best_tracer(IDENT, orb, np.linspace(0, 1, 11), 0.5)
    # Candidates 0.0 through 0.7 all trace fully; the first one wins.
    assert bt.report.x0 == 0.0
    assert bt.score == 6


def test_best_tracer_objectives_disagree():
    # One candidate hits often with a hole, the other hits once, early:
    # cardinality prefers the former, the gap objective the latter.
    orb = manual_orbit(IDENT, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2.0)
    cands = np.array([0.0, 1.0])
    by_card = best_tracer(IDENT, orb, cands, 0.4, "max_cardinality")
    assert by_card.report.x0 == 0.0 and by_card.score == 7
    by_gap = best_tracer(IDENT, orb, cands, 0.4, "min_max_gap")
    assert by_gap.report.x0 == 1.0 and by_gap.score == -1
    with pytest.raises(ValueError):
        best_tracer(IDENT, orb, cands, 0.4, "most_style_points")


# The C x L hit mask scored one row at a time, which the running scores of
# best_tracer replaced, kept as an oracle.

def mask_scores(system, orbit, candidates, eps, objective):
    """Each candidate's score, higher is better: its hit count, or minus
    its largest gap (leading gap included, len(orbit) + 1 with no hit)."""
    tol = eps + shadowing.FLOAT_SLACK
    cur = np.array(candidates, dtype=float)
    mask = np.empty((len(cur), len(orbit)), dtype=bool)
    for n in range(len(orbit)):
        mask[:, n] = np.abs(cur - orbit.points[n]) < tol
        if n < len(orbit) - 1:
            cur = system.step_array(cur)
    if objective == "max_cardinality":
        return mask.sum(axis=1).astype(float)
    gaps = np.full(len(candidates), len(orbit) + 1)
    for i in range(len(candidates)):
        idx = np.flatnonzero(mask[i])
        if len(idx):
            lead = int(idx[0])
            gaps[i] = max([lead] + list(np.diff(idx))) if len(idx) > 1 else lead
    return -gaps.astype(float)


def assert_tracer_matches_mask(system, orbit, candidates, eps, objective):
    scores = mask_scores(system, orbit, candidates, eps, objective)
    k = int(scores.argmax())      # the first of the best
    bt = best_tracer(system, orbit, candidates, eps, objective)
    assert bt.score == scores[k]
    assert bt.report == trace_set(system, orbit, float(candidates[k]), eps)
    return scores


@pytest.mark.parametrize("scheme", ["uniform", "bounded", "adversarial"])
@pytest.mark.parametrize("system", [TENT, S, EX], ids=lambda s: s.name)
def test_best_tracer_matches_mask_oracle(system, scheme):
    # The eps ladder runs from no hits at all, through candidates that never
    # hit beside ones that do, to many exact ties at the best score.
    never_hit = tied = 0
    for length in (10, 64):
        orbit = make_pseudo_orbit(system, 0.01, length, scheme=scheme,
                                  seed=f"oracle/{system.name}", target=0.7)
        candidates = system.grid(1001)
        for objective in ("max_cardinality", "min_max_gap"):
            for eps in (1e-9, 0.002, 0.05, 0.5):
                scores = assert_tracer_matches_mask(
                    system, orbit, candidates, eps, objective)
                miss = 0.0 if objective == "max_cardinality" else -(length + 1)
                never_hit += (0 < (scores == miss).sum() < len(scores))
                tied += (scores == scores.max()).sum() > 1
    assert never_hit and tied


def test_best_tracer_without_any_hit():
    orb = manual_orbit(IDENT, [0.3] * 6, 1.0)
    cands = np.array([0.9, 0.95])
    for objective, score in (("max_cardinality", 0), ("min_max_gap", -7)):
        bt = best_tracer(IDENT, orb, cands, 0.1, objective)
        assert bt.score == score and bt.report.x0 == 0.9
        assert_tracer_matches_mask(IDENT, orb, cands, 0.1, objective)


@contextmanager
def spied_block_sizes():
    """Within the block, every block size that shadowing._block_size hands
    out, in call order: the passes' real sizes, or those of a stand-in."""
    sizes, size_of = [], shadowing._block_size

    def spy(*args):
        sizes.append(size_of(*args))
        return sizes[-1]
    with mock.patch.object(shadowing, "_block_size", spy):
        yield sizes


def blocks_of(cells):
    """A stand-in for shadowing._block_size: blocks of cells // rows
    candidates in either pass, whatever a pair's state takes."""
    return lambda rows, cell_bytes: max(1, cells // rows)


# The one-orbit loop that best_tracers' blocked sweep replaced, kept as an
# oracle.

def per_orbit_best_tracer(system, orbit, candidates, eps, objective):
    tol = eps + shadowing.FLOAT_SLACK
    cur = np.array(candidates, dtype=float)
    by_gap = objective == "min_max_gap"
    count = np.zeros(len(cur), dtype=np.int64)    # hits, or the largest gap
    last = np.full(len(cur), -1, dtype=np.int64)
    for n, p in enumerate(orbit.points):
        if n:
            cur = system.step_array(cur)
        hit = np.abs(cur - p) < tol
        if by_gap:
            idx = np.flatnonzero(hit)
            count[idx] = np.maximum(count[idx], n - np.maximum(last[idx], 0))
            last[idx] = n
        else:
            count += hit
    if by_gap:
        count[last < 0] = len(orbit) + 1
        count = -count
    k = int(count.argmax())
    return BestTracer(score=float(count[k]),
                      report=trace_set(system, orbit, float(candidates[k]), eps))


# The blocked sweep that the window compares replaced, kept as an oracle:
# each hit is abs(x - p) < tol in float64, counted in int32, in blocks of
# cells // rows candidates.

def old_sweep(system, orbits, cand, eps, objective, cells=2 ** 15):
    steps = np.stack([o.points for o in orbits], axis=1)
    tol, by_gap = eps + shadowing.FLOAT_SLACK, objective == "min_max_gap"
    length, rows = steps.shape
    points = steps[:, :, None]    # step n of every orbit, as a column
    best = np.full(rows, -np.inf)
    winner = np.zeros(rows, dtype=np.intp)
    size = max(1, cells // rows)
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
    return [(float(s), float(cand[w])) for s, w in zip(best, winner)]


def assert_best_tracers_match_oracles(system, orbits, cand, eps, objective):
    got = best_tracers(system, orbits, cand, eps, objective)
    assert got == [per_orbit_best_tracer(system, orbit, cand, eps, objective)
                   for orbit in orbits]
    assert [(bt.score, bt.report.x0) for bt in got] == \
        old_sweep(system, orbits, cand, eps, objective)
    return got


@pytest.mark.parametrize("length", [255, 256, 300])
def test_best_tracers_count_across_the_byte_switch(length):
    # max_cardinality counts hits in np.min_scalar_type(L): one byte up to
    # 255 steps, two from 256.  A constant orbit that a candidate hits at
    # every step scores L on either side of the switch, and one that it
    # leaves at the last step L - 1; a ramp and two tent pseudo-orbits score
    # fewer.  The descending grid sends every row to the sweep.
    orbits = [manual_orbit(IDENT, [0.3] * length, 1.0),
              manual_orbit(IDENT, [0.3] * (length - 1) + [0.9], 1.0),
              manual_orbit(IDENT, np.linspace(0.2, 0.4, length), 1.0)]
    for cand in (np.linspace(0.0, 1.0, 1001), np.linspace(1.0, 0.0, 1001)):
        for objective in shadowing.OBJECTIVES:
            got = assert_best_tracers_match_oracles(IDENT, orbits, cand, 0.05,
                                                    objective)
            if objective == "max_cardinality":
                assert [bt.score for bt in got[:2]] == [length, length - 1]
    tent = [make_pseudo_orbit(TENT, 0.01, length, scheme=scheme, seed="bytes",
                              target=0.9) for scheme in ("uniform", "adversarial")]
    for objective in shadowing.OBJECTIVES:
        assert_best_tracers_match_oracles(TENT, tent, TENT.grid(2001), 0.05, objective)


@pytest.mark.parametrize("system", [IDENT, TENT, CLUSTERS], ids=lambda s: s.name)
def test_best_tracers_skip_points_that_are_not_finite(system):
    # No candidate is within eps of NaN or of an infinite point, so those
    # steps are never hits, as abs(x - p) < tol has it.
    lo, hi = system.lo, system.hi
    mid = (lo + hi) / 2
    orbits = [manual_orbit(system, [mid, np.nan, mid, np.inf, -np.inf, mid], 1.0),
              manual_orbit(system, [np.nan] * 6, 1.0),
              manual_orbit(system, [np.inf, mid, -np.inf, hi, lo, np.nan], 1.0),
              make_pseudo_orbit(system, 0.01, 6, scheme="zero", x0=mid)]
    grid = np.linspace(lo, hi, 401)
    for cand in (grid, grid[::-1]):
        for objective in shadowing.OBJECTIVES:
            assert_best_tracers_match_oracles(system, orbits, cand, 0.05, objective)


@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("objective", shadowing.OBJECTIVES)
@pytest.mark.parametrize("system", [TENT, S, EX, CLUSTERS], ids=lambda s: s.name)
def test_best_tracers_match_per_orbit_oracles(monkeypatch, system, objective,
                                              small_blocks):
    # Candidate counts one below and one above a block boundary of the
    # sweep, at the real block size and at one small enough for the C x L
    # mask oracle.  The size is the one _block_size gives the sweep of all
    # three orbits, which a descending grid (no perfect walk) sends there.
    if small_blocks:
        monkeypatch.setattr(shadowing, "_block_size", blocks_of(3 * 64))
    orbits = [make_pseudo_orbit(system, 0.01, 24, scheme=scheme,
                                seed=f"sweep/{system.name}", target=system.hi)
              for scheme in ("uniform", "bounded", "adversarial")]
    with spied_block_sizes() as blocks:
        best_tracers(system, orbits, np.array([system.hi, system.lo]), 0.05, objective)
    block = blocks[0]
    for count, ascending in itertools.product((block - 1, block + 1), (True, False)):
        candidates = np.linspace(system.lo, system.hi, count)
        if not ascending:
            candidates = candidates[::-1]
        for eps in (0.002, 0.05):
            got = best_tracers(system, orbits, candidates, eps, objective)
            assert len(got) == len(orbits)
            for orbit, bt in zip(orbits, got):
                assert bt == per_orbit_best_tracer(system, orbit, candidates,
                                                   eps, objective)
                if small_blocks:
                    scores = mask_scores(system, orbit, candidates, eps, objective)
                    k = int(scores.argmax())
                    assert bt.score == scores[k]
                    assert bt.report.x0 == candidates[k]


def test_best_tracers_tie_across_blocks_goes_to_the_first(monkeypatch):
    # Two orbits make blocks of four candidates.  0.3 (the last of block 0)
    # and 0.35 (the first of block 1) trace the constant orbit equally well,
    # so the first wins; on the orbit that moves to 0.42 only 0.35 hits
    # every step, a strictly better score from the later block.
    monkeypatch.setattr(shadowing, "_block_size", blocks_of(8))
    still = manual_orbit(IDENT, [0.3] * 6, 1.0)
    moves = manual_orbit(IDENT, [0.3] * 5 + [0.42], 1.0)
    cands = np.array([0.9, 0.9, 0.9, 0.3, 0.35, 0.9, 0.9, 0.9, 0.9])
    by_card = best_tracers(IDENT, [still, moves], cands, 0.1, "max_cardinality")
    assert [(bt.report.x0, bt.score) for bt in by_card] == [(0.3, 6), (0.35, 6)]
    by_gap = best_tracers(IDENT, [still, moves], cands, 0.1, "min_max_gap")
    assert [(bt.report.x0, bt.score) for bt in by_gap] == [(0.3, -1), (0.3, -1)]
    for objective, got in (("max_cardinality", by_card), ("min_max_gap", by_gap)):
        for orbit, bt in zip((still, moves), got):
            assert bt == per_orbit_best_tracer(IDENT, orbit, cands, 0.1, objective)


def _traced_best_tracers(system, orbits, cand, eps, objective, cells=None):
    """best_tracers, with the rows that reach each call of the perfect walk
    and of the sweep; blocks of cells // rows candidates, or the real ones
    when cells is None."""
    walked, swept = [], []
    walk, sweep = shadowing._perfect_tracers, shadowing._sweep

    def counted_walk(system, a, *rest):
        walked.append(a.shape[1])
        return walk(system, a, *rest)

    def counted_sweep(system, a, *rest):
        swept.append(a.shape[1])
        return sweep(system, a, *rest)
    with mock.patch.object(shadowing, "_block_size",
                           blocks_of(cells) if cells else shadowing._block_size), \
            mock.patch.object(shadowing, "_perfect_tracers", counted_walk), \
            mock.patch.object(shadowing, "_sweep", counted_sweep):
        got = best_tracers(system, orbits, cand, eps, objective)
    return got, walked, swept


def test_perfect_tracer_in_a_later_block_beats_an_earlier_maximum():
    # Two orbits make blocks of four candidates, and each grid ascends with
    # all of block 0 among the step-0 matches, so the perfect walk's blocks
    # are the sweep's.  On `moves` every candidate of block 0 hits 5 of 6
    # steps and 0.38 in block 1 hits all 6; on `leaves` every candidate of
    # block 0 hits steps 0 and 1 (gap 1) and 0.36 in block 1 hits at step 0
    # alone.  The perfect walk finds both later winners, so the sweep sees
    # only the rows without a perfect candidate.
    still = manual_orbit(IDENT, [0.3] * 6, 1.0)
    moves = manual_orbit(IDENT, [0.3] * 5 + [0.45], 1.0)
    leaves = manual_orbit(IDENT, [0.3] + [0.25] * 5, 1.0)
    for objective, orbits, cands, want, rows_swept in (
            ("max_cardinality", [still, moves], [0.22, 0.23, 0.24, 0.25, 0.38, 0.9],
             [(0.22, 6), (0.38, 6)], []),
            ("min_max_gap", [leaves, still], [0.26, 0.27, 0.28, 0.29, 0.36, 0.9],
             [(0.36, 0), (0.26, -1)], [1])):
        got, walked, swept = _traced_best_tracers(IDENT, orbits, np.array(cands),
                                                  0.1, objective, cells=8)
        assert [(bt.report.x0, bt.score) for bt in got] == want
        assert walked == [2] and swept == rows_swept
        for orbit, bt in zip(orbits, got):
            assert bt == per_orbit_best_tracer(IDENT, orbit, np.array(cands), 0.1,
                                               objective)


@st.composite
def tracer_cases(draw):
    """A system, a grid (ascending, shuffled, with repeats or both), orbits
    of one length and eps.  Each draw holds a true orbit from a candidate,
    which max_cardinality traces perfectly, and an orbit that leaves every
    candidate after step 0, which min_max_gap traces perfectly; the other
    orbits are seeded pseudo-orbits, often with no perfect candidate."""
    system = draw(st.sampled_from([TENT, S, EX, IDENT, CLUSTERS]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cand = np.linspace(system.lo, system.hi, draw(st.integers(2, 150)))
    if draw(st.booleans()):
        cand = np.sort(np.concatenate([cand, rng.choice(cand, len(cand))]))
    if draw(st.booleans()):
        cand = rng.permutation(cand)
    length = draw(st.integers(2, 12))
    start = float(cand[draw(st.integers(0, len(cand) - 1))])
    orbits = [make_pseudo_orbit(system, 0.01, length, scheme="zero", x0=start),
              manual_orbit(system, [start] + [system.hi + 9] * (length - 1), 10.0)]
    for t in range(draw(st.integers(0, 3))):
        orbits.append(make_pseudo_orbit(
            system, draw(st.sampled_from([1e-3, 0.01, 0.1])), length,
            scheme=draw(st.sampled_from(["uniform", "bounded", "adversarial"])),
            seed=f"cases/{t}/{draw(st.integers(0, 99))}", target=system.hi))
    order = draw(st.permutations(range(len(orbits))))
    return system, cand, [orbits[i] for i in order], draw(
        st.sampled_from([1e-9, 0.01, 0.05, 0.3]))


@settings(max_examples=200, deadline=None)
@given(case=tracer_cases(), objective=st.sampled_from(shadowing.OBJECTIVES),
       cells=st.sampled_from([1, 3, 8, 64, None]))
def test_best_tracers_match_the_oracle_on_any_grid(case, objective, cells):
    # The same winners as the oracle.  On an ascending grid only the rows
    # whose best score is not perfect reach the sweep: the perfect walk
    # misses no perfect row.  On any other grid the perfect walk does not
    # run and every row is swept.
    system, cand, orbits, eps = case
    got, walked, swept = _traced_best_tracers(system, orbits, cand, eps,
                                              objective, cells)
    want = [per_orbit_best_tracer(system, orbit, cand, eps, objective)
            for orbit in orbits]
    assert got == want
    assert [(bt.score, bt.report.x0) for bt in got] == \
        old_sweep(system, orbits, cand, eps, objective, cells or 2 ** 15)
    assert len(swept) <= 1
    if (cand[1:] >= cand[:-1]).all():
        perfect = 0 if objective == "min_max_gap" else len(orbits[0])
        assert walked == [len(orbits)]
        assert sum(swept) == sum(bt.score != perfect for bt in want)
    else:
        assert walked == [] and swept == [len(orbits)]


@pytest.mark.parametrize("objective", shadowing.OBJECTIVES)
@pytest.mark.parametrize("system", [TENT, S, CLUSTERS], ids=lambda s: s.name)
def test_only_an_ascending_grid_takes_the_perfect_walk(system, objective):
    # One grid ascending, shuffled, and with a NaN candidate inside.  Each
    # gives the oracle's winners; only the ascending one reaches the perfect
    # walk, though every draw holds a row with a perfect candidate, so the
    # ascending check is the walk's one gate.
    grid = np.linspace(system.lo, system.hi, 301)
    rng = np.random.default_rng(31)
    orbits = [make_pseudo_orbit(system, 0.01, 12, scheme="zero", x0=float(grid[40])),
              manual_orbit(system, [float(grid[40])] + [system.hi + 9] * 11, 10.0),
              make_pseudo_orbit(system, 0.01, 12, scheme="uniform", seed="gate",
                                target=system.hi)]
    for cand, walks in ((grid, True), (rng.permutation(grid), False),
                        (np.insert(grid, 150, np.nan), False)):
        got, walked, swept = _traced_best_tracers(system, orbits, cand, 0.01,
                                                  objective)
        assert got == [per_orbit_best_tracer(system, orbit, cand, 0.01, objective)
                       for orbit in orbits]
        if walks:
            assert walked == [3] and sum(swept) <= 2   # a perfect row is not swept
        else:
            assert walked == [] and swept == [3]


def test_match_runs_equal_the_dense_mask():
    # Ascending grids with repeats, signed zeros and infinite ends, against
    # points on, between and beyond them and NaN, at tolerances from 0 to
    # infinity: the run [a, b) is exactly the step-0 mask's row.
    rng = np.random.default_rng(29)
    specials = np.array([-np.inf, -1e300, -0.0, 0.0, 1e300, np.inf])
    for trial in range(300):
        steps = rng.choice(np.arange(-16, 17) / 8, int(rng.integers(1, 40)))
        cand = np.sort(np.concatenate([steps, rng.choice(specials, trial % 4)]))
        points = np.concatenate([rng.choice(np.arange(-40, 41) / 16, 30),
                                 rng.uniform(-3, 3, 10), specials[1:-1], [np.nan]])
        for tol in (0.0, 1 / 8, 0.3, 2.0, np.inf):
            a, b = shadowing._match_runs(cand, *shadowing._window(points, tol))
            j = np.arange(len(cand))
            run = (j >= a[:, None]) & (j < b[:, None])
            mask = np.abs(cand[None, :] - points[:, None]) < tol
            assert np.array_equal(run, mask), (cand, tol)


MAX_FLOAT = float(np.finfo(float).max)


@st.composite
def window_cases(draw):
    """tol over the range the callers pass, [2^-40, the largest float], and
    a few finite points: signed zeros, subnormals, points on and beside
    +-tol, and any float."""
    tol = draw(st.floats(2.0 ** -40, MAX_FLOAT))
    near = [v for v in (tol, nextafter(tol, 0.0), nextafter(tol, inf), 2 * tol, tol / 2)
            if v < inf]
    point = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e-307, 1e-307),             # subnormals and their neighbours
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, MAX_FLOAT, -MAX_FLOAT]),
        st.sampled_from(near).flatmap(lambda v: st.sampled_from([v, -v])))
    return tol, np.array(draw(st.lists(point, min_size=1, max_size=6)), dtype=float)


@settings(max_examples=400, deadline=None)
@given(case=window_cases(), draws=st.lists(st.floats(allow_nan=False), max_size=4))
def test_window_is_exactly_the_rounded_test(case, draws):
    # At each end, at its float neighbours and at random floats (infinite
    # ones too), abs(x - p) < tol holds exactly when a <= x <= b.
    tol, points = case
    a, b = shadowing._window(points, tol)
    assert (a <= points).all() and (points <= b).all()
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (a, b, np.nextafter(a, -inf), np.nextafter(a, inf),
                  np.nextafter(b, -inf), np.nextafter(b, inf),
                  *(np.full_like(points, d) for d in draws)):
            assert np.array_equal(np.abs(x - points) < tol, (a <= x) & (x <= b)), \
                (tol, points, x)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(
    # DiscreteSystem._nearest passes the float just above a distance, down
    # to the least subnormal for a value on a point; 0 and inf are the ends
    # where np.spacing and math.ulp part.
    st.one_of(st.floats(5e-324, MAX_FLOAT),
              st.sampled_from([0.0, 5e-324, 1e-323, MAX_FLOAT, inf])),
    st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=6))
def test_window_takes_one_tol_per_point(pairs):
    # Each point's window is the one its own tol gives alone, and exact.
    tol, points = map(np.array, zip(*pairs))
    a, b = shadowing._window(points, tol)
    for k, (t, p) in enumerate(pairs):
        assert (a[k], b[k]) == tuple(e[0] for e in shadowing._window(np.array([p]), t))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (a, b, np.nextafter(a, -inf), np.nextafter(b, inf)):
            assert np.array_equal(np.abs(x - points) < tol, (a <= x) & (x <= b)), \
                (tol, points, x)


@settings(max_examples=50, deadline=None)
@given(tol=st.floats(2.0 ** -40, MAX_FLOAT),
       x=st.lists(st.floats(), min_size=1, max_size=6))
def test_window_of_a_point_that_is_not_finite_holds_nothing(tol, x):
    a, b = shadowing._window(np.array([np.nan, np.inf, -np.inf]), tol)
    assert np.isnan(a).all() and np.isnan(b).all()
    x = np.array(x)[:, None]
    assert not ((a <= x) & (x <= b)).any()


def test_best_tracers_reject_bad_arguments_before_work(monkeypatch):
    orb = manual_orbit(IDENT, [0.3] * 6, 1.0)
    short = manual_orbit(IDENT, [0.3] * 5, 1.0)
    cands = np.array([0.3])
    monkeypatch.setattr(shadowing, "charge", None)
    monkeypatch.setattr(IntervalSystem, "step_array", None)
    with pytest.raises(ValueError, match="unknown objective"):
        best_tracers(IDENT, [orb], cands, 0.1, "most_style_points")
    with pytest.raises(ValueError, match="no pseudo-orbit"):
        best_tracers(IDENT, [], cands, 0.1)
    with pytest.raises(ValueError, match="differ in length"):
        best_tracers(IDENT, [orb, short], cands, 0.1)
    with pytest.raises(ValueError, match="no candidates"):
        best_tracers(IDENT, [orb], np.array([]), 0.1)


def test_probe_scores_every_row_in_one_sweep(monkeypatch):
    sweeps, calls = [], []
    original_sweep, original_one = shadowing.best_tracers, shadowing.best_tracer

    def sweep(system, orbits, *rest):
        sweeps.append(len(orbits))
        return original_sweep(system, orbits, *rest)

    def one(system, orbit, *rest):
        calls.append(orbit)
        return original_one(system, orbit, *rest)
    monkeypatch.setattr(shadowing, "best_tracers", sweep)
    monkeypatch.setattr(shadowing, "best_tracer", one)
    res = fg_shadowing_probe(EX, 0.05, [0.01, 1e-3], 24, trials=3,
                             n_candidates=501, seed="sweep",
                             challenges=[crossing_challenge()])
    # One sweep of all 2 x (3 + 1) rows; each row still asks best_tracer,
    # which answers from the sweep.
    assert sweeps == [8]
    assert len(calls) == len(res.rows) == 8


def test_probe_sweep_is_unset_after_the_probe(monkeypatch):
    seen = []
    original = shadowing.setfam.classify

    def classify(a, params):
        seen.append(shadowing._sweeps.get(None))
        return original(a, params)
    monkeypatch.setattr(shadowing.setfam, "classify", classify)
    fg_shadowing_probe(TENT, 0.05, [0.01], 10, trials=2, n_candidates=101,
                       seed="scope")
    assert len(seen) == 2 and all(s is not None for s in seen)
    assert shadowing._sweeps.get(None) is None

    def fail(a, params):
        raise RuntimeError("classify failed")
    monkeypatch.setattr(shadowing.setfam, "classify", fail)
    with pytest.raises(RuntimeError, match="classify failed"):
        fg_shadowing_probe(TENT, 0.05, [0.01], 10, trials=2, n_candidates=101,
                           seed="scope")
    assert shadowing._sweeps.get(None) is None


def test_best_tracer_answers_from_the_sweep_only_for_its_arguments(monkeypatch):
    # Mid-probe, a probe orbit asked for at another eps, objective or
    # candidate array is scored afresh; the probe's own arguments read the
    # sweep's winner; outside a probe there is no sweep to read.
    got, swept = [], []
    original = shadowing.setfam.classify
    sweep = shadowing.best_tracers

    def counted(system, orbits, cands, *rest):
        swept.append((len(orbits), cands))
        return sweep(system, orbits, cands, *rest)
    monkeypatch.setattr(shadowing, "best_tracers", counted)

    def classify(a, params):
        winners = shadowing._sweeps.get()
        orbit, _, eps, objective = key = next(iter(winners))
        cands = swept[0][1]
        for e, obj, c in ((0.01, objective, cands),
                          (eps, "min_max_gap", cands),
                          (eps, objective, cands[:-1] + 1e-3),
                          (eps, objective, cands.copy())):
            got.append((best_tracer(TENT, orbit, c, e, obj),
                        per_orbit_best_tracer(TENT, orbit, c, e, obj)))
        got.append((best_tracer(TENT, orbit, cands, eps, objective), winners[key]))
        return original(a, params)
    monkeypatch.setattr(shadowing.setfam, "classify", classify)
    fg_shadowing_probe(TENT, 0.05, [0.01], 10, trials=1, n_candidates=101,
                       seed="answers")
    assert len(got) == 5
    assert all(fresh == oracle for fresh, oracle in got)
    # The probe's sweep, then one fresh sweep per foreign argument set; the
    # probe's own arguments sweep nothing.
    assert len(swept) == 1 + 4

    monkeypatch.setattr(shadowing.setfam, "classify", original)
    swept.clear()
    orbit = make_pseudo_orbit(TENT, 0.01, 10, scheme="uniform", seed="outside")
    best_tracer(TENT, orbit, TENT.grid(101), 0.05)
    assert [rows for rows, _ in swept] == [1]


def test_best_tracer_memory_is_linear_in_candidates():
    # A C x L mask alone takes C * L bytes; neither pass's bound grows with
    # the number of orbits it scores.  The tent orbits go to the sweep.  On
    # the identity every one of 100,001 candidates within 0.5 of an orbit's
    # step 0 hits it, at every step of a constant orbit, or at no later
    # step of one that leaves for 9: each is perfect, so the perfect walk
    # holds its fullest blocks, and holding all 18 x 100,001 pairs at once
    # would pass the bound.
    tent = [make_pseudo_orbit(TENT, 0.01, 512, scheme="uniform", seed=f"mem{t}")
            for t in range(18)]
    stay = [manual_orbit(IDENT, [0.3 + t / 100] * 512, 1.0) for t in range(18)]
    leave = [manual_orbit(IDENT, [0.3 + t / 100] + [9.0] * 511, 10.0)
             for t in range(18)]
    for system, objective, orbits, n, eps, perfect in (
            (TENT, "max_cardinality", tent, 20_001, 0.05, None),
            (TENT, "min_max_gap", tent, 20_001, 0.05, None),
            (IDENT, "max_cardinality", stay, 100_001, 0.5, 512),
            (IDENT, "min_max_gap", leave, 100_001, 0.5, 0)):
        candidates = system.grid(n)
        bound = len(candidates) * len(orbits[0]) / 4
        for sweep in (lambda: [best_tracer(system, orbits[0], candidates, eps, objective)],
                      lambda: best_tracers(system, orbits, candidates, eps, objective)):
            tracemalloc.start()
            try:
                got = sweep()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (system.name, objective)
            if perfect is not None and len(got) > 1:
                assert [bt.score for bt in got] == [perfect] * 18


def test_best_tracer_rejects_objective_before_work(monkeypatch):
    monkeypatch.setattr(shadowing, "charge", None)
    orb = manual_orbit(IDENT, [0.3] * 6, 1.0)
    with pytest.raises(ValueError, match="unknown objective"):
        best_tracer(IDENT, orb, np.array([0.3]), 0.1, "most_style_points")


def test_probe_row_ok_follows_target(monkeypatch):
    # Every row traces with the given hit set, so its ok is the target's
    # verdict on exactly that set.
    cases = [
        (range(10), "full", True),
        (range(1, 10), "full", False),
        (range(1, 10), "cofinite", True),
        (range(1, 10), "syndetic", True),
        ((), "full", False),
        ((), "piecewise_syndetic", False),
    ]
    for members, target, ok in cases:
        hits = WindowSet(10, tuple(members))
        monkeypatch.setattr(shadowing, "best_tracer", lambda *a: BestTracer(
            score=0.0, report=TraceReport(x0=0.0, hits=hits,
                                          cardinality=len(hits))))
        res = fg_shadowing_probe(IDENT, 0.05, [0.01], 10, trials=1,
                                 target=target, params=TIGHT,
                                 n_candidates=11, seed="ok")
        assert [r.ok for r in res.rows] == [ok], (members, target)
        assert res.rows[0].tags == classify(hits, TIGHT).tags()


# The target -> objective table fg_shadowing_probe read before its targets
# came from setfam.TAGS.
TARGET_OBJECTIVE = {
    "full": "max_cardinality",
    "cofinite": "max_cardinality",
    "syndetic": "min_max_gap",
    "thickly_syndetic": "min_max_gap",
    "thick": "max_cardinality",
    "piecewise_syndetic": "max_cardinality",
}


def test_targets_are_full_and_every_tag():
    assert set(shadowing.TARGETS) == set(TARGET_OBJECTIVE)


def test_probe_objective_follows_target(monkeypatch):
    hits = WindowSet(10, tuple(range(10)))
    for target, objective in TARGET_OBJECTIVE.items():
        seen = []

        def record(system, orbit, candidates, eps, objective="max_cardinality"):
            seen.append(objective)
            return BestTracer(score=0.0, report=TraceReport(
                x0=0.0, hits=hits, cardinality=len(hits)))
        monkeypatch.setattr(shadowing, "best_tracer", record)
        fg_shadowing_probe(IDENT, 0.05, [0.01], 10, trials=1, target=target,
                           params=TIGHT, n_candidates=11, seed="objective")
        assert seen == [objective], target


@pytest.mark.parametrize("policy, gap, syndetic",
                         [(CENSORED, 1, True), (STRICT, 3, False)])
def test_probe_row_gap_follows_the_tail_policy(monkeypatch, policy, gap, syndetic):
    # Hits 0..7 on horizon 10: the trailing gap 10 - 7 counts only under the
    # strict policy, and the row's gap must be the one its tags were read at.
    hits = WindowSet(10, tuple(range(8)))
    monkeypatch.setattr(shadowing, "best_tracer", lambda *a: BestTracer(
        score=0.0, report=TraceReport(x0=0.0, hits=hits, cardinality=len(hits))))
    params = replace(TIGHT, tail_policy=policy)
    res = fg_shadowing_probe(IDENT, 0.05, [0.01], 10, trials=1,
                             target="syndetic", params=params,
                             n_candidates=11, seed="tail")
    row, = res.rows
    assert row.trace_max_gap == gap
    assert ("syndetic" in row.tags) is syndetic
    assert row.ok is syndetic


def test_probe_rejects_bad_arguments_up_front(monkeypatch):
    # Both are refused before any pseudo-orbit is traced.
    monkeypatch.setattr(shadowing, "best_tracer", None)
    with pytest.raises(ValueError, match="unknown target"):
        fg_shadowing_probe(IDENT, 0.05, [0.01], 10, trials=1,
                           target="bounded_above")
    with pytest.raises(ValueError, match="burnin 4 exceeds horizon 3"):
        fg_shadowing_probe(TENT, 0.05, [0.01], 3, trials=1, params=TIGHT)


# ---------------------------------------------------------------------------
# The ladder probe.

def test_probe_pass_on_tent():
    res = fg_shadowing_probe(TENT, 0.05, [1e-4], 10, trials=4,
                             n_candidates=10001, seed="probe")
    assert res.verdict == "pass"
    assert res.delta_pass == 1e-4
    assert res.witness is None
    assert all(row.ok for row in res.rows)


def test_probe_falsified_by_crossing_challenge():
    res = fg_shadowing_probe(EX, 0.05, [1e-4], 64, trials=2,
                             n_candidates=2001, seed="probe",
                             challenges=[crossing_challenge()])
    assert res.verdict == "falsified"
    assert res.witness is not None
    assert res.witness.label == "crossing" and res.witness.challenge
    assert res.witness.cardinality < 64
    assert res.witness.valid_count == 63     # the pseudo-orbit itself is fine


def test_probe_undetermined():
    # Identity with a large delta and a tiny eps: pseudo-orbits wander, no
    # constant true orbit can follow them, and no challenge explains it.
    res = fg_shadowing_probe(IDENT, 0.001, [0.1], 8, trials=2,
                             n_candidates=101, seed="probe")
    assert res.verdict == "undetermined"
    assert res.delta_pass is None
    assert res.witness is not None and not res.witness.challenge


def test_probe_thick_target_on_swap():
    res = fg_shadowing_probe(two_point_swap(), 0.3, [0.25], 12, trials=3,
                             target="thick", params=TIGHT, seed="swap")
    assert res.verdict == "pass"


def test_crossing_orbit_structure():
    """The adversarial start crosses into the invariant upper half by step
    two and reaches the upper third at step 10; any true orbit within eps of
    the start never leaves the lower half."""
    d = 1e-4
    ch = crossing_challenge()
    orb = make_pseudo_orbit(EX, d, 64, scheme="adversarial", seed="x",
                            x0=ch.x0_of_delta(d), target=1.0)
    pts = orb.points
    assert pts[0] < 1 / 6
    assert pts[1] < 0.5
    assert np.all(pts[2:] >= 0.5)
    assert int(np.flatnonzero(pts > 2 / 3)[0]) == 10
    # A point eps-close to the start stays in [0, 1/2] forever.
    true = orbit_points(EX, pts[0] + 0.05, 64)
    assert np.all(true <= 0.5)
    assert np.abs(true - pts).max() > 1 / 6


# ---------------------------------------------------------------------------
# Chain graphs.

def test_chain_tent():
    g = chain_graph(TENT, 129, 0.02)
    assert chain_transitive_check(g)
    assert chain_period(g) == 1
    assert chain_mixing_check(g)
    assert chain_recurrent_nodes(g) == tuple(range(129))


def test_chain_identity_coarse_vs_fine():
    g = chain_graph(IDENT, 65, 0.02)     # spacing 1/64 < delta: a path graph
    assert chain_transitive_check(g)
    assert chain_mixing_check(g)
    fine = chain_graph(IDENT, 65, 0.001)  # only self-loops survive
    assert not chain_transitive_check(fine)
    assert chain_period(fine) is None
    assert len(strongly_connected_components(fine)) == 65
    assert chain_recurrent_nodes(fine) == tuple(range(65))


@pytest.mark.parametrize("delta", [0.0, -0.5, float("nan"), float("inf")])
def test_chain_graph_rejects_delta_before_any_grid(delta):
    # NaN links nothing and infinity links everything: no chain evidence.
    system = IntervalSystem(builtin("tent"))
    system.grid = mock.Mock(side_effect=AssertionError("grid built"))
    for build in (lambda: chain_graph(system, 129, delta),
                  lambda: chain_nodes(system, delta)):
        with pytest.raises(ValueError, match=f"chain delta must be positive "
                                             f"and finite, got {delta}"):
            build()


@pytest.mark.parametrize("system, delta, nodes", [
    (TENT, 0.02, 129), (S, 0.02, 257), (TENT, 0.05, 65), (TENT, 0.001, 2049),
    (IDENT, 2.0 ** -18, 2 ** 19 + 1), (IDENT, nextafter(2.0 ** -18, 0), 2 ** 20 + 1),
    (TENT, 2.0, 2), (TENT, 1e300, 2), (TENT, nextafter(2.0, 0), 3)])
def test_chain_nodes_is_the_coarsest_grid_at_half_delta(system, delta, nodes):
    # The spacing is at most delta / 2, and on the grid one power of two
    # smaller it is not; exactly, on the floats' own values.
    assert chain_nodes(system, delta) == nodes
    width = Fraction(system.hi) - Fraction(system.lo)
    assert width / (nodes - 1) <= Fraction(delta) / 2
    assert nodes == 2 or width / ((nodes - 1) // 2) > Fraction(delta) / 2


def test_chain_grid_keeps_the_nodes_of_the_coarser_grid():
    for system in (TENT, S):
        coarse = system.grid(chain_nodes(system, 0.02))
        assert np.array_equal(system.grid(chain_nodes(system, 0.01))[::2], coarse)


MAPS = Path(__file__).parent / "maps"
CHAIN_MIXING = [TENT, S, EX, IDENT,
                *(IntervalSystem(parse_pl_text((MAPS / f"{name}.txt").read_text()), name)
                  for name in ("markov4", "zigzag3"))]
# f(x) > x on (0, 1), and f(x) - x = 1/20 at 1/2: no delta-chain below 1/20
# leads back across 1/2.
DRIFT = IntervalSystem(parse_pl_text("domain=0,1\n0:0\n1/2:11/20\n1:1\n"), "drift")


def sized_chain_graph(system, delta):
    return chain_graph(system, chain_nodes(system, delta), delta)


@pytest.mark.parametrize("delta", [0.05, 0.02, 0.01, 0.006, 0.001, 0.0005, 0.0001])
def test_sized_chain_graphs_read_each_fixture_chain_mixing(delta):
    # A grid coarser than delta reads each of these maps not chain mixing.
    for system in CHAIN_MIXING:
        g = sized_chain_graph(system, delta)
        assert (chain_transitive_check(g), chain_mixing_check(g)) == (True, True), \
            (system.name, delta)


@pytest.mark.parametrize("delta", [0.02, 0.001])
def test_sized_chain_graph_reads_a_drift_not_transitive(delta):
    assert not chain_transitive_check(sized_chain_graph(DRIFT, delta))


def test_chain_half_swap_interval():
    # The half-swap interval map comes out chain mixing at this resolution:
    # its fixed point at 0 gives the chain graph a self-loop, which kills
    # any parity obstruction a two-cycle would otherwise impose.
    g = chain_graph(S, 129, 0.02)
    zero = g.points.tolist().index(0.0)
    assert zero in g.succ[zero]
    assert chain_transitive_check(g)
    assert chain_period(g) == 1
    assert chain_mixing_check(g)


def test_chain_two_point_swap():
    g = chain_graph(two_point_swap(), 2, 0.5)
    assert tuple(map(tuple, g.succ)) == ((1,), (0,))
    assert chain_transitive_check(g)
    assert chain_period(g) == 2
    assert not chain_mixing_check(g)
    assert chain_recurrent_nodes(g) == (0, 1)


# The dense build and the tuple-walking Kosaraju and BFS period that the
# range form replaced, kept as an oracle; the period from BFS levels also
# checks the one that chain_period reads off depth-first depths.

def dense_chain_succ(system, n_nodes, delta):
    pts = system.grid(n_nodes)
    fx = system.step_array(pts)
    close = np.abs(fx[:, None] - pts[None, :]) < delta + shadowing.FLOAT_SLACK
    return tuple(tuple(int(j) for j in np.flatnonzero(row)) for row in close)


def oracle_sccs(succ):
    n = len(succ)
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, 0)]
        seen[root] = True
        while stack:
            u, i = stack.pop()
            if i < len(succ[u]):
                stack.append((u, i + 1))
                v = succ[u][i]
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, 0))
            else:
                order.append(u)
    rev = [[] for _ in succ]
    for u, outs in enumerate(succ):
        for v in outs:
            rev[v].append(u)
    comp = [-1] * n
    comps = []
    for root in reversed(order):
        if comp[root] != -1:
            continue
        comp[root] = len(comps)
        comps.append([])
        stack = [root]
        while stack:
            u = stack.pop()
            comps[-1].append(u)
            for v in rev[u]:
                if comp[v] == -1:
                    comp[v] = comp[root]
                    stack.append(v)
    return comps


def oracle_period(succ):
    if len(oracle_sccs(succ)) != 1:
        return None
    dist = [-1] * len(succ)
    dist[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for v in succ[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        queue = nxt
    g_val = 0
    for u, outs in enumerate(succ):
        for v in outs:
            g_val = gcd(g_val, dist[u] + 1 - dist[v])
    return abs(g_val) if g_val else None


def assert_matches_oracle(g, succ):
    assert tuple(map(tuple, g.succ)) == succ
    comps = oracle_sccs(succ)
    assert ({frozenset(c) for c in strongly_connected_components(g)}
            == {frozenset(c) for c in comps})
    period = oracle_period(succ)
    assert chain_period(g) == period
    assert chain_transitive_check(g) == (len(comps) == 1)
    assert chain_mixing_check(g) == (len(comps) == 1 and period == 1)
    recurrent = sorted(u for c in comps for u in c
                       if len(c) > 1 or u in succ[u])
    assert chain_recurrent_nodes(g) == tuple(recurrent)


def first_true(pred, lo, hi, size):
    """Per row r, the least j in [lo[r], hi[r]) with pred(j)[r] true, else
    hi[r]: the bisection, all rows at once, that chain_graph's searchsorted
    and fix-up replaced.  pred must be monotone in j on each row's interval
    (false, then true)."""
    lo, hi = lo.copy(), hi.copy()
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        ok = pred(np.minimum(mid, size - 1))
        hi = np.where(active & ok, mid, hi)
        lo = np.where(active & ~ok, mid + 1, lo)


def bisected_succ(system, n_nodes, delta):
    pts = system.grid(n_nodes)
    n = len(pts)
    fx = system.step_array(pts)
    tol = delta + shadowing.FLOAT_SLACK
    lo = first_true(lambda j: fx - pts[j] < tol,
                    np.zeros(n, dtype=np.intp), np.full(n, n), n)
    hi = first_true(lambda j: ~(fx - pts[j] > -tol), lo, np.full(n, n), n)
    return tuple(map(range, lo.tolist(), hi.tolist()))


def test_chain_ranges_match_bisection():
    """The ends that chain_graph settles from a search on fx -+ tol are the
    bisection's, exactly: on the fixtures and seeded random PL maps at every
    size and delta from far below the grid spacing to above the domain, and
    on random discrete systems."""
    maps = [TENT, S, EX, IDENT] + [IntervalSystem(m, name=f"random{k}")
                                   for k, m in enumerate(random_maps(12, 29))]
    for system in maps:
        for n in (2, 3, 129, 1001, 2001):
            spacing = (system.hi - system.lo) / (n - 1)
            for delta in (1e-9, spacing, 0.01, 0.3, 2.0):
                assert (tuple(chain_graph(system, n, delta).succ)
                        == bisected_succ(system, n, delta)), (system.name, n, delta)
    rng = np.random.default_rng(31)
    for trial in range(200):
        n = int(rng.integers(1, 60))
        points = np.cumsum(rng.choice([0.25, 0.5, 1.0], size=n)) - 3.0
        system = DiscreteSystem(points, rng.integers(0, n, size=n))
        for delta in (0.1, 0.25, 0.5, 1.0, 40.0):
            assert (tuple(chain_graph(system, n, delta).succ)
                    == bisected_succ(system, n, delta))


@pytest.mark.parametrize("system", [TENT, S, EX, IDENT], ids=lambda s: s.name)
@pytest.mark.parametrize("n_nodes", [129, 1001, 2001])
def test_chain_ranges_match_dense_oracle(system, n_nodes):
    # Below the grid spacing, near it, and well above it.
    for delta in (1e-4, 1.0 / (n_nodes - 1), 0.01, 0.03):
        g = chain_graph(system, n_nodes, delta)
        assert_matches_oracle(g, dense_chain_succ(system, n_nodes, delta))


def test_chain_ranges_match_dense_oracle_on_discrete_systems():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        points = np.cumsum(rng.choice([0.5, 1.0, 1.5], size=n)) - 3.0
        if trial % 2:
            images = np.roll(np.arange(n), int(rng.integers(1, n + 1)))
        else:
            images = rng.integers(0, n, size=n)
        system = DiscreteSystem(points, images)
        delta = float(rng.choice([0.25, 0.5, 1.0, 1.6, 3.0]))
        g = chain_graph(system, n, delta)
        assert_matches_oracle(g, dense_chain_succ(system, n, delta))


def block_cycle_succ(rng):
    """Blocks of nodes in a cycle, each node pointing at the whole next
    block (period = number of blocks), with a few ranges stretched by one
    node at either end, which can close shorter or longer cycles."""
    sizes = rng.integers(1, 8, size=int(rng.integers(2, 7)))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    succ = []
    for b, size in enumerate(sizes):
        nb = (b + 1) % len(sizes)
        succ += [[int(starts[nb]), int(starts[nb + 1])]] * int(size)
    for u in rng.integers(0, n, size=int(rng.integers(0, 3))):
        end = int(rng.integers(0, 2))
        succ[u] = list(succ[u])      # a block's nodes share one list
        succ[u][end] = min(max(succ[u][end] + (1 if end else -1), 0), n)
    return tuple(range(lo, hi) for lo, hi in succ)


def ascending_succ(rng):
    """Ranges whose ends ascend together, as in every graph chain_graph
    builds, handed to the nodes in a random order."""
    n = int(rng.integers(1, 30))
    lo = np.sort(rng.integers(0, n + 1, size=n))
    hi = np.maximum.accumulate(np.minimum(lo + rng.integers(0, 6, size=n), n))
    order = rng.permutation(n)
    return tuple(map(range, lo[order].tolist(), hi[order].tolist()))


def ascend_together(succ):
    """No range starts before another and ends after it."""
    return not any(a.start < b.start and a.stop > b.stop
                   for a in succ for b in succ)


CHAIN_CHECKS = (strongly_connected_components, chain_transitive_check,
                chain_period, chain_mixing_check, chain_recurrent_nodes)


def test_chain_checks_match_oracle_on_range_graphs(monkeypatch):
    """Every chain check matches the oracle on graphs whose ranges ascend
    together, and refuses the random-range graphs whose ranges do not.  A
    level cap of 1 or 2 sends most graphs to the Kosaraju fallback, and the
    default cap decides nearly all of them by BFS."""
    for levels in (1, 2, shadowing._BFS_LEVELS):
        monkeypatch.setattr(shadowing, "_BFS_LEVELS", levels)
        check_range_graphs()


def check_range_graphs():
    rng = np.random.default_rng(3)
    refused = 0
    for trial in range(400):
        if trial % 2:
            succ = block_cycle_succ(rng)
        else:
            n = int(rng.integers(1, 30))
            lo = rng.integers(0, n, size=n)
            hi = np.minimum(lo + rng.integers(0, 6, size=n), n)
            succ = tuple(map(range, lo.tolist(), hi.tolist()))
        g = ChainGraph(points=tuple(map(float, range(len(succ)))), delta=0.0,
                       succ=succ)
        if ascend_together(succ):
            assert_matches_oracle(g, tuple(map(tuple, succ)))
            continue
        refused += 1
        assert trial % 2 == 0
        for check in CHAIN_CHECKS:
            with pytest.raises(ValueError, match="do not ascend together"):
                check(g)
    assert refused == 155
    rng = np.random.default_rng(5)
    for trial in range(200):
        succ = ascending_succ(rng)
        g = ChainGraph(points=tuple(map(float, range(len(succ)))), delta=0.0,
                       succ=succ)
        assert_matches_oracle(g, tuple(map(tuple, succ)))


def two_cluster_ring(k):
    """Two clusters of k points, each point mapping to its twin in the
    other: at delta 1.5/k each chain steps to a twin's neighbour, so the
    chain graph is one period-2 ring whose BFS from node 0 needs about 2k
    levels."""
    points = np.arange(k) / k
    return DiscreteSystem(np.concatenate([points, 10 + points]),
                          [k + i for i in range(k)] + list(range(k)))


def count_calls(monkeypatch, name):
    """Patch shadowing.<name> to log the first argument of each call."""
    calls = []
    original = getattr(shadowing, name)

    def logged(first, *rest):
        calls.append(first)
        return original(first, *rest)

    monkeypatch.setattr(shadowing, name, logged)
    return calls


def directions(g, calls):
    """Which of g's two range views each logged BFS or walk went along:
    the successor ranges or the reverse ranges."""
    return ["forward" if lo is g._bounds[0] else
            "reverse" if lo is g._reverse[0] else "other" for lo in calls]


def run_chain_checks(g):
    """Every chain check, twice over; the second round must agree."""
    first, again = ([check(g) for check in (chain_transitive_check,
                                            chain_mixing_check, chain_period,
                                            chain_recurrent_nodes)]
                    for _ in range(2))
    assert first == again
    return first


def test_chain_ring_deeper_than_the_cap_falls_back(monkeypatch):
    bfs = count_calls(monkeypatch, "_bfs_levels")
    walks = count_calls(monkeypatch, "_dfs")
    g = chain_graph(two_cluster_ring(100), 200, 0.015)
    assert run_chain_checks(g) == [True, False, 2, tuple(range(200))]
    assert g._levels is None
    # The forward BFS stops at the cap, the backward one never starts, and
    # Kosaraju's two passes answer in their place, one walk each way.
    assert directions(g, bfs) == ["forward"]
    assert directions(g, walks) == ["forward", "reverse"]


def test_chain_components_found_once_per_graph(monkeypatch):
    """A graph that is not strongly connected is decided by the forward BFS,
    and only chain_recurrent_nodes needs its SCCs, found once however often
    it asks."""
    calls = count_calls(monkeypatch, "strongly_connected_components")
    bfs = count_calls(monkeypatch, "_bfs_levels")
    walks = count_calls(monkeypatch, "_dfs")
    g = chain_graph(IDENT, 65, 0.001)       # only self-loops
    assert run_chain_checks(g) == [False, False, None, tuple(range(65))]
    assert len(calls) == 1 and calls[0] is g
    assert directions(g, bfs) == ["forward"]
    assert directions(g, walks) == ["forward", "reverse"]


def test_chain_period_found_once_per_graph(monkeypatch):
    """Each BFS direction runs once per graph, however many checks ask, and
    decides all four checks on tent and S at 10^5 nodes: no Kosaraju walk
    and no SCC is computed."""
    calls = {name: count_calls(monkeypatch, name)
             for name in ("_bfs_levels", "_dfs", "strongly_connected_components")}
    n = 100_001
    for system in (TENT, S):
        g = chain_graph(system, n, 0.02)
        assert run_chain_checks(g) == [True, True, 1, tuple(range(n))]
        assert directions(g, calls["_bfs_levels"]) == ["forward", "reverse"]
        calls["_bfs_levels"].clear()
    assert calls["_dfs"] == calls["strongly_connected_components"] == []


def test_coreach_is_cached_as_one_flag(monkeypatch):
    # The backward BFS is kept as whether it reached every node, not as its
    # level array, and as None past the level cap.
    assert chain_graph(TENT, 1001, 0.01)._coreach is True
    one_way = ChainGraph(points=(0.0, 1.0), delta=0.1, succ=(range(0, 2), range(1, 2)))
    assert one_way._coreach is False
    assert not chain_transitive_check(one_way)
    monkeypatch.setattr(shadowing, "_BFS_LEVELS", 1)
    deep = chain_graph(TENT, 1001, 0.01)
    assert deep._coreach is None
    assert chain_transitive_check(deep)


def brute_reverse(succ):
    """For each position k of the (lo, hi) order, the positions of the
    nodes whose range holds node by[k], found by listing every edge."""
    by = sorted(range(len(succ)), key=lambda u: (succ[u].start, succ[u].stop))
    pos = {u: k for k, u in enumerate(by)}
    preds = [set() for _ in succ]
    for u, r in enumerate(succ):
        for v in r:
            preds[pos[v]].add(pos[u])
    return by, preds


def assert_reverse_matches_brute_force(g):
    by, preds = brute_reverse(g.succ)
    assert g._bounds[2].tolist() == by
    rlo, rhi = g._reverse
    assert [set(range(a, b)) for a, b in zip(rlo.tolist(), rhi.tolist())] == preds


def test_reverse_ranges_match_brute_force():
    """Each position's reverse range holds exactly the positions of its
    node's predecessors, on hand-built and on chain_graph graphs."""
    rng = np.random.default_rng(17)
    for trial in range(300):
        succ = block_cycle_succ(rng) if trial % 2 else ascending_succ(rng)
        assert_reverse_matches_brute_force(ChainGraph(
            points=tuple(map(float, range(len(succ)))), delta=0.0, succ=succ))
    for system in (TENT, S, EX, IDENT):
        for n, delta in ((2, 0.5), (129, 0.01), (1001, 1e-4), (1001, 0.03)):
            assert_reverse_matches_brute_force(chain_graph(system, n, delta))
    assert_reverse_matches_brute_force(chain_graph(two_cluster_ring(100), 200, 0.015))


# The chain_graph that stored succ as a tuple of ranges and points as a tuple
# of floats, and the _bounds that read the ends back out of those ranges,
# kept as oracles for the array form.

def tuple_chain_graph(system, n_nodes, delta):
    pts = system.grid(n_nodes)
    lo, hi = shadowing._match_runs(pts, *shadowing._window(
        system.step_array(pts), delta + shadowing.FLOAT_SLACK))
    return tuple(pts.tolist()), tuple(map(range, lo.tolist(), hi.tolist()))


def fromiter_bounds(succ):
    lo = np.fromiter((r.start for r in succ), np.intp, len(succ))
    hi = np.fromiter((r.stop for r in succ), np.intp, len(succ))
    return lo, hi, np.lexsort((hi, lo))


CHAIN_VERDICTS = (chain_transitive_check, chain_mixing_check, chain_period,
                  chain_recurrent_nodes)


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from([TENT, S, EX, CLUSTERS]), n=st.integers(2, 3000),
       delta=st.floats(1e-4, 0.5))
def test_array_graph_matches_tuple_oracle(system, n, delta):
    """chain_graph's arrays hold the ranges and points that the tuple build
    made, in blocks of any size, and a graph rebuilt from tuple(g.succ)
    reads the same ends and gives the same four verdicts."""
    points, succ = tuple_chain_graph(system, n, delta)
    g = chain_graph(system, n, delta)
    again = ChainGraph(points=points, delta=delta, succ=tuple(g.succ))
    with mock.patch.object(shadowing, "_block_size", blocks_of(7)):
        blocked = chain_graph(system, n, delta)
    for h in (g, again, blocked):
        assert tuple(h.succ) == succ
        assert tuple(h.points.tolist()) == points
        assert all(np.array_equal(a, b) for a, b in zip(h._bounds, fromiter_bounds(succ)))
    assert [check(g) for check in CHAIN_VERDICTS] == [check(again) for check in CHAIN_VERDICTS]


def test_replaced_succ_builds_a_new_graph():
    """dataclasses.replace(g, succ=...), as perfbench's drop_last_edge does
    it, reads the new ranges into new arrays and decides the new graph
    afresh: none of g's cached verdicts carry over."""
    g = chain_graph(two_point_swap(), 2, 0.5)
    assert run_chain_checks(g) == [True, False, 2, (0, 1)]
    succ = list(g.succ)
    succ[-1] = succ[-1][:-1]
    h = replace(g, succ=tuple(succ))
    assert set(vars(h)) == {"points", "delta", "succ", "lo", "hi"}
    assert (h.lo.tolist(), h.hi.tolist()) == ([1, 0], [2, 0])
    assert (g.lo.tolist(), g.hi.tolist()) == ([1, 0], [2, 1])
    assert [len(r) for r in h.succ] == [1, 0]
    assert run_chain_checks(h) == [False, False, None, ()]


@pytest.mark.parametrize("points, succ, node", [
    ((0.0, 1.0, 2.0, 3.0), (range(0, 4, 3),) * 4, 0),   # not a unit step
    ((0.0, 1.0), (range(0, 9),) * 2, 0),                # past the last node
    ((0.0, 1.0), (range(0, 2), range(-1, 1)), 1),       # below node 0
    ((0.0, 1.0), (range(0, 2), range(2, 1)), 1),        # ends reversed
    ((0.0, 1.0), (range(0, 2), (0, 1)), 1),             # not a range
])
def test_chain_graph_rejects_a_successor_outside_the_nodes(points, succ, node):
    with pytest.raises(ValueError, match=f"the successors of node {node} are not a "
                                         rf"range\(lo, hi\) with 0 <= lo <= hi <= {len(points)}"):
        ChainGraph(points=points, delta=0.1, succ=succ)


def test_chain_graph_needs_one_range_per_node():
    with pytest.raises(ValueError, match="1 successor ranges for 2 nodes"):
        ChainGraph(points=(0.0, 1.0), delta=0.1, succ=(range(0, 2),))


def test_chain_graph_arrays_are_read_only():
    """Every chain check is cached per graph, so a graph's arrays refuse an
    in-place write, built by chain_graph or by hand."""
    hand = ChainGraph(points=(0.0, 1.0), delta=0.1, succ=(range(1, 2), range(0, 1)))
    for g in (chain_graph(TENT, 129, 0.02), hand):
        for a in (g.points, g.lo, g.hi):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1


def test_discrete_nearest_matches_argmin():
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, 30))
        if trial % 3:
            points = np.sort(rng.choice(np.arange(-40, 40) / 8, size=n,
                                        replace=False))
        else:
            points = np.cumsum(rng.uniform(1e-3, 1.0, size=n))
        system = DiscreteSystem(points, rng.integers(0, n, size=n))
        span = points[-1] - points[0] + 1
        mids = (points[:-1] + points[1:]) / 2          # exact ties
        arr = np.concatenate([
            mids, points, rng.uniform(points[0] - span, points[-1] + span, 50),
            [points[0] - 1e300, points[-1] + 1e300, -1e18, 1e18]])
        want = np.abs(arr[:, None] - points[None, :]).argmin(axis=1)
        assert np.array_equal(system._nearest(arr), want)
        assert np.array_equal(galloping_nearest(points, arr), want)
        # step_array clamps first, so a far value snaps to its end point.
        clamped = np.clip(arr, points[0], points[-1])
        want = np.abs(clamped[:, None] - points[None, :]).argmin(axis=1)
        assert np.array_equal(system.step_array(arr),
                              points[system.images[want]])


def test_discrete_step_sends_far_values_to_the_nearest_end():
    # Seen from these values every rounded distance ties, and the nearest
    # point by the tie rule would be the lowest; the nearest end is meant,
    # as IntervalSystem holds f(lo) and f(hi) outside its domain.
    system = DiscreteSystem([0.0, 0.5, 1.0], [1, 2, 0])
    far = np.array([np.inf, 1e308, 1e17, -np.inf, -1e308, -1e17, np.nan])
    got = system.step_array(far)
    assert got[:6].tolist() == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5]
    assert np.isnan(got[6])
    ramp = IntervalSystem(builtin("identity"))
    assert np.array_equal(ramp.step_array(far[:6]), [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def test_discrete_nearest_crosses_tied_distances():
    # Seen from 1e300 every distance to 20,000 points in [0, 1) rounds to
    # 1e300, so the tie run is all of them, and the lowest point is meant.
    n = 20_000
    points = np.arange(n) / n
    system = DiscreteSystem(points, np.zeros(n, dtype=int))
    for value, want in ((1e300, 0), (-1e300, 0), (0.5 + 1e-9, n // 2),
                        (2.0, n - 1)):
        assert system._nearest(np.array([value])).tolist() == [want]


def least_true(pred, guess: np.ndarray, size: int) -> np.ndarray:
    """Per row r, the least j in [0, size] with pred(j)[r] true (size when
    none), all rows at once.

    pred takes one index in [0, size) per row and must be monotone in j on
    each row over all of [0, size): false, then true.  Each guess gallops
    away from itself by 1, 2, 4, ... indices a pass until pred flips, and
    the last step is bisected; so a guess a step or two off settles in a
    pass or two, and one k indices off in O(log k) passes.
    """
    down = (guess > 0) & pred(np.maximum(guess - 1, 0))
    up = (guess < size) & ~pred(np.minimum(guess, size - 1))
    # pred is false below lo and true at hi (or hi is size).
    lo = np.where(down, 0, guess + up)
    hi = np.where(down, guess - 1, np.where(up, size, guess))
    step = 1
    while (moving := lo < hi).any():
        # A galloping row probes step indices past its last probe; a row
        # whose gallop has overshot bisects.
        at = np.where(down, np.maximum(hi - step, lo),
                      np.where(up, np.minimum(lo + step - 1, hi - 1), (lo + hi) // 2))
        hit = pred(np.clip(at, 0, size - 1))
        hi = np.where(moving & hit, at, hi)
        lo = np.where(moving & ~hit, at + 1, lo)
        down &= hit
        up &= ~hit
        step *= 2
    return lo


def galloping_nearest(points: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """The nearest point to each value, the lowest on a tie, by galloping
    down the tie run from the nearer neighbour: an oracle for _nearest that
    reads rounded distances only, never a window."""
    k = np.searchsorted(points, arr)
    left, right = np.maximum(k - 1, 0), np.minimum(k, len(points) - 1)
    d_left, d_right = np.abs(arr - points[left]), np.abs(arr - points[right])
    best = np.where(d_left <= d_right, left, right)
    d = np.minimum(d_left, d_right)
    # Rounded distances fall toward arr, so the points at distance d below
    # best form one run ending at best.  Read at best past it, the test
    # holds from the run's start up.
    return least_true(lambda j: np.abs(arr - points[np.minimum(j, best)]) <= d,
                      best, len(points))


def test_least_true_finds_each_threshold_from_any_guess():
    # Rows of monotone predicates j >= t, with t and the guess anywhere in
    # [0, size] (t = size: never true), all settled together.
    rng = np.random.default_rng(41)
    for size in (1, 2, 3, 17, 1000):
        t = rng.integers(0, size + 1, 500)
        guess = rng.integers(0, size + 1, 500)
        passes = []
        got = least_true(lambda j: passes.append(1) or j >= t, guess, size)
        assert np.array_equal(got, t)
        assert len(passes) <= 2 * ceil(log2(size + 1)) + 3


def test_interval_step_array_matches_clipped_interp():
    # step_array leaves out the clamp to the domain: np.interp already holds
    # the end values outside [xs[0], xs[-1]].  Compared bit for bit against
    # the clamped form, at random points, at every breakpoint and its float
    # neighbours, and at the special values.
    rng = np.random.default_rng(19)
    for system in (TENT, S, EX, IDENT):
        xs = system.xs
        width = system.hi - system.lo
        arr = np.concatenate([
            rng.uniform(system.lo - width, system.hi + width, 200_000),
            xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
            [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300]])
        want = np.interp(np.clip(arr, system.lo, system.hi), xs, system.ys)
        got = system.step_array(arr)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), system.name


@pytest.mark.parametrize("system", [
    DiscreteSystem([0.0, 0.5, 1.0], [1, 2, 0]), TENT, two_cluster_ring(5)],
    ids=lambda s: type(s).__name__ + (f":{s.name}" if s.name else ""))
def test_step_array_keeps_nan(system):
    # NaN entries come back NaN; the finite entries step as they do alone.
    finite = np.linspace(system.lo - 1, system.hi + 1, 41)
    arr = np.insert(finite, [0, 7, 41], np.nan)
    got = system.step_array(arr)
    assert np.isnan(got).tolist() == np.isnan(arr).tolist()
    assert np.array_equal(got[~np.isnan(arr)], system.step_array(finite))
    assert np.isnan(system.step_array(np.array([np.nan]))).all()


def test_discrete_points_must_ascend():
    for points in ([0.0, 0.0], [1.0, 0.0], [0.0, 2.0, 1.0]):
        with pytest.raises(ValueError, match="strictly ascending"):
            DiscreteSystem(points, [0] * len(points))


def test_probe_needs_a_pseudo_orbit():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            fg_shadowing_probe(TENT, 0.05, [0.01], 10, trials=trials)
    with pytest.raises(ValueError, match="trials must be >= 0"):
        fg_shadowing_probe(EX, 0.05, [0.01], 10, trials=-1,
                           challenges=[crossing_challenge()])
    # A challenge alone is something to trace.
    res = fg_shadowing_probe(EX, 0.05, [1e-4], 64, trials=0,
                             n_candidates=2001, challenges=[crossing_challenge()])
    assert res.verdict == "falsified" and len(res.rows) == 1


def test_chain_budget():
    with pytest.raises(BudgetError):
        chain_graph(TENT, 2 ** 20 + 1, 0.01)


@pytest.mark.parametrize("system", [TENT, CLUSTERS], ids=lambda s: s.name)
def test_each_grid_is_charged_once_where_it_is_built(monkeypatch, system):
    charges = []
    monkeypatch.setattr(shadowing, "charge",
                        lambda name, amount: charges.append((name, amount)))
    g = chain_graph(system, 33, 0.05)
    assert charges == [("enum_nodes", len(g))]
    charges.clear()
    system.grid(33)
    assert charges == [("enum_nodes", len(g))]


def test_discrete_grid_is_capped():
    with mock.patch.dict(budgets.CAPS, enum_nodes=len(CLUSTERS.points) - 1):
        with pytest.raises(BudgetError, match="enum_nodes budget exceeded: 80"):
            CLUSTERS.grid(2)
        with pytest.raises(BudgetError):
            chain_graph(CLUSTERS, 2, 0.05)


@pytest.mark.parametrize("eps", [0.0, -0.05, float("nan"), float("inf")])
def test_probe_rejects_eps_before_any_work(monkeypatch, eps):
    # No eps-ball, or one that every start meets, leaves no evidence.
    def refuse(*args, **kwargs):
        raise AssertionError("the probe did work before its checks")

    for name in ("_pseudo_orbits", "best_tracers"):
        monkeypatch.setattr(shadowing, name, refuse)
    system = IntervalSystem(builtin("tent"))
    system.grid = refuse
    with pytest.raises(ValueError,
                       match=f"eps must be positive and finite, got {eps}"):
        fg_shadowing_probe(system, eps, [0.01], 10, trials=1)


def test_check_probe_checks_every_target_and_builds_one_grid():
    built = []
    system = IntervalSystem(builtin("tent"))
    system.grid = lambda n: built.append(n) or np.zeros(n)
    with pytest.raises(ValueError, match="unknown target 'nope'"):
        shadowing.check_probe(system, 0.05, [0.01], 10, 1, ("full", "nope"),
                              None, 65, ())
    assert built == []
    ladder, params, candidates = shadowing.check_probe(
        system, 0.05, [0.001, 0.01, 0.001], 10, 1,
        ("full", "piecewise_syndetic"), TIGHT, 65, ())
    assert (ladder, params, len(candidates), built) == ([0.01, 0.001], TIGHT, 65, [65])
