"""Pseudo-orbit, tracing, and chain-graph fixtures.

Everything here is deterministic: orbits are seeded by strings, tracer grids
are ascending, and the float comparisons all use the shared slack constant,
so expected values can be frozen.
"""

import random
import tracemalloc
from dataclasses import replace
from math import gcd
from unittest import mock

import numpy as np
import pytest

from chaoskit import budgets, shadowing
from chaoskit.budgets import BudgetError
from chaoskit.interval import builtin
from chaoskit.setfam import CENSORED, STRICT, FamilyParams, WindowSet, classify
from chaoskit.shadowing import (
    BestTracer, ChainGraph, DiscreteSystem, IntervalSystem, PseudoOrbit,
    TraceReport, best_tracer, best_tracers, chain_graph, chain_mixing_check, chain_period, chain_recurrent_nodes,
    chain_transitive_check, crossing_challenge, fg_shadowing_probe,
    make_pseudo_orbit, orbit_points, recompute_valid_set,
    strongly_connected_components, trace_set,
)

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
    # One builder call holds every delta, trial and challenge, and no
    # step_array call gets fewer points than the probe has rows.
    built, sizes = [], []
    original = shadowing._pseudo_orbits

    def builder(system, length, rows):
        built.append(len(rows))
        return original(system, length, rows)

    class Counted(IntervalSystem):
        def step_array(self, arr):
            sizes.append(np.size(arr))
            return super().step_array(arr)
    monkeypatch.setattr(shadowing, "_pseudo_orbits", builder)
    res = fg_shadowing_probe(Counted(builtin("example211")), 0.05, [0.01, 1e-3],
                             24, trials=3, n_candidates=501, seed="together",
                             challenges=[crossing_challenge()])
    assert built == [len(res.rows)] == [8]
    assert min(sizes) >= 8


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


@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("objective", shadowing.OBJECTIVES)
@pytest.mark.parametrize("system", [TENT, S, EX, CLUSTERS], ids=lambda s: s.name)
def test_best_tracers_match_per_orbit_oracles(monkeypatch, system, objective,
                                              small_blocks):
    # Candidate counts one below and one above a block boundary, at the
    # real block size and at one small enough for the C x L mask oracle.
    if small_blocks:
        monkeypatch.setattr(shadowing, "_SWEEP_CELLS", 3 * 64)
    orbits = [make_pseudo_orbit(system, 0.01, 24, scheme=scheme,
                                seed=f"sweep/{system.name}", target=system.hi)
              for scheme in ("uniform", "bounded", "adversarial")]
    block = shadowing._SWEEP_CELLS // len(orbits)
    for count in (block - 1, block + 1):
        candidates = np.linspace(system.lo, system.hi, count)
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
    monkeypatch.setattr(shadowing, "_SWEEP_CELLS", 8)
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
    # Mid-probe, a probe orbit asked for at another eps, objective or grid
    # is scored afresh; outside a probe there is no sweep to read.
    got = []
    original = shadowing.setfam.classify

    def classify(a, params):
        sweep = shadowing._sweeps.get()
        orbit = next(iter(sweep.winners))
        for eps, objective, cands in ((0.01, sweep.objective, sweep.candidates),
                                      (sweep.eps, "min_max_gap", sweep.candidates),
                                      (sweep.eps, sweep.objective, sweep.candidates[:-1] + 1e-3)):
            got.append((best_tracer(TENT, orbit, cands, eps, objective),
                        per_orbit_best_tracer(TENT, orbit, cands, eps, objective)))
        got.append((best_tracer(TENT, orbit, sweep.candidates, sweep.eps,
                                sweep.objective), sweep.winners[orbit]))
        return original(a, params)
    monkeypatch.setattr(shadowing.setfam, "classify", classify)
    fg_shadowing_probe(TENT, 0.05, [0.01], 10, trials=1, n_candidates=101,
                       seed="answers")
    assert len(got) == 4
    assert all(fresh == oracle for fresh, oracle in got)

    monkeypatch.setattr(shadowing.setfam, "classify", original)
    calls = []
    sweep = shadowing.best_tracers
    monkeypatch.setattr(shadowing, "best_tracers",
                        lambda system, orbits, *rest: calls.append(len(orbits))
                        or sweep(system, orbits, *rest))
    orbit = make_pseudo_orbit(TENT, 0.01, 10, scheme="uniform", seed="outside")
    best_tracer(TENT, orbit, TENT.grid(101), 0.05)
    assert calls == [1]


def test_best_tracer_memory_is_linear_in_candidates():
    # A C x L mask alone takes C * L bytes; the sweep's bound does not grow
    # with the number of orbits it scores.
    orbits = [make_pseudo_orbit(TENT, 0.01, 512, scheme="uniform", seed=f"mem{t}")
              for t in range(18)]
    candidates = TENT.grid(20_001)
    bound = len(candidates) * len(orbits[0]) / 4
    for objective in ("max_cardinality", "min_max_gap"):
        for sweep in (lambda: best_tracer(TENT, orbits[0], candidates, 0.05, objective),
                      lambda: best_tracers(TENT, orbits, candidates, 0.05, objective)):
            tracemalloc.start()
            try:
                sweep()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, objective


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


def test_chain_half_swap_interval():
    # The half-swap interval map comes out chain mixing at this resolution:
    # its fixed point at 0 gives the chain graph a self-loop, which kills
    # any parity obstruction a two-cycle would otherwise impose.
    g = chain_graph(S, 129, 0.02)
    zero = g.points.index(0.0)
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


def test_chain_checks_match_oracle_on_range_graphs():
    """Every chain check matches the oracle on graphs whose ranges ascend
    together, and refuses the random-range graphs whose ranges do not."""
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


def test_chain_components_found_once_per_graph(monkeypatch):
    calls = []
    original = shadowing.strongly_connected_components
    monkeypatch.setattr(shadowing, "strongly_connected_components",
                        lambda g: calls.append(g) or original(g))
    g = chain_graph(TENT, 129, 0.02)
    chain_transitive_check(g)
    chain_mixing_check(g)
    chain_period(g)
    chain_recurrent_nodes(g)
    assert calls == [g]


def test_chain_period_found_once_per_graph(monkeypatch):
    """Each graph is traversed once per Kosaraju pass, however many checks
    ask: each pass walks one _unvisited union-find, and the period reads the
    depths of the forward pass."""
    calls = []
    original = shadowing._unvisited
    monkeypatch.setattr(shadowing, "_unvisited",
                        lambda n: calls.append(n) or original(n))
    g = chain_graph(TENT, 129, 0.02)
    chain_transitive_check(g)
    chain_mixing_check(g)
    chain_period(g)
    chain_recurrent_nodes(g)
    assert chain_period(g) == 1
    assert calls == [129, 129]


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
        assert np.array_equal(system.step_array(arr),
                              points[system.images[want]])


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
