"""Pseudo-orbit, tracing, and chain-graph fixtures.

Everything here is deterministic: orbits are seeded by strings, tracer grids
are ascending, and the float comparisons all use the shared slack constant,
so expected values can be frozen.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from chaoskit import shadowing
from chaoskit.budgets import BudgetError
from chaoskit.interval import builtin
from chaoskit.setfam import FamilyParams, WindowSet, classify
from chaoskit.shadowing import (
    BestTracer, IntervalSystem, PseudoOrbit, TraceReport, best_tracer,
    chain_graph, chain_mixing_check, chain_period, chain_recurrent_nodes,
    chain_transitive_check, crossing_challenge, fg_shadowing_probe,
    make_pseudo_orbit, orbit_points, p_chaos_report, recompute_valid_set,
    strongly_connected_components, trace_set, two_point_swap,
)

TENT = IntervalSystem(builtin("tent"), name="tent")
S = IntervalSystem(builtin("S"), name="S")
EX = IntervalSystem(builtin("example211"), name="example211")
IDENT = IntervalSystem(builtin("identity"), name="identity")

TIGHT = FamilyParams(gap=2, block=4, cofinite_head=2, burnin=4)


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
    assert g.succ == ((1,), (0,))
    assert chain_transitive_check(g)
    assert chain_period(g) == 2
    assert not chain_mixing_check(g)
    assert chain_recurrent_nodes(g) == (0, 1)


def test_chain_budget():
    with pytest.raises(BudgetError):
        chain_graph(TENT, 2 ** 20 + 1, 0.01)


# ---------------------------------------------------------------------------
# Combined report.

def test_p_chaos_tent():
    rep = p_chaos_report(builtin("tent"), "tent", eps=0.05,
                         deltas=[0.01, 1e-4], length=10, trials=3,
                         n_candidates=10_001, seed="t",
                         density_epsilon=F(1, 64))
    assert rep.density.covered_fraction == 1
    assert rep.probe.verdict == "pass"
    assert rep.chain_transitive and rep.chain_mixing
    assert rep.evidence
    assert any("mixing=true" in n for n in rep.notes)
    assert rep.aux_probe.target == "piecewise_syndetic"


def test_p_chaos_zero_density_epsilon_raises():
    # Zero is a bad scale, not a request for the default.
    with pytest.raises(ValueError, match="epsilon must be positive"):
        p_chaos_report(builtin("tent"), "tent", eps=0.05, deltas=[0.01],
                       length=10, trials=1, density_epsilon=0)
