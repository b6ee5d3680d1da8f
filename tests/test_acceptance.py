"""Release gate: flagship fixtures, one test per numbered criterion.

Each test prints exactly one line

    ACCEPTANCE <nn> <name>: PASS|FAIL (<seconds>s)

before asserting, so a plain ``pytest -v tests/test_acceptance.py`` (or
``-s`` for the lines themselves) reads as a checklist.

Criterion 10 contrasts the chain graphs of the tent map and the half-swap
map ``S``.  Both are chain transitive and chain mixing: ``S(0) = 0`` puts a
self-loop at the grid node 0, and a chain-transitive map of a connected
interval is always chain mixing.  The even/odd structure of ``S`` shows
away from that fixed point: on the nodes with ``|p| >= 2*delta`` every edge
crosses 0, and the largest strongly connected component has period 2.
"""

import random
import time
from bisect import bisect_left
from fractions import Fraction as F

import numpy as np

from chaoskit import setfam
from chaoskit.cli import main as cli_main
from chaoskit.interval import (
    SurveyParams, builtin, devaney_report, leo_check, periodic_density_report,
    pl_power, sensitivity_hitting_set, transitivity_hitting_set,
)
from chaoskit.setfam import CENSORED, FamilyParams, WindowSet, window_set
from chaoskit.shadowing import (
    ChainGraph, IntervalSystem, best_tracer, chain_graph, chain_mixing_check,
    chain_period, chain_transitive_check, crossing_challenge,
    fg_shadowing_probe, make_pseudo_orbit, strongly_connected_components,
)
from chaoskit.subshift import (
    SpacingShift, SturmianShift, cylinder_hitting_set, dense_periodic_witness_ok,
    fs_transitivity_report, gap_set, golden_spec, language, occurrence_gaps,
    periodicity_probe, spacing_dense_periodic, spacing_member,
)

from test_setfam import dilate, max_gap, with_horizon

CLASSIFY = FamilyParams(gap=2, block=8, cofinite_head=8, burnin=8)


def _line(num: int, name: str, ok: bool, t0: float) -> None:
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({dt:.2f}s)")


def nonpowers(h):
    return setfam.from_generator("complement(powers(2))", h)


def evens(h):
    return setfam.from_generator("evens", h)


def test_criterion_01_family_classifier_fixtures():
    t0 = time.perf_counter()
    v = setfam.classify(nonpowers(256), CLASSIFY)
    w = setfam.classify(evens(256), CLASSIFY)
    ok = (v.thick and v.longest_block >= 127
          and v.syndetic and v.max_gap <= 2
          and not v.cofinite
          and w.syndetic and not w.thick)
    _line(1, "family classifier fixtures", ok, t0)
    assert ok, (v, w)


def test_criterion_02_spacing_shift_criteria():
    t0 = time.perf_counter()
    p = nonpowers(256)
    rep = spacing_dense_periodic(p, k_max=128)
    searched = rep.passed and not rep.failures and set(rep.witnesses) == {
        q for q in p.members if q <= 64}
    doubling = all(dense_periodic_witness_ok(p, q, 2 * q)
                   for q in p.members if 2 <= q <= 64)
    # The doubling rule has exactly one exception, at the smallest element:
    # k = 2 sweeps out every positive integer, so it hits the excluded
    # powers; the ascending search settles on k = 6 instead.
    exception = (1 in p and not dense_periodic_witness_ok(p, 1, 2)
                 and rep.witnesses[1] == 6)
    e = evens(256)
    erep = spacing_dense_periodic(e, k_max=128)
    even_rule = erep.passed and all(
        dense_periodic_witness_ok(e, q, 2) for q in e.members if 1 <= q <= 64)

    mixing_ok = True
    for fix in (setfam.full_window(128),
                window_set(128, set(range(1, 128)) - {3}),
                evens(128), nonpowers(128)):
        srep = fs_transitivity_report(SpacingShift(fix), 2, 64, CLASSIFY)
        if srep.all_cofinite != srep.p_verdict.cofinite:
            mixing_ok = False
    ok = searched and doubling and exception and even_rule and mixing_ok
    _line(2, "spacing-shift criteria", ok, t0)
    assert ok, (searched, doubling, exception, even_rule, mixing_ok)


def _brute_triples(p: WindowSet, length: int = 11, n_max: int = 8,
                   max_word: int = 3) -> set:
    """All (prefix, shift, segment) coincidences over every admissible word
    of a fixed length; prefix-pruned DFS, no gap-criterion shortcuts."""
    seen = set()
    stack = [""]
    while stack:
        w = stack.pop()
        if len(w) == length:
            for a in range(1, max_word + 1):
                for n in range(1, n_max + 1):
                    for b in range(1, max_word + 1):
                        seen.add((w[:a], n, w[n:n + b]))
            continue
        for c in "01":
            cand = w + c
            if spacing_member(p, cand):
                stack.append(cand)
    return seen


def test_criterion_03_hitting_set_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random("acceptance-3")
    mismatches = []
    for trial in range(50):
        members = set()
        while not members:
            members = {m for m in range(1, 32) if rng.random() < 0.5}
        p = window_set(32, members)
        oracle = SpacingShift(p)
        truth = _brute_triples(p)
        words = sorted(w for w in language(oracle, 3) if w)
        for u in words:
            for v in words:
                got = cylinder_hitting_set(oracle, u, v, 8).members
                want = tuple(n for n in range(1, 9) if (u, n, v) in truth)
                if got != want:
                    mismatches.append((trial, u, v, got, want))
    ok = not mismatches
    _line(3, "hitting-set oracle equivalence", ok, t0)
    assert ok, mismatches[:5]


def test_criterion_04_gap_set_identity():
    t0 = time.perf_counter()
    fixtures = [setfam.from_generator(g, 128)
                for g in ("all", "evens", "multiples(3)",
                          "complement(powers(2))")]
    fixtures.append(window_set(128, [1, 2, 5, 11, 29, 64]))
    ok = True
    for p in fixtures:
        got = gap_set(SpacingShift(p), "1", "1", 32).members
        want = tuple(q - 1 for q in p.members if 1 <= q <= 33)
        if got != want:
            ok = False
    _line(4, "gap set identity", ok, t0)
    assert ok


def _ten_cells(lo: F, hi: F) -> list[tuple[F, F]]:
    width = (hi - lo) / 10
    margin = F(1, 100)
    return [(lo + k * width + margin, lo + (k + 1) * width - margin)
            for k in range(10)]


def test_criterion_05_half_swap_parity_law():
    t0 = time.perf_counter()
    s = builtin("S")
    cells = _ten_cells(F(-1), F(1))        # first five negative, last five positive
    evens_ = set(range(2, 65, 2))
    odds_ = set(range(1, 64, 2))
    ok = True
    for i, u in enumerate(cells):
        for j, v in enumerate(cells):
            hits = set(transitivity_hitting_set(s, u, v, 64).window.members)
            allowed = evens_ if (i < 5) == (j < 5) else odds_
            if not hits <= allowed:
                ok = False
    verdicts = devaney_report(s, SurveyParams(), "S").verdicts
    ok = ok and verdicts["Fs"] is True and verdicts["Ft"] is False
    _line(5, "half-swap parity law", ok, t0)
    assert ok, verdicts


def test_criterion_06_tent_fixture():
    t0 = time.perf_counter()
    tent = builtin("tent")
    fam = FamilyParams(gap=16, block=8, cofinite_head=16, burnin=8)
    cells = SurveyParams().grid(tent)
    leo_ok = all(leo_check(tent, cell, 64) is not None for cell in cells)
    cof_ok = all(
        setfam.classify(transitivity_hitting_set(tent, u, v, 64).window,
                        fam).cofinite
        for u in cells for v in cells)
    dens = periodic_density_report(tent, F(1, 64), 10)
    survey = devaney_report(
        tent, SurveyParams(delta=F(1, 4), density_epsilon=F(1, 64)), "tent")
    ok = (leo_ok and cof_ok and dens.covered_fraction == 1
          and survey.verdicts["Fcf"] is True)
    _line(6, "tent fixture", ok, t0)
    assert ok, (leo_ok, cof_ok, dens.covered_fraction, survey.verdicts)


def test_criterion_07_dilation_embedding():
    t0 = time.perf_counter()
    rng = random.Random("acceptance-7")
    delta = F(1, 2)
    ok = True
    for m, lo, hi in ((builtin("S"), F(-1), F(1)), (builtin("tent"), F(0), F(1))):
        powers = {n: pl_power(m, n) for n in (2, 3, 4)}
        for _ in range(20):
            a = lo + F(rng.randrange(0, 1000), 1000) * (hi - lo - F(1, 16))
            u = (a, a + F(1, 16))
            slow = set(sensitivity_hitting_set(m, u, delta, 48).window.members)
            for n, mn in powers.items():
                fast = sensitivity_hitting_set(mn, u, delta, 48 // n).window
                dilated = dilate(with_horizon(fast, 49), n)
                if not set(dilated.members) <= slow:
                    ok = False
    _line(7, "dilation embedding", ok, t0)
    assert ok


def test_criterion_08_sturmian_battery():
    t0 = time.perf_counter()
    spec = golden_spec(10_000)
    oracle = SturmianShift(spec)
    lang = language(oracle, 10)
    counts_ok = all(sum(1 for w in lang if len(w) == n) == n + 1
                    for n in range(1, 11))
    gaps_ok = all(
        max_gap(occurrence_gaps(spec, w), CENSORED) <= 34
        for w in lang if 1 <= len(w) <= 8)
    probe_ok = periodicity_probe(oracle, 6, 8) is False
    ok = counts_ok and gaps_ok and probe_ok
    _line(8, "sturmian battery", ok, t0)
    assert ok, (counts_ok, gaps_ok, probe_ok)


def test_criterion_09_shadowing_contrast():
    t0 = time.perf_counter()
    tent_sys = IntervalSystem(builtin("tent"), name="tent")
    ex_sys = IntervalSystem(builtin("example211"), name="example211")
    delta, eps = 1e-4, 0.05

    tent_probe = fg_shadowing_probe(tent_sys, eps, [delta], 10, trials=20,
                                    n_candidates=10_001, seed="42")
    ex_probe = fg_shadowing_probe(ex_sys, eps, [delta], 64, trials=20,
                                  n_candidates=10_001, seed="42",
                                  challenges=[crossing_challenge()])
    w = ex_probe.witness
    witness_ok = (w is not None and w.challenge and w.label == "crossing"
                  and w.cardinality < 64)

    # Replay: the probe re-run is row-identical, and rebuilding the witness
    # orbit from its recorded seed reproduces the same tracer and score.
    again = fg_shadowing_probe(ex_sys, eps, [delta], 64, trials=20,
                               n_candidates=10_001, seed="42",
                               challenges=[crossing_challenge()])
    replay_ok = again.rows == ex_probe.rows and again.witness == w
    ch = crossing_challenge()
    orb1 = make_pseudo_orbit(ex_sys, delta, 64, scheme="adversarial",
                             seed=f"42/{delta!r}/crossing",
                             x0=ch.x0_of_delta(delta), target=1.0)
    orb2 = make_pseudo_orbit(ex_sys, delta, 64, scheme="adversarial",
                             seed=f"42/{delta!r}/crossing",
                             x0=ch.x0_of_delta(delta), target=1.0)
    bt = best_tracer(ex_sys, orb1, ex_sys.grid(10_001), eps)
    replay_ok = (replay_ok and np.array_equal(orb1.points, orb2.points)
                 and w is not None and bt.report.x0 == w.tracer
                 and bt.report.cardinality == w.cardinality)

    ok = (tent_probe.verdict == "pass" and ex_probe.verdict == "falsified"
          and witness_ok and replay_ok)
    _line(9, "shadowing contrast", ok, t0)
    assert ok, (tent_probe.verdict, ex_probe.verdict, witness_ok, replay_ok)


def _induced(g: ChainGraph, keep) -> ChainGraph:
    """Sub-graph of g on the nodes in keep (ascending), re-indexed.

    The re-index is monotone, so each successor range maps onto a range."""
    succ = tuple(range(bisect_left(keep, g.succ[u].start),
                       bisect_left(keep, g.succ[u].stop)) for u in keep)
    return ChainGraph(points=tuple(g.points[u] for u in keep),
                      delta=g.delta, succ=succ)


def test_criterion_10_chain_graph_contrast():
    t0 = time.perf_counter()
    tent_g = chain_graph(IntervalSystem(builtin("tent")), 1001, 0.01)
    s_g = chain_graph(IntervalSystem(builtin("S")), 2001, 0.01)
    tent_ok = chain_transitive_check(tent_g) and chain_mixing_check(tent_g)
    # S(0) = 0: the self-loop at node 0 makes the full graph aperiodic.
    zero = s_g.points.tolist().index(0.0)
    s_transitive = chain_transitive_check(s_g)
    s_mixing = chain_mixing_check(s_g)
    s_period = chain_period(s_g)
    s_ok = (zero in s_g.succ[zero] and s_transitive and s_mixing
            and s_period == 1)
    # Away from 0 the halves swap: S maps each half into the other, so for
    # |p_j| >= 2*delta a same-side edge would need |S(p_i) - p_j| >= |p_j|
    # >= 2*delta > delta + slack.  A cut at delta is not enough: at exactly
    # |p| = delta the float slack admits -1 -> -0.010000000000000009
    # (S(-1) = 0), a same-side edge that makes the period 1.
    away = _induced(s_g, [i for i, p in enumerate(s_g.points)
                          if abs(p) >= 2 * s_g.delta])
    crossing = all((away.points[u] < 0) != (away.points[v] < 0)
                   for u, outs in enumerate(away.succ) for v in outs)
    core = _induced(away, sorted(max(strongly_connected_components(away),
                                     key=len)))
    core_period = chain_period(core)
    ok = tent_ok and s_ok and crossing and core_period == 2
    _line(10, "chain graph contrast", ok, t0)
    assert ok, (
        f"tent: transitive+mixing={tent_ok}; half-swap graph: "
        f"transitive={s_transitive} mixing={s_mixing} period={s_period}; "
        f"sub-graph |p| >= 2*delta: {len(away)} nodes, "
        f"all edges cross 0={crossing}, largest component {len(core)} nodes "
        f"with period {core_period}")


def test_criterion_11_golden_reports(tmp_path, golden_diff):
    t0 = time.perf_counter()
    configs = ["classify-set", "spacing", "sturmian", "interval-devaney",
               "shadow", "p-chaos"]
    ok = True
    for cmd in configs:
        for run in ("a", "b"):
            code = cli_main([cmd, "--out", str(tmp_path / run / cmd)])
            ok = ok and code == 0
    for cmd in configs:
        a_dir, b_dir = tmp_path / "a" / cmd, tmp_path / "b" / cmd
        a_files = sorted(f.name for f in a_dir.iterdir())
        b_files = sorted(f.name for f in b_dir.iterdir())
        ok = ok and a_files == b_files
        for name in a_files:
            if (a_dir / name).read_bytes() != (b_dir / name).read_bytes():
                ok = False
        ok = ok and golden_diff(a_dir, cmd) == []
    _line(11, "golden reports", ok, t0)
    assert ok
