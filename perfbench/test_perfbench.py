"""Tests of the benchmark itself.

Every correctness check must fail when the chaoskit call it guards is patched,
in this process only, to give a wrong answer; and the span arithmetic must
give the right self times on a synthetic trace.  The workloads run here at
reduced sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from chaoskit import interval, setfam, shadowing, subshift  # noqa: E402


def small_survey(monkeypatch):
    for name, value in (("SURVEY_STEPS", 24), ("SPACING_HORIZON", 256),
                        ("SPACING_WORD_LEN", 3), ("SPACING_N_MAX", 48),
                        ("TENT_PERIODS", 5), ("ZIGZAG_PERIODS", 3),
                        ("STURMIAN_WORD_LEN", 8), ("CYLINDER_N_MAX", 48)):
        monkeypatch.setattr(workloads, name, value)
    return workloads.Survey(3)


def small_tracing():
    w = workloads.Tracing(3)
    w.probes["syndetic tent"].update(n_candidates=1001, length=24)
    w.probes["full tent"].update(n_candidates=1001)
    w.probes["crossing example211"].update(n_candidates=2001)
    w.graphs.update(tent=(401, 0.02), S=(401, 0.02))
    return w


def errors_of(workload, tmp_path) -> list[str]:
    workload._expected = None
    _, records, _ = run._pass(workload, tmp_path / "pass")
    return workload.check([records])


# ---------------------------------------------------------------------------
# Each check fails under a wrong answer.

def flip_syndetic(original):
    def classify(a, p):
        v = original(a, p)
        return dataclasses.replace(v, syndetic=not v.syndetic)
    return classify


def tracer_off_by_one(original):
    def best_tracer(system, orbit, candidates, eps, objective="max_cardinality"):
        bt = original(system, orbit, candidates, eps, objective)
        k = int(np.searchsorted(candidates, bt.report.x0))
        k = k + 1 if k + 1 < len(candidates) else k - 1
        return dataclasses.replace(bt, report=shadowing.trace_set(
            system, orbit, float(candidates[k]), eps))
    return best_tracer


def drop_last_edge(original):
    def chain_graph(system, n_nodes, delta):
        g = original(system, n_nodes, delta)
        succ = list(g.succ)
        succ[-1] = succ[-1][:-1]
        return dataclasses.replace(g, succ=tuple(succ))
    return chain_graph


def drop_last_member(original):
    def gap_set(oracle, u, v, n_max):
        w = original(oracle, u, v, n_max)
        return setfam.WindowSet(w.horizon, w.members[:-1])
    return gap_set


def drop_one_point(original):
    def periodic_points(m, period):
        r = original(m, period)
        return dataclasses.replace(r, points=r.points[1:])
    return periodic_points


def drop_a_word(original):
    def language(oracle, max_len, node_budget=None):
        words = original(oracle, max_len, node_budget)
        return words - {max(words)}
    return language


def skip_last_step(original):
    def transitivity_hitting_set(m, u, v, n_max, strict=False):
        hs = original(m, u, v, n_max, strict)
        w = hs.window
        return dataclasses.replace(hs, window=setfam.WindowSet(w.horizon, w.members[:-1]))
    return transitivity_hitting_set


SURVEY_MUTATIONS = [
    (setfam, "classify", flip_syndetic),
    (subshift, "gap_set", drop_last_member),
    (interval, "periodic_points", drop_one_point),
    (subshift, "language", drop_a_word),
    (interval, "transitivity_hitting_set", skip_last_step),
]

TRACING_MUTATIONS = [
    (shadowing, "chain_period", lambda f: lambda g: 1),
    (shadowing, "chain_mixing_check", lambda f: lambda g: True),
    (shadowing, "chain_transitive_check", lambda f: lambda g: False),
    (shadowing, "chain_recurrent_nodes", lambda f: lambda g: f(g)[1:]),
    (shadowing, "chain_graph", drop_last_edge),
    (shadowing, "best_tracer", tracer_off_by_one),
    (setfam, "classify", flip_syndetic),
]

REPORT_ALL_MUTATIONS = [
    (setfam, "classify", flip_syndetic),
    (shadowing, "best_tracer", tracer_off_by_one),
    (interval, "transitivity_hitting_set", skip_last_step),
]


def test_survey_checks_pass_unpatched(monkeypatch, tmp_path):
    assert errors_of(small_survey(monkeypatch), tmp_path) == []


@pytest.mark.parametrize("module,name,mutate", SURVEY_MUTATIONS,
                         ids=[m[1] for m in SURVEY_MUTATIONS])
def test_survey_checks_catch(monkeypatch, tmp_path, module, name, mutate):
    w = small_survey(monkeypatch)
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert errors_of(w, tmp_path)


def test_tracing_checks_pass_unpatched(tmp_path):
    assert errors_of(small_tracing(), tmp_path) == []


@pytest.mark.parametrize("module,name,mutate", TRACING_MUTATIONS,
                         ids=[m[1] for m in TRACING_MUTATIONS])
def test_tracing_checks_catch(monkeypatch, tmp_path, module, name, mutate):
    w = small_tracing()
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert errors_of(w, tmp_path)


def test_report_all_checks_pass_unpatched(tmp_path):
    assert errors_of(workloads.ReportAll(3), tmp_path) == []


@pytest.mark.parametrize("module,name,mutate", REPORT_ALL_MUTATIONS,
                         ids=[m[1] for m in REPORT_ALL_MUTATIONS])
def test_report_all_checks_catch(monkeypatch, tmp_path, module, name, mutate):
    w = workloads.ReportAll(3)
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert errors_of(w, tmp_path)


def test_bad_configurations_count_as_failed(tmp_path):
    """Each bad configuration fails until it exits 2 without a traceback."""
    w = workloads.ReportAll(3)
    _, records, failed = run._pass(w, tmp_path / "pass")
    assert len(records) == 1 + len(workloads.BAD_CONFIGS)
    assert not isinstance(records["report-all"], workloads.Failed)
    assert failed == sum(isinstance(rec, workloads.Failed) or w.failed(name, rec)
                         for name, rec in records.items())
    assert not w.failed("classify-set --gap 0", {"code": 2})
    assert w.failed("spacing --word-len 0", {"code": 0})


# ---------------------------------------------------------------------------
# Span arithmetic.

def test_pass_seconds_sums_each_operations_median_time_at_reference_speed():
    ref = run.REFERENCE_S
    passes = [{"a": (1.0, ref, ref), "b": (5.0, ref, ref)},
              {"a": (3.0, ref, ref), "b": (2.0, 2 * ref, 2 * ref)},
              {"a": (6.0, 2 * ref, 2 * ref), "b": (4.0, ref, 3 * ref)}]
    # a: 1, 3, 3 -> 3;  b: 5, 1, 2 -> 2
    assert run._pass_seconds(passes) == pytest.approx(5.0)
    assert run._pass_seconds(passes, scaled=False) == pytest.approx(7.0)


def test_self_times_subtract_direct_children():
    # 0 [0, 100) > 1 [10, 40) > 2 [15, 25);  0 > 3 [50, 90)
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([100, 30, 10, 40])
    assert spans.self_times(parent, duration).tolist() == [30, 20, 10, 40]


def test_under_marks_descendants_only():
    parent = np.array([-1, 0, 1, -1, 3])
    mark = np.array([False, True, False, False, False])
    assert spans.under(parent, mark).tolist() == [False, False, True, False, False]


def test_pass_metrics_on_a_synthetic_trace():
    names = ["cli.main", "interval.devaney_report", "setfam.classify",
             "shadowing.chain_graph", "shadowing.chain_mixing_check",
             "shadowing.chain_transitive_check", "shadowing.strongly_connected_components",
             "shadowing.fg_shadowing_probe", "budgets.charge"]
    s = 10 ** 9
    # (name, parent, duration in s)
    spans_ = [
        (0, -1, 10.0),   # 0 cli.main
        (1, 0, 6.0),     # 1 devaney_report
        (2, 1, 1.5),     # 2 classify (horizon 100)
        (2, 1, 0.5),     # 3 classify (horizon 300)
        (3, 0, 1.0),     # 4 chain_graph
        (4, 0, 2.0),     # 5 chain_mixing_check
        (5, 5, 0.75),    # 6   chain_transitive_check inside it
        (6, 6, 0.5),     # 7     scc
        (7, 0, 0.5),     # 8 probe, target syndetic, 2 rows
        (2, 8, 0.25),    # 9   classify inside the probe (horizon 10)
        (8, 1, 0.125),   # 10 charge
    ]
    name = np.array([n for n, _, _ in spans_])
    parent = np.array([p for _, p, _ in spans_])
    duration = np.array([int(d * s) for _, _, d in spans_])
    notes = {2: 100, 3: 300, 4: 2 ** 21, 8: ("syndetic", 2), 9: 10,
             10: ("iter_steps", 64)}
    m = spans.pass_metrics(names, name, parent, duration, notes,
                           {"iter_steps": 128, "enum_nodes": 1, "power": 1, "word_len": 1})
    assert m["cli.self_s"] == pytest.approx(10 - 6 - 1 - 2 - 0.5)
    assert m["interval.self_s"] == pytest.approx(6 - 2 - 0.125)
    assert m["setfam.self_s"] == pytest.approx(2.25)
    assert m["shadowing.self_s"] == pytest.approx(1 + 1.25 + 0.25 + 0.5 + 0.25)
    assert m["budgets.self_s"] == pytest.approx(0.125)
    assert m["setfam.classify_calls"] == 3
    assert m["setfam.classify_s"] == pytest.approx(2.25)
    assert m["setfam.ns_per_slot"] == pytest.approx(2.25e9 / 410)
    assert m["shadowing.chain_check_s"] == pytest.approx(2.0)   # nested check not added
    assert m["shadowing.scc_per_graph"] == 1.0
    assert m["shadowing.chain_graph_peak_mb"] == 2.0
    assert m["shadowing.classify_per_probe_row"] == 0.5
    assert m["budgets.iter_steps.high_water"] == 0.5
    assert set(m) == set(spans.PER_LAYER_UNITS) - {"trace.overhead_s"}


def test_recorder_wraps_every_binding_and_restores():
    from chaoskit import budgets
    originals = (interval.charge, budgets.charge, setfam.classify)
    rec = spans.Recorder()
    rec.install()
    try:
        rec.begin_op(0)
        interval.devaney_report(interval.builtin("tent"),
                                interval.SurveyParams(cells=2, n_steps=8))
    finally:
        rec.uninstall()
    assert (interval.charge, budgets.charge, setfam.classify) == originals
    called = {rec.names[i] for i in rec.name}
    assert {"interval.devaney_report", "budgets.charge", "budgets.cap",
            "setfam.classify", "interval.pl_image"} <= called
    arr = rec.arrays()
    assert (arr["end_ns"] >= arr["start_ns"]).all()
    assert (arr["parent"] < np.arange(len(arr["parent"]))).all()


# ---------------------------------------------------------------------------
# The harness.

def test_run_prints_one_result_line(capsys):
    assert run.main(["--workload", "report-all", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (10, 9)
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}


def test_run_refuses_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "survey",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
