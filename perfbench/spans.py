"""Spans around calls into chaoskit's modules, and the per-layer metrics.

Recorder.install() replaces every public function of the six chaoskit
modules with a wrapper that records one span per call: the function's name,
start and end (perf_counter_ns), the span open when it was called, and the
id of the benchmark operation it ran under.  A function bound under another
name in a second module (`from .budgets import charge, cap`) is wrapped at
every place it is bound, so the calls through each binding are seen.  The
`accepts` methods of the three subshift oracles are wrapped too, because a
metric counts them.  Spans live in flat arrays in memory until the run ends.

A few functions carry a note taken from their arguments or result (the
horizon classified, the breakpoints of a composed map, the orbit a hitting
set iterates); notes are taken after the span has ended, and only for calls
that returned.  The tracemalloc peak of a chain graph is not taken inside the
traced pass, where tracing every allocation would triple the call's time:
measure_peaks() repeats each distinct call once under tracemalloc after the
passes, and the peak becomes the note of every span of that call.
"""

from __future__ import annotations

import array
import functools
import gc
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "setfam", "interval", "subshift", "shadowing", "budgets")
METHODS = {"subshift": ("FullShift", "SpacingShift", "SturmianShift")}
BUDGET_CAPS = ("iter_steps", "enum_nodes", "power", "word_len")
CHAIN_CHECKS = ("shadowing.chain_transitive_check", "shadowing.chain_mixing_check",
                "shadowing.chain_period", "shadowing.chain_recurrent_nodes")
HITTING_SETS = ("interval.transitivity_hitting_set",
                "interval.sensitivity_hitting_set", "interval.leo_check")

# Per-layer metrics: name -> unit.  Every traced run reports all of them; a
# metric of a layer the workload never calls reads 0.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "setfam.classify_calls": "count",
    "setfam.classify_s": "s",
    "setfam.ns_per_slot": "ns",
    "interval.hitting_set_s": "s",
    "interval.pl_image_calls": "count",
    "interval.images_per_orbit_step": "ratio",
    "interval.compose_calls": "count",
    "interval.compose_s": "s",
    "interval.breakpoints_max": "count",
    "subshift.gap_set_s": "s",
    "subshift.language_s": "s",
    "subshift.accepts_calls": "count",
    "shadowing.best_tracer_s": "s",
    "shadowing.ns_per_candidate_step": "ns",
    "shadowing.chain_graph_s": "s",
    "shadowing.chain_graph_peak_mb": "MB",
    "shadowing.chain_check_s": "s",
    "shadowing.scc_per_graph": "ratio",
    "shadowing.classify_per_probe_row": "ratio",
    **{f"budgets.{c}.high_water": "fraction" for c in BUDGET_CAPS},
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _orbit(steps_at: int):
    """Note (map, U, steps) of a hitting-set call; steps is argument steps_at."""
    def note(args, kwargs, result):
        u = _arg(args, kwargs, 1, "u")
        return (_arg(args, kwargs, 0, "m"), (u[0], u[1]),
                _arg(args, kwargs, steps_at, "n_max"))
    return note


# Notes taken from a call: span name -> f(args, kwargs, result).
NOTES = {
    "setfam.classify": lambda a, k, r: _arg(a, k, 0, "a").horizon,
    "interval.pl_compose": lambda a, k, r: len(r.xs),
    "interval.transitivity_hitting_set": _orbit(3),
    "interval.sensitivity_hitting_set": _orbit(3),
    "interval.leo_check": _orbit(2),
    "shadowing.best_tracer": lambda a, k, r: (
        len(_arg(a, k, 2, "candidates")) * len(_arg(a, k, 1, "orbit"))),
    "shadowing.fg_shadowing_probe": lambda a, k, r: (r.target, len(r.rows)),
    "budgets.charge": lambda a, k, r: (_arg(a, k, 0, "name"), _arg(a, k, 1, "amount")),
}
# Calls whose tracemalloc peak is measured by Recorder.measure_peaks().
MEMORY_PEAK = ("shadowing.chain_graph",)


class Recorder:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.notes: dict[int, object] = {}
        self.peak_calls: dict[tuple, tuple] = {}
        self.op_id = -1
        self.op_pass: list[int] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin_op(self, pass_index: int) -> None:
        self.op_id = len(self.op_pass)
        self.op_pass.append(pass_index)

    def _wrap(self, fn, span_name: str):
        name_id = self._ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        note = NOTES.get(span_name)
        peak = span_name in MEMORY_PEAK
        rec = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(rec.name)
            rec.name.append(name_id)
            rec.parent.append(rec._stack[-1])
            rec.op.append(rec.op_id)
            rec.end.append(0)
            rec._stack.append(sid)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[sid] = clock()
                rec._stack.pop()
            if peak:
                key = (span_name, id(args[0]), *args[1:], *sorted(kwargs.items()))
                rec.peak_calls.setdefault(key, (fn, args, kwargs))
                rec.notes[sid] = key
            elif note is not None:
                rec.notes[sid] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public chaoskit function at every module binding."""
        from importlib import import_module

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = import_module(f"chaoskit.{layer}")
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj) or not home.startswith("chaoskit.")):
                    continue
                span_name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, span_name)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
            for cls_name in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                original = cls.__dict__["accepts"]
                self._patches.append((cls, "accepts", original))
                setattr(cls, "accepts", self._wrap(original, f"{layer}.{cls_name}.accepts"))

    def measure_peaks(self) -> None:
        """Repeat each distinct MEMORY_PEAK call once under tracemalloc and
        note its peak (bytes) on every span of that call."""
        peaks = {}
        for key, (fn, args, kwargs) in self.peak_calls.items():
            gc.collect()
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks[key] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for sid, note in self.notes.items():
            if isinstance(note, tuple) and note in peaks:
                self.notes[sid] = peaks[note]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "op_pass": np.array(self.op_pass, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        """Write the spans (one row per call) and the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# Span arithmetic.

def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up to the time they cover.
    """
    child = np.zeros(len(duration), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child


def under(parent: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """For each span, whether some proper ancestor is marked.

    A parent is opened before its children, so it has the smaller id and one
    pass in id order settles every span.
    """
    out = np.zeros(len(parent), dtype=bool)
    for s, p in enumerate(parent.tolist()):
        if p >= 0:
            out[s] = out[p] or mark[p]
    return out


def pass_metrics(names: list[str], name: np.ndarray, parent: np.ndarray,
                 duration: np.ndarray, notes: dict[int, object], caps: dict[str, int]
                 ) -> dict[str, float]:
    """Per-layer metrics of one pass.  `name` indexes `names`; `parent` holds
    indices into the same arrays (-1 for a root); `notes` is keyed by them."""
    own = self_times(parent, duration)
    layer_of = np.array([n.split(".", 1)[0] for n in names] or [""], dtype=object)

    def pick(*span_names: str) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if n in span_names]
        return np.isin(name, ids)

    def seconds(mask: np.ndarray) -> float:
        return float(duration[mask].sum()) / 1e9

    def noted(span_name: str) -> list:
        """Notes of the spans of one function; a call that raised has none."""
        return [notes[i] for i in np.flatnonzero(pick(span_name)).tolist() if i in notes]

    out: dict[str, float] = {}
    span_layer = layer_of[name]
    for lay in LAYERS:
        out[f"{lay}.self_s"] = float(own[span_layer == lay].sum()) / 1e9

    classify = pick("setfam.classify")
    out["setfam.classify_calls"] = int(classify.sum())
    out["setfam.classify_s"] = seconds(classify)
    slots = sum(noted("setfam.classify"))
    out["setfam.ns_per_slot"] = out["setfam.classify_s"] * 1e9 / slots if slots else 0.0

    out["interval.hitting_set_s"] = seconds(pick(*HITTING_SETS))
    out["interval.pl_image_calls"] = int(pick("interval.pl_image").sum())
    orbits = {o for s in HITTING_SETS for o in noted(s)}
    steps = sum(o[2] for o in orbits)
    out["interval.images_per_orbit_step"] = (
        out["interval.pl_image_calls"] / steps if steps else 0.0)
    compose = pick("interval.pl_compose")
    out["interval.compose_calls"] = int(compose.sum())
    out["interval.compose_s"] = seconds(compose)
    out["interval.breakpoints_max"] = max(noted("interval.pl_compose"), default=0)

    gap_sets = pick("subshift.gap_set")
    out["subshift.gap_set_s"] = seconds(gap_sets & ~under(parent, gap_sets))
    out["subshift.language_s"] = seconds(pick("subshift.language"))
    out["subshift.accepts_calls"] = int(pick(*(n for n in names if n.endswith(".accepts"))).sum())

    tracer = pick("shadowing.best_tracer")
    out["shadowing.best_tracer_s"] = seconds(tracer)
    work = sum(noted("shadowing.best_tracer"))
    out["shadowing.ns_per_candidate_step"] = (
        out["shadowing.best_tracer_s"] * 1e9 / work if work else 0.0)
    graphs = pick("shadowing.chain_graph")
    out["shadowing.chain_graph_s"] = seconds(graphs)
    out["shadowing.chain_graph_peak_mb"] = max(noted("shadowing.chain_graph"), default=0) / 2 ** 20
    checks = pick(*CHAIN_CHECKS)
    out["shadowing.chain_check_s"] = seconds(checks & ~under(parent, checks))
    n_graphs = len(noted("shadowing.chain_graph"))   # graphs built, not calls that raised
    scc = int(pick("shadowing.strongly_connected_components").sum())
    out["shadowing.scc_per_graph"] = scc / n_graphs if n_graphs else 0.0
    # classify calls made inside probes whose target needs a family verdict
    # (target=full is decided by counting hits), per row of those probes.
    family_probe = np.zeros(len(name), dtype=bool)
    rows = 0
    for i in np.flatnonzero(pick("shadowing.fg_shadowing_probe")).tolist():
        target, n_rows = notes.get(i, ("full", 0))
        if target != "full":
            family_probe[i] = True
            rows += n_rows
    inside = int((classify & under(parent, family_probe)).sum())
    out["shadowing.classify_per_probe_row"] = inside / rows if rows else 0.0

    high = defaultdict(float)
    for cap_name, amount in noted("budgets.charge"):
        high[cap_name] = max(high[cap_name], amount / caps[cap_name])
    for cap_name in BUDGET_CAPS:
        out[f"budgets.{cap_name}.high_water"] = high[cap_name]
    return out


def layer_metrics(rec: Recorder, traced_passes: list[int], caps: dict[str, int]
                  ) -> dict[str, float]:
    """Per-layer metrics: the lower median over the traced passes, so a count stays a whole number."""
    arr = rec.arrays()
    span_pass = arr["op_pass"][arr["op"]] if len(arr["op"]) else arr["op"]
    duration = arr["end_ns"] - arr["start_ns"]
    per_pass = []
    for p in traced_passes:
        idx = np.flatnonzero(span_pass == p)
        remap = np.full(len(span_pass), -1, dtype=np.int64)
        remap[idx] = np.arange(len(idx))
        parent = arr["parent"][idx]
        parent = np.where(parent >= 0, remap[np.maximum(parent, 0)], -1)
        notes = {int(remap[s]): v for s, v in rec.notes.items() if remap[s] >= 0}
        per_pass.append(pass_metrics(rec.names, arr["name"][idx], parent,
                                     duration[idx], notes, caps))
    return {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
