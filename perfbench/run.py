"""chaoskit's benchmark: one workload per process, timed end to end.

    python3 perfbench/run.py --workload {report-all,survey,tracing} \
        --seed N --seconds S --trace {0,1}

The run builds the workload's inputs from the seed, then makes whole passes
over its operations until S seconds of passes have elapsed (at least one).
A pass is timed over its calls into chaoskit only.  After the last pass the
outputs of every pass are checked against oracles written apart from
chaoskit (perfbench/oracles.py) and against properties the method must have.

--trace 0 reports the end-to-end metrics:
  setup_s      median over 7 fresh interpreters of the time from process
               start to the first operation (imports and inputs)
  wall_s       time of one pass: the sum over its operations of each
               operation's median time over the run's passes
  peak_rss_mb  peak resident memory of this process, read before the checks
Both times are given at the host's reference speed: each timing is scaled by
REFERENCE_S over the time of a fixed pure-Python loop (speed_probe) taken
just before and just after it (see "Noise" in perfbench/README.md).
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (perfbench/spans.py), plus trace.overhead_s, the
traced pass time minus the untraced one, both taken as wall_s is.  The spans
are written to .perfbench_out/trace-<workload>.npz.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
An operation that raises counts as failed; so does a bad-configuration
invocation of report-all that does not exit 2.  The run exits 2, printing no
result, when chaoskit's sources are not in src/ beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
READY = "ready"
# speed_probe's least time on the reference machine of perfbench/README.md at
# its fastest; a timing taken while the probe reads REFERENCE_S is kept as is.
REFERENCE_S = 0.0018


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_chaoskit():
    """Put the checkout's src/ first on the path and import chaoskit from it."""
    if not (SRC / "chaoskit" / "__init__.py").is_file():
        _fail(f"no chaoskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import chaoskit

    if Path(chaoskit.__file__).resolve().parent != SRC / "chaoskit":
        _fail(f"chaoskit imported from {chaoskit.__file__}, not {SRC}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("report-all", "survey", "tracing"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # child mode used to time set-up
    return ap.parse_args(argv)


def speed_probe() -> float:
    """Least of three timings of a fixed pure-Python loop, in seconds.

    The host these runs share changes speed for seconds or minutes at a time
    (by up to 1.8x); the probe's time follows it, so a timing divided by the
    probe's time around it follows it much less.  The loop mixes small-int
    and Fraction arithmetic: either alone tracked report-all's pass time
    less closely than the two together.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(12_500):
            s += i * i % 7
        x = Fraction(1, 3)
        for i in range(200):
            x = (x * 7 + Fraction(1, i + 2)) % 1
            x = Fraction(x.numerator % 100_003, x.denominator % 100_019 + 1)
        best = min(best, time.perf_counter() - t0)
    return best


def _at_reference(seconds: float, before: float, after: float) -> float:
    """A timing scaled to the reference speed by the probes taken around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)


def _setup_seconds(workload: str, seed: int) -> float:
    """Median time for a fresh interpreter to import and build the inputs."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        before = speed_probe()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            t1 = time.perf_counter()
            child.stdout.read()
        if child.returncode != 0 or line != READY:
            _fail(f"set-up probe exited {child.returncode}")
        samples.append(_at_reference(t1 - t0, before, speed_probe()))
    return statistics.median(samples)


def _pass(workload, pass_dir: Path, recorder=None, pass_index: int = 0):
    """One pass: returns (timing of each operation, records, failed count).

    An operation's timing is (seconds, speed_probe before it, speed_probe
    after it); the probes run outside the operation.
    """
    from workloads import Failed, fresh_process_state

    fresh_process_state()
    times = {}
    records = {}
    failed = 0
    for name, call, reduce in workload.ops(pass_dir):
        if recorder is not None:
            recorder.begin_op(pass_index)
        before = speed_probe()
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an operation's failure is counted, not fatal
            times[name] = (time.perf_counter() - t0, before, speed_probe())
            records[name] = Failed(exc)
            failed += 1
            continue
        times[name] = (time.perf_counter() - t0, before, speed_probe())
        records[name] = reduce(result)
        failed += bool(workload.failed(name, records[name]))
        del result
    return times, records, failed


def _pass_seconds(passes: list[dict[str, tuple]], scaled: bool = True) -> float:
    """One pass's time: each operation's median time over the passes, summed.

    With scaled, each timing is first brought to the reference speed; the
    README's "Noise" section has the spreads with and without scaling.
    """
    def seconds(t, before, after):
        return _at_reference(t, before, after) if scaled else t

    return sum(statistics.median(seconds(*p[name]) for p in passes) for name in passes[0])


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _import_chaoskit()
    from workloads import WORKLOADS

    scratch = OUT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(READY, flush=True)
        return 0
    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)

    recorder = None
    if args.trace:
        from spans import Recorder
        recorder = Recorder()
    plain, traced, passes = [], [], []   # per-op times of untraced/traced passes
    traced_index = []
    attempted = failed = 0
    started = time.perf_counter()
    try:
        while (not passes or time.perf_counter() - started < args.seconds
               or (args.trace and not traced)):
            use_trace = bool(args.trace) and len(passes) % 2 == 1
            if use_trace:
                recorder.install()
            try:
                times, records, n_failed = _pass(
                    workload, scratch / f"pass-{len(passes)}",
                    recorder if use_trace else None, len(passes))
            finally:
                if use_trace:
                    recorder.uninstall()
            (traced if use_trace else plain).append(times)
            if use_trace:
                traced_index.append(len(passes))
            passes.append(records)
            attempted += len(records)
            failed += n_failed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        errors = workload.check(passes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wall_s = _pass_seconds(plain)
    if args.trace:
        from spans import PER_LAYER_UNITS, layer_metrics
        from chaoskit import budgets

        caps = {name: budgets.cap(name) for name in ("iter_steps", "enum_nodes", "power", "word_len")}
        recorder.measure_peaks()
        values = layer_metrics(recorder, traced_index, caps)
        values["trace.overhead_s"] = _pass_seconds(traced) - wall_s
        recorder.write(OUT / f"trace-{args.workload}.npz")
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if len(errors) > 20:
        print(f"... and {len(errors) - 20} more", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload} unscaled pass time = {_pass_seconds(plain, scaled=False):.6g} s",
          file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes ({len(traced)} traced), "
          f"{attempted} operations attempted, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
