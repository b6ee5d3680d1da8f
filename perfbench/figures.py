"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/figures.py [--seed N] [--seconds S]

Prints, as markdown:
  1. for each workload, the end-to-end metrics of one untraced run, and from
     one traced run each layer's self time per pass with its share of the
     time spent inside chaoskit, and the tracing overhead;
  2. the scale ladder: time and peak RSS of single calls at growing sizes,
     each in a fresh interpreter so that its peak is its own.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

LADDER = [
    ("chain nodes", "chain_graph(tent, n, 0.01) + 4 chain checks", (1001, 2001, 4001, 8001)),
    ("candidates", "fg_shadowing_probe(tent, syndetic, length 64, 1 trial)", (10_001, 100_001)),
    ("cells", "devaney_report(tent, cells, 256 steps)", (10, 20)),
    ("word_len", "fs_transitivity_report(complement(powers(2)) @1024, word_len, 256)", (4, 6)),
]


def _point(kind: str, size: int) -> dict:
    """Run one ladder point in this process; report its time and peak RSS."""
    sys.path.insert(0, str(ROOT / "src"))
    from chaoskit import interval, setfam, shadowing, subshift

    tent = interval.builtin("tent")
    t0 = time.perf_counter()
    if kind == "chain nodes":
        g = shadowing.chain_graph(shadowing.IntervalSystem(tent), size, 0.01)
        for check in (shadowing.chain_transitive_check, shadowing.chain_mixing_check,
                      shadowing.chain_period, shadowing.chain_recurrent_nodes):
            check(g)
    elif kind == "candidates":
        shadowing.fg_shadowing_probe(
            shadowing.IntervalSystem(tent), 0.05, (0.01,), 64, 1, target="syndetic",
            params=setfam.FamilyParams(gap=2, block=4, cofinite_head=2, burnin=4),
            n_candidates=size, seed="ladder")
    elif kind == "cells":
        interval.devaney_report(tent, interval.SurveyParams(cells=size, n_steps=256))
    else:
        p = setfam.from_generator("complement(powers(2))", 1024)
        subshift.fs_transitivity_report(subshift.SpacingShift(p), size, 256,
                                        setfam.FamilyParams(gap=2, block=8, cofinite_head=8, burnin=8))
    return {"seconds": time.perf_counter() - t0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()} | {
        "attempted": result["attempted"], "failed": result["failed"],
        "correct": result["correct"]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--point", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.point:
        print(json.dumps(_point(args.point[0], int(args.point[1]))))
        return 0

    layers = ("cli", "setfam", "interval", "subshift", "shadowing", "budgets")
    print("| workload | setup_s | wall_s | peak_rss_mb | attempted | failed | "
          + " | ".join(layers) + " | tracing overhead |")
    print("|---" * (7 + len(layers)) + "|")
    for workload in ("report-all", "survey", "tracing"):
        e2e = _run(workload, args.seed, args.seconds, 0)
        per = _run(workload, args.seed, args.seconds, 1)
        inside = sum(per[f"{layer}.self_s"] for layer in layers)
        shares = " | ".join(f"{per[f'{layer}.self_s']:.3f} s ({100 * per[f'{layer}.self_s'] / inside:.0f}%)"
                            for layer in layers)
        print(f"| {workload} | {e2e['setup_s']:.3f} | {e2e['wall_s']:.3f} | "
              f"{e2e['peak_rss_mb']:.0f} | {e2e['attempted']} | {e2e['failed']} | {shares} | "
              f"{per['trace.overhead_s']:+.3f} s ({100 * per['trace.overhead_s'] / e2e['wall_s']:+.0f}%) |")
    print()
    print("| ladder | call | size | seconds | peak RSS (MB) |")
    print("|---|---|---|---|---|")
    for kind, call, sizes in LADDER:
        for size in sizes:
            done = subprocess.run([sys.executable, __file__, "--point", kind, str(size)],
                                  capture_output=True, text=True, check=True)
            r = json.loads(done.stdout)
            print(f"| {kind} | {call} | {size} | {r['seconds']:.2f} | {r['peak_rss_mb']:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
