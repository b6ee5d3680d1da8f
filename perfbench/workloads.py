"""The three workloads: their inputs, their operations and their checks.

A workload is built once per process from the seed (that is its set-up).
ops() then lists one pass: named calls into chaoskit, each with a reducer
that turns the call's output into the small record the checks need.  The
harness times the calls only; reducers run between calls, off the clock, so
no pass holds the large outputs of an earlier call.  check() compares the
records of every pass with the oracles and with the properties the method
must have.  It runs after the last pass, because the oracles' own memory
(networkx, the full hit masks) must not reach the measured peak.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from chaoskit import cli, interval, setfam, shadowing, subshift

# sturmian_prefix is the one cache in chaoskit.  A fresh process starts with
# it empty, so every pass clears it; the reference is taken before tracing
# replaces the module attribute.
_STURMIAN_CACHE = subshift.sturmian_prefix


def fresh_process_state() -> None:
    _STURMIAN_CACHE.cache_clear()


class Failed:
    """Record of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


def _same(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def _sample(rng: random.Random, items: list, k: int) -> list:
    return items if len(items) <= k else rng.sample(items, k)


def _grid_sample(rng: random.Random, cells: int) -> tuple[list, list]:
    """Transitivity pairs (i, j) and sensitivity cells whose rows are checked."""
    return (_sample(rng, [(i, j) for i in range(cells) for j in range(cells)], 10),
            _sample(rng, list(range(cells)), 3))


def _nonpowers(horizon: int) -> set[int]:
    """Positive integers below the horizon that are not 2, 4, 8, ..."""
    return {n for n in range(1, horizon) if not (n >= 2 and n & (n - 1) == 0)}


def _verdict_cells(v) -> list[str]:
    """A verdict as the cli writes it: max_gap, longest_block, head, tags."""
    return ["" if v.max_gap is None else str(v.max_gap), str(v.longest_block),
            str(v.cofinite_head), ";".join(v.tags())]


def _pairs_digest(pairs) -> str:
    return hashlib.sha256(repr(list(pairs)).encode()).hexdigest()


def _chain_record(g) -> dict:
    counts = np.array([len(s) for s in g.succ], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.fromiter((j for s in g.succ for j in s), dtype=np.int64,
                          count=int(indptr[-1]))
    return {"edges": len(indices), "edges_digest": oracles.digest(indptr, indices),
            "points": hashlib.sha256(np.array(g.points).tobytes()).hexdigest()}


def _probe_record(res) -> dict:
    return {"verdict": res.verdict, "delta_pass": res.delta_pass,
            "rows": [{"delta": r.delta, "label": r.label, "valid_count": r.valid_count,
                      "tracer": r.tracer, "cardinality": r.cardinality,
                      "max_gap": r.trace_max_gap, "tags": r.tags, "ok": r.ok,
                      "challenge": r.challenge} for r in res.rows]}


def _check_probe(errors: list[str], what: str, got: dict, want: dict) -> None:
    _same(errors, f"{what} verdict", got["verdict"], want["verdict"])
    _same(errors, f"{what} delta_pass", got["delta_pass"], want["delta_pass"])
    _same(errors, f"{what} rows", len(got["rows"]), len(want["rows"]))
    candidates = want["candidates"]
    for i, (g, w) in enumerate(zip(got["rows"], want["rows"])):
        k = int(np.searchsorted(candidates, g["tracer"]))
        if k >= len(candidates) or candidates[k] != g["tracer"]:
            errors.append(f"{what} row {i}: tracer {g['tracer']!r} is not a grid candidate")
        elif k != w["first_best"]:
            errors.append(f"{what} row {i}: candidate {k} chosen, but candidate "
                          f"{w['first_best']} is the first with the best score "
                          f"{w['best_score']}")
        for key in ("delta", "label", "valid_count", "cardinality", "max_gap",
                    "tags", "ok", "challenge"):
            _same(errors, f"{what} row {i} {key}", g[key], w[key])


# ---------------------------------------------------------------------------
# report-all: the default end-to-end command, plus the bad configurations.

BAD_CONFIGS = (
    ("classify-set", "--gap", "0"),
    ("classify-set", "--tail-policy", "foo"),
    ("classify-set", "--horizon", "8", "--members", "3,9"),
    ("shadow", "--candidates", "1"),
    ("shadow", "--deltas", "0"),
    ("shadow", "--length", "1"),
    ("interval-devaney", "--margin", "1"),
    ("p-chaos", "--chain-nodes", "1"),
    ("spacing", "--word-len", "0"),
)

# The fixtures report-all runs, restated for the oracles.
RA_DELTAS = (0.01, 0.001, 0.0001)
RA_CLASSIFY = oracles.FamilyOracle(gap=2, block=8, cofinite_head=8, burnin=8)
RA_PROBE = oracles.FamilyOracle(gap=2, block=4, cofinite_head=2, burnin=4)
RA_SURVEYS = {  # map -> (sensitivity delta, steps, cells, margin)
    "S": (Fraction(1, 2), 64, 10, Fraction(1, 100)),
    "tent": (Fraction(1, 4), 64, 10, Fraction(1, 100)),
    "example211": (Fraction(1, 2), 64, 10, Fraction(1, 100)),
}
RA_SURVEY_FAMILY = oracles.FamilyOracle(gap=16, block=8, cofinite_head=16, burnin=8)
# Facts about the fixtures: S is the paper's Fs-but-not-Ft map (and Fts, Fcf
# each imply Ft); tent is Fcf (which implies the rest on these parameters);
# example211 has a lower-half cell that never meets an upper-half cell, so
# every family fails.
RA_FACTS = {
    "S": {"Fs": True, "Ft": False, "Fts": False, "Fcf": False},
    "tent": {"Fs": True, "Ft": True, "Fts": True, "Fcf": True},
    "example211": {"Fs": False, "Ft": False, "Fts": False, "Fcf": False},
}


def _fb(b: bool) -> str:
    return "true" if b else "false"


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _spacing_fixture(p: set[int], horizon: int, word_len: int, n_max: int,
                     family: oracles.FamilyOracle, k_max: int) -> dict:
    """Every pair row of a spacing survey and its panels, from the oracles."""
    words = oracles.spacing_language(p, horizon, word_len)
    rows = {}
    for u in words:
        for v in words:
            gaps = oracles.spacing_gap_set(p, horizon, u, v, n_max)
            rows[(u, v)] = (gaps, family(n_max + 1, gaps))
    verdicts = [v for _, v in rows.values()]
    dense = all(
        any(all(t in p for m in range(1, (horizon + q) // k + 2)
                for t in (m * k, m * k + q, m * k - q) if 1 <= t < horizon)
            for k in range(1, k_max + 1))
        for q in p if 1 <= q <= horizon // 4)
    return {"rows": rows,
            "all_syndetic": all(v.syndetic for v in verdicts),
            "all_thick": all(v.thick for v in verdicts),
            "all_thickly_syndetic": all(v.thickly_syndetic for v in verdicts),
            "all_cofinite": all(v.cofinite for v in verdicts),
            "dense_periodic": dense}


class ReportAll:
    """`chaoskit report-all --out DIR --seed SEED`, as a user runs it, and the
    nine invocations whose parameter errors should exit 2."""

    name = "report-all"

    def __init__(self, seed: int):
        self.seed = str(seed)
        rng = random.Random(f"report-all/{seed}")
        self.grid_sample = {m: _grid_sample(rng, cells)
                            for m, (_, _, cells, _) in RA_SURVEYS.items()}
        self._expected = None

    def ops(self, pass_dir: Path) -> list:
        out = pass_dir / "report-all"
        ops = [("report-all",
                lambda: _run_cli(["report-all", "--out", str(out), "--seed", self.seed]),
                lambda r: self._reduce(r, out))]
        for k, argv in enumerate(BAD_CONFIGS):
            bad_out = pass_dir / f"bad-{k}"
            ops.append((" ".join(argv), lambda a=argv, d=bad_out: _run_cli([*a, "--out", str(d)]),
                        lambda r: {"code": r["code"]}))
        return ops

    def failed(self, name: str, record) -> bool:
        """A bad configuration fails unless it exits 2 (config error)."""
        return name != "report-all" and record["code"] != 2

    def _reduce(self, result: dict, out: Path) -> dict:
        rec = {"code": result["code"], "stdout": result["stdout"],
               "summary": (out / "summary.txt").read_text().splitlines()}
        for fixture in ("spacing_evens", "spacing_nonpowers"):
            pairs = _read_csv(out / fixture / "pairs.csv")
            rec[fixture] = {
                "report": (out / fixture / "report.txt").read_text(),
                "pairs": _pairs_digest(sorted((r[0], r[1]) for r in pairs)),
                "sample": _sample(random.Random(f"{self.seed}/{fixture}"), pairs, 12)}
        for m, (pairs, cells) in self.grid_sample.items():
            trans = {(int(r[0]), int(r[1])): r[2:]
                     for r in _read_csv(out / f"interval_{m}" / "transitivity.csv")}
            sens = {int(r[0]): r[3:] for r in _read_csv(out / f"interval_{m}" / "sensitivity.csv")}
            rec[f"interval_{m}"] = {"transitivity": {k: trans.get(k) for k in pairs},
                                    "sensitivity": {k: sens.get(k) for k in cells}}
        rec["sturmian"] = _read_csv(out / "sturmian_golden" / "factors.csv")
        for name, path in (("pchaos_probe", "pchaos_tent/probe.csv"),
                           ("pchaos_aux", "pchaos_tent/aux_probe.csv"),
                           ("shadow_probe", "shadow_example211/probe.csv")):
            rec[name] = _read_csv(out / path)
        shutil.rmtree(out)
        return rec

    def expected(self) -> dict:
        if self._expected is not None:
            return self._expected
        exp: dict = {}
        p256 = _nonpowers(256)
        v = RA_CLASSIFY(256, p256)
        exp["classify_nonpowers"] = (f"syndetic={_fb(v.syndetic)} thick={_fb(v.thick)} "
                                     f"cofinite={_fb(v.cofinite)}")
        for fixture, p in (("spacing_evens", set(range(0, 128, 2))),
                           ("spacing_nonpowers", _nonpowers(128))):
            exp[fixture] = _spacing_fixture(p, 128, 3, 64, RA_CLASSIFY, 128)
        alpha = _golden_alpha()
        prefix = oracles.sturmian_prefix(alpha, 10_000)
        occ = oracles.occurrences(prefix, "010")
        v = oracles.classify(len(prefix) - 2, occ, 34, 8, 8, 8)
        factors = [len({prefix[i:i + n] for i in range(len(prefix) - n + 1)})
                   for n in range(1, 9)]
        exp["sturmian_factors"] = factors
        exp["sturmian_golden"] = (
            f"complexity={'n+1' if factors == list(range(2, 10)) else 'other'} "
            f"word=010 syndetic={_fb(v.syndetic)}")
        for m, (delta, steps, cells, margin) in RA_SURVEYS.items():
            pl = oracles.PLOracle(oracles.BUILTIN_POINTS[m])
            grid = pl.cells(cells, margin)
            pairs, sens_cells = self.grid_sample[m]
            exp[f"interval_{m}"] = {
                "transitivity": {(i, j): RA_SURVEY_FAMILY(
                    steps + 1, pl.transitivity_set(grid[i], grid[j], steps)) for i, j in pairs},
                "sensitivity": {i: RA_SURVEY_FAMILY(
                    steps + 1, pl.sensitivity_set(grid[i], delta, steps)) for i in sens_cells}}
        probe = dict(eps=0.05, deltas=RA_DELTAS, family=RA_PROBE)
        exp["pchaos_probe"] = oracles.probe_expectation(
            oracles.BUILTIN_POINTS["tent"], length=10, trials=6, target="full",
            n_candidates=10_001, seed=f"{self.seed}/p-chaos/tent", **probe)
        exp["pchaos_aux"] = oracles.probe_expectation(
            oracles.BUILTIN_POINTS["tent"], length=10, trials=6,
            target="piecewise_syndetic", n_candidates=10_001,
            seed=f"{self.seed}/p-chaos/tent/aux", **probe)
        exp["shadow_probe"] = oracles.probe_expectation(
            oracles.BUILTIN_POINTS["example211"], length=64, trials=6, target="full",
            n_candidates=2001, seed=f"{self.seed}/shadow/example211", crossing=True,
            **probe)
        grid = np.linspace(0.0, 1.0, 129)
        tent = oracles.FloatMap(oracles.BUILTIN_POINTS["tent"])
        exp["pchaos_chain"] = oracles.chain_expectation(grid, tent.step_array(grid), 0.02)
        self._expected = exp
        return exp

    def check(self, passes: list[dict]) -> list[str]:
        exp = self.expected()
        errors: list[str] = []
        # Facts the expected values must show, whatever computed them.
        for fixture in ("spacing_evens", "spacing_nonpowers"):
            if exp[fixture]["all_cofinite"]:     # neither P is co-finite
                errors.append(f"oracle: {fixture} all_cofinite, but P is not co-finite")
        if exp["sturmian_factors"] != list(range(2, 10)):
            errors.append("oracle: Sturmian factor complexity is not n+1")
        if exp["shadow_probe"]["verdict"] != "falsified":
            errors.append("oracle: the example211 crossing probe is not falsified")
        if not exp["pchaos_chain"]["mixing"]:
            errors.append("oracle: the tent chain graph is not mixing")
        want_summary = [f"classify_nonpowers: {exp['classify_nonpowers']}"]
        for fixture in ("spacing_evens", "spacing_nonpowers"):
            e = exp[fixture]
            want_summary.append(
                f"{fixture}: all_syndetic={_fb(e['all_syndetic'])} "
                f"all_thick={_fb(e['all_thick'])} "
                f"dense_periodic={'pass' if e['dense_periodic'] else 'fail'}")
        want_summary.append(f"sturmian_golden: {exp['sturmian_golden']}")
        for m, facts in RA_FACTS.items():
            fams = " ".join(f"{k}={'pass' if ok else 'fail'}" for k, ok in facts.items())
            want_summary.append(f"interval_{m}: {fams}")
        tent_pchaos = exp["pchaos_probe"]["verdict"]
        want_summary.append(
            f"pchaos_tent: probe={tent_pchaos} evidence={_fb(tent_pchaos == 'pass')} "
            f"chain_mixing={_fb(exp['pchaos_chain']['mixing'])}")
        want_summary.append(f"shadow_example211: probe={exp['shadow_probe']['verdict']}")

        for n, outputs in enumerate(passes):
            rec = outputs["report-all"]
            if isinstance(rec, Failed):
                continue
            where = f"pass {n}"
            _same(errors, f"{where} exit code", rec["code"], 0)
            _same(errors, f"{where} headline", rec["stdout"], "report-all: 9 fixture reports\n")
            _same(errors, f"{where} summary.txt", rec["summary"], want_summary)
            for fixture in ("spacing_evens", "spacing_nonpowers"):
                e = exp[fixture]
                panels = (f"panels: all_syndetic={_fb(e['all_syndetic'])} "
                          f"all_thick={_fb(e['all_thick'])} "
                          f"all_thickly_syndetic={_fb(e['all_thickly_syndetic'])} "
                          f"all_cofinite={_fb(e['all_cofinite'])}")
                if panels not in rec[fixture]["report"].splitlines():
                    errors.append(f"{where} {fixture}: report lacks {panels!r}")
                _same(errors, f"{where} {fixture} pairs",
                      rec[fixture]["pairs"], _pairs_digest(sorted(e["rows"])))
                for row in rec[fixture]["sample"]:
                    key = (row[0], row[1])
                    if key not in e["rows"]:
                        continue
                    gaps, v = e["rows"][key]
                    _same(errors, f"{where} {fixture} {key} members",
                          row[2], ";".join(map(str, gaps)))
                    _same(errors, f"{where} {fixture} {key} verdict", row[3:],
                          _verdict_cells(v)[:3] + [_fb(v.syndetic), _fb(v.thick),
                                                   _fb(v.thickly_syndetic), _fb(v.cofinite)])
            for m in RA_SURVEYS:
                for kind in ("transitivity", "sensitivity"):
                    got = rec[f"interval_{m}"][kind]
                    for key, v in exp[f"interval_{m}"][kind].items():
                        _same(errors, f"{where} interval_{m} {kind} {key}",
                              got[key], _verdict_cells(v))
            _same(errors, f"{where} sturmian factors",
                  [int(r[1]) for r in rec["sturmian"]], exp["sturmian_factors"])
            for name in ("pchaos_probe", "pchaos_aux", "shadow_probe"):
                want = exp[name]
                got = {"verdict": want["verdict"], "delta_pass": want["delta_pass"],
                       "rows": [_csv_probe_row(r) for r in rec[name]]}
                _check_probe(errors, f"{where} {name}", got, want)
        return errors


def _csv_probe_row(r: list[str]) -> dict:
    return {"delta": float(r[0]), "label": r[1], "valid_count": int(r[2]),
            "tracer": float(r[3]), "cardinality": int(r[4]),
            "max_gap": int(r[5]) if r[5] else None,
            "tags": tuple(t for t in r[6].split(";") if t),
            "ok": r[7] == "true", "challenge": r[8] == "true"}


def _golden_alpha() -> Fraction:
    """(sqrt(5) - 1) / 2 to about 1e-50, from a Fibonacci ratio."""
    a, b = 1, 1
    while b < 10 ** 25:
        a, b = b, a + b
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# survey: the exact and combinatorial engines at desk scale.

SURVEY_CELLS = 10
SURVEY_STEPS = 64
SURVEY_FAMILY = oracles.FamilyOracle(gap=16, block=8, cofinite_head=16, burnin=8)
DENSITY_EPS = Fraction(1, 32)
DENSITY_N_MAX = 12
TENT_PERIODS = 10          # periodic_points(tent, n) for n <= 10: 2^n points
ZIGZAG_PERIODS = 6         # three full branches: 3^n points
SPACING_HORIZON = 1024
SPACING_WORD_LEN = 4
SPACING_N_MAX = 256
SPACING_FAMILY = oracles.FamilyOracle(gap=2, block=8, cofinite_head=8, burnin=8)
STURMIAN_PREFIX = 10_000
STURMIAN_WORD_LEN = 12
STURMIAN_FAMILY = oracles.FamilyOracle(gap=34, block=8, cofinite_head=8, burnin=8)
CYLINDER_N_MAX = 256


def zigzag_points(rng: random.Random) -> tuple:
    """A seeded three-branch map 0 -> 0, a -> 1, b -> 0, 1 -> 1 on [0, 1].

    Every branch is onto [0, 1] with slope above 2 in modulus, so the map is
    expanding and each power m^n has 3^n fixed points.  The shape, and so the
    work the survey does on it, is the same for every seed.
    """
    a = Fraction(rng.randint(16, 28), 64)
    b = Fraction(rng.randint(36, 48), 64)
    return ((0, 0), (a, 1), (b, 0), (1, 1))


def cofinite_p(rng: random.Random) -> set[int]:
    """A seeded co-finite spacing set: {1, 3}, some of [5, m) and [m, 1024).

    Its members below the longest surveyed word are fixed, so the language,
    and so the number of pairs surveyed, is the same for every seed.
    """
    head = rng.randint(5, 8)
    return ({1, 3} | {k for k in range(5, head) if rng.random() < 0.5}
            | set(range(head, SPACING_HORIZON)))


class Survey:
    """Devaney surveys, periodic points, spacing-shift transitivity and the
    Sturmian battery: the Fraction and combinatorial engines."""

    name = "survey"

    def __init__(self, seed: int):
        rng = random.Random(f"survey/{seed}")
        self.seed = seed
        self.map_points = {m: oracles.BUILTIN_POINTS[m] for m in ("S", "tent", "example211")}
        self.map_points["zigzag"] = zigzag_points(rng)
        self.maps = {m: interval.builtin(m) for m in ("S", "tent", "example211")}
        self.maps["zigzag"] = interval.pl_map(self.map_points["zigzag"])
        self.params = interval.SurveyParams(cells=SURVEY_CELLS, n_steps=SURVEY_STEPS)
        self.p_members = {
            "evens": set(range(0, SPACING_HORIZON, 2)),
            "nonpowers": _nonpowers(SPACING_HORIZON),
            "cofinite": cofinite_p(rng),
        }
        self.p_sets = {
            "evens": setfam.from_generator("evens", SPACING_HORIZON),
            "nonpowers": setfam.from_generator("complement(powers(2))", SPACING_HORIZON),
            "cofinite": setfam.window_set(SPACING_HORIZON, self.p_members["cofinite"]),
        }
        self.cofinite = {"evens": False, "nonpowers": False, "cofinite": True}
        self.family = setfam.FamilyParams(gap=2, block=8, cofinite_head=8, burnin=8)
        self.sturmian_family = setfam.FamilyParams(gap=34, block=8, cofinite_head=8, burnin=8)
        # S cells: 0-4 lie in [-1, 0], 5-9 in [0, 1].  Two same-side pairs and
        # two crossing pairs per pass.
        grid = self.params.grid(self.maps["S"])
        half = SURVEY_CELLS // 2
        self.s_pairs = []
        for same in (True, True, False, False):
            i = rng.randrange(SURVEY_CELLS)
            lower = (i < half) == same
            j = rng.randrange(0, half) if lower else rng.randrange(half, SURVEY_CELLS)
            self.s_pairs.append((grid[i], grid[j], same, (i, j)))
        self.grid_sample = {m: _grid_sample(rng, SURVEY_CELLS) for m in self.maps}
        self.sturmian_word_lens = rng.sample(range(3, 9), 3)
        self.sturmian_rng_seed = f"survey/{seed}/sturmian"
        self._expected = None

    def ops(self, pass_dir: Path) -> list:
        ops = []
        for m, pl in self.maps.items():
            ops.append((f"devaney_report {m}",
                        lambda pl=pl, m=m: interval.devaney_report(pl, self.params, map_name=m),
                        lambda r, m=m: _survey_record(r, *self.grid_sample[m])))
        for m, pl in self.maps.items():
            ops.append((f"periodic_density_report {m}",
                        lambda pl=pl: interval.periodic_density_report(pl, DENSITY_EPS, DENSITY_N_MAX),
                        lambda r: (r.covered_fraction, r.period_reached, r.cells)))
        for m, top in (("tent", TENT_PERIODS), ("zigzag", ZIGZAG_PERIODS)):
            for n in range(1, top + 1):
                ops.append((f"periodic_points {m} {n}",
                            lambda pl=self.maps[m], n=n: interval.periodic_points(pl, n),
                            lambda r, key=f"{self.seed}/{m}/{n}": (
                                len(r.points), r.segments,
                                _sample(random.Random(key), list(r.points), 3))))
        for u, v, same, key in self.s_pairs:
            ops.append((f"transitivity_hitting_set S {key}",
                        lambda u=u, v=v: interval.transitivity_hitting_set(
                            self.maps["S"], u, v, SURVEY_STEPS),
                        lambda r: r.window.members))
        for name, p in self.p_sets.items():
            ops.append((f"fs_transitivity_report {name}",
                        lambda p=p: subshift.fs_transitivity_report(
                            subshift.SpacingShift(p), SPACING_WORD_LEN, SPACING_N_MAX,
                            self.family),
                        lambda r, name=name: _transitivity_record(
                            r, random.Random(f"{self.seed}/{name}"))))
        ops += self._sturmian_ops()
        return ops

    def _sturmian_ops(self) -> list:
        box: dict = {}

        def shift():
            box["spec"] = subshift.golden_spec(STURMIAN_PREFIX)
            box["shift"] = subshift.SturmianShift(box["spec"])
            return box["spec"].prefix_len

        def factors():
            lang = subshift.language(box["shift"], STURMIAN_WORD_LEN)
            box["words"] = sorted(w for w in lang if w)
            return lang

        ops = [("sturmian shift", shift, lambda r: r),
               ("sturmian language", factors, lambda r: sorted(r))]
        rng = random.Random(self.sturmian_rng_seed)
        picks = [rng.random() for _ in self.sturmian_word_lens]
        for k, (n, x) in enumerate(zip(self.sturmian_word_lens, picks)):
            def occurrences(n=n, x=x):
                words = [w for w in box["words"] if len(w) == n]
                w = words[int(x * len(words))]
                occ = subshift.occurrence_gaps(box["spec"], w)
                return w, occ, setfam.classify(occ, self.sturmian_family)
            ops.append((f"sturmian occurrences {k}", occurrences,
                        lambda r: (r[0], r[1].horizon, r[1].members, r[2])))
        u_pick, v_pick = rng.random(), rng.random()

        def cylinder():
            words = [w for w in box["words"] if len(w) == 4]
            u, v = words[int(u_pick * len(words))], words[int(v_pick * len(words))]
            return u, v, subshift.cylinder_hitting_set(box["shift"], u, v, CYLINDER_N_MAX)

        ops.append(("sturmian cylinder_hitting_set", cylinder,
                    lambda r: (r[0], r[1], r[2].horizon, r[2].members)))
        ops.append(("sturmian periodicity_probe",
                    lambda: subshift.periodicity_probe(box["shift"], 8, 4), lambda r: r))
        return ops

    def failed(self, name: str, record) -> bool:
        return False

    def expected(self) -> dict:
        if self._expected is not None:
            return self._expected
        exp: dict = {"maps": {}, "spacing": {}}
        steps = SURVEY_STEPS
        for m, points in self.map_points.items():
            pl = oracles.PLOracle(points)
            grid = pl.cells(SURVEY_CELLS, self.params.margin)
            pairs, cells = self.grid_sample[m]
            exp["maps"][m] = {
                "pl": pl, "grid": grid,
                "transitivity": {(i, j): SURVEY_FAMILY(
                    steps + 1, pl.transitivity_set(grid[i], grid[j], steps)) for i, j in pairs},
                "sensitivity": {i: SURVEY_FAMILY(
                    steps + 1, pl.sensitivity_set(grid[i], self.params.delta, steps))
                    for i in cells}}
        s = exp["maps"]["S"]["pl"]
        exp["s_pairs"] = [s.transitivity_set(u, v, SURVEY_STEPS) for u, v, _, _ in self.s_pairs]
        for name, p in self.p_members.items():
            words = oracles.spacing_language(p, SPACING_HORIZON, SPACING_WORD_LEN)
            exp["spacing"][name] = {
                "pairs": _pairs_digest((u, v) for u in words for v in words),
                "p_verdict": SPACING_FAMILY(SPACING_HORIZON, p),
            }
        alpha = _golden_alpha()
        exp["prefix"] = oracles.sturmian_prefix(alpha, STURMIAN_PREFIX)
        self._expected = exp
        return exp

    def check(self, passes: list[dict]) -> list[str]:
        exp = self.expected()
        errors: list[str] = []
        prefix = exp["prefix"]
        factor_sets = {n: {prefix[i:i + n] for i in range(len(prefix) - n + 1)}
                       for n in range(1, STURMIAN_WORD_LEN + 1)}
        rows_seen: dict = {}
        for n, out in enumerate(passes):
            where = f"pass {n}"
            for m in self.maps:
                rec = out[f"devaney_report {m}"]
                if isinstance(rec, Failed):
                    continue
                e = exp["maps"][m]
                _same(errors, f"{where} {m} grid", rec["grid"], e["grid"])
                for key, v in e["transitivity"].items():
                    _same(errors, f"{where} {m} transitivity {key}",
                          rec["transitivity"].get(key), oracles.verdict_fields(v))
                for key, v in e["sensitivity"].items():
                    _same(errors, f"{where} {m} sensitivity {key}",
                          rec["sensitivity"].get(key), oracles.verdict_fields(v))
                # The verdicts follow from the rows and the density coverage.
                for fam, want in rec["verdicts_from_rows"].items():
                    _same(errors, f"{where} {m} verdict {fam}", rec["verdicts"][fam], want)
                if m == "S":
                    _same(errors, f"{where} S Fs", rec["verdicts"]["Fs"], True)
                    _same(errors, f"{where} S Ft", rec["verdicts"]["Ft"], False)
                if m == "tent":
                    _same(errors, f"{where} tent Fcf", rec["verdicts"]["Fcf"], True)
                if m == "example211" and rec["lower_meets_upper"]:
                    errors.append(f"{where} example211: a lower-half cell meets an upper-half cell")
            for m in self.maps:
                rec = out[f"periodic_density_report {m}"]
                if not isinstance(rec, Failed):
                    # All four maps have dense periodic points.
                    _same(errors, f"{where} {m} periodic density", rec[0], 1)
            for m, top, base in (("tent", TENT_PERIODS, 2), ("zigzag", ZIGZAG_PERIODS, 3)):
                pl = exp["maps"][m]["pl"]
                for k in range(1, top + 1):
                    rec = out[f"periodic_points {m} {k}"]
                    if isinstance(rec, Failed):
                        continue
                    count, segments, sample = rec
                    _same(errors, f"{where} {m} period-{k} points", count, base ** k)
                    _same(errors, f"{where} {m} period-{k} segments", segments, ())
                    for p, prime in sample:
                        if pl.iterate(p, k) != p:
                            errors.append(f"{where} {m}: {p} is not fixed by the {k}-th power")
                        least = next(d for d in range(1, k + 1) if pl.iterate(p, d) == p)
                        _same(errors, f"{where} {m} prime period of {p}", prime, least)
            for (u, v, same, key), want in zip(self.s_pairs, exp["s_pairs"]):
                rec = out[f"transitivity_hitting_set S {key}"]
                if isinstance(rec, Failed):
                    continue
                _same(errors, f"{where} S hitting set {key}", list(rec), want)
                parity = 0 if same else 1
                if any(t % 2 != parity for t in rec):
                    errors.append(f"{where} S hitting set {key}: a {'same-side' if same else 'crossing'} "
                                  f"hit of the wrong parity")
            for name, p in self.p_members.items():
                rec = out[f"fs_transitivity_report {name}"]
                if isinstance(rec, Failed):
                    continue
                e = exp["spacing"][name]
                _same(errors, f"{where} {name} pairs", rec["pairs"], e["pairs"])
                _same(errors, f"{where} {name} P verdict", rec["p_verdict"],
                      oracles.verdict_fields(e["p_verdict"]))
                for key in ("all_syndetic", "all_thick", "all_thickly_syndetic", "all_cofinite"):
                    _same(errors, f"{where} {name} {key}", rec[key], rec["row_" + key])
                _same(errors, f"{where} {name} all_cofinite vs P co-finite",
                      rec["all_cofinite"], self.cofinite[name])
                want_11 = tuple(q - 1 for q in sorted(p) if 1 <= q <= SPACING_N_MAX + 1)
                _same(errors, f"{where} {name} gap_set(1, 1)", rec["gaps_11"], want_11)
                for u, v, gaps, verdict in rec["sample"]:
                    key = (name, u, v)
                    if key not in rows_seen:
                        want_gaps = oracles.spacing_gap_set(p, SPACING_HORIZON, u, v, SPACING_N_MAX)
                        rows_seen[key] = (tuple(want_gaps), oracles.verdict_fields(
                            SPACING_FAMILY(SPACING_N_MAX + 1, want_gaps)))
                    _same(errors, f"{where} {name} gap_set{(u, v)}", gaps, rows_seen[key][0])
                    _same(errors, f"{where} {name} verdict{(u, v)}", verdict, rows_seen[key][1])
            self._check_sturmian(errors, where, out, prefix, factor_sets)
        return errors

    def _check_sturmian(self, errors, where, out, prefix, factor_sets) -> None:
        lang = out["sturmian language"]
        if not isinstance(lang, Failed):
            want = sorted({""}.union(*factor_sets.values()))
            _same(errors, f"{where} sturmian language", lang, want)
            counts = [sum(1 for w in lang if len(w) == n) for n in range(1, STURMIAN_WORD_LEN + 1)]
            _same(errors, f"{where} sturmian complexity", counts,
                  list(range(2, STURMIAN_WORD_LEN + 2)))
        memo = self._expected.setdefault("sturmian", {})
        for k in range(len(self.sturmian_word_lens)):
            rec = out[f"sturmian occurrences {k}"]
            if isinstance(rec, Failed):
                continue
            w, horizon, members, verdict = rec
            if w not in memo:
                occ = [i for i in oracles.occurrences(prefix, w) if i < len(prefix) - len(w) + 1]
                memo[w] = (occ, oracles.verdict_fields(STURMIAN_FAMILY(len(prefix) - len(w) + 1, occ)))
            occ, want_verdict = memo[w]
            _same(errors, f"{where} sturmian horizon of {w}", horizon, len(prefix) - len(w) + 1)
            _same(errors, f"{where} sturmian occurrences of {w}", list(members), occ)
            _same(errors, f"{where} sturmian verdict of {w}", oracles.verdict_fields(verdict),
                  want_verdict)
        rec = out["sturmian cylinder_hitting_set"]
        if not isinstance(rec, Failed):
            u, v, horizon, members = rec
            if (u, v) not in memo:
                occ_u, occ_v = oracles.occurrences(prefix, u), set(oracles.occurrences(prefix, v))
                memo[(u, v)] = [n for n in range(1, CYLINDER_N_MAX + 1)
                                if any(p + n in occ_v for p in occ_u)]
            _same(errors, f"{where} sturmian cylinder set {u},{v}", list(members), memo[(u, v)])
        rec = out["sturmian periodicity_probe"]
        if not isinstance(rec, Failed):
            # The golden Sturmian word has no fourth powers.
            _same(errors, f"{where} sturmian fourth power", rec, False)


def _survey_record(s, pairs: list, cells: list) -> dict:
    trans = {(i, j): v for i, j, v in s.transitivity}
    verdicts = [v for _, _, v in s.transitivity] + [v for _, v in s.sensitivity]
    half = len(s.sensitivity) // 2
    return {
        "grid": [u for u, _ in s.sensitivity],
        "transitivity": {k: oracles.verdict_fields(trans[k]) for k in pairs},
        "sensitivity": {k: oracles.verdict_fields(s.sensitivity[k][1]) for k in cells},
        "verdicts": dict(s.verdicts),
        "verdicts_from_rows": {
            fam: all(getattr(v, attr) for v in verdicts) and s.density.covered_fraction == 1
            for fam, attr in (("Fs", "syndetic"), ("Ft", "thick"),
                              ("Fts", "thickly_syndetic"), ("Fcf", "cofinite"))},
        "lower_meets_upper": any(v.max_gap is not None for i, j, v in s.transitivity
                                 if i < half <= j),
    }


def _transitivity_record(rep, rng: random.Random) -> dict:
    rows = rep.rows
    rec = {
        "pairs": _pairs_digest((r.u, r.v) for r in rows),
        "p_verdict": oracles.verdict_fields(rep.p_verdict),
        "gaps_11": next(r.gaps.members for r in rows if r.u == "1" and r.v == "1"),
        "sample": [(r.u, r.v, r.gaps.members, oracles.verdict_fields(r.verdict))
                   for r in _sample(rng, list(rows), 12)],
    }
    for key, attr in (("all_syndetic", "syndetic"), ("all_thick", "thick"),
                      ("all_thickly_syndetic", "thickly_syndetic"),
                      ("all_cofinite", "cofinite")):
        rec[key] = getattr(rep, key)
        rec["row_" + key] = all(getattr(r.verdict, attr) for r in rows)
    return rec


# ---------------------------------------------------------------------------
# tracing: the binary64 engine.

PROBE_FAMILY = oracles.FamilyOracle(gap=2, block=4, cofinite_head=2, burnin=4)
CHAIN_NODES = 8001
CHAIN_DELTA = 0.01
CLUSTER_POINTS = 1000


def two_clusters() -> tuple[np.ndarray, list[int]]:
    """Points k/1000 and 10 + k/1000; each point maps to its twin in the other
    cluster.  Every chain alternates clusters, so the chain graph is strongly
    connected with period 2: transitive, not mixing."""
    k = np.arange(CLUSTER_POINTS) / CLUSTER_POINTS
    points = np.concatenate([k, 10.0 + k])
    images = [CLUSTER_POINTS + i for i in range(CLUSTER_POINTS)] + list(range(CLUSTER_POINTS))
    return points, images


class Tracing:
    """Tracing probes and chain graphs: the binary64 engine."""

    name = "tracing"

    def __init__(self, seed: int):
        self.seed = seed
        self.params = setfam.FamilyParams(gap=2, block=4, cofinite_head=2, burnin=4)
        self.systems = {m: shadowing.IntervalSystem(interval.builtin(m), name=m)
                        for m in ("tent", "S", "example211")}
        points, images = two_clusters()
        self.cluster_points, self.cluster_images = points, images
        self.systems["clusters"] = shadowing.DiscreteSystem(points, images, name="clusters")
        self.probes = {
            "syndetic tent": dict(system="tent", eps=0.05, deltas=(0.01,), length=64,
                                  trials=1, target="syndetic", n_candidates=100_001),
            "full tent": dict(system="tent", eps=0.05, deltas=RA_DELTAS, length=10,
                              trials=6, target="full", n_candidates=100_001),
            "crossing example211": dict(system="example211", eps=0.05, deltas=RA_DELTAS,
                                        length=64, trials=6, target="full",
                                        n_candidates=10_001, crossing=True),
        }
        self.graphs = {"tent": (CHAIN_NODES, CHAIN_DELTA), "S": (CHAIN_NODES, CHAIN_DELTA),
                       "clusters": (2 * CLUSTER_POINTS, 1.5 / CLUSTER_POINTS)}
        self._expected = None

    def _probe_seed(self, name: str) -> str:
        return f"bench/{self.seed}/{name}"

    def ops(self, pass_dir: Path) -> list:
        ops = []
        for name, spec in self.probes.items():
            spec = dict(spec)
            system = self.systems[spec.pop("system")]
            challenges = (shadowing.crossing_challenge(),) if spec.pop("crossing", False) else ()
            ops.append((f"probe {name}",
                        lambda system=system, spec=spec, ch=challenges, name=name:
                        shadowing.fg_shadowing_probe(
                            system, params=self.params, seed=self._probe_seed(name),
                            challenges=ch, **spec),
                        _probe_record))
        box: dict = {}
        for m, (nodes, delta) in self.graphs.items():
            def build(m=m, nodes=nodes, delta=delta):
                box[m] = shadowing.chain_graph(self.systems[m], nodes, delta)
                return box[m]
            ops.append((f"chain_graph {m}", build, _chain_record))
            for check in ("chain_transitive_check", "chain_mixing_check", "chain_period"):
                ops.append((f"{check} {m}",
                            lambda m=m, f=check: getattr(shadowing, f)(box[m]), lambda r: r))
            ops.append((f"chain_recurrent_nodes {m}",
                        lambda m=m: shadowing.chain_recurrent_nodes(box.pop(m)),
                        lambda r: oracles.digest(np.array(r, dtype=np.int64))))
        return ops

    def failed(self, name: str, record) -> bool:
        return False

    def expected(self) -> dict:
        if self._expected is not None:
            return self._expected
        exp = {}
        for name, spec in self.probes.items():
            spec = dict(spec)
            m = spec.pop("system")
            exp[f"probe {name}"] = oracles.probe_expectation(
                oracles.BUILTIN_POINTS[m], seed=self._probe_seed(name),
                family=PROBE_FAMILY, **spec)
        for m, (nodes, delta) in self.graphs.items():
            if m == "clusters":
                points = self.cluster_points
                images = points[np.array(self.cluster_images)]
            else:
                fmap = oracles.FloatMap(oracles.BUILTIN_POINTS[m])
                points = np.linspace(fmap.lo, fmap.hi, nodes)
                images = fmap.step_array(points)
            e = oracles.chain_expectation(points, images, delta)
            e["points"] = hashlib.sha256(points.tobytes()).hexdigest()
            exp[m] = e
        self._expected = exp
        return exp

    def check(self, passes: list[dict]) -> list[str]:
        exp = self.expected()
        errors: list[str] = []
        # Facts: tent and S (self-loop at the fixed point 0) are chain mixing;
        # the two clusters alternate, period 2.
        facts = {"tent": (True, True, 1), "S": (True, True, 1), "clusters": (True, False, 2)}
        for m, (transitive, mixing, period) in facts.items():
            got = (exp[m]["transitive"], exp[m]["mixing"], exp[m]["period"])
            if got != (transitive, mixing, period):
                errors.append(f"oracle: chain verdicts of {m} are {got}")
        if exp["probe crossing example211"]["verdict"] != "falsified":
            errors.append("oracle: the example211 crossing probe is not falsified")
        for n, out in enumerate(passes):
            where = f"pass {n}"
            for name in self.probes:
                rec = out[f"probe {name}"]
                if not isinstance(rec, Failed):
                    _check_probe(errors, f"{where} probe {name}", rec, exp[f"probe {name}"])
            for m in self.graphs:
                e = exp[m]
                rec = out[f"chain_graph {m}"]
                if not isinstance(rec, Failed):
                    _same(errors, f"{where} {m} chain points", rec["points"], e["points"])
                    _same(errors, f"{where} {m} chain edges", rec["edges"], e["edges"])
                    _same(errors, f"{where} {m} chain edge list", rec["edges_digest"], e["edges_digest"])
                for check, want in (("chain_transitive_check", e["transitive"]),
                                    ("chain_mixing_check", e["mixing"]),
                                    ("chain_period", e["period"]),
                                    ("chain_recurrent_nodes", e["recurrent_digest"])):
                    rec = out[f"{check} {m}"]
                    if not isinstance(rec, Failed):
                        _same(errors, f"{where} {check} {m}", rec, want)
        return errors


WORKLOADS = {w.name: w for w in (ReportAll, Survey, Tracing)}
