"""Command-line front end.

Subcommands map one-to-one onto the library surveys; each writes a plain
report.txt plus CSV side files into --out.  Options resolve as command line
> INI config (--config) > built-in defaults, and --dump-config prints the
effective INI so runs can be reproduced exactly.  main returns the exit
code: 0 ok (--help too), 2 bad configuration or empty analysis (an argv
that argparse rejects too), 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import itertools
import sys
from fractions import Fraction
from pathlib import Path

from . import budgets, interval, setfam, shadowing, subshift
from .budgets import BudgetError
from .setfam import FAMILIES, FamilyParams, WindowSet


class ConfigError(Exception):
    pass


def _fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError as e:
        raise ValueError(str(e)) from None


_fraction.__name__ = "Fraction"   # argparse names the type in its errors


def _floats(s: str) -> tuple[float, ...]:
    out = tuple(float(t) for t in s.split(",") if t.strip())
    if not out:
        raise ValueError("empty float list")
    return out


def _family(p: FamilyParams, tail: bool = False,
            gap_help: str = "syndetic gap bound") -> list[tuple]:
    """The family options at p's values; tail adds --tail-policy."""
    opts = [
        ("gap", int, p.gap, gap_help),
        ("block", int, p.block, "thickness block length"),
        ("cofinite-head", int, p.cofinite_head,
         "largest admissible co-finite head"),
        ("burnin", int, p.burnin, "density burn-in prefix"),
    ]
    if tail:
        opts.append(("tail-policy", str, p.tail_policy,
                     "censored|strict trailing gap"))
    return opts


def _tracing(*middle: tuple) -> list[tuple]:
    """The tracing-probe options, with middle spliced in after --trials."""
    return [
        ("map", str, "tent", "builtin map name or @file"),
        ("eps", float, 0.05, "tracing tolerance"),
        ("deltas", _floats, _floats("0.01,0.001,0.0001"),
         "pseudo-orbit ladder"),
        ("length", int, 10, "pseudo-orbit length"),
        ("trials", int, 6, "random pseudo-orbits per delta"),
        *middle,
        ("candidates", int, 10_001, "tracer grid size"),
        ("challenge", str, "auto", "auto|crossing|none"),
    ]


_SURVEY = interval.SurveyParams()
_PROBE_FAMILY = FamilyParams(block=4, cofinite_head=2, burnin=4)

# name, converter, default, help
RUN_OPTIONS = [
    ("seed", str, "42", "seed string for all randomized probes"),
    ("out", str, ".", "output directory"),
]

SECTIONS: dict[str, list[tuple[str, type, object, str]]] = {
    "classify-set": [
        ("horizon", int, 256, "window horizon"),
        ("members", str, "complement(powers(2))",
         "generator, comma-separated members, or @file"),
        *_family(FamilyParams(), tail=True),
    ],
    "spacing": [
        ("horizon", int, 128, "horizon of the spacing set"),
        ("p", str, "evens", "spacing set: generator, members, or @file"),
        ("word-len", int, 3, "survey words up to this length"),
        ("n-max", int, 64, "largest filler length / shift"),
        *_family(FamilyParams(), tail=True),
        ("k-max", int, subshift.K_MAX,
         "modulus bound for the periodic-point search"),
        ("witness", str, "", "u,k,v triple for a glued-word witness"),
    ],
    "sturmian": [
        ("prefix-len", int, 10_000, "length of the Sturmian prefix"),
        ("word-len", int, 8, "factor-count table up to this length"),
        ("word", str, "010", "factor whose occurrence set is classified"),
        *_family(FamilyParams(gap=34), tail=True,
                 gap_help="syndetic gap bound for occurrence sets"),
    ],
    "interval-devaney": [
        ("map", str, "S", "builtin map name or @file"),
        ("cells", int, _SURVEY.cells, "interval grid cells"),
        ("margin", _fraction, _SURVEY.margin, "shrink cells by this margin"),
        ("delta", _fraction, _SURVEY.delta, "sensitivity threshold"),
        ("steps", int, _SURVEY.n_steps, "iteration window length"),
        *_family(_SURVEY.family),
        ("density-eps", _fraction, _SURVEY.density_epsilon,
         "periodic-point cell size"),
        ("density-steps", int, _SURVEY.density_n_max, "largest period searched"),
    ],
    "shadow": [
        *_tracing(("target", str, "full", "trace-set target family")),
        *_family(_PROBE_FAMILY),
    ],
    "p-chaos": [
        *_tracing(),
        ("chain-delta", float, 0.02,
         "chain graph tolerance, which also sizes its grid"),
        ("density-eps", _fraction, Fraction(1, 64), "periodic-point cell size"),
        ("density-steps", int, 10, "largest period searched"),
        *_family(_PROBE_FAMILY),
    ],
    "report-all": [],
}
_TABLES = {"run": RUN_OPTIONS, **SECTIONS}   # every INI section's options


def _fb(b: bool) -> str:
    return "true" if b else "false"


def _pf(b: bool) -> str:
    return "pass" if b else "fail"


def _flags(obj, *names: str) -> str:
    """name=true|false for each named flag of obj."""
    return " ".join(f"{n}={_fb(getattr(obj, n))}" for n in names)


# ---------------------------------------------------------------------------
# Config plumbing.  A parse holds only the flags given, and _resolve layers
# them over the INI, read raw (a % is literal), over the built-in defaults.

def _load_ini(path: str) -> dict[str, dict[str, object]]:
    # No header names the empty section, so [DEFAULT] is read as any other.
    cfg = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            cfg.read_file(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except configparser.Error as e:
        raise ConfigError(f"bad config {path}: {e}")
    out: dict[str, dict[str, object]] = {}
    for section in cfg.sections():
        if section not in _TABLES:
            raise ConfigError(f"unknown config section [{section}]")
        known = {name: conv for name, conv, _, _ in _TABLES[section]}
        vals: dict[str, object] = {}
        for key, raw in cfg.items(section):
            if key not in known:
                raise ConfigError(f"unknown option {key!r} in [{section}]")
            try:
                vals[key.replace("-", "_")] = known[key](raw)
            except ValueError as e:
                raise ConfigError(f"bad value for {key} in [{section}]: {e}")
        out[section] = vals
    return out


def _resolve(table: list[tuple], ini_section: dict[str, object],
             given: dict[str, object]) -> dict[str, object]:
    """A table's option dests, each at its given value over its INI value
    over its built-in default."""
    dests = [(name.replace("-", "_"), default) for name, _, default, _ in table]
    return {dest: given.get(dest, ini_section.get(dest, default))
            for dest, default in dests}


def _dump_config(ini: dict[str, dict[str, object]],
                 given: dict[str, object]) -> str:
    """The effective INI: each section resolved, with the given flags
    applied to [run] and to the active subcommand only."""
    lines = []
    for section, table in _TABLES.items():
        if not table:
            continue
        flags = given if section in ("run", given["command"]) else {}
        vals = _resolve(table, ini.get(section, {}), flags)
        lines.append(f"[{section}]")
        for name, conv, _, _ in table:
            val = vals[name.replace("-", "_")]
            if conv is _floats:
                val = ",".join(repr(v) for v in val)
            lines.append(f"{name}={val}")
        lines.append("")
    return "\n".join(lines)


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    # Every subcommand name is registered, but only those that are an exact
    # token of argv get their options.  argparse picks a subcommand by its
    # exact name alone, so the one it picks has all of them, and help, usage
    # and error text are those of a parser with every option: a call pays
    # for its own subcommand's options, not for all seven tables.  Each run
    # of names that argv does not hold shares one bare parser, the names
    # kept in order as its aliases, which argparse lists as choices alike.
    named = set(argv)
    # A parent parser takes the global flags before or after the subcommand.
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="INI file with option defaults")
    for name, _, _, help_ in RUN_OPTIONS:
        common.add_argument(f"--{name}", help=help_)
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective configuration and exit")
    parser = argparse.ArgumentParser(
        prog="chaoskit", parents=[common],
        description="family-indexed chaos surveys for subshifts and interval maps")
    subs = parser.add_subparsers(dest="command")
    for built, run in itertools.groupby(SECTIONS, key=named.__contains__):
        run = list(run)
        if not built:
            subs.add_parser(run[0], aliases=run[1:], add_help=False)
            continue
        for section in run:
            sub = subs.add_parser(section, parents=[common],
                                  argument_default=argparse.SUPPRESS)
            for name, conv, _, help_ in SECTIONS[section]:
                sub.add_argument(f"--{name}", type=conv, help=help_)
    return parser


def _read(path: Path, what: str) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {what} file: {e}")


def _load_window(spec: str, horizon: int) -> tuple[WindowSet, str]:
    spec = spec.strip()
    if spec.startswith("@"):
        return setfam.parse_window_text(_read(Path(spec[1:]), "set")), spec
    return setfam.from_body([spec], horizon, ascending=False), spec


def _load_map(spec: str) -> tuple[interval.PLMap, str]:
    spec = spec.strip()
    if spec.startswith("@"):
        path = Path(spec[1:])
        return interval.parse_pl_text(_read(path, "map")), path.stem
    return interval.builtin(spec), spec


def _emit(outdir: Path, report: str, csvs: dict[str, list[list]]) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.txt").write_text(report)
    for name, rows in csvs.items():
        with open(outdir / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def _verdict_cells(v) -> list:
    """A verdict's witness cells: max_gap, longest_block, cofinite_head."""
    return [v.max_gap if v.max_gap is not None else "",
            v.longest_block, v.cofinite_head]


def _density_line(d: interval.DensityReport) -> str:
    """The periodic-density line of interval-devaney's and p-chaos' reports."""
    return (f"density: covered={d.covered_fraction} cells={d.cells} "
            f"period_reached={d.period_reached}")


def _member_rows(a: WindowSet) -> list[list]:
    """The n,member table of a window set: one row per slot, 1 for members."""
    rows = [["n", "member"]] + [[n, 0] for n in range(a.horizon)]
    for n in a.members:
        rows[n + 1][1] = 1
    return rows


# ---------------------------------------------------------------------------
# Subcommands.  Each run_<name>(o, family, seed) builds and checks all of its
# inputs from the option namespace o inside one _options() block, then runs
# its survey and returns (report text, csv files, one-line headline).

@contextlib.contextmanager
def _options():
    """Turn a library ValueError into a ConfigError, exit 2.  A survey's
    ValueError is a bug, so the block holds only calls whose ValueErrors are
    all input checks: parsers, the surveys' checks, and language,
    chain_nodes, chain_graph, occurrence_gaps and spacing_dense_periodic."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(str(e)) from None


def run_classify_set(o: argparse.Namespace, family: FamilyParams, seed: str):
    with _options():
        a, source = _load_window(o.members, o.horizon)
        family.check_horizon(a.horizon)
        if not a.members:
            raise ConfigError("empty set: nothing to classify")
    v = setfam.classify(a, family)
    families = _flags(v, "syndetic", "thick", "cofinite")
    report = "\n".join([
        "window set classification",
        f"source: {source}",
        f"horizon={a.horizon} size={len(a)}",
        f"max_gap={v.max_gap} longest_block={v.longest_block} "
        f"cofinite_head={v.cofinite_head}",
        f"lower_density={v.lower_density} upper_density={v.upper_density}",
        "families: " + families,
        "derived: " + _flags(v, "thickly_syndetic", "piecewise_syndetic"),
        f"params: gap={family.gap} block={family.block} "
        f"cofinite_head={family.cofinite_head} burnin={family.burnin} "
        f"tail_policy={family.tail_policy}",
        "",
    ])
    return report, {"set.csv": _member_rows(a)}, families


def _spacing_witness(text: str, p: WindowSet) -> subshift.SpacingWitness:
    try:
        u_s, k_s, v_s = text.split(",")
        return subshift.spacing_witness(
            subshift.parse_word(u_s), int(k_s), subshift.parse_word(v_s), p)
    except ValueError as e:
        raise ConfigError(f"bad witness triple {text!r}: {e}")


def run_spacing(o: argparse.Namespace, family: FamilyParams, seed: str):
    with _options():
        p, source = _load_window(o.p, o.horizon)
        oracle = subshift.SpacingShift(p)
        subshift.check_transitivity_report(oracle, o.word_len, o.n_max, family)
        witness = _spacing_witness(o.witness, p) if o.witness else None
        if not p.members:
            raise ConfigError("empty spacing set: nothing to survey")
        dp = subshift.spacing_dense_periodic(p, o.k_max)
    rep = subshift.fs_transitivity_report(oracle, o.word_len, o.n_max, family)
    lines = [
        "spacing shift survey",
        f"p: {source} horizon={p.horizon} size={len(p)}",
        f"word_len={o.word_len} pairs={len(rep.rows)} n_max={o.n_max}",
        "panels: " + _flags(rep, *(f"all_{f}" for f in FAMILIES.values())),
        "p_set: " + _flags(rep.p_verdict, *FAMILIES.values()),
        f"dense_periodic: passed={_fb(dp.passed)} witnesses={len(dp.witnesses)} "
        f"failures={len(dp.failures)} skipped={len(dp.skipped)} k_max={dp.k_max}",
    ]
    headline = (_flags(rep, "all_syndetic", "all_thick")
                + f" dense_periodic={_pf(dp.passed)}")
    if witness is not None:
        lines.append(
            f"witness: word={subshift.format_word(witness.word)} k={witness.k} "
            + _flags(witness, "member", "block_start"))
    lines.append("")
    # The verdict's witness cells, then one column per family for its tags.
    rows = [["u", "v", "members", "max_gap", "longest_block", "cofinite_head",
             *FAMILIES.values()]]
    for r in rep.rows:
        rows.append([subshift.format_word(r.u), subshift.format_word(r.v),
                     ";".join(str(m) for m in r.gaps.members),
                     *_verdict_cells(r.verdict),
                     *(_fb(getattr(r.verdict, f)) for f in FAMILIES.values())])
    return "\n".join(lines), {"pairs.csv": rows}, headline


def run_sturmian(o: argparse.Namespace, family: FamilyParams, seed: str):
    with _options():
        oracle = subshift.SturmianShift(subshift.golden_spec(o.prefix_len))
        word = subshift.parse_word(o.word)
        # occurrence_gaps raises BudgetError for a word too long for it.
        occ = subshift.occurrence_gaps(oracle.spec, word)
        family.check_horizon(occ.horizon)
        if not occ.members:
            raise ConfigError(f"word {word} does not occur in the prefix")
        lang = subshift.language(oracle, o.word_len)
    counts = {n: sum(1 for w in lang if len(w) == n)
              for n in range(1, o.word_len + 1)}
    complexity_ok = all(counts[n] == n + 1 for n in counts)
    v = setfam.classify(occ, family)
    lines = [
        "sturmian factor survey (golden rotation)",
        f"alpha=(sqrt(5)-1)/2 prefix_len={oracle.spec.prefix_len}",
        "factors: " + " ".join(f"n={n}:{counts[n]}" for n in sorted(counts)),
        f"complexity_matches_n_plus_1={_fb(complexity_ok)}",
        f"word={word} occurrences={len(occ)} max_gap={v.max_gap}",
        "families: " + _flags(v, "syndetic", "thick", "cofinite"),
        "",
    ]
    factor_rows = [["n", "count"]] + [[n, counts[n]] for n in sorted(counts)]
    headline = (f"complexity={'n+1' if complexity_ok else 'other'} "
                f"word={word} " + _flags(v, "syndetic"))
    return ("\n".join(lines),
            {"factors.csv": factor_rows, "occurrences.csv": _member_rows(occ)},
            headline)


def run_interval_devaney(o: argparse.Namespace, family: FamilyParams,
                         seed: str):
    with _options():
        m, name = _load_map(o.map)
        params = interval.SurveyParams(
            cells=o.cells, margin=o.margin, delta=o.delta, n_steps=o.steps,
            family=family, density_epsilon=o.density_eps,
            density_n_max=o.density_steps)
        params.grid(m)
    survey = interval.devaney_report(m, params, map_name=name)
    fams = " ".join(f"{k}={_pf(ok)}" for k, ok in survey.verdicts.items())
    lines = [
        f"interval map survey: {name}",
        f"domain=[{m.lo},{m.hi}] breakpoints={len(m.xs)}",
        f"fixed_points={','.join(str(p) for p in survey.fixed_points) or '-'} "
        f"segments={','.join(f'[{a},{b}]' for a, b in survey.fixed_segments) or '-'}",
        _density_line(survey.density),
        f"families: {fams}",
        "anomalies: " + ("; ".join(survey.anomalies) or "none"),
        "",
    ]
    sens_rows = [["cell", "a", "b", "max_gap", "longest_block",
                  "cofinite_head", "tags"]]
    for i, (u, v) in enumerate(survey.sensitivity):
        sens_rows.append([i, str(u[0]), str(u[1]), *_verdict_cells(v),
                          ";".join(v.tags())])
    trans_rows = [["i", "j", "max_gap", "longest_block", "cofinite_head", "tags"]]
    for i, j, v in survey.transitivity:
        trans_rows.append([i, j, *_verdict_cells(v), ";".join(v.tags())])
    dens_rows = [["epsilon", "n_max", "cells", "covered_fraction",
                  "period_reached"],
                 [str(survey.density.epsilon), survey.density.n_max,
                  survey.density.cells, str(survey.density.covered_fraction),
                  survey.density.period_reached]]
    return ("\n".join(lines),
            {"sensitivity.csv": sens_rows, "transitivity.csv": trans_rows,
             "density.csv": dens_rows},
            fams)


def _challenges_for(name: str, choice: str):
    if choice == "none":
        return ()
    if choice == "crossing":
        return (shadowing.crossing_challenge(),)
    if choice == "auto":
        return (shadowing.crossing_challenge(),) if name == "example211" else ()
    raise ConfigError(f"unknown challenge {choice!r}")


def _tracer(m: interval.PLMap, name: str, o: argparse.Namespace,
            family: FamilyParams, *targets: str):
    """The tracing system of m, checked against o's probe options for a
    probe of each target, and its probe as probe(target, seed)."""
    system = shadowing.IntervalSystem(m, name=name)
    challenges = _challenges_for(name, o.challenge)
    shadowing.check_probe(system, o.eps, o.deltas, o.length, o.trials,
                          targets, family, o.candidates, challenges)

    def probe(target: str, seed: str) -> shadowing.ProbeResult:
        return shadowing.fg_shadowing_probe(
            system, o.eps, o.deltas, o.length, o.trials, target=target,
            params=family, n_candidates=o.candidates, seed=seed,
            challenges=challenges)
    return system, probe


def _probe_rows(probe: shadowing.ProbeResult) -> list[list]:
    rows = [["delta", "label", "valid_count", "tracer", "cardinality",
             "max_gap", "tags", "ok", "challenge"]]
    for r in probe.rows:
        rows.append([repr(r.delta), r.label, r.valid_count, repr(r.tracer),
                     r.cardinality,
                     r.trace_max_gap if r.trace_max_gap is not None else "",
                     ";".join(r.tags), _fb(r.ok), _fb(r.challenge)])
    return rows


def _probe_lines(probe: shadowing.ProbeResult) -> list[str]:
    delta_pass = "-" if probe.delta_pass is None else repr(probe.delta_pass)
    lines = [
        f"eps={probe.eps!r} target={probe.target} length={probe.length} "
        f"candidates={probe.n_candidates} trials={probe.trials}",
        "ladder=" + ",".join(repr(d) for d in probe.deltas),
        f"verdict={probe.verdict} delta_pass={delta_pass}",
    ]
    w = probe.witness
    if w is not None:
        lines.append(
            f"witness: delta={w.delta!r} label={w.label} "
            f"cardinality={w.cardinality}/{probe.length} tags={';'.join(w.tags) or '-'}")
    else:
        lines.append("witness: none")
    return lines


def run_shadow(o: argparse.Namespace, family: FamilyParams, seed: str):
    with _options():
        system, probe = _tracer(*_load_map(o.map), o, family, o.target)
    result = probe(o.target, f"{seed}/shadow/{system.name}")
    lines = [f"tracing probe: {system.name}"] + _probe_lines(result) + [""]
    return ("\n".join(lines), {"probe.csv": _probe_rows(result)},
            f"probe={result.verdict}")


def run_p_chaos(o: argparse.Namespace, family: FamilyParams, seed: str):
    """Dense periodic points (exact) plus tracing probes plus chain structure.

    The headline probe targets full traces; the auxiliary panel relaxes the
    target to piecewise-syndetic trace sets and is reported alongside without
    being folded into the evidence flag, since the relaxed notion is strictly
    weaker and a pass there decides nothing about the headline one.
    """
    with _options():
        m, name = _load_map(o.map)
        interval.density_cells(m, o.density_eps, o.density_steps)
        system, probe = _tracer(m, name, o, family, "full",
                                "piecewise_syndetic")
        g = shadowing.chain_graph(
            system, shadowing.chain_nodes(system, o.chain_delta), o.chain_delta)
    seed = f"{seed}/p-chaos/{name}"
    density = interval.periodic_density_report(m, o.density_eps,
                                               o.density_steps)
    full = probe("full", seed)
    aux = probe("piecewise_syndetic", seed + "/aux")
    transitive = shadowing.chain_transitive_check(g)
    mixing = shadowing.chain_mixing_check(g)
    evidence = density.covered_fraction == 1 and full.verdict == "pass"
    lines = [
        f"periodic-density and tracing report: {name}",
        f"{_density_line(density)} epsilon={density.epsilon}",
        f"tracing probe (target=full): {full.verdict}",
        f"auxiliary panel (target=piecewise_syndetic): {aux.verdict} "
        f"(reported, not asserted)",
        f"chain graph ({len(g)} nodes, delta={o.chain_delta}): "
        f"transitive={_fb(transitive)} mixing={_fb(mixing)}",
        f"evidence={_fb(evidence)}",
        "",
    ]
    files = {"probe.csv": _probe_rows(full),
             "aux_probe.csv": _probe_rows(aux)}
    headline = (f"probe={full.verdict} evidence={_fb(evidence)} "
                f"chain_mixing={_fb(mixing)}")
    return "\n".join(lines), files, headline


# ---------------------------------------------------------------------------
# Dispatch.  report-all runs its fixtures through the same _run as the
# subcommands, on each section's built-in defaults plus these overrides; INI
# sections do not apply to it, so the fixtures stay fixed.

REPORT_ALL: list[tuple[str, str, dict[str, object]]] = [
    ("classify_nonpowers", "classify-set", {}),
    ("spacing_evens", "spacing", {}),
    ("spacing_nonpowers", "spacing",
     {"p": "complement(powers(2))", "witness": "1,4,1"}),
    ("sturmian_golden", "sturmian", {}),
    ("interval_S", "interval-devaney", {}),
    ("interval_tent", "interval-devaney",
     {"map": "tent", "delta": Fraction(1, 4), "density_eps": Fraction(1, 64)}),
    ("interval_example211", "interval-devaney", {"map": "example211"}),
    ("pchaos_tent", "p-chaos", {}),
    ("shadow_example211", "shadow",
     {"map": "example211", "length": 64, "candidates": 2001}),
]

RUNNERS = {
    "classify-set": run_classify_set,
    "spacing": run_spacing,
    "sturmian": run_sturmian,
    "interval-devaney": run_interval_devaney,
    "shadow": run_shadow,
    "p-chaos": run_p_chaos,
}


def _run(section: str, opts: dict[str, object], seed: str):
    """Run one section on its option dests; returns (report, csvs, headline).
    Every value check is the library's own, made before any survey starts."""
    with _options():
        family = FamilyParams(**{f.name: opts[f.name]
                                 for f in dataclasses.fields(FamilyParams)
                                 if f.name in opts})
    return RUNNERS[section](argparse.Namespace(**opts), family, seed)


def _report_all(outdir: Path, seed: str) -> str:
    jobs = []
    for sub, section, overrides in REPORT_ALL:
        opts = _resolve(SECTIONS[section], {}, overrides)
        jobs.append((sub, _run(section, opts, seed)))
    summary = []
    for sub, (report, files, headline) in jobs:
        _emit(outdir / sub, report, files)
        summary.append(f"{sub}: {headline}")
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    return f"{len(jobs)} fixture reports"


def _main(argv: list[str]) -> int:
    parser = _build_parser(argv)
    try:
        given = vars(parser.parse_args(argv))
    except SystemExit as e:   # argparse's usage error (2) or --help (0)
        return e.code
    ini = _load_ini(given["config"]) if given.get("config") else {}
    if given.get("dump_config"):
        sys.stdout.write(_dump_config(ini, given))
        return 0
    command = given["command"]
    if not command:
        parser.print_usage(sys.stderr)
        raise ConfigError("no subcommand given")
    # The caps read the override lazily; a bad one must fail here, alike for
    # every subcommand, and not at whichever cap a run consults first.
    with _options():
        budgets.multiplier()
    run = _resolve(RUN_OPTIONS, ini.get("run", {}), given)
    if command == "report-all":
        headline = _report_all(Path(run["out"]), run["seed"])
    else:
        opts = _resolve(SECTIONS[command], ini.get(command, {}), given)
        report, files, headline = _run(command, opts, run["seed"])
        _emit(Path(run["out"]), report, files)
    print(f"{command}: {headline}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _main(argv)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
