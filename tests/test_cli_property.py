"""Property tests over cli.main: the exit-code contract and the precedence
of option values.

Every subcommand gets a value for each of its options, drawn from a valid
pool or, for a few options per example, from a pool of bad and edge values.
Whatever the draw, a run exits 0, 2 (bad configuration) or 3 (budget), never
with a traceback, and writes nothing into --out unless it exits 0.  The
valid pools stay small (cells <= 3, candidates <= 101, chain-delta >= 0.02,
prefix-len <= 400, steps <= 16) so that many examples run to exit 0 fast.
A chain-delta of 1e-9 sizes a chain grid past the enum_nodes cap: exit 3
before work.
`--map` also draws the map files in tests/maps/, three valid and three bad.

The precedence property sets a drawn subset of one subcommand's options in
its INI section and another as flags, each from its valid pool less its
default, so that a value taken from the wrong layer shows.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chaoskit.cli import RUN_OPTIONS, SECTIONS, main

GOLDEN = Path(__file__).parent / "golden"
MISSING = "@/no/such/file"
TOO_MANY = str(2 ** 20 + 1)   # past the enum_nodes cap: exit 3 before work
MAPS = Path(__file__).parent / "maps"

# option: (valid values, bad or edge values)
_FAMILY = {
    "gap": (["1", "2", "5"], ["0", "-1", "x"]),
    "block": (["1", "4", "8"], ["0", "-2", "1.5"]),
    "cofinite-head": (["0", "2", "8"], ["-1", "x"]),
    "burnin": (["1", "2", "4"], ["0", "-1", "300"]),
}
_TAIL = {"tail-policy": (["censored", "strict"], ["foo", ""])}
# The map files: a zigzag with slopes +-3, a constant map and a Markov map
# on the grid k/4; then a value that escapes the domain, a domain line that
# disagrees with the breakpoints, and an empty file.
_MAP = (["S", "tent", "example211", "identity",
         *(f"@{MAPS / name}.txt" for name in ("zigzag3", "constant", "markov4"))],
        ["nosuch", MISSING, "",
         *(f"@{MAPS / name}.txt" for name in ("escapes", "domain_mismatch", "empty"))])
_DENSITY = {
    "density-eps": (["1/4", "1/16", "1/64"],
                    ["0", "-1/4", "1/0", "x", "1/2000000"]),
    "density-steps": (["1", "3", "6"], ["0", "-1", "x"]),
}
_PROBE = {
    "map": _MAP,
    "eps": (["0.05", "0.1", "0.5"], ["0", "-1", "nan", "inf", "x"]),
    "deltas": (["0.01", "0.01,0.001", "0.1,0.05"],
               ["0", "nan", "inf", "-0.1", "", ",", "x"]),
    "length": (["2", "5", "10"], ["1", "0", "-3"]),
    "trials": (["0", "1", "3"], ["-1", "x"]),
    "candidates": (["2", "11", "101"], ["1", "0", TOO_MANY]),
    "challenge": (["auto", "crossing", "none"], ["sometimes", ""]),
}

POOLS = {
    "classify-set": {
        "horizon": (["8", "16", "64"], ["0", "-1", "1", "4", TOO_MANY]),
        "members": (["evens", "all", "complement(powers(2))", "multiples(3)",
                     "1,3,5", "0,2"],
                    ["nonsense(3)", "3,x", "", "-1", "999", "multiples(0)",
                     MISSING]),
        **_FAMILY, **_TAIL,
    },
    "spacing": {
        "horizon": (["32", "64"], ["0", "2", "-5"]),
        "p": (["evens", "all", "complement(powers(2))", "multiples(3)",
               "1,2,4"], ["nonsense", "", "0", "x,1", MISSING]),
        "word-len": (["1", "2", "3"], ["0", "-1", "17"]),
        "n-max": (["0", "4", "8", "16"], ["-1", "40", "200"]),
        "k-max": (["1", "8", "32"], ["0", "-1"]),
        "witness": (["", "1,4,1", "1,2,01"], ["1,x,1", "1,4", "2,4,1",
                                              "1,-1,1"]),
        **_FAMILY, **_TAIL,
    },
    "sturmian": {
        "prefix-len": (["100", "200", "400"],
                       ["0", "-1", "20", str(2 ** 17 + 1)]),
        "word-len": (["1", "2", "4", "8"], ["0", "-1", "17"]),
        "word": (["010", "0", "1", "01"], ["-", "0000", "012", "",
                                          "01001010010"]),
        **_FAMILY, **_TAIL,
    },
    "interval-devaney": {
        "map": _MAP,
        "cells": (["1", "2", "3"], ["0", "-1", "1025"]),
        "margin": (["0", "1/100", "1/20"], ["1", "-1/20", "1/0", "x"]),
        "delta": (["1/2", "1/4", "1"], ["0", "-1/2", "1/0"]),
        "steps": (["1", "4", "8", "16"], ["0", "-1", "x"]),
        **_FAMILY, **_DENSITY,
    },
    "shadow": {
        **_PROBE,
        "target": (["full", "cofinite", "syndetic", "thick",
                    "thickly_syndetic", "piecewise_syndetic"],
                   ["nope", ""]),
        **_FAMILY,
    },
    "p-chaos": {
        **_PROBE,
        "chain-delta": (["0.02", "0.1"], ["0", "-1", "nan", "inf", "1e-9"]),
        **_DENSITY, **_FAMILY,
    },
}


@st.composite
def invocations(draw, command):
    """argv for one run: every option valid except at most two."""
    pools = POOLS[command]
    bad = draw(st.sets(st.sampled_from(sorted(pools)), max_size=2))
    argv = [command, f"--seed={draw(st.sampled_from(['42', '7', '']))}"]
    for name, (valid, wrong) in pools.items():
        value = draw(st.sampled_from(wrong if name in bad else valid))
        argv.append(f"--{name}={value}")
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(POOLS))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_invocation_honours_the_exit_contract(command, data):
    argv = data.draw(invocations(command))
    root = Path(tempfile.mkdtemp())
    try:
        out = root / "out"
        code, stdout, stderr = _run(argv + [f"--out={out}"])
        assert code in (0, 2, 3), (code, stderr)
        assert "Traceback" not in stderr
        if code == 0:
            assert stdout.startswith(f"{command}: ") and stderr == ""
            assert (out / "report.txt").is_file()
        else:
            assert stdout == ""
            assert stderr.startswith(
                {2: ("error: ", "usage: "), 3: ("budget exceeded: ",)}[code])
            assert not out.exists() or not any(out.iterdir())
    finally:
        shutil.rmtree(root)


VALID = {command: {name: valid for name, (valid, _) in pools.items()}
         for command, pools in POOLS.items()}


def _text(value) -> str:
    """An option value as --dump-config writes it."""
    return ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)


def _sections(ini: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    for line in ini.splitlines():
        if line.startswith("["):
            current = sections.setdefault(line[1:-1], {})
        elif line:
            key, _, value = line.partition("=")
            current[key] = value
    return sections


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@st.composite
def layers(draw, table, pools) -> tuple[dict, dict, dict]:
    """INI values and flag values for a drawn subset of the table's options
    each, and every option's expected value as dump text: flag > INI >
    default."""
    ini, flags, want = {}, {}, {}
    for name, conv, default, _ in table:
        pool = [v for v in pools[name] if _text(conv(v)) != _text(default)]
        want[name] = _text(default)
        for layer in (ini, flags):
            if draw(st.booleans()):
                layer[name] = draw(st.sampled_from(pool))
                want[name] = _text(conv(layer[name]))
    return ini, flags, want


def _write_ini(path: Path, sections: dict[str, dict[str, str]]) -> None:
    path.write_text("".join(
        f"[{section}]\n" + "".join(f"{k}={v}\n" for k, v in vals.items())
        for section, vals in sections.items()))


@pytest.mark.parametrize("command", list(POOLS))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_flags_beat_the_ini_which_beats_the_defaults(command, data):
    root = Path(tempfile.mkdtemp())
    try:
        outs = {"ini": str(root / "ini"), "flag": str(root / "flag")}
        run_ini, run_flags, run_want = data.draw(
            layers([o for o in RUN_OPTIONS if o[0] == "seed"],
                   {"seed": ["7", "", "50%"]}))
        # out is always given, so no run writes into the working directory.
        where = data.draw(st.sampled_from([("ini",), ("flag",), ("ini", "flag")]))
        if "ini" in where:
            run_ini["out"] = outs["ini"]
        if "flag" in where:
            run_flags["out"] = outs["flag"]
        run_want["out"] = outs[where[-1]]
        ini, flags, want = data.draw(layers(SECTIONS[command], VALID[command]))
        cfg = root / "cfg.ini"
        _write_ini(cfg, {"run": run_ini, command: ini})
        argv = ["--config", str(cfg), command,
                *(f"--{k}={v}" for k, v in {**run_flags, **flags}.items())]

        code, dumped, _ = _run(argv + ["--dump-config"])
        assert code == 0
        got = _sections(dumped)
        assert got["run"] == run_want and got[command] == want
        golden = _sections((GOLDEN / "dump-config.ini").read_text())
        assert {s: v for s, v in got.items() if s not in ("run", command)} \
            == {s: v for s, v in golden.items() if s not in ("run", command)}

        ref = root / "ref"
        every_flag = [command, f"--seed={run_want['seed']}", f"--out={ref}",
                      *(f"--{k}={v}" for k, v in want.items())]
        layered, flagged = _run(argv), _run(every_flag)
        assert layered == flagged
        if layered[0] == 0:
            assert _tree(Path(run_want["out"])) == _tree(ref)
    finally:
        shutil.rmtree(root)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_report_all_ignores_the_ini_sections(data):
    sections = {}
    for command, table in SECTIONS.items():
        if table:
            sections[command] = data.draw(layers(table, VALID[command]))[0]
    root = Path(tempfile.mkdtemp())
    try:
        _write_ini(root / "cfg.ini", sections)
        code, stdout, stderr = _run(["--config", str(root / "cfg.ini"),
                                     "report-all", f"--out={root / 'out'}"])
        assert (code, stdout, stderr) == (0, "report-all: 9 fixture reports\n", "")
        assert _tree(root / "out") == _tree(GOLDEN / "report-all")
    finally:
        shutil.rmtree(root)
