"""End-to-end command-line checks: exit codes, report tokens, config
precedence, and byte-level determinism of emitted files."""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit import cli, interval, setfam, shadowing, subshift
from chaoskit.budgets import ENV_OVERRIDE, cap
from chaoskit.cli import REPORT_ALL, SECTIONS, _resolve, main

GOLDEN = Path(__file__).parent / "golden"


def read(path):
    return path.read_text()


# ---------------------------------------------------------------------------
# Exit codes.

def test_no_subcommand_is_config_error(capsys):
    assert main([]) == 2
    assert "no subcommand" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


def test_script_exits_with_mains_code():
    # main returns every code, argparse's too; the script entry raises it.
    src = str(Path(cli.__file__).parents[1])
    run = subprocess.run([sys.executable, "-m", "chaoskit.cli"],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr.endswith("error: no subcommand given\n")


def test_bad_generator_exits_2(tmp_path, capsys):
    assert main(["classify-set", "--members", "nonsense(3)",
                 "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("members, message", [
    ("Evens", "unknown set generator 'Evens'"),
    ("multiples(0)", "multiples(k) needs k >= 1"),
])
def test_bad_generator_past_the_cap_exits_2(members, message, tmp_path,
                                            capsys):
    # The generator is checked before its horizon is charged, as a member
    # list is, so a misspelt name does not read as a budget breach.
    assert main(["classify-set", "--members", members, "--horizon", "2000000",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["classify-set", "--members", "evens", "--horizon", "2000000",
                 "--out", str(tmp_path)]) == 3
    assert "enum_nodes budget exceeded" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


BAD_PARAMETERS = [
    # The first nine are the bad configurations that perfbench runs.
    ["classify-set", "--gap", "0"],
    ["classify-set", "--tail-policy", "foo"],
    ["classify-set", "--horizon", "8", "--members", "3,9"],
    ["shadow", "--candidates", "1"],
    ["shadow", "--deltas", "0"],
    ["shadow", "--length", "1"],
    ["interval-devaney", "--margin", "1"],
    ["p-chaos", "--chain-nodes", "1"],
    ["spacing", "--word-len", "0"],   # an empty analysis: zero word pairs
    ["interval-devaney", "--cells", "0"],
    ["sturmian", "--word", "012"],
    ["sturmian", "--prefix-len", "0"],
    # burnin beyond the horizon that the section classifies
    ["classify-set", "--burnin", "300"],
    ["classify-set", "--horizon", "4"],
    ["spacing", "--n-max", "-1"],
    ["spacing", "--n-max", "2"],
    ["interval-devaney", "--steps", "0"],
    ["interval-devaney", "--steps", "-1"],
    ["shadow", "--length", "3", "--burnin", "4"],
    ["sturmian", "--prefix-len", "40", "--burnin", "64"],
    # x/0 on a Fraction option, rejected by argparse
    ["interval-devaney", "--delta", "1/0"],
    ["interval-devaney", "--margin", "1/0"],
    ["p-chaos", "--density-eps", "1/0"],
    ["interval-devaney", "--density-eps", "0"],
    ["p-chaos", "--density-eps", "0"],
    # no pseudo-orbit to trace: no trials and no challenge
    ["shadow", "--trials", "0"],
    ["shadow", "--trials", "-1"],
    ["p-chaos", "--trials", "0"],
    # survey gaps 2 * word-len - 1 + n-max at or past the horizon of P
    ["spacing", "--n-max", "123"],
    ["spacing", "--word-len", "1", "--n-max", "127"],
    ["spacing", "--p", "all", "--n-max", "200"],
    # zero or non-finite values that leave a verdict resting on no evidence
    ["spacing", "--k-max", "0"],
    ["sturmian", "--word-len", "0"],
    ["interval-devaney", "--density-steps", "0"],
    ["p-chaos", "--density-steps", "0"],
    ["interval-devaney", "--delta", "0"],
    ["p-chaos", "--chain-delta", "0"],
    ["shadow", "--eps", "0"],
    ["p-chaos", "--eps", "0"],
    ["shadow", "--deltas", "nan"],
    ["shadow", "--deltas", "inf"],
    ["shadow", "--eps", "nan"],
    ["interval-devaney", "--margin=-1/20"],   # cells reach past the domain
]


@pytest.mark.parametrize("argv", BAD_PARAMETERS, ids=" ".join)
def test_bad_parameter_exits_2(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    if err.startswith("usage: "):   # a value or a flag that argparse rejects
        assert (f"chaoskit {argv[0]}: error: argument {argv[1]}: " in err
                or f"chaoskit: error: unrecognized arguments: {argv[1]} " in err)
    else:
        assert err.startswith("error:")
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())   # rejected before any report


def test_budget_breach_exits_3(tmp_path, capsys):
    assert main(["spacing", "--word-len", "17", "--out", str(tmp_path)]) == 3
    assert "word_len budget exceeded: 17 > 16" in capsys.readouterr().err
    # The language search asks accepts for a word longer than 20 // 4.
    assert main(["sturmian", "--prefix-len", "20", "--word-len", "8",
                 "--out", str(tmp_path)]) == 3
    assert ("budget exceeded: word too long for the prefix"
            in capsys.readouterr().err)


def test_sturmian_prefix_cap_exits_3_before_any_work(tmp_path, capsys):
    n = cap("prefix_len") + 1
    assert main(["sturmian", "--prefix-len", str(n),
                 "--out", str(tmp_path)]) == 3
    assert (f"budget exceeded: prefix_len budget exceeded: {n} > {n - 1}"
            in capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


def test_grid_sizes_are_capped_before_any_work(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("survey ran past the build step")

    monkeypatch.setattr(interval, "devaney_report", refuse)
    monkeypatch.setattr(interval, "periodic_density_report", refuse)
    monkeypatch.setattr(shadowing, "fg_shadowing_probe", refuse)
    n = cap("enum_nodes") + 1
    p = cap("power") + 1
    # The density grid has ceil(width / eps) cells: S spans [0, 2], tent [0, 1].
    for argv, name, amount in (
            (["shadow", "--candidates", str(n)], "enum_nodes", n),
            # 1e-6 on [0, 1] needs 2^21 spacings of at most 5e-7.
            (["p-chaos", "--chain-delta", "1e-6"], "enum_nodes", 2 ** 21 + 1),
            (["interval-devaney", "--density-eps", "1/2000000"], "enum_nodes",
             4_000_000),
            (["p-chaos", "--density-eps", "1/2000000"], "enum_nodes", 2_000_000),
            (["interval-devaney", "--density-steps", str(p)], "power", p),
            (["p-chaos", "--density-steps", str(p)], "power", p)):
        assert main(argv + ["--out", str(tmp_path)]) == 3
        assert (f"{name} budget exceeded: {amount} > {cap(name)}"
                in capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


# Each survey checks its inputs before any work; the runner calls the same
# check inside its options block, so the survey itself never starts.
CHECKED_BEFORE_WORK = [
    (["spacing", "--n-max", "123"], [(subshift, "fs_transitivity_report")],
     "word length 3 and largest filler length 123 need gap 128, not decidable "
     "below horizon 128"),
    (["interval-devaney", "--steps", "4", "--burnin", "8"],
     [(interval, "devaney_report"), (interval, "periodic_density_report")],
     "burnin 8 exceeds horizon 5"),
    (["shadow", "--target", "foo"], [(shadowing, "fg_shadowing_probe")],
     "unknown target 'foo'"),
    (["shadow", "--length", "3", "--burnin", "4"],
     [(shadowing, "fg_shadowing_probe")], "burnin 4 exceeds horizon 3"),
    (["p-chaos", "--eps", "nan"], [(shadowing, "fg_shadowing_probe"),
                                   (interval, "periodic_density_report")],
     "eps must be positive and finite, got nan"),
    (["sturmian", "--prefix-len", "40", "--burnin", "64"],
     [(subshift, "language")], "burnin 64 exceeds horizon 38"),
    (["spacing", "--k-max", "0"], [(subshift, "fs_transitivity_report")],
     "modulus bound must be >= 1, got 0"),
    (["sturmian", "--word-len", "0"], [(setfam, "classify")],
     "word length must be >= 1, got 0"),
    (["interval-devaney", "--delta", "0"], [(interval, "devaney_report")],
     "delta must be positive, got 0"),
    (["p-chaos", "--chain-delta", "nan"],
     [(shadowing, "fg_shadowing_probe"), (interval, "periodic_density_report")],
     "chain delta must be positive and finite, got nan"),
]


@pytest.mark.parametrize("argv, surveys, message", CHECKED_BEFORE_WORK,
                         ids=[" ".join(argv) for argv, *_ in CHECKED_BEFORE_WORK])
def test_survey_inputs_are_checked_before_any_work(argv, surveys, message,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("survey ran past the build step")

    for module, name in surveys:
        monkeypatch.setattr(module, name, refuse)
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_survey_cells_are_capped_before_any_work(tmp_path, monkeypatch,
                                                 capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("survey ran past the build step")

    monkeypatch.setattr(interval, "devaney_report", refuse)
    assert main(["interval-devaney", "--cells", "1025", "--margin", "0",
                 "--out", str(tmp_path)]) == 3
    assert ("enum_nodes budget exceeded: 1050625 > 1048576"
            in capsys.readouterr().err)
    for cells in ("0", "-1"):
        assert main(["interval-devaney", "--cells", cells,
                     "--out", str(tmp_path)]) == 2
        assert (capsys.readouterr().err
                == f"error: cells must be >= 1, got {cells}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("source", ["generator", "file", "members"])
def test_window_horizon_is_capped_before_any_set(source, tmp_path,
                                                  monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a set was built past the cap")

    for name in ("WindowSet", "full_window", "window_set"):
        monkeypatch.setattr(setfam, name, refuse)
    n = cap("enum_nodes") + 1
    members = {"generator": "all", "members": "3,9"}.get(source)
    if source == "file":
        set_file = tmp_path / "set.txt"
        set_file.write_text(f"horizon={n}\n3,9\n")
        members = f"@{set_file}"
    out = tmp_path / "out"
    assert main(["classify-set", "--horizon", str(n), "--members", members,
                 "--out", str(out)]) == 3
    assert (f"enum_nodes budget exceeded: {n} > {n - 1}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", list(SECTIONS))
def test_bad_budget_override_exits_2(command, tmp_path, monkeypatch, capsys):
    for raw in ("abc", "nan", "inf", "1e400", "-1", "0"):
        monkeypatch.setenv(ENV_OVERRIDE, raw)
        assert main([command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {ENV_OVERRIDE} must be a positive finite "
                       f"float, got {raw!r}\n")
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# classify-set.

def test_classify_set_reads_one_member_per_line(tmp_path, capsys):
    set_file = tmp_path / "set.txt"
    set_file.write_text("horizon=10\n1\n2\n3\n")
    out = tmp_path / "out"
    assert main(["classify-set", "--members", f"@{set_file}",
                 "--out", str(out)]) == 0
    assert "horizon=10 size=3" in read(out / "report.txt")
    set_file.write_text("horizon=10\nevens\n1\n")
    assert main(["classify-set", "--members", f"@{set_file}",
                 "--out", str(tmp_path / "bad")]) == 2
    assert "stray line '1' after generator 'evens'" in capsys.readouterr().err


def test_classify_default_report(tmp_path, capsys):
    assert main(["classify-set", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(
        "classify-set: syndetic=true thick=true cofinite=false")
    rep = read(tmp_path / "report.txt")
    assert "horizon=256 size=248" in rep
    assert "max_gap=2 longest_block=127 cofinite_head=129" in rep
    assert "lower_density=5/9 upper_density=31/32" in rep
    assert "families: syndetic=true thick=true cofinite=false" in rep
    assert "derived: thickly_syndetic=false piecewise_syndetic=true" in rep
    lines = read(tmp_path / "set.csv").splitlines()
    assert len(lines) == 257
    assert lines[0] == "n,member"
    assert lines[1] == "0,0" and lines[2] == "1,1" and lines[3] == "2,0"


def test_classify_member_list(tmp_path):
    assert main(["classify-set", "--horizon", "8", "--members", "1,3,5",
                 "--out", str(tmp_path)]) == 0
    assert "size=3" in read(tmp_path / "report.txt")


@pytest.mark.parametrize("spec", ["1,,2", "+1,2"])
def test_inline_member_list_reads_as_a_file_body(spec, tmp_path, capsys):
    set_file = tmp_path / "set.txt"
    set_file.write_text(f"horizon=8\n{spec}\n")
    for source, out in ((spec, "inline"), (f"@{set_file}", "file")):
        assert main(["classify-set", "--horizon", "8", "--members", source,
                     "--out", str(tmp_path / out)]) == 0
        assert "horizon=8 size=2" in read(tmp_path / out / "report.txt")
    capsys.readouterr()
    assert (read(tmp_path / "inline" / "set.csv")
            == read(tmp_path / "file" / "set.csv")
            == "n,member\n0,0\n1,1\n2,1\n" + "".join(f"{n},0\n" for n in range(3, 8)))


@pytest.mark.parametrize("spec", ["Evens", "multiples (3)"])
def test_inline_generator_reads_as_a_file_body(spec, tmp_path, capsys):
    # One rule decides "generator or member list" for both sources.
    set_file = tmp_path / "set.txt"
    set_file.write_text(f"horizon=8\n{spec}\n")
    for source in (spec, f"@{set_file}"):
        assert main(["classify-set", "--horizon", "8", "--members", source,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: unknown set generator {spec!r}\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# spacing and sturmian.

def test_spacing_default_report(tmp_path, capsys):
    assert main(["spacing", "--out", str(tmp_path)]) == 0
    assert ("spacing: all_syndetic=true all_thick=false dense_periodic=pass"
            in capsys.readouterr().out)
    rep = read(tmp_path / "report.txt")
    assert "p_set: syndetic=true thick=false" in rep
    assert "dense_periodic: passed=true" in rep
    header = read(tmp_path / "pairs.csv").splitlines()[0]
    assert header.startswith("u,v,members,max_gap")


def test_spacing_witness_line(tmp_path):
    assert main(["spacing", "--p", "complement(powers(2))",
                 "--witness", "1,4,1", "--out", str(tmp_path)]) == 0
    assert ("witness: word=100001 k=4 member=true block_start=false"
            in read(tmp_path / "report.txt"))
    assert main(["spacing", "--witness", "1,x,1", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("triple, word", [("1,69,11", "1" + "0" * 69 + "11"),
                                          ("11,69,1", "11" + "0" * 69 + "1")])
def test_spacing_witness_with_undecidable_gap_is_decided(triple, word, tmp_path):
    # Distance 1 is not in the evens, so neither order needs gap 70 or 71,
    # which lie past the horizon.
    assert main(["spacing", "--p", "evens", "--horizon", "64", "--n-max", "40",
                 "--witness", triple, "--out", str(tmp_path)]) == 0
    assert (f"witness: word={word} k=69 member=false block_start=false"
            in read(tmp_path / "report.txt"))


def test_spacing_witness_checked_before_survey(tmp_path, monkeypatch, capsys):
    def survey(*args):
        raise AssertionError("survey ran before the witness was checked")

    monkeypatch.setattr(subshift, "fs_transitivity_report", survey)
    assert main(["spacing", "--witness", "1,x,1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad witness triple")
    assert not any(tmp_path.iterdir())


def test_sturmian_report(tmp_path):
    assert main(["sturmian", "--prefix-len", "2000",
                 "--out", str(tmp_path)]) == 0
    rep = read(tmp_path / "report.txt")
    assert "complexity_matches_n_plus_1=true" in rep
    assert "word=010" in rep and "syndetic=true" in rep
    factors = read(tmp_path / "factors.csv").splitlines()
    assert factors[0] == "n,count" and len(factors) == 9
    assert factors[1] == "1,2" and factors[8] == "8,9"


def test_sturmian_rejects_empty_word(tmp_path):
    assert main(["sturmian", "--word", "-", "--out", str(tmp_path)]) == 2


def test_sturmian_word_checked_before_survey(tmp_path, monkeypatch, capsys):
    def survey(*args):
        raise AssertionError("survey ran before the word was checked")

    monkeypatch.setattr(subshift, "language", survey)
    assert main(["sturmian", "--word", "0000", "--out", str(tmp_path)]) == 2
    assert (capsys.readouterr().err
            == "error: word 0000 does not occur in the prefix\n")
    assert main(["sturmian", "--prefix-len", "40", "--word", "01001010010",
                 "--out", str(tmp_path)]) == 3
    assert "word too long for the prefix" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# interval-devaney.

def test_interval_half_swap_report(tmp_path, capsys):
    assert main(["interval-devaney", "--out", str(tmp_path)]) == 0
    assert "Fs=pass Ft=fail Fts=fail Fcf=fail" in capsys.readouterr().out
    rep = read(tmp_path / "report.txt")
    assert "fixed_points=0 segments=-" in rep
    assert "density: covered=1 cells=32 period_reached=10" in rep
    for name in ("sensitivity.csv", "transitivity.csv", "density.csv"):
        assert (tmp_path / name).exists()


def test_interval_map_from_file(tmp_path):
    map_file = tmp_path / "copy_of_tent.txt"
    map_file.write_text("domain=0,1\n0:0\n1/2:1\n1:0\n")
    assert main(["interval-devaney", "--map", f"@{map_file}",
                 "--delta", "1/4", "--density-eps", "1/64",
                 "--out", str(tmp_path / "out")]) == 0
    rep = read(tmp_path / "out" / "report.txt")
    assert "interval map survey: copy_of_tent" in rep
    assert "families: Fs=pass Ft=pass Fts=pass Fcf=pass" in rep


@pytest.mark.parametrize("text, bad_line", [
    ("domain=0,1\n0:0\n1/0:1\n1:0\n", "bad breakpoint line '1/0:1'"),
    ("domain=0,1\n0:0\n1/2:1/0\n1:0\n", "bad breakpoint line '1/2:1/0'"),
    ("domain=0,1/0\n0:0\n1:0\n", "bad domain line 'domain=0,1/0'"),
])
def test_interval_map_file_zero_denominator(tmp_path, capsys, text, bad_line):
    map_file = tmp_path / "zero.txt"
    map_file.write_text(text)
    assert main(["interval-devaney", "--map", f"@{map_file}",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.strip() == f"error: {bad_line}"


def test_interval_missing_map_file(tmp_path):
    assert main(["interval-devaney", "--map", "@/no/such/file",
                 "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# p-chaos.

def test_pchaos_routes_every_option(tmp_path, monkeypatch):
    probes = []
    original = shadowing.fg_shadowing_probe
    monkeypatch.setattr(shadowing, "fg_shadowing_probe",
                        lambda *a, **k: probes.append(original(*a, **k))
                        or probes[-1])
    assert main(["p-chaos", "--chain-delta", "0.05", "--density-eps", "1/16",
                 "--candidates", "2001", "--trials", "2",
                 "--out", str(tmp_path)]) == 0
    rep = read(tmp_path / "report.txt")
    assert " cells=16 " in rep and " epsilon=1/16\n" in rep
    assert "chain graph (65 nodes, delta=0.05)" in rep
    assert [p.target for p in probes] == ["full", "piecewise_syndetic"]
    for probe, name in zip(probes, ("probe.csv", "aux_probe.csv")):
        assert (probe.n_candidates, probe.trials) == (2001, 2)
        # Two trials at each of the three default deltas; tent gets no
        # challenge.
        assert len(read(tmp_path / name).splitlines()) == 1 + 2 * 3


def test_pchaos_sizes_its_chain_grid_from_delta(tmp_path, capsys):
    # On 129 nodes the spacing 1/128 exceeds this delta, and tent reads
    # chain_mixing=false.
    assert main(["p-chaos", "--map", "tent", "--chain-delta", "0.001",
                 "--out", str(tmp_path)]) == 0
    assert "chain_mixing=true" in capsys.readouterr().out
    assert ("chain graph (2049 nodes, delta=0.001): transitive=true mixing=true\n"
            in read(tmp_path / "report.txt"))


# ---------------------------------------------------------------------------
# Config file handling.

def test_ini_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[run]\nout=%s\n\n[classify-set]\nhorizon=16\n"
                   "members=evens\n" % (tmp_path / "from_ini"))
    assert main(["--config", str(cfg), "classify-set"]) == 0
    assert "horizon=16 size=8" in read(tmp_path / "from_ini" / "report.txt")
    # A flag on the command line beats the same option in the INI file.
    assert main(["--config", str(cfg), "classify-set", "--horizon", "32",
                 "--out", str(tmp_path / "flag")]) == 0
    assert "horizon=32" in read(tmp_path / "flag" / "report.txt")
    capsys.readouterr()


def test_bad_ini_section(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[mystery]\nx=1\n")
    assert main(["--config", str(cfg), "classify-set"]) == 2
    cfg.write_text("[classify-set]\nwrong-key=1\n")
    assert main(["--config", str(cfg), "classify-set"]) == 2
    cfg.write_text("[interval-devaney]\ndelta=1/0\n")
    assert main(["--config", str(cfg), "interval-devaney"]) == 2


@pytest.mark.parametrize("text", ["[DEFAULT]\nseed=7\n",
                                  "[DEFAULT]\nseed=7\n[classify-set]\nhorizon=64\n"])
def test_ini_default_section_is_unknown(tmp_path, capsys, text):
    # configparser's [DEFAULT] is no chaoskit section: alone it must not be
    # dropped without a word, and beside another section its keys must not
    # be charged to that section.
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--dump-config"]) == 2
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err


def test_dump_config_round_trip(tmp_path, capsys):
    assert main(["--dump-config"]) == 0
    first = capsys.readouterr().out
    assert first == (GOLDEN / "dump-config.ini").read_text()
    cfg = tmp_path / "dumped.ini"
    cfg.write_text(first)
    assert main(["--config", str(cfg), "--dump-config"]) == 0
    assert capsys.readouterr().out == first


def _ini_sections(text):
    return {block.split("\n", 1)[0]: block
            for block in text.strip("\n").split("\n\n")}


def test_dump_config_keeps_subcommand_flags(tmp_path, capsys):
    argv = ["shadow", "--trials", "3", "--candidates", "101", "--seed", "7"]
    assert main(argv + ["--dump-config"]) == 0
    dumped = capsys.readouterr().out
    sections = _ini_sections(dumped)
    assert sections["[run]"] == "[run]\nseed=7\nout=."
    shadow = sections["[shadow]"].splitlines()
    assert "trials=3" in shadow and "candidates=101" in shadow
    # The flags of one subcommand leave every other section at its default.
    golden = _ini_sections((GOLDEN / "dump-config.ini").read_text())
    assert sections.keys() == golden.keys()
    for name in sections.keys() - {"[run]", "[shadow]"}:
        assert sections[name] == golden[name]
    cfg = tmp_path / "dumped.ini"
    cfg.write_text(dumped)
    assert main(["--config", str(cfg), "shadow", "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped
    # Replaying the dump runs the configuration that the flags ran.
    assert main(argv + ["--out", str(tmp_path / "flags")]) == 0
    assert main(["--config", str(cfg), "shadow",
                 "--out", str(tmp_path / "replay")]) == 0
    capsys.readouterr()
    for name in ("report.txt", "probe.csv"):
        assert ((tmp_path / "flags" / name).read_bytes()
                == (tmp_path / "replay" / name).read_bytes())
    assert "trials=3" in read(tmp_path / "replay" / "report.txt")


def test_empty_run_option_is_honoured(tmp_path, capsys):
    """An empty --seed is a value, as an empty INI seed= is: it beats the
    INI and the built-in default, and the run uses it."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[run]\nseed=7\n")
    for argv in (["--seed", ""], ["--config", str(cfg), "--seed", ""]):
        assert main(argv + ["--dump-config"]) == 0
        assert _ini_sections(capsys.readouterr().out)["[run]"] \
            == "[run]\nseed=\nout=."
    cfg.write_text("[run]\nseed=\n")
    runs = {"flag": ["--seed", ""], "ini": ["--config", str(cfg)], "default": []}
    for out, argv in runs.items():
        assert main(argv + ["shadow", "--trials", "3", "--out",
                            str(tmp_path / out)]) == 0
    capsys.readouterr()
    probe = {out: read(tmp_path / out / "probe.csv") for out in runs}
    assert probe["flag"] == probe["ini"] != probe["default"]


def test_ini_values_are_read_raw(tmp_path, capsys):
    """A % in an INI value is literal, as --dump-config writes it."""
    cfg = tmp_path / "cfg.ini"
    missing = tmp_path / "50%.txt"
    cfg.write_text(f"[classify-set]\nmembers=@{missing}\n")
    assert main(["--config", str(cfg), "classify-set",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read set file: [Errno 2] No such file or directory: "
        f"'{missing}'\n")
    assert not (tmp_path / "out").exists()
    cfg.write_text("[run]\nseed=a%(b)s\n")
    assert main(["--config", str(cfg), "--dump-config"]) == 0
    assert (_ini_sections(capsys.readouterr().out)["[run]"]
            == "[run]\nseed=a%(b)s\nout=.")
    # A dump with a % in it reads back as itself.
    assert main(["--seed", "50%", "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert "\nseed=50%\n" in dumped
    cfg.write_text(dumped)
    assert main(["--config", str(cfg), "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped


def test_undecodable_input_files_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe[run]\n")
    decode = "'utf-8' codec can't decode byte 0xff in position 0"
    for argv, message in (
            (["--config", str(bad), "classify-set"], f"cannot read config {bad}"),
            (["classify-set", "--members", f"@{bad}"], "cannot read set file"),
            (["spacing", "--p", f"@{bad}"], "cannot read set file"),
            (["interval-devaney", "--map", f"@{bad}"], "cannot read map file")):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}: {decode}")
    assert not (tmp_path / "out").exists()


def test_flags_are_parsed_before_the_ini_is_read(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.ini"), "classify-set",
                 "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: chaoskit classify-set")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[mystery]\nx=1\n")
    assert main(["--config", str(cfg), "classify-set", "--bogus"]) == 2
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: --bogus" in err
    assert "mystery" not in err
    assert main(["--config", str(cfg), "classify-set"]) == 2
    assert capsys.readouterr().err == "error: unknown config section [mystery]\n"
    # An empty --config names no file.
    assert main(["--config", "", "--dump-config"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "dump-config.ini").read_text()


def test_value_starting_with_a_dash_needs_the_equals_form(tmp_path, capsys):
    assert main(["spacing", "--witness=-,2,1", "--out", str(tmp_path)]) == 0
    assert ("witness: word=001 k=2 member=true block_start=true"
            in read(tmp_path / "report.txt"))
    capsys.readouterr()
    assert main(["spacing", "--witness", "-,2,1",
                 "--out", str(tmp_path / "b")]) == 2
    assert ("chaoskit spacing: error: argument --witness: expected one argument"
            in capsys.readouterr().err)
    assert not (tmp_path / "b").exists()


# ---------------------------------------------------------------------------
# Determinism of emitted files.

def test_shadow_outputs_are_reproducible(tmp_path, capsys):
    args = ["shadow", "--trials", "3", "--deltas", "0.01,0.0001"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert "shadow: probe=pass" in capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("report.txt", "probe.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()
    assert "verdict=pass delta_pass=0.01" in read(tmp_path / "a" / "report.txt")


def test_report_all_summary(tmp_path, capsys, golden_diff):
    assert main(["report-all", "--out", str(tmp_path)]) == 0
    assert "report-all: 9 fixture reports" in capsys.readouterr().out
    summary = read(tmp_path / "summary.txt")
    assert main(["report-all", "--out", str(tmp_path / "again")]) == 0
    capsys.readouterr()
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file() and "again" not in path.parts:
            twin = tmp_path / "again" / path.relative_to(tmp_path)
            assert twin.read_bytes() == path.read_bytes(), path.name
    assert golden_diff(tmp_path / "again", "report-all") == []
    assert ("classify_nonpowers: syndetic=true thick=true cofinite=false"
            in summary)
    assert ("spacing_evens: all_syndetic=true all_thick=false "
            "dense_periodic=pass" in summary)
    assert ("spacing_nonpowers: all_syndetic=false all_thick=true "
            "dense_periodic=pass" in summary)
    assert "sturmian_golden: complexity=n+1 word=010 syndetic=true" in summary
    assert "interval_S: Fs=pass Ft=fail Fts=fail Fcf=fail" in summary
    assert "interval_tent: Fs=pass Ft=pass Fts=pass Fcf=pass" in summary
    assert ("interval_example211: Fs=fail Ft=fail Fts=fail Fcf=fail"
            in summary)
    assert "pchaos_tent: probe=pass evidence=true chain_mixing=true" in summary
    assert "shadow_example211: probe=falsified" in summary
    for sub in ("classify_nonpowers", "spacing_evens", "spacing_nonpowers",
                "sturmian_golden", "interval_S", "interval_tent",
                "interval_example211", "pchaos_tent", "shadow_example211"):
        assert (tmp_path / sub / "report.txt").exists()


def test_report_all_overrides_change_their_section():
    """Each report-all override differs from what its section resolves to
    without it, so no default is written a second time."""
    for sub, section, overrides in REPORT_ALL:
        defaults = _resolve(SECTIONS[section], {}, {})
        for dest, value in overrides.items():
            assert value != defaults[dest], (sub, dest)


# ---------------------------------------------------------------------------
# The parser builds only the subcommands that argv names.  The parser that
# built every subcommand's options on every call is kept as the oracle of
# help, usage and error text.

def full_parser(argv=()):
    """The parser with every subcommand's options, whatever argv says."""
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="INI file with option defaults")
    for name, _, _, help_ in cli.RUN_OPTIONS:
        common.add_argument(f"--{name}", help=help_)
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective configuration and exit")
    parser = argparse.ArgumentParser(
        prog="chaoskit", parents=[common],
        description="family-indexed chaos surveys for subshifts and interval maps")
    subs = parser.add_subparsers(dest="command")
    for section, table in SECTIONS.items():
        sub = subs.add_parser(section, parents=[common],
                              argument_default=argparse.SUPPRESS)
        for name, conv, _, help_ in table:
            sub.add_argument(f"--{name}", type=conv, help=help_)
    return parser


def outcome(argv):
    """(exit code, stdout, stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def matches_full_parser(argv):
    """The outcome with the per-call parser and with the oracle parser."""
    got = outcome(argv)
    real, cli._build_parser = cli._build_parser, full_parser
    try:
        want = outcome(argv)
    finally:
        cli._build_parser = real
    assert got == want, argv
    return got


PARSER_CASES = [
    ["--help"], ["-h"],
    *([section, "--help"] for section in SECTIONS),
    [], ["bogus"], ["spac"],
    # A global flag whose value names a subcommand.
    ["--out", "spacing", "classify-set", "--horizon", "64"],
    ["--seed", "7", "classify-set", "--out", "o", "--horizon", "64"],
    ["--out", "o", "classify-set", "--seed", "7", "--hor", "64", "--bogus"],
    ["sturmian", "--out", "o", "--seed"],
    ["interval-devaney", "--delta", "1/0"],
    ["--dump-config"],
    ["spacing", "--horizon", "64", "--dump-config"],
    ["--dump-config", "--seed", "9", "p-chaos", "--chain-delta", "0.05"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_help_usage_and_errors_match_the_full_parser(argv, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, out, err = matches_full_parser(argv)
    assert out or err


TOKENS = [*SECTIONS, "spac", "report", "--out", "--seed", "--config",
          "--dump-config", "--dump", "--horizon", "--hor", "--p", "--map",
          "--cells", "--delta", "-h", "--", "64", "S", "1/0", "x", "-"]


@given(st.lists(st.sampled_from(TOKENS), max_size=6),
       st.sampled_from(["--help", "--no-such-flag"]))
@settings(max_examples=150, deadline=None)
def test_drawn_argv_matches_the_full_parser(tokens, last):
    """Drawn tokens end in --help or in a flag no parser knows, so every
    call stops at the parse and no survey runs."""
    matches_full_parser(tokens + [last])


def test_a_call_builds_only_its_own_subcommand(tmp_path, monkeypatch):
    calls = []
    add = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda self, *a, **k: calls.append(a) or add(self, *a, **k))
    assert outcome(["shadow", "--deltas", "0", "--out", str(tmp_path)])[0] == 2
    assert 0 < len(calls) <= 30
    calls.clear()
    full_parser()
    assert len(calls) == 75
