"""Command-line surface: golden outputs, exit codes, config handling, and
byte stability."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA, GOLDEN, run_cli, stderr_diag
from shapeinv import cli, spectra


def read_golden(name):
    return (GOLDEN / name).read_text()


# ---------------------------------------------------------------------------
# families

def test_families_golden():
    code, out, err = run_cli("families")
    assert code == 0
    assert out == read_golden("families.txt")
    assert err == ""


def test_families_json():
    code, out, _ = run_cli("families", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    assert {r["name"] for r in rows} >= {"TypeA", "TypeD", "HyperbolicTanh"}
    assert set(rows[0]) == {"name", "kind", "sign", "free_slots"}


def test_families_single_row():
    code, out, _ = run_cli("families", "TypeA")
    assert code == 0
    assert "TypeA" in out
    assert "TypeD" not in out


def test_families_unknown_preset():
    code, out, err = run_cli("families", "TypeQ")
    assert code == 1
    diag = stderr_diag(err)
    assert diag["error"] == "unknown-preset"
    assert "TypeA" in diag["valid"]


# ---------------------------------------------------------------------------
# usage: help texts and argument errors, pinned byte for byte

def _main_in_process(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_usage_outputs_are_pinned(monkeypatch, capsys):
    # --help for the program and each subcommand, no arguments, an unknown
    # subcommand and unknown or invalid options, at a fixed 80 columns;
    # the parser builds only the invoked subcommand's options
    monkeypatch.setenv("COLUMNS", "80")
    cases = json.loads(read_golden("cli_usage.json"))
    assert len(cases) == 11
    for case in cases:
        got = _main_in_process(case["argv"], capsys)
        assert got == (case["exit"], case["stdout"], case["stderr"]), case["argv"]


def test_parser_builds_only_the_invoked_subcommand():
    def options(parser, name):
        sub = next(a for a in parser._subparsers._group_actions
                   if a.dest == "command").choices[name]
        return {opt for a in sub._actions for opt in a.option_strings}

    lazy = cli.build_parser(["spectrum", "--mode", "both"])
    assert "--mode" in options(lazy, "spectrum")
    assert options(lazy, "eval") == {"-h", "--help"}
    full = cli.build_parser()
    assert "--family" in options(full, "eval")
    assert options(full, "spectrum") == options(lazy, "spectrum")


# ---------------------------------------------------------------------------
# eval

def test_eval_golden_stdout():
    code, out, err = run_cli("eval", "--family", "TypeD:b=1",
                             "--grid=-5,5,11")
    assert code == 0
    assert out == read_golden("eval_typed.csv")


def test_eval_out_file(tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli("eval", "--family", "TypeD:b=1", "--grid=-5,5,11",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == read_golden("eval_typed.csv")


def test_eval_json_rows():
    code, out, _ = run_cli("eval", "--family", "TypeD:b=1", "--grid=-5,5,11",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["x", "W", "V", "Vtilde"]
    assert len(doc["rows"]) == 11
    assert doc["rows"][0] == [-5.0, -5.0, 24.0, 26.0]
    assert doc["rows"][5] == [0.0, 0.0, -1.0, 1.0]


def test_eval_pole_exit_2():
    code, out, err = run_cli("eval", "--family", "TypeA", "--m", "2",
                             "--grid=-0.5,0.5,11")
    assert code == 2
    diag = stderr_diag(err)
    assert diag["error"] == "pole"
    assert any(abs(loc) < 1e-12 for loc in diag["locations"])


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_analytic_golden():
    code, out, _ = run_cli("spectrum", "--family", "TypeA", "--m", "2",
                           "--kmax", "2", "--format", "json")
    assert code == 0
    assert out == read_golden("spectrum_typea.json")


def test_spectrum_both_oscillator_config():
    code, out, _ = run_cli("spectrum", "--config",
                           str(DATA / "oscillator.json"), "--mode", "both",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [lv["E"] for lv in doc["analytic"]["levels"]] == [0.0, 2.0, 4.0, 6.0]
    comp = doc["comparison"]
    assert comp["within_tol"] is True
    assert comp["max_abs_diff"] < 2e-3
    for row in comp["levels"]:
        assert row["richardson"] is not None


def _shift_draws():
    """The shifts d of the metamorphic test: the ends of the double range,
    one of each sign, and seeded draws log-uniform in |d|."""
    rng = np.random.default_rng(30)
    draws = [float(sign * 10.0 ** rng.uniform(-3.0, 308.0))
             for sign in (-1.0, 1.0, 1.0)]
    return [1e6, -1e6, 1e12, 1e300, 1e307, -1e307, 1.7e308] + draws


@pytest.mark.parametrize("name", ["oscillator", "trig", "hyperbolic"])
def test_spectrum_both_is_d_invariant_up_to_the_shift(capsys, name):
    # d shifts H by a constant: the FD oracle solves at d = 0 and adds d to
    # each level, so the comparison is the d = 0 one bit for bit, and every
    # level is fl(E0 + d), however large d is next to the levels
    def run(d):
        code = cli.main(["spectrum", "--config", str(DATA / f"{name}.json"),
                         "--mode", "both", "--d", repr(d)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        return _strict_json(out)

    base = run(0.0)
    for d in _shift_draws():
        doc = run(d)
        assert doc["d"] == d and doc["comparison"] == {
            **base["comparison"],
            "levels": [{**row, "E_analytic": row["E_analytic"] + d,
                        "E_numeric": row["E_numeric"] + d}
                       for row in base["comparison"]["levels"]]}, d
        for block in ("analytic", "numeric"):
            assert [lv["E"] for lv in doc[block]["levels"]] == [
                lv["E"] + d for lv in base[block]["levels"]], (block, d)
        assert doc["numeric"]["grid"] == base["numeric"]["grid"]


def _t_draws():
    """The constants t of the metamorphic test: up to 1e300, where L(m)
    itself keeps no digit of the levels, and seeded draws log-uniform in |t|
    of either sign."""
    rng = np.random.default_rng(31)
    draws = [float(sign * 10.0 ** rng.uniform(0.0, 300.0))
             for sign in (-1.0, 1.0, 1.0)]
    return [1e4, 1e12, 1e15, 1e17, 1e300] + draws


@pytest.mark.parametrize("argv", [
    ["--family", "TypeA:c=0.9,t={t}", "--m", "2.3", "--kmax", "2"],
    ["--config", str(DATA / "hyperbolic.json"), "--family",
     "HyperbolicTanh:t={t}"],
    ["--config", str(DATA / "oscillator.json"), "--family", "TypeD:b=1,t={t}"],
    ["--family", "TypeF:q=-4,t={t}", "--m", "1.5", "--kmax", "2",
     "--grid=0.01,40,4001"],
], ids=["TypeA", "hyperbolic", "oscillator", "TypeF"])
def test_spectrum_both_does_not_depend_on_t(capsys, argv):
    # t adds a constant to L(m), which cancels in every spacing
    # R(m) = L(m) - L(m + 1): the FD oracle never sees it, and the closed
    # form must not either. The whole output is the t = 0 one, byte for byte
    def run(t):
        code = cli.main(["spectrum", "--mode", "both"]
                        + [arg.format(t=repr(t)) for arg in argv])
        out, err = capsys.readouterr()
        return code, out, err

    base = run(0.0)
    assert base[0] == 0 and base[2] == ""
    assert _strict_json(base[1])["comparison"]["within_tol"] is True
    for t in _t_draws():
        assert run(t) == base, t


def test_spectrum_tolerance_exit_3():
    code, out, err = run_cli("spectrum", "--config",
                             str(DATA / "oscillator.json"), "--mode", "both",
                             "--tol", "1e-9", "--format", "json")
    assert code == 3
    assert json.loads(out)["comparison"]["within_tol"] is False
    assert stderr_diag(err)["error"] == "tolerance"


def test_spectrum_forced_direction_exit_4():
    code, _, err = run_cli("spectrum", "--family", "TypeA", "--m", "2",
                           "--direction", "increasing", "--format", "json")
    assert code == 4
    assert stderr_diag(err)["error"] == "non-normalizable"


def test_spectrum_numeric_probe_exit_4():
    code, _, err = run_cli("spectrum", "--family", "TypeA", "--m", "2",
                           "--direction", "increasing", "--mode", "numeric")
    assert code == 4
    diag = stderr_diag(err)
    assert diag["error"] == "non-normalizable"


def test_numeric_precheck_calls_check_normalizable_once(monkeypatch, capsys):
    # the benchmark's traced fd_crosscheck expects a span for this call
    calls = []
    real = spectra.check_normalizable

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectra, "check_normalizable", counting)
    code = cli.main(["spectrum", "--config", str(DATA / "oscillator.json"),
                     "--mode", "numeric"])
    assert code == 0 and json.loads(capsys.readouterr().out)["numeric"]
    assert len(calls) == 1


def test_spectrum_builds_no_eigenvector():
    # spectrum prints energies and error bars only: a fresh process counts
    # every eigenvector call, and never loads numpy.random either
    code = ("import sys; from shapeinv.cli import main; "
            "from shapeinv.numerics import TridiagonalSym; calls = []; "
            "real = TridiagonalSym.eigenvector; "
            "TridiagonalSym.eigenvector = "
            "lambda *a, **kw: calls.append(1) or real(*a, **kw); "
            f"rc = main(['spectrum', '--config', {str(DATA / 'trig.json')!r}, "
            "'--mode', 'both', '--format', 'json']); "
            "assert rc == 0, rc; "
            "assert calls == [], len(calls); "
            "assert 'numpy.random' not in sys.modules")
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["comparison"]["within_tol"] is True


def test_spectrum_truncation_reported():
    code, out, _ = run_cli("spectrum", "--family", "HyperbolicTanh", "--m",
                           "3", "--kmax", "5", "--format", "json")
    assert code == 0
    block = json.loads(out)["analytic"]
    assert [lv["E"] for lv in block["levels"]] == [0.0, 5.0, 8.0]
    assert block["truncated"] is True
    assert "truncation_reason" in block


# ---------------------------------------------------------------------------
# verify

def test_verify_riccati_passes():
    code, out, _ = run_cli("verify", "--suite", "riccati", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert {c["name"] for c in doc["checks"]} == {
        "riccati-residual", "companion-residual", "companion-derivative",
        "superposition-endpoints", "superposition-residual",
        "block-derivative-identities"}


def test_verify_shape_passes():
    code, out, _ = run_cli("verify", "--suite", "shape", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "shape-invariance", "coefficient-records", "functional-equation",
        "shape-invariance-exact"]


def test_verify_coarse_ladder_fails():
    code, out, err = run_cli("verify", "--suite", "ladder", "--grid=-8,8,64",
                             "--format", "json")
    assert code == 5
    doc = json.loads(out)
    assert doc["passed"] is False
    diag = stderr_diag(err)
    assert diag["error"] == "verify-failed"
    assert len(diag["checks"]) >= 1
    # the ladder states refuse the coarse grid; the check reports it
    overlap = [c for c in doc["checks"] if c["name"] == "state-overlap"]
    assert overlap[0]["max_residual"] is None
    assert overlap[0]["detail"].startswith("grid too coarse")
    assert "state-overlap" in diag["checks"]


def test_verify_unknown_suite():
    code, _, _ = run_cli("verify", "--suite", "nonsense")
    assert code == 1


# ---------------------------------------------------------------------------
# wavefunction

def test_wavefunction_ground_json():
    code, out, _ = run_cli("wavefunction", "--family", "TypeD:b=1", "--m",
                           "1", "--k", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["nodes"] == 0
    assert doc["energy"] == 0.0
    assert doc["norm"] == pytest.approx(1.0, abs=1e-9)
    assert doc["direction"] == "increasing"
    assert len(doc["x"]) == len(doc["psi"]) == 2001
    peak = max(abs(v) for v in doc["psi"])
    assert peak == pytest.approx(math.pi ** -0.25, abs=1e-6)


def test_wavefunction_csv_needs_out():
    code, _, err = run_cli("wavefunction", "--family", "TypeD:b=1", "--m",
                           "1", "--k", "0")
    assert code == 1
    assert stderr_diag(err)["error"] == "usage"


def test_wavefunction_csv_sidecar(tmp_path):
    target = tmp_path / "psi.csv"
    code, _, _ = run_cli("wavefunction", "--family", "TypeA", "--m", "2",
                         "--k", "1", "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "x,psi"
    assert len(lines) == 2002
    meta = json.loads((tmp_path / "psi.csv.json").read_text())
    assert meta["energy"] == 12.0
    assert meta["nodes"] == 1
    assert meta["generated_by"].startswith("shapeinv ")


def test_wavefunction_nodes_count_the_interior():
    # both end samples of this state hold wall round-off, opposite in sign
    # to their neighbours
    code, out, _ = run_cli("wavefunction", "--family", "TypeA", "--m", "2",
                           "--grid=0.001,3.140592653589793,2001", "--k", "4",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 4
    assert doc["nodes"] == 4


def test_wavefunction_level_bound_is_checked_before_the_orbit_walk(capsys):
    # the walk costs about 31 us a level: --k 100000 once ran 3.1 s before
    # its node check refused the state
    t0 = time.perf_counter()
    code = cli.main(["wavefunction", "--k", "10001", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and elapsed < 0.05
    assert json.loads(err) == {
        "error": "config",
        "message": "k = 10001 is out of range: need 0 <= k <= 10000"}


def test_wavefunction_beyond_bound_exit_6():
    code, _, err = run_cli("wavefunction", "--family", "HyperbolicTanh",
                           "--m", "3", "--k", "5", "--format", "json")
    assert code == 6
    diag = stderr_diag(err)
    assert diag["error"] == "truncated-chain"
    assert diag["requested_level"] == 5
    assert diag["max_level"] == 2


# ---------------------------------------------------------------------------
# config handling

def test_dump_config_round_trip(tmp_path, capsys):
    # the defaults, each shipped config file and a flags-only run: a dump
    # read back through --config dumps the same bytes, and a shipped file
    # is its own dump
    shipped = sorted(DATA.glob("*.json"))
    runs = [[], ["--family", "TypeA", "--m", "2", "--kmax", "2", "--tol",
                 "5e-3"]] + [["--config", str(path)] for path in shipped]
    for flags in runs:
        code, out, err = _run_in_process(capsys, "spectrum", *flags,
                                         "--dump-config")
        assert code == 0 and err == "", flags
        if flags[:1] == ["--config"]:
            assert out == Path(flags[1]).read_text(), flags
        cfg = tmp_path / "cfg.json"
        cfg.write_text(out)
        again = _run_in_process(capsys, "spectrum", "--config", str(cfg),
                                "--dump-config")
        assert again == (0, out, ""), flags


def test_flags_override_config():
    code, out, _ = run_cli("spectrum", "--config",
                           str(DATA / "oscillator.json"), "--kmax", "5",
                           "--dump-config")
    assert code == 0
    doc = json.loads(out)
    assert doc["kmax"] == 5
    assert doc["grid"] == {"xmin": -8.0, "xmax": 8.0, "n": 2001}
    assert doc["family"]["b"] == 1.0


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli("spectrum", "--config", str(cfg))
    assert code == 1
    assert stderr_diag(err)["error"] == "config"


def test_malformed_grid_flag():
    code, _, _ = run_cli("eval", "--grid", "1,2")
    assert code == 1


def test_malformed_family_flag():
    code, _, _ = run_cli("eval", "--family", "TypeD:b=")
    assert code == 1


@pytest.mark.parametrize("flags, field", [
    (["--m", "nan"], "m"),
    (["--m", "inf"], "m"),
    (["--d", "inf"], "d"),
    (["--tol", "nan"], "tol"),
    (["--pole-margin", "inf"], "pole_margin"),
    (["--family", "TypeA:c=inf"], "'c'"),
    (["--family", "TypeD:b=nan"], "'b'"),
    (["--grid=nan,8,2001"], "grid xmin"),
    (["--grid=-8,inf,2001"], "grid xmax"),
    # a negative value after a space
    (["--m", "-inf"], "m"),
    (["--d", "-inf"], "d"),
    (["--tol", "-inf"], "tol"),
    (["--pole-margin", "-inf"], "pole_margin"),
])
def test_non_finite_flags_are_config_errors(flags, field):
    code, out, err = run_cli("spectrum", *flags)
    assert code == 1 and out == ""
    diag = stderr_diag(err)
    assert diag["error"] == "config"
    assert f"{field} must be a finite number" in diag["message"]


@pytest.mark.parametrize("doc, field", [
    ({"m": math.nan}, "m"),
    ({"tol": math.inf}, "tol"),
    ({"pole_margin": math.nan}, "pole_margin"),
    ({"kmax": math.inf}, "kmax"),
    ({"grid": {"xmin": -math.inf, "xmax": 8.0, "n": 2001}}, "grid xmin"),
    ({"grid": {"xmin": -8.0, "xmax": 8.0, "n": math.inf}}, "grid n"),
    ({"family": {"kind": "affine", "sign": "neg", "c": math.inf}}, "'c'"),
    # integer literals beyond the double range
    ({"m": int("1" * 401)}, "m"),
    ({"family": {"kind": "affine", "sign": "pos", "c": int("1" * 401)}}, "'c'"),
    ({"family": {"kind": "affine", "sign": "pos", "B": int("1" * 401)}}, "'B'"),
])
def test_non_finite_config_values_are_config_errors(tmp_path, doc, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))  # writes NaN / Infinity tokens
    code, out, err = run_cli("spectrum", "--config", str(cfg))
    assert code == 1 and out == ""
    diag = stderr_diag(err)
    assert diag["error"] == "config"
    assert f"{field} must be a finite number" in diag["message"]


@pytest.mark.parametrize("doc, message", [
    # a bool or a string is refused, never coerced to a number
    ({"kmax": True}, "kmax must be a finite number, got True"),
    ({"m": "2.5"}, "m must be a finite number, got '2.5'"),
    ({"d": False}, "d must be a finite number, got False"),
    ({"tol": "0.1"}, "tol must be a finite number, got '0.1'"),
    ({"tol": None}, "tol must be a finite number, got None"),
    ({"pole_margin": True}, "pole_margin must be a finite number, got True"),
    ({"grid": {"xmin": "-8", "xmax": 8, "n": 1001}},
     "grid xmin must be a finite number, got '-8'"),
    ({"grid": {"xmin": -8, "xmax": True, "n": 1001}},
     "grid xmax must be a finite number, got True"),
    ({"grid": {"xmin": -8, "xmax": 8, "n": "1001"}},
     "grid n must be a finite number, got '1001'"),
    # open() would read a bool or an integer as a file descriptor
    ({"output": {"path": True}}, "output path must be a string or null, "
                                 "got True"),
    ({"output": {"path": 2}}, "output path must be a string or null, got 2"),
    # a count is an integer, not truncated to one
    ({"kmax": 2.7}, "kmax must be an integer, got 2.7"),
    ({"grid": {"xmin": -8, "xmax": 8, "n": 1001.9}},
     "grid n must be an integer, got 1001.9"),
])
def test_coerced_config_values_are_config_errors(tmp_path, doc, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli("spectrum", "--config", str(cfg))
    assert code == 1 and out == ""
    assert stderr_diag(err) == {"error": "config", "message": message}


def test_integral_config_numbers_are_accepted(tmp_path):
    # JSON integers and integral floats stay accepted, as the same values
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps({"m": 2, "kmax": 3.0, "tol": 1,
                               "grid": {"xmin": -8, "xmax": 8.0,
                                        "n": 1001.0}}))
    code, out, err = run_cli("spectrum", "--config", str(cfg),
                             "--dump-config")
    assert code == 0 and err == ""
    dumped = json.loads(out)
    assert (dumped["m"], dumped["kmax"], dumped["tol"]) == (2.0, 3, 1.0)
    assert dumped["grid"] == {"xmin": -8.0, "xmax": 8.0, "n": 1001}
    assert type(dumped["kmax"]) is int and type(dumped["grid"]["n"]) is int


@pytest.mark.parametrize("argv", [
    ["spectrum", "--mode", "numeric", "--grid=-8,8,1000000000000"],
    ["eval", "--grid=-8,8,1000000000000"],
    ["verify", "--suite", "ladder", "--grid=-8,8,1000000000000"],
    ["spectrum", "--config", None],
], ids=["spectrum", "eval", "verify", "config-file"])
def test_huge_grid_is_a_config_error(tmp_path, argv):
    # refused before any sample array is allocated (one of 10^12 nodes
    # would fail at once, or swap)
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"grid": {"xmin": -8.0, "xmax": 8.0,
                                        "n": 10 ** 12}}))
    argv = [str(cfg) if a is None else a for a in argv]
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    diag = stderr_diag(err)
    assert diag["error"] == "config"
    assert diag["message"] == ("grid n = 1000000000000 is too large: "
                               "need n <= 1000001")


@pytest.mark.parametrize("extra", [[], ["--direction", "increasing"]],
                         ids=["auto", "increasing"])
def test_inadmissible_m_is_a_config_error(extra):
    # the inverse-power family is undefined at m = 0: bad input, not a
    # non-normalizable state
    code, out, err = run_cli("spectrum", "--family", "TypeF:q=-1", "--m", "0",
                             *extra)
    assert code == 1 and out == ""
    diag = stderr_diag(err)
    assert diag["error"] == "config"
    assert "m = 0" in diag["message"]


@pytest.mark.parametrize("flags", [
    ["--family", "TypeA:A=1e308"],
    ["--family", "HyperbolicTanh:A=-1e308"],
    ["--family", "TypeD:A=1e13,b=1"],
    ["--family", '{"kind": "affine", "sign": "neg", "c": 1000.0, "A": 2e9}'],
])
def test_out_of_range_offset_is_a_config_error(flags):
    # A +- 2.5 pi/c rounds to A, so the pole scan around A would collapse
    code, out, err = run_cli("spectrum", *flags, "--mode", "analytic")
    assert code == 1 and out == ""
    diag = stderr_diag(err)
    assert diag["error"] == "config"
    assert diag["message"].startswith("offset A = ")
    assert "out of range" in diag["message"]


@pytest.mark.parametrize("family", [
    "TypeA:c=1e300", "TypeA:c=1e-300", "HyperbolicTanh:c=1e-300",
    "TypeA:c=1e14", "TypeE:c=1e14", "HyperbolicTanh:c=1e-50",
    "TypeA:c=1.01e6", "TypeA:c=0.99e-6",
])
def test_out_of_range_rate_constant_is_a_config_error(family):
    # a = -+c^2 overflows or underflows at the extremes, and well inside
    # them the pole scans lose the digits to place the poles
    code, out, err = run_cli("spectrum", "--family", family, "--mode", "analytic")
    assert code == 1 and out == ""
    diag = stderr_diag(err)
    assert diag["error"] == "config"
    assert diag["message"].startswith("rate constant c = ")
    assert "out of range" in diag["message"]


@pytest.mark.parametrize("family", [
    "TypeA:c=1e6", "TypeA:c=1e-6", "TypeE:c=1e6",
    "HyperbolicTanh:c=1e-6,b=-4e-12,D=5e-7",
])
def test_rate_constant_at_its_bounds_is_accepted(family):
    code, out, err = run_cli("spectrum", "--family", family, "--m", "2",
                             "--mode", "analytic")
    assert code == 0 and err == ""
    assert json.loads(out)["analytic"]["levels"]


def test_numeric_precheck_does_not_depend_on_translation():
    # a sampling pre-check landed on the pole at x = A = 1e6 here and exited
    # 2; the exact verdict gives every translate the A = 0 answer
    runs = [run_cli("spectrum", "--family", f"HyperbolicCoth:b=-4,D=3,A={A}",
                    "--m", "4", "--mode", "numeric", "--direction",
                    "decreasing") for A in ("0", "30", "1e6")]
    assert runs[0] == runs[1] == runs[2]
    code, out, err = runs[0]
    assert code == 4 and out == ""
    assert json.loads(err) == {
        "error": "non-normalizable",
        "message": "ground state is not square integrable",
        "divergent_end": "right", "direction": "decreasing"}


@pytest.mark.parametrize("argv", [
    ["eval", "--grid=-8,8,5"],
    ["spectrum", "--m", "2", "--mode", "both", "--grid=-8,8,2001"],
], ids=["eval", "spectrum-both"])
def test_overflow_is_one_pole_diagnostic_not_warnings(argv):
    # the Morse closed form overflows far left of its well at c = 100; the
    # finite checks classify that, and no numpy warning reaches stderr
    code, out, err = run_cli(argv[0], "--family",
                             "TypeB_real:c=100,b=-70000,D=400", *argv[1:])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag["error"] == "pole"
    assert diag["message"].startswith("potential is not finite")


def test_auto_grid_is_sized_in_units_of_one_over_c():
    # the c = 100 Morse well is about 0.01 wide: an auto grid of [-8, 8]
    # put one node per well width and overflowed; in units of 1/c it
    # resolves the levels, each within 1.5 times its Richardson estimate,
    # and tol = 1e-2 in units of c^2 admits their errors of about 1
    code, out, err = run_cli("spectrum", "--family",
                             "TypeB_real:c=100,b=-70000,D=400", "--m", "2",
                             "--mode", "both", "--kmax", "3")
    assert code == 0 and err == ""
    report = json.loads(out)
    grid = report["numeric"]["grid"]
    assert grid["n"] == 2001 and -0.1 < grid["xmin"] < grid["xmax"] < 0.1
    assert report["comparison"]["tol"] == 1e-2 * 100.0 ** 2
    rows = report["comparison"]["levels"]
    assert len(rows) == 4
    for row in rows:
        assert row["abs_diff"] <= 1.5 * row["richardson"], row


@pytest.mark.parametrize("family, extra", [
    # pole_margin once kept an absolute 1e-3 off the poles of cot, a
    # twentieth of a node at c = 50: level 2 was off by 0.164 against a
    # Richardson bar of 0.111
    ("TypeA:c=50", ("--kmax", "2")),
    # tol was absolute: errors of about 1 on energies of about 1e5 failed
    # 1e-2, each within its Richardson bar
    ("TypeB_real:c=100,b=-70000,D=400", ()),
])
def test_margin_and_tol_are_read_in_units_of_c(family, extra):
    code, out, err = run_cli("spectrum", "--family", family, "--m", "2",
                             "--mode", "both", *extra)
    assert code == 0 and err == ""
    rows = json.loads(out)["comparison"]["levels"]
    assert len(rows) >= 3
    for row in rows:
        assert row["abs_diff"] <= 1.5 * row["richardson"], row


@pytest.mark.parametrize("command", [["spectrum", "--mode", "numeric"],
                                     ["eval"]])
@pytest.mark.parametrize("margin", ["1e-17", "1e-300"])
def test_a_margin_that_rounds_away_names_itself(command, margin):
    # pi - 1e-17 == pi: the auto grid's right end would be the pole
    code, out, err = run_cli(*command, "--family", "TypeA", "--m", "2",
                             "--pole-margin", margin)
    assert code == 1 and out == ""
    diag = stderr_diag(err)
    assert diag["error"] == "config"
    assert f"pole_margin = {margin}" in diag["message"]
    assert repr(math.pi) in diag["message"]
    code, _, err = run_cli(*command, "--family", "TypeA", "--m", "2",
                           "--pole-margin", "1e-12")
    assert code == 0 and err == ""


def _run_in_process(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (preset, constants at scale 1, m, explicit grid at scale 1)
SCALING_CASES = [
    ("TypeA", dict(c=1.3, A=0.2, b=0.3, D=0.1, t=0.25, d=-0.5), 2.0,
     (0.21, 2.61, 1001)),
    ("HyperbolicTanh", dict(c=1.1, A=-0.1, b=0.2, D=0.1, t=0.5, d=0.75), 3.0,
     (-9.0, 9.0, 1501)),
    ("TypeB_real", dict(c=1.2, A=0.1, b=0.2, D=-1.0, t=0.0, d=0.0), 2.0,
     (-4.0, 12.0, 2001)),
    ("TypeE", dict(c=1.3, A=0.2, q=0.5, t=0.25, d=-0.5), 2.0,
     (0.21, 2.61, 1001)),
    ("HyperbolicCoth", dict(c=1.1, A=-0.1, b=-7.26, D=4.95, t=0.5, d=0.75),
     2.0, (-0.09, 12.0, 2001)),
]

# the power of s each constant scales with under c -> s c
_SCALE_POWERS = {"c": 1, "A": -1, "b": 2, "D": 1, "q": 1, "t": 2, "d": 2}


def _scaled_family(name, consts, s):
    """The family with c -> s c: x shrinks by s, W grows by s, energies by
    s^2, so A/s, b s^2, D s, q s, t s^2 and d s^2, for the constants the
    preset has."""
    scaled = {k: v * s ** _SCALE_POWERS[k] for k, v in consts.items()}
    return name + ":" + ",".join(f"{k}={v!r}" for k, v in scaled.items())


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("name, consts, m, grid", SCALING_CASES)
def test_spectrum_scales_exactly_with_c(capsys, name, consts, m, grid,
                                        explicit):
    # c -> 4c rescales x by 1/4 and energies by 16, both exact in binary:
    # the same exit code, and 16 times the energies bit for bit, need the
    # auto grid, its pole margin and tol all read in units of c
    runs = []
    for s in (1.0, 4.0):
        argv = ["spectrum", "--family", _scaled_family(name, consts, s),
                "--m", repr(m), "--mode", "both", "--kmax", "3",
                "--d", repr(0.125 * s * s)]
        if explicit:
            argv.append(f"--grid={grid[0] / s!r},{grid[1] / s!r},{grid[2]}")
        runs.append(_run_in_process(capsys, *argv))
    (code1, out1, _), (code4, out4, _) = runs
    assert code1 == code4
    one, four = json.loads(out1), json.loads(out4)
    for block in ("analytic", "numeric"):
        e1 = [level["E"] for level in one[block]["levels"]]
        e4 = [level["E"] for level in four[block]["levels"]]
        assert e1 and e4 == [16.0 * e for e in e1], block
    assert four["comparison"]["tol"] == 16.0 * one["comparison"]["tol"]


def test_eval_pole_diagnostic_is_capped():
    # the window holds 31,830 poles of cot; naming them all took 610 KB
    code, out, err = run_cli("eval", "--family", "TypeA",
                             "--grid=0.5,1e5,100")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1024
    locations = stderr_diag(err)["locations"]
    assert locations == sorted(set(locations))
    assert len(locations) == 8 and locations[0] == pytest.approx(math.pi)


def test_eval_pole_scan_does_not_grow_with_the_window():
    # about 3.2e7 poles: the scan once refused the window as a config error
    code, out, err = run_cli("eval", "--family", "TypeA",
                             "--grid=0.5,1e8,100")
    assert code == 2 and out == ""
    locations = stderr_diag(err)["locations"]
    assert locations == pytest.approx([math.pi * j for j in range(1, 9)])


def test_grid_too_coarse_diagnostic_carries_h_and_w_max():
    code, out, err = run_cli("wavefunction", "--family", "TypeD:b=1",
                             "--m", "1", "--k", "1", "--grid=-8,8,64",
                             "--format", "json")
    assert code == 1 and out == ""
    diag = stderr_diag(err)
    assert diag["error"] == "grid-too-coarse"
    assert diag["h"] == pytest.approx(16.0 / 63.0)
    assert diag["h"] * diag["w_max"] > 0.5


def _boundary_cases():
    """Seeded argv cases at the CLI's input bounds, as (id, argv, config
    document or None, exit code, diagnostic slug or None on success)."""
    rng = np.random.default_rng(19)

    def draw(lo, hi):   # log-uniform integer in [lo, hi]
        return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))

    over, n_over = cli._MAX_KMAX + 1, cli._MAX_N + 1
    cases = []
    for i in range(3):
        k = draw(over, 10 ** 12)
        cases.append((f"kmax-flag-high-{i}", ["spectrum", "--kmax", str(k)],
                      None, 1, "config"))
    for i in range(2):
        cases.append((f"kmax-file-high-{i}", ["eval"],
                      {"kmax": draw(over, 10 ** 12)}, 1, "config"))
    for i in range(2):
        k = -draw(1, 10 ** 9)
        cases.append((f"kmax-flag-low-{i}", ["spectrum", "--kmax", str(k)],
                      None, 1, "config"))
    cases.append(("kmax-file-low", ["spectrum"], {"kmax": -draw(1, 10 ** 9)},
                  1, "config"))
    for k in (0, cli._MAX_KMAX):
        cases.append((f"kmax-flag-edge-{k}", ["spectrum", "--kmax", str(k)],
                      None, 0, None))
    cases.append(("kmax-file-inside", ["spectrum"],
                  {"kmax": int(rng.integers(1, 9))}, 0, None))
    for i in range(2):
        n = draw(n_over, 10 ** 15)
        cases.append((f"n-flag-high-{i}", ["eval", f"--grid=-8,8,{n}"],
                      None, 1, "config"))
    cases.append(("n-file-high", ["spectrum", "--mode", "numeric"],
                  {"grid": {"xmin": -8, "xmax": 8, "n": draw(n_over, 10 ** 15)}},
                  1, "config"))
    for flag in ("--m", "--tol"):
        for value in rng.choice(["nan", "inf", "-inf"], size=2, replace=False):
            cases.append((f"{flag[2:]}-flag-{value}",
                          ["spectrum", "--mode", "both", f"{flag}={value}"],
                          None, 1, "config"))
    cases.append(("m-file-nan", ["spectrum"], {"m": math.nan}, 1, "config"))
    cases.append(("tol-file-inf", ["spectrum", "--mode", "both"],
                  {"tol": math.inf}, 1, "config"))
    for family, pole, argv in (("TypeA", 0.0, ["eval"]),
                               ("TypeA", math.pi, ["spectrum", "--mode",
                                                   "numeric", "--m", "2"]),
                               ("TypeF:q=-3", 0.0, ["eval", "--m", "2"])):
        lo, hi = pole - rng.uniform(0.2, 1.0), pole + rng.uniform(0.2, 1.0)
        cases.append((f"pole-{family[:5]}-{argv[0]}",
                      argv + ["--family", family, f"--grid={lo!r},{hi!r},1001"],
                      None, 2, "pole"))
    for i in range(2):
        key = "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz_"), size=6))
        cases.append((f"unknown-key-{i}", ["spectrum"], {key: 1}, 1, "config"))
    # a value after a space, in any form float() or int() reads
    cases += [("m-flag-space--inf", ["spectrum", "--m", "-inf"], None, 1,
               "config"),
              ("d-flag-space-exponent", ["spectrum", "--d", "-1e-3"], None,
               0, None),
              ("kmax-flag-space-underscore", ["spectrum", "--kmax", "-1_0"],
               None, 1, "config")]
    for k in (-1, cli._MAX_KMAX + 1):
        cases.append((f"k-flag-{k}", ["wavefunction", "--k", str(k)], None,
                      1, "config"))
    # tol >= 0 and pole_margin > 0, from a flag or a file alike; on TypeA a
    # margin <= 0 puts the auto grid on a cell wall's pole, which must not
    # be what refuses it, and so does a margin below the spacing of doubles
    # at the pole x = pi
    below = -math.exp(rng.uniform(math.log(1e-12), math.log(1e3)))
    trig = ["spectrum", "--family", "TypeA", "--m", "2", "--mode", "numeric"]
    for name, flag, argv, values in (
            ("tol", "--tol", ["spectrum", "--mode", "both"],
             {"negative": below}),
            ("pole_margin", "--pole-margin", trig,
             {"negative": below, "0": 0.0, "1e-17": 1e-17,
              "1e-300": 1e-300})):
        for tag, value in values.items():
            cases.append((f"{flag[2:]}-flag-{tag}",
                          argv + [f"{flag}={value!r}"], None, 1, "config"))
            cases.append((f"{flag[2:]}-file-{tag}", argv, {name: value}, 1,
                          "config"))
    cases.append(("tol-flag-edge-0", ["spectrum", "--tol", "0"], None, 0, None))
    # a state whose samples peak near 1e155 still has a finite norm
    cases.append(("wavefunction-norm-subnormal-step",
                  ["wavefunction", "--grid=0,1e-310,100", "--k", "0"], None,
                  0, None))
    # a level past the tower is refused before the auto grid samples V to
    # size the well; a pole_margin that rounds away at the pole x = 1 is
    # still refused before the level
    cases.append(("wavefunction-auto-grid-past-the-tower",
                  ["wavefunction", "--family", "HyperbolicTanh", "--m", "3",
                   "--k", "5"], None, 6, "truncated-chain"))
    cases.append(("wavefunction-pole-margin-before-the-level",
                  ["wavefunction", "--family", "HyperbolicCoth:A=1", "--m",
                   "3", "--k", "50", "--pole-margin=1e-17"], None, 1,
                  "config"))
    return cases + EXTREME_CASES


# inputs at the ends of the double range, as _boundary_cases rows: a grid
# step whose 1/h^2, or the matrix's squared coupling 1/h^4, is not finite;
# a span x1 - x0 that overflows; and a shift d near the largest double,
# which the FD oracle adds to its levels after solving at d = 0
EXTREME_CASES = [
    ("grid-step-underflow",
     ["spectrum", "--grid=0,1e-300,100", "--mode", "numeric"], None, 1,
     "config"),
    ("grid-coupling-overflow",
     ["spectrum", "--grid=0,1e-100,100", "--mode", "numeric"], None, 1,
     "config"),
    ("grid-span-overflow",
     ["spectrum", "--grid=-1e308,1e308,100", "--mode", "numeric"], None, 1,
     "config"),
    ("eval-span-overflow", ["eval", "--grid=-1e308,1e308,5"], None, 1,
     "config"),
    ("d-near-max", ["spectrum", "--d", "1e308", "--mode", "both"], None, 0,
     None),
]
BOUNDARY_CASES = _boundary_cases()


def _strict_json(text: str):
    """json.loads refusing Infinity, -Infinity and NaN, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, doc, code, slug",
                         [case[1:] for case in BOUNDARY_CASES],
                         ids=[case[0] for case in BOUNDARY_CASES])
def test_boundary_inputs_exit_with_one_diagnostic(tmp_path, capsys, argv, doc,
                                                  code, slug):
    # in-process, so that an exception escaping main fails the test rather
    # than printing a traceback
    argv = list(argv) + ["--format", "json"]
    if doc is not None:
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps(doc))
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if slug is None:
        assert err == "" and _strict_json(out)
        return
    assert out == "" and len(err.splitlines()) == 1 and err.endswith("\n")
    diag = _strict_json(err)
    assert diag["error"] == slug and isinstance(diag["message"], str)


@pytest.mark.parametrize("argv, doc, code, slug",
                         [case[1:] for case in EXTREME_CASES],
                         ids=[case[0] for case in EXTREME_CASES])
def test_extreme_inputs_print_no_traceback(argv, doc, code, slug):
    # the console script as users run it: its stderr is the one diagnostic,
    # or empty beside a strict-JSON report
    rc, out, err = run_cli(*argv, "--format", "json")
    assert rc == code and "Traceback" not in err
    if slug is None:
        assert err == "" and _strict_json(out)
        return
    assert out == ""
    assert len(err.splitlines()) == 1 and _strict_json(err)["error"] == slug


# The boundary rows that load numpy, each with its reason; every other row
# is decided before any sampling, and its process never imports numpy
NUMPY_ROWS = {
    # hamiltonian_matrix refuses a step whose 1/h^2 or 1/h^4 overflows
    "grid-step-underflow": "hamiltonian_matrix refusal",
    "grid-coupling-overflow": "hamiltonian_matrix refusal",
    "d-near-max": "the FD solve at d = 0, shifted by d after",
    "wavefunction-norm-subnormal-step":
        "wavefunction samples the state and takes its norm",
}

# main() in a fresh interpreter, in the console form that reads sys.argv,
# which reports on a last stderr line which of numpy and dataclasses were
# imported
_FRESH_MAIN = ("import sys; from shapeinv.cli import main; rc = main(); "
               "sys.stderr.write('loaded: ' + ' '.join(sorted("
               "{'numpy', 'dataclasses'} & set(sys.modules))) + '\\n'); "
               "sys.exit(rc)")


def _fresh_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_fresh(*argv):
    """(exit code, stdout, stderr, which of numpy and dataclasses were
    loaded) of the console form main() on argv in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *map(str, argv)],
                          env=_fresh_env(), capture_output=True, text=True)
    err, _, flag = proc.stderr.rstrip("\n").rpartition("\n")
    assert flag.startswith("loaded:"), proc.stderr
    return (proc.returncode, proc.stdout, err + "\n" if err else "",
            set(flag.split()[1:]))


@pytest.mark.parametrize("argv, doc, code, slug",
                         [case[1:] for case in BOUNDARY_CASES],
                         ids=[case[0] for case in BOUNDARY_CASES])
def test_boundary_inputs_in_a_fresh_interpreter(request, tmp_path, argv, doc,
                                               code, slug):
    # the in-process rows above, as users meet them: one strict-JSON line on
    # stderr and no traceback, and no numpy unless the row names its reason;
    # a row without numpy loads no dataclasses either (inspect, ast, dis)
    argv = list(argv) + ["--format", "json"]
    if doc is not None:
        cfg = tmp_path / "case.json"
        cfg.write_text(json.dumps(doc))
        argv += ["--config", str(cfg)]
    rc, out, err, loaded = run_fresh(*argv)
    assert rc == code and "Traceback" not in err
    if slug is None:
        assert err == "" and _strict_json(out)
    else:
        assert out == "" and len(err.splitlines()) == 1
        assert _strict_json(err)["error"] == slug
    row = request.node.callspec.id
    assert ("numpy" in loaded) == (row in NUMPY_ROWS), row
    assert row in NUMPY_ROWS or "dataclasses" not in loaded, row


def test_numpy_rows_are_boundary_rows():
    assert set(NUMPY_ROWS) <= {case[0] for case in BOUNDARY_CASES}


@pytest.mark.parametrize("argv, code", [
    (["families"], 0),
    (["spectrum", "--mode", "analytic"], 0),
    (["spectrum", "--dump-config", "--family", "TypeA"], 0),
    (["spectrum", "--kmax", "10001"], 1),
    (["spectrum", "--family", "TypeA", "--m", "2", "--mode", "both",
      "--grid=-0.5,0.5,1001"], 2),
    (["spectrum", "--family", "HyperbolicCoth:b=-4,D=3", "--m", "4",
      "--mode", "numeric", "--direction", "decreasing"], 4),
    (["wavefunction", "--family", "HyperbolicTanh", "--m", "3", "--k", "5",
      "--grid=-12,12,4001", "--format", "json"], 6),
], ids=["families", "analytic", "dump-config", "config", "pole",
        "non-normalizable", "truncated-chain"])
def test_closed_form_commands_and_early_refusals_load_no_numpy(argv, code):
    rc, out, err, loaded = run_fresh(*argv)
    assert rc == code and not loaded
    assert (err == "") == (code == 0)


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--mode", "numeric"], 0),
    (["spectrum", "--config", str(DATA / "trig.json"), "--mode", "both"], 0),
    (["eval", "--grid=-5,5,11"], 0),
    (["verify", "--suite", "riccati"], 0),
    (["wavefunction", "--k", "1", "--format", "json"], 0),
    # the Morse closed form overflows far left of its well: the finite
    # checks refuse that, with numpy's warnings off
    (["spectrum", "--family", "TypeB_real:c=100,b=-70000,D=400", "--m", "2",
      "--mode", "both", "--grid=-8,8,2001"], 2),
    (["wavefunction", "--family", "TypeB_real:c=100,b=-70000,D=400", "--m",
      "2", "--grid=-8,8,2001", "--format", "json"], 2),
    # the state's samples of about 1e155 would overflow if squared unscaled
    (["wavefunction", "--grid=0,1e-310,100", "--format", "json"], 0),
], ids=["numeric", "both", "eval", "verify", "wavefunction", "both-overflow",
        "wavefunction-overflow", "wavefunction-norm-overflow"])
def test_array_commands_load_numpy_and_print_no_warning(argv, code):
    rc, out, err, loaded = run_fresh(*argv)
    assert rc == code and "numpy" in loaded and "Warning" not in err
    if code:
        assert len(err.splitlines()) == 1 and _strict_json(err)["error"] == "pole"
    else:
        assert err == ""


@pytest.mark.parametrize("argv", [
    ["spectrum", "--d", "-1e-3"],
    ["spectrum", "--m", "-2.5E0", "--mode", "both"],
    ["spectrum", "--tol", "-1e-2"],
    ["spectrum", "--pole-margin", "-1e-3", "--mode", "numeric"],
    ["spectrum", "--kmax", "-1_0"],
    ["wavefunction", "--k", "-1e0"],
], ids=["d", "m", "tol", "pole-margin", "kmax", "k"])
def test_numeric_flag_value_after_a_space(capsys, argv):
    # the same bytes and exit code as the value after '='
    joined = argv[:1] + [f"{argv[1]}={argv[2]}"] + argv[3:]
    spaced = _run_in_process(capsys, *argv, "--format", "json")
    assert spaced == _run_in_process(capsys, *joined, "--format", "json")


def _readme_exit_codes() -> dict:
    """code -> the diagnostic slugs of its row in README's "Exit codes"."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Exit codes", 1)[1]
    rows = {}
    for line in section.split("\n#", 1)[0].splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) == 3 and cells[0].strip().isdigit():
            rows[int(cells[0])] = re.findall(r"`([a-z-]+)`", cells[2])
    return rows


FAILURES = [(exc, slug, code, attrs)
            for types, slug, code, attrs in cli._FAILURES
            for exc in (types if isinstance(types, tuple) else (types,))]


@pytest.mark.parametrize("exc, slug, code, attrs", FAILURES,
                         ids=[row[0].__name__ for row in FAILURES])
def test_failure_table_matches_the_readme(monkeypatch, capsys, exc, slug,
                                          code, attrs):
    def fail(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "_resolve_config", fail)
    assert cli.main(["families"]) == code
    out, err = capsys.readouterr()
    diag = json.loads(err)
    assert out == "" and list(diag) == ["error", "message", *attrs]
    assert (diag["error"], diag["message"]) == (slug, "boom")
    assert slug in _readme_exit_codes()[code]


def test_no_subcommand_usage():
    code, _, _ = run_cli()
    assert code == 1


# ---------------------------------------------------------------------------
# byte stability

def test_spectrum_output_is_byte_stable():
    args = ("spectrum", "--config", str(DATA / "trig.json"), "--mode",
            "both", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    assert first[0] == 0


def test_wavefunction_output_is_byte_stable(tmp_path):
    args = ("wavefunction", "--family", "TypeD:b=1", "--m", "1", "--k", "2",
            "--format", "json")
    assert run_cli(*args) == run_cli(*args)


# ---------------------------------------------------------------------------
# the console run's policy: one OpenBLAS thread unless the user set a count,
# the cyclic collector off while main runs and the heap frozen as it ends;
# an in-process main(argv) changes neither the environment nor the collector

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request, monkeypatch):
    """The collector enabled or disabled for the test, as the param says,
    and no BLAS thread count set."""
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv, code", [
    (["families"], 0),
    (["spectrum", "--no-such-flag"], 1),
    (["spectrum", "--family", "TypeA", "--m", "2", "--mode", "both",
      "--grid=-0.5,0.5,1001"], 2),
], ids=["success", "usage", "pole"])
def test_main_restores_the_collector_state(capsys, collector, argv, code):
    env, frozen = dict(os.environ), gc.get_freeze_count()
    assert cli.main(argv) == code
    assert gc.isenabled() == collector and gc.get_freeze_count() == frozen
    assert dict(os.environ) == env


def test_main_restores_the_collector_state_when_a_handler_raises(
        monkeypatch, collector):
    def fail():
        assert not gc.isenabled()
        raise RuntimeError("boom")
    monkeypatch.setattr(cli.families, "preset_catalogue", fail)
    env, frozen = dict(os.environ), gc.get_freeze_count()
    with pytest.raises(RuntimeError, match="boom"):
        cli.main(["families"])
    assert gc.isenabled() == collector and gc.get_freeze_count() == frozen
    assert dict(os.environ) == env


# the console form main() in a fresh interpreter whose atexit hook reports
# the collector's frozen count
_FRESH_EXIT = ("import atexit, gc, sys; atexit.register(lambda: sys.stderr.write("
               "f'frozen: {gc.get_freeze_count()}\\n')); "
               "from shapeinv.cli import main; sys.exit(main())")


@pytest.mark.parametrize("argv, files", [
    (["spectrum", "--config", str(DATA / "trig.json"), "--mode", "both"],
     ["out"]),
    (["wavefunction", "--family", "TypeA", "--m", "2", "--k", "1"],
     ["out", "out.json"]),
], ids=["spectrum", "wavefunction-csv"])
def test_out_files_are_whole_after_the_exit_freeze(tmp_path, capsys, argv,
                                                  files):
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    proc = subprocess.run([sys.executable, "-c", _FRESH_EXIT, *argv, "--out",
                           str(fresh / "out")],
                          env=_fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == ""
    frozen = proc.stderr.splitlines()
    assert len(frozen) == 1 and frozen[0].startswith("frozen: ")
    assert int(frozen[0].split()[1]) > 0
    assert cli.main([*argv, "--out", str(here / "out")]) == 0
    assert capsys.readouterr() == ("", "")
    assert sorted(p.name for p in fresh.iterdir()) == files
    for name in files:
        assert (fresh / name).read_bytes() == (here / name).read_bytes()


# the console form main() in a fresh interpreter, with no *_NUM_THREADS
# variable but those the test sets; a last stderr line reports the ones the
# process ends with, whether it loaded numpy and how many threads it has
# (None without /proc)
_FRESH_THREADS = (
    "import json, os, sys; from shapeinv.cli import main; rc = main(); "
    "tasks = '/proc/self/task'; sys.stderr.write(json.dumps(["
    "{k: v for k, v in os.environ.items() if k.endswith('_NUM_THREADS')}, "
    "'numpy' in sys.modules, "
    "len(os.listdir(tasks)) if os.path.isdir(tasks) else None]) + '\\n'); "
    "sys.exit(rc)")

TRIG_BOTH = ["spectrum", "--config", str(DATA / "trig.json"), "--mode", "both"]


def run_fresh_threads(argv, **user):
    """(exit code, stdout, the *_NUM_THREADS variables at the end, numpy
    loaded, thread count) of the console form main() in a fresh
    interpreter."""
    env = {k: v for k, v in _fresh_env().items()
           if not k.endswith("_NUM_THREADS")}
    env.update(user)
    proc = subprocess.run([sys.executable, "-c", _FRESH_THREADS, *argv],
                          env=env, capture_output=True, text=True)
    threads, loaded, tasks = json.loads(proc.stderr.splitlines()[-1])
    return proc.returncode, proc.stdout, threads, loaded, tasks


def test_console_run_loads_openblas_with_one_thread():
    rc, out, threads, loaded, tasks = run_fresh_threads(TRIG_BOTH)
    assert rc == 0 and out == read_golden("spectrum_both_trig.json")
    assert threads == {"OPENBLAS_NUM_THREADS": "1"} and loaded
    if tasks is None:
        pytest.skip("no /proc/self/task to count threads")
    assert tasks == 1


@pytest.mark.parametrize("name", BLAS_THREAD_VARS)
def test_console_run_keeps_a_thread_count_the_user_set(name):
    rc, out, threads, loaded, _ = run_fresh_threads(TRIG_BOTH, **{name: "2"})
    assert rc == 0 and out == read_golden("spectrum_both_trig.json")
    assert threads == {name: "2"} and loaded
