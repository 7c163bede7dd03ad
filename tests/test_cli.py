"""Command-line surface: golden outputs, exit codes, config handling, and
byte stability."""

import json
import math

import pytest

from conftest import DATA, GOLDEN, run_cli, stderr_diag


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
        "riccati-residual", "companion-residual", "superposition-endpoints",
        "superposition-residual", "block-derivative-identities"}


def test_verify_coarse_ladder_fails():
    code, out, err = run_cli("verify", "--suite", "ladder", "--grid=-8,8,64",
                             "--format", "json")
    assert code == 5
    doc = json.loads(out)
    assert doc["passed"] is False
    diag = stderr_diag(err)
    assert diag["error"] == "verify-failed"
    assert len(diag["checks"]) >= 1


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

def test_dump_config_round_trip(tmp_path):
    code, out, _ = run_cli("spectrum", "--family", "TypeA", "--m", "2",
                           "--kmax", "2", "--tol", "5e-3", "--dump-config")
    assert code == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(out)
    code2, out2, _ = run_cli("spectrum", "--config", str(cfg),
                             "--dump-config")
    assert code2 == 0
    assert out2 == out


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
])
def test_non_finite_config_values_are_config_errors(tmp_path, doc, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))  # writes NaN / Infinity tokens
    code, out, err = run_cli("spectrum", "--config", str(cfg))
    assert code == 1 and out == ""
    diag = stderr_diag(err)
    assert diag["error"] == "config"
    assert f"{field} must be a finite number" in diag["message"]


def test_grid_too_coarse_diagnostic_carries_h_and_w_max():
    code, out, err = run_cli("wavefunction", "--family", "TypeD:b=1",
                             "--m", "1", "--k", "1", "--grid=-8,8,64",
                             "--format", "json")
    assert code == 1 and out == ""
    diag = stderr_diag(err)
    assert diag["error"] == "grid-too-coarse"
    assert diag["h"] == pytest.approx(16.0 / 63.0)
    assert diag["h"] * diag["w_max"] > 0.5


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
