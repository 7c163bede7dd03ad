"""Seeded request streams, executors and correctness oracles.

Every workload is an endless stream of requests; request i is a pure function
of (seed, i), so a traced run can replay exactly the requests an untraced run
timed. Each stream cycles through a fixed pattern of request classes and the
seed only draws the free values inside a class, which keeps the cost mix of
any run the same from seed to seed.

The oracles never ask `shapeinv.spectra` for reference values: the FD check
uses textbook energies coded below, the closed-form check counts nodes and
integrates norms with plain numpy, and the bulk check uses the identity
V - Vtilde = -2 W'.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the console script body: what `shapeinv ...` runs
CLI_ENTRY = "import sys; from shapeinv.cli import main; sys.exit(main())"

WORKLOADS = ("fd_crosscheck", "closed_form", "bulk_eval")


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    points: int = 0
    info: dict = field(default_factory=dict)
    label: str = ""     # request class, for the per-class latency report


# ---------------------------------------------------------------------------
# fd_crosscheck: CLI requests checked against textbook energies

# The three run configurations of tests/data/*.json, copied so that the
# benchmark inputs do not move when the test data does.
def _base_config(family, m, grid, kmax, tol):
    fam = {"kind": "affine", "c": 1.0, "A": 0.0, "B": 0.0, "b": 0.0, "D": 0.0,
           "q": 1.0, "t": 0.0, "d": 0.0}
    fam.update(family)
    return {"family": fam, "m": m, "direction": "auto",
            "grid": {"xmin": grid[0], "xmax": grid[1], "n": grid[2]},
            "kmax": kmax, "d": 0.0, "tol": tol,
            "output": {"path": None, "format": "json"}, "pole_margin": 0.001}


FD_CONFIGS = {
    "oscillator": _base_config({"sign": "zero", "c": 0.0, "b": 1.0}, 1.0,
                               (-8.0, 8.0, 2001), 3, 0.002),
    "trig": _base_config({"sign": "neg"}, 2.0,
                         (0.001, 3.140592653589793, 4001), 2, 0.005),
    "hyperbolic": _base_config({"sign": "pos", "B": "inf"}, 3.0,
                               (-12.0, 12.0, 4001), 2, 0.005),
}

# m ranges keep every level the textbook formula lists well inside the grid;
# the sech^2 well stays below m = 3 so its top level is not at threshold
FD_M_RANGE = {"oscillator": (0.8, 1.2), "trig": (1.9, 2.1),
              "hyperbolic": (2.85, 2.97)}

# One round: a spectrum request for each configuration, one verify and one
# expected error. The grid sizes rotate over the configurations from round to
# round, so every round costs about the same and three rounds cover all nine
# (configuration, n) pairs. A cycle is two rounds, one of each phase (the
# seeded order of the verify sizes and of the two errors), so every cycle
# holds the same mix whatever the seed.
FD_ROUND = ("spectrum", "spectrum", "verify", "spectrum", "error")
FD_CYCLE = FD_ROUND * 2
FD_SPECTRUM_CONFIGS = ("oscillator", "trig", "hyperbolic")
FD_SIZES = (1001, 2001, 4001)


def textbook_energy(config: str, m: float, k: int):
    """Bound-state energy of level k, or None when the level does not exist."""
    if config == "oscillator":
        return 2.0 * FD_CONFIGS["oscillator"]["family"]["b"] * k
    if config == "trig":
        return (m + k + 1.0) ** 2 - m * m
    if k < m:
        return m * m - (m - k) ** 2
    return None


def textbook_levels(config: str, m: float, kmax: int) -> list:
    out = []
    for k in range(kmax + 1):
        e = textbook_energy(config, m, k)
        if e is None:
            break
        out.append((k, e))
    return out


def fd_request(seed: int, i: int) -> dict:
    rnd, slot = divmod(i, len(FD_ROUND))
    kind = FD_ROUND[slot]
    rng = np.random.default_rng([seed, i])
    phase = (seed + rnd) % 2
    if kind == "verify":
        n = FD_SIZES[phase]
        return {"kind": kind, "label": f"verify:{n}", "n": n, "config": None,
                "argv": ["verify", "--suite", "all", f"--grid=-8,8,{n}"]}
    if kind == "error":
        # alternately a pole inside the grid (exit 2) and a level above the
        # sech^2 well's last bound state (exit 6)
        kind, config = ("pole", "trig") if phase else ("beyond", "hyperbolic")
    j = FD_ROUND[:slot].count("spectrum")
    if kind == "spectrum":
        config = FD_SPECTRUM_CONFIGS[j]
    cfg = json.loads(json.dumps(FD_CONFIGS[config]))
    cfg["m"] = float(rng.uniform(*FD_M_RANGE[config]))
    # kmax sets how many eigenvectors the FD oracle builds, so it runs
    # through 1..3 by position, not by seed
    cfg["kmax"] = 1 + (2 * j + rnd) % 3
    req = {"kind": kind, "name": config, "m": cfg["m"], "kmax": cfg["kmax"],
           "tol": cfg["tol"], "config": cfg}
    if kind == "spectrum":
        n = FD_SIZES[(j + rnd) % len(FD_SIZES)]
        # odd rounds, whatever the seed: which configuration gets the auto
        # grid changes the cost, so it must not follow the seed
        if n == 2001 and rnd % 2:
            cfg["grid"] = "auto"   # the CLI's auto grid also has 2001 nodes
            req["label"] = f"spectrum:{config}:auto"
        else:
            cfg["grid"]["n"] = n
            req["label"] = f"spectrum:{config}:{n}"
        req["n"] = n
        req["argv"] = ["spectrum", "--config", None, "--mode", "both"]
    elif kind == "pole":
        # a window straddling the barrier's pole at x = 0
        n = FD_SIZES[(rnd // 2) % 2]
        cfg["grid"] = {"xmin": -float(rng.uniform(0.2, 1.0)),
                       "xmax": float(rng.uniform(0.2, 1.0)), "n": n}
        req.update(n=n, label="pole",
                   argv=["spectrum", "--config", None, "--mode", "both"])
    else:
        req["level"] = 4 + (rnd // 2) % 4
        req.update(n=cfg["grid"]["n"], label="beyond",
                   argv=["wavefunction", "--config", None,
                         "--k", str(req["level"])])
    return req


def fd_argv(req: dict, tmpdir: Path, i: int) -> list:
    """Write the request's config to a temporary file; return the CLI argv."""
    argv = list(req["argv"])
    if req["config"] is not None:
        path = tmpdir / f"req{i}.json"
        path.write_text(json.dumps(req["config"]), encoding="utf-8")
        argv[argv.index(None)] = str(path)
    return argv


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli_subprocess(argv: list, env: dict):
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY] + argv,
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=150)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(argv: list):
    """cli.main with captured streams; an exception it lets through is
    reported as the console script would: exit 1 with the traceback."""
    from shapeinv import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # noqa: BLE001  (the CLI's own boundary failed)
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def _single_json_line(text: str):
    lines = text.splitlines()
    if len(lines) != 1:
        return None
    try:
        obj = json.loads(lines[0])
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def check_fd(req: dict, rc: int, out: str, err: str) -> Outcome:
    kind = req["kind"]
    points = req["n"]
    if kind == "pole":
        diag = _single_json_line(err)
        ok = rc == 2 and out == "" and diag is not None \
            and diag.get("error") == "pole"
        return Outcome(ok, "" if ok else f"pole: rc={rc} stderr={err[:200]!r}",
                       points)
    if kind == "beyond":
        diag = _single_json_line(err)
        limit = len(textbook_levels(req["name"], req["m"], 64)) - 1
        ok = (rc == 6 and out == "" and diag is not None
              and diag.get("error") == "truncated-chain"
              and diag.get("max_level") == limit)
        return Outcome(ok, "" if ok else f"beyond: rc={rc} stderr={err[:200]!r}",
                       points)
    if rc != 0 or err:
        return Outcome(False, f"{kind}: rc={rc} stderr={err[:200]!r}", points)
    try:
        report = json.loads(out)
    except ValueError:
        return Outcome(False, f"{kind}: stdout is not JSON", points)
    if kind == "verify":
        checks = report.get("checks", [])
        ok = (report.get("passed") is True and len(checks) > 0
              and all(c.get("passed") is True for c in checks)
              and report.get("suites") == ["riccati", "shape", "adjoint",
                                           "ladder"])
        return Outcome(ok, "" if ok else "verify: a check failed", points)
    return _check_spectrum(req, report, points)


def _check_spectrum(req: dict, report: dict, points: int) -> Outcome:
    expected = textbook_levels(req["name"], req["m"], req["kmax"])
    analytic = report["analytic"]["levels"]
    numeric = report["numeric"]["levels"]
    bad = []
    if not report["comparison"]["within_tol"]:
        bad.append("within_tol is false")
    if len(analytic) != len(expected):
        bad.append(f"{len(analytic)} analytic levels, textbook has {len(expected)}")
    if len(numeric) != req["kmax"] + 1:
        bad.append(f"{len(numeric)} numeric levels for kmax={req['kmax']}")
    if report["numeric"]["grid"]["n"] != req["n"]:
        bad.append("numeric grid size differs from the request")
    errs, ratios = [], []
    for (k, e_tb), lev in zip(expected, analytic):
        if lev["k"] != k or abs(lev["E"] - e_tb) > 1e-9 * max(1.0, abs(e_tb)):
            bad.append(f"analytic E_{k}={lev['E']!r} vs textbook {e_tb!r}")
    for (k, e_tb), lev in zip(expected, numeric):
        err = abs(lev["E"] - e_tb)
        errs.append(err)
        if err > req["tol"]:
            bad.append(f"FD E_{k} off the textbook value by {err:.3g}")
        if lev["richardson"]:
            ratios.append(err / lev["richardson"])
    info = {"fd_abs_err_max": max(errs, default=0.0),
            "richardson_ratio_max": max(ratios, default=0.0)}
    return Outcome(not bad, "; ".join(bad), points, info)


# ---------------------------------------------------------------------------
# closed_form: in-process analytic spectra, states and shape residuals

CF_PRESETS = ("TypeA", "TypeB_real", "TypeC", "TypeD", "TypeE", "TypeF",
              "HyperbolicTanh", "HyperbolicCoth")

# excited states are built for levels below this; see README (higher levels
# of the trigonometric presets fail excited_state's own node check)
CF_STATE_LEVELS = 5
CF_RESIDUAL_POINTS = 200
CF_TOL = 1e-8


def _cf_constants(name: str, rng, m: float) -> dict:
    """Free constants drawn where the preset has a bound tower at this m."""
    u = rng.uniform
    if name in ("TypeA", "HyperbolicTanh"):
        return dict(c=u(0.8, 1.5), A=u(-.5, .5), b=u(-.5, .5), D=u(-.3, .3))
    if name == "TypeB_real":   # Morse: D < 0 confines the left side
        return dict(c=u(0.8, 1.5), A=u(-.5, .5), b=u(-.5, .5), D=-u(0.5, 2.0))
    if name == "TypeC":        # radial oscillator: b < 0 for a decreasing chain
        return dict(A=u(-.5, .5), b=-u(0.5, 2.0), D=u(-.3, .3))
    if name == "TypeD":
        return dict(A=u(-.5, .5), b=u(0.5, 2.0), D=u(-.5, .5))
    if name == "TypeE":
        return dict(c=u(0.8, 1.5), A=u(-.5, .5), q=u(-1.0, 1.0))
    if name == "TypeF":        # Coulomb: attractive for q < 0
        return dict(A=u(-.5, .5), q=-u(3.0, 6.0))
    c = u(0.8, 1.5)            # HyperbolicCoth (Eckart): deep enough well
    s = u(3.0, 5.0)
    return dict(c=c, A=u(-.5, .5), b=-c * c * (m + s), D=c * (s + u(0.0, 1.5)))


def cf_request(seed: int, i: int) -> dict:
    """Request i: preset i mod 8; kmax runs through 2..8 from cycle to cycle,
    so every 7 cycles hold each (preset, kmax) pair once."""
    cycle, slot = divmod(i, len(CF_PRESETS))
    name = CF_PRESETS[slot]
    rng = np.random.default_rng([seed, i])
    m = float(rng.uniform(1.5, 5.0))
    kmax = 2 + cycle % 7
    consts = _cf_constants(name, rng, m)
    c = consts.get("c", 1.0)
    if name == "TypeF":   # Coulomb states spread as (m + k)^2 / |q|
        half, n = max(8.0, 1.5 * (m + 5.0) ** 2 / abs(consts["q"])), 4001
    else:
        half, n = 8.0 / c, 2001
    return {"name": name, "m": m, "kmax": kmax, "consts": consts,
            "anchor": consts["A"] + 0.6180339887498949 / c,
            "half": half, "n": n}


def run_cf(req: dict):
    """The library calls of one closed_form request."""
    from shapeinv import families, numerics, partners, spectra
    fam = families.preset_params(req["name"], **req["consts"])
    m, anchor, half = req["m"], req["anchor"], req["half"]
    lo, hi = fam.natural_domain(m, anchor, (anchor - half, anchor + half))
    # stay clear of poles; an open side is already clipped to the window
    lo = lo + 0.05 if lo > anchor - half else lo
    hi = hi - 0.05 if hi < anchor + half else hi
    spec = spectra.spectrum_analytic(fam, m, req["kmax"], anchor=anchor)
    grid = numerics.Grid(lo, hi, req["n"])
    states = [spectra.excited_state(fam, m, k, spec.direction, grid)
              for k, _ in spec.levels[:CF_STATE_LEVELS]]
    pp = partners.pair_from_family(fam)
    xs = np.linspace(lo, hi, CF_RESIDUAL_POINTS + 2)[1:-1]
    residual = partners.shape_invariance_residual(pp, fam, m, xs)
    record = partners.closed_form_potentials(fam, m)
    v_record = record.V_minus_d(xs) + fam.params.d
    v_pair = pp.V(xs, m)
    return spec, grid, states, residual, v_record, v_pair


def count_sign_changes(values: np.ndarray) -> int:
    """Sign changes among samples above 1e-6 of the peak magnitude."""
    v = np.asarray(values, dtype=float)
    sig = v[np.abs(v) >= 1e-6 * np.max(np.abs(v))]
    return int(np.count_nonzero(np.signbit(sig[1:]) != np.signbit(sig[:-1])))


def simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule on an odd number of samples."""
    v = np.asarray(values, dtype=float)
    if v.size % 2 == 0:
        raise ValueError("Simpson's rule needs an odd sample count")
    return float(h / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum()
                            + 2.0 * v[2:-1:2].sum()))


def check_cf(req: dict, result) -> Outcome:
    spec, grid, states, residual, v_record, v_pair = result
    bad = []
    if not spec.levels:
        bad.append("no bound level")
    if len(spec.levels) > req["kmax"] + 1:
        bad.append("more levels than requested")
    h = (grid.x1 - grid.x0) / (grid.n - 1)
    for (k, energy), wf in zip(spec.levels, states):
        psi = np.asarray(wf.values, dtype=float)
        if wf.k != k or wf.energy != energy or psi.shape != (grid.n,):
            bad.append(f"state {k}: wrong level, energy or size")
            continue
        if count_sign_changes(psi) != k:
            bad.append(f"state {k}: {count_sign_changes(psi)} nodes")
        norm = math.sqrt(simpson(psi * psi, h))
        if not abs(norm - 1.0) <= 1e-9:
            bad.append(f"state {k}: norm {norm!r}")
    scale = max(1.0, float(np.max(np.abs(v_pair))))
    res = float(np.max(np.abs(residual)))
    if not res <= CF_TOL * scale:
        bad.append(f"shape residual {res:.3g}")
    rec = float(np.max(np.abs(v_record - v_pair)))
    if not rec <= CF_TOL * scale:
        bad.append(f"record residual {rec:.3g}")
    points = grid.n * len(states) + 4 * CF_RESIDUAL_POINTS
    return Outcome(not bad, "; ".join(bad), points)


# ---------------------------------------------------------------------------
# bulk_eval: closed-form evaluators on large pole-free arrays

BULK_EVALUATORS = ("k", "k_prime", "V", "Vtilde")
BULK_SUBSAMPLE = 4096


def bulk_families(seed: int) -> list:
    """The 12 (ansatz kind x sign class x finite/infinite B) configurations
    with seeded constants, as (label, Family, m)."""
    from shapeinv import families, riccati
    rng = np.random.default_rng([seed, 12])
    u = rng.uniform
    out = []
    for kind in (families.FamilyKind.AFFINE, families.FamilyKind.INVERSE_POWER):
        for sign_kind in ("pos", "zero", "neg"):
            c = u(0.8, 1.5)
            sign = {"pos": families.positive_a(c), "zero": families.zero_a(),
                    "neg": families.negative_a(c)}[sign_kind]
            for finite in (True, False):
                B = riccati.ExtendedReal(u(-2.0, 2.0)) if finite else riccati.INFINITY
                extra = dict(A=u(-.5, .5), t=u(-.5, .5), d=u(-.5, .5))
                if kind is families.FamilyKind.AFFINE:
                    extra.update(b=u(-1.0, 1.0), D=u(-1.0, 1.0))
                else:
                    extra.update(q=u(0.5, 2.0) * (1 if u() < 0.5 else -1))
                params = families.FamilyParams(sign=sign, B=B, **extra)
                label = f"{kind.value}-{sign_kind}/{'B-finite' if finite else 'B-inf'}"
                out.append((label, families.Family(params=params, kind=kind),
                            float(u(1.5, 5.0))))
    return out


def bulk_points(seed: int, n_points: int) -> list:
    """One array of uniform samples per configuration, inside the pole-free
    cell around A + 0.37 and 1% of its width away from its ends."""
    arrays = []
    for j, (_, fam, m) in enumerate(bulk_families(seed)):
        anchor = fam.params.A + 0.37
        half = 4.0
        poles = fam.singularities(m, (anchor - half, anchor + half))
        lo = max([p for p in poles if p <= anchor], default=anchor - half)
        hi = min([p for p in poles if p > anchor], default=anchor + half)
        pad = 0.01 * (hi - lo)
        rng = np.random.default_rng([seed, 100 + j])
        arrays.append(rng.uniform(lo + pad, hi - pad, n_points))
    return arrays


def bulk_request(i: int) -> tuple:
    """(configuration index, evaluator name) of request i."""
    return (i // len(BULK_EVALUATORS)) % 12, BULK_EVALUATORS[i % len(BULK_EVALUATORS)]


def bulk_callables(seed: int) -> list:
    """Per configuration: evaluator name -> f(x), built fresh (so a traced
    phase gets traced bound methods)."""
    from shapeinv import partners
    out = []
    for _, fam, m in bulk_families(seed):
        pp = partners.pair_from_family(fam)
        out.append({
            "k": lambda x, fam=fam, m=m: fam.k(x, m),
            "k_prime": lambda x, fam=fam, m=m: fam.k_prime(x, m),
            "V": lambda x, pp=pp, m=m: pp.V(x, m),
            "Vtilde": lambda x, pp=pp, m=m: pp.Vtilde(x, m),
        })
    return out


def bulk_subsample(n_points: int) -> np.ndarray:
    return np.linspace(0, n_points - 1, min(BULK_SUBSAMPLE, n_points)).astype(int)


def check_bulk(seed: int, arrays: list, kept: dict) -> dict:
    """Failure message per (configuration, evaluator) key.

    kept maps each key to the subsampled output of its first timed call
    (later calls were compared with it as they ran). Each must be finite and
    match a fresh evaluation of the subsample, and per configuration the four
    evaluators must satisfy V - Vtilde = -2 k' to rounding.
    """
    fns = bulk_callables(seed)
    eps = float(np.finfo(float).eps)
    bad = {}
    for j, x in enumerate(arrays):
        xs = x[bulk_subsample(x.size)]
        ref = {e: np.asarray(fns[j][e](xs), dtype=float) for e in BULK_EVALUATORS}
        for e in BULK_EVALUATORS:
            got = kept.get((j, e))
            if got is not None and not (np.all(np.isfinite(got)) and np.all(
                    np.abs(got - ref[e]) <= 1e-12 * (1.0 + np.abs(ref[e])))):
                bad[(j, e)] = f"config {j} {e}: timed output differs"
        gap = ref["V"] - ref["Vtilde"] + 2.0 * ref["k_prime"]
        scale = (1.0 + np.abs(ref["V"]) + np.abs(ref["Vtilde"])
                 + 2.0 * np.abs(ref["k_prime"]))
        worst = float(np.max(np.abs(gap) / scale))
        if not worst <= 64.0 * eps:
            for e in BULK_EVALUATORS:
                bad.setdefault((j, e), f"config {j}: V - Vtilde + 2k' is "
                                       f"{worst:.3g} of the scale")
    return bad
