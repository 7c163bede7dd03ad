"""End-to-end acceptance gates.

One test per contract item, each printing a single summary line (visible in
the captured output when a gate fails) and enforcing both the tolerance and
the runtime budget.
"""

import json
import math
import time

import numpy as np

from conftest import DATA, GOLDEN, run_cli, stderr_diag
from shapeinv import checks
from shapeinv.families import preset_params
from shapeinv.numerics import Grid, spectrum_numeric
from shapeinv.partners import pair_from_family
from shapeinv.spectra import excited_state, ground_state, spectrum_analytic


def report(tag, ok, worst, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"{tag}: {verdict} worst={worst:.3e} "
          f"elapsed={elapsed:.2f}s budget={budget:.0f}s")


def as_list(res):
    if isinstance(res, checks.CheckResult):
        return [res]
    return list(res)


def run_checks(fn, *args, **kwargs):
    t0 = time.perf_counter()
    results = as_list(fn(*args, **kwargs))
    elapsed = time.perf_counter() - t0
    worst = max(r.max_residual for r in results)
    ok = all(r.passed for r in results)
    return results, worst, ok, elapsed


def test_criterion_01_riccati_residual_sweep():
    results, worst, ok, elapsed = run_checks(checks.check_riccati_residuals)
    report("criterion 01 riccati residuals", ok, worst, elapsed, 5)
    assert ok and worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_superposition():
    results, worst, ok, elapsed = run_checks(checks.check_superposition)
    report("criterion 02 superposition", ok, worst, elapsed, 2)
    assert ok and worst <= 1e-9
    assert elapsed < 2.0


def test_criterion_03_block_derivative_identities():
    results, worst, ok, elapsed = run_checks(checks.check_block_identities)
    report("criterion 03 block identities", ok, worst, elapsed, 2)
    assert ok and worst <= 1e-9
    assert elapsed < 2.0


def test_criterion_04_shape_invariance_and_records():
    t0 = time.perf_counter()
    results = (as_list(checks.check_shape_invariance())
               + as_list(checks.check_coefficient_records()))
    elapsed = time.perf_counter() - t0
    worst = max(r.max_residual for r in results)
    ok = all(r.passed for r in results)
    report("criterion 04 shape invariance", ok, worst, elapsed, 5)
    assert ok and worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_05_functional_equation():
    results, worst, ok, elapsed = run_checks(checks.check_functional_equation)
    report("criterion 05 functional equation", ok, worst, elapsed, 3)
    assert ok and worst <= 1e-8
    assert elapsed < 3.0


def test_criterion_06_oscillator_cross_check():
    t0 = time.perf_counter()
    fam = preset_params("TypeD", b=1.0)
    sp = spectrum_analytic(fam, 1.0, 3)
    analytic = sp.energies
    grid = Grid(-8.0, 8.0, 2001)
    pp = pair_from_family(fam)
    fd = spectrum_numeric(lambda x: pp.V(x, 1.0), grid, 4)
    diffs = np.abs(analytic - fd.energies)
    wf = ground_state(fam, 1.0, sp.direction, grid)
    gauss = np.pi ** -0.25 * np.exp(-grid.x ** 2 / 2.0)
    pointwise = float(np.max(np.abs(wf.values - gauss)))
    elapsed = time.perf_counter() - t0
    ok = (np.allclose(analytic, [0.0, 2.0, 4.0, 6.0])
          and np.max(diffs) <= 2e-3 and pointwise <= 1e-6)
    report("criterion 06 oscillator", ok, max(np.max(diffs), pointwise),
           elapsed, 10)
    assert list(analytic) == [0.0, 2.0, 4.0, 6.0]
    assert np.max(diffs) <= 2e-3
    assert pointwise <= 1e-6
    assert elapsed < 10.0


def test_criterion_07_trig_barrier_cross_check():
    t0 = time.perf_counter()
    fam = preset_params("TypeA")
    sp = spectrum_analytic(fam, 2.0, 2)
    analytic = sp.energies
    grid = Grid(1e-3, math.pi - 1e-3, 4001)
    fd = spectrum_numeric(lambda x: 6.0 / np.sin(x) ** 2 - 4.0, grid, 3)
    diffs = np.abs(analytic - fd.energies)
    nodes = [excited_state(fam, 2.0, k, sp.direction, grid).node_count()
             for k in range(3)]
    elapsed = time.perf_counter() - t0
    ok = (list(analytic) == [5.0, 12.0, 21.0]
          and np.max(diffs) <= 5e-3 and nodes == [0, 1, 2])
    report("criterion 07 trig barrier", ok, float(np.max(diffs)), elapsed, 15)
    assert list(analytic) == [5.0, 12.0, 21.0]
    assert np.max(diffs) <= 5e-3
    assert nodes == [0, 1, 2]
    assert elapsed < 15.0


def test_criterion_08_hyperbolic_well_cross_check():
    t0 = time.perf_counter()
    fam = preset_params("HyperbolicTanh")
    sp = spectrum_analytic(fam, 3.0, 2)
    analytic = sp.energies
    grid = Grid(-12.0, 12.0, 4001)
    fd = spectrum_numeric(lambda x: 9.0 - 12.0 / np.cosh(x) ** 2, grid, 3)
    diffs = np.abs(analytic - fd.energies)
    elapsed = time.perf_counter() - t0
    ok = list(analytic) == [0.0, 5.0, 8.0] and np.max(diffs) <= 5e-3
    report("criterion 08 hyperbolic well", ok, float(np.max(diffs)),
           elapsed, 15)
    assert list(analytic) == [0.0, 5.0, 8.0]
    assert np.max(diffs) <= 5e-3
    assert elapsed < 15.0


def test_criterion_09_ladder_partner_adjoint():
    t0 = time.perf_counter()
    results = checks.suite_adjoint() + checks.suite_ladder()
    elapsed = time.perf_counter() - t0
    by_name = {r.name: r for r in results}
    worst = max(r.max_residual for r in results)
    ok = all(r.passed for r in results)
    report("criterion 09 ladder and adjoint", ok, worst, elapsed, 10)
    assert ok
    assert by_name["intertwining"].max_residual <= 5e-3
    assert by_name["partner-pairing-analytic"].max_residual <= 1e-12
    assert by_name["partner-pairing-numeric"].max_residual <= 5e-3
    assert by_name["state-overlap"].max_residual <= 1e-7
    assert by_name["adjoint-defect-gaussian"].max_residual <= 1e-6
    assert by_name["adjoint-boundary-precondition"].passed  # hard error fired
    assert elapsed < 10.0


def test_criterion_10_cli_contract():
    t0 = time.perf_counter()
    failures = []

    def expect(code, *args):
        got, out, err = run_cli(*args)
        if got != code:
            failures.append((args, code, got, err.strip()[:200]))
        return out

    # golden bytes on the three cross-check configurations
    for name in ("oscillator", "trig", "hyperbolic"):
        out = expect(0, "spectrum", "--config", str(DATA / f"{name}.json"),
                     "--mode", "both", "--format", "json")
        want = (GOLDEN / f"spectrum_both_{name}.json").read_text()
        if out != want:
            failures.append((f"golden spectrum_both_{name}", "bytes",
                             "drift", ""))
    out = expect(0, "families")
    if out != (GOLDEN / "families.txt").read_text():
        failures.append(("golden families", "bytes", "drift", ""))
    out = expect(0, "eval", "--family", "TypeD:b=1", "--grid=-5,5,11")
    if out != (GOLDEN / "eval_typed.csv").read_text():
        failures.append(("golden eval", "bytes", "drift", ""))

    # exit-code matrix
    expect(1, "families", "TypeQ")
    expect(2, "eval", "--family", "TypeA", "--m", "2", "--grid=-0.5,0.5,11")
    expect(3, "spectrum", "--config", str(DATA / "oscillator.json"),
           "--mode", "both", "--tol", "1e-9")
    expect(4, "spectrum", "--family", "TypeA", "--m", "2",
           "--direction", "increasing")
    expect(5, "verify", "--suite", "ladder", "--grid=-8,8,64")
    expect(6, "wavefunction", "--family", "HyperbolicTanh", "--m", "3",
           "--k", "5", "--format", "json")

    elapsed = time.perf_counter() - t0
    ok = not failures
    report("criterion 10 cli contract", ok, float(len(failures)), elapsed, 10)
    assert not failures, failures
    assert elapsed < 10.0
