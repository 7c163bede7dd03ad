"""Self-contained verification suites shared by the CLI and the test rig.

Four suites: 'riccati' (closed-form residuals and the superposition rule),
'shape' (partner-potential algebra across all families), 'adjoint' (the
discrete integration-by-parts identity), and 'ladder' (operator chains vs the
finite-difference oracle). Every check reports its worst residual against a
fixed tolerance, so a report is reproducible byte for byte.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import families, numerics, partners, riccati, spectra
from ._record import Record
from .errors import BoundaryConditionError, GridTooCoarseError

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_suites",
           "suite_riccati", "suite_shape", "suite_adjoint", "suite_ladder"]


class CheckResult(Record):
    _fields = ("name", "passed", "max_residual", "tolerance", "detail", "grid")

    def __init__(self, name: str, passed: bool, max_residual: float,
                 tolerance: float, detail: str = "", grid: Optional[dict] = None):
        self.__dict__.update(name=name, passed=passed, max_residual=max_residual,
                             tolerance=tolerance, detail=detail, grid=grid)

    def to_json(self) -> dict:
        out = dict(zip(self._fields, self._values()))
        # a non-finite residual (refused run) serializes as null; the detail
        # string carries the reason
        if not math.isfinite(self.max_residual):
            out["max_residual"] = None
        return out


# The suites' fixed knobs: a report is reproducible byte for byte only
# with these, so no caller sets them.
_MARGIN = 1e-2     # the distance samples keep from poles and cell ends
_HALF = 3.0        # the half-width of the sampling window around A
_K_MIX = 0.35      # the generic superposition parameter
_LADDER_KMAX = 4   # the oscillator levels 0-3 the ladder suite compares
# the seed, draws and points per draw of each sampled check
_RICCATI_SEED, _RICCATI_DRAWS, _RICCATI_POINTS = 7, 200, 400
_SUPERPOSITION_SEED, _SUPERPOSITION_POINTS = 19, 300
_BLOCK_SEED, _BLOCK_DRAWS, _BLOCK_POINTS = 23, 60, 200
_SHAPE_SEED, _RECORDS_SEED, _FUNCTIONAL_SEED = 11, 13, 17
_SHAPE_POINTS = 200   # per window, in each of the three shape checks


def _result(name, worst, tol, detail="", grid=None) -> CheckResult:
    worst = float(worst)
    return CheckResult(name, bool(worst <= tol), worst, float(tol), detail, grid)


def _unless_too_coarse(name, measure, tol, detail, grid) -> CheckResult:
    """_result of measure(), or a failed check when a ladder step refuses
    the grid as too coarse for W."""
    try:
        return _result(name, measure(), tol, detail, grid)
    except GridTooCoarseError as exc:
        return CheckResult(name, False, math.inf, tol,
                           f"grid too coarse: {exc}", grid)


def _grid_meta(grid: numerics.Grid) -> dict:
    return {"x0": grid.x0, "x1": grid.x1, "n": grid.n, "h": grid.h}


def _sample_regular(sol: riccati.RiccatiSolution, rng,
                    n_pts: int) -> np.ndarray:
    """Points around A staying at least _MARGIN away from every pole."""
    lo, hi = sol.A - _HALF, sol.A + _HALF
    xs = rng.uniform(lo, hi, 4 * n_pts)
    for pole in sol.singularities((lo - 1.0, hi + 1.0)):
        xs = xs[np.abs(xs - pole) >= _MARGIN]
    if xs.size < n_pts:
        raise RuntimeError("pole layout left too few regular sample points")
    return xs[:n_pts]


def _family_window(family: families.Family, n_pts: int, rng) -> np.ndarray:
    """Uniform samples in a pole-free cell near A, _MARGIN away from the
    ends."""
    for shift in (0.37, 1.11, -0.53, 0.73):
        anchor = family.params.A + shift
        lo, hi = family.natural_domain(1.0, anchor,
                                       (anchor - _HALF, anchor + _HALF))
        if hi - lo > 10.0 * _MARGIN:
            return rng.uniform(lo + _MARGIN, hi - _MARGIN, n_pts)
    raise RuntimeError("no usable pole-free sampling cell near the anchor")


# ---------------------------------------------------------------------------
# riccati suite

def _draw_solution(rng, idx: int):
    kind = ("pos", "zero", "neg")[idx % 3]
    A = rng.uniform(-2.0, 2.0)
    if idx % 4 == 3:
        B = riccati.INFINITY
    else:
        B = rng.uniform(-5.0, 5.0)
    if kind == "zero":
        a = 0.0
    else:
        c = rng.uniform(0.2, 3.0)
        a = c * c if kind == "pos" else -c * c
    return riccati.general_solution(a, A, B)


def check_riccati_residuals():
    """Residuals of y' = a - y^2 and y z + z' = b from the closed forms, and
    z' against alpha f' + beta h' (relative to max(1, |alpha f' + beta h'|)).

    The last one is the check that can fail: the zero and neg rows evaluate
    z' as b - y z from z's own numerator, which satisfies the companion
    equation whatever that numerator is.
    """
    rng = np.random.default_rng(_RICCATI_SEED)
    worst_y = 0.0
    worst_z = 0.0
    worst_dz = 0.0
    for i in range(_RICCATI_DRAWS):
        sol = _draw_solution(rng, i)
        xs = _sample_regular(sol, rng, _RICCATI_POINTS)
        y = sol.evaluate(xs)
        res = sol.derivative(xs) + y * y - sol.a
        worst_y = max(worst_y, float(np.max(np.abs(res))))
        b = rng.uniform(-3.0, 3.0)
        D = rng.uniform(-3.0, 3.0)
        z = riccati.solve_z(b, sol, D)
        dz = z.derivative(xs)
        res_z = y * z.evaluate(xs) + dz - b
        worst_z = max(worst_z, float(np.max(np.abs(res_z))))
        form = sol.form
        alpha, beta = form.companion(b, D)
        comb = alpha * form.df(xs) + beta * form.dh(xs)
        res_dz = np.abs(dz - comb) / np.maximum(1.0, np.abs(comb))
        worst_dz = max(worst_dz, float(np.max(res_dz)))
    detail = (f"{_RICCATI_DRAWS} draws x {_RICCATI_POINTS} points, "
              "margin 1e-2 from poles")
    return (_result("riccati-residual", worst_y, 1e-9, detail),
            _result("companion-residual", worst_z, 1e-9, detail),
            _result("companion-derivative", worst_dz, 1e-9,
                    detail + "; relative to max(1, |alpha f' + beta h'|)"))


def _superposition_triples():
    # three solutions of the same equation per sign class; the pos and zero
    # triples include the constant members (B = -+1 and B = 0)
    pos = [riccati.general_solution(1.44, 0.2, B) for B in (2.2, -1.0, 1.0)]
    zer = [riccati.general_solution(0.0, -0.3, B)
           for B in (1.7, 0.0, riccati.INFINITY)]
    neg = [riccati.general_solution(-1.21, 0.1, B) for B in (0.9, -0.7, 2.3)]
    return {"pos": pos, "zero": zer, "neg": neg}


def _mix_values(ws, k):
    w1, w2, w3 = ws
    num = k * w2 * (w3 - w1) + w1 * (w2 - w3)
    den = k * (w3 - w1) + (w2 - w3)
    return num, den


def check_superposition():
    """The cross-ratio combination: endpoint values and the generic-k residual.

    The derivative of the combined solution is reconstructed by the quotient
    rule from the three members' closed-form derivatives, so the residual test
    does not lean on the library's own derivative path.
    """
    rng = np.random.default_rng(_SUPERPOSITION_SEED)
    k_mix, n_pts = _K_MIX, _SUPERPOSITION_POINTS
    worst_end = 0.0
    worst_res = 0.0
    for label, (s1, s2, s3) in _superposition_triples().items():
        xs = rng.uniform(s1.A - 2.0, s1.A + 2.0, 6 * n_pts)
        for sol in (s1, s2, s3):
            for pole in sol.singularities((s1.A - 3.0, s1.A + 3.0)):
                xs = xs[np.abs(xs - pole) >= _MARGIN]
        ws = [np.asarray(s.evaluate(xs), dtype=float) for s in (s1, s2, s3)]
        dws = [np.asarray(s.derivative(xs), dtype=float) for s in (s1, s2, s3)]
        scale = np.abs(ws[0]) + np.abs(ws[1]) + np.abs(ws[2]) + 1.0
        keep = np.ones(xs.size, dtype=bool)
        for k in (0.0, 1.0, k_mix):
            _, den = _mix_values(ws, k)
            keep &= np.abs(den) >= 0.05 * scale
        xs, ws, dws = xs[keep], [w[keep] for w in ws], [d[keep] for d in dws]
        if xs.size < n_pts // 3:
            raise RuntimeError(f"superposition sampling too thin for {label}")

        for k, expect in ((0.0, ws[0]), (1.0, ws[2])):
            mixed = riccati.superpose(s1, s2, s3, k)(xs)
            worst_end = max(worst_end, float(np.max(np.abs(mixed - expect))))
        mixed_inf = riccati.superpose(s1, s2, s3, riccati.INFINITY)(xs)
        worst_end = max(worst_end, float(np.max(np.abs(mixed_inf - ws[1]))))

        y = riccati.superpose(s1, s2, s3, k_mix)(xs)
        w1, w2, w3 = ws
        d1, d2, d3 = dws
        num, den = _mix_values(ws, k_mix)
        dnum = (k_mix * (d2 * (w3 - w1) + w2 * (d3 - d1))
                + d1 * (w2 - w3) + w1 * (d2 - d3))
        dden = k_mix * (d3 - d1) + (d2 - d3)
        dy = (dnum * den - num * dden) / (den * den)
        worst_res = max(worst_res, float(np.max(np.abs(dy + y * y - s1.a))))
    detail = "pos/zero/neg triples, k in {0, 1, inf} and generic"
    return (_result("superposition-endpoints", worst_end, 1e-9, detail),
            _result("superposition-residual", worst_res, 1e-9, detail))


def check_block_identities() -> CheckResult:
    """Each row's f' and h' against the quadratic forms of its algebra(),
    and its invariant, which vanishes on the row, on the riccati suite's
    kind of draws: every fourth takes B = infinity."""
    rng = np.random.default_rng(_BLOCK_SEED)
    worst = 0.0
    for i in range(_BLOCK_DRAWS):
        sol = _draw_solution(rng, i)
        xs = _sample_regular(sol, rng, _BLOCK_POINTS)
        form = sol.form
        f, h = form.f(xs), form.h(xs)
        df, dh, invariant = form.algebra()
        for res in (form.df(xs) - riccati.quadratic(df, f, h),
                    form.dh(xs) - riccati.quadratic(dh, f, h),
                    riccati.quadratic(invariant, f, h)):
            worst = max(worst, float(np.max(np.abs(res))))
    return _result("block-derivative-identities", worst, 1e-9,
                   f"{_BLOCK_DRAWS} draws x {_BLOCK_POINTS} points, "
                   "both closed forms")


def suite_riccati() -> list:
    return [*check_riccati_residuals(), *check_superposition(),
            check_block_identities()]


# ---------------------------------------------------------------------------
# shape suite

def _shape_configs() -> list:
    """One representative per (ansatz kind, sign class), finite B and limit."""
    A = families.FamilyKind.AFFINE
    I = families.FamilyKind.INVERSE_POWER
    inf = riccati.INFINITY
    cfgs = [
        ("affine-pos", A, families.positive_a(1.3), 2.2,
         dict(A=0.3, b=0.7, D=-1.1, t=0.4)),
        ("affine-zero", A, families.zero_a(), 0.8,
         dict(A=-0.2, b=1.2, D=0.5, t=-0.3)),
        ("affine-neg", A, families.negative_a(1.1), 1.7,
         dict(A=0.1, b=-0.6, D=0.9, t=0.2)),
        ("inverse-pos", I, families.positive_a(0.9), 3.0,
         dict(A=0.0, q=1.4, t=0.5)),
        ("inverse-zero", I, families.zero_a(), 1.5,
         dict(A=0.4, q=-2.0, t=0.0)),
        ("inverse-neg", I, families.negative_a(1.2), 0.5,
         dict(A=-0.1, q=0.8, t=1.0)),
    ]
    out = []
    for label, kind, sign, B, extra in cfgs:
        for tag, Bv in (("B-finite", riccati.ExtendedReal(B)), ("B-inf", inf)):
            params = families.FamilyParams(sign=sign, B=Bv, **extra)
            out.append((f"{label}/{tag}", families.Family(params=params, kind=kind)))
    return out


def check_shape_invariance() -> CheckResult:
    """max_x |Vtilde(x, m) - V(x, m-1) - R(m-1)| across every family."""
    rng = np.random.default_rng(_SHAPE_SEED)
    worst = 0.0
    for label, fam in _shape_configs():
        pp = partners.pair_from_family(fam)
        for m in (2.0, 3.0, 4.5):
            xs = _family_window(fam, _SHAPE_POINTS, rng)
            res = partners.shape_invariance_residual(pp, fam, m, xs)
            worst = max(worst, float(np.max(np.abs(res))))
    return _result("shape-invariance", worst, 1e-8,
                   "12 family configurations, m in {2, 3, 4.5}")


def check_coefficient_records() -> CheckResult:
    """Closed-form potential records against the W-built partner pair."""
    rng = np.random.default_rng(_RECORDS_SEED)
    worst = 0.0
    for label, fam in _shape_configs():
        pp = partners.pair_from_family(fam)
        d = fam.params.d
        for m in (2.0, 3.0, 4.5):
            xs = _family_window(fam, _SHAPE_POINTS, rng)
            rec = partners.closed_form_potentials(fam, m)
            res_v = rec.V_minus_d(xs) + d - pp.V(xs, m)
            res_vt = rec.Vtilde_minus_d(xs) + d - pp.Vtilde(xs, m)
            worst = max(worst,
                        float(np.max(np.abs(res_v))),
                        float(np.max(np.abs(res_vt))))
    return _result("coefficient-records", worst, 1e-8,
                   "records vs W^2 -+ W' for 12 configurations")


def check_functional_equation() -> CheckResult:
    """k^2(x, m+1) - k^2(x, m) + k'(x, m+1) + k'(x, m) = L(m) - L(m+1)."""
    rng = np.random.default_rng(_FUNCTIONAL_SEED)
    worst = 0.0
    for label, fam in _shape_configs():
        for _ in range(3):
            m = rng.uniform(1.0, 5.0)
            xs = _family_window(fam, _SHAPE_POINTS, rng)
            k0 = fam.k(xs, m)
            k1 = fam.k(xs, m + 1.0)
            res = (k1 * k1 - k0 * k0 + fam.k_prime(xs, m + 1.0)
                   + fam.k_prime(xs, m) - (fam.L(m) - fam.L(m + 1.0)))
            worst = max(worst, float(np.max(np.abs(res))))
    return _result("functional-equation", worst, 1e-8,
                   "12 configurations, random m in [1, 5]")


def check_shape_invariance_exact() -> CheckResult:
    """Vtilde(m) - V(m-1) - R(m-1) over the records' terms, less its
    least-squares multiple of the row's invariant: the largest remainder,
    relative to the largest coefficient of the two records."""
    worst = 0.0
    for label, fam in _shape_configs():
        invariant = dict(zip(riccati.TERMS, fam.basis().algebra()[2]))
        for m in (2.0, 3.0, 4.5):
            up = partners.closed_form_potentials(fam, m).Vtilde
            down = partners.closed_form_potentials(fam, m - 1.0).V
            diff = np.array([up[key] - down[key] for key in up])
            diff[-1] -= fam.R(m - 1.0)   # the records' terms end with const
            inv = np.array([invariant[key] for key in up])
            rest = diff - (diff @ inv) / (inv @ inv) * inv
            scale = max(map(abs, [*up.values(), *down.values()]))
            worst = max(worst, float(np.max(np.abs(rest))) / scale)
    return _result("shape-invariance-exact", worst, 1e-12,
                   "12 configurations, m in {2, 3, 4.5}, relative to the "
                   "largest coefficient")


def suite_shape() -> list:
    return [check_shape_invariance(), check_coefficient_records(),
            check_functional_equation(), check_shape_invariance_exact()]


# ---------------------------------------------------------------------------
# adjoint suite

def suite_adjoint(n: int = 2001) -> list:
    grid = numerics.Grid(-8.0, 8.0, n)
    xs = grid.x
    meta = _grid_meta(grid)
    out = []

    W = families.preset_params("TypeD", b=1.0).k
    W0 = families.preset_params("TypeD", b=0.0).k
    phi = numerics.GridFunction(grid, np.exp(-(xs - 1.0) ** 2))
    psi = numerics.GridFunction(grid, np.exp(-(xs + 0.5) ** 2 / 1.5))
    mode = numerics.GridFunction(grid, np.sin(math.pi * (xs + 8.0) / 16.0))
    for name, Wk, u, v, tol, detail in (
            ("adjoint-defect-gaussian", W, phi, psi, 1e-6,
             "W = x, offset Gaussian pair"),
            ("adjoint-defect-box-mode", W0, mode, mode, 1e-8,
             "W = 0, first box mode against itself")):
        try:
            defect = numerics.adjointness_defect(Wk, 1.0, u, v)
            out.append(_result(name, defect, tol, detail, meta))
        except BoundaryConditionError as exc:
            out.append(CheckResult(name, False, math.inf, tol,
                                   f"unexpected boundary refusal: {exc}", meta))

    leaky = numerics.GridFunction(grid, np.exp(xs / 8.0))
    try:
        numerics.adjointness_defect(W, 1.0, leaky, leaky)
        out.append(CheckResult("adjoint-boundary-precondition", False, 1.0, 0.0,
                               "non-vanishing phi*psi was not rejected", meta))
    except BoundaryConditionError:
        out.append(CheckResult("adjoint-boundary-precondition", True, 0.0, 0.0,
                               "non-vanishing phi*psi rejected as required", meta))
    return out


# ---------------------------------------------------------------------------
# ladder suite

def _bump(xs: np.ndarray, center: float, width: float) -> np.ndarray:
    u = (xs - center) / width
    out = np.zeros_like(xs)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def _intertwining_defect(fam: families.Family, m: float, grid: numerics.Grid,
                         center: float, width: float) -> float:
    xs = grid.x
    h = grid.h
    pp = partners.pair_from_family(fam)
    Wv = np.asarray(fam.k(xs, m), dtype=float)
    Vv = np.asarray(pp.V(xs, m), dtype=float)
    Vtv = np.asarray(pp.Vtilde(xs, m), dtype=float)
    psi = _bump(xs, center, width)

    def lower(v):
        return numerics.derivative(v, h) + Wv * v

    lhs = numerics.apply_hamiltonian(lower(psi), Vtv, h)
    rhs = lower(numerics.apply_hamiltonian(psi, Vv, h))
    num = math.sqrt(max(numerics.integrate((lhs - rhs) ** 2, h), 0.0))
    den = math.sqrt(max(numerics.integrate(psi ** 2, h), 0.0))
    return num / den


def suite_ladder(n: int = 2001) -> list:
    kmax = _LADDER_KMAX
    fam = families.preset_params("TypeD", b=1.0)
    grid = numerics.Grid(-8.0, 8.0, n)
    meta = _grid_meta(grid)
    inc = spectra.ChainDirection.IncreasingL
    psi0 = spectra.ground_state(fam, 1.0, inc, grid)

    def raised_distance():
        lifted = spectra.ladder_apply(fam, 1.0, "minus", psi0).as_normalized()
        xs = grid.x
        ref = xs * np.exp(-xs * xs / 2.0)
        ref = numerics.fix_sign(ref / math.sqrt(numerics.integrate(ref * ref, grid.h)))
        return math.sqrt(max(numerics.integrate(
            (numerics.fix_sign(lifted.values) - ref) ** 2, grid.h), 0.0))

    def intertwining_defect():
        famA = families.preset_params("TypeA", c=1.0)
        gridA = numerics.Grid(1e-3, math.pi - 1e-3, n)
        return max(_intertwining_defect(fam, 1.0, grid, 0.0, 4.0),
                   _intertwining_defect(famA, 2.0, gridA, math.pi / 2.0, 1.2))

    out = [
        _unless_too_coarse(
            "ladder-kernel",
            lambda: spectra.ladder_apply(fam, 1.0, "plus", psi0).norm(), 1e-4,
            "A annihilates its own ground state", meta),
        _unless_too_coarse("ladder-raise-oscillator", raised_distance, 1e-3,
                           "A* on the Gaussian vs the one-node closed form",
                           meta),
        _unless_too_coarse("intertwining", intertwining_defect, 5e-3,
                           "|(Htilde A - A H) psi| / |psi|, bump test states",
                           meta),
    ]

    # partner towers: H(m) level j+1 against Htilde's level j, both exact
    # (via the independent sum at the shifted parameter) and numeric
    worst_exact = 0.0
    for name, m, direction in (("TypeD", 2.0, "increasing"),
                               ("TypeA", 2.0, "decreasing"),
                               ("TypeF", 2.0, "decreasing")):
        f = families.preset_params(name, b=1.0, q=-1.0)
        # the partners of H(m)'s levels 0..kmax: a decreasing chain adds
        # the partner's bottom level at d, an increasing one drops level 0
        count = kmax + 2 if direction == "decreasing" else kmax
        R_prev = f.R(m - 1.0)
        for j, e in enumerate(spectra.partner_energies(f, m, count, direction)):
            shifted = spectra.energy_level(f, m - 1.0, j, direction) + R_prev
            worst_exact = max(worst_exact, abs(e - shifted))
    out.append(_result("partner-pairing-analytic", worst_exact, 1e-12,
                       "partner levels vs shifted-parameter sums, 3 families"))

    # level j + 1 of V against level j of Vtilde; lower levels do not depend
    # on how many are requested, and no error bar is read
    pp = partners.pair_from_family(fam)
    specV = numerics.spectrum_numeric(lambda x: pp.V(x, 1.0), grid, kmax,
                                      richardson=False)
    specVt = numerics.spectrum_numeric(lambda x: pp.Vtilde(x, 1.0), grid,
                                       kmax - 1, richardson=False)
    diffs = [abs(specV.energies[j + 1] - specVt.energies[j])
             for j in range(kmax - 1)]
    out.append(_result("partner-pairing-numeric", max(diffs), 5e-3,
                       "FD towers of V and Vtilde, oscillator pair", meta))

    # the ladder-built states against the FD eigenvectors of the same tower;
    # 1 - |<psi_k, v_k>| falls as h^4, measured worst (level 3) at 6.5e-9
    # for n = 1001 and 4.1e-10 for n = 2001: the gate leaves 15x over n = 1001
    def worst_overlap():
        worst = 0.0
        for k in range(kmax):
            psi = spectra.excited_state(fam, 1.0, k, inc, grid)
            overlap = numerics.inner_product(psi.values,
                                             specV.wavefunctions[:, k], grid.h)
            worst = max(worst, abs(1.0 - abs(overlap)))
        return worst

    out.append(_unless_too_coarse(
        "state-overlap", worst_overlap, 1e-7, "1 - |<psi_k, v_k>|, ladder "
        f"states vs FD eigenvectors, oscillator levels 0-{kmax - 1}", meta))
    return out


SUITE_NAMES = ("riccati", "shape", "adjoint", "ladder")

_SUITES = {
    "riccati": lambda n: suite_riccati(),
    "shape": lambda n: suite_shape(),
    "adjoint": lambda n: suite_adjoint(n=n),
    "ladder": lambda n: suite_ladder(n=n),
}


def run_suite(name: str, n: int = 2001) -> list:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(SUITE_NAMES)}")
    return _SUITES[name](n)


def run_suites(names, n: int = 2001) -> list:
    out = []
    for name in names:
        out.extend(run_suite(name, n=n))
    return out
