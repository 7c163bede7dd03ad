"""The ladder chain of `spectra.excited_state` as it stood before the family
kept its pole-free cell, its W samples and its grid integrals and the chain
reused its peaks and |psi|, kept as a test oracle.

Every pass is the plain one: the seed's cell comes from `natural_domain` of
a fresh family on each call, the seed integrates k0 and k1 afresh, every step reads W through
`Family.k` and checks it, the coarseness gate always masks the state's
support, each ladder step takes the max of its input state, and
normalization, the sign fix and the node count each take their own |psi|.
The grid spacing is the Grid's h. The seed is exp(sign (I0 + p I1)) with
I0 and I1 the cumulative Simpson integrals of k0 and k1 from the grid
midpoint (I0 = x - x_mid and q/p for its weight on the inverse-power
ansatz), the affine split of int W(., p). The library's chain must give
the same states bit for bit and refuse the same levels with the same
errors.
"""

import math
from typing import Optional

import numpy as np

from shapeinv import spectra
from shapeinv.numerics import cumulative_simpson_values
from shapeinv.errors import (GridTooCoarseError, NormalizationError,
                             OrbitError, PoleError, VerificationError)
from shapeinv.families import Family, FamilyKind
from shapeinv.numerics import GridFunction, derivative, integrate

_WHOLE_LINE = (-math.inf, math.inf)


def fix_sign(values) -> np.ndarray:
    """Flip the overall sign so the first significant lobe is positive."""
    v = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return v
    idx = np.nonzero(np.abs(v) > 1e-6 * peak)[0]
    if idx.size and v[idx[0]] < 0.0:
        return -v
    return v


def count_nodes(values) -> int:
    """Strict sign changes among samples above 1e-10 of the peak magnitude."""
    v = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(v))) if v.size else 0.0
    if peak == 0.0:
        return 0
    sig = v[np.abs(v) >= 1e-10 * peak]
    signs = np.sign(sig)
    return int(np.sum(signs[1:] != signs[:-1]))


def _divergent_end(family, p: float, sign: int,
                   anchor: float) -> Optional[str]:
    fresh = Family(params=family.params, kind=family.kind)
    left, right = spectra._seed_end_verdicts(
        family, p, sign, fresh.natural_domain(1.0, anchor, _WHOLE_LINE))
    if left and right:
        return None
    return "right" if left else "left"


def _require_seed_normalizable(family, p: float, sign: int, anchor: float):
    end = _divergent_end(family, p, sign, anchor)
    if end is not None:
        raise NormalizationError(
            f"chain seed at parameter {p:g} is not square integrable "
            f"(divergent toward the {end} end)", divergent_end=end)


def _W_samples(family, xs: np.ndarray, p: float) -> np.ndarray:
    return _finite(family.k(xs, p))


def _normalized(psi: np.ndarray, h: float) -> np.ndarray:
    """psi over its norm on a grid of step h, with the sign fixed."""
    nrm = math.sqrt(max(integrate(psi * psi, h), 0.0))
    if nrm == 0.0:
        raise NormalizationError("state vanished on the grid")
    return fix_sign(psi / nrm)


def _finite(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise PoleError("superpotential is not finite on the working grid")
    return values


def _integral_from_midpoint(values: np.ndarray, h: float) -> np.ndarray:
    acc = cumulative_simpson_values(values, h)
    return acc - acc[values.size // 2]


def _state_seed(family, xs: np.ndarray, h: float, p: float,
                sign: int) -> np.ndarray:
    mid = xs.size // 2
    if family.kind is FamilyKind.AFFINE:
        I0 = _integral_from_midpoint(_finite(family.k0(xs)), h)
        I1 = _integral_from_midpoint(_finite(family.k1(xs)), h)
        s = I0 + p * I1
    else:
        I1 = _integral_from_midpoint(_finite(family.k1(xs)), h)
        s = (family.params.q / p) * (xs - xs[mid]) + p * I1
    s = sign * s
    top = np.max(s)
    if not np.isfinite(top):
        raise PoleError("superpotential is not finite on the working grid")
    return np.exp(s - top)


def _ladder_values(psi: np.ndarray, xs: np.ndarray, h: float, family,
                   p: float, adjoint: bool) -> np.ndarray:
    W = _W_samples(family, xs, p)
    peak = float(np.max(np.abs(psi)))
    if peak > 0.0:
        support = np.abs(psi) >= 1e-6 * peak
        w_max = float(np.max(np.abs(W[support])))
        if h * w_max > 0.5:
            raise GridTooCoarseError(
                f"h * max|W| = {h * w_max:.3g} exceeds 0.5 on the state's "
                "support; refine the grid", h=h, w_max=w_max)
    dpsi = derivative(psi, h)
    return (-dpsi if adjoint else dpsi) + W * psi


def excited_state(family, m, k: int, direction, grid,
                  d: Optional[float] = None) -> spectra.WaveFunction:
    """Level-k bound state of H(m) built by the operator chain."""
    xs, h = grid.x, grid.h
    m = float(m)
    k = int(k)
    if k < 0:
        raise ValueError("level index must be >= 0")
    step = spectra._level(family, m, k, spectra._coerce_direction(direction),
                          spectra._energy_shift(family, d))
    _require_seed_normalizable(family, step.seed_parameter, step.seed_sign,
                               anchor=float(xs[xs.size // 2]))
    psi = _state_seed(family, xs, h, step.seed_parameter, step.seed_sign)
    for p in step.operator_parameters:
        psi = _ladder_values(psi, xs, h, family, p, step.adjoint)
        peak = float(np.max(np.abs(psi)))
        if peak == 0.0:
            raise OrbitError(
                f"ladder chain annihilated the state at parameter {p:g}")
        psi = psi / peak
    psi = _normalized(psi, h)
    nodes = count_nodes(psi[1:-1])
    if nodes != k:
        raise VerificationError(
            f"level {k} state shows {nodes} interior nodes; the grid may be "
            "too coarse or the domain clipped")
    return spectra.WaveFunction(GridFunction(grid, psi), k, step.energy, True)
