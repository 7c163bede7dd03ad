"""Bound states and spectra assembled from first-order ladder operators.

With W(x, m) = k(x, m) and A(m) = d/dx + W(., m), A*(m) = -d/dx + W(., m):

    H(m) = A*(m) A(m) + d,
    A(m)  maps an H(m) eigenstate at E to an H(m-1) eigenstate at E - R(m-1),
    A*(m) maps an H(m-1) eigenstate at E to an H(m) eigenstate at E + R(m-1).

Chains run in two directions. When L decreases along m -> m-1, level k of
H(m) is reached by seeding exp(+int W(., m+k+1)) and applying
A(m+k), ..., A(m+1); the energies are E_k = d - sum_{r=0..k} R(m+r) and each
R in the sum must be negative. When L increases, the seed is
exp(-int W(., m-k)) pushed up by A*(m-k+1), ..., A*(m); then
E_k = d + sum_{r=1..k} R(m-r) with each R positive. Either way a level only
exists if its seed is square integrable on the family's pole-free cell.

That verdict is exact: k(., p) is gamma(p) f + beta h + kappa(p) over the
closed forms, so the seed's behaviour at each end of the cell follows from a
residue at a pole or a limit at infinity (the unbroken-SUSY criterion of
Cooper, Khare & Sukhatme, applied end by end). It is the library's only
square-integrability rule: `check_normalizable` reports it for a chosen
direction, and the seed screening of every chain raises on it.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import islice
from typing import Iterator, Optional

from ._grid import Grid
from ._record import Record
from .errors import (FamilyError, GridTooCoarseError, NormalizationError,
                     OrbitError, PoleError, VerificationError)
from .families import Family
from .partners import classify_L_sequence

__all__ = [
    "ChainDirection", "WaveFunction", "count_nodes", "check_normalizable",
    "NormalizabilityReport", "resolve_direction", "ground_state",
    "energy_level", "partner_energies", "ladder_apply", "excited_state",
    "ChainStep", "SpectralChain", "build_chain", "max_level",
    "SpectrumResult", "spectrum_analytic",
]


class ChainDirection(Enum):
    DecreasingL = "decreasing"
    IncreasingL = "increasing"


def _coerce_direction(direction) -> ChainDirection:
    try:
        return ChainDirection(direction)   # a member is its own value
    except ValueError:
        raise ValueError("direction must be 'decreasing', 'increasing', "
                         "or a ChainDirection") from None


def count_nodes(values) -> int:
    """Strict sign changes among samples above 1e-10 of the peak magnitude."""
    import numpy as np
    v = np.asarray(values, dtype=float)
    mag = np.abs(v)
    return _count_nodes(v, mag, float(mag.max()) if v.size else 0.0)


def _count_nodes(v, mag, peak: float) -> int:
    # count_nodes with mag = |v| and peak = max mag already at hand
    import numpy as np
    if peak == 0.0:
        return 0
    signs = np.sign(v[mag >= 1e-10 * peak])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


class WaveFunction(Record):
    """A bound state: grid samples plus (k, energy, normalized) metadata."""

    _fields = ("data", "k", "energy", "normalized")

    @property
    def grid(self) -> Grid:
        return self.data.grid

    @property
    def x(self):
        return self.data.grid.x

    @property
    def values(self):
        return self.data.values

    @property
    def h(self) -> float:
        return self.data.grid.h

    def node_count(self) -> int:
        """Sign changes on the grid interior, the samples excited_state checks;
        the end samples only carry the walls' round-off."""
        return count_nodes(self.values[1:-1])

    def norm(self) -> float:
        return self.data.norm()

    def as_normalized(self) -> "WaveFunction":
        nrm = self.norm()
        if nrm == 0.0:
            raise NormalizationError("cannot normalize the zero function")
        gf = type(self.data)(self.data.grid, self.values / nrm)
        return WaveFunction(gf, self.k, self.energy, True)


def _require_grid(grid) -> Grid:
    if not isinstance(grid, Grid):
        raise TypeError(f"states need a numerics.Grid, got {type(grid).__name__}")
    return grid


# ---------------------------------------------------------------------------
# square integrability of chain seeds

class NormalizabilityReport(Record):
    """Is a chain seed square integrable? divergent_end: 'left', 'right' or None."""

    _fields = ("normalizable", "divergent_end")

    def __bool__(self) -> bool:
        return self.normalizable


def _default_anchor(family: Family) -> float:
    """The first pole-free point of A + (0.618, -0.382, 1.227, 2.414)/c."""
    p = family.params
    cee = p.sign.c or 1.0   # c = 0 when a = 0
    for off in (0.6180339887498949, -0.3819660112501051, 1.227, 2.414):
        cand = p.A + off / cee
        try:
            family._pole_free_cell(cand)
        except PoleError:
            continue
        return cand
    raise PoleError("no pole-free anchor found near the family's reference point")


def _seed_end_verdicts(family: Family, p: float, sign: int, cell) -> tuple:
    """(left, right): is exp(sign int k(., p)) square integrable toward each
    end of the pole-free cell?

    k = gamma f + beta h + kappa over the family's closed-form row. Near a
    pole x0, k ~ rho / (x - x0) and the seed ~ |x - x0|^(sign rho), square
    integrable iff 2 sign rho > -1. Toward an infinite end sigma, the seed
    decays iff sigma sign k ends negative. The leading term of k there is
    beta h where h grows (linearly on the rational rows, exponentially on
    Morse), else the limit gamma f_inf + kappa, and when that is 0 the 1/x
    tail rho_inf decides: square integrable iff 2 sign rho_inf < -1.
    Marginal cases are not square integrable.
    """
    gamma, beta, kappa = family._k_coefficients(p)
    form = family.basis()
    out = []
    for sigma, end in ((-1, cell[0]), (+1, cell[1])):
        if math.isfinite(end):
            res_f, res_h = form.residues(end)
            # res h overflows at a far zero-row pole (|B| tiny); beta = 0
            # must not turn that into nan
            rho = gamma * res_f + (beta * res_h if beta != 0.0 else 0.0)
            out.append(2.0 * sign * rho > -1.0)
            continue
        f_inf, f_tail, h_sign = form.end(sigma)
        if beta != 0.0 and h_sign != 0.0:
            lead = beta * h_sign
        else:
            lead = gamma * f_inf + kappa
        if lead != 0.0:
            out.append(sigma * sign * lead < 0.0)
        else:
            out.append(2.0 * sign * gamma * f_tail < -1.0)
    return tuple(out)


def _divergent_end(family: Family, p: float, sign: int,
                   anchor: float) -> Optional[str]:
    """None when the seed exp(sign int W(., p)) is square integrable on the
    pole-free cell around anchor, else its divergent end: the left one when
    both diverge. The verdict depends on the cell alone; the family's scalar
    memo holds the cell per anchor and the verdict per (p, sign, cell)."""
    cell = family._pole_free_cell(anchor)
    key = ("seed", p, sign, cell)
    verdict = family._memo.get(key)
    if verdict is None:
        verdict = family._remember(
            key, _seed_end_verdicts(family, p, sign, cell))
    left, right = verdict
    if left and right:
        return None
    return "right" if left else "left"


def _require_seed_normalizable(family: Family, p: float, sign: int, anchor: float):
    end = _divergent_end(family, p, sign, anchor)
    if end is not None:
        raise NormalizationError(
            f"chain seed at parameter {p:g} is not square integrable "
            f"(divergent toward the {end} end)", divergent_end=end)


def check_normalizable(family: Family, m, direction,
                       anchor: Optional[float] = None) -> NormalizabilityReport:
    """Is the direction's ground-state candidate exp(-+int W(., m)) in L2 on
    the pole-free cell around the anchor (default: the family's reference
    point)?

    Increasing chains test exp(-int W), decreasing ones exp(+int W). The
    verdict is the exact one of the seed screening; the report names the
    divergent end and is truthy exactly when the state is square integrable.
    """
    direction = _coerce_direction(direction)
    sign = +1 if direction is ChainDirection.DecreasingL else -1
    if anchor is None:
        anchor = _default_anchor(family)
    end = _divergent_end(family, float(m), sign, float(anchor))
    return NormalizabilityReport(end is None, end)


# ---------------------------------------------------------------------------
# direction resolution and energy bookkeeping

def resolve_direction(family: Family, m, direction=None,
                      anchor: Optional[float] = None) -> ChainDirection:
    """Pick the chain direction: explicit wins, then the seed verdicts, then
    the monotonicity of L along the orbit. An m outside the family's
    admissible set raises FamilyError before any of that."""
    m = family._require_m(m)
    if direction is not None:
        return _coerce_direction(direction)
    if anchor is None:
        anchor = _default_anchor(family)
    for candidate in (ChainDirection.IncreasingL, ChainDirection.DecreasingL):
        try:
            _require_seed_normalizable(family, *_seed(m, 0, candidate), anchor)
            return candidate
        except (NormalizationError, FamilyError):
            pass
    try:
        trend = classify_L_sequence(family, m).kind
    except FamilyError:
        trend = None
    if trend in ("decreasing", "increasing"):
        return ChainDirection(trend)
    raise OrbitError(
        "could not resolve a chain direction for this family; pass one explicitly")


def _spacing(family: Family, m: float) -> float:
    try:
        return family.R(m)
    except FamilyError as exc:
        raise OrbitError(f"chain orbit crosses an undefined parameter: {exc}") from exc


class ChainStep(Record):
    _fields = ("k", "energy", "seed_parameter", "seed_sign",
               "operator_parameters", "adjoint")


# The running R sums of an orbit are held through at most this many levels;
# deeper levels are summed anew on every walk.
_ORBIT_MEMO_LEVELS = 1 << 12


def _orbit(family: Family, m: float, direction: ChainDirection, d: float,
           last: Optional[int] = None) -> Iterator[float]:
    """The energies of levels 0, 1, 2, ... of H(m), through `last` if given.

    Energies are d -+ a running sum of the R values along the orbit, each
    sign-checked as it is added. The first level whose spacing is undefined
    or of the wrong sign raises OrbitError, naming that level, or `last` when
    a single level was asked for. The sums do not depend on d and are held
    in the family's scalar memo per (m, direction), so a request walks its
    orbit once; a failure is not held, and every walk that reaches it raises
    it anew.
    """
    decreasing = direction is ChainDirection.DecreasingL
    key = ("orbit", m, direction)
    sums = family._memo.get(key)
    if sums is None:
        sums = family._remember(key, [])
    total = 0.0
    k = 0
    while last is None or k <= last:
        if k < len(sums):
            total = sums[k]
        else:
            named = k if last is None else last
            if decreasing:
                spacing = _spacing(family, m + k)
                if not spacing < 0.0:
                    raise OrbitError(
                        f"spacing R({m + k:g}) = {spacing:g} is not negative; "
                        f"the decreasing chain has no level {named}")
                total += spacing
            elif k > 0:
                spacing = _spacing(family, m - k)
                if not spacing > 0.0:
                    raise OrbitError(
                        f"spacing R({m - k:g}) = {spacing:g} is not positive; "
                        f"the increasing chain has no level {named}")
                total += spacing
            if k == len(sums) < _ORBIT_MEMO_LEVELS:
                sums.append(total)
        yield d - total if decreasing else d + total
        k += 1


def _seed(m: float, k: int, direction: ChainDirection) -> tuple:
    """(parameter, sign) of level k's chain seed exp(sign int W(., p))."""
    if direction is ChainDirection.DecreasingL:
        return m + k + 1.0, +1
    return m - k, -1


def _screened(family: Family, m: float, direction: ChainDirection, d: float,
              anchor: float) -> Iterator[float]:
    """The energies of `_orbit`, each yielded once its level's chain seed is
    square integrable on the cell around anchor. The walk ends by raising
    the OrbitError or NormalizationError of the first level that fails."""
    for k, energy in enumerate(_orbit(family, m, direction, d)):
        _require_seed_normalizable(family, *_seed(m, k, direction), anchor)
        yield energy


def _step(m: float, k: int, direction: ChainDirection,
          energy: float) -> ChainStep:
    """Level k's chain: its seed and the k ladder parameters back to m."""
    p, sign = _seed(m, k, direction)
    ops = (m + k - i if sign > 0 else m - k + 1.0 + i for i in range(k))
    return ChainStep(k, energy, p, sign, tuple(ops), sign < 0)


def _level(family: Family, m: float, k: int, direction: ChainDirection,
           d: float) -> ChainStep:
    for energy in _orbit(family, m, direction, d, last=k):
        pass
    return _step(m, k, direction, energy)


def _energy_shift(family: Family, d) -> float:
    return family.params.d if d is None else float(d)


def energy_level(family: Family, m, k: int, direction,
                 d: Optional[float] = None) -> float:
    """Closed-form energy of level k of H(m): d -+ the partial R sum."""
    k = int(k)
    if k < 0:
        raise ValueError("level index must be >= 0")
    return _level(family, float(m), k, _coerce_direction(direction),
                  _energy_shift(family, d)).energy


def partner_energies(family: Family, m, n_levels: int, direction,
                     d: Optional[float] = None) -> list:
    """Energies of the partner Hamiltonian built from W(., m).

    Decreasing chains keep an extra bottom level at d (the partner's own zero
    mode); increasing chains drop the main tower's ground level.
    """
    direction = _coerce_direction(direction)
    n_levels = max(int(n_levels), 0)
    d_val = _energy_shift(family, d)
    walk = _orbit(family, float(m), direction, d_val)
    if direction is ChainDirection.DecreasingL:
        return [d_val] + list(islice(walk, max(n_levels - 1, 0)))
    return list(islice(walk, 1, n_levels + 1))


# ---------------------------------------------------------------------------
# states

def _unit_norm(psi, norm2: float):
    """psi, a fresh array, divided in place by its norm sqrt(norm2), norm2 = int psi^2."""
    nrm = math.sqrt(max(norm2, 0.0))
    if nrm == 0.0:
        raise NormalizationError("state vanished on the grid")
    psi /= nrm
    return psi


def _state_seed(s, sign: int):
    """exp(sign s) for s = int W, in place, with a peak of 1."""
    # the shift to a max of 0 before exponentiating only changes the
    # constant that normalization absorbs. A sum that overflowed toward +inf
    # (or to nan) leaves no finite max and is refused like a non-finite W;
    # toward -inf the seed is exactly 0 there
    import numpy as np
    if sign < 0:
        np.negative(s, out=s)
    top = float(s.max())
    if not math.isfinite(top):
        raise PoleError("superpotential is not finite on the working grid")
    s -= top
    return np.exp(s, out=s)


def _ladder_values(psi, dpsi, h: float, W, w_all: float, adjoint: bool, peak: float):
    """(+-d/dx + W) psi from dpsi = psi' on a grid of step h, where
    w_all = max|W| and peak = max|psi|."""
    # coarseness gate on the state's support only: a potential blowing up
    # where psi has died off should not block the ladder. The max over the
    # support is at most w_all, the max over the grid, so when h * w_all
    # passes the support is not looked at. The support is empty only when
    # psi holds nan, a state refused further on.
    if h * w_all > 0.5 and peak > 0.0:
        support = abs(psi) >= 1e-6 * peak
        w_max = float(abs(W[support]).max(initial=0.0))
        if h * w_max > 0.5:
            raise GridTooCoarseError(
                f"h * max|W| = {h * w_max:.3g} exceeds 0.5 on the state's "
                "support; refine the grid", h=h, w_max=w_max)
    out = W * psi
    # -dpsi + W psi and W psi - dpsi are the same doubles
    if adjoint:
        out -= dpsi
    else:
        out += dpsi
    return out


def ladder_apply(family: Family, m, sign, wf: WaveFunction) -> WaveFunction:
    """Apply (+-d/dx + W(., m)) to a state; 'plus' lowers along the orbit
    (A), 'minus' raises (A*). The result is not re-normalized."""
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    from . import numerics
    psi, h = wf.values, wf.h
    W_at = family._chain_table(wf.x, h)[1]
    out = _ladder_values(psi, numerics.derivative(psi, h), h, *W_at(m),
                         sign == "minus", float(abs(psi).max()))
    return WaveFunction(numerics.GridFunction(wf.grid, out), wf.k, wf.energy, False)


def _state_step(family: Family, m, k: int, direction, anchor, d=None) -> ChainStep:
    """Level k's chain, once excited_state's refusals that read no node pass:
    the level walk, and the seed's verdict on the cell around the anchor
    (excited_state's is the grid's middle)."""
    m, k = float(m), int(k)
    if k < 0:
        raise ValueError("level index must be >= 0")
    step = _level(family, m, k, _coerce_direction(direction), _energy_shift(family, d))
    _require_seed_normalizable(family, step.seed_parameter, step.seed_sign, anchor)
    return step


def excited_state(family: Family, m, k: int, direction, grid,
                  d: Optional[float] = None) -> WaveFunction:
    """Level-k bound state of H(m) built by the operator chain on a
    numerics.Grid.

    The chain seeds the shifted-parameter ground state and ladders it back to
    parameter m, then normalizes and fixes the sign. The node count is
    verified against k on the grid interior.

    Each state entering a ladder step has a peak of exactly 1: the seed is
    exp(s - max s), and every step divides by its own peak. The state
    fetches the grid's chain readers once (Family._chain_table): the seed
    reads the grid's held integrals of k0 and k1, and each ladder step
    builds W(., p) from the grid's held (k0, k1) pair; the refusals of
    _state_step come before any node is read.
    """
    h = _require_grid(grid).h
    step = _state_step(family, m, k, direction, grid.mid, d)
    import numpy as np
    from . import numerics
    integral, W_at = family._chain_table(grid.x, h)
    psi = _state_seed(integral(step.seed_parameter), step.seed_sign)
    for p in step.operator_parameters:
        psi = _ladder_values(psi, numerics.derivative(psi, h), h, *W_at(p),
                             step.adjoint, 1.0)
        peak = float(np.abs(psi).max())
        if peak == 0.0:
            raise OrbitError(
                f"ladder chain annihilated the state at parameter {p:g}")
        psi /= peak
    psi = _unit_norm(psi, numerics.integrate(psi * psi, h))
    # one |psi| and one peak for the node count and the sign, which a flip
    # leaves alone: the node count reads the interior, the sign the grid
    mag = np.abs(psi)
    inner = float(mag[1:-1].max())
    nodes = _count_nodes(psi[1:-1], mag[1:-1], inner)
    if nodes != step.k:
        raise VerificationError(
            f"level {step.k} state shows {nodes} interior nodes; the grid "
            "may be too coarse or the domain clipped")
    psi = numerics._fix_sign(psi, mag, max(inner, float(mag[0]), float(mag[-1])))
    return WaveFunction(numerics.GridFunction(grid, psi), step.k, step.energy, True)


def ground_state(family: Family, m, direction, grid,
                 d: Optional[float] = None) -> WaveFunction:
    """The zero mode exp(-int W(., m)) for increasing chains, or the partner
    tower's bottom exp(+int W(., m)) for decreasing ones, on a numerics.Grid;
    energy d either way."""
    h = _require_grid(grid).h
    m = float(m)
    anchor = grid.mid
    direction = resolve_direction(family, m, direction, anchor=anchor)
    sign = -1 if direction is ChainDirection.IncreasingL else +1
    _require_seed_normalizable(family, m, sign, anchor=anchor)
    from . import numerics
    psi = _state_seed(family._chain_table(grid.x, h)[0](m), sign)
    psi = numerics.fix_sign(_unit_norm(psi, numerics.integrate(psi * psi, h)))
    return WaveFunction(numerics.GridFunction(grid, psi), 0, _energy_shift(family, d), True)


# ---------------------------------------------------------------------------
# chains and spectra

class SpectralChain(Record):
    _fields = ("family", "m", "d", "direction", "steps")

    @property
    def energies(self):
        import numpy as np
        return np.array([s.energy for s in self.steps])


def build_chain(family: Family, m, n_levels: int, direction,
                d: Optional[float] = None) -> SpectralChain:
    """Operator bookkeeping for the first n_levels, without touching a grid."""
    m = float(m)
    direction = _coerce_direction(direction)
    d_val = _energy_shift(family, d)
    steps = tuple(_step(m, k, direction, energy) for k, energy in
                  enumerate(islice(_orbit(family, m, direction, d_val),
                                   max(int(n_levels), 0))))
    return SpectralChain(family, m, d_val, direction, steps)


def max_level(family: Family, m, direction, anchor: Optional[float] = None,
              limit: int = 64) -> Optional[int]:
    """Highest valid level index, or None when nothing fails below `limit`."""
    if anchor is None:
        anchor = _default_anchor(family)
    levels = _screened(family, float(m), _coerce_direction(direction),
                       family.params.d, anchor)
    try:
        for k in range(int(limit)):
            next(levels)
    except (OrbitError, NormalizationError):
        return k - 1
    return None


class SpectrumResult(Record):
    """Closed-form levels of H(m) and of its partner; iterates as (k, E).

    levels and partner_levels (for the W(., m) partner) are ((k, E), ...).
    """

    _fields = ("family", "m", "d", "direction", "requested", "levels",
               "partner_levels", "truncated", "truncation_reason")

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    @property
    def energies(self):
        import numpy as np
        return np.array([e for _, e in self.levels])

    def to_json(self) -> dict:
        out = {
            "m": self.m,
            "direction": self.direction.value,
            "levels": [{"k": k, "E": e} for k, e in self.levels],
            "partner_levels": [{"k": k, "E": e} for k, e in self.partner_levels],
            "truncated": self.truncated,
        }
        if self.truncated:
            out["truncation_reason"] = self.truncation_reason
        return out


def spectrum_analytic(family: Family, m, kmax: int, direction=None,
                      d: Optional[float] = None,
                      anchor: Optional[float] = None) -> SpectrumResult:
    """Levels 0..kmax of H(m) as exact R sums, plus the partner spectrum.

    Nothing is sampled: energies are finite sums, and the seed screening
    reads the closed forms' residues and limits to truncate the ladder where
    the would-be state stops being square integrable (or where an R sign
    flips / the orbit leaves the admissible set). The partner list
    keeps the extra bottom level at d for decreasing chains and drops the
    shared ground level for increasing ones.
    """
    m = float(m)
    kmax = int(kmax)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if anchor is None:
        anchor = _default_anchor(family)
    direction = resolve_direction(family, m, direction, anchor=anchor)
    d_val = _energy_shift(family, d)
    levels = []
    reason = None
    try:
        for level in zip(range(kmax + 1),
                         _screened(family, m, direction, d_val, anchor)):
            levels.append(level)
    except (OrbitError, NormalizationError) as exc:
        reason = str(exc)
    if direction is ChainDirection.DecreasingL:
        partner = [(0, d_val)] + [(k + 1, e) for k, e in levels]
    else:
        partner = [(k - 1, e) for k, e in levels[1:]]
    return SpectrumResult(family, m, d_val, direction, kmax, tuple(levels),
                          tuple(partner), len(levels) < kmax + 1, reason)
