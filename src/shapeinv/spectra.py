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
exists if its seed is square integrable, which is probed numerically on the
family's pole-free domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from ._quad import cumulative_simpson_values
from .errors import (FamilyError, GridTooCoarseError, NormalizationError,
                     OrbitError, PoleError, VerificationError)
from .families import Family
from .numerics import Grid, GridFunction, derivative, fix_sign, integrate
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
    if isinstance(direction, ChainDirection):
        return direction
    if isinstance(direction, str):
        for member in ChainDirection:
            if direction in (member.value, member.name):
                return member
    raise ValueError(
        "direction must be 'decreasing', 'increasing', or a ChainDirection")


def count_nodes(values, rel_threshold: float = 1e-10) -> int:
    """Strict sign changes among samples above rel_threshold * peak."""
    v = np.asarray(values, dtype=float)
    peak = float(np.max(np.abs(v))) if v.size else 0.0
    if peak == 0.0:
        return 0
    sig = v[np.abs(v) >= rel_threshold * peak]
    signs = np.sign(sig)
    return int(np.sum(signs[1:] != signs[:-1]))


@dataclass(frozen=True)
class WaveFunction:
    """A bound state: grid samples plus (k, energy, normalized) metadata."""

    data: GridFunction
    k: int
    energy: float
    normalized: bool

    @property
    def grid(self) -> Grid:
        return self.data.grid

    @property
    def x(self) -> np.ndarray:
        return self.data.grid.x

    @property
    def values(self) -> np.ndarray:
        return self.data.values

    @property
    def h(self) -> float:
        return self.data.grid.h

    def node_count(self, rel_threshold: float = 1e-10) -> int:
        return count_nodes(self.values, rel_threshold)

    def norm(self) -> float:
        return self.data.norm()

    def as_normalized(self) -> "WaveFunction":
        nrm = self.norm()
        if nrm == 0.0:
            raise NormalizationError("cannot normalize the zero function")
        gf = GridFunction(self.data.grid, self.values / nrm)
        return WaveFunction(gf, self.k, self.energy, True)


def _as_grid(x) -> Tuple[Grid, np.ndarray]:
    # accepts a Grid or a uniform 1-d sample array
    if isinstance(x, Grid):
        return x, x.x
    xs = np.asarray(x, dtype=float)
    if xs.ndim != 1 or xs.size < 16:
        raise ValueError("need a Grid or a 1-d array with at least 16 nodes")
    return Grid(float(xs[0]), float(xs[-1]), int(xs.size)), xs


# ---------------------------------------------------------------------------
# square-integrability probe

@dataclass(frozen=True)
class NormalizabilityReport:
    normalizable: bool
    log_norm: Optional[float]      # log of the L2 norm, with psi(anchor) = 1
    divergent_end: Optional[str]   # 'left' or 'right'
    stages: int

    def __bool__(self) -> bool:
        return self.normalizable


def _probe_square_integrable(log_derivative: Callable, domain,
                             anchor: Optional[float] = None,
                             rel_tol: float = 1e-6, max_stages: int = 40,
                             samples: int = 2048) -> NormalizabilityReport:
    """Decide whether exp(int_anchor^x g) is square integrable on the domain.

    g = log_derivative is integrated over geometric shells: the probed window
    approaches finite endpoints geometrically and doubles toward infinite
    ones, and each stage adds only its new shell, sampled on its own uniform
    mesh. Resampling the whole window instead would wash out any structure g
    has near the anchor (1/x spikes, say) once the window dwarfs it. Each
    stage evaluates g once, on both new shells together. A non-finite g
    counts as divergence toward that side (left first), so overflow inside g
    is expected and not warned about. The mass accumulates in log space so
    nothing overflows. Convergence means the log of the total moved less than
    rel_tol between consecutive stages.
    """
    left, right = float(domain[0]), float(domain[1])
    if not left < right:
        raise ValueError("domain must satisfy left < right")
    if anchor is None:
        if math.isfinite(left) and math.isfinite(right):
            anchor = 0.5 * (left + right)
        elif math.isfinite(left):
            anchor = left + 1.0
        elif math.isfinite(right):
            anchor = right - 1.0
        else:
            anchor = 0.0
    anchor = float(anchor)
    if not left < anchor < right:
        raise ValueError("anchor must lie strictly inside the domain")

    half = max(samples // 2, 64)
    gap_left = 0.5 * (anchor - left) if math.isfinite(left) else None
    gap_right = 0.5 * (right - anchor) if math.isfinite(right) else None

    def edge(side, j):
        if side == "left":
            if gap_left is not None:
                return left + gap_left * 0.5 ** j
            return anchor - 4.0 * 2.0 ** j
        if gap_right is not None:
            return right - gap_right * 0.5 ** j
        return anchor + 4.0 * 2.0 ** j

    # per side: inner shell edge, s at that edge, log of the mass so far
    state = {"left": (anchor, 0.0, -math.inf),
             "right": (anchor, 0.0, -math.inf)}

    def shell(side, j):
        inner, outer = state[side][0], edge(side, j)
        return (np.linspace(outer, inner, half + 1) if side == "left"
                else np.linspace(inner, outer, half + 1))

    def advance(side, xs, g):
        _, s_inner, log_mass = state[side]
        outer = float(xs[0] if side == "left" else xs[-1])
        h = xs[1] - xs[0]
        cum = cumulative_simpson_values(g, h)
        # s is always int_anchor^x g; continuity carries s_inner across shells
        s = s_inner + (cum - cum[-1] if side == "left" else cum)
        two_s = 2.0 * s
        peak = float(np.max(two_s))
        val = integrate(np.exp(two_s - peak), h)
        if val > 0.0 and np.isfinite(peak):
            log_mass = float(np.logaddexp(log_mass, peak + math.log(val)))
        elif not np.isfinite(peak):
            log_mass = math.inf
        s_outer = float(s[0] if side == "left" else s[-1])
        state[side] = (outer, s_outer, log_mass)
        return log_mass

    prev_total = None
    d_left = d_right = 0.0
    for j in range(max_stages):
        prev_l, prev_r = state["left"][2], state["right"][2]
        xs_l, xs_r = shell("left", j), shell("right", j)
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.asarray(log_derivative(np.concatenate((xs_l, xs_r))),
                           dtype=float)
        g_l, g_r = g[:half + 1], g[half + 1:]
        if not np.isfinite(g).all():
            end = "left" if not np.isfinite(g_l).all() else "right"
            return NormalizabilityReport(False, None, end, j + 1)
        log_l = advance("left", xs_l, g_l)
        log_r = advance("right", xs_r, g_r)
        total = float(np.logaddexp(log_l, log_r))
        if not np.isfinite(total) or total > 600.0:
            end = "left" if log_l > log_r else "right"
            return NormalizabilityReport(False, None, end, j + 1)
        if prev_total is not None and abs(total - prev_total) < rel_tol:
            return NormalizabilityReport(True, 0.5 * total, None, j + 1)
        if j > 0:
            d_left = log_l - prev_l if np.isfinite(prev_l) else 0.0
            d_right = log_r - prev_r if np.isfinite(prev_r) else 0.0
        prev_total = total
    end = "left" if d_left > d_right else "right"
    return NormalizabilityReport(False, None, end, max_stages)


def _unbounded_domain(family: Family, anchor: float):
    """Pole-free interval around anchor with no outer window clipping."""
    p = family.params
    if p.sign.kind == "neg":
        span = 2.5 * math.pi / p.sign.c
        window = (anchor - span, anchor + span)
    else:
        window = (anchor - 1e15, anchor + 1e15)
    poles = family.singularities(1.0, window)
    scale = max(abs(anchor), 1.0)
    for pole in poles:
        if abs(pole - anchor) < 1e-12 * scale:
            raise PoleError(f"anchor {anchor} sits on a pole", locations=[pole])
    left = max((pl for pl in poles if pl < anchor), default=-math.inf)
    right = min((pl for pl in poles if pl > anchor), default=math.inf)
    return left, right


def _default_anchor(family: Family) -> float:
    p = family.params
    cee = p.sign.c if p.sign.kind != "zero" else 1.0
    for off in (0.6180339887498949, -0.3819660112501051, 1.227, 2.414):
        cand = p.A + off / cee
        try:
            _unbounded_domain(family, cand)
        except PoleError:
            continue
        return cand
    raise PoleError("no pole-free anchor found near the family's reference point")


def _seed_log_derivative(family: Family, p: float, sign: int) -> Callable:
    def g(xs):
        return sign * np.asarray(family.k(xs, p), dtype=float)
    return g


def _require_seed_normalizable(family: Family, p: float, sign: int, anchor: float):
    domain = _unbounded_domain(family, anchor)
    report = _probe_square_integrable(_seed_log_derivative(family, p, sign),
                                      domain, anchor=anchor)
    if not report.normalizable:
        raise NormalizationError(
            f"chain seed at parameter {p:g} is not square integrable "
            f"(divergent toward the {report.divergent_end} end)",
            divergent_end=report.divergent_end)


def check_normalizable(family: Family, m, direction, probe_domain=None,
                       anchor: Optional[float] = None, rel_tol: float = 1e-6,
                       max_stages: int = 40,
                       samples: int = 2048) -> NormalizabilityReport:
    """Is the direction's ground-state candidate exp(-+int W(., m)) in L2?

    Increasing chains test exp(-int W), decreasing ones exp(+int W). The
    probe integrates exp(+-2 int W) on nested windows inside probe_domain
    (default: the family's maximal pole-free interval around the anchor) and
    reports convergence or the divergent end. The report is truthy exactly
    when the state is square integrable.
    """
    direction = _coerce_direction(direction)
    sign = +1 if direction is ChainDirection.DecreasingL else -1
    if probe_domain is None:
        if anchor is None:
            anchor = _default_anchor(family)
        probe_domain = _unbounded_domain(family, float(anchor))
    return _probe_square_integrable(
        _seed_log_derivative(family, float(m), sign), probe_domain,
        anchor=anchor, rel_tol=rel_tol, max_stages=max_stages, samples=samples)


# ---------------------------------------------------------------------------
# direction resolution and energy bookkeeping

def resolve_direction(family: Family, m, direction=None,
                      anchor: Optional[float] = None,
                      probe: bool = True) -> ChainDirection:
    """Pick the chain direction: explicit wins, then seed probes, then the
    monotonicity of L along the orbit."""
    if direction is not None:
        return _coerce_direction(direction)
    m = float(m)
    if anchor is None:
        anchor = _default_anchor(family)
    if probe:
        try:
            _require_seed_normalizable(family, m, -1, anchor)
            return ChainDirection.IncreasingL
        except (NormalizationError, FamilyError):
            pass
        try:
            _require_seed_normalizable(family, m + 1.0, +1, anchor)
            return ChainDirection.DecreasingL
        except (NormalizationError, FamilyError):
            pass
    try:
        cls = classify_L_sequence(family, m)
    except FamilyError:
        cls = None
    if cls is not None and cls.kind == "decreasing":
        return ChainDirection.DecreasingL
    if cls is not None and cls.kind == "increasing":
        return ChainDirection.IncreasingL
    raise OrbitError(
        "could not resolve a chain direction for this family; pass one explicitly")


def _spacing(family: Family, m: float) -> float:
    try:
        return family.R(m)
    except FamilyError as exc:
        raise OrbitError(f"chain orbit crosses an undefined parameter: {exc}") from exc


def _orbit_spacings(family: Family, m: float, k: int,
                    direction: ChainDirection) -> list:
    """R values consumed by level k, sign-checked along the orbit."""
    out = []
    if direction is ChainDirection.DecreasingL:
        for r in range(k + 1):
            spacing = _spacing(family, m + r)
            if not spacing < 0.0:
                raise OrbitError(
                    f"spacing R({m + r:g}) = {spacing:g} is not negative; "
                    f"the decreasing chain has no level {k}")
            out.append(spacing)
    else:
        for r in range(1, k + 1):
            spacing = _spacing(family, m - r)
            if not spacing > 0.0:
                raise OrbitError(
                    f"spacing R({m - r:g}) = {spacing:g} is not positive; "
                    f"the increasing chain has no level {k}")
            out.append(spacing)
    return out


def energy_level(family: Family, m, k: int, direction,
                 d: Optional[float] = None) -> float:
    """Closed-form energy of level k of H(m): d -+ the partial R sum."""
    m = float(m)
    k = int(k)
    if k < 0:
        raise ValueError("level index must be >= 0")
    direction = _coerce_direction(direction)
    if d is None:
        d = family.params.d
    spacings = _orbit_spacings(family, m, k, direction)
    if direction is ChainDirection.DecreasingL:
        return d - sum(spacings)
    return d + sum(spacings)


def partner_energies(family: Family, m, n_levels: int, direction,
                     d: Optional[float] = None) -> list:
    """Energies of the partner Hamiltonian built from W(., m).

    Decreasing chains keep an extra bottom level at d (the partner's own zero
    mode); increasing chains drop the main tower's ground level.
    """
    direction = _coerce_direction(direction)
    n_levels = int(n_levels)
    if direction is ChainDirection.DecreasingL:
        out = [family.params.d if d is None else float(d)]
        out += [energy_level(family, m, j, direction, d) for j in range(n_levels - 1)]
        return out
    return [energy_level(family, m, j + 1, direction, d) for j in range(n_levels)]


# ---------------------------------------------------------------------------
# states

def _plan_chain(family: Family, m: float, k: int, direction: ChainDirection):
    """Seed parameter/sign and operator parameters, with R-sign validation."""
    _orbit_spacings(family, m, k, direction)
    if direction is ChainDirection.DecreasingL:
        seed_param, seed_sign = m + k + 1.0, +1
        op_params = tuple(m + k - i for i in range(k))
        op_adjoint = False
    else:
        seed_param, seed_sign = m - k, -1
        op_params = tuple(m - k + 1.0 + i for i in range(k))
        op_adjoint = True
    return seed_param, seed_sign, op_params, op_adjoint


def _state_seed(family: Family, xs: np.ndarray, p: float, sign: int) -> np.ndarray:
    h = xs[1] - xs[0]
    W = np.asarray(family.k(xs, p), dtype=float)
    if not np.all(np.isfinite(W)):
        raise PoleError("superpotential is not finite on the working grid")
    # int W anchored to the grid midpoint; the shift to a max of 0 before
    # exponentiating only changes the constant that normalization absorbs
    s = sign * cumulative_simpson_values(W, h)
    s -= s[xs.size // 2]
    s -= np.max(s)
    return np.exp(s)


def _ladder_values(psi: np.ndarray, xs: np.ndarray, family: Family, p: float,
                   adjoint: bool) -> np.ndarray:
    h = float(xs[1] - xs[0])
    W = np.asarray(family.k(xs, p), dtype=float)
    if not np.all(np.isfinite(W)):
        raise PoleError("superpotential is not finite on the working grid")
    peak = float(np.max(np.abs(psi)))
    if peak > 0.0:
        # coarseness gate on the state's support only: a potential blowing up
        # where psi has died off should not block the ladder
        support = np.abs(psi) >= 1e-6 * peak
        w_max = float(np.max(np.abs(W[support])))
        if h * w_max > 0.5:
            raise GridTooCoarseError(
                f"h * max|W| = {h * w_max:.3g} exceeds 0.5 on the state's "
                "support; refine the grid", h=h, w_max=w_max)
    dpsi = derivative(psi, h)
    return (-dpsi if adjoint else dpsi) + W * psi


def ladder_apply(family: Family, m, sign, wf: WaveFunction) -> WaveFunction:
    """Apply (+-d/dx + W(., m)) to a state; 'plus' lowers along the orbit
    (A), 'minus' raises (A*). The result is not re-normalized."""
    if sign in ("plus", +1):
        adjoint = False
    elif sign in ("minus", -1):
        adjoint = True
    else:
        raise ValueError("sign must be 'plus' or 'minus'")
    out = _ladder_values(wf.values, wf.x, family, float(m), adjoint)
    return WaveFunction(GridFunction(wf.grid, out), wf.k, wf.energy, False)


def excited_state(family: Family, m, k: int, direction, grid,
                  d: Optional[float] = None,
                  screen_seed: bool = True) -> WaveFunction:
    """Level-k bound state of H(m) built by the operator chain.

    The chain seeds the shifted-parameter ground state and ladders it back to
    parameter m, then normalizes and fixes the sign. The node count is
    verified against k on the grid interior.
    """
    gobj, xs = _as_grid(grid)
    m = float(m)
    k = int(k)
    if k < 0:
        raise ValueError("level index must be >= 0")
    direction = _coerce_direction(direction)
    seed_param, seed_sign, op_params, op_adjoint = _plan_chain(
        family, m, k, direction)
    if screen_seed:
        _require_seed_normalizable(family, seed_param, seed_sign,
                                   anchor=float(xs[xs.size // 2]))
    psi = _state_seed(family, xs, seed_param, seed_sign)
    h = float(xs[1] - xs[0])
    for p in op_params:
        psi = _ladder_values(psi, xs, family, p, op_adjoint)
        peak = float(np.max(np.abs(psi)))
        if peak == 0.0:
            raise OrbitError(
                f"ladder chain annihilated the state at parameter {p:g}")
        psi = psi / peak
    energy = energy_level(family, m, k, direction, d)
    nrm = math.sqrt(max(integrate(psi * psi, h), 0.0))
    if nrm == 0.0:
        raise NormalizationError("state vanished on the grid")
    psi = fix_sign(psi / nrm)
    nodes = count_nodes(psi[1:-1])
    if nodes != k:
        raise VerificationError(
            f"level {k} state shows {nodes} interior nodes; the grid may be "
            "too coarse or the domain clipped")
    return WaveFunction(GridFunction(gobj, psi), k, energy, True)


def ground_state(family: Family, m, direction, grid,
                 d: Optional[float] = None, check: bool = True) -> WaveFunction:
    """The zero mode exp(-int W(., m)) for increasing chains, or the partner
    tower's bottom exp(+int W(., m)) for decreasing ones; energy d either way."""
    gobj, xs = _as_grid(grid)
    m = float(m)
    direction = resolve_direction(family, m, direction,
                                  anchor=float(xs[xs.size // 2]))
    sign = -1 if direction is ChainDirection.IncreasingL else +1
    if check:
        _require_seed_normalizable(family, m, sign,
                                   anchor=float(xs[xs.size // 2]))
    psi = _state_seed(family, xs, m, sign)
    h = float(xs[1] - xs[0])
    nrm = math.sqrt(max(integrate(psi * psi, h), 0.0))
    if nrm == 0.0:
        raise NormalizationError("state vanished on the grid")
    psi = fix_sign(psi / nrm)
    energy = family.params.d if d is None else float(d)
    return WaveFunction(GridFunction(gobj, psi), 0, energy, True)


# ---------------------------------------------------------------------------
# chains and spectra

@dataclass(frozen=True)
class ChainStep:
    k: int
    energy: float
    seed_parameter: float
    seed_sign: int
    operator_parameters: tuple
    adjoint: bool


@dataclass(frozen=True)
class SpectralChain:
    family: Family
    m: float
    d: float
    direction: ChainDirection
    steps: tuple

    @property
    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.steps])


def build_chain(family: Family, m, n_levels: int, direction,
                d: Optional[float] = None) -> SpectralChain:
    """Operator bookkeeping for the first n_levels, without touching a grid."""
    m = float(m)
    direction = _coerce_direction(direction)
    d_val = family.params.d if d is None else float(d)
    steps = []
    for k in range(int(n_levels)):
        seed_param, seed_sign, op_params, op_adjoint = _plan_chain(
            family, m, k, direction)
        steps.append(ChainStep(
            k=k,
            energy=energy_level(family, m, k, direction, d_val),
            seed_parameter=seed_param,
            seed_sign=seed_sign,
            operator_parameters=op_params,
            adjoint=op_adjoint,
        ))
    return SpectralChain(family=family, m=m, d=d_val, direction=direction,
                         steps=tuple(steps))


def max_level(family: Family, m, direction, anchor: Optional[float] = None,
              limit: int = 64, screen_seeds: bool = True) -> Optional[int]:
    """Highest valid level index, or None when nothing fails below `limit`."""
    m = float(m)
    direction = _coerce_direction(direction)
    if anchor is None:
        anchor = _default_anchor(family)
    for k in range(int(limit)):
        try:
            seed_param, seed_sign, _, _ = _plan_chain(family, m, k, direction)
            if screen_seeds:
                _require_seed_normalizable(family, seed_param, seed_sign, anchor)
        except (OrbitError, NormalizationError):
            return k - 1
    return None


@dataclass(frozen=True)
class SpectrumResult:
    """Closed-form levels of H(m) and of its partner; iterates as (k, E)."""

    family: Family
    m: float
    d: float
    direction: ChainDirection
    requested: int
    levels: tuple                  # ((k, E), ...)
    partner_levels: tuple          # ((k, E), ...) for the W(., m) partner
    truncated: bool
    truncation_reason: Optional[str]

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    @property
    def energies(self) -> np.ndarray:
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
                      anchor: Optional[float] = None,
                      screen_seeds: bool = True) -> SpectrumResult:
    """Levels 0..kmax of H(m) as exact R sums, plus the partner spectrum.

    No grid is touched: energies are finite sums and the only numerics is the
    optional seed screening, which truncates the ladder where the would-be
    state stops being square integrable (or where an R sign flips / the orbit
    leaves the admissible set). The partner list keeps the extra bottom level
    at d for decreasing chains and drops the shared ground level for
    increasing ones.
    """
    m = float(m)
    kmax = int(kmax)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if anchor is None:
        anchor = _default_anchor(family)
    direction = resolve_direction(family, m, direction, anchor=anchor)
    d_val = family.params.d if d is None else float(d)
    levels = []
    reason = None
    for k in range(kmax + 1):
        try:
            energy = energy_level(family, m, k, direction, d_val)
            if screen_seeds:
                seed_param, seed_sign, _, _ = _plan_chain(family, m, k, direction)
                _require_seed_normalizable(family, seed_param, seed_sign, anchor)
        except (OrbitError, NormalizationError) as exc:
            reason = str(exc)
            break
        levels.append((k, energy))
    if direction is ChainDirection.DecreasingL:
        partner = [(0, d_val)] + [(k + 1, e) for k, e in levels]
    else:
        partner = [(k - 1, e) for k, e in levels[1:]]
    return SpectrumResult(
        family=family, m=m, d=d_val, direction=direction, requested=kmax,
        levels=tuple(levels), partner_levels=tuple(partner),
        truncated=len(levels) < kmax + 1, truncation_reason=reason)
