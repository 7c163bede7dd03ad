"""The sampling square-integrability probe, kept as a test oracle.

The library decides whether a chain seed exp(s int W) is square integrable
exactly, from the closed forms' residues and end limits
(`spectra.check_normalizable`). This module gives an independent, sampled
answer: it integrates exp(2 int g) over geometric shells that approach
finite ends and double toward infinite ones, and stops once the log of the
mass settles. It can only decide where its 40 stages and the ulps of the
samples reach, so the tests compare the two there.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from shapeinv import spectra
from shapeinv.numerics import cumulative_simpson_values, integrate


@dataclass(frozen=True)
class ProbeReport:
    normalizable: bool
    log_norm: Optional[float]      # log of the L2 norm, with psi(anchor) = 1
    divergent_end: Optional[str]   # 'left' or 'right'
    stages: int

    def __bool__(self) -> bool:
        return self.normalizable


def probe_square_integrable(log_derivative: Callable, domain,
                            anchor: Optional[float] = None,
                            rel_tol: float = 1e-6, max_stages: int = 40,
                            samples: int = 2048) -> ProbeReport:
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
            return ProbeReport(False, None, end, j + 1)
        log_l = advance("left", xs_l, g_l)
        log_r = advance("right", xs_r, g_r)
        total = float(np.logaddexp(log_l, log_r))
        if not np.isfinite(total) or total > 600.0:
            end = "left" if log_l > log_r else "right"
            return ProbeReport(False, None, end, j + 1)
        if prev_total is not None and abs(total - prev_total) < rel_tol:
            return ProbeReport(True, 0.5 * total, None, j + 1)
        if j > 0:
            d_left = log_l - prev_l if np.isfinite(prev_l) else 0.0
            d_right = log_r - prev_r if np.isfinite(prev_r) else 0.0
        prev_total = total
    end = "left" if d_left > d_right else "right"
    return ProbeReport(False, None, end, max_stages)


def seed_log_derivative(family, p: float, sign: int) -> Callable:
    def g(xs):
        return sign * np.asarray(family.k(xs, p), dtype=float)
    return g


def probe_seed(family, m, direction,
               anchor: Optional[float] = None) -> ProbeReport:
    """The probe's answer to `spectra.check_normalizable`'s question: is
    exp(-+int W(., m)) in L2 on the pole-free cell around the anchor?"""
    direction = spectra._coerce_direction(direction)
    sign = +1 if direction is spectra.ChainDirection.DecreasingL else -1
    if anchor is None:
        anchor = spectra._default_anchor(family)
    domain = family.natural_domain(1.0, float(anchor), (-math.inf, math.inf))
    return probe_square_integrable(seed_log_derivative(family, float(m), sign),
                                   domain, anchor=anchor)
