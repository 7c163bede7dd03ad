"""The cumulative quadrature shared by more than one module."""

import numpy as np


def cumulative_simpson_values(ys, h):
    """Cumulative integral of uniformly spaced samples.

    Steps use the quadratic through three neighbouring samples; the first step
    uses the forward variant. Exact for quadratics, O(h^3) cumulative error.
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.size
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * h * (ys[0] + ys[1])
        return out
    scale = h / 12.0
    y0, y1, y2 = ys[:3].tolist()
    steps = np.empty(n - 1)
    steps[0] = scale * (5.0 * y0 + 8.0 * y1 - y2)
    # in place, in the order of scale * (-y[i-1] + 8 y[i] + 5 y[i+1])
    rest = np.multiply(ys[1:-1], 8.0, out=steps[1:])
    rest -= ys[:-2]
    rest += 5.0 * ys[2:]
    rest *= scale
    np.cumsum(steps, out=out[1:])
    return out
