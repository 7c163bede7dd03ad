"""Independent finite-difference machinery for checking analytic results.

Everything here works on plain sample arrays or a callable potential V(x):
a three-point Dirichlet discretization of -psi'' + V psi, a Sturm-sequence
bisection eigensolver whose pivots also give the eigenvectors (a twisted
factorization), five-point derivative stencils, and composite Simpson
quadrature. None of it knows about superpotentials, so agreement with the
closed-form machinery is a genuine cross-check.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from ._grid import Grid
from ._record import Record
from .errors import BoundaryConditionError, PoleError

__all__ = [
    "Grid", "GridFunction", "TridiagonalSym", "hamiltonian_matrix",
    "eigen_lowest", "derivative", "integrate", "inner_product",
    "apply_hamiltonian", "adjointness_defect", "fix_sign",
    "NumericSpectrum", "spectrum_numeric",
]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


class GridFunction(Record):
    _fields = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        vals = np.asarray(values, dtype=float)
        if vals.shape != (grid.n,):
            raise ValueError("values must match the grid size")
        if not np.isfinite(vals).all():
            raise ValueError("grid function values must be finite")
        self.__dict__.update(grid=grid, values=vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.x), dtype=float))

    def derivative(self, order: int = 1) -> "GridFunction":
        return GridFunction(self.grid, derivative(self.values, self.grid.h, order))

    def integrate(self) -> float:
        return integrate(self.values, self.grid.h)

    def norm(self) -> float:
        # scaled by the peak: samples near 1e155 overflow when squared
        peak = float(np.abs(self.values).max())
        if peak == 0.0:
            return 0.0
        scaled = self.values / peak
        return peak * math.sqrt(integrate(scaled * scaled, self.grid.h))


# ---------------------------------------------------------------------------
# stencils and quadrature

def derivative(values, h: float, order: int = 1):
    """Five-point finite-difference derivative of samples spaced h apart;
    GridFunction.derivative applies it on the function's grid."""
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 5:
        raise ValueError("five-point stencils need at least 5 samples")
    # the four boundary rows in Python floats: the same doubles as numpy
    # scalars give, at a fraction of the per-operation cost; the divisor
    # stays a numpy scalar, so h = 0 gives inf or nan as on the interior
    a0, a1, a2, a3, a4 = v[:5].tolist()
    z0, z1, z2, z3, z4 = v[:-6:-1].tolist()   # v[-1], ..., v[-5]
    out = np.empty(n)
    inner = out[2:-2]
    if order == 1:
        den = np.float64(12.0 * h)
        np.multiply(v[1:-3], 8.0, out=inner)
        np.subtract(v[:-4], inner, out=inner)
        inner += 8.0 * v[3:-1]
        inner -= v[4:]
        inner /= den
        out[0] = (-25.0 * a0 + 48.0 * a1 - 36.0 * a2
                  + 16.0 * a3 - 3.0 * a4) / den
        out[1] = (-3.0 * a0 - 10.0 * a1 + 18.0 * a2
                  - 6.0 * a3 + a4) / den
        out[-1] = (25.0 * z0 - 48.0 * z1 + 36.0 * z2
                   - 16.0 * z3 + 3.0 * z4) / den
        out[-2] = (3.0 * z0 + 10.0 * z1 - 18.0 * z2
                   + 6.0 * z3 - z4) / den
        return out
    if order == 2:
        den = np.float64(12.0 * (h * h))
        np.multiply(v[1:-3], 16.0, out=inner)
        np.subtract(inner, v[:-4], out=inner)
        inner -= 30.0 * v[2:-2]
        inner += 16.0 * v[3:-1]
        inner -= v[4:]
        inner /= den
        out[0] = (35.0 * a0 - 104.0 * a1 + 114.0 * a2
                  - 56.0 * a3 + 11.0 * a4) / den
        out[1] = (11.0 * a0 - 20.0 * a1 + 6.0 * a2
                  + 4.0 * a3 - a4) / den
        out[-1] = (35.0 * z0 - 104.0 * z1 + 114.0 * z2
                   - 56.0 * z3 + 11.0 * z4) / den
        out[-2] = (11.0 * z0 - 20.0 * z1 + 6.0 * z2
                   + 4.0 * z3 - z4) / den
        return out
    raise ValueError("order must be 1 or 2")


def integrate(values, h: float) -> float:
    """Composite Simpson rule on samples spaced h apart; a trapezoid picks up
    the last interval when the interval count is odd."""
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        raise ValueError("need at least 2 samples to integrate")
    if n == 2:
        return float(0.5 * h * (v[0] + v[1]))
    m = n if n % 2 == 1 else n - 1
    # Python floats outside the two sums: the same doubles as numpy scalars
    total = (h / 3.0) * (float(v[0]) + float(v[m - 1])
                         + 4.0 * float(v[1:m - 1:2].sum())
                         + 2.0 * float(v[2:m - 1:2].sum()))
    if n % 2 == 0:
        total += 0.5 * h * (float(v[-2]) + float(v[-1]))
    return float(total)


def cumulative_simpson_values(ys, h):
    """Cumulative integral of samples spaced h apart, zero at the first.

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


def inner_product(u, v, h: float) -> float:
    """<u, v> of samples spaced h apart, by composite Simpson (integrate)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("inner product needs equal-length samples")
    return integrate(u * v, h)


# ---------------------------------------------------------------------------
# symmetric tridiagonal matrices

class TridiagonalSym(Record):
    """Symmetric tridiagonal matrix given by its diagonal and off-diagonal."""

    _fields = ("diag", "offdiag")

    def __init__(self, diag: np.ndarray, offdiag: np.ndarray):
        d = np.asarray(diag, dtype=float)
        e = np.asarray(offdiag, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diagonal must be a nonempty 1-d array")
        if e.shape != (d.size - 1,):
            raise ValueError("off-diagonal must have one fewer entry")
        self.__dict__.update(diag=d, offdiag=e)

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out

    def _pivmin(self) -> float:
        # a Python float, so the scalar recurrences never touch numpy scalars
        e2max = float(np.max(self.offdiag * self.offdiag)) if self.offdiag.size else 0.0
        return max(e2max, 1.0) * _TINY / _EPS

    def _sturm_rows(self):
        """Row data of the Sturm recurrence as Python floats; the leading 0.0
        coupling makes the first row (d_0 - sigma) - 0/q = d_0 - sigma. A
        matrix on which the recurrence cannot run raises ValueError: one
        with non-finite entries, one whose padded Gershgorin midpoints,
        d_i - sigma there, or e_i^2 overflow, or one with a coupling above
        eps * big whose square underflows (a smaller one is negligible)."""
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.offdiag))):
            raise ValueError(
                "bisection cannot converge: matrix has non-finite entries")
        lo, hi = self.gershgorin()
        big = max(abs(lo), abs(hi))
        e_abs = np.abs(self.offdiag)
        e_max = float(e_abs.max(initial=0.0))
        if not math.isfinite(max(2.0 * (big + _pad(big)), e_max * e_max)):
            raise ValueError(f"matrix too large for bisection: Gershgorin "
                             f"bracket [{lo!r}, {hi!r}], max |e_i| {e_max!r}")
        e_min = float(e_abs[e_abs > _EPS * big].min(initial=math.inf))
        if e_min * e_min < _TINY:
            raise ValueError(f"matrix too small for bisection: |e_i| = "
                             f"{e_min!r} squares below the smallest normal "
                             f"double at Gershgorin bracket [{lo!r}, {hi!r}]")
        return self.diag.tolist(), [0.0] + (self.offdiag * self.offdiag).tolist()

    def count_below(self, sigma: float) -> int:
        d, e2 = self._sturm_rows()
        return _sturm_count(d, e2, self._pivmin(), float(sigma))

    def gershgorin(self):
        radius = np.zeros(self.n)
        radius[:-1] += np.abs(self.offdiag)
        radius[1:] += np.abs(self.offdiag)
        return float(np.min(self.diag - radius)), float(np.max(self.diag + radius))

    def eigenvalues_lowest(self, k: int) -> np.ndarray:
        """The k lowest eigenvalues, ascending, by Sturm-count bisection.

        Every level walks one fixed bisection tree: the root is the
        Gershgorin bracket widened by pad, a node [a, b] splits at
        0.5 * (a + b), and level i keeps the lower half where
        count(mid) > i. A walk stops at a width relative to the level's
        magnitude, once the midpoint no longer splits the node, or after 220
        splits, and returns the node's midpoint.

        The computed Sturm count is monotone in the shift, so a count taken
        anywhere settles every node whose midpoint lies beyond it. A
        `_ShiftRecord` collects such counts cheaply (doubling up from the
        lower Gershgorin bound, safeguarded Newton steps on det(T - sigma I),
        a bracket around the Newton limit), and `_sturm_count` runs only at a
        node they leave open. Each count holds on a whole rounding cell: the
        shifts s with fl(d_i - s) = fl(d_i - sigma) on every row, which run
        the pass on the same doubles, so a midpoint inside a counted cell
        is settled too. The result is the same double as splitting every
        node with its own count.
        """
        if not 1 <= k <= self.n:
            raise ValueError("k must be between 1 and the matrix size")
        d, e2 = self._sturm_rows()
        lo, hi = self.gershgorin()
        big = max(abs(lo), abs(hi))
        pad = _pad(big)
        pivmin = self._pivmin()
        known = _ShiftRecord(self.diag, d, e2, pivmin, k, _EPS * big + pivmin)
        known.double_up(lo, hi + pad)
        los, his = [], []
        for i in range(k):
            a, b = lo - pad, hi + pad
            polished = False
            splits = 0
            while splits < 220:
                mid = 0.5 * (a + b)
                if (b - a <= 2.0 * _EPS * max(abs(a), abs(b)) + pivmin
                        or not a < mid < b):
                    break
                if mid >= known.upper[i]:
                    b = mid
                elif mid <= known.lower[i]:
                    a = mid
                elif not polished and known.isolates(i):
                    polished = True
                    known.polish(i)
                    continue
                elif known.count(mid) > i:
                    b = mid
                else:
                    a = mid
                splits += 1
            los.append(a)
            his.append(b)
        return 0.5 * (np.array(los) + np.array(his))

    def eigenvector(self, lam: float, prev: Sequence[np.ndarray] = ()) -> np.ndarray:
        """Unit eigenvector at the eigenvalue lam, orthogonalized against the
        orthonormal vectors in prev, from a twisted factorization of T - lam I.

        The top-down pivots D+ and bottom-up pivots D- of LDL^T(T - lam I)
        are `_sturm_count`'s Riccati variable, clamped the same way. They
        meet at a twist row r with gamma_r = D+_r + D-_r - (d_r - lam); the
        vector is z_r = 1, z_i = -e_i z_(i+1) / D+_i above r and
        z_i = -e_(i-1) z_(i-1) / D-_i below it. Rows are taken in increasing
        |gamma_r|, the first being the most accurate; a row is passed over
        when the projection on prev leaves under `_FRESH` of its vector, as
        at a repeated eigenvalue of a split matrix.
        """
        d, e2 = self._sturm_rows()
        pivmin = self._pivmin()
        lam = float(lam)
        plus = _pivots(d, e2, pivmin, lam)
        minus = _pivots(d[::-1], [0.0] + e2[:0:-1], pivmin, lam)[::-1]
        gamma = np.array(plus) + np.array(minus) - (self.diag - lam)
        e = self.offdiag.tolist()
        n = len(d)
        for r in np.argsort(np.abs(gamma), kind="stable").tolist():
            z = [0.0] * n
            z[r] = zi = 1.0
            for i in range(r - 1, -1, -1):
                zi = -e[i] / plus[i] * zi
                z[i] = zi
            zi = 1.0
            for i in range(r + 1, n):
                zi = -e[i - 1] / minus[i] * zi
                z[i] = zi
            v = np.array(z)
            whole = np.linalg.norm(v)
            for p in prev:
                v = v - (p @ v) * p
            nrm = np.linalg.norm(v)
            if nrm > _FRESH * whole:
                return v / nrm
        raise ValueError("no twist row gives a vector independent of prev")


def _pad(big: float) -> float:
    """How far the root bracket reaches past a Gershgorin bracket whose
    ends are at most big in magnitude: relative to big, so that a matrix of
    tiny entries bisects down to its own scale within the split cap."""
    return 2.0 * _EPS * big


# the share of a twisted vector that must survive the projection on the
# earlier vectors; one Gram-Schmidt pass leaves it orthogonal to about eps / share
_FRESH = 1e-3


def _pivots(d, e2, pivmin, sigma):
    """The pivots of `_sturm_count`'s pass at sigma, clamped as it clamps."""
    out = []
    q = 1.0
    for di, ei in zip(d, e2):
        q = (di - sigma) - ei / q
        if -pivmin < q < pivmin:
            q = -pivmin
        out.append(q)
    return out


def _sturm_count(d, e2, pivmin, sigma):
    """Number of eigenvalues strictly below sigma, from the pivots of
    LDL^T(T - sigma I). A pivot inside (-pivmin, pivmin) is clamped to -pivmin
    and counted, so a shift landing exactly on a leading-minor eigenvalue
    still counts it."""
    count = 0
    q = 1.0
    for di, ei in zip(d, e2):
        q = (di - sigma) - ei / q
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
    return count


def _newton_pass(d, e2, pivmin, sigma):
    """`_sturm_count`'s pass at sigma, carrying each pivot's derivative along.

    Returns the count, the same as `_sturm_count` gives, and
    sum_j q_j'/q_j = d/dsigma log|det(T - sigma I)|. Pivots never vanish
    after the clamp, so plain Python floats stay finite or turn inf/nan
    without raising."""
    count = 0
    q = 1.0
    r = 0.0  # q'/q of the previous row
    s = 0.0
    for di, ei in zip(d, e2):
        t = ei / q
        dq = t * r - 1.0
        q = (di - sigma) - t
        if q < pivmin:
            count += 1
            if q > -pivmin:
                q = -pivmin
        r = dq / q
        s += r
    return count, s


# the exponent field of a double: masked out of |x| it leaves the leading
# power of two of a normal x, and 0 for zeros and subnormals
_EXPONENT_BITS = 0x7FF0000000000000


class _ShiftRecord:
    """What the Sturm counts taken so far say about each of the k levels.

    A pass at sigma reads sigma only through the rows' fl(d_i - sigma), so
    its count holds on the whole cell of shifts s with fl(d_i - s) =
    fl(d_i - sigma) on every row (`cell`). For level i, `lower[i]` is the
    largest shift known to count at most i and `upper[i]` the smallest
    known to count above i, with their counts in `lower_count` and
    `upper_count`: the high end of a cell counted at most i, the low end
    of one counted above. By monotonicity of the count, level i's
    bisection goes right at any midpoint <= lower[i] and left at any
    midpoint >= upper[i]."""

    # Newton stops once a step is below NEWTON_RTOL |x| or the noise, or
    # lands in the cell of its last pass; the bracket around its limit
    # starts at x +- HALO * noise, widening fourfold. On the
    # finite-difference matrices the limit lands 0.02 to 0.2 noise units
    # from the level's count step.
    NEWTON_RTOL = 1e-7
    NEWTON_STEPS = 40
    HALO = 0.0625

    def __init__(self, diag, d, e2, pivmin, k, noise):
        """diag: the diagonal as an array, d and e2 the rows as floats;
        noise: eps times the Gershgorin magnitude, plus pivmin: about the
        width within which rounding decides a shift's count."""
        self.diag, self.d, self.e2, self.pivmin, self.k = diag, d, e2, pivmin, k
        self.noise = noise
        self.lower = [-math.inf] * k
        self.lower_count = [-1] * k
        self.upper = [math.inf] * k
        self.upper_count = [len(d) + 1] * k

    def cell(self, sigma):
        """(lo, hi) around sigma with fl(d_i - s) = fl(d_i - sigma) on every
        row for each double s in [lo, hi], so every such s counts as sigma.

        Row i keeps r_i = fl(d_i - sigma) while d_i - s stays within half an
        ulp of r_i. The candidate ends, the tightest of those bounds moved
        one ulp inward (off the rounding ties), are verified by subtracting
        them from the diagonal: fl(d_i - s) is monotone in s, so two ends
        that give the row values bit for bit certify every shift between
        them. An end that fails is replaced by sigma."""
        diag = self.diag
        r = diag - sigma
        # sigma plus row i's rounding error, and half an ulp of |r_i|
        # (a quarter of the gap below a power of two; the check catches it)
        t = diag - r
        half = (r.view(np.int64) & _EXPONENT_BITS).view(float)
        half *= 0.5 * _EPS
        lo = float((t - half).max())
        hi = float((t + half).min())
        lo = min(math.nextafter(lo, math.inf), sigma)
        hi = max(math.nextafter(hi, -math.inf), sigma)
        rows = r.tobytes()
        if lo < sigma and (diag - lo).tobytes() != rows:
            lo = sigma
        if hi > sigma and (diag - hi).tobytes() != rows:
            hi = sigma
        return lo, hi

    def note(self, lo, hi, count):
        """Record that every shift in [lo, hi] counts `count`."""
        for j in range(min(count, self.k)):
            if lo < self.upper[j]:
                self.upper[j], self.upper_count[j] = lo, count
        for j in range(count, self.k):
            if hi > self.lower[j]:
                self.lower[j], self.lower_count[j] = hi, count

    def count(self, sigma):
        c = _sturm_count(self.d, self.e2, self.pivmin, sigma)
        self.note(*self.cell(sigma), c)
        return c

    def double_up(self, lo, top):
        """Counts at lo + s, lo + 2s, lo + 4s, ... below top, until one
        passes every level; s is 1, or a few ulps of lo where that is more."""
        step = max(1.0, 4.0 * _EPS * abs(lo))
        while lo + step < top and self.count(lo + step) < self.k:
            step *= 2.0

    def isolates(self, i):
        """Whether the recorded bracket of level i holds it alone."""
        return self.lower_count[i] == i and self.upper_count[i] == i + 1

    def polish(self, i):
        """Safeguarded Newton on det(T - sigma I) inside level i's isolating
        bracket, then counts around the limit, widened until they bracket the
        level. Every pass is recorded; none decides a node by itself.

        A step into the cell of the pass it came from would only repeat
        that count, so Newton stops there, before the safeguard: the cell
        lies outside the updated bracket, which would bisect instead."""
        x = 0.5 * (self.lower[i] + self.upper[i])
        older = old = self.upper[i] - self.lower[i]
        for _ in range(self.NEWTON_STEPS):
            c, s = _newton_pass(self.d, self.e2, self.pivmin, x)
            lo, hi = self.cell(x)
            self.note(lo, hi, c)
            a, b = self.lower[i], self.upper[i]
            nx = x - 1.0 / s if s else math.nan
            if lo <= nx <= hi:
                x = nx
                break
            if not a < nx < b or abs(nx - x) > 0.5 * older:
                nx = 0.5 * (a + b)
                if not a < nx < b:
                    return
            elif abs(nx - x) <= max(self.NEWTON_RTOL * abs(x), self.noise):
                x = nx
                break
            older, old = old, abs(nx - x)
            x = nx
        else:
            return
        dx = self.HALO * self.noise
        while self.upper[i] - self.lower[i] > 2.0 * dx:
            if self.lower[i] < x - dx:
                self.count(x - dx)
            if x + dx < self.upper[i]:
                self.count(x + dx)
            dx *= 4.0


# ---------------------------------------------------------------------------
# Hamiltonian discretization

def _fd_matrix(V: Callable, xs: np.ndarray, h: float) -> TridiagonalSym:
    """Three-point -d2/dx2 + V with Dirichlet walls over the interior of the
    nodes xs, spaced h apart; V is sampled on every node. The walls never
    enter the matrix, so a potential that blows up exactly there is fine;
    one that is non-finite at an interior node is refused (PoleError), and
    so is a step whose 1/h^2 is not finite (ValueError)."""
    if not callable(V):
        raise TypeError(f"V must be a callable, got {type(V).__name__}")
    Vv = np.asarray(V(xs), dtype=float)
    if Vv.shape != xs.shape:
        raise ValueError("potential samples must match the grid")
    interior = Vv[1:-1]
    bad = ~np.isfinite(interior)
    if np.any(bad):
        raise PoleError("potential is not finite at interior grid points",
                        locations=[float(v) for v in xs[1:-1][bad][:8]])
    inv_h2 = 1.0 / (h * h) if h * h > 0.0 else math.inf
    if not math.isfinite(inv_h2):
        raise ValueError(f"grid step h = {h!r} is too small: 1/h^2 is not "
                         "finite")
    diag = 2.0 * inv_h2 + interior
    off = np.full(interior.size - 1, -inv_h2)
    return TridiagonalSym(diag=diag, offdiag=off)


def hamiltonian_matrix(V: Callable, grid: Grid) -> TridiagonalSym:
    """Dirichlet discretization of -d2/dx2 + V acting on the grid interior,
    refused as `_fd_matrix` refuses; V is a callable, and an array of
    samples raises TypeError."""
    return _fd_matrix(V, grid.x, grid.h)


def eigen_lowest(mat: TridiagonalSym, kmax: int, h: float = 1.0):
    """Lowest kmax eigenpairs, ascending, as a list of (value, vector).

    Vectors come from the twisted factorization at each eigenvalue
    (`TridiagonalSym.eigenvector`), orthogonalized against the earlier ones,
    normalized so h * sum(v^2) = 1, and sign-fixed so the first significant
    lobe is positive.
    """
    evals = mat.eigenvalues_lowest(kmax)
    return [(float(e), v) for e, v in zip(evals, _eigenvectors(mat, evals, h))]


def _eigenvectors(mat: TridiagonalSym, evals, h: float) -> list:
    """eigen_lowest's vectors for the ascending eigenvalues evals: level j
    is orthogonalized against levels 0..j-1."""
    out = []
    done = []
    scale = 1.0 / math.sqrt(h)
    for j in range(len(evals)):
        v = mat.eigenvector(evals[j], prev=done)
        done.append(v)
        out.append(fix_sign(v) * scale)
    return out


def fix_sign(values) -> np.ndarray:
    """Flip the overall sign so the first significant lobe is positive."""
    v = np.asarray(values, dtype=float)
    mag = np.abs(v)
    return _fix_sign(v, mag, float(mag.max()))


def _fix_sign(v: np.ndarray, mag: np.ndarray, peak: float) -> np.ndarray:
    # fix_sign with mag = |v| and peak = max mag already at hand
    if peak == 0.0:
        return v
    above = mag > 1e-6 * peak
    first = int(above.argmax())   # 0 when no sample is above
    if above[first] and v[first] < 0.0:
        return -v
    return v


def apply_hamiltonian(psi_values, V_values, h: float) -> np.ndarray:
    """(-d2/dx2 + V) psi with the five-point second-derivative stencil."""
    psi = np.asarray(psi_values, dtype=float)
    V = np.asarray(V_values, dtype=float)
    if psi.shape != V.shape:
        raise ValueError("psi and V must share the grid")
    return -derivative(psi, h, order=2) + V * psi


def adjointness_defect(W, m, phi: GridFunction, psi: GridFunction) -> float:
    """|<phi, (-d/dx + W) psi> - <psi, (d/dx + W) phi>| on a shared grid.

    W is a callable W(x, m), such as a family's k.
    The two first-order operators are mutually adjoint only when phi*psi dies
    off at the window ends (to 1e-8 of its peak), so that hypothesis is
    checked first and its failure is reported as a boundary-condition error
    rather than a defect.
    """
    if phi.grid != psi.grid:
        raise ValueError("phi and psi must share the grid")
    grid = phi.grid
    u = phi.values
    v = psi.values
    prod = u * v
    scale = max(float(np.max(np.abs(prod))), np.finfo(float).tiny)
    edge = max(abs(prod[0]), abs(prod[-1]))
    if edge > 1e-8 * scale:
        raise BoundaryConditionError(
            "phi*psi does not vanish at the window ends "
            f"(edge/peak = {edge / scale:.3e})")
    Wv = np.asarray(W(grid.x, m), dtype=float)
    if Wv.shape != u.shape:
        raise ValueError("superpotential samples must match the grid")
    raising = -derivative(v, grid.h) + Wv * v
    lowering = derivative(u, grid.h) + Wv * u
    return abs(inner_product(u, raising, grid.h)
               - inner_product(v, lowering, grid.h))


# ---------------------------------------------------------------------------
# full numeric spectrum

class NumericSpectrum(Record):
    """Eigenpairs of a discretized Hamiltonian; iterates as (k, E, vector).

    energies and error_estimate (the Richardson estimate per level, or None)
    are computed on construction. wavefunctions, shape (grid.n, k),
    normalized and sign fixed, come from the twisted factorization of the
    interior matrix at each energy when first read, and are then kept. Copies and unpickled spectra
    start without them and build the same vectors on their first read.
    """

    _fields = ("grid", "energies", "wavefunctions", "error_estimate")

    def __init__(self, grid: Grid, energies: np.ndarray, matrix: TridiagonalSym,
                 error_estimate: Optional[np.ndarray]):
        self.__dict__.update(grid=grid, energies=energies,
                             error_estimate=error_estimate, _matrix=matrix)

    @property
    def wavefunctions(self) -> np.ndarray:
        psi = self.__dict__.get("_psi")
        if psi is None:
            vecs = _eigenvectors(self._matrix, self.energies, self.grid.h)
            psi = np.zeros((self.grid.n, len(vecs)))
            for j, vec in enumerate(vecs):
                psi[1:-1, j] = vec
            self.__dict__["_psi"] = psi
        return psi

    def __reduce__(self):
        return NumericSpectrum, (self.grid, self.energies, self._matrix,
                                 self.error_estimate)

    def __len__(self) -> int:
        return int(self.energies.size)

    def __getitem__(self, k):
        return int(k), float(self.energies[k]), self.wavefunctions[:, k]

    def __iter__(self):
        for k in range(len(self)):
            yield self[k]


def spectrum_numeric(V: Callable, grid: Grid, kmax: int,
                     richardson: bool = True) -> NumericSpectrum:
    """Lowest kmax Dirichlet eigenpairs of -d2/dx2 + V on the grid.

    V is a callable, as for hamiltonian_matrix. Wavefunctions carry the
    boundary zeros and are normalized so that h * sum(psi^2) = 1; they are
    the vectors of eigen_lowest(T, kmax, h), built on their first read. With
    richardson, V is also sampled on the grid's n // 2 + 1 nodes and that
    half-resolution matrix, refused as the fine one is, gives an error
    estimate per energy (nan past its size).
    """
    if not (1 <= kmax <= grid.n - 2):
        raise ValueError("kmax out of range for this grid")
    T = hamiltonian_matrix(V, grid)
    evals = T.eigenvalues_lowest(kmax)

    err = None
    if richardson:
        # Grid needs n >= 16, so the coarse matrix has at least 7 rows
        n2 = grid.n // 2 + 1
        coarse = _fd_matrix(V, np.linspace(grid.x0, grid.x1, n2),
                            (grid.x1 - grid.x0) / (n2 - 1))
        kk = min(kmax, n2 - 2)
        e2 = coarse.eigenvalues_lowest(kk)
        r = (grid.n - 1) / (n2 - 1)
        err = np.full(kmax, np.nan)
        err[:kk] = np.abs(evals[:kk] - e2) / (r * r - 1.0)
    return NumericSpectrum(grid, evals, T, err)
