"""Closed-form solutions of constant-coefficient Riccati equations.

Everything here is exact: solutions and their derivatives are evaluated from
explicit formulas, never from finite differences. The normal form used
throughout is

    y'(x) = a - y(x)^2        (constant a)

whose general solution depends on the sign of a, an offset A, and a mixing
constant B that may be the point at infinity. A companion linear problem
y z + z' = b is solved in the same closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._quad import cumulative_simpson, cumulative_simpson_values
from .errors import PoleError


@dataclass(frozen=True)
class ExtendedReal:
    """A real constant, or the point at infinity (value is None)."""

    value: Union[float, None]

    def __post_init__(self):
        if self.value is not None:
            v = float(self.value)
            if math.isnan(v):
                raise ValueError("ExtendedReal cannot hold NaN")
            if math.isinf(v):
                object.__setattr__(self, "value", None)
            else:
                object.__setattr__(self, "value", v)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def to_json(self):
        return "inf" if self.value is None else self.value

    def __repr__(self):
        return "ExtendedReal(inf)" if self.value is None else f"ExtendedReal({self.value})"


INFINITY = ExtendedReal(None)


def as_extended(v) -> ExtendedReal:
    """Coerce a float, int, 'inf', or ExtendedReal to ExtendedReal."""
    if isinstance(v, ExtendedReal):
        return v
    if isinstance(v, str):
        if v.lower() in ("inf", "+inf", "-inf", "infinity"):
            return INFINITY
        return ExtendedReal(float(v))
    return ExtendedReal(float(v))


def _prep(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(vals, scalar):
    return float(vals) if scalar else vals


# Stable hyperbolic-class helpers. The raw sinh/cosh ratios turn into inf/inf
# for |th| beyond ~710, so the fractions below are rewritten to stay finite at
# any argument while remaining algebraically identical.

def _sech(th):
    e = np.exp(-np.abs(np.asarray(th, dtype=float)))
    return 2.0 * e / (1.0 + e * e)


def _pos_fraction(th, B):
    """(num, den) with num/den = (B sinh - cosh)/(B cosh - sinh)."""
    th = np.asarray(th, dtype=float)
    if B == 1.0:
        return -np.ones_like(th), np.ones_like(th)
    if B == -1.0:
        return np.ones_like(th), np.ones_like(th)
    t = np.tanh(th)
    return B * t - 1.0, B - t


def _pos_recip(th, B):
    """(num, den) with num/den = -1/(B cosh - sinh)."""
    th = np.asarray(th, dtype=float)
    if B == 1.0:
        return -np.exp(th), np.ones_like(th)
    if B == -1.0:
        return np.exp(-th), np.ones_like(th)
    e = np.exp(-np.abs(th))
    g = np.where(th >= 0.0,
                 0.5 * (B - 1.0) + 0.5 * (B + 1.0) * e * e,
                 0.5 * (B + 1.0) + 0.5 * (B - 1.0) * e * e)
    return -e, g


@dataclass(frozen=True)
class ConstRiccati:
    """y' = a2 y^2 + a1 y + a0 with constant coefficients, a2 != 0."""

    a2: float
    a1: float
    a0: float

    def __post_init__(self):
        if self.a2 == 0:
            raise ValueError("a2 must be nonzero for a Riccati equation")


def discriminant(eq: ConstRiccati) -> float:
    return eq.a1 * eq.a1 - 4.0 * eq.a0 * eq.a2


def constant_solutions(eq: ConstRiccati) -> list:
    """Real constant solutions, ascending. Empty when the discriminant is negative."""
    disc = discriminant(eq)
    if disc < 0:
        return []
    if disc == 0:
        return [-eq.a1 / (2.0 * eq.a2)]
    s = math.sqrt(disc)
    r1 = (-eq.a1 - s) / (2.0 * eq.a2)
    r2 = (-eq.a1 + s) / (2.0 * eq.a2)
    return sorted((r1, r2))


@dataclass(frozen=True)
class RiccatiSolution:
    """General solution of y' = a - y^2 for one (a, A, B) choice.

    The three sign classes use hyperbolic, rational, and trigonometric forms
    respectively; B = infinity selects the dedicated limiting form rather
    than a large finite value.
    """

    a: float
    A: float
    B: ExtendedReal

    @property
    def kind(self) -> str:
        if self.a > 0:
            return "pos"
        if self.a < 0:
            return "neg"
        return "zero"

    @property
    def c(self) -> float:
        return math.sqrt(abs(self.a))

    def _theta(self, x):
        return self.c * (x - self.A)

    def _denominator(self, x):
        kind = self.kind
        if self.B.is_infinite:
            if kind == "pos":
                return np.cosh(self._theta(x))
            if kind == "zero":
                return x - self.A
            return np.cos(self._theta(x))
        Bv = self.B.value
        if kind == "pos":
            th = self._theta(x)
            return Bv * np.cosh(th) - np.sinh(th)
        if kind == "zero":
            return 1.0 + Bv * (x - self.A)
        th = self._theta(x)
        return Bv * np.cos(th) - np.sin(th)

    def _check_regular(self, x, den):
        if np.any(den == 0.0):
            bad = np.atleast_1d(np.asarray(x, dtype=float))[np.atleast_1d(den) == 0.0]
            raise PoleError(
                f"Riccati solution evaluated at a singular point (x = {bad[:3].tolist()}...)",
                locations=bad.tolist(),
            )

    def evaluate(self, x):
        arr, scalar = _prep(x)
        kind = self.kind
        c = self.c
        if self.B.is_infinite:
            if kind == "pos":
                return _ret(c * np.tanh(self._theta(arr)), scalar)
            if kind == "zero":
                den = arr - self.A
                self._check_regular(arr, den)
                return _ret(1.0 / den, scalar)
            th = self._theta(arr)
            den = np.cos(th)
            self._check_regular(arr, den)
            return _ret(-c * np.tan(th), scalar)
        Bv = self.B.value
        if kind == "pos":
            num, den = _pos_fraction(self._theta(arr), Bv)
            self._check_regular(arr, den)
            return _ret(c * num / den, scalar)
        if kind == "zero":
            den = 1.0 + Bv * (arr - self.A)
            self._check_regular(arr, den)
            return _ret(Bv / den, scalar)
        th = self._theta(arr)
        sn, cs = np.sin(th), np.cos(th)
        num = Bv * sn + cs
        den = Bv * cs - sn
        self._check_regular(arr, den)
        return _ret(-c * num / den, scalar)

    __call__ = evaluate

    def derivative(self, x):
        """dy/dx from the closed form (quotient rule), not from the equation."""
        arr, scalar = _prep(x)
        kind = self.kind
        c = self.c
        if self.B.is_infinite:
            if kind == "pos":
                ch = np.cosh(self._theta(arr))
                return _ret(c * c / (ch * ch), scalar)
            if kind == "zero":
                den = arr - self.A
                self._check_regular(arr, den)
                return _ret(-1.0 / (den * den), scalar)
            cs = np.cos(self._theta(arr))
            self._check_regular(arr, cs)
            return _ret(-c * c / (cs * cs), scalar)
        Bv = self.B.value
        if kind == "pos":
            kappa = Bv * Bv - 1.0
            if kappa == 0.0:
                return _ret(np.zeros_like(arr), scalar)
            hn, hd = _pos_recip(self._theta(arr), Bv)
            self._check_regular(arr, hd)
            h = hn / hd
            return _ret(c * c * kappa * h * h, scalar)
        if kind == "zero":
            den = self._denominator(arr)
            self._check_regular(arr, den)
            return _ret(-Bv * Bv / (den * den), scalar)
        den = self._denominator(arr)
        self._check_regular(arr, den)
        return _ret(-c * c * (Bv * Bv + 1.0) / (den * den), scalar)

    def singularities(self, window) -> list:
        """Poles inside [lo, hi], each polished by one Newton step on the denominator."""
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise ValueError("window must satisfy lo < hi")
        kind = self.kind
        c = self.c
        roots: list = []
        if kind == "pos":
            if self.B.is_infinite:
                return []
            Bv = self.B.value
            if abs(Bv) < 1.0:
                roots = [self.A + math.atanh(Bv) / c]
            else:
                return []
        elif kind == "zero":
            if self.B.is_infinite:
                roots = [self.A]
            else:
                Bv = self.B.value
                if Bv == 0.0:
                    return []
                roots = [self.A - 1.0 / Bv]
        else:
            if self.B.is_infinite:
                base = math.pi / 2.0
            else:
                base = math.atan(self.B.value)
            # theta = base + j*pi, x = A + theta/c; pick all j landing in the window
            j_lo = math.floor((c * (lo - self.A) - base) / math.pi) - 1
            j_hi = math.ceil((c * (hi - self.A) - base) / math.pi) + 1
            if j_hi - j_lo > 5_000_000:
                raise ValueError(
                    f"window spans about {j_hi - j_lo:.2e} poles; narrow it")
            roots = [self.A + (base + j * math.pi) / c for j in range(j_lo, j_hi + 1)]
        out = []
        for r in roots:
            r = self._polish_root(r)
            if lo <= r <= hi:
                out.append(r)
        return sorted(out)

    def _polish_root(self, r):
        kind = self.kind
        c = self.c
        if self.B.is_infinite:
            if kind == "zero":
                return r
            th = c * (r - self.A)
            if kind == "pos":
                return r
            den, dden = math.cos(th), -c * math.sin(th)
        else:
            Bv = self.B.value
            th = c * (r - self.A)
            if kind == "pos":
                den = Bv * math.cosh(th) - math.sinh(th)
                dden = c * (Bv * math.sinh(th) - math.cosh(th))
            elif kind == "zero":
                return r
            else:
                den = Bv * math.cos(th) - math.sin(th)
                dden = -c * (Bv * math.sin(th) + math.cos(th))
        if dden != 0.0:
            r = r - den / dden
        return r


def general_solution(a: float, A: float, B) -> RiccatiSolution:
    """Closed-form solution of y' = a - y^2 with offset A and mixing constant B."""
    return RiccatiSolution(a=float(a), A=float(A), B=as_extended(B))


@dataclass(frozen=True)
class ZSolution:
    """Closed form z with y(x) z(x) + z'(x) = b, built over a RiccatiSolution y."""

    b: float
    D: float
    y: RiccatiSolution

    def _parts(self, arr):
        # returns (numerator, denominator, u) for the finite-B rational forms;
        # u = B sin + cos is the trigonometric numerator (None for 'zero')
        y = self.y
        c = y.c
        if y.kind == "zero":
            t = arr - y.A
            Bv = y.B.value
            return (self.b * (0.5 * t * (2.0 + Bv * t)) + self.D, 1.0 + Bv * t,
                    None)
        th = y._theta(arr)
        sn, cs = np.sin(th), np.cos(th)
        u = y.B.value * sn + cs
        v = y.B.value * cs - sn
        return (self.b / c) * u - self.D, v, u

    def _pos_fh(self, arr):
        y = self.y
        th = y._theta(arr)
        fn, fd = _pos_fraction(th, y.B.value)
        hn, hd = _pos_recip(th, y.B.value)
        y._check_regular(arr, fd)
        y._check_regular(arr, hd)
        return fn / fd, hn / hd

    def evaluate(self, x):
        arr, scalar = _prep(x)
        y = self.y
        c = y.c
        if y.B.is_infinite:
            if y.kind == "pos":
                th = y._theta(arr)
                return _ret((self.b / c) * np.tanh(th) + self.D * _sech(th), scalar)
            if y.kind == "zero":
                t = arr - y.A
                y._check_regular(arr, t)
                return _ret(0.5 * self.b * t + self.D / t, scalar)
            th = y._theta(arr)
            cs = np.cos(th)
            y._check_regular(arr, cs)
            return _ret((self.b / c) * np.tan(th) + self.D / cs, scalar)
        if y.kind == "pos":
            f, h = self._pos_fh(arr)
            return _ret((self.b / c) * f + self.D * h, scalar)
        num, den, _ = self._parts(arr)
        y._check_regular(arr, den)
        return _ret(num / den, scalar)

    __call__ = evaluate

    def derivative(self, x):
        arr, scalar = _prep(x)
        y = self.y
        c = y.c
        b = self.b
        if y.B.is_infinite:
            if y.kind == "pos":
                th = y._theta(arr)
                sech = _sech(th)
                return _ret(b * sech * sech - c * self.D * sech * np.tanh(th), scalar)
            if y.kind == "zero":
                t = arr - y.A
                y._check_regular(arr, t)
                return _ret(0.5 * b - self.D / (t * t), scalar)
            th = y._theta(arr)
            cs = np.cos(th)
            y._check_regular(arr, cs)
            sec = 1.0 / cs
            return _ret(b * sec * sec + c * self.D * sec * np.tan(th), scalar)
        if y.kind == "pos":
            f, h = self._pos_fh(arr)
            z = (b / c) * f + self.D * h
            return _ret(b - c * f * z, scalar)
        num, den, u = self._parts(arr)
        y._check_regular(arr, den)
        if y.kind == "zero":
            return _ret(b - y.B.value * num / (den * den), scalar)
        return _ret(b + c * u * num / (den * den), scalar)


def solve_z(b: float, y: RiccatiSolution, D: float) -> ZSolution:
    """Closed-form z solving y z + z' = b for the sign class and B carried by y."""
    return ZSolution(b=float(b), D=float(D), y=y)


def superpose(y1, y2, y3, k) -> Callable:
    """Combine three known solutions of one Riccati equation into a fourth.

    k = 0 returns y1 pointwise, k = 1 returns y3, k = infinity returns y2.
    The returned callable raises PoleError where the mixing denominator
    vanishes.
    """
    kx = as_extended(k)
    if kx.is_infinite:
        def y_inf(x):
            return y2(x)
        return y_inf
    kv = kx.value

    def y(x):
        w1 = np.asarray(y1(x), dtype=float)
        w2 = np.asarray(y2(x), dtype=float)
        w3 = np.asarray(y3(x), dtype=float)
        num = w2 * (w3 - w1) * kv + w1 * (w2 - w3)
        den = (w3 - w1) * kv + (w2 - w3)
        if np.any(den == 0.0):
            raise PoleError("superposition denominator vanished")
        out = num / den
        return float(out) if out.ndim == 0 else out

    return y


@dataclass(frozen=True)
class LinearFirstOrder:
    """v' = a(x) v + b(x). Coefficients are floats or callables."""

    a: Union[float, Callable]
    b: Union[float, Callable]

    @property
    def constant_coefficients(self) -> bool:
        return not callable(self.a) and not callable(self.b)


def reduce_standard(eq: ConstRiccati, y1) -> LinearFirstOrder:
    """Reduce the Riccati equation to linear first order via u = 1/(y1 - y).

    y1 must be a particular solution; pass a float for a constant solution or
    a callable for a varying one.
    """
    if callable(y1):
        def a(x):
            return -(2.0 * eq.a2 * np.asarray(y1(x), dtype=float) + eq.a1)
        return LinearFirstOrder(a=a, b=eq.a2)
    av = -(2.0 * eq.a2 * float(y1) + eq.a1)
    return LinearFirstOrder(a=av, b=eq.a2)


def reduce_alternative(eq: ConstRiccati, y1) -> LinearFirstOrder:
    """Reduce via u = y y1 / (y1 - y); requires y1 nonzero on the domain."""
    if callable(y1):
        def a(x):
            vals = np.asarray(y1(x), dtype=float)
            if np.any(vals == 0.0):
                raise ValueError("alternative reduction needs y1 != 0 on the domain")
            return 2.0 * eq.a0 / vals + eq.a1
        return LinearFirstOrder(a=a, b=eq.a0)
    v = float(y1)
    if v == 0.0:
        raise ValueError("alternative reduction needs y1 != 0 on the domain")
    return LinearFirstOrder(a=2.0 * eq.a0 / v + eq.a1, b=eq.a0)


def solve_linear_first_order(p: LinearFirstOrder, x0: float, E: float = 0.0,
                             panels: int = 10_000) -> Callable:
    """Solution of v' = a(x) v + b(x) with v(x0) = E.

    Constant coefficients short-circuit to the exact closed form; otherwise
    the integrating-factor formula is evaluated with composite Simpson
    quadrature on `panels` panels per call.
    """
    x0 = float(x0)
    E = float(E)
    if p.constant_coefficients:
        av, bv = float(p.a), float(p.b)
        if av == 0.0:
            def v_lin(x):
                arr, scalar = _prep(x)
                return _ret(E + bv * (arr - x0), scalar)
            return v_lin

        def v_exp(x):
            arr, scalar = _prep(x)
            return _ret((E + bv / av) * np.exp(av * (arr - x0)) - bv / av, scalar)
        return v_exp

    if callable(p.a):
        a_fun = p.a
    else:
        a_const = float(p.a)

        def a_fun(x):
            return np.full_like(np.asarray(x, dtype=float), a_const)
    if callable(p.b):
        b_fun = p.b
    else:
        b_const = float(p.b)

        def b_fun(x):
            return np.full_like(np.asarray(x, dtype=float), b_const)

    def solve_one(xv):
        if xv == x0:
            return E
        grid = np.linspace(x0, xv, 2 * panels + 1)
        cum_a = cumulative_simpson(a_fun, grid)
        g = np.asarray(b_fun(grid), dtype=float) * np.exp(-cum_a)
        inner = cumulative_simpson_values(g, grid[1] - grid[0])[-1]
        return (inner + E) * math.exp(cum_a[-1])

    def v(x):
        arr, scalar = _prep(x)
        flat = np.atleast_1d(arr).ravel()
        out = np.array([solve_one(float(xv)) for xv in flat])
        if scalar:
            return float(out[0])
        return out.reshape(arr.shape)

    return v
