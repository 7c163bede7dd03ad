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
import sys
from typing import Callable, Union

from ._record import Record
from .errors import PoleError


class ExtendedReal(Record):
    """A real constant, or the point at infinity (value is None)."""

    _fields = ("value",)

    def __init__(self, value: Union[float, None]):
        if value is not None:
            value = float(value)
            if math.isnan(value):
                raise ValueError("ExtendedReal cannot hold NaN")
            if math.isinf(value):
                value = None
        self.__dict__["value"] = value

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
    # float() reads 'inf' and '-inf', and ExtendedReal takes both to infinity
    if isinstance(v, ExtendedReal):
        return v
    return ExtendedReal(float(v))


def _prep(x):
    import numpy as np
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(vals):
    # a float for a scalar x; the rows convert x themselves (_held)
    return float(vals) if vals.ndim == 0 else vals


# A memo keyed by a sample array (a row's, or a Family's _samples) holds
# one entry, the dict of results for the last array it saw; 0-d arrays and
# arrays above this many points get a dict that no memo keeps.
_MEMO_MAX_POINTS = 1 << 16


def _entry(memo: dict, arr) -> dict:
    """The dict of results that memo holds for arr, a float array, keyed by
    its shape and bytes; a new array replaces the last one's."""
    if arr.ndim == 0 or arr.size > _MEMO_MAX_POINTS:
        return {}
    key = (arr.shape, arr.tobytes())
    # the memo's one entry is compared, not looked up: a hit hashes nothing
    for held, entry in memo.items():
        if held == key:
            return entry
    memo.clear()
    entry = memo[key] = {}
    return entry


def _held(memo: dict, tag: str, compute, x):
    """compute(arr) for arr = x as a float array, kept under tag in memo's
    entry for arr. A compute that raises keeps nothing."""
    import numpy as np
    arr = np.asarray(x, dtype=float)
    entry = _entry(memo, arr)
    out = entry.get(tag)
    if out is None:
        out = entry[tag] = compute(arr)
    return out


def _read_only(*parts) -> tuple:
    # numpy scalars and 0-d arrays are never held (see _entry)
    for part in parts:
        if getattr(part, "ndim", 0):
            part.flags.writeable = False
    return parts


# ---------------------------------------------------------------------------
# the closed-form table: one row per sign class and finite B or B = infinity.
# Each row holds the pair (f, h) that every family is built from, their
# derivatives, and the companion solution z with y z + z' = b, where
# y = scale * f (RiccatiSolution.scale). z equals alpha f + beta h with
# (alpha, beta) = companion(b, D), but is evaluated from its own closed
# form. h carries a minus sign relative to the bare reciprocal so
# that one D serves z and the potential records at every B, including B -> 0.
# Derivatives are explicit closed forms, never taken from the equations they
# are checked against; algebra() declares them again, as data, for the
# potential records, and verify compares the two.
#
# Each row also knows how f and h end, which decides whether a chain seed
# exp(s int k) is square integrable without sampling it (spectra). At a pole
# x0, `residues` gives (res f, res h): res f = 1/scale, since y has residue +1,
# and h ~ res h / (x - x0), since h' = -y h. Toward an infinite end sigma,
# `end` gives (f_inf, f_tail, h_sign): f -> f_inf + f_tail / x, and h_sign is
# the sign of h where h grows without bound (0 where h stays bounded). The
# trigonometric rows have poles every pi/c and no infinite end. The rows list
# their own poles and carry the constants of _Form, so no other module
# branches on the sign class or the B form again.
#
# A row computes its x-dependent primitives (a numerator and denominator,
# or the tanh/sech and tan/cos pairs) in one pass per array, which also
# refuses the poles: _parts holds the pass for the last array in the row's
# one memo (_held), read only, and f, h, f', h', z and z' read it. A pass
# that raises PoleError is not held. The outputs are fresh arrays, computed
# from the primitives by the same operations whether the pass was held or
# not.

_MAX_LOCATIONS = 8


def _check_regular(x, den):
    """Raise PoleError where den vanishes, naming at most 8 distinct points."""
    import numpy as np
    hit = np.asarray(den) == 0.0
    if np.any(hit):
        bad = np.unique(np.asarray(x, dtype=float)[hit])[:_MAX_LOCATIONS].tolist()
        raise PoleError(f"closed form evaluated at a singular point (x = {bad[:3]})",
                        locations=bad)


def _checked(x, *parts) -> tuple:
    """parts, read-only, once the last of them (a denominator) is known not
    to vanish on x."""
    _check_regular(x, parts[-1])
    return _read_only(*parts)


def _newton(r, den, dden):
    # one Newton step on a row's denominator, skipped where its slope is 0
    return r - den / dden if dden != 0.0 else r


# The basis of algebra()'s coefficient tuples, in their order.
TERMS = ("f2", "fh", "h2", "f", "h", "const")


def quadratic(coeffs, f, h):
    """The quadratic form with coefficients over TERMS, at (f, h)."""
    ff, fh, hh, f1, h1, one = coeffs
    return ff * f * f + fh * f * h + hh * h * h + f1 * f + h1 * h + one


class _Form:
    """A row's constants: c, A, and B (None for B = infinity), and

    - kappa: the row's constant in algebra() (1 on the limit rows), and
      y = kappa f on the rows with a = 0;
    - period: the spacing of the poles, inf on rows with at most one pole;
    - basis_name: 'limit' for the B = infinity rows, else 'generic'.
    """

    kappa = 1.0
    sign_a = 1.0
    period = math.inf
    basis_name = "generic"

    def __init__(self, c: float, A: float, B):
        self.c, self.A, self.B = c, A, B
        self._memo = {}

    def _theta(self, arr):
        return self.c * (arr - self.A)

    def _parts(self, x) -> tuple:
        """The row's primitives at x, from _pass (a float array in, a
        read-only tuple out), held for the last array."""
        return _held(self._memo, "pass", self._pass, x)

    def companion(self, b, D):
        """(alpha, beta) with z = alpha f + beta h."""
        return b / self.c, D

    def algebra(self) -> tuple:
        """(f', h', I) over TERMS: y' = a - y^2 read in the row's basis, with
        the invariant I = 0 on the row. Where a != 0, f' = c kappa h^2,
        h' = -+c f h and I = f^2 +- kappa h^2 -+ 1, upper signs for a > 0."""
        c, k, s = self.c, self.kappa, self.sign_a
        return ((0.0, 0.0, c * k, 0.0, 0.0, 0.0),
                (0.0, -s * c, 0.0, 0.0, 0.0, 0.0),
                (1.0, 0.0, s * k, 0.0, 0.0, -s))

    def poles(self, lo, hi) -> list:
        """Newton-polished poles, a superset of those in [lo, hi]."""
        return []


class _PosFinite(_Form):
    """a = c^2: f = (B sinh - cosh)/(B cosh - sinh), h = -1/(B cosh - sinh).

    The raw sinh/cosh ratios turn into inf/inf for |theta| beyond ~710, so
    both fractions are rewritten in tanh and exp(-|theta|), which never do.
    """

    def __init__(self, c, A, B):
        super().__init__(c, A, B)
        self.kappa = B * B - 1.0

    def _pass(self, arr):
        import numpy as np
        B, th = self.B, self._theta(arr)
        if B == 1.0:
            return _checked(arr, -np.ones_like(th), np.ones_like(th))
        if B == -1.0:
            return _checked(arr, np.ones_like(th), np.ones_like(th))
        t = np.tanh(th)
        return _checked(arr, B * t - 1.0, B - t)

    def _h_pass(self, arr):
        import numpy as np
        B, th = self.B, self._theta(arr)
        if B == 1.0:
            return _checked(arr, -np.exp(th), np.ones_like(th))
        if B == -1.0:
            return _checked(arr, np.exp(-th), np.ones_like(th))
        e = np.exp(-np.abs(th))
        v = np.where(th >= 0.0, 0.5 * (B - 1.0) + 0.5 * (B + 1.0) * e * e,
                     0.5 * (B + 1.0) + 0.5 * (B - 1.0) * e * e)
        return _checked(arr, -e, v)

    def _h_parts_at(self, x):
        # h's denominator need not vanish where f's does: a pass of its own
        return _held(self._memo, "h pass", self._h_pass, x)

    def f(self, x):
        u, v = self._parts(x)
        return u / v

    def h(self, x):
        u, v = self._h_parts_at(x)
        return u / v

    def df(self, x):
        if self.kappa == 0.0:   # B = +-1: f is constant
            import numpy as np
            return np.zeros_like(_prep(x)[0])
        h = self.h(x)
        return self.c * self.kappa * h * h

    def dh(self, x):
        return -self.c * self.f(x) * self.h(x)

    def z(self, x, b, D):
        return (b / self.c) * self.f(x) + D * self.h(x)

    def dz(self, x, b, D):
        f = self.f(x)
        return b - self.c * f * ((b / self.c) * f + D * self.h(x))

    def poles(self, lo, hi):
        # the one pole, tanh(theta0) = B, exists for |B| < 1
        if not abs(self.B) < 1.0:
            return []
        r = self.A + math.atanh(self.B) / self.c
        th = self.c * (r - self.A)
        return [_newton(r, self.B * math.cosh(th) - math.sinh(th),
                        self.c * (self.B * math.sinh(th) - math.cosh(th)))]

    def residues(self, x0):
        # the one pole, tanh(theta0) = B with |B| < 1
        return 1.0 / self.c, 1.0 / (self.c * math.sqrt(1.0 - self.B * self.B))

    def end(self, sigma):
        # f = -1, h = -e^theta at B = 1; f = 1, h = e^-theta at B = -1 (Morse)
        if self.B == 1.0:
            return -1.0, 0.0, (-1.0 if sigma > 0 else 0.0)
        if self.B == -1.0:
            return 1.0, 0.0, (1.0 if sigma < 0 else 0.0)
        return float(sigma), 0.0, 0.0


class _PosLimit(_Form):
    """a = c^2, B = infinity: f = tanh, h = sech; no poles."""

    basis_name = "limit"

    def _pass(self, arr):
        import numpy as np
        th = self._theta(arr)
        e = np.exp(-np.abs(th))   # sech = 2 e / (1 + e^2) never overflows
        return _read_only(np.tanh(th), 2.0 * e / (1.0 + e * e))

    def f(self, x):
        return self._parts(x)[0].copy()

    def h(self, x):
        return self._parts(x)[1].copy()

    def df(self, x):
        return self.c * self._parts(x)[1] ** 2

    def dh(self, x):
        tanh, sech = self._parts(x)
        return -self.c * tanh * sech

    def z(self, x, b, D):
        tanh, sech = self._parts(x)
        return (b / self.c) * tanh + D * sech

    def dz(self, x, b, D):
        tanh, sech = self._parts(x)
        return b * sech * sech - self.c * D * sech * tanh

    def end(self, sigma):
        return float(sigma), 0.0, 0.0


class _ZeroFinite(_Form):
    """a = 0: f = 1/v, h = t (2 + B t)/(2 v), with t = x - A and v = 1 + B t."""

    def __init__(self, c, A, B):
        super().__init__(c, A, B)
        self.kappa = B

    def companion(self, b, D):
        return D, b

    def algebra(self):
        # f' = -kappa f^2, h' = 1 - kappa f h, I = f^2 + 2 kappa f h - 1
        k = self.kappa
        return ((-k, 0.0, 0.0, 0.0, 0.0, 0.0),
                (0.0, -k, 0.0, 0.0, 0.0, 1.0),
                (1.0, 2.0 * k, 0.0, 0.0, 0.0, -1.0))

    def _pass(self, arr):
        t = arr - self.A
        return _checked(arr, t, 1.0 + self.B * t)

    def _h(self, t, v):
        return 0.5 * t * ((2.0 + self.B * t) / v)

    def _zu(self, t, b, D):
        # the numerator of z = _zu / v
        return b * (0.5 * t * (2.0 + self.B * t)) + D

    def f(self, x):
        return 1.0 / self._parts(x)[1]

    def h(self, x):
        return self._h(*self._parts(x))

    def df(self, x):
        v = self._parts(x)[1]
        return -self.B / (v * v)

    def dh(self, x):
        t, v = self._parts(x)
        return 1.0 - self.B * self._h(t, v) / v

    def z(self, x, b, D):
        t, v = self._parts(x)
        return self._zu(t, b, D) / v

    def dz(self, x, b, D):
        t, v = self._parts(x)
        return b - self.B * self._zu(t, b, D) / (v * v)

    def poles(self, lo, hi):
        return [self.A - 1.0 / self.B] if self.B != 0.0 else []

    def residues(self, x0):
        # the one pole, t0 = -1/B
        return 1.0 / self.B, -0.5 / self.B / self.B

    def end(self, sigma):
        # h = t at B = 0, else h ~ t/2; f = 1 at B = 0, else f ~ 1/(B t)
        if self.B == 0.0:
            return 1.0, 0.0, float(sigma)
        return 0.0, 1.0 / self.B, float(sigma)


class _ZeroLimit(_Form):
    """a = 0, B = infinity: f = 1/t, h = t/2, with t = x - A."""

    basis_name = "limit"

    def companion(self, b, D):
        return D, b

    def algebra(self):
        # f' and h' as on the finite row at kappa = 1, but I = f h - 1/2
        return _ZeroFinite.algebra(self)[:2] + ((0.0, 1.0, 0.0, 0.0, 0.0, -0.5),)

    def _pass(self, arr):
        return _checked(arr, arr - self.A)

    def f(self, x):
        return 1.0 / self._parts(x)[0]

    def h(self, x):
        # h = t/2 is regular at the pole, so it does not read the pass
        return 0.5 * (_prep(x)[0] - self.A)

    def df(self, x):
        t = self._parts(x)[0]
        return -1.0 / (t * t)

    def dh(self, x):
        import numpy as np
        return np.full_like(np.asarray(x, dtype=float), 0.5)

    def z(self, x, b, D):
        t = self._parts(x)[0]
        return 0.5 * b * t + D / t

    def dz(self, x, b, D):
        t = self._parts(x)[0]
        return 0.5 * b - D / (t * t)

    def poles(self, lo, hi):
        return [self.A]

    def residues(self, x0):
        # the one pole, t0 = 0; h = t/2 is regular there
        return 1.0, 0.0

    def end(self, sigma):
        return 0.0, 1.0, float(sigma)


class _Periodic(_Form):
    """The a = -c^2 rows: poles at theta = base + j pi, every pi/c, where the
    row's denominator _den(theta) vanishes."""

    sign_a = -1.0

    def __init__(self, c, A, B):
        super().__init__(c, A, B)
        self.period = math.pi / c

    def poles(self, lo, hi):
        c, A, base = self.c, self.A, self.base
        # theta = base + j*pi, x = A + theta/c; pick all j landing in the window
        j_lo = math.floor((c * (lo - A) - base) / math.pi) - 1
        j_hi = math.ceil((c * (hi - A) - base) / math.pi) + 1
        if j_hi - j_lo > 5_000_000:
            raise ValueError(
                f"window spans about {j_hi - j_lo:.2e} poles; narrow it")
        roots = [A + (base + j * math.pi) / c for j in range(j_lo, j_hi + 1)]
        return [_newton(r, *self._den(c * (r - A))) for r in roots]


class _NegFinite(_Periodic):
    """a = -c^2: f = u/v, h = -1/v, with u = B sin + cos and v = B cos - sin."""

    def __init__(self, c, A, B):
        super().__init__(c, A, B)
        self.kappa = B * B + 1.0
        self.base = math.atan(B)

    def _den(self, th):
        return (self.B * math.cos(th) - math.sin(th),
                -self.c * (self.B * math.sin(th) + math.cos(th)))

    def _pass(self, arr):
        import numpy as np
        th = self._theta(arr)
        sn, cs = np.sin(th), np.cos(th)
        return _checked(arr, self.B * sn + cs, self.B * cs - sn)

    def f(self, x):
        u, v = self._parts(x)
        return u / v

    def h(self, x):
        return -1.0 / self._parts(x)[1]

    def df(self, x):
        v = self._parts(x)[1]
        return self.c * self.kappa / (v * v)

    def dh(self, x):
        u, v = self._parts(x)
        return -self.c * u / (v * v)

    def _zu(self, u, b, D):
        # the numerator of z = _zu / v
        return (b / self.c) * u - D

    def z(self, x, b, D):
        u, v = self._parts(x)
        return self._zu(u, b, D) / v

    def dz(self, x, b, D):
        u, v = self._parts(x)
        return b + self.c * u * self._zu(u, b, D) / (v * v)

    def residues(self, x0):
        # res h = 1/(c (B sin + cos)(theta0)), where B sin + cos = +-sqrt(1 + B^2):
        # only its sign is read off the pole, so far poles keep an exact size
        th = self.c * (x0 - self.A)
        size = 1.0 / (self.c * math.hypot(1.0, self.B))
        return -1.0 / self.c, math.copysign(size, self.B * math.sin(th) + math.cos(th))


class _NegLimit(_Periodic):
    """a = -c^2, B = infinity: f = tan, h = sec."""

    basis_name = "limit"
    base = math.pi / 2.0

    def _den(self, th):
        return math.cos(th), -self.c * math.sin(th)

    def _pass(self, arr):
        import numpy as np
        th = self._theta(arr)
        return _checked(arr, np.tan(th), np.cos(th))

    def f(self, x):
        return self._parts(x)[0].copy()

    def h(self, x):
        return 1.0 / self._parts(x)[1]

    def df(self, x):
        return self.c * self.h(x) ** 2

    def dh(self, x):
        tan, cs = self._parts(x)
        return self.c * tan * (1.0 / cs)

    def z(self, x, b, D):
        tan, cs = self._parts(x)
        return (b / self.c) * tan + D / cs

    def dz(self, x, b, D):
        tan, cs = self._parts(x)
        sec = 1.0 / cs
        return b * sec * sec + self.c * D * sec * tan

    def residues(self, x0):
        # res h = -1/(c sin(theta0)), with sin(theta0) = +-1
        th = self.c * (x0 - self.A)
        return -1.0 / self.c, math.copysign(1.0 / self.c, -math.sin(th))


# (sign class, B is infinite) -> row
_FORMS = {
    ("pos", False): _PosFinite, ("pos", True): _PosLimit,
    ("zero", False): _ZeroFinite, ("zero", True): _ZeroLimit,
    ("neg", False): _NegFinite, ("neg", True): _NegLimit,
}


def _require_finite(error=ValueError, **values) -> None:
    """Raise error naming the first of values that is not a finite number."""
    for name, value in values.items():
        # False for nan, inf and integers beyond the double range, which
        # float() would turn into an OverflowError
        if not abs(value) <= sys.float_info.max:
            raise error(f"{name} must be finite, got {value!r}")


class ConstRiccati(Record):
    """y' = a2 y^2 + a1 y + a0 with constant coefficients, a2 != 0."""

    _fields = ("a2", "a1", "a0")

    def __init__(self, a2: float, a1: float, a0: float):
        _require_finite(a2=a2, a1=a1, a0=a0)
        if a2 == 0:
            raise ValueError("a2 must be nonzero for a Riccati equation")
        self.__dict__.update(a2=a2, a1=a1, a0=a0)


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


class RiccatiSolution(Record):
    """General solution of y' = a - y^2 for one (a, A, B) choice.

    The three sign classes use hyperbolic, rational, and trigonometric forms
    respectively; B = infinity selects the dedicated limiting form rather
    than a large finite value. kind, c, scale and form (the row of the
    closed-form table) are worked out once, on construction.
    """

    _fields = ("a", "A", "B")

    def __init__(self, a: float, A: float, B: ExtendedReal):
        _require_finite(a=a, A=A)
        a, A = float(a), float(A)
        # y = scale * f: c, -c, or kappa when a = 0 (B, or 1 for the
        # rational B = infinity form); none of the four is a field
        kind = "pos" if a > 0 else "neg" if a < 0 else "zero"
        c = math.sqrt(abs(a))
        form = _FORMS[kind, B.is_infinite](c, A, B.value)
        scale = form.kappa if kind == "zero" else math.copysign(c, a)
        self.__dict__.update(a=a, A=A, B=B, kind=kind, c=c, form=form,
                             scale=scale)

    def evaluate(self, x):
        return _ret(self.scale * self.form.f(x))

    __call__ = evaluate

    def derivative(self, x):
        """dy/dx = scale * f' from the closed form, not from the equation."""
        return _ret(self.scale * self.form.df(x))

    def singularities(self, window) -> list:
        """Poles inside [lo, hi], each polished by one Newton step on the
        denominator of its row."""
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise ValueError("window must satisfy lo < hi")
        return sorted(r for r in self.form.poles(lo, hi) if lo <= r <= hi)


def general_solution(a: float, A: float, B) -> RiccatiSolution:
    """Closed-form solution of y' = a - y^2 with offset A and mixing constant B."""
    return RiccatiSolution(a, A, as_extended(B))


class ZSolution(Record):
    """Closed form z with y(x) z(x) + z'(x) = b, built over a RiccatiSolution y."""

    _fields = ("b", "D", "y")

    def evaluate(self, x):
        return _ret(self.y.form.z(x, self.b, self.D))

    __call__ = evaluate

    def derivative(self, x):
        return _ret(self.y.form.dz(x, self.b, self.D))


def solve_z(b: float, y: RiccatiSolution, D: float) -> ZSolution:
    """Closed-form z solving y z + z' = b for the sign class and B carried by y."""
    _require_finite(b=b, D=D)
    return ZSolution(float(b), float(D), y)


def superpose(y1, y2, y3, k) -> Callable:
    """Combine three known solutions of one Riccati equation into a fourth.

    k = 0 returns y1 pointwise, k = 1 returns y3, k = infinity returns y2.
    The returned callable raises PoleError where the mixing denominator
    vanishes.
    """
    kx = as_extended(k)
    if kx.is_infinite:
        return y2
    kv = kx.value

    def y(x):
        w1, w2, w3 = (_prep(fn(x))[0] for fn in (y1, y2, y3))
        num = w2 * (w3 - w1) * kv + w1 * (w2 - w3)
        den = (w3 - w1) * kv + (w2 - w3)
        if (den == 0.0).any():
            raise PoleError("superposition denominator vanished")
        return _ret(num / den)

    return y


class LinearFirstOrder(Record):
    """v' = a(x) v + b(x). Coefficients are floats or callables."""

    _fields = ("a", "b")

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
            return -(2.0 * eq.a2 * _prep(y1(x))[0] + eq.a1)
        return LinearFirstOrder(a=a, b=eq.a2)
    av = -(2.0 * eq.a2 * float(y1) + eq.a1)
    return LinearFirstOrder(a=av, b=eq.a2)


def reduce_alternative(eq: ConstRiccati, y1) -> LinearFirstOrder:
    """Reduce via u = y y1 / (y1 - y); requires y1 nonzero on the domain."""
    if callable(y1):
        def a(x):
            vals = _prep(y1(x))[0]
            if (vals == 0.0).any():
                raise ValueError("alternative reduction needs y1 != 0 on the domain")
            return 2.0 * eq.a0 / vals + eq.a1
        return LinearFirstOrder(a=a, b=eq.a0)
    v = float(y1)
    if v == 0.0:
        raise ValueError("alternative reduction needs y1 != 0 on the domain")
    return LinearFirstOrder(a=2.0 * eq.a0 / v + eq.a1, b=eq.a0)


def solve_linear_first_order(p: LinearFirstOrder, x0: float,
                             E: float = 0.0) -> Callable:
    """Solution of v' = a v + b with v(x0) = E, in closed form; only constant
    coefficients are solved, and a callable one raises TypeError."""
    import numpy as np
    if not p.constant_coefficients:
        raise TypeError("solve_linear_first_order solves only constant "
                        "coefficients; a or b is callable")
    x0 = float(x0)
    E = float(E)
    av, bv = float(p.a), float(p.b)
    if av == 0.0:
        def v_lin(x):
            return _ret(E + bv * (_prep(x)[0] - x0))
        return v_lin

    def v_exp(x):
        return _ret((E + bv / av) * np.exp(av * (_prep(x)[0] - x0)) - bv / av)
    return v_exp
