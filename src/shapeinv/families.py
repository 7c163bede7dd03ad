"""Parametric superpotential families with closed-form building blocks.

A family is a rule k(x, m) built from the general Riccati solution of
y' = a - y^2 plus the companion linear solve, together with a quadratic
symbol L(m) whose differences R(m) = L(m) - L(m+1) drive ladder spectra.
Two ansatz kinds are supported: affine in m (k = k0 + m k1) and inverse
power (k = q/m + m k1 with k0 forced to zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Union

import numpy as np

from . import riccati
from .errors import FamilyError, PoleError
from .riccati import INFINITY, ExtendedReal, as_extended, general_solution, solve_z

__all__ = [
    "SignClass", "positive_a", "zero_a", "negative_a",
    "FamilyKind", "FamilyParams", "Family", "BasisFunctions",
    "f_plus", "h_plus", "df_plus", "dh_plus",
    "f_zero", "h_zero", "df_zero", "dh_zero",
    "f_minus", "h_minus", "df_minus", "dh_minus",
    "preset_params", "preset_catalogue", "PRESET_NAMES",
    "family_to_json", "family_from_json",
]


@dataclass(frozen=True)
class SignClass:
    """Sign of the Riccati constant a: 'pos' (a = c^2), 'zero', or 'neg' (a = -c^2)."""

    kind: str
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in ("pos", "zero", "neg"):
            raise FamilyError(f"unknown sign class {self.kind!r}")
        if self.kind == "zero":
            object.__setattr__(self, "c", 0.0)
        elif not self.c > 0:
            raise FamilyError("rate constant c must be > 0 for nonzero a")

    @property
    def a(self) -> float:
        if self.kind == "pos":
            return self.c * self.c
        if self.kind == "neg":
            return -self.c * self.c
        return 0.0


def positive_a(c: float) -> SignClass:
    return SignClass("pos", float(c))


def zero_a() -> SignClass:
    return SignClass("zero")


def negative_a(c: float) -> SignClass:
    return SignClass("neg", float(c))


class FamilyKind(Enum):
    AFFINE = "affine"
    INVERSE_POWER = "inverse"


@dataclass(frozen=True)
class FamilyParams:
    """Constants shared by every member of a family.

    D is exactly the constant of the companion linear solve (riccati.solve_z);
    q only matters for the inverse-power ansatz, t shifts L, d shifts energies.
    """

    sign: SignClass
    A: float = 0.0
    B: ExtendedReal = field(default_factory=lambda: ExtendedReal(0.0))
    b: float = 0.0
    D: float = 0.0
    q: float = 1.0
    t: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "B", as_extended(self.B))


# ---------------------------------------------------------------------------
# building blocks (finite B). h_plus and h_minus carry a minus sign relative
# to the bare reciprocal so that one constant D serves the companion linear
# solve and the closed-form potential records at every B, including B -> 0.

def _check_den(x, den, label):
    if np.any(np.asarray(den) == 0.0):
        raise PoleError(f"{label} evaluated at a singular point")


def f_plus(x, A, B, c):
    """(B sinh - cosh)/(B cosh - sinh) at argument c(x - A)."""
    th = c * (np.asarray(x, dtype=float) - A)
    num, den = riccati._pos_fraction(th, B)
    _check_den(x, den, "f_plus")
    return num / den


def h_plus(x, A, B, c):
    """-1/(B cosh - sinh) at argument c(x - A)."""
    th = c * (np.asarray(x, dtype=float) - A)
    num, den = riccati._pos_recip(th, B)
    _check_den(x, den, "h_plus")
    return num / den


def df_plus(x, A, B, c):
    kappa = B * B - 1.0
    if kappa == 0.0:
        return np.zeros_like(c * (np.asarray(x, dtype=float) - A))
    h = h_plus(x, A, B, c)
    return c * kappa * h * h


def dh_plus(x, A, B, c):
    # equals c (B sinh - cosh)/(B cosh - sinh)^2
    return -c * f_plus(x, A, B, c) * h_plus(x, A, B, c)


def f_zero(x, A, B):
    """1/(1 + B(x - A))."""
    den = 1.0 + B * (np.asarray(x, dtype=float) - A)
    _check_den(x, den, "f_zero")
    return 1.0 / den


def h_zero(x, A, B):
    """((B/2)(x - A)^2 + (x - A)) / (1 + B(x - A))."""
    t = np.asarray(x, dtype=float) - A
    den = 1.0 + B * t
    _check_den(x, den, "h_zero")
    return 0.5 * t * ((2.0 + B * t) / den)


def df_zero(x, A, B):
    den = 1.0 + B * (np.asarray(x, dtype=float) - A)
    _check_den(x, den, "df_zero")
    return -B / (den * den)


def dh_zero(x, A, B):
    t = np.asarray(x, dtype=float) - A
    den = 1.0 + B * t
    _check_den(x, den, "dh_zero")
    return 1.0 - B * (0.5 * t * ((2.0 + B * t) / den)) / den


def f_minus(x, A, B, c):
    """(B sin + cos)/(B cos - sin) at argument c(x - A)."""
    th = c * (np.asarray(x, dtype=float) - A)
    sn, cs = np.sin(th), np.cos(th)
    den = B * cs - sn
    _check_den(x, den, "f_minus")
    return (B * sn + cs) / den


def h_minus(x, A, B, c):
    """-1/(B cos - sin) at argument c(x - A)."""
    th = c * (np.asarray(x, dtype=float) - A)
    den = B * np.cos(th) - np.sin(th)
    _check_den(x, den, "h_minus")
    return -1.0 / den


def df_minus(x, A, B, c):
    th = c * (np.asarray(x, dtype=float) - A)
    den = B * np.cos(th) - np.sin(th)
    _check_den(x, den, "df_minus")
    return c * (B * B + 1.0) / (den * den)


def dh_minus(x, A, B, c):
    th = c * (np.asarray(x, dtype=float) - A)
    sn, cs = np.sin(th), np.cos(th)
    den = B * cs - sn
    _check_den(x, den, "dh_minus")
    return -c * (B * sn + cs) / (den * den)


@dataclass(frozen=True)
class BasisFunctions:
    """The (f, h) pair a family's potentials are quadratic in, plus derivatives.

    tag is 'generic' for finite B and 'limit' for the dedicated B = infinity
    forms (where the identity coefficients B^2 -+ 1 collapse to 1).
    """

    tag: str
    f: Callable
    h: Callable
    df: Callable
    dh: Callable


def _limit_basis(sign: SignClass, A: float) -> BasisFunctions:
    c = sign.c
    if sign.kind == "pos":
        def th(x):
            return c * (np.asarray(x, dtype=float) - A)

        return BasisFunctions(
            "limit",
            f=lambda x: np.tanh(th(x)),
            h=lambda x: riccati._sech(th(x)),
            df=lambda x: c * riccati._sech(th(x)) ** 2,
            dh=lambda x: -c * np.tanh(th(x)) * riccati._sech(th(x)),
        )
    if sign.kind == "zero":
        def inv_t(x):
            t = np.asarray(x, dtype=float) - A
            _check_den(x, t, "limit basis")
            return 1.0 / t

        def dinv_t(x):
            t = np.asarray(x, dtype=float) - A
            _check_den(x, t, "limit basis")
            return -1.0 / (t * t)

        return BasisFunctions(
            "limit",
            f=inv_t,
            h=lambda x: 0.5 * (np.asarray(x, dtype=float) - A),
            df=dinv_t,
            dh=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5),
        )

    def sec(x):
        cs = np.cos(c * (np.asarray(x, dtype=float) - A))
        _check_den(x, cs, "limit basis")
        return 1.0 / cs

    return BasisFunctions(
        "limit",
        f=lambda x: np.tan(c * (np.asarray(x, dtype=float) - A)),
        h=sec,
        df=lambda x: c * sec(x) ** 2,
        dh=lambda x: c * np.tan(c * (np.asarray(x, dtype=float) - A)) * sec(x),
    )


def _generic_basis(sign: SignClass, A: float, B: float) -> BasisFunctions:
    c = sign.c
    if sign.kind == "pos":
        return BasisFunctions(
            "generic",
            f=lambda x: f_plus(x, A, B, c),
            h=lambda x: h_plus(x, A, B, c),
            df=lambda x: df_plus(x, A, B, c),
            dh=lambda x: dh_plus(x, A, B, c),
        )
    if sign.kind == "zero":
        return BasisFunctions(
            "generic",
            f=lambda x: f_zero(x, A, B),
            h=lambda x: h_zero(x, A, B),
            df=lambda x: df_zero(x, A, B),
            dh=lambda x: dh_zero(x, A, B),
        )
    return BasisFunctions(
        "generic",
        f=lambda x: f_minus(x, A, B, c),
        h=lambda x: h_minus(x, A, B, c),
        df=lambda x: df_minus(x, A, B, c),
        dh=lambda x: dh_minus(x, A, B, c),
    )


@dataclass(frozen=True)
class Family:
    """A superpotential family: k(x, m) plus the spectral symbol L(m)."""

    params: FamilyParams
    kind: FamilyKind

    def __post_init__(self):
        if self.kind is FamilyKind.INVERSE_POWER and self.params.q == 0.0:
            raise FamilyError("inverse-power ansatz requires q != 0")

    # -- structural helpers -------------------------------------------------

    @property
    def a(self) -> float:
        return self.params.sign.a

    def basis(self) -> BasisFunctions:
        p = self.params
        if p.B.is_infinite:
            return _limit_basis(p.sign, p.A)
        return _generic_basis(p.sign, p.A, p.B.value)

    def _k1_scale(self) -> float:
        p = self.params
        if p.sign.kind == "pos":
            return p.sign.c
        if p.sign.kind == "neg":
            return -p.sign.c
        return 1.0 if p.B.is_infinite else p.B.value

    def _k1_is_constant(self) -> bool:
        p = self.params
        if p.B.is_infinite:
            return False
        if p.sign.kind == "pos":
            return p.B.value in (-1.0, 1.0)
        if p.sign.kind == "zero":
            return p.B.value == 0.0
        return False

    @property
    def is_trivial(self) -> bool:
        """True when k(x, m) has no x dependence for any m."""
        if not self._k1_is_constant():
            return False
        if self.kind is FamilyKind.INVERSE_POWER:
            return True
        p = self.params
        if p.sign.kind == "pos":
            return p.D == 0.0
        return p.b == 0.0

    def validate(self, strict: bool = False) -> None:
        """Raise FamilyError on hard problems; with strict=True also on triviality."""
        if strict and self.is_trivial:
            raise FamilyError(
                "family is trivial: k(x, m) is x-independent for this (sign, B, constants) choice")

    # -- evaluation ----------------------------------------------------------

    def k1(self, x):
        return self._k1_scale() * self.basis().f(x)

    def k1_prime(self, x):
        return self._k1_scale() * self.basis().df(x)

    def _z(self) -> riccati.ZSolution:
        p = self.params
        return solve_z(p.b, general_solution(p.sign.a, p.A, p.B), p.D)

    def k0(self, x):
        """The m-independent part of the affine ansatz (a companion linear solve)."""
        return self._z().evaluate(x)

    def k0_prime(self, x):
        return self._z().derivative(x)

    def _require_m(self, m: float) -> float:
        m = float(m)
        if self.kind is FamilyKind.INVERSE_POWER and m == 0.0:
            raise FamilyError("inverse-power family is undefined at m = 0")
        return m

    def k(self, x, m):
        m = self._require_m(m)
        if self.kind is FamilyKind.AFFINE:
            return self.k0(x) + m * self.k1(x)
        return self.params.q / m + m * self.k1(x)

    def k_prime(self, x, m):
        m = self._require_m(m)
        if self.kind is FamilyKind.AFFINE:
            return self.k0_prime(x) + m * self.k1_prime(x)
        return m * self.k1_prime(x)

    def L(self, m) -> float:
        m = self._require_m(m)
        p = self.params
        if self.kind is FamilyKind.AFFINE:
            return -self.a * m * m - 2.0 * p.b * m + p.t
        return -self.a * m * m - (p.q * p.q) / (m * m) + p.t

    def R(self, m) -> float:
        """Level spacing L(m) - L(m + 1)."""
        return self.L(m) - self.L(float(m) + 1.0)

    # -- geometry ------------------------------------------------------------

    def singularities(self, m, window) -> list:
        """Poles of k(., m) in [lo, hi]; locations do not depend on m."""
        p = self.params
        return general_solution(p.sign.a, p.A, p.B).singularities(window)

    def natural_domain(self, m, anchor, window):
        """Largest pole-free open interval around anchor, clipped to window."""
        lo, hi = float(window[0]), float(window[1])
        anchor = float(anchor)
        if not lo <= anchor <= hi:
            raise ValueError("anchor must lie inside the window")
        scan_lo, scan_hi = lo, hi
        if self.params.sign.kind == "neg":
            # poles repeat every pi/c, so the nearest ones sit within a few
            # periods of the anchor; scanning a huge window would enumerate
            # astronomically many roots
            span = 2.5 * math.pi / self.params.sign.c
            scan_lo = max(scan_lo, anchor - span)
            scan_hi = min(scan_hi, anchor + span)
        poles = self.singularities(m, (scan_lo, scan_hi))
        for pole in poles:
            if abs(pole - anchor) < 1e-12 * max(abs(pole), abs(anchor), 1.0):
                raise PoleError(f"anchor {anchor} coincides with a pole", locations=[pole])
        left = max((pole for pole in poles if pole < anchor), default=lo)
        right = min((pole for pole in poles if pole > anchor), default=hi)
        return (left, right)


# ---------------------------------------------------------------------------
# presets

@dataclass(frozen=True)
class _PresetDef:
    kind: FamilyKind
    sign_kind: str
    B: ExtendedReal
    needs_c: bool
    free: tuple


_PRESETS = {
    "TypeA": _PresetDef(FamilyKind.AFFINE, "neg", ExtendedReal(0.0), True,
                        ("c", "A", "b", "D", "t", "d")),
    "TypeB_real": _PresetDef(FamilyKind.AFFINE, "pos", ExtendedReal(-1.0), True,
                             ("c", "A", "b", "D", "t", "d")),
    "TypeC": _PresetDef(FamilyKind.AFFINE, "zero", INFINITY, False,
                        ("A", "b", "D", "t", "d")),
    "TypeD": _PresetDef(FamilyKind.AFFINE, "zero", ExtendedReal(0.0), False,
                        ("A", "b", "D", "t", "d")),
    "TypeE": _PresetDef(FamilyKind.INVERSE_POWER, "neg", ExtendedReal(0.0), True,
                        ("c", "A", "q", "t", "d")),
    "TypeF": _PresetDef(FamilyKind.INVERSE_POWER, "zero", INFINITY, False,
                        ("A", "q", "t", "d")),
    "HyperbolicTanh": _PresetDef(FamilyKind.AFFINE, "pos", INFINITY, True,
                                 ("c", "A", "b", "D", "t", "d")),
    "HyperbolicCoth": _PresetDef(FamilyKind.AFFINE, "pos", ExtendedReal(0.0), True,
                                 ("c", "A", "b", "D", "t", "d")),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_params(name: str, *, c: float = 1.0, A: float = 0.0, b: float = 0.0,
                  D: float = 0.0, q: float = 1.0, t: float = 0.0,
                  d: float = 0.0) -> Family:
    """Build a Family from a named preset plus its free constants.

    Constants outside the preset's free-slot list are ignored so that callers
    can pass one uniform set. Unknown names raise with the valid list.
    """
    if name not in _PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}")
    pd = _PRESETS[name]
    if pd.sign_kind == "zero":
        sign = zero_a()
    elif pd.sign_kind == "pos":
        sign = positive_a(c)
    else:
        sign = negative_a(c)
    if pd.kind is FamilyKind.INVERSE_POWER:
        if q == 0.0:
            raise FamilyError(f"preset {name} requires q != 0")
        b_eff, d_big_eff = 0.0, 0.0
    else:
        b_eff, d_big_eff = float(b), float(D)
    params = FamilyParams(sign=sign, A=float(A), B=pd.B, b=b_eff, D=d_big_eff,
                          q=float(q), t=float(t), d=float(d))
    return Family(params=params, kind=pd.kind)


def preset_catalogue() -> list:
    """Stable sorted records describing the presets (for the CLI listing)."""
    out = []
    for name in PRESET_NAMES:
        pd = _PRESETS[name]
        out.append({
            "name": name,
            "kind": pd.kind.value,
            "sign": pd.sign_kind,
            "B": pd.B.to_json(),
            "free": list(pd.free),
        })
    return out


# ---------------------------------------------------------------------------
# serialization

_FAMILY_KEYS = ("kind", "sign", "c", "A", "B", "b", "D", "q", "t", "d")
_NUMERIC_KEYS = ("c", "A", "b", "D", "q", "t", "d")


def family_to_json(family: Family) -> dict:
    p = family.params
    return {
        "kind": family.kind.value,
        "sign": p.sign.kind,
        "c": p.sign.c,
        "A": p.A,
        "B": p.B.to_json(),
        "b": p.b,
        "D": p.D,
        "q": p.q,
        "t": p.t,
        "d": p.d,
    }


def family_from_json(obj: dict) -> Family:
    """Parse the family descriptor schema; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise ValueError("family descriptor must be a JSON object")
    unknown = set(obj) - set(_FAMILY_KEYS)
    if unknown:
        raise ValueError(f"unknown family descriptor keys: {sorted(unknown)}")
    if "kind" not in obj or "sign" not in obj:
        raise ValueError("family descriptor needs 'kind' and 'sign'")
    kind_raw = obj["kind"]
    try:
        kind = FamilyKind(kind_raw)
    except ValueError:
        raise ValueError(f"kind must be 'affine' or 'inverse', got {kind_raw!r}") from None
    sign_kind = obj["sign"]
    if sign_kind not in ("pos", "zero", "neg"):
        raise ValueError(f"sign must be 'pos', 'zero', or 'neg', got {sign_kind!r}")
    vals = {}
    for key in _NUMERIC_KEYS:
        raw = obj.get(key, 1.0 if key in ("c", "q") else 0.0)
        if (isinstance(raw, bool) or not isinstance(raw, (int, float))
                or not math.isfinite(raw)):
            raise ValueError(
                f"family descriptor field {key!r} must be a finite number, got {raw!r}")
        vals[key] = float(raw)
    b_raw = obj.get("B", 0.0)
    if isinstance(b_raw, str):
        if b_raw != "inf":
            raise ValueError("B must be a number or the string 'inf'")
        B = INFINITY
    elif isinstance(b_raw, bool) or not isinstance(b_raw, (int, float)):
        raise ValueError("B must be a number or the string 'inf'")
    else:
        B = ExtendedReal(float(b_raw))
    if sign_kind == "zero":
        sign = zero_a()
    elif sign_kind == "pos":
        sign = positive_a(vals["c"])
    else:
        sign = negative_a(vals["c"])
    params = FamilyParams(sign=sign, A=vals["A"], B=B, b=vals["b"], D=vals["D"],
                          q=vals["q"], t=vals["t"], d=vals["d"])
    return Family(params=params, kind=kind)
