"""Parametric superpotential families.

A family is a rule k(x, m) built from the general Riccati solution of
y' = a - y^2 plus the companion linear solve (both read from the
closed-form table in riccati), together with a quadratic
symbol L(m) whose differences R(m) = L(m) - L(m+1) drive ladder spectra.
Two ansatz kinds are supported: affine in m (k = k0 + m k1) and inverse
power (k = q/m + m k1 with k0 forced to zero).
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from ._record import Record
from .errors import FamilyError, PoleError
from .riccati import (INFINITY, ExtendedReal, _entry, _held, _require_finite,
                      as_extended, general_solution, solve_z)

__all__ = [
    "SignClass", "positive_a", "zero_a", "negative_a",
    "FamilyKind", "FamilyParams", "Family",
    "preset_params", "preset_catalogue", "PRESET_NAMES",
    "family_to_json", "family_from_json", "json_number",
]


# the rate constant's range: a = +-c^2 then lies in [1e-12, 1e12], like the
# offset bound below; closed forms, pole scans and seed probes all work in
# units of 1/c, and far outside this range they lose the digits to place poles
_MIN_RATE = 1e-6
_MAX_RATE = 1e6


class SignClass(Record):
    """Sign of the Riccati constant a: 'pos' (a = c^2), 'zero', or 'neg' (a = -c^2)."""

    _fields = ("kind", "c")

    def __init__(self, kind: str, c: float = 0.0):
        if kind not in ("pos", "zero", "neg"):
            raise FamilyError(f"unknown sign class {kind!r}")
        if kind == "zero":
            c = 0.0
        elif not _MIN_RATE <= c <= _MAX_RATE:
            raise FamilyError(f"rate constant c = {c!r} is out of range: "
                              "need 1e-6 <= c <= 1e6 for nonzero a")
        self.__dict__.update(kind=kind, c=c)

    @property
    def a(self) -> float:
        if self.kind == "pos":
            return self.c * self.c
        if self.kind == "neg":
            return -self.c * self.c
        return 0.0


def _float(name: str, value) -> float:
    if isinstance(value, int):   # float() overflows beyond the double range
        _require_finite(FamilyError, **{name: value})
    return float(value)


def positive_a(c: float) -> SignClass:
    return SignClass("pos", _float("c", c))


def zero_a() -> SignClass:
    return SignClass("zero")


def negative_a(c: float) -> SignClass:
    return SignClass("neg", _float("c", c))


class FamilyKind(Enum):
    AFFINE = "affine"
    INVERSE_POWER = "inverse"


_MAX_OFFSET = 1e12


class FamilyParams(Record):
    """Constants shared by every member of a family.

    D is exactly the constant of the companion linear solve (riccati.solve_z);
    q only matters for the inverse-power ansatz, t shifts L, d shifts energies.
    B is coerced to an ExtendedReal (as_extended).
    """

    _fields = ("sign", "A", "B", "b", "D", "q", "t", "d")

    def __init__(self, sign: SignClass, A: float = 0.0, B=0.0, b: float = 0.0,
                 D: float = 0.0, q: float = 1.0, t: float = 0.0, d: float = 0.0):
        B = as_extended(B)
        # anchors and pole scans sit within a few units and periods 1/c of A;
        # beyond this bound c(x - A) keeps too few digits there to place them
        if not abs(A) <= _MAX_OFFSET / max(sign.c, 1.0):
            raise FamilyError(
                f"offset A = {A!r} is out of range: need |A| <= {_MAX_OFFSET:g} "
                f"and c|A| <= {_MAX_OFFSET:g}")
        _require_finite(FamilyError, b=b, D=D, q=q, t=t, d=d)
        self.__dict__.update(sign=sign, A=A, B=B, b=b, D=D, q=q, t=t, d=d)


# A Family's two memos: _samples, the entry for the last sample array, holds
# the (k0, k1) and (k0', k1') pairs, the grid's integrals of k0 and k1, and
# read-only W per chain parameter, for at most this many parameters (a
# level-k state reads k); _memo holds at most _MEMO_MAX scalar results of a
# request, the oldest dropped first.
_W_TABLE_MAX_PARAMETERS = 16
_MEMO_MAX = 64


def _midpoint_integral(values, h: float, mid: int):
    """The cumulative Simpson integral of samples of step h, zero at sample
    mid; a sample that is not finite raises PoleError."""
    from . import numerics
    out = numerics.cumulative_simpson_values(values, h)
    # every sample enters a step, and a non-finite step stays in every
    # later partial sum, so the last one is finite iff all samples are
    # (and the sum did not overflow)
    if not math.isfinite(out[-1]):
        raise PoleError("superpotential is not finite on the working grid")
    out -= out[mid]
    return out


class Family(Record):
    """A superpotential family: k(x, m) plus the spectral symbol L(m)."""

    _fields = ("params", "kind")

    def __init__(self, params: FamilyParams, kind: FamilyKind):
        if kind is FamilyKind.INVERSE_POWER and params.q == 0.0:
            raise FamilyError("inverse-power ansatz requires q != 0")
        # built once: the Riccati solution y = k1 (whose row of the
        # closed-form table is basis()), the companion z = k0, and the two
        # memos; not fields, so they stay out of ==, hash and repr
        y = general_solution(params.sign.a, params.A, params.B)
        self.__dict__.update(params=params, kind=kind, _y=y,
                             _z=solve_z(params.b, y, params.D),
                             _samples={}, _memo={})

    def _remember(self, key: tuple, value):
        """value, held under key in the scalar memo."""
        if len(self._memo) >= _MEMO_MAX:
            del self._memo[next(iter(self._memo))]
        self._memo[key] = value
        return value

    # -- structural helpers -------------------------------------------------

    @property
    def a(self) -> float:
        return self.params.sign.a

    def basis(self):
        """The (f, h) pair the potentials are quadratic in, with f', h', z, z':
        this family's row of the closed-form table in riccati."""
        return self._y.form

    @property
    def is_trivial(self) -> bool:
        """True when k(x, m) has no x dependence for any m: f' = 0 in the
        row's algebra() and k = gamma f + beta h + kappa carries no h."""
        return (not any(self.basis().algebra()[0])
                and self._k_coefficients(1.0)[1] == 0.0)

    # -- evaluation ----------------------------------------------------------

    def k1(self, x):
        """The m-linear part: the Riccati solution y of y' = a - y^2."""
        return self._y.evaluate(x)

    def k1_prime(self, x):
        return self._y.derivative(x)

    def k0(self, x):
        """The m-independent part of the affine ansatz (a companion linear solve)."""
        return self._z.evaluate(x)

    def k0_prime(self, x):
        return self._z.derivative(x)

    def _require_m(self, m: float) -> float:
        m = float(m)
        if self.kind is FamilyKind.INVERSE_POWER and m == 0.0:
            raise FamilyError("inverse-power family is undefined at m = 0")
        return m

    def _k_parts(self, arr):
        # k0 is not part of the inverse-power ansatz and is never evaluated there
        k0 = self.k0(arr) if self.kind is FamilyKind.AFFINE else None
        return k0, self.k1(arr)

    def _k_prime_parts(self, arr):
        k0p = self.k0_prime(arr) if self.kind is FamilyKind.AFFINE else None
        return k0p, self.k1_prime(arr)

    def _k_from(self, pair, m: float):
        k0, k1 = pair   # the (m-free, m-linear) samples
        if self.kind is FamilyKind.AFFINE:
            return k0 + m * k1
        return self.params.q / m + m * k1

    def k(self, x, m):
        m = self._require_m(m)
        return self._k_from(_held(self._samples, "k", self._k_parts, x), m)

    def _chain_table(self, x, h: float):
        """The ladder chain's two readers on x, a uniform grid of step h:
        m -> int k(., m) for the seeds, and m -> (W, max|W|) for the ladder
        steps, with W = k(x, m) read-only and finite on every sample, else
        PoleError.

        int k(., m) is a fresh array, zero at the grid midpoint: I0 + m I1,
        or (q/m) I0 + m I1 for the inverse-power ansatz, whose m-free part
        is the constant q/m. I1 and I0 are the cumulative Simpson integrals
        of the k1 and k0 samples (I0 = x - x_mid for the inverse-power
        ansatz), each anchored at the midpoint; a k0 or k1 sample that is
        not finite raises PoleError.

        h is the step of the Grid whose nodes x are, so it follows from x,
        and the array's sample entry keeps I0 and I1 alongside the W pairs
        per m (and the sign of a zero m), all read from the entry's (k0, k1)
        pair; readers fetched once serve a whole chain."""
        import numpy as np
        arr = np.asarray(x, dtype=float)
        entry = _entry(self._samples, arr)
        by_m = entry.setdefault("W", {})

        def parts():
            if "k" not in entry:
                entry["k"] = self._k_parts(arr)
            return entry["k"]

        def integral(m):
            m = self._require_m(m)
            held = entry.get("int k")
            if held is None:
                k0, k1 = parts()
                mid = arr.size // 2
                I0 = (arr - arr[mid] if k0 is None
                      else _midpoint_integral(k0, h, mid))
                held = entry["int k"] = (I0, _midpoint_integral(k1, h, mid))
            I0, I1 = held
            out = m * I1
            if self.kind is FamilyKind.AFFINE:
                out += I0
            else:
                out += (self.params.q / m) * I0
            return out

        def read(m):
            m = float(m)
            # k(., 0.0) and k(., -0.0) may differ in the sign of a zero sample
            m_key = (m, math.copysign(1.0, m))
            pair = by_m.get(m_key)
            if pair is None:
                self._require_m(m)
                W = np.asarray(self._k_from(parts(), m), dtype=float)
                w_max = float(np.abs(W).max())
                if not math.isfinite(w_max):   # nan or inf on some sample
                    raise PoleError(
                        "superpotential is not finite on the working grid")
                W.flags.writeable = False
                if len(by_m) >= _W_TABLE_MAX_PARAMETERS:
                    del by_m[next(iter(by_m))]
                pair = by_m[m_key] = (W, w_max)
            return pair
        return integral, read

    def _k_coefficients(self, m):
        """(gamma, beta, kappa) with k(., m) = gamma f + beta h + kappa over
        the basis() pair: z = alpha f + beta h plus m y = m scale f, or
        q/m + m scale f for the inverse-power ansatz."""
        m = self._require_m(m)
        p = self.params
        scale = self._y.scale
        if self.kind is FamilyKind.INVERSE_POWER:
            return m * scale, 0.0, p.q / m
        alpha, beta = self.basis().companion(p.b, p.D)
        return alpha + m * scale, beta, 0.0

    def k_prime(self, x, m):
        m = self._require_m(m)
        k0p, k1p = _held(self._samples, "k'", self._k_prime_parts, x)
        if self.kind is FamilyKind.AFFINE:
            return k0p + m * k1p
        return m * k1p

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
        return self._y.singularities(window)

    def singularities_near(self, m, window, around, periods) -> list:
        """Poles of k(., m) in the window within `periods` pole spacings of
        `around`, at a cost independent of the window's width.

        The scan is clipped to that many of the row's periods on each side of
        `around`: the negative-a rows have poles every pi/c, and a huge window
        would otherwise enumerate astronomically many roots. Every other row
        has at most one pole and an infinite period, so the whole window is
        scanned.
        """
        span = periods * self.basis().period
        return self.singularities(m, (max(float(window[0]), around - span),
                                      min(float(window[1]), around + span)))

    def natural_domain(self, m, anchor, window):
        """Largest pole-free open interval around anchor, clipped to window:
        the anchor's held cell, which does not depend on m."""
        lo, hi = float(window[0]), float(window[1])
        anchor = float(anchor)
        if not lo <= anchor <= hi:
            raise ValueError("anchor must lie inside the window")
        if lo == hi:
            raise ValueError("window must satisfy lo < hi")
        left, right = self._pole_free_cell(anchor)
        return (max(left, lo), min(right, hi))

    def _pole_free_cell(self, anchor):
        """The poles next to anchor, or an infinite end: the largest
        pole-free open interval around it, held per anchor (it does not
        depend on m). An anchor on a pole, to 1e-12, raises PoleError."""
        anchor = float(anchor)
        cell = self._memo.get(("cell", anchor))
        if cell is None:
            poles = self.singularities_near(1.0, (-math.inf, math.inf), anchor, 2.5)
            for pole in poles:
                if abs(pole - anchor) < 1e-12 * max(abs(pole), abs(anchor), 1.0):
                    raise PoleError(f"anchor {anchor} coincides with a pole", locations=[pole])
            cell = self._remember(("cell", anchor), (
                max((p for p in poles if p < anchor), default=-math.inf),
                min((p for p in poles if p > anchor), default=math.inf)))
        return cell


# ---------------------------------------------------------------------------
# presets

class _PresetDef(Record):
    _fields = ("kind", "sign_kind", "B", "needs_c", "free")


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
    sign = SignClass(pd.sign_kind, _float("c", c))   # c is dropped when a = 0
    if pd.kind is FamilyKind.INVERSE_POWER:
        if q == 0.0:
            raise FamilyError(f"preset {name} requires q != 0")
        b_eff, d_big_eff = 0.0, 0.0
    else:
        b_eff, d_big_eff = _float("b", b), _float("D", D)
    params = FamilyParams(sign=sign, A=_float("A", A), B=pd.B, b=b_eff,
                          D=d_big_eff, q=_float("q", q), t=_float("t", t),
                          d=_float("d", d))
    return Family(params=params, kind=pd.kind)


def preset_catalogue() -> list:
    """Stable sorted records describing the presets (for the CLI listing)."""
    return [{"name": name, "kind": pd.kind.value, "sign": pd.sign_kind,
             "B": pd.B.to_json(), "free": list(pd.free)}
            for name, pd in sorted(_PRESETS.items())]


# ---------------------------------------------------------------------------
# serialization

_FAMILY_KEYS = ("kind", "sign", "c", "A", "B", "b", "D", "q", "t", "d")
_NUMERIC_KEYS = ("c", "A", "b", "D", "q", "t", "d")


def json_number(name: str, value) -> float:
    """value as a float if it is a number the JSON schemas take: never a
    bool or a string, and finite, so within the double range; else
    ValueError naming it."""
    # the bound is False for nan, inf and integers beyond the double range
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def family_to_json(family: Family) -> dict:
    p = family.params
    named = {"kind": family.kind.value, "sign": p.sign.kind, "c": p.sign.c,
             "B": p.B.to_json()}
    return {key: named[key] if key in named else getattr(p, key)
            for key in _FAMILY_KEYS}


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
    vals = {key: json_number(f"family descriptor field {key!r}",
                             obj.get(key, 1.0 if key in ("c", "q") else 0.0))
            for key in _NUMERIC_KEYS}
    b_raw = obj.get("B", 0.0)
    if b_raw == "inf":
        B = INFINITY
    elif isinstance(b_raw, float):   # +-inf is the limit too, nan refused
        B = ExtendedReal(b_raw)
    elif isinstance(b_raw, int) and not isinstance(b_raw, bool):
        B = ExtendedReal(json_number("family descriptor field 'B'", b_raw))
    else:
        raise ValueError("B must be a number or the string 'inf'")
    sign = SignClass(sign_kind, vals.pop("c"))
    return Family(params=FamilyParams(sign=sign, B=B, **vals), kind=kind)
