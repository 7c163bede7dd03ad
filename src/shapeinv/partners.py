"""Partner potentials, shape invariance, and factorization residuals.

A superpotential W(x, m) generates the pair

    V(x, m)      = W^2 - W' + d
    Vtilde(x, m) = W^2 + W' + d

and a family is shape invariant when Vtilde(x, m) = V(x, m-1) + R(m-1) with
R independent of x. Closed-form coefficient records for both potentials are
available for every family, expressed in the family's (f, h) basis.
"""

from __future__ import annotations

from ._record import Record
from .families import Family
from .riccati import TERMS, _ret, quadratic

__all__ = [
    "PotentialPair", "pair_from_family", "shape_invariance_residual",
    "closed_form_potentials", "PotentialRecord", "classify_L_sequence",
    "LSequenceClass", "factorization_residuals",
]


class PotentialPair(Record):
    """A superpotential with its two partner potentials and the energy offset d.

    W is the family itself, or any object with k(x, m) and its exact x
    derivative k_prime(x, m).
    """

    _fields = ("W", "d")

    def __init__(self, W: Family, d: float = 0.0):
        self.__dict__.update(W=W, d=d)

    def V(self, x, m):
        w = self.W.k(x, m)
        return w * w - self.W.k_prime(x, m) + self.d

    def Vtilde(self, x, m):
        w = self.W.k(x, m)
        return w * w + self.W.k_prime(x, m) + self.d


def pair_from_family(family: Family, d=None) -> PotentialPair:
    if d is None:
        d = family.params.d
    return PotentialPair(W=family, d=float(d))


def shape_invariance_residual(pp: PotentialPair, family: Family, m, x):
    """Vtilde(x, m) - V(x, m-1) - R(m-1); identically zero for a shape-invariant pair."""
    m = float(m)
    return pp.Vtilde(x, m) - pp.V(x, m - 1.0) - family.R(m - 1.0)


# ---------------------------------------------------------------------------
# closed-form potential records

_COEFF_KEYS = ("f2", "fh", "h2", "f", "const")


class PotentialRecord(Record):
    """Coefficients of V - d and Vtilde - d in the basis {f^2, f h, h^2, f, 1}.

    The bare-f entry is nonzero only for inverse-power families. basis is
    the row's basis_name: 'limit' when its B = (p : q) has q = 0, which is
    B = infinity, where (f, h) are the limit forms (tanh and sech, 1/t and
    t/2, tan and sec), else 'generic'.
    """

    _fields = ("basis", "V", "Vtilde", "R_at_m", "m", "family")

    def _eval(self, coeffs, x):
        bs = self.family.basis()
        return _ret(quadratic([coeffs.get(key, 0.0) for key in TERMS],
                              bs.f(x), bs.h(x)))

    def V_minus_d(self, x):
        return self._eval(self.V, x)

    def Vtilde_minus_d(self, x):
        return self._eval(self.Vtilde, x)

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "V": {k: self.V[k] for k in _COEFF_KEYS},
            "Vtilde": {k: self.Vtilde[k] for k in _COEFF_KEYS},
            "R_at_m": self.R_at_m,
        }


def closed_form_potentials(family: Family, m) -> PotentialRecord:
    """Exact expansion of the partner pair in the family's (f, h) basis.

    With k(., m) = gamma f + beta h + kappa (Family._k_coefficients) and f',
    h' read from the row's algebra(), the record is W^2 -+ W' expanded term
    by term and nothing else: no multiple of the row's invariant is folded
    in, so the inverse-power rows with a != 0 keep an f^2 term. The h term,
    2 beta kappa, is zero in both ansatze and is not kept.
    """
    m = float(m)
    gamma, beta, kappa = family._k_coefficients(m)
    form = family.basis()
    df, dh, _ = form.algebra()
    square = (gamma * gamma, 2.0 * gamma * beta, beta * beta,
              2.0 * gamma * kappa, 2.0 * beta * kappa, kappa * kappa)
    slope = [gamma * u + beta * v for u, v in zip(df, dh)]
    terms = [t for t in zip(TERMS, square, slope) if t[0] in _COEFF_KEYS]
    # adding 0.0 turns a -0.0 into 0.0
    V = {key: w - s + 0.0 for key, w, s in terms}
    Vt = {key: w + s + 0.0 for key, w, s in terms}
    return PotentialRecord(form.basis_name, V, Vt, family.R(m), m, family)


# ---------------------------------------------------------------------------
# spectral symbol classification and factorization residuals

class LSequenceClass(Record):
    """Monotonicity of L along the orbit m -> m - 1, plus the probed values;
    kind is 'decreasing', 'increasing' or 'other'."""

    _fields = ("kind", "values")


def classify_L_sequence(family: Family, m0, steps: int = 2) -> LSequenceClass:
    """Probe L(m0), L(m0 - 1), ..., L(m0 - steps) and classify the trend.

    Every probed parameter must be admissible; an orbit that hits a point
    where L is undefined (inverse-power families at m = 0) raises the
    family's own error. At least two values are probed.
    """
    m0 = float(m0)
    values = tuple(family.L(m0 - j) for j in range(max(int(steps), 1) + 1))
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    if all(dv < 0 for dv in diffs):
        return LSequenceClass("decreasing", values)
    if all(dv > 0 for dv in diffs):
        return LSequenceClass("increasing", values)
    return LSequenceClass("other", values)


def factorization_residuals(family: Family, m, x, d=None):
    """Two residuals tying k, L, and the potentials together; both vanish.

    With r(x, m) = -(V(x, m) - d) - L(m):
      r1 = r(x, m) + r(x, m-1) + 2 k(x, m)^2 + 2 L(m)
      r2 = r(x, m) - r(x, m-1) - 2 k'(x, m)
    """
    m = float(m)
    pp = pair_from_family(family, d)
    d = pp.d
    r_m = -(pp.V(x, m) - d) - family.L(m)
    r_prev = -(pp.V(x, m - 1.0) - d) - family.L(m - 1.0)
    k_val = family.k(x, m)
    r1 = r_m + r_prev + 2.0 * k_val * k_val + 2.0 * family.L(m)
    r2 = r_m - r_prev - 2.0 * family.k_prime(x, m)
    return r1, r2
