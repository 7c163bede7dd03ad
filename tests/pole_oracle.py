"""The pole scan that branched on the sign class, kept as a test oracle.

`riccati.RiccatiSolution.singularities` now reads its poles off the row of
the closed-form table (`poles`). This module keeps the scan it replaced,
verbatim apart from taking the solution as an argument: one branch per sign
class and B form, then one Newton step per root. The tests require both to
return equal lists.
"""

import math


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
        r = _polish_root(self, r)
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
