"""The uniform grid that the chain states and the finite-difference oracle share."""

import math
from functools import cached_property

from ._record import Record


class Grid(Record):
    """Uniform grid on [x0, x1] with n nodes, endpoints included."""

    _fields = ("x0", "x1", "n")

    def __init__(self, x0: float, x1: float, n: int):
        if not (math.isfinite(x0) and math.isfinite(x1)):
            raise ValueError("grid endpoints must be finite")
        if not math.isfinite(float(x1) - float(x0)):
            raise ValueError(f"grid span x1 - x0 = {x1!r} - {x0!r} is not "
                             "finite")
        if not x1 > x0:
            raise ValueError("grid needs x1 > x0")
        if n < 16:
            raise ValueError("grid needs at least 16 nodes")
        self.__dict__.update(x0=x0, x1=x1, n=n)

    @property
    def h(self) -> float:
        return (self.x1 - self.x0) / (self.n - 1)

    @cached_property
    def x(self):
        """The nodes, read-only so every reader shares them (copies build
        their own); not a field, so == and hash still compare (x0, x1, n)."""
        import numpy as np
        x = np.linspace(self.x0, self.x1, self.n)
        x.flags.writeable = False
        return x

    @property
    def mid(self) -> float:
        """x[n // 2] bit for bit, without the nodes: linspace's node i is
        fl(x0 + fl(i step)) with step = fl(span / (n - 1)), or, where that
        step underflows to 0, fl(x0 + fl(fl(i / (n - 1)) span))."""
        x0, i, div = float(self.x0), self.n // 2, self.n - 1
        span = float(self.x1) - x0
        return x0 + (i * (span / div) if span / div else (i / div) * span)
