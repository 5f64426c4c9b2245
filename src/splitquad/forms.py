"""Lattice scaling data for the split quadratic form F0(x, y) = x.y.

Vectors are flat arrays of length 2*d1 with the (x, y) split fixed at
index d1; the exponential sums take d1 itself.  The gradient of F0 is the
coordinate swap (x, y) -> (y, x), so |grad F0(z)| = |z|; this norm is the
density of the surface measure used by the singular integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentError


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice period 1/L and quadric level m, with t = m*L^2 integral.

    Floating L cannot certify integrality of m*L^2, so the constructor
    accepts exact rationals (int, Fraction, or float that is exactly
    representable) and rejects any (L, m) pair with non-integer m*L^2.
    """

    L: float
    m: float

    def __post_init__(self):
        if not self.L >= 1:
            raise ArgumentError(f"L must be >= 1, got {self.L}")
        try:
            t = Fraction(self.L) ** 2 * Fraction(self.m)
        except (OverflowError, ValueError):               # inf or nan
            raise ArgumentError(f"L and m must be finite, got L = {self.L}, "
                                f"m = {self.m}") from None
        if t.denominator != 1:
            raise ArgumentError(f"m*L^2 = {t} is not an integer")

    @property
    def t(self) -> int:
        return int(Fraction(self.L) ** 2 * Fraction(self.m))
