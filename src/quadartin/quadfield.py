"""Exact arithmetic in the real quadratic field Q(sqrt(delta)).

Elements are stored as x + y*sqrt(delta) with Fraction coordinates, so the
operations the experiments use, products, inverses, quotients, powers, the
conjugate and the norm, are exact.  Integral elements (integer x, y) form
the ring Z[sqrt(delta)]; when delta = 1 (mod 4) this is a proper subring of the ring
of integers of the field, which is fine for everything done here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .arith import factorize, is_square

Coord = Union[int, Fraction]


class SquarefreeReductionWarning(UserWarning):
    """A non-squarefree delta was replaced by its squarefree kernel."""


def squarefree_kernel(n: int) -> int:
    """Squarefree part of n: the product of the primes dividing n to an odd
    power, with the sign of n.  n / kernel is always a perfect square."""
    k = 1
    for p, e in factorize(abs(n)).factors:
        if e % 2:
            k *= p
    return k if n > 0 else -k


@dataclass(frozen=True)
class FieldContext:
    """The field Q(sqrt(delta)) for a squarefree delta > 1.

    A non-squarefree delta is reduced to its squarefree kernel (the generated
    field is the same) with a warning.
    """

    delta: int

    def __post_init__(self):
        d = self.delta
        if d <= 1:
            raise ValueError(f"need delta > 1, got {d}")
        k = squarefree_kernel(d)
        if k != d:
            if k <= 1:
                raise ValueError(
                    f"delta {d} has squarefree kernel {k}; no real quadratic field"
                )
            warnings.warn(
                f"delta {d} is not squarefree; using its kernel {k}",
                SquarefreeReductionWarning,
                stacklevel=3,
            )
            object.__setattr__(self, "delta", k)

    def element(self, x: Coord, y: Coord) -> "QuadElem":
        return QuadElem(Fraction(x), Fraction(y), self)

    def integer(self, x: int, y: int) -> "QuadElem":
        """Element of Z[sqrt(delta)]; coordinates must be integers."""
        if x != int(x) or y != int(y):
            raise ValueError(f"integral element needs integer coords, got ({x}, {y})")
        return QuadElem(Fraction(int(x)), Fraction(int(y)), self)


@dataclass(frozen=True)
class QuadElem:
    """x + y*sqrt(delta) with exact rational coordinates."""

    x: Fraction
    y: Fraction
    ctx: FieldContext

    def _check(self, other: "QuadElem") -> None:
        if other.ctx.delta != self.ctx.delta:
            raise ValueError(
                f"mixed fields: delta {self.ctx.delta} vs {other.ctx.delta}"
            )

    @property
    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        d = self.ctx.delta
        return QuadElem(
            self.x * other.x + d * self.y * other.y,
            self.x * other.y + self.y * other.x,
            self.ctx,
        )

    def inverse(self) -> "QuadElem":
        n = norm(self)
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadElem(self.x / n, -self.y / n, self.ctx)

    def __truediv__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "QuadElem":
        if e < 0:
            return self.inverse() ** (-e)
        out = QuadElem(Fraction(1), Fraction(0), self.ctx)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __str__(self) -> str:
        return f"{self.x}+{self.y}*sqrt({self.ctx.delta})"


def conjugate(a: QuadElem) -> QuadElem:
    """Galois conjugate: sqrt(delta) maps to -sqrt(delta)."""
    return QuadElem(a.x, -a.y, a.ctx)


def norm(a: QuadElem) -> Fraction:
    """Field norm a * conjugate(a) = x^2 - delta * y^2, an exact rational."""
    return a.x * a.x - a.ctx.delta * a.y * a.y


def m_ratio(a: QuadElem) -> QuadElem:
    """conjugate(a) / a, an element of norm exactly 1."""
    if a.is_zero():
        raise ZeroDivisionError("m_ratio of zero")
    out = conjugate(a) / a
    if norm(out) != 1:
        raise ArithmeticError(f"conjugate ratio {out} has norm {norm(out)}, not 1")
    return out


def square_guard(a: QuadElem) -> bool:
    """True when neither N(a) nor 5*N(a)*delta is a perfect square.

    This is the hypothesis that keeps the norm nontrivial as a square class;
    a must be integral with nonzero norm.
    """
    if not a.is_integral:
        raise ValueError(f"square_guard needs an integral element, got {a}")
    n = norm(a)
    if n == 0:
        raise ValueError("zero norm")
    n = int(n)
    return not is_square(n) and not is_square(5 * n * a.ctx.delta)
