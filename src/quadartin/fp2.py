"""Arithmetic and multiplicative orders in F_p^2 = F_p(sqrt(delta)) for an
inert prime p.

Elements are pairs (c0, c1) meaning c0 + c1*s where s^2 = delta mod p.  The
group of units is cyclic of order p^2 - 1; orders are computed exactly from
the factorizations of p - 1 and p + 1 held by the context.

order_record derives ord(alpha) from the order chain instead of descending
from p^2 - 1.  Frobenius is the p-power map, so alpha^(p+1) = N(alpha) lies
in F_p^* and alpha^(p-1) = conj(alpha)/alpha = M has norm 1.  ord N is found
over the primes of p - 1 with native pow, ord M over the primes of p + 1.
Every odd prime divides at most one of p - 1 and p + 1, and 2 divides one of
them exactly once, so with L = lcm(ord N, ord M) the order of alpha is L or
2L; one power alpha^L decides which.  If alpha^(2L) is not 1 either, the
chain is broken and OrderChainError is raised.  The tests keep the full
p^2 - 1 descent as the reference the derived order is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .arith import Factorization, factorize, jacobi
from .quadfield import FieldContext, QuadElem


class OrderChainError(ValueError):
    """Orders computed at one prime violate the order chain."""


# ---- raw kernels on plain ints (hot path; no dataclass overhead) ----------

def _mul_raw(a0: int, a1: int, b0: int, b1: int, p: int, d: int) -> Tuple[int, int]:
    return (a0 * b0 + d * a1 * b1) % p, (a0 * b1 + a1 * b0) % p


def _pow_raw(c0: int, c1: int, e: int, p: int, d: int) -> Tuple[int, int]:
    r0, r1 = 1, 0
    while e:
        if e & 1:
            r0, r1 = (r0 * c0 + d * r1 * c1) % p, (r0 * c1 + r1 * c0) % p
        c0, c1 = (c0 * c0 + d * c1 * c1) % p, 2 * c0 * c1 % p
        e >>= 1
    return r0, r1


def _order_raw(c0: int, c1: int, n: int, qs, p: int, d: int) -> int:
    # n is a multiple of the order; qs lists the distinct primes of n.
    for q in qs:
        while n % q == 0:
            m = n // q
            if _pow_raw(c0, c1, m, p, d) == (1, 0):
                n = m
            else:
                break
    return n


def _order_mod_p(a: int, n: int, qs, p: int) -> int:
    # Same reduction in the prime subfield, using native modular pow.
    for q in qs:
        while n % q == 0:
            m = n // q
            if pow(a, m, p) == 1:
                n = m
            else:
                break
    return n


@dataclass(frozen=True)
class Fp2Context:
    """An inert prime p together with delta mod p and the factorizations of
    p - 1 and p + 1 (everything order computations need)."""

    p: int
    delta_mod_p: int
    fact_pm1: Factorization
    fact_pp1: Factorization

    @classmethod
    def for_prime(cls, p: int, field: FieldContext) -> "Fp2Context":
        if p == 2 or field.delta % p == 0:
            raise ValueError(f"p = {p} does not stay prime over delta = {field.delta}")
        if jacobi(field.delta, p) != -1:
            raise ValueError(f"p = {p} splits: delta = {field.delta} is a square mod p")
        return cls(p, field.delta % p, factorize(p - 1), factorize(p + 1))

    def __post_init__(self):
        if self.fact_pm1.value != self.p - 1 or self.fact_pp1.value != self.p + 1:
            raise ValueError("factorizations do not match p")
        if jacobi(self.delta_mod_p, self.p) != -1:
            raise ValueError(f"delta = {self.delta_mod_p} is a square mod {self.p}")


@dataclass(frozen=True)
class OrderRecord:
    """Orders attached to one reduced element: the element's own order, the
    order of its norm (in F_p^*), the order of its conjugate ratio, and
    whether the order clears the (p^2 - 1)/24 threshold."""

    p: int
    ord_alpha: int
    ord_n: int
    ord_m: int
    attained: bool

    def __post_init__(self):
        n = self.p * self.p - 1
        if n % self.ord_alpha or (self.p - 1) % self.ord_n or (self.p + 1) % self.ord_m:
            raise OrderChainError(f"inconsistent orders at p = {self.p}")
        if self.ord_alpha % self.ord_n or self.ord_alpha % self.ord_m:
            raise OrderChainError(
                f"ord_n or ord_m does not divide ord_alpha at p = {self.p}"
            )
        if (2 * self.ord_alpha) % (self.ord_m * self.ord_n):
            raise OrderChainError(
                f"ord_m * ord_n does not divide 2 * ord_alpha at p = {self.p}"
            )
        if self.attained != (24 * self.ord_alpha >= n):
            raise ValueError(f"attained flag wrong at p = {self.p}")


def order_record(a: QuadElem, ctx: Fp2Context) -> OrderRecord:
    """Full order profile of an integral element mod the inert prime p.

    Requires the reduction to be invertible: p must not divide the norm.
    ord_alpha is derived from ord_n and ord_m as the module docstring
    describes; a broken chain raises OrderChainError.
    """
    if not a.is_integral:
        raise ValueError(f"cannot reduce non-integral element {a}")
    p = ctx.p
    d = ctx.delta_mod_p
    c0 = int(a.x) % p
    c1 = int(a.y) % p
    nrm = (c0 * c0 - d * c1 * c1) % p
    if nrm == 0:
        raise ValueError(f"p = {p} divides the norm of {a}")

    ord_n = _order_mod_p(nrm, p - 1, ctx.fact_pm1.primes, p)
    # conjugate ratio: (c0 - c1 s) / (c0 + c1 s) = (c0 - c1 s)^2 / norm
    s0, s1 = _mul_raw(c0, -c1 % p, c0, -c1 % p, p, d)
    ninv = pow(nrm, -1, p)
    m0, m1 = s0 * ninv % p, s1 * ninv % p
    ord_m = _order_raw(m0, m1, p + 1, ctx.fact_pp1.primes, p, d)
    lcm = math.lcm(ord_n, ord_m)
    t0, t1 = _pow_raw(c0, c1, lcm, p, d)
    if (t0, t1) == (1, 0):
        ord_alpha = lcm
    elif _mul_raw(t0, t1, t0, t1, p, d) == (1, 0):
        ord_alpha = 2 * lcm
    else:
        raise OrderChainError(
            f"alpha^(2L) != 1 for L = lcm(ord_n, ord_m) = {lcm} at p = {p}"
        )
    attained = 24 * ord_alpha >= p * p - 1
    return OrderRecord(p, ord_alpha, ord_n, ord_m, attained)
