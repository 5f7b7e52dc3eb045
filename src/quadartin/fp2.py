"""Arithmetic and multiplicative orders in F_p^2 = F_p(sqrt(delta)) for an
inert prime p.

Elements are pairs (c0, c1) meaning c0 + c1*s where s^2 = delta mod p.  The
group of units is cyclic of order p^2 - 1.  Orders come from the order
chain instead of a descent from p^2 - 1.  Frobenius is the p-power map, so
alpha^(p+1) = N(alpha) lies in F_p^* and alpha^(p-1) = conj(alpha)/alpha =
M has norm 1.  ord N is found over the primes of p - 1, ord M over the
primes of p + 1, each by Cohen's descent from a factored group order (GTM
138, Alg. 1.4.3).  Every odd prime divides at most one of p - 1 and p + 1,
and 2 divides one of them exactly once, so with L = lcm(ord N, ord M) the
order of alpha is L or 2L; one power alpha^L decides which.  If alpha^(2L)
is not 1 either, the chain is broken.

order_arrays runs this on int64 arrays for every prime below 2**31 at once:
powmod in F_p and an F_p^2 ladder that reduces every product mod p, so no
product passes p^2 < 2**62.  descend is the one descent routine, shared
with the lemma42 subgroup sizes.  order_record is the scalar route on
Python ints, for primes past that bound; it raises OrderChainError on a
broken chain.  The tests keep the full p^2 - 1 descent as the reference
both are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .arith import Factorization, factorize, jacobi, powmod
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


@dataclass(frozen=True, slots=True)
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


# ---- array kernel: every prime below 2**31 at once ------------------------

Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def descend(h: np.ndarray, p, q, e, power: Callable, is_one: Callable) -> np.ndarray:
    """Per row r, the least k with h[..., r] ** (q[r] ** k) = 1, where
    h[..., r] = g ** (n / q[r] ** e[r]) for q[r] ** e[r] exactly dividing the
    order n of the group mod p[r]; q ** k is then the q-part of ord g.
    power(h, rows) returns h ** q[rows] on the given rows and is_one marks
    the identity.  A row not at 1 after e[r] powers raises ArithmeticError
    rather than return a wrong order."""
    steps = np.zeros(q.size, dtype=np.int64)
    live = np.flatnonzero(~is_one(h))
    while live.size:
        over = live[steps[live] >= e[live]]
        if over.size:
            r = over[0]
            raise ArithmeticError(
                f"descent for q = {int(q[r])} at p = {int(p[r])} "
                f"exceeds e = {int(e[r])} steps"
            )
        h[..., live] = power(h[..., live], live)
        steps[live] += 1
        live = live[~is_one(h[..., live])]
    return steps


def _mul_array(a0, a1, b0, b1, p, d):
    # each product of two residues is below p**2 < 2**62, each sum of two
    # below 2**63
    return (a0 * b0 + d * a1 % p * b1) % p, (a0 * b1 + a1 * b0) % p


def _is_one_fp2(x: np.ndarray) -> np.ndarray:
    return (x[0] == 1) & (x[1] == 0)


def _pow_array(x: np.ndarray, k: np.ndarray, p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x ** k in F_p^2, elementwise: x has shape (2, n) with both coordinates
    reduced mod p < 2**31, d = delta mod p, and 0 <= k < 2**63.  Left to
    right square and multiply, the multiply only on the rows whose bit is
    set, so no table of powers is held."""
    c0, c1 = x
    r0, r1 = np.ones(c0.size, dtype=np.int64), np.zeros(c0.size, dtype=np.int64)
    for s in range(int(k.max()).bit_length() - 1 if k.size else -1, -1, -1):
        r0, r1 = _mul_array(r0, r1, r0, r1, p, d)
        j = np.flatnonzero((k >> s) & 1)
        r0[j], r1[j] = _mul_array(r0[j], r1[j], c0[j], c1[j], p[j], d[j])
    return np.stack([r0, r1])


def _orders(g, p, n, rows: Rows, power, is_one) -> np.ndarray:
    """ord g[..., j] in a cyclic group of order n[j] mod p[j], from the
    prime-power rows (i, q, e) of n: each row's g ** (n / q**e) descends to
    1 in k steps of q-th powers, and the order is the product of the q**k."""
    i, q, e = rows
    h = power(g[..., i], n[i] // q**e, i)
    k = descend(h, p[i], q, e, lambda h, r: power(h, q[r], i[r]), is_one)
    out = np.ones(n.size, dtype=np.int64)
    np.multiply.at(out, i, q**k)
    return out


def _orders_mod_p(a: np.ndarray, p: np.ndarray, rows: Rows) -> np.ndarray:
    """ord a mod p for each residue a[j] != 0 mod p[j], from the rows of p - 1."""
    return _orders(a, p, p - 1, rows, lambda x, k, r: powmod(x, k, p[r]), lambda h: h == 1)


def order_arrays(
    c0: np.ndarray, c1: np.ndarray, p: np.ndarray, d: np.ndarray, minus: Rows, plus: Rows
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ord_alpha, ord_n, ord_m, attained, chain_ok) for alpha = c0 + c1*s at
    every inert prime p[j] < 2**31 at once: order_record's derivation on
    int64 arrays.  c0, c1 and d = delta mod p are reduced mod p; minus and
    plus are the (i, q, e) rows of p - 1 and p + 1.  chain_ok is False
    where alpha^(2L) != 1 or any divisibility OrderRecord checks fails.
    Raises ValueError where p divides the norm."""
    nrm = (c0 * c0 - d * c1 % p * c1) % p
    if not nrm.all():
        raise ValueError(f"p = {int(p[np.argmin(nrm)])} divides the norm")
    ord_n = _orders_mod_p(nrm, p, minus)
    # conjugate ratio: (c0 - c1 s) / (c0 + c1 s) = (c0 - c1 s)^2 / norm
    s0, s1 = _mul_array(c0, -c1 % p, c0, -c1 % p, p, d)
    ninv = powmod(nrm, p - 2, p)
    m = np.stack([s0 * ninv % p, s1 * ninv % p])
    ord_m = _orders(m, p, p + 1, plus, lambda x, k, r: _pow_array(x, k, p[r], d[r]), _is_one_fp2)
    lcm = np.lcm(ord_n, ord_m)
    t0, t1 = _pow_array(np.stack([c0, c1]), lcm, p, d)
    at_l = (t0 == 1) & (t1 == 0)
    ord_alpha = np.where(at_l, lcm, 2 * lcm)
    n = p * p - 1
    chain_ok = (
        (at_l | _is_one_fp2(_mul_array(t0, t1, t0, t1, p, d)))
        & (n % ord_alpha == 0)
        & ((p - 1) % ord_n == 0)
        & ((p + 1) % ord_m == 0)
        & (ord_alpha % ord_n == 0)
        & (ord_alpha % ord_m == 0)
        & (2 * ord_alpha % (ord_n * ord_m) == 0)
    )
    # ceil((p^2 - 1)/24) compared directly: 24 * ord_alpha could pass 2**63
    attained = ord_alpha >= (n + 23) // 24
    return ord_alpha, ord_n, ord_m, attained, chain_ok
