"""Multiplicative orders in F_p^2 = F_p(sqrt(delta)) for inert primes p,
one array of primes at a time.

Elements are pairs (c0, c1) meaning c0 + c1*s where s^2 = delta mod p.  The
group of units is cyclic of order p^2 - 1.  Orders come from the order
chain instead of a descent from p^2 - 1.  Frobenius is the p-power map, so
alpha^(p+1) = N(alpha) lies in F_p^* and alpha^(p-1) = conj(alpha)/alpha =
M has norm 1.  ord N is found over the primes of p - 1, ord M over the
primes of p + 1.  Every odd prime divides at most one of p - 1 and p + 1,
and 2 divides one of them exactly once, so with L = lcm(ord N, ord M) the
order of alpha is L or 2L; one power alpha^L decides which.  If
alpha^(2L) is not 1 either, the chain is broken.

_orders is the one order routine: the size of the subgroup a stack of
generators spans in a cyclic group whose order has been factored (Cohen,
GTM 138, Alg. 1.4.3), optionally capped, with rows filled largest q first
and the open ones descended.  order_arrays runs it for ord N in F_p and
ord M in F_p^2, and the lemma42 subgroup sizes run it in F_p.  Its
arrays are int64 for primes below 2**31, where no product passes
p^2 < 2**62, and object arrays of Python ints past it; every accumulator
takes the dtype of p.  The tests keep the scalar order_record and the
full p^2 - 1 descent as the references it is checked against.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .arith import POWMOD_LIMIT, powmod


Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _mul_array(a0, a1, b0, b1, p, d):
    # in int64 each product of two residues is below p**2 < 2**62, each sum
    # of two below 2**63
    return (a0 * b0 + d * a1 % p * b1) % p, (a0 * b1 + a1 * b0) % p


def _is_one_fp2(x: np.ndarray) -> np.ndarray:
    return (x[0] == 1) & (x[1] == 0)


def _pow_array(x: np.ndarray, k: np.ndarray, p: np.ndarray,
               d: Optional[np.ndarray] = None) -> np.ndarray:
    """x ** k elementwise for k >= 0: in F_p when d is None, else in F_p^2
    with x of shape (2, n) and d = delta mod p; x reduced mod p, all int64
    with p < 2**31 or all Python ints.  Left to right square and multiply
    from the top bit of the largest k, the multiply only on the elements
    whose bit is set, so no table of powers is held."""

    def mul(a, b, p, d):
        return (a[0] * b[0] % p,) if d is None else _mul_array(*a, *b, p, d)

    x = (x,) if d is None else tuple(x)
    r = (np.ones_like(p),) if d is None else (np.ones_like(p), np.zeros_like(p))
    top = int(k.max()).bit_length() - 1 if k.size else -1
    for s in range(top, -1, -1):
        j = np.flatnonzero((k >> s) & 1)
        if s < top:
            r = mul(r, r, p, d)
            if j.size:
                at = mul([c[j] for c in r], [c[j] for c in x], p[j], None if d is None else d[j])
                for c, v in zip(r, at):
                    c[j] = v
        else:
            for c, v in zip(r, x):
                c[j] = v[j]
    return r[0] if d is None else np.stack(r)


# Edges of the bands of q in which _orders visits the rows of its first
# generator, the top band first.  A large q has a short fill exponent n/q
# and usually fills its row, so a capped element often settles before its
# long q = 3, 5, 7 powers, and before the longest, q = 2, which has a band
# of its own.
Q_EDGES = (3, 10, 100, 1000)


def _orders(g: np.ndarray, p: np.ndarray, n: np.ndarray, rows: Rows,
            d: Optional[np.ndarray] = None, cap: Optional[int] = None) -> np.ndarray:
    """min(|<g[0][..., j], g[1][..., j], ...>|, cap) for every element j of
    a cyclic group of order n[j], from the prime-power rows (i, q, e) of n:
    F_p^* mod p[j] when d is None, else F_p^2 with d = delta mod p.  The
    generators g are reduced mod p in p's dtype; cap None keeps sizes exact.

    A row fills, with q-part q**e, once some generator has g**(n/q) != 1.
    Rows are visited in the bands between Q_EDGES, largest q first, and an
    element settles once the product of its filled q**e reaches cap.  On
    its open unfilled rows with e > 1 each h = g**(n/q**e) descends to 1 in
    k q-th powers, and the q-part is q**max(k) (Cohen, GTM 138, Alg. 1.4.3);
    a descent past e steps raises ArithmeticError, not a wrong size.  Only
    the first generator goes band by band; each later one fills what is
    left in one power, and the descent steps of every generator share one
    array and are multiplied out by _pow_array, with no call to powmod."""

    def power(x, k, j):
        return powmod(x, k, p[j]) if d is None else _pow_array(x, k, p[j], d[j])

    is_one = (lambda x: x == 1) if d is None else _is_one_fp2
    i, q, e = rows
    top = int(n.max(initial=1))
    cap = top if cap is None else min(int(cap), top)
    # the product of each element's filled q**e, a lower bound on its size
    sizes = np.ones(n.size, dtype=n.dtype)
    full = np.zeros(i.size, dtype=bool)
    band = np.zeros(i.size, dtype=np.uint8)
    for t in Q_EDGES:
        band += q >= t

    def fill(x, r):
        # x is powered on those of the rows r still open: unfilled, of an
        # element that has not settled
        r = r[~full[r] & (sizes < cap)[i[r]]]
        j = i[r]
        full[r] = ~is_one(power(x[..., j], n[j] // q[r], j))
        f = r[full[r]]
        np.multiply.at(sizes, i[f], q[f] ** e[f])

    # the first generator band by band, each later one in one call on every
    # row still open
    for b in range(len(Q_EDGES), -1, -1):
        fill(g[0], np.flatnonzero(band == b))
    for x in g[1:]:
        fill(x, np.flatnonzero(~full))

    # descent on the rows no generator fills, of the elements still open;
    # with e = 1 such a row's h is already 1, so its q-part is 1.  Column c
    # of h is generator c // r.size at row r[c % r.size]
    r = np.flatnonzero(~full & (e > 1) & (sizes < cap)[i])
    c = np.tile(r, len(g))
    h = power(np.concatenate([x[..., i[r]] for x in g], axis=-1), n[i[c]] // q[c] ** e[c], i[c])
    steps = np.zeros(c.size, dtype=np.int64)
    live = np.flatnonzero(~is_one(h))
    h = h[..., live]
    while live.size:
        t = c[live]
        over = np.flatnonzero(steps[live] >= e[t])
        if over.size:
            t = t[over[0]]
            raise ArithmeticError(f"descent for q = {int(q[t])} at p = {int(p[i[t]])} "
                                  f"exceeds e = {int(e[t])} steps")
        h = _pow_array(h, q[t], p[i[t]], None if d is None else d[i[t]])
        steps[live] += 1
        keep = ~is_one(h)
        live, h = live[keep], h[..., keep]
    np.multiply.at(sizes, i[r], q[r] ** steps.reshape(len(g), r.size).max(axis=0, initial=0))
    return np.minimum(sizes, cap)


def order_arrays(
    c0: np.ndarray, c1: np.ndarray, p: np.ndarray, d: np.ndarray, minus: Rows, plus: Rows
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ord_alpha, ord_n, ord_m, attained, chain_ok) for alpha = c0 + c1*s at
    every inert prime p[j] at once, by the derivation the module docstring
    describes.  p is int64 with every prime below 2**31, or an object array
    of Python ints; c0, c1 and d = delta mod p are reduced mod p in the same
    dtype, and the orders come out in it.  minus and plus are the (i, q, e)
    rows of p - 1 and p + 1.  chain_ok is False where alpha^(2L) != 1 or
    any divisibility of the order chain fails.  Raises ValueError where p
    divides the norm, and on int64 primes from 2**31 on, whose F_p^2
    products would wrap."""
    if p.dtype != object and p.size and p.max() >= POWMOD_LIMIT:
        raise ValueError(f"p = {int(p.max())} needs Python ints: int64 products would wrap")
    nrm = (c0 * c0 - d * c1 % p * c1) % p
    if not nrm.all():
        raise ValueError(f"p = {int(p[np.argmin(nrm)])} divides the norm")
    ord_n = _orders(nrm[None], p, p - 1, minus)
    # conjugate ratio: (c0 - c1 s) / (c0 + c1 s) = (c0 - c1 s)^2 / norm
    s0, s1 = _mul_array(c0, -c1 % p, c0, -c1 % p, p, d)
    ninv = powmod(nrm, p - 2, p)
    m = np.stack([s0 * ninv % p, s1 * ninv % p])
    ord_m = _orders(m[None], p, p + 1, plus, d)
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
