"""Multiplicative orders in F_p^2 = F_p(sqrt(delta)) for inert primes p,
one array of primes at a time, in F_p arithmetic only.

alpha = c0 + c1*s with s^2 = delta mod p.  The units form a cyclic group of
order p^2 - 1, and Frobenius is the p-power map, so alpha^(p+1) = N =
c0^2 - delta*c1^2 lies in F_p^*, and alpha^(p-1) = M = conj(alpha)/alpha in
the norm-one torus, of order p + 1.  ord N is found over the primes of
p - 1, ord M over the primes of p + 1.

The torus.  M and 1/M are the roots of x^2 - t*x + 1, t = M + 1/M =
(conj(alpha)^2 + alpha^2)/N = 2*(c0^2 + delta*c1^2)/N, so M^k + M^-k =
V_k(t), the Lucas sequence V_0 = 2, V_1 = P, V_(k+1) = P*V_k - V_(k-1) at
P = t.  As V_k(t) - 2 = (M^k - 1)^2 / M^k, M^k = 1 exactly when
V_k(t) = 2, and M^k = -1 exactly when V_k(t) = -2.  A power of M is held
by its trace, and V_q(V_k(t)) = V_qk(t) is a descent step.

The order of alpha.  Let A = ord alpha and L = lcm(ord N, ord M).  Every
odd prime divides at most one of p - 1 and p + 1, and 2 divides one of
them exactly once.  ord N = A / gcd(A, p + 1) and ord M = A / gcd(A, p - 1),
so v_q(L) = v_q(A) for odd q, and v_2(L) = max(v_2(A) - 1, 0): each of ord N
and ord M loses at least one factor 2 of A, and one of them exactly one.
So A is L or 2L, and A = 2L whenever L is even.  And alpha^L = +-1, since
alpha^2 = N/M gives alpha^(2L) = N^L * M^-L = 1.
- Even L: alpha^L = (alpha^2)^(L/2) = N^(L/2) * M^(-L/2), with h =
  N^(L/2) = +-1 from one power in F_p and M^(L/2) = +-1 from V_(L/2)(t) =
  +-2.  A = 2L makes their signs multiply to -1.
- Odd L: alpha and -alpha share N and M, so alpha's own trace decides, on
  the torus.  h = N^((L+1)/2) has h^2 = N^L * N = N exactly when N^L = 1.
  Then beta = alpha/h has norm N/h^2 = 1 and trace tau = 2*c0*h/N, and
  beta^L = alpha^L, as h^L = (N^L)^((L+1)/2) = 1.  So alpha^L = e = +-1
  exactly when V_L(tau) = 2e, by the same ladder as M's, with L reduced
  mod p + 1 since beta^(p+1) = 1; A = L when e = 1.
Either way the test is one power h in F_p and one ladder at Q = 1.

chain_ok.  Either test implies alpha^(2L) = 1, the even one through
alpha^L = -1 and the odd one through alpha^L = beta^L = +-1.  The odd test
is equivalent to alpha^(2L) = 1, which makes alpha^L = +-1, so N^L =
alpha^L * conj(alpha)^L = 1 and h^2 = N; the even test asks alpha^L = -1,
which the 2-adic count gives for every correct ord N and ord M.  A too
small L fails them.

_orders is the one order routine: the size of the subgroup a stack of
generators spans in a cyclic group whose order has been factored (Cohen,
GTM 138, Alg. 1.4.3), optionally capped, with rows filled largest q first
and the open ones descended.  order_arrays runs it for ord N in F_p and
for ord M on the torus, and the lemma42 subgroup sizes run it in F_p.  Each
of its powers, fills and descent steps alike, is one call: arith.powmod in
F_p, lucas_v on the torus.  Its primes come through arith.exact_ints: int64
below 2**31, where no product passes p^2 < 2**62, and object arrays of
Python ints past it; every accumulator takes the dtype of p.  The tests keep
the scalar order_record and the full p^2 - 1 descent as the references it
is checked against.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .arith import exact_ints, powmod


Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def lucas_v(P: np.ndarray, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """V_k(P) mod p elementwise for k >= 0: the Lucas sequence V_0 = 2,
    V_1 = P, V_(j+1) = P*V_j - V_(j-1) at Q = 1, so V_k(x + 1/x) = x^k +
    x^-k.  P is reduced mod p in p's dtype.  int64 moduli that
    arith.exact_ints widens are taken through Python ints, and the result
    comes back in p's dtype, so no product wraps.

    The ladder holds V_j and V_(j+1) and, from the top bit of the largest k,
    steps to j -> 2j + b, b the next bit, by V_2j = V_j^2 - 2 and
    V_(2j+1) = V_j*V_(j+1) - P (Joye & Quisquater, Electronics Letters 32,
    1996): two products per bit.  It keeps the pair as sq = V_(j+b)^2 - 2
    and x = V_j*V_(j+1) - P, unordered: the next step squares sq when its
    bit equals b and x otherwise, a test on k ^ (k >> 1), and only the end
    puts them in order.  It starts at j = 0, which a zero bit keeps at
    (2, P), so every k shares the one loop."""
    if p.dtype != object and exact_ints(p).dtype == object:
        return lucas_v(P.astype(object), k, p.astype(object)).astype(p.dtype)
    sq, x = np.full_like(p, 2), P
    flips = k ^ (k >> 1)
    top = int(k.max()).bit_length() if k.size else 0
    for s in range(top - 1, -1, -1):
        y = np.where(flips & (1 << s), x, sq)  # V_(j+b)
        x = x * sq
        x -= P
        sq = y * y
        sq -= 2
        x %= p
        sq %= p
    return np.where(k & 1, x, sq)


# Edges of the bands of q in which _orders visits the rows of its first
# generator, the top band first.  A large q has a short fill exponent n/q
# and usually fills its row, so a capped element often settles before its
# long q = 3, 5, 7 powers, and before the longest, q = 2, which has a band
# of its own.
Q_EDGES = (3, 10, 100, 1000)


def _orders(g: np.ndarray, p: np.ndarray, n: np.ndarray, rows: Rows,
            torus: bool = False, cap: Optional[int] = None) -> np.ndarray:
    """min(|<g[0][j], g[1][j], ...>|, cap) for every element j of a cyclic
    group of order n[j], from the prime-power rows (i, q, e) of n: F_p^*
    mod p[j], or with torus the norm-one torus of F_p^2, of order p[j] + 1,
    whose elements g holds by their traces.  The generators g are reduced
    mod p in p's dtype; cap None keeps sizes exact.

    A row fills, with q-part q**e, once some generator has g**(n/q) != 1.
    Rows are visited in the bands between Q_EDGES, largest q first, and an
    element settles once the product of its filled q**e reaches cap.  On
    its open unfilled rows with e > 1 each h = g**(n/q**e) descends to 1 in
    k q-th powers, and the q-part is q**max(k) (Cohen, GTM 138, Alg. 1.4.3);
    a descent past e steps raises ArithmeticError, not a wrong size.  Only
    the first generator goes band by band; each later one fills what is
    left in one power, the descent starts in one power per generator, and
    the descent steps of every generator share one array.  Every power is
    one call: powmod's in F_p, which raises one integer b >= 2 by its
    scalar ladder when every element is b, as lemma42's generators are at
    the primes past them, and lucas_v's on the torus, where the identity is
    the trace 2."""
    power, one = (lucas_v, 2) if torus else (powmod, 1)
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
        # x is powered on those of the unfilled rows r whose element has
        # not settled
        r = r[(sizes < cap)[i[r]]]
        j = i[r]
        full[r] = power(x[j], n[j] // q[r], p[j]) != one
        f = r[full[r]]
        np.multiply.at(sizes, i[f], q[f] ** e[f])

    # the first generator band by band, each later one in one call on every
    # row still open
    for b in range(len(Q_EDGES), -1, -1):
        fill(g[0], np.flatnonzero(band == b))
    for x in g[1:]:
        fill(x, np.flatnonzero(~full))

    # descent on the rows no generator fills, of the elements still open;
    # with e = 1 such a row's h is already 1, so its q-part is 1.  Element c
    # of h is generator c // r.size at row r[c % r.size]
    r = np.flatnonzero(~full & (e > 1) & (sizes < cap)[i])
    c = np.tile(r, len(g))
    j = i[r]
    h = np.concatenate([power(x[j], n[j] // q[r] ** e[r], p[j]) for x in g])
    steps = np.zeros(c.size, dtype=np.int64)
    live = np.flatnonzero(h != one)
    h = h[live]
    while live.size:
        t = c[live]
        over = np.flatnonzero(steps[live] >= e[t])
        if over.size:
            t = t[over[0]]
            raise ArithmeticError(f"descent for q = {int(q[t])} at p = {int(p[i[t]])} "
                                  f"exceeds e = {int(e[t])} steps")
        h = power(h, q[t], p[i[t]])
        steps[live] += 1
        keep = h != one
        live, h = live[keep], h[keep]
    np.multiply.at(sizes, i[r], q[r] ** steps.reshape(len(g), r.size).max(axis=0, initial=0))
    return np.minimum(sizes, cap)


def order_arrays(
    c0: np.ndarray, c1: np.ndarray, p: np.ndarray, d: np.ndarray, minus: Rows, plus: Rows
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ord_alpha, ord_n, ord_m, attained, chain_ok) for alpha = c0 + c1*s at
    every inert prime p[j] at once, by the derivation the module docstring
    describes.  c0, c1 and d = delta mod p are reduced mod p; p goes through
    arith.exact_ints, they are cast to its dtype, and the orders come out in
    it.  minus and plus are the (i, q, e) rows of p - 1 and p + 1.  chain_ok
    is False where the alpha^L test fails or any divisibility of the order
    chain does.  Raises ValueError where p divides the norm."""
    p = exact_ints(p)
    c0, c1, d = (x.astype(p.dtype, copy=False) for x in (c0, c1, d))
    nrm = (c0 * c0 - d * c1 % p * c1) % p
    if not nrm.all():
        raise ValueError(f"p = {int(p[np.argmin(nrm)])} divides the norm")
    ord_n = _orders(nrm[None], p, p - 1, minus)
    inv = powmod(nrm, p - 2, p)
    # t = tr M = 2 (c0^2 + delta c1^2) / N
    t = 2 * ((c0 * c0 + d * c1 % p * c1) % p) % p * inv % p
    ord_m = _orders(t[None], p, p + 1, plus, torus=True)
    lcm = np.lcm(ord_n, ord_m)
    par = lcm % 2
    odd = par == 1
    # h = N^(L/2) for even L, and v = V_(L/2)(t) = +-2 must meet h = -+1.
    # h = N^((L+1)/2) for odd L, and v is the trace of beta^L = alpha^L,
    # beta = alpha/h of trace 2 c0 h / N, on the torus when h^2 = N
    h = powmod(nrm, (lcm + par) // 2 % (p - 1), p)
    v = lucas_v(np.where(odd, 2 * c0 % p * h % p * inv % p, t),
                np.where(odd, lcm, lcm // 2) % (p + 1), p)
    at_l = odd & (v == 2)
    sign_ok = np.where(odd, (h * h % p == nrm) & ((v == 2) | (v == p - 2)),
                       ((h == 1) & (v == p - 2)) | ((h == p - 1) & (v == 2)))
    ord_alpha = np.where(at_l, lcm, 2 * lcm)
    n = p * p - 1
    chain_ok = (
        sign_ok
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
