"""Reference implementations the tests compare the package against.

Each is a slow or object-level second route to an answer the package
computes one way: prime counts by progression, the F_p^2 element API with
the full p^2 - 1 order descent, the inertness test, the remark-12 chain
counts, the scalar order scan, the record list of a scan's blocks, the
scalar subgroup size, the whole-range prime sieve, class filter,
smallest-factor table and table-route growth counts the segmented sieve
replaced, |A_d| split over CRT classes, and the trial-division survivor
test.  Nothing in src/ calls them; the tests import them as
`from oracles import ...` (pytest puts tests/ on sys.path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from quadartin.arith import (
    Factorization,
    crt,
    factorize,
    jacobi,
    li,
    prime_array,
    primes_in_class,
    primes_up_to,
    totient,
)
from quadartin.experiments import AlphaFamily, OrderBlock, order_scan, subgroup_sizes
from quadartin.fp2 import (
    Fp2Context,
    OrderRecord,
    _mul_raw,
    _order_mod_p,
    _order_raw,
    _pow_raw,
    order_record,
)
from quadartin.quadfield import FieldContext, QuadElem
from quadartin.sieve import SieveConfig


# ---------------------------------------------------------------------------
# arith

def mu(f: Factorization) -> int:
    """Mobius function of f.value."""
    if not f.is_squarefree:
        return 0
    return -1 if f.nu % 2 else 1


@dataclass(frozen=True)
class ProgressionCount:
    """Exact prime count in a residue class, with its deviation from the
    expected density li(y)/phi(m)."""

    y: int
    m: int
    s: int
    count: int
    error: float


def count_progression(y: int, m: int, s: int) -> ProgressionCount:
    """Count primes p <= y with p = s (mod m); gcd(s, m) must be 1."""
    if y < 2:
        raise ValueError(f"need y >= 2, got {y}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    s_red = s % m
    if math.gcd(s_red, m) != 1:
        raise ValueError(f"residue {s} not coprime to modulus {m}")
    count = primes_in_class(s_red, m, 0, y).size
    err = count - li(float(y)) / totient(m)
    return ProgressionCount(y, m, s_red, count, err)


def max_error(x: int, m: int) -> float:
    """max over residues s coprime to m of |count - li(x)/phi(m)| at y = x.

    Only the endpoint y = x is examined; no running maximum over y <= x is
    taken.
    """
    if x < 2 or m < 1:
        raise ValueError(f"need x >= 2 and m >= 1, got x={x} m={m}")
    counts = np.bincount(prime_array(x) % m, minlength=m).tolist()
    expected = li(float(x)) / totient(m)
    worst = 0.0
    for s in range(m):
        if math.gcd(s, m) == 1:
            worst = max(worst, abs(counts[s] - expected))
    return worst


def whole_range_primes(n: int) -> np.ndarray:
    """All primes <= n as int64, from one bool flag per integer in [0, n]
    (plain Eratosthenes over the whole range)."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def whole_range_primes_in_class(u: int, v: int, lo: int, hi: int) -> np.ndarray:
    """primes_in_class by one filter over every prime up to hi."""
    ps = whole_range_primes(hi)
    ps = ps[np.searchsorted(ps, lo) :]
    m = min(v, hi + 1)
    return ps[ps % m == min(u % v, m)]


def smallest_factor_table(n: int) -> np.ndarray:
    """Array t of length n+1 with t[k] = smallest prime factor of k (t[k] = k
    for k prime, 0 and 1 map to themselves), as int32: n < 2**31."""
    if n >= 2**31:
        raise ValueError(f"smallest_factor_table needs n < 2**31, got {n}")
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest
    return spf


def factor_rows(n: np.ndarray, spf: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prime-power rows (i, q, e) with q**e exactly dividing n[i], for every
    n[i] > 1, from the int64 array n (entries within the smallest_factor_table
    spf).  Rows come round by round: round r holds the r-th smallest prime
    factor of every n[i] that has one."""
    idx = np.flatnonzero(n > 1)
    m = n[idx]
    rows_i, rows_q, rows_e = [], [], []
    while idx.size:
        q = spf[m].astype(np.int64)
        m = m // q
        e = np.ones(idx.size, dtype=np.int64)
        j = np.flatnonzero(m % q == 0)
        while j.size:
            m[j] //= q[j]
            e[j] += 1
            j = j[m[j] % q[j] == 0]
        rows_i.append(idx)
        rows_q.append(q)
        rows_e.append(e)
        left = m > 1
        idx, m = idx[left], m[left]
    if not rows_i:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    return np.concatenate(rows_i), np.concatenate(rows_q), np.concatenate(rows_e)


# ---------------------------------------------------------------------------
# quadfield

def is_rational(a: QuadElem) -> bool:
    return a.y == 0


def is_inert(p: int, ctx: FieldContext) -> bool:
    """Whether the odd prime p stays prime in the field: (delta|p) = -1.

    Primes dividing delta (ramified) and p = 2 are rejected outright; the
    caller supplies primality.
    """
    if p == 2:
        raise ValueError("p = 2 is never inert here")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"need an odd prime, got {p}")
    if ctx.delta % p == 0:
        raise ValueError(f"{p} divides delta {ctx.delta} (ramified)")
    return jacobi(ctx.delta, p) == -1


# ---------------------------------------------------------------------------
# fp2: element objects and the full p^2 - 1 descent

def group_primes(ctx: Fp2Context) -> Tuple[int, ...]:
    """Distinct primes dividing p^2 - 1."""
    return tuple(sorted(set(ctx.fact_pm1.primes) | set(ctx.fact_pp1.primes)))


@dataclass(frozen=True)
class Fp2Elem:
    c0: int
    c1: int
    ctx: Fp2Context

    def __post_init__(self):
        p = self.ctx.p
        if not (0 <= self.c0 < p and 0 <= self.c1 < p):
            raise ValueError(f"coordinates out of range mod {p}")

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def is_one(self) -> bool:
        return self.c0 == 1 and self.c1 == 0

    def __mul__(self, other: "Fp2Elem") -> "Fp2Elem":
        if other.ctx is not self.ctx and other.ctx.p != self.ctx.p:
            raise ValueError("mixed contexts")
        r0, r1 = _mul_raw(
            self.c0, self.c1, other.c0, other.c1, self.ctx.p, self.ctx.delta_mod_p
        )
        return Fp2Elem(r0, r1, self.ctx)

    def __pow__(self, e: int) -> "Fp2Elem":
        if e < 0:
            return self.inverse() ** (-e)
        r0, r1 = _pow_raw(self.c0, self.c1, e, self.ctx.p, self.ctx.delta_mod_p)
        return Fp2Elem(r0, r1, self.ctx)

    def norm(self) -> int:
        """c0^2 - delta*c1^2 mod p, the norm to the prime subfield."""
        p = self.ctx.p
        return (self.c0 * self.c0 - self.ctx.delta_mod_p * self.c1 * self.c1) % p

    def inverse(self) -> "Fp2Elem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        ninv = pow(n, -1, self.ctx.p)
        return Fp2Elem(self.c0 * ninv % self.ctx.p, -self.c1 * ninv % self.ctx.p, self.ctx)


def reduce_elem(a: QuadElem, ctx: Fp2Context) -> Fp2Elem:
    """Reduce an integral field element coordinate-wise mod p."""
    if not a.is_integral:
        raise ValueError(f"cannot reduce non-integral element {a}")
    p = ctx.p
    return Fp2Elem(int(a.x) % p, int(a.y) % p, ctx)


def frobenius(a: Fp2Elem) -> Fp2Elem:
    """The p-power map, which on c0 + c1*s is c0 - c1*s."""
    return Fp2Elem(a.c0, (-a.c1) % a.ctx.p, a.ctx)


def mult_order(a: Fp2Elem) -> int:
    """Exact multiplicative order of a nonzero element.

    Starts at n = p^2 - 1 and divides out each prime of n while the power
    a^(n/q) stays 1: the descent order_record's derived order is tested
    against.
    """
    if a.is_zero():
        raise ValueError("order of zero")
    ctx = a.ctx
    n = ctx.p * ctx.p - 1
    return _order_raw(a.c0, a.c1, n, group_primes(ctx), ctx.p, ctx.delta_mod_p)


# ---------------------------------------------------------------------------
# experiments

def remark12_verify(family: AlphaFamily, primes: Iterable[int]) -> Dict[str, int]:
    """Check the order-chain identities at every usable (p, member) pair:
    the norm's order divides p - 1, the conjugate ratio's order divides
    p + 1, both divide the element's order, and their product divides twice
    the element's order.  These checks run inside the scan pass itself, so
    this is that pass with its counts returned.  Any failure raises
    RemarkViolation.
    """
    blocks, summary = order_scan(family, primes)
    records = records_of(blocks, family.labels)
    return {"checked": len(records), "skipped": summary.skipped, "violations": 0}


def records_of(blocks: Iterable[OrderBlock], labels: Sequence[str]) -> List[Tuple[str, OrderRecord]]:
    """order_scan's blocks as (label, OrderRecord) pairs sorted by (p,
    member position); each OrderRecord checks its own chain."""
    records = []
    for b in blocks:
        cols = zip(*(a.ravel().tolist() for a in (b.ord_alpha, b.ord_n, b.ord_m, b.attained)))
        records += [(lab, OrderRecord(p, *next(cols))) for p in b.p.tolist() for lab in labels]
    return records


def scalar_order_scan(
    family: AlphaFamily, primes: Iterable[int]
) -> Tuple[List[Tuple[str, OrderRecord]], int]:
    """order_scan's records and skip count by the scalar route alone: the
    skip rules tested prime by prime, then one Fp2Context and one
    order_record per usable prime and member."""
    delta = family.ctx.delta
    records, skipped = [], 0
    for p in sorted(set(primes)):
        if p == 2 or delta % p == 0 or jacobi(delta, p) != -1 or any(
            n % p == 0 for n in family.norms
        ):
            skipped += 1
            continue
        ctx = Fp2Context.for_prime(p, family.ctx)
        records += [(lab, order_record(a, ctx)) for lab, a in zip(family.labels, family.members)]
    return records, skipped


def subgroup_size(p: int, gens: Sequence[int]) -> int:
    """Order of the subgroup of (Z/p)^* generated by gens: the lcm of the
    generators' orders (the group is cyclic)."""
    qs = factorize(p - 1).primes
    out = 1
    for g in gens:
        if g % p == 0:
            raise ValueError(f"generator {g} vanishes mod {p}")
        out = math.lcm(out, _order_mod_p(g, p - 1, qs, p))
    return out


def table_growth_counts(gens: Sequence[int], x: int, y_grid: Sequence[float]) -> Tuple[List[int], int]:
    """lemma42_scan's N(y) counts on the sorted y_grid, and its prime count,
    by the route it took before it streamed: every prime up to x at once,
    one smallest-factor table up to x, and factor_rows of p - 1 from it in
    blocks of 2**13 primes."""
    ps = whole_range_primes(x)
    bad = [q for g in gens for q in factorize(abs(g)).primes]
    keep = ps[~np.isin(ps, bad)]
    spf = smallest_factor_table(x)
    blocks = [keep[i : i + 2**13] for i in range(0, keep.size, 2**13)]
    sizes = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)] + [
        subgroup_sizes(b, gens, factor_rows(b - 1, spf)) for b in blocks]))
    return np.searchsorted(sizes, sorted(y_grid), side="left").tolist(), int(keep.size)


# ---------------------------------------------------------------------------
# sieve

def unit_square_roots(d: int) -> List[int]:
    """The m counted by rho(d), ascending (enumeration; d <= 10**6)."""
    if not 1 <= d <= 10**6:
        raise ValueError(f"need 1 <= d <= 10**6, got {d}")
    m = np.arange(1, d + 1, dtype=np.int64)
    ok = ((m * m - 1) % d == 0) & (np.gcd(m, d) == 1)
    return [int(t) for t in m[ok]]


def count_Ad_by_classes(cfg: SieveConfig, d: int) -> int:
    """|A_d| again, but as a sum of progression counts over the rho(d)
    residue classes m (mod d) with m^2 = 1, glued to u (mod v) by CRT.
    Independent route used to cross-check count_Ad."""
    if math.gcd(d, cfg.v) != 1:
        raise ValueError(f"d = {d} shares a factor with v = {cfg.v}")
    total = 0
    for m in unit_square_roots(d):
        l_m, mod = crt([(cfg.u, cfg.v), (m, d)])
        total += primes_in_class(l_m, mod, 0, cfg.x).size
    return total


def survivors_by_trial_division(ps: Iterable[int], z: int, v: int) -> List[bool]:
    """For each p, whether p^2 - 1 has no prime factor q < z with q not
    dividing v (trial division of p^2 - 1 in Python ints, short-circuit)."""
    small = [q for q in primes_up_to(z - 1) if v % q != 0]
    out = []
    for p in ps:
        t = p * p - 1
        for q in small:
            if t % q == 0:
                out.append(False)
                break
        else:
            out.append(True)
    return out
