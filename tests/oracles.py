"""Reference implementations the tests compare the package against.

Each is a slow or object-level second route to an answer the package
computes one way: prime counts by progression, the scalar order route on
Python ints (Fp2Context, order_record and its raw F_p^2 kernels, which
fp2.order_arrays replaced for every prime), the F_p^2 element API with the
full p^2 - 1 order descent, the inertness test, the remark-12 chain
counts, the scalar order scan, a scan's blocks and their record list, the
scalar subgroup size, the whole-range prime sieve, class filter,
smallest-factor table and table-route growth counts the segmented sieve
replaced, the trial-division rows of p -+ 1 the row sieve replaced,
|A_d| split over CRT classes, and the trial-division survivor
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
from quadartin.experiments import (
    AlphaFamily,
    OrderBlock,
    ScanTally,
    order_scan,
    subgroup_sizes,
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


def trial_rows(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sieve_rows by trial division: prime-power rows (i, q, e) with q**e
    exactly dividing n[i], for every n[i] > 1 of the int64 array n (in any
    order, repeats allowed), from dividing every entry by every prime up to
    isqrt(max(n)).  Whatever is left of n[i] after them is 1 or prime.
    Rows come by ascending q, then the prime cofactors."""
    idx = np.flatnonzero(n > 1)
    m = n[idx]
    rows = []
    for q in prime_array(math.isqrt(int(m.max()) if m.size else 1)).tolist():
        j = np.flatnonzero(m % q == 0)
        e = np.zeros(j.size, dtype=np.int64)
        while (k := np.flatnonzero(m[j] % q == 0)).size:
            m[j[k]] //= q
            e[k] += 1
        rows.append((idx[j], np.full(j.size, q, dtype=np.int64), e))
    big = np.flatnonzero(m > 1)
    rows.append((idx[big], m[big], np.ones(big.size, dtype=np.int64)))
    return tuple(np.concatenate(t) for t in zip(*rows))


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
# fp2: the scalar order route on Python ints


class OrderChainError(ValueError):
    """Orders computed at one prime violate the order chain."""


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
    """Full order profile of an integral element mod the inert prime p, by
    the derivation of fp2.order_arrays on Python ints, one prime and one
    element at a time.

    Requires the reduction to be invertible: p must not divide the norm.
    A broken chain raises OrderChainError.
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

def remark12_verify(family: AlphaFamily, primes: Sequence[int]) -> Dict[str, int]:
    """Check the order-chain identities at every usable (p, member) pair:
    the norm's order divides p - 1, the conjugate ratio's order divides
    p + 1, both divide the element's order, and their product divides twice
    the element's order.  These checks run inside the scan pass itself, so
    this is that pass with its counts returned.  Any failure raises
    RemarkViolation.
    """
    blocks, _, skipped = scan_blocks(family, primes)
    records = records_of(blocks, family.labels)
    return {"checked": len(records), "skipped": skipped, "violations": 0}


def scan_blocks(
    family: AlphaFamily, primes: Sequence[int], workers: int = 1
) -> Tuple[List[OrderBlock], ScanTally, int]:
    """order_scan's blocks of primes, passed as one segment, kept in a list
    by one fold, the ScanTally another fold fed, and the skip count."""
    blocks: List[OrderBlock] = []
    tally = ScanTally(family)
    skipped = order_scan(family, [primes], [blocks.append, tally.update], workers)
    return blocks, tally, skipped


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
    rules tested prime by prime, then one Fp2Context and one order_record
    per usable prime and member.  2, ramified and split primes are dropped;
    inert primes dividing a member's norm are skipped (counted)."""
    delta = family.ctx.delta
    records, skipped = [], 0
    for p in sorted(set(primes)):
        if p == 2 or delta % p == 0 or jacobi(delta, p) != -1:
            continue
        if any(n % p == 0 for n in family.norms):
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
        subgroup_sizes(b, gens, factor_rows(b - 1, spf), x) for b in blocks]))
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


def pigeonhole_counts(
    family: AlphaFamily, ps: Iterable[int], x: int
) -> Tuple[int, List[List[int]], List[List[int]]]:
    """PigeonholeTally's threshold, by_factors and attained for an
    order_scan of ps at bound x, by the scalar route alone: the records of
    scalar_order_scan, survivors by trial division below the sifting limit
    z = threshold, large factors, q >= z, by factorize, and d_minus, d_plus
    by p mod 3."""
    threshold = math.floor(x ** (0.125 + 0.01))
    records, _ = scalar_order_scan(family, ps)
    k = len(family.members)
    by_factors = [[0] * 8, [0] * 8]
    attained = [[0] * k for _ in range(3)]
    for j in range(0, len(records), k):
        p = records[j][1].p
        if survivors_by_trial_division([p], threshold, 24)[0]:
            for side, n in enumerate((p - 1, p + 1)):
                large = sum(e for q, e in factorize(n).factors if q >= threshold)
                by_factors[side][large] += 1
        d_minus, d_plus = (12, 2) if p % 3 == 1 else (4, 6)
        for m, (_, r) in enumerate(records[j : j + k]):
            attained[0][m] += r.ord_n * d_minus >= p - 1
            attained[1][m] += r.ord_m * d_plus >= p + 1
            attained[2][m] += r.attained
    return threshold, by_factors, attained
