"""Sieve bookkeeping for the set A = {p^2 - 1 : p <= x, p = u (mod v)}.

The quantities here are the ones a lower-bound sieve needs: the density
function rho(d) counting square roots of 1 mod d, the local weights
omega(q) = 2q/phi(q), exact counts |A_d| against their expected main terms,
a Mertens-type partial sum, the single-residue product lower bound, the
3^nu-weighted remainder sum, and the count of survivors whose p^2 - 1 has no
small prime factor outside v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .arith import crt, factorize, li, primes_in_class, primes_up_to, totient
from .construction import Congruence

T0_THRESHOLD = 4.42


@dataclass(frozen=True)
class SieveConfig:
    """Scope of one sieve run: prime bound x, residue class u (mod v), and
    sifting limit z, plus the exponents steering the remainder-sum window."""

    x: int
    u: int
    v: int
    z: int
    delta1: float = 0.01
    c2: float = 1.0
    c3: float = 1.0
    a_exp: float = 1.0
    congruence: Optional[Congruence] = None

    def __post_init__(self):
        if self.x < 2:
            raise ValueError(f"need x >= 2, got {self.x}")
        if not 2 <= self.z <= self.x:
            raise ValueError(f"need 2 <= z <= x, got z = {self.z}")
        if math.gcd(self.u, self.v) != 1:
            raise ValueError(f"gcd(u, v) = gcd({self.u}, {self.v}) != 1")
        if not 0 < self.delta1 < 0.125:
            raise ValueError(f"need 0 < delta1 < 1/8, got {self.delta1}")
        if self.congruence is not None and (
            self.congruence.u != self.u or self.congruence.v != self.v
        ):
            raise ValueError("congruence does not match (u, v)")

    @property
    def big_x(self) -> float:
        """Expected size li(x)/phi(v) of the progression."""
        return li(float(self.x)) / totient(self.v)

    @cached_property
    def class_primes(self) -> np.ndarray:
        """The primes p <= x with p = u (mod v), built once per config."""
        return primes_in_class(self.u, self.v, 0, self.x)


def sieving_limit(x: int, delta1: float = 0.01) -> int:
    """The trial threshold floor(x^(1/8 + delta1))."""
    return int(math.floor(x ** (0.125 + delta1)))


def rho(d: int) -> int:
    """Number of m in [1, d] with m^2 = 1 (mod d) and gcd(m, d) = 1.

    Direct enumeration up to 10**6 (vectorized); beyond that the count is
    assembled from the prime-power factorization (1 for 2, 2 for 4 and odd
    prime powers, 4 for higher powers of 2).
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if d <= 10**6:
        m = np.arange(1, d + 1, dtype=np.int64)
        ok = (m * m - 1) % d == 0
        ok &= np.gcd(m, d) == 1
        return int(np.count_nonzero(ok))
    out = 1
    for p, e in factorize(d).factors:
        if p > 2:
            out *= 2
        elif e == 1:
            out *= 1
        elif e == 2:
            out *= 2
        else:
            out *= 4
    return out


def unit_square_roots(d: int) -> List[int]:
    """The m counted by rho(d), ascending (enumeration; d <= 10**6)."""
    if not 1 <= d <= 10**6:
        raise ValueError(f"need 1 <= d <= 10**6, got {d}")
    m = np.arange(1, d + 1, dtype=np.int64)
    ok = ((m * m - 1) % d == 0) & (np.gcd(m, d) == 1)
    return [int(t) for t in m[ok]]


def omega(d: int) -> Fraction:
    """The local weight 2^nu(d) * d / phi(d) for squarefree d, exact."""
    f = factorize(d)
    if not f.is_squarefree:
        raise ValueError(f"omega needs squarefree d, got {d}")
    return Fraction(2**f.nu * d, f.totient())


@dataclass(frozen=True)
class SieveRow:
    """One divisor's ledger line: exact count |A_d|, its main term
    (omega(d)/d) * X, and the remainder R_d = |A_d| - main."""

    d: int
    rho_d: int
    count: int
    main: float
    remainder: float


def count_Ad(cfg: SieveConfig, d: int) -> SieveRow:
    """Exact |A_d| = #{p <= x, p = u (mod v), d | p^2 - 1} by enumeration."""
    f = factorize(d)
    if not f.is_squarefree:
        raise ValueError(f"need squarefree d, got {d}")
    if math.gcd(d, cfg.v) != 1:
        raise ValueError(f"d = {d} shares a factor with v = {cfg.v}")
    r = cfg.class_primes % d  # reduce first: p * p wraps int64 past 3.04e9
    cnt = int(np.count_nonzero(r * r % d == 1 % d))
    main = float(Fraction(2**f.nu, f.totient())) * cfg.big_x
    return SieveRow(d, rho(d), cnt, main, cnt - main)


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


def ledger(cfg: SieveConfig, d_hi: int) -> List[SieveRow]:
    """count_Ad rows for every squarefree d <= d_hi coprime to v, ascending."""
    return [
        count_Ad(cfg, d)
        for d in range(1, d_hi + 1)
        if factorize(d).is_squarefree and math.gcd(d, cfg.v) == 1
    ]


def mertens_check(w: int, z: int, v: int = 1) -> float:
    """Partial sum of 2*log(q)/(q - 1) over primes w <= q < z with q not
    dividing v, minus its Mertens prediction 2*log(z/w).

    Stays bounded as z grows; compensated summation keeps the telescoping
    identity tight.
    """
    if not 2 <= w <= z:
        raise ValueError(f"need 2 <= w <= z, got w = {w}, z = {z}")
    terms = [
        2.0 * math.log(q) / (q - 1)
        for q in primes_up_to(z - 1)
        if q >= w and v % q != 0
    ]
    return math.fsum(terms) - 2.0 * math.log(z / w)


@dataclass(frozen=True)
class ProductBound:
    """The product of (1 - 2/(q-1)) over primes 3 < q < z away from v, and
    the same product scaled by log(z)^2 (which should stay bounded away
    from zero)."""

    z: int
    v: int
    product: float
    ratio: float


def product_lower(z: int, v: int = 1) -> ProductBound:
    """Product over primes 3 < q < z, q not dividing v, of (1 - 2/(q - 1)).

    Every factor is positive (q >= 5), so the product is a genuine lower
    bound ingredient; ratio = product * log(z)^2.
    """
    if z < 2:
        raise ValueError(f"need z >= 2, got {z}")
    logs = [
        math.log1p(-2.0 / (q - 1))
        for q in primes_up_to(z - 1)
        if q > 3 and v % q != 0
    ]
    product = math.exp(math.fsum(logs)) if logs else 1.0
    return ProductBound(z, v, product, product * math.log(z) ** 2)


@dataclass(frozen=True)
class RemainderSum:
    """3^nu(d)-weighted remainder total against its target ceiling (None
    when X <= 1, where the ceiling is undefined; notes then say why)."""

    total: float
    ceiling: Optional[float]
    d_bound: int
    terms: int
    notes: Tuple[str, ...] = ()

    @property
    def within(self) -> bool:
        return self.ceiling is not None and self.total <= self.ceiling


def remainder_sum(cfg: SieveConfig) -> RemainderSum:
    """Sum of 3^nu(d) * |R_d| over squarefree d coprime to v with
    d < sqrt(X) / (log x)^c2, compared against c3 * X / (log X)^a_exp.
    For X <= 1, log X <= 0 leaves that ceiling undefined (negative, complex
    or a division by zero), so none is reported."""
    big_x = cfg.big_x
    bound = math.sqrt(big_x) / math.log(cfg.x) ** cfg.c2
    d_bound = int(math.ceil(bound)) - 1  # strict d < bound
    rows = ledger(cfg, d_bound)
    total = 0.0
    for row in rows:
        total += 3 ** factorize(row.d).nu * abs(row.remainder)
    if big_x <= 1.0:
        note = "X = li(x)/phi(v) <= 1: the remainder ceiling c3*X/log(X)^A is undefined"
        return RemainderSum(total, None, d_bound, len(rows), (note,))
    ceiling = cfg.c3 * big_x / math.log(big_x) ** cfg.a_exp
    return RemainderSum(total, ceiling, d_bound, len(rows))


def survivor_count(cfg: SieveConfig) -> int:
    """Number of primes p <= x in the class whose p^2 - 1 has no prime
    factor q < z with q not dividing v (trial division, short-circuit)."""
    small = [q for q in primes_up_to(cfg.z - 1) if cfg.v % q != 0]
    n = 0
    for p in cfg.class_primes.tolist():
        t = p * p - 1
        for q in small:
            if t % q == 0:
                break
        else:
            n += 1
    return n


@dataclass(frozen=True)
class SieveBoundReport:
    """Everything the lower-bound inequality needs at a glance: the survivor
    count, the untruncated main term X * prod(1 - omega(q)/q), and where the
    level-vs-sifting ratio log(X)/(2 log z) sits against the 4.42 threshold
    (below it the bracket in the bound is not positive and the main term
    cannot be trusted)."""

    config: SieveConfig
    survivors: int
    big_x: float
    main_term: float
    threshold: float
    threshold_ok: bool
    notes: Tuple[str, ...] = field(default_factory=tuple)


def sieve_bound_report(cfg: SieveConfig) -> SieveBoundReport:
    surv = survivor_count(cfg)
    big_x = cfg.big_x
    excluded = [q for q in primes_up_to(min(3, cfg.z - 1)) if cfg.v % q != 0]
    main = big_x * product_lower(cfg.z, cfg.v).product
    for q in excluded:
        main *= 1.0 - 2.0 / (q - 1)
    t = math.log(big_x) / (2.0 * math.log(cfg.z))
    notes = (
        "progression error terms use the endpoint y = x only",
        "main term omits the sieve's correction factor; threshold_ok marks "
        "whether the correction could be positive at all",
    )
    return SieveBoundReport(cfg, surv, big_x, main, t, t > T0_THRESHOLD, notes)
