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
from typing import List, Optional, Tuple, Union

import numpy as np

from .arith import (Factorization, factorize, li, prime_array, primes_in_class, primes_up_to,
                    totient)

T0_THRESHOLD = 4.42


@dataclass(frozen=True)
class SieveConfig:
    """Scope of one sieve run: prime bound x, residue class u (mod v), and
    sifting limit z, plus the exponents steering the remainder-sum window."""

    x: int
    u: int
    v: int
    z: int
    c2: float = 1.0
    c3: float = 1.0
    a_exp: float = 1.0

    def __post_init__(self):
        if self.x < 2:
            raise ValueError(f"need x >= 2, got {self.x}")
        if not 2 <= self.z <= self.x:
            raise ValueError(f"need 2 <= z <= x, got z = {self.z}")
        if math.gcd(self.u, self.v) != 1:
            raise ValueError(f"gcd(u, v) = gcd({self.u}, {self.v}) != 1")
        if not self.c2 >= 0:
            raise ValueError(f"need c2 >= 0, got {self.c2}")

    @cached_property
    def big_x(self) -> float:
        """Expected size li(x)/phi(v) of the progression, computed once per
        config: count_Ad reads it for every row."""
        return li(float(self.x)) / totient(self.v)

    @cached_property
    def class_primes(self) -> np.ndarray:
        """The primes p <= x with p = u (mod v), built once per config."""
        return primes_in_class(self.u, self.v, 0, self.x)


def sieving_limit(x: int, delta1: float = 0.01) -> int:
    """The trial threshold floor(x^(1/8 + delta1))."""
    return int(math.floor(x ** (0.125 + delta1)))


def _factored(d: Union[int, Factorization]) -> Factorization:
    return d if isinstance(d, Factorization) else factorize(d)


def rho(d: Union[int, Factorization]) -> int:
    """Number of m in [1, d] with m^2 = 1 (mod d) and gcd(m, d) = 1, from
    the prime-power factorization of d (d itself or its Factorization): 2
    for each odd prime power, and 1, 2 or 4 for 2, 4 or a higher power
    of 2.  factorize raises ValueError for d < 1."""
    out = 1
    for p, e in _factored(d).factors:
        out *= 2 if p > 2 else min(2 ** (e - 1), 4)
    return out


def omega(d: Union[int, Factorization]) -> Fraction:
    """The local weight 2^nu(d) * d / phi(d) for squarefree d (d itself or
    its Factorization), exact."""
    f = _factored(d)
    if not f.is_squarefree:
        raise ValueError(f"omega needs squarefree d, got {f.value}")
    return Fraction(2**f.nu * f.value, f.totient())


@dataclass(frozen=True)
class SieveRow:
    """One divisor's ledger line: exact count |A_d|, its main term
    (omega(d)/d) * X, and the remainder R_d = |A_d| - main."""

    d: int
    rho_d: int
    count: int
    main: float
    remainder: float


def count_Ad(cfg: SieveConfig, d: Union[int, Factorization]) -> SieveRow:
    """Exact |A_d| = #{p <= x, p = u (mod v), d | p^2 - 1} by enumeration;
    d may come as its Factorization, which is then the only one made."""
    f = _factored(d)
    d = f.value
    w = omega(f)  # raises for d that is not squarefree
    if math.gcd(d, cfg.v) != 1:
        raise ValueError(f"d = {d} shares a factor with v = {cfg.v}")
    r = cfg.class_primes % d  # reduce first: p * p wraps int64 past 3.04e9
    cnt = int(np.count_nonzero(r * r % d == 1 % d))
    main = float(w / d) * cfg.big_x
    return SieveRow(d, rho(f), cnt, main, cnt - main)


def ledger(cfg: SieveConfig, d_hi: int) -> List[SieveRow]:
    """count_Ad rows for every squarefree d <= d_hi coprime to v, ascending,
    each d factored once."""
    return [
        count_Ad(cfg, f)
        for f in map(factorize, range(1, d_hi + 1))
        if f.is_squarefree and math.gcd(f.value, cfg.v) == 1
    ]


def mertens_check(w: int, z: int) -> float:
    """Partial sum of 2*log(q)/(q - 1) over primes w <= q < z, minus its
    Mertens prediction 2*log(z/w).

    Stays bounded as z grows; compensated summation keeps the telescoping
    identity tight.
    """
    if not 2 <= w <= z:
        raise ValueError(f"need 2 <= w <= z, got w = {w}, z = {z}")
    terms = [2.0 * math.log(q) / (q - 1) for q in primes_up_to(z - 1) if q >= w]
    return math.fsum(terms) - 2.0 * math.log(z / w)


@dataclass(frozen=True)
class ProductBound:
    """The product of (1 - 2/(q-1)) over primes 3 < q < z away from v, and
    the same product scaled by log(z)^2 (which should stay bounded away
    from zero)."""

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
    return ProductBound(product, product * math.log(z) ** 2)


@dataclass(frozen=True)
class RemainderSum:
    """3^nu(d)-weighted remainder total against its target ceiling (None
    when X <= 1 or the ceiling is no finite float; notes then say why)."""

    total: float
    ceiling: Optional[float]
    d_bound: int
    notes: Tuple[str, ...] = ()

    @property
    def within(self) -> bool:
        return self.ceiling is not None and self.total <= self.ceiling


def remainder_sum(cfg: SieveConfig) -> RemainderSum:
    """Sum of 3^nu(d) * |R_d| over squarefree d coprime to v with
    d < sqrt(X) / (log x)^c2, compared against c3 * X / (log X)^a_exp.
    For X <= 1, log X <= 0 leaves that ceiling undefined (negative, complex
    or a division by zero), and a power, quotient or product past the float
    range leaves it no finite float, so none is reported."""
    big_x = cfg.big_x
    # log D = log(X)/2 - c2 * log(log x): a large c2 underflows D to 0, an
    # empty window, where (log x)^c2 itself would overflow
    log_d = -math.inf
    if big_x > 0:
        log_d = 0.5 * math.log(big_x) - cfg.c2 * math.log(math.log(cfg.x))
    d_bound = math.ceil(math.exp(log_d)) - 1  # strict d < D
    total = 0.0
    for row in ledger(cfg, d_bound):
        total += 3 ** factorize(row.d).nu * abs(row.remainder)
    if big_x <= 1.0:
        note = "X = li(x)/phi(v) <= 1: the remainder ceiling c3*X/log(X)^A is undefined"
        return RemainderSum(total, None, d_bound, (note,))
    try:
        ceiling = cfg.c3 * big_x / math.log(big_x) ** cfg.a_exp
    except (OverflowError, ZeroDivisionError):
        ceiling = math.inf
    if not math.isfinite(ceiling):
        note = "the remainder ceiling c3*X/log(X)^A is not a finite float"
        return RemainderSum(total, None, d_bound, (note,))
    return RemainderSum(total, ceiling, d_bound)


# Cells of the (prime, q) residue table survivor_mask tests at once: bounds
# its memory whatever x and z are.
SURVIVOR_CELLS = 2**16


def survivor_mask(ps: np.ndarray, z: int, v: int) -> np.ndarray:
    """For each prime p of the int64 array ps, or of an object array of
    Python ints (exact past int64), whether p^2 - 1 has no prime factor
    q < z with q not dividing v.  A prime q divides p^2 - 1 exactly
    when p = +-1 (mod q), so each block of q is one residue table over the
    primes not yet struck out."""
    qs = prime_array(z - 1)
    qs = qs[v % qs.astype(object) != 0]  # v may pass int64
    alive = np.arange(ps.size)
    lo = 0
    while lo < qs.size and alive.size:
        q = qs[lo : lo + max(1, SURVIVOR_CELLS // alive.size)]
        r = ps[alive, None] % q
        alive = alive[~((r == 1) | (r == q - 1)).any(axis=1)]
        lo += q.size
    mask = np.zeros(ps.size, dtype=bool)
    mask[alive] = True
    return mask


def survivor_count(cfg: SieveConfig) -> int:
    """Number of primes p <= x in the class whose p^2 - 1 has no prime
    factor q < z with q not dividing v."""
    return int(np.count_nonzero(survivor_mask(cfg.class_primes, cfg.z, cfg.v)))


@dataclass(frozen=True)
class SieveBoundReport:
    """Everything the lower-bound inequality needs at a glance: the survivor
    count, the untruncated main term X * prod(1 - omega(q)/q) with the
    product_lower bound it came from (0 when 2 or 3 lies below z and
    outside v: their factors are 0), and where the level-vs-sifting ratio
    log(X)/(2 log z) sits against the 4.42 threshold (below it the bracket
    in the bound is not positive and the main term cannot be trusted; at
    X = 0, for x = 2, it is None and notes say why)."""

    survivors: int
    main_term: float
    product: ProductBound
    threshold: Optional[float]
    threshold_ok: bool
    notes: Tuple[str, ...] = field(default_factory=tuple)


def sieve_bound_report(cfg: SieveConfig) -> SieveBoundReport:
    surv = survivor_count(cfg)
    big_x = cfg.big_x
    prod = product_lower(cfg.z, cfg.v)
    # the factor 1 - rho(q)/phi(q) of q = 2 or 3 is 0, as every odd p has
    # 2 | p^2 - 1 and every p > 3 has 3 | p^2 - 1: such a q below z and
    # outside v sifts out the whole class
    sifted = any(cfg.v % q for q in primes_up_to(min(3, cfg.z - 1)))
    main = 0.0 if sifted else big_x * prod.product
    t = math.log(big_x) / (2.0 * math.log(cfg.z)) if big_x > 0 else None
    notes = (
        "progression error terms use the endpoint y = x only",
        "main term omits the sieve's correction factor; threshold_ok marks "
        "whether the correction could be positive at all",
    )
    if t is None:
        notes += ("X = li(x)/phi(v) = 0: the threshold log(X)/(2 log z) is undefined",)
    return SieveBoundReport(surv, main, prod, t,
                            t is not None and t > T0_THRESHOLD, notes)
