"""Exact integer utilities: a segmented prime sieve, primality,
factorization (scalar, and array-wise by sieving a segment or by trial
division), array modular powers, Jacobi symbols, CRT, and the logarithmic
integral.

Everything here is deterministic.  The only randomized internals (Pollard rho
restarts) draw from a fixed seed that can be overridden with set_rho_seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, Tuple

import numpy as np

# Deterministic Miller-Rabin witness tiers: each set is exact below its
# threshold (the last one out to 3.3 * 10**24, far past 64 bits).
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (3215031751, (2, 3, 5, 7)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (None, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

_rho_seed = 0


class NonCoprimeModuliError(ValueError):
    """Raised by crt when two moduli share a factor."""

    def __init__(self, m1: int, m2: int, g: int):
        self.pair = (m1, m2)
        super().__init__(f"moduli {m1} and {m2} share the factor {g}")


def set_rho_seed(seed: int) -> None:
    """Reseed the Pollard rho restart sequence (default 0)."""
    global _rho_seed
    _rho_seed = int(seed)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    for bound, witnesses in _MR_TIERS:
        if bound is None or n < bound:
            break
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# prime sieves

# Members of the sieved progression (integers when v = 1) per segment of the
# segmented sieve (Bays & Hudson, BIT 17 (1977)): bounds the flags, primes
# and rows a segment holds, whatever the range is.
SEGMENT = 2**17
POWMOD_LIMIT = 2**31  # powmod and residues keep products of residues below 2**62

_primes = np.zeros(0, dtype=np.int64)
_primes_limit = 1


def _segments(lo: int, hi: int, first: int = 0, step: int = 1, *, u: int = 0,
              v: int = 1) -> Iterator[np.ndarray]:
    """The primes p = u (mod v) in [lo, hi], ascending, as one int64 array
    per segment of SEGMENT members of the progression from its first member
    n0 >= max(lo, 2) (Bays & Hudson, BIT 17 (1977)).  Each base prime q up
    to isqrt(hi) that does not divide v strikes its multiples from the first
    member >= q**2 on; a q dividing v divides no member, or every member
    and then only n0 can be prime.  With first and step, only segments
    first, first + step, ... are sieved (one worker's share)."""
    n0 = max(lo, 2) + (u - max(lo, 2)) % v
    if n0 + v > hi or math.gcd(n0, v) > 1:
        # at most n0 can be prime: sieve it alone
        hi, v = min(n0, hi), 1
    if n0 > hi:
        return
    size = (hi - n0) // v + 1
    base = prime_array(math.isqrt(hi))
    for j0 in range(first * SEGMENT, size, step * SEGMENT):
        a = n0 + v * j0
        flags = np.ones(min(SEGMENT, size - j0), dtype=bool)
        top = a + v * (flags.size - 1)
        qs = base[: np.searchsorted(base, math.isqrt(top), side="right")]
        # a chunk of base primes at a time, each with the index of its
        # first strike: a member that q divides, at or past q**2
        for c in range(0, qs.size, SEGMENT):
            q = qs[c : c + SEGMENT]
            if v > 1:
                q = q[v % q != 0]
                first_hit = (-a) % q * _inverses(v % q, q) % q
            else:
                first_hit = (-a) % q
            past_square = np.maximum(-((a - q * q) // v), 0)
            s = past_square + (first_hit - past_square) % q
            # q shorter than the segment may strike often, the rest once
            k = int(np.searchsorted(q, flags.size))
            for t, i in zip(q[:k].tolist(), s[:k].tolist()):
                flags[i::t] = False
            s = s[k:]
            flags[s[s < flags.size]] = False
        yield np.flatnonzero(flags) * v + a


def _inverses(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a**-1 mod q for int64 residues a coprime to the ascending primes q:
    a**(q - 2) by powmod below POWMOD_LIMIT, by Python's pow past it."""
    if not q.size or q[-1] < POWMOD_LIMIT:
        return powmod(a, q - 2, q)
    return np.array([pow(x, -1, m) for x, m in zip(a.tolist(), q.tolist())], dtype=np.int64)


def prime_array(n: int) -> np.ndarray:
    """All primes <= n, ascending: a read-only int64 view of one cached list,
    grown by sieving only the range it does not cover yet."""
    global _primes, _primes_limit
    if n > _primes_limit:
        limit = max(n, 2 * _primes_limit)
        prime_array(math.isqrt(limit))  # the base primes, cached before the cache is read
        # filled in place up to pi(limit) < 1.25506 limit / log(limit)
        # (Rosser & Schoenfeld, Illinois J. Math. 6 (1962), (3.6)), then
        # cut to size, so no list of segments is held next to the result
        grown = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
        end = _primes.size
        grown[:end] = _primes
        for ps in _segments(_primes_limit + 1, limit):
            grown[end : end + ps.size] = ps
            end += ps.size
        grown.resize(end, refcheck=False)  # no view of grown exists yet
        grown.flags.writeable = False
        _primes, _primes_limit = grown, limit
    return _primes[: np.searchsorted(_primes, n, side="right")]


def primes_up_to(n: int) -> List[int]:
    """All primes <= n, ascending, as Python ints."""
    return prime_array(n).tolist()


def primes_in_class(u: int, v: int, lo: int, hi: int) -> np.ndarray:
    """Primes p = u (mod v) in [lo, hi], ascending, as a new int64 array,
    sieved on the progression itself: exact for every modulus v >= 1."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *_segments(lo, hi, u=u, v=v)])


def sieve_rows(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows (i, q, e) of trial_rows, in the same order, for an ascending
    int64 array n of distinct values: each prime q up to isqrt(max(n))
    strikes its multiples in the span of n instead of dividing every entry.
    Memory grows with that span, so callers pass one segment's worth."""
    idx = np.flatnonzero(n > 1)
    v = n[idx]
    if not v.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    n0 = int(v[0])
    slot = np.full(int(v[-1]) - n0 + 1, -1, dtype=np.int32)
    slot[v - n0] = np.arange(v.size)
    # the 2-part from the lowest set bit
    low = v & -v
    two = np.flatnonzero(low > 1)
    # odd q below 64 strike one stride at a time; the rest, with few
    # multiples each, in one gathered batch
    qs = prime_array(math.isqrt(int(v[-1])))[1:]
    small, big = qs[qs < 64], qs[qs >= 64]
    hits = [slot[(-n0) % t :: t] for t in small.tolist()]
    hits = [j[j >= 0] for j in hits]
    count = np.maximum(slot.size - (-n0) % big + big - 1, 0) // big
    q = np.repeat(big, count)
    # the k-th multiple in q's run sits at (-n0) % q + q * k
    base = (-n0) % big - big * (np.cumsum(count) - count)
    j = slot[np.repeat(base, count) + q * np.arange(q.size)]
    hit = j >= 0
    i = np.concatenate([*hits, j[hit]]).astype(np.int64)
    q = np.concatenate([np.repeat(small, [h.size for h in hits]), q[hit]])
    # exponents, and what is left of each value once every q**e is out
    m = v[i] // q
    e = np.ones(i.size, dtype=np.int64)
    k = np.flatnonzero(m % q == 0)
    while k.size:
        m[k] //= q[k]
        e[k] += 1
        k = k[m[k] % q[k] == 0]
    rest = v // low
    np.floor_divide.at(rest, i, q**e)
    cof = np.flatnonzero(rest > 1)
    ones = np.ones(cof.size, dtype=np.int64)
    return (idx[np.concatenate([two, i, cof])],
            np.concatenate([np.full(two.size, 2), q, rest[cof]]),
            np.concatenate([np.bitwise_count(low[two] - 1).astype(np.int64), e, ones]))


def trial_rows(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prime-power rows (i, q, e) with q**e exactly dividing n[i], for every
    n[i] > 1 of the int64 array n, by trial division by every prime up to
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


def powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base**exp % mod (broadcast) in int64, by left-to-right
    square-and-multiply over 2-bit windows of the exponent.  Every modulus
    must lie in [1, 2**31), so each product of two residues stays below
    2**62; exponents must be nonnegative."""
    base, exp, mod = np.broadcast_arrays(
        np.asarray(base, dtype=np.int64),
        np.asarray(exp, dtype=np.int64),
        np.asarray(mod, dtype=np.int64),
    )
    shape = mod.shape
    base, exp, mod = base.ravel(), exp.ravel(), mod.ravel()
    if mod.size and (mod.min() < 1 or mod.max() >= POWMOD_LIMIT):
        raise ValueError("powmod needs every modulus in [1, 2**31)")
    if exp.size and exp.min() < 0:
        raise ValueError("powmod needs nonnegative exponents")
    # row t of the table holds base**0 .. base**3 mod t's modulus
    table = np.empty((mod.size, 4), dtype=np.int64)
    table[:, 0] = 1
    table[:, 1] = base % mod
    table[:, 2] = table[:, 1] * table[:, 1] % mod
    table[:, 3] = table[:, 2] * table[:, 1] % mod
    flat = table.ravel()
    row = 4 * np.arange(mod.size)
    out = np.ones(mod.size, dtype=np.int64) % mod
    top = int(exp.max()).bit_length() - 1 if exp.size else -1
    for s in range(top - top % 2, -1, -2):
        out *= out
        out %= mod
        out *= out
        out %= mod
        out *= flat[row + ((exp >> s) & 3)]
        out %= mod
    return out.reshape(shape)


def residues(g: int, mod: np.ndarray) -> np.ndarray:
    """g % m for each int64 modulus m in [1, 2**31), exact for any Python
    int g: |g| is folded in 30-bit limbs, so no intermediate passes 2**62."""
    mod = np.asarray(mod, dtype=np.int64)
    if mod.size and (mod.min() < 1 or mod.max() >= POWMOD_LIMIT):
        raise ValueError("residues needs every modulus in [1, 2**31)")
    a = abs(g)
    r = np.zeros(mod.shape, dtype=np.int64)
    for shift in range(30 * (max(a.bit_length() - 1, 0) // 30), -1, -30):
        r = ((r << 30) + ((a >> shift) & (2**30 - 1))) % mod
    return (mod - r) % mod if g < 0 else r


# ---------------------------------------------------------------------------
# factorization

@dataclass(frozen=True)
class Factorization:
    """Sorted prime-power decomposition of a positive integer."""

    value: int
    factors: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1 or not is_prime(p):
                raise ValueError(f"bad factor list for {self.value}")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors do not reconstruct {self.value}")

    @property
    def primes(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def nu(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def totient(self) -> int:
        t = 1
        for p, e in self.factors:
            t *= p ** (e - 1) * (p - 1)
        return t


_TRIAL_PRIMES = tuple(primes_up_to(1000))


def _pollard_brent(n: int, rng: random.Random) -> int:
    """Nontrivial factor of an odd composite n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g


def factorize(n: int) -> Factorization:
    """Full factorization of n >= 1.

    Trial division peels off the prime factors below 1000, and stops once
    the remainder is below the square of the trial prime: it is then 1 or
    prime.  A remainder that outlasts every trial prime is split
    recursively by Pollard rho (Brent), with a deterministic primality test
    deciding when to stop splitting.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    counts: dict = {}
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            # no prime below p divides m, so m is 1 or prime
            if m > 1:
                counts[m] = 1
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    else:
        rng = random.Random(_rho_seed)
        stack = [m]
        while stack:
            t = stack.pop()
            if t == 1:
                continue
            if is_prime(t):
                counts[t] = counts.get(t, 0) + 1
                continue
            d = _pollard_brent(t, rng)
            stack.append(d)
            stack.append(t // d)
    return Factorization(n, tuple(sorted(counts.items())))


def totient(n: int) -> int:
    return factorize(n).totient()


def padic_valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n nonzero)."""
    if n == 0:
        raise ValueError("valuation of zero")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_square(n: int) -> bool:
    """Exact perfect-square test; negative inputs are never squares."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


# ---------------------------------------------------------------------------
# Jacobi symbol and CRT

def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi needs odd positive n, got {n}")
    a %= n
    t = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def crt(pairs: Iterable[Tuple[int, int]]) -> Tuple[int, int]:
    """Combine congruences x = r (mod m) with pairwise coprime moduli.
    Returns (u, v) with 0 <= u < v = product of the moduli."""
    items = [(int(r), int(m)) for r, m in pairs]
    for _, m in items:
        if m < 1:
            raise ValueError(f"modulus {m} is not positive")
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            g = math.gcd(items[i][1], items[j][1])
            if g != 1:
                raise NonCoprimeModuliError(items[i][1], items[j][1], g)
    u, v = 0, 1
    for r, m in items:
        if m == 1:
            continue
        k = (r - u) * pow(v, -1, m) % m
        u += v * k
        v *= m
    return u % v, v


# ---------------------------------------------------------------------------
# logarithmic integral

def _simpson(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(a, b, fa, fm, fb, whole, eps, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = 1.0 / math.log(lm)
    frm = 1.0 / math.log(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    half = 0.5 * eps
    return _adaptive(a, m, fa, flm, fm, left, half, depth - 1) + _adaptive(
        m, b, fm, frm, fb, right, half, depth - 1
    )


@lru_cache(maxsize=None)
def li(y: float) -> float:
    """Integral of dt/log(t) from 2 to y, by adaptive Simpson quadrature.

    The absolute tolerance is 1e-9 * max(1, estimated value); the estimate
    y/log(y) is within a small constant of the true value, so the result is
    good to a relative 1e-9 for any y of interest.
    """
    y = float(y)
    if y < 2.0:
        raise ValueError(f"li defined for y >= 2, got {y}")
    if y == 2.0:
        return 0.0
    rough = y / math.log(y)
    eps = 1e-10 * max(1.0, rough)
    a, b = 2.0, y
    fa = 1.0 / math.log(a)
    fb = 1.0 / math.log(b)
    m = 0.5 * (a + b)
    fm = 1.0 / math.log(m)
    whole = _simpson(fa, fm, fb, a, b)
    return _adaptive(a, b, fa, fm, fb, whole, eps, 60)
