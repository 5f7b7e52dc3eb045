"""Exact integer utilities: a segmented prime sieve, primality,
factorization (scalar, and array-wise by sieving the values' own
progression), array modular powers, Jacobi symbols, CRT, and the logarithmic
integral.

Everything here is deterministic.  The only randomized internals (Pollard rho
restarts) draw from a fixed seed that can be overridden with set_rho_seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

import numpy as np

# Deterministic Miller-Rabin witness tiers: each set is exact below its
# threshold (the last one out to 3.18 * 10**23, far past 64 bits).
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
# The array kernels compute in int64 on values below this bound, where a
# product of two stays below 2**62, and on Python ints past it: exact_ints
# casts their inputs by it, and powmod and residues choose their route by
# it.  No other module reads it.
POWMOD_LIMIT = 2**31
# Every sieve here strikes with the primes up to BASE only.  A survivor
# below BASE**2 is then prime; past it is_prime decides a survivor, and
# factorize splits a cofactor, whose primes all pass BASE.
BASE = 2**16


def _segments(lo: int, hi: int, *, u: int = 0, v: int = 1) -> Iterator[np.ndarray]:
    """The primes p = u (mod v) in [lo, hi], ascending, as one int64 array
    per segment of SEGMENT members of the progression from its first member
    n0 >= max(lo, 2) (Bays & Hudson, BIT 17 (1977)).  Each base prime q up
    to min(isqrt(top), BASE), top the segment's last member, that does not
    divide v strikes its multiples from the first member >= q**2 on; a q
    dividing v divides no member, or every member and then only n0 can be
    prime.  In a segment whose top reaches BASE**2, only the survivors
    is_prime passes are kept.  The segments are sieved lazily, one per draw:
    the prime substrate of order_scan and lemma42_scan, whose memory stays
    one segment's whatever the range."""
    n0 = max(lo, 2) + (u - max(lo, 2)) % v
    if n0 + v > hi or math.gcd(n0, v) > 1:
        # at most n0 can be prime: sieve it alone
        hi, v = min(n0, hi), 1
    if n0 > hi:
        return
    size = (hi - n0) // v + 1
    base = prime_array(min(math.isqrt(hi), BASE))
    for j0 in range(0, size, SEGMENT):
        a = n0 + v * j0
        flags = np.ones(min(SEGMENT, size - j0), dtype=bool)
        top = a + v * (flags.size - 1)
        q = base[: np.searchsorted(base, math.isqrt(top), side="right")]
        if v > 1:
            q = q[v % q != 0]
        # the index of each q's first strike: a member that q divides, at
        # or past q**2
        past_square = np.maximum(-((a - q * q) // v), 0)
        s = past_square + (_first_hits(a, v, q) - past_square) % q
        # q shorter than the segment may strike often, the rest once
        k = int(np.searchsorted(q, flags.size))
        for t, i in zip(q[:k].tolist(), s[:k].tolist()):
            flags[i::t] = False
        s = s[k:]
        flags[s[s < flags.size]] = False
        if top >= BASE**2:
            # past BASE**2 a survivor may be a product of primes past BASE
            j = np.flatnonzero(flags)
            flags[j[[not is_prime(n) for n in (j * v + a).tolist()]]] = False
        yield np.flatnonzero(flags) * v + a


def prime_array(n: int) -> np.ndarray:
    """All primes <= n, ascending, as int64: a read-only view of the base
    primes for n <= BASE, else a new array that continues them by
    segments."""
    if n <= BASE:
        return _BASE_PRIMES[: np.searchsorted(_BASE_PRIMES, n, side="right")]
    return np.concatenate([_BASE_PRIMES, *_segments(BASE + 1, n)])


def primes_up_to(n: int) -> List[int]:
    """All primes <= n, ascending, as Python ints."""
    return prime_array(n).tolist()


def primes_in_class(u: int, v: int, lo: int, hi: int) -> np.ndarray:
    """Primes p = u (mod v) in [lo, hi], ascending, as a new int64 array,
    sieved on the progression itself: exact for every modulus v >= 1."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *_segments(lo, hi, u=u, v=v)])


def _first_hits(a: int, v: int, q: np.ndarray) -> np.ndarray:
    """For each prime q, the least j >= 0 with q | a + v*j: the first member
    of the progression a, a + v, ... that q strikes.  q must not divide v,
    unless it divides a too (then j = 0)."""
    hit = (-a) % q
    return hit if v == 1 else hit * powmod(v % q, q - 2, q) % q


# The primes up to BASE, read-only: the segmented sieve lists them itself,
# from the primes up to BASE**(1/4) = 16, then those up to 256
_BASE_PRIMES = np.array([2, 3, 5, 7, 11, 13], dtype=np.int64)
_BASE_PRIMES = np.concatenate(list(_segments(2, math.isqrt(BASE))))
_BASE_PRIMES = np.concatenate(list(_segments(2, BASE)))
_BASE_PRIMES.flags.writeable = False


def sieve_rows(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prime-power rows (i, q, e) with q**e exactly dividing n[i], for every
    n[i] > 1 of an ascending int64 array n of distinct values: the 2-parts,
    then by ascending q, then what is left of each n[i] once every prime up
    to min(isqrt(max(n)), BASE) is out: the prime cofactors below BASE**2,
    then the rows factorize gives the rest.  The values > 1 lie on x0 + g*k,
    g the gcd of their distances from the first, x0.  Each odd such q
    strikes its multiples there: every k if q divides g and x0, none if q
    divides g only, else every q-th k from its first hit.  Slots are indexed
    by k, one occupied window of SEGMENT k at a time, whatever the span."""
    # n ascends, so its values > 1 are n[lo:]
    lo = int(np.searchsorted(n, 2))
    x = n[lo:]
    if not x.size:
        return tuple(np.zeros((3, 0), dtype=np.int64))
    x0 = int(x[0])
    g = int(np.gcd.reduce(x - x0)) or 1
    k = (x - x0) // g
    qs = prime_array(min(math.isqrt(int(x[-1])), BASE))[1:]
    qs = qs[(g % qs != 0) | (x0 % qs == 0)]
    step, first = np.where(g % qs != 0, qs, 1), _first_hits(x0, g, qs)
    # q below 64 strike one strided view of the slots each; the rest, with
    # few strikes each, one gathered run each, its slots the running sum of
    # the gaps between strikes.  Each batch of strikes, its views or runs
    # laid end to end, keeps the occupied slots, and a strike's q is that
    # of the view or run it falls in.
    small = int(np.searchsorted(qs, 64))
    parts_i, parts_q = [], []
    cuts = [0, *(np.flatnonzero(np.diff(k // SEGMENT)) + 1).tolist(), k.size]
    for start, stop in zip(cuts, cuts[1:]):
        k0 = int(k[start])
        slot = np.full(int(k[stop - 1]) - k0 + 1, -1, dtype=np.int32)
        slot[k[start:stop] - k0] = np.arange(start, stop)
        f = (first - k0) % step
        views = [slot[a::b] for a, b in zip(f[:small].tolist(), step[:small].tolist())]
        count = (slot.size - f + step - 1) // step
        big = small + np.flatnonzero(count[small:])
        c, t, f0 = count[big], np.minimum(step[big], slot.size), f[big]
        # every gap is below the window, and a run's first gap leads from
        # the last strike of the run before
        gaps = np.repeat(t.astype(np.int32), c)
        gaps[np.cumsum(c) - c] = f0 - np.r_[0, (f0 + t * (c - 1))[:-1]]
        for h, ends, hq in ((np.concatenate([slot[:0], *views]),
                             np.cumsum([v.size for v in views], dtype=np.int64), qs),
                            (slot[np.cumsum(gaps, dtype=np.int32)], np.cumsum(c), qs[big])):
            hit = np.flatnonzero(h >= 0)
            parts_i.append(h[hit])
            parts_q.append(hq[np.searchsorted(ends, hit, side="right")])
    i = np.concatenate(parts_i)
    q = np.concatenate(parts_q)
    del k, slot, views, gaps, parts_i, parts_q
    if np.any(q[1:] < q[:-1]):
        # each window after the first starts the run of q over
        order = np.argsort(q, kind="stable")
        i, q = i[order], q[order]
    # exponents by repeated division
    m = x[i] // q
    e = np.ones(i.size, dtype=np.int8)
    r = np.flatnonzero(m % q == 0)
    while r.size:
        m[r] //= q[r]
        e[r] += 1
        r = r[m[r] % q[r] == 0]
    del m, r
    # the 2-part from the lowest set bit, and what is left of each value
    # once it and every q**e are out
    low = x & -x
    part = low.copy()
    np.multiply.at(part, i, q**e)
    rest = x // part
    del part
    two, cof = np.flatnonzero(low > 1), np.flatnonzero(rest > 1)
    split = np.zeros((0, 3), dtype=np.int64)
    if x[-1] >= BASE**2:
        # a cofactor from BASE**2 on may be composite: factorize splits it
        far = rest[cof] >= BASE**2
        split = np.array([(j, t, r) for j in cof[far].tolist() for t, r in
                          factorize(int(rest[j])).factors], dtype=np.int64).reshape(-1, 3)
        cof = cof[~far]
    # the rows, filled a part at a time: the 2-parts, the sieved q, the
    # prime cofactors, the split ones
    rows = i_rows, q_rows, e_rows = tuple(
        np.empty(two.size + i.size + cof.size + len(split), dtype=np.int64) for _ in range(3))
    a, b, c = two.size, two.size + i.size, two.size + i.size + cof.size
    i_rows[:a], q_rows[:a], e_rows[:a] = two, 2, np.bitwise_count(low[two] - 1)
    i_rows[a:b], q_rows[a:b], e_rows[a:b] = i, q, e
    i_rows[b:c], q_rows[b:c], e_rows[b:c] = cof, rest[cof], 1
    i_rows[c:], q_rows[c:], e_rows[c:] = split[:, 0], split[:, 1], split[:, 2]
    i_rows += lo
    return rows


def _integers(x) -> np.ndarray:
    """x as an int64 array, or as an object array of Python ints: an int64
    or object array as it is, anything else (a list, a scalar, another
    dtype) built through Python ints and cast to int64 only when every
    value fits, so that none wraps."""
    if isinstance(x, np.ndarray) and x.dtype in (np.int64, object):
        return x
    x = np.array(x.tolist() if isinstance(x, np.ndarray) else x, dtype=object)
    return x.astype(np.int64) if not x.size or -2**63 <= x.min() <= x.max() < 2**63 else x


def _fits(lo: int, hi: int) -> bool:
    """Whether every x in [lo, hi] has |x| below POWMOD_LIMIT."""
    return -POWMOD_LIMIT < lo and hi < POWMOD_LIMIT


def exact_ints(x) -> np.ndarray:
    """The integers x, an array or a list of Python ints, in the dtype the
    array kernels compute on: int64 when every |x| is below POWMOD_LIMIT,
    else an object array of Python ints, so that no product wraps."""
    x = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
    fits = not x.size or _fits(x.min(), x.max())
    return x.astype(np.int64 if fits else object, copy=False)


def _int64_max(mod: np.ndarray) -> int:
    """The largest modulus where powmod and residues take their int64
    route, nonempty int64 moduli below POWMOD_LIMIT, else 0; raises
    ValueError on a modulus below 1."""
    if not mod.size:
        return 0
    lo, hi = mod.min(), int(mod.max())
    if lo < 1:
        raise ValueError("need every modulus >= 1")
    return hi if mod.dtype != object and _fits(lo, hi) else 0


def powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base**exp % mod (broadcast), exact for every modulus >= 1
    and exponent >= 0.  On nonempty int64 arrays with every modulus below
    POWMOD_LIMIT it is an int64 left-to-right square-and-multiply ladder,
    no product past 2**63: when every base is one integer b >= 2 and some
    k >= 1 has b**(2**k - 1) * max(mod)**2 < 2**63, _scalar_ladder's k-bit
    windows, one reduction per exponent bit; otherwise 2-bit windows over a
    per-element table of base**0 .. base**3, each product of two residues
    below 2**62.  Any other input goes through Python's pow, element by
    element, in the inputs' dtype (an object array as soon as one input
    is).  Each bound of mod and exp is read once, and the inputs are
    broadcast only when their shapes differ."""
    base, exp, mod = _integers(base), _integers(exp), _integers(mod)
    if not base.shape == exp.shape == mod.shape:
        base, exp, mod = np.broadcast_arrays(base, exp, mod)
    hi = _int64_max(mod)
    if exp.size and exp.min() < 0:
        raise ValueError("powmod needs nonnegative exponents")
    if not (hi and base.dtype == exp.dtype == np.int64):
        dtype = np.result_type(base, exp, mod)
        out = [pow(*t) for t in zip(base.ravel().tolist(), exp.ravel().tolist(),
                                    mod.ravel().tolist())]
        return np.array(out, dtype=dtype).reshape(mod.shape)
    shape = mod.shape
    base, exp, mod = base.ravel(), exp.ravel(), mod.ravel()
    top = max(int(exp.max()).bit_length() - 1, 0)
    b = int(base[0])
    k = 0
    if b > 1 and (base == b).all():
        # the widest window whose folded product stays below 2**63
        while b ** (2 ** (k + 1) - 1) * hi * hi < 2**63:
            k += 1
    if k:
        return _scalar_ladder(b, k, exp, mod, top).reshape(shape)
    # row t of the table holds base**0 .. base**3 mod t's modulus, each
    # below POWMOD_LIMIT, so in int32
    table = np.empty((mod.size, 4), dtype=np.int32)
    table[:, 0] = 1 % mod
    table[:, 1] = b = base % mod
    table[:, 2] = b2 = b * b % mod
    table[:, 3] = b2 * b % mod
    del b, b2
    flat = table.ravel()
    row = 4 * np.arange(mod.size)
    # the ladder starts from the table, at the window of the top bit of the
    # largest exponent; every window after it is two squarings and a
    # product, its table index built in one buffer
    top -= top % 2
    w = (exp >> top) & 3
    w += row
    out = flat[w].astype(np.int64)
    for s in range(top - 2, -1, -2):
        out *= out
        out %= mod
        out *= out
        out %= mod
        np.right_shift(exp, s, out=w)
        w &= 3
        w += row
        out *= flat[w]
        out %= mod
    return out.reshape(shape)


def _scalar_ladder(b: int, k: int, exp: np.ndarray, mod: np.ndarray, top: int) -> np.ndarray:
    """b**exp % mod for one integer b >= 2 over flat int64 exponents and
    moduli, top the top bit of the largest exponent (0 when every one is
    0), by k-bit windows over the one table b**0 .. b**(2**k - 1), unreduced:
    each window is k squarings, the last one's product times the table
    entry before its reduction, which b**(2**k - 1) * max(mod)**2 < 2**63
    keeps exact."""
    table = np.array([b**j for j in range(2**k)], dtype=np.int64)
    top -= top % k
    w = exp >> top
    out = table[w] % mod
    for s in range(top - k, -1, -k):
        for _ in range(k - 1):
            out *= out
            out %= mod
        out *= out
        np.right_shift(exp, s, out=w)
        w &= 2**k - 1
        out *= table[w]
        out %= mod
    return out


def residues(g: int, mod: np.ndarray) -> np.ndarray:
    """g % m for each modulus m >= 1, exact for any Python int g, in mod's
    dtype.  On int64 moduli below POWMOD_LIMIT |g| is folded in 30-bit
    limbs, so no intermediate passes 2**62; otherwise Python's %, element
    by element."""
    mod = _integers(mod)
    if not _int64_max(mod):
        return np.array([g % m for m in mod.ravel().tolist()], dtype=mod.dtype).reshape(mod.shape)
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
            # a trial prime needs no Miller-Rabin; every other factor gets it
            if p <= prev or e < 1 or (p not in _TRIAL_SET and not is_prime(p)):
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
_TRIAL_SET = frozenset(_TRIAL_PRIMES)


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
