"""Integer arithmetic layer: primality, factorization, CRT, Jacobi, li."""

import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from quadartin import arith, experiments
from quadartin.arith import (
    Factorization,
    NonCoprimeModuliError,
    _segments,
    crt,
    factorize,
    is_prime,
    is_square,
    jacobi,
    li,
    padic_valuation,
    powmod,
    prime_array,
    primes_in_class,
    primes_up_to,
    residues,
    set_rho_seed,
    sieve_rows,
    totient,
)

from oracles import (
    count_progression,
    factor_rows,
    max_error,
    mu,
    smallest_factor_table,
    trial_rows,
    whole_range_primes,
    whole_range_primes_in_class,
)


def trial_is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# is_prime

def test_is_prime_small_range_vs_trial_division():
    for n in range(-5, 20000):
        assert is_prime(n) == trial_is_prime(n), n


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(1000000007)
    assert trial_is_prime(1000000007)


def test_is_prime_strong_pseudoprime_boundaries():
    # smallest composites passing the witness sets (2), (2,3), (2..7), ...
    # each sits exactly on a tier boundary and must fall to the next tier
    for n in (2047, 1373653, 3215031751, 3474749660383, 341550071728321):
        assert not is_prime(n), n
        assert not sympy.isprime(n)
    # Carmichael numbers
    for n in (561, 1105, 41041, 825265):
        assert not is_prime(n), n


def test_is_prime_random_64bit_vs_sympy():
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randrange(1, 1 << 64)
        assert is_prime(n) == sympy.isprime(n), n


# ---------------------------------------------------------------------------
# prime sieves

def test_primes_up_to_counts():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10**6)) == 78498
    # cache must not leak primes beyond the requested bound
    assert primes_up_to(10)[-1] == 7
    # plain ints, so pow and exact arithmetic never see a fixed-width type
    assert all(type(p) is int for p in primes_up_to(1000))


def test_prime_array_is_read_only_view():
    ps = prime_array(100)
    assert ps.dtype == np.int64 and ps.tolist() == primes_up_to(100)
    with pytest.raises(ValueError):
        ps[0] = 4
    assert prime_array(100)[0] == 2


def test_primes_in_class_matches_loop():
    rng = random.Random(3)
    plist = primes_up_to(20000)
    cases = [(547, 720, 3, 10**4), (7, 10**6, 0, 100), (7, 2**64 + 3, 0, 100),
             (2**70 + 11, 2**70, 0, 100), (-1, 4, 0, 100), (5, 1, 0, 30)]
    for _ in range(200):
        hi = rng.randrange(0, 20000)
        v = rng.choice([rng.randrange(1, 500), rng.randrange(hi + 1, hi + 10**4),
                        rng.randrange(2**63, 2**80)])
        cases.append((rng.randrange(-10**6, 10**6), v, rng.randrange(-5, hi + 5), hi))
    for u, v, lo, hi in cases:
        want = [p for p in plist if lo <= p <= hi and p % v == u % v]
        got = primes_in_class(u, v, lo, hi)
        assert got.tolist() == want, (u, v, lo, hi)


@pytest.mark.parametrize("segment", [1000, 2**17])
def test_segments_match_whole_range_sieve(monkeypatch, segment):
    # every segment holds exactly the primes of its span: lo in {0, 1, 2},
    # ranges that are not a multiple of the segment size, and a prime p
    # that starts the second segment, then ends the first
    monkeypatch.setattr(arith, "SEGMENT", segment)
    plain = whole_range_primes(3 * segment + 10**4)
    p = int(plain[np.searchsorted(plain, segment + 2)])
    cases = [(0, 3 * segment + 10**4), (1, 2 * segment), (2, segment + 7),
             (p - segment, 3 * segment), (p - segment + 1, 2 * segment + 5),
             (segment, segment), (5, 4), (0, 1), (0, 2)]
    for lo, hi in cases:
        parts = list(_segments(lo, hi))
        for k, ps in enumerate(parts):
            a = max(lo, 2) + k * segment
            b = min(a + segment - 1, hi)
            assert ps.dtype == np.int64
            assert ps.tolist() == plain[(plain >= a) & (plain <= b)].tolist(), (lo, hi, k)
        got = np.concatenate([np.zeros(0, dtype=np.int64), *parts])
        assert got.tolist() == plain[(plain >= lo) & (plain <= hi)].tolist(), (lo, hi)
    assert list(_segments(p - segment, 3 * segment))[1][0] == p
    assert list(_segments(p - segment + 1, 2 * segment + 5))[0][-1] == p


def test_prime_array_grows_by_segments(monkeypatch):
    # up to BASE a read-only view of the one base table; past it the table
    # continued by the segment routine into a new array
    monkeypatch.setattr(arith, "SEGMENT", 1000)
    plain = whole_range_primes(2 * 10**6)
    base = prime_array(arith.BASE)
    assert base.size == 6542 and not base.flags.writeable
    for n in (1, 2, 3, 100, 101, 4999, 5000, arith.BASE - 1, arith.BASE, arith.BASE + 1,
              arith.BASE + 1000, 10**5, 2 * 10**6):
        got = prime_array(n)
        assert got.dtype == np.int64 and got.tolist() == plain[plain <= n].tolist(), n
        if n <= arith.BASE:
            assert not got.flags.writeable and (not got.size or np.shares_memory(got, base)), n
        else:
            assert not np.shares_memory(got, base), n


def test_segments_past_base_squared_match_is_prime(monkeypatch):
    # past BASE**2 a survivor of the base primes may be composite: windows
    # across BASE**2, on 65537**2 and 65537 * 65539 (no base prime divides
    # either), near 1e12, 1e16 and just below 2**63, dense and in a class
    monkeypatch.setattr(arith, "SEGMENT", 1000)
    assert 2**32 == arith.BASE**2 < 65537**2
    cases = [(1, 2**32 - 1500, 2**32 + 1500), (1, 65537**2 - 10, 65537 * 65539 + 10)]
    for lo in (10**12, 10**16, 2**63 - 3001):
        cases += [(1, lo, lo + 3000), (720, lo - 720 * 3000, lo)]
    for v, lo, hi in cases:
        got = primes_in_class(547 % v, v, lo, hi)
        assert got.dtype == np.int64
        want = [n for n in range(lo + (547 - lo) % v, hi + 1, v) if is_prime(n)]
        assert got.tolist() == want and len(want) > 10, (v, lo, hi)
        if v == 1:
            assert np.concatenate(list(_segments(lo, hi))).tolist() == want


def test_sieve_rows_match_factorize():
    # every prime below 2e5, its p - 1 sieved in segment-sized pieces
    ps = whole_range_primes(2 * 10**5)
    rows = [[] for _ in ps]
    for lo in range(0, ps.size, 9000):
        block = ps[lo : lo + 9000]
        i, q, e = sieve_rows(block - 1)
        assert i.dtype == q.dtype == e.dtype == np.int64
        for k, t, r in zip(i.tolist(), q.tolist(), e.tolist()):
            rows[lo + k].append((t, r))
    for p, got in zip(ps.tolist(), rows):
        assert tuple(sorted(got)) == factorize(p - 1).factors, p


def test_sieve_rows_are_trial_rows():
    # row for row, on primes just below 2**31, on every value to 5000, on
    # the p -+ 1 of the scan's class blocks (p = 547 mod 720 to 1e7 and
    # p = 7 mod 30 on [1e6, 3e6]), and on values far apart
    top = np.array([p for p in range(2**31 - 5000, 2**31) if is_prime(p)], dtype=np.int64)
    assert top.size > 200 and top[-1] == 2**31 - 1
    inputs = [top - 1, top + 1, np.arange(0, 5001, dtype=np.int64),
              np.array([1, 2], dtype=np.int64), np.array([1], dtype=np.int64),
              np.array([4, 6, 10, 2**31 - 2], dtype=np.int64)]
    for u, v, lo, hi in ((547, 720, 0, 10**7), (7, 30, 10**6, 3 * 10**6)):
        ps = primes_in_class(u, v, lo, hi)
        blocks = [ps[b : b + experiments.PRIME_BLOCK]
                  for b in range(0, ps.size, experiments.PRIME_BLOCK)]
        inputs += [b + s for b in blocks for s in (-1, 1)]
    assert len(inputs) == 6 + 2 + 2 * 3
    for n in inputs:
        got, want = sieve_rows(n), trial_rows(n)
        assert all(a.tolist() == b.tolist() for a, b in zip(got, want))
    i, q, e = sieve_rows(top - 1)
    for k, p in enumerate(top.tolist()):
        assert tuple(sorted(zip(q[i == k].tolist(), e[i == k].tolist()))) == factorize(
            p - 1).factors


def test_sieve_rows_past_base_squared_match_factorize():
    # values up to 2**63 whose cofactor after the base primes may be a
    # prime past BASE**2, or a product of two or three primes past BASE
    far = [65537**2, 65537 * 65539, 2 * 3 * 65537 * 65539, 65537 * 65539 * 65543,
           (2**31 - 1) ** 2, 2 * 4294967311, 3**5 * 65537**3, 2**63 - 25, 2**63 - 1,
           2**62 + 1, 2147483647 * 2147483629, 3 * 65537 * 4294967291]
    rng = random.Random(11)
    far += [rng.randrange(2**32, 2**63) for _ in range(300)]
    n = np.array(sorted(set(far)), dtype=np.int64)
    i, q, e = sieve_rows(n)
    assert i.dtype == q.dtype == e.dtype == np.int64
    for k, m in enumerate(n.tolist()):
        got = tuple(sorted(zip(q[i == k].tolist(), e[i == k].tolist())))
        assert got == factorize(m).factors, m


def test_sieve_rows_memory_is_bounded_by_the_window():
    # the values lie on 4 + 2k with k up to 2**23 - 1, and the two windows
    # of occupied k hold three slots; one int32 slot per integer of the
    # span would take 64 MB
    tracemalloc.start()
    try:
        i, q, e = sieve_rows(np.array([4, 6, 2**24 + 2], dtype=np.int64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert list(zip(i.tolist(), q.tolist(), e.tolist())) == [
        (0, 2, 2), (1, 2, 1), (2, 2, 1), (1, 3, 1), (2, 3, 1), (2, 2796203, 1)]


def test_primes_in_class_matches_whole_range_filter(monkeypatch):
    monkeypatch.setattr(arith, "SEGMENT", 1000)
    rng = random.Random(5)
    # the last three classes share a factor with their modulus: only the
    # first member can be prime
    cases = [(547, 720, 0, 10**4), (1, 2, 0, 3001), (7, 2**63 + 9, 0, 5000),
             (2**64 + 7, 2**64, 3, 4000), (5, 1, 2, 2), (3, 6, 0, 100), (2, 4, 0, 100),
             (9, 12, 0, 100)]
    for _ in range(100):
        hi = rng.randrange(0, 12000)
        v = rng.choice([rng.randrange(1, 300), rng.randrange(hi + 1, hi + 10**4),
                        rng.randrange(2**63, 2**80)])
        cases.append((rng.randrange(-10**6, 10**6), v, rng.randrange(-5, hi + 5), hi))
    for u, v, lo, hi in cases:
        got = primes_in_class(u, v, lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == whole_range_primes_in_class(u, v, lo, hi).tolist(), (u, v, lo, hi)
    assert [primes_in_class(u, v, 0, 100).tolist() for u, v in ((3, 6), (2, 4), (9, 12))] == [
        [3], [2], []]


def test_class_sieve_inverts_past_powmod_limit(monkeypatch):
    # base primes from POWMOD_LIMIT on get v**-1 mod q from powmod's
    # Python-int route
    monkeypatch.setattr(arith, "POWMOD_LIMIT", 50)
    for u, v in ((547, 720), (1, 7), (5, 6), (10, 21)):
        got = primes_in_class(u, v, 0, 2 * 10**5)
        assert got.tolist() == whole_range_primes_in_class(u, v, 0, 2 * 10**5).tolist(), (u, v)


def test_far_window_holds_no_copy_of_the_base_primes():
    # one 101-integer segment just below 2**63: it strikes with the 6,542
    # base primes up to BASE, not the 146M primes up to its square root
    # (1.2 GB as int64), so it allocates a few arrays of the base primes' size
    tracemalloc.start()
    try:
        parts = list(_segments(2**63 - 101, 2**63 - 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    got = np.concatenate(parts).tolist()
    assert got == [n for n in range(2**63 - 101, 2**63) if is_prime(n)] and got
    assert peak < 8 * prime_array(arith.BASE).nbytes, peak


def test_smallest_factor_table_matches_factorize():
    spf = smallest_factor_table(5000)
    assert spf.dtype == np.int32
    assert spf[0] == 0 and spf[1] == 1
    for n in range(2, 5001):
        assert spf[n] == factorize(n).primes[0], n


def test_trial_rows_match_factorize():
    # 0 and 1 give no rows; up to 2**31 + 1 the cofactor left is 1 or prime,
    # including squares and products of two primes near the trial bound
    n = np.array(list(range(5001)) + [2**31 + 1, 2**31, 2**31 - 1, 46337**2,
                                      46337 * 46327, 3**19, 2 * 46337 * 23167],
                 dtype=np.int64)
    i, q, e = trial_rows(n)
    assert i.dtype == q.dtype == e.dtype == np.int64
    got = sorted(zip(i.tolist(), q.tolist(), e.tolist()))
    want = [(j, p, k) for j, v in enumerate(n.tolist()) if v > 0
            for p, k in factorize(v).factors]
    assert got == want


def test_factor_rows_match_factorize():
    spf = smallest_factor_table(5000)
    n = np.arange(0, 5001, dtype=np.int64)
    i, q, e = factor_rows(n, spf)
    got = {}
    for k, p, t in zip(i.tolist(), q.tolist(), e.tolist()):
        got.setdefault(k, []).append((p, t))
    assert got.keys() == set(range(2, 5001))
    for k in range(2, 5001):
        assert tuple(got[k]) == factorize(k).factors, k


def test_residues_exact_for_any_integer():
    # int64 moduli below 2**31 and in [2**31, 2**63), and Python-int moduli
    # past 2**63, each kept in its dtype
    small = np.array([1, 2, 3, 7, 65537, 2**31 - 1], dtype=np.int64)
    large = np.array([2**31, 2**31 + 11, 3**39, 2**63 - 25], dtype=np.int64)
    huge = np.array([2**63, 2**64 + 13, 3**100], dtype=object)
    for g in (0, 5, -5, 2**62, -(2**63), 2**64 + 13, -(2**64 + 13), 3**200, -(7**150)):
        for mods in (small, large, huge):
            got = residues(g, mods)
            assert got.dtype == mods.dtype
            assert got.tolist() == [g % m for m in mods.tolist()], (g, mods)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(0, 2**63 - 1),
    st.integers(1, 2**31 - 1),
)
def test_powmod_matches_builtin_pow(b, e, m):
    assert int(powmod(b, e, m)) == pow(b, e, m)
    bases = np.array([b, b // 3, -b // 7], dtype=np.int64)
    assert powmod(bases, e, m).tolist() == [pow(t, e, m) for t in bases.tolist()]


_DESCENT_EXPONENTS = st.one_of(st.sampled_from([0, 1] + list(sympy.primerange(2, 98))),
                               st.integers(0, 2**62))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1), _DESCENT_EXPONENTS,
                          st.integers(1, 2**31 - 1)), min_size=1, max_size=12))
def test_powmod_per_element_matches_builtin_pow(triples):
    # The shape of fp2._orders' descent steps: a base, an exponent and a
    # modulus per element, with no broadcast
    b, e, m = (np.array(t, dtype=np.int64) for t in zip(*triples))
    got = powmod(b, e, m)
    assert got.dtype == np.int64 and got.shape == m.shape
    assert got.tolist() == [pow(*t) for t in triples]


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_powmod_and_residues_on_empty_inputs(dtype, shape):
    # _orders powers empty rows: nothing is read from the empty arrays, and
    # the result keeps their dtype and shape
    empty = np.zeros(shape, dtype=dtype)
    for got in (powmod(empty, empty, empty), powmod(3, empty, empty), residues(5, empty)):
        assert got.dtype == empty.dtype and got.shape == shape


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(2**31, 2**63 - 1), st.integers(0, 2**63 - 1), st.integers(2**63, 2**200))
def test_powmod_exact_past_int32(m, e, big):
    # int64 moduli past 2**31 stay int64; Python ints past 2**63 stay objects
    got = powmod(np.array([3, -5]), e, np.array([7, m]))
    assert got.dtype == np.int64 and got.tolist() == [pow(3, e, 7), pow(-5, e, m)]
    bases = np.array([3, -(2**70), big - 1], dtype=object)
    got = powmod(bases, np.array([e, e, big], dtype=object), np.array([m, big, big], dtype=object))
    assert got.dtype == object
    assert got.tolist() == [pow(3, e, m), pow(-(2**70), e, big), pow(big - 1, big, big)]


def test_powmod_and_residues_exact_on_lists_and_other_dtypes():
    # a list mixing small ints with one past 2**63, which numpy alone makes
    # float64, and a uint64 array past 2**63, which an int64 cast wraps, go
    # through Python ints; inputs that fit int64 are computed in it
    assert powmod([2, 2], [3, 3], [7, 2**63 + 29]).tolist() == [1, 8]
    assert residues(10, np.array([7, 2**63 + 29], dtype=np.uint64)).tolist() == [3, 10]
    got = powmod(np.array([3, 5], dtype=np.int32), np.array([2, 3], dtype=np.uint64), [7, 11])
    assert got.dtype == np.int64 and got.tolist() == [2, 4]


def _scalar_window(b, m):
    """The window powmod's scalar ladder takes for the one base b and the
    largest modulus m: the largest k with b**(2**k - 1) * m**2 < 2**63, or
    0 when no k >= 1 has it."""
    k = 0
    while b ** (2 ** (k + 1) - 1) * m * m < 2**63:
        k += 1
    return k


def _window_edges(b):
    """For each window k >= 1 of base b: the largest modulus m with
    b**(2**k - 1) * m**2 < 2**63, and m + 1, where the window narrows."""
    edges, k = [], 1
    while (m := math.isqrt((2**63 - 1) // b ** (2**k - 1))) >= 1:
        edges += [m, m + 1]
        k += 1
    return edges


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 7, 11, 2**16 + 1]), st.data())
def test_powmod_scalar_base_matches_builtin_pow(b, data):
    # One base b >= 2 against many moduli: the largest modulus sits where a
    # window narrows, or at 1, 2 or 2**31 - 1, and the others include b - 1,
    # b and b + 1 when they fit below it, so bases from p on are covered.
    # Every result is Python's pow, so no int64 product wrapped, and the
    # scalar ladder runs exactly when some window fits below 2**31.
    top = data.draw(st.sampled_from([1, 2, 2**31 - 1] + _window_edges(b)))
    mods = [top, 1] + [m for m in (b - 1, b, b + 1) if m <= top]
    mods += data.draw(st.lists(st.integers(1, top), max_size=6))
    exps = data.draw(st.lists(st.one_of(st.sampled_from([0, 1, 2**62]), st.integers(0, 2**62)),
                              min_size=len(mods), max_size=len(mods)))
    want = [pow(b, e, m) for e, m in zip(exps, mods)]
    e, m = np.array(exps, dtype=np.int64), np.array(mods, dtype=np.int64)
    with mock.patch.object(arith, "_scalar_ladder", wraps=arith._scalar_ladder) as spy:
        got = powmod(b, e, m)
    assert got.tolist() == want
    assert spy.called == (top < arith.POWMOD_LIMIT and _scalar_window(b, top) >= 1)
    # mixed, negative and object-array bases keep the other routes
    for bases in (np.array([b] * (len(mods) - 1) + [b + 1]), np.full(len(mods), -b),
                  np.full(len(mods), b, dtype=object)):
        with mock.patch.object(arith, "_scalar_ladder", wraps=arith._scalar_ladder) as spy:
            got = powmod(bases, e, m)
        assert got.tolist() == [pow(int(t), x, y) for t, x, y in zip(bases.tolist(), exps, mods)]
        assert not spy.called


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_powmod_and_residues_reject_bad_input(dtype):
    # a modulus below 1, and a negative exponent, on either route
    with pytest.raises(ValueError):
        powmod(np.array([3, 5], dtype=dtype), 2, np.array([7, 0], dtype=dtype))
    with pytest.raises(ValueError):
        powmod(np.array([3, 5], dtype=dtype), np.array([2, -1], dtype=dtype), 7)
    with pytest.raises(ValueError):
        residues(3, np.array([5, -7], dtype=dtype))


def test_smallest_factor_table_rejects_int32_overflow():
    # checked before anything is allocated
    with pytest.raises(ValueError):
        smallest_factor_table(2**31)


# ---------------------------------------------------------------------------
# factorization

def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(48).factors == ((2, 4), (3, 1))
    f = factorize(10007**2 - 1)
    assert f.value == 100140048
    assert math.prod(p**e for p, e in f.factors) == 100140048


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-12)


def test_factorize_vs_sympy_structured():
    set_rho_seed(0)
    cases = [
        2**62,
        3**39,
        (1 << 31) * ((1 << 31) - 1),
        1000003 * 1000033,
        2147483647 * 2147483629,  # balanced 62-bit semiprime
        9999999967,               # 34-bit prime
        720720 * 1009 * 1013,
    ]
    for n in cases:
        got = dict(factorize(n).factors)
        assert got == sympy.factorint(n), n


def test_factorize_random_reconstruction():
    # 10**5 random n < 2**63; bit lengths drawn uniformly so every scale
    # from tiny to 63-bit is exercised
    set_rho_seed(0)
    rng = random.Random(999)
    for _ in range(100000):
        bits = rng.randrange(1, 64)
        n = rng.randrange(1 << (bits - 1), 1 << bits)
        f = factorize(n)
        assert f.value == n
        assert math.prod(p**e for p, e in f.factors) == n


def test_factorize_deterministic_across_calls():
    set_rho_seed(0)
    n = 2147483647 * 2147483629 * 97
    a = factorize(n)
    set_rho_seed(7)
    b = factorize(n)
    assert a == b  # factor set is canonical regardless of rho path


def test_factorization_validates_itself():
    with pytest.raises(ValueError):
        Factorization(6, ((3, 1), (2, 1)))  # unsorted
    with pytest.raises(ValueError):
        Factorization(8, ((4, 1), (2, 1)))  # composite entry
    with pytest.raises(ValueError):
        Factorization(10, ((2, 1), (3, 1)))  # wrong product
    with pytest.raises(ValueError):
        Factorization(2, ((2, 0),))  # zero exponent
    for n in (9, 1007, 1009 * 1013):  # composite below and past the trial primes
        with pytest.raises(ValueError):
            Factorization(n, ((n, 1),))


def test_factorization_tests_only_factors_past_the_trial_primes(monkeypatch):
    # a prime below 1000 was found by trial division, so only a larger
    # factor goes through Miller-Rabin again
    checked = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: checked.append(n) or real(n))
    Factorization(8 * 997 * 1009, ((2, 3), (997, 1), (1009, 1)))
    assert checked == [1009]


def test_factorization_properties():
    f = factorize(720)  # 2^4 3^2 5
    assert f.primes == (2, 3, 5)
    assert f.nu == 3
    assert not f.is_squarefree
    assert mu(f) == 0
    assert f.totient() == 192
    g = factorize(30)
    assert g.is_squarefree
    assert mu(g) == -1
    assert mu(factorize(1)) == 1
    assert mu(factorize(6)) == 1


def test_totient_vs_brute_force():
    for n in range(1, 500):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert totient(n) == brute, n


def test_padic_valuation():
    assert padic_valuation(48, 2) == 4
    assert padic_valuation(48, 3) == 1
    assert padic_valuation(48, 5) == 0
    assert padic_valuation(-48, 2) == 4
    with pytest.raises(ValueError):
        padic_valuation(0, 2)


def test_is_square():
    squares = {k * k for k in range(200)}
    for n in range(-10, 40000):
        assert is_square(n) == (n in squares), n
    assert is_square((10**9 + 7) ** 2)
    assert not is_square((10**9 + 7) ** 2 - 1)


# ---------------------------------------------------------------------------
# jacobi

def test_jacobi_examples():
    assert jacobi(1, 3) == 1
    assert jacobi(5, 7) == -1  # squares mod 7 are {1,2,4}
    assert jacobi(-1, 5) == 1  # 4 = -1 is a square mod 5


def test_jacobi_vs_legendre_brute_force():
    # for odd primes the symbol is decided by the set of squares
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        sq = {(k * k) % p for k in range(1, p)}
        for a in range(-2 * p, 2 * p):
            want = 0 if a % p == 0 else (1 if a % p in sq else -1)
            assert jacobi(a, p) == want, (a, p)


def test_jacobi_vs_sympy():
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randrange(3, 10**6) | 1
        a = rng.randrange(-(10**6), 10**6)
        assert jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_jacobi_square_and_multiplicative():
    rng = random.Random(6)
    for _ in range(500):
        n = rng.randrange(3, 10**5) | 1
        a = rng.randrange(1, 10**5)
        b = rng.randrange(1, 10**5)
        assert jacobi(a * a, n) in (0, 1)
        ja, jb = jacobi(a, n), jacobi(b, n)
        if ja != 0 and jb != 0:
            assert jacobi(a * b, n) == ja * jb


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, -7)
    with pytest.raises(ValueError):
        jacobi(3, 0)


# ---------------------------------------------------------------------------
# crt

def test_crt_examples():
    assert crt([(1, 1)]) == (0, 1)
    assert crt([(2, 3), (3, 5)]) == (8, 15)
    assert crt([(1, 16), (1, 9)]) == (1, 144)


def test_crt_satisfies_congruences():
    rng = random.Random(11)
    moduli_pool = [16, 9, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(300):
        k = rng.randrange(1, 6)
        mods = rng.sample(moduli_pool, k)
        pairs = [(rng.randrange(m), m) for m in mods]
        u, v = crt(pairs)
        assert v == math.prod(mods)
        assert 0 <= u < v
        for r, m in pairs:
            assert u % m == r % m


def test_crt_rejects_shared_factor():
    with pytest.raises(NonCoprimeModuliError):
        crt([(1, 6), (2, 4)])


# ---------------------------------------------------------------------------
# li

def li_oracle(y):
    val, err = quad(lambda t: 1.0 / math.log(t), 2.0, y, limit=400)
    assert err < 1e-6 * max(1.0, val)
    return val


def test_li_endpoints():
    assert li(2) == 0.0
    with pytest.raises(ValueError):
        li(1.5)


def test_li_frozen_values():
    assert li(100) == pytest.approx(29.080977803962483, abs=1e-9)
    assert li(10**6) == pytest.approx(78626.50399568424, abs=1e-6)
    # sanity envelope around pi(10**6) = 78498
    assert abs(li(10**6) - 78498) < 300


def test_li_vs_quadrature_oracle():
    for y in [3, 10, 100, 1234.5, 10**4, 10**6]:
        assert li(y) == pytest.approx(li_oracle(y), rel=1e-9)


def test_li_sanity_envelope_100():
    assert 15 < li(100) < 35  # pi(100) = 25 plus/minus 10


def test_li_additive_over_splits():
    # int_2^y = int_2^m + int_m^y, checked via the oracle on the tail
    for (a, b) in [(10, 1000), (100, 10**5)]:
        tail, err = quad(lambda t: 1.0 / math.log(t), a, b, limit=400)
        assert li(b) - li(a) == pytest.approx(tail, rel=1e-8)


# ---------------------------------------------------------------------------
# progressions

def test_count_progression_examples():
    assert count_progression(100, 4, 1).count == 11
    assert count_progression(2, 3, 1).count == 0
    assert count_progression(100, 1, 0).count == 25


def test_count_progression_error_field():
    r = count_progression(100, 4, 1)
    assert r.error == pytest.approx(11 - li(100) / 2, abs=1e-12)


def test_count_progression_rejects_shared_factor():
    with pytest.raises(ValueError):
        count_progression(100, 4, 2)


def test_count_progression_partition():
    # summed over residues coprime to m: pi(y) minus primes dividing m
    for y in (100, 1000):
        for m in (1, 3, 4, 12, 30):
            total = sum(
                count_progression(y, m, s).count
                for s in range(m)
                if math.gcd(s, m) == 1
            ) if m > 1 else count_progression(y, 1, 0).count
            dividing = sum(1 for p in primes_up_to(y) if m % p == 0)
            assert total == len(primes_up_to(y)) - dividing, (y, m)


def test_max_error_examples():
    assert max_error(100, 1) == pytest.approx(4.080977803962483, abs=1e-9)
    # counts 11 (s=1) and 13 (s=3) against li(100)/2 = 14.54...
    assert max_error(100, 4) == pytest.approx(abs(11 - li(100) / 2), abs=1e-12)
    assert max_error(2, 3) == pytest.approx(1.0, abs=1e-12)
