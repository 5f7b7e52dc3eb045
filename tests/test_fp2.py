"""F_p^2 arithmetic for inert primes: Frobenius, exact orders, order records."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadartin import experiments, fp2
from quadartin.arith import factorize, is_prime, jacobi, primes_up_to, sieve_rows
from quadartin.experiments import AlphaFamily, order_scan
from quadartin.quadfield import FieldContext, conjugate, norm

import oracles
from oracles import (
    Fp2Context,
    Fp2Elem,
    OrderChainError,
    OrderRecord,
    _mul_raw,
    _pow_raw,
    frobenius,
    group_primes,
    is_inert,
    mult_order,
    order_record,
    reduce_elem,
    scan_blocks,
    trial_rows,
)


def inert_primes_under(delta, bound):
    ctx = FieldContext(delta)
    return [
        p for p in primes_up_to(bound)
        if p > 2 and delta % p and is_inert(p, ctx)
    ]


def brute_order(a):
    x = a
    for k in range(1, a.ctx.p**2):
        if x.is_one():
            return k
        x = x * a
    raise AssertionError("no order found")


@pytest.fixture
def c7():
    return Fp2Context.for_prime(7, FieldContext(5))


# ---------------------------------------------------------------------------
# context validation

def test_for_prime_accepts_inert(c7):
    assert c7.p == 7
    assert c7.delta_mod_p == 5
    assert c7.fact_pm1.value == 6
    assert c7.fact_pp1.value == 8
    assert group_primes(c7) == (2, 3)


def test_for_prime_rejects_split_ramified_and_two():
    ctx = FieldContext(5)
    with pytest.raises(ValueError):
        Fp2Context.for_prime(11, ctx)  # splits
    with pytest.raises(ValueError):
        Fp2Context.for_prime(5, ctx)  # ramified
    with pytest.raises(ValueError):
        Fp2Context.for_prime(2, ctx)


def test_context_rejects_mismatched_factorizations():
    with pytest.raises(ValueError):
        Fp2Context(7, 5, factorize(8), factorize(8))


def test_elem_range_check(c7):
    with pytest.raises(ValueError):
        Fp2Elem(7, 0, c7)
    with pytest.raises(ValueError):
        Fp2Elem(0, -1, c7)


# ---------------------------------------------------------------------------
# reduction

def test_reduce_examples(c7):
    f5 = FieldContext(5)
    assert reduce_elem(f5.integer(3, 1), c7) == Fp2Elem(3, 1, c7)
    assert reduce_elem(f5.integer(7, 7), c7) == Fp2Elem(0, 0, c7)
    assert reduce_elem(f5.integer(10, 1), c7) == Fp2Elem(3, 1, c7)
    assert reduce_elem(f5.integer(-1, -8), c7) == Fp2Elem(6, 6, c7)


def test_reduce_rejects_non_integral(c7):
    from fractions import Fraction

    a = FieldContext(5).element(Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        reduce_elem(a, c7)


def test_reduce_is_ring_homomorphism(c7):
    f5 = FieldContext(5)
    rng = random.Random(41)
    for _ in range(200):
        a = f5.integer(rng.randrange(-30, 31), rng.randrange(-30, 31))
        b = f5.integer(rng.randrange(-30, 31), rng.randrange(-30, 31))
        assert reduce_elem(a * b, c7) == reduce_elem(a, c7) * reduce_elem(b, c7)


# ---------------------------------------------------------------------------
# multiplication / powers

def test_mul_identity_and_sqrt_square(c7):
    one = Fp2Elem(1, 0, c7)
    s = Fp2Elem(0, 1, c7)
    x = Fp2Elem(3, 4, c7)
    assert one * x == x
    assert s * s == Fp2Elem(5, 0, c7)  # s^2 = delta
    # (3,1) * (3,-1) = norm = 9 - 5 = 4
    assert Fp2Elem(3, 1, c7) * Fp2Elem(3, 6, c7) == Fp2Elem(4, 0, c7)


def test_pow_examples(c7):
    a = Fp2Elem(3, 1, c7)
    assert a**1 == a
    assert a**8 == Fp2Elem(4, 0, c7)  # alpha^(p+1) = N(alpha)
    # group order kills everything
    for c0 in range(7):
        for c1 in range(7):
            x = Fp2Elem(c0, c1, c7)
            if not x.is_zero():
                assert (x**48).is_one()


def test_pow_negative_exponent(c7):
    a = Fp2Elem(3, 1, c7)
    assert a**-1 == a.inverse()
    assert (a**-5) * (a**5) == Fp2Elem(1, 0, c7)


def test_norm_and_inverse(c7):
    a = Fp2Elem(3, 1, c7)
    assert a.norm() == 4
    assert a * a.inverse() == Fp2Elem(1, 0, c7)
    with pytest.raises(ZeroDivisionError):
        Fp2Elem(0, 0, c7).inverse()
    # norm equals the (p+1)-th power, which lands in the prime subfield
    for c0 in range(7):
        for c1 in range(7):
            x = Fp2Elem(c0, c1, c7)
            assert x**8 == Fp2Elem(x.norm(), 0, c7)


# ---------------------------------------------------------------------------
# frobenius

def test_frobenius_examples(c7):
    assert frobenius(Fp2Elem(3, 1, c7)) == Fp2Elem(3, 6, c7)
    assert frobenius(Fp2Elem(4, 0, c7)) == Fp2Elem(4, 0, c7)
    x = Fp2Elem(2, 5, c7)
    assert frobenius(frobenius(x)) == x


def test_frobenius_is_pth_power():
    # the defining identity, across several fields and primes
    for delta in (2, 3, 5, 13):
        field = FieldContext(delta)
        for p in inert_primes_under(delta, 200):
            ctx = Fp2Context.for_prime(p, field)
            rng = random.Random(p * delta)
            for _ in range(10):
                x = Fp2Elem(rng.randrange(p), rng.randrange(p), ctx)
                assert x**p == frobenius(x), (delta, p, x)


def test_frobenius_matches_conjugate():
    f5 = FieldContext(5)
    ctx = Fp2Context.for_prime(17, f5)
    rng = random.Random(99)
    for _ in range(50):
        a = f5.integer(rng.randrange(-40, 41), rng.randrange(-40, 41))
        assert reduce_elem(conjugate(a), ctx) == frobenius(reduce_elem(a, ctx))


# ---------------------------------------------------------------------------
# orders

def test_mult_order_examples(c7):
    assert mult_order(Fp2Elem(1, 0, c7)) == 1
    assert mult_order(Fp2Elem(4, 0, c7)) == 3  # 4, 2, 1 mod 7
    ctx3 = Fp2Context.for_prime(3, FieldContext(2))
    assert mult_order(Fp2Elem(0, 1, ctx3)) == 4  # s^2 = 2, s^4 = 4 = 1
    with pytest.raises(ValueError):
        mult_order(Fp2Elem(0, 0, c7))


def test_mult_order_exhaustive_small_primes():
    # every nonzero element, brute-force oracle
    field = FieldContext(5)
    for p in (3, 7, 13, 17, 23):
        ctx = Fp2Context.for_prime(p, field)
        for c0 in range(p):
            for c1 in range(p):
                x = Fp2Elem(c0, c1, ctx)
                if x.is_zero():
                    continue
                assert mult_order(x) == brute_order(x), (p, c0, c1)


def test_mult_order_sampled_larger_primes():
    field = FieldContext(5)
    for p in (37, 43, 47):
        ctx = Fp2Context.for_prime(p, field)
        rng = random.Random(p)
        for _ in range(60):
            x = Fp2Elem(rng.randrange(p), rng.randrange(p), ctx)
            if x.is_zero():
                continue
            n = mult_order(x)
            assert (x**n).is_one()
            for q in set(factorize(n).primes):
                assert not (x ** (n // q)).is_one(), (p, x, n, q)


def test_order_divides_group_order():
    field = FieldContext(13)
    for p in inert_primes_under(13, 300):
        ctx = Fp2Context.for_prime(p, field)
        rng = random.Random(p)
        for _ in range(20):
            x = Fp2Elem(rng.randrange(p), rng.randrange(p), ctx)
            if x.is_zero():
                continue
            assert (p * p - 1) % mult_order(x) == 0


# ---------------------------------------------------------------------------
# order records

def test_order_record_example_3_plus_sqrt5(c7):
    rec = order_record(FieldContext(5).integer(3, 1), c7)
    assert rec.ord_n == 3
    assert 8 % rec.ord_m == 0
    assert (2 * rec.ord_alpha) % (rec.ord_m * rec.ord_n) == 0
    # brute force over the 48 powers
    a = Fp2Elem(3, 1, c7)
    assert rec.ord_alpha == brute_order(a)
    m = frobenius(a) * a.inverse()
    assert rec.ord_m == brute_order(m)


def test_order_record_rational_element(c7):
    # norm of a rational element is its square, so ord_n is ord_alpha with
    # any factor 2 removed; ord_m collapses to 1
    rec = order_record(FieldContext(5).integer(3, 0), c7)
    assert rec.ord_m == 1
    assert rec.ord_alpha % rec.ord_n == 0
    assert (2 * rec.ord_n) % rec.ord_alpha == 0
    assert (rec.ord_alpha, rec.ord_n) == (6, 3)  # 3 has order 6 mod 7, 9 = 2 has order 3


def test_order_record_sqrt_delta_case():
    ctx3 = Fp2Context.for_prime(3, FieldContext(2))
    rec = order_record(FieldContext(2).integer(0, 1), ctx3)
    assert rec.ord_alpha == 4
    assert rec.ord_n == 1  # norm is -2 = 1 mod 3


def test_order_record_rejects_bad_input(c7):
    f5 = FieldContext(5)
    # for an inert prime, zero norm mod p happens only at zero reduction
    with pytest.raises(ValueError):
        order_record(f5.integer(7, 7), c7)
    with pytest.raises(ValueError):
        order_record(f5.integer(14, 0), c7)
    from fractions import Fraction

    with pytest.raises(ValueError):
        order_record(f5.element(Fraction(1, 2), 1), c7)


def test_order_record_attained_flag():
    field = FieldContext(5)
    for p in (7, 13, 17, 23):
        ctx = Fp2Context.for_prime(p, field)
        rng = random.Random(p + 1)
        for _ in range(30):
            a = field.integer(rng.randrange(-50, 51), rng.randrange(-50, 51))
            c0, c1 = int(a.x) % p, int(a.y) % p
            if (c0 * c0 - ctx.delta_mod_p * c1 * c1) % p == 0:
                continue
            rec = order_record(a, ctx)
            assert rec.attained == (24 * rec.ord_alpha >= p * p - 1)


def test_order_record_invariant_cases():
    # good record passes
    OrderRecord(7, 48, 6, 8, True)
    # ord_alpha must divide p^2 - 1
    with pytest.raises(ValueError):
        OrderRecord(7, 5, 1, 1, False)
    # chain violation: ord_m * ord_n = 36 does not divide 2 * 8 = 16
    with pytest.raises(ValueError):
        OrderRecord(7, 8, 6, 6, False)
    # attained flag must match the threshold comparison
    with pytest.raises(ValueError):
        OrderRecord(7, 48, 6, 8, False)


# ---------------------------------------------------------------------------
# derived order against the full p^2 - 1 descent

def derived_branch(field, ctx, c0, c1):
    """Check order_record's derived ord_alpha against mult_order and return
    ord_alpha / lcm(ord_n, ord_m), which must be 1 or 2."""
    rec = order_record(field.integer(c0, c1), ctx)
    assert rec.ord_alpha == mult_order(Fp2Elem(c0, c1, ctx)), (field.delta, ctx.p, c0, c1)
    return rec.ord_alpha // math.lcm(rec.ord_n, rec.ord_m)


def test_derived_order_exhaustive_small_primes():
    branches = Counter()
    for delta in (2, 3, 5, 13):
        field = FieldContext(delta)
        for p in inert_primes_under(delta, 60):
            ctx = Fp2Context.for_prime(p, field)
            for c0 in range(p):
                for c1 in range(p):
                    if c0 or c1:
                        branches[derived_branch(field, ctx, c0, c1)] += 1
    assert sum(branches.values()) == 39400  # every unit of every such F_p^2
    assert set(branches) == {1, 2}  # both ord = L and ord = 2L occur


def test_derived_order_sampled_larger_primes():
    rng = random.Random(2005)
    branches = Counter()
    for delta in (2, 3, 5, 13):
        field = FieldContext(delta)
        primes = []
        while len(primes) < 12:
            p = rng.randrange(10**3, 10**12) | 1
            while not is_prime(p) or jacobi(delta, p) != -1:
                p += 2
            primes.append(p)
        for p in primes:
            ctx = Fp2Context.for_prime(p, field)
            for _ in range(15):
                c0, c1 = rng.randrange(p), rng.randrange(1, p)
                branches[derived_branch(field, ctx, c0, c1)] += 1
    assert set(branches) == {1, 2}


def test_order_record_broken_chain_raises(monkeypatch):
    # an understated ord_n makes L too small: alpha^(2L) != 1
    monkeypatch.setattr(oracles, "_order_mod_p", lambda a, n, qs, p: 1)
    with pytest.raises(OrderChainError):
        order_record(FieldContext(5).integer(3, 2), Fp2Context.for_prime(7, FieldContext(5)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_pow_raw_is_repeated_mul_raw(data):
    delta = data.draw(st.sampled_from([2, 3, 5, 13]))
    p = data.draw(st.sampled_from(inert_primes_under(delta, 10**4)))
    c0, c1 = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    e = data.draw(st.integers(0, 300))
    d = delta % p
    acc = (1, 0)
    for _ in range(e):
        acc = _mul_raw(*acc, c0, c1, p, d)
    assert _pow_raw(c0, c1, e, p, d) == acc


# inert primes for delta = 5 past 2**31, where the scan runs the kernel on
# Python ints
BIG_INERT = [2147483693, 2147483713]


@pytest.mark.parametrize(
    "module, target, primes",
    [
        pytest.param(experiments, "sieve_rows", [7, 13], id="sieve_rows"),
        pytest.param(experiments, "sieve_rows", BIG_INERT, id="sieve_rows_object"),
        pytest.param(fp2, "_orders", [7, 13], id="_orders_int64"),
        pytest.param(fp2, "_orders", BIG_INERT, id="_orders_object"),
    ],
)
def test_kernel_value_error_is_not_a_skipped_prime(monkeypatch, module, target, primes):
    # a fault while factoring p -+ 1 or computing an order propagates, on
    # int64 blocks and on Python-int blocks alike
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(module, target, boom)
    with pytest.raises(ValueError, match="boom"):
        order_scan(AlphaFamily.from_coords(5, [(2, 1)]), [primes], [])


# ---------------------------------------------------------------------------
# array kernel

def _primes_below(n: int, count: int):
    out = []
    while len(out) < count:
        n -= 1
        if is_prime(n):
            out.append(n)
    return out


# the largest primes the int64 kernel takes, and small ones; int64 moduli
# past 2**31, which the ladder takes through Python ints; and moduli past
# 2**63, which only Python ints hold
LADDER_PRIMES = [3, 5, 7, 13] + _primes_below(2**31, 4)
WIDE_LADDER_PRIMES = [2**31 + 11, 2**40 + 15] + _primes_below(2**63, 2)
BIG_LADDER_PRIMES = _primes_below(2**64, 3) + [2**89 - 1, 2**127 - 1]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_lucas_v_is_trace_of_pow_raw(data):
    # V_k(P) = a^k + conj(a)^k for a = (P + s)/2 in F_p[s]/(s^2 - (P^2 -
    # 4)), whose trace is P and norm 1: the ladder against twice the first
    # coordinate of the exact Python-int power, several rows at once.
    # int64 rows have p below 2**63 and exponents up to 2**62, and come
    # back in int64; Python-int rows add primes past 2**63 and exponents up
    # to 2**130
    big = data.draw(st.booleans())
    prime = st.sampled_from(LADDER_PRIMES + WIDE_LADDER_PRIMES) | st.integers(3, 2**63 - 1).map(
        lambda t: next(q for q in range(t, 1, -1) if is_prime(q)))
    if big:
        prime |= st.sampled_from(BIG_LADDER_PRIMES)
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        p = data.draw(prime)
        P = data.draw(st.integers(0, p - 1))
        rows.append((P, data.draw(st.integers(0, 2**130 if big else 2**62)), p))
    P, k, p = (np.array(t, dtype=object if big else np.int64) for t in zip(*rows))
    got = fp2.lucas_v(P, k, p)
    assert got.dtype == p.dtype
    want = []
    for P, k, p in rows:
        half = (p + 1) // 2
        want.append(2 * _pow_raw(P * half % p, half, k, p, (P * P - 4) % p)[0] % p)
    assert got.tolist() == want


def test_alpha_l_branches_on_the_pinned_delta5_scan():
    # the scan test_cli pins as delta5: every even L = lcm(ord_N, ord_M)
    # has ord_alpha = 2L, and an odd L takes both branches, ord_alpha = L
    # and 2L
    family = AlphaFamily.from_coords(5, [(2, 1), (1, 1), (3, 2)])
    blocks, _, _ = scan_blocks(family, inert_primes_under(5, 20000))
    branches = Counter()
    for b in blocks:
        lcm = np.lcm(b.ord_n, b.ord_m)
        branches.update(zip((lcm % 2).ravel().tolist(), (b.ord_alpha // lcm).ravel().tolist()))
    assert branches == {(0, 2): 2855, (1, 1): 287, (1, 2): 272}


def _member_block(primes, members, dtype):
    """(c0, c1, p, d) for delta = 5, every member at every prime, stacked
    member by member, as arrays of dtype."""
    rows = [(x % q, y % q, q, 5 % q) for x, y in members for q in primes]
    return tuple(np.array(t, dtype=dtype) for t in zip(*rows))


def _alpha_l_run(monkeypatch, c0, c1, p, d):
    """order_arrays twice, the second time with _orders returning the first
    run's orders, so that every lucas_v call of the second run is the
    alpha^L test's.  Returns the orders and those calls as (args, value)."""
    minus, plus = trial_rows(p - 1), trial_rows(p + 1)
    first = fp2.order_arrays(c0, c1, p, d, minus, plus)
    monkeypatch.setattr(fp2, "_orders", lambda g, p, n, rows, torus=False, cap=None: (
        first[2] if torus else first[1]))
    calls, lucas_v = [], fp2.lucas_v

    def spy(*args):
        calls.append((args, lucas_v(*args)))
        return calls[-1][1]

    monkeypatch.setattr(fp2, "lucas_v", spy)
    second = fp2.order_arrays(c0, c1, p, d, minus, plus)
    assert [x.tolist() for x in second] == [x.tolist() for x in first]
    return first, calls


@pytest.mark.parametrize("primes, members, dtype", [
    pytest.param(inert_primes_under(5, 20000), [(2, 1), (1, 1), (3, 2)], np.int64,
                 id="delta5_scan"),
    pytest.param(BIG_INERT, [(2, 1), (1, 1), (3, 2), (4, 1), (7, 2)], object,
                 id="big_inert"),
])
def test_alpha_l_is_one_torus_ladder(monkeypatch, primes, members, dtype):
    # odd and even L alike take one lucas_v call at Q = 1 outside _orders;
    # on odd L it is V_(L mod (p+1))(tau) for beta = alpha/N^((L+1)/2),
    # which equals alpha's own trace V_L(2 c0, N), and ord_alpha is
    # order_record's
    c0, c1, p, d = _member_block(primes, members, dtype)
    (ord_alpha, ord_n, ord_m, _, chain_ok), calls = _alpha_l_run(monkeypatch, c0, c1, p, d)
    assert len(calls) == 1
    (_, k, _), v = calls[0]
    lcm = np.lcm(ord_n, ord_m)
    odd = np.flatnonzero(lcm % 2 == 1)
    assert chain_ok.all()
    # 287 + 272 odd-L pairs in the pinned scan above
    assert odd.size == (559 if dtype is np.int64 else 3)
    assert (lcm % 2 == 0).any()
    assert (ord_alpha[odd] == lcm[odd]).any() and (ord_alpha[odd] == 2 * lcm[odd]).any()
    field = FieldContext(5)
    for j in odd.tolist():
        q, L = int(p[j]), int(lcm[j])
        assert int(k[j]) == L % (q + 1)
        assert int(v[j]) == 2 * _pow_raw(int(c0[j]), int(c1[j]), L, q, 5 % q)[0] % q
        a = field.integer(*members[j // len(primes)])
        assert int(ord_alpha[j]) == order_record(a, Fp2Context.for_prime(q, field)).ord_alpha


@pytest.mark.parametrize("primes, members, dtype", [
    pytest.param(inert_primes_under(5, 2000), [(2, 1), (1, 1), (3, 2)], np.int64, id="int64"),
    pytest.param(BIG_INERT, [(1, 1), (7, 2)], object, id="object"),
])
def test_order_arrays_odd_l_broken_chain(monkeypatch, primes, members, dtype):
    # an understated ord_N = 1 leaves L = ord_M; where that is odd and
    # N^L != 1, the alpha^L test must fail, though every divisibility of
    # the chain holds
    c0, c1, p, d = _member_block(primes, members, dtype)
    minus, plus = trial_rows(p - 1), trial_rows(p + 1)
    _, ord_n, ord_m, _, _ = fp2.order_arrays(c0, c1, p, d, minus, plus)
    bad = np.flatnonzero((ord_m % 2 == 1) & (ord_m % ord_n != 0))
    assert bad.size
    orders = fp2._orders
    monkeypatch.setattr(fp2, "_orders", lambda g, p, n, rows, torus=False, cap=None: (
        orders(g, p, n, rows, torus, cap) if torus else np.ones_like(n)))
    *_, chain_ok = fp2.order_arrays(c0, c1, p, d, minus, plus)
    assert not chain_ok[bad].any()


def test_order_arrays_rejects_norm_divisible_by_p():
    # 7 + 7 sqrt(5) reduces to 0 mod 7, which has no order
    p = np.array([13, 7])
    c = 7 % p
    with pytest.raises(ValueError, match="p = 7"):
        fp2.order_arrays(c, c, p, 5 % p, trial_rows(p - 1), trial_rows(p + 1))


def test_order_arrays_int64_past_2_31_gives_the_object_orders():
    # the int64 ladders would wrap at these primes: int64 input goes through
    # exact_ints onto Python ints, and gives the object input's orders,
    # which are order_record's
    field = FieldContext(5)
    a = field.integer(3, 2)
    p = np.array(BIG_INERT, dtype=np.int64)
    c0, c1, d = (np.array([t % q for q in BIG_INERT], dtype=np.int64) for t in (3, 2, 5))
    want = [order_record(a, Fp2Context.for_prime(q, field)) for q in BIG_INERT]
    for dtype in (np.int64, object):
        ord_alpha, ord_n, ord_m, attained, chain_ok = fp2.order_arrays(
            *(x.astype(dtype) for x in (c0, c1, p, d)), trial_rows(p - 1), trial_rows(p + 1))
        assert ord_alpha.dtype == object
        assert list(zip(ord_alpha.tolist(), ord_n.tolist(), ord_m.tolist(),
                        attained.tolist())) == [
            (r.ord_alpha, r.ord_n, r.ord_m, r.attained) for r in want]
        assert chain_ok.all()


@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
def test_order_arrays_descent_overrun_raises(monkeypatch, dtype):
    # A power map that claims every g^((p-1)/q) is 1 and then never lets
    # the descent of ord_N reach 1: order_arrays must raise, not return an
    # order, on int64 blocks and on Python-int blocks alike.  The fill test
    # is the one power whose exponent is (p-1)/q for a prime q; every other
    # power returns 2.  Each p - 1 has a row with e > 1, so a descent runs.
    def broken(base, exp, mod):
        exp, mod = np.broadcast_arrays(exp, mod)[:2]
        fill_test = [(m - 1) % k == 0 and is_prime((m - 1) // k)
                     for k, m in zip(exp.ravel().tolist(), mod.ravel().tolist())]
        return np.where(fill_test, 1, 2).astype(mod.dtype).reshape(mod.shape)

    monkeypatch.setattr(fp2, "powmod", broken)
    p = np.array([13, 17] if dtype is np.int64 else BIG_INERT, dtype=dtype)
    c0, c1, d = (np.array([t % q for q in p.tolist()], dtype=dtype) for t in (2, 1, 5))
    with pytest.raises(ArithmeticError, match="exceeds"):
        fp2.order_arrays(c0, c1, p, d, *(sieve_rows((p + s).astype(np.int64)) for s in (-1, 1)))
