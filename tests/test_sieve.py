"""Sieve bookkeeping over A = {p^2 - 1}: densities, counts, bounds."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from quadartin.arith import is_prime, li, primes_up_to, totient
from quadartin.sieve import (
    T0_THRESHOLD,
    SieveConfig,
    count_Ad,
    count_Ad_by_classes,
    mertens_check,
    omega,
    product_lower,
    remainder_sum,
    rho,
    sieve_bound_report,
    sieving_limit,
    survivor_count,
    unit_square_roots,
)


def brute_rho(d):
    m = np.arange(1, d + 1, dtype=np.int64)
    return int(np.count_nonzero(((m * m - 1) % d == 0) & (np.gcd(m, d) == 1)))


# ---------------------------------------------------------------------------
# rho and friends

def test_rho_examples():
    assert rho(1) == 1
    for q in (2, 3, 5, 7, 101, 999983):
        assert rho(q) == 2 if q > 2 else rho(q) == 1
    assert rho(15) == 4
    assert unit_square_roots(15) == [1, 4, 11, 14]


def test_rho_prime_is_two():
    for q in primes_up_to(500):
        if q > 2:
            assert rho(q) == 2, q


def test_rho_vs_enumeration():
    for d in range(1, 400):
        assert rho(d) == brute_rho(d), d


def test_rho_closed_form_branch_matches_enumeration():
    # inputs beyond the enumeration cutoff take the factorization route
    for d in (10**6 + 3, 10**6 + 33, 2**21, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23,
              2**4 * 3 * 5 * 7 * 11 * 13 * 17):
        assert d > 10**6
        assert rho(d) == brute_rho(d), d


def test_rho_multiplicative_sampled():
    rng = random.Random(3)
    for _ in range(300):
        d1 = rng.randrange(1, 100)
        d2 = rng.randrange(1, 100)
        if math.gcd(d1, d2) == 1:
            assert rho(d1 * d2) == rho(d1) * rho(d2), (d1, d2)


def test_unit_square_roots_are_roots():
    for d in (1, 2, 8, 15, 24, 48, 105):
        roots = unit_square_roots(d)
        assert len(roots) == rho(d)
        for m in roots:
            assert (m * m - 1) % d == 0 and math.gcd(m, d) == 1


def test_omega_values():
    assert omega(1) == 1
    assert omega(5) == Fraction(5, 2)
    assert omega(15) == Fraction(15, 2)
    with pytest.raises(ValueError):
        omega(12)


# ---------------------------------------------------------------------------
# config

def test_sieving_limit():
    assert sieving_limit(10**6) == 6
    assert sieving_limit(10**6, 0.1) == math.floor(10 ** (6 * 0.225))
    for x in (100, 10**4, 10**8):
        assert sieving_limit(x) == math.floor(x ** 0.135)


def test_config_validation():
    SieveConfig(1000, 1, 4, 6)
    with pytest.raises(ValueError):
        SieveConfig(1000, 1, 4, 1)  # z < 2
    with pytest.raises(ValueError):
        SieveConfig(1000, 1, 4, 2000)  # z > x
    with pytest.raises(ValueError):
        SieveConfig(1000, 2, 4, 6)  # shared factor
    with pytest.raises(ValueError):
        SieveConfig(1000, 1, 4, 6, delta1=0.2)


def test_big_x():
    cfg = SieveConfig(10**5, 1, 4, 6)
    assert cfg.big_x == pytest.approx(li(10**5) / 2, rel=1e-12)
    assert cfg.big_x == pytest.approx(4814.381918635465, abs=1e-6)


# ---------------------------------------------------------------------------
# |A_d| two ways

def test_count_Ad_d1_is_progression_count():
    cfg = SieveConfig(10**4, 1, 4, 6)
    row = count_Ad(cfg, 1)
    direct = sum(1 for p in primes_up_to(10**4) if p % 4 == 1)
    assert row.d == 1 and row.rho_d == 1
    assert row.count == direct
    assert row.main == pytest.approx(cfg.big_x, rel=1e-12)
    assert row.remainder == pytest.approx(row.count - cfg.big_x, rel=1e-12)


def test_count_Ad_frozen_value():
    cfg = SieveConfig(10**5, 1, 4, 6)
    assert count_Ad(cfg, 15).count == 2371
    assert count_Ad(cfg, 1).count == 4783


def test_count_Ad_rejects_bad_d():
    cfg = SieveConfig(1000, 1, 4, 6)
    with pytest.raises(ValueError):
        count_Ad(cfg, 12)  # not squarefree
    with pytest.raises(ValueError):
        count_Ad(cfg, 6)  # shares 2 with v
    with pytest.raises(ValueError):
        count_Ad_by_classes(cfg, 6)


def test_count_Ad_cross_check_small():
    cfg = SieveConfig(10**4, 1, 4, 6)
    for d in range(1, 31):
        if math.gcd(d, 4) != 1:
            continue
        from quadartin.arith import factorize

        if not factorize(d).is_squarefree:
            continue
        assert count_Ad(cfg, d).count == count_Ad_by_classes(cfg, d), d


def test_count_Ad_exact_past_int64_square():
    # p * p - 1 wraps int64 for p > 3.04e9; inject such class primes through
    # the cached property and count with Python ints instead.
    cfg = SieveConfig(10**4, 1, 4, 6)
    ps = [p for p in range(4 * 10**9 + 1, 4 * 10**9 + 2 * 10**4, 4) if is_prime(p)]
    cfg.__dict__["class_primes"] = np.array(ps, dtype=np.int64)
    for d in (1, 3, 5, 7, 15, 105, 1155, 15015):
        assert count_Ad(cfg, d).count == sum((p * p - 1) % d == 0 for p in ps), d


def test_count_Ad_main_uses_rho_over_phi():
    cfg = SieveConfig(10**4, 1, 4, 6)
    row = count_Ad(cfg, 15)
    assert row.main == pytest.approx(4 / totient(15) * cfg.big_x, rel=1e-12)


# ---------------------------------------------------------------------------
# mertens / product

def test_mertens_empty_range_is_zero():
    assert mertens_check(100, 100) == 0.0
    assert mertens_check(2, 2) == 0.0


def test_mertens_telescoping():
    for (w, y, z) in [(2, 100, 10**4), (10, 1000, 10**5), (100, 313, 40000)]:
        lhs = mertens_check(w, z)
        rhs = mertens_check(w, y) + mertens_check(y, z)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_mertens_frozen_values():
    assert mertens_check(100, 10**4) == pytest.approx(-0.14786676203408256, abs=1e-12)
    assert mertens_check(2, 10**4, 720) == pytest.approx(-3.031750424744672, abs=1e-12)


def test_mertens_excludes_divisors_of_v():
    # removing q = 2, 3, 5 by hand must agree with the v filter
    byhand = mertens_check(2, 1000) - sum(
        2 * math.log(q) / (q - 1) for q in (2, 3, 5)
    )
    assert mertens_check(2, 1000, 30) == pytest.approx(byhand, abs=1e-12)


def test_mertens_rejects_bad_range():
    with pytest.raises(ValueError):
        mertens_check(10, 5)
    with pytest.raises(ValueError):
        mertens_check(1, 10)


def test_product_lower_empty():
    pb = product_lower(5)
    assert pb.product == 1.0
    assert pb.ratio == pytest.approx(math.log(5) ** 2)


def test_product_lower_factors_positive_and_match_brute():
    pb = product_lower(100, 720)
    brute = 1.0
    for q in primes_up_to(99):
        if q > 3 and 720 % q != 0:
            f = 1.0 - 2.0 / (q - 1)
            assert f > 0
            brute *= f
    assert pb.product == pytest.approx(brute, rel=1e-12)


def test_product_lower_frozen_ratio():
    pb = product_lower(1000, 720)
    assert pb.ratio == pytest.approx(3.577643244617208, abs=1e-9)


def test_eq81_inequality_sampled():
    # 0 <= 2/(q-1) <= 1/2 for prime q > 3 (full range in the acceptance run)
    for q in primes_up_to(10**4):
        if q > 3:
            t = 2.0 / (q - 1)
            assert 0 <= t <= 0.5, q


# ---------------------------------------------------------------------------
# remainder sum / survivors / report

def test_remainder_sum_single_term_case():
    cfg = SieveConfig(1000, 1, 4, 6)
    rs = remainder_sum(cfg)
    assert rs.d_bound == 1 and rs.terms == 1
    row = count_Ad(cfg, 1)
    assert rs.total == pytest.approx(abs(row.remainder), rel=1e-12)
    assert rs.total >= 0
    assert rs.within == (rs.total <= rs.ceiling)


def test_remainder_sum_skips_bad_d():
    cfg = SieveConfig(10**5, 3, 8, 6)
    rs = remainder_sum(cfg)
    # d runs over squarefree values coprime to 8 only
    assert rs.terms <= rs.d_bound
    assert rs.total >= 0


def test_survivors_all_at_z2():
    cfg = SieveConfig(10**4, 1, 4, 2)
    assert survivor_count(cfg) == count_Ad(cfg, 1).count


def test_survivors_monotone_in_z():
    prev = None
    for z in (2, 4, 6, 10, 20):
        cfg = SieveConfig(10**4, 1, 4, z)
        n = survivor_count(cfg)
        if prev is not None:
            assert n <= prev, z
        prev = n


def test_survivors_respect_v_exclusion():
    # primes dividing v are not sieved out: with v = 720 every small prime
    # divides v, so sieving below 7 removes nothing
    cfg = SieveConfig(10**5, 547, 720, 6)
    assert survivor_count(cfg) == count_Ad(cfg, 1).count


def test_report_threshold_classification():
    cfg = SieveConfig(10**6, 547, 720, 6)
    rep = sieve_bound_report(cfg)
    assert rep.threshold == pytest.approx(
        math.log(cfg.big_x) / (2 * math.log(6)), rel=1e-12
    )
    assert rep.threshold_ok == (rep.threshold > T0_THRESHOLD)
    assert T0_THRESHOLD == 4.42
    assert rep.survivors == survivor_count(cfg)
    assert len(rep.notes) > 0


def test_report_main_term_positive_with_v_covering_2_and_3():
    cfg = SieveConfig(10**5, 547, 720 * 7, 1000)
    rep = sieve_bound_report(cfg)
    assert rep.main_term > 0


def test_report_threshold_matches_exponent_algebra():
    # the exact identity: z = X^(1/8 + delta) gives log X / (2 log z)
    # = 1/(2*(1/8 + delta)), always below 4.42
    for delta in (0.01, 0.05, 0.1):
        t = 1 / (2 * (0.125 + delta))
        X = 39313.0
        assert math.log(X) / (2 * math.log(X ** (0.125 + delta))) == pytest.approx(
            t, rel=1e-12
        )
        assert t < T0_THRESHOLD

    # and through the report, with z floored to an int (v = 4 keeps X large
    # enough that the floor only nudges the ratio)
    delta = 0.01
    X = SieveConfig(10**6, 1, 4, 2).big_x
    z = int(X ** (0.125 + delta))
    rep = sieve_bound_report(SieveConfig(10**6, 1, 4, z, delta1=delta))
    assert rep.threshold == pytest.approx(1 / (2 * (0.125 + delta)), rel=0.05)
    assert not rep.threshold_ok  # 4/(1 + 8*delta) < 4.42 always
