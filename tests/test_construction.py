"""Seed primes and the congruence class u (mod v) they generate."""

import math

import pytest

from quadartin.arith import is_prime, jacobi, padic_valuation, primes_up_to
from quadartin.construction import (
    Congruence,
    InvariantError,
    SeedNotFoundError,
    SeedPrime,
    SquareHypothesisWarning,
    build_congruence,
    check_class_symbols,
    find_p0,
    residue_for_16_and_9,
    residue_for_odd_prime,
    verify_congruence,
)

# (a, delta) -> hand-checked seed and class; used as regression anchors
KNOWN = {
    (-4, 5): (7, 547, 720),
    (-1, 5): (7, 547, 720),
    (-11, 5): (7, 1987, 7920),
    (11, 5): (23, 6323, 7920),
    (-12, 13): (47, 515, 1872),
    (-1, 2): (43, 43, 144),
}


# ---------------------------------------------------------------------------
# seed search

def test_find_p0_example():
    s = find_p0(-4, 5)
    assert s.p0 == 7
    for val in (-1, 5, -4, 5):
        assert jacobi(val, s.p0) == -1
    assert s.symbols == {"-1": -1, "5": -1, "a": -1, "delta": -1}


def test_find_p0_square_a_not_found():
    with pytest.warns(SquareHypothesisWarning):
        with pytest.raises(SeedNotFoundError):
            find_p0(1, 5, 10**4)


def test_find_p0_returns_three_mod_four():
    for a in (-1, -4, 3, 7, -11):
        for delta in (2, 5, 13):
            try:
                s = find_p0(a, delta, 10**4)
            except SeedNotFoundError:
                continue
            assert s.p0 % 4 == 3, (a, delta)  # forced by (-1|p) = -1


def test_find_p0_is_least_qualifying_prime():
    s = find_p0(-11, 5)
    for p in primes_up_to(s.p0 - 1):
        if p == 2 or (30 * -11 * 5) % p == 0:
            continue
        symbols = [jacobi(v, p) for v in (-1, 5, -11, 5)]
        assert symbols != [-1, -1, -1, -1], p


def test_find_p0_rejects_zero_inputs():
    with pytest.raises(ValueError):
        find_p0(0, 5)
    with pytest.raises(ValueError):
        find_p0(3, 0)


def test_seed_prime_revalidates():
    with pytest.raises(InvariantError):
        SeedPrime(6, -4, 5)  # not prime
    with pytest.raises(InvariantError):
        SeedPrime(5, -4, 5)  # divides 30*a*delta
    with pytest.raises(InvariantError):
        SeedPrime(11, -4, 5)  # (5|11) = +1


# ---------------------------------------------------------------------------
# residue selection

def test_u2_u3_class_enumerations():
    # the qualifying classes mod 16 and mod 9, by direct enumeration
    u2s = {r for r in range(16) if r % 2 and (r * r - 1) % 16 == 8}
    u3s = {
        r
        for r in range(2, 9)
        if r % 3 and padic_valuation(r * r - 1, 3) == 1
    }
    assert u2s == {3, 5, 11, 13}
    assert u3s == {2, 4, 5, 7}


def test_residue_16_9_keeps_qualifying_seed():
    # 67 = 3 mod 16 already qualifies; 67 = 4 mod 9 already qualifies
    u2, u3 = residue_for_16_and_9(67)
    assert (u2, u3) == (3, 4)


def test_residue_16_9_adjusts_within_symbol_class():
    # 7 = 7 mod 16 does not qualify; replacement keeps p mod 4
    u2, u3 = residue_for_16_and_9(7)
    assert u2 % 4 == 3 and (u2 * u2 - 1) % 16 == 8
    assert u3 % 3 == 1 and padic_valuation(u3 * u3 - 1, 3) == 1
    assert (u2, u3) == (3, 7)


def test_residue_16_9_valuations_hold_on_whole_class():
    for seed in (7, 23, 43, 47, 67, 139):
        u2, u3 = residue_for_16_and_9(seed)
        for k in range(20):
            m = u2 + 16 * k
            assert padic_valuation(m * m - 1, 2) == 3, (seed, m)
            m = u3 + 9 * k
            if m % 3:
                assert padic_valuation(m * m - 1, 3) == 1, (seed, m)


def test_residue_16_9_rejects_bad_seed():
    with pytest.raises(ValueError):
        residue_for_16_and_9(15)  # divisible by 3
    with pytest.raises(ValueError):
        residue_for_16_and_9(8)


def test_residue_odd_prime_example():
    # 7 divides 13^2 - 1 = 168, so the 9*p0 branch fires: 117 = 5 mod 7
    assert residue_for_odd_prime(7, 13) == 5
    assert (5 * 5 - 1) % 7 != 0


def test_residue_odd_prime_direct_branch():
    # 7 does not divide 11^2 - 1 = 120
    assert residue_for_odd_prime(7, 11) == 11 % 7


def test_residue_odd_prime_never_divides():
    # either a residue with l never dividing p^2 - 1 comes back, or both
    # branches genuinely fail (possible only for seeds a real search
    # would never emit, e.g. 5 | p0^2 - 1 despite (5|p0) = -1 being required)
    for l in (5, 7, 11, 13, 17, 19, 23):
        for p0 in primes_up_to(200):
            if p0 <= 3 or p0 % l == 0:
                continue
            try:
                u = residue_for_odd_prime(l, p0)
            except ValueError:
                assert (p0 * p0 - 1) % l == 0
                assert (81 * p0 * p0 - 1) % l == 0
                continue
            assert (u * u - 1) % l != 0, (l, p0)


def test_residue_odd_prime_rejects_bad_l():
    with pytest.raises(ValueError):
        residue_for_odd_prime(3, 7)
    with pytest.raises(ValueError):
        residue_for_odd_prime(9, 7)
    with pytest.raises(ValueError):
        residue_for_odd_prime(7, 7)


# ---------------------------------------------------------------------------
# the assembled class

def test_build_congruence_known_instances():
    for (a, delta), (p0, u, v) in KNOWN.items():
        s = find_p0(a, delta, 1000)
        assert s.p0 == p0, (a, delta)
        c = build_congruence(s)
        assert (c.u, c.v) == (u, v), (a, delta)


def test_congruence_class_invariants():
    for (a, delta) in KNOWN:
        c = build_congruence(find_p0(a, delta, 1000))
        assert math.gcd(c.u, c.v) == 1
        assert math.gcd((c.u * c.u - 1) // 24, c.v) == 1
        assert c.v % 144 == 0
        odd = [m for m in c.residues if m not in (16, 9)]
        assert c.v == 144 * math.prod(odd)
        for m in odd:
            assert m > 3 and is_prime(m)


def test_no_odd_primes_gives_v_144():
    # a*delta = -2: only 2 in the support, so v = 144 exactly
    c = build_congruence(find_p0(-1, 2, 1000))
    assert c.v == 144
    assert set(c.residues) == {16, 9}


def test_congruence_tamper_detection():
    c = build_congruence(find_p0(-4, 5, 1000))
    with pytest.raises(InvariantError):
        Congruence(c.u + 1, c.v, c.residues, c.seed)
    with pytest.raises(InvariantError):
        Congruence(c.u, c.v * 7, c.residues, c.seed)
    bad = dict(c.residues)
    bad[25] = 2
    with pytest.raises(InvariantError):
        Congruence(c.u, c.v, bad, c.seed)


# ---------------------------------------------------------------------------
# verification over the class

def test_verify_congruence_clean_to_1e4():
    for (a, delta) in KNOWN:
        c = build_congruence(find_p0(a, delta, 1000))
        rep = verify_congruence(c, 10**4)
        assert rep.ok, (a, delta, rep.failures[:3])
        assert rep.checked > 0
        assert rep.bound == 10**4


def test_verify_congruence_checks_match_direct_recount():
    c = build_congruence(find_p0(-4, 5, 1000))
    rep = verify_congruence(c, 10**4)
    direct = [p for p in primes_up_to(10**4) if p % c.v == c.u]
    assert rep.checked == len(direct)
    for p in direct:
        assert jacobi(delta_of(c), p) == -1
        assert padic_valuation(p * p - 1, 2) == 3
        assert padic_valuation(p * p - 1, 3) == 1


def delta_of(c):
    return c.seed.delta


def test_verify_congruence_histograms():
    c = build_congruence(find_p0(-4, 5, 1000))
    rep = verify_congruence(c, 10**5)
    # v2(p-1) + v2(p+1) = 3 split as 1+2 or 2+1
    assert set(rep.v2_minus) <= {1, 2}
    assert set(rep.v2_plus) <= {1, 2}
    assert sum(rep.v2_minus.values()) == rep.checked
    assert sum(rep.v2_plus.values()) == rep.checked


def test_verify_congruence_flags_wrong_class():
    # a class built by hand that violates the valuation condition:
    # u = 1 mod 16 gives v2(u^2-1) >= 4; the Congruence type itself
    # must refuse it
    s = find_p0(-4, 5, 1000)
    with pytest.raises(InvariantError):
        Congruence(289, 720, {16: 1, 9: 1, 5: 4}, s)


@pytest.mark.filterwarnings("ignore::quadartin.construction.SquareHypothesisWarning")
def test_class_symbols_decide_the_whole_class():
    # (a|u) and (delta|u) flag exactly the classes on which verification finds
    # a symbol failure; a = -2, 6, -6, 10 with delta = 5 are among them.
    flagged = set()
    for delta in (2, 3, 5, 6, 7):
        for a in [t for t in range(-12, 13) if t]:
            try:
                c = build_congruence(find_p0(a, delta))
            except SeedNotFoundError:
                continue
            report = verify_congruence(c, 10**6)
            assert report.checked > 0
            broken = any("square" in why for _, why in report.failures)
            try:
                check_class_symbols(c)
            except InvariantError:
                flagged.add((a, delta))
                assert broken, (a, delta)
            else:
                assert not broken, (a, delta)
    assert {(-2, 5), (6, 5), (-6, 5), (10, 5)} <= flagged
