"""Exact quadratic field arithmetic: conjugates, norms, M-ratios, inertness."""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadartin.quadfield import (
    FieldContext,
    QuadElem,
    SquarefreeReductionWarning,
    conjugate,
    m_ratio,
    norm,
    square_guard,
    squarefree_kernel,
)

from oracles import is_inert, is_rational


def brute_kernel(n):
    # smallest k (in absolute value, same sign) with n/k a perfect square
    sign = -1 if n < 0 else 1
    n = abs(n)
    k = n
    for d in range(1, int(n**0.5) + 1):
        if n % (d * d) == 0:
            k = n // (d * d)
    return sign * k


# ---------------------------------------------------------------------------
# field context

def test_squarefree_kernel_values():
    assert squarefree_kernel(1) == 1
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(50) == 2
    assert squarefree_kernel(5) == 5
    assert squarefree_kernel(-12) == -3
    for n in range(1, 2000):
        assert squarefree_kernel(n) == brute_kernel(n), n


def test_context_accepts_squarefree():
    for d in (2, 3, 5, 7, 13, 21):
        assert FieldContext(d).delta == d


def test_context_reduces_with_warning():
    with pytest.warns(SquarefreeReductionWarning):
        ctx = FieldContext(12)
    assert ctx.delta == 3
    with pytest.warns(SquarefreeReductionWarning):
        assert FieldContext(50).delta == 2


def test_context_rejects_degenerate():
    for d in (1, 0, -5):
        with pytest.raises(ValueError):
            FieldContext(d)
    with pytest.raises(ValueError):
        FieldContext(4)  # kernel 1, not a quadratic field
    with pytest.raises(ValueError):
        FieldContext(36)


def test_integer_constructor_rejects_fractions():
    ctx = FieldContext(5)
    with pytest.raises((ValueError, TypeError)):
        ctx.integer(Fraction(1, 2), 1)


# ---------------------------------------------------------------------------
# element arithmetic

@pytest.fixture
def ctx5():
    return FieldContext(5)


def random_elem(ctx, rng, span=20):
    return ctx.element(
        Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 5)),
        Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 5)),
    )


def test_predicates(ctx5):
    a = ctx5.integer(3, 1)
    assert a.is_integral and not a.is_zero() and not is_rational(a)
    assert is_rational(ctx5.element(Fraction(1, 2), 0))
    assert not ctx5.element(Fraction(1, 2), 0).is_integral
    assert ctx5.integer(0, 0).is_zero()


def test_ring_operations(ctx5):
    a = ctx5.integer(3, 1)
    b = ctx5.integer(1, -2)
    # (3+s)(1-2s) = 3 - 6s + s - 2*5 = -7 - 5s
    p = a * b
    assert (p.x, p.y) == (-7, -5)


def test_division_and_inverse(ctx5):
    rng = random.Random(17)
    one = ctx5.integer(1, 0)
    for _ in range(200):
        a = random_elem(ctx5, rng)
        if a.is_zero() or norm(a) == 0:
            continue
        assert a * a.inverse() == one
        assert (a / a) == one
    with pytest.raises(ZeroDivisionError):
        ctx5.integer(0, 0).inverse()


def test_pow_matches_repeated_multiplication(ctx5):
    a = ctx5.integer(2, 1)
    acc = ctx5.integer(1, 0)
    for e in range(8):
        assert a**e == acc
        acc = acc * a
    inv = a.inverse()
    assert a**-3 == inv * inv * inv


def test_mixed_fields_rejected():
    a = FieldContext(5).integer(1, 1)
    b = FieldContext(2).integer(1, 1)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a / b


def test_str_format(ctx5):
    assert str(ctx5.integer(3, 1)) == "3+1*sqrt(5)"


# ---------------------------------------------------------------------------
# conjugate / norm / m_ratio

def test_conjugate_examples(ctx5):
    assert conjugate(ctx5.integer(3, 1)) == ctx5.integer(3, -1)
    assert conjugate(ctx5.integer(7, 0)) == ctx5.integer(7, 0)


def test_conjugate_involution_and_homomorphism(ctx5):
    rng = random.Random(23)
    for _ in range(200):
        a, b = random_elem(ctx5, rng), random_elem(ctx5, rng)
        assert conjugate(conjugate(a)) == a
        assert conjugate(a * b) == conjugate(a) * conjugate(b)


def test_norm_examples(ctx5):
    assert norm(ctx5.integer(3, 1)) == 4
    assert norm(ctx5.integer(0, 1)) == -5
    assert norm(ctx5.integer(2, 1)) == -1


def test_norm_multiplicative(ctx5):
    rng = random.Random(29)
    for _ in range(300):
        a, b = random_elem(ctx5, rng), random_elem(ctx5, rng)
        assert norm(a * b) == norm(a) * norm(b)


def test_norm_is_exact_rational(ctx5):
    v = norm(ctx5.element(Fraction(1, 3), Fraction(1, 2)))
    assert v == Fraction(1, 9) - 5 * Fraction(1, 4)


def test_m_ratio_examples(ctx5):
    assert m_ratio(ctx5.integer(7, 0)) == ctx5.integer(1, 0)
    r = m_ratio(ctx5.integer(3, 1))
    assert (r.x, r.y) == (Fraction(7, 2), Fraction(-3, 2))


def test_m_ratio_norm_one(ctx5):
    rng = random.Random(31)
    done = 0
    while done < 100:
        a = random_elem(ctx5, rng)
        if a.is_zero() or norm(a) == 0:
            continue
        assert norm(m_ratio(a)) == 1
        done += 1
    with pytest.raises(ZeroDivisionError):
        m_ratio(ctx5.integer(0, 0))


COORD = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(delta=st.sampled_from([2, 3, 5, 6, 7, 13, 101, 2 * 3 * 5 * 7 * 11]),
       coords=st.tuples(COORD, COORD, COORD, COORD))
def test_field_identities_hold_in_every_field(delta, coords):
    ctx = FieldContext(delta)
    a, b = ctx.element(*coords[:2]), ctx.element(*coords[2:])
    assert norm(a * b) == norm(a) * norm(b)
    assert conjugate(a * b) == conjugate(a) * conjugate(b)
    if not a.is_zero():  # a non-square delta leaves no other zero norm
        assert a * a.inverse() == ctx.integer(1, 0)
        assert norm(m_ratio(a)) == 1


# ---------------------------------------------------------------------------
# inertness and the square guard

def test_is_inert_examples(ctx5):
    assert is_inert(3, ctx5)
    assert not is_inert(11, ctx5)  # 4^2 = 16 = 5 mod 11
    assert is_inert(7, ctx5)


def test_is_inert_vs_brute_force_squares():
    for d in (2, 3, 5, 13):
        ctx = FieldContext(d)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if d % p == 0:
                continue
            sq = {(k * k) % p for k in range(1, p)}
            assert is_inert(p, ctx) == (d % p not in sq), (d, p)


def test_is_inert_rejections(ctx5):
    with pytest.raises(ValueError):
        is_inert(2, ctx5)
    with pytest.raises(ValueError):
        is_inert(5, ctx5)  # ramified
    with pytest.raises(ValueError):
        is_inert(4, ctx5)


def test_square_guard_examples(ctx5):
    assert not square_guard(ctx5.integer(3, 1))  # N = 4 is square
    assert square_guard(ctx5.integer(1, 1))      # N = -4
    assert square_guard(ctx5.integer(2, 1))      # N = -1


def test_square_guard_rejections(ctx5):
    with pytest.raises(ValueError):
        square_guard(ctx5.element(Fraction(1, 2), 1))
    with pytest.raises(ValueError):
        square_guard(ctx5.integer(0, 0))
