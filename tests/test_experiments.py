"""Family-level drivers: order scans, chain checks, independence, growth."""

import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from quadartin import arith, experiments
from quadartin.construction import InvariantError
from quadartin.arith import (
    factorize,
    is_prime,
    jacobi,
    prime_array,
    primes_up_to,
    sieve_rows,
)
from quadartin.experiments import (
    AlphaFamily,
    DependentGenerators,
    GrowthFit,
    RemarkViolation,
    ScanSummary,
    congruence_primes,
    inert_primes,
    lemma42_scan,
    mult_indep_norm_one,
    mult_indep_rational,
    order_scan,
    pigeonhole_report,
    subgroup_sizes,
)
from quadartin.quadfield import FieldContext, conjugate, m_ratio, norm

from oracles import (
    records_of,
    remark12_verify,
    scalar_order_scan,
    subgroup_size,
    survivors_by_trial_division,
    table_growth_counts,
)


@pytest.fixture
def fam3():
    return AlphaFamily.from_coords(5, [(2, 1), (1, 1), (3, 2)])


# ---------------------------------------------------------------------------
# family and prime streams

def test_family_auto_labels(fam3):
    assert fam3.labels == ("2+1r5", "1+1r5", "3+2r5")


def test_family_validation():
    with pytest.raises(ValueError):
        AlphaFamily.from_coords(5, [])
    with pytest.raises(ValueError):
        AlphaFamily.from_coords(5, [(0, 0)])
    ctx = FieldContext(5)
    with pytest.raises(ValueError):
        AlphaFamily(ctx, (FieldContext(2).integer(1, 1),))
    with pytest.raises(ValueError):
        AlphaFamily(ctx, (ctx.integer(1, 1),), ("a", "b"))


def test_inert_primes_delta5():
    ctx = FieldContext(5)
    got = inert_primes(ctx, 3, 50)
    assert got == [3, 7, 13, 17, 23, 37, 43, 47]
    for p in got:
        assert jacobi(5, p) == -1
    # inert for delta = 5 means p = 2 or 3 mod 5
    for p in primes_up_to(50):
        if p > 2 and p != 5:
            assert (p in got) == (p % 5 in (2, 3))


def test_congruence_primes_match_filter():
    got = congruence_primes(547, 720, 3, 10**4)
    want = [p for p in primes_up_to(10**4) if p % 720 == 547]
    assert got == want
    assert 547 in got


# ---------------------------------------------------------------------------
# order scans

def test_order_scan_rational_one():
    fam = AlphaFamily.from_coords(5, [(1, 0)])
    ps = inert_primes(fam.ctx, 3, 100)
    blocks, summary = order_scan(fam, ps)
    records = records_of(blocks, fam.labels)
    for _, rec in records:
        assert rec.ord_alpha == 1
    # 24 * 1 >= p^2 - 1 only at p = 3
    assert summary.attained_per_member == (1,)


def test_order_scan_frozen_baseline(fam3):
    ps = inert_primes(fam3.ctx, 3, 10**4)
    assert len(ps) == 618
    blocks, s = order_scan(fam3, ps)
    records = records_of(blocks, fam3.labels)
    assert s.prime_count == 618
    assert s.skipped == 0
    assert s.attained_per_member == (6, 552, 575)
    assert s.attained_family == 610
    assert len(records) == 3 * 618


def test_order_scan_family_count_dominates_members(fam3):
    ps = inert_primes(fam3.ctx, 3, 2000)
    _, s = order_scan(fam3, ps)
    assert s.attained_family >= max(s.attained_per_member)
    assert s.attained_family <= s.prime_count
    assert s.family_fraction >= max(s.fractions)


def test_order_scan_workers_merge_identical(fam3, monkeypatch):
    # 64-prime blocks: the pool splits only a list longer than one block
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 64)
    ps = inert_primes(fam3.ctx, 3, 3000)
    assert len(ps) > 3 * experiments.PRIME_BLOCK
    (b1, s1), (b2, s2) = order_scan(fam3, ps), order_scan(fam3, ps, workers=3)
    r1, r2 = records_of(b1, fam3.labels), records_of(b2, fam3.labels)
    assert r1 == r2
    assert s1 == s2


def test_order_scan_skips_unusable_primes():
    # 7*(1 + sqrt(5)) has norm divisible by the inert prime 7; 11 splits
    fam = AlphaFamily.from_coords(5, [(7, 7)])
    blocks, s = order_scan(fam, [7, 11, 13])
    records = records_of(blocks, fam.labels)
    assert s.prime_count == 1
    assert s.skipped == 2
    assert records[0][1].p == 13


def test_order_scan_index_histogram(fam3):
    ps = inert_primes(fam3.ctx, 3, 500)
    blocks, s = order_scan(fam3, ps)
    records = records_of(blocks, fam3.labels)
    assert sum(s.index_histogram.values()) == len(records)
    for label, rec in records:
        idx = (rec.p**2 - 1) // rec.ord_alpha
        assert idx in s.index_histogram


# ---------------------------------------------------------------------------
# the array order kernel against the scalar route

# A rational member, a pure sqrt(delta), a unit, and 7 + 7 sqrt(delta), whose
# norm 49 (1 - delta) the inert prime 7 divides for delta = 3, 5 and 13.
KERNEL_MEMBERS = {
    2: [(4, 0), (0, 1), (1, 1), (7, 7), (3, 1)],
    3: [(4, 0), (0, 1), (2, 1), (7, 7), (5, 2)],
    5: [(4, 0), (0, 1), (2, 1), (7, 7), (3, 2)],
    13: [(4, 0), (0, 1), (18, 5), (7, 7), (3, 1)],
}


@pytest.mark.parametrize("delta", sorted(KERNEL_MEMBERS))
def test_order_kernel_matches_scalar_route(monkeypatch, delta):
    # 500-prime blocks: the 2262 primes below 2e4 span five blocks.  Every
    # prime there is passed, so 2, the ramified and the split primes go
    # through the skip masks as well as the inert ones through the kernel.
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 500)
    fam = AlphaFamily.from_coords(delta, KERNEL_MEMBERS[delta])
    assert abs(norm(fam.members[2])) == 1
    ps = primes_up_to(2 * 10**4)
    blocks, summary = order_scan(fam, ps)
    records = records_of(blocks, fam.labels)
    want, skipped = scalar_order_scan(fam, ps)
    assert records == want
    assert (summary.prime_count, summary.skipped) == (len(ps) - skipped, skipped)
    seen = {r.p for _, r in records}
    assert 7 not in seen and (delta == 2 or jacobi(delta, 7) == -1)
    branches = {r.ord_alpha // math.lcm(r.ord_n, r.ord_m) for _, r in records}
    assert branches == {1, 2}  # both ord = L and ord = 2L occur


def test_order_kernel_skip_count():
    # 2, the ramified 5 and the split 11, 19 and 29 are skipped
    fam = AlphaFamily.from_coords(5, [(2, 1), (3, 2)])
    blocks, s = order_scan(fam, [2, 5, 7, 11, 13, 19, 29])
    records = records_of(blocks, fam.labels)
    assert (s.prime_count, s.skipped) == (2, 5)
    assert [r.p for _, r in records] == [7, 7, 13, 13]


def _primes_from(start, step, count, delta, symbol):
    out, p = [], start
    while len(out) < count:
        if is_prime(p) and jacobi(delta, p) == symbol:
            out.append(p)
        p += step
    return out


def test_order_kernel_exact_below_2_31():
    # 2^31 - 1 is inert for delta = 5 and the largest prime the kernel
    # takes; there 3 + 2 sqrt 5 has index 8, where 24 * ord_alpha would
    # wrap int64
    fam = AlphaFamily.from_coords(5, [(3, 2), (2, 1), (4, 0), (0, 1), (7, 7)])
    ps = _primes_from(2**31 - 1, -2, 6, 5, -1)
    assert ps[0] == 2**31 - 1
    blocks, _ = order_scan(fam, ps)
    records = records_of(blocks, fam.labels)
    assert records == scalar_order_scan(fam, ps)[0]
    label, top = records[-5]
    assert (label, top.p) == ("3+2r5", 2**31 - 1)
    assert (top.p**2 - 1) // top.ord_alpha == 8 and top.attained
    assert 24 * top.ord_alpha > 2**63


def test_order_scan_past_2_31_matches_scalar_route():
    # primes from 2**31 on take the scalar route, the rest the kernel; the
    # records and the pigeonhole rows come out as from the scalar route alone
    fam = AlphaFamily.from_coords(5, [(3, 2), (2, 1), (7, 7)])
    ps = primes_up_to(300) + _primes_from(2**31 + 1, 2, 3, 5, -1) + _primes_from(
        2**31 + 1, 2, 1, 5, 1
    )
    blocks, s = order_scan(fam, ps)
    records = records_of(blocks, fam.labels)
    want, skipped = scalar_order_scan(fam, ps)
    assert records == want and s.skipped == skipped
    assert records[-1][1].p > 2**31
    rep = pigeonhole_report(fam, ps)
    assert [r.p for r in rep.rows] == [r.p for _, r in records[::3]]
    for row in rep.rows:
        for m, n in ((row.m_minus, row.p - 1), (row.m_plus, row.p + 1)):
            assert m == sum(e for q, e in factorize(n).factors if q > rep.threshold)
    assert rep.full_attained == tuple(
        sum(r.attained for _, r in records[i::3]) for i in range(3)
    )


def test_scan_summary_validates():
    with pytest.raises(ValueError):
        ScanSummary(10, 0, ("a",), (5,), 3, {})  # family < best member


# ---------------------------------------------------------------------------
# order chain

def test_remark12_zero_violations_random_members():
    import random

    rng = random.Random(77)
    coords = []
    while len(coords) < 25:
        x, y = rng.randrange(-30, 31), rng.randrange(-30, 31)
        if (x, y) != (0, 0):
            coords.append((x, y))
    fam = AlphaFamily.from_coords(5, coords)
    out = remark12_verify(fam, inert_primes(fam.ctx, 3, 1000))
    assert out["violations"] == 0
    assert out["checked"] > 0


def test_remark12_sqrt_delta_member():
    fam = AlphaFamily.from_coords(2, [(0, 1)])
    out = remark12_verify(fam, inert_primes(fam.ctx, 3, 500))
    assert out["violations"] == 0


def test_remark12_counts_skipped():
    fam = AlphaFamily.from_coords(5, [(1, 1)])
    out = remark12_verify(fam, [7, 11, 13])  # 11 splits
    assert out["skipped"] == 1
    assert out["checked"] == 2


def test_remark_violation_pickles():
    # a violation raised in a scan worker crosses the process pool by pickle
    e = pickle.loads(pickle.dumps(RemarkViolation(7, "a", "x")))
    assert (e.p, e.label, e.detail) == (7, "a", "x")
    assert str(e) == str(RemarkViolation(7, "a", "x"))


# ---------------------------------------------------------------------------
# multiplicative independence, rational case

def test_indep_distinct_primes():
    assert mult_indep_rational([Fraction(2), Fraction(3)]).independent
    # signs are ignored, so negative values factor by their absolute value
    assert mult_indep_rational([Fraction(-19), Fraction(4)]).independent


def test_indep_power_relation():
    v = mult_indep_rational([Fraction(2), Fraction(4)])
    assert not v.independent
    assert v.relation == (2, -1)
    assert Fraction(2) ** 2 * Fraction(4) ** -1 == 1
    assert mult_indep_rational([Fraction(-2), Fraction(4)]).relation == (2, -1)


def test_indep_6_10_15():
    # pairwise entangled but jointly independent: the exponent matrix
    # [[1,1,0],[1,0,1],[0,1,1]] has rank 3
    v = mult_indep_rational([Fraction(6), Fraction(10), Fraction(15)])
    assert v.independent
    # brute force confirms no relation with small exponents
    for e0 in range(-5, 6):
        for e1 in range(-5, 6):
            for e2 in range(-5, 6):
                if (e0, e1, e2) == (0, 0, 0):
                    continue
                assert Fraction(6) ** e0 * Fraction(10) ** e1 * Fraction(15) ** e2 != 1


def test_indep_units_are_dependent():
    v = mult_indep_rational([Fraction(5), Fraction(-1)])
    assert not v.independent
    assert v.relation == (0, 1)


def test_indep_rejects_zero_and_empty():
    with pytest.raises(ValueError):
        mult_indep_rational([Fraction(0), Fraction(2)])
    with pytest.raises(ValueError):
        mult_indep_rational([])


def test_indep_rational_fractions():
    v = mult_indep_rational([Fraction(2, 3), Fraction(4, 9)])
    assert not v.independent
    e0, e1 = v.relation
    assert Fraction(2, 3) ** e0 * Fraction(4, 9) ** e1 in (1, -1)


def test_indep_relation_verifies_exactly():
    vals = [Fraction(12), Fraction(18), Fraction(8, 27)]
    v = mult_indep_rational(vals)
    if not v.independent:
        prod = Fraction(1)
        for t, e in zip(vals, v.relation):
            prod *= t**e
        assert prod in (1, -1)


def test_indep_unverified_relation_raises(monkeypatch):
    # a kernel vector whose product is not +-1 is an invariant failure
    monkeypatch.setattr(experiments, "_kernel_vector", lambda mat: (1, 1))
    with pytest.raises(InvariantError):
        mult_indep_rational([Fraction(2), Fraction(3)])


# ---------------------------------------------------------------------------
# multiplicative independence, norm-one case

def test_norm_one_ratio_and_conjugate_ratio():
    ctx = FieldContext(5)
    a = ctx.integer(1, 1)
    m = m_ratio(a)
    msig = m_ratio(conjugate(a))
    v = mult_indep_norm_one([m, msig])
    assert not v.independent
    assert v.relation == (1, 1)  # the two ratios are mutual inverses


def test_norm_one_singleton_independent():
    ctx = FieldContext(5)
    m = m_ratio(ctx.integer(2, 1))
    v = mult_indep_norm_one([m], bound=10)
    assert v.independent
    assert v.search_bound == 10


def test_norm_one_square_relation():
    ctx = FieldContext(5)
    u = m_ratio(ctx.integer(2, 1))
    v = mult_indep_norm_one([u, u * u])
    assert not v.independent
    assert v.relation == (2, -1)


def test_norm_one_rejects_bad_inputs():
    ctx = FieldContext(5)
    with pytest.raises(ValueError):
        mult_indep_norm_one([ctx.integer(2, 1)])  # norm -1, not 1
    with pytest.raises(ValueError):
        mult_indep_norm_one([ctx.integer(-1, 0)])  # finite order
    with pytest.raises(ValueError):
        mult_indep_norm_one([])


def test_norm_one_known_hidden_relation():
    # M(2 + sqrt5) equals M(1 + sqrt5)^3: both sides are -9 + 4*sqrt5
    ctx = FieldContext(5)
    m1 = m_ratio(ctx.integer(1, 1))
    m2 = m_ratio(ctx.integer(2, 1))
    v = mult_indep_norm_one([m1, m2], bound=5)
    assert not v.independent
    prod = ctx.integer(1, 0)
    for t, e in zip([m1, m2], v.relation):
        prod = prod * t**e
    assert prod == ctx.integer(1, 0)


# ---------------------------------------------------------------------------
# subgroup growth

def brute_subgroup(p, gens):
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = s * g % p
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return len(seen)


def test_subgroup_size_examples():
    assert subgroup_size(7, [1]) == 1
    assert subgroup_size(7, [2, 3]) == 6  # lcm(3, 6)
    assert subgroup_size(7, [2]) == 3


def test_subgroup_size_vs_closure_oracle():
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        for gens in ([2], [3], [2, 3], [2, 5], [2, 3, 5]):
            if any(g % p == 0 for g in gens):
                continue
            assert subgroup_size(p, gens) == brute_subgroup(p, gens), (p, gens)


def test_subgroup_size_divides_group_order():
    for p in primes_up_to(300):
        if p <= 5:
            continue
        assert (p - 1) % subgroup_size(p, [2, 3]) == 0


def test_subgroup_size_rejects_vanishing_generator():
    with pytest.raises(ValueError):
        subgroup_size(7, [14])


def test_lemma42_rejects_dependent_generators():
    with pytest.raises(DependentGenerators) as e:
        lemma42_scan([2, 4], 1000)
    assert e.value.relation == (2, -1)


def test_lemma42_frozen_small_scan():
    g = lemma42_scan([2, 3], 10**4)
    assert g.prime_count == 1227  # pi(10^4) minus the primes 2 and 3
    assert g.samples[0] == (10.0, 2)
    assert g.slope == pytest.approx(0.8972078215859178, abs=1e-9)
    assert g.slope <= 1.8


def test_lemma42_y1_and_saturation():
    g = lemma42_scan([2, 3], 2000, y_grid=[1.0, 5000.0])
    assert g.samples[0] == (1.0, 0)  # sizes are never below 1
    assert g.samples[1] == (5000.0, g.prime_count)  # all sizes < p <= x < y


def test_lemma42_sorts_y_grid():
    g = lemma42_scan([2, 3], 1000, y_grid=[100.0, 10.0, 50.0])
    assert [y for y, _ in g.samples] == [10.0, 50.0, 100.0]


def test_lemma42_counts_monotone_in_y():
    g = lemma42_scan([2, 3], 5000)
    counts = [n for _, n in g.samples]
    assert counts == sorted(counts)


@pytest.mark.parametrize(
    "gens",
    [(2, 3), (-3, 7), (3, 5), (5, 6), (2, 3, 5), (2**64 + 13, 3)],
    ids=["2,3", "-3,7", "3,5", "5,6", "2,3,5", "2^64+13,3"],
)
def test_subgroup_kernel_matches_scalar_oracle(monkeypatch, gens):
    # 4096-integer segments: the primes below 2e4 span five segments, the
    # last one partial.  (3, 5) keeps p = 2, where p - 1 = 1 and the size is 1.
    monkeypatch.setattr(arith, "SEGMENT", 4096)
    x = 2 * 10**4
    ps = prime_array(x)
    ps = ps[[all(g % p for g in gens) for p in ps.tolist()]]
    assert x > 2 * arith.SEGMENT
    bad = [q for g in gens for q in factorize(abs(g)).primes]
    sizes = np.concatenate(list(experiments._segment_sizes(gens, bad, x)))
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [subgroup_size(p, gens) for p in ps.tolist()]
    if 2 in ps.tolist():
        assert sizes[0] == 1


def test_subgroup_kernel_rejects_vanishing_generator():
    ps = np.array([5, 7, 11])
    with pytest.raises(ValueError):
        subgroup_sizes(ps, [2, 14], sieve_rows(ps - 1))


def test_subgroup_kernel_descent_overrun_raises(monkeypatch):
    # A power routine that claims every g^((p-1)/q) is 1 and then never lets
    # the descent reach 1: the kernel must raise, not return a size.
    calls = []

    def broken(base, exp, mod):
        calls.append(1)
        fill = 1 if len(calls) <= 2 else 2
        return np.full(np.broadcast(base, exp, mod).shape, fill, dtype=np.int64)

    monkeypatch.setattr(experiments, "powmod", broken)
    ps = np.array([7, 13])
    with pytest.raises(ArithmeticError):
        subgroup_sizes(ps, [2, 3], sieve_rows(ps - 1))


def test_lemma42_workers_identical(monkeypatch):
    # 2000-integer segments: the primes to 15000 span eight segments, so the
    # pool deals them out
    monkeypatch.setattr(arith, "SEGMENT", 2000)
    a = lemma42_scan([2, 3], 15000)
    b = lemma42_scan([2, 3], 15000, workers=3)
    assert a == b


@pytest.mark.parametrize(
    "gens",
    [(2, 3), (-3, 7), (5, 6), (2, 3, 5), (2**64 + 13, 3)],
    ids=["2,3", "-3,7", "5,6", "2,3,5", "2^64+13,3"],
)
def test_lemma42_streams_like_table_route(monkeypatch, gens):
    # 1000-integer segments cross 30 segment edges; the counts and the prime
    # count equal those of the whole-range table route, with one process and
    # with two
    monkeypatch.setattr(arith, "SEGMENT", 1000)
    x = 3 * 10**4
    y_grid = [float(y) for y in np.geomspace(1.0, 4 * 10**4, 23)]
    fit = lemma42_scan(gens, x, y_grid)
    counts, prime_count = table_growth_counts(gens, x, y_grid)
    assert [n for _, n in fit.samples] == counts
    assert fit.prime_count == prime_count
    assert 0 < counts[len(counts) // 2] < prime_count
    assert lemma42_scan(gens, x, y_grid, workers=2) == fit


def test_lemma42_memory_is_bounded():
    # numpy reports its buffers to tracemalloc; streaming per segment keeps
    # the peak flat where whole-range tables grow with x
    lemma42_scan([2, 3], 10**4)
    peaks = []
    for x in (10**6, 4 * 10**6):
        tracemalloc.start()
        try:
            lemma42_scan([2, 3], x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


# ---------------------------------------------------------------------------
# pigeonhole bookkeeping

def test_pigeonhole_side_selection(fam3):
    ps = congruence_primes(547, 720, 3, 10**5)
    rep = pigeonhole_report(fam3, ps)
    for row in rep.rows:
        if row.p % 3 == 1:
            assert (row.d_minus, row.d_plus) == (12, 2)
        else:
            assert (row.d_minus, row.d_plus) == (4, 6)


def test_pigeonhole_survivor_factor_bound(fam3):
    ps = congruence_primes(547, 720, 3, 10**5)
    rep = pigeonhole_report(fam3, ps)
    # every class prime survives: all small primes divide 24 here
    assert all(r.survivor for r in rep.rows)
    for r in rep.rows:
        assert r.m_minus <= 7 and r.m_plus <= 7
    assert rep.members_needed == 6 * rep.max_side_factors + 1


def test_pigeonhole_frozen_counts(fam3):
    ps = congruence_primes(547, 720, 3, 10**5)
    rep = pigeonhole_report(fam3, ps)
    assert len(rep.rows) == 50
    assert rep.threshold == 4
    assert rep.max_side_factors == 4
    assert rep.minus_attained == (0, 46, 49)
    assert rep.plus_attained == (46, 46, 38)
    assert rep.full_attained == (0, 47, 49)


def test_pigeonhole_counts_bounded_by_rows(fam3):
    ps = congruence_primes(547, 720, 3, 3 * 10**4)
    rep = pigeonhole_report(fam3, ps)
    n = len(rep.rows)
    for c in rep.minus_attained + rep.plus_attained + rep.full_attained:
        assert 0 <= c <= n


def test_pigeonhole_past_int64():
    # primes from 2**63 on are Python ints all the way: survivor flags and
    # large-factor counts equal trial division and factorize
    fam = AlphaFamily.from_coords(5, [(3, 2), (2, 1)])
    ps = [p for p in range(2**63 + 29, 2**63 + 300, 2) if is_prime(p) and jacobi(5, p) == -1]
    assert ps[0] == 2**63 + 29
    rep = pigeonhole_report(fam, ps)
    assert [r.p for r in rep.rows] == ps
    flags = [r.survivor for r in rep.rows]
    assert flags == survivors_by_trial_division(ps, rep.threshold + 1, 24)
    assert True in flags and False in flags
    for row in rep.rows:
        for m, n in ((row.m_minus, row.p - 1), (row.m_plus, row.p + 1)):
            assert m == sum(e for q, e in factorize(n).factors if q > rep.threshold)


def test_pigeonhole_too_many_large_factors_raises():
    # at x = 2 the threshold is 1, so 257 survives, and 257 - 1 = 2^8 has
    # 8 factors above it on one side
    fam = AlphaFamily.from_coords(5, [(2, 1), (3, 2)])
    with pytest.raises(InvariantError, match="257"):
        pigeonhole_report(fam, [257], x=2)
