"""Family-level drivers: order scans, chain checks, independence, growth."""

import math
import os
import pickle
import sys
import tracemalloc
import weakref
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadartin import arith, experiments, fp2
from quadartin.construction import InvariantError
from quadartin.arith import (
    factorize,
    is_prime,
    jacobi,
    powmod,
    prime_array,
    primes_in_class,
    primes_up_to,
    sieve_rows,
)
from quadartin.experiments import (
    AlphaFamily,
    DependentGenerators,
    GrowthFit,
    PigeonholeTally,
    RemarkViolation,
    ScanTally,
    lemma42_scan,
    mult_indep_norm_one,
    mult_indep_rational,
    order_scan,
    subgroup_sizes,
)
from quadartin.quadfield import FieldContext, conjugate, m_ratio, norm
from quadartin.sieve import SieveConfig, sieving_limit, survivor_count

from oracles import (
    pigeonhole_counts,
    records_of,
    remark12_verify,
    scalar_order_scan,
    scan_blocks,
    subgroup_size,
    table_growth_counts,
)


@pytest.fixture
def fam3():
    return AlphaFamily.from_coords(5, [(2, 1), (1, 1), (3, 2)])


def tallied(family, ps, x):
    """A PigeonholeTally and a ScanTally, both fed by one order_scan of ps."""
    tally, scan = PigeonholeTally(family, x), ScanTally(family)
    order_scan(family, [ps], [scan.update, tally.update])
    return tally, scan


def scan_counts(scan):
    """A ScanTally's counters, comparable with ==."""
    return (scan.prime_count, scan.attained_per_member.tolist(), scan.attained_family,
            scan.index_histogram)


def inert_up_to(delta, hi):
    """The odd primes up to hi that are inert for delta, as int64, by the
    Jacobi symbol prime by prime."""
    ps = prime_array(hi)[1:]
    return ps[[jacobi(delta, p) == -1 for p in ps.tolist()]]


def counts_of(tally):
    """The tally's counters, in the shape pigeonhole_counts gives them."""
    return tally.threshold, tally.by_factors.tolist(), tally.attained.tolist()


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


def test_inert_primes_delta5():
    # the scan's one mask keeps the inert primes and drops 2, the ramified 5
    # and the split primes uncounted; 1 divides no prime
    fam = AlphaFamily.from_coords(5, [(1, 0)])
    blocks, _, skipped = scan_blocks(fam, primes_up_to(50))
    got = np.concatenate([b.p for b in blocks]).tolist()
    assert got == [3, 7, 13, 17, 23, 37, 43, 47] and skipped == 0
    for p in got:
        assert jacobi(5, p) == -1
    # inert for delta = 5 means p = 2 or 3 mod 5
    for p in primes_up_to(50):
        if p > 2 and p != 5:
            assert (p in got) == (p % 5 in (2, 3))


# ---------------------------------------------------------------------------
# order scans

def test_order_scan_rational_one():
    fam = AlphaFamily.from_coords(5, [(1, 0)])
    ps = inert_up_to(5, 100)
    blocks, summary, _ = scan_blocks(fam, ps)
    records = records_of(blocks, fam.labels)
    for _, rec in records:
        assert rec.ord_alpha == 1
    # 24 * 1 >= p^2 - 1 only at p = 3
    assert summary.attained_per_member.tolist() == [1]


def test_order_scan_frozen_baseline(fam3):
    ps = inert_up_to(5, 10**4)
    assert len(ps) == 618
    blocks, s, skipped = scan_blocks(fam3, ps)
    records = records_of(blocks, fam3.labels)
    assert s.prime_count == 618
    assert skipped == 0
    assert s.attained_per_member.tolist() == [6, 552, 575]
    assert s.attained_family == 610
    assert len(records) == 3 * 618


def test_order_scan_family_count_dominates_members(fam3):
    ps = inert_up_to(5, 2000)
    s = ScanTally(fam3)
    order_scan(fam3, [ps], [s.update])
    assert s.attained_family >= max(s.attained_per_member)
    assert s.attained_family <= s.prime_count


def test_order_scan_workers_merge_identical(fam3, monkeypatch):
    # 64-prime blocks: the pool splits only a list longer than one block
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 64)
    ps = inert_up_to(5, 3000)
    assert len(ps) > 3 * experiments.PRIME_BLOCK
    (b1, s1, k1), (b2, s2, k2) = scan_blocks(fam3, ps), scan_blocks(fam3, ps, workers=3)
    r1, r2 = records_of(b1, fam3.labels), records_of(b2, fam3.labels)
    assert r1 == r2
    assert (scan_counts(s1), k1) == (scan_counts(s2), k2)


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "int64"])
@pytest.mark.parametrize("ps", [
    pytest.param([3, 7, 13, 13, 17], id="repeated"),
    pytest.param([3, 7, 17, 13, 23], id="descending"),
    pytest.param([3, 7, 13, 17, 17, 23, 37, 43], id="repeated_across_blocks"),
    pytest.param([3, 7, 13, 23, 17, 37, 43, 47], id="descending_across_blocks"),
])
def test_order_scan_refuses_unordered_primes(fam3, monkeypatch, ps, as_array):
    # 4-prime blocks: the last two lists break the order where one block
    # ends and the next begins; no block reaches a fold
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 4)
    seen = []
    with pytest.raises(ValueError, match="ascending, distinct"):
        order_scan(fam3, [np.array(ps, dtype=np.int64) if as_array else ps], [seen.append])
    assert seen == []


@pytest.mark.parametrize("segments", [
    pytest.param([[3, 7, 13], [13, 17]], id="repeated"),
    pytest.param([[3, 7, 17], [13, 23]], id="descending"),
    pytest.param([[3, 7], [], [7, 13]], id="repeated_past_an_empty_segment"),
])
def test_order_scan_refuses_segments_out_of_order(fam3, segments):
    # the order is checked across segment boundaries as well as within one
    with pytest.raises(ValueError, match="ascending, distinct"):
        order_scan(fam3, iter(segments), [])


def test_order_scan_fills_blocks_across_segments(fam3, monkeypatch):
    # 1000-integer segments and 64-prime blocks: the usable primes fill
    # every block but the last across segment boundaries, and the records
    # and counts are those of the same primes passed as one segment
    monkeypatch.setattr(arith, "SEGMENT", 1000)
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 64)
    segments = list(arith._segments(2, 20000))
    assert len(segments) == 20
    blocks, s = [], ScanTally(fam3)
    skipped = order_scan(fam3, iter(segments), [blocks.append, s.update])
    want_blocks, want, want_skipped = scan_blocks(fam3, np.concatenate(segments))
    assert [b.p.size for b in blocks[:-1]] == [64] * (len(blocks) - 1)
    assert records_of(blocks, fam3.labels) == records_of(want_blocks, fam3.labels)
    assert (scan_counts(s), skipped) == (scan_counts(want), want_skipped)


def test_order_scan_memory_does_not_grow_with_the_range():
    # the sieve's segments stream through the pass: from the dense range
    # [3, 3e5] to one ten times wider, the tracemalloc peak of prime
    # generation plus the scan grows by 0.22 MB (mostly the index
    # histogram's new keys), where a scan handed every inert prime of its
    # range at once grows by 1.0 MB.
    # No member is a unit, whose histogram would gain a key per prime.
    fam = AlphaFamily.from_coords(5, [(1, 1), (3, 2), (4, 1)])
    assert all(abs(n) > 1 for n in fam.norms)
    order_scan(fam, arith._segments(3, 10**4), [ScanTally(fam).update])
    peaks = []
    for hi in (3 * 10**5, 3 * 10**6):
        tracemalloc.start()
        try:
            order_scan(fam, arith._segments(3, hi), [ScanTally(fam).update])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**19, peaks


@pytest.mark.parametrize("workers", [1, 2])
def test_order_scan_drops_each_block(fam3, monkeypatch, workers):
    # 64-prime blocks over more than 20 of them: a fold sees every block
    # in ascending order of p, and at most 2 * workers + 2 blocks are alive
    # at once or on their way (taken for the kernel, not yet handed over),
    # where a scan that kept its blocks would hold them all
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 64)
    ps = inert_up_to(5, 30000)
    assert ps.size > 20 * 64
    taken, refs, alive, firsts = [], [], [], []

    def counted(items):
        for t in items:
            taken.append(t.size)
            yield t

    map_ = experiments._map
    monkeypatch.setattr(experiments, "_map", lambda fn, items, w: map_(fn, counted(items), w))

    def sink(b):
        refs.append(weakref.ref(b.p))
        alive.append(sum(r() is not None for r in refs) + len(taken) - len(refs))
        firsts.append(int(b.p[0]))

    s = ScanTally(fam3)
    order_scan(fam3, [ps], [sink, s.update], workers)
    assert len(refs) == -(-ps.size // 64) and s.prime_count == ps.size
    assert firsts == ps[::64].tolist()
    assert max(alive) <= 2 * workers + 2, alive


def test_order_scan_frees_each_block_before_the_next_kernel_call(fam3, monkeypatch):
    # inline, with 64-prime blocks: each time the kernel starts on a block,
    # no block it returned before is still alive, so the pass holds one
    # block's arrays at a time, not two
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 64)
    kernel, refs, alive = experiments._kernel_block, [], []

    def tracked(family, ps):
        alive.append(sum(r() is not None for r in refs))
        b = kernel(family, ps)
        refs.append(weakref.ref(b.ord_alpha))
        return b

    monkeypatch.setattr(experiments, "_kernel_block", tracked)
    ps = inert_up_to(5, 5000)
    assert ps.size > 4 * 64
    order_scan(fam3, [ps], [ScanTally(fam3).update], workers=1)
    assert len(alive) == -(-ps.size // 64) and alive == [0] * len(alive), alive


def test_order_scan_skips_unusable_primes():
    # 7*(1 + sqrt(5)) has norm divisible by the inert prime 7, which is
    # skipped and counted; 11 splits and is dropped uncounted
    fam = AlphaFamily.from_coords(5, [(7, 7)])
    blocks, s, skipped = scan_blocks(fam, [7, 11, 13])
    records = records_of(blocks, fam.labels)
    assert s.prime_count == 1
    assert skipped == 1
    assert records[0][1].p == 13


def test_order_scan_index_histogram(fam3):
    ps = inert_up_to(5, 500)
    blocks, s, _ = scan_blocks(fam3, ps)
    records = records_of(blocks, fam3.labels)
    assert sum(s.index_histogram.values()) == len(records)
    for label, rec in records:
        idx = (rec.p**2 - 1) // rec.ord_alpha
        assert idx in s.index_histogram


# ---------------------------------------------------------------------------
# the pool helper

def test_map_runs_inline_without_the_pool(monkeypatch):
    # one worker, or fewer than two items, run fn in this process and never
    # import the pool: an import of concurrent.futures would fail here
    monkeypatch.setitem(sys.modules, "concurrent.futures", None)

    def here(t):
        return t, os.getpid()

    assert list(experiments._map(here, range(5), 1)) == [(t, os.getpid()) for t in range(5)]
    assert list(experiments._map(here, iter([7]), 2)) == [(7, os.getpid())]
    assert list(experiments._map(here, iter([]), 2)) == []


def test_map_on_a_pool_yields_in_order_and_draws_little_ahead():
    # with two workers the results come back in the order of the items, and
    # no more than 2 * workers + 1 items are drawn ahead of the consumer
    drawn = []

    def items():
        for t in range(40):
            drawn.append(t)
            yield t

    got = []
    for out in experiments._map(partial(pow, 3), items(), 2):
        assert len(drawn) - len(got) <= 2 * 2 + 1, (len(drawn), len(got))
        got.append(out)
    assert got == [3**t for t in range(40)] and len(drawn) == 40


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
    # through the scan's mask as well as the inert ones through the kernel.
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 500)
    fam = AlphaFamily.from_coords(delta, KERNEL_MEMBERS[delta])
    assert abs(norm(fam.members[2])) == 1
    ps = primes_up_to(2 * 10**4)
    blocks, summary, got_skipped = scan_blocks(fam, ps)
    records = records_of(blocks, fam.labels)
    want, skipped = scalar_order_scan(fam, ps)
    assert records == want
    assert (summary.prime_count, got_skipped) == (len(want) // len(fam.members), skipped)
    seen = {r.p for _, r in records}
    assert 7 not in seen and (delta == 2 or jacobi(delta, 7) == -1)
    branches = {r.ord_alpha // math.lcm(r.ord_n, r.ord_m) for _, r in records}
    assert branches == {1, 2}  # both ord = L and ord = 2L occur


def test_order_kernel_skip_count():
    # 2, the ramified 5 and the split 11, 19 and 29 are dropped uncounted;
    # the inert 7 divides the norm of 7 + 7 sqrt(5) and is skipped (counted)
    fam = AlphaFamily.from_coords(5, [(2, 1), (3, 2), (7, 7)])
    blocks, s, skipped = scan_blocks(fam, [2, 5, 7, 11, 13, 19, 29])
    records = records_of(blocks, fam.labels)
    assert (s.prime_count, skipped) == (1, 1)
    assert [r.p for _, r in records] == [13, 13, 13]


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
    ps = _primes_from(2**31 - 1, -2, 6, 5, -1)[::-1]
    assert ps[-1] == 2**31 - 1
    blocks, _, _ = scan_blocks(fam, ps)
    records = records_of(blocks, fam.labels)
    assert records == scalar_order_scan(fam, ps)[0]
    label, top = records[-5]
    assert (label, top.p) == ("3+2r5", 2**31 - 1)
    assert (top.p**2 - 1) // top.ord_alpha == 8 and top.attained
    assert 24 * top.ord_alpha > 2**63


def test_order_scan_rows_of_a_block_far_apart():
    # one int64 block whose p -+ 1 span 2**31: the row sieve takes them in
    # two windows, the small primes' and the six largest, and the records
    # come out as from the scalar route alone
    fam = AlphaFamily.from_coords(5, [(3, 2), (2, 1), (7, 7)])
    ps = primes_up_to(300) + _primes_from(2**31 - 1, -2, 6, 5, -1)[::-1]
    blocks, _, got_skipped = scan_blocks(fam, ps)
    assert [b.p.dtype for b in blocks] == [np.int64]
    want, skipped = scalar_order_scan(fam, ps)
    assert records_of(blocks, fam.labels) == want and got_skipped == skipped


def test_order_scan_past_2_31_matches_scalar_route(monkeypatch):
    # a block whose largest prime is 2**31 or more runs the kernel on Python
    # ints; the records and the pigeonhole counts come out as from the scalar
    # route alone.  Past 2**32 p**2 - 1 and ord_alpha exceed int64.  Each
    # list is one block, the last one of consecutive inert primes around
    # 2**31.
    fam = AlphaFamily.from_coords(5, [(3, 2), (2, 1), (7, 7)])
    lists = [sorted(primes_up_to(300) + _primes_from(start, 2, 3, 5, -1)
                    + _primes_from(start, 2, 1, 5, 1))
             for start in (2**31 + 1, 2**32 + 1)]
    straddle = _primes_from(2**31 - 1, -2, 9, 5, -1)[::-1] + _primes_from(2**31 + 1, 2, 9, 5, -1)
    for ps in lists + [straddle]:
        blocks, _, got_skipped = scan_blocks(fam, ps)
        records = records_of(blocks, fam.labels)
        want, skipped = scalar_order_scan(fam, ps)
        assert records == want and got_skipped == skipped
        assert [b.p.dtype for b in blocks] == [object] and min(ps) < 2**31 < max(ps)
        if max(ps) > 2**32:
            assert max(r.ord_alpha for _, r in records) > 2**63 and max(ps) ** 2 - 1 > 2**64
        tally, _ = tallied(fam, ps, max(ps))
        assert counts_of(tally) == pigeonhole_counts(fam, ps, max(ps))
    # in 8-prime blocks the same scan mixes int64 and Python-int blocks
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 8)
    blocks, _, _ = scan_blocks(fam, straddle)
    assert [b.p.dtype for b in blocks] == [np.int64, object, object]
    assert records_of(blocks, fam.labels) == scalar_order_scan(fam, straddle)[0]


def test_far_scan_rows_come_from_the_row_sieve(monkeypatch):
    # a Python-int block whose p -+ 1 fit int64 takes its rows from one
    # sieve_rows call per side, on exactly the int64 p - 1 and p + 1 of the
    # block, and its records are the scalar route's
    calls, real = [], experiments.sieve_rows

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(experiments, "sieve_rows", spy)
    fam = AlphaFamily.from_coords(5, [(3, 2), (2, 1), (7, 7)])
    ps = _primes_from(10**12 + 1, 2, 20, 5, -1)
    blocks, _, got_skipped = scan_blocks(fam, ps)
    assert [b.p.dtype for b in blocks] == [object]
    assert [n.dtype for n in calls] == [np.int64, np.int64]
    assert [n.tolist() for n in calls] == [[p - 1 for p in ps], [p + 1 for p in ps]]
    want, skipped = scalar_order_scan(fam, ps)
    assert records_of(blocks, fam.labels) == want and got_skipped == skipped == 0


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
    out = remark12_verify(fam, inert_up_to(5, 1000))
    assert out["violations"] == 0
    assert out["checked"] > 0


def test_remark12_sqrt_delta_member():
    fam = AlphaFamily.from_coords(2, [(0, 1)])
    out = remark12_verify(fam, inert_up_to(2, 500))
    assert out["violations"] == 0


def test_remark12_counts_skipped():
    # 7 divides the norm of 7 + 7 sqrt(5) and is counted; 11 splits and is not
    fam = AlphaFamily.from_coords(5, [(7, 7)])
    out = remark12_verify(fam, [7, 11, 13])
    assert out["skipped"] == 1
    assert out["checked"] == 1


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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0, 0.0])
def test_lemma42_rejects_grid_values_the_cli_rejects(bad):
    # the y domain of the CLI schema: finite and > 0
    with pytest.raises(ValueError, match=f"y_grid needs finite values > 0, got {bad}"):
        lemma42_scan([2, 3], 1000, [bad, 5])


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
    # a y past 2**63 caps the sizes at a Python int no int64 holds
    g = lemma42_scan([2, 3], 2000, y_grid=[1.0, 5000.0, 1e30])
    assert g.samples[0] == (1.0, 0)  # sizes are never below 1
    assert g.samples[1] == (5000.0, g.prime_count)  # all sizes < p <= x < y
    assert g.samples[2] == (1e30, g.prime_count)


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
    # lemma42_scan with a grid top of x keeps the sizes exact.
    monkeypatch.setattr(arith, "SEGMENT", 4096)
    x = 2 * 10**4
    ps = prime_array(x)
    ps = ps[[all(g % p for g in gens) for p in ps.tolist()]]
    assert x > 2 * arith.SEGMENT
    parts, real = [], experiments.subgroup_sizes

    def spy(*args):
        # a copy, as the counts sort the sizes in place
        parts.append(real(*args))
        return parts[-1].copy()

    monkeypatch.setattr(experiments, "subgroup_sizes", spy)
    lemma42_scan(gens, x, [float(x)])
    assert len(parts) == -(-(x - 1) // arith.SEGMENT)
    sizes = np.concatenate(parts)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [subgroup_size(p, gens) for p in ps.tolist()]
    if 2 in ps.tolist():
        assert sizes[0] == 1


def test_lemma42_powmod_calls_per_segment_are_bounded(monkeypatch):
    # A count, not a timing: each segment powers the first generator once
    # per band, the second once, the descent's start once per generator,
    # and then takes one step per round of the descent, at most e <=
    # floor(log2 x) of them, however many primes it holds.  Every segment
    # reaches powmod, and the counts are the exact ones.
    calls = []
    real = fp2.powmod

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fp2, "powmod", counted)
    x = 2 * 10**6
    fit = lemma42_scan([2, 3], x)
    segments = -(-(x - 1) // arith.SEGMENT)
    steps = x.bit_length() - 1
    assert segments <= len(calls) <= segments * (len(fp2.Q_EDGES) + 1 + 1 + 2 + steps)
    assert fit.prime_count == 148931
    assert [n for _, n in fit.samples] == [2, 6, 10, 18, 28, 53, 84, 136, 238, 401, 661,
                                           1105, 1858]


def test_subgroup_kernel_rejects_vanishing_generator():
    ps = np.array([5, 7, 11])
    with pytest.raises(ValueError):
        subgroup_sizes(ps, [2, 14], sieve_rows(ps - 1), 11)


def test_subgroup_kernel_descent_overrun_raises(monkeypatch):
    # A power routine that claims every g^((p-1)/q) is 1 and then never lets
    # the descent reach 1: the kernel must raise, not return a size, capped
    # or not.  The stub answers the fills, the descent's starts and its
    # steps: it returns 1 where the exponent k has (p-1)/k prime, as each
    # fill's (p-1)/q has, and 2 elsewhere.  The one row with e > 1 is q = 2
    # at p = 13, whose start g^3 and steps g^2 have cofactors 4 and 6, so
    # they stay at 2 until the descent passes e.
    def broken(base, exp, mod):
        exp, mod = np.broadcast_arrays(exp, mod)[:2]
        fill_test = [(m - 1) % k == 0 and is_prime((m - 1) // k)
                     for k, m in zip(exp.ravel().tolist(), mod.ravel().tolist())]
        return np.where(fill_test, 1, 2).astype(np.int64).reshape(mod.shape)

    monkeypatch.setattr(fp2, "powmod", broken)
    ps = np.array([7, 13])
    for cap in (13, 10**4):
        with pytest.raises(ArithmeticError):
            subgroup_sizes(ps, [2, 3], sieve_rows(ps - 1), cap)


@pytest.mark.parametrize(
    "gens",
    [(2, 3), (-3, 7), (5, 6), (2, 3, 5), (2**64 + 13, 3)],
    ids=["2,3", "-3,7", "5,6", "2,3,5", "2^64+13,3"],
)
def test_subgroup_kernel_cap_is_min_with_oracle(gens):
    # p = 2 is kept where no generator is even: p - 1 = 1 has no rows
    ps = prime_array(3 * 10**4)
    ps = ps[[all(g % p for g in gens) for p in ps.tolist()]]
    rows = sieve_rows(ps - 1)
    exact = [subgroup_size(p, gens) for p in ps.tolist()]
    for cap in (1, 2, 10, 1001, 10**4, int(ps.max()) - 1, 2**31, 2**62, 2**63, 2**80):
        sizes = subgroup_sizes(ps, gens, rows, cap)
        assert sizes.dtype == np.int64
        assert sizes.tolist() == [min(s, cap) for s in exact], cap
    assert subgroup_sizes(ps, gens, rows, int(ps.max())).tolist() == exact
    with pytest.raises(ValueError):
        subgroup_sizes(ps, gens, rows, 0)


@pytest.mark.parametrize("lo", [2**31 - 3000, 2**32 + 1, 10**12, 2**62 - 6000],
                         ids=["2^31", "2^32", "1e12", "2^62"])
def test_subgroup_kernel_exact_on_int64_primes_past_2_31(lo):
    # int64 primes from 2**31 on go onto Python ints, where int64 products
    # would wrap (from 2**32 on the descent overran): the sizes, capped and
    # exact, are the oracle's
    ps = primes_in_class(1, 1, lo, lo + 6000)
    gens = [2, 3]
    rows = sieve_rows(ps - 1)
    exact = [subgroup_size(p, gens) for p in ps.tolist()]
    for cap in (int(ps.max()), 1, 10**4, 2**40):
        sizes = subgroup_sizes(ps, gens, rows, cap)
        assert sizes.dtype == object and ps.dtype == np.int64 and ps.max() >= 2**31
        assert sizes.tolist() == [min(s, cap) for s in exact], cap


def test_subgroup_sizes_fill_through_the_scalar_ladder(monkeypatch):
    # One segment of primes past both generators, so every generator
    # residue is the generator itself: the first generator's fill in each
    # band, the second's one fill and the descent's start for each
    # generator all go through powmod's scalar ladder, one call each.
    # Every later call is a descent step, raising the rows' h to their
    # primes q; it takes the scalar ladder only if its h happen to be one
    # integer.
    ps = prime_array(arith.SEGMENT)
    ps = ps[ps > 3]
    rows = sieve_rows(ps - 1)
    powered, scalar = [], []
    real_powmod, real_ladder = fp2.powmod, arith._scalar_ladder

    def counted_powmod(base, exp, mod):
        powered.append(np.broadcast_arrays(base, exp))
        return real_powmod(base, exp, mod)

    def counted_ladder(b, k, exp, mod, top):
        scalar.append((len(powered) - 1, b))
        return real_ladder(b, k, exp, mod, top)

    monkeypatch.setattr(fp2, "powmod", counted_powmod)
    monkeypatch.setattr(arith, "_scalar_ladder", counted_ladder)
    sizes = subgroup_sizes(ps, [2, 3], rows, int(ps.max()))
    bands = len(fp2.Q_EDGES) + 1
    starts = bands + 1 + 2
    assert len(powered) > starts and all(x.size for _, x in powered)
    assert scalar[:starts] == list(enumerate([2] * bands + [3] + [2, 3]))
    _, q, e = rows
    descended = set(q[e > 1].tolist())
    assert all(set(x.tolist()) <= descended for _, x in powered[starts:])
    assert all(c >= starts and (powered[c][0] == b).all() for c, b in scalar[starts:])
    assert sizes[::97].tolist() == [subgroup_size(p, [2, 3]) for p in ps[::97].tolist()]


@pytest.mark.parametrize("lo", [2**26, 2**31 - 6000], ids=["2^26", "below 2^31"])
def test_subgroup_kernel_exact_where_the_scalar_window_narrows(lo):
    # near 2**26 the scalar ladder takes 3-bit windows for 2 and 2-bit ones
    # for 3; just below 2**31 it takes 1-bit windows for 2, and 3 goes
    # through the table ladder
    ps = primes_in_class(1, 1, lo, min(lo + 6000, 2**31 - 1))
    rows = sieve_rows(ps - 1)
    exact = [subgroup_size(p, [2, 3]) for p in ps.tolist()]
    for cap in (int(ps.max()), 10**4):
        sizes = subgroup_sizes(ps, [2, 3], rows, cap)
        assert sizes.dtype == np.int64
        assert sizes.tolist() == [min(s, cap) for s in exact], cap


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(1, 80), max_size=40), min_size=1, max_size=4),
       st.lists(st.floats(0.5, 60.0), min_size=1, max_size=6), st.booleans(), st.booleans())
def test_growth_counts_below_cap_equal_unfiltered(segments, grid, past, at_cap):
    # _segment_counts keeps only the sizes below cap: with every y at most
    # cap, y = cap included, and with a cap past every size, as lemma42's
    # is when the grid reaches x, the counts summed over the segments are
    # those of the uncapped sizes, unfiltered
    cap = math.ceil(max(grid + [100.0] if past else grid))
    y_grid = sorted(grid + [float(cap)] if at_cap else grid)
    sizes = iter([np.array([min(s, cap) for s in seg], dtype=np.int64) for seg in segments])
    with mock.patch.object(experiments, "subgroup_sizes", lambda *args: next(sizes)):
        parts = [experiments._segment_counts((2, 3), (2, 3), y_grid, cap,
                                             np.arange(5, 5 + len(seg), dtype=np.int64))
                 for seg in segments]
    flat = [s for seg in segments for s in seg]
    assert sum(n for _, n in parts) == len(flat)
    assert np.sum([c for c, _ in parts], axis=0).tolist() == [sum(s < y for s in flat)
                                                              for y in y_grid]


def test_lemma42_cap_skips_most_powers(monkeypatch):
    # the number of elements powmod powers, not a timing: with the cap at
    # the grid's 10**4 most primes settle on their large-q rows.  Below
    # 2 * 10**5 a prime needs nearly all of p - 1 to reach 10**4, so the
    # capped scan there still powers 80 %; to 2 * 10**6 it powers 51 %.
    powered = []

    def counting(base, exp, mod):
        powered.append(np.broadcast(base, exp, mod).size)
        return powmod(base, exp, mod)

    def uncapped(ps, gens, rows, cap):
        return subgroup_sizes(ps, gens, rows, int(ps.max(initial=1)))

    monkeypatch.setattr(fp2, "powmod", counting)
    capped = lemma42_scan([2, 3], 2 * 10**6)
    capped_work, powered[:] = sum(powered), []
    monkeypatch.setattr(experiments, "subgroup_sizes", uncapped)
    assert lemma42_scan([2, 3], 2 * 10**6) == capped
    assert 0 < capped_work <= 0.6 * sum(powered), (capped_work, sum(powered))


def test_lemma42_workers_identical(monkeypatch):
    # 2000-integer segments: the primes to 15000 span eight segments, so
    # _map runs them on the pool
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
    # inert primes of both classes mod 3 take d_minus, d_plus = 12, 2 or
    # 4, 6 by the class, as the scalar route does
    ps = inert_up_to(5, 2 * 10**4)
    assert {1, 2} <= set((ps % 3).tolist())
    tally, _ = tallied(fam3, ps, int(ps[-1]))
    assert counts_of(tally) == pigeonhole_counts(fam3, ps.tolist(), int(ps[-1]))


def test_pigeonhole_survivor_factor_bound(fam3):
    ps = primes_in_class(547, 720, 3, 10**5)
    tally, summary = tallied(fam3, ps, int(ps[-1]))
    # every class prime survives: all small primes divide 24 here
    assert tally.survivors == summary.prime_count
    assert counts_of(tally) == pigeonhole_counts(fam3, ps.tolist(), int(ps[-1]))
    assert tally.max_side_factors <= 7
    assert tally.members_needed == 6 * tally.max_side_factors + 1


def test_pigeonhole_frozen_counts(fam3):
    ps = primes_in_class(547, 720, 3, 10**5)
    tally, summary = tallied(fam3, ps, int(ps[-1]))
    assert summary.prime_count == tally.survivors == 50
    assert tally.threshold == 4
    assert tally.max_side_factors == 4
    assert tally.attained.tolist() == [[0, 46, 49], [46, 46, 38], [0, 47, 49]]


def test_pigeonhole_survivors_are_the_sieves(fam3):
    # the tally strikes q in (3, z) as sieve.survivor_mask strikes q < z
    # outside v: at x = 2e6 the sifting limit z = 7 is prime, and no class
    # prime has 5 in p^2 - 1, so every one of them survives both
    x = 2 * 10**6
    ps = primes_in_class(547, 720, 0, x)
    tally, scan = tallied(fam3, ps, x)
    assert tally.threshold == sieving_limit(x) == 7
    assert tally.survivors == survivor_count(SieveConfig(x, 547, 720, 7))
    assert tally.survivors == scan.prime_count == ps.size == 782


def test_pigeonhole_counts_bounded_by_rows(fam3):
    ps = primes_in_class(547, 720, 3, 3 * 10**4)
    tally, summary = tallied(fam3, ps, int(ps[-1]))
    assert ((0 <= tally.attained) & (tally.attained <= summary.prime_count)).all()
    assert counts_of(tally) == pigeonhole_counts(fam3, ps.tolist(), int(ps[-1]))


def test_pigeonhole_past_int64():
    # the inert primes just below 2**63, where p + 1 is the largest value
    # the row sieve takes: survivor and large-factor counts equal trial
    # division and factorize.  From 2**63 on order_scan takes no prime, as
    # a list, an object array or a uint64 array, which int64 would wrap.
    fam = AlphaFamily.from_coords(5, [(3, 2), (2, 1)])
    ps = [p for p in range(2**63 - 999, 2**63, 2) if is_prime(p) and jacobi(5, p) == -1]
    assert ps[-1] == 2**63 - 25
    tally, summary = tallied(fam, ps, ps[-1])
    assert summary.prime_count == len(ps)
    assert counts_of(tally) == pigeonhole_counts(fam, ps, ps[-1])
    assert 0 < tally.survivors < len(ps)
    for big in ([2**63 + 29], ps + [2**63 + 29], np.array([2**63 + 29], dtype=object),
                np.array([2**63 + 29], dtype=np.uint64)):
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            order_scan(fam, [big], [])


def test_pigeonhole_tally_memory_is_bounded():
    # the tally keeps counters, not one object per prime: a scan that feeds
    # it peaks within 0.5 MB of a plain scan, and the scan counts the same
    fam = AlphaFamily.from_coords(5, [(1, 1), (3, 2), (4, 1)])
    ps = inert_up_to(5, 10**6)
    tallied(fam, ps[:100], 10**6)
    tally = PigeonholeTally(fam, 10**6)
    peaks, scans = [], []
    for folds in ([], [tally.update]):
        tracemalloc.start()
        try:
            scans.append(ScanTally(fam))
            order_scan(fam, [ps], [scans[-1].update] + folds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**19, peaks
    assert scan_counts(scans[0]) == scan_counts(scans[1])
    assert tally.attained[2].tolist() == scans[1].attained_per_member.tolist()


def test_pigeonhole_too_many_large_factors_raises():
    # at x = 2 the threshold is 1, so 257 survives, and 257 - 1 = 2^8 has
    # 8 factors above it on one side
    fam = AlphaFamily.from_coords(5, [(2, 1), (3, 2)])
    with pytest.raises(InvariantError, match="257"):
        tallied(fam, [257], 2)
