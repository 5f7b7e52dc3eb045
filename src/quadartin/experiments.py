"""Order experiments over families of quadratic integers: per-prime order
profiles, attainment statistics for the (p^2 - 1)/24 threshold, exact
multiplicative-independence verdicts, subgroup growth counts, and the
pigeonhole bookkeeping that splits p^2 - 1 into its p - 1 and p + 1 sides.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import arith
from .arith import (
    POWMOD_LIMIT,
    _segments,
    factorize,
    jacobi,
    powmod,
    primes_in_class,
    residues,
    sieve_rows,
    trial_rows,
)
from .construction import InvariantError
from .fp2 import (
    Fp2Context,
    OrderChainError,
    Rows,
    descend,
    order_arrays,
    order_record,
)
from .quadfield import FieldContext, QuadElem, norm
from .sieve import sieving_limit, survivor_mask

log = logging.getLogger(__name__)


class RemarkViolation(AssertionError):
    """An order-chain identity failed at a specific (p, element) pair."""

    def __init__(self, p: int, label: str, detail: str):
        self.p = p
        self.label = label
        self.detail = detail
        super().__init__(f"order chain broken at p = {p}, member {label}: {detail}")

    def __reduce__(self):
        # args holds only the message; rebuild from the three fields so a
        # violation raised in a pool worker reaches the parent intact.
        return type(self), (self.p, self.label, self.detail)


class DependentGenerators(ValueError):
    """A generator set expected to be independent admits a relation."""

    def __init__(self, relation: Tuple[int, ...]):
        self.relation = relation
        super().__init__(f"generators admit the relation {relation}")


@dataclass(frozen=True)
class AlphaFamily:
    """A labelled family of integral elements, all nonzero with nonzero norm."""

    ctx: FieldContext
    members: Tuple[QuadElem, ...]
    labels: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.members:
            raise ValueError("empty family")
        for a in self.members:
            if a.ctx.delta != self.ctx.delta:
                raise ValueError("member from a different field")
            if not a.is_integral:
                raise ValueError(f"non-integral member {a}")
            if a.is_zero() or norm(a) == 0:
                raise ValueError(f"member {a} is zero or has zero norm")
        if not self.labels:
            object.__setattr__(
                self,
                "labels",
                tuple(f"{int(a.x)}+{int(a.y)}r{self.ctx.delta}" for a in self.members),
            )
        if len(self.labels) != len(self.members):
            raise ValueError("labels do not match members")

    @classmethod
    def from_coords(cls, delta: int, coords: Sequence[Sequence[int]]) -> "AlphaFamily":
        ctx = FieldContext(delta)
        return cls(ctx, tuple(ctx.integer(x, y) for x, y in coords))

    @cached_property
    def norms(self) -> Tuple[int, ...]:
        """Integer norms of the members, in member order."""
        return tuple(int(norm(a)) for a in self.members)


# Primes per block of the scan's order kernel: bounds the (prime, q, e) row
# arrays, and with them the kernel's memory, whatever prime_max is.
PRIME_BLOCK = 2**13


def _ramified_split(delta: int, ps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the int64 primes ps < 2**31 that are 2 or ramify, and of the
    others that split: delta is a square mod p, by Euler's criterion."""
    dm = residues(delta, ps)
    ramified = (ps == 2) | (dm == 0)
    split = ~ramified & (powmod(dm, (ps - 1) // 2, ps) != ps - 1)
    return ramified, split


def inert_primes(ctx: FieldContext, lo: int, hi: int) -> List[int]:
    """Odd inert primes in [lo, hi] for the field, filtered segment by
    segment.  Ramified primes have (delta|p) = 0 and are left out with the
    split ones."""
    out: List[int] = []
    for ps in _segments(max(lo, 3), hi):
        small = ps[ps < POWMOD_LIMIT]
        ramified, split = _ramified_split(ctx.delta, small)
        out += small[~(ramified | split)].tolist()
        out += [p for p in ps[small.size :].tolist() if jacobi(ctx.delta, p) == -1]
    return out


def congruence_primes(u: int, v: int, lo: int, hi: int) -> List[int]:
    """Primes p = u (mod v) in [lo, hi]."""
    return primes_in_class(u, v, lo, hi).tolist()


@dataclass(frozen=True)
class ScanSummary:
    """Aggregates of one order scan."""

    prime_count: int
    skipped: int
    labels: Tuple[str, ...]
    attained_per_member: Tuple[int, ...]
    attained_family: int
    index_histogram: Dict[int, int]

    def __post_init__(self):
        if self.attained_per_member and self.prime_count >= 0:
            best = max(self.attained_per_member)
            if self.attained_family < best or self.attained_family > self.prime_count:
                raise ValueError("family attainment count out of range")

    @property
    def fractions(self) -> Tuple[float, ...]:
        if self.prime_count == 0:
            return tuple(0.0 for _ in self.attained_per_member)
        return tuple(c / self.prime_count for c in self.attained_per_member)

    @property
    def family_fraction(self) -> float:
        return self.attained_family / self.prime_count if self.prime_count else 0.0


class OrderBlock(NamedTuple):
    """Orders at the usable primes of one block of a scan.  p holds those
    primes; ord_alpha, ord_n, ord_m and attained have one row per prime and
    one column per member; skipped counts the block's other primes.  The
    arrays are int64 below 2**31 and hold Python ints past it."""

    p: np.ndarray
    ord_alpha: np.ndarray
    ord_n: np.ndarray
    ord_m: np.ndarray
    attained: np.ndarray
    skipped: int


def _order_pass(family: AlphaFamily, plist: List[int]) -> Iterator[OrderBlock]:
    """The one pass behind every scan, over the ascending primes plist in
    blocks of PRIME_BLOCK: the array kernel below 2**31, order_record past
    it.  A broken order chain raises RemarkViolation at the first failing
    (p, member) in (p, member) order."""
    cut = bisect.bisect_left(plist, POWMOD_LIMIT)
    small = np.array(plist[:cut], dtype=np.int64)
    for lo in range(0, cut, PRIME_BLOCK):
        yield _kernel_block(family, small[lo : lo + PRIME_BLOCK])
    for lo in range(cut, len(plist), PRIME_BLOCK):
        yield _scalar_block(family, plist[lo : lo + PRIME_BLOCK])


def _kernel_block(family: AlphaFamily, ps: np.ndarray) -> OrderBlock:
    """One block of int64 primes below 2**31 through the array kernel."""
    ramified, split = _ramified_split(family.ctx.delta, ps)
    divides = ~(ramified | split) & np.any(
        [residues(n, ps) == 0 for n in family.norms], axis=0
    )
    skip = ramified | split | divides
    log.debug("skipping %d primes: %d p = 2 or ramified, %d split, %d divide a member norm",
              skip.sum(), ramified.sum(), split.sum(), divides.sum())
    p = ps[~skip]
    # the outputs are allocated before the kernel's temporaries, so the
    # heap those used can be given back once they are freed
    shape = (p.size, len(family.members))
    ord_alpha, ord_n, ord_m = (np.empty(shape, dtype=np.int64) for _ in range(3))
    attained, chain_ok = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    d = residues(family.ctx.delta, p)
    minus, plus = trial_rows(p - 1), trial_rows(p + 1)
    for m, a in enumerate(family.members):
        c0, c1 = residues(int(a.x), p), residues(int(a.y), p)
        (ord_alpha[:, m], ord_n[:, m], ord_m[:, m], attained[:, m],
         chain_ok[:, m]) = order_arrays(c0, c1, p, d, minus, plus)
    if not chain_ok.all():
        j, m = np.argwhere(~chain_ok)[0]
        raise RemarkViolation(
            int(p[j]),
            family.labels[m],
            f"ord_N = {ord_n[j, m]}, ord_M = {ord_m[j, m]} and ord_alpha = "
            f"{ord_alpha[j, m]} break the order chain at p = {p[j]}",
        )
    return OrderBlock(p, ord_alpha, ord_n, ord_m, attained, int(skip.sum()))


def _scalar_block(family: AlphaFamily, ps: List[int]) -> OrderBlock:
    """The same block from order_record, for primes past the kernel's bound."""
    delta = family.ctx.delta
    usable = [p for p in ps if p != 2 and delta % p and jacobi(delta, p) == -1
              and all(n % p for n in family.norms)]
    recs = []
    for p in usable:
        fctx = Fp2Context.for_prime(p, family.ctx)
        for label, a in zip(family.labels, family.members):
            try:
                recs.append(order_record(a, fctx))
            except OrderChainError as e:
                raise RemarkViolation(p, label, str(e)) from e
    cols = [np.array([getattr(r, f) for r in recs], dtype=bool if f == "attained" else object)
            .reshape(-1, len(family.members)) for f in ("ord_alpha", "ord_n", "ord_m", "attained")]
    return OrderBlock(np.array(usable, dtype=object), *cols, len(ps) - len(usable))


def _scan_blocks(args) -> List[OrderBlock]:
    return list(_order_pass(*args))


def order_scan(
    family: AlphaFamily,
    primes: Iterable[int],
    workers: int = 1,
) -> Tuple[List[OrderBlock], ScanSummary]:
    """Order profile of every family member at every usable prime, as the
    blocks of the scan pass in ascending order of p, and their summary.

    Primes that are not inert, ramify, or divide some member's norm are
    skipped (logged and counted), not fatal.
    """
    plist = sorted(set(int(p) for p in primes))
    # Measured on dense scans: two workers lose on one block of primes (to
    # 1e5) and win on several (to 1e6).
    if workers > 1 and len(plist) > PRIME_BLOCK:
        size = -(-len(plist) // workers)
        args = [(family, plist[i : i + size]) for i in range(0, len(plist), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = [b for part in pool.map(_scan_blocks, args) for b in part]
    else:
        blocks = list(_order_pass(family, plist))
    per_member = np.zeros(len(family.labels), dtype=np.int64)
    prime_count = skipped = family_attained = 0
    histogram: Counter = Counter()
    for b in blocks:
        prime_count += b.p.size
        skipped += b.skipped
        per_member += b.attained.sum(axis=0)
        family_attained += int(b.attained.any(axis=1).sum())
        histogram.update(((b.p * b.p - 1)[:, None] // b.ord_alpha).ravel().tolist())
    summary = ScanSummary(
        prime_count,
        skipped,
        family.labels,
        tuple(per_member.tolist()),
        family_attained,
        dict(histogram),
    )
    return blocks, summary


# ---------------------------------------------------------------------------
# multiplicative independence

@dataclass(frozen=True)
class IndependenceVerdict:
    """Outcome of an independence check.  relation, when present, is a
    nonzero integer exponent vector with product exactly +-1 (rational case)
    or exactly 1 (norm-one case)."""

    independent: bool
    relation: Optional[Tuple[int, ...]] = None
    search_bound: Optional[int] = None


def _exponent_matrix(values: Sequence[Fraction]) -> Tuple[List[List[int]], List[int]]:
    primes: List[int] = []
    rows = []
    for val in values:
        num = factorize(abs(val.numerator))
        den = factorize(val.denominator)
        exps: Dict[int, int] = {p: e for p, e in num.factors}
        for p, e in den.factors:
            exps[p] = exps.get(p, 0) - e
        for p in exps:
            if p not in primes:
                primes.append(p)
        rows.append(exps)
    primes.sort()
    return [[r.get(p, 0) for p in primes] for r in rows], primes


def _kernel_vector(mat: List[List[int]]) -> Optional[Tuple[int, ...]]:
    """A nonzero integer vector e with sum(e_i * row_i) = 0, or None."""
    k = len(mat)
    m = len(mat[0]) if mat else 0
    # Row reduce [mat | I] over Q; a zero row in the mat part exposes a kernel
    # vector in the identity part.
    aug = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(k)]
        for i, row in enumerate(mat)
    ]
    pivot_row = 0
    for col in range(m):
        sel = None
        for r in range(pivot_row, k):
            if aug[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        aug[pivot_row], aug[sel] = aug[sel], aug[pivot_row]
        pv = aug[pivot_row][col]
        aug[pivot_row] = [x / pv for x in aug[pivot_row]]
        for r in range(k):
            if r != pivot_row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
        if pivot_row == k:
            break
    for r in range(pivot_row, k):
        if all(x == 0 for x in aug[r][:m]):
            tail = aug[r][m:]
            denom = math.lcm(*(x.denominator for x in tail))
            ints = [int(x * denom) for x in tail]
            g = math.gcd(*(abs(t) for t in ints))
            ints = [t // g for t in ints]
            lead = next(t for t in ints if t != 0)
            if lead < 0:
                ints = [-t for t in ints]
            return tuple(ints)
    return None


def mult_indep_rational(values: Sequence[Fraction]) -> IndependenceVerdict:
    """Exact multiplicative independence of nonzero rationals, by the rank
    of their prime-exponent matrix over Q.  Signs are ignored, so a returned
    relation has product +1 or -1; it is re-verified exactly before return.
    """
    vals = [Fraction(v) for v in values]
    if not vals:
        raise ValueError("empty input")
    for i, v in enumerate(vals):
        if v == 0:
            raise ValueError("zero is not allowed")
        if v == 1 or v == -1:
            rel = tuple(1 if j == i else 0 for j in range(len(vals)))
            return IndependenceVerdict(False, rel)
    mat, _ = _exponent_matrix(vals)
    rel = _kernel_vector(mat)
    if rel is None:
        return IndependenceVerdict(True)
    prod = Fraction(1)
    for v, e in zip(vals, rel):
        prod *= v**e
    if prod not in (1, -1):
        raise InvariantError(f"relation {rel} does not verify")
    return IndependenceVerdict(False, rel)


def mult_indep_norm_one(
    values: Sequence[QuadElem], bound: int = 10
) -> IndependenceVerdict:
    """Bounded relation search among norm-one field elements.

    Exhausts exponent vectors with |e_i| <= bound (real-logarithm screening
    first, exact Fraction verification after).  Either returns the first
    relation with product exactly 1, or reports independence up to the
    bound.  Inverses are conjugates here, so the exact check is cheap.
    """
    if not values:
        raise ValueError("empty input")
    for v in values:
        if norm(v) != 1:
            raise ValueError(f"norm of {v} is {norm(v)}, need 1")
        if v.y == 0 and abs(v.x) == 1:
            raise ValueError(f"{v} is a unit of finite order, not allowed")
    k = len(values)
    sq = math.sqrt(values[0].ctx.delta)
    logs = [math.log(abs(float(v.x) + float(v.y) * sq)) for v in values]
    scale = max(max(abs(t) for t in logs), 1.0)
    one = values[0].ctx.element(1, 0)
    for e in itertools.product(range(-bound, bound + 1), repeat=k):
        if all(t == 0 for t in e):
            continue
        first = next(t for t in e if t != 0)
        if first < 0:
            continue  # -e covers it
        if abs(math.fsum(t * l for t, l in zip(e, logs))) > 1e-6 * scale * bound:
            continue
        prod = one
        for v, t in zip(values, e):
            prod = prod * v**t
        if prod.x == 1 and prod.y == 0:
            return IndependenceVerdict(False, tuple(e), bound)
    return IndependenceVerdict(True, None, bound)


# ---------------------------------------------------------------------------
# subgroup growth

@dataclass(frozen=True)
class GrowthFit:
    """Counts N(y) = #{p <= x : |<gens> mod p| < y} on a grid of y values,
    with the least-squares slope of log N against log y."""

    x: int
    gens: Tuple[int, ...]
    samples: Tuple[Tuple[float, int], ...]
    slope: float
    prime_count: int


def lemma42_scan(
    gens: Sequence[int],
    x: int,
    y_grid: Optional[Sequence[float]] = None,
    workers: int = 1,
) -> GrowthFit:
    """Tabulate how often the reduction of a fixed independent generator set
    spans a small subgroup.  The generators must be multiplicatively
    independent integers; primes dividing any generator are skipped.
    """
    verdict = mult_indep_rational([Fraction(g) for g in gens])
    if not verdict.independent:
        raise DependentGenerators(verdict.relation)
    if y_grid is None:
        y_grid = [float(t) for t in np.geomspace(10.0, 1e4, 13)]
    y_grid = sorted(float(y) for y in y_grid)

    bad = tuple(q for g in gens for q in factorize(abs(g)).primes)
    # whole segments are dealt round-robin, so every worker sieves its own
    if workers > 1 and x >= 2 + arith.SEGMENT:
        args = [(tuple(gens), bad, x, y_grid, w, workers) for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_growth_counts, args))
    else:
        parts = [_growth_counts((tuple(gens), bad, x, y_grid, 0, 1))]
    counts = np.sum([c for c, _ in parts], axis=0).tolist()
    prime_count = sum(n for _, n in parts)

    samples = tuple(zip(y_grid, counts))
    pts = [(math.log(y), math.log(n)) for y, n in samples if n > 0]
    if len(pts) >= 2:
        xs = np.array([t[0] for t in pts])
        ys = np.array([t[1] for t in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return GrowthFit(x, tuple(gens), samples, slope, prime_count)


def _segment_sizes(gens: Sequence[int], bad: Sequence[int], x: int, first: int = 0,
                   step: int = 1) -> Iterator[np.ndarray]:
    """|<gens> mod p| for the primes p <= x of each segment first, first +
    step, ..., those dividing a generator (bad) left out: the rows of p - 1
    come from sieving the same segment."""
    for ps in _segments(2, x, first, step):
        ps = ps[~np.isin(ps, bad)]
        yield subgroup_sizes(ps, gens, sieve_rows(ps - 1))


def _growth_counts(args) -> Tuple[np.ndarray, int]:
    """N(y) for each y of y_grid, and the number of primes, over one share
    of the segments."""
    gens, bad, x, y_grid, first, step = args
    counts = np.zeros(len(y_grid), dtype=np.int64)
    prime_count = 0
    for sizes in _segment_sizes(gens, bad, x, first, step):
        sizes.sort()
        counts += np.searchsorted(sizes, y_grid, side="left")
        prime_count += sizes.size
    return counts, prime_count


def subgroup_sizes(ps: np.ndarray, gens: Sequence[int], rows: Rows) -> np.ndarray:
    """|<gens> mod p| for every prime p in the int64 array ps (each p < 2**31),
    from the prime-power rows (i, q, e) of ps - 1, by the descent from the
    factored group order p - 1 run on all primes at once.

    For each prime-power row q**e || p - 1 the subgroup's q-part is q**e as
    soon as one generator has g**((p-1)/q) != 1.  Otherwise each generator's
    h = g**((p-1)/q**e) reaches 1 after k <= e - 1 q-th powers and the
    q-part is q**max(k).  A descent that has not reached 1 after e steps
    raises ArithmeticError rather than return a wrong size.
    """
    ps = np.asarray(ps, dtype=np.int64)
    res = np.stack([residues(g, ps) for g in gens])
    hit = np.flatnonzero((res == 0).any(axis=0))
    if hit.size:
        raise ValueError(f"a generator vanishes mod {int(ps[hit[0]])}")
    i, q, e = rows
    p = ps[i]
    full = np.zeros(i.size, dtype=bool)
    for g_res in res:
        # a later generator is powered only on the rows still open
        r = np.flatnonzero(~full)
        full[r] = powmod(g_res[i[r]], (p[r] - 1) // q[r], p[r]) != 1
    k = np.where(full, e, 0)

    # descent on the rows no generator fills; with e = 1 such a row's h
    # is already 1, so its k stays 0
    d = np.flatnonzero(~full & (e > 1))
    pd, qd, ed = p[d], q[d], e[d]
    for g_res in res[:, i[d]]:
        h = powmod(g_res, (pd - 1) // qd**ed, pd)
        steps = descend(h, pd, qd, ed, lambda h, r: powmod(h, qd[r], pd[r]), lambda h: h == 1)
        k[d] = np.maximum(k[d], steps)

    sizes = np.ones(ps.size, dtype=np.int64)
    np.multiply.at(sizes, i, q**k)
    return sizes


# ---------------------------------------------------------------------------
# pigeonhole bookkeeping

def _rows_of(n: np.ndarray) -> Rows:
    """The (i, q, e) rows of n: by trial division for int64 n, by factorize
    for Python ints past the kernel's bound."""
    if n.dtype != object:
        return trial_rows(n)
    flat = [(i, q, e) for i, x in enumerate(n.tolist()) for q, e in factorize(x).factors]
    return tuple(np.array(flat, dtype=np.int64).reshape(-1, 3).T)


@dataclass(frozen=True)
class PigeonholeRow:
    """Per-prime split of p^2 - 1 into its two sides."""

    p: int
    survivor: bool
    d_minus: int
    d_plus: int
    m_minus: int
    m_plus: int
    d_minus_divides: bool
    d_plus_divides: bool


@dataclass(frozen=True)
class PigeonholeReport:
    """How the two sides of p^2 - 1 carry the order threshold.

    Component attainment asks for ord_n * d_minus >= p - 1 (norm side) and
    ord_m * d_plus >= p + 1 (ratio side); full attainment is the usual
    24 * ord_alpha >= p^2 - 1.  All three are tabulated per member, none is
    derived from another.
    """

    threshold: int
    rows: Tuple[PigeonholeRow, ...]
    labels: Tuple[str, ...]
    minus_attained: Tuple[int, ...]
    plus_attained: Tuple[int, ...]
    full_attained: Tuple[int, ...]
    max_side_factors: int

    @property
    def members_needed(self) -> int:
        """Pigeonhole demand implied by the observed worst split: six
        holes per large prime factor, one spare."""
        return 6 * self.max_side_factors + 1


def pigeonhole_report(
    family: AlphaFamily,
    primes: Iterable[int],
    x: Optional[int] = None,
    delta1: float = 0.01,
    v_excluded: int = 24,
) -> PigeonholeReport:
    """Tabulate, for each usable prime, the side parameters d_- and d_+
    (4 and 6, or 12 and 2, by p mod 3), the number of prime factors above
    the trial threshold on each side, and which members attain the
    component and full thresholds.

    Survivors (p^2 - 1 free of primes up to the threshold outside
    v_excluded) must have at most 7 large factors per side, else
    InvariantError; everything else is only measured.
    """
    plist = sorted(set(int(p) for p in primes))
    if x is None:
        x = max(plist) if plist else 2
    threshold = sieving_limit(x, delta1)
    rows: List[PigeonholeRow] = []
    k = len(family.members)
    minus_att = np.zeros(k, dtype=np.int64)
    plus_att = np.zeros(k, dtype=np.int64)
    full_att = np.zeros(k, dtype=np.int64)
    max_m = 0
    for b in _order_pass(family, plist):
        p = b.p
        # prime factors above the threshold, with multiplicity, per side
        m_minus, m_plus = (
            np.bincount(i, e * (q > threshold), minlength=p.size).astype(np.int64)
            for i, q, e in (_rows_of(p - 1), _rows_of(p + 1))
        )
        survivor = survivor_mask(p, threshold + 1, v_excluded)
        worst = np.maximum(m_minus, m_plus)
        over = np.flatnonzero(survivor & (worst > 7))
        if over.size:
            j = over[0]
            raise InvariantError(f"survivor p = {p[j]} has {worst[j]} large factors on one side")
        max_m = max(max_m, int(worst[survivor].max(initial=0)))
        one_mod_3 = (p % 3 == 1).astype(bool)
        d_minus = np.where(one_mod_3, 12, 4)
        d_plus = np.where(one_mod_3, 2, 6)
        cols = (p, survivor, d_minus, d_plus, m_minus, m_plus,
                (p - 1) % d_minus == 0, (p + 1) % d_plus == 0)
        rows += [PigeonholeRow(*r) for r in zip(*(c.tolist() for c in cols))]
        minus_att += (b.ord_n * d_minus[:, None] >= (p - 1)[:, None]).astype(bool).sum(axis=0)
        plus_att += (b.ord_m * d_plus[:, None] >= (p + 1)[:, None]).astype(bool).sum(axis=0)
        full_att += b.attained.sum(axis=0)
    return PigeonholeReport(
        threshold,
        tuple(rows),
        family.labels,
        tuple(minus_att.tolist()),
        tuple(plus_att.tolist()),
        tuple(full_att.tolist()),
        max_m,
    )
