"""Order experiments over families of quadratic integers: per-prime order
profiles, attainment statistics for the (p^2 - 1)/24 threshold, exact
multiplicative-independence verdicts, subgroup growth counts, and the
pigeonhole bookkeeping that splits p^2 - 1 into its p - 1 and p + 1 sides.
"""

from __future__ import annotations

import itertools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .arith import (
    factor_rows,
    factorize,
    jacobi,
    powmod,
    prime_array,
    primes_in_class,
    residues,
    smallest_factor_table,
)
from .construction import InvariantError
from .fp2 import Fp2Context, OrderChainError, OrderRecord, order_record
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


def inert_primes(ctx: FieldContext, lo: int, hi: int) -> List[int]:
    """Odd inert primes in [lo, hi] for the field.  Ramified primes have
    (delta|p) = 0 and are left out with the split ones."""
    ps = prime_array(hi)
    odd = ps[np.searchsorted(ps, max(lo, 3)) :].tolist()
    return [p for p in odd if jacobi(ctx.delta, p) == -1]


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


def _order_pass(
    family: AlphaFamily, primes: Iterable[int]
) -> Iterator[Tuple[int, Optional[Fp2Context], List[OrderRecord]]]:
    """The one per-prime pass behind every scan.

    Yields (p, context, records) with one order record per member, each
    checked against the order chain as it is computed, or (p, None, [])
    for a prime that is 2 or ramified, splits, or divides a member's norm.
    A broken chain raises RemarkViolation naming the prime and member.
    """
    field = family.ctx
    delta = field.delta
    for p in primes:
        if p == 2 or delta % p == 0:
            why = "p = 2 or ramified"
        elif jacobi(delta, p) != -1:
            why = "split"
        elif any(n % p == 0 for n in family.norms):
            why = "divides a member norm"
        else:
            why = None
        if why is not None:
            log.debug("skipping p = %d (%s)", p, why)
            yield p, None, []
            continue
        fctx = Fp2Context.for_prime(p, field)
        recs = []
        for label, a in zip(family.labels, family.members):
            try:
                recs.append(order_record(a, fctx))
            except OrderChainError as e:
                raise RemarkViolation(p, label, str(e)) from e
        yield p, fctx, recs


def _scan_block(args) -> List[Tuple[int, int, Optional[OrderRecord]]]:
    family, primes = args
    rows: List[Tuple[int, int, Optional[OrderRecord]]] = []
    for p, fctx, recs in _order_pass(family, primes):
        if fctx is None:
            rows.append((p, -1, None))
        rows.extend((p, i, r) for i, r in enumerate(recs))
    return rows


def order_scan(
    family: AlphaFamily,
    primes: Iterable[int],
    workers: int = 1,
) -> Tuple[List[Tuple[str, OrderRecord]], ScanSummary]:
    """Order profile of every family member at every usable prime.

    Primes that are not inert, ramify, or divide some member's norm are
    skipped (logged and counted), not fatal.  Records come back sorted by
    (p, member position) regardless of worker count.
    """
    plist = sorted(set(int(p) for p in primes))
    if workers > 1 and len(plist) > 64:
        chunks = [plist[i::workers] for i in range(workers)]
        args = [(family, c) for c in chunks if c]
        rows: List[Tuple[int, int, Optional[OrderRecord]]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_scan_block, args):
                rows.extend(part)
    else:
        rows = _scan_block((family, plist))
    rows.sort(key=lambda r: (r[0], r[1]))

    records: List[Tuple[str, OrderRecord]] = []
    per_member = [0] * len(family.members)
    family_attained = 0
    histogram: Dict[int, int] = {}
    skipped = 0
    seen_primes = set()
    attained_primes = set()
    for p, i, rec in rows:
        if rec is None:
            skipped += 1
            continue
        seen_primes.add(p)
        records.append((family.labels[i], rec))
        if rec.attained:
            per_member[i] += 1
            attained_primes.add(p)
        idx = (p * p - 1) // rec.ord_alpha
        histogram[idx] = histogram.get(idx, 0) + 1
    summary = ScanSummary(
        len(seen_primes),
        skipped,
        family.labels,
        tuple(per_member),
        len(attained_primes),
        histogram,
    )
    return records, summary


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

    ps = prime_array(x)
    bad = [q for g in gens for q in factorize(abs(g)).primes]
    keep = ps[~np.isin(ps, bad)]
    if workers > 1 and keep.size > 1000:
        chunks = [(tuple(gens), x, keep[i::workers]) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            sizes = np.concatenate(list(pool.map(_subgroup_block, chunks)))
    else:
        sizes = _subgroup_block((tuple(gens), x, keep))
    sizes.sort()

    counts = np.searchsorted(sizes, y_grid, side="left").tolist()
    samples = tuple(zip(y_grid, counts))
    pts = [(math.log(y), math.log(n)) for y, n in samples if n > 0]
    if len(pts) >= 2:
        xs = np.array([t[0] for t in pts])
        ys = np.array([t[1] for t in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return GrowthFit(x, tuple(gens), samples, slope, int(keep.size))


# Primes per kernel block: bounds the (prime, q, e) row arrays, and with
# them the kernel's memory, whatever prime_max is.
SUBGROUP_BLOCK = 2**13


def _subgroup_block(args) -> np.ndarray:
    gens, x, ps = args
    spf = smallest_factor_table(x)
    sizes = np.empty(ps.size, dtype=np.int64)
    for lo in range(0, ps.size, SUBGROUP_BLOCK):
        block = ps[lo : lo + SUBGROUP_BLOCK]
        sizes[lo : lo + block.size] = subgroup_sizes(block, gens, spf)
    return sizes


def subgroup_sizes(ps: np.ndarray, gens: Sequence[int], spf: np.ndarray) -> np.ndarray:
    """|<gens> mod p| for every prime p in the int64 array ps (each p < 2**31
    and inside the smallest-factor table spf), by the descent from the
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
    i, q, e = factor_rows(ps - 1, spf)
    p = ps[i]
    full = np.zeros(i.size, dtype=bool)
    for g_res in res:
        # a later generator is powered only on the rows still open
        r = np.flatnonzero(~full)
        full[r] = powmod(g_res[i[r]], (p[r] - 1) // q[r], p[r]) != 1
    k = np.where(full, e, 0)

    # descent on the rows no generator fills
    d = np.flatnonzero(~full)
    pd, qd, ed = p[d], q[d], e[d]
    for g_res in res[:, i[d]]:
        h = powmod(g_res, (pd - 1) // qd**ed, pd)
        steps = np.zeros(d.size, dtype=np.int64)
        live = np.flatnonzero(h != 1)
        while live.size:
            over = live[steps[live] >= ed[live]]
            if over.size:
                r = over[0]
                raise ArithmeticError(
                    f"descent for q = {int(qd[r])} at p = {int(pd[r])} "
                    f"exceeds e = {int(ed[r])} steps"
                )
            h[live] = powmod(h[live], qd[live], pd[live])
            steps[live] += 1
            live = live[h[live] != 1]
        k[d] = np.maximum(k[d], steps)

    sizes = np.ones(ps.size, dtype=np.int64)
    np.multiply.at(sizes, i, q**k)
    return sizes


# ---------------------------------------------------------------------------
# pigeonhole bookkeeping

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
    minus_att = [0] * k
    plus_att = [0] * k
    full_att = [0] * k
    max_m = 0
    survivors = survivor_mask(np.array(plist, dtype=np.int64), threshold + 1, v_excluded)
    is_survivor = dict(zip(plist, survivors.tolist()))
    for p, fctx, recs in _order_pass(family, plist):
        if fctx is None:
            continue
        if p % 3 == 1:
            d_minus, d_plus = 12, 2
        else:
            d_minus, d_plus = 4, 6
        m_minus = sum(
            e for q, e in fctx.fact_pm1.factors if q > threshold
        )
        m_plus = sum(e for q, e in fctx.fact_pp1.factors if q > threshold)
        survivor = is_survivor[p]
        if survivor:
            if m_minus > 7 or m_plus > 7:
                raise InvariantError(
                    f"survivor p = {p} has {max(m_minus, m_plus)} large factors on one side"
                )
            max_m = max(max_m, m_minus, m_plus)
        rows.append(
            PigeonholeRow(
                p,
                survivor,
                d_minus,
                d_plus,
                m_minus,
                m_plus,
                (p - 1) % d_minus == 0,
                (p + 1) % d_plus == 0,
            )
        )
        for i, r in enumerate(recs):
            if r.ord_n * d_minus >= p - 1:
                minus_att[i] += 1
            if r.ord_m * d_plus >= p + 1:
                plus_att[i] += 1
            if r.attained:
                full_att[i] += 1
    return PigeonholeReport(
        threshold,
        tuple(rows),
        family.labels,
        tuple(minus_att),
        tuple(plus_att),
        tuple(full_att),
        max_m,
    )
