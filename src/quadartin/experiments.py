"""Order experiments over families of quadratic integers: per-prime order
profiles, attainment statistics for the (p^2 - 1)/24 threshold, exact
multiplicative-independence verdicts, subgroup growth counts, and the
pigeonhole bookkeeping that splits p^2 - 1 into its p - 1 and p + 1 sides.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .arith import _segments, exact_ints, factorize, powmod, residues, sieve_rows
from .errors import DependentGenerators, InvariantError, RemarkViolation
from .fp2 import Rows, _orders, order_arrays
from .quadfield import FieldContext, QuadElem, norm


@dataclass(frozen=True)
class AlphaFamily:
    """A family of integral elements, all nonzero with nonzero norm."""

    ctx: FieldContext
    members: Tuple[QuadElem, ...]

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

    @classmethod
    def from_coords(cls, delta: int, coords: Sequence[Sequence[int]]) -> "AlphaFamily":
        ctx = FieldContext(delta)
        return cls(ctx, tuple(ctx.integer(x, y) for x, y in coords))

    @cached_property
    def labels(self) -> Tuple[str, ...]:
        """The members as x+yr<delta>, in member order."""
        return tuple(f"{int(a.x)}+{int(a.y)}r{self.ctx.delta}" for a in self.members)

    @cached_property
    def norms(self) -> Tuple[int, ...]:
        """Integer norms of the members, in member order."""
        return tuple(int(norm(a)) for a in self.members)


# Primes per block of the scan's order kernel: bounds the (prime, q, e) row
# arrays, and with them the kernel's memory, whatever prime_max is.
PRIME_BLOCK = 2**13


class OrderBlock(NamedTuple):
    """Orders at the usable primes of one block of a scan.  p holds those
    primes; ord_alpha, ord_n, ord_m and attained have one row per prime and
    one column per member.  p and the orders take the dtype arith.exact_ints
    gives the block's primes."""

    p: np.ndarray
    ord_alpha: np.ndarray
    ord_n: np.ndarray
    ord_m: np.ndarray
    attained: np.ndarray


def _kernel_block(family: AlphaFamily, p: np.ndarray) -> OrderBlock:
    """One block of usable int64 primes through the array kernel: the rows
    of p -+ 1 in int64, the orders in exact_ints' dtype."""
    minus, plus = sieve_rows(p - 1), sieve_rows(p + 1)
    p = exact_ints(p)
    # the outputs are allocated before the kernel's temporaries, so the
    # heap those used can be given back once they are freed
    shape = (p.size, len(family.members))
    ord_alpha, ord_n, ord_m = (np.empty(shape, dtype=p.dtype) for _ in range(3))
    attained, chain_ok = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    d = residues(family.ctx.delta, p)
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
    return OrderBlock(p, ord_alpha, ord_n, ord_m, attained)


def _map(fn, items: Iterable, workers: int) -> Iterator:
    """fn(t) for each t of items, any iterable, yielded in order and drawn
    lazily: inline when workers is 1 or items holds fewer than two, else on
    a pool of workers processes with at most 2 * workers tasks submitted
    ahead of the consumer.  The pool is imported here, as its modules cost
    every run set-up time and memory and only pool runs use them."""
    items = iter(items)
    head = list(itertools.islice(items, 0 if workers == 1 else 2))
    if len(head) < 2:
        yield from map(fn, itertools.chain(head, items))
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        ahead: deque = deque()
        for t in itertools.chain(head, items):
            ahead.append(pool.submit(fn, t))
            if len(ahead) == 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def order_scan(
    family: AlphaFamily,
    segments: Iterable[Sequence[int]],
    folds: Sequence[Callable[[OrderBlock], None]],
    workers: int = 1,
) -> int:
    """One pass over the usable primes of segments, arrays of primes as
    arith._segments yields them: all of them ascending, distinct and below
    2**63, each taken as int64, else ValueError once the pass reaches the
    segment at fault.  Returns the number of skipped primes.

    Per segment one mask decides the usable primes: the inert ones that
    divide no member's norm.  Ramified and split primes, 2 among them, are
    dropped; the inert ones dividing a norm are skipped (counted).  The
    usable primes fill blocks of PRIME_BLOCK across segments, and the pass
    runs the kernel on each block, hands it to every fold, in ascending
    order of p, and drops it before the next block is computed, so no array
    grows with the range.  A broken order chain raises RemarkViolation at
    the first failing (p, member) in (p, member) order.
    """
    skipped = 0

    def blocks() -> Iterator[np.ndarray]:
        nonlocal skipped
        held, last = np.zeros(0, dtype=np.int64), 0
        for ps in segments:
            ps = ps if isinstance(ps, np.ndarray) else np.array(ps, dtype=object)
            if ps.dtype != np.int64 and ps.size and ps.max() >= 2**63:
                raise ValueError("order_scan needs primes below 2**63")
            ps = ps.astype(np.int64, copy=False)
            if not (np.diff(ps, prepend=last) > 0).all():
                raise ValueError("order_scan needs ascending, distinct primes")
            last = ps[-1] if ps.size else last
            # inert: p odd and delta**((p - 1)/2) = -1 mod p, by Euler's
            # criterion, which a ramified p, with delta = 0 mod p, fails
            dm = residues(family.ctx.delta, ps)
            ps = ps[(ps != 2) & (powmod(dm, (ps - 1) // 2, ps) == ps - 1)]
            divides = np.any([residues(n, ps) == 0 for n in family.norms], axis=0)
            skipped += int(divides.sum())
            held = np.concatenate([held, ps[~divides]])
            while held.size >= PRIME_BLOCK:
                yield held[:PRIME_BLOCK]
                held = held[PRIME_BLOCK:]
        if held.size:
            yield held

    for b in _map(partial(_kernel_block, family), blocks(), workers):
        for fold in folds:
            fold(b)
        del b
    return skipped


class ScanTally:
    """The attainment counts of an order scan, tallied on order_scan's one
    pass: pass update among its folds.  Only counters are kept: the usable
    primes, per member and for the family the primes where the threshold
    is attained, and the index (p^2 - 1)/ord_alpha of every (p, member)."""

    def __init__(self, family: AlphaFamily):
        self.prime_count = self.attained_family = 0
        self.attained_per_member = np.zeros(len(family.members), dtype=np.int64)
        self.index_histogram: Counter = Counter()

    def update(self, b: OrderBlock) -> None:
        self.prime_count += b.p.size
        self.attained_per_member += b.attained.sum(axis=0)
        self.attained_family += int(b.attained.any(axis=1).sum())
        self.index_histogram.update(((b.p * b.p - 1)[:, None] // b.ord_alpha).ravel().tolist())


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
    independent integers; primes dividing any generator are skipped.  Every
    y of y_grid must be finite and > 0, else ValueError.
    """
    if y_grid is None:
        y_grid = [float(t) for t in np.geomspace(10.0, 1e4, 13)]
    y_grid = sorted(float(y) for y in y_grid)
    for y in y_grid:
        if not (math.isfinite(y) and y > 0):
            raise ValueError(f"y_grid needs finite values > 0, got {y}")
    verdict = mult_indep_rational([Fraction(g) for g in gens])
    if not verdict.independent:
        raise DependentGenerators(verdict.relation)

    bad = tuple(q for g in gens for q in factorize(abs(g)).primes)
    # every size from y_max on counts alike, so sizes are capped there
    cap = math.ceil(y_grid[-1])
    counts, prime_count = np.zeros(len(y_grid), dtype=np.int64), 0
    for c, n in _map(partial(_segment_counts, tuple(gens), bad, y_grid, cap),
                     _segments(2, x), workers):
        counts += c
        prime_count += n
    counts = counts.tolist()

    samples = tuple(zip(y_grid, counts))
    pts = [(math.log(y), math.log(n)) for y, n in samples if n > 0]
    if len(pts) >= 2:
        xs = np.array([t[0] for t in pts])
        ys = np.array([t[1] for t in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return GrowthFit(x, tuple(gens), samples, slope, prime_count)


def _segment_counts(gens: Tuple[int, ...], bad: Tuple[int, ...], y_grid: List[float],
                    cap: int, ps: np.ndarray) -> Tuple[np.ndarray, int]:
    """N(y) for each y of y_grid over one segment ps of primes, those
    dividing a generator (bad) left out, and the number of primes counted:
    the rows of p - 1 come from sieving them, and the sizes are capped at
    cap.  No size from cap on moves a count, as every y is at most cap, so
    only the sizes below it are sorted; a cap past every p - 1 keeps them
    all."""
    ps = ps[~np.isin(ps, bad)]
    sizes = subgroup_sizes(ps, gens, sieve_rows(ps - 1), cap)
    sizes = sizes[sizes < cap]
    sizes.sort()
    return np.searchsorted(sizes, y_grid, side="left"), ps.size


def subgroup_sizes(ps: np.ndarray, gens: Sequence[int], rows: Rows, cap: int) -> np.ndarray:
    """min(|<gens> mod p|, cap) for every prime p of ps, in the dtype
    arith.exact_ints gives ps, from the prime-power rows (i, q, e) of
    ps - 1, by the fp2 order routine on all primes at once; cap must be
    >= 1, and one of at least max(ps) keeps the sizes exact."""
    ps = exact_ints(ps)
    res = np.stack([residues(g, ps) for g in gens])
    hit = np.flatnonzero((res == 0).any(axis=0))
    if hit.size:
        raise ValueError(f"a generator vanishes mod {int(ps[hit[0]])}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, not {cap}")
    return _orders(res, ps, ps - 1, rows, cap=cap)


# ---------------------------------------------------------------------------
# pigeonhole bookkeeping

class PigeonholeTally:
    """How the two sides of p^2 - 1 carry the order threshold, tallied on
    order_scan's one pass: pass update among its folds.  Only counters are
    kept.

    threshold is the sifting limit z = floor(x^(1/8 + 0.01)).  A survivor is
    a prime whose p^2 - 1 has no prime factor q < z outside 24, as in
    sieve.survivor_mask.  by_factors counts the survivors by the number of
    large prime factors, q >= z, with multiplicity, on the p - 1 side (row
    0) and on the p + 1 side (row 1); more than 7 on a side raises
    InvariantError.  attained counts, per member, the primes where ord_n *
    d_minus >= p - 1 (row 0, norm side), ord_m * d_plus >= p + 1 (row 1,
    ratio side) and 24 * ord_alpha >= p^2 - 1 (row 2, full), with d_minus
    and d_plus 12 and 2 for p = 1 (mod 3), else 4 and 6; none of the three
    is derived from another.

    members_needed = 6 * max_side_factors + 1 counts the worst single side,
    so it never exceeds 6 * 7 + 1 = 43.  The abstract's 85 = 6 * (7 + 7) + 1
    counts both sides of p^2 - 1 together.
    """

    def __init__(self, family: AlphaFamily, x: int):
        # sieve.sieving_limit(x, 0.01), so that no scan loads the sieve module
        self.threshold = math.floor(x ** (0.125 + 0.01))
        self.by_factors = np.zeros((2, 8), dtype=np.int64)
        self.attained = np.zeros((3, len(family.members)), dtype=np.int64)

    def update(self, b: OrderBlock) -> None:
        p = b.p
        # per side, the large prime factors, q >= z, with multiplicity, and
        # those in (3, z), which strike p out
        large, struck = [], np.zeros(p.size, dtype=bool)
        for i, q, e in (sieve_rows(p.astype(np.int64) + s) for s in (-1, 1)):
            large.append(np.bincount(i, e * (q >= self.threshold), minlength=p.size).astype(int))
            struck[i[(q > 3) & (q < self.threshold)]] = True
        survivor = ~struck
        worst = np.maximum(*large)
        over = np.flatnonzero(survivor & (worst > 7))
        if over.size:
            j = over[0]
            raise InvariantError(f"survivor p = {p[j]} has {worst[j]} large factors on one side")
        for side, m in enumerate(large):
            self.by_factors[side] += np.bincount(m[survivor], minlength=8)
        one_mod_3 = (p % 3 == 1)[:, None]
        self.attained[0] += (b.ord_n * np.where(one_mod_3, 12, 4) >= (p - 1)[:, None]).sum(axis=0)
        self.attained[1] += (b.ord_m * np.where(one_mod_3, 2, 6) >= (p + 1)[:, None]).sum(axis=0)
        self.attained[2] += b.attained.sum(axis=0)

    @property
    def survivors(self) -> int:
        return int(self.by_factors[0].sum())

    @property
    def max_side_factors(self) -> int:
        """The most large factors on one side of any survivor's p^2 - 1."""
        return int(np.flatnonzero(self.by_factors.any(axis=0)).max(initial=0))

    @property
    def members_needed(self) -> int:
        """Pigeonhole demand implied by the observed worst side: six holes
        per large prime factor, one spare."""
        return 6 * self.max_side_factors + 1
