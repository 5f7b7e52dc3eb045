"""The benchmark's workloads: seeded configs, work units and correctness checks.

Every check here is computed from the config and the artifacts with code of
its own (a numpy sieve, Euler's criterion, trial division, a separate F_p^2
power ladder); nothing is imported from the package under test.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

DELTA = 5

# Each pool has eight entries and the workload seed picks entry seed % 8, so
# digests.json can hold reference digests for every config the benchmark
# can generate.  Entry 0 (the default seed) is the configuration each
# workload was designed around.
#
# The order kernel's cost depends on the member: on the sparse scan the unit
# 2 + sqrt 5 costs 18% less than a typical member, and 1 + sqrt 5 11% less
# (counted as bits of F_p^2 exponents).  So every triple keeps those two, as
# entry 0 does, and the third member is drawn from ones whose counted cost is
# within 0.5% of that of 3 + 2 sqrt 5; the positions vary.  Keeping the unit
# also keeps a norm of -1 in every family: cmd_scan passes the norms to
# mult_indep_rational, which at this commit raises on a negative norm unless
# some norm is +-1.
MEMBER_POOL = (
    ((2, 1), (1, 1), (3, 2)),
    ((4, 3), (2, 1), (1, 1)),
    ((1, 1), (1, 2), (2, 1)),
    ((2, 1), (6, 1), (1, 1)),
    ((7, 4), (1, 1), (2, 1)),
    ((1, 1), (2, 1), (8, 3)),
    ((2, 3), (2, 1), (1, 1)),
    ((1, 1), (5, 4), (2, 1)),
)
# Every a here gives the class modulus v = 720 with delta = 5 (the odd
# primes of a*delta above 3 are just 5), so the ledger keeps 252 rows and
# about 1,800 class primes whichever entry is drawn.  Each also passes the
# program's own `construct` verification; a = -2, 6, -6 and 10 do not at
# this commit (the class it builds makes a a square mod p).
SIEVE_A_POOL = (-4, 2, -3, -1, -10, 3, -12, 8)
GENS_POOL = ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7), (2, 11), (5, 6))
POOL_SIZE = 8


class CheckFailed(Exception):
    """An artifact disagrees with the benchmark's own computation."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# reference arithmetic


def primes_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (plain Eratosthenes)."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def nonresidue(a: int, p: int) -> bool:
    """Euler's criterion: a is a quadratic non-residue mod the odd prime p."""
    return pow(a % p, (p - 1) // 2, p) == p - 1


def prime_factors(n: int) -> List[int]:
    """Distinct prime factors of n >= 1 by trial division."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _fp2_pow(c0: int, c1: int, e: int, p: int) -> Tuple[int, int]:
    # (c0 + c1 s)^e in F_p[s] / (s^2 - DELTA), right-to-left ladder.
    r0, r1 = 1, 0
    while e:
        if e & 1:
            r0, r1 = (r0 * c0 + DELTA * r1 * c1) % p, (r0 * c1 + r1 * c0) % p
        c0, c1 = (c0 * c0 + DELTA * c1 * c1) % p, 2 * c0 * c1 % p
        e >>= 1
    return r0, r1


def _is_order(power: Callable[[int], object], one, k: int, group: int) -> bool:
    """True when k is the exact order of an element, given its power map and
    a multiple `group` of the order."""
    if k < 1 or group % k or power(k) != one:
        return False
    return all(power(k // q) != one for q in prime_factors(k))


def subgroup_size(p: int, gens: Sequence[int]) -> int:
    """|<gens> mod p|: the lcm of the generators' orders in F_p^*."""
    qs = prime_factors(p - 1)
    size = 1
    for g in gens:
        n = p - 1
        for q in qs:
            while n % q == 0 and pow(g, n // q, p) == 1:
                n //= q
        size = math.lcm(size, n)
    return size


# ---------------------------------------------------------------------------
# artifact readers


def read_csv(path: Path) -> Tuple[List[str], List[List[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# per-workload checks.  Each returns (work units, readable counts) and raises
# CheckFailed on the first disagreement.


def _check_scan(cfg: Dict, out: Path, candidates: np.ndarray, rng: random.Random):
    members = [tuple(m) for m in cfg["members"]]
    k = len(members)
    norms = [x * x - DELTA * y * y for x, y in members]
    header, rows = read_csv(out / "scan.csv")
    summary = read_json(out / "scan_summary.json")
    _require(header == ["p", "member", "ord_alpha", "ord_N", "ord_M", "attained"],
             f"scan.csv header {header}")
    skipped = [int(p) for p in candidates if any(n % int(p) == 0 for n in norms)]
    kept = len(candidates) - len(skipped)
    _require(summary["skipped"] == len(skipped),
             f"skipped {summary['skipped']}, expected {len(skipped)}")
    _require(summary["prime_count"] == kept,
             f"prime_count {summary['prime_count']}, expected {kept}")
    _require(len(rows) == k * kept, f"{len(rows)} scan.csv rows, expected {k * kept}")
    expect_primes = sorted(set(int(p) for p in candidates) - set(skipped))
    _require([int(r[0]) for r in rows[::k]] == expect_primes, "scan.csv prime column")
    labels = [r[1] for r in rows[:k]]
    _require(len(set(labels)) == k, "scan.csv member labels")
    _require(all(r[1] == labels[i % k] for i, r in enumerate(rows)), "member order")
    for i in rng.sample(range(len(rows)), min(40, len(rows))):
        p, _, oa, on, om, att = rows[i]
        p, oa, on, om = int(p), int(oa), int(on), int(om)
        x, y = members[i % k]
        c0, c1 = x % p, y % p
        m = _fp2_pow(c0, c1, p - 1, p)  # conj(alpha)/alpha = alpha^(p-1)
        nrm = norms[i % k] % p
        _require(_is_order(lambda e: _fp2_pow(c0, c1, e, p), (1, 0), oa, p * p - 1),
                 f"ord_alpha {oa} at p = {p}")
        _require(_is_order(lambda e: pow(nrm, e, p), 1, on, p - 1), f"ord_N {on} at p = {p}")
        _require(_is_order(lambda e: _fp2_pow(m[0], m[1], e, p), (1, 0), om, p + 1),
                 f"ord_M {om} at p = {p}")
        _require(att == str(int(24 * oa >= p * p - 1)), f"attained flag at p = {p}")
    counts = {"prime_count": kept, "skipped": len(skipped), "rows": len(rows)}
    return len(rows), counts


def check_scan_dense(cfg: Dict, out: Path, rng: random.Random):
    ps = primes_to(cfg["prime_max"])
    ps = ps[(ps >= cfg["prime_min"]) & (ps != 2) & (ps != DELTA)]
    inert = np.array([p for p in ps.tolist() if nonresidue(DELTA, p)], dtype=np.int64)
    units, counts = _check_scan(cfg, out, inert, rng)
    _require(read_json(out / "scan_summary.json")["congruence"] is None, "congruence")
    return units, counts


def check_scan_sparse(cfg: Dict, out: Path, rng: random.Random):
    cong = read_json(out / "scan_summary.json")["congruence"]
    _require(cong is not None and cong["v"] == 720, f"congruence {cong}")
    ps = primes_to(cfg["prime_max"])
    ps = ps[(ps >= cfg["prime_min"]) & (ps % cong["v"] == cong["u"])]
    # The constructed class must consist of inert primes at which a is a
    # non-residue; Euler's criterion checks that on every class prime.
    _require(all(nonresidue(DELTA, p) and nonresidue(cfg["a"], p) for p in ps.tolist()),
             "class holds a prime that is split or where a is a residue")
    return _check_scan(cfg, out, ps, rng)


def check_sieve(cfg: Dict, out: Path, rng: random.Random):
    report = read_json(out / "sieve_report.json")
    header, rows = read_csv(out / "sieve.csv")
    u, v, z = report["u"], report["v"], report["z"]
    _require(header == ["d", "rho", "Ad", "main", "Rd"], f"sieve.csv header {header}")
    _require(v == 720 and math.gcd(u, v) == 1, f"class {u} mod {v}")
    ps = primes_to(cfg["prime_max"])
    ps = ps[ps % v == u]
    _require(all(nonresidue(DELTA, p) and nonresidue(cfg["a"], p) for p in ps.tolist()),
             "class holds a prime that is split or where a is a residue")
    expect_d = [d for d in range(1, cfg["d_max"] + 1)
                if math.gcd(d, v) == 1 and all(d % (q * q) for q in prime_factors(d))]
    _require([int(r[0]) for r in rows] == expect_d, "ledger divisors")
    _require(report["rows"] == len(rows), "report row count")
    sq = ps * ps - 1
    for r in rows:
        d = int(r[0])
        _require(int(r[1]) == 2 ** len(prime_factors(d)), f"rho({d})")
        _require(int(r[2]) == int(np.count_nonzero(sq % d == 0)), f"|A_{d}|")
    small = [q for q in primes_to(z - 1).tolist() if v % q]
    alive = np.ones(len(ps), dtype=bool)
    for q in small:
        alive &= sq % q != 0
    survivors = int(np.count_nonzero(alive))
    _require(report["survivors"] == survivors,
             f"survivors {report['survivors']}, expected {survivors}")
    return len(ps) * len(rows), {"rows": len(rows), "survivors": survivors}


def check_lemma42(cfg: Dict, out: Path, rng: random.Random):
    growth = read_json(out / "growth.json")
    gens = cfg["gens"]
    ps = primes_to(cfg["prime_max"])
    for g in gens:
        ps = ps[g % ps != 0]
    _require(growth["prime_count"] == len(ps),
             f"prime_count {growth['prime_count']}, expected {len(ps)}")
    counts = [n for _, n in growth["samples"]]
    _require(counts == sorted(counts) and counts[-1] <= len(ps), "N(y) not monotone")
    # Exact N(y) for the grid points y <= 100: |<gens>| < y forces the order
    # of gens[0] below y, so vectorized powers g^k (k < y) screen the primes
    # and only the few hits get their subgroup size computed.
    hit = np.zeros(len(ps), dtype=bool)
    power = np.ones(len(ps), dtype=np.int64)
    k = 0
    for y, n in growth["samples"]:
        if y > 100:
            break
        while k + 1 < y:
            k += 1
            power = power * gens[0] % ps
            hit |= power == 1
        expect = sum(1 for p in ps[hit].tolist() if subgroup_size(p, gens) < y)
        _require(n == expect, f"N({y}) = {n}, expected {expect}")
    return len(ps), {"prime_count": len(ps)}


# ---------------------------------------------------------------------------
# workload table


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    artifacts: Tuple[str, ...]
    make_config: Callable[[int], Dict]
    check: Callable[[Dict, Path, random.Random], Tuple[int, Dict[str, int]]]


def _members(variant: int) -> List[List[int]]:
    return [list(m) for m in MEMBER_POOL[variant]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan_dense", "scan", ("scan.csv", "scan_summary.json"),
            lambda i: {"delta": DELTA, "members": _members(i),
                       "prime_min": 3, "prime_max": 100_000},
            check_scan_dense,
        ),
        Workload(
            "scan_sparse", "scan", ("scan.csv", "scan_summary.json"),
            # a is pinned: left free, the first member's norm would pick the
            # class, and N(3 + 2 sqrt 5) = -11 gives v = 7920.
            lambda i: {"delta": DELTA, "members": _members(i), "prime_min": 3,
                       "prime_max": 10_000_000, "use_congruence": True, "a": -4},
            check_scan_sparse,
        ),
        Workload(
            "sieve", "sieve", ("sieve.csv", "sieve_report.json"),
            lambda i: {"a": SIEVE_A_POOL[i], "delta": DELTA,
                       "prime_max": 5_000_000, "d_max": 1000},
            check_sieve,
        ),
        Workload(
            "lemma42", "lemma42", ("growth.json",),
            lambda i: {"gens": list(GENS_POOL[i]), "prime_max": 5_000_000},
            check_lemma42,
        ),
    )
}


def variant_of(seed: int) -> int:
    return seed % POOL_SIZE
