"""Construction of a residue class u (mod v) of primes that are
simultaneously inert, have the right quadratic character at a single integer
a, and keep the 2- and 3-parts of p^2 - 1 as small as possible.

The class is assembled by CRT from a seed prime p0 at which the four symbols
(-1|p0), (5|p0), (a|p0), (delta|p0) all equal -1: residues mod 16 and mod 9
pin v_2(p^2-1) = 3 and v_3(p^2-1) = 1, and one residue mod each odd prime
l > 3 dividing a*delta freezes the symbols while keeping l away from p^2 - 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from .arith import (
    crt,
    factorize,
    is_prime,
    is_square,
    jacobi,
    padic_valuation,
    primes_in_class,
    primes_up_to,
)

# Residue classes with v_2(u^2 - 1) = 3, resp. v_3(u^2 - 1) = 1.  Both
# valuations are determined by the class (mod 16, resp. mod 9), so a plain
# enumeration is exact.
_U2_CLASSES = tuple(r for r in range(16) if r % 2 and (r * r - 1) % 16 == 8)
_U3_CLASSES = tuple(r for r in range(9) if r % 3 and (r * r - 1) % 3 == 0 and (r * r - 1) % 9 != 0)


class SeedNotFoundError(Exception):
    """No prime up to the bound satisfies the four-symbol condition."""

    def __init__(self, a: int, delta: int, bound: int):
        self.bound = bound
        super().__init__(f"no seed prime <= {bound} for a = {a}, delta = {delta}")


class InvariantError(Exception):
    """A constructed object failed one of its own consistency checks."""


class SquareHypothesisWarning(UserWarning):
    """a or 5*a*delta is a perfect square, so a symbol is forced to +1."""


@dataclass(frozen=True)
class SeedPrime:
    """A prime p0 with (-1|p0) = (5|p0) = (a|p0) = (delta|p0) = -1 and
    p0 not dividing 30*a*delta."""

    p0: int
    a: int
    delta: int

    def __post_init__(self):
        if not is_prime(self.p0):
            raise InvariantError(f"{self.p0} is not prime")
        if (30 * self.a * self.delta) % self.p0 == 0:
            raise InvariantError(f"{self.p0} divides 30*a*delta")
        for label, val in (("-1", -1), ("5", 5), ("a", self.a), ("delta", self.delta)):
            if jacobi(val, self.p0) != -1:
                raise InvariantError(
                    f"({label}|{self.p0}) != -1 for a={self.a}, delta={self.delta}"
                )

    @property
    def symbols(self) -> Dict[str, int]:
        return {
            "-1": jacobi(-1, self.p0),
            "5": jacobi(5, self.p0),
            "a": jacobi(self.a, self.p0),
            "delta": jacobi(self.delta, self.p0),
        }


def find_p0(a: int, delta: int, bound: int = 10**4) -> SeedPrime:
    """Smallest prime p0 <= bound with all four symbols equal to -1.

    Warns when a or 5*a*delta is a perfect square (the search is then
    hopeless or the downstream hypotheses degenerate, but the scan still
    runs so the failure mode is visible).
    """
    if a == 0 or delta == 0:
        raise ValueError("a and delta must be nonzero")
    if is_square(a):
        warnings.warn(
            f"a = {a} is a perfect square; (a|p) can never be -1",
            SquareHypothesisWarning,
            stacklevel=2,
        )
    if is_square(5 * a * delta):
        warnings.warn(
            f"5*a*delta = {5 * a * delta} is a perfect square",
            SquareHypothesisWarning,
            stacklevel=2,
        )
    guard = 30 * a * delta
    for p in primes_up_to(bound):
        if p == 2 or guard % p == 0:
            continue
        if (
            jacobi(-1, p) == -1
            and jacobi(5, p) == -1
            and jacobi(a, p) == -1
            and jacobi(delta, p) == -1
        ):
            return SeedPrime(p, a, delta)
    raise SeedNotFoundError(a, delta, bound)


def _seed_value(p0: Union[SeedPrime, int]) -> int:
    return p0.p0 if isinstance(p0, SeedPrime) else int(p0)


def residue_for_16_and_9(p0: Union[SeedPrime, int]) -> Tuple[int, int]:
    """Residues (u2 mod 16, u3 mod 9) forcing v_2(p^2-1) = 3 and
    v_3(p^2-1) = 1 on the whole class.

    The seed's own residue is kept whenever it already qualifies; otherwise
    the smallest qualifying class compatible with p0 mod 4 (resp. mod 3) is
    taken, which keeps every odd-prime Jacobi symbol at p unchanged.
    """
    p = _seed_value(p0)
    if p % 2 == 0 or p % 3 == 0:
        raise ValueError(f"seed {p} shares a factor with 6")
    if p % 16 in _U2_CLASSES:
        u2 = p % 16
    else:
        u2 = next(r for r in _U2_CLASSES if r % 4 == p % 4)
    if p % 9 in _U3_CLASSES:
        u3 = p % 9
    else:
        u3 = next(r for r in _U3_CLASSES if r % 3 == p % 3)
    if (u2 * u2 - 1) % 16 != 8 or (u3 * u3 - 1) % 9 not in (3, 6):
        raise InvariantError(f"residues ({u2}, {u3}) miss the 2- or 3-adic target")
    return u2, u3


def residue_for_odd_prime(l: int, p0: Union[SeedPrime, int]) -> int:
    """Residue u_l mod l with l never dividing p^2 - 1 on the class.

    Takes p0 itself when l does not divide p0^2 - 1, else 9*p0.  One of the
    two always works for a legitimate seed; the closing check raises
    ValueError for illegitimate inputs (e.g. l dividing 80*p0^2).
    """
    p = _seed_value(p0)
    if l <= 3 or not is_prime(l):
        raise ValueError(f"need an odd prime l > 3, got {l}")
    if p % l == 0:
        raise ValueError(f"l = {l} equals or divides the seed {p}")
    if (p * p - 1) % l != 0:
        u_l = p % l
    else:
        u_l = 9 * p % l
    if (u_l * u_l - 1) % l == 0:
        raise ValueError(f"both residue choices fail at l = {l}")
    return u_l


@dataclass(frozen=True)
class Congruence:
    """The class p = u (mod v) with v = 144 * (product of odd primes l > 3
    dividing a*delta).  Every invariant is re-checked on construction."""

    u: int
    v: int
    residues: Dict[int, int]
    seed: SeedPrime

    def __post_init__(self):
        u, v = self.u, self.v
        if math.gcd(u, v) != 1:
            raise InvariantError(f"gcd({u}, {v}) != 1")
        if v % 144 != 0:
            raise InvariantError(f"144 does not divide v = {v}")
        if (u * u - 1) % 24 != 0:
            raise InvariantError(f"24 does not divide u^2 - 1 for u = {u}")
        if math.gcd((u * u - 1) // 24, v) != 1:
            raise InvariantError(f"(u^2-1)/24 shares a factor with v = {v}")
        prod = 144
        for m, r in self.residues.items():
            if u % m != r % m:
                raise InvariantError(f"u = {u} is not {r} mod {m}")
            if m not in (16, 9):
                if m <= 3 or not is_prime(m):
                    raise InvariantError(f"unexpected modulus {m}")
                if (u * u - 1) % m == 0:
                    raise InvariantError(f"{m} divides u^2 - 1")
                prod *= m
        if prod != v:
            raise InvariantError(f"v = {v} is not 144 * (product of odd moduli)")


def build_congruence(p0: SeedPrime) -> Congruence:
    """Assemble u (mod v) from the seed by CRT over 16, 9, and the odd
    primes l > 3 dividing a*delta (the seed itself is excluded)."""
    ls = [
        p
        for p in factorize(abs(p0.a * p0.delta)).primes
        if p > 3 and p != p0.p0
    ]
    u2, u3 = residue_for_16_and_9(p0)
    residues: Dict[int, int] = {16: u2, 9: u3}
    for l in ls:
        residues[l] = residue_for_odd_prime(l, p0)
    u, v = crt([(r, m) for m, r in residues.items()])
    return Congruence(u, v, residues, p0)


def check_class_symbols(c: Congruence) -> None:
    """Raise InvariantError unless (a|p) = (delta|p) = -1 for every prime p
    of the class.  Both symbols are periodic in p with a period dividing v,
    so their values at u decide the whole class exactly.  The seed does not:
    u may differ from p0 mod 8, and (2|p) depends on p mod 8."""
    for label, val in (("a", c.seed.a), ("delta", c.seed.delta)):
        s = jacobi(val, c.u)
        if s != -1:
            raise InvariantError(
                f"({label}|p) = {s:+d} for every prime p = {c.u} mod {c.v} "
                f"({label} = {val})"
            )


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of checking every prime of the class up to a bound."""

    bound: int
    checked: int
    failures: List[Tuple[int, str]]
    v2_minus: Dict[int, int]
    v2_plus: Dict[int, int]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_congruence(c: Congruence, bound: int) -> CongruenceReport:
    """Check, for every prime p = u (mod v) up to bound, that the class does
    what it was built to do: delta and a are non-residues, v_2(p^2-1) = 3,
    v_3(p^2-1) = 1, and (p^2-1)/24 is coprime to v.

    Also tallies how the three 2-adic units split between p - 1 and p + 1,
    which is reported rather than constrained.
    """
    failures: List[Tuple[int, str]] = []
    v2m: Dict[int, int] = {}
    v2p: Dict[int, int] = {}
    checked = 0
    a, delta = c.seed.a, c.seed.delta
    for p in primes_in_class(c.u, c.v, 0, bound).tolist():
        checked += 1
        n = p * p - 1
        if jacobi(delta, p) != -1:
            failures.append((p, "delta is a square mod p"))
        if jacobi(a, p) != -1:
            failures.append((p, "a is a square mod p"))
        if padic_valuation(n, 2) != 3:
            failures.append((p, f"v2(p^2-1) = {padic_valuation(n, 2)}"))
        if padic_valuation(n, 3) != 1:
            failures.append((p, f"v3(p^2-1) = {padic_valuation(n, 3)}"))
        if math.gcd(n // 24, c.v) != 1:
            failures.append((p, "(p^2-1)/24 shares a factor with v"))
        km = padic_valuation(p - 1, 2)
        kp = padic_valuation(p + 1, 2)
        v2m[km] = v2m.get(km, 0) + 1
        v2p[kp] = v2p.get(kp, 0) + 1
    return CongruenceReport(bound, checked, failures, v2m, v2p)
