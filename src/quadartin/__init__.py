"""Multiplicative orders of quadratic integers modulo inert primes.

The package splits into exact integer utilities (arith), field arithmetic
(quadfield), finite-field order computations (fp2), the residue-class
construction (construction), sieve bookkeeping (sieve), experiment drivers
(experiments), and a CLI (cli).
"""

from .arith import (
    Factorization,
    crt,
    factorize,
    is_prime,
    jacobi,
    li,
    primes_up_to,
)
from .construction import (
    Congruence,
    SeedPrime,
    build_congruence,
    find_p0,
    residue_for_16_and_9,
    residue_for_odd_prime,
    verify_congruence,
)
from .experiments import (
    AlphaFamily,
    GrowthFit,
    IndependenceVerdict,
    ScanSummary,
    lemma42_scan,
    mult_indep_norm_one,
    mult_indep_rational,
    order_scan,
    pigeonhole_report,
)
from .quadfield import (
    FieldContext,
    QuadElem,
    conjugate,
    m_ratio,
    norm,
    square_guard,
)
from .sieve import (
    SieveConfig,
    SieveRow,
    count_Ad,
    mertens_check,
    omega,
    product_lower,
    remainder_sum,
    rho,
    sieve_bound_report,
    survivor_count,
)

__version__ = "0.1.0"
