"""Multiplicative orders of quadratic integers modulo inert primes.

The package splits into exact integer utilities (arith), field arithmetic
(quadfield), finite-field order computations (fp2), the residue-class
construction (construction), sieve bookkeeping (sieve), experiment drivers
(experiments), the failures the CLI maps to exit codes (errors), and a CLI
(cli).  Importing the package loads none of them: import each from its
module, so that a run loads only the modules it uses.
"""

__version__ = "0.1.0"
