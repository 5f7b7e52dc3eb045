"""The failures the CLI maps to exit codes.  This module imports nothing else
from the package, so cli.main can catch them without loading the modules
that raise them."""

from typing import Tuple


class SeedNotFoundError(Exception):
    """No prime up to the bound satisfies the four-symbol condition."""

    def __init__(self, a: int, delta: int, bound: int):
        self.bound = bound
        super().__init__(f"no seed prime <= {bound} for a = {a}, delta = {delta}")


class InvariantError(Exception):
    """A constructed object failed one of its own consistency checks."""


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
