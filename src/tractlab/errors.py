"""Exception types shared across the package."""


class TractlabError(Exception):
    """Base class for all tractlab errors."""


class DomainError(TractlabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DivergenceError(TractlabError, ArithmeticError):
    """A requested power sum (or series) diverges.

    Carries ``tau_min``, the smallest exponent at which the sum converges,
    and optionally the index of the offending coordinate.
    """

    def __init__(self, message, tau_min=None, coordinate=None):
        super().__init__(message)
        self.tau_min = tau_min
        self.coordinate = coordinate


class ValidationError(TractlabError, ValueError):
    """A family or configuration violates its invariants."""


class BudgetExceededError(TractlabError, RuntimeError):
    """A computation ran out of its pop/memory budget, or its answer has no
    bound because declared tails may split into any number of values.

    The answer provably exceeds ``n_lower``: the top ``n_lower`` products
    fall short of the threshold.  (An uncertified result's ``n_low``, by
    contrast, may equal the answer.)
    """

    def __init__(self, message, n_lower=0, pops=0):
        super().__init__(message)
        self.n_lower = n_lower
        self.pops = pops


class GridSizeError(TractlabError, ValueError):
    """The brute-force product grid would exceed its size cap."""
