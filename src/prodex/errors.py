"""Exception types shared across the package."""

__all__ = [
    "OrderMismatchError",
    "NonUnitConstantError",
    "NotPrimeError",
    "NotRealizableError",
    "IdentityViolationError",
]


class OrderMismatchError(ValueError):
    """Two fixed-order values were combined without equal truncation orders."""


class NonUnitConstantError(ValueError):
    """An operation needing an invertible constant term got something else."""


class NotPrimeError(ValueError):
    """An argument declared prime failed the primality check."""


class NotRealizableError(ValueError):
    """A ghost sequence is not the divisor-sum transform of any integer
    exponent sequence.  Carries the first failing index and the remainder
    of the divisibility step there."""

    def __init__(self, index: int, remainder: int):
        self.index = index
        self.remainder = remainder
        super().__init__(f"not realizable at N={index}, remainder {remainder}")


class IdentityViolationError(RuntimeError):
    """An internally checked exact identity failed to balance.  This is
    never expected on valid inputs; it signals a bug, not bad input."""
