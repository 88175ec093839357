"""Exception hierarchy shared by all jrmt modules."""


class JrmtError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(JrmtError, ValueError):
    """Invalid sizes, ranks, scales, or other call parameters."""


class DomainError(JrmtError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class RegimeError(JrmtError, ValueError):
    """Parameters outside the asymptotic regime an operation assumes."""


class ValidationError(JrmtError, ValueError):
    """Structured input failed a consistency check (e.g. not Hermitian)."""


class NumericError(JrmtError, ArithmeticError):
    """Numerical failure: non-finite values, failed root find, bad determinant."""
