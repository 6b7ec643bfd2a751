"""Exception hierarchy shared across the package.

Plain ``ValueError`` is used for domain errors on scalar arguments
(negative incomes, prices below the floor, and so on); the classes here
cover failures that callers and the command line need to tell apart.
"""


class EvomarketError(Exception):
    """Base class for package-specific failures."""


class FormatError(EvomarketError, ValueError):
    """Malformed input data: bad CSV rows, non-uniform grids, range violations."""


class FitError(EvomarketError, RuntimeError):
    """A calibration produced no feasible parameter estimate."""


class NumericError(EvomarketError, ArithmeticError):
    """A numerical routine left its domain of validity (overflow, divergence)."""


class StepSizeError(NumericError):
    """An integration step was too large to keep the state admissible."""
