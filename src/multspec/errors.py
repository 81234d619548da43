"""Exception hierarchy shared across the package.

Three broad classes matter to callers: usage errors (bad input, mismatched
fields), mathematical failures (validation that exact arithmetic can detect),
and exhausted work budgets. The CLI maps them to exit codes 2, 1 and 3.
"""


class MultSpecError(Exception):
    """Base class for all package errors."""


class UsageError(MultSpecError):
    """Malformed input: parse errors, wrong lengths, unknown options."""


class FieldMismatchError(UsageError):
    """Operands live over different coefficient domains."""


class MathError(MultSpecError):
    """A mathematical validation failed (degenerate input, failed check)."""


class InvariantError(MathError):
    """A theorem-level check failed: a fault in the program, never retried."""


class DegenerateMapError(MathError):
    """Coefficients do not define a morphism of the stated degree."""


class DegenerateInputError(MathError):
    """Parameter values hit an excluded locus (pole, multiplier 1, ...)."""


class RepositionError(MathError):
    """No conjugate with all periodic points affine was found in budget."""


class SplitSearchError(MathError):
    """sigma2_discrimination found no usable prime in budget."""


class EliminantNotSplitError(MathError):
    """The eliminant has roots outside the base prime field (retryable)."""


class NonSimpleSolutionError(MathError):
    """Scheme looks non-reduced or the separating form failed (retryable)."""


class AgreementError(MathError):
    """Independent random draws of an exact quantity disagreed."""


class BudgetExhaustedError(MultSpecError):
    """An iteration budget (pair reductions, retries) ran out."""
