"""Exception hierarchy shared across the package, and its one retry rule.

Three broad classes matter to callers: usage errors (bad input, mismatched
fields), mathematical failures (validation that exact arithmetic can detect),
and exhausted work budgets.  The CLI maps them to exit codes 2, 1 and 3.

Randomized counts draw primes, specializations and linear forms.  A draw
that lands on an excluded locus raises DegenerateInputError, and that is
the only class a retry loop catches: it means "draw again".  Every other
error ends the run.  InvariantError marks a theorem-level check that
failed, a fault in the program; a plain MathError is a failure no new draw
repairs (inconsistent data, draws that disagree, a search out of tries).
"""


class MultSpecError(Exception):
    """Base class for all package errors."""


class UsageError(MultSpecError):
    """Malformed input: parse errors, wrong lengths, unknown options."""


class FieldMismatchError(UsageError):
    """Operands live over different coefficient domains."""


class MathError(MultSpecError):
    """A mathematical validation failed (inconsistent data, failed check)."""


class InvariantError(MathError):
    """A theorem-level check failed: a fault in the program, never retried."""


class DegenerateMapError(MathError):
    """Coefficients do not define a morphism of the stated degree."""


class DegenerateInputError(MathError):
    """Parameters or a random choice hit an excluded locus (pole, multiplier 1,
    non-generic projection, ...): the one retryable class, draw again."""


class BudgetExhaustedError(MultSpecError):
    """An iteration budget (pair reductions, retries) ran out."""


def agreed_value(draw, attempts: int, what: str):
    """The first value two consecutive calls of draw() return, of at most
    `attempts`; a call that raises DegenerateInputError has no value."""
    last = None
    for _ in range(attempts):
        try:
            value = draw()
        except DegenerateInputError:
            value = None
        if value is not None and value == last:
            return value
        last = value
    raise DegenerateInputError(f"no two consecutive {what} of {attempts} agree; draw again")
