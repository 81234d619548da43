"""Exception hierarchy shared across the package, its draw-again rules and meter.

Three broad classes matter to callers: usage errors (bad input, mismatched
fields), mathematical failures (validation that exact arithmetic can detect),
and an exhausted work limit.  The CLI maps them to exit codes 2, 1 and 3.

Randomized counts draw primes, specializations, maps and linear forms.  A
draw that lands on an excluded locus raises a retry class,
DegenerateInputError or DegenerateMapError: it means "draw again", and
every loop that draws again is one of three rules here: agreed_value (two
consecutive draws agree; its one caller is groebner.distinct_point_count),
first_value (the first draw that is not degenerate; a caller may make
running out a retry class too, so an outer loop draws again) and
agreeing_draws (independent first_value draws that all agree).  Every
other error ends the run.  InvariantError marks a
theorem-level check that failed, a fault in the program; a plain MathError
is a failure no new draw repairs (inconsistent data, draws that disagree,
a search out of tries).  A command runs under one work_limit, and each
metered site, in whatever module or draw, calls spend before its work.
"""

from contextlib import contextmanager
from contextvars import ContextVar


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
    """Coefficients do not define a morphism of the stated degree: a retry class."""


class DegenerateInputError(MathError):
    """Parameters or a random choice hit an excluded locus (pole, multiplier 1,
    non-generic projection, ...): a retry class, draw again."""


class BudgetExhaustedError(MultSpecError):
    """The work limit of the running command (work_limit) ran out."""


_LEFT = ContextVar("work_left", default=None)  # [units left] under a limit, else None


@contextmanager
def work_limit(limit: int | None):
    """Meter the work done inside the block against `limit` units; None meters nothing."""
    token = _LEFT.set(None if limit is None else [limit])
    try:
        yield
    finally:
        _LEFT.reset(token)


def limited() -> bool:
    """Whether a limit runs: a hot loop asks once, then spends per step only if so."""
    return _LEFT.get() is not None


def spend(cost: int, what: str):
    """Charge `cost` units of work on `what`, before doing it."""
    left = _LEFT.get()
    if left is not None:
        left[0] -= cost
        if left[0] < 0:
            raise BudgetExhaustedError(f"{what} budget exhausted")


def agreed_value(draw, attempts: int, what: str):
    """The first value two consecutive calls of draw() return, of at most
    `attempts`; a call that raises a retry class has no value."""
    last = None
    for _ in range(attempts):
        try:
            value = draw()
        except (DegenerateInputError, DegenerateMapError):
            value = None
        if value is not None and value == last:
            return value
        last = value
    raise DegenerateInputError(f"no two consecutive {what} of {attempts} agree; draw again")


def first_value(draw, attempts: int, what: str, exhausted=MathError):
    """The first value draw() returns, of at most `attempts` calls; a call
    that raises a retry class is drawn again, and running out raises
    `exhausted`."""
    for _ in range(attempts):
        try:
            return draw()
        except (DegenerateInputError, DegenerateMapError):
            pass
    raise exhausted(f"no {what} found in {attempts} attempts")


def agreeing_draws(count: int, draw, attempts: int, key):
    """`count` independent first_value draws, as a tuple; all agree on key."""
    if count < 1:
        raise UsageError(f"need at least 1 draw, got {count}")
    out = [first_value(draw, attempts, "generic specialization") for _ in range(count)]
    if len({key(v) for v in out}) != 1:
        raise MathError(f"draws disagree: {out}")
    return tuple(out)
