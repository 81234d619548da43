import pytest

from multspec.errors import (
    BudgetExhaustedError,
    DegenerateInputError,
    DegenerateMapError,
    InvariantError,
    MathError,
    UsageError,
    agreeing_draws,
    first_value,
    limited,
    spend,
    work_limit,
)


def _draws(*outcomes):
    """A draw function that returns or raises the given outcomes in turn, and its call log."""
    calls = []

    def draw():
        outcome = outcomes[len(calls)]
        calls.append(outcome)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return draw, calls


def test_first_value_draws_again_on_either_retry_class():
    draw, calls = _draws(DegenerateInputError("pole"), DegenerateMapError("shared root"), 9, 4)
    assert first_value(draw, 3, "maps") == 9
    assert len(calls) == 3


def test_first_value_gives_up_after_its_attempts():
    draw, calls = _draws(*[DegenerateMapError("shared root")] * 3)
    with pytest.raises(MathError, match="^no maps found in 2 attempts$") as raised:
        first_value(draw, 2, "maps")
    assert type(raised.value) is MathError
    assert len(calls) == 2
    # a caller may make running out a retry class, for an outer loop to draw again
    draw, calls = _draws(*[DegenerateInputError("pole")] * 3)
    with pytest.raises(DegenerateInputError, match="^no forms found in 3 attempts$"):
        first_value(draw, 3, "forms", DegenerateInputError)
    assert len(calls) == 3


@pytest.mark.parametrize("error", [InvariantError("broken"), MathError("inconsistent")])
def test_first_value_passes_any_other_error_on(error):
    draw, calls = _draws(DegenerateInputError("pole"), error, 5)
    with pytest.raises(type(error)) as raised:
        first_value(draw, 6, "counts")
    assert raised.value is error
    assert len(calls) == 2


def test_agreeing_draws_returns_every_draw():
    draw, calls = _draws((1, "a"), DegenerateInputError("pole"), (1, "b"), (1, "c"))
    assert agreeing_draws(3, draw, 2, key=lambda v: v[0]) == ((1, "a"), (1, "b"), (1, "c"))
    assert len(calls) == 4


def test_agreeing_draws_that_disagree_fail():
    draw, _ = _draws(6, 6, 7)
    with pytest.raises(MathError, match=r"^draws disagree: \[6, 6, 7\]$"):
        agreeing_draws(3, draw, 2, key=lambda v: v)


def test_agreeing_draws_out_of_attempts_fail():
    draw, calls = _draws(6, DegenerateInputError("pole"), DegenerateInputError("pole"))
    with pytest.raises(MathError, match="^no generic specialization found in 2 attempts$"):
        agreeing_draws(2, draw, 2, key=lambda v: v)
    assert len(calls) == 3


@pytest.mark.parametrize("count", [0, -1])
def test_agreeing_draws_needs_one_draw(count):
    draw, calls = _draws(6)
    with pytest.raises(UsageError, match=f"^need at least 1 draw, got {count}$"):
        agreeing_draws(count, draw, 2, key=lambda v: v)
    assert calls == []


def test_work_limit_is_one_meter_for_its_block():
    assert not limited()
    spend(10**9, "unmetered work")  # no limit: nothing is charged
    with work_limit(5):
        assert limited()
        spend(3, "a")
        spend(2, "b")  # exactly the limit
        with pytest.raises(BudgetExhaustedError, match="^c budget exhausted$"):
            spend(1, "c")
    with pytest.raises(BudgetExhaustedError), work_limit(0):
        spend(1, "d")
    assert not limited()  # the meter is gone after a block that ran out
