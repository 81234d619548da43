import pytest

from multspec.errors import DegenerateInputError, InvariantError, MathError, agreed_value


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


def test_agreed_value_returns_the_first_consecutive_agreement():
    draw, calls = _draws(3, 4, 4, 5)
    assert agreed_value(draw, 6, "counts") == 4
    assert len(calls) == 3


def test_a_degenerate_draw_resets_the_agreement():
    draw, calls = _draws(7, DegenerateInputError("unlucky"), 7, 7)
    assert agreed_value(draw, 6, "counts") == 7
    assert len(calls) == 4


def test_no_agreement_in_n_draws_is_drawn_again():
    draw, calls = _draws(1, 2, DegenerateInputError("unlucky"), 2)
    with pytest.raises(DegenerateInputError, match="^no two consecutive counts of 4 agree; draw again$"):
        agreed_value(draw, 4, "counts")
    assert len(calls) == 4


@pytest.mark.parametrize("error", [InvariantError("broken"), MathError("inconsistent")])
def test_any_other_error_propagates_at_once(error):
    draw, calls = _draws(5, error, 5, 5)
    with pytest.raises(type(error)) as raised:
        agreed_value(draw, 6, "counts")
    assert raised.value is error
    assert len(calls) == 2
