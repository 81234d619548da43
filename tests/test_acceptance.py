"""Acceptance gate: every headline result must reproduce at exact arithmetic.

Each criterion runs with its default seed and prints one pass/fail line;
run with -s (or read the failure message) to see them.
"""

import json

import pytest

from multspec.cli import run_command
from multspec.reproduce import CRITERIA, run_criterion

_CASES = [(num, name) for num, name, _ in CRITERIA]


@pytest.mark.parametrize(
    "number", [num for num, _ in _CASES], ids=[name.replace(" ", "-") for _, name in _CASES]
)
def test_criterion(number):
    result = run_criterion(number)
    verdict = "PASS" if result.passed else "FAIL"
    line = f"criterion {result.number:2d} {verdict}  {result.name}: {result.detail}"
    print(line)
    assert result.passed, line


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "known defect: at these seeds criterion 11 draws a GF(3) cubic whose fixed points are all "
        "of P^1(F_3), and multiplier_char_poly finds no point to conjugate infinity to; ROADMAP "
        "item 10 reads infinity in its own chart instead, which deletes dynamics.conjugate, a name "
        "the TRACED block of perfbench/tracer.py resolves"
    ),
)
@pytest.mark.parametrize("seed", [6, 16])
def test_criterion_11_at_seeds_with_all_fixed_cubics(seed):
    code, text = run_command(["reproduce-paper", "--seed", str(seed), "--only", "11"])
    assert code == 0, json.loads(text)["criteria"][0]["detail"]
