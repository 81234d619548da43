"""Byte-identical command output for a fixed-seed corpus.

Each file under tests/data/golden/ is the exact standard output of one
seeded command, recorded before the code it runs was rewritten for speed.
Any change to a count, a random draw or the JSON layout shows up here.
"""

from pathlib import Path

import pytest

from multspec.cli import build_parser, main, run_command

GOLDEN = Path(__file__).parent / "data" / "golden"

CORPUS = {
    "deg-tau32": ["deg-tau32", "--draws", "1", "--seed", "1"],
    "poly-classes": ["poly-classes", "-d", "4", "--lambdas=-5,5,4", "--seed", "3"],
    "poly-classes-d5": ["poly-classes", "-d", "5", "--lambdas=-2,-3,-4,8", "--seed", "1"],
    "sigma2-check": ["sigma2-check", "-d", "4", "--lambdas=-5,5,4", "--seed", "3"],
    # d = 5 certifies by power sums in the quotient algebra (invariant-trace)
    "sigma2-check-d5": ["sigma2-check", "-d", "5", "--lambdas=-5,5,-4,-2,29/9", "--seed", "1"],
    "relation": ["relation", "--map", "(z^3+2*z+1)/(z^2-3)"],
    # a polynomial quintic over QQ, and a rational quintic over GF(p)
    "relation-polynomial": ["relation", "--num", "4,7,6,-2,8,-7", "--den", "0,0,0,0,0,-9"],
    "relation-gf": ["relation", "--num", "3,1,4,1,5,9", "--den", "2,6,5,3,5,8", "--field", "GF:1000003"],
    "sigma": ["sigma", "--map", "z^3+a*z+b", "-a", "2", "-b", "-1", "-n", "2"],
    # rational coefficients, so clearing denominators rescales the resultant samples
    "sigma-qq-quadratic": ["sigma", "--map", "(z^2/2-5/3)/(2/3*z+1)", "-n", "2"],
    "sigma-qq-cubic": ["sigma", "--map", "(1/2*z^3-5/3*z+7/4)/(z^2/3+1)", "-n", "2"],
    # level 3 over GF(p) of a cubic fixing infinity; tau to level 4 over QQ
    "sigma-n3-gf": ["sigma", "--map", "(z^3+2*z+1)/(z^2-3)", "-n", "3", "--field", "GF:1000003"],
    "tau-n4": ["tau", "--map", "(z^2+3)/(2*z^2-z+5)", "-n", "4"],
    # a double fixed point, and three distinct ones (a = -6, 27 b^2 = 972)
    "p3-form-double": ["p3-form", "--lambdas=1,1,10"],
    "p3-form": ["p3-form", "--lambdas=-3,6,21"],
    "normal-form3": ["normal-form3", "--l0", "-1", "--l1", "-1", "--linf", "-1", "--alpha", "2"],
    "normal-form3-gf": ["normal-form3", "--field", "GF:10007", "--l0", "3", "--l1", "5", "--linf", "7", "--alpha", "11"],
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_output_matches_golden(name, capsys):
    assert main(CORPUS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


def test_one_parser_serves_every_call():
    # the parser is built once per process; usage errors raised inside it
    # and a different call order must leave every document unchanged
    names = sorted(CORPUS)
    for name in names + ["sigma -n two", "frobnicate"] + names[::-1]:
        if name in CORPUS:
            code, text = run_command(CORPUS[name])
            assert (code, text + "\n") == (0, (GOLDEN / f"{name}.json").read_text()), name
        else:
            code, text = run_command(name.split())
            assert code == 2 and '"kind": "usage"' in text, name
    assert build_parser() is build_parser()
