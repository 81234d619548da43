import random
from fractions import Fraction

import pytest

from multspec.errors import MathError
from multspec.exactalg import GF, QQ, UniPoly
from multspec.linalg import char_poly, solve_linear

from matrix_helpers import bareiss_det, mat_inverse, mat_mul, random_invertible
from poly_oracles import PolyRing


def test_solve_linear_known():
    F = GF(101)
    a = [[2, 1], [1, 3]]
    x = solve_linear(a, [5, 10], F)
    assert [(2 * x[0] + x[1]) % 101, (x[0] + 3 * x[1]) % 101] == [5, 10]
    with pytest.raises(MathError):
        solve_linear([[1, 2], [2, 4]], [1, 1], F)


def test_solve_linear_qq():
    a = [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(-1)]]
    x = solve_linear(a, [Fraction(3), Fraction(0)], QQ)
    assert x[0] == x[1] == Fraction(2)


def test_int_valued_qq_matrices_stay_exact():
    assert QQ.inv(3) == QQ.div(1, 3) == Fraction(1, 3)
    # det = -3, trace 16: every pivot of the Hessenberg step is an int
    chi = char_poly([[1, 2, 3], [4, 5, 6], [7, 8, 10]], QQ)
    assert chi.coeffs == (3, -12, -16, 1)
    assert all(type(c) is Fraction for c in chi.coeffs)
    x = solve_linear([[2, 1], [1, 3]], [1, 2], QQ)
    assert x == [Fraction(1, 5), Fraction(3, 5)]
    assert all(type(c) is Fraction for c in x)
    rng = random.Random(23)
    for n in (2, 4, 6):
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert char_poly(m, QQ) == char_poly([[Fraction(x) for x in r] for r in m], QQ)
        assert char_poly(m, QQ).coeff(0) == (-1) ** n * bareiss_det([[Fraction(x) for x in r] for r in m], QQ)


def test_char_poly_against_bareiss_determinant():
    # det(tI - M) computed two unrelated ways must agree
    rng = random.Random(20)
    F = GF(101)
    R = PolyRing(F, "t")
    t = UniPoly.gen(F, "t")
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            m = [[F.rand(rng) for _ in range(n)] for _ in range(n)]
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    c = UniPoly.const(F, "t", F.neg(m[i][j]))
                    row.append(c + t if i == j else c)
                rows.append(row)
            want = bareiss_det(rows, R)
            assert char_poly(m, F) == want


def test_char_poly_trace_and_det():
    rng = random.Random(21)
    F = GF(103)
    n = 6
    m = [[F.rand(rng) for _ in range(n)] for _ in range(n)]
    p = char_poly(m, F)
    assert p.degree == n and p.lc == 1
    tr = sum(m[i][i] for i in range(n)) % 103
    assert p.coeff(n - 1) == F.neg(tr)
    assert p.coeff(0) == F.mul(F.pow(F.neg(F.one), n), bareiss_det(m, F))


def test_mat_inverse_round_trip():
    rng = random.Random(22)
    F = GF(97)
    m = random_invertible(4, F, rng)
    inv = mat_inverse(m, F)
    prod = mat_mul(m, inv, F)
    ident = [[F.one if i == j else F.zero for j in range(4)] for i in range(4)]
    assert prod == ident
