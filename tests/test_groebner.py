import itertools
import random
from fractions import Fraction

import pytest

from multspec import groebner
from multspec.errors import BudgetExhaustedError, DegenerateInputError, MathError, UsageError, work_limit
from multspec.exactalg import GF, QQ, UniPoly
from multspec.groebner import (
    GREVLEX,
    IdealBasis,
    MultiPoly,
    QuotientAlgebra,
    buchberger,
    distinct_point_count,
    eliminant_of_form,
    mono_divides,
    mono_lcm,
    quotient_dimension,
    random_linear_form,
    solve_rational_points,
)
from multspec.linalg import char_poly
from multspec.polymoduli import build_fixed_config_system, complete_multipliers

from groebner_oracles import (
    LEX,
    dehomogenize,
    eliminate,
    frobenius_rank,
    hermite_rank,
    jacobian_det_at,
    linear_change,
    linear_scan_steps,
    normal_form,
    spoly,
    substitute,
    to_multipoly,
)


def mp(dom, vars_, s_terms):
    """terms as {exp: int} with ints mapped into dom"""
    return MultiPoly(dom, vars_, {e: dom.from_int(c) for e, c in s_terms.items()})


def gens_xy(dom):
    # (x-1)(x-2)(x-3) and y - x: three rational points on a line
    x3 = mp(dom, ("x", "y"), {(3, 0): 1, (2, 0): -6, (1, 0): 11, (0, 0): -6})
    yx = mp(dom, ("x", "y"), {(0, 1): 1, (1, 0): -1})
    return [x3, yx]


def test_grevlex_order_on_quadratics():
    key = GREVLEX.key
    x2, xy, y2, xz, yz, z2 = (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)
    seq = [x2, xy, y2, xz, yz, z2]
    assert sorted(seq, key=key, reverse=True) == seq


def test_multipoly_ring_axioms_and_eval():
    rng = random.Random(30)
    F = GF(101)
    vars_ = ("x", "y", "z")

    def rand_mp():
        t = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 3) for _ in vars_)
            t[e] = F.rand(rng)
        return MultiPoly(F, vars_, t)

    for _ in range(20):
        f, g, h = rand_mp(), rand_mp(), rand_mp()
        assert (f + g) * h == f * h + g * h
        pt = [F.rand(rng) for _ in vars_]
        assert (f * g).eval(pt) == F.mul(f.eval(pt), g.eval(pt))
        assert (f - f).is_zero


def test_substitute_and_homogenize():
    F = GF(101)
    f = mp(F, ("x", "y"), {(2, 0): 1, (1, 1): 3, (0, 0): 7})
    g = substitute(f, {"y": F.from_int(2)})
    assert g.eval([5, 0]) == f.eval([5, 2])
    h = f.homogenize("w")
    assert h.vars == ("x", "y", "w")
    assert all(sum(e) == 2 for e in h.terms)
    assert dehomogenize(h, "w") == f


def test_linear_change_composes_to_identity():
    rng = random.Random(31)
    F = GF(101)
    from matrix_helpers import mat_inverse, random_invertible

    f = mp(F, ("x", "y"), {(3, 0): 2, (1, 2): 5, (0, 1): 9})
    m = random_invertible(2, F, rng)
    minv = mat_inverse(m, F)
    assert linear_change(linear_change(f, m), minv) == f


def test_buchberger_satisfies_definition():
    # the definitional checks: inputs reduce to zero, all S-pairs reduce to zero
    rng = random.Random(32)
    F = GF(101)
    vars_ = ("x", "y", "z")
    for trial in range(8):
        gens = []
        for _ in range(3):
            t = {}
            for _ in range(rng.randint(2, 5)):
                e = tuple(rng.randint(0, 2) for _ in vars_)
                t[e] = F.rand(rng)
            g = MultiPoly(F, vars_, t)
            if not g.is_zero:
                gens.append(g)
        if not gens:
            continue
        gb = buchberger(gens, GREVLEX)
        for g in gens:
            assert normal_form(g, gb).is_zero
        for i in range(len(gb.gens)):
            for j in range(i + 1, len(gb.gens)):
                s = spoly(gb.gens[i], gb.gens[j], GREVLEX)
                assert normal_form(s, gb).is_zero
        # reduced: no term of g divisible by another leading term
        lts = [g.leading(GREVLEX)[0] for g in gb.gens]
        for i, g in enumerate(gb.gens):
            for e in g.terms:
                assert not any(
                    j != i and mono_divides(lts[j], e) for j in range(len(gb.gens))
                )


def test_normal_form_is_linear_and_idempotent():
    F = GF(101)
    gb = buchberger(gens_xy(F), GREVLEX)
    f = mp(F, ("x", "y"), {(4, 1): 3, (0, 2): 1})
    g = mp(F, ("x", "y"), {(2, 2): 7, (1, 0): 4})
    nf = normal_form
    assert nf(f + g, gb) == nf(f, gb) + nf(g, gb)
    assert nf(nf(f, gb), gb) == nf(f, gb)


def test_quotient_dimension_known_systems():
    F = GF(101)
    # x^2 = 1, y^2 = 4: four points, dimension 4
    g1 = mp(F, ("x", "y"), {(2, 0): 1, (0, 0): -1})
    g2 = mp(F, ("x", "y"), {(0, 2): 1, (0, 0): -4})
    gb = buchberger([g1, g2], GREVLEX)
    assert quotient_dimension(gb) == 4
    assert len(gb.staircase) == 4
    # a line alone: infinite
    gb2 = buchberger([mp(F, ("x", "y"), {(1, 0): 1, (0, 1): -1})], GREVLEX)
    assert quotient_dimension(gb2) is None
    # containing 1
    gb3 = buchberger([mp(F, ("x", "y"), {(0, 0): 5})], GREVLEX)
    assert quotient_dimension(gb3) == 0
    assert distinct_point_count(gb3) == 0


def test_quotient_dimension_counts_multiplicity():
    F = GF(101)
    # (x-1)^2 (x-2) with y: dimension 3, distinct points 2
    g1 = mp(F, ("x", "y"), {(3, 0): 1, (2, 0): -4, (1, 0): 5, (0, 0): -2})
    g2 = mp(F, ("x", "y"), {(0, 1): 1})
    gb = buchberger([g1, g2], GREVLEX)
    assert quotient_dimension(gb) == 3
    assert distinct_point_count(gb) == 2
    rng = random.Random(33)
    # a form's eliminant carries each point's multiplicity as a root multiplicity
    u = random_linear_form(gb.vars, F, rng)
    e = eliminant_of_form(gb, u)
    t = UniPoly.gen(F, e.var)
    one, two = (t - UniPoly.const(F, e.var, u.eval((F.from_int(x), F.zero))) for x in (1, 2))
    assert e == one * one * two


def test_eliminant_of_explicit_form():
    F = GF(101)
    gb = buchberger(gens_xy(F), GREVLEX)
    u = MultiPoly.gen(F, ("x", "y"), "x")
    e = eliminant_of_form(gb, u)
    # eigenvalues of multiplication by x are exactly the x-coordinates 1,2,3
    assert e.degree == 3
    for r in (1, 2, 3):
        assert e.eval(F.from_int(r)) == 0


def test_eliminants_on_a_cached_basis_match_a_fresh_basis():
    # two dense cubics in x, y: a 9-point quotient
    rng = random.Random(35)
    F = GF(32003)
    monos = [(i, j) for i in range(4) for j in range(4 - i)]
    gens = [MultiPoly(F, ("x", "y"), {e: F.rand_nonzero(rng) for e in monos}) for _ in range(2)]
    gb = buchberger(gens, GREVLEX)
    assert quotient_dimension(gb) == 9
    Q = gb.quotient
    Q.mult_matrix((F.one,) * Q.dim)  # builds every row of structure constants first
    forms = [random_linear_form(gb.vars, F, rng) for _ in range(2)]
    cached = [eliminant_of_form(gb, u) for u in forms]
    assert gb.quotient is Q  # one context per basis
    fresh = [eliminant_of_form(IdealBasis(gb.vars, gb.order, gb.gens), u) for u in forms]
    assert cached == fresh
    assert [char_poly(Q.mult_matrix(Q.project(u)), F) for u in forms] == fresh


def test_multiplication_matrix_is_not_shared():
    F = GF(101)
    gb = buchberger(gens_xy(F), GREVLEX)
    Q = gb.quotient
    x = MultiPoly.gen(F, gb.vars, "x")
    m = Q.mult_matrix(Q.project(x))
    want = [list(r) for r in m]
    for row in m:
        row[:] = [F.add(c, 1) for c in row]
    assert Q.mult_matrix(Q.project(x)) == want
    assert eliminant_of_form(gb, x) == char_poly(want, F)


def test_distinct_point_count_three_points():
    F = GF(101)
    gb = buchberger(gens_xy(F), GREVLEX)
    assert distinct_point_count(gb) == 3


X2_TIMES_X_MINUS_1 = {(3, 0): 1, (2, 0): -1}  # x^2 (x - 1)


@pytest.mark.parametrize(
    "p, gens, want, trace_rank",
    [
        (101, [{(2, 0): 1}, {(0, 1): 1, (1, 0): -1}], 1, 1),  # (x^2, y - x): one double point
        (3, [X2_TIMES_X_MINUS_1, {(0, 2): 1, (0, 0): -1}], 4, 4),  # no form over GF(3) separates the 4 points
        (10007, [X2_TIMES_X_MINUS_1, {(0, 2): 1, (0, 0): -1}], 4, 4),
        (3, [{(3, 0): 1}, {(0, 2): 1}], 1, 0),  # (x^3, y^2): multiplicity 6 = 0 mod 3
    ],
)
def test_distinct_point_count_of_planted_non_reduced_systems(p, gens, want, trace_rank):
    # no coordinate takes dim Q values on these, so each count is the
    # dimension of the radical; Frobenius agrees at any p, the trace form
    # misses a point whose multiplicity p divides
    F = GF(p)
    gb = buchberger([mp(F, ("x", "y"), g) for g in gens], GREVLEX)
    assert quotient_dimension(gb) > want
    assert distinct_point_count(gb) == frobenius_rank(gb) == want
    assert hermite_rank(gb) == trace_rank


def _free_lists(F, d):
    """Every set of d - 1 distinct free multipliers other than 1 that the
    index formula completes, completed."""
    values = [F.from_int(c) for c in range(F.p) if c != 1]
    for free in itertools.combinations(values, d - 1):
        try:
            yield complete_multipliers(F, d, free)
        except DegenerateInputError:
            continue


def _sweep(p, d, oracle, monkeypatch):
    """(lists, radical-path counts) of `distinct_point_count` on the
    configuration basis of every free list over GF(p), each count checked
    against the oracle."""
    radicals = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens, order: radicals.append(gens) or real(gens, order))
    F, lists = GF(p), 0
    for lams in _free_lists(F, d):
        basis = real(build_fixed_config_system(F, d, lams).gens, GREVLEX)
        assert distinct_point_count(basis) == oracle(basis), lams
        lists += 1
    return lists, len(radicals)


def test_distinct_point_count_matches_the_trace_form_on_every_d4_list_over_gf17(monkeypatch):
    # p = 17 > dim Q = 6, so the rank of the trace form is the distinct count
    # (groebner_oracles.agreed_form_count miscounts or gives up on 3 to 13 of
    # them at each rng seed 0-3)
    assert _sweep(17, 4, hermite_rank, monkeypatch) == (528, 0)


def test_distinct_point_count_matches_frobenius_on_every_d5_list_over_gf11(monkeypatch):
    # p = 11 < dim Q = 24: the Frobenius rank counts at any p, and 10 of
    # these systems have no coordinate that takes dim Q values
    assert _sweep(11, 5, frobenius_rank, monkeypatch) == (190, 10)


def test_solve_rational_points_grid():
    F = GF(101)
    rng = random.Random(35)
    # {x in {3, 7}} x {y in {1, 5, 9}}
    gx = mp(F, ("x", "y"), {(2, 0): 1, (1, 0): -10, (0, 0): 21})
    gy = mp(F, ("x", "y"), {(0, 3): 1, (0, 2): -15, (0, 1): 59, (0, 0): -45})
    gb = buchberger([gx, gy], GREVLEX)
    pts = solve_rational_points(gb, rng)
    assert sorted(pts) == sorted((x, y) for x in (3, 7) for y in (1, 5, 9))


def test_solve_rational_points_not_split():
    # x^2 = nonresidue: no rational points, eliminant cannot split
    F = GF(103)
    rng = random.Random(36)
    nonres = next(n for n in range(2, 103) if pow(n, 51, 103) == 102)
    g = mp(F, ("x",), {(2,): 1, (0,): -nonres})
    gb = buchberger([g], GREVLEX)
    with pytest.raises(DegenerateInputError, match="does not split"):
        solve_rational_points(gb, rng)


def test_eliminate_twisted_cubic():
    F = GF(101)
    vars_ = ("x", "y", "z")
    g1 = mp(F, vars_, {(2, 0, 0): 1, (0, 1, 0): -1})  # x^2 = y
    g2 = mp(F, vars_, {(3, 0, 0): 1, (0, 0, 1): -1})  # x^3 = z
    eb = eliminate([g1, g2], ("y", "z"))
    assert eb.vars == ("y", "z")
    assert eb.gens
    # every eliminated generator vanishes on the parametrization (t^2, t^3)
    for t in range(101):
        for g in eb.gens:
            assert g.eval([t * t % 101, t * t * t % 101]) == 0
    # and y^3 - z^2 is in the elimination ideal
    y3z2 = mp(F, ("y", "z"), {(3, 0): 1, (0, 2): -1})
    assert normal_form(y3z2, eb).is_zero


def test_jacobian_det_at():
    F = GF(101)
    g1 = mp(F, ("x", "y"), {(2, 0): 1, (0, 1): -1})  # x^2 - y
    g2 = mp(F, ("x", "y"), {(1, 0): 1, (0, 1): 1})  # x + y
    # J = [[2x, -1], [1, 1]], det = 2x + 1
    for x0, y0 in ((3, 9), (5, 25)):
        assert jacobian_det_at([g1, g2], ("x", "y"), [x0, y0]) == (2 * x0 + 1) % 101
    with pytest.raises(UsageError):
        jacobian_det_at([g1], ("x", "y"), [0, 0])


def budget_system():
    F = GF(101)
    rng = random.Random(37)
    gens = []
    for _ in range(3):
        t = {}
        for _ in range(5):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            t[e] = F.rand(rng)
        gens.append(MultiPoly(F, ("x", "y", "z"), t))
    return gens


def test_budget_exhaustion():
    with pytest.raises(BudgetExhaustedError), work_limit(2):
        buchberger(budget_system(), GREVLEX)


def test_budget_counts_every_reduction_step():
    # 1250 reduction steps, counted with the linear-scan reduction this
    # package used before heap-ordered reduction: same steps, same order
    gens = budget_system()
    with pytest.raises(BudgetExhaustedError), work_limit(1249):
        buchberger(gens, GREVLEX)
    with work_limit(1250):
        basis = buchberger(gens, GREVLEX)
    assert basis == buchberger(gens, GREVLEX)


def test_linear_scan_oracle_reads_the_1250_step_pin():
    basis, steps = linear_scan_steps(budget_system())
    assert steps == 1250
    assert basis == buchberger(budget_system(), GREVLEX)


def random_complete_intersection(rng, F, n, deg):
    """n polynomials of total degree deg in n variables: random top-degree
    forms, zero-dimensional for generic coefficients, and a random share of
    the lower monomials."""
    vars_ = tuple("xyzw"[:n])
    monos = [e for e in itertools.product(range(deg + 1), repeat=n) if sum(e) <= deg]
    density = rng.random()
    return [
        MultiPoly(F, vars_, {e: F.rand(rng) for e in monos if sum(e) == deg or rng.random() < density})
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_memoized_reduction_charges_the_linear_scan_steps(seed):
    # the first-divisor memo picks the reducer a linear scan picks, so the
    # run takes the oracle's steps exactly and reaches the same basis
    rng = random.Random(seed)
    F = GF(rng.choice([101, 32003, 1000003]))
    n = rng.choice([3, 4])
    gens = random_complete_intersection(rng, F, n, 6 - n)
    basis, steps = linear_scan_steps(gens)
    assert quotient_dimension(basis) is not None and steps > 0
    assert buchberger(gens, GREVLEX) == basis
    with work_limit(steps):
        assert buchberger(gens, GREVLEX) == basis
    with pytest.raises(BudgetExhaustedError), work_limit(steps - 1):
        buchberger(gens, GREVLEX)


def test_packed_monomial_range_is_guarded():
    F = GF(101)
    vars_ = ("x", "y")
    with pytest.raises(UsageError):
        buchberger([MultiPoly(F, vars_, {(2**31, 0): 1, (0, 0): 1})], GREVLEX)
    # lex division raises exponents past its inputs: x^2 by x + 100 y^(2^30)
    g = MultiPoly(F, vars_, {(1, 0): 1, (0, 2**30): 100})
    basis = IdealBasis(vars=vars_, order=LEX, gens=(g,))
    assert normal_form(MultiPoly(F, vars_, {(1, 0): 1}), basis).terms == {(0, 2**30): 1}
    with pytest.raises(UsageError):
        normal_form(MultiPoly(F, vars_, {(2, 0): 1}), basis)


def test_buchberger_over_qq():
    g1 = MultiPoly(QQ, ("x", "y"), {(2, 0): Fraction(1), (0, 0): Fraction(-1, 4)})
    g2 = MultiPoly(QQ, ("x", "y"), {(0, 1): Fraction(1), (1, 0): Fraction(-2)})
    gb = buchberger([g1, g2], GREVLEX)
    assert quotient_dimension(gb) == 2
    assert distinct_point_count(gb) == 2


def test_lex_elimination_order_blocks():
    # lex basis of a zero-dim ideal contains a univariate in the last variable
    F = GF(101)
    gb = buchberger(gens_xy(F), LEX)
    uni = [g for g in gb.gens if all(e[0] == 0 for e in g.terms)]
    assert uni, "lex basis must contain a y-only polynomial"


def test_quotient_algebra_ring_ops():
    rng = random.Random(44)
    F = GF(41)
    vars_ = ("x", "y")
    gens = [mp(F, vars_, {(2, 0): 1, (0, 0): -2}), mp(F, vars_, {(0, 2): 1, (0, 0): -3})]
    gb = buchberger(gens, GREVLEX)
    Q = QuotientAlgebra(gb)
    assert Q.dim == 4
    x = Q.project(MultiPoly.gen(F, vars_, "x"))
    y = Q.project(MultiPoly.gen(F, vars_, "y"))
    assert Q.mul(x, x) == Q.from_int(2)
    assert Q.mul(y, y) == Q.from_int(3)
    assert Q.is_zero(Q.project(gens[0]))

    def rand_mp():
        t = {}
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 3) for _ in vars_)
            t[e] = F.rand(rng)
        return MultiPoly(F, vars_, t)

    for _ in range(20):
        f, g = rand_mp(), rand_mp()
        a, b = Q.project(f), Q.project(g)
        assert Q.project(f * g) == Q.mul(a, b)
        assert Q.project(f + g) == Q.add(a, b)
        assert Q.mul(a, b) == Q.mul(b, a)
        assert Q.mul(a, Q.one) == a
        assert Q.sub(a, a) == Q.zero


def test_quotient_algebra_mult_matrix_matches_eliminant():
    F = GF(101)
    gb = buchberger(gens_xy(F), GREVLEX)
    Q = QuotientAlgebra(gb)
    x = Q.project(MultiPoly.gen(F, ("x", "y"), "x"))
    # multiplication by x on GF[x,y]/I has eigenvalues 1, 2, 3
    e = eliminant_of_form(gb, MultiPoly.gen(F, ("x", "y"), "x"))
    m = Q.mult_matrix(x)
    assert char_poly(m, F) == e
    want = [F.from_int(c) for c in (-6, 11, -6, 1)]
    assert list(e.coeffs) == want


def _oracle_mult_matrix(gb, f):
    """Matrix of multiplication by f: column j is the oracle normal form of
    f * b_j, read off on the standard monomials."""
    cols = []
    for b in gb.staircase:
        nf = normal_form(f * MultiPoly(f.dom, gb.vars, {b: f.dom.one}), gb)
        cols.append([nf.terms.get(e, f.dom.zero) for e in gb.staircase])
    return [list(row) for row in zip(*cols)]


def test_quotient_algebra_sparse_products_on_the_d5_configurations():
    # the 24-dimensional quotient of the d = 5 fixed-point configuration
    # system: most structure constants are zero
    rng = random.Random(47)
    F = GF(1000033)
    lams = [F.from_rational(l) for l in (-2, -3, -4, 8, Fraction(689, 269))]
    gb = buchberger(build_fixed_config_system(F, 5, lams).gens, GREVLEX)
    Q = QuotientAlgebra(gb)
    assert Q.dim == 24

    def rand_mp():
        t = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 3) for _ in gb.vars)
            t[e] = F.rand_nonzero(rng)
        return MultiPoly(F, gb.vars, t)

    for _ in range(10):
        f, g = rand_mp(), rand_mp()
        a, b = Q.project(f), Q.project(g)
        assert Q.mul(a, b) == Q.project(f * g)
        assert Q.add(a, b) == Q.project(f + g)
        assert Q.sub(a, b) == Q.project(f - g)
        assert Q.mult_matrix(a) == _oracle_mult_matrix(gb, f)


def test_quotient_algebra_over_qq():
    g1 = MultiPoly(QQ, ("x", "y"), {(2, 0): Fraction(1), (0, 1): Fraction(-3, 2)})
    g2 = MultiPoly(QQ, ("x", "y"), {(0, 2): Fraction(1), (1, 0): Fraction(-1, 3)})
    gb = buchberger([g1, g2], GREVLEX)
    Q = QuotientAlgebra(gb)
    assert Q.dim == 4
    f = MultiPoly(QQ, gb.vars, {(3, 1): Fraction(2, 7), (0, 0): Fraction(5)})
    g = MultiPoly(QQ, gb.vars, {(1, 2): Fraction(-1, 2), (2, 0): Fraction(1)})
    assert Q.mul(Q.project(f), Q.project(g)) == Q.project(f * g)
    assert Q.mult_matrix(Q.project(f)) == _oracle_mult_matrix(gb, f)
    rng = random.Random(48)

    def rand_mp():
        t = {}
        for _ in range(4):
            t[rng.randint(0, 3), rng.randint(0, 3)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return MultiPoly(QQ, gb.vars, t)

    for _ in range(10):
        f, g = rand_mp(), rand_mp()
        a, b = Q.project(f), Q.project(g)
        assert Q.mul(a, b) == Q.project(f * g)
        assert Q.add(a, b) == Q.project(f + g)
        assert Q.sub(a, b) == Q.project(f - g)


def test_quotient_algebra_eval_at_points():
    rng = random.Random(46)
    F = GF(41)
    vars_ = ("x", "y")
    gens = [mp(F, vars_, {(2, 0): 1, (0, 0): -4}), mp(F, vars_, {(0, 1): 1, (1, 0): -5})]
    gb = buchberger(gens, GREVLEX)
    Q = QuotientAlgebra(gb)
    pts = solve_rational_points(gb, rng)
    assert sorted(p[0] for p in pts) == [2, 39]
    for _ in range(10):
        t = {}
        for _ in range(rng.randint(1, 6)):
            e = tuple(rng.randint(0, 4) for _ in vars_)
            t[e] = F.rand(rng)
        f = MultiPoly(F, vars_, t)
        g = to_multipoly(Q, Q.project(f))
        for pt in pts:
            assert g.eval(pt) == f.eval(pt)


def test_quotient_algebra_rejects_bad_ideals():
    F = GF(41)
    vars_ = ("x", "y")
    line = buchberger([mp(F, vars_, {(1, 0): 1, (0, 1): -1})], GREVLEX)
    with pytest.raises(MathError, match="infinite dimensional"):
        QuotientAlgebra(line)
    unit = buchberger([mp(F, vars_, {(0, 0): 1})], GREVLEX)
    with pytest.raises(UsageError):
        QuotientAlgebra(unit)
