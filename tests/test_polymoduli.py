import random
from fractions import Fraction

import pytest

from multspec import polymoduli
from multspec.dynamics import ProjPoint, multiplier_at_point, sigma_n
from multspec.errors import (
    BudgetExhaustedError,
    DegenerateInputError,
    EliminantNotSplitError,
    InvariantError,
    MathError,
    NonSimpleSolutionError,
    UsageError,
)
from multspec.exactalg import GF, QQ, UniPoly, compose, derivative, fp_roots, random_prime
from multspec.groebner import quotient_dimension
from multspec.polymoduli import (
    PolyNormalForm,
    _config_basis,
    _invariant_certificate,
    _solve_configurations,
    _zeta_orbits,
    build_fixed_config_system,
    complete_multipliers,
    count_fixed_configurations,
    fiber_degree_experiment,
    multiplier_relation_residual,
    p3_from_sigma1,
    poly_from_fixed_points,
    sigma2_discrimination,
    two_cycle_power_sums,
)
from multspec.reproduce import run_criterion

from groebner_oracles import config_system_by_substitution, to_multipoly
from matrix_helpers import mat_mul
from poly_oracles import tau31_phi_ab

D4_LAMBDAS = [-5, 5, 4, Fraction(-7, 5)]
D5_LAMBDAS = [-2, -3, -4, 8, Fraction(689, 269)]


def qq(*xs):
    return [QQ.from_rational(x) for x in xs]


def test_relation_residual():
    assert multiplier_relation_residual(QQ, qq(Fraction(1, 2), 5)) == Fraction(7, 4)
    assert QQ.is_zero(multiplier_relation_residual(QQ, qq(*D4_LAMBDAS)))
    assert QQ.is_zero(multiplier_relation_residual(QQ, qq(*D5_LAMBDAS)))
    with pytest.raises(DegenerateInputError):
        multiplier_relation_residual(QQ, qq(1, 3))


def test_complete_multipliers():
    assert complete_multipliers(QQ, 4, qq(-5, 5, 4))[-1] == Fraction(-7, 5)
    assert complete_multipliers(QQ, 5, qq(-2, -3, -4, 8))[-1] == Fraction(689, 269)
    full = complete_multipliers(QQ, 3, qq(Fraction(1, 2), 5))
    assert full[-1] == Fraction(11, 7)
    assert QQ.is_zero(multiplier_relation_residual(QQ, full))
    F = GF(101)
    full = complete_multipliers(F, 4, [F.from_int(c) for c in (2, 3, 5)])
    assert F.is_zero(multiplier_relation_residual(F, full))
    # 1/(1-0) + 1/(1-2) = 0 leaves no consistent last multiplier
    with pytest.raises(DegenerateInputError):
        complete_multipliers(QQ, 3, qq(0, 2))
    with pytest.raises(UsageError):
        complete_multipliers(QQ, 3, qq(0, 2, 3))


def test_normal_form_round_trip():
    rng = random.Random(5)
    for dom in (QQ, GF(101)):
        for d in (2, 3, 4, 5):
            nf = PolyNormalForm(dom, d, tuple(dom.rand(rng) for _ in range(d - 1)))
            p = nf.to_unipoly()
            assert p.degree == d and p.lc == dom.one
            assert dom.is_zero(p.coeff(d - 1))
            assert PolyNormalForm.from_unipoly(p) == nf
            assert nf.to_map().d == d
    with pytest.raises(UsageError):
        PolyNormalForm.from_unipoly(UniPoly.from_ints(QQ, "z", [1, 1, 1]))  # z^2 term
    with pytest.raises(UsageError):
        PolyNormalForm.from_unipoly(UniPoly.from_ints(QQ, "z", [1, 0, 2]))  # not monic
    with pytest.raises(UsageError):
        PolyNormalForm(QQ, 3, (QQ.one,))


def test_poly_from_fixed_points_recovers_cubic():
    # phi = z^3 + az + b fixes the roots of z^3 + (a-1)z + b
    rng = random.Random(6)
    F = GF(131)
    hits = 0
    while hits < 5:
        a, b = F.rand(rng), F.rand(rng)
        fixed = UniPoly(F, "z", [b, F.sub(a, F.one), F.zero, F.one])
        roots = fp_roots(fixed, rng)
        if len(roots) != 3:
            continue
        nf = poly_from_fixed_points(F, roots)
        assert nf.coeffs == (a, b)
        for r in roots:
            lam = multiplier_at_point(nf.to_map(), ProjPoint.affine(F, r), 1)
            assert lam == F.add(F.mul(F.from_int(3), F.mul(r, r)), a)
        hits += 1
    nf = poly_from_fixed_points(QQ, qq(0, 0, 0))
    assert nf.coeffs == (Fraction(1), Fraction(0))  # z^3 + z
    with pytest.raises(DegenerateInputError):
        poly_from_fixed_points(QQ, qq(1, 2, 3))
    with pytest.raises(UsageError):
        poly_from_fixed_points(QQ, qq(0))


def test_poly_from_fixed_points_quadratic_translates():
    # {r, -r} fix z^2 + z - r^2; the normal form shifts it to z^2 + (1-4r^2)/4
    for r in qq(3, Fraction(5, 7)):
        nf = poly_from_fixed_points(QQ, [r, QQ.neg(r)])
        c = nf.coeffs[0]
        assert c == (1 - 4 * r * r) / 4
        s = sigma_n(nf.to_map(), 1)
        assert s.values == (QQ.from_int(2), 4 * c, QQ.zero)
        # multipliers 1 +- 2r survive the shift, at fixed points 1/2 +- r
        lam = multiplier_at_point(nf.to_map(), ProjPoint.affine(QQ, Fraction(1, 2) + r), 1)
        assert lam == 1 + 2 * r
    F = GF(13)
    nf = poly_from_fixed_points(F, [F.from_int(2), F.from_int(-2)])
    assert nf.coeffs == (F.div(F.from_int(-15), F.from_int(4)),)


def test_config_system_shape():
    lams = qq(2, 3, Fraction(5, 3))
    sys = build_fixed_config_system(QQ, 3, lams)
    assert sys.vars == ("z1", "z2")
    assert len(sys.gens) == 3
    assert [g.total_degree() for g in sys.gens] == [2, 2, 2]
    with pytest.raises(DegenerateInputError):
        build_fixed_config_system(QQ, 3, qq(1, 2, 3))
    with pytest.raises(UsageError):
        build_fixed_config_system(QQ, 3, qq(2, 3))


def test_config_system_matches_substitution_oracle():
    # built in z_1..z_(d-1) directly, the generators are the d-variable ones
    # with z_d = -(z_1 + ... + z_(d-1)) substituted and z_d dropped
    rng = random.Random(13)
    for dom in (QQ, GF(101), GF(1000003)):
        for d in range(2, 7):
            lams = []
            while len(lams) < d:
                c = dom.from_rational(Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
                if c != dom.one and c not in lams:
                    lams.append(c)
            sys = build_fixed_config_system(dom, d, lams)
            assert sys.vars == tuple(f"z{i + 1}" for i in range(d - 1))
            assert list(sys.gens) == config_system_by_substitution(dom, d, lams)


def test_config_system_vanishes_on_real_configurations():
    # fixed points of a split cubic with their true multipliers solve the system
    rng = random.Random(7)
    F = GF(151)
    hits = 0
    while hits < 5:
        a, b = F.rand(rng), F.rand(rng)
        fixed = UniPoly(F, "z", [b, F.sub(a, F.one), F.zero, F.one])
        roots = fp_roots(fixed, rng)
        if len(roots) != 3 or len(set(roots)) != 3:
            continue
        phi = UniPoly(F, "z", [b, a, F.zero, F.one])
        lams = [derivative(phi).eval(r) for r in roots]
        if F.one in lams:
            continue
        sys = build_fixed_config_system(F, 3, lams)
        for g in sys.gens:
            assert F.is_zero(g.eval(tuple(roots[:-1])))
        hits += 1


def test_fiber_degrees_small():
    rng = random.Random(8)
    rep = fiber_degree_experiment(2, rng, draws=2, bits=14)
    assert (rep.solutions, rep.classes) == (1, 1)
    rep = fiber_degree_experiment(3, rng, draws=2, bits=14)
    assert (rep.solutions, rep.classes) == (2, 1)
    rep = fiber_degree_experiment(4, rng, draws=2, bits=14)
    assert (rep.solutions, rep.classes) == (6, 2)
    assert len(rep.draws) == 2
    assert len({d.prime for d in rep.draws}) == 2


def test_fiber_degree_d5_pinned():
    rng = random.Random(9)
    rep = fiber_degree_experiment(5, rng, draws=2, bits=18, lambdas=D5_LAMBDAS)
    assert (rep.solutions, rep.classes) == (24, 6)
    # the primes a pinned list is reduced at are the ones random draws would use
    assert [d.prime for d in rep.draws] == [252449, 141793]
    assert rep.draws[0].lambdas == (252447, 252446, 252445, 8, 52557)
    assert rep.draws[1].lambdas == (141791, 141790, 141789, 8, 134416)


def test_pinned_multipliers_that_collide_mod_p_fail_the_attempt():
    # 7 is the only 3-bit prime drawn, and -2 = 5 mod 7: each attempt fails,
    # and the draw gives up after 24 of them
    with pytest.raises(MathError, match="24 attempts"):
        fiber_degree_experiment(3, random.Random(1), draws=1, bits=3, lambdas=[-2, 5, 3])


def test_broken_invariant_in_a_fiber_count_is_not_retried(monkeypatch):
    # the retry loops of criteria 5 and 6 re-raise InvariantError instead of drawing again
    def broken(basis, rng):
        raise InvariantError("planted broken count")

    monkeypatch.setattr(polymoduli, "distinct_point_count", broken)
    with pytest.raises(InvariantError, match="planted"):
        fiber_degree_experiment(3, random.Random(8), draws=1, bits=14)
    with pytest.raises(InvariantError, match="planted"):
        fiber_degree_experiment(5, random.Random(9), draws=1, bits=18, lambdas=D5_LAMBDAS)
    with pytest.raises(InvariantError, match="planted"):
        sigma2_discrimination(5, D5_LAMBDAS, random.Random(1), max_primes=6)
    for number in (5, 6):
        result = run_criterion(number)
        assert not result.passed
        assert result.detail == "planted broken count"


def test_relation_violating_multipliers_have_no_configurations():
    rng = random.Random(10)
    F = GF(103)
    zeros = [F.zero, F.zero, F.zero]
    assert count_fixed_configurations(F, 3, zeros, rng) == (0, 0)


def _find_split_d4(rng, max_tries=120):
    for _ in range(max_tries):
        p = random_prime(rng, 16, 1, 3)
        F = GF(p)
        lams = [F.from_rational(l) for l in D4_LAMBDAS]
        if len(set(lams)) != 4 or F.one in lams:
            continue
        sys = build_fixed_config_system(F, 4, lams)
        try:
            pts = _solve_configurations(sys, rng)
        except (EliminantNotSplitError, NonSimpleSolutionError):
            continue
        if pts:
            return F, lams, sys, pts
    raise AssertionError("no split prime found")


def test_zeta_orbits_and_prescribed_multipliers():
    rng = random.Random(11)
    F, lams, sys, pts = _find_split_d4(rng)
    assert len(pts) == 6
    orbits = _zeta_orbits(pts, F, 4, rng)
    assert sorted(len(o) for o in orbits) == [3, 3]
    for orbit in orbits:
        sigmas = set()
        for pt in orbit:
            nf = poly_from_fixed_points(F, pt)
            phi = nf.to_map()
            # the solution hands back exactly the multipliers it was built from
            for i, z in enumerate(pt):
                assert multiplier_at_point(phi, ProjPoint.affine(F, z), 1) == lams[i]
            sigmas.add(sigma_n(phi, 2).values)
        # scaled configurations are conjugate maps
        assert len(sigmas) == 1


def test_two_cycle_power_sums_match_matrix_traces():
    rng = random.Random(12)
    F, lams, sys, pts = _find_split_d4(rng)
    basis = _config_basis(sys)
    Q, sums = two_cycle_power_sums(basis, 4)
    sums = [next(sums), next(sums)]

    def trace_sums(pt, kmax):
        # companion matrix of the 2-periodic factor; g_k = tr((phi2)'(C)^k)
        z = UniPoly.gen(F, "z")
        phi = UniPoly.const(F, "z", F.one)
        for r in pt:
            phi = phi * (z - UniPoly.const(F, "z", r))
        phi = phi + z
        phi2 = compose(phi, phi)
        psi = (phi2 - z).monic_divmod(phi - z)[0]
        m = psi.degree
        assert m == 12
        C = [[F.zero] * m for _ in range(m)]
        for i in range(1, m):
            C[i][i - 1] = F.one
        for i in range(m):
            C[i][m - 1] = F.neg(psi.coeff(i))
        M = [[F.zero] * m for _ in range(m)]
        for c in reversed(derivative(phi2).coeffs):
            M = mat_mul(M, C, F)
            for i in range(m):
                M[i][i] = F.add(M[i][i], c)
        out, P = [], M
        for k in range(kmax):
            tr = F.zero
            for i in range(m):
                tr = F.add(tr, P[i][i])
            out.append(tr)
            if k + 1 < kmax:
                P = mat_mul(P, M, F)
        return out

    for pt in pts:
        want = trace_sums(pt, 2)
        for k in (1, 2):
            got = to_multipoly(Q, sums[k - 1]).eval(pt[:-1])
            assert got == want[k - 1]

    ok, power = _invariant_certificate(basis, 4, 2)
    assert ok and 1 <= power <= 3
    with pytest.raises(MathError):
        _invariant_certificate(basis, 4, 0)  # invariants always take a value
    with pytest.raises(UsageError):
        two_cycle_power_sums(basis, 5)


def _d5_basis():
    F = GF(1000033)
    sys = build_fixed_config_system(F, 5, [F.from_rational(l) for l in D5_LAMBDAS])
    return sys, _config_basis(sys)


def test_invariant_certificate_builds_only_the_powers_it_tests(monkeypatch):
    _, basis = _d5_basis()
    drawn = []

    def counting_sums(basis, d):
        Q, sums = two_cycle_power_sums(basis, d)
        return Q, (drawn.append(g) or g for g in sums)

    divmods = []
    monic_divmod = UniPoly.monic_divmod

    def counting_divmod(f, g):
        divmods.append(g.degree)
        return monic_divmod(f, g)

    monkeypatch.setattr(polymoduli, "two_cycle_power_sums", counting_sums)
    monkeypatch.setattr(UniPoly, "monic_divmod", counting_divmod)
    # psi = (phi^2 - z) / (phi - z), hbar = (phi^2)' mod psi (deg psi = 20),
    # then one product mod psi per further power: hbar^2 for g_2, no hbar^3
    assert _invariant_certificate(basis, 5, 6) == (True, 2)
    assert len(drawn) == 2 and divmods == [5, 20, 20]
    # with no certificate in reach it stops at kmax = 3: no hbar^4
    drawn.clear()
    divmods.clear()
    assert _invariant_certificate(basis, 5, 7) == (False, 6)
    assert len(drawn) == 3 and divmods == [5, 20, 20, 20]


def test_config_basis_d5_reduction_steps():
    # 3164 reduction steps, counted before the pair update stored packed
    # lcms: the same S-pairs are reduced, in the same order
    sys, basis = _d5_basis()
    assert quotient_dimension(basis) == 24
    with pytest.raises(BudgetExhaustedError):
        _config_basis(sys, budget=3163)
    assert _config_basis(sys, budget=3164) == basis


def test_sigma2_discrimination_d4_rational_points():
    rep = sigma2_discrimination(4, D4_LAMBDAS, random.Random(13), bits=16)
    assert rep.method == "rational-points"
    assert (rep.solutions, rep.classes) == (6, 2)
    assert rep.all_distinct
    assert len(rep.sigma2_values) == 2
    for vec in rep.sigma2_values:
        assert len(vec) == 17 and vec[-1] == 0  # d^2+1 entries, infinity kills e_17


def test_sigma2_discrimination_d4_invariant_path_agrees():
    rep = sigma2_discrimination(4, D4_LAMBDAS, random.Random(14), bits=16, split_attempts=0)
    assert rep.method == "invariant-trace"
    assert (rep.solutions, rep.classes) == (6, 2)
    assert rep.all_distinct
    assert rep.sigma2_values is None


def test_sigma2_discrimination_d5_certificate():
    rep = sigma2_discrimination(5, D5_LAMBDAS, random.Random(15), bits=16, max_primes=40)
    assert rep.method == "invariant-trace"
    assert (rep.solutions, rep.classes) == (24, 6)
    assert rep.all_distinct
    assert 1 <= rep.invariant_power <= 3


def test_sigma2_discrimination_validation():
    rng = random.Random(16)
    with pytest.raises(UsageError):
        sigma2_discrimination(4, [-5, 5, 4], rng)
    with pytest.raises(DegenerateInputError):
        sigma2_discrimination(4, [-5, 5, 4, Fraction(7, 5)], rng)


def test_tau31_closed_form():
    assert tau31_phi_ab(QQ, QQ.zero, QQ.zero).values == tuple(qq(6, 9, 0, 0))
    rng = random.Random(17)
    for dom in (QQ, GF(101)):
        for _ in range(6):
            a, b = dom.rand(rng), dom.rand(rng)
            nf = PolyNormalForm(dom, 3, (a, b))
            assert tau31_phi_ab(dom, a, b) == sigma_n(nf.to_map(), 1)
            assert tau31_phi_ab(dom, a, dom.neg(b)) == tau31_phi_ab(dom, a, b)


def test_p3_one_and_two_class_multipliers():
    # triple fixed point: phi = z^3 + z, all multipliers 1
    assert p3_from_sigma1(QQ, qq(1, 1, 1)) == [(Fraction(1), Fraction(0))]
    assert tau31_phi_ab(QQ, QQ.one, QQ.zero).values == tuple(qq(3, 3, 1, 0))
    # double fixed point: {1, 1, 10} forces a = -2, 27 b^2 = 108
    out = p3_from_sigma1(QQ, qq(1, 1, 10))
    assert out == [(Fraction(-2), Fraction(108))]
    assert tau31_phi_ab(QQ, QQ.from_int(-2), QQ.from_int(2)).values == tuple(qq(12, 21, 10, 0))
    with pytest.raises(DegenerateInputError):
        p3_from_sigma1(QQ, qq(1, 2, 3))


def test_p3_round_trips_generic_cubics():
    rng = random.Random(18)
    hits = 0
    while hits < 8:
        z1 = QQ.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        z2 = QQ.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        z3 = QQ.neg(QQ.add(z1, z2))
        if len({z1, z2, z3}) != 3:
            continue
        nf = poly_from_fixed_points(QQ, [z1, z2, z3])
        a, b = nf.coeffs
        phi = nf.to_map()
        lams = [multiplier_at_point(phi, ProjPoint.affine(QQ, z), 1) for z in (z1, z2, z3)]
        if QQ.one in lams:
            continue
        got = p3_from_sigma1(QQ, lams)
        assert got == [(a, 27 * b * b)]
        hits += 1


def test_p3_rejects_unrealizable_multipliers():
    with pytest.raises(MathError):
        p3_from_sigma1(QQ, qq(0, 2, 5))
