import dataclasses
import gc
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from multspec import groebner, polymoduli
from multspec.cli import run_command
from multspec.dynamics import ProjPoint, fixed_point_index_sum, multiplier_at_point, sigma_n
from multspec.errors import (
    BudgetExhaustedError,
    DegenerateInputError,
    InvariantError,
    MathError,
    UsageError,
    work_limit,
)
from multspec.exactalg import GF, QQ, UniPoly, compose, derivative, fp_roots, random_prime
from multspec.groebner import GREVLEX, MultiPoly, buchberger, quotient_dimension, solve_rational_points
from multspec.polymoduli import (
    PolyNormalForm,
    _bezout_exact,
    _configuration_basis,
    _invariant_certificate,
    _zeta_orbits,
    build_fixed_config_system,
    complete_multipliers,
    count_fixed_configurations,
    fiber_degree_experiment,
    p3_from_sigma1,
    poly_from_fixed_points,
    sigma2_discrimination,
    two_cycle_power_sums,
)
from multspec.reproduce import run_criterion

from groebner_oracles import config_system_by_substitution, hermite_rank, linear_scan_steps, to_multipoly
from poly_oracles import companion_power_traces, tau31_phi_ab

D4_LAMBDAS = [-5, 5, 4, Fraction(-7, 5)]
D5_LAMBDAS = [-2, -3, -4, 8, Fraction(689, 269)]


def qq(*xs):
    return [QQ.from_rational(x) for x in xs]


def test_relation_residual():
    assert fixed_point_index_sum(QQ, qq(Fraction(1, 2), 5)) == Fraction(7, 4)
    assert QQ.is_zero(fixed_point_index_sum(QQ, qq(*D4_LAMBDAS)))
    assert QQ.is_zero(fixed_point_index_sum(QQ, qq(*D5_LAMBDAS)))
    with pytest.raises(DegenerateInputError):
        fixed_point_index_sum(QQ, qq(1, 3))


def test_complete_multipliers():
    assert complete_multipliers(QQ, 4, qq(-5, 5, 4))[-1] == Fraction(-7, 5)
    assert complete_multipliers(QQ, 5, qq(-2, -3, -4, 8))[-1] == Fraction(689, 269)
    full = complete_multipliers(QQ, 3, qq(Fraction(1, 2), 5))
    assert full[-1] == Fraction(11, 7)
    assert QQ.is_zero(fixed_point_index_sum(QQ, full))
    F = GF(101)
    full = complete_multipliers(F, 4, [F.from_int(c) for c in (2, 3, 5)])
    assert F.is_zero(fixed_point_index_sum(F, full))
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
    # (2, 3, 5/3) fails the index formula: the k = 0 residue identity is the
    # constant sum 1/(lambda_i - 1) = 3, beside the identities of degrees 1, 2
    lams = qq(2, 3, Fraction(5, 3))
    sys = build_fixed_config_system(QQ, 3, lams)
    assert sys.vars == ("z1", "z2")
    assert len(sys.gens) == 3
    assert [g.total_degree() for g in sys.gens] == [0, 1, 2]
    assert sys.gens[0] == MultiPoly.const(QQ, sys.vars, QQ.from_int(3))
    # a list that satisfies it drops the constant: degrees 1..d-1, Bezout (d-1)!
    for lams in (qq(3, -1), qq(*D4_LAMBDAS), qq(*D5_LAMBDAS)):
        sys = build_fixed_config_system(QQ, len(lams), lams)
        assert [g.total_degree() for g in sys.gens] == list(range(1, len(lams)))
    with pytest.raises(DegenerateInputError):
        build_fixed_config_system(QQ, 3, qq(1, 2, 3))
    with pytest.raises(UsageError):
        build_fixed_config_system(QQ, 3, qq(2, 3))


def _completed_multipliers(dom, d, rng):
    """d - 1 random free multipliers and the one the index formula forces."""
    while True:
        free = []
        while len(free) < d - 1:
            c = dom.from_rational(Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            if c != dom.one and c not in free:
                free.append(c)
        try:
            lams = complete_multipliers(dom, d, free)
        except DegenerateInputError:
            continue
        if lams[-1] != dom.one and lams[-1] not in free:
            return lams


def test_config_system_matches_substitution_oracle():
    # the residue identities generate the ideal of the product equations
    # prod_{j != i}(z_i - z_j) = lambda_i - 1, built in z_1..z_d with z_d
    # substituted: the same reduced basis (the product system's QQ d = 5
    # basis takes minutes)
    rng = random.Random(13)
    for dom in (QQ, GF(101), GF(1000003)):
        for d in range(2, 5 if dom is QQ else 6):
            lists = [_completed_multipliers(dom, d, rng) for _ in range(2)]
            pinned = {4: D4_LAMBDAS, 5: D5_LAMBDAS}.get(d)
            if pinned:
                lists.append([dom.from_rational(l) for l in pinned])
            for lams in lists:
                sys = build_fixed_config_system(dom, d, lams)
                assert sys.vars == tuple(f"z{i + 1}" for i in range(d - 1))
                basis = buchberger(sys.gens, GREVLEX)
                assert basis == buchberger(config_system_by_substitution(dom, d, lams), GREVLEX)
            if pinned:  # the last list
                assert quotient_dimension(basis) == math.factorial(d - 1)


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
    for d, counts in ((2, (1, 1)), (3, (2, 1)), (4, (6, 2))):
        draw = fiber_degree_experiment(d, rng, bits=14)
        assert (draw.solutions, draw.classes) == counts


def test_fiber_degree_d5_pinned():
    rng = random.Random(9)
    draw = fiber_degree_experiment(5, rng, bits=18, lambdas=D5_LAMBDAS)
    assert (draw.solutions, draw.classes) == (24, 6)
    # the prime a pinned list is reduced at is the one a random draw would use
    assert draw.prime == 252449
    assert draw.lambdas == (252447, 252446, 252445, 8, 52557)


def test_pinned_multipliers_that_collide_mod_p_fail_the_attempt():
    # 7 is the only 3-bit prime drawn, and -2 = 5 mod 7 (13 completes the
    # list over QQ): each attempt fails, and the draw gives up after 24 of them
    with pytest.raises(MathError, match="24 attempts"):
        fiber_degree_experiment(3, random.Random(1), bits=3, lambdas=[-2, 5, 13])


def _seven_values(calls):
    """A planted squarefree part of degree 7: at d = 5, 7 * 4 > dim Q = 24 points."""

    def planted(E):
        calls.append(E)
        return UniPoly(E.dom, E.var, [E.dom.one] * 8)

    return planted


def test_broken_invariant_in_a_fiber_count_is_not_retried(monkeypatch):
    # the retry loops of criteria 5 and 6 re-raise InvariantError instead of drawing again
    def broken(basis):
        raise InvariantError("planted broken count")

    monkeypatch.setattr(polymoduli, "distinct_point_count", broken)
    with pytest.raises(InvariantError, match="planted"):
        fiber_degree_experiment(3, random.Random(8), bits=14)
    with pytest.raises(InvariantError, match="planted"):
        fiber_degree_experiment(5, random.Random(9), bits=18, lambdas=D5_LAMBDAS)
    result = run_criterion(5)
    assert not result.passed and result.detail == "planted broken count"
    # the certificate route of sigma2-check counts no points: break its invariant instead
    calls = []
    monkeypatch.setattr(polymoduli, "squarefree_part", _seven_values(calls))
    with monkeypatch.context() as m, pytest.raises(InvariantError, match="more values"):
        m.setattr(polymoduli, "_MAX_PRIMES", 6)
        sigma2_discrimination(5, D5_LAMBDAS, random.Random(1))
    assert len(calls) == 1
    calls.clear()
    result = run_criterion(6)
    assert not result.passed
    assert result.detail == "invariant takes more values than there are classes"
    assert len(calls) == 1


def test_only_degenerate_input_is_drawn_again(monkeypatch):
    # a plain MathError inside the retry loop of criterion 5 fails the run
    # after one system; a DegenerateInputError is an unlucky draw
    real = polymoduli.distinct_point_count
    calls = []

    def planted(error):
        def count(basis):
            calls.append(basis)
            if len(calls) == 1:
                raise error("planted count failure")
            return real(basis)

        return count

    monkeypatch.setattr(polymoduli, "distinct_point_count", planted(MathError))
    with pytest.raises(MathError, match="planted") as err:
        fiber_degree_experiment(3, random.Random(8), bits=14)
    assert type(err.value) is MathError and len(calls) == 1
    calls.clear()
    result = run_criterion(5)
    assert not result.passed and result.detail == "planted count failure"
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(polymoduli, "distinct_point_count", planted(DegenerateInputError))
    draw = fiber_degree_experiment(3, random.Random(8), bits=14)
    assert (draw.solutions, draw.classes) == (2, 1) and len(calls) == 2


def test_a_broken_point_extraction_fails_sigma2_check(monkeypatch):
    # once the eliminant is squarefree and splits, each eigenspace is one
    # evaluation functional (solve_rational_points): a fault there ends the
    # run on the first system that reaches point extraction, which only the
    # fallback of sigma2-check does
    monkeypatch.setattr(polymoduli, "_CERTIFICATE_POWERS", 0)
    real_split, real_eval = groebner.split_linear, MultiPoly.eval
    split = []

    def counted(f, rng):
        split.append(f)
        return real_split(f, rng)

    faults = [
        (groebner, "_kernel_vector", lambda rows, dom: [dom.zero] * len(rows), "eigenfunctional does not evaluate 1"),
        (MultiPoly, "eval", lambda g, pt: g.dom.add(real_eval(g, pt), g.dom.one), "extracted point fails to satisfy"),
    ]
    for owner, name, fault, message in faults:
        with monkeypatch.context() as m:
            m.setattr(groebner, "split_linear", counted)
            m.setattr(owner, name, fault)
            split.clear()
            code, text = run_command(["sigma2-check", "-d", "4", "--lambdas=-5,5,4"])
        assert code == 1 and json.loads(text)["error"].startswith(message)
        assert len(split) == 1


def test_relation_violating_multipliers_have_no_configurations(monkeypatch):
    cases = [(GF(103), [0, 0, 0]), (GF(10007), [0, 2, 5]), (GF(10007), [2, 3, 5, 7])]
    cases = [(F, [F.from_int(l) for l in lams]) for F, lams in cases]
    # the index formula is necessary: these systems generate the unit ideal
    for F, lams in cases:
        assert buchberger(build_fixed_config_system(F, len(lams), lams).gens, GREVLEX).contains_one()
    # so the count rejects them before it builds a basis
    def no_basis(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(polymoduli, "buchberger", no_basis)
    for F, lams in cases:
        with pytest.raises(DegenerateInputError, match="index formula"):
            count_fixed_configurations(F, len(lams), lams)
    # a pinned rational list is rejected once, before a prime is drawn
    for lams in ([0, 2, 5], [2, 3, 5, 7]):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(DegenerateInputError, match="index formula"):
            fiber_degree_experiment(len(lams), rng, bits=14, lambdas=lams)
        assert rng.getstate() == state


def _find_split_d4(rng, max_tries=120):
    for _ in range(max_tries):
        p = random_prime(rng, 16, 1, 3)
        F = GF(p)
        lams = [F.from_rational(l) for l in D4_LAMBDAS]
        if len(set(lams)) != 4 or F.one in lams:
            continue
        sys = build_fixed_config_system(F, 4, lams)
        try:
            pts = [pt + (F.neg(sum(pt) % p),) for pt in solve_rational_points(_configuration_basis(sys), rng)]
        except DegenerateInputError:
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


def _centred_phi(F, roots):
    """z + prod (z - r): the polynomial map with these affine fixed points."""
    z = UniPoly.gen(F, "z")
    phi = UniPoly.const(F, "z", F.one)
    for r in roots:
        phi = phi * (z - UniPoly.const(F, "z", r))
    return phi + z


def test_two_cycle_power_sums_match_matrix_traces():
    # T_k sums ((phi^2)')^k over all d^2 fixed points of phi^2: the 2-cycle
    # points, the roots of psi = (phi^2 - z)/(phi - z), plus the fixed points,
    # where (phi^2)' = lambda_i^2
    rng = random.Random(12)
    F, lams, sys, pts = _find_split_d4(rng)
    basis = buchberger(sys.gens, GREVLEX)
    Q, sums = two_cycle_power_sums(basis, 4)
    sums = [next(sums), next(sums)]
    z = UniPoly.gen(F, "z")
    for pt in pts:
        phi = _centred_phi(F, pt)
        phi2 = compose(phi, phi)
        psi = (phi2 - z).monic_divmod(phi - z)[0]
        assert psi.degree == 12
        want = companion_power_traces(psi, derivative(phi2), 2)
        for k in (1, 2):
            fixed = sum(F.pow(lam, 2 * k) for lam in lams) % F.p
            got = to_multipoly(Q, sums[k - 1]).eval(pt[:-1])
            assert got == F.add(want[k - 1], fixed)

    assert 1 <= _invariant_certificate(basis, 4) <= 3
    with pytest.raises(UsageError):
        two_cycle_power_sums(basis, 5)


def test_trace_formula_matches_companion_traces():
    # over GF(p): T_k from the residue table against tr h(C)^k on
    # GF(p)[z]/(phi^2(z) - z), h = (phi^2)'; and ell(J) = ell(mu) - ell(1) = d^2
    # read off the table alone (phi' has degree d - 1, so it is its own digit)
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    F = GF(10007)

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(st.integers(2, 6), st.lists(st.integers(0, F.p - 1), min_size=5, max_size=5))
    def check(d, free):
        roots = free[: d - 1]
        roots.append(F.neg(sum(roots) % F.p))
        phi = _centred_phi(F, roots)
        phi2 = compose(phi, phi)
        want = companion_power_traces(phi2 - UniPoly.gen(F, "z"), derivative(phi2), 3)
        sums = polymoduli._period_two_traces(phi)
        assert [next(sums) for _ in range(3)] == want
        r, memo, dphi = phi.coeffs[:-1], {}, derivative(phi).coeffs
        ell_mu = F.zero
        for i, x in enumerate(dphi):
            for j, y in enumerate(dphi):
                ell_mu = F.add(ell_mu, F.mul(F.mul(x, y), polymoduli._residue(F, r, memo, i, j)))
        assert F.sub(ell_mu, polymoduli._residue(F, r, memo, 0, 0)) == F.from_int(d * d)

    check()


def _d5_basis():
    F = GF(1000033)
    sys = build_fixed_config_system(F, 5, [F.from_rational(l) for l in D5_LAMBDAS])
    return sys, buchberger(sys.gens, GREVLEX)


def test_invariant_certificate_builds_only_the_powers_it_tests(monkeypatch):
    _, basis = _d5_basis()
    drawn = []

    def counting_sums(basis, d):
        Q, sums = two_cycle_power_sums(basis, d)
        return Q, (drawn.append(g) or g for g in sums)

    dividends = []
    monic_divmod = UniPoly.monic_divmod

    def counting_divmod(f, g):
        dividends.append(f.degree)
        return monic_divmod(f, g)

    monkeypatch.setattr(polymoduli, "two_cycle_power_sums", counting_sums)
    monkeypatch.setattr(UniPoly, "monic_divmod", counting_divmod)
    # T_k needs mu^(k+1) = u(a) u(b), u = phi'^(k+1) of degree 4(k+1), split
    # into phi-adic digits by divisions by phi (degree 5): phi'^2 for T_1,
    # phi'^3 for T_2, and no phi'^4 (mu^4) once T_2 certifies
    assert _invariant_certificate(basis, 5) == 2
    assert len(drawn) == 2 and dividends == [8, 12, 7]
    # with no certificate in reach (every T_k planted to one value) it stops
    # at kmax = 3: no phi'^5
    drawn.clear()
    dividends.clear()
    monkeypatch.setattr(polymoduli, "squarefree_part", lambda E: UniPoly.gen(E.dom, E.var))
    assert _invariant_certificate(basis, 5) is None
    assert len(drawn) == 3 and dividends == [8, 12, 7, 16, 11, 6]


def test_quotient_rows_are_built_when_first_needed():
    # counting multiplies by the coordinate z1, a standard monomial: one row
    # of structure constants, and z1 takes dim Q values, so no other row;
    # the certificate's products in Q build further rows on the same context
    _, basis = _d5_basis()
    solutions = polymoduli.distinct_point_count(basis)
    Q = basis.quotient
    built = lambda: sum(row is not None for row in Q._rows)  # noqa: E731
    assert (solutions, Q.dim, built()) == (24, 24, 1)
    assert _invariant_certificate(basis, 5) == 2
    assert basis.quotient is Q and built() > 1
    # symmetric fill: b_i * b_j is built once, for whichever row comes first
    rows = Q._rows
    assert all(rows[i][j] is rows[j][i] for i in range(24) for j in range(i) if rows[i] and rows[j])


def test_a_d5_certificate_leaves_no_reference_cycles():
    # everything a d = 5 sigma2-check builds (bases, quotient contexts, the
    # residue table) is freed by reference counting, not left to the collector
    gc.collect()
    gc.disable()
    try:
        rep = sigma2_discrimination(5, [-5, 5, -4, -2, Fraction(29, 9)], random.Random(1))
        assert rep.method == "invariant-trace"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_config_basis_d5_reduction_steps():
    # 122 reduction steps for the residue-form system (the product system
    # took 3164), counted with linear scans and no first-divisor memo: the
    # same S-pairs are reduced, in the same order
    sys, basis = _d5_basis()
    assert quotient_dimension(basis) == 24
    assert linear_scan_steps(sys.gens) == (basis, 122)
    with pytest.raises(BudgetExhaustedError), work_limit(121):
        buchberger(sys.gens, GREVLEX)
    with work_limit(122):
        assert buchberger(sys.gens, GREVLEX) == basis


def test_sigma2_discrimination_d4_rational_points(monkeypatch):
    # the fallback, forced: the classes' sigma_2 vectors are compared directly
    monkeypatch.setattr(polymoduli, "_CERTIFICATE_POWERS", 0)
    vectors = []
    real = polymoduli.sigma_n
    monkeypatch.setattr(polymoduli, "sigma_n", lambda phi, n: vectors.append(real(phi, n)) or vectors[-1])
    rep = sigma2_discrimination(4, D4_LAMBDAS, random.Random(13), bits=16)
    assert rep.method == "rational-points" and rep.invariant_power is None
    assert (rep.solutions, rep.classes) == (6, 2)
    assert rep.all_distinct
    assert len(vectors) == 2 and vectors[0] != vectors[1]
    for vec in (v.values for v in vectors):
        assert len(vec) == 17 and vec[-1] == 0  # d^2+1 entries, infinity kills e_17


def test_bezout_guard_catches_a_zero_at_infinity():
    # w = 1/(lambda - 1) = (-1/6, 1/4, 1/3, -5/12): w_1 + w_4 = -7/12 vanishes mod 7,
    # where the system loses solutions to infinity
    for p, exact in ((7, False), (13, True), (19, True)):
        F = GF(p)
        lams = [F.from_rational(l) for l in D4_LAMBDAS]
        dim = quotient_dimension(buchberger(build_fixed_config_system(F, 4, lams).gens, GREVLEX))
        assert _bezout_exact(F, lams) == exact and (dim == 6) == exact


@pytest.mark.parametrize(
    "d, lambdas, seed, bad",
    [(5, "2,64613/64612,4/3,6/5", 0, 64613), (4, "2,56431/56430,4/3", 2, 56431)],
)
def test_sigma2_check_draws_again_where_configurations_escape_to_infinity(d, lambdas, seed, bad):
    # lambda_2 = 0 mod p makes w_1 + w_2 = 1 - 1 = 0: at that prime (the first draw) the
    # GF(p) fiber loses configurations to infinity and must not stand for the QQ fiber
    code, text = run_command(["sigma2-check", "-d", str(d), f"--lambdas={lambdas}", "--seed", str(seed)])
    doc = json.loads(text)
    assert code == 0 and doc["prime"] != bad and doc["primes_tried"] == 2
    assert (doc["solutions"], doc["classes"], doc["all_distinct"]) == (math.factorial(d - 1), math.factorial(d - 2), True)


def test_fiber_degree_draws_again_where_configurations_escape_to_infinity():
    # the first prime, 753341, sends lambda_2 to 0 and loses 8 of the 24 configurations
    lams = [2, Fraction(753341, 753340), Fraction(4, 3), Fraction(6, 5), Fraction(753348, 753349)]
    draw = fiber_degree_experiment(5, random.Random(0), lambdas=lams)
    assert (draw.solutions, draw.classes) == (24, 6) and draw.prime != 753341


def test_a_random_draw_that_loses_configurations_is_drawn_again(monkeypatch):
    # free multipliers (2, 0, 4/3, 6/5) have w_1 + w_2 = 1 - 1 = 0 at every prime: planted
    # as the first random draw, they must not count 16 configurations in 4 classes
    real, planted = polymoduli.distinct_multipliers, []

    def first_bad(F, k, rng):
        if planted:
            return real(F, k, rng)
        planted.append(F.p)
        return [F.from_rational(l) for l in (2, 0, Fraction(4, 3), Fraction(6, 5))]

    monkeypatch.setattr(polymoduli, "distinct_multipliers", first_bad)
    draw = fiber_degree_experiment(5, random.Random(0))
    assert (draw.solutions, draw.classes) == (24, 6) and draw.prime != planted[0]


def test_a_list_whose_configurations_escape_over_qq_never_certifies():
    # free multipliers (2, 0, 4/3, 6/5) have w_1 + w_2 = 1 - 1 = 0 over QQ: no prime is
    # Bezout exact, so no fiber degree follows, and the QQ fiber itself has 16 configurations
    lams = complete_multipliers(QQ, 5, qq(2, 0, Fraction(4, 3), Fraction(6, 5)))
    with pytest.raises(MathError, match="24 attempts"):
        fiber_degree_experiment(5, random.Random(0), lambdas=lams)
    code, text = run_command(["poly-classes", "-d", "5", "--lambdas=2,0,4/3,6/5"])
    assert code == 1 and json.loads(text)["kind"] == "math"
    code, text = run_command(["poly-classes", "-d", "5", "--lambdas=2,0,4/3,6/5", "--field", "QQ"])
    doc = json.loads(text)
    assert code == 0 and (doc["solutions"], doc["classes"]) == (16, 4)


def test_a_draw_whose_configurations_merge_mod_p_is_drawn_again(monkeypatch):
    # dim Q - 1 distinct points mod p prove nothing about QQ: that prime is drawn again,
    # and a list that never certifies ends after 24 primes
    real_count, real_prime = polymoduli.distinct_point_count, polymoduli.random_prime
    primes = []

    def prime(*args):
        primes.append(real_prime(*args))
        return primes[-1]

    def one_short(always):
        calls = []

        def count(basis):
            calls.append(basis)
            return basis.quotient.dim - 1 if always or len(calls) == 1 else real_count(basis)

        return count

    monkeypatch.setattr(polymoduli, "random_prime", prime)
    monkeypatch.setattr(polymoduli, "distinct_point_count", one_short(False))
    draw = fiber_degree_experiment(5, random.Random(9), bits=18, lambdas=D5_LAMBDAS)
    assert (draw.solutions, draw.classes) == (24, 6)
    assert len(primes) == 2 and primes[0] == 252449 and draw.prime == primes[1]
    primes.clear()
    monkeypatch.setattr(polymoduli, "distinct_point_count", one_short(True))
    with pytest.raises(MathError, match="24 attempts"):
        fiber_degree_experiment(5, random.Random(9), bits=18, lambdas=D5_LAMBDAS)
    assert len(primes) == 24


def test_certified_fiber_degrees_agree_with_the_trace_form_over_qq():
    # every d = 4 list completed from 3 free multipliers of a small set, its 4 entries
    # distinct: one that certifies has trace-form rank 6 on its QQ basis (Hermite, an
    # oracle that shares no code with the count), and one that does not certify has no
    # QQ quotient of 6 distinct points
    values = [-3, -2, 2, 3, 4, Fraction(1, 2), Fraction(-1, 2)]
    certified = uncertified = 0
    for free in combinations(values, 3):
        try:
            lams = complete_multipliers(QQ, 4, qq(*free))
        except DegenerateInputError:
            continue  # the last multiplier sits at infinity
        if len(set(lams)) < 4:
            continue
        basis = _configuration_basis(build_fixed_config_system(QQ, 4, lams))
        six_points = basis.quotient.dim == 6 and hermite_rank(basis) == 6
        try:
            draw = fiber_degree_experiment(4, random.Random(0), lambdas=lams)
        except MathError:
            assert not six_points, lams
            uncertified += 1
        else:
            assert (draw.solutions, draw.classes) == (6, 2) and six_points, lams
            certified += 1
    assert (certified, uncertified) == (26, 5)


def test_sigma2_discrimination_d4_invariant_path_agrees():
    rep = sigma2_discrimination(4, D4_LAMBDAS, random.Random(14), bits=16)
    assert rep.method == "invariant-trace"
    assert (rep.solutions, rep.classes) == (6, 2)
    assert rep.all_distinct


def test_the_fallback_reports_classes_that_sigma_2_does_not_separate(monkeypatch):
    # a planted sigma_n that gives every class the same level-2 spectrum: only the
    # fallback compares sigma_2 itself, and it must say the classes are not separated
    same = sigma_n(PolyNormalForm(QQ, 4, (0, 0, 1)).to_map(), 2)
    monkeypatch.setattr(polymoduli, "_CERTIFICATE_POWERS", 0)
    monkeypatch.setattr(polymoduli, "sigma_n", lambda phi, n: same)
    rep = sigma2_discrimination(4, D4_LAMBDAS, random.Random(13), bits=16)
    assert rep.method == "rational-points"
    assert (rep.solutions, rep.classes, rep.all_distinct) == (6, 2, False)
    code, text = run_command(["sigma2-check", "-d", "4", "--lambdas=-5,5,4", "--seed", "3"])
    assert code == 0 and json.loads(text)["all_distinct"] is False


@pytest.mark.parametrize("free", [(-5, 5, 4), (2, 3, 13), (-2, 7, Fraction(1, 3))])
def test_the_certificate_and_the_fallback_agree_at_d4(monkeypatch, free):
    lams = complete_multipliers(QQ, 4, [QQ.from_rational(l) for l in free])
    key = lambda rep: (rep.solutions, rep.classes, rep.all_distinct)  # noqa: E731
    for seed in range(3):
        certified = sigma2_discrimination(4, lams, random.Random(seed))
        with monkeypatch.context() as m:
            m.setattr(polymoduli, "_CERTIFICATE_POWERS", 0)
            read_off = sigma2_discrimination(4, lams, random.Random(seed))
        assert (certified.method, read_off.method) == ("invariant-trace", "rational-points")
        assert key(certified) == key(read_off) == (6, 2, True)


def test_sigma2_discrimination_d5_certificate(monkeypatch):
    monkeypatch.setattr(polymoduli, "_MAX_PRIMES", 40)
    rep = sigma2_discrimination(5, D5_LAMBDAS, random.Random(15), bits=16)
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
    # characteristic 3: z^3 + z is the only normal form with a closed form
    F = GF(3)
    assert p3_from_sigma1(F, [F.one] * 3) == [(F.one, F.zero)]
    for lams in ([1, 1, 2], [0, 2, 2], [0, 0, 2]):
        with pytest.raises(DegenerateInputError, match="characteristic 3"):
            p3_from_sigma1(F, lams)


def test_p3_round_trips_generic_cubics():
    rng = random.Random(18)
    F = GF(10007)
    draws = [
        (QQ, lambda: QQ.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))),
        (F, lambda: F.rand(rng)),
    ]
    for dom, draw in draws:
        hits = 0
        while hits < 8:
            z1, z2 = draw(), draw()
            z3 = dom.neg(dom.add(z1, z2))
            if len({z1, z2, z3}) != 3:
                continue
            nf = poly_from_fixed_points(dom, [z1, z2, z3])
            a, b = nf.coeffs
            phi = nf.to_map()
            lams = [multiplier_at_point(phi, ProjPoint.affine(dom, z), 1) for z in (z1, z2, z3)]
            if dom.one in lams:
                continue
            got = p3_from_sigma1(dom, lams)
            assert got == [(a, dom.mul(dom.from_int(27), dom.mul(b, b)))]
            hits += 1


def test_p3_rejects_unrealizable_multipliers():
    with pytest.raises(MathError):
        p3_from_sigma1(QQ, qq(0, 2, 5))
    # 3 z^2 + a = 0 has at most two roots, and the index sum is 3, not 0
    with pytest.raises(MathError):
        p3_from_sigma1(QQ, qq(0, 0, 0))


def test_a_fault_in_the_system_builder_fails_the_run(monkeypatch):
    # without the "- 1" of the k = d-1 residue identity every generator is
    # homogeneous: the only point is 0, where no product equation holds
    real = polymoduli.build_fixed_config_system
    built = []

    def broken(dom, d, lambdas):
        sys = real(dom, d, lambdas)
        built.append(sys)
        *rest, last = sys.gens
        one = MultiPoly.const(dom, sys.vars, dom.one)
        return dataclasses.replace(sys, gens=(*rest, last + one))

    monkeypatch.setattr(polymoduli, "build_fixed_config_system", broken)
    code, text = run_command(["poly-classes", "-d", "5", "--lambdas=-2,-3,-4,8"])
    assert code == 1
    assert "misses the product equation" in json.loads(text)["error"]
    # a broken invariant is not retried: one system, one attempt
    built.clear()
    with pytest.raises(InvariantError, match="product equation"):
        fiber_degree_experiment(5, random.Random(9), bits=18, lambdas=D5_LAMBDAS)
    assert len(built) == 1
    # sigma2-check (d = 4), with the certificate and with the fallback forced:
    # both read the one checked basis
    for powers in (polymoduli._CERTIFICATE_POWERS, 0):
        monkeypatch.setattr(polymoduli, "_CERTIFICATE_POWERS", powers)
        built.clear()
        with pytest.raises(InvariantError, match="product equation"):
            sigma2_discrimination(4, D4_LAMBDAS, random.Random(13))
        assert len(built) == 1


def test_unit_root_faults_are_broken_invariants(monkeypatch):
    F, lams, sys, pts = _find_split_d4(random.Random(11))
    # zeta = 2 is no cube root of unity mod p: 2 * pt is no configuration
    monkeypatch.setattr(polymoduli, "_unit_root", lambda F, k, rng: F.from_int(2))
    with pytest.raises(InvariantError, match="not closed"):
        _zeta_orbits(pts, F, 4, random.Random(0))
    # zeta = 1 fixes every configuration; only the fallback groups points by zeta
    monkeypatch.setattr(polymoduli, "_unit_root", lambda F, k, rng: F.one)
    monkeypatch.setattr(polymoduli, "_CERTIFICATE_POWERS", 0)
    with pytest.raises(InvariantError, match="not free"):
        sigma2_discrimination(4, D4_LAMBDAS, random.Random(13), bits=16)


def test_an_invariant_with_too_many_values_is_a_broken_invariant(monkeypatch):
    # 7 values of the first 2-cycle power sum at d = 5 need 7 * 4 = 28 of the
    # at most dim Q = 24 configurations: a fault, outside the retry loop of sigma2-check
    calls = []
    monkeypatch.setattr(polymoduli, "squarefree_part", _seven_values(calls))
    monkeypatch.setattr(polymoduli, "_MAX_PRIMES", 40)
    with pytest.raises(InvariantError, match="more values than there are classes"):
        sigma2_discrimination(5, D5_LAMBDAS, random.Random(15), bits=16)
    assert len(calls) == 1


def test_a_d5_sigma2_check_proves_its_counts_without_counting_points(monkeypatch):
    # the certificate proves dim Q distinct configurations in dim Q / 4 classes:
    # no point count and no linear form on the way
    def no_count(*args):
        raise AssertionError("a point count ran")

    bases = []
    real = polymoduli._configuration_basis
    monkeypatch.setattr(polymoduli, "_configuration_basis", lambda sys: bases.append(real(sys)) or bases[-1])
    monkeypatch.setattr(polymoduli, "distinct_point_count", no_count)
    monkeypatch.setattr(groebner, "random_linear_form", no_count)
    code, text = run_command(["sigma2-check", "-d", "5", "--lambdas=-2,-3,-4,8", "--seed", "3"])
    doc = json.loads(text)
    assert code == 0 and doc["method"] == "invariant-trace" and doc["all_distinct"]
    assert (doc["solutions"], doc["classes"]) == (bases[-1].quotient.dim, bases[-1].quotient.dim // 4) == (24, 6)
