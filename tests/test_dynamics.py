import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from multspec.dynamics import (
    ProjMap,
    ProjPoint,
    fixed_point_index_sum,
    forced_multiplier,
    iterate,
    multiplier_at_point,
    multiplier_char_poly,
    period_polynomial,
    random_map,
    sigma1_relation_residual,
    sigma_n,
    tau,
)
from multspec import dynamics, exactalg
from multspec.cli import run_command
from multspec.dynamics import _forms_share_root
from multspec.errors import DegenerateMapError, InvariantError, MathError, UsageError
from multspec.exactalg import GF, QQ, ZZ, UniPoly, derivative, poly_gcd, random_prime

from matrix_helpers import bareiss_det, mat_mul
from poly_oracles import (
    GF2,
    Mobius,
    bivariate_multiplier_char_poly,
    conjugate,
    exact_div,
    mult_char_poly_oracle,
    repositioned,
    sampled_multiplier_char_poly,
    sylvester_matrix,
)


def poly_map(dom, ints):
    """Polynomial map from descending int coefficients."""
    return ProjMap.from_polynomial(UniPoly(dom, "z", [dom.from_int(c) for c in reversed(ints)]))


def all_points(p):
    F = GF(p)
    pts = [ProjPoint.affine(F, F.from_int(a)) for a in range(p)]
    pts.append(ProjPoint.infinity(F))
    return F, pts


def test_projpoint_normalization():
    F = GF(11)
    p = ProjPoint(F, F.from_int(6), F.from_int(2))
    assert p == ProjPoint.affine(F, F.from_int(3))
    assert ProjPoint(F, F.from_int(5), F.zero).is_infinity
    assert ProjPoint.infinity(F) == ProjPoint(F, F.from_int(7), F.zero)
    assert hash(ProjPoint.affine(QQ, Fraction(1, 2))) == hash(ProjPoint(QQ, Fraction(1), Fraction(2)))
    with pytest.raises(UsageError):
        ProjPoint(F, F.zero, F.zero)


def test_mobius_inverse_and_apply():
    rng = random.Random(41)
    F = GF(101)
    for _ in range(25):
        try:
            m = Mobius(F, F.rand(rng), F.rand(rng), F.rand(rng), F.rand(rng))
        except DegenerateMapError:
            continue
        p = ProjPoint.affine(F, F.rand(rng))
        assert m.inverse().apply(m.apply(p)) == p
    with pytest.raises(DegenerateMapError):
        Mobius.from_ints(F, 2, 4, 1, 2)


def test_projmap_construction_and_scaling():
    phi = poly_map(QQ, [2, 0, 2])  # 2z^2 + 2, scaled so leading num coeff is 1
    assert phi.num == (Fraction(1), Fraction(0), Fraction(1))
    assert phi.den == (Fraction(0), Fraction(0), Fraction(1, 2))
    assert phi.is_polynomial and phi.d == 2
    # shared root z = 1 between z^2 - 1 and z^2 - 3z + 2
    with pytest.raises(DegenerateMapError):
        ProjMap(QQ, [Fraction(1), Fraction(0), Fraction(-1)], [Fraction(1), Fraction(-3), Fraction(2)])
    # (z - 1/2)(z + 3) and (z - 1/2)(2z/3 + 1): fractions, shared root 1/2
    with pytest.raises(DegenerateMapError):
        ProjMap(QQ, [Fraction(1), Fraction(5, 2), Fraction(-3, 2)], [Fraction(2, 3), Fraction(2, 3), Fraction(-1, 2)])
    # both forms drop degree: shared root at infinity
    with pytest.raises(DegenerateMapError):
        ProjMap(QQ, [Fraction(0), Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(1, 3), Fraction(2)])
    assert ProjMap(QQ, [Fraction(1), Fraction(5, 2), Fraction(-3, 2)], [Fraction(2, 3), Fraction(2, 3), Fraction(1, 2)]).d == 2
    lo = UniPoly.from_ints(QQ, "z", [1, 1])  # 1 + z
    hi = UniPoly.from_ints(QQ, "z", [0, 0, 1])  # z^2
    m = ProjMap.from_affine(lo, hi)
    assert m.d == 2 and m.num == (Fraction(0), Fraction(1), Fraction(1))


def _form_with_roots(dom, roots, scale):
    """Descending coefficients of scale * prod (y X - x Y) over the roots (x : y)."""
    out = [scale]
    for x, y in roots:
        out = [dom.sub(dom.mul(a, y), dom.mul(b, x)) for a, b in zip(out + [dom.zero], [dom.zero] + out)]
    return out


def test_morphism_check_matches_sylvester_oracle():
    rng = random.Random(404)
    for dom in (QQ, GF(101)):
        rand = (lambda: QQ.rand(rng, 5)) if dom == QQ else (lambda: dom.rand(rng))  # noqa: E731
        zero, inf = (dom.zero, dom.one), (dom.one, dom.zero)
        seen = {"0": 0, "inf": 0, "finite": 0, "none, a vanishing end coefficient": 0}
        for _ in range(120):
            d = rng.randint(2, 4)
            pool = [zero, inf] + [(rand(), dom.one) for _ in range(2)]
            froots = [rng.choice(pool) for _ in range(d)]
            groots = [rng.choice(pool) for _ in range(d)]
            num = _form_with_roots(dom, froots, rand() or dom.one)
            den = _form_with_roots(dom, groots, rand() or dom.one)
            f, g = UniPoly(dom, "z", num[::-1]), UniPoly(dom, "z", den[::-1])
            want = dom.is_zero(bareiss_det(sylvester_matrix(f, g, d, d), dom))
            assert _forms_share_root(num, den, dom, d) == want, (dom, num, den)
            shared = set(froots) & set(groots)
            assert want == bool(shared)
            for name, root in (("0", zero), ("inf", inf)):
                seen[name] += root in shared
            seen["finite"] += any(r not in (zero, inf) for r in shared)
            ends = (num[0], num[-1], den[0], den[-1])
            seen["none, a vanishing end coefficient"] += not shared and any(dom.is_zero(c) for c in ends)
        assert min(seen.values()) >= 5, (dom, seen)


def test_apply_matches_affine_evaluation():
    rng = random.Random(42)
    F, pts = all_points(13)
    for _ in range(10):
        phi = random_map(F, 3, rng)
        nn, dd = phi.affine_num(), phi.affine_den()
        for p in pts:
            if p.is_infinity:
                continue
            q = phi.apply(p)
            dv = dd.eval(p.x)
            if F.is_zero(dv):
                assert q.is_infinity
            else:
                assert q == ProjPoint.affine(F, F.div(nn.eval(p.x), dv))


def test_iterate_agrees_with_repeated_application():
    rng = random.Random(43)
    F, pts = all_points(11)
    for d in (2, 3):
        phi = random_map(F, d, rng)
        phi2 = iterate(phi, 2)
        phi3 = iterate(phi, 3)
        assert phi2.d == d ** 2 and phi3.d == d ** 3
        for p in pts:
            q1 = phi.apply(phi.apply(p))
            assert phi2.apply(p) == q1
            assert phi3.apply(p) == phi.apply(q1)


def test_conjugate_pointwise_and_identity():
    rng = random.Random(44)
    F, pts = all_points(13)
    phi = random_map(F, 2, rng)
    assert conjugate(phi, Mobius.identity(F)) == phi
    m = Mobius.from_ints(F, 2, 1, 1, 3)
    psi = conjugate(phi, m)
    minv = m.inverse()
    for p in pts:
        assert psi.apply(minv.apply(p)) == minv.apply(phi.apply(p))


def test_period_polynomial_keeps_coordinates():
    # z^2 + 1 has no finite fixed point at infinity: full degree 3
    phi = poly_map(QQ, [1, 0, 1])
    assert period_polynomial(phi, 1) == UniPoly.from_ints(QQ, "z", [1, -1, 1])
    # z^2 fixes infinity, so the affine vanishing polynomial drops degree
    sq = poly_map(QQ, [1, 0, 0])
    assert period_polynomial(sq, 1) == UniPoly.from_ints(QQ, "z", [0, -1, 1])


@pytest.mark.parametrize("n", [0, -3])
def test_period_polynomial_needs_a_positive_period(n):
    # as for iterate: no Per_n for n < 1, where Per_1 used to come back
    with pytest.raises(UsageError, match="^iteration count must be >= 1$"):
        period_polynomial(poly_map(GF(7), [1, 0, 1]), n)


def test_multiplier_char_poly_square_map():
    sq = poly_map(QQ, [1, 0, 0])  # z -> z^2
    # fixed points 0, infinity (multiplier 0) and 1 (multiplier 2)
    assert multiplier_char_poly(sq, 1) == UniPoly.from_ints(QQ, "w", [0, 0, -2, 1])
    # period 2: multipliers {0, 0, 4, 4, 4}
    want = UniPoly.from_ints(QQ, "w", [0, 0, -64, 48, -12, 1])
    assert multiplier_char_poly(sq, 2) == want


def test_sigma_quadratic_polynomial_family():
    # z^2 + c has sigma_1 = (2, 4c, 0): multipliers 2z at the two finite
    # fixed points plus 0 at infinity
    for c in (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 7)):
        phi = ProjMap.from_polynomial(UniPoly(QQ, "z", [c, QQ.zero, QQ.one]))
        sv = sigma_n(phi, 1)
        assert sv.values == (Fraction(2), 4 * c, Fraction(0))
    F = GF(31)
    for c in range(5):
        phi = ProjMap.from_polynomial(UniPoly(F, "z", [F.from_int(c), F.zero, F.one]))
        assert sigma_n(phi, 1).values == (F.from_int(2), F.from_int(4 * c), F.zero)


def test_sigma_cubic_polynomial_family():
    # z^3 + az + b has sigma_1 = (6-3a, 9-6a, 9a-12a^2+4a^3+27b^2, 0)
    rng = random.Random(45)
    for _ in range(6):
        a = QQ.rand(rng, 8)
        b = QQ.rand(rng, 8)
        phi = ProjMap.from_polynomial(UniPoly(QQ, "z", [b, a, QQ.zero, QQ.one]))
        sv = sigma_n(phi, 1)
        want = (6 - 3 * a, 9 - 6 * a, 9 * a - 12 * a ** 2 + 4 * a ** 3 + 27 * b ** 2, Fraction(0))
        assert sv.values == want


def test_sigma_conjugation_invariance():
    rng = random.Random(46)
    F = GF(101)
    for d in (2, 3):
        phi = random_map(F, d, rng)
        for _ in range(4):
            try:
                m = Mobius(F, F.rand(rng), F.rand(rng), F.rand(rng), F.rand(rng))
            except DegenerateMapError:
                continue
            psi = conjugate(phi, m)
            assert sigma_n(psi, 1) == sigma_n(phi, 1)
            assert sigma_n(psi, 2) == sigma_n(phi, 2)
    phi = random_map(QQ, 2, rng, height=3)
    m = Mobius.from_ints(QQ, 1, 2, 3, 1)
    assert sigma_n(conjugate(phi, m), 2) == sigma_n(phi, 2)


def test_char_poly_integer_map_reduces_mod_p():
    # the same integer map over QQ (interpolated resultant) and over GF(3)
    # (multiplication matrix, in a field smaller than its 5 period-2
    # points) must give matching sigma values mod 3
    ints = [1, 0, 1]  # z^2 + 1
    sv_q = sigma_n(poly_map(QQ, ints), 2)
    sv_3 = sigma_n(poly_map(GF(3), ints), 2)
    F = GF(3)
    for vq, v3 in zip(sv_q.values, sv_3.values):
        assert vq.denominator == 1
        assert F.from_int(int(vq)) == v3


def lifted_char_poly(phi, n):
    """chi_n of a map over GF(p), taken over QQ and reduced mod p.

    The coefficients are lifted to 0 .. p - 1, and the lift is conjugated by
    z -> (z + 1) / (z + 2), of determinant 1, so that over QQ another point
    sits at infinity.  The lift is a morphism with good reduction at p, so
    chi_n reduces well."""
    F = phi.dom
    lift = ProjMap(QQ, map(Fraction, phi.num), map(Fraction, phi.den))
    psi = conjugate(lift, Mobius.from_ints(QQ, 1, 1, 1, 2))
    return multiplier_char_poly(psi, n).map_coeffs(F, F.from_rational)


def test_polynomial_maps_over_small_fields_match_the_lift_to_qq():
    # over GF(3) and GF(5) some maps have an iterate that fixes all of P^1(F_p),
    # so no conjugate over F_p has every n-periodic point affine; infinity's
    # factor of chi_n is read in its own chart.  Checked here: every map of
    # degree <= 3 over GF(3) and every polynomial cubic over GF(5) with such an
    # iterate, n <= 3, and a seeded sample of polynomials of every field, degree
    # and level, half of them with constant term 0 (a zero top y coefficient of
    # the form)
    rng = random.Random(59)
    cases = []
    for p, d, polynomial in ((3, 2, False), (3, 3, False), (5, 3, True)):
        F, pts = all_points(p)
        if polynomial:
            forms = (([lead, *low], [0] * d + [1]) for lead, *low in itertools.product(range(1, p), *[range(p)] * d))
        else:  # one scaling of each pair: the first nonzero coefficient is 1
            coeffs = itertools.product(range(p), repeat=2 * d + 2)
            forms = ((cs[: d + 1], cs[d + 1 :]) for cs in coeffs if next(c for c in cs + (1,) if c) == 1)
        for num, den in forms:
            if _forms_share_root(num, den, F, d):
                continue
            phi, orbit = ProjMap(F, num, den), pts
            for n in (1, 2, 3):
                orbit = [phi.apply(x) for x in orbit]
                if orbit == pts:
                    cases.append((phi, n))
    assert Counter((phi.dom.p, phi.is_polynomial) for phi, _ in cases) == {(3, False): 84, (3, True): 16, (5, True): 40}
    for p, d, n in itertools.product((3, 5, 7), (2, 3), (1, 2, 3)):
        for zero in (False, True):
            low = [rng.randrange(p) for _ in range(d - 1)] + [0 if zero else rng.randrange(1, p)]
            cases.append((ProjMap(GF(p), [rng.randrange(1, p), *low], [0] * d + [1]), n))
    for phi, n in cases:
        assert multiplier_char_poly(phi, n) == lifted_char_poly(phi, n), (phi, n)


# --- oracles: the resultant routes to the multiplier polynomial ---


def parabolic_map(F, d, rng):
    """Random degree-d map z + (z - a)^2 k(z) / g(z): z = a is a fixed point
    of multiplier 1, so a repeated root of every period polynomial."""
    rand = (lambda: QQ.rand(rng, 5)) if F == QQ else (lambda: F.rand(rng))
    z = UniPoly.gen(F, "z")
    a = UniPoly.const(F, "z", rand())
    while True:
        g = UniPoly(F, "z", [rand() for _ in range(d)])
        k = UniPoly(F, "z", [rand() for _ in range(d - 1)])
        try:
            return ProjMap.from_affine(z * g + (z - a) * (z - a) * k, g, d)
        except DegenerateMapError:
            continue


def oracle_cases(F, rng):
    """A random map and a map with a repeated periodic point at each (d, n).

    (2, 4), (3, 3) and (2, 6) raise the roots of the dynatomic factors to
    the powers 2, 3, 4 and 6; over QQ the levels stop at (2, 4), then cover
    d = 3, 4, 5 at n = 1, and polynomial maps, which keep infinity, of
    multiplier 0, where the oracles reposition them, at n = 3 and n = 1:
    the traffic of `relation`.
    """
    levels = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (2, 4), (3, 3), (2, 6))
    if F == QQ:
        levels = ((2, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 1), (4, 1), (5, 1))
    for d, n in levels:
        for phi in (random_map(F, d, rng, height=5), parabolic_map(F, d, rng)):
            yield phi, n
    if F == QQ:
        yield random_map(QQ, 2, rng, polynomial=True, height=5), 3
        yield random_map(QQ, 3, rng, polynomial=True, height=5), 1


def has_repeated_root(phi, n):
    phin = period_polynomial(repositioned(phi, n)[0], n)
    return poly_gcd(phin, derivative(phin)).degree > 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_char_poly_matches_bivariate_resultant(p):
    # p <= d^n + 1 for most cases: the range the bivariate resultant served;
    # it takes about 2 s a map at (2, 6), which the sampled test covers
    rng = random.Random(700 + p)
    F = GF(p)
    repeated = 0
    for phi, n in oracle_cases(F, rng):
        if (phi.d, n) != (2, 6):
            assert multiplier_char_poly(phi, n) == bivariate_multiplier_char_poly(phi, n)
            repeated += has_repeated_root(phi, n)
    assert repeated >= 7


@pytest.mark.parametrize("bits", [7, 20, 30, None])
def test_char_poly_matches_sampled_resultant(bits):
    # bits None: over QQ, where the sampled resultant is the route replaced
    rng = random.Random(800 + (bits or 0))
    F = QQ if bits is None else GF(random_prime(rng, bits))
    repeated = 0
    for phi, n in oracle_cases(F, rng):
        assert multiplier_char_poly(phi, n) == sampled_multiplier_char_poly(phi, n)
        repeated += has_repeated_root(phi, n)
    assert repeated >= (5 if bits is None else 7)


def test_quintic_route_takes_resultants_against_dynatomic_factors(monkeypatch):
    # over QQ at (5, 2): 7 samples and the w^6 coefficient against Phi*_1
    # (degree 6), and 20 / 2 + 1 = 11 samples of the cycle polynomial and the
    # w^20 coefficient against Phi*_2 (degree 20); not 27 against Per_2
    # (degree 26), nor 21 against Phi*_2.  Every sample (w - 1) Den_m - Per_m'
    # has degree d^m = 5 or 25, not the 10 or 50 of w Den_m^2 - Num_m.  The
    # samples are int lists that go to the ZZ subresultant kernel directly
    phi = random_map(QQ, 5, random.Random(61), height=9)
    degrees, sample_degrees = Counter(), {}
    real = dynamics._zz_resultant

    def recording(f, g):
        degrees[len(f) - 1] += 1
        sample_degrees[len(f) - 1] = max(sample_degrees.get(len(f) - 1, 0), len(g) - 1)
        return real(f, g)

    monkeypatch.setattr(dynamics, "_zz_resultant", recording)
    assert multiplier_char_poly(phi, 2).degree == 26
    assert degrees == {6: 8, 20: 12}
    assert sample_degrees == {6: 5, 20: 25}


def test_perturbed_pseudo_remainder_fails_the_run(monkeypatch):
    # every division in the subresultant sequence is exact by theorem, so one
    # perturbed pseudo-remainder fails the run with the invariant at once
    real = exactalg._zz_prem
    calls, target = [], []

    def perturbed(a, b):
        r = real(a, b)
        calls.append(len(a))
        if len(calls) == target[0]:
            r[0] += 1
        return r

    phi = ProjMap(QQ, [Fraction(c) for c in (1, 0, 1)], [Fraction(c) for c in (3, 1, 7)])
    monkeypatch.setattr(exactalg, "_zz_prem", perturbed)
    # samples w = 0 and w = 1 against Phi*_1 (degree 3) take 2 pseudo-remainders
    # each; the second one of w = 1 is divided by the square of its leading
    # coefficient, (1 + d) lc(Den_1) = 9
    target.append(4)
    with pytest.raises(InvariantError, match="inexact division by 81 in the subresultant sequence"):
        multiplier_char_poly(phi, 2)
    assert calls == [4, 3, 4, 3]
    # the CLI checks Res(num, den) of the map first: two more pseudo-remainders
    calls.clear()
    target[0] = 6
    code, text = run_command(["sigma", "--num", "1,0,1", "--den", "3,1,7", "-n", "2"])
    assert code == 1 and '"kind": "math"' in text and "in the subresultant sequence" in text
    assert len(calls) == 6


def test_non_exact_dynatomic_division_fails_the_run(monkeypatch):
    # a fault in the first link of the iterate chain moves a fixed point, so
    # Per_1 no longer divides Per_2: the run fails once with the invariant,
    # not retried
    calls = []
    real = dynamics._chain

    def faulty(psi, n):
        calls.append(n)
        (num, den), *rest = real(psi, n)
        return [([*num[:-1], num[-1] + 1], den)] + rest  # num + y^d

    monkeypatch.setattr(dynamics, "_chain", faulty)
    phi = ProjMap(QQ, [Fraction(c) for c in (1, 0, 1)], [Fraction(c) for c in (3, 1, 7)])
    with pytest.raises(InvariantError, match="Phi\\*_1 does not divide Per_2"):
        multiplier_char_poly(phi, 2)
    assert calls == [2]
    code, text = run_command(["sigma", "--num", "1,0,1", "--den", "3,1,7", "-n", "2"])
    assert code == 1 and '"kind": "math"' in text and "Phi*_1 does not divide Per_2" in text
    assert calls == [2, 2]


SIGMA_ARGV = ["sigma", "--num", "1,0,1", "--den", "3,1,7", "-n", "2"]


@pytest.mark.parametrize("target", [3, 4])
def test_one_wrong_fixed_point_sample_fails_the_run(monkeypatch, target):
    # the CLI takes two pseudo-remainders for Res(num, den), then two for the
    # w = 0 sample -Per_1' - Den_1 against Phi*_1, whose leading coefficient is
    # -d lc(Den_1) = -6.  The first remainder is divided by 1 and the second
    # by 6^2; adding 6^2 to either keeps both divisions exact, so the sample
    # is wrong and only the monic degree-3 interpolant exposes it
    real = exactalg._zz_prem
    calls = []

    def perturbed(a, b):
        r = real(a, b)
        calls.append(len(a))
        if len(calls) == target:
            r[0] += 6**2
        return r

    monkeypatch.setattr(exactalg, "_zz_prem", perturbed)
    code, text = run_command(SIGMA_ARGV)
    assert code == 1 and '"kind": "math"' in text and "psi*_1 through the samples is not monic of degree 3" in text


def test_one_wrong_two_cycle_sample_fails_the_run(monkeypatch):
    # Phi*_1 (degree 3) takes 4 samples and its w^3 coefficient; the 6th
    # resultant is the w = 0 sample against Phi*_2, which must be c psi(0)^2.
    # Phi*_2 (degree 2) takes 2 samples and c before the roots are taken.
    # The samples go to the ZZ subresultant kernel directly, and the CLI's
    # Res(num, den) reaches it through `resultant`, so both bindings are hooked
    real = exactalg._zz_resultant
    calls, target = [], [6]

    def perturbed(f, g):
        calls.append(len(f) - 1)
        return real(f, g) + (len(calls) == target[0])

    phi = ProjMap(QQ, [Fraction(c) for c in (1, 0, 1)], [Fraction(c) for c in (3, 1, 7)])
    monkeypatch.setattr(dynamics, "_zz_resultant", perturbed)
    monkeypatch.setattr(exactalg, "_zz_resultant", perturbed)
    with pytest.raises(InvariantError, match="sample of chi\\*_2 is not psi\\^2"):
        multiplier_char_poly(phi, 2)
    assert calls == [3] * 5 + [2] * 3
    # the CLI checks Res(num, den) of the map first
    calls.clear()
    target[0] = 7
    code, text = run_command(SIGMA_ARGV)
    assert code == 1 and '"kind": "math"' in text and "sample of chi*_2 is not psi^2" in text
    assert calls == [2] + [3] * 5 + [2] * 3


def test_mult_char_poly_matches_resultant_oracle():
    # the int-list char poly of multiplication by x^k mu on F[x]/(f), f monic, for
    # chi*_m over GF(p) (k = 0) and G_k over both fields, against Res_x(f, w - x^k mu)
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ints = st.lists(st.integers(-50, 50), max_size=6)

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((0, 2, 3, 5, 7, 101, 1000003)), ints.filter(bool), ints, st.integers(0, 3))
    def check(p, low, mu, k):
        F = QQ if p == 0 else GF2() if p == 2 else GF(p)
        modulus, mu = [F.from_int(c) for c in low] + [F.one], [F.from_int(c) for c in mu[: len(low)]]
        want = mult_char_poly_oracle(UniPoly(F, "x", mu) * UniPoly.gen(F, "x") ** k, UniPoly(F, "x", modulus))
        assert dynamics._mult_char_poly(mu, modulus, F, k) == want

    check()


def test_dynatomic_quotient_is_exact_over_zz():
    # primitive g, h with positive leading coefficients: f = g h is primitive
    # (Gauss), f / g is h step by step, and f + 1 is not a multiple of g
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ints = st.lists(st.integers(-99, 99), min_size=1, max_size=6)

    def primitive(cs):
        cs = list(UniPoly(ZZ, "x", cs).coeffs)
        k = math.gcd(*cs) if cs[-1] > 0 else -math.gcd(*cs)
        return [c // k for c in cs]

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(ints.filter(lambda g: any(g[1:])), ints.filter(any))
    def check(g, h):
        g, h = primitive(g), primitive(h)
        f = list((UniPoly(ZZ, "x", g) * UniPoly(ZZ, "x", h)).coeffs)
        assert dynamics._dynatomic_quotient(f, g, 0, 1, 2) == h
        assert list(exact_div(UniPoly(ZZ, "x", f), UniPoly(ZZ, "x", g)).coeffs) == h
        f[0] += 1
        with pytest.raises(InvariantError, match="Phi\\*_1 does not divide Per_2"):
            dynamics._dynatomic_quotient(f, g, 0, 1, 2)

    check()


def quadratic(F, c):
    return ProjMap.from_polynomial(UniPoly(F, "z", [F.from_rational(c), F.zero, F.one]))


@pytest.mark.parametrize("p", [None, 101, 1000003])
def test_formal_period_points_keep_the_cycle_power(p):
    # z^2 - 3/4 has a fixed point of multiplier -1, a double root of Phi*_2;
    # z^2 - 5/4 has a 2-cycle of multiplier -1, double roots of Phi*_4.  Their
    # multipliers are 1, so chi*_m = psi^m only as a limit of m-cycles
    F = QQ if p is None else GF(p)
    w = UniPoly.gen(F, "w")
    one = UniPoly.const(F, "w", F.one)
    for c, n, factor in ((Fraction(-3, 4), 2, (w - one) ** 3), (Fraction(-5, 4), 4, (w - one) ** 6)):
        phi = quadratic(F, c)
        chi = multiplier_char_poly(phi, n)
        assert chi == sampled_multiplier_char_poly(phi, n)
        assert has_repeated_root(phi, n)
        assert chi.divmod(factor)[1].is_zero and not chi.divmod(factor * (w - one))[1].is_zero
    assert multiplier_char_poly(quadratic(F, Fraction(-3, 4)), 2) == w * (w - one.scale(F.from_int(9))) * (w - one) ** 3


def test_sign_primes_skip_bad_reductions(monkeypatch):
    # (z^2 + 2z + 7) / 3 is z^2 + 1 conjugated by z -> (z + 1) / 3, a
    # polynomial with the 2-cycle multiplier 8, so psi*_2 = w - 8 and the two
    # samples are psi(0) = -8 and psi(1) = -7.  Phi*_2 is integral, and
    # c = Res(Phi*_2, Den_2) = 3^6, so 3 is skipped; 7 divides psi(1), so 7
    # is skipped too
    phi = ProjMap(QQ, [Fraction(c) for c in (1, 2, 7)], [Fraction(c) for c in (0, 0, 3)])
    expected = multiplier_char_poly(phi, 2)
    w = UniPoly.gen(QQ, "w")
    assert expected == w**5 - (w**4).scale(12) + (w**3).scale(16) + w.scale(1024)
    primes = []
    real = dynamics._monic_root

    def recording(chi, m):
        primes.append(chi.dom.p)
        return real(chi, m)

    monkeypatch.setattr(dynamics, "_monic_root", recording)
    monkeypatch.setattr(dynamics, "_SIGN_PRIMES", (3, 7, 1000003))
    assert multiplier_char_poly(phi, 2) == expected
    assert primes == [1000003]
    monkeypatch.setattr(dynamics, "_SIGN_PRIMES", (3, 7))
    with pytest.raises(MathError, match="no prime of \\(3, 7\\) reduces chi\\*_2 well") as err:
        multiplier_char_poly(phi, 2)
    assert type(err.value) is MathError  # not retried as an unlucky draw, not a program fault
    # a psi mod p that matches neither sign of a sample is a fault
    monkeypatch.setattr(dynamics, "_SIGN_PRIMES", (1000003,))
    monkeypatch.setattr(dynamics, "_monic_root", lambda chi, m: real(chi, m) + UniPoly.const(chi.dom, "w", 1))
    with pytest.raises(InvariantError, match="does not reduce to psi\\*_2 mod 1000003"):
        multiplier_char_poly(phi, 2)


def test_monic_root_matches_sympy():
    # chi = psi^m is formed by sympy; its monic m-th root must be psi again
    sympy = pytest.importorskip("sympy")
    rng = random.Random(91)
    w = sympy.Symbol("w")
    for p, m, e in ((1000003, 2, 10), (1000003, 4, 3), (101, 3, 5), (7, 2, 6)):
        F = GF(p)
        psi = UniPoly(F, "w", [F.rand(rng) for _ in range(e)] + [1])
        chi = sympy.Poly(list(reversed(psi.coeffs)), w, modulus=p) ** m
        chi = UniPoly.from_ints(F, "w", reversed(chi.all_coeffs()))
        assert chi.degree == m * e and dynamics._monic_root(chi, m) == psi


@pytest.mark.parametrize("p", [None, 101])
def test_wrong_final_degree_is_an_invariant_error(monkeypatch, p):
    # the Per_m degree checks force deg chi_n = d^n + 1, so a wrong degree
    # at the end is a fault in the program
    F = QQ if p is None else GF(p)
    name = "_sampled_char_poly" if p is None else "_fp_char_poly"
    real = getattr(dynamics, name)
    monkeypatch.setattr(dynamics, name, lambda *args: real(*args).shift(1))
    with pytest.raises(InvariantError, match="multiplier characteristic polynomial has wrong degree"):
        multiplier_char_poly(quadratic(F, Fraction(1)), 1)


# --- independent oracle: power sums via multiplication traces ---


def ext_gcd_poly(f, g):
    """(u, v, r) with u f + v g = r = gcd over a field."""
    dom = f.dom
    one = UniPoly.const(dom, f.var, dom.one)
    zero = UniPoly.zero(dom, f.var)
    r0, r1 = f, g
    u0, u1 = one, zero
    v0, v1 = zero, one
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return u0, v0, r0


def sigma_via_traces(phi, n):
    """Elementary symmetric functions from Newton identities on trace power
    sums of the multiplier function modulo the period polynomial.  Requires
    the map to already have all its n-periodic points affine."""
    dom = phi.dom
    phin = period_polynomial(phi, n)
    m = phi.d ** n + 1
    assert phin.degree == m, "map not in good position for the oracle"
    it = iterate(phi, n) if n > 1 else phi
    nn, dd = it.affine_num(), it.affine_den()
    num = derivative(nn) * dd - nn * derivative(dd)
    den2 = dd * dd
    u, _, r = ext_gcd_poly(den2.divmod(phin)[1], phin)
    assert r.degree == 0
    h = (u.scale(dom.inv(r.coeff(0))) * num).divmod(phin)[1]
    # multiplication-by-h matrix on the monomial basis of F[z]/(phin)
    cols = []
    zj = UniPoly.const(dom, "z", dom.one)
    z = UniPoly.gen(dom, "z")
    for _ in range(m):
        hz = (h * zj).divmod(phin)[1]
        cols.append([hz.coeff(i) for i in range(m)])
        zj = zj * z
    mat = [[cols[j][i] for j in range(m)] for i in range(m)]
    power = mat
    psums = []
    for _ in range(m):
        tr = dom.zero
        for i in range(m):
            tr = dom.add(tr, power[i][i])
        psums.append(tr)
        power = mat_mul(power, mat, dom)
    e = [dom.one]
    for k in range(1, m + 1):
        acc = dom.zero
        sign = dom.one
        for i in range(1, k + 1):
            acc = dom.add(acc, dom.mul(sign, dom.mul(psums[i - 1], e[k - i])))
            sign = dom.neg(sign)
        e.append(dom.div(acc, dom.from_int(k)))
    return tuple(e[1:])


def test_sigma_against_trace_oracle():
    # quadratic over QQ at period 2; infinity -> 1/3 is not 2-periodic
    phi = ProjMap(
        QQ,
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(3), Fraction(1), Fraction(7)],
    )
    assert sigma_n(phi, 2).values == sigma_via_traces(phi, 2)
    # cubic over a prime field at period 1
    F = GF(101)
    phi = ProjMap(
        F,
        [F.from_int(c) for c in (1, 0, 2, 5)],
        [F.from_int(c) for c in (3, 1, 0, 4)],
    )
    assert sigma_n(phi, 1).values == sigma_via_traces(phi, 1)
    assert sigma_n(phi, 2).values == sigma_via_traces(phi, 2)


def test_multiplier_at_point():
    # z^2 - 3/4 has fixed points 3/2 and -1/2 with multipliers 2z
    phi = ProjMap.from_polynomial(UniPoly(QQ, "z", [Fraction(-3, 4), QQ.zero, QQ.one]))
    assert multiplier_at_point(phi, ProjPoint.affine(QQ, Fraction(3, 2)), 1) == Fraction(3)
    assert multiplier_at_point(phi, ProjPoint.affine(QQ, Fraction(-1, 2)), 1) == Fraction(-1)
    assert multiplier_at_point(phi, ProjPoint.infinity(QQ), 1) == Fraction(0)
    # fixed point fed in with n = 2 yields the squared multiplier
    assert multiplier_at_point(phi, ProjPoint.affine(QQ, Fraction(3, 2)), 2) == Fraction(9)
    # 2-cycle {0, -1} of z^2 - 1 passes through the critical point
    sq = poly_map(QQ, [1, 0, -1])
    assert multiplier_at_point(sq, ProjPoint.affine(QQ, Fraction(0)), 2) == Fraction(0)
    with pytest.raises(MathError):
        multiplier_at_point(sq, ProjPoint.affine(QQ, Fraction(5)), 1)


def infinity_cycles(F, d, rng, draws):
    """Maps of degree d drawn over F = GF(p) whose orbit of infinity is a
    cycle of length at least 2, with that cycle, infinity first."""
    inf = ProjPoint.infinity(F)
    for _ in range(draws):
        phi = random_map(F, d, rng)
        orbit = [inf]
        while len(orbit) <= F.p + 1 and (q := phi.apply(orbit[-1])) != inf:
            orbit.append(q)
        if 2 <= len(orbit) <= F.p + 1:
            yield phi, orbit


@pytest.mark.parametrize(
    "p, d, periods, draws, want",
    [(3, 3, (2, 3, 4), 600, (149, 8)), (5, 5, (2, 3), 200, (38, 0)), (5, 3, (6,), 1000, (0, 3))],
)
def test_multiplier_at_point_on_cycles_through_infinity(p, d, periods, draws, want):
    # every point of a k-cycle through infinity has the multiplier of phi^k at
    # infinity, den_k[1] / num_k[0] in the chart w = Y/X, as den_k[0] = 0.
    # Where a point of P^1(F_p) is off the cycle, a conjugate moving it to
    # infinity puts the whole cycle in the affine chart.  p | d in the first
    # two cases; the third takes the 6-cycles, which cover P^1(F_5), with an
    # iterate of degree 3^6 where d = 5 would take 5^6
    F, pts = all_points(p)
    rng = random.Random(63)
    counts = Counter()
    for phi, orbit in infinity_cycles(F, d, rng, draws):
        k = len(orbit)
        if k not in periods:
            continue
        it = iterate(phi, k)
        lam = F.div(it.den[1], it.num[0])
        assert [multiplier_at_point(phi, q, k) for q in orbit] == [lam] * k
        assert multiplier_at_point(phi, orbit[-1], 2 * k) == F.mul(lam, lam)
        free = [q for q in pts if q not in orbit]
        counts[not free] += 1
        if free:
            while True:
                try:
                    m = Mobius(F, free[0].x, F.rand(rng), F.one, F.rand(rng))  # m(inf) = free[0]
                    break
                except DegenerateMapError:
                    continue
            moved = [m.inverse().apply(q) for q in orbit]
            assert not any(q.is_infinity for q in moved)
            assert multiplier_at_point(conjugate(phi, m), moved[0], k) == lam
    assert (counts[False], counts[True]) == want


def test_one_chain_per_multiplier_char_poly(monkeypatch):
    # every map takes one iterate chain, whether or not phi^n fixes infinity:
    # infinity's factor of chi_n is read in its own chart, with no conjugate
    calls = []
    real = dynamics._chain

    def counted(psi, n):
        calls.append(n)
        return real(psi, n)

    monkeypatch.setattr(dynamics, "_chain", counted)
    cases = (
        ((1, 0, 1), (0, 1, 1), 2),  # (z^2 + 1) / (z + 1): 0 -> 1 -> 1, infinity fixed
        ((1, 0, 0), (0, 1, 1), 1),  # z^2 / (z + 1) fixes 0 and infinity
        ((1, 0, 1), (3, 1, 7), 2),  # phi moves infinity
        ((1, 0, 1), (0, 1, 0), 3),  # z + 1/z: infinity is a triple fixed point
    )
    for num, den, n in cases:
        phi = ProjMap(QQ, map(Fraction, num), map(Fraction, den))
        calls.clear()
        chi = multiplier_char_poly(phi, n)
        assert calls == [n]
        assert chi == sampled_multiplier_char_poly(phi, n)
    # (z^3 + z^2 + z + 1) / (z^3 + 2z^2 + 2z) permutes P^1(F_3) as the 4-cycle
    # inf -> 1 -> 2 -> 0, so every point of P^1(F_3) has period dividing 4;
    # sigma_4 is the lift's over QQ reduced mod 3
    argv = ["sigma", "--num", "1,1,1,1", "--den", "1,2,2,0", "-n", "4"]
    calls.clear()
    code, text = run_command(argv + ["--field", "GF:3"])
    assert code == 0 and calls == [4]
    code_q, text_q = run_command(argv)
    assert code_q == 0
    F = GF(3)
    got, lift = (json.loads(t)["sigma"] for t in (text, text_q))
    assert got == [str(F.from_rational(Fraction(v))) for v in lift]


def test_tau_levels():
    phi = poly_map(QQ, [1, 0, 1])
    t = tau(phi, 2)
    assert t.n == 2 and len(t.sigmas) == 2
    assert t.sigmas[0] == sigma_n(phi, 1)
    assert t.sigmas[1] == sigma_n(phi, 2)


def test_fixed_point_relation_residual():
    rng = random.Random(47)
    for d in (2, 3, 4):
        for dom in (QQ, GF(101)):
            phi = random_map(dom, d, rng, height=5)
            res = sigma1_relation_residual(sigma_n(phi, 1), d)
            assert dom.is_zero(res.theorem) and res.corollary is None
            poly = random_map(dom, d, rng, polynomial=True, height=5)
            res = sigma1_relation_residual(sigma_n(poly, 1), d, is_polynomial=True)
            assert dom.is_zero(res.theorem) and dom.is_zero(res.corollary)
    # degree 2 spelled out: sigma_{1,3} - sigma_{1,1} + 2 = 0
    sv = sigma_n(random_map(QQ, 2, rng, height=4), 1)
    s1, _, s3 = sv.values
    assert s3 - s1 + 2 == 0


def test_index_formula_at_every_fixed_point():
    # maps over GF(101) whose d + 1 fixed points are all rational and simple:
    # the index sum is 1, and any d multipliers force the last one
    rng = random.Random(49)
    F, pts = all_points(101)
    for d in (2, 3, 4):
        for polynomial in (False, True):
            hits = 0
            while hits < 3:
                phi = random_map(F, d, rng, polynomial=polynomial)
                fixed = [pt for pt in pts if phi.apply(pt) == pt]
                lams = [multiplier_at_point(phi, pt, 1) for pt in fixed]
                if len(fixed) != d + 1 or F.one in lams:
                    continue
                assert fixed_point_index_sum(F, lams) == F.one
                assert forced_multiplier(F, lams[:-1]) == lams[-1]
                assert forced_multiplier(F, lams[1:]) == lams[0]
                hits += 1


def test_random_map_properties():
    rng = random.Random(48)
    for d in (2, 3):
        phi = random_map(GF(11), d, rng)
        assert phi.d == d
        poly = random_map(QQ, d, rng, polynomial=True)
        assert poly.is_polynomial
        nz = [c for c in poly.num + poly.den if not QQ.is_zero(c)]
        assert nz[0] == Fraction(1)
    with pytest.raises(UsageError):
        random_map(QQ, 1, rng)


def test_degenerate_period_guard():
    phi = poly_map(QQ, [1, 0, 0])
    with pytest.raises(UsageError):
        iterate(phi, 0)
    with pytest.raises(UsageError):
        multiplier_char_poly(phi, 0)
