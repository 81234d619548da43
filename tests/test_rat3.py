import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from multspec import exactalg, groebner, linalg, rat3, reproduce
from multspec.dynamics import (
    ProjMap,
    ProjPoint,
    forced_multiplier,
    multiplier_at_point,
    period_polynomial,
    random_map,
)
from multspec.errors import BudgetExhaustedError, DegenerateInputError, InvariantError, MathError, UsageError, work_limit
from multspec.exactalg import GF, QQ, UniPoly, derivative, fp_roots, poly_gcd, random_prime, squarefree_part
from multspec.groebner import GREVLEX, buchberger, eliminant_of_form, quotient_dimension, random_linear_form
from multspec.rat3 import (
    Deg3Invariants,
    build_tau32_system,
    closed_form_coefficients,
    deg_tau32_report,
    deg_tau32_single,
    degenerate_points,
    map_from_invariants,
    reconstruct_from_fixed_data,
)
from multspec.reproduce import run_criterion

from groebner_oracles import (
    _root_multiplicity,
    dehomogenize,
    drop_vars,
    jacobian_det_at,
    linear_change,
    non_simple_point_count,
    restriction,
    substitute,
    tau32_counts_by_groebner,
    to_unipoly,
    unreduced_sample,
)
from matrix_helpers import bareiss_det, random_invertible
from poly_oracles import Mobius, chain_map_from_invariants, conjugate


def qq(*xs):
    return [Fraction(x) for x in xs]


def random_invariants(F, rng):
    while True:
        ls = []
        while len(ls) < 3:
            c = F.rand(rng)
            if c != F.one and c not in ls:
                ls.append(c)
        a = F.rand(rng)
        if a in (F.zero, F.one):
            continue
        try:
            inv = Deg3Invariants(F, ls[0], ls[1], ls[2], a)
            inv.lalpha
        except DegenerateInputError:
            continue
        return inv


def rational_fixed_data(phi, rng):
    """Affine rational fixed points with multipliers, or None if any escape."""
    F = phi.dom
    pp = period_polynomial(phi, 1)
    sf = squarefree_part(pp)
    roots = fp_roots(sf, rng)
    if len(roots) != sf.degree or pp.degree != sf.degree:
        return None
    pts = [ProjPoint.affine(F, r) for r in roots]
    if pp.degree < phi.d + 1:
        pts.append(ProjPoint.infinity(F))
    lams = [multiplier_at_point(phi, pt, 1) for pt in pts]
    if any(l == F.one for l in lams):
        return None
    return pts, lams


def test_lambda_alpha_examples():
    assert forced_multiplier(QQ, qq(-1, -1, -1)) == Fraction(3)
    assert forced_multiplier(QQ, qq(0, 0, 0)) == Fraction(3, 2)


def test_lambda_alpha_pole_cases():
    with pytest.raises(DegenerateInputError, match="multiplier 1"):
        forced_multiplier(QQ, qq(1, 2, 3))
    # z^2 has only three fixed points; the fourth multiplier has no home
    with pytest.raises(DegenerateInputError, match="infinity"):
        forced_multiplier(QQ, qq(0, 2, 0))


def test_four_multipliers_satisfy_relation():
    rng = random.Random(31)
    F = GF(20011)
    hits = 0
    for _ in range(400):
        if hits >= 8:
            break
        phi = random_map(F, 3, rng)
        data = rational_fixed_data(phi, rng)
        if data is None or len(data[0]) != 4:
            continue
        lams = data[1]
        assert forced_multiplier(F, lams[:3]) == lams[3]
        hits += 1
    assert hits >= 8


def test_invariants_validation():
    with pytest.raises(DegenerateInputError):
        Deg3Invariants(QQ, *qq(1, 2, 3), Fraction(5))
    with pytest.raises(DegenerateInputError):
        Deg3Invariants(QQ, *qq(2, 3, 4), Fraction(1))
    with pytest.raises(DegenerateInputError):
        Deg3Invariants(QQ, *qq(2, 3, 4), Fraction(0))


def test_map_from_invariants_fixes_marked_points():
    rng = random.Random(7)
    F = GF(10007)
    for _ in range(50):
        inv = random_invariants(F, rng)
        phi = map_from_invariants(inv)
        assert phi.d == 3
        marked = [
            (ProjPoint.affine(F, F.zero), inv.l0),
            (ProjPoint.affine(F, F.one), inv.l1),
            (ProjPoint.infinity(F), inv.linf),
            (ProjPoint.affine(F, inv.alpha), inv.lalpha),
        ]
        for pt, lam in marked:
            assert phi.apply(pt) == pt
            assert multiplier_at_point(phi, pt, 1) == lam


def test_closed_form_matches_chain():
    num, den = closed_form_coefficients(QQ, *qq(-1, -1, -1), Fraction(2))
    assert num == tuple(qq(-4, 8, -8, 0))
    assert den == tuple(qq(0, 4, -16, 8))
    rng = random.Random(11)
    F = GF(65537)
    for _ in range(25):
        inv = random_invariants(F, rng)
        assert chain_map_from_invariants(inv) == map_from_invariants(inv)

    def outcome(build, inv):
        try:
            return build(inv)
        except MathError as e:
            return type(e), str(e)

    # every marked input over GF(3), GF(5), GF(7), degenerate ones included:
    # the same map, or the same error type and text, from both routes
    for p in (3, 5, 7):
        F = GF(p)
        others = [c for c in range(p) if c != 1]
        for l0, l1, linf in itertools.product(others, repeat=3):
            for alpha in range(2, p):
                inv = Deg3Invariants(F, l0, l1, linf, alpha)
                assert outcome(map_from_invariants, inv) == outcome(chain_map_from_invariants, inv)


def test_conjugation_round_trip():
    rng = random.Random(23)
    F = GF(50021)
    hits = 0
    for _ in range(600):
        if hits >= 6:
            break
        phi = random_map(F, 3, rng)
        data = rational_fixed_data(phi, rng)
        if data is None or len(data[0]) != 4 or any(p.is_infinity for p in data[0]):
            continue
        (z0, z1, z2, z3) = [p.x for p in data[0]]
        # cross ratio sending z0, z1, z2 to 0, 1, infinity
        m = Mobius(
            F,
            F.sub(z1, z2),
            F.neg(F.mul(z0, F.sub(z1, z2))),
            F.sub(z1, z0),
            F.neg(F.mul(z2, F.sub(z1, z0))),
        )
        alpha = m.apply(ProjPoint.affine(F, z3))
        assert not alpha.is_infinity
        if alpha.x in (F.zero, F.one):
            continue
        psi = conjugate(phi, m.inverse())
        lams = [
            multiplier_at_point(psi, pt, 1)
            for pt in (ProjPoint.affine(F, F.zero), ProjPoint.affine(F, F.one), ProjPoint.infinity(F))
        ]
        inv = Deg3Invariants(F, lams[0], lams[1], lams[2], alpha.x)
        assert map_from_invariants(inv) == psi
        hits += 1
    assert hits >= 6


def test_build_tau32_system_shapes():
    rng = random.Random(9)
    F = GF(32003)
    inv = random_invariants(F, rng)
    lb = F.from_int(5)
    sysm = build_tau32_system(F, inv.l0, inv.l1, inv.linf, lb)
    g1, g2 = sysm.gens
    assert g1.total_degree() == 9 and g2.total_degree() == 16
    assert len(sysm.hgens) == 2
    assert quotient_dimension(buchberger([g1, g2], GREVLEX)) is not None
    # coprime: gcd of slices in each direction is constant
    for var, other in (("beta", "alpha"), ("alpha", "beta")):
        for _ in range(3):
            c = F.rand(rng)
            u1, u2 = (to_unipoly(drop_vars(substitute(g, {other: c}), (other,)), var) for g in (g1, g2))
            if u1.is_zero or u2.is_zero:
                continue
            assert poly_gcd(u1, u2).degree == 0
    with pytest.raises(DegenerateInputError):
        build_tau32_system(F, F.one, inv.l1, inv.linf, lb)


def test_tau32_system_vanishes_on_real_two_cycles():
    rng = random.Random(41)
    checks = 0
    for _ in range(60):
        if checks >= 3:
            break
        p = random_prime(rng, 24)
        F = GF(p)
        try:
            inv = random_invariants(F, rng)
            phi = map_from_invariants(inv)
        except (DegenerateInputError, MathError):
            continue
        p2 = period_polynomial(phi, 2)
        p1 = period_polynomial(phi, 1)
        q2 = p2.divmod(poly_gcd(p2, p1))[0]
        roots = fp_roots(squarefree_part(q2), rng)
        if not roots:
            continue
        b = roots[0]
        lb = multiplier_at_point(phi, ProjPoint.affine(F, b), 2)
        if lb == F.one:
            continue
        sysm = build_tau32_system(F, inv.l0, inv.l1, inv.linf, lb)
        assert all(F.is_zero(g.eval((inv.alpha, b))) for g in sysm.gens)
        checks += 1
    assert checks >= 3


def test_degenerate_points_fixed_values():
    pts = degenerate_points(QQ, *qq(3, -2, 5))
    assert pts[0] == tuple(qq(1, 0, 0))
    assert pts[1] == tuple(qq(0, 0, 1))
    assert pts[2] == tuple(qq(1, 1, 1))
    rng = random.Random(13)
    F = GF(40009)
    inv = random_invariants(F, rng)
    for _ in range(3):
        lb = F.rand_nonzero(rng)
        if lb == F.one:
            continue
        sysm = build_tau32_system(F, inv.l0, inv.l1, inv.linf, lb)
        for pt in degenerate_points(F, inv.l0, inv.l1, inv.linf):
            assert all(F.is_zero(h.eval(pt)) for h in sysm.hgens)
    with pytest.raises(DegenerateInputError):
        degenerate_points(QQ, *qq(1, 2, 3))


def test_degenerate_points_are_singular():
    rng = random.Random(29)
    F = GF(30011)
    inv = random_invariants(F, rng)
    sysm = build_tau32_system(F, inv.l0, inv.l1, inv.linf, F.from_int(7))
    pts = degenerate_points(F, inv.l0, inv.l1, inv.linf)
    for pt in (pts[1], pts[2], pts[3], pts[4]):  # the affine four
        assert F.is_zero(jacobian_det_at(list(sysm.gens), sysm.vars, pt[:2]))
    line = [dehomogenize(h, "alpha") for h in sysm.hgens]
    for pt in (pts[0], pts[5]):  # the two on z = 0, both in the alpha = 1 chart
        assert F.is_zero(jacobian_det_at(line, ("beta", "z"), (pt[1], F.zero)))


PINNED_F = GF(655773373)
PINNED = [PINNED_F.from_int(c) for c in (308421828, 105282126, 482813204, 12336038)]


def test_deg_tau32_single_counts():
    rng = random.Random(3)
    F = PINNED_F
    draw = deg_tau32_single(F, *PINNED, rng)
    assert draw.bezout == 144
    assert draw.distinct == 18
    assert draw.degenerate == 6
    assert draw.simple == 12
    assert draw.degree == 12
    # the Groebner route to Bezout's count: a random change of coordinates
    # moves every intersection point off z = 0, so the affine quotient of
    # the moved system counts all of them with multiplicity
    sysm = build_tau32_system(F, *PINNED)
    m = random_invertible(3, F, random.Random(4))
    moved = [dehomogenize(linear_change(h, m), "z") for h in sysm.hgens]
    h1, h2 = sysm.hgens
    assert quotient_dimension(buchberger(moved, GREVLEX)) == draw.bezout == h1.total_degree() * h2.total_degree()


def test_deg_tau32_single_work_counts(monkeypatch):
    """One draw: no Groebner basis, quotient context or characteristic
    polynomial; 146 sampled resultants (one certified projection)."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(groebner, "buchberger", counting("buchberger", groebner.buchberger))
    monkeypatch.setattr(groebner, "QuotientAlgebra", counting("context", groebner.QuotientAlgebra))
    char_poly = counting("char_poly", linalg.char_poly)
    monkeypatch.setattr(linalg, "char_poly", char_poly)
    monkeypatch.setattr(groebner, "_char_poly", char_poly)
    monkeypatch.setattr(rat3, "_fp_resultant", counting("resultant", exactalg._fp_resultant))
    deg_tau32_single(PINNED_F, *PINNED, random.Random(3))
    assert calls == {"resultant": 146}
    for name in ("buchberger", "quotient_dimension", "distinct_point_count", "eliminant_of_form", "fp_roots"):
        assert not hasattr(rat3, name)


def test_pinned_projection_multiplicities():
    # P1 = (1:0:0), P2 = (0:0:1), P3 = (1:1:1) carry 42 each, P4, P5 and the
    # second point on z = 0, (1:p6:0), carry 2: 144 = 12 + 3 * 42 + 3 * 2
    sysm, pts = build_tau32_system(PINNED_F, *PINNED), degenerate_points(PINNED_F, *PINNED[:3])
    for seed in (3, 4):
        bezout, _, simple, mults = rat3._projected_counts(sysm, pts, random.Random(seed))
        assert mults == (42, 42, 42, 2, 2, 2)
        assert bezout == simple + sum(mults)


def test_pinned_multiplicity_ledger():
    # the Groebner route: the affine degenerate points carry multiplicities
    # 42, 42, 2, 2 in the eliminant of a separating form, read here as the
    # number of vanishing derivatives; the 12 simple points fill the rest of
    # the quotient dimension
    F = PINNED_F
    sysm = build_tau32_system(F, *PINNED)
    basis = buchberger(list(sysm.gens), GREVLEX)
    u = random_linear_form(sysm.vars, F, random.Random(3))
    e = eliminant_of_form(basis, u)
    count = squarefree_part(e).degree
    assert count == groebner.distinct_point_count(basis, random.Random(3)) == 16
    affine = [pt[:2] for pt in degenerate_points(F, *PINNED[:3]) if pt[2] != F.zero]
    mults = []
    for pt in affine:
        c, m, f = u.eval(pt), 0, e
        while f.eval(c) == F.zero:
            f, m = derivative(f), m + 1
        mults.append(m)
    assert mults == [42, 42, 2, 2]
    assert [_root_multiplicity(e, u.eval(pt)) for pt in affine] == mults
    assert quotient_dimension(basis) == 100 == (count - 4) + sum(mults)


def test_jacobian_basis_oracle_counts_the_affine_degenerate_points():
    # the Jacobian basis the ledger replaced: its distinct points are exactly
    # the four affine degenerate points, where the Jacobian vanishes
    F = PINNED_F
    sysm = build_tau32_system(F, *PINNED)
    assert non_simple_point_count(list(sysm.gens), random.Random(5)) == 4
    for pt in degenerate_points(F, *PINNED[:3]):
        if pt[2] != F.zero:
            assert F.is_zero(jacobian_det_at(list(sysm.gens), sysm.vars, pt[:2]))


def _random_lambdas(rng):
    """A random 30-bit prime field and generic (l0, l1, linf, lbeta) on it."""
    F = GF(random_prime(rng, 30))
    inv = random_invariants(F, rng)
    return F, (inv.l0, inv.l1, inv.linf, F.from_int(rng.randrange(2, F.p - 1)))


def test_projections_match_groebner_oracle():
    rng = random.Random(71)
    cases = [(PINNED_F, tuple(PINNED))] + [_random_lambdas(rng) for _ in range(3)]
    for F, lams in cases:
        draw = deg_tau32_single(F, *lams, rng)
        sysm = build_tau32_system(F, *lams)
        oracle = tau32_counts_by_groebner(sysm, degenerate_points(F, *lams[:3]), rng)
        assert oracle == (144, 18, 12, 8)  # the last, the alpha values, only the oracle counts
        assert (draw.bezout, draw.distinct, draw.simple) == oracle[:3]


def test_sampled_resultant_at_formal_y_degrees():
    # h1 = Y^3 + (X - 2Z) Y^2 + X^2 Y + Z^3 and h2 = 3 Y^4 + X Y Z^2 + X^4 + Z^4
    # hold pure Y^3 and Y^4 terms, as every projected pair does, so no sample
    # drops a Y-degree.  Every sample must be the Sylvester determinant at
    # the formal degrees, in either order of the forms
    F = GF(10007)
    h1 = {(0, 3, 0): 1, (1, 2, 0): 1, (0, 2, 1): F.neg(2), (2, 1, 0): 1, (0, 0, 3): 1}
    h2 = {(0, 4, 0): 3, (1, 1, 2): 1, (4, 0, 0): 1, (0, 0, 4): 1}

    def column(t, x):  # Y-coefficients at (x, Y, 1), leading first
        cs = [0] * (max(e[1] for e in t) + 1)
        for (a, b, _), c in t.items():
            cs[b] = (cs[b] + c * x**a) % F.p
        return cs[::-1]

    for forms in ((h1, h2), (h2, h1)):
        R = rat3._sampled_resultant(rat3._y_reduction(forms, F.p)[1], F)
        for x in range(145):
            a, b = (column(t, x) for t in forms)
            m, n = len(a) - 1, len(b) - 1
            rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
            rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
            assert R.eval(x) == bareiss_det(rows, F)


def test_reduced_samples_match_the_unreduced_oracle():
    # random forms h1, h2 of degrees m <= n in (X, Y, Z), each with a pure
    # Y^deg term, in either order: every sample of _y_reduction is the
    # resultant of the unreduced restrictions, and on each line X = x the
    # gcd of h1(x) and r(x) = h2(x) mod h1(x) is that of h1(x) and h2(x).
    # Over small primes r(x) drops degree or vanishes at some x; h2 = q h1,
    # or q h1 + e Z^n, makes r(x) vanish or a constant at every x
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seen = Counter()

    def form(draw, p, deg):
        t = {(a, b, deg - a - b): draw(st.integers(0, p - 1)) for a in range(deg + 1) for b in range(deg + 1 - a)}
        t[(0, deg, 0)] = draw(st.integers(1, p - 1))
        return t

    @st.composite
    def pairs(draw):
        p = draw(st.sampled_from((3, 5, 7, 11, 10007, 1000003)))
        m = draw(st.integers(1, 4))
        n = draw(st.integers(m, 6))
        F, xyz = GF(p), ("X", "Y", "Z")
        h1 = form(draw, p, m)
        h2 = form(draw, p, n)
        planted = draw(st.sampled_from((None, 0, 1)))
        if planted is not None:  # h2 = q h1 + e Z^n, e = 0 or not
            q = groebner.MultiPoly(F, xyz, form(draw, p, n - m)) * groebner.MultiPoly(F, xyz, h1)
            h2 = dict(q.terms)
            h2[(0, 0, n)] = (h2.get((0, 0, n), 0) + planted * draw(st.integers(1, p - 1))) % p
        return F, h1, h2

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(pairs())
    def check(case):
        F, h1, h2 = case
        xs = range(min(F.p, 12))
        for forms in ((h1, h2), (h2, h1)):
            sample = rat3._y_reduction(forms, F.p)[1]
            assert [sample(x) for x in xs] == [unreduced_sample(forms, F, x) for x in xs]
        at, oracle, m = rat3._y_reduction((h1, h2), F.p)[0], restriction((h1, h2), F), max(map(sum, h1))
        for x in xs:
            f, r = at(x)
            assert poly_gcd(UniPoly(F, "Y", f), UniPoly(F, "Y", r)) == poly_gcd(*oracle(x))
            seen["vanishes" if not r else "constant" if len(r) == 1 else "drops" if len(r) < m else "full"] += 1

    check()
    assert all(seen[kind] for kind in ("vanishes", "constant", "drops", "full"))


def test_deflated_cofactor_counts_match_the_gcd_counts():
    # R = lc * prod (X - x_P)^m_P * prod f_i^k_i with m_P in 0 .. 4, f_i random
    # of degree 1 .. 3: the counts off the deflated cofactor S are the counts
    # the gcd of R and R' gives, and the multiplicities are R's at the x_P
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seen = Counter()

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(
        st.sampled_from((151, 10007, 1000003)),
        st.lists(st.integers(0, 4), min_size=6, max_size=6),
        st.lists(st.tuples(st.lists(st.integers(0, 150), min_size=1, max_size=3), st.integers(1, 3)), max_size=3),
        st.integers(1, 150),
    )
    def check(p, mults, factors, lc):
        F = GF(p)
        X = UniPoly.gen(F, "X")
        xs = random.Random(p + sum(mults)).sample(range(p), 6)
        R = UniPoly.const(F, "X", lc)
        for x, m in zip(xs, mults):
            R = R * (X - UniPoly.const(F, "X", x)) ** m
        for low, k in factors:
            R = R * UniPoly(F, "X", [*low, 1]) ** k
        g = poly_gcd(R, derivative(R))
        sf = R.divmod(g)[0]
        want = (sf.degree, sf.degree - poly_gcd(sf, g).degree, tuple(_root_multiplicity(R, x) for x in xs))
        assert rat3._root_counts(R, xs) == want
        seen.update(want[2])

    check()
    assert seen[0] and seen[1]


def test_alpha_projection_centre_on_h1():
    # linf = -1 kills the pure beta^9 term of h1, so (0 : 1 : 0), the centre
    # that projects onto alpha, lies on h1.  The random projections move
    # their centre off both curves, and their counts match the oracle, which
    # still finds 8 alpha values
    minus_one = PINNED_F.neg(PINNED_F.one)
    for F, lams in ((PINNED_F, (*PINNED[:2], minus_one, PINNED[3])), (GF(151), (29, 118, 150, 125))):
        sysm = build_tau32_system(F, *lams)
        assert [max(e[1] for e in h.terms) for h in sysm.hgens] == [7, 16]
        draw = deg_tau32_single(F, *lams, random.Random(1))
        oracle = tau32_counts_by_groebner(sysm, degenerate_points(F, *lams[:3]), random.Random(2))
        assert oracle == (144, 18, 12, 8)
        assert (draw.bezout, draw.distinct, draw.simple) == oracle[:3]


def _fault_once_per_point(real, fault, which):
    """_deflate's multiplicity off by `fault` at degenerate point `which` of every projection."""
    calls = Counter()

    def faulty(cs, c, p):
        calls["n"] += 1
        m, q = real(cs, c, p)
        return m + (fault if (calls["n"] - 1) % 6 == which else 0), q

    return faulty


def test_broken_invariant_fails_instead_of_retrying(monkeypatch):
    # a degenerate multiplicity off by one in every projection breaks the
    # ledger 144 = 12 + 132 of the first draw twice, which is not retried
    for fault in (1, -1):
        monkeypatch.setattr(rat3, "_deflate", _fault_once_per_point(rat3._deflate, fault, 0))
        message = f"multiplicity ledger: deg R 144 != 12 simple \\+ {132 + fault} degenerate"
        with pytest.raises(InvariantError, match=message):
            deg_tau32_report(random.Random(0xC0FFEE), draws=1)
        result = run_criterion(7)
        assert not result.passed
        assert f"deg R 144 != 12 simple + {132 + fault} degenerate" in result.detail
        monkeypatch.undo()
    # at a multiplicity-2 point, -1 leaves a simple point where a multiple one belongs
    monkeypatch.setattr(rat3, "_deflate", _fault_once_per_point(rat3._deflate, -1, 5))
    with pytest.raises(InvariantError, match="expected a multiple point at .* got multiplicity 1"):
        deg_tau32_single(PINNED_F, *PINNED, random.Random(3))


@pytest.mark.parametrize("target", [1, 73, 146])
def test_one_wrong_resultant_sample_fails_the_draw(monkeypatch, target):
    # R has degree <= 144 and is sampled at 146 nodes, so one sample off by
    # one (the first, a middle one and the last of the projection) lifts the
    # interpolant to degree 145; the draw fails, not retried
    calls = []

    def perturbed(a, b, p):
        calls.append(1)
        r = exactalg._fp_resultant(a, b, p)
        return (r + 1) % p if len(calls) == target else r

    monkeypatch.setattr(rat3, "_fp_resultant", perturbed)
    with pytest.raises(InvariantError, match="sampled resultant has degree 145 > 144"):
        deg_tau32_single(PINNED_F, *PINNED, random.Random(3))
    assert len(calls) == 146  # the projection of the wrong sample ends, and no other is drawn


def test_marked_map_criterion_draws_again_only_on_degenerate_input(monkeypatch):
    # criterion 10 redraws parameters that hit an excluded locus; any other
    # error fails it at once instead of looping
    real = reproduce.Deg3Invariants
    calls = []

    def planted(error):
        def build(*args):
            calls.append(args)
            if len(calls) == 1:
                raise error("planted marked-map failure")
            return real(*args)

        return build

    monkeypatch.setattr(reproduce, "Deg3Invariants", planted(InvariantError))
    result = run_criterion(10)
    assert not result.passed and result.detail == "planted marked-map failure"
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(reproduce, "Deg3Invariants", planted(DegenerateInputError))
    assert run_criterion(10).passed


def test_reconstruction_criterion_checks_every_drawn_map(monkeypatch):
    # criterion 8 draws each map by its fixed points, so every map has
    # rational fixed data: one _rational_fixed_data call per retraction
    real = reproduce._rational_fixed_data
    calls = []

    def counted(phi, rng):
        calls.append(phi)
        return real(phi, rng)

    monkeypatch.setattr(reproduce, "_rational_fixed_data", counted)
    assert run_criterion(8).passed
    assert len(calls) == 150
    # a map without its drawn fixed points is a broken invariant, not a redraw
    calls.clear()
    monkeypatch.setattr(reproduce, "_rational_fixed_data", lambda phi, rng: calls.append(phi) or ([], []))
    result = run_criterion(8)
    assert not result.passed and result.detail.startswith("fixed points of")
    assert len(calls) == 1


def test_corrupted_resultant_sample_is_an_invariant_error(monkeypatch):
    # one wrong sample of the 146 lifts R to degree 145.  Every sample off by
    # one keeps degree 144, but R + 1 is off: the degenerate points are no
    # longer multiple roots, which no other projection repairs
    real = rat3.interpolate

    def corrupted(nodes):
        def interpolate(ys, dom, var):
            ys = [dom.add(y, dom.one) if i in nodes else y for i, y in enumerate(ys)]
            return real(ys, dom, var)

        return interpolate

    for nodes, message in (({7}, "degree 145 > 144"), (set(range(146)), "expected a multiple point")):
        monkeypatch.setattr(rat3, "interpolate", corrupted(nodes))
        with pytest.raises(InvariantError, match=message):
            deg_tau32_single(PINNED_F, *PINNED, random.Random(3))
        with pytest.raises(InvariantError):
            deg_tau32_report(random.Random(0xC0FFEE), draws=1)


def test_ledger_failure_in_one_projection_draws_one_more(monkeypatch):
    # a broken ledger in the first projection only may be two simple points
    # on one line through the centre, not a broken theorem: the next
    # projection certifies the same counts
    real = rat3._deflate
    calls = Counter()

    def first_projection_off(cs, c, p):
        calls["n"] += 1
        m, q = real(cs, c, p)
        return m + (calls["n"] == 1), q

    monkeypatch.setattr(rat3, "_deflate", first_projection_off)
    draw = deg_tau32_single(PINNED_F, *PINNED, random.Random(3))
    assert (draw.bezout, draw.distinct, draw.simple) == (144, 18, 12)
    assert calls["n"] == 2 * 6
    # a broken ledger in two projections is a fault
    calls.clear()

    def every_projection_off(cs, c, p):
        calls["n"] += 1
        m, q = real(cs, c, p)
        return m + calls["n"], q

    monkeypatch.setattr(rat3, "_deflate", every_projection_off)
    with pytest.raises(InvariantError, match="multiplicity ledger: deg R 144 != 12 simple"):
        deg_tau32_single(PINNED_F, *PINNED, random.Random(3))
    assert calls["n"] == 2 * 6


class _Forced(random.Random):
    """A seeded generator whose first randrange calls return `forced`."""

    def __init__(self, seed, forced):
        super().__init__(seed)
        self.forced = list(forced)

    def randrange(self, *args):
        return self.forced.pop(0) if self.forced else super().randrange(*args)


def test_second_point_on_a_degenerate_line_draws_again(monkeypatch):
    # Q is a rational simple point of this system.  Shears b, c and the d
    # that puts the centre on the line through Q and a degenerate point P
    # merge Q into P's root of R: its multiplicity and the simple count move
    # by one each, so the ledger still balances and only the line check
    # sees it; the projection is drawn again, before its R is sampled, and
    # the counts hold
    F = PINNED_F
    lams = [F.from_int(c) for c in (274282000, 384974577, 569125963, 31144125)]
    q = (319194853, 48211010, 1)
    sysm = build_tau32_system(F, *lams)
    assert all(F.is_zero(h.eval(q)) for h in sysm.hgens)
    real = rat3._sampled_resultant
    calls = []
    monkeypatch.setattr(rat3, "_sampled_resultant", lambda forms, dom: calls.append(1) or real(forms, dom))
    pts = degenerate_points(F, *lams[:3])
    b, c = 5, 7
    for a, bt, z in pts:
        dp, dq = (z - b * a - c * bt) % F.p, (q[2] - b * q[0] - c * q[1]) % F.p
        d = F.div((q[0] * dp - a * dq) % F.p, (q[1] * dp - bt * dq) % F.p)
        with pytest.raises(DegenerateInputError, match="shares its line through the centre"):
            rat3._projected_counts(sysm, pts, _Forced(1, [b, c, d]))
        calls.clear()
        draw = deg_tau32_single(F, *lams, _Forced(1, [b, c, d]))
        assert (draw.bezout, draw.distinct, draw.simple) == (144, 18, 12)
        assert len(calls) == 1


def test_exhausted_projections_draw_the_specialization_again(monkeypatch):
    # at seed 5 the first projection over GF(157) puts a point on Z = 0;
    # with one projection allowed the specialization runs out, and running
    # out is a draw-again error, not a failure of the run
    F = GF(157)
    lams = [F.from_int(c) for c in (41, 4, 156, 7)]
    monkeypatch.setattr(rat3, "_PROJECTIONS", 1)
    with pytest.raises(DegenerateInputError, match="no certified projection found in 1 attempts"):
        deg_tau32_single(F, *lams, random.Random(5))
    monkeypatch.undo()
    # the report then draws a new prime and multipliers
    real = rat3._projected_counts
    primes = []

    def unlucky_first(sysm, pts, rng):
        primes.append(sysm.dom.p)
        if len(primes) <= rat3._PROJECTIONS:
            raise DegenerateInputError("planted non-generic projection")
        return real(sysm, pts, rng)

    monkeypatch.setattr(rat3, "_projected_counts", unlucky_first)
    (draw,) = deg_tau32_report(random.Random(0xC0FFEE), draws=1)
    assert (draw.bezout, draw.distinct, draw.simple) == (144, 18, 12)
    assert len(primes) == rat3._PROJECTIONS + 1 and len(set(primes[:-1])) == 1
    assert draw.prime == primes[-1] != primes[0]


def test_pinned_small_field_draws_projections_again(monkeypatch):
    # over GF(157) a random projection often fails: the first one at seed 22
    # has its centre on a curve, at seed 5 it puts a point on Z = 0
    F = GF(157)
    lams = [F.from_int(c) for c in (41, 4, 156, 7)]
    oracle = tau32_counts_by_groebner(build_tau32_system(F, *lams), degenerate_points(F, *lams[:3]), random.Random(1))
    assert oracle == (144, 18, 12, 8)
    real = rat3._projected_counts
    calls = []
    monkeypatch.setattr(rat3, "_projected_counts", lambda *args: calls.append(1) or real(*args))
    for seed in (22, 5):
        calls.clear()
        draw = deg_tau32_single(F, *lams, random.Random(seed))
        assert (draw.bezout, draw.distinct, draw.simple) == oracle[:3]
        assert len(calls) == 2


def test_checks_on_the_degenerate_points_run_before_the_resultant(monkeypatch):
    # over GF(157) the first projection at seed 7 puts two degenerate points
    # on one line through the centre; that check needs no R, so the rejected
    # projection samples none and the draw fits one projection's 146 units
    F = GF(157)
    lams = [F.from_int(c) for c in (41, 4, 156, 7)]
    sysm = build_tau32_system(F, *lams)
    real = rat3._sampled_resultant
    calls = []
    monkeypatch.setattr(rat3, "_sampled_resultant", lambda forms, dom: calls.append(1) or real(forms, dom))
    with pytest.raises(DegenerateInputError, match="one line through the centre"):
        rat3._projected_counts(sysm, degenerate_points(F, *lams[:3]), random.Random(7))
    assert calls == []
    with work_limit(146):
        draw = deg_tau32_single(F, *lams, random.Random(7))
    assert (draw.bezout, draw.distinct, draw.simple) == (144, 18, 12) and len(calls) == 1


def test_deg_tau32_budget_and_small_fields():
    # one work unit per resultant sample: 146 per certified projection
    with work_limit(146):
        deg_tau32_single(PINNED_F, *PINNED, random.Random(3))
    with pytest.raises(BudgetExhaustedError), work_limit(145):
        deg_tau32_single(PINNED_F, *PINNED, random.Random(3))
    F = GF(139)
    with pytest.raises(UsageError, match="p > 145"):
        deg_tau32_single(F, *(F.from_int(c) for c in (2, 3, 4, 5)), random.Random(3))


def test_deg_tau32_report_agreement():
    rng = random.Random(0xC0FFEE)
    draws = deg_tau32_report(rng)
    assert [(d.bezout, d.distinct, d.degenerate, d.simple, d.degree) for d in draws] == [(144, 18, 6, 12, 12)] * 3
    assert len({d.prime for d in draws}) == 3
    for d in draws:
        assert d.bezout - d.simple - d.degenerate == 126  # 3 x 42 at P1, P2, P3
    first = draws[0]
    F = GF(first.prime)
    oracle = tau32_counts_by_groebner(
        build_tau32_system(F, *first.lambdas), degenerate_points(F, *first.lambdas[:3]), random.Random(1)
    )
    # each two-cycle shows up at two beta values of one alpha, so the 12
    # simple points carry 6 alpha values, plus 0 and 1 from the corners
    assert oracle[3] == 8


def test_reconstruct_z_squared():
    pts = [ProjPoint.affine(QQ, Fraction(0)), ProjPoint.affine(QQ, Fraction(1)), ProjPoint.infinity(QQ)]
    phi = reconstruct_from_fixed_data(QQ, pts, qq(0, 2, 0))
    assert phi == ProjMap(QQ, qq(1, 0, 0), qq(0, 0, 1))


def test_reconstruct_round_trip():
    rng = random.Random(99)
    F = GF(1000003)
    hits = {"affine": 0, "infinity": 0}
    for _ in range(2500):
        if hits["affine"] >= 30 and hits["infinity"] >= 20:
            break
        d = rng.choice([2, 3, 4])
        polynomial = rng.random() < 0.5
        phi = random_map(F, d, rng, polynomial=polynomial)
        data = rational_fixed_data(phi, rng)
        if data is None or len(data[0]) != d + 1:
            continue
        pts, lams = data
        kind = "infinity" if any(p.is_infinity for p in pts) else "affine"
        assert reconstruct_from_fixed_data(F, pts, lams) == phi
        hits[kind] += 1
    assert hits["affine"] >= 30 and hits["infinity"] >= 20


def test_reconstruct_matches_invariant_route():
    inv = Deg3Invariants(QQ, *qq(-1, -1, -1), Fraction(2))
    pts = [
        ProjPoint.affine(QQ, Fraction(0)),
        ProjPoint.affine(QQ, Fraction(1)),
        ProjPoint.infinity(QQ),
        ProjPoint.affine(QQ, Fraction(2)),
    ]
    lams = qq(-1, -1, -1) + [inv.lalpha]
    assert reconstruct_from_fixed_data(QQ, pts, lams) == map_from_invariants(inv)
    rng = random.Random(55)
    F = GF(90001)
    for _ in range(10):
        inv = random_invariants(F, rng)
        pts = [
            ProjPoint.affine(F, F.zero),
            ProjPoint.affine(F, F.one),
            ProjPoint.infinity(F),
            ProjPoint.affine(F, inv.alpha),
        ]
        lams = [inv.l0, inv.l1, inv.linf, inv.lalpha]
        assert reconstruct_from_fixed_data(F, pts, lams) == map_from_invariants(inv)


def test_reconstruct_validation_errors():
    pts = [ProjPoint.affine(QQ, Fraction(0)), ProjPoint.affine(QQ, Fraction(1)), ProjPoint.infinity(QQ)]
    with pytest.raises(MathError, match="inconsistent"):
        reconstruct_from_fixed_data(QQ, pts, qq(2, 3, 4))
    with pytest.raises(DegenerateInputError, match="distinct"):
        reconstruct_from_fixed_data(QQ, [pts[0], pts[0], pts[2]], qq(0, 2, 0))
    with pytest.raises(DegenerateInputError, match="multiplier 1"):
        reconstruct_from_fixed_data(QQ, pts, qq(0, 1, 0))
    with pytest.raises(UsageError):
        reconstruct_from_fixed_data(QQ, pts, qq(0, 2))
    with pytest.raises(UsageError):
        reconstruct_from_fixed_data(QQ, pts[:2], qq(0, 2))
