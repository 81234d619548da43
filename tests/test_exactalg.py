import random
from collections import Counter
from fractions import Fraction

import pytest

from multspec import exactalg
from multspec.errors import MathError, UsageError
from multspec.exactalg import (
    GF,
    QQ,
    ZZ,
    UniPoly,
    compose,
    derivative,
    field_from_str,
    field_to_str,
    fp_roots,
    interpolate,
    is_prime,
    poly_gcd,
    pow_mod,
    random_prime,
    resultant,
    scalar_from_str,
    squarefree_part,
)

from codec_helpers import scalar_to_str
from matrix_helpers import bareiss_det
from poly_oracles import (
    GF2,
    PolyRing,
    exact_div,
    inverse_mod,
    newton_interpolate,
    prs_resultant,
    resultant_bareiss,
    sylvester_matrix,
    zz_resultant_cases,
)


def rand_poly(dom, var, deg, rng, monic=False):
    cs = [dom.rand(rng) for _ in range(deg + 1)]
    if monic:
        cs[-1] = dom.one
    elif dom.is_zero(cs[-1]):
        cs[-1] = dom.one
    return UniPoly(dom, var, cs)


def poly_from_roots(dom, var, roots, lc=None):
    x = UniPoly.gen(dom, var)
    p = UniPoly.const(dom, var, lc if lc is not None else dom.one)
    for r in roots:
        p = p * (x - UniPoly.const(dom, var, r))
    return p


def test_primality_basics():
    assert is_prime(2) and is_prime(31) and is_prime(101)
    assert not is_prime(1) and not is_prime(91) and not is_prime(561)
    rng = random.Random(1)
    p = random_prime(rng, 31, residue=1, modulus=4)
    assert is_prime(p) and p % 4 == 1 and p.bit_length() == 31


def test_gf_arithmetic():
    F = GF(101)
    assert F.add(70, 40) == 9
    assert F.mul(17, 6) == 1
    assert F.inv(17) == 6
    assert F.from_rational(Fraction(-7, 5)) == F.div(F.neg(7), 5)
    with pytest.raises(MathError):
        F.inv(0)
    with pytest.raises(UsageError):
        GF(91)
    with pytest.raises(UsageError):
        GF(2)


def test_unipoly_ring_axioms():
    rng = random.Random(2)
    for dom in (QQ, GF(31)):
        for _ in range(30):
            f = rand_poly(dom, "x", rng.randint(0, 6), rng)
            g = rand_poly(dom, "x", rng.randint(0, 6), rng)
            h = rand_poly(dom, "x", rng.randint(0, 6), rng)
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert (f - f).is_zero
            q, r = (f * g + h).divmod(g)
            assert q * g + r == f * g + h
            assert r.is_zero or r.degree < g.degree


def test_monic_divmod_needs_no_inverses():
    rng = random.Random(21)
    for dom in (QQ, GF(31), ZZ):
        for _ in range(20):
            if dom is ZZ:
                f = UniPoly.from_ints(ZZ, "x", [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
                g = UniPoly.from_ints(ZZ, "x", [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])
            else:
                f = rand_poly(dom, "x", rng.randint(0, 7), rng)
                g = rand_poly(dom, "x", rng.randint(1, 4), rng, monic=True)
            q, r = f.monic_divmod(g)
            assert q * g + r == f
            assert r.is_zero or r.degree < g.degree
    with pytest.raises(UsageError):
        UniPoly.from_ints(ZZ, "x", [1, 1]).monic_divmod(UniPoly.from_ints(ZZ, "x", [1, 2]))
    with pytest.raises(UsageError):
        UniPoly.from_ints(ZZ, "x", [1, 1]).monic_divmod(UniPoly.zero(ZZ, "x"))


def test_long_division_multiplies_only_by_lower_nonzero_divisor_coefficients():
    # x^6 + 3x^2 + 2 = (x^3 + x)(x^3 - x) + 4x^2 + 2: the divisor's leading 1
    # only cancels the top coefficient and its x^2 and x^0 coefficients are
    # 0, so each quotient step multiplies once, by the -1
    class CountingZZ(type(ZZ)):
        calls = 0

        def mul(self, a, b):
            CountingZZ.calls += 1
            return a * b

    dom = CountingZZ()
    f, g = UniPoly(dom, "x", [2, 0, 3, 0, 0, 0, 1]), UniPoly(dom, "x", [0, -1, 0, 1])
    q, r = f.monic_divmod(g)
    assert (q.coeffs, r.coeffs) == ((0, 1, 0, 1), (2, 0, 4))
    assert CountingZZ.calls == 2  # the x^5 and x^3 steps find r[i] = 0


def test_exact_div_over_zz():
    f = UniPoly.from_ints(ZZ, "x", [2, 4, 6])
    g = UniPoly.from_ints(ZZ, "x", [1, 2, 3])
    assert exact_div(f, g) == UniPoly.from_ints(ZZ, "x", [2])
    with pytest.raises(MathError):
        exact_div(UniPoly.from_ints(ZZ, "x", [1, 3]), UniPoly.from_ints(ZZ, "x", [2]))


def test_derivative_product_rule():
    rng = random.Random(3)
    for dom in (QQ, GF(23)):
        for _ in range(20):
            f = rand_poly(dom, "x", rng.randint(0, 5), rng)
            g = rand_poly(dom, "x", rng.randint(0, 5), rng)
            assert derivative(f * g) == derivative(f) * g + f * derivative(g)


def test_compose_matches_evaluation():
    rng = random.Random(4)
    F = GF(101)
    for _ in range(20):
        f = rand_poly(F, "x", rng.randint(0, 4), rng)
        g = rand_poly(F, "x", rng.randint(0, 4), rng)
        c = F.rand(rng)
        assert compose(f, g).eval(c) == f.eval(g.eval(c))


def test_gcd_of_constructed_products():
    # gcd recovered from known common factor, both fields
    rng = random.Random(5)
    for dom in (QQ, GF(31)):
        for _ in range(25):
            d = poly_from_roots(dom, "x", [dom.rand(rng) for _ in range(rng.randint(0, 3))])
            a = rand_poly(dom, "x", rng.randint(0, 3), rng)
            b = rand_poly(dom, "x", rng.randint(0, 3), rng)
            g = poly_gcd(d * a, d * b)
            # the true gcd is a multiple of d and divides both products
            assert g.divmod(poly_gcd(g, d))[0].degree + d.degree == g.degree
            assert (d * a).divmod(g)[1].is_zero
            assert (d * b).divmod(g)[1].is_zero
            assert g.is_zero or g.lc == dom.one


def test_gcd_qq_fraction_coefficients():
    x = UniPoly.gen(QQ, "x")
    c = UniPoly.const
    f = (x - c(QQ, "x", Fraction(1, 3))) * (x + c(QQ, "x", Fraction(7, 2)))
    g = (x - c(QQ, "x", Fraction(1, 3))) * (x - c(QQ, "x", Fraction(5)))
    assert poly_gcd(f, g) == x - c(QQ, "x", Fraction(1, 3))


def test_squarefree_part_from_root_multiset():
    rng = random.Random(6)
    F = GF(31)
    for _ in range(40):
        roots = [F.rand(rng) for _ in range(rng.randint(1, 4))]
        mults = [rng.randint(1, 4) for _ in roots]
        f = UniPoly.const(F, "x", F.rand_nonzero(rng))
        for r, m in zip(roots, mults):
            f = f * poly_from_roots(F, "x", [r] * m)
        assert squarefree_part(f) == poly_from_roots(F, "x", sorted(set(roots)))


def test_squarefree_part_char_p_power():
    # f = (x^p - a) = (x - a)^p needs the exponent-gap descent
    F = GF(7)
    x = UniPoly.gen(F, "x")
    f = x ** 7 - UniPoly.const(F, "x", 3)
    assert squarefree_part(f) == x - UniPoly.const(F, "x", 3)
    g = (x ** 7 - UniPoly.const(F, "x", 3)) * (x - UniPoly.const(F, "x", 1))
    assert squarefree_part(g) == poly_from_roots(F, "x", [1, 3])


def test_squarefree_part_qq():
    x = UniPoly.gen(QQ, "x")
    one = UniPoly.const(QQ, "x", Fraction(1))
    f = (x - one) ** 3 * (x + one)
    assert squarefree_part(f) == (x - one) * (x + one)


def test_resultant_split_product_formula():
    # Res(f, g) = lc(f)^deg(g) lc(g)^deg(f) prod (a_i - b_j), the defining formula
    rng = random.Random(7)
    F = GF(103)
    for _ in range(40):
        fa = [F.rand(rng) for _ in range(rng.randint(1, 4))]
        gb = [F.rand(rng) for _ in range(rng.randint(1, 4))]
        lf, lg = F.rand_nonzero(rng), F.rand_nonzero(rng)
        f = poly_from_roots(F, "x", fa, lf)
        g = poly_from_roots(F, "x", gb, lg)
        expect = F.pow(lf, len(gb)) * F.pow(lg, len(fa)) % F.p
        for a in fa:
            for b in gb:
                expect = expect * F.sub(a, b) % F.p
        assert resultant(f, g) == expect
        assert resultant_bareiss(f, g) == expect


def test_resultant_prs_matches_bareiss():
    rng = random.Random(8)
    for dom in (GF(101), QQ):
        for _ in range(30):
            f = rand_poly(dom, "x", rng.randint(1, 6), rng)
            g = rand_poly(dom, "x", rng.randint(1, 6), rng)
            assert resultant(f, g) == resultant_bareiss(f, g)


def test_zz_resultant_kernel_matches_bareiss(monkeypatch):
    # the plain-int subresultant kernel against the Sylvester determinant;
    # a pseudo-remainder whose dividend is the previous divisor is a step
    # inside one sequence, and the sparse cases make some skip degrees
    steps, last = Counter(), [None]
    real = exactalg._zz_prem

    def recording(a, b):
        if a is last[0]:
            steps[len(a) - len(b)] += 1
        last[0] = b
        return real(a, b)

    monkeypatch.setattr(exactalg, "_zz_prem", recording)
    shapes = Counter()
    for f, g in zz_resultant_cases(random.Random(30)):
        got = resultant(f, g)
        assert got == resultant_bareiss(f, g), (f, g)
        shapes["zero"] += got == 0
        shapes["odd swap"] += f.degree < g.degree and f.degree % 2 == g.degree % 2 == 1
        shapes["constant"] += min(f.degree, g.degree) == 0
        shapes["2^64"] += max(map(abs, f.coeffs)).bit_length() > 60
    assert min(shapes.values()) >= 4, shapes
    assert sum(n for delta, n in steps.items() if delta > 1) >= 3, steps


def test_qq_interpolate_matches_unipoly_newton_route():
    # interpolate takes the nodes 0 .. n - 1; the oracle takes any nodes
    rng = random.Random(31)
    for n in (1, 2, 3, 7, 16, 27):
        nodes = set()
        while len(nodes) < n:
            nodes.add(QQ.rand(rng, 40))
        ys = [QQ.rand(rng, 10**6) for _ in range(n)]
        got = interpolate(ys, QQ, "w")
        assert got == newton_interpolate([Fraction(x) for x in range(n)], ys, QQ, "w")
        assert all(type(c) is Fraction for c in got.coeffs)
        assert [got.eval(x) for x in range(n)] == ys
        xs = sorted(nodes)
        assert [newton_interpolate(xs, ys, QQ, "w").eval(x) for x in xs] == ys
    ys = [Fraction(k**3 - 2, 3) for k in range(5)]  # degree 3 through 5 nodes
    assert interpolate(ys, QQ, "w") == UniPoly(QQ, "w", [Fraction(-2, 3), 0, 0, Fraction(1, 3)])


def test_resultant_multiplicative_and_swap():
    rng = random.Random(9)
    F = GF(101)
    for _ in range(20):
        f1 = rand_poly(F, "x", rng.randint(1, 3), rng)
        f2 = rand_poly(F, "x", rng.randint(1, 3), rng)
        g = rand_poly(F, "x", rng.randint(1, 3), rng)
        assert resultant(f1 * f2, g) == F.mul(resultant(f1, g), resultant(f2, g))
        sign = F.one if (f1.degree * g.degree) % 2 == 0 else F.neg(F.one)
        assert resultant(g, f1) == F.mul(sign, resultant(f1, g))


def test_resultant_common_root_vanishes():
    F = GF(31)
    d = poly_from_roots(F, "x", [5])
    f = d * poly_from_roots(F, "x", [2])
    g = d * poly_from_roots(F, "x", [9, 11])
    assert resultant(f, g) == 0


def test_resultant_qq_known_value():
    # Res(x^2 - 1, x - 2) = (2-1)(2+1) = 3 up to the product convention
    x = UniPoly.gen(QQ, "x")
    one = UniPoly.const(QQ, "x", Fraction(1))
    two = UniPoly.const(QQ, "x", Fraction(2))
    assert resultant(x * x - one, x - two) == Fraction(3)
    f = x.scale(Fraction(1, 2)) + one  # x/2 + 1, root -2
    g = x - two
    assert resultant(f, g) == Fraction(-2)  # lc(f)^deg(g) * g(-2)


def test_resultant_bivariate_polyring():
    # Res_x over GF(p)[t] matches specialization at several t
    rng = random.Random(10)
    F = GF(97)
    R = PolyRing(F, "t")
    for _ in range(10):
        fcs = [rand_poly(F, "t", rng.randint(0, 2), rng) for _ in range(4)]
        gcs = [rand_poly(F, "t", rng.randint(0, 2), rng) for _ in range(3)]
        f = UniPoly(R, "x", fcs)
        g = UniPoly(R, "x", gcs)
        if f.degree < 1 or g.degree < 1:
            continue
        r = prs_resultant(f, g)
        for t0 in (0, 1, 5, 12):
            fs = UniPoly(F, "x", [c.eval(t0) for c in fcs])
            gs = UniPoly(F, "x", [c.eval(t0) for c in gcs])
            if fs.degree == f.degree and gs.degree == g.degree:
                want = resultant(fs, gs) if fs.degree >= 1 and gs.degree >= 1 else None
                if want is not None:
                    assert r.eval(t0) == want


def test_resultant_bivariate_over_qq():
    R = PolyRing(QQ, "t")
    t = UniPoly.gen(QQ, "t")
    one = UniPoly.const(QQ, "t", Fraction(1))
    # f = x^2 - t, g = x - t  ->  Res = t^2 - t
    f = UniPoly(R, "x", [-t, UniPoly.zero(QQ, "t"), one])
    g = UniPoly(R, "x", [-t, one])
    assert prs_resultant(f, g) == t * t - t


def test_sylvester_bareiss_formal_degrees():
    # formal-degree resultant of the forms of z^2 (X^2 and Y^2) is nonzero
    F = GF(31)
    f = UniPoly(F, "x", [0, 0, 1])  # X^2 as descending [1,0,0] -> ascending
    g = UniPoly(F, "x", [1])  # Y^2 dehomogenized at formal degree 2
    rows = sylvester_matrix(f, g, 2, 2)
    assert bareiss_det(rows, F) == 1


def test_pow_mod_and_fp_roots():
    rng = random.Random(11)
    F = GF(101)
    x = UniPoly.gen(F, "x")
    f = poly_from_roots(F, "x", [3, 7, 42]) * rand_poly(F, "x", 2, rng)
    known = {3, 7, 42}
    found = set(fp_roots(f, rng))
    assert known <= found
    for r in found:
        assert f.eval(r) == 0
    # x^p mod f evaluates to r^p = r at every root r of f (Fermat)
    g = pow_mod(x, F.p, f)
    for r in known:
        assert g.eval(r) == r


def test_pow_mod_over_gf_p_matches_repeated_multiplication():
    # the GF(p) kernel (left-to-right squaring on ints) against b^e mod m one factor at a time
    rng = random.Random(13)
    for F in (GF(3), GF(101), GF(65537)):
        for _ in range(40):
            m = rand_poly(F, "x", rng.randint(1, 7), rng)
            b = rand_poly(F, "x", rng.randint(0, 10), rng)
            e = rng.choice([0, 1, 2, 3, rng.randrange(4, 300)])
            want = UniPoly.const(F, "x", F.one)
            for _ in range(e):
                want = (want * b).divmod(m)[1]
            assert pow_mod(b, e, m) == want
        x = UniPoly.gen(F, "x")
        assert pow_mod(x, 5, UniPoly.const(F, "x", F.from_int(2))).is_zero
    # only the GF(p) loop is left: QQ and negative exponents are usage errors
    for F, e in ((QQ, 2), (GF(101), -1)):
        x = UniPoly.gen(F, "x")
        with pytest.raises(UsageError, match="pow_mod"):
            pow_mod(x, e, x * x + x)


def test_inverse_mod():
    # the GF(p) int-list kernel against the UniPoly extended Euclid of the
    # oracles, which checks itself against a * inv = 1 and serves QQ too
    rng = random.Random(12)
    for F in (GF(3), GF(101), QQ):
        for _ in range(10):
            m = rand_poly(F, "x", rng.randint(1, 6), rng, monic=True)
            a = rand_poly(F, "x", rng.randint(0, 9), rng)
            one = UniPoly.const(F, "x", F.one)
            if poly_gcd(a, m) != one:
                with pytest.raises(MathError, match="not invertible"):
                    inverse_mod(a, m)
                if F != QQ:
                    with pytest.raises(MathError, match="not invertible"):
                        exactalg._fp_inverse(list(a.coeffs), list(m.coeffs), F.p)
                continue
            inv = inverse_mod(a, m)
            assert inv.degree < m.degree and (a * inv).divmod(m)[1] == one
            if F != QQ:
                assert exactalg._fp_inverse(list(a.coeffs), list(m.coeffs), F.p) == list(inv.coeffs)
    F = GF(101)
    m = poly_from_roots(F, "x", [3, 7])
    a = poly_from_roots(F, "x", [7, 9, 9])
    with pytest.raises(MathError, match="not invertible"):
        exactalg._fp_inverse(list(a.coeffs), list(m.coeffs), 101)
    with pytest.raises(MathError, match="not invertible"):
        exactalg._fp_inverse([], list(m.coeffs), 101)


def test_fp_inverse_matches_extended_euclid():
    # the int-list inverse against the UniPoly extended Euclid over GF(2 .. 1000003),
    # a non-unit (a zero a among them) raising MathError on both routes
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    low = st.lists(st.integers(0, 10**6), min_size=1, max_size=6)

    @hyp.settings(max_examples=200, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from((2, 3, 5, 7, 101, 1000003)), low, st.lists(st.integers(0, 10**6), max_size=9))
    def check(p, low, a):
        F = GF2() if p == 2 else GF(p)
        m, a = [c % p for c in low] + [1], [c % p for c in a]
        try:
            want = list(inverse_mod(UniPoly(F, "x", a), UniPoly(F, "x", m)).coeffs)
        except MathError:
            with pytest.raises(MathError, match="not invertible"):
                exactalg._fp_inverse(a, m, p)
            return
        assert exactalg._fp_inverse(a, m, p) == want

    check()


def test_fp_roots_complete():
    rng = random.Random(12)
    F = GF(31)
    for _ in range(20):
        f = rand_poly(F, "x", rng.randint(1, 6), rng)
        brute = sorted(c for c in range(31) if f.eval(c) == 0)
        assert fp_roots(f, rng) == brute


def test_interpolation_round_trip():
    rng = random.Random(13)
    for dom in (GF(101), QQ):
        f = rand_poly(dom, "x", 5, rng)
        ys = [f.eval(dom.from_int(k)) for k in range(7)]
        assert interpolate(ys, dom, "x") == f


def test_scalar_codecs_round_trip():
    assert scalar_to_str(QQ, Fraction(-7, 2)) == "-7/2"
    assert scalar_from_str(QQ, "-7/2") == Fraction(-7, 2)
    F = GF(101)
    assert scalar_to_str(F, 13) == "13 mod 101"
    assert scalar_from_str(F, "13 mod 101") == 13
    assert scalar_from_str(F, "-7/5") == F.from_rational(Fraction(-7, 5))
    with pytest.raises(UsageError):
        scalar_from_str(F, "3 mod 7")
    with pytest.raises(UsageError):
        scalar_from_str(QQ, "junk")


def test_field_descriptor_round_trip():
    assert field_to_str(QQ) == "QQ"
    assert field_from_str("QQ") == QQ
    assert field_to_str(GF(101)) == "GF 101"
    for s in ("GF 101", "GF:101", "GF(101)"):
        assert field_from_str(s) == GF(101)
    with pytest.raises(UsageError):
        field_from_str("RR")


def test_field_mismatch_rejected():
    f = UniPoly.from_ints(GF(7), "x", [1, 1])
    g = UniPoly.from_ints(GF(11), "x", [1, 1])
    with pytest.raises(UsageError):
        f + g
    with pytest.raises(UsageError):
        poly_gcd(f, g)
