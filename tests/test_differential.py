"""Differential checks of the GF(p) core against independent references.

Buchberger is compared with sympy's Groebner bases mod p, characteristic
polynomials over GF(p) and QQ with a Bareiss determinant of t*I - M and
sympy's DomainMatrix, squarefree parts with
sympy's ``sqf_part``, pseudo-remainders with sympy's ``prem``, and
resultants (over GF(p), QQ, and ZZ through the plain-int subresultant
kernel) with sympy's ``resultant``.  sigma_n
must commute with reduction mod p and be invariant under conjugation.
Skipped without sympy; the package itself never imports it.
"""

import itertools
import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import GF as SympyGF  # noqa: E402
from sympy.polys.domains import QQ as SympyQQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from fractions import Fraction  # noqa: E402

from multspec.dynamics import ProjMap, random_map, sigma_n  # noqa: E402
from multspec.errors import DegenerateMapError  # noqa: E402
from multspec.exactalg import GF, QQ, ZZ, UniPoly, _zz_prem, random_prime, resultant, squarefree_part  # noqa: E402
from multspec.groebner import GREVLEX, MultiPoly, buchberger, quotient_dimension  # noqa: E402
from multspec.linalg import char_poly  # noqa: E402

from groebner_oracles import LEX  # noqa: E402
from matrix_helpers import bareiss_det  # noqa: E402
from poly_oracles import Mobius, PolyRing, conjugate, prem, zz_resultant_cases  # noqa: E402

# ---------------------------------------------------------------------------
# buchberger against sympy.groebner(..., modulus=p)


def _random_system(rng, F, nvars):
    """nvars random polynomials in nvars variables: zero-dimensional for
    almost every draw, and sparse enough that the bases differ in shape."""
    vars_ = ("x", "y", "z")[:nvars]
    gens = []
    for _ in range(nvars):
        d = rng.randint(2, 4 if nvars == 2 else 3)
        monos = [e for e in itertools.product(range(d + 1), repeat=nvars) if sum(e) <= d]
        top = [e for e in monos if sum(e) == d]
        chosen = set(rng.sample(monos, rng.randint(2, len(monos)))) | {rng.choice(top)}
        gens.append(MultiPoly(F, vars_, {e: F.rand_nonzero(rng) for e in chosen}))
    return vars_, gens


def _sympy_basis(vars_, gens, p, order):
    syms = sympy.symbols(vars_)
    exprs = [
        sum(c * sympy.prod(s**k for s, k in zip(syms, e)) for e, c in g.terms.items())
        for g in gens
    ]
    gb = sympy.groebner(exprs, *syms, modulus=p, order=order)
    # sympy prints residues in (-p/2, p/2]; ours are in [0, p)
    return {frozenset((e, int(c) % p) for e, c in g.terms()) for g in gb.polys}


@pytest.mark.parametrize("seed", range(20))
def test_buchberger_matches_sympy_grevlex(seed):
    rng = random.Random(9000 + seed)
    p = (101, 32003)[seed % 2]
    F = GF(p)
    vars_, gens = _random_system(rng, F, 2 + seed % 2)
    gb = buchberger(gens, GREVLEX)
    assert quotient_dimension(gb) is not None
    ours = {frozenset(g.terms.items()) for g in gb.gens}
    assert ours == _sympy_basis(vars_, gens, p, "grevlex")


@pytest.mark.parametrize("seed", range(4))
def test_buchberger_matches_sympy_lex(seed):
    rng = random.Random(9100 + seed)
    F = GF(101)
    vars_, gens = _random_system(rng, F, 2)
    gb = buchberger(gens, LEX)
    ours = {frozenset(g.terms.items()) for g in gb.gens}
    assert ours == _sympy_basis(vars_, gens, 101, "lex")


# ---------------------------------------------------------------------------
# char_poly against Bareiss determinants and sympy


def _bareiss_char_poly(m, F):
    t = UniPoly.gen(F, "t")
    n = len(m)
    rows = [[UniPoly.const(F, "t", F.neg(x)) for x in r] for r in m]
    for i in range(n):
        rows[i][i] = rows[i][i] + t
    return bareiss_det(rows, PolyRing(F, "t"))


def _matrices(rng, p):
    """Dense, sparse and structured matrices, dimensions 1 to 40."""
    rand = lambda: rng.randrange(p)  # noqa: E731
    for n in (1, 2, 3, 5, 8, 13, 21, 40):
        yield "dense", [[rand() for _ in range(n)] for _ in range(n)]
        yield "sparse", [[rand() if rng.random() < 0.15 else 0 for _ in range(n)] for _ in range(n)]
    for n in (4, 9, 40):
        # anti-diagonal: every column's first nonzero sits below the subdiagonal
        anti = [[rand() if j >= n - 1 - i else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            anti[i][n - 1 - i] = rng.randrange(1, p)
        yield "row swap", anti
        # upper triangular: every column is already zero below the subdiagonal
        yield "zero column", [[rand() if j >= i else 0 for j in range(n)] for i in range(n)]
        # block diagonal: the step at the block boundary meets a zero column
        k = n // 2
        yield "blocks", [[rand() if (i < k) == (j < k) else 0 for j in range(n)] for i in range(n)]


def test_char_poly_matches_bareiss_and_sympy():
    rng = random.Random(77)
    for p in (101, 1000003):
        F, K = GF(p), SympyGF(p)
        for kind, m in _matrices(rng, p):
            n = len(m)
            got = char_poly(m, F)
            assert got.degree == n, kind
            # chi(t0) = det(t0 I - M) at a few points, at every size
            for t0 in (0, 1, 2, p // 2, p - 1):
                shifted = [[F.sub(t0 if i == j else 0, x) for j, x in enumerate(r)] for i, r in enumerate(m)]
                assert got.eval(t0) == bareiss_det(shifted, F), (kind, n, t0)
            if n <= 8:
                assert got == _bareiss_char_poly(m, F), (kind, n)
            if n <= 13:
                ref = DomainMatrix([[K(x) for x in r] for r in m], (n, n), K).charpoly()
                assert list(got.coeffs) == [int(c) % p for c in reversed(ref)], (kind, n)


def test_char_poly_over_qq_matches_sympy():
    rng = random.Random(78)
    # nonzero residues map to nonzero fractions, so each kind keeps its zeros
    qq = lambda x: Fraction(x if x % 2 else -x, 1 + x % 5)  # noqa: E731
    kinds = set()
    for kind, m in _matrices(rng, 23):
        n = len(m)
        if n > 9:
            continue
        kinds.add(kind)
        m = [[qq(x) for x in r] for r in m]
        got = char_poly(m, QQ)
        ref = DomainMatrix([[SympyQQ(x.numerator, x.denominator) for x in r] for r in m], (n, n), SympyQQ).charpoly()
        assert list(got.coeffs) == [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(ref)], (kind, n)
        assert all(type(c) is Fraction for c in got.coeffs), (kind, n)
    assert kinds == {"dense", "sparse", "row swap", "zero column", "blocks"}


# ---------------------------------------------------------------------------
# squarefree_part against sympy's sqf_part


def _sympy_sqf_part(f: UniPoly):
    x = sympy.Symbol("x")
    if f.dom == QQ:
        ref = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x, domain="QQ")
        return [Fraction(int(c.p), int(c.q)) for c in reversed(ref.sqf_part().monic().all_coeffs())]
    p = f.dom.p
    ref = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p)
    return [int(c) % p for c in reversed(ref.sqf_part().monic().all_coeffs())]


def _factored(rng, dom, factors, top_mult):
    """Product of random factors of degree 1..3, each to a power 1..top_mult,
    and the powers used."""
    f = UniPoly.const(dom, "x", dom.one)
    mults = [rng.randint(1, top_mult) for _ in range(factors)]
    for m in mults:
        deg = rng.randint(1, 3)
        cs = [dom.from_int(rng.randint(-3, 3)) for _ in range(deg)] + [dom.one]
        f = f * UniPoly(dom, "x", cs) ** m
    return f, mults


def test_squarefree_part_matches_sympy():
    rng = random.Random(88)
    recursive = 0  # small-characteristic cases: degree >= p, a power divisible by p
    for dom in (GF(3), GF(5), GF(10007), QQ):
        for _ in range(12):
            f, mults = _factored(rng, dom, rng.randint(1, 3), 10)
            assert list(squarefree_part(f).coeffs) == _sympy_sqf_part(f), (dom, f)
            p = dom.char
            recursive += bool(p and f.degree >= p and any(m % p == 0 for m in mults))
    assert recursive >= 3
    # (x + 1)^3 (x^2 + 1)^6 (x + 2) over GF(3)
    F = GF(3)
    x, one = UniPoly.gen(F, "x"), UniPoly.const(F, "x", 1)
    f = (x + one) ** 3 * (x * x + one) ** 6 * (x + one + one)
    want = (x + one) * (x * x + one) * (x + one + one)
    assert squarefree_part(f) == want
    assert list(want.coeffs) == _sympy_sqf_part(f)


# ---------------------------------------------------------------------------
# resultants against sympy


def _sympy_poly(f: UniPoly):
    x = sympy.Symbol("x")
    if f.dom == QQ:
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x, domain="QQ")
    if f.dom == ZZ:
        return sympy.Poly(list(reversed(f.coeffs)), x, domain="ZZ")
    return sympy.Poly(list(reversed(f.coeffs)), x, modulus=f.dom.p)


def test_resultant_matches_sympy():
    rng = random.Random(99)
    for dom in (QQ, GF(3), GF(7), GF(1000003)):
        rand = (lambda: QQ.rand(rng, 9)) if dom == QQ else (lambda: dom.rand(rng))  # noqa: E731
        zeros = 0
        for _ in range(25):
            f = UniPoly(dom, "x", [rand() for _ in range(rng.randint(1, 7))] + [dom.one])
            g = UniPoly(dom, "x", [rand() for _ in range(rng.randint(0, 6))] + [rand() or dom.one])
            if rng.random() < 0.3:  # a common factor: the resultant vanishes
                h = UniPoly(dom, "x", [rand(), dom.one])
                f, g = f * h, g * h
            if f.degree < g.degree:
                # sympy 1.14 returns Res(g, f) when deg f < deg g, off by
                # (-1)^(deg f * deg g); the higher degree goes first on both sides
                f, g = g, f
            got = resultant(f, g)
            ref = _sympy_poly(f).resultant(_sympy_poly(g))
            if dom == QQ:
                assert got == Fraction(int(ref.p), int(ref.q)), (f, g)
            else:
                assert got == int(ref) % dom.p, (dom, f, g)
            zeros += dom.is_zero(got)
        assert zeros >= 3


def test_zz_resultant_kernel_matches_sympy():
    # degrees to 25, coefficients to 2^64, skipped degrees, zeros, constants;
    # the higher degree goes first on both sides (see above)
    for f, g in zz_resultant_cases(random.Random(98)):
        if f.degree < g.degree:
            f, g = g, f
        assert resultant(f, g) == int(_sympy_poly(f).resultant(_sympy_poly(g))), (f, g)


def _sympy_prem(f: UniPoly, g: UniPoly) -> UniPoly:
    x = sympy.Symbol("x")
    opts = {"domain": "ZZ"} if f.dom == ZZ else {"modulus": f.dom.char}
    r = sympy.Poly(list(reversed(f.coeffs)) or [0], x, **opts).prem(sympy.Poly(list(reversed(g.coeffs)), x, **opts))
    return UniPoly.from_ints(f.dom, "x", [int(c) for c in reversed(r.all_coeffs())])


def test_prem_matches_sympy():
    rng = random.Random(77)
    for dom in (ZZ, GF(7), GF(1000003)):
        rand = (lambda: rng.randint(-9, 9)) if dom == ZZ else (lambda: dom.rand(rng))  # noqa: E731
        shapes = {"deg f - deg g >= 2": 0, "deg f < deg g": 0, "non-unit lc(g)": 0}
        for _ in range(40):
            f = UniPoly(dom, "x", [rand() for _ in range(rng.randint(0, 9))])
            g = UniPoly(dom, "x", [rand() for _ in range(rng.randint(0, 5))] + [rand() or 2])
            if dom == ZZ and f.degree >= g.degree:  # the plain-int kernel of the resultant and the QQ gcd
                got = UniPoly(ZZ, "x", _zz_prem(f.coeffs, g.coeffs))
            else:
                got = prem(f, g)
            assert got == _sympy_prem(f, g), (dom, f, g)
            shapes["deg f - deg g >= 2"] += f.degree - g.degree >= 2
            shapes["deg f < deg g"] += f.degree < g.degree
            shapes["non-unit lc(g)"] += g.lc not in (dom.one, dom.from_int(-1))
        assert min(shapes.values()) >= 3, (dom, shapes)


# ---------------------------------------------------------------------------
# sigma_n: reduction mod p and Mobius conjugation

# (4, 3) is left out: over QQ its 65 resultants take minutes
_LEVELS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2))
_PRIMES = (3, 5, 7, 11, 13, 101, 1000003)


def test_sigma_commutes_with_reduction_mod_p():
    rng = random.Random(111)
    for d, n in _LEVELS:
        for _ in range(2):
            while True:
                num = [rng.randint(-3, 3) for _ in range(d + 1)]
                den = [rng.randint(-3, 3) for _ in range(d + 1)]
                try:
                    sq = sigma_n(ProjMap(QQ, [Fraction(c) for c in num], [Fraction(c) for c in den]), n)
                    break
                except DegenerateMapError:
                    continue
            good = 0
            for p in _PRIMES:
                F = GF(p)
                try:
                    phi_p = ProjMap(F, [F.from_int(c) for c in num], [F.from_int(c) for c in den])
                except DegenerateMapError:
                    continue  # bad reduction: the forms share a root mod p
                good += 1
                want = [F.from_rational(v) for v in sq.values]
                assert list(sigma_n(phi_p, n).values) == want, (num, den, n, p)
            assert good >= 4, (num, den)


def test_sigma_invariant_under_mobius_conjugation_mod_p():
    rng = random.Random(222)
    for p in (3, 5, 7, 101, random_prime(rng, 30)):
        F = GF(p)
        for d, n in _LEVELS:
            phi = random_map(F, d, rng)
            while True:
                try:
                    m = Mobius(F, F.rand(rng), F.rand(rng), F.rand(rng), F.rand(rng))
                    break
                except DegenerateMapError:
                    continue
            assert sigma_n(conjugate(phi, m), n) == sigma_n(phi, n), (p, d, n)
