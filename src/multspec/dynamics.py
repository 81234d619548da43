"""Degree-d self-maps of the projective line and multiplier invariants.

A map is a pair of homogeneous degree-d binary forms (F, G) with nonzero
resultant, stored as full coefficient tuples in descending powers of X
(num[0] is the X^d coefficient).  Construction scales so the first nonzero
coefficient of the concatenated tuple is 1, which makes equality of
coefficient vectors meaningful.  Composition and iteration multiply forms
as int lists of formal length: the tuple of F, descending in X, is the
ascending coefficient list of F(1, Y), reduced mod p over GF(p) and over QQ
cleared to ZZ once.

The n-multiplier spectrum is read off chi_n = prod (w - (phi^n)'(P)) over
the points P of P^1 with phi^n(P) = P.  Per_n = Y Num_n - X Den_n is the
product of the dynatomic forms Phi*_m, m | n, and a root of Phi*_m has
n-multiplier ((phi^m)')^(n/m), so chi_n is the product of G_{n/m}(chi*_m),
G_k(chi) the characteristic polynomial of the k-th power of chi's companion
matrix, whose roots are the k-th powers of those of chi in every
characteristic.  Infinity, a root of Phi*_m of multiplicity k_m, adds
(w - (phi^m)'(infinity))^k_m to chi*_m, read in the chart w = 1/z; the
affine roots x of Phi*_m(z, 1) give the rest.  With phi^m = Num_m / Den_m,
Per_m(x) = 0 is Num_m(x) = x Den_m(x), so mu_m(x) = (phi^m)'(x) =
1 + Per_m'(x) / Den_m(x), Den_m(x) != 0 as the forms are coprime.  Per_m,
Den_m and Phi*_m are ascending int lists: residues over GF(p), where Phi*_m
is monic, and over QQ primitive ZZ polynomials with a positive leading
coefficient, so every dynatomic division is exact on ZZ (Gauss's lemma).
Over GF(p), the affine chi*_m is the characteristic polynomial of
multiplication by mu_m on k[z]/(Phi*_m).  Over QQ, chi*_m = psi^m, psi the
monic cycle polynomial of degree (D + k_m) / m, D = deg Phi*_m(z, 1) (exact
period m points form m-cycles of one multiplier; formal-period points are
limits of them): psi(j) is the rational m-th root of a resultant sample
(`_sampled_char_poly`) at w = 0 .. (D + k_m) / m, signed for even m by the
monic m-th root of chi*_m mod p, for the first prime of a fixed list that
reduces well.  Only psi and chi_n are UniPolys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import (
    DegenerateInputError,
    DegenerateMapError,
    FieldMismatchError,
    InvariantError,
    MathError,
    UsageError,
    first_value,
    spend,
)
from .exactalg import (
    GF,
    Domain,
    QQ,
    UniPoly,
    _fp_divmod,
    _fp_inverse,
    _fp_mulmod,
    _product,
    _stripped,
    _zz_resultant,
    derivative,
    interpolate,
    resultant,
)
from .linalg import char_poly

# ---------------------------------------------------------------------------
# binary forms: F = sum c_i X^(d-i) Y^i is the UniPoly F(1, Y) in "y"


def form_eval(coeffs, dom, x, y):
    """Evaluate sum coeffs[i] X^(d-i) Y^i at (x, y)."""
    d = len(coeffs) - 1
    acc = dom.zero
    xp = [dom.one]
    yp = [dom.one]
    for _ in range(d):
        xp.append(dom.mul(xp[-1], x))
        yp.append(dom.mul(yp[-1], y))
    for i, c in enumerate(coeffs):
        if not dom.is_zero(c):
            acc = dom.add(acc, dom.mul(c, dom.mul(xp[d - i], yp[i])))
    return acc


def _reduced(cs: list, p: int) -> list:
    return [c % p for c in cs] if p else cs


def _form_compose(coeffs, f: list, g: list, p: int) -> list:
    """C(F, G) for the form C with coefficient list `coeffs` and forms F, G of one
    formal degree, as int lists, residues mod p for p > 0."""
    acc, gpow = coeffs[:1], [1]
    for c in coeffs[1:]:
        gpow = _reduced(_product(gpow, g), p)
        acc = _reduced([a + c * b for a, b in zip(_product(acc, f), gpow)], p)
    return acc


def _affine(coeffs, dom, var="z") -> UniPoly:
    return UniPoly(dom, var, list(reversed(coeffs)))


def _forms_share_root(num, den, dom, d) -> bool:
    """Whether the degree-d forms have a common root on P^1.

    They share infinity when both affine parts have degree below d;
    otherwise their resultant is, up to a nonzero factor, Res(f, g).
    """
    f = _affine(num, dom)
    g = _affine(den, dom)
    if f.degree < d and g.degree < d:
        return True
    return dom.is_zero(resultant(f, g))


# ---------------------------------------------------------------------------
# points


class ProjPoint:
    """Point of P^1, normalized to (x, 1) or (1, 0)."""

    __slots__ = ("dom", "x", "y")

    def __init__(self, dom: Domain, x, y):
        if not dom.is_field:
            raise UsageError("points require a field domain")
        if dom.is_zero(x) and dom.is_zero(y):
            raise UsageError("(0 : 0) is not a projective point")
        if not dom.is_zero(y):
            x = dom.div(x, y)
            y = dom.one
        else:
            x = dom.one
        self.dom = dom
        self.x = x
        self.y = y

    @classmethod
    def affine(cls, dom, c):
        return cls(dom, c, dom.one)

    @classmethod
    def infinity(cls, dom):
        return cls(dom, dom.one, dom.zero)

    @property
    def is_infinity(self):
        return self.dom.is_zero(self.y)

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint)
            and self.dom == other.dom
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return "inf" if self.is_infinity else f"{self.x}"


# ---------------------------------------------------------------------------
# rational self-maps


class ProjMap:
    """Morphism of P^1 of degree d >= 2 given by coprime degree-d forms."""

    __slots__ = ("dom", "d", "num", "den")

    def __init__(self, dom: Domain, num, den, check: bool = True):
        num = list(num)
        den = list(den)
        if len(num) != len(den) or len(num) < 3:
            raise UsageError("coefficient tuples must share length d+1 >= 3")
        d = len(num) - 1
        if not dom.is_field:
            raise UsageError("maps require a field domain")
        first = None
        for c in num + den:
            if not dom.is_zero(c):
                first = c
                break
        if first is None:
            raise DegenerateMapError("zero map")
        inv = dom.inv(first)
        num = [dom.mul(c, inv) for c in num]
        den = [dom.mul(c, inv) for c in den]
        if check and _forms_share_root(num, den, dom, d):
            raise DegenerateMapError("forms share a root: not a degree-d morphism")
        self.dom = dom
        self.d = d
        self.num = tuple(num)
        self.den = tuple(den)

    @classmethod
    def from_affine(cls, num: UniPoly, den: UniPoly, d: int | None = None):
        if num.dom != den.dom or num.var != den.var:
            raise FieldMismatchError("numerator and denominator domains differ")
        if num.is_zero or den.is_zero:
            raise DegenerateMapError("zero numerator or denominator")
        dom = num.dom
        dd = max(num.degree, den.degree)
        if d is not None:
            if d < dd:
                raise UsageError("declared degree below actual degree")
            dd = d
        nc = [num.coeff(dd - i) for i in range(dd + 1)]
        dc = [den.coeff(dd - i) for i in range(dd + 1)]
        return cls(dom, nc, dc)

    @classmethod
    def from_polynomial(cls, p: UniPoly):
        dom = p.dom
        d = p.degree
        den = [dom.zero] * d + [dom.one]
        return cls(dom, [p.coeff(d - i) for i in range(d + 1)], den)

    def affine_num(self, var="z") -> UniPoly:
        return _affine(self.num, self.dom, var)

    def affine_den(self, var="z") -> UniPoly:
        return _affine(self.den, self.dom, var)

    @property
    def is_polynomial(self):
        return all(self.dom.is_zero(c) for c in self.den[:-1])

    def apply(self, p: ProjPoint) -> ProjPoint:
        dom = self.dom
        x = form_eval(self.num, dom, p.x, p.y)
        y = form_eval(self.den, dom, p.x, p.y)
        return ProjPoint(dom, x, y)

    def __eq__(self, other):
        return (
            isinstance(other, ProjMap)
            and self.dom == other.dom
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"({self.affine_num()}) / ({self.affine_den()})"


def conjugate(f: list, g: list) -> tuple:
    """The map of `_chain` forms (f, g) in the chart w = 1/z: G(Y, X) / F(Y, X)."""
    return g[::-1], f[::-1]


def _chain(phi: ProjMap, n: int) -> list:
    """Forms (num, den) of phi^1 .. phi^n from one composition loop, ascending
    int lists in y of formal length d^k + 1, over QQ on ZZ, cleared once by the
    lcm of the denominators, as a common scalar does not change phi^k.  Spends
    d^k work units on link k, all up front."""
    spend(sum(phi.d**k for k in range(1, n + 1)), "iterate")
    p, link = phi.dom.char, (list(phi.num), list(phi.den))
    if not p:
        k = lcm(*(c.denominator for c in phi.num + phi.den))
        link = tuple([c.numerator * (k // c.denominator) for c in h] for h in link)
    links, (f, g) = [link], link
    for _ in range(n - 1):
        links.append((_form_compose(f, *links[-1], p), _form_compose(g, *links[-1], p)))
    return links


def _period_form(link) -> tuple:
    """Per = Num - z Den and Den in z from a `_chain` link, as ascending int lists
    with a nonzero top coefficient; over GF(p) those of Per lie in (-p, p), so one
    is 0 mod p only if it is 0."""
    num, den = (h[::-1] for h in link)
    return _stripped([a - b for a, b in zip(num + [0], [0] + den)]), _stripped(den)


def iterate(phi: ProjMap, n: int) -> ProjMap:
    """phi^n as a degree d^n morphism (composition keeps forms coprime)."""
    if n < 1:
        raise UsageError("iteration count must be >= 1")
    num, den = (map(phi.dom.from_int, h) for h in _chain(phi, n)[-1])
    return ProjMap(phi.dom, num, den, check=False)


def period_polynomial(phi: ProjMap, n: int) -> UniPoly:
    """Monic vanishing polynomial of the affine points with phi^n(z) = z.

    Degree is d^n + 1 exactly when no n-periodic point sits at infinity;
    otherwise the degree drops (to d^n for a polynomial).
    """
    psi = iterate(phi, n) if n > 1 else phi
    z = UniPoly.gen(phi.dom, "z")
    v = psi.affine_num() - z * psi.affine_den()
    if v.is_zero:
        raise MathError("degenerate period polynomial")
    return v.monic()


def _dynatomic_quotient(f: list, g: list, p: int, j: int, m: int) -> list:
    """f / g for a factor f of Per_m and g = Phi*_j, ascending int lists, monic over
    GF(p), or (p = 0) primitive over ZZ with positive leading coefficients: then the
    quotient is too, and by Gauss's lemma every step is exact if g divides f over QQ."""
    q, r, rem = [], list(f), 0
    for i in range(len(f) - len(g), -1, -1):
        c, rem = divmod(r.pop() % p if p else r.pop(), g[-1])
        if rem:
            break
        q.insert(0, c)
        r[i:] = [x - c * y for x, y in zip(r[i:], g)]
    if rem or any(x % p if p else x for x in r):
        raise InvariantError(f"Phi*_{j} does not divide Per_{m}")
    return q


def _mult_char_poly(mu: list, modulus: list, dom: Domain, shift: int = 0) -> UniPoly:
    """Char poly in w of multiplication by x^shift mu on k[x]/(modulus), on
    ascending lists of field values, modulus monic and len(mu) <= deg modulus;
    native operators, ``% p`` over GF(p)."""
    p, size = dom.char, len(modulus) - 1
    cols = [list(mu) + [dom.zero] * (size - len(mu))]  # column i is x^i mu
    for _ in range(shift + size - 1):  # x * col: move up, and take top * modulus off
        top, col = cols[-1][-1], [dom.zero] + cols[-1][:-1]
        col = [a - top * b for a, b in zip(col, modulus)]
        cols.append([c % p for c in col] if p else col)
    return char_poly([list(row) for row in zip(*cols[shift:])], dom, "w")


_SIGN_PRIMES = (1000003, 1000033, 1000037)  # fixed, so no output depends on a seed


def _rational_root(q: Fraction, m: int) -> Fraction:
    """The real m-th root of q; InvariantError unless it is rational."""
    root = []
    for k in (abs(q.numerator), q.denominator):
        x = 1 << -(-k.bit_length() // m)  # x >= k^(1/m): Newton descends to the floor
        while x and (y := ((m - 1) * x + k // x ** (m - 1)) // m) < x:
            x = y
        root.append(x)
    r = Fraction(*root)
    if r**m != abs(q) or (q < 0 and m % 2 == 0):
        raise InvariantError(f"a sample of chi*_{m} is not psi^{m} for a rational psi: {q}")
    return -r if q < 0 else r


def _monic_root(chi: UniPoly, m: int) -> UniPoly:
    """Monic psi with psi^m = chi over GF(p), p > deg psi, p not dividing m:
    g = (t^D chi(1/t))^(1/m) solves m f g' = f' g term by term."""
    p, f, g = chi.dom.p, chi.coeffs[::-1], [1]
    for k in range(1, chi.degree // m + 1):
        s = sum((i - m * (k - i)) * f[i] * g[k - i] for i in range(1, k + 1))
        g.append(s * pow(k * m, -1, p) % p)
    return UniPoly(chi.dom, chi.var, g[::-1])


def _fp_char_poly(phis: list, num: list, den: list, F: Domain) -> UniPoly:
    """chi*_m over F = GF(p): mu_m = num / den in F[z]/(Phi*_m), phis monic and den =
    Den_m a unit there, on ascending int lists."""
    mu = _fp_mulmod(_fp_divmod(num, phis, F.p)[1], _fp_inverse(den, phis, F.p), phis[:-1], F.p)
    return _mult_char_poly(mu, phis, F)


def _root_signs(phis, num, den, m, c, roots, lam, k):
    """roots[j] signed as psi(j) mod p, psi^m = chi*_m as in `_sampled_char_poly`; a
    prime dividing a * c * ld (a = lc(phis), a denominator of the monic Phi*_m, or a
    bad reduction; lam = ln / ld) or a nonzero root's numerator or denominator is
    passed over."""
    for p in _SIGN_PRIMES:
        if phis[-1] * c * lam[1] % p == 0 or any(r and r.numerator * r.denominator % p == 0 for r in roots):
            continue
        F, inv = GF(p), pow(phis[-1], -1, p)  # phis / a is monic; num / a over den / a is mu_m
        chi = _fp_char_poly(*([x * inv % p for x in g] for g in (phis, num, den)), F)
        psi = _monic_root(chi * UniPoly.from_ints(F, "w", [-lam[0] * pow(lam[1], -1, p), 1]) ** k, m)
        signed = []
        for j, r in enumerate(roots):
            v, rp = psi.eval(j), F.from_rational(r)
            if v not in (rp, F.neg(rp)):
                raise InvariantError(f"psi*_{m}({j}) = +-{r} does not reduce to psi*_{m} mod {p}")
            signed.append(r if v == rp else -r)
        return signed
    raise MathError(f"no prime of {_SIGN_PRIMES} reduces chi*_{m} well")


def _sampled_char_poly(phis: list, num: list, den: list, m: int, lam: tuple, k: int) -> UniPoly:
    """chi*_m = psi^m over QQ; phis = Phi*_m(z, 1) primitive of degree D with leading
    coefficient a > 0, num = Per_m' + Den_m and den = Den_m ascending int lists,
    and infinity a root of Phi*_m of multiplicity k and multiplier lam = ln / ld.

    a^(top - deg g) Res(phis, g) is a^top Res(phis / a, g) = a^top prod g(x) over
    the roots x of phis, so the sample g = j den - num is R(j) = a^top prod Den(x)
    (j - mu_m(x)), and c, that of g = den, is a^top prod Den(x), the w^D
    coefficient of R.  So chi*_m = R(w) (w - lam)^k / c is monic of degree D + k =
    m e, and psi(j) is its m-th root at j = 0 .. e (at m = 1 the value itself):
    the one Fraction R(j) (j ld - ln)^k / (c ld^k), 0 with no resultant at j = lam."""
    a, size = phis[-1], len(phis) - 1
    (ln, ld), top, e = lam, max(len(num), len(den)) - 1, (size + k) // m
    fs = [(j * ld - ln) ** k for j in range(e + 1)]
    gs = [_stripped([j * y - x for x, y in zip_longest(num, den, fillvalue=0)]) for j, f in enumerate(fs) if f] + [den]
    spend(len(gs) * size, "resultant sample")  # deg phis a sample, all before the first

    def res(g):  # a^(top - deg g) Res(phis, g) at actual degrees; a^top when D = 0
        if not size:
            return a**top
        return (_zz_resultant(phis, g) if len(g) > 1 else g[0] ** size if g else 0) * a ** (top + 1 - len(g))

    *ys, c = map(res, gs)
    if not c:
        raise InvariantError(f"a root of Phi*_{m} is a pole of phi^{m}")
    ys = iter(ys)
    roots = [Fraction(next(ys) * f if f else 0, c * ld**k) for f in fs]
    roots = roots if m == 1 else [_rational_root(q, m) for q in roots]
    if m % 2 == 0:
        roots = _root_signs(phis, num, den, m, c, roots, lam, k)
    psi = interpolate(roots, QQ, "w")
    if psi.degree != e or psi.lc != 1:  # fails for one wrong sample, or a wrong c
        raise InvariantError(f"psi*_{m} through the samples is not monic of degree {e}")
    return psi**m


def multiplier_char_poly(phi: ProjMap, n: int) -> UniPoly:
    """Monic char poly of the multiplier at the d^n + 1 points of period n.

    prod over P in P^1 with phi^n(P) = P of (w - (phi^n)'(P)), with the
    multiplicity of P as a root of Per_n(X, Y) = Y Num_n - X Den_n: the product
    of G_{n/m}(chi*_m) over the dynatomic forms Phi*_m, m | n, off one `_chain`.

    Per_m(X, Y) = prod_{j | m} Phi*_j, so Phi*_m has degree nu_m = d^m + 1 -
    sum_{j | m, j < m} nu_j.  Setting Y = 1 is a ring map, so the affine
    Phi*_m(z, 1) divide exactly, and a form loses one degree in z per factor Y:
    infinity is a root of Phi*_m | Per_m of multiplicity k_m = nu_m - deg
    Phi*_m(z, 1), so k_m < 0, or k_m > 0 where phi^m moves infinity, is an
    InvariantError.  In the chart w = Y/X, phi^m is the `conjugate`
    Den_m(1, w) / Num_m(1, w), so lambda_m = (phi^m)'(infinity) is mu_m at its
    root w = 0 of Per.  chi*_m is the affine chi*_m times (w - lambda_m)^k_m,
    and G_{n/m} takes (w - lambda)^k to (w - lambda^(n/m))^k: a polynomial has
    k_1 = 1, lambda_1 = 0.
    """
    if n < 1:
        raise UsageError("period must be >= 1")
    dom, p, chain = phi.dom, phi.dom.char, _chain(phi, n)
    stars, nus, r = {}, {}, None
    for m in (m for m in range(1, n + 1) if n % m == 0):
        per, dd = _period_form(chain[m - 1])
        # monic over GF(p), primitive with a positive leading coefficient over ZZ
        u = pow(per[-1], -1, p) if p else gcd(*per) if per[-1] > 0 else -gcd(*per)
        phis = [c * u % p for c in per] if p else [c // u for c in per]
        divisors = [j for j in stars if m % j == 0]
        for j in divisors:
            phis = _dynatomic_quotient(phis, stars[j], p, j, m)
        stars[m], nus[m] = phis, phi.d**m + 1 - sum(nus[j] for j in divisors)
        k, lam = nus[m] - len(phis) + 1, (0, 1)  # k: the multiplicity of infinity in Phi*_m
        if k:  # lam = mu_m at w = 0, as the int pair (numerator, denominator > 0) in lowest terms
            wper, wden = _period_form(conjugate(*chain[m - 1]))
            if k < 0 or wper[0]:
                raise InvariantError(f"infinity is not a root of Phi*_{m} of multiplicity {k}")
            lam = Fraction(wper[1] + wden[0], wden[0]).as_integer_ratio()
        # mu_m = num / dd at every root of Per_m, num = Per_m' + Den_m
        num = [i * c + e for i, (c, e) in enumerate(zip_longest(per, [0] + dd, fillvalue=0))][1:]
        num = _stripped([c % p for c in num] if p else num)
        chi = _fp_char_poly(phis, num, dd, dom) if p else _sampled_char_poly(phis, num, dd, m, lam, k)
        if m < n:  # G_{n/m}
            chi = _mult_char_poly([dom.one], list(chi.coeffs), dom, n // m)
        if p and k:  # G_{n/m}((w - lam)^k)
            chi = chi * UniPoly.from_ints(dom, "w", [-pow(lam[0] * pow(lam[1], -1, p), n // m, p), 1]) ** k
        r = chi if r is None else r * chi
    if r.degree != phi.d ** n + 1:
        raise InvariantError("multiplier characteristic polynomial has wrong degree")
    return r


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SigmaVector:
    """Elementary symmetric functions of the n-multiplier spectrum."""

    dom: Domain
    d: int
    n: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.d ** self.n + 1:
            raise UsageError("sigma vector has wrong length")


@dataclass(frozen=True)
class TauImage:
    """Sigma vectors for all levels 1..n."""

    dom: Domain
    d: int
    n: int
    sigmas: tuple


@dataclass(frozen=True)
class RelationResidual:
    theorem: object
    corollary: object | None = None


def sigma_n(phi: ProjMap, n: int) -> SigmaVector:
    """sigma_{n,i} = i-th elementary symmetric function of the n-multipliers."""
    char = multiplier_char_poly(phi, n)
    dom = phi.dom
    target = char.degree
    sign = dom.one
    vals = []
    for i in range(1, target + 1):
        sign = dom.neg(sign)
        vals.append(dom.mul(sign, char.coeff(target - i)))
    return SigmaVector(dom=dom, d=phi.d, n=n, values=tuple(vals))


def tau(phi: ProjMap, n: int) -> TauImage:
    if n < 1:
        raise UsageError("period must be >= 1")
    return TauImage(
        dom=phi.dom, d=phi.d, n=n, sigmas=tuple(sigma_n(phi, k) for k in range(1, n + 1))
    )


def multiplier_at_point(phi: ProjMap, p: ProjPoint, n: int):
    """(phi^n)'(p) for a point of period dividing n, as a scalar: the chain rule
    along the orbit, each point read in its own chart, z = X/Y, or w = Y/X at
    infinity.  A step is (A' B - A B') / B^2 with (A, B) = (num, den) in the
    chart of the point, swapped when the next point is infinity."""
    if phi.dom != p.dom:
        raise FieldMismatchError("point and map over different fields")
    dom = phi.dom
    affine = phi.affine_num(), phi.affine_den()
    at_infinity = UniPoly(dom, "y", phi.num), UniPoly(dom, "y", phi.den)  # F(1, Y), G(1, Y)
    acc, q = dom.one, p
    for _ in range(n):
        r = phi.apply(q)
        (a, b), s = (at_infinity, dom.zero) if q.is_infinity else (affine, q.x)
        if r.is_infinity:
            a, b = b, a
        bs = b.eval(s)
        step = dom.sub(dom.mul(derivative(a).eval(s), bs), dom.mul(a.eval(s), derivative(b).eval(s)))
        acc, q = dom.mul(acc, dom.div(step, dom.mul(bs, bs))), r
    if q != p:
        raise MathError("point is not periodic of period dividing n")
    return acc


def sigma1_relation_residual(sv: SigmaVector, d: int, is_polynomial: bool = False):
    """Fixed-point relation residual(s); zero for every degree-d map.

    The d+1 fixed-point multipliers satisfy sum 1/(1 - lambda) = 1 away from
    lambda = 1, equivalently P'(1) = P(1) for P(t) = prod (t - lambda_i),
    which expands to the polynomial identity evaluated here (valid for all
    maps).  With e_k = sigma_{1,k}:

        sum_{k=0}^{d} (-1)^k (d - k) e_k + (-1)^(d+2) e_{d+1} = 0

    For polynomial maps e_{d+1} = 0 and the truncated sum vanishes too.
    """
    if sv.n != 1:
        raise UsageError("relation applies to level-1 sigma vectors")
    if sv.d != d or len(sv.values) != d + 2 - 1:
        raise UsageError("sigma vector does not match the stated degree")
    dom = sv.dom
    e = (dom.one,) + sv.values  # e[0] = 1
    acc = dom.zero
    sign = dom.one
    for k in range(d + 1):
        acc = dom.add(acc, dom.mul(sign, dom.mul(dom.from_int(d - k), e[k])))
        sign = dom.neg(sign)
    # sign now equals (-1)^(d+1); the last term carries (-1)^(d+2)
    theorem = dom.add(acc, dom.mul(dom.neg(sign), e[d + 1]))
    corollary = acc if is_polynomial else None
    return RelationResidual(theorem=theorem, corollary=corollary)


def fixed_point_index_sum(dom: Domain, lambdas):
    """sum 1/(1 - lambda) over the given fixed-point multipliers.

    By the holomorphic index formula (Milnor, Dynamics in One Complex
    Variable, section 12) the sum over all d+1 fixed points of a degree-d
    map is 1; with infinity's multiplier 0, the affine multipliers of a
    polynomial sum to 0.
    """
    acc = dom.zero
    for lam in lambdas:
        e = dom.sub(dom.one, lam)
        if dom.is_zero(e):
            raise DegenerateInputError("multiplier 1 breaks the index sum")
        acc = dom.add(acc, dom.inv(e))
    return acc


def forced_multiplier(dom: Domain, lambdas):
    """The last fixed-point multiplier, forced by the index formula given the others."""
    rest = dom.sub(dom.one, fixed_point_index_sum(dom, lambdas))
    if dom.is_zero(rest):
        raise DegenerateInputError("index sum is already 1: the last multiplier sits at infinity")
    return dom.sub(dom.one, dom.inv(rest))


def distinct_multipliers(dom: Domain, k: int, rng):
    """k distinct random multipliers, none of them 1."""
    out = []

    def draw():
        c = dom.rand(rng)
        if c == dom.one or c in out:
            raise DegenerateInputError("multiplier 1 or a repeat; draw again")
        return c

    for _ in range(k):
        out.append(first_value(draw, 100, "new multiplier"))
    return out


# ---------------------------------------------------------------------------
# random map generation (experiments and tests)


def random_map(dom: Domain, d: int, rng, polynomial: bool = False, height: int = 20) -> ProjMap:
    """Random degree-d morphism; rejection sampling on the resultant."""
    if d < 2:
        raise UsageError("degree must be >= 2")
    draw = (lambda: QQ.rand(rng, height)) if dom == QQ else (lambda: dom.rand(rng))

    def one_map():
        num = [draw() for _ in range(d + 1)]
        if polynomial:
            if dom.is_zero(num[0]):
                num[0] = dom.one
            return ProjMap(dom, num, [dom.zero] * d + [dom.one])
        return ProjMap(dom, num, [draw() for _ in range(d + 1)])

    return first_value(one_map, 200, "nondegenerate map")
