"""Polynomial routes that only the tests use.

`PolyRing` makes univariate polynomials a coefficient domain, so that a
resultant or a determinant can carry one free variable.  The two
`*_multiplier_char_poly` functions are the whole-period-polynomial
resultant routes to the multiplier characteristic polynomial,
Res_z(Per_n, w * Den^2 - Num) made monic: one samples w and interpolates
(it needs more than d^n + 1 field elements), the other takes a single
resultant over k[w].  They serve as oracles for
`dynamics.multiplier_char_poly`, which instead splits Per_n into the
dynatomic factors Phi*_m, m | n, takes one polynomial chi*_m per factor
and raises its roots to the power n/m with G_{n/m}.
`resultant_bareiss` is the determinant of the Sylvester matrix, an oracle
for the subresultant `resultant`; `chain_map_from_invariants` builds a
marked cubic by a chain of divisions, one coefficient at a time, an oracle
for the closed-form route `rat3.map_from_invariants`; `tau31_phi_ab` is
sigma_1 of z^3 + az + b in closed form.  `exact_div` is exact polynomial division over any domain.
`inverse_mod` is the UniPoly extended Euclidean algorithm over any field, an
oracle for the GF(p) int-list kernel `exactalg._fp_inverse`;
`mult_char_poly_oracle` is Res_x(f, w - mu) over k[w], an oracle for the
int-list `dynamics._mult_char_poly`; `GF2` lets both run over GF(2).
`prem` and `prs_resultant` are the pseudo-remainder and the subresultant
sequence over any integral domain, the oracles for the plain-int ZZ kernel
of `exactalg` and the resultant over a PolyRing; `zz_resultant_cases` draws
inputs for that kernel.  `Mobius` and `conjugate` are fractional linear
maps and conjugation of a map by them, over its own field;
`repositioned` conjugates a map so that no n-periodic point sits at
infinity, by the first fit of a seeded Mobius sequence, for the resultant
routes and as an oracle for the integer matrix conjugation inside
`dynamics.multiplier_char_poly`.
`newton_interpolate` is interpolation at any nodes built from UniPoly
products, an oracle for the integer QQ loop of `interpolate`.
`companion_power_traces` takes the traces of the powers of h(C), C the
companion matrix of a monic modulus, an oracle for the level-2 power sums
that `polymoduli` reads off the trace formula.
"""

import random

from matrix_helpers import bareiss_det, exact_quotient, mat_mul
from multspec.dynamics import ProjMap, ProjPoint, SigmaVector, iterate
from multspec.errors import DegenerateInputError, DegenerateMapError, FieldMismatchError, MathError
from multspec.exactalg import (
    ZZ,
    Domain,
    PrimeField,
    UniPoly,
    derivative,
    interpolate,
    resultant,
)
from multspec.rat3 import Deg3Invariants, _check_marked_map


def exact_div(f: UniPoly, g: UniPoly) -> UniPoly:
    """f / g over any domain; raises MathError when the division is inexact."""
    if g.is_zero:
        raise MathError("polynomial division by zero")
    q, r = f._divide(g, lambda c: exact_quotient(f.dom, c, g.lc))
    if not r.is_zero:
        raise MathError("inexact polynomial division")
    return q


def inverse_mod(a: UniPoly, mod: UniPoly) -> UniPoly:
    """a^-1 mod `mod` over a field domain, by the extended Euclidean algorithm."""
    r0, r1 = mod, a.divmod(mod)[1]
    t0, t1 = UniPoly.zero(a.dom, a.var), UniPoly.const(a.dom, a.var, a.dom.one)
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise MathError("polynomial is not invertible modulo the given modulus")
    return t0.scale(a.dom.inv(r0.lc))


def sylvester_matrix(f: UniPoly, g: UniPoly, m: int | None = None, n: int | None = None):
    """Sylvester matrix rows for formal degrees m, n (default actual)."""
    m = f.degree if m is None else m
    n = g.degree if n is None else n
    dom = f.dom
    size = m + n
    rows = []
    fc = [f.coeff(m - i) for i in range(m + 1)]  # descending, padded
    gc = [g.coeff(n - i) for i in range(n + 1)]
    for i in range(n):
        rows.append([dom.zero] * i + fc + [dom.zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([dom.zero] * i + gc + [dom.zero] * (size - i - n - 1))
    return rows


def prem(f: UniPoly, g: UniPoly) -> UniPoly:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f mod g.

    f is scaled by that power first, so every division step is exact.
    """
    if g.is_zero:
        raise MathError("pseudo-division by zero")
    if f.degree < g.degree:
        return f
    dom, lb = f.dom, g.lc
    scaled = f.scale(dom.pow(lb, f.degree - g.degree + 1))
    return scaled._divide(g, lambda c: exact_quotient(dom, c, lb))[1]


def prs_resultant(f: UniPoly, g: UniPoly):
    """Subresultant PRS resultant over an integral domain, f and g nonzero."""
    dom = f.dom
    s = 1
    a, b = f, g
    if a.degree < b.degree:
        if (a.degree * b.degree) % 2:
            s = -s
        a, b = b, a
    if b.degree == 0:
        num = dom.pow(b.lc, a.degree)
        return dom.neg(num) if s < 0 else num
    gg = dom.one
    h = dom.one
    while True:
        delta = a.degree - b.degree
        if (a.degree % 2) and (b.degree % 2):
            s = -s
        r = prem(a, b)
        if r.is_zero:
            return dom.zero
        a = b
        div = dom.mul(gg, dom.pow(h, delta))
        b = r.map_coeffs(dom, lambda c: exact_quotient(dom, c, div))
        gg = a.lc
        if delta == 1:
            h = gg
        elif delta > 1:
            h = exact_quotient(dom, dom.pow(gg, delta), dom.pow(h, delta - 1))
        if b.degree == 0:
            e = a.degree
            num = dom.pow(b.lc, e)
            if e > 1:
                num = exact_quotient(dom, num, dom.pow(h, e - 1))
            return dom.neg(num) if s < 0 else num


def _zz_poly(rng, deg, bits, sparse=False):
    """Degree deg over ZZ with coefficients of up to `bits` bits; sparse
    leaves most lower coefficients zero."""
    cs = [0 if sparse and rng.random() < 0.7 else rng.randint(-(1 << bits), 1 << bits) for _ in range(deg)]
    return UniPoly(ZZ, "x", cs + [rng.choice((-1, 1)) * rng.randint(1, 1 << bits)])


def zz_resultant_cases(rng):
    """Pairs (f, g) over ZZ: degrees up to 25 with coefficients up to 2^64,
    deg f < deg g with both degrees odd (the sign of the swap), constants,
    sparse pairs whose remainder sequences skip degrees (delta > 1), and
    pairs with a common factor (resultant 0)."""
    shapes = ((1, 1), (2, 2), (3, 5), (7, 9), (5, 3), (9, 2), (0, 4), (6, 0), (0, 0), (12, 25), (25, 24), (25, 25))
    for df, dg in shapes:
        for bits in (4, 64):
            yield _zz_poly(rng, df, bits), _zz_poly(rng, dg, bits)
    for _ in range(16):
        yield _zz_poly(rng, rng.randint(5, 14), 8, True), _zz_poly(rng, rng.randint(3, 10), 8, True)
    for _ in range(8):
        h = _zz_poly(rng, rng.randint(1, 3), 8)
        yield h * _zz_poly(rng, rng.randint(1, 8), 16), h * _zz_poly(rng, rng.randint(0, 8), 16)


def newton_interpolate(xs, ys, dom: Domain, var: str) -> UniPoly:
    """Divided differences, then Horner in the Newton basis with one UniPoly
    product and sum per node."""
    coef = list(ys)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = dom.div(dom.sub(coef[i], coef[i - 1]), dom.sub(xs[i], xs[i - j]))
    poly = UniPoly.zero(dom, var)
    x = UniPoly.gen(dom, var)
    for i in range(n - 1, -1, -1):
        poly = poly * (x - UniPoly.const(dom, var, xs[i])) + UniPoly.const(dom, var, coef[i])
    return poly


class PolyRing(Domain):
    """Univariate polynomials over `base` acting as a coefficient domain."""

    def __init__(self, base: Domain, var: str):
        self.base = base
        self.var = var
        self.char = base.char
        self.zero = UniPoly.zero(base, var)
        self.one = UniPoly.const(base, var, base.one)

    def is_zero(self, a):
        return a.is_zero

    def exact_div(self, a, b):
        return exact_div(a, b)

    def from_int(self, n):
        return UniPoly.const(self.base, self.var, self.base.from_int(n))

    def __repr__(self):
        return f"{self.base!r}[{self.var}]"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.base == self.base
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("PolyRing", self.base, self.var))


def mult_char_poly_oracle(mu: UniPoly, modulus: UniPoly) -> UniPoly:
    """Char poly in w of multiplication by mu on k[x]/(modulus), modulus monic:
    Res_x(modulus, w - mu) over k[w], the product of w - mu(a) over its roots a."""
    dom = modulus.dom
    ring = PolyRing(dom, "w")

    def lift(f):
        return f.map_coeffs(ring, lambda c: UniPoly.const(dom, "w", c))

    w = UniPoly.const(ring, modulus.var, UniPoly.gen(dom, "w"))
    return prs_resultant(lift(modulus), w - lift(mu))


class GF2(PrimeField):
    """GF(2) as a coefficient domain.  PrimeField refuses p = 2, which the
    package's map routines exclude; its int-list kernels take any prime."""

    def __init__(self):
        self.p = self.char = 2


class Mobius:
    """Invertible fractional linear map z -> (a z + b) / (c z + d)."""

    __slots__ = ("dom", "a", "b", "c", "d")

    def __init__(self, dom: Domain, a, b, c, d):
        if dom.is_zero(dom.sub(dom.mul(a, d), dom.mul(b, c))):
            raise DegenerateMapError("Mobius determinant vanishes")
        self.dom = dom
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, dom):
        return cls(dom, dom.one, dom.zero, dom.zero, dom.one)

    @classmethod
    def from_ints(cls, dom, a, b, c, d):
        return cls(dom, dom.from_int(a), dom.from_int(b), dom.from_int(c), dom.from_int(d))

    def inverse(self):
        dom = self.dom
        return Mobius(dom, self.d, dom.neg(self.b), dom.neg(self.c), self.a)

    def apply(self, p: ProjPoint) -> ProjPoint:
        dom = self.dom
        x = dom.add(dom.mul(self.a, p.x), dom.mul(self.b, p.y))
        y = dom.add(dom.mul(self.c, p.x), dom.mul(self.d, p.y))
        return ProjPoint(dom, x, y)


def conjugate(phi: ProjMap, m: Mobius) -> ProjMap:
    """m^-1 . phi . m over the field of phi: the forms F(a + bY, c + dY), as
    sums of powers, postcomposed with the adjugate of m."""
    if phi.dom != m.dom:
        raise FieldMismatchError("map and Mobius over different fields")
    dom, d = phi.dom, phi.d
    mx, my = UniPoly(dom, "y", [m.a, m.b]), UniPoly(dom, "y", [m.c, m.d])
    zero = UniPoly(dom, "y", [])
    f, g = (sum(((mx ** (d - i) * my**i).scale(c) for i, c in enumerate(cs)), zero) for cs in (phi.num, phi.den))
    num, den = f.scale(m.d) - g.scale(m.b), g.scale(m.a) - f.scale(m.c)
    return ProjMap(dom, *(list(h.coeffs) + [dom.zero] * (d + 1 - len(h.coeffs)) for h in (num, den)), check=False)


_CANDIDATE_SEED = 0x5EEDBA5E


def _candidates(dom):
    """Fixed seeded sequence of 32 Mobius maps, identity first."""
    yield Mobius.identity(dom)
    rng = random.Random(_CANDIDATE_SEED)
    produced = 1
    while produced < 32:
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        try:
            yield Mobius.from_ints(dom, a, b, c, d)
        except DegenerateMapError:
            continue
        produced += 1


def repositioned(phi, n):
    """The first conjugate of phi in the fixed candidate sequence with all
    n-periodic points affine, and its n-th iterate.

    Every map is repositioned, polynomials too, although infinity is a
    fixed point of multiplier 0 of a polynomial that multiplier_char_poly
    keeps in place: its factor w is then checked by a route without that
    shortcut.
    """
    z = UniPoly.gen(phi.dom, "z")
    for m in _candidates(phi.dom):
        psi = conjugate(phi, m)
        it = iterate(psi, n)
        if (it.affine_num() - z * it.affine_den()).degree == phi.d ** n + 1:
            return psi, it
    raise MathError(f"no conjugate kept Per_{n} affine within budget")


def _multiplier_data(phi, n):
    """Per_n, Num and Den^2 of the n-th iterate of `repositioned(phi, n)`.

    The oracles keep the quotient-rule multiplier Num/Den^2, which holds at
    every point, rather than the 1 + Per_n'/Den that multiplier_char_poly
    reads off at the roots of Per_n: a slip in that identity, or in its
    num and den, then shows as a mismatch instead of being repeated here.
    """
    _, it = repositioned(phi, n)
    nn, dd = it.affine_num(), it.affine_den()
    phin = (nn - UniPoly.gen(phi.dom, "z") * dd).monic()
    return phin, derivative(nn) * dd - nn * derivative(dd), dd * dd


def sampled_multiplier_char_poly(phi, n):
    """The resultant at w = 0, ..., d^n + 1, interpolated."""
    dom = phi.dom
    phin, num, den2 = _multiplier_data(phi, n)
    target = phin.degree
    if dom.char and dom.char <= target:
        raise ValueError(f"GF({dom.char}) has too few sample points for degree {target}")
    ys = []
    for k in range(target + 1):
        g = den2.scale(dom.from_int(k)) - num
        ys.append(dom.zero if g.is_zero else resultant(phin, g))
    return interpolate(ys, dom, "w").monic()


def bivariate_multiplier_char_poly(phi, n):
    """One resultant with coefficients in k[w]."""
    dom = phi.dom
    phin, num, den2 = _multiplier_data(phi, n)
    ring = PolyRing(dom, "w")

    def lift(p, shift):
        return p.map_coeffs(ring, lambda c: UniPoly(dom, "w", [dom.zero] * shift + [c]))

    return prs_resultant(lift(phin, 0), lift(den2, 1) - lift(num, 0)).monic()


def resultant_bareiss(f: UniPoly, g: UniPoly):
    """Reference resultant: Bareiss on the Sylvester matrix."""
    if f.is_zero or g.is_zero:
        return f.dom.zero
    return bareiss_det(sylvester_matrix(f, g), f.dom)


def chain_map_from_invariants(inv: Deg3Invariants) -> ProjMap:
    """Degree-3 map fixing 0, 1, infinity, alpha with the given multipliers.

    Coefficient chain with a1 = 1: the multipliers at 0 and infinity give
    a3 = l0 b4 and b2 = linf, the location of the fourth fixed point gives
    b4, the multiplier at 1 gives b3, and phi(1) = 1 gives a2.
    """
    dom = inv.dom
    one, two = dom.one, dom.from_int(2)
    b2 = inv.linf
    b4 = dom.div(dom.mul(inv.alpha, dom.sub(inv.linf, one)), dom.sub(one, inv.l0))
    b3 = dom.div(
        dom.add(
            dom.sub(one, dom.mul(inv.l1, inv.linf)),
            dom.mul(dom.sub(two, dom.add(inv.l0, inv.l1)), b4),
        ),
        dom.sub(inv.l1, one),
    )
    a3 = dom.mul(inv.l0, b4)
    a2 = dom.sub(dom.add(b2, dom.add(b3, b4)), dom.add(one, a3))
    try:
        phi = ProjMap(dom, (one, a2, a3, dom.zero), (dom.zero, b2, b3, b4))
    except DegenerateMapError as e:
        raise DegenerateInputError(f"parameters degenerate the map: {e}") from e
    _check_marked_map(phi, inv)
    return phi


def tau31_phi_ab(dom: Domain, a, b) -> SigmaVector:
    """sigma_1 of z^3 + az + b in closed form."""
    i = dom.from_int
    a2 = dom.mul(a, a)
    b2 = dom.mul(b, b)
    s3 = dom.add(
        dom.sub(dom.mul(i(9), a), dom.mul(i(12), a2)),
        dom.add(dom.mul(i(4), dom.mul(a2, a)), dom.mul(i(27), b2)),
    )
    values = (
        dom.sub(i(6), dom.mul(i(3), a)),
        dom.sub(i(9), dom.mul(i(6), a)),
        s3,
        dom.zero,
    )
    return SigmaVector(dom=dom, d=3, n=1, values=values)


def companion_power_traces(modulus: UniPoly, h: UniPoly, kmax: int):
    """[tr h(C)^k for k = 1..kmax], C the companion matrix of the monic
    modulus over a field: the power sums of h over its roots, with
    multiplicity.  Column i of h(C) holds z^i h mod modulus."""
    F, m = modulus.dom, modulus.degree
    z = UniPoly.gen(F, modulus.var)
    cols, col = [], h.divmod(modulus)[1]
    for _ in range(m):
        cols.append([col.coeff(i) for i in range(m)])
        col = (col * z).divmod(modulus)[1]
    M = [list(row) for row in zip(*cols)]
    out, P = [], M
    for _ in range(kmax):
        tr = F.zero
        for i in range(m):
            tr = F.add(tr, P[i][i])
        out.append(tr)
        P = mat_mul(P, M, F)
    return out
