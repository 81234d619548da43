"""Degree-3 rational maps with marked fixed points 0, 1, infinity, alpha.

Moving three fixed points to 0, 1, infinity leaves
phi(z) = (z^3 + a2 z^2 + a3 z) / (b2 z^2 + b3 z + b4), and the multipliers
at the marked points together with the fourth fixed point alpha determine
every coefficient, in one closed form (closed_form_coefficients).  The
multiplier at alpha is forced by the index formula
(dynamics.forced_multiplier), so it is always derived, never chosen.

The level-2 fiber system couples alpha with a 2-periodic point beta:
phi^2(beta) = beta and (phi^2)'(beta) = lambda_beta, cleared of
denominators and homogenized in (alpha : beta : z).  Counting its points
(distinct, degenerate, simple) at agreeing random specializations measures
the fiber degree.  Every count is read off the resultant R of the two
forms after one random projective change of coordinates, certified
generic: the centre lies on neither curve, no point lies on Z = 0, and no
line through the centre holds a degenerate point and another point.  Then
the roots of R are the projected intersection points with their
intersection multiplicities, so the count with multiplicity (Bezout, 144)
is the measured deg R, and a ledger over the six degenerate points proves
the other points simple.  Off the curves, the centre makes the Y^9
coefficient c of h1 a nonzero constant, a unit, so h2 = q h1 + r with
deg_Y r < 9 is computed once, and as Res(f, g) = lc(f)^(deg g - deg r)
Res(f, r) for r = g mod f, each of the 146 samples of R is
R(x) = c^(16 - deg r(x)) Res_Y(h1(x), r(x)): 0 where r(x) = 0, c^16 r0^9
where r(x) is a constant r0.  With R = prod (X - x_P)^m_P S over the
degenerate points P and S(x_P) != 0, distinct = #{m_P > 0} + deg sf(S) and
simple = (simple roots of S) + #{m_P = 1}.  A draw takes one sampled
resultant unless a check fails: a non-generic projection, or a first ledger
failure (two simple points on one line look like a tangency), is drawn again
(errors.first_value); a failed theorem-level check raises InvariantError
and is never retried.

Reconstruction from (fixed points, multipliers) solves the Vandermonde
system (1 - lambda_i) q(z_i) = p'(z_i) for the denominator of z - p/q,
then validates the result through the dynamics pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul

from .dynamics import ProjMap, ProjPoint, distinct_multipliers, forced_multiplier, multiplier_at_point
from .errors import (
    DegenerateInputError,
    DegenerateMapError,
    InvariantError,
    MathError,
    UsageError,
    agreeing_draws,
    first_value,
    spend,
)
from .exactalg import (
    GF,
    Domain,
    PrimeField,
    UniPoly,
    _fp_resultant,
    _stripped,
    derivative,
    interpolate,
    poly_gcd,
    random_prime,
)
from .groebner import MultiPoly
from .linalg import solve_linear

# ---------------------------------------------------------------------------
# invariants of a marked degree-3 map


@dataclass(frozen=True)
class Deg3Invariants:
    """Marked data (l0, l1, linf, alpha)."""

    dom: Domain
    l0: object
    l1: object
    linf: object
    alpha: object

    def __post_init__(self):
        dom = self.dom
        for lam in (self.l0, self.l1, self.linf):
            if lam == dom.one:
                raise DegenerateInputError("marked multipliers must differ from 1")
        if self.alpha == dom.zero or self.alpha == dom.one:
            raise DegenerateInputError("alpha collides with a marked fixed point")

    @property
    def lalpha(self):
        return forced_multiplier(self.dom, (self.l0, self.l1, self.linf))


def _check_marked_map(phi: ProjMap, inv: Deg3Invariants):
    dom = inv.dom
    marked = [
        (ProjPoint.affine(dom, dom.zero), inv.l0),
        (ProjPoint.affine(dom, dom.one), inv.l1),
        (ProjPoint.infinity(dom), inv.linf),
        (ProjPoint.affine(dom, inv.alpha), inv.lalpha),
    ]
    for pt, lam in marked:
        if phi.apply(pt) != pt:
            raise MathError(f"construction lost the fixed point {pt}")
        if multiplier_at_point(phi, pt, 1) != lam:
            raise MathError(f"construction bent the multiplier at {pt}")


def map_from_invariants(inv: Deg3Invariants) -> ProjMap:
    """Degree-3 map fixing 0, 1, infinity, alpha with the given multipliers."""
    try:
        phi = ProjMap(inv.dom, *closed_form_coefficients(inv.dom, inv.l0, inv.l1, inv.linf, inv.alpha))
    except DegenerateMapError as e:
        raise DegenerateInputError(f"parameters degenerate the map: {e}") from e
    _check_marked_map(phi, inv)
    return phi


def closed_form_coefficients(dom: Domain, l0, l1, linf, alpha):
    """Division-free normal form coefficients (num, den), descending.

    Normalized to a1 = 1, the multipliers at 0 and infinity give a3 = l0 b4
    and b2 = linf, the location of the fourth fixed point gives b4, the
    multiplier at 1 gives b3, and phi(1) = 1 gives a2.  Scaling that chain
    by (l1 - 1)(1 - l0) clears every denominator.
    """
    add, sub, mul, neg = dom.add, dom.sub, dom.mul, dom.neg
    one, two = dom.one, dom.from_int(2)
    al1 = mul(alpha, l1)
    c3 = add(mul(sub(one, l1), l0), sub(l1, one))
    c2 = add(
        mul(add(mul(sub(one, al1), l0), sub(alpha, one)), linf),
        add(mul(sub(mul(add(alpha, one), l1), two), l0), sub(sub(two, alpha), l1)),
    )
    c1 = add(
        mul(sub(al1, alpha), mul(l0, linf)),
        mul(sub(alpha, al1), l0),
    )
    d2 = mul(c3, linf)
    d1 = add(
        mul(add(mul(sub(l1, alpha), l0), add(mul(neg(add(alpha, one)), l1), mul(two, alpha))), linf),
        add(mul(sub(alpha, one), l0), add(al1, sub(one, mul(two, alpha)))),
    )
    d0 = add(mul(sub(al1, alpha), linf), sub(alpha, al1))
    return (c3, c2, c1, dom.zero), (dom.zero, d2, d1, d0)


# ---------------------------------------------------------------------------
# the level-2 fiber system in (alpha, beta)


@dataclass(frozen=True)
class Tau32FiberSystem:
    dom: Domain
    lambdas: tuple
    vars: tuple
    gens: tuple
    hgens: tuple


def build_tau32_system(dom: Domain, l0, l1, linf, lbeta) -> Tau32FiberSystem:
    """Cleared equations phi^2(beta) = beta and (phi^2)'(beta) = lbeta.

    The map's coefficients, polynomial in alpha through the closed normal
    form, are substituted first; both generators live in dom[alpha, beta]
    and are also returned homogenized in (alpha : beta : z).
    """
    for lam in (l0, l1, linf, lbeta):
        if lam == dom.one:
            raise DegenerateInputError("multiplier 1 is outside the generic regime")
    vars_ = ("alpha", "beta")

    def lift(scalar_fn):
        # closed-form coefficient as a polynomial in alpha: evaluate the
        # scalar formula at alpha = the generator, via linearity in alpha
        c0 = scalar_fn(dom.zero)
        c1 = dom.sub(scalar_fn(dom.one), c0)
        t = {}
        if not dom.is_zero(c0):
            t[(0, 0)] = c0
        if not dom.is_zero(c1):
            t[(1, 0)] = c1
        return MultiPoly(dom, vars_, t)

    def coeffs_at(a):
        return closed_form_coefficients(dom, l0, l1, linf, a)

    n3, n2, n1 = (lift(lambda a, i=i: coeffs_at(a)[0][i]) for i in range(3))
    e2, e1, e0 = (lift(lambda a, i=i: coeffs_at(a)[1][i]) for i in range(1, 4))
    B = MultiPoly.gen(dom, vars_, "beta")
    N = ((n3 * B + n2) * B + n1) * B
    D = (e2 * B + e1) * B + e0
    # second iterate as forms: num and den coefficients applied to (N, D)
    N2 = ((n3 * N + n2 * D) * N + n1 * D * D) * N
    D2 = ((e2 * N + e1 * D) * N + e0 * D * D) * D
    gen1 = N2 - B * D2
    dN2 = N2.derivative("beta")
    dD2 = D2.derivative("beta")
    gen2 = dN2 * D2 - N2 * dD2 - MultiPoly.const(dom, vars_, lbeta) * D2 * D2
    if gen1.is_zero or gen2.is_zero:
        raise DegenerateInputError("parameters collapse the fiber system")
    hgens = (gen1.homogenize("z"), gen2.homogenize("z"))
    return Tau32FiberSystem(
        dom=dom, lambdas=(l0, l1, linf, lbeta), vars=vars_, gens=(gen1, gen2), hgens=hgens
    )


def degenerate_points(dom: Domain, l0, l1, linf):
    """Six (alpha, beta, z) points that solve the system for every lbeta.

    They encode alpha or beta falling on {0, 1, infinity}, where the fixed
    points stop being distinct, so they never count toward the degree.
    """
    one, zero, two = dom.one, dom.zero, dom.from_int(2)
    for lam in (l0, l1, linf):
        if lam == one:
            raise DegenerateInputError("multiplier 1 at a marked fixed point")
    p4 = dom.div(dom.sub(two, dom.add(l1, linf)), dom.sub(one, l1))
    p5 = dom.div(dom.sub(linf, one), dom.sub(one, l0))
    num6 = dom.add(dom.sub(dom.mul(dom.mul(l0, l1), linf), dom.mul(l0, l1)), dom.sub(one, linf))
    den6 = dom.mul(dom.sub(l0, one), dom.sub(l1, one))
    p6 = dom.neg(dom.div(num6, den6))
    return (
        (one, zero, zero),
        (zero, zero, one),
        (one, one, one),
        (zero, p4, one),
        (one, p5, one),
        (one, p6, zero),
    )


# ---------------------------------------------------------------------------
# the deg tau_{3,2} = 12 experiment


@dataclass(frozen=True)
class Tau32Draw:
    prime: int
    lambdas: tuple
    bezout: int
    distinct: int
    degenerate: int
    simple: int
    degree: int


_DEGREE = 144  # deg R <= 9 * 16: 145 samples determine R, and one more checks them
_PROJECTIONS = 6  # projections drawn per specialization before giving up


def _shear(terms: dict, i: int, j: int, s: int, p: int) -> dict:
    """The substitution x_i -> x_i + s x_j on a term dict over GF(p)."""
    rows = [[comb(n, t) * pow(s, t, p) % p for t in range(n + 1)] for n in range(max(e[i] for e in terms) + 1)]
    out = {}
    for e, c in terms.items():
        a = list(e)
        for w in rows[e[i]]:  # C(e_i, t) s^t x_i^(e_i - t) x_j^(e_j + t)
            e2 = tuple(a)
            out[e2] = out.get(e2, 0) + c * w
            a[i], a[j] = a[i] - 1, a[j] + 1
    return {e: c % p for e, c in out.items()}


def _y_reduction(forms, p):
    """(at, sample) for two forms in (X, Y, Z), term dicts over GF(p) with pure
    Y^deg terms: at(x) = (f(x, Y, 1), r(x, Y, 1)) as int lists, f the form of
    lower Y-degree and r the other reduced by f once in GF(p)[X][Y], and
    sample(x) = Res_Y(h1, h2)(x, 1), as _projected_counts states."""
    tops = [max(map(sum, t)) for t in forms]
    cols = [[[0] * (top + 1 - b) for b in range(top + 1)] for top in tops]
    for t, cs in zip(forms, cols):
        for (a, b, _), c in t.items():
            cs[b][a] = c
    (m, f), (n, g) = sorted(zip(tops, cols), key=lambda tc: tc[0])
    sign, c = (-1) ** (m * n * (tops[0] > tops[1])), f[m][0]
    inv = pow(c, -1, p)
    for i in range(n, m - 1, -1):  # g -= (g_i / c) Y^(i - m) f, from the top
        q = [a * inv % p for a in g[i]]
        for fj, row in zip(f, g[i - m : i]):
            for s, qs in enumerate(q):
                for k, fk in enumerate(fj, s):
                    row[k] -= qs * fk
    r = [[a % p for a in col] for col in g[:m]]

    def at(x):
        pw = [pow(x, k, p) for k in range(n + 1)]
        return [sum(map(mul, col, pw)) % p for col in f], _stripped([sum(map(mul, col, pw)) % p for col in r])

    def sample(x):
        fx, rx = at(x)
        return sign * pow(c, n + 1 - len(rx), p) * _fp_resultant(fx, rx, p) % p if rx else 0

    return at, sample


def _sampled_resultant(sample, dom) -> UniPoly:
    """R(X) = Res_Y(h1, h2)(X, 1) interpolated from sample(x) at X = 0 .. 145,
    one unit of work a sample.  One wrong sample lifts R above degree 144."""
    ys = []
    for x in range(_DEGREE + 2):
        spend(1, "resultant sample")
        ys.append(sample(x))
    R = interpolate(ys, dom, "X")
    if R.degree > _DEGREE:
        raise InvariantError(f"the sampled resultant has degree {R.degree} > {_DEGREE}")
    return R


def _deflate(cs, c, p):
    """(m, f / (X - c)^m) for a nonzero f over GF(p), a descending coefficient list,
    and m the multiplicity of its root c: divide by X - c until a remainder is nonzero."""
    m = 0
    while len(cs) > 1:
        q, acc = [], 0
        for a in cs:
            acc = (acc * c + a) % p
            q.append(acc)
        if q.pop():
            break
        cs, m = q, m + 1
    return m, cs


def _root_counts(R: UniPoly, xs):
    """(distinct roots, simple roots, multiplicities at xs) of a nonzero R over
    GF(p), p > deg R, xs distinct, read off the deflated cofactor S."""
    p, cs, mults = R.dom.p, R.coeffs[::-1], []
    for x in xs:
        m, cs = _deflate(cs, x, p)
        mults.append(m)
    S = UniPoly(R.dom, R.var, cs[::-1])
    g = poly_gcd(S, derivative(S))
    sf = S.divmod(g)[0]  # S = prod g_i^i and p > deg S: g = prod g_i^(i-1), sf = prod g_i
    simple = sf.degree - poly_gcd(sf, g).degree + mults.count(1)
    return sf.degree + sum(m > 0 for m in mults), simple, tuple(mults)


def _projected_counts(sys: Tau32FiberSystem, pts, rng):
    """(deg R, distinct, simple, multiplicities at pts) from one random projection.

    With M the shears x2 += b x0, x2 += c x1, x0 += d x1, the roots of
    R = Res_Y(h1 o M, h2 o M)(X, 1) are the X-coordinates of the points
    M^-1 P, each of P's intersection multiplicity, if the centre M (0 : 1 : 0)
    lies on neither curve nor on a line through two of the points and no
    point lies on the new line Z = 0 (Fulton, Algebraic Curves, ch. 5 sec. 1).
    All of it is checked here, except a line through two points off pts: they
    make a multiple root of R off the xs, which the caller's ledger catches.
    A projection that fails a check raises DegenerateInputError; the checks
    on pts need no R and run before it is sampled.

    Past the centre check the Y^9 coefficient c of h1 is a nonzero constant,
    a unit, so h2 = q h1 + r with deg_Y r < 9 once (_y_reduction), and a
    sample is R(x) = c^(16 - deg r(x)) Res_Y(h1(x), r(x)): 0 where r(x) = 0,
    c^16 r0^9 where r(x) is a constant r0.  On the line X = x the forms' gcd
    in Y is gcd(h1(x), r(x)).  With R = prod (X - x_P)^m_P S, no S(x_P) = 0
    (_root_counts), distinct = #{P : m_P > 0} + deg sf(S) and simple = the
    simple roots of S + #{P : m_P = 1}.
    """
    dom, p = sys.dom, sys.dom.p
    b, c, d = (dom.rand_nonzero(rng) for _ in range(3))
    forms = [_shear(_shear(_shear(h.terms, 2, 0, b, p), 2, 1, c, p), 0, 1, d, p) for h in sys.hgens]
    if not all(t.get((0, h.total_degree(), 0)) for t, h in zip(forms, sys.hgens)):
        raise DegenerateInputError("the projection centre lies on a curve; draw again")
    # M^-1 P = (a - d beta, beta, z - b a - c beta)
    zs = [(z - b * a - c * bt) % p for a, bt, z in pts]
    if not all(zs):
        raise DegenerateInputError("an intersection point lies on the line Z = 0; draw again")
    xs = [dom.div((a - d * bt) % p, zp) for (a, bt, _), zp in zip(pts, zs)]
    if len(set(xs)) != len(xs):
        raise DegenerateInputError("two degenerate points lie on one line through the centre; draw again")
    at, sample = _y_reduction(forms, p)
    for x in xs:  # on the line X = x Z the forms share one Y-root, the degenerate point's
        common = poly_gcd(*(UniPoly(dom, "Y", cs) for cs in at(x)))
        if common.degree - poly_gcd(common, derivative(common)).degree != 1:
            raise DegenerateInputError("a degenerate point shares its line through the centre; draw again")
    R = _sampled_resultant(sample, dom)
    if R.degree != sys.hgens[0].total_degree() * sys.hgens[1].total_degree():
        raise DegenerateInputError("an intersection point lies on the line Z = 0; draw again")
    return (R.degree, *_root_counts(R, xs))


def deg_tau32_single(dom: Domain, l0, l1, linf, lbeta, rng) -> Tau32Draw:
    """All counts of Theorem-4.1 type for one specialization, read off the
    first certified random projection, of at most _PROJECTIONS; running out
    raises DegenerateInputError, so the specialization is drawn again."""
    if not isinstance(dom, PrimeField) or dom.p <= _DEGREE + 1:
        raise UsageError(f"deg-tau32 needs GF(p) with p > {_DEGREE + 1}: it samples a resultant at X = 0 .. {_DEGREE + 1}")
    forced_multiplier(dom, (l0, l1, linf))  # reject non-generic parameter poles early
    sys = build_tau32_system(dom, l0, l1, linf, lbeta)
    pts = degenerate_points(dom, l0, l1, linf)
    ledger_broken = False

    def certified():
        # the ledger deg R = simple + sum mult_P, every mult_P >= 2, leaves no
        # other multiple point, so distinct = simple + 6.  Two points off pts on
        # one line through the centre break it as a tangency would, so its
        # first failure draws one more projection and its second is a fault
        nonlocal ledger_broken
        counts = _projected_counts(sys, pts, rng)
        bezout, _, simple, mults = counts
        for pt, mult in zip(pts, mults):
            if mult < 2:
                raise InvariantError(f"expected a multiple point at {pt}, got multiplicity {mult}")
        if bezout != simple + sum(mults):
            message = f"multiplicity ledger: deg R {bezout} != {simple} simple + {sum(mults)} degenerate"
            if ledger_broken:
                raise InvariantError(message)
            ledger_broken = True
            raise DegenerateInputError(f"{message}; draw one more projection")
        return counts

    bezout, distinct, simple, _ = first_value(certified, _PROJECTIONS, "certified projection", DegenerateInputError)
    return Tau32Draw(
        prime=dom.char,
        lambdas=(l0, l1, linf, lbeta),
        bezout=bezout,
        distinct=distinct,
        degenerate=6,
        simple=simple,
        degree=distinct - 6,
    )


def deg_tau32_report(rng, draws: int = 3, bits: int = 30) -> tuple:
    """Fiber counts (Tau32Draw) at `draws` independent random (prime, multiplier) draws.

    Each draw uses a fresh prime and random generic multipliers; all draws
    must agree on every reported count.  A degenerate draw is drawn again
    (errors.agreeing_draws); any other error propagates.
    """

    def draw():
        F = GF(random_prime(rng, bits))
        ls = distinct_multipliers(F, 3, rng)
        lbeta = F.rand(rng)
        if lbeta in (F.one, F.neg(F.one)):
            raise DegenerateInputError("lbeta = +-1 is outside the generic regime")
        return deg_tau32_single(F, *ls, lbeta, rng)

    return agreeing_draws(draws, draw, 16, lambda r: (r.bezout, r.distinct, r.degenerate, r.simple, r.degree))


# ---------------------------------------------------------------------------
# reconstruction from fixed points and multipliers


def reconstruct_from_fixed_data(dom: Domain, points, lambdas) -> ProjMap:
    """The unique degree-d map with the given d+1 fixed points and multipliers.

    Writes phi = z - p/q with p monic vanishing on the affine fixed points
    (degree one less when infinity is fixed) and solves the linear system
    (1 - lambda_i) q(z_i) = p'(z_i), a Vandermonde scaled by the nonzero
    rows 1 - lambda_i.  Every fixed point and multiplier of the output is
    recomputed; inconsistent data that no map realizes is rejected.
    """
    points = list(points)
    lambdas = list(lambdas)
    if len(points) != len(lambdas):
        raise UsageError("need one multiplier per fixed point")
    if len(points) < 3:
        raise UsageError("need at least 3 fixed points (degree >= 2)")
    if len(set(points)) != len(points):
        raise DegenerateInputError("fixed points must be distinct")
    for lam in lambdas:
        if lam == dom.one:
            raise DegenerateInputError("multiplier 1 means a multiple fixed point")
    d = len(points) - 1
    affine = [(pt.x, lam) for pt, lam in zip(points, lambdas) if not pt.is_infinity]
    z = UniPoly.gen(dom, "z")
    p = UniPoly.const(dom, "z", dom.one)
    for zi, _ in affine:
        p = p * (z - UniPoly.const(dom, "z", zi))
    dp = derivative(p)
    m = len(affine)  # d+1 unknowns, or d when infinity is fixed
    rows, rhs = [], []
    for zi, lam in affine:
        scale = dom.sub(dom.one, lam)
        row, power = [], dom.one
        for _ in range(m):
            row.append(dom.mul(scale, power))
            power = dom.mul(power, zi)
        rows.append(row)
        rhs.append(dp.eval(zi))
    q = UniPoly(dom, "z", solve_linear(rows, rhs, dom))
    num = z * q - p
    den = q
    if num.is_zero or den.is_zero or max(num.degree, den.degree) != d:
        raise MathError(f"no degree-{d} map realizes the data")
    try:
        phi = ProjMap.from_affine(num, den, d)
    except DegenerateMapError as e:
        raise MathError(f"no degree-{d} map realizes the data: {e}") from e
    for pt, lam in zip(points, lambdas):
        if phi.apply(pt) != pt:
            raise MathError(f"data is inconsistent: {pt} is not fixed")
        if multiplier_at_point(phi, pt, 1) != lam:
            raise MathError(f"data is inconsistent: multiplier at {pt} is off")
    return phi
