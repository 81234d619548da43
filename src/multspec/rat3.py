"""Degree-3 rational maps with marked fixed points 0, 1, infinity, alpha.

Moving three fixed points to 0, 1, infinity leaves
phi(z) = (z^3 + a2 z^2 + a3 z) / (b2 z^2 + b3 z + b4), and the multipliers
at the marked points together with the fourth fixed point alpha determine
every coefficient.  The four multipliers obey sum 1/(1 - lambda) = 1, so
lambda_alpha is always derived, never chosen.

The level-2 fiber system couples alpha with a 2-periodic point beta:
phi^2(beta) = beta and (phi^2)'(beta) = lambda_beta, cleared of
denominators and homogenized in (alpha : beta : z).  Counting its points
(distinct, degenerate, simple) at agreeing random specializations measures
the fiber degree.  Every count is read off the resultant R of the two
forms after a random projective change of coordinates: its roots are the
projected intersection points with their intersection multiplicities, so
the count with multiplicity (Bezout, 144) is the measured deg R.  A ledger
over the six degenerate points proves the other points simple.  Two
consecutive independent projections must agree, and a failed or
disagreeing projection is drawn again; a failed theorem-level check then
raises InvariantError and is never retried.

Reconstruction from (fixed points, multipliers) solves the Vandermonde
system (1 - lambda_i) q(z_i) = p'(z_i) for the denominator of z - p/q,
then validates the result through the dynamics pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul

from .dynamics import ProjMap, ProjPoint, multiplier_at_point
from .errors import (
    BudgetExhaustedError,
    DegenerateInputError,
    DegenerateMapError,
    InvariantError,
    MathError,
    UsageError,
)
from .exactalg import (
    GF,
    Domain,
    PrimeField,
    UniPoly,
    derivative,
    interpolate,
    poly_gcd,
    random_prime,
    resultant,
    squarefree_part,
)
from .groebner import MultiPoly
from .linalg import solve_linear

# ---------------------------------------------------------------------------
# invariants of a marked degree-3 map


def lambda_alpha(dom: Domain, l0, l1, linf):
    """Fourth multiplier forced by sum 1/(1 - lambda) = 1 over fixed points."""
    s = dom.zero
    for lam in (l0, l1, linf):
        e = dom.sub(dom.one, lam)
        if dom.is_zero(e):
            raise DegenerateInputError("multiplier 1 at a marked fixed point")
        s = dom.add(s, dom.inv(e))
    t = dom.sub(s, dom.one)
    if dom.is_zero(t):
        raise DegenerateInputError("reciprocal sum is 1: fourth multiplier escapes to infinity")
    return dom.add(dom.inv(t), dom.one)


@dataclass(frozen=True)
class Deg3Invariants:
    """Marked data (l0, l1, linf, alpha), optionally with a 2-cycle multiplier."""

    dom: Domain
    l0: object
    l1: object
    linf: object
    alpha: object
    lbeta: object = None

    def __post_init__(self):
        dom = self.dom
        for lam in (self.l0, self.l1, self.linf):
            if lam == dom.one:
                raise DegenerateInputError("marked multipliers must differ from 1")
        if self.alpha == dom.zero or self.alpha == dom.one:
            raise DegenerateInputError("alpha collides with a marked fixed point")

    @property
    def lalpha(self):
        return lambda_alpha(self.dom, self.l0, self.l1, self.linf)


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


def closed_form_coefficients(dom: Domain, l0, l1, linf, alpha):
    """Division-free normal form coefficients (num, den), descending.

    These are the chain coefficients of map_from_invariants scaled by
    (l1 - 1)(1 - l0), which clears every denominator.
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
    alpha_values: int


@dataclass(frozen=True)
class Tau32Report:
    draws: tuple
    bezout: int
    distinct: int
    degenerate: int
    simple: int
    degree: int


_NODES = 145  # R has degree <= 9 * 16 = 144, so 145 samples determine it
_PROJECTIONS = 6  # projections drawn per specialization before giving up


def _shear(terms: dict, i: int, j: int, s: int, p: int) -> dict:
    """The substitution x_i -> x_i + s x_j on a term dict over GF(p)."""
    out = {}
    for e, c in terms.items():
        for t in range(e[i] + 1):
            e2 = tuple(k + t * ((v == j) - (v == i)) for v, k in enumerate(e))
            out[e2] = (out.get(e2, 0) + c * comb(e[i], t) * pow(s, t, p)) % p
    return out


def _sampled_resultant(forms, dom, ticks) -> UniPoly:
    """R(X) = Res_Y(h1, h2)(X, 1) of two term dicts in (X, Y, Z) at their
    Y-degrees (m, n), sampled at X = 0 .. 144 and interpolated; each sample
    takes one budget tick.  A sample where f1 drops k degrees is scaled by
    (-1)^(n k) lc(f2)^k back to Res_{m,n}, and symmetrically for f2; no
    caller passes two forms whose Y-leading coefficients vanish together."""
    p, (m, n) = dom.p, [max(e[1] for e in t) for t in forms]
    tops = [max(map(sum, t)) for t in forms]
    cols = [[[0] * (top + 1) for _ in range(d + 1)] for top, d in zip(tops, (m, n))]
    for t, cs in zip(forms, cols):
        for (a, b, _), c in t.items():
            cs[b][a] = c
    ys = []
    for x in range(_NODES):
        if ticks is not None and next(ticks, None) is None:
            raise BudgetExhaustedError("resultant sample budget exhausted")
        pw = [pow(x, k, p) for k in range(max(tops) + 1)]
        f1, f2 = (UniPoly(dom, "Y", [sum(map(mul, col, pw)) % p for col in cs]) for cs in cols)
        r, k1, k2 = resultant(f1, f2), m - f1.degree, n - f2.degree
        if r and (k1 or k2):
            r = r * pow(-1, n * k1) * pow(f2.lc, k1, p) * pow(f1.lc, k2, p) % p
        ys.append(r)
    return interpolate(list(range(_NODES)), ys, dom, "X")


def _root_multiplicity(f: UniPoly, c) -> int:
    """Multiplicity of c as a root of f."""
    linear = UniPoly(f.dom, f.var, [f.dom.neg(c), f.dom.one])
    m, (q, r) = 0, f.monic_divmod(linear)
    while r.is_zero:
        m, (q, r) = m + 1, q.monic_divmod(linear)
    return m


def _projected_counts(sys: Tau32FiberSystem, pts, rng, ticks):
    """(deg R, distinct, simple, multiplicities at pts) from one random projection.

    With M the shears x2 += b x0, x2 += c x1, x0 += d x1, the roots of
    R = Res_Y(h1 o M, h2 o M)(X, 1) are the X-coordinates of the points
    M^-1 P, each of P's intersection multiplicity, if the centre M (0 : 1 : 0)
    lies on neither curve nor on a line through two of the points and no
    point lies on the new line Z = 0 (Fulton, Algebraic Curves, ch. 5 sec. 1).
    """
    dom, p = sys.dom, sys.dom.p
    b, c, d = (dom.rand_nonzero(rng) for _ in range(3))
    forms = [_shear(_shear(_shear(h.terms, 2, 0, b, p), 2, 1, c, p), 0, 1, d, p) for h in sys.hgens]
    if not all(t.get((0, h.total_degree(), 0)) for t, h in zip(forms, sys.hgens)):
        raise MathError("the projection centre lies on a curve; draw again")
    R = _sampled_resultant(forms, dom, ticks)
    if R.degree != sys.hgens[0].total_degree() * sys.hgens[1].total_degree():
        raise MathError("an intersection point lies on the line Z = 0; draw again")
    g = poly_gcd(R, derivative(R))
    sf = R.divmod(g)[0]  # R = prod g_i^i and p > deg R: g = prod g_i^(i-1), sf = prod g_i
    # M^-1 P = (a - d beta, beta, z - b a - c beta), off Z = 0 since deg R = 144
    xs = [dom.div((a - d * bt) % p, (z - b * a - c * bt) % p) for a, bt, z in pts]
    if len(set(xs)) != len(xs):
        raise MathError("two degenerate points lie on one line through the centre; draw again")
    simple = sf.degree - poly_gcd(sf, g).degree
    return R.degree, sf.degree, simple, tuple(_root_multiplicity(R, x) for x in xs)


def deg_tau32_single(dom: Domain, l0, l1, linf, lbeta, rng, budget=None) -> Tau32Draw:
    """All counts of Theorem-4.1 type for one specialization, read off the
    first two consecutive random projections that agree, of at most
    _PROJECTIONS; `budget` caps the resultant samples."""
    if not isinstance(dom, PrimeField) or dom.p <= _NODES:
        raise UsageError(f"deg-tau32 needs GF(p) with p > {_NODES}: it samples a resultant at {_NODES} nodes")
    lambda_alpha(dom, l0, l1, linf)  # reject non-generic parameter poles early
    sys = build_tau32_system(dom, l0, l1, linf, lbeta)
    pts = degenerate_points(dom, l0, l1, linf)
    ticks = None if budget is None else iter(range(budget))
    last = None
    for _ in range(_PROJECTIONS):
        try:
            counts = _projected_counts(sys, pts, rng, ticks)
        except InvariantError:
            raise
        except MathError:
            counts = None
        if counts is not None and counts == last:
            break
        last = counts
    else:
        raise MathError(f"no two consecutive projections of {_PROJECTIONS} agree; draw again")
    # the ledger deg R = simple + sum mult_P, every mult_P >= 2, leaves no other
    # multiple point, so distinct = simple + 6
    bezout, distinct, simple, mults = counts
    for pt, mult in zip(pts, mults):
        if mult < 2:
            raise InvariantError(f"expected a multiple point at {pt}, got multiplicity {mult}")
    if bezout != simple + sum(mults):
        raise InvariantError(f"multiplicity ledger: deg R {bezout} != {simple} simple + {sum(mults)} degenerate")
    # alpha-coordinates of the affine points: Res_beta from (0 : 1 : 0).  That
    # centre lies on h1 when linf = -1, and on h2 as well only when lbeta = 1,
    # which build_tau32_system rejects; on both curves, common roots of the
    # beta-leading coefficients would count as alpha values
    alpha_values = squarefree_part(_sampled_resultant([h.terms for h in sys.hgens], dom, ticks)).degree
    return Tau32Draw(
        prime=dom.char,
        lambdas=(l0, l1, linf, lbeta),
        bezout=bezout,
        distinct=distinct,
        degenerate=6,
        simple=simple,
        degree=distinct - 6,
        alpha_values=alpha_values,
    )


def deg_tau32_report(rng, draws: int = 3, bits: int = 30, budget=None) -> Tau32Report:
    """Fiber counts at independent random (prime, multiplier) draws.

    Each draw uses a fresh prime and random generic multipliers; all draws
    must agree on every reported count.  An unlucky draw is drawn again; a
    broken invariant (InvariantError) propagates.
    """
    out = []
    for _ in range(draws):
        for _ in range(16):
            p = random_prime(rng, bits)
            F = GF(p)
            ls = []
            while len(ls) < 3:
                c = F.rand(rng)
                if c != F.one and c not in ls:
                    ls.append(c)
            lbeta = F.rand(rng)
            if lbeta in (F.one, F.neg(F.one)):
                continue
            try:
                out.append(deg_tau32_single(F, ls[0], ls[1], ls[2], lbeta, rng, budget))
            except InvariantError:
                raise
            except MathError:
                continue
            break
        else:
            raise MathError("no generic specialization found in 16 attempts")
    keys = [(r.bezout, r.distinct, r.degenerate, r.simple, r.degree) for r in out]
    if len(set(keys)) != 1:
        raise MathError(f"draws disagree: {out}")
    first = out[0]
    return Tau32Report(
        draws=tuple(out),
        bezout=first.bezout,
        distinct=first.distinct,
        degenerate=first.degenerate,
        simple=first.simple,
        degree=first.degree,
    )


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
