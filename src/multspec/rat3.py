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
the fiber degree.  A multiplicity ledger on one eliminant proves the affine
points simple; the count with multiplicity is Bezout's 9 * 16,
taken from the theorem once the intersection is known to be finite.  A
failed theorem-level check raises InvariantError and is never retried.

Reconstruction from (fixed points, multipliers) solves the Vandermonde
system (1 - lambda_i) q(z_i) = p'(z_i) for the denominator of z - p/q,
then validates the result through the dynamics pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import ProjMap, ProjPoint, multiplier_at_point
from .errors import (
    DegenerateInputError,
    DegenerateMapError,
    InvariantError,
    MathError,
    UsageError,
)
from .exactalg import (
    GF,
    Domain,
    UniPoly,
    derivative,
    fp_roots,
    poly_gcd,
    random_prime,
    squarefree_part,
)
from .groebner import (
    GREVLEX,
    MultiPoly,
    buchberger,
    distinct_point_count,
    eliminant_of_form,
    quotient_dimension,
)
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


def _distinct_on_line(sys: Tau32FiberSystem, rng):
    """Distinct projective solutions on z = 0 and how many have zero Jacobian."""
    dom = sys.dom
    f1, f2 = (h.substitute({"z": dom.zero}).drop_vars(("z",)) for h in sys.hgens)
    if f1.is_zero or f2.is_zero:
        raise MathError("a generator vanishes on the infinity line")
    u1, u2 = (f.substitute({"alpha": dom.one}).drop_vars(("alpha",)).to_unipoly("beta") for f in (f1, f2))
    sf = squarefree_part(poly_gcd(u1, u2))
    roots = fp_roots(sf, rng)
    if len(roots) != sf.degree:
        raise MathError("an infinity-line point is irrational; draw again")
    count = len(roots)
    # the alpha = 0 corner (0 : 1 : 0)
    corner = (dom.zero, dom.one)
    if dom.is_zero(f1.eval(corner)) and dom.is_zero(f2.eval(corner)):
        count += 1
    # chart alpha = 1: Jacobian of the dehomogenized pair in (beta, z)
    h1, h2 = (h.substitute({"alpha": dom.one}).drop_vars(("alpha",)) for h in sys.hgens)
    jac = h1.derivative("beta") * h2.derivative("z") - h1.derivative("z") * h2.derivative("beta")
    zero_jac = sum(1 for b in roots if dom.is_zero(jac.eval((b, dom.zero))))
    return count, zero_jac, jac


def _root_multiplicity(f: UniPoly, c) -> int:
    """Multiplicity of c as a root of the monic polynomial f."""
    linear = UniPoly(f.dom, f.var, [f.dom.neg(c), f.dom.one])
    m = 0
    q, r = f.monic_divmod(linear)
    while r.is_zero:
        m += 1
        q, r = q.monic_divmod(linear)
    return m


def deg_tau32_single(dom: Domain, l0, l1, linf, lbeta, rng, budget=None) -> Tau32Draw:
    """All counts of Theorem-4.1 type for one specialization."""
    lambda_alpha(dom, l0, l1, linf)  # reject non-generic parameter poles early
    sys = build_tau32_system(dom, l0, l1, linf, lbeta)
    basis = buchberger(list(sys.gens), GREVLEX, budget)
    d_affine = quotient_dimension(basis)
    if d_affine is None:
        raise MathError("fiber system is not zero-dimensional")
    n_affine, u, elim = distinct_point_count(basis, rng)
    n_line, n_line_zero_jac, line_jac = _distinct_on_line(sys, rng)

    pts = degenerate_points(dom, l0, l1, linf)
    if len(set(pts)) != 6:
        raise MathError("degenerate points collide; draw again")
    degenerate_mult = 0
    for pt in pts:
        for h in sys.hgens:
            if not dom.is_zero(h.eval(pt)):
                raise InvariantError(f"degenerate point {pt} misses the system")
        # multiplicity >= 2: on z = 0 a singular Jacobian; affine, u(P) is a multiple
        # root of E = prod_P (t - u(P))^mult_P (Cox-Little-O'Shea, ch. 4 sec. 2)
        if dom.is_zero(pt[2]):
            if not dom.is_zero(line_jac.eval((pt[1], dom.zero))):
                raise InvariantError(f"expected a singular point at {pt}")
            continue
        mult = _root_multiplicity(elim, u.eval(pt[:2]))
        if mult < 2:
            raise InvariantError(f"expected a multiple point at {pt}, got multiplicity {mult}")
        degenerate_mult += mult
    # the ledger: the other affine points have multiplicity 1 iff they fill the rest
    simple_affine = d_affine - degenerate_mult
    if simple_affine != n_affine - 4:
        raise InvariantError(
            f"multiplicity ledger: D_aff {d_affine} - degenerate multiplicities {degenerate_mult} "
            f"!= {n_affine} distinct affine points - 4"
        )
    distinct = n_affine + n_line
    simple = simple_affine + (n_line - n_line_zero_jac)

    # Bezout's theorem: the affine part of the intersection is finite (the
    # quotient dimension above is not None) and so is its part on z = 0
    # (_distinct_on_line raises if a generator vanishes on that line), so the
    # projective curves share no component and meet in deg h1 * deg h2
    # points counted with multiplicity.
    h1, h2 = sys.hgens
    bezout = h1.total_degree() * h2.total_degree()

    alpha_form = MultiPoly.gen(dom, sys.vars, "alpha")
    alpha_values = squarefree_part(eliminant_of_form(basis, alpha_form)).degree

    degree = distinct - 6
    if degree != simple:
        raise InvariantError(f"simple count {simple} disagrees with distinct - degenerate {degree}")
    if distinct > bezout:
        raise InvariantError("count sanity failed")
    return Tau32Draw(
        prime=dom.char,
        lambdas=(l0, l1, linf, lbeta),
        bezout=bezout,
        distinct=distinct,
        degenerate=6,
        simple=simple,
        degree=degree,
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
