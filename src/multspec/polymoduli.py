"""Polynomial maps inside the moduli space: fixed-point configurations.

A monic degree-d polynomial with affine fixed points z_1..z_d summing to 0
is phi(z) = z + P(z), P = prod (z - z_i); its multiplier at z_i is
lambda_i = 1 + nu_i, nu_i = P'(z_i) = prod_{j != i}(z_i - z_j).  Partial
fractions of x^k/P(x) give the residue identities s_k = sum_i z_i^k/nu_i =
[k = d-1] for k = 0..d-1 (s_0 = 0 is the index formula).  In z_1..z_(d-1),
with z_d = -(z_1 + ... + z_(d-1)), they are the configuration system: degrees
1..d-1, so its Bezout number is the fiber degree (d-1)!.  Its ideal is that of
the product equations P'(z_i) = nu_i.  Modulo those, interpolating x^k (k < d)
at the z_i gives s_k = [k = d-1] as the x^(d-1) coefficient.  Modulo the s_k,
sum_l P_i(z_l)/nu_l = 1 for P_i = P(x)/(x - z_i), of which only l = i is nonzero.
Scaling a solution by a (d-1)-st root of unity is conjugation z -> zeta z
of the map, so configuration counts divide by d-1 to give conjugacy classes.

Infinity is a fixed point of multiplier 0, so by the index formula
(dynamics.fixed_point_index_sum) the affine multipliers satisfy
sum 1/(1 - lambda_i) = 0; experiment entry points take d-1 free multipliers
and derive the last one with dynamics.forced_multiplier.  The cubic normal
form z^3 + az + b is read off its multipliers in closed form (p3_from_sigma1).

Class counting over QQ counts at random specializations over prime fields
with p = 1 mod (d-1); independent draws must agree.  Level-2 spectra are
compared across classes from rational solutions when the system splits, and
otherwise by a certificate on class-invariant power sums T_k in the quotient
algebra Q that proves both counts itself and never needs the (possibly huge)
splitting field (_invariant_certificate).  T_k sums ((phi^2)')^k over the d^2 affine
fixed points of phi^2: the k-th level-2 power sum (infinity adds 0^k), and g_k +
sum_i lambda_i^(2k), g_k over exact period 2.  On C = Q[a, b]/(phi(a) - b, phi(b) - a),
basis a^i b^j (i, j < d), the Euler-Jacobi trace formula (Cattani, Dickenstein and
Sturmfels, Residues and resultants, 1998) is Tr(x) = ell(x J), so T_k = ell(mu^(k+1) -
mu^k): ell takes the a^(d-1) b^(d-1) coefficient, J = mu - 1, mu = phi'(a) phi'(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial, prod

from .dynamics import ProjMap, distinct_multipliers, fixed_point_index_sum, forced_multiplier, sigma_n
from .errors import DegenerateInputError, InvariantError, MathError, UsageError, agreeing_draws, first_value
from .exactalg import GF, QQ, Domain, UniPoly, compose, derivative, random_prime, squarefree_part
from .groebner import (
    GREVLEX,
    IdealBasis,
    ModularOperators,
    MultiPoly,
    buchberger,
    distinct_point_count,
    quotient_dimension,
    solve_rational_points,
)
from .linalg import char_poly as _char_poly

# ---------------------------------------------------------------------------
# multiplier bookkeeping


def complete_multipliers(dom: Domain, d: int, free):
    """Fill in the d-th affine multiplier, forced with infinity's multiplier 0."""
    free = list(free)
    if len(free) != d - 1:
        raise UsageError(f"expected {d - 1} free multipliers, got {len(free)}")
    return free + [forced_multiplier(dom, [dom.zero] + free)]


# ---------------------------------------------------------------------------
# normal form


@dataclass(frozen=True)
class PolyNormalForm:
    """Monic polynomial z^d + a_2 z^(d-2) + ... + a_d; coeffs = (a_2..a_d)."""

    dom: Domain
    d: int
    coeffs: tuple

    def __post_init__(self):
        if self.d < 2 or len(self.coeffs) != self.d - 1:
            raise UsageError("need coefficients a_2..a_d")

    @classmethod
    def from_unipoly(cls, p: UniPoly):
        dom = p.dom
        d = p.degree
        if d < 2 or p.lc != dom.one:
            raise UsageError("normal form is monic of degree >= 2")
        if not dom.is_zero(p.coeff(d - 1)):
            raise UsageError("normal form has no z^(d-1) term")
        return cls(dom=dom, d=d, coeffs=tuple(p.coeff(d - k) for k in range(2, d + 1)))

    def to_unipoly(self, var: str = "z") -> UniPoly:
        dom = self.dom
        asc = [self.coeffs[self.d - 2 - j] for j in range(self.d - 1)]
        return UniPoly(dom, var, asc + [dom.zero, dom.one])

    def to_map(self) -> ProjMap:
        return ProjMap.from_polynomial(self.to_unipoly())


def poly_from_fixed_points(dom: Domain, roots) -> PolyNormalForm:
    """The unique monic polynomial fixing exactly the given affine points."""
    roots = list(roots)
    if len(roots) < 2:
        raise UsageError("need at least 2 fixed points")
    total = dom.zero
    for r in roots:
        total = dom.add(total, r)
    if not dom.is_zero(total):
        raise DegenerateInputError("fixed points must sum to 0")
    z = UniPoly.gen(dom, "z")
    prod = UniPoly.const(dom, "z", dom.one)
    for r in roots:
        prod = prod * (z - UniPoly.const(dom, "z", r))
    p = prod + z
    d = len(roots)
    lead = p.coeff(d - 1)
    if not dom.is_zero(lead):
        # the +z term hits z^(d-1) when d = 2; shift it away by conjugating
        # with a translation, which moves the fixed points off sum zero
        t = dom.neg(dom.div(lead, dom.from_int(d)))
        tc = UniPoly.const(dom, "z", t)
        p = compose(p, z + tc) - tc
    return PolyNormalForm.from_unipoly(p)


# ---------------------------------------------------------------------------
# fixed-point configuration systems


@dataclass(frozen=True)
class FixedConfigSystem:
    dom: Domain
    d: int
    lambdas: tuple
    vars: tuple
    gens: tuple


def _coordinates(dom: Domain, d: int):
    """The variables z_1..z_(d-1), and z_1..z_d as polynomials in them."""
    vars_ = tuple(f"z{i + 1}" for i in range(d - 1))
    zs = [MultiPoly.gen(dom, vars_, v) for v in vars_]
    return vars_, zs + [-sum(zs, MultiPoly.zero(dom, vars_))]


def build_fixed_config_system(dom: Domain, d: int, lambdas) -> FixedConfigSystem:
    """The residue identities sum_i z_i^k/(lambda_i - 1) = [k = d-1], k = 0..d-1,
    in z_1..z_(d-1) (module docstring).  The k = 0 one is minus the index sum:
    dropped when zero, and otherwise it makes the unit ideal."""
    lambdas = tuple(lambdas)
    if d < 2 or len(lambdas) != d:
        raise UsageError(f"need exactly {d} multipliers")
    for lam in lambdas:
        if lam == dom.one:
            raise DegenerateInputError("multiplier 1 means a multiple fixed point")
    vars_, zs = _coordinates(dom, d)
    # terms[i] = z_i^k / (lambda_i - 1) at step k
    terms = [MultiPoly.const(dom, vars_, dom.inv(dom.sub(lam, dom.one))) for lam in lambdas]
    gens = []
    for k in range(d):
        f = sum(terms, MultiPoly.const(dom, vars_, dom.neg(dom.one) if k == d - 1 else dom.zero))
        if not f.is_zero:
            gens.append(f)
        terms = [t * z for t, z in zip(terms, zs)]
    return FixedConfigSystem(dom=dom, d=d, lambdas=lambdas, vars=vars_, gens=tuple(gens))


def _check_product_equations(sys: FixedConfigSystem, basis: IdealBasis):
    """The product equations prod_{j != i}(z_i - z_j) = lambda_i - 1 lie in the
    ideal (module docstring): a nonzero normal form is a fault, not a bad draw."""
    if basis.contains_one():
        return
    dom, Q = sys.dom, basis.quotient
    _, zs = _coordinates(dom, sys.d)
    one = MultiPoly.const(dom, sys.vars, dom.one)
    for i, lam in enumerate(sys.lambdas):
        nu = MultiPoly.const(dom, sys.vars, dom.sub(lam, dom.one))
        f = prod((zs[i] - z for z in zs[:i] + zs[i + 1 :]), start=one) - nu
        if not Q.is_zero(Q.project(f)):
            raise InvariantError(f"configuration basis misses the product equation of z_{i + 1}")


def _check_index_formula(dom: Domain, lambdas):
    res = fixed_point_index_sum(dom, lambdas)
    if not dom.is_zero(res):
        raise DegenerateInputError(f"multipliers fail the index formula by {res}")


def _configuration_basis(sys: FixedConfigSystem) -> IdealBasis:
    """The basis of the configuration system, zero-dimensional and checked
    against the product equations."""
    basis = buchberger(sys.gens, GREVLEX)
    if quotient_dimension(basis) is None:
        raise DegenerateInputError("configuration system is not zero-dimensional")
    _check_product_equations(sys, basis)
    return basis


def count_fixed_configurations(dom: Domain, d: int, lambdas, rng):
    """(solutions, conjugacy classes) of the configuration system; multipliers
    that fail the index formula are rejected before any basis is built."""
    sys = build_fixed_config_system(dom, d, lambdas)
    _check_index_formula(dom, sys.lambdas)
    solutions = distinct_point_count(_configuration_basis(sys), rng)
    if solutions % (d - 1) != 0:
        raise DegenerateInputError(
            f"{solutions} configurations not divisible by {d - 1}: non-generic multipliers"
        )
    return solutions, solutions // (d - 1)


def _unit_root(F, k, rng):
    """Element of exact multiplicative order k in GF(p), p = 1 mod k."""
    if (F.p - 1) % k != 0:
        raise UsageError(f"no order-{k} elements in GF({F.p})")
    for _ in range(64):
        z = F.pow(F.rand_nonzero(rng), (F.p - 1) // k)
        if all(F.pow(z, m) != F.one for m in range(1, k)):
            return z
    raise MathError(f"found no element of order {k} in GF({F.p})")


def _solve_configurations(sys: FixedConfigSystem, rng):
    """Rational solutions as full d-tuples (last coordinate reconstructed)."""
    F = sys.dom
    return [pt + (F.neg(sum(pt) % F.p),) for pt in solve_rational_points(_configuration_basis(sys), rng)]


def _zeta_orbits(points, F, d, rng):
    """Partition configurations into orbits of z -> zeta z, zeta^(d-1) = 1."""
    if d == 2:
        return [[p] for p in points]
    zeta = _unit_root(F, d - 1, rng)
    pointset = set(points)
    seen = set()
    orbits = []
    for p in points:
        if p in seen:
            continue
        orbit = [p]
        q = p
        for _ in range(d - 2):
            q = tuple(F.mul(zeta, c) for c in q)
            if q not in pointset:
                raise InvariantError("solution set is not closed under the unit root action")
            orbit.append(q)
        if len(set(orbit)) != d - 1:
            raise InvariantError("unit root action is not free on the configurations")
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class FiberDegreeDraw:
    prime: int
    lambdas: tuple
    solutions: int
    classes: int


def fiber_degree_experiment(d: int, rng, draws: int = 3, bits: int = 20, lambdas=None):
    """Configuration counts (FiberDegreeDraw) at `draws` independent specializations.

    Each draw picks a fresh prime p = 1 mod (d-1).  Rational `lambdas` are
    reduced mod p; without them the draw takes random free affine
    multipliers and completes the last one.  A reduction that is not
    invertible, repeats a value or hits 1 fails the attempt, as does a
    non-generic count; all draws must agree.  A rational list that fails the
    index formula is rejected once, before any prime is drawn.
    """
    if d < 2:
        raise UsageError("degree must be >= 2")
    if lambdas is not None:
        if len(lambdas) != d:
            raise UsageError(f"need exactly {d} multipliers")
        _check_index_formula(QQ, [QQ.from_rational(l) for l in lambdas])

    def draw():
        p = random_prime(rng, bits, 1, d - 1)
        F = GF(p)
        if lambdas is None:
            lams = complete_multipliers(F, d, distinct_multipliers(F, d - 1, rng))
        else:
            lams = [F.from_rational(l) for l in lambdas]
            if len(set(lams)) < len(lams):
                raise DegenerateInputError(f"multipliers collide mod {p}")
        solutions, classes = count_fixed_configurations(F, d, lams, rng)
        return FiberDegreeDraw(prime=p, lambdas=tuple(lams), solutions=solutions, classes=classes)

    return agreeing_draws(draws, draw, 24, lambda r: (r.solutions, r.classes))


@dataclass(frozen=True)
class Sigma2Report:
    d: int
    prime: int
    primes_tried: int
    solutions: int
    classes: int
    all_distinct: bool
    method: str
    normal_forms: tuple | None = None
    sigma2_values: tuple | None = None
    invariant_power: int | None = None


def _residue(dom: Domain, r, memo, alpha, beta):
    """R(alpha, beta) = ell(a^alpha b^beta), phi = z^d + sum_c r[c] z^c: a^d = b - sum_c r[c] a^c
    lowers the degree, a and b are symmetric, and memo holds the entries with alpha >= d."""
    d = len(r)
    alpha, beta = max(alpha, beta), min(alpha, beta)
    if alpha + beta < 2 * d - 2 or alpha < d:
        return dom.one if alpha + beta == 2 * d - 2 else dom.zero  # alpha = beta = d - 1
    if (alpha, beta) not in memo:
        v = _residue(dom, r, memo, alpha - d, beta + 1)
        for c, rc in enumerate(r):
            w = _residue(dom, r, memo, alpha - d + c, beta)
            if not (dom.is_zero(rc) or dom.is_zero(w)):
                v = dom.sub(v, dom.mul(rc, w))
        memo[alpha, beta] = v
    return memo[alpha, beta]


def _period_two_traces(phi: UniPoly):
    """T_1, T_2, ...: T_k = ell(mu^(k+1)) - ell(mu^k), ell(mu) = d^2.  With phi-adic
    digits u = phi'^j = sum_t U_t phi^t, mu^j = u(a) u(b) = sum_(s,t) U_t(a) b^t U_s(b) a^s."""
    dom, d, r = phi.dom, phi.degree, phi.coeffs[:-1]
    dphi, memo = derivative(phi), {}
    u, prev = dphi, dom.from_int(d * d)
    while True:
        u = q = u * dphi
        digits = []
        while q.degree >= d:
            q, digit = q.monic_divmod(phi)
            digits.append(digit)
        terms = [(t, i, x) for t, U in enumerate(digits + [q]) for i, x in enumerate(U.coeffs) if not dom.is_zero(x)]
        cur = dom.zero
        for n, (t, i, x) in enumerate(terms):
            for m, (s, j, y) in enumerate(terms[n:]):  # each unordered pair once
                R = _residue(dom, r, memo, i + s, j + t)
                if not dom.is_zero(R):
                    w = dom.mul(dom.mul(x, y), R)
                    cur = dom.add(cur, dom.add(w, w) if m else w)
        yield dom.sub(cur, prev)
        prev = cur


def two_cycle_power_sums(basis: IdealBasis, d: int):
    """Q = F[z_1..z_(d-1)]/I, and an iterator over the sigma_2 power sums T_1, T_2, ... in Q,
    at every configuration at once; each costs one more power of phi', taken when asked."""
    Q = basis.quotient
    P = UniPoly.const(Q, "z", Q.one)
    for x in _coordinates(Q.base, d)[1]:
        P = P.shift(1) - P.scale(Q.project(x))
    return Q, _period_two_traces(P + UniPoly.gen(Q, "z"))


_CERTIFICATE_POWERS = 3


def _invariant_certificate(basis: IdealBasis, d: int):
    """The first k <= _CERTIFICATE_POWERS at which T_k takes V = dim Q / (d-1) distinct
    values, or None; no later T_k is computed.  T_k - g_k is a fiber constant, so T_k is
    constant on a class, a free orbit of z -> zeta z of exactly d-1 points (z = 0 fails
    s_(d-1) = 1).  V values then need V (d-1) of the at most dim Q points: V (d-1) = dim Q
    proves dim Q distinct configurations in V classes with pairwise distinct level-2
    spectra, and V (d-1) > dim Q is a broken invariant."""
    Q, sums = two_cycle_power_sums(basis, d)
    for k, g in zip(range(1, _CERTIFICATE_POWERS + 1), sums):
        points = squarefree_part(_char_poly(Q.mult_matrix(g), Q.base)).degree * (d - 1)
        if points > Q.dim:
            raise InvariantError("invariant takes more values than there are classes")
        if points == Q.dim:
            return k
    return None


_SPLIT_ATTEMPTS = 80  # primes tried on the rational-points route, d <= 4 only
_MAX_PRIMES = 400


def _split_screen(d: int, lambdas):
    """The configuration operators over QQ that screen primes; None off the Bezout dimension."""
    basis = buchberger(build_fixed_config_system(QQ, d, [QQ.from_rational(l) for l in lambdas]).gens, GREVLEX)
    return ModularOperators(basis) if quotient_dimension(basis) == factorial(d - 1) else None


def _bezout_exact(F, lams):
    """Whether dim F_p[z]/I_p is the Bezout number (d-1)!: it is unless the top forms
    sum_i w_i z_i^k (k < d, w_i = 1/(lambda_i - 1)) share a zero, and (Vandermonde) they
    do iff some proper subset of the w_i sums to 0, z = d - |S| on S and -|S| off it."""
    d, p, w = len(lams), F.p, [F.inv(F.sub(l, F.one)) for l in lams]
    return p > d and all(sum(S) % p for k in range(1, d) for S in combinations(w, k))


def sigma2_discrimination(d: int, lambdas, rng, bits: int = 16):
    """Whether the level-2 spectrum separates the classes over a fiber.

    Works at random primes p = 1 mod (d-1).  When the configuration system splits
    completely over GF(p) (common for d = 4), the solutions are grouped into conjugacy
    classes, each class's polynomial is built, and the sigma_2 vectors are compared
    directly.  From the second prime on, the split test reads the QQ operators of
    _split_screen mod p, so only a prime that splits gets a basis over GF(p).  Otherwise
    (d = 5: the splitting field is large) _invariant_certificate proves dim Q distinct
    configurations in dim Q / (d-1) classes with pairwise distinct level-2 spectra, from
    power sums of the level-2 multipliers in the quotient algebra; no point is counted.
    Either way, distinctness mod p certifies exact distinctness.
    """
    lambdas = list(lambdas)
    if len(lambdas) != d:
        raise UsageError(f"need exactly {d} affine multipliers")
    _check_index_formula(QQ, [QQ.from_rational(l) for l in lambdas])
    tried, screen = 0, None

    def draw():
        nonlocal tried, screen
        tried += 1
        if d <= 4 and tried == 2 <= _SPLIT_ATTEMPTS:  # the first prime missed: screen the rest
            screen = _split_screen(d, lambdas)
        p = random_prime(rng, bits, 1, d - 1)
        F = GF(p)
        lams = [F.from_rational(l) for l in lambdas]
        if len(set(lams)) != len(lams) or F.one in lams:
            raise DegenerateInputError(f"multipliers collide or hit 1 mod {p}")
        if d <= 4 and tried <= _SPLIT_ATTEMPTS:
            if screen and screen.den % p and _bezout_exact(F, lams) and not screen.splits(F, rng):
                raise DegenerateInputError(f"the configurations do not split over GF({p})")
            sys = build_fixed_config_system(F, d, lams)
            pts = _solve_configurations(sys, rng)
            if not pts:
                raise DegenerateInputError(f"no configuration is rational over GF({p})")
            orbits = _zeta_orbits(pts, F, d, rng)
            forms = tuple(poly_from_fixed_points(F, min(o)) for o in orbits)
            sigmas = tuple(sigma_n(nf.to_map(), 2).values for nf in forms)
            return Sigma2Report(
                d=d,
                prime=p,
                primes_tried=tried,
                solutions=len(pts),
                classes=len(orbits),
                all_distinct=len(set(sigmas)) == len(sigmas),
                method="rational-points",
                normal_forms=forms,
                sigma2_values=sigmas,
            )
        basis = _configuration_basis(build_fixed_config_system(F, d, lams))
        if basis.contains_one():
            raise DegenerateInputError(f"no configurations over GF({p})")
        k = _invariant_certificate(basis, d)
        if k is None:
            raise DegenerateInputError(f"GF({p}) may identify two configurations or two level-2 values")
        dim = basis.quotient.dim
        return Sigma2Report(
            d=d,
            prime=p,
            primes_tried=tried,
            solutions=dim,
            classes=dim // (d - 1),
            all_distinct=True,
            method="invariant-trace",
            invariant_power=k,
        )

    return first_value(draw, _MAX_PRIMES, "usable prime")


# ---------------------------------------------------------------------------
# cubic closed forms


def p3_from_sigma1(dom: Domain, lambdas):
    """[(a, 27 b^2)] for z^3 + az + b with affine multipliers lambdas.

    The fixed points z_i sum to 0 and lambda_i = 3 z_i^2 + a, so
    sigma_{1,1} = 6 - 3a and prod (lambda_i - a) = 27 (z_1 z_2 z_3)^2 = 27 b^2;
    this covers a double fixed point ({1, 1, lam}) as well.  Three distinct
    fixed points (no multiplier 1) must satisfy the index formula.  A triple
    fixed point ({1, 1, 1}) sits at 0, so the map is z^3 + z, also in
    characteristic 3, where no other multipliers are handled.
    """
    lams = list(lambdas)
    if len(lams) != 3:
        raise UsageError("need the 3 affine multipliers")
    ones = lams.count(dom.one)
    if ones == 3:
        return [(dom.one, dom.zero)]
    if dom.char == 3:
        raise DegenerateInputError("characteristic 3 takes only the multipliers {1, 1, 1}")
    if ones == 1:
        raise DegenerateInputError(
            "multiplier 1 comes from a multiple fixed point and repeats"
        )
    if ones == 0 and not dom.is_zero(fixed_point_index_sum(dom, lams)):
        raise MathError("multipliers are not realizable: their index sum is not 0")
    s1 = dom.add(lams[0], dom.add(lams[1], lams[2]))
    a = dom.sub(dom.from_int(2), dom.div(s1, dom.from_int(3)))
    b27 = dom.one
    for lam in lams:
        b27 = dom.mul(b27, dom.sub(lam, a))
    return [(a, b27)]
