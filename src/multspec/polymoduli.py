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

Class counting over Q is done by counting at random specializations over
prime fields with p = 1 mod (d-1), where the root-of-unity action is
rational; independent draws must agree.  Comparing level-2 spectra across
classes works from rational solutions when the system splits, and otherwise
from class-invariant power sums computed in the quotient algebra, which
never needs the (possibly huge) splitting field.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .dynamics import ProjMap, distinct_multipliers, fixed_point_index_sum, forced_multiplier, sigma_n
from .errors import DegenerateInputError, InvariantError, MathError, UsageError, agreeing_draws, first_value
from .exactalg import GF, QQ, Domain, UniPoly, compose, derivative, random_prime, squarefree_part
from .groebner import (
    GREVLEX,
    IdealBasis,
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


def count_fixed_configurations(dom: Domain, d: int, lambdas, rng):
    """(solutions, conjugacy classes, basis) of the configuration system;
    multipliers that fail the index formula are rejected before any basis
    is built."""
    sys = build_fixed_config_system(dom, d, lambdas)
    _check_index_formula(dom, sys.lambdas)
    basis = buchberger(sys.gens, GREVLEX)
    if quotient_dimension(basis) is None:
        raise DegenerateInputError("configuration system is not zero-dimensional")
    _check_product_equations(sys, basis)
    solutions = distinct_point_count(basis, rng)
    if solutions % (d - 1) != 0:
        raise DegenerateInputError(
            f"{solutions} configurations not divisible by {d - 1}: non-generic multipliers"
        )
    return solutions, solutions // (d - 1), basis


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
    dom = sys.dom
    basis = buchberger(sys.gens, GREVLEX)
    _check_product_equations(sys, basis)
    pts = solve_rational_points(basis, rng)
    full = []
    for pt in pts:
        total = dom.zero
        for c in pt:
            total = dom.add(total, c)
        full.append(pt + (dom.neg(total),))
    return full


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
        solutions, classes, _ = count_fixed_configurations(F, d, lams, rng)
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


def two_cycle_power_sums(basis: IdealBasis, d: int):
    """The configuration quotient algebra Q = F[z]/I, and an iterator over
    g_1, g_2, ...: g_k is the sum of the k-th powers of the 2-cycle
    multipliers, as an element of Q.

    All arithmetic happens in Q, which evaluates the sums at every
    configuration simultaneously, so no point needs rational coordinates.
    The maps are polynomials, so the second iterate is monic and both the
    2-periodic factor psi and the Newton power sums of its roots come out
    of ring operations alone.  With hbar = (phi^2)' mod psi, g_k pairs the
    coefficients of hbar^k mod psi with those power sums; each g_k costs
    one more power of hbar, taken only when g_k is asked for.
    """
    if len(basis.vars) != d - 1:
        raise UsageError("basis must be the eliminated configuration system")
    Q = basis.quotient
    base = Q.base
    xs = [Q.project(MultiPoly.gen(base, basis.vars, v)) for v in basis.vars]
    last = Q.zero
    for x in xs:
        last = Q.sub(last, x)
    xs.append(last)
    z = UniPoly.gen(Q, "z")
    phi = UniPoly.const(Q, "z", Q.one)
    for x in xs:
        phi = phi * (z - UniPoly.const(Q, "z", x))
    phi = phi + z
    phi2 = compose(phi, phi)
    psi = (phi2 - z).monic_divmod(phi - z)[0]
    m = psi.degree  # d^2 - d points on genuine 2-cycles
    # Newton identities, division free: e_j = (-1)^j coeff_(m-j) of psi;
    # powers of hbar mod psi have degree < m, so p_0..p_(m-1) suffice
    e = [Q.one] + [Q.zero] * (m - 1)
    for j in range(1, m):
        c = psi.coeff(m - j)
        e[j] = c if j % 2 == 0 else Q.neg(c)
    p = [Q.from_int(m)] + [Q.zero] * (m - 1)
    for k in range(1, m):
        acc = Q.zero
        for i in range(1, k):  # the sign of term i is (-1)^(i-1)
            acc = (Q.add if i % 2 else Q.sub)(acc, Q.mul(e[i], p[k - i]))
        p[k] = (Q.add if k % 2 else Q.sub)(acc, Q.mul(Q.from_int(k), e[k]))
    hbar = derivative(phi2).monic_divmod(psi)[1]

    def sums():
        power = hbar
        while True:
            g = Q.zero
            for j in range(power.degree + 1):
                g = Q.add(g, Q.mul(power.coeff(j), p[j]))
            yield g
            power = (power * hbar).monic_divmod(psi)[1]

    return Q, sums()


_CERTIFICATE_POWERS = 3


def _invariant_certificate(basis: IdealBasis, d: int, classes: int):
    """Count distinct 2-cycle power-sum values, one power at a time up to
    _CERTIFICATE_POWERS; matching the class count certifies pairwise
    distinct level-2 spectra, and no later power is computed."""
    Q, sums = two_cycle_power_sums(basis, d)
    best = 0
    for k, g in zip(range(1, _CERTIFICATE_POWERS + 1), sums):
        E = _char_poly(Q.mult_matrix(g), Q.base)
        count = squarefree_part(E).degree
        if count > classes:
            raise InvariantError("invariant takes more values than there are classes")
        if count == classes:
            return True, k
        best = max(best, count)
    return False, best


_SPLIT_ATTEMPTS = 80  # primes tried on the rational-points route, d <= 4 only
_MAX_PRIMES = 400


def sigma2_discrimination(d: int, lambdas, rng, bits: int = 16):
    """Whether the level-2 spectrum separates the classes over a fiber.

    Works at random primes p = 1 mod (d-1).  When the configuration system
    splits completely over GF(p) (common for d = 4), the solutions are
    grouped into conjugacy classes, each class's polynomial is built, and
    the sigma_2 vectors are compared directly.  When full splitting is out
    of reach (d = 5: the splitting field is large), distinctness is
    certified instead by power sums of the 2-cycle multipliers evaluated in
    the quotient algebra: they are class invariants determined by sigma_2,
    so taking `classes` distinct values proves the spectra pairwise
    distinct.  Either way, distinctness mod p certifies exact distinctness.
    """
    lambdas = list(lambdas)
    if len(lambdas) != d:
        raise UsageError(f"need exactly {d} affine multipliers")
    _check_index_formula(QQ, [QQ.from_rational(l) for l in lambdas])
    tried = 0

    def draw():
        nonlocal tried
        tried += 1
        p = random_prime(rng, bits, 1, d - 1)
        F = GF(p)
        lams = [F.from_rational(l) for l in lambdas]
        if len(set(lams)) != len(lams) or F.one in lams:
            raise DegenerateInputError(f"multipliers collide or hit 1 mod {p}")
        if d <= 4 and tried <= _SPLIT_ATTEMPTS:
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
        solutions, classes, basis = count_fixed_configurations(F, d, lams, rng)
        if classes == 0:
            raise DegenerateInputError(f"no configurations over GF({p})")
        ok, k = _invariant_certificate(basis, d, classes)
        if not ok:
            raise DegenerateInputError(f"GF({p}) may identify two exact level-2 values")
        return Sigma2Report(
            d=d,
            prime=p,
            primes_tried=tried,
            solutions=solutions,
            classes=classes,
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
