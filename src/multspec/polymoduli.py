"""Polynomial maps inside the moduli space: fixed-point configurations.

A monic degree-d polynomial with affine fixed points z_1..z_d summing to 0
is phi(z) = z + prod (z - z_i), and its multiplier at z_i is
1 + prod_{j != i} (z_i - z_j).  Prescribing the multipliers lambda_i gives
the system F_i(z) = lambda_i - 1 with F_i homogeneous of degree d-1, in the
variables z_1..z_(d-1) with z_d = -(z_1 + ... + z_(d-1)) substituted.
Scaling a solution by a (d-1)-st root of unity is conjugation z -> zeta z
of the map, so configuration counts divide by d-1 to give conjugacy classes.

Affine multipliers of a polynomial map satisfy sum 1/(1 - lambda_i) = 0
(the point at infinity has multiplier 0), so experiment entry points take
d-1 free multipliers and derive the last one.

Class counting over Q is done by counting at random specializations over
prime fields with p = 1 mod (d-1), where the root-of-unity action is
rational; independent draws must agree.  Comparing level-2 spectra across
classes works from rational solutions when the system splits, and otherwise
from class-invariant power sums computed in the quotient algebra, which
never needs the (possibly huge) splitting field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import ProjMap, sigma_n
from .errors import (
    DegenerateInputError,
    InvariantError,
    MathError,
    SplitSearchError,
    UsageError,
)
from .exactalg import GF, QQ, Domain, UniPoly, compose, derivative, random_prime, squarefree_part
from .groebner import (
    GREVLEX,
    EliminantNotSplitError,
    IdealBasis,
    MultiPoly,
    NonSimpleSolutionError,
    QuotientAlgebra,
    buchberger,
    distinct_point_count,
    quotient_dimension,
    solve_rational_points,
)
from .linalg import char_poly as _char_poly

# ---------------------------------------------------------------------------
# multiplier bookkeeping


def multiplier_relation_residual(dom: Domain, lambdas):
    """sum 1/(1 - lambda_i) over affine multipliers; 0 iff realizable."""
    acc = dom.zero
    for lam in lambdas:
        e = dom.sub(dom.one, lam)
        if dom.is_zero(e):
            raise DegenerateInputError("multiplier 1 breaks the reciprocal sum")
        acc = dom.add(acc, dom.inv(e))
    return acc


def complete_multipliers(dom: Domain, d: int, free):
    """Fill in the d-th affine multiplier forced by the reciprocal relation."""
    free = list(free)
    if len(free) != d - 1:
        raise UsageError(f"expected {d - 1} free multipliers, got {len(free)}")
    s = dom.neg(multiplier_relation_residual(dom, free))
    if dom.is_zero(s):
        raise DegenerateInputError("free multipliers leave no room for the last one")
    last = dom.sub(dom.one, dom.inv(s))
    return free + [last]


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


def build_fixed_config_system(dom: Domain, d: int, lambdas) -> FixedConfigSystem:
    """prod_{j != i}(z_i - z_j) = lambda_i - 1 for all i, in z_1..z_(d-1)
    with z_d = -(z_1 + ... + z_(d-1))."""
    lambdas = tuple(lambdas)
    if d < 2 or len(lambdas) != d:
        raise UsageError(f"need exactly {d} multipliers")
    for lam in lambdas:
        if lam == dom.one:
            raise DegenerateInputError("multiplier 1 means a multiple fixed point")
    vars_ = tuple(f"z{i + 1}" for i in range(d - 1))
    zs = [MultiPoly.gen(dom, vars_, v) for v in vars_]
    last = MultiPoly.zero(dom, vars_)
    for z in zs:
        last = last - z
    zs.append(last)
    gens = []
    for i in range(d):
        f = MultiPoly.const(dom, vars_, dom.one)
        for j in range(d):
            if j != i:
                f = f * (zs[i] - zs[j])
        gens.append(f - MultiPoly.const(dom, vars_, dom.sub(lambdas[i], dom.one)))
    return FixedConfigSystem(dom=dom, d=d, lambdas=lambdas, vars=vars_, gens=tuple(gens))


def _config_basis(sys: FixedConfigSystem, budget=None) -> IdealBasis:
    return buchberger(sys.gens, GREVLEX, budget)


def count_fixed_configurations(dom: Domain, d: int, lambdas, rng, budget=None):
    """(solutions, conjugacy classes) of the configuration system."""
    sys = build_fixed_config_system(dom, d, lambdas)
    basis = _config_basis(sys, budget)
    if quotient_dimension(basis) is None:
        raise MathError("configuration system is not zero-dimensional")
    solutions = distinct_point_count(basis, rng)
    if solutions % (d - 1) != 0:
        raise MathError(
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


def _solve_configurations(sys: FixedConfigSystem, rng, budget=None):
    """Rational solutions as full d-tuples (last coordinate reconstructed)."""
    dom = sys.dom
    basis = _config_basis(sys, budget)
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
                raise MathError("solution set is not closed under the unit root action")
            orbit.append(q)
        if len(set(orbit)) != d - 1:
            raise MathError("unit root action is not free on the configurations")
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


@dataclass(frozen=True)
class FiberDegreeReport:
    d: int
    draws: tuple
    solutions: int
    classes: int


def fiber_degree_experiment(d: int, rng, draws: int = 3, bits: int = 20, budget=None, lambdas=None):
    """Configuration counts at independent specializations.

    Each draw picks a fresh prime p = 1 mod (d-1).  Rational `lambdas` are
    reduced mod p; without them the draw takes random free affine
    multipliers and completes the last one.  A reduction that is not
    invertible, repeats a value or hits 1 fails the attempt, as does a
    non-generic count; all draws must agree.
    """
    if d < 2:
        raise UsageError("degree must be >= 2")
    out = []
    for _ in range(draws):
        for _ in range(24):
            p = random_prime(rng, bits, 1, d - 1)
            F = GF(p)
            try:
                if lambdas is None:
                    free = []
                    while len(free) < d - 1:
                        c = F.rand(rng)
                        if c != F.one and c not in free:
                            free.append(c)
                    lams = complete_multipliers(F, d, free)
                else:
                    lams = [F.from_rational(l) for l in lambdas]
                    if len(set(lams)) < len(lams):
                        continue
                counts = count_fixed_configurations(F, d, lams, rng, budget)
            except InvariantError:
                raise
            except MathError:
                continue
            out.append(
                FiberDegreeDraw(prime=p, lambdas=tuple(lams), solutions=counts[0], classes=counts[1])
            )
            break
        else:
            raise MathError("no generic specialization found in 24 attempts")
    sols = {r.solutions for r in out}
    cls = {r.classes for r in out}
    if len(sols) != 1 or len(cls) != 1:
        raise MathError(f"draws disagree: {out}")
    return FiberDegreeReport(d=d, draws=tuple(out), solutions=out[0].solutions, classes=out[0].classes)


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
    Q = QuotientAlgebra(basis)
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
        sign = base.one
        for i in range(1, k):
            term = Q.mul(e[i], p[k - i])
            acc = Q.add(acc, term if sign == base.one else Q.neg(term))
            sign = base.neg(sign)
        ke = Q.mul(Q.from_int(k), e[k])
        acc = Q.add(acc, ke if sign == base.one else Q.neg(ke))
        p[k] = acc
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
            raise MathError("invariant takes more values than there are classes")
        if count == classes:
            return True, k
        best = max(best, count)
    return False, best


def sigma2_discrimination(
    d: int,
    lambdas,
    rng,
    bits: int = 16,
    max_primes: int = 400,
    split_attempts: int | None = None,
    budget=None,
):
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
    res = multiplier_relation_residual(QQ, [QQ.from_rational(l) for l in lambdas])
    if not QQ.is_zero(res):
        raise DegenerateInputError(f"multipliers fail the reciprocal relation by {res}")
    if split_attempts is None:
        split_attempts = 80 if d <= 4 else 0
    tried = 0
    for _ in range(max_primes):
        p = random_prime(rng, bits, 1, d - 1)
        tried += 1
        F = GF(p)
        try:
            lams = [F.from_rational(l) for l in lambdas]
        except MathError:
            continue
        if len(set(lams)) != len(lams) or F.one in lams:
            continue
        sys = build_fixed_config_system(F, d, lams)
        if tried <= split_attempts:
            try:
                pts = _solve_configurations(sys, rng, budget)
            except (EliminantNotSplitError, NonSimpleSolutionError):
                continue
            if not pts:
                continue
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
        basis = _config_basis(sys, budget)
        if quotient_dimension(basis) is None:
            continue
        try:
            solutions = distinct_point_count(basis, rng)
        except InvariantError:
            raise
        except MathError:
            continue
        if solutions == 0 or solutions % (d - 1) != 0:
            continue
        classes = solutions // (d - 1)
        ok, k = _invariant_certificate(basis, d, classes)
        if not ok:
            # may be an unlucky prime identifying two exact values; retry
            continue
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
    raise SplitSearchError(f"no usable prime found in {max_primes} attempts")


# ---------------------------------------------------------------------------
# cubic closed forms


def p3_from_sigma1(dom: Domain, lambdas):
    """Candidates (a, 27 b^2) for z^3 + az + b with affine multipliers lambdas.

    Three distinct fixed points (no multiplier 1): closed form in two of the
    multipliers, checked across orderings.  Double point ({1, 1, lam}):
    a = 1 - (lam-1)/3 and 27 b^2 = 4 (lam-1)^3 / 27.  Triple point
    ({1, 1, 1}): the fixed point sits at 0, so the map is z^3 + z.
    """
    lams = list(lambdas)
    if len(lams) != 3:
        raise UsageError("need the 3 affine multipliers")
    i = dom.from_int
    ones = sum(1 for l in lams if l == dom.one)
    if ones == 3:
        return [(dom.one, dom.zero)]
    if ones == 2:
        lam = next(l for l in lams if l != dom.one)
        t = dom.sub(lam, dom.one)
        a = dom.sub(dom.one, dom.div(t, i(3)))
        b27 = dom.div(dom.mul(i(4), dom.mul(t, dom.mul(t, t))), i(27))
        return [(a, b27)]
    if ones == 1:
        raise DegenerateInputError(
            "multiplier 1 comes from a multiple fixed point and repeats"
        )
    seen = []
    for j in range(3):
        for k in range(3):
            if j == k:
                continue
            l1, l2 = lams[j], lams[k]
            den = dom.add(dom.mul(i(3), l1), dom.sub(dom.mul(i(3), l2), i(6)))
            if dom.is_zero(den):
                continue
            num = dom.add(
                dom.mul(l1, l1),
                dom.add(
                    dom.mul(dom.sub(l2, i(6)), l1),
                    dom.add(dom.mul(l2, l2), dom.sub(i(9), dom.mul(i(6), l2))),
                ),
            )
            a = dom.neg(dom.div(num, den))
            if a not in seen:
                seen.append(a)
    if not seen:
        raise DegenerateInputError("3 lam_1 + 3 lam_2 - 6 vanishes for every ordering")
    if len(seen) > 1:
        raise MathError("orderings disagree: multipliers are not realizable")
    a = seen[0]
    s1 = dom.add(lams[0], dom.add(lams[1], lams[2]))
    s2 = dom.add(
        dom.mul(lams[0], lams[1]),
        dom.add(dom.mul(lams[0], lams[2]), dom.mul(lams[1], lams[2])),
    )
    s3 = dom.mul(lams[0], dom.mul(lams[1], lams[2]))
    a2 = dom.mul(a, a)
    b27 = dom.add(
        dom.sub(s3, dom.mul(s2, a)),
        dom.sub(dom.mul(s1, a2), dom.mul(a2, a)),
    )
    return [(a, b27)]
