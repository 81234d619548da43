"""Reproduction suite: each headline invariant as one pass/fail criterion.

Every criterion is exact (no tolerances): residuals compare equal to zero,
counts compare equal to integers, and polynomial identities are checked
coefficient by coefficient.  A criterion raises AssertionError (or a
library error) to fail; run_all turns that into a structured result and
never stops early, so one failure cannot hide another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import (
    ProjMap,
    ProjPoint,
    multiplier_at_point,
    multiplier_char_poly,
    period_polynomial,
    random_map,
    sigma1_relation_residual,
    sigma_n,
)
from .errors import MultSpecError
from .exactalg import GF, QQ, UniPoly, random_prime, squarefree_part
from .polymoduli import (
    complete_multipliers,
    fiber_degree_experiment,
    p3_from_sigma1,
    poly_from_fixed_points,
    sigma2_discrimination,
)
from .rat3 import (
    Deg3Invariants,
    deg_tau32_report,
    map_from_invariants,
    reconstruct_from_fixed_data,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _rational_fixed_data(phi, rng):
    from .exactalg import fp_roots

    F = phi.dom
    pp = period_polynomial(phi, 1)
    sf = squarefree_part(pp)
    roots = fp_roots(sf, rng)
    if len(roots) != sf.degree or pp.degree != sf.degree:
        return None
    pts = [ProjPoint.affine(F, r) for r in roots]
    if pp.degree < phi.d + 1:
        pts.append(ProjPoint.infinity(F))
    lams = [multiplier_at_point(phi, pt, 1) for pt in pts]
    if any(l == F.one for l in lams):
        return None
    return pts, lams


def _relation_residuals(rng, budget=None):
    checked = 0
    for d in range(2, 6):
        for _ in range(50):
            phi = random_map(QQ, d, rng)
            r = sigma1_relation_residual(sigma_n(phi, 1), d)
            assert QQ.is_zero(r.theorem), f"nonzero residual for {phi}"
            F = GF(random_prime(rng, 16))
            psi = random_map(F, d, rng)
            r = sigma1_relation_residual(sigma_n(psi, 1), d)
            assert F.is_zero(r.theorem), f"nonzero residual for {psi}"
            checked += 2
    poly = 0
    for _ in range(100):
        d = rng.choice([2, 3, 4, 5])
        dom = QQ if rng.random() < 0.5 else GF(random_prime(rng, 16))
        phi = random_map(dom, d, rng, polynomial=True)
        r = sigma1_relation_residual(sigma_n(phi, 1), d, is_polynomial=True)
        assert dom.is_zero(r.theorem) and dom.is_zero(r.corollary), f"residual for {phi}"
        poly += 1
    return f"{checked} maps over QQ and F_p plus {poly} polynomial maps, every residual zero"


def _quadratic_sigma(rng, budget=None):
    for _ in range(20):
        c = QQ.rand(rng)
        phi = ProjMap(QQ, (Fraction(1), Fraction(0), c), (Fraction(0), Fraction(0), Fraction(1)))
        assert sigma_n(phi, 1).values == (Fraction(2), 4 * c, Fraction(0)), f"c = {c}"
    return "sigma_1(z^2 + c) = (2, 4c, 0) for 20 random c"


def _cubic_sigma_image(rng, budget=None):
    for _ in range(50):
        a, b = QQ.rand(rng), QQ.rand(rng)
        phi = ProjMap(
            QQ,
            (Fraction(1), Fraction(0), a, b),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
        )
        want = (
            6 - 3 * a,
            9 - 6 * a,
            9 * a - 12 * a * a + 4 * a ** 3 + 27 * b * b,
            Fraction(0),
        )
        assert sigma_n(phi, 1).values == want, f"(a, b) = ({a}, {b})"
    return "sigma_1(z^3 + az + b) matches the closed form for 50 random (a, b)"


def _isospectral_quartics(rng, budget=None):
    q = Fraction
    f = ProjMap(QQ, (q(1), q(0), q(-77), q(217), q(-140)), (q(0),) * 4 + (q(1),))
    g = ProjMap(QQ, (q(1), q(0), q(-721, 8), q(217), q(165025, 256)), (q(0),) * 4 + (q(1),))
    want = (q(-1724), q(-1163982), q(-2322788), q(4530821869), q(0))
    s1f, s1g = sigma_n(f, 1), sigma_n(g, 1)
    assert s1f.values == want, f"sigma_1(f) = {s1f.values}"
    assert s1g.values == want, f"sigma_1(g) = {s1g.values}"
    s2f, s2g = sigma_n(f, 2), sigma_n(g, 2)
    assert s2f.values != s2g.values, "sigma_2 failed to separate the pair"
    split = sum(1 for x, y in zip(s2f.values, s2g.values) if x != y)
    return f"equal sigma_1, sigma_2 differs in {split} of {len(s2f.values)} entries"


def _fiber_degrees(rng, budget=None):
    r3 = fiber_degree_experiment(3, rng, draws=3, budget=budget)
    assert (r3.solutions, r3.classes) == (2, 1), f"d=3 gave {r3}"
    r4 = fiber_degree_experiment(4, rng, draws=3, budget=budget)
    assert (r4.solutions, r4.classes) == (6, 2), f"d=4 gave {r4}"
    free = [Fraction(-2), Fraction(-3), Fraction(-4), Fraction(8)]
    lam5 = complete_multipliers(QQ, 5, free)
    assert lam5[-1] == Fraction(689, 269), f"derived fifth multiplier {lam5[-1]}"
    r5 = fiber_degree_experiment(5, rng, draws=3, budget=budget, lambdas=lam5)
    assert (r5.solutions, r5.classes) == (24, 6), f"d=5 gave {r5}"
    return "classes 1 (d=3), 2 (d=4) at random draws; pinned d=5 list gives 24 solutions, 6 classes"


def _sigma2_separates(rng, budget=None):
    lam4 = complete_multipliers(QQ, 4, [Fraction(-5), Fraction(5), Fraction(4)])
    assert lam4[-1] == Fraction(-7, 5), f"derived fourth multiplier {lam4[-1]}"
    rep4 = sigma2_discrimination(4, lam4, rng, budget=budget)
    assert rep4.all_distinct and rep4.classes == 2, f"d=4 gave {rep4}"
    lam5 = [Fraction(-5), Fraction(5), Fraction(-4), Fraction(-2), Fraction(29, 9)]
    rep5 = sigma2_discrimination(5, lam5, rng, budget=budget)
    assert rep5.all_distinct and rep5.classes == 6, f"d=5 gave {rep5}"
    return (
        f"2 classes (d=4) and 6 classes (d=5) with pairwise distinct sigma_2, "
        f"certified over F_{rep4.prime} and F_{rep5.prime}"
    )


def _tau32_degree(rng, budget=None):
    rep = deg_tau32_report(rng, budget=budget)
    got = (rep.bezout, rep.distinct, rep.degenerate, rep.simple, rep.degree)
    assert got == (144, 18, 6, 12, 12), f"report {got}"
    return "three agreeing draws: bezout 144, distinct 18, degenerate 6, simple 12, degree 12"


def _reconstruction_retraction(rng, budget=None):
    F = GF(65537)
    hits = {2: 0, 3: 0, 4: 0}
    tries = 0
    while min(hits.values()) < 50 and tries < 40000:
        tries += 1
        d = min(hits, key=hits.get)
        phi = random_map(F, d, rng, polynomial=rng.random() < 0.5)
        data = _rational_fixed_data(phi, rng)
        if data is None or len(data[0]) != d + 1:
            continue
        assert reconstruct_from_fixed_data(F, data[0], data[1]) == phi, f"retraction moved {phi}"
        hits[d] += 1
    assert min(hits.values()) >= 50, f"only found {hits} usable maps"
    return f"reconstruct(data(phi)) = phi for {hits} maps by degree"


def _cubic_normal_form_recovery(rng, budget=None):
    hits = 0
    while hits < 50:
        roots = []
        while len(roots) < 2:
            c = QQ.rand(rng, height=8)
            if c not in roots:
                roots.append(c)
        roots.append(-roots[0] - roots[1])
        if len(set(roots)) != 3:
            continue
        nf = poly_from_fixed_points(QQ, roots)
        a, b = nf.coeffs
        lams = [3 * r * r + a for r in roots]
        if any(l == QQ.one for l in lams):
            continue
        got = p3_from_sigma1(QQ, lams)
        assert (a, 27 * b * b) in got, f"{lams} missed ({a}, {b})"
        hits += 1
    assert p3_from_sigma1(QQ, [Fraction(1)] * 3) == [(Fraction(1), Fraction(0))]
    two = p3_from_sigma1(QQ, [Fraction(1), Fraction(1), Fraction(10)])
    assert two == [(Fraction(-2), Fraction(108))], f"two-distinct case gave {two}"
    cube = p3_from_sigma1(QQ, [Fraction(0), Fraction(3), Fraction(3)])
    assert (Fraction(0), Fraction(0)) in cube, f"z^3 multipliers gave {cube}"
    return f"(a, 27b^2) recovered for {hits} random normal forms plus the collapsed cases"


def _marked_map_consistency(rng, budget=None):
    F = GF(10007)
    for _ in range(50):
        while True:
            ls = []
            while len(ls) < 3:
                c = F.rand(rng)
                if c != F.one and c not in ls:
                    ls.append(c)
            alpha = F.rand(rng)
            if alpha in (F.zero, F.one):
                continue
            try:
                inv = Deg3Invariants(F, ls[0], ls[1], ls[2], alpha)
                la = inv.lalpha
            except MultSpecError:
                continue
            break
        phi = map_from_invariants(inv)
        marked = [
            (ProjPoint.affine(F, F.zero), inv.l0),
            (ProjPoint.affine(F, F.one), inv.l1),
            (ProjPoint.infinity(F), inv.linf),
            (ProjPoint.affine(F, alpha), la),
        ]
        total = F.zero
        for pt, lam in marked:
            assert phi.apply(pt) == pt and multiplier_at_point(phi, pt, 1) == lam
            total = F.add(total, F.inv(F.sub(F.one, lam)))
        assert total == F.one, f"four-term relation broke at {inv}"
        pts = [m[0] for m in marked]
        lams = [m[1] for m in marked]
        assert reconstruct_from_fixed_data(F, pts, lams) == phi
    return "50 marked maps: fixed points, multipliers, relation, and reconstruction all agree"


def _brute_force_orbits(rng, budget=None):
    def brute(phi, n):
        F = phi.dom
        pts = [ProjPoint.affine(F, F.from_int(x)) for x in range(F.char)]
        pts.append(ProjPoint.infinity(F))
        found = []
        for pt in pts:
            q = pt
            for _ in range(n):
                q = phi.apply(q)
            if q == pt:
                found.append(pt)
        return found

    small = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

    def one_draw(d, n, need_full):
        while True:
            F = GF(rng.choice(small))
            phi = random_map(F, d, rng)
            pp = period_polynomial(phi, n)
            if squarefree_part(pp).degree != pp.degree or pp.degree < d ** n:
                continue  # multiple periodic points; skip non-generic draws
            per = brute(phi, n)
            if need_full and len(per) != d ** n + 1:
                continue
            char = multiplier_char_poly(phi, n)
            assert char.degree == d ** n + 1
            prod = UniPoly.const(F, char.var, F.one)
            t = UniPoly.gen(F, char.var)
            for pt in per:
                prod = prod * (t - UniPoly.const(F, char.var, multiplier_at_point(phi, pt, n)))
            q, r = char.divmod(prod)
            assert r.is_zero, f"orbit multipliers of {phi} are not roots of its level-{n} polynomial"
            return len(per), char.degree

    rational = 0
    full = 0
    for _ in range(20):
        d, n = rng.choice([2, 3]), rng.choice([1, 2])
        got, total = one_draw(d, n, need_full=False)
        rational += got
        full += got == total
    while full < 5:  # force cases where every periodic point is rational
        d = 2 if rng.random() < 0.7 else 3
        n = rng.choice([1, 2]) if d == 2 else 1
        got, total = one_draw(d, n, need_full=True)
        assert got == total
        full += 1
    return f"20 random draws ({rational} rational periodic points) plus {full} fully split cases"


CRITERIA = (
    (1, "fixed-point relation residuals vanish", _relation_residuals),
    (2, "quadratic family sigma vector", _quadratic_sigma),
    (3, "cubic polynomial sigma image", _cubic_sigma_image),
    (4, "isospectral quartic pair separated at level 2", _isospectral_quartics),
    (5, "polynomial fiber degrees", _fiber_degrees),
    (6, "sigma_2 separates conjugacy classes", _sigma2_separates),
    (7, "degree-3 level-2 fiber degree is 12", _tau32_degree),
    (8, "reconstruction is a retraction", _reconstruction_retraction),
    (9, "cubic normal form recovered from multipliers", _cubic_normal_form_recovery),
    (10, "marked-map construction is consistent", _marked_map_consistency),
    (11, "char polys match brute-force orbit enumeration", _brute_force_orbits),
)


def run_criterion(number: int, seed: int = 0, budget=None) -> CriterionResult:
    """One criterion with its own seeded rng, so runs are independent."""
    for num, name, fn in CRITERIA:
        if num == number:
            rng = random.Random(f"{seed}:{number}")
            try:
                detail = fn(rng, budget)
                return CriterionResult(number=num, name=name, passed=True, detail=detail)
            except (AssertionError, MultSpecError) as e:
                return CriterionResult(number=num, name=name, passed=False, detail=str(e))
    raise ValueError(f"no criterion {number}")


def run_all(seed: int = 0, budget=None):
    return [run_criterion(num, seed, budget) for num, _, _ in CRITERIA]

