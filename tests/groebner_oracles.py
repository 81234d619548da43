"""Groebner routes that only the tests use.

The lex order, division of one polynomial by a basis, S-polynomials, lex
elimination, substitution, linear changes of variables, dropping unused
variables and dehomogenization, Jacobian determinants at a point, the count
of non-simple points through a basis with the Jacobian adjoined,
quotient-algebra elements written back as polynomials, the
fixed-configuration system built in d variables and cut down to d-1, and
the Groebner route to the deg tau_{3,2} counts.  They check `buchberger`
against its definition and the level-2 fiber system against its geometry;
the package itself works on packed reducers, quotient contexts and
sampled resultants instead.
"""

from matrix_helpers import bareiss_det, random_invertible
from multspec.errors import MathError, UsageError
from multspec.exactalg import UniPoly, derivative, fp_roots, poly_gcd, squarefree_part
from multspec.groebner import (
    GREVLEX,
    IdealBasis,
    MonomialOrder,
    MultiPoly,
    _Packing,
    _reduce_terms,
    buchberger,
    distinct_point_count,
    eliminant_of_form,
    mono_div,
    mono_lcm,
    quotient_dimension,
    random_linear_form,
)

LEX = MonomialOrder("lex", lambda e: e, lambda n: [])


def normal_form(f: MultiPoly, basis: IdealBasis) -> MultiPoly:
    """Remainder of f on full division by the basis generators."""
    gens = [g for g in basis.gens if not g.is_zero]
    if not gens:
        return f
    pk = _Packing(basis.order, len(f.vars))
    red = []
    for g in gens:
        (lt, lc), *tail = pk.terms(g).items()
        red.append((lt, f.dom.inv(lc), tail))
    return pk.poly(f.dom, f.vars, _reduce_terms(pk.terms(f), red, f.dom, pk))


def spoly(f: MultiPoly, g: MultiPoly, order) -> MultiPoly:
    ef, cf = f.leading(order)
    eg, cg = g.leading(order)
    l = mono_lcm(ef, eg)
    dom = f.dom
    mf = MultiPoly(dom, f.vars, {mono_div(l, ef): dom.inv(cf)})
    mg = MultiPoly(dom, g.vars, {mono_div(l, eg): dom.inv(cg)})
    return mf * f - mg * g


def substitute(f: MultiPoly, assignments: dict) -> MultiPoly:
    """Scalars put in for some variables; the result keeps every variable slot."""
    dom = f.dom
    idx = {f.vars.index(n): v for n, v in assignments.items()}
    out = {}
    for e, c in f.terms.items():
        e2 = tuple(0 if i in idx else k for i, k in enumerate(e))
        for i, v in idx.items():
            c = dom.mul(c, dom.pow(v, e[i]))
        out[e2] = dom.add(out.get(e2, dom.zero), c)
    return MultiPoly(dom, f.vars, out)


def drop_vars(f: MultiPoly, names) -> MultiPoly:
    """f in its other variables; none of `names` may occur in it."""
    keep = [i for i, v in enumerate(f.vars) if v not in names]
    for e in f.terms:
        for i, v in enumerate(f.vars):
            if v in names and e[i]:
                raise UsageError(f"variable {v} still occurs")
    vars2 = tuple(f.vars[i] for i in keep)
    return MultiPoly(f.dom, vars2, {tuple(e[i] for i in keep): c for e, c in f.terms.items()})


def linear_change(f: MultiPoly, mat) -> MultiPoly:
    """x_i -> sum_j mat[i][j] x_j, exact expansion."""
    dom = f.dom
    n = len(f.vars)
    forms = []
    for i in range(n):
        t = {}
        for j in range(n):
            if not dom.is_zero(mat[i][j]):
                e = tuple(1 if k == j else 0 for k in range(n))
                t[e] = mat[i][j]
        forms.append(MultiPoly(dom, f.vars, t))
    # cache powers of each substituted variable
    powers = [[MultiPoly.const(dom, f.vars, dom.one)] for _ in range(n)]
    maxdeg = [0] * n
    for e in f.terms:
        for i, k in enumerate(e):
            maxdeg[i] = max(maxdeg[i], k)
    for i in range(n):
        for _ in range(maxdeg[i]):
            powers[i].append(powers[i][-1] * forms[i])
    acc = MultiPoly.zero(dom, f.vars)
    for e, c in f.terms.items():
        t = MultiPoly.const(dom, f.vars, c)
        for i, k in enumerate(e):
            if k:
                t = t * powers[i][k]
        acc = acc + t
    return acc


def to_unipoly(f: MultiPoly, name: str) -> UniPoly:
    """f as a univariate polynomial in the variable `name`, the only one it uses."""
    i = f.vars.index(name)
    if any(k and j != i for e in f.terms for j, k in enumerate(e)):
        raise UsageError("polynomial is not univariate in " + name)
    cs = [f.dom.zero] * (max((e[i] for e in f.terms), default=-1) + 1)
    for e, c in f.terms.items():
        cs[e[i]] = c
    return UniPoly(f.dom, name, cs)


def dehomogenize(f: MultiPoly, name: str) -> MultiPoly:
    return drop_vars(substitute(f, {name: f.dom.one}), [name])


def eliminate(gens, keep) -> IdealBasis:
    """Elimination ideal basis in the kept variables (lex block order)."""
    gens = list(gens)
    vars_ = gens[0].vars
    keep = tuple(keep)
    dropped = tuple(v for v in vars_ if v not in keep)
    # reorder the variables so the dropped ones come first, then lex
    pos = [(dropped + keep).index(v) for v in vars_]
    moved = []
    for g in gens:
        terms = {}
        for e, c in g.terms.items():
            e2 = [0] * len(vars_)
            for p, k in zip(pos, e):
                e2[p] = k
            terms[tuple(e2)] = c
        moved.append(MultiPoly(g.dom, dropped + keep, terms))
    gb = buchberger(moved, LEX)
    kept = [drop_vars(g, dropped) for g in gb.gens if all(not any(e[: len(dropped)]) for e in g.terms)]
    return IdealBasis(vars=keep, order=LEX, gens=tuple(kept))


def jacobian_det_at(gens, vars_, point):
    """det of the Jacobian of gens w.r.t. vars_ evaluated at point."""
    gens = list(gens)
    if len(gens) != len(vars_):
        raise UsageError("jacobian requires as many generators as variables")
    rows = [[g.derivative(v).eval(point) for v in vars_] for g in gens]
    return bareiss_det(rows, gens[0].dom)


def non_simple_point_count(gens, rng) -> int:
    """Distinct points of two polynomials in two variables where their Jacobian
    vanishes: the distinct count of a basis with the Jacobian adjoined."""
    (f, g), (x, y) = gens, gens[0].vars
    jac = f.derivative(x) * g.derivative(y) - f.derivative(y) * g.derivative(x)
    return distinct_point_count(buchberger([f, g, jac], GREVLEX), rng)


def to_multipoly(Q, a) -> MultiPoly:
    """The element a of the quotient algebra Q as a combination of standard monomials."""
    terms = {e: c for e, c in zip(Q.std, a) if not Q.base.is_zero(c)}
    return MultiPoly(Q.base, Q.vars, terms)


def config_system_by_substitution(dom, d: int, lambdas):
    """The fixed-configuration generators prod_{j != i}(z_i - z_j) - (lambda_i - 1)
    built in z_1..z_d, then z_d -> -(z_1 + ... + z_(d-1)) by a linear change
    and z_d dropped."""
    vars_ = tuple(f"z{i + 1}" for i in range(d))
    zs = [MultiPoly.gen(dom, vars_, v) for v in vars_]
    mat = [[dom.one if i == j else dom.zero for j in range(d)] for i in range(d)]
    mat[d - 1] = [dom.neg(dom.one)] * (d - 1) + [dom.zero]
    out = []
    for i in range(d):
        f = MultiPoly.const(dom, vars_, dom.one)
        for j in range(d):
            if j != i:
                f = f * (zs[i] - zs[j])
        f = f - MultiPoly.const(dom, vars_, dom.sub(lambdas[i], dom.one))
        out.append(drop_vars(linear_change(f, mat), (vars_[-1],)))
    return out


# ---------------------------------------------------------------------------
# the Groebner route to the deg tau_{3,2} counts


def _root_multiplicity(f: UniPoly, c) -> int:
    m = 0
    while f.eval(c) == f.dom.zero:
        f, m = derivative(f), m + 1
    return m


def tau32_counts_by_groebner(sys, degenerate, rng):
    """(bezout, distinct, simple, alpha_values) of a level-2 fiber system
    (`rat3.Tau32FiberSystem`) with its degenerate points, by Groebner bases.

    - bezout: the quotient dimension after a random change of coordinates,
      which moves every intersection point off z = 0;
    - affine points: the quotient dimension D_aff, the distinct count of
      agreeing random linear forms, and the non-simple ones through the
      basis with the Jacobian adjoined;
    - points on z = 0: the common roots of the two forms there, simple
      where the Jacobian of the chart alpha = 1 is nonzero;
    - alpha_values: the squarefree degree of the eliminant of alpha.

    It also checks the affine ledger: the affine degenerate points are the
    non-simple ones, and with their multiplicities as root multiplicities of
    a separating eliminant E they fill D_aff with the simple points.
    """
    F = sys.dom
    moved = [dehomogenize(linear_change(h, random_invertible(3, F, rng)), "z") for h in sys.hgens]
    bezout = quotient_dimension(buchberger(moved, GREVLEX))
    basis = buchberger(list(sys.gens), GREVLEX)
    d_affine = quotient_dimension(basis)
    n_affine = distinct_point_count(basis, rng)
    n_multiple = non_simple_point_count(list(sys.gens), rng)
    u = random_linear_form(sys.vars, F, rng)
    e = eliminant_of_form(basis, u)
    if squarefree_part(e).degree != n_affine:
        raise MathError("the linear form does not separate the affine points")
    affine = [pt[:2] for pt in degenerate if pt[2] != F.zero]
    assert n_multiple == len(affine)
    assert d_affine == (n_affine - n_multiple) + sum(_root_multiplicity(e, u.eval(pt)) for pt in affine)
    # the points on z = 0: (0 : 1 : 0) and the roots beta of the chart alpha = 1
    f1, f2 = (drop_vars(dehomogenize(substitute(h, {"z": F.zero}), "alpha"), ("z",)) for h in sys.hgens)
    line = squarefree_part(poly_gcd(to_unipoly(f1, "beta"), to_unipoly(f2, "beta")))
    roots = fp_roots(line, rng)
    if len(roots) != line.degree:
        raise MathError("a point on z = 0 is irrational")
    corner = all(F.is_zero(h.eval((F.zero, F.one, F.zero))) for h in sys.hgens)
    chart = [dehomogenize(h, "alpha") for h in sys.hgens]
    simple_line = sum(1 for b in roots if not F.is_zero(jacobian_det_at(chart, ("beta", "z"), (b, F.zero))))
    alpha = MultiPoly.gen(F, sys.vars, "alpha")
    alpha_values = squarefree_part(eliminant_of_form(basis, alpha)).degree
    distinct = n_affine + len(roots) + corner
    return bezout, distinct, n_affine - n_multiple + simple_line, alpha_values
