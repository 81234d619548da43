"""Groebner routes that only the tests use.

The lex order, division of one polynomial by a basis, the reduction steps
of a Buchberger run whose reductions scan their reducers linearly,
S-polynomials, lex elimination, substitution, linear changes of variables,
dropping unused variables and dehomogenization, Jacobian determinants at a
point, the count of non-simple points through a basis with the Jacobian
adjoined, quotient-algebra elements written back as polynomials, the
fixed-configuration system built in d variables and cut down to d-1, the
Groebner route to the deg tau_{3,2} counts with the unreduced resultant
samples of a projected pair, and three distinct counts of a zero-dimensional
basis: two random forms that agree, the rank of Hermite's trace form and the
rank of Frobenius.  They check `buchberger` against its definition, the
level-2 fiber system against its geometry and `distinct_point_count`
against other theorems; the package itself works on packed reducers,
quotient contexts, reduced resultant samples and coordinate eliminants
instead.
"""

from operator import mul

from matrix_helpers import bareiss_det, mat_mul, random_invertible
from multspec import groebner
from multspec.errors import MathError, UsageError, work_limit
from multspec.exactalg import UniPoly, derivative, fp_roots, poly_gcd, resultant, squarefree_part
from multspec.groebner import (
    GREVLEX,
    IdealBasis,
    MonomialOrder,
    MultiPoly,
    _Packing,
    _reduce_terms,
    buchberger,
    eliminant_of_form,
    mono_div,
    mono_divides,
    mono_lcm,
    quotient_dimension,
    random_linear_form,
)
from multspec.linalg import row_reduce

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
    return pk.poly(f.dom, f.vars, _reduce_terms(pk.terms(f), red, {}, f.dom, pk))


def linear_scan_steps(gens, order=GREVLEX):
    """(basis, steps) of `buchberger` with every reduction done by a linear scan.

    Each reduction takes the largest remaining term by max() and tests every
    reducer in list order, on unpacked exponents, for the first divisor: no
    heap and no first-divisor memo.  `steps` counts the reduction steps a
    work limit is charged for (the generator and S-pair reductions; the
    interreduction runs unmetered), so `buchberger(gens)` must succeed under
    `work_limit(steps)` and fail under `work_limit(steps - 1)`.
    """
    steps = 0

    def reduce(h, reducers, memo, dom, packing, metered=False):
        nonlocal steps
        lts = [packing.unpack(lt) for lt, _, _ in reducers]
        rem = {}
        while h:
            m = max(h)
            lc = h.pop(m)
            e = packing.unpack(m)
            k = next((k for k, lt in enumerate(lts) if mono_divides(lt, e)), None)
            if k is None:
                rem[m] = lc
                continue
            lt, inv_lc, tail = reducers[k]
            c = dom.mul(lc, inv_lc)
            for t, ct in tail:
                t += m - lt
                v = dom.sub(h.get(t, dom.zero), dom.mul(c, ct))
                if dom.is_zero(v):
                    h.pop(t, None)
                else:
                    h[t] = v
            steps += metered
        return rem

    saved = groebner._reduce_terms
    groebner._reduce_terms = reduce
    try:
        with work_limit(1 << 62):
            basis = buchberger(gens, order)
    finally:
        groebner._reduce_terms = saved
    return basis, steps


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
    vanishes: the agreed form count of a basis with the Jacobian adjoined."""
    (f, g), (x, y) = gens, gens[0].vars
    jac = f.derivative(x) * g.derivative(y) - f.derivative(y) * g.derivative(x)
    return agreed_form_count(buchberger([f, g, jac], GREVLEX), rng)


# ---------------------------------------------------------------------------
# distinct counts by other theorems than `distinct_point_count`'s


def agreed_form_count(basis: IdealBasis, rng) -> int:
    """The squarefree degree of a random linear form's eliminant, once two
    consecutive forms of at most six agree.

    A form that separates the points has that many distinct eigenvalues, and
    over a large field a random form separates them with high probability.
    Over a small field two forms that both fail to separate can agree on too
    few points, so this count is for large fields only.
    """
    if basis.contains_one():
        return 0
    dom, last = basis.gens[0].dom, None
    for _ in range(6):
        count = squarefree_part(eliminant_of_form(basis, random_linear_form(basis.vars, dom, rng))).degree
        if count == last:
            return count
        last = count
    raise MathError("no two consecutive eliminant degrees of 6 agree")


def hermite_rank(basis: IdealBasis) -> int:
    """Rank of the trace form H_ij = Tr(b_i b_j) on Q = k[x]/I (Hermite; Cox,
    Little and O'Shea, Using Algebraic Geometry, ch. 2 section 5).

    H splits over the local factors of Q, and nilpotents have trace 0, so a
    point of multiplicity m adds 1 to the rank when the characteristic does
    not divide m and 0 when it does: over QQ, or over GF(p) with p > dim Q,
    the rank is the distinct count.  Tr(b_k) sums the b_i-coefficients of
    b_k b_i, and H_ij = sum_k c_ij^k Tr(b_k), read off the structure constants.
    """
    Q = basis.quotient
    F, D = Q.base, Q.dim
    rows = [Q._row(i) for i in range(D)]

    def total(values):
        acc = F.zero
        for v in values:
            acc = F.add(acc, v)
        return acc

    trace = [total(c for i in range(D) for k, c in rows[b][i] if k == i) for b in range(D)]
    form = [[total(F.mul(c, trace[k]) for k, c in rows[i][j]) for j in range(D)] for i in range(D)]
    return len(row_reduce(form, F)[1])


def frobenius_rank(basis: IdealBasis) -> int:
    """Rank of x -> x^(p^k) on Q = GF(p)[x]/I with p^k >= dim Q: the distinct
    count at any p.

    Frobenius is GF(p)-linear and multiplicative on Q.  Q is the product of
    its local factors, and a factor of dimension m has a maximal ideal N with
    N^m = 0, m <= dim Q <= p^k, so x^(p^k) kills exactly the nilradical and
    its rank is dim Q/nil(Q), the number of points over the algebraic
    closure.  The image of a standard monomial b = x_i b' is x_i^p b'^p, p
    multiplications by x_i applied to the image of b'.
    """
    Q = basis.quotient
    F, D, n = Q.base, Q.dim, len(Q.vars)
    p = F.p
    by = [Q.mult_matrix(Q.project(MultiPoly.gen(F, Q.vars, v))) for v in Q.vars]
    image = {(0,) * n: list(Q.one)}
    for b in sorted(Q.std, key=sum)[1:]:
        i = next(i for i, e in enumerate(b) if e)
        v = image[b[:i] + (b[i] - 1,) + b[i + 1 :]]
        for _ in range(p):
            v = [sum(map(mul, row, v)) % p for row in by[i]]
        image[b] = v
    # row j holds the image of b_j: the transpose of Frobenius, of the same rank
    frob = power = [image[b] for b in Q.std]
    q = p
    while q < D:
        power, q = mat_mul(power, frob, F), q * p
    return len(row_reduce(power, F)[1])


def to_multipoly(Q, a) -> MultiPoly:
    """The element a of the quotient algebra Q as a combination of standard monomials."""
    terms = {e: c for e, c in zip(Q.std, a) if not Q.base.is_zero(c)}
    return MultiPoly(Q.base, Q.vars, terms)


def config_system_by_substitution(dom, d: int, lambdas):
    """The product equations prod_{j != i}(z_i - z_j) - (lambda_i - 1), whose
    ideal `build_fixed_config_system` generates from the residue identities,
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


def restriction(forms, dom):
    """The map x -> [h1(x, Y, 1), h2(x, Y, 1)], polynomials in Y, of two forms
    in (X, Y, Z) given as term dicts over GF(p)."""
    p = dom.p
    tops = [max(map(sum, t)) for t in forms]
    cols = [[[0] * (top + 1) for _ in range(top + 1)] for top in tops]
    for t, cs in zip(forms, cols):
        for (a, b, _), c in t.items():
            cs[b][a] = c

    def at(x):
        pw = [pow(x, k, p) for k in range(max(tops) + 1)]
        return [UniPoly(dom, "Y", [sum(map(mul, col, pw)) % p for col in cs]) for cs in cols]

    return at


def unreduced_sample(forms, dom, x):
    """Res_Y(h1, h2)(x, 1) of two forms, from the restrictions to X = x at
    their actual Y-degrees: the sampler `rat3._y_reduction` replaces."""
    return resultant(*restriction(forms, dom)(x))


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
    n_affine = agreed_form_count(basis, rng)
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
