"""Groebner routes that only the tests use.

The lex order, division of one polynomial by a basis, S-polynomials, lex
elimination, dehomogenization, Jacobian determinants at a point, the count
of non-simple points through a basis with the Jacobian adjoined, and
quotient-algebra elements written back as polynomials.  They check
`buchberger` against its definition and the level-2 fiber system against
its geometry; the package itself works on packed reducers and quotient
contexts instead.
"""

from matrix_helpers import bareiss_det
from multspec.errors import UsageError
from multspec.groebner import (
    GREVLEX,
    IdealBasis,
    MonomialOrder,
    MultiPoly,
    _Packing,
    _reduce_terms,
    buchberger,
    distinct_point_count,
    mono_div,
    mono_lcm,
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


def dehomogenize(f: MultiPoly, name: str) -> MultiPoly:
    return f.substitute({name: f.dom.one}).drop_vars([name])


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
    kept = [g.drop_vars(dropped) for g in gb.gens if all(not any(e[: len(dropped)]) for e in g.terms)]
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
    return distinct_point_count(buchberger([f, g, jac], GREVLEX), rng)[0]


def to_multipoly(Q, a) -> MultiPoly:
    """The element a of the quotient algebra Q as a combination of standard monomials."""
    terms = {e: c for e, c in zip(Q.std, a) if not Q.base.is_zero(c)}
    return MultiPoly(Q.base, Q.vars, terms)
