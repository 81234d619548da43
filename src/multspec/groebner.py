"""Multivariate polynomials, Buchberger, and zero-dimensional counting.

Monomials are bare exponent tuples (helper functions below); polynomials are
dicts mapping exponent tuples to nonzero coefficients over an exactalg
domain.  Buchberger uses the Gebauer-Moeller pair update and normal (minimal
lcm) selection, returns a reduced basis, and counts reduction steps against
an optional budget.

Inside reduction monomials are packed ints (``_Packing``): the order's
weight fields above the exponent fields, so a product is an int add, the
order is int comparison and divisibility is a guard-bit mask.  Division
takes leading terms off a heap, and Buchberger appends each new element to
one packed reducer list; each S-pair keeps its packed lcm from the moment
it is made.  Over GF(p), products of polynomials, the dense normal-form and
multiplication-matrix arithmetic and the sparse quotient-algebra products
run as ``% p`` kernels on plain ints; QQ takes the generic Domain path.

Counting distinct solutions never leaves the base field: a random linear
form u gets a multiplication matrix on the standard monomial basis, its
characteristic polynomial is the eliminant of u, and the degree of the
squarefree part counts distinct points over the algebraic closure.  Two
independent draws of u must agree.  A basis keeps its staircase and one
cache of normal-form vectors, so the matrices of later forms reuse the
normal forms of x_i * b computed for the first.  Rational points are extracted from left
eigenvectors of the multiplication matrix (the evaluation functionals),
which avoids one Groebner run per root.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul

from .errors import (
    AgreementError,
    BudgetExhaustedError,
    EliminantNotSplitError,
    FieldMismatchError,
    MathError,
    NonSimpleSolutionError,
    UsageError,
)
from .exactalg import Domain, PrimeField, UniPoly, poly_gcd, pow_mod, split_linear, squarefree_part
from .linalg import char_poly as _char_poly, row_reduce

# ---------------------------------------------------------------------------
# monomials as exponent tuples


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    """Exponent of b / a; caller must ensure a divides b."""
    return tuple(x - y for x, y in zip(b, a))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


class MonomialOrder:
    """Total order on exponent tuples via a sort key (larger key = larger).

    ``rows(n)`` gives integer weight rows that, compared before the
    exponents themselves, rank n-variable monomials the same way; they lay
    out the packed form used inside reduction (``_Packing``).
    """

    def __init__(self, name: str, key, rows):
        self.name = name
        self.key = key
        self.rows = rows

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


# grevlex ranks by the partial sums (deg, e_1 + ... + e_{n-1}, ..., e_1)
GREVLEX = MonomialOrder(
    "grevlex",
    lambda e: (sum(e), tuple(-x for x in reversed(e))),
    lambda n: [[1] * k + [0] * (n - k) for k in range(n, 0, -1)],
)

_FIELD = 32  # bits per packed field; the top bit of each guards overflow


class _Packing:
    """Monomials of one ring as ints: the order's weight rows, then e_1..e_n.

    Each row sum is one 32-bit field, most significant first.  Packing is
    additive, so a product is one integer add; comparing ints compares in
    the monomial order; and with the guard bits of the exponent fields,
    a | b reads ((b | guard) - a) & guard == guard.
    """

    def __init__(self, order: MonomialOrder, n: int):
        rows = order.rows(n) + [[int(i == j) for j in range(n)] for i in range(n)]
        top = len(rows) - 1
        self.weights = [sum(r[i] << _FIELD * (top - k) for k, r in enumerate(rows)) for i in range(n)]
        bit = 1 << _FIELD - 1
        self.guard = sum(bit << _FIELD * k for k in range(n))
        self.overflow = sum(bit << _FIELD * k for k in range(top + 1))
        self.n = n

    def pack(self, e):
        if sum(e) >= 1 << _FIELD - 1:
            raise UsageError(f"monomial degree {sum(e)} exceeds the packed range")
        return sum(map(mul, self.weights, e))

    def unpack(self, m):
        mask = (1 << _FIELD) - 1
        return tuple(m >> _FIELD * (self.n - 1 - i) & mask for i in range(self.n))

    def terms(self, poly):
        """Packed term dict of a MultiPoly, in descending order."""
        return dict(sorted(((self.pack(e), c) for e, c in poly.terms.items()), reverse=True))

    def poly(self, dom, vars_, terms):
        return MultiPoly(dom, vars_, {self.unpack(m): c for m, c in terms.items()})


# ---------------------------------------------------------------------------
# multivariate polynomials


class MultiPoly:
    """Sparse multivariate polynomial: dict of exponent tuple -> coefficient."""

    __slots__ = ("dom", "vars", "terms")

    def __init__(self, dom: Domain, vars: tuple, terms: dict):
        self.dom = dom
        self.vars = tuple(vars)
        n = len(self.vars)
        clean = {}
        for e, c in terms.items():
            if len(e) != n:
                raise UsageError("exponent arity does not match variables")
            if min(e, default=0) < 0:
                raise UsageError("negative exponent")
            if not dom.is_zero(c):
                clean[tuple(e)] = c
        self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls, dom, vars):
        return cls(dom, vars, {})

    @classmethod
    def const(cls, dom, vars, c):
        return cls(dom, vars, {(0,) * len(vars): c})

    @classmethod
    def gen(cls, dom, vars, name):
        i = tuple(vars).index(name)
        e = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(dom, vars, {e: dom.one})

    # -- structure

    @property
    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def leading(self, order: MonomialOrder):
        if not self.terms:
            raise MathError("leading term of zero polynomial")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.dom == other.dom
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=GREVLEX.key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    # -- arithmetic

    def _same(self, other):
        if self.dom != other.dom or self.vars != other.vars:
            raise FieldMismatchError("multivariate operands do not match")

    def __add__(self, other):
        self._same(other)
        dom = self.dom
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = dom.add(t.get(e, dom.zero), c)
            if dom.is_zero(s):
                t.pop(e, None)
            else:
                t[e] = s
        return MultiPoly(dom, self.vars, t)

    def __neg__(self):
        dom = self.dom
        return MultiPoly(dom, self.vars, {e: dom.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same(other)
        dom = self.dom
        out: dict = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if isinstance(dom, PrimeField):  # % p kernel: one reduction per product term
            for ea, ca in a.items():
                for eb, cb in b.items():
                    e = tuple(map(add, ea, eb))
                    out[e] = out.get(e, 0) + ca * cb
            return MultiPoly(dom, self.vars, {e: c % dom.p for e, c in out.items()})
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                s = dom.add(out.get(e, dom.zero), dom.mul(ca, cb))
                if dom.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(dom, self.vars, out)

    # -- calculus and substitution

    def derivative(self, name: str):
        i = self.vars.index(name)
        dom = self.dom
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1 :]
            s = dom.add(out.get(e2, dom.zero), dom.mul(c, dom.from_int(e[i])))
            if dom.is_zero(s):
                out.pop(e2, None)
            else:
                out[e2] = s
        return MultiPoly(dom, self.vars, out)

    def eval(self, values):
        if len(values) != len(self.vars):
            raise UsageError("wrong number of values")
        dom = self.dom
        acc = dom.zero
        for e, c in self.terms.items():
            t = c
            for v, k in zip(values, e):
                if k:
                    t = dom.mul(t, dom.pow(v, k))
            acc = dom.add(acc, t)
        return acc

    def homogenize(self, hvar: str):
        d = self.total_degree()
        vars2 = self.vars + (hvar,)
        out = {}
        for e, c in self.terms.items():
            out[e + (d - sum(e),)] = c
        return MultiPoly(self.dom, vars2, out)


# ---------------------------------------------------------------------------
# reduction and Buchberger


@dataclass(frozen=True)
class IdealBasis:
    vars: tuple
    order: MonomialOrder
    gens: tuple

    def contains_one(self):
        return any(g.total_degree() == 0 and not g.is_zero for g in self.gens)

    @cached_property
    def leading_exponents(self):
        return tuple(g.leading(self.order)[0] for g in self.gens)

    @cached_property
    def staircase(self):
        """Monomials outside the leading-term ideal, ascending in the order;
        None when there are infinitely many."""
        if self.contains_one():
            return ()
        lts = self.leading_exponents
        n = len(self.vars)
        bounds = [None] * n
        for e in lts:
            support = [i for i in range(n) if e[i]]
            if len(support) == 1:
                i = support[0]
                if bounds[i] is None or e[i] < bounds[i]:
                    bounds[i] = e[i]
        if None in bounds:
            return None
        box = itertools.product(*(range(b) for b in bounds))
        return tuple(sorted((e for e in box if not any(mono_divides(t, e) for t in lts)), key=self.order.key))

    @cached_property
    def normal_forms(self):
        """The one normal-form context of this (zero-dimensional) basis."""
        return _NormalForms(self)


def _reduce_terms(h: dict, reducers, dom, packing: _Packing, budget=None):
    """Full reduction of a packed term dict (consumed) by packed reducers.

    Reducers are (lt, inv_lc, tail), tail a list of (monomial, coefficient);
    the first whose lt divides the leading term is used.  Leading terms come
    off a max-heap, so each term is keyed once, when it is inserted.  The
    remainder comes out in descending order.
    """
    p = dom.p if isinstance(dom, PrimeField) else 0
    zero = dom.zero
    guard, overflow = packing.guard, packing.overflow
    heap = [-m for m in h]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        m = -heapq.heappop(heap)
        lc = h.pop(m, None)
        if lc is None:
            continue  # cancelled, or a second entry for a term already taken
        if m & overflow:
            raise UsageError("monomial degree exceeds the packed range")
        for lt, inv_lc, tail in reducers:
            if ((m | guard) - lt) & guard == guard:
                break
        else:
            rem[m] = lc
            continue
        shift = m - lt
        c = dom.mul(lc, inv_lc)
        for t, ct in tail:
            t += shift
            old = h.get(t)
            if old is None:
                heapq.heappush(heap, -t)
                old = zero
            s = (old - c * ct) % p if p else dom.sub(old, dom.mul(c, ct))
            if s == zero:
                h.pop(t, None)
            else:
                h[t] = s
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExhaustedError("reduction budget exhausted")
    return rem


def _monic(terms: dict, dom) -> dict:
    """A descending packed term dict scaled so its leading coefficient is 1."""
    inv = dom.inv(next(iter(terms.values())))
    return {m: dom.mul(c, inv) for m, c in terms.items()}


def _gm_update(red, lts, pairs, lcm_of, packing: _Packing):
    """Gebauer-Moeller pair update after appending the last generator k.

    ``lcm_of`` holds the packed lcm of every pair's leading terms, stored
    when the pair is made.  Returns the kept pairs, old ones first in the
    order of ``pairs``, and the new pairs (i, k) by ascending i.
    """
    k = len(lts) - 1
    t, pt = lts[k], red[k][0]
    guard = packing.guard
    new = [packing.pack(mono_lcm(lts[i], t)) for i in range(k)]
    kept = set()
    for i, j in pairs:
        lij = lcm_of[i, j]
        # criterion B: t | lcm(i, j), which differs from lcm(i, k) and lcm(j, k)
        if not (((lij | guard) - pt) & guard == guard and new[i] != lij and new[j] != lij):
            kept.add((i, j))
    # the minimal new lcms; a proper divisor is smaller in the order, so each
    # lcm is tested only against the smaller minimal ones
    minimal: set = set()
    for l in sorted(set(new)):
        if not any(((l | guard) - m) & guard == guard for m in minimal):
            minimal.add(l)
    by_lcm: dict = {}
    for i, l in enumerate(new):
        if l in minimal:
            by_lcm.setdefault(l, []).append(i)
    fresh = []
    for l, idxs in by_lcm.items():
        # coprime leading terms (lcm = product) make the whole class redundant
        if any(l == red[i][0] + pt for i in idxs):
            continue
        lcm_of[idxs[0], k] = l
        kept.add((idxs[0], k))
        fresh.append((idxs[0], k))
    return kept, fresh


def buchberger(
    gens,
    order: MonomialOrder = GREVLEX,
    budget: int | None = None,
) -> IdealBasis:
    """Reduced Groebner basis, normal selection + Gebauer-Moeller update.

    The basis is kept as one list of packed monic reducers, appended to as
    elements join; MultiPolys are built only for the reduced basis.  Pairs
    wait on a heap keyed by their packed lcm, which sorts like the order.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise UsageError("empty generating set")
    dom = gens[0].dom
    vars_ = gens[0].vars
    for g in gens:
        if g.dom != dom or g.vars != vars_:
            raise FieldMismatchError("generators over mismatched rings")
    if not dom.is_field:
        raise UsageError("buchberger requires a field domain")
    counter = [budget if budget is not None else -1]
    track = counter if budget is not None else None

    pk = _Packing(order, len(vars_))
    red: list = []  # (lt, 1, tail) per basis element, packed
    lts: list = []  # leading exponent tuples, for the pair update
    lcm_of: dict = {}  # pair -> packed lcm of its leading terms

    def join(rem):
        rem = _monic(rem, dom)
        (lt, one), *tail = rem.items()
        red.append((lt, one, tail))
        lts.append(pk.unpack(lt))

    pairs: set = set()
    for g in gens:
        rem = _reduce_terms(pk.terms(g), red, dom, pk, track)
        if rem:
            join(rem)
            pairs, _ = _gm_update(red, lts, pairs, lcm_of, pk)

    # ties between equal lcms go to the pair pushed first
    heap = [(lcm_of[p], tick, *p) for tick, p in enumerate(pairs)]
    heapq.heapify(heap)
    tick = len(heap)
    in_heap = pairs

    while heap:
        l, _, i, j = heapq.heappop(heap)
        if (i, j) not in in_heap:
            continue
        in_heap.discard((i, j))
        # S-polynomial of two monic elements: the leading terms cancel
        (lti, _, taili), (ltj, _, tailj) = red[i], red[j]
        s = {t + l - lti: c for t, c in taili}
        for t, c in tailj:
            t += l - ltj
            v = dom.sub(s.get(t, dom.zero), c)
            if dom.is_zero(v):
                s.pop(t, None)
            else:
                s[t] = v
        if not s:
            continue
        rem = _reduce_terms(s, red, dom, pk, track)
        if not rem:
            continue
        join(rem)
        in_heap, fresh = _gm_update(red, lts, in_heap, lcm_of, pk)
        for p in fresh:
            heapq.heappush(heap, (lcm_of[p], tick, *p))
            tick += 1

    # minimalize: drop generators whose LT is divisible by another LT
    guard = pk.guard
    plts = [r[0] for r in red]
    keep = [
        i
        for i, a in enumerate(plts)
        if not any(j != i and ((a | guard) - b) & guard == guard and (b != a or j < i) for j, b in enumerate(plts))
    ]
    # interreduce tails
    reduced = []
    for i in keep:
        lt, one, tail = red[i]
        rem = _reduce_terms({lt: one, **dict(tail)}, [red[j] for j in keep if j != i], dom, pk)
        if rem:
            reduced.append(_monic(rem, dom))
    reduced.sort(key=lambda r: next(iter(r)), reverse=True)
    gens_out = tuple(pk.poly(dom, vars_, r) for r in reduced)
    return IdealBasis(vars=vars_, order=order, gens=gens_out)


# ---------------------------------------------------------------------------
# zero-dimensional structure


def quotient_dimension(basis: IdealBasis):
    """Dimension of the quotient algebra, or None when infinite."""
    std = basis.staircase
    return None if std is None else len(std)


def standard_monomials(basis: IdealBasis):
    """Monomials outside the leading-term ideal, ascending in the order."""
    if basis.staircase is None:
        raise MathError("quotient algebra is infinite dimensional")
    return list(basis.staircase)


def multiplication_matrix(basis: IdealBasis, u: MultiPoly):
    """Matrix of multiplication by u on the standard monomial basis."""
    std = standard_monomials(basis)
    nf = basis.normal_forms
    cols = [
        _combine(u.dom, [(c, nf.vector(mono_mul(e, b))) for e, c in u.terms.items()], len(std))
        for b in std
    ]
    return [list(row) for row in zip(*cols)], std


def _combine(dom, pairs, D):
    """Dense sum of c * vec over (c, vec) pairs; a % p kernel over GF(p)."""
    if isinstance(dom, PrimeField):
        acc = [0] * D
        for c, vec in pairs:
            acc = [a + c * v for a, v in zip(acc, vec)]
        return [a % dom.p for a in acc]
    acc = [dom.zero] * D
    for c, vec in pairs:
        for k, v in enumerate(vec):
            if not dom.is_zero(v):
                acc[k] = dom.add(acc[k], dom.mul(c, v))
    return acc


def _sparse_sum(dom, pairs, D):
    """Dense sum of c * row over (c, row) pairs, each row a sparse list of
    (index, coefficient); over GF(p) one ``% p`` per coordinate at the end."""
    if isinstance(dom, PrimeField):
        acc = [0] * D
        for c, row in pairs:
            for k, v in row:
                acc[k] += c * v
        return [a % dom.p for a in acc]
    acc = [dom.zero] * D
    for c, row in pairs:
        for k, v in row:
            acc[k] = dom.add(acc[k], dom.mul(c, v))
    return acc


class _NormalForms:
    """Normal forms of monomials as dense vectors over the standard monomials.

    Built once per basis (``IdealBasis.normal_forms``) and filled in as
    monomials are asked for, so every multiplication matrix, eliminant and
    quotient algebra on that basis shares the vectors already computed.
    Cached vectors are shared: callers must not mutate them.
    """

    def __init__(self, basis: IdealBasis):
        self.dom = basis.gens[0].dom if basis.gens else None
        self.gb = [(lt, g.terms) for lt, g in zip(basis.leading_exponents, basis.gens)]
        self.index = {e: i for i, e in enumerate(basis.staircase)}
        self.cache = {}

    def vector(self, target):
        cache = self.cache
        if target in cache:
            return cache[target]
        dom, index = self.dom, self.index
        D = len(index)
        stack = [target]
        while stack:
            e = stack[-1]
            if e in cache:
                stack.pop()
                continue
            if e in index:
                vec = [dom.zero] * D
                vec[index[e]] = dom.one
                cache[e] = vec
                stack.pop()
                continue
            hit = None
            for lt, terms in self.gb:
                if mono_divides(lt, e):
                    hit = (lt, terms)
                    break
            if hit is None:
                raise MathError("monomial outside standard set has no reducer")
            lt, terms = hit
            shift = mono_div(e, lt)
            children = [(mono_mul(et, shift), ct) for et, ct in terms.items() if et != lt]
            missing = [e2 for e2, _ in children if e2 not in cache]
            if missing:
                stack.extend(missing)
                continue
            cache[e] = _combine(dom, [(dom.neg(ct), cache[e2]) for e2, ct in children], D)
            stack.pop()
        return cache[target]


class QuotientAlgebra(Domain):
    """F[x_1..x_n]/I as a coefficient ring, for zero-dimensional I.

    Elements are coordinate tuples over the standard monomial basis b_1..b_D.
    The structure constants, the normal forms of the products b_i * b_j, are
    built once as sparse (index, coefficient) lists: a product sums only the
    nonzero x_i * y_j * c_ijk terms and needs no reduction (over GF(p), one
    ``% p`` per coordinate at the end).  This is a ring with zero divisors,
    not a field: only Domain ring operations are available, which is enough
    to evaluate polynomial expressions simultaneously at every point of the
    scheme.
    """

    is_field = False

    def __init__(self, basis: IdealBasis):
        if quotient_dimension(basis) is None:
            raise UsageError("quotient algebra needs a zero-dimensional ideal")
        if basis.contains_one():
            raise UsageError("quotient algebra of the unit ideal is trivial")
        self.basis = basis
        base = self.base = basis.gens[0].dom
        self.char = base.char
        self.vars = basis.vars
        std = self.std = standard_monomials(basis)
        self.dim = len(std)
        self._nf = basis.normal_forms
        self._index = self._nf.index
        one = [base.zero] * self.dim
        one[self._index[(0,) * len(self.vars)]] = base.one
        self.zero = (base.zero,) * self.dim
        self.one = tuple(one)
        table = self._table = [[None] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i, self.dim):
                v = self._nf.vector(mono_mul(std[i], std[j]))
                table[i][j] = table[j][i] = [(k, c) for k, c in enumerate(v) if not base.is_zero(c)]

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        base, table = self.base, self._table
        bs = [(j, y) for j, y in enumerate(b) if not base.is_zero(y)]
        pairs = [(base.mul(x, y), table[i][j]) for i, x in enumerate(a) if not base.is_zero(x) for j, y in bs]
        return tuple(_sparse_sum(base, pairs, self.dim))

    def is_zero(self, a):
        return all(self.base.is_zero(c) for c in a)

    def from_int(self, n):
        c = self.base.from_int(n)
        out = [self.base.zero] * self.dim
        out[self._index[(0,) * len(self.vars)]] = c
        return tuple(out)

    def project(self, f: MultiPoly):
        """Image of a polynomial in the quotient."""
        if f.dom != self.base or f.vars != self.vars:
            raise FieldMismatchError("polynomial over a different ring")
        pairs = [(c, self._nf.vector(e)) for e, c in f.terms.items()]
        return tuple(_combine(self.base, pairs, self.dim))

    def mult_matrix(self, a):
        """Matrix of multiplication by the element a on the standard basis."""
        base, table = self.base, self._table
        nz = [(k, c) for k, c in enumerate(a) if not base.is_zero(c)]
        cols = [_sparse_sum(base, [(c, table[k][j]) for k, c in nz], self.dim) for j in range(self.dim)]
        return [list(row) for row in zip(*cols)]

    def __repr__(self):
        return f"{self.base!r}[{','.join(self.vars)}]/I(dim {self.dim})"

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)


def random_linear_form(vars_, dom, rng) -> MultiPoly:
    while True:
        coeffs = [dom.rand(rng) for _ in vars_]
        if any(not dom.is_zero(c) for c in coeffs):
            break
    terms = {}
    for i, c in enumerate(coeffs):
        if not dom.is_zero(c):
            e = tuple(1 if j == i else 0 for j in range(len(vars_)))
            terms[e] = c
    return MultiPoly(dom, tuple(vars_), terms)


def eliminant_of_form(basis: IdealBasis, u: MultiPoly, var: str = "t") -> UniPoly:
    """Characteristic polynomial of multiplication by u on the quotient."""
    m, _ = multiplication_matrix(basis, u)
    return _char_poly(m, u.dom, var)


_COUNT_ATTEMPTS = 6


def distinct_point_count(basis: IdealBasis, rng) -> int:
    """Number of distinct solutions over the algebraic closure.

    The count is the degree of the squarefree part of the eliminant of a
    random linear form; two consecutive independent draws must agree.
    """
    if basis.contains_one():
        return 0
    dom = basis.gens[0].dom
    counts = []
    for _ in range(_COUNT_ATTEMPTS):
        u = random_linear_form(basis.vars, dom, rng)
        counts.append(squarefree_part(eliminant_of_form(basis, u)).degree)
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            return counts[-1]
    raise AgreementError(f"eliminant degrees kept disagreeing: {counts}")


def solve_rational_points(basis: IdealBasis, rng):
    """All solutions with coordinates in the base prime field.

    Requires the eliminant of a separating form to split into distinct
    linear factors over GF(p); raises EliminantNotSplitError otherwise so
    callers can retry with another prime.  A squarefree eliminant of degree
    D that splits proves D distinct rational points, so they are not
    recounted.  Points are read off left eigenvectors of the multiplication
    matrix (evaluation functionals).
    """
    dom = basis.gens[0].dom
    if not isinstance(dom, PrimeField):
        raise UsageError("rational point extraction works over prime fields")
    if basis.contains_one():
        return []
    D = len(standard_monomials(basis))
    if D == 0:
        return []
    nf = basis.normal_forms
    one_exp = (0,) * len(basis.vars)
    if one_exp not in nf.index:
        raise MathError("constant monomial missing from standard basis")
    j0 = nf.index[one_exp]

    # E squarefree iff the scheme is reduced AND u separates; a fresh u fixes
    # the second failure mode, so retry a few forms before giving up
    m = e = esf = None
    for _ in range(4):
        u = random_linear_form(basis.vars, dom, rng)
        m, _ = multiplication_matrix(basis, u)
        e = _char_poly(m, dom)
        esf = squarefree_part(e)
        if esf.degree == e.degree:
            break
    else:
        raise NonSimpleSolutionError("eliminant is not squarefree")
    x = UniPoly.gen(dom, esf.var)
    frob = pow_mod(x, dom.p, esf)
    if poly_gcd(esf, frob - x).degree != esf.degree:
        raise EliminantNotSplitError("eliminant does not split over GF(p)")
    roots = sorted(split_linear(esf, rng))

    # normal forms of the coordinate functions, for coordinate read-off
    n = len(basis.vars)
    coord_vecs = [nf.vector(tuple(int(j == i) for j in range(n))) for i in range(n)]

    points = []
    for theta in roots:
        # left kernel of (M - theta I): evaluation functional of the point
        a = [[dom.sub(m[i][j], theta if i == j else dom.zero) for i in range(D)] for j in range(D)]
        w = _kernel_vector(a, dom)
        if dom.is_zero(w[j0]):
            raise NonSimpleSolutionError("eigenfunctional does not evaluate 1")
        inv = dom.inv(w[j0])
        w = [dom.mul(c, inv) for c in w]
        pt = tuple(
            _dot(dom, w, cv) for cv in coord_vecs
        )
        for g in basis.gens:
            if not dom.is_zero(g.eval(pt)):
                raise MathError("extracted point fails to satisfy the system")
        points.append(pt)
    if len(set(points)) != len(points):
        raise NonSimpleSolutionError("separating form failed to separate")
    return points


def _dot(dom, a, b):
    acc = dom.zero
    for x, y in zip(a, b):
        if not dom.is_zero(x) and not dom.is_zero(y):
            acc = dom.add(acc, dom.mul(x, y))
    return acc


def _kernel_vector(rows, dom):
    """One nonzero kernel vector; raises when nullity != 1."""
    n = len(rows)
    m, pivots = row_reduce(rows, dom)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise NonSimpleSolutionError(f"kernel dimension {len(free)} != 1")
    fc = free[0]
    v = [dom.zero] * n
    v[fc] = dom.one
    for r, c in enumerate(pivots):
        v[c] = dom.neg(m[r][fc])
    return v
