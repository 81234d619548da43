"""Exact dense linear algebra over field domains.

Small matrices only: one Gauss-Jordan row reduction for linear solves and
kernel vectors, and characteristic polynomials of multiplication operators.
The characteristic polynomial goes through a Hessenberg reduction (similarity
transforms, so the polynomial is unchanged) followed by the standard
recurrence, O(n^3) field operations total, which keeps 100-200 dimensional
quotient algebras tractable in exact arithmetic.  Over GF(p) it runs as a
kernel on plain ints with ``% p``, one list comprehension per row step and
the column steps of one stage applied together.
"""

from __future__ import annotations

from .errors import MathError, UsageError
from .exactalg import Domain, PrimeField, UniPoly


def row_reduce(rows, dom: Domain):
    """Reduced row echelon form over a field, by Gauss-Jordan elimination.

    Returns the reduced rows and the pivot column of each nonzero row.
    """
    if not dom.is_field:
        raise UsageError("row reduction requires a field domain")
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if not dom.is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = dom.inv(m[r][c])
        m[r] = [dom.mul(x, inv) for x in m[r]]
        for i in range(len(m)):
            if i != r and not dom.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [dom.sub(a, dom.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def solve_linear(rows, rhs, dom: Domain):
    """Solve A x = b over a field; raises MathError when singular."""
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise UsageError("solve_linear expects a square system")
    m, pivots = row_reduce([list(r) + [b] for r, b in zip(rows, rhs)], dom)
    if pivots[:n] != list(range(n)):
        raise MathError("singular linear system")
    return [m[i][n] for i in range(n)]


def char_poly(rows, dom: Domain, var: str = "t") -> UniPoly:
    """Monic characteristic polynomial det(t*I - M) over a field."""
    if not dom.is_field:
        raise UsageError("char_poly requires a field domain")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise UsageError("char_poly expects a square matrix")
    if n == 0:
        return UniPoly.const(dom, var, dom.one)
    if isinstance(dom, PrimeField):
        return UniPoly(dom, var, _char_poly_mod(rows, dom.p))
    h = [list(r) for r in rows]
    # similarity reduction to upper Hessenberg form
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if not dom.is_zero(h[i][j]):
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for r in h:
                r[j + 1], r[piv] = r[piv], r[j + 1]
        inv = dom.inv(h[j + 1][j])
        for i in range(j + 2, n):
            if dom.is_zero(h[i][j]):
                continue
            f = dom.mul(h[i][j], inv)
            hi, hj1 = h[i], h[j + 1]
            for k in range(n):
                hi[k] = dom.sub(hi[k], dom.mul(f, hj1[k]))
            for r in h:
                r[j + 1] = dom.add(r[j + 1], dom.mul(f, r[i]))
    # p_m(t) = (t - h[m][m]) p_{m-1} - sum_i h[i][m] (prod subdiag) p_{i-1}
    zero, one = dom.zero, dom.one
    polys = [[one]]
    for m in range(n):
        prev = polys[m]
        cur = [zero] + list(prev)  # t * p_{m-1}
        c = h[m][m]
        for k in range(len(prev)):
            cur[k] = dom.sub(cur[k], dom.mul(c, prev[k]))
        run = one
        for i in range(m - 1, -1, -1):
            run = dom.mul(run, h[i + 1][i])
            coef = dom.mul(h[i][m], run)
            if not dom.is_zero(coef):
                pi = polys[i]
                for k in range(len(pi)):
                    cur[k] = dom.sub(cur[k], dom.mul(coef, pi[k]))
        polys.append(cur)
    return UniPoly(dom, var, polys[n])


def _char_poly_mod(rows, p):
    """char_poly over GF(p) on plain ints: same Hessenberg steps, % p."""
    n = len(rows)
    h = [list(r) for r in rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for r in h:
                r[j + 1], r[piv] = r[piv], r[j + 1]
        inv = pow(h[j + 1][j], -1, p)
        hj1 = h[j + 1]
        fs = [(i, h[i][j] * inv % p) for i in range(j + 2, n) if h[i][j]]
        for i, f in fs:  # columns left of j are already zero in rows j+1..n-1
            h[i][j:] = [(a - f * b) % p for a, b in zip(h[i][j:], hj1[j:])]
        # the column steps commute, so they are applied together
        if fs:
            for r in h:
                r[j + 1] = (r[j + 1] + sum([f * r[i] for i, f in fs])) % p
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        cur = [0] + prev  # t * p_{m-1}
        cur[: m + 1] = [a - h[m][m] * b for a, b in zip(cur, prev)]
        run = 1
        for i in range(m - 1, -1, -1):
            run = run * h[i + 1][i] % p
            if not run:
                break
            coef = h[i][m] * run % p
            if coef:
                cur[: i + 1] = [a - coef * b for a, b in zip(cur, polys[i])]
        polys.append([a % p for a in cur])
    return polys[n]
