"""Exact dense linear algebra over field domains.

Small matrices only: one Gauss-Jordan row reduction for linear solves and
kernel vectors, and characteristic polynomials of multiplication operators.
The characteristic polynomial goes through a Hessenberg reduction (similarity
transforms, so the polynomial is unchanged) followed by the standard
recurrence, O(n^3) field operations total, which keeps 100-200 dimensional
quotient algebras tractable in exact arithmetic.  It is one loop for QQ and
GF(p), on native operators: one list comprehension per row step, the column
steps of one stage applied together, and over GF(p) a ``% p`` inside each.
"""

from __future__ import annotations

from .errors import MathError, UsageError, spend
from .exactalg import Domain, UniPoly


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
    """Monic characteristic polynomial det(t*I - M) over a field.

    One loop on native operators for both fields: over GF(p) the entries are
    ints and ``% p`` is applied inside each row step, after the batched
    column steps and once per recurrence row; over QQ (p = 0) they are
    Fractions and nothing is reduced.  It spends its dimension in work units.
    """
    if not dom.is_field:
        raise UsageError("char_poly requires a field domain")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise UsageError("char_poly expects a square matrix")
    spend(n, "characteristic polynomial")
    p = dom.char
    h = [list(r) for r in rows]
    # similarity reduction to upper Hessenberg form
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for r in h:
                r[j + 1], r[piv] = r[piv], r[j + 1]
        inv = dom.inv(h[j + 1][j])
        hj1 = h[j + 1][j:]
        fs = [(i, h[i][j] * inv % p if p else h[i][j] * inv) for i in range(j + 2, n) if h[i][j]]
        for i, f in fs:  # columns left of j are already zero in rows j+1..n-1
            hi = h[i][j:]
            h[i][j:] = [(a - f * b) % p for a, b in zip(hi, hj1)] if p else [a - f * b for a, b in zip(hi, hj1)]
        # the column steps commute, so they are applied together
        if fs:
            for r in h:
                s = r[j + 1] + sum([f * r[i] for i, f in fs])
                r[j + 1] = s % p if p else s
    # p_m(t) = (t - h[m][m]) p_{m-1} - sum_i h[i][m] (prod subdiag) p_{i-1}
    polys = [[dom.one]]
    for m in range(n):
        prev = polys[m]
        cur = [dom.zero] + prev  # t * p_{m-1}
        cur[: m + 1] = [a - h[m][m] * b for a, b in zip(cur, prev)]
        run = dom.one
        for i in range(m - 1, -1, -1):
            run = run * h[i + 1][i] % p if p else run * h[i + 1][i]
            if not run:
                break
            coef = h[i][m] * run % p if p else h[i][m] * run
            if coef:
                cur[: i + 1] = [a - coef * b for a, b in zip(cur, polys[i])]
        polys.append([a % p for a in cur] if p else cur)
    return UniPoly(dom, var, polys[n])
