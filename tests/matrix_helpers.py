"""Dense matrix helpers that only the tests use: exact quotients,
fraction-free determinants, products, inverses and random invertible
matrices."""

from multspec.errors import MathError
from multspec.exactalg import ZZ, Domain
from multspec.linalg import solve_linear


def exact_quotient(dom: Domain, a, b):
    """a / b where b divides a: field division, integer division that checks
    its remainder, or the ring's own exact_div (PolyRing)."""
    if dom.is_field:
        return dom.div(a, b)
    if dom == ZZ:
        q, r = divmod(a, b)
        if r:
            raise MathError("inexact integer division")
        return q
    return dom.exact_div(a, b)


def bareiss_det(rows, dom: Domain):
    """Fraction-free determinant over an integral domain."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return dom.one
    sign = 1
    prev = dom.one
    for k in range(n - 1):
        if dom.is_zero(m[k][k]):
            for i in range(k + 1, n):
                if not dom.is_zero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return dom.zero
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = dom.sub(dom.mul(m[i][j], piv), dom.mul(m[i][k], m[k][j]))
                m[i][j] = exact_quotient(dom, t, prev)
            m[i][k] = dom.zero
        prev = piv
    det = m[n - 1][n - 1]
    return dom.neg(det) if sign < 0 else det


def mat_mul(a, b, dom: Domain):
    n, k, m = len(a), len(b), len(b[0])
    out = [[dom.zero] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = dom.zero
            for t in range(k):
                acc = dom.add(acc, dom.mul(a[i][t], b[t][j]))
            out[i][j] = acc
    return out


def mat_inverse(rows, dom: Domain):
    """Inverse of a square matrix over a field; MathError when singular."""
    n = len(rows)
    cols = []
    for j in range(n):
        e = [dom.one if i == j else dom.zero for i in range(n)]
        cols.append(solve_linear(rows, e, dom))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def random_invertible(n: int, dom: Domain, rng):
    """Random n x n invertible matrix over a field domain."""
    for _ in range(64):
        m = [[dom.rand(rng) for _ in range(n)] for _ in range(n)]
        if not dom.is_zero(bareiss_det(m, dom)):
            return m
    raise MathError("failed to draw an invertible matrix")
