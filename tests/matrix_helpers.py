"""Dense matrix helpers that only the tests use: products, inverses and
random invertible matrices over a field domain."""

from multspec.errors import MathError
from multspec.exactalg import Domain, bareiss_det
from multspec.linalg import solve_linear


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
