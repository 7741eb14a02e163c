"""Exact short-vector enumeration for positive definite integer Gram matrices.

The recursion is the usual Fincke-Pohst walk over an LDL factorization, but
every bound is computed in scaled integer arithmetic (no floating point), so
the output is complete and duplicate-free by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Callable

from .exactnum import NotPositiveDefiniteError, RatMatrix, ldl_rational


def lll_gram(gram: list[list[int]], delta: Fraction = Fraction(3, 4)) -> tuple[list[list[int]], list[list[int]]]:
    """Exact LLL reduction driven by the Gram matrix alone.

    Returns (reduced_gram, u) with reduced_gram = u * gram * u^T and u unimodular.
    The Gram-Schmidt data are kept in integers and updated in place at every
    step (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7):
    d[i] is the Gram determinant of the first i basis vectors and
    lam[i][j] = d[j + 1] * mu[i][j].  Raises NotPositiveDefiniteError when a
    leading minor is not positive.
    """
    n = len(gram)
    g = [[int(x) for x in row] for row in gram]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n <= 1:
        return g, u
    delta = Fraction(delta)

    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            x = g[i][j]
            for l in range(j):
                x = (d[l + 1] * x - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = x
            elif x <= 0:
                raise NotPositiveDefiniteError(i)
            else:
                d[i + 1] = x

    def row_sub(i, j, q):
        # basis_i -= q * basis_j, applied to gram, transform and lam
        for t in range(n):
            u[i][t] -= q * u[j][t]
        for t in range(n):
            g[i][t] -= q * g[j][t]
        for t in range(n):
            g[t][i] -= q * g[t][j]
        lam[i][j] -= q * d[j + 1]
        for t in range(j):
            lam[i][t] -= q * lam[j][t]

    def row_swap(k):
        # exchange basis_k and basis_{k-1}
        u[k], u[k - 1] = u[k - 1], u[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        lk, lk1 = lam[k], lam[k - 1]
        for t in range(k - 1):
            lk[t], lk1[t] = lk1[t], lk[t]
        m = lk[k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
        d[k] = b

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            # q = floor(mu[k][j] + 1/2)
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
            if q != 0:
                row_sub(k, j, q)
        # Lovasz: bstar_k >= (delta - mu[k][k-1]^2) bstar_{k-1}, times d[k] d[k-1] > 0
        m = lam[k][k - 1]
        if (d[k + 1] * d[k - 1] + m * m) * delta.denominator >= delta.numerator * d[k] * d[k]:
            k += 1
        else:
            row_swap(k)
            k = max(k - 1, 1)
    return g, u


class _ScaledLdl:
    """Integer-scaled LDL data for exact bound predicates during enumeration."""

    def __init__(self, gram: list[list[int]]):
        n = len(gram)
        d, umat = ldl_rational(RatMatrix.from_rows(gram))
        self.n = n
        # Row denominators for the unit-triangular factor.
        self.m = [lcm(*[umat.rows[i][j].denominator for j in range(i, n)]) for i in range(n)]
        self.v = [[int(umat.rows[i][j] * self.m[i]) for j in range(n)] for i in range(n)]
        # Common scale so that all level weights are integers.
        scale = 1
        for i in range(n):
            scale = lcm(scale, d[i].denominator * self.m[i] * self.m[i])
        self.scale = scale
        self.w = [int(d[i] * scale) // (self.m[i] * self.m[i]) for i in range(n)]
        for i in range(n):
            assert self.w[i] * self.m[i] * self.m[i] == d[i] * scale


def _walk(gram: list[list[int]], bound: int, visit: Callable[[list[int], int], None]) -> None:
    """Visit every nonzero x with 0 < x^T gram x <= bound as (coords, norm)."""
    n = len(gram)
    if n == 0 or bound <= 0:
        return
    ldl = _ScaledLdl(gram)
    scale = ldl.scale
    w, v, m = ldl.w, ldl.v, ldl.m
    x = [0] * n
    # centers[i] holds sum_{j>i} v[i][j] * x[j]; the true center is centers[i]/m[i].
    centers = [0] * n
    top_budget = bound * scale

    def rec(i: int, budget: int):
        wi = w[i]
        ci = centers[i]
        mi = m[i]
        s = isqrt(budget // wi)
        xi_min = -((ci + s) // mi)          # ceil((-ci - s) / mi)
        xi_max = (s - ci) // mi             # floor((-ci + s) / mi)
        if i == 0:
            for xi in range(xi_min, xi_max + 1):
                t = mi * xi + ci
                rem = budget - wi * t * t
                if rem >= 0 and rem < top_budget:
                    x[0] = xi
                    visit(x, (top_budget - rem) // scale)
            return
        for xi in range(xi_min, xi_max + 1):
            t = mi * xi + ci
            rem = budget - wi * t * t
            if rem < 0:
                continue
            x[i] = xi
            for k in range(i):
                centers[k] += v[k][i] * xi
            rec(i - 1, rem)
            for k in range(i):
                centers[k] -= v[k][i] * xi

    rec(n - 1, top_budget)


def shells_upto(gram: list[list[int]], bound: int) -> dict[int, list[tuple[int, ...]]]:
    """All nonzero vectors with norm <= bound, grouped by norm (coords in the given basis)."""
    out: dict[int, list[tuple[int, ...]]] = {}
    _walk(gram, bound, lambda x, q: out.setdefault(q, []).append(tuple(x)))
    return out


def counts_upto(gram: list[list[int]], bound: int) -> dict[int, int]:
    """Counts of nonzero vectors by norm <= bound, without storing them."""
    out: dict[int, int] = {}

    def visit(_x, q):
        out[q] = out.get(q, 0) + 1

    _walk(gram, bound, visit)
    return out
