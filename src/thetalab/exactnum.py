"""Exact integer linear algebra on matrices given as lists of int rows.

Everything here works over arbitrary-precision integers; rational data enter
as integer rows at a known scale d (`scaled_gram` divides by d^2 exactly).
No floating point is used on any verified path.
"""

from __future__ import annotations

from operator import eq, getitem, mul
from typing import Sequence

# (d, lam) of `integral_gram_schmidt`.
GramSchmidt = tuple[list[int], list[list[int]]]


class NotPositiveDefiniteError(ValueError):
    """Raised when a symmetric matrix fails a positivity test."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"not positive definite: non-positive pivot at index {pivot_index}")


def scaled_gram(rows: Sequence[Sequence[int]], d: int) -> tuple[tuple[int, ...], ...]:
    """The Gram matrix B B^T / d^2 of the integer rows B.  Raises ValueError
    unless every entry divides exactly."""
    d2 = d * d
    n = len(rows)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            q, r = divmod(sum(map(mul, rows[i], rows[j])), d2)
            if r:
                raise ValueError("the rows do not have an integral Gram matrix")
            g[i][j] = g[j][i] = q
    return tuple(map(tuple, g))


def det_exact(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square list of integer rows, by Bareiss
    fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def scaled_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(d, R) with A R = d I for the square integer matrix A, d = +-det(A),
    by fraction-free Gauss-Jordan elimination on [A | I]: every row but the
    pivot row takes each step, so each division by the previous pivot is
    exact (Bareiss), and the left block ends as d I.  R is +-adj(A).
    Raises ValueError when A is singular."""
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                raise ValueError("singular matrix")
            a[k], a[swap] = a[swap], a[k]
        p, pivot_row = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return prev, [r[n:] for r in a]


def integral_gram_schmidt(g: Sequence[Sequence[int]]) -> GramSchmidt:
    """Integral Gram-Schmidt data of an integer Gram matrix (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7), without fractions.

    Returns (d, lam): d[i] is the determinant of the leading i x i block
    (d[0] = 1), and lam[i][j] = d[j + 1] * mu[i][j] for j < i, where
    G = M diag(d[k + 1] / d[k]) M^T with M unit lower-triangular, M[i][j] =
    mu[i][j].  Every division is exact.  Raises NotPositiveDefiniteError
    with the first k whose pivot d[k + 1] / d[k] is not positive.
    """
    n = len(g)
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
    return d, lam


def is_positive_semidefinite(rows: Sequence[Sequence[int]]) -> bool:
    """Exact PSD test of a square list of integer rows, in O(n^3).

    Symmetric fraction-free elimination on positive diagonal pivots: with
    p = A_kk > 0, A is PSD exactly when the Schur complement of A_kk is, and
    so when p times it is (Bareiss: the step divides exactly by the previous
    pivot, which is positive).  A matrix with no positive diagonal entry is
    PSD exactly when it is zero."""
    n = len(rows)
    if any(len(r) != n for r in rows) or not all(map(eq, zip(*rows), map(tuple, rows))):
        return False
    a = [list(r) for r in rows]
    prev = 1
    while a:
        diag = list(map(getitem, a, range(len(a))))
        p = max(diag)
        if p <= 0:
            return not any(map(any, a))
        k = diag.index(p)
        pivot = a.pop(k)
        del pivot[k]
        for r in a:
            c = r.pop(k)
            r[:] = [(p * x - c * y) // prev for x, y in zip(r, pivot)]
        prev = p
    return True


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    a = [list(r) for r in rows if any(r)]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, len(a)):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][col]
        # Every row below the pivot takes the update, also one whose entry in
        # this column is already 0: the exact division by the previous pivot
        # (Sylvester's identity) holds only if all rows went through each step.
        for i in range(rank + 1, len(a)):
            q = a[i][col]
            for j in range(col, ncols):
                a[i][j] = (a[i][j] * p - q * a[rank][j]) // prev
        prev = p
        rank += 1
        if rank == len(a):
            break
    return rank


def _hnf_int_rows(rows: list[list[int]]) -> list[list[int]]:
    """A basis of the Z-span of the integer rows in echelon form: the first
    nonzero entry (pivot) of each row is positive and right of the one
    above, so rows of rank r whose first r columns have rank r give r rows
    with their pivots in columns 0..r-1."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    basis: list[list[int]] = []
    col = 0
    while col < ncols and work:
        live = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not live:
            col += 1
            continue
        # Euclidean reduction on the current column.
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            new_live = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                rr = [x - q * y for x, y in zip(r, p)]
                if rr[col] != 0:
                    new_live.append(rr)
                elif any(rr):
                    rest.append(rr)
            live = new_live
        p = live[0]
        if p[col] < 0:
            p = [-x for x in p]
        basis.append(p)
        work = rest
        col += 1
    # Entries above each pivot into [0, pivot), last pivot first; a later
    # step can move them again, so the form is not canonical.
    for i in reversed(range(len(basis))):
        pcol = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            if basis[k][pcol] != 0:
                q = basis[k][pcol] // basis[i][pcol]
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return basis

