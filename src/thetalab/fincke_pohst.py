"""Exact short-vector enumeration for positive definite integer Gram matrices.

The walk is Fincke-Pohst (Math. Comp. 44, 1985) on the integral Gram-Schmidt
data of the Gram matrix (`exactnum.integral_gram_schmidt`): the leading
minors D_i and lam[j][i] = D_{i+1} mu[j][i], with no common scale.  The
walks take these data, not the Gram matrix: `lll_gram` returns them for the
reduced basis it computes, so a lattice's Gram-Schmidt is done once.  Level i
fixes x_i given x_{i+1..n-1}; with

    t_i = D_{i+1} x_i + sum_{j>i} lam[j][i] x_j,
    N_i = (t_i^2 + D_i N_{i+1}) / D_{i+1},   N_n = 0,

N_i is D_i times the norm of x projected away from b_0..b_{i-1} (an integer,
so the division is exact) and N_0 = x G x^T.  A prefix is kept while
N_i <= bound D_i, that is t_i^2 <= bound D_i D_{i+1} - D_i N_{i+1}.

The walk runs in numpy: each level expands a frontier of prefixes at once
(one gather per level from each child to its prefix), depth first in chunks
of at most _CHUNK children, so memory stays bounded.  Every intermediate is
bounded from D and the bound before the walk starts; when that bound does
not fit int64 the same code runs on arrays of Python ints.  The coordinates
are kept in the narrowest signed dtype that holds their bound.  Square roots
come from a table when the walk is int64 and every radicand lies below
_TABLE_LIMIT, else from math.isqrt per entry or integer Newton steps.
Nothing uses floating point, so the output is complete and duplicate-free
by construction.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import isqrt
from typing import Iterator

from .exactnum import GramSchmidt, integral_gram_schmidt
from .lazy import lazy_module

np = lazy_module("numpy")


def lll_gram(
    gram: list[list[int]], delta: Fraction = Fraction(3, 4)
) -> tuple[list[list[int]], list[list[int]], list[int], list[list[int]]]:
    """Exact LLL reduction driven by the Gram matrix alone.

    Returns (reduced_gram, u, d, lam) with reduced_gram = u * gram * u^T, u
    unimodular, and (d, lam) the integral Gram-Schmidt data of reduced_gram
    (`exactnum.integral_gram_schmidt`), which the walks below take as they
    are.  They are kept in integers and updated in place at every step
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7):
    d[i] is the Gram determinant of the first i basis vectors and
    lam[i][j] = d[j + 1] * mu[i][j].  A unimodular change of basis keeps the
    determinant, so d[n] is det(gram).  Raises NotPositiveDefiniteError when
    a leading minor of gram is not positive.
    """
    n = len(gram)
    g = [[int(x) for x in row] for row in gram]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    d, lam = integral_gram_schmidt(g)
    delta = Fraction(delta)

    def row_sub(i, j, q):
        # basis_i -= q * basis_j, applied to transform, gram and lam; gram
        # is symmetric, so its new row i is also its new column i.
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]
        row = [a - q * b for a, b in zip(g[i], g[j])]
        row[i] -= q * row[j]
        g[i] = row
        for t, x in enumerate(row):
            g[t][i] = x
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
    return g, u, d, lam


# Most children one expansion step builds at once (rows of the frontier).
_CHUNK = 1 << 15


# Below this many radicands, math.isqrt per entry is cheaper than the fixed
# cost of the Newton steps' array operations.
_NEWTON_MIN = 512


# An int64 walk whose radicands all lie below this takes its square roots
# from a table (`_root_table`); any other walk takes `_isqrt`.
_TABLE_LIMIT = 1 << 16


@functools.cache
def _root_table(size: int) -> np.ndarray:
    """floor(sqrt(r)) for 0 <= r < size, as int64: k repeated 2k + 1 times.
    A walk takes the table of the least power of two above its radicands,
    so a process builds a few tables at most, each once."""
    k = np.arange(isqrt(size - 1) + 1)
    return k.repeat(2 * k + 1)[:size]


def _isqrt(a, powers):
    """Elementwise floor(sqrt(a)) of a nonnegative integer array: math.isqrt
    per entry on small arrays, integer Newton steps on large ones, whose
    result is checked.  `powers` holds 1, 2, 4, ... past max(a), in the dtype
    of a; the Newton start 2^ceil(b/2), for an entry of b bits, is at least
    its square root."""
    if len(a) < _NEWTON_MIN:
        return np.array([isqrt(v) for v in a.tolist()], dtype=a.dtype)
    x = powers[(powers.searchsorted(a, side="right") + 1) // 2]
    while True:
        y = (x + a // np.maximum(x, 1)) // 2
        if (y >= x).all():
            break
        x = np.minimum(x, y)
    assert (x * x <= a).all() and ((x + 1) * (x + 1) > a).all()
    return x


def _half_shell_chunks(
    gs: GramSchmidt, bound: int, cone: list[list[int]] | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (coords, norms) chunks of every nonzero x with x G x^T <= bound
    whose last nonzero coordinate is positive (one of each +-x pair), from
    gs = (d, lam), the integral Gram-Schmidt data of G; with a `cone` H, an
    upper-triangular integer matrix of positive diagonal, of every nonzero x
    with H x^T >= 0 instead (H = I: no negative coordinate)."""
    d, lam = gs
    n = len(lam)
    if n == 0 or bound <= 0:
        return
    # Bounds, from the top level down: |t_i| <= root[i], |c_i| <= centre[i]
    # (c_i the sum over j > i, and so each of its partial sums), |e_i| <=
    # offset[i] (e_i = sum_{j>i} H_ij x_j, likewise) and |x_i| <= coord[i].
    radicand = [bound * d[i] * d[i + 1] for i in range(n)]
    root, centre, offset, coord = [0] * n, [0] * n, [0] * n, [0] * n
    columns = list(zip(*lam))
    for i in reversed(range(n)):
        root[i] = isqrt(radicand[i])
        centre[i] = sum(map(operator.mul, map(abs, columns[i][i + 1 :]), coord[i + 1 :]))
        offset[i] = sum(map(operator.mul, map(abs, cone[i][i + 1 :]), coord[i + 1 :])) if cone else 0
        coord[i] = (root[i] + centre[i]) // d[i + 1]
    # Largest magnitude of any intermediate: bound D_i D_{i+1} bounds the
    # radicand, D_i N_{i+1} and t_i^2 + D_i N_{i+1}; (root + 2)^2 the square
    # roots' check; root + centre the interval ends, D_{i+1} x_i and t_i;
    # offset the cone's clip.  Newton's x + a // x and the lengths stay below 2 top.
    top = max(max((root[i] + 2) ** 2, radicand[i], root[i] + centre[i] + d[i + 1], offset[i]) for i in range(n))
    dtype = np.int64 if 2 * top < 2**63 else object
    if dtype is np.int64 and max(radicand) < _TABLE_LIMIT:
        sqrt = _root_table(1 << max(radicand).bit_length()).take
    else:
        powers = np.array([1 << b for b in range(top.bit_length() + 1)], dtype=dtype)
        sqrt = functools.partial(_isqrt, powers=powers)
    # Coordinates in the narrowest signed dtype that holds every |x_i|
    # (object beyond int64).
    bits = max(coord).bit_length()
    narrow = next((t for t, b in ((np.int8, 8), (np.int16, 16), (np.int32, 32), (np.int64, 64)) if bits < b), object)
    lam_t = np.array(columns, dtype=dtype)
    cone_t = None if cone is None else np.array(cone, dtype=dtype)

    def expand(i, xs, norm):
        # xs: one row per prefix, coordinates i+1..n-1 set; norm: its N_{i+1}.
        c = xs[:, i + 1 :] @ lam_t[i, i + 1 :]
        dn = norm * d[i]
        s = sqrt(radicand[i] - dn)
        # x_i runs from lo = ceil((-s - c) / D) = -up to hi = floor((s - c) / D).
        up = s + c
        up //= d[i + 1]
        hi1 = s - c
        hi1 += d[i + 1]
        hi1 //= d[i + 1]  # hi + 1
        if cone_t is not None:
            # (H x^T)_i = H_ii x_i + e_i >= 0, so x_i >= ceil(-e_i / H_ii) =
            # -(e_i // H_ii); a clipped interval can be empty.
            np.minimum(up, xs[:, i + 1 :] @ cone_t[i, i + 1 :] // cone[i][i], out=up)
            k = np.maximum(hi1 + up, 0)
        else:
            # Only the first row can be the zero prefix (N_{i+1} = 0 and
            # c = 0); x_i >= 0 there keeps one of each +-x.  No count needs
            # clipping at 0: s >= 0, so hi >= floor((-s - c) / D) >= lo - 1,
            # and at the zero prefix hi >= 0 = lo.
            if not dn[0]:
                up[0] = 0
            k = hi1 + up
        k = k.astype(np.int64, copy=False)
        ends = k.cumsum()
        # Child j of the level (children numbered across prefixes) has
        # x_i = lo + j - (its prefix's first child) = j - first[prefix].
        first = ends - hi1
        total = int(ends[-1])
        a = base = 0
        while a < len(k):
            # Prefixes a..b-1 have children base..base+m-1: all of them when
            # they fit in one chunk, else as many as keep m <= _CHUNK.
            if total <= _CHUNK:
                b, m = len(k), total
            else:
                base = int(ends[a - 1]) if a else 0
                b = max(int(ends.searchsorted(base + _CHUNK, side="right")), a + 1)
                m = int(ends[b - 1]) - base
            parent = np.arange(a, b).repeat(k[a:b])
            a = b
            if not m:
                continue
            x = np.arange(base, base + m, dtype=dtype)
            x -= first[parent]
            t = x * d[i + 1]
            t += c[parent]
            t *= t
            t += dn[parent]
            t //= d[i + 1]  # N_i
            coords = xs[parent]
            coords[:, i] = x
            if i:
                yield from expand(i - 1, coords, t)
            elif t[0]:
                yield coords, t
            else:  # the zero vector, first of the first chunk
                yield coords[1:], t[1:]

    yield from expand(n - 1, np.zeros((1, n), dtype=narrow), np.zeros(1, dtype=dtype))


def shells_upto(gs: GramSchmidt, bound: int) -> dict[int, np.ndarray]:
    """The nonzero vectors with norm <= bound, one of each +-x pair (the one
    whose last nonzero coordinate is positive), grouped by norm: one int32
    array of rows (coordinates in the basis of G) per norm, from gs = (d, lam),
    the integral Gram-Schmidt data of the Gram matrix G."""
    parts: dict[int, list] = {}
    for xs, norms in _half_shell_chunks(gs, bound):
        assert xs.dtype.itemsize <= 4 or xs.size == 0 or int(abs(xs).max()) < 2**31
        for q, part in by_norm(xs.astype(np.int32), norms).items():
            parts.setdefault(q, []).append(part)
    return {q: np.concatenate(ps) for q, ps in sorted(parts.items())}


def by_norm(xs: np.ndarray, norms: np.ndarray) -> dict[int, np.ndarray]:
    """The rows of xs grouped by their norms, in increasing norm, each group
    in the order of xs."""
    order = np.argsort(norms, kind="stable")
    values, starts = np.unique(norms[order], return_index=True)
    xs = xs[order]
    cuts = starts.tolist() + [len(xs)]
    return {q: xs[a:b] for q, a, b in zip(values.tolist(), cuts, cuts[1:])}


def cone_upto(gs: GramSchmidt, bound: int, cone: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(coords, norms): every nonzero x with H x^T >= 0 and x G x^T <= bound,
    H = `cone` as in `_half_shell_chunks`, as int64 rows and their norms,
    from gs = (d, lam) as in `shells_upto`."""
    empty = np.zeros((0, len(gs[1])), dtype=np.int64), np.zeros(0, dtype=np.int64)
    xs, norms = map(np.concatenate, zip(*_half_shell_chunks(gs, bound, cone), empty))
    # The norms are at most bound; a walk on Python ints converts exactly
    # (astype raises, never wraps, on an entry beyond int64).
    return xs.astype(np.int64), norms.astype(np.int64)


def counts_upto(gs: GramSchmidt, bound: int) -> dict[int, int]:
    """Counts of nonzero vectors by norm <= bound, without storing them, from
    gs = (d, lam) as in `shells_upto`."""
    out: dict[int, int] = {}
    for _, norms in _half_shell_chunks(gs, bound):
        values, counts = np.unique(norms, return_counts=True)
        for q, c in zip(values.tolist(), counts.tolist()):
            out[q] = out.get(q, 0) + 2 * c
    return out
