"""Reference values for the benchmark's checks, computed without thetalab.

Nothing here imports the package under test.  The genus-1 laws come from the
dimension of the space of modular forms (weight 8 is spanned by E4^2, weight
12 by E12 and the discriminant), the root-index closed forms from the
structure of irreducible simply-laced root systems, and the brute-force
counter from a plain scan of a coordinate box.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt


def root_data(kind: str, rank: int) -> tuple[int, int]:
    """(|R|, h) for A_n, D_n (n >= 3), E6, E7, E8."""
    if kind == "A" and rank >= 1:
        return rank * (rank + 1), rank + 1
    if kind == "D" and rank >= 3:
        return 2 * rank * (rank - 1), 2 * rank - 2
    if kind == "E" and rank in (6, 7, 8):
        return {6: (72, 12), 7: (126, 18), 8: (240, 30)}[rank]
    raise ValueError(f"no root system {kind}{rank}")


def sigma(k: int, n: int) -> int:
    """Sum of the k-th powers of the divisors of n >= 1."""
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def tau_table(nmax: int) -> list[int]:
    """tau(0..nmax) from Delta = q * prod_{m >= 1} (1 - q^m)^24 (tau(0) = 0)."""
    prod = [1] + [0] * nmax  # coefficients of prod (1 - q^m)^24, up to q^(nmax-1)
    for m in range(1, nmax + 1):
        for _ in range(24):
            for i in range(nmax, m - 1, -1):
                prod[i] -= prod[i - m]
    return [0] + prod[:nmax]


def tau(n: int) -> int:
    return tau_table(n)[n]


def genus1_rank16(norm: int) -> int:
    """Vectors of the given norm in an even unimodular rank-16 lattice:
    theta = E4^2 = E8, so the count at norm 2n is 480 * sigma_7(n)."""
    if norm == 0:
        return 1
    if norm % 2:
        return 0
    return 480 * sigma(7, norm // 2)


def genus1_rank24(norm: int, roots: int) -> int:
    """Vectors of the given norm in an even unimodular rank-24 lattice with
    `roots` vectors of norm 2: theta = E12 + c * Delta, with c fixed by the
    root count, gives (65520/691)(sigma_11(n) - tau(n)) + roots * tau(n)."""
    if norm == 0:
        return 1
    if norm % 2:
        return 0
    n = norm // 2
    t = tau(n)
    value = Fraction(65520, 691) * (sigma(11, n) - t) + roots * t
    if value.denominator != 1:
        raise ArithmeticError("genus-1 law gave a non-integer count")
    return int(value)


def r_a2(components) -> int:
    """Ordered root pairs with Gram [[2, -1], [-1, 2]]: each root x of R_c has
    2h_c - 4 partners y with (x, y) = -1, so r(A2) = sum_c |R_c| (2h_c - 4)."""
    total = 0
    for kind, rank in components:
        count, h = root_data(kind, rank)
        total += count * (2 * h - 4)
    return total


def r_a1_squared(components) -> int:
    """Ordered orthogonal root pairs, Gram diag(2, 2).  A root of R_c is
    non-orthogonal to 4h_c - 6 roots (itself, its negative and 4h_c - 8 at
    inner product +-1), so r(A1^2) = sum_c |R_c| (N - 4h_c + 6); with one
    Coxeter number h throughout this is N (N - 4h + 6)."""
    n_roots = sum(root_data(k, r)[0] for k, r in components)
    return sum(root_data(k, r)[0] * (n_roots - 4 * root_data(k, r)[1] + 6) for k, r in components)


def r_a_chain(components, k: int) -> int:
    """Ordered root tuples with Gram matrix the A_k Cartan matrix, k >= 2.

    The tuple is connected, so it lies in one component.  In A_n the chains
    are e_{a0} - e_{a1}, ..., e_{a(k-1)} - e_{ak} for distinct a_i, and their
    negatives: 2 (n+1)! / (n-k)!.  D_n and E_n chains are counted by search
    over the roots."""
    if k < 2:
        raise ValueError("chains of length >= 2 only")
    total = 0
    for kind, rank in components:
        if kind == "A":
            total += 2 * factorial(rank + 1) // factorial(rank - k) if rank >= k else 0
        else:
            total += count_chains(kind, rank, k)
    return total


def roots_of(kind: str, rank: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """All roots in simple-root coordinates, closing the simple roots under
    the simple reflections s_i(x) = x - (x, a_i) a_i; and the Gram matrix."""
    gram = cartan(kind, rank)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    todo = list(simple)
    while todo:
        x = todo.pop()
        for i in range(rank):
            dot = sum(x[j] * gram[j][i] for j in range(rank))
            y = tuple(x[j] - dot * (j == i) for j in range(rank))
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return sorted(seen), gram


@lru_cache(maxsize=None)
def count_chains(kind: str, rank: int, k: int) -> int:
    """Ordered k-tuples of roots with Gram matrix the A_k Cartan matrix."""
    roots, gram = roots_of(kind, rank)
    n = len(roots)
    gx = [[sum(r[i] * gram[i][j] for i in range(rank)) for j in range(rank)] for r in roots]
    dots = [[sum(a * b for a, b in zip(gx[p], roots[q])) for q in range(n)] for p in range(n)]
    # Bitmasks over root indices: partners at inner product -1, and at 0.
    minus = [sum(1 << q for q in range(n) if dots[p][q] == -1) for p in range(n)]
    zero = [sum(1 << q for q in range(n) if dots[p][q] == 0) for p in range(n)]

    def extend(last: int, allowed: int, length: int) -> int:
        # allowed: roots orthogonal to every chain member before `last`.
        nxt = minus[last] & allowed
        if length + 1 == k:
            return bin(nxt).count("1")
        total = 0
        while nxt:
            q = (nxt & -nxt).bit_length() - 1
            nxt &= nxt - 1
            total += extend(q, allowed & zero[last], length + 1)
        return total

    every = (1 << n) - 1
    return sum(extend(p, every, 1) for p in range(n))


def cartan(kind: str, rank: int) -> list[list[int]]:
    """Gram matrix of the simple roots: A_n a path, D_n a path with a fork at
    the end, E_n a path of n - 1 nodes with one more node on the third."""
    root_data(kind, rank)  # rejects symbols with no root system
    g = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    edges = [(i, i + 1) for i in range(rank - 1)]
    if kind == "D":
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    elif kind == "E":
        edges = [(i, i + 1) for i in range(rank - 2)] + [(2, rank - 1)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def block_diagonal(blocks) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def _inverse_diagonal(gram) -> list[Fraction]:
    """Diagonal of gram^-1 by Gauss-Jordan elimination over the rationals."""
    n = len(gram)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(gram)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n + i] for i in range(n)]


def brute_genus1(gram, bound: int) -> dict[int, int]:
    """Vectors by norm (norm 0 included) up to bound, by scanning the box
    |x_i| <= sqrt(bound * (G^-1)_ii) that contains every such vector."""
    reach = [isqrt(int(bound * d)) for d in _inverse_diagonal(gram)]
    n = len(gram)
    out: dict[int, int] = {}
    for x in itertools.product(*[range(-r, r + 1) for r in reach]):
        q = sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))
        if q <= bound:
            out[q] = out.get(q, 0) + 1
    return out


def convolve(a: dict[int, int], b: dict[int, int], bound: int) -> dict[int, int]:
    """Norm counts of an orthogonal sum from the counts of its summands."""
    out: dict[int, int] = {}
    for qa, ca in a.items():
        for qb, cb in b.items():
            if qa + qb <= bound:
                out[qa + qb] = out.get(qa + qb, 0) + ca * cb
    return out


def genus1_of_sum(components, bound: int) -> dict[int, int]:
    """Genus-1 counts of an orthogonal sum of A_n/D_n root lattices."""
    total = {0: 1}
    for kind, rank in components:
        total = convolve(total, brute_genus1(cartan(kind, rank), bound), bound)
    return total
