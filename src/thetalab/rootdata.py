"""Standard ADE root-lattice data: simple roots, Gram matrices, discriminant classes.

Simple roots are realized in Euclidean coordinates (A_n in R^{n+1}, D_n in R^n,
E6/E7/E8 in R^8, Bourbaki numbering), so the Gram matrix of the rows is the
usual Dynkin-diagram matrix with 2 on the diagonal and -1 for adjacent nodes.
Roots and glue class representatives are given as integer rows at one
scale per root system (`scale`), a common denominator of their coordinates:
n + 1 for the weights of A_n, 2 for the spinor classes of D_n, and
2 det(C) for E_n (2 for the half-integral root of E8; 6 and 4 for the E6
and E7 weights, which come from the integer adjugate det(C) C^-1 of the
Cartan matrix C).  No rational arithmetic is needed.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .exactnum import scaled_gram, scaled_inverse


def _check(kind: str, rank: int) -> None:
    if kind == "A" and rank >= 1:
        return
    if kind == "D" and rank >= 3:
        return
    if kind == "E" and rank in (6, 7, 8):
        return
    raise ValueError(f"invalid ADE symbol {kind}{rank}")


def ambient_dim(kind: str, rank: int) -> int:
    _check(kind, rank)
    if kind == "A":
        return rank + 1
    if kind == "D":
        return rank
    return 8


def disc_order(kind: str, rank: int) -> int:
    _check(kind, rank)
    if kind == "A":
        return rank + 1
    if kind == "D":
        return 4
    return {6: 3, 7: 2, 8: 1}[rank]


def scale(kind: str, rank: int) -> int:
    """The scale s of `root_rows` and `class_row`: s times each simple root
    and each class representative is an integer row."""
    _check(kind, rank)
    if kind == "A":
        return rank + 1
    if kind == "D":
        return 2
    return 2 * disc_order(kind, rank)


@lru_cache(maxsize=None)
def root_rows(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The simple roots in the ambient space, times `scale(kind, rank)`."""
    dim = ambient_dim(kind, rank)
    s = scale(kind, rank)

    def e(i: int, j: int, sign: int) -> tuple[int, ...]:
        # s (e_i + sign e_j)
        v = [0] * dim
        v[i], v[j] = s, sign * s
        return tuple(v)

    if kind == "A":
        return tuple(e(i, i + 1, -1) for i in range(rank))
    if kind == "D":
        return tuple(e(i, i + 1, -1) for i in range(rank - 1)) + (e(rank - 2, rank - 1, 1),)
    # Bourbaki: a1 = (1/2)(e1+e8) - (1/2)(e2+...+e7), a2 = e1+e2, ak = e_{k-1}-e_{k-2}
    h = s // 2
    return ((h, *[-h] * 6, h), e(0, 1, 1)) + tuple(e(k - 2, k - 3, -1) for k in range(3, rank + 1))


@lru_cache(maxsize=None)
def ade_gram(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    return scaled_gram(root_rows(kind, rank), scale(kind, rank))


@lru_cache(maxsize=None)
def _generator_row(kind: str, rank: int) -> tuple[int, ...]:
    """Row i of the adjugate det(C) C^-1 of the Cartan matrix C, for the first
    i whose fundamental weight omega_i = sum_j (C^-1)_ij alpha_j is not in the
    root lattice: omega_i generates the cyclic discriminant group."""
    # The elimination's pivots are the leading minors of C, all positive, so
    # no row is swapped: det is det(C) and adj is the adjugate itself.
    det, adj = scaled_inverse(ade_gram(kind, rank))
    for row in adj:
        if any(x % det for x in row):
            return tuple(row)
    raise AssertionError("unimodular lattice has no nontrivial classes")


def class_row(kind: str, rank: int, cls: int) -> tuple[int, ...]:
    """A representative of the cls-th glue class in the ambient space, times
    `scale(kind, rank)`.

    Class labels follow the usual conventions: A_n classes 0..n are multiples of
    the first fundamental weight; D_n uses [1] and [3] for the two half-integer
    classes and [2] for the integer one; E6/E7 classes are multiples of a fixed
    generator weight.
    """
    order = disc_order(kind, rank)
    if not 0 <= cls < order:
        raise ValueError(f"class {cls} out of range for {kind}{rank}")
    dim = ambient_dim(kind, rank)
    if cls == 0:
        return (0,) * dim
    if kind == "A":
        # (n + 1) cls omega_1 = cls ((n + 1) e_1 - (1, ..., 1))
        return (cls * rank, *[-cls] * rank)
    if kind == "D":
        if cls == 2:
            return (2, *[0] * (rank - 1))
        return (*[1] * (rank - 1), 1 if cls == 1 else -1)
    # s omega_i = sum_j adj_ij (s alpha_j) / det(C), with det(C) = order.
    adj = _generator_row(kind, rank)
    roots = root_rows(kind, rank)
    return tuple(cls * sum(a * r[t] for a, r in zip(adj, roots)) // order for t in range(dim))


def class_add(kind: str, rank: int, a: int, b: int) -> int:
    """Sum of two glue classes in the discriminant group."""
    if kind == "A":
        return (a + b) % (rank + 1)
    if kind == "D":
        if rank % 2 == 1:
            return (a + b) % 4  # cyclic, generated by the spinor class
        return a ^ b  # Klein group on labels {0, 1, 2, 3}
    return (a + b) % disc_order(kind, rank)


def root_count(kind: str, rank: int) -> int:
    _check(kind, rank)
    if kind == "A":
        return rank * (rank + 1)
    if kind == "D":
        return 2 * rank * (rank - 1)
    return {6: 72, 7: 126, 8: 240}[rank]


def weyl_order(kind: str, rank: int) -> int:
    """Order of the Weyl group of the irreducible root system of this type."""
    _check(kind, rank)
    if kind == "A":
        return factorial(rank + 1)
    if kind == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {6: 51840, 7: 2903040, 8: 696729600}[rank]


def classify_component(rank: int, count: int) -> str:
    """Match an irreducible root-system component by (rank of span, root count)."""
    if count == rank * (rank + 1):
        return f"A{rank}"
    if rank >= 4 and count == 2 * rank * (rank - 1):
        return f"D{rank}"
    if (rank, count) in {(6, 72), (7, 126), (8, 240)}:
        return f"E{rank}"
    raise ValueError(f"unrecognized root system component: rank {rank} with {count} roots")
