"""Standard ADE root-lattice data: simple roots, Gram matrices, discriminant classes.

Simple roots are realized in Euclidean coordinates (A_n in R^{n+1}, D_n in R^n,
E6/E7/E8 in R^8, Bourbaki numbering), so the Gram matrix of the rows is the
usual Dynkin-diagram matrix with 2 on the diagonal and -1 for adjacent nodes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exactnum import clear_denominators, det_exact, scaled_gram

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


@lru_cache(maxsize=None)
def simple_roots(kind: str, rank: int) -> tuple[tuple[Fraction, ...], ...]:
    """Simple roots as rows in the Euclidean ambient space."""
    _check(kind, rank)
    dim = ambient_dim(kind, rank)

    def e(i: int) -> list[Fraction]:
        v = [Fraction(0)] * dim
        v[i] = Fraction(1)
        return v

    rows: list[list[Fraction]] = []
    if kind == "A":
        for i in range(rank):
            v = e(i)
            v[i + 1] = Fraction(-1)
            rows.append(v)
    elif kind == "D":
        for i in range(rank - 1):
            v = e(i)
            v[i + 1] = Fraction(-1)
            rows.append(v)
        v = e(rank - 2)
        v[rank - 1] = Fraction(1)
        rows.append(v)
    else:
        # Bourbaki: a1 = (1/2)(e1+e8) - (1/2)(e2+...+e7), a2 = e1+e2, ak = e_{k-1}-e_{k-2}
        a1 = [Fraction(1, 2), *([Fraction(-1, 2)] * 6), Fraction(1, 2)]
        a2 = [Fraction(1), Fraction(1)] + [Fraction(0)] * 6
        rows = [a1, a2]
        for k in range(3, 9):
            v = e(k - 2)
            v[k - 3] = Fraction(-1)
            rows.append(v)
        rows = rows[:rank]
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def ade_gram(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    return scaled_gram(*clear_denominators(simple_roots(kind, rank)))


def disc_order(kind: str, rank: int) -> int:
    _check(kind, rank)
    if kind == "A":
        return rank + 1
    if kind == "D":
        return 4
    return {6: 3, 7: 2, 8: 1}[rank]


@lru_cache(maxsize=None)
def _inverse_gram(kind: str, rank: int) -> list[list[Fraction]]:
    g = ade_gram(kind, rank)
    n = len(g)
    det = det_exact(g)
    aug = [[Fraction(g[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    assert det != 0
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def fundamental_weights(kind: str, rank: int) -> tuple[tuple[Fraction, ...], ...]:
    """Dual basis rows in ambient coordinates (i-th row pairs to 1 with root i)."""
    ginv = _inverse_gram(kind, rank)
    roots = simple_roots(kind, rank)
    dim = ambient_dim(kind, rank)
    out = []
    for i in range(len(roots)):
        w = [Fraction(0)] * dim
        for j, rj in enumerate(roots):
            c = ginv[i][j]
            if c:
                for t in range(dim):
                    w[t] += c * rj[t]
        out.append(tuple(w))
    return tuple(out)


@lru_cache(maxsize=None)
def _e_series_generator_index(kind: str, rank: int) -> int:
    """Index of a fundamental weight generating the (cyclic) discriminant group."""
    ginv = _inverse_gram(kind, rank)
    for i, row in enumerate(ginv):
        if any(x.denominator != 1 for x in row):
            return i
    raise AssertionError("unimodular lattice has no nontrivial classes")


@lru_cache(maxsize=None)
def dual_class_labels(kind: str, rank: int) -> tuple[int, ...]:
    """Class index of each fundamental weight in the cyclic group generated by the
    reference class (E6/E7 only; used when sorting dual vectors into cosets)."""
    order = disc_order(kind, rank)
    if order == 1:
        return tuple(0 for _ in range(rank))
    ginv = _inverse_gram(kind, rank)
    i0 = _e_series_generator_index(kind, rank)
    labels = []
    for i in range(rank):
        for k in range(order):
            diff = [ginv[i][j] - k * ginv[i0][j] for j in range(rank)]
            if all(x.denominator == 1 for x in diff):
                labels.append(k)
                break
        else:
            raise AssertionError("discriminant group is not cyclic as assumed")
    return tuple(labels)


def disc_rep_ambient(kind: str, rank: int, cls: int) -> tuple[Fraction, ...]:
    """A representative vector (ambient coordinates) of the cls-th glue class.

    Class labels follow the usual conventions: A_n classes 0..n are multiples of
    the first fundamental weight; D_n uses [1] and [3] for the two half-integer
    classes and [2] for the integer one; E6/E7 classes are multiples of a fixed
    generator weight.
    """
    order = disc_order(kind, rank)
    if not 0 <= cls < order:
        raise ValueError(f"class {cls} out of range for {kind}{rank}")
    dim = ambient_dim(kind, rank)
    zero = tuple(Fraction(0) for _ in range(dim))
    if cls == 0:
        return zero
    if kind == "A":
        # cls * omega_1 = cls * (e_1 - (1/(n+1)) * ones)
        n1 = rank + 1
        base = [-Fraction(cls, n1)] * n1
        base[0] += cls
        return tuple(base)
    if kind == "D":
        if cls == 1:
            return tuple(Fraction(1, 2) for _ in range(rank))
        if cls == 2:
            v = [Fraction(0)] * rank
            v[0] = Fraction(1)
            return tuple(v)
        v = [Fraction(1, 2)] * rank
        v[rank - 1] = Fraction(-1, 2)
        return tuple(v)
    w = fundamental_weights(kind, rank)[_e_series_generator_index(kind, rank)]
    return tuple(cls * x for x in w)


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
