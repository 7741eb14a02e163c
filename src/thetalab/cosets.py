"""Exact norm counts for glue cosets of root lattices.

A glued lattice is the disjoint union, over its glue words, of products of
component cosets, so its shell sizes are convolutions of per-component coset
norm tables.  `coset_tables(kind, rank, bound)` gives every class of one root
lattice at once (Conway and Sloane, *Sphere Packings, Lattices and Groups*,
ch. 4, for the models used):

* A_n: class c is the projection of {z in Z^{n+1} : sum(z) = r} for any
  r = c mod n+1, with norm sum(z^2) - r^2/(n+1).  One dynamic program over
  (running sum, running sum of squares) serves every class, each read at its
  representative r of least absolute value.
* D_n: one program over Z^n gives classes 0 and 2 (even and odd sums), one
  over (Z + 1/2)^n gives classes 1 and 3.
* E_n through a sublattice of index 3, 2 and 3: E8 = A8[3], E7 = A7[4] and
  E6 = A2^3[111], so each E_n coset is a union of A_n coset products.

Everything is exact integer counting.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .rootdata import disc_order

NormTable = tuple[tuple[Fraction, int], ...]

# Glue classes of the A_n sublattice (A8, A7, A2^3) that make up each class
# of E_n, indexed by the E_n class.  E6's two nontrivial classes are
# exchanged by x -> -x, so their tables are equal whichever is labelled 1.
_E_SUBLATTICE = {
    8: (8, (((0,), (3,), (6,)),)),
    7: (7, (((0,), (4,)), ((2,), (6,)))),
    6: (2, (
        ((0, 0, 0), (1, 1, 1), (2, 2, 2)),
        ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
        ((0, 2, 1), (1, 0, 2), (2, 1, 0)),
    )),
}


def _sum_square_counts(length: int, values: range, qmax: int, reach: int) -> dict[tuple[int, int], int]:
    """Number of tuples in values^length by (sum, sum of squares <= qmax),
    for the sums of absolute value <= reach."""
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    zmax = max(values, default=0)
    for remaining in range(length - 1, -1, -1):
        slack = reach + remaining * zmax  # a partial sum further out cannot come back
        new: dict[tuple[int, int], int] = {}
        for (s, q), cnt in states.items():
            for z in values:
                q2 = q + z * z
                if q2 <= qmax and -slack <= s + z <= slack:
                    key = (s + z, q2)
                    new[key] = new.get(key, 0) + cnt
        states = new
    return states


def _add(table: dict[Fraction, int], norm: Fraction, cnt: int) -> None:
    table[norm] = table.get(norm, 0) + cnt


def _a_tables(rank: int, bound: int) -> list[dict[Fraction, int]]:
    n1 = rank + 1
    reps = [c if 2 * c <= n1 else c - n1 for c in range(n1)]
    smax = bound + max(r * r for r in reps) // n1
    zmax = isqrt(smax)
    rmax = max(abs(r) for r in reps)
    tables: list[dict[Fraction, int]] = [{} for _ in range(n1)]
    for (s, q), cnt in _sum_square_counts(n1, range(-zmax, zmax + 1), smax, rmax).items():
        if reps[s % n1] == s:
            norm = q - Fraction(s * s, n1)
            if norm <= bound:
                _add(tables[s % n1], norm, cnt)
    return tables


def _d_tables(rank: int, bound: int) -> list[dict[Fraction, int]]:
    """[0] even and [2] odd integer sums; [1]/[3] half-integer vectors 2z = t
    (t odd) split by the parity of sum((t - 1)/2) = (sum(t) - rank)/2."""
    tables: list[dict[Fraction, int]] = [{} for _ in range(4)]
    zmax = isqrt(bound)
    for (s, q), cnt in _sum_square_counts(rank, range(-zmax, zmax + 1), bound, rank * zmax).items():
        _add(tables[2 * (s & 1)], Fraction(q), cnt)
    tmax = isqrt(4 * bound) - 1 | 1  # largest odd t with t^2 <= 4 * bound
    for (s, q), cnt in _sum_square_counts(rank, range(-tmax, tmax + 1, 2), 4 * bound, rank * tmax).items():
        _add(tables[1 + 2 * (((s - rank) // 2) & 1)], Fraction(q, 4), cnt)
    return tables


def _e_tables(rank: int, bound: int) -> list[dict[Fraction, int]]:
    sub_rank, classes = _E_SUBLATTICE[rank]
    sub = coset_tables("A", sub_rank, bound)
    tables: list[dict[Fraction, int]] = []
    for words in classes:
        table: dict[Fraction, int] = {}
        for word in words:
            for norm, cnt in _convolve([sub[c] for c in word], bound).items():
                _add(table, norm, cnt)
        tables.append(table)
    return tables


@lru_cache(maxsize=None)
def coset_tables(kind: str, rank: int, bound: int) -> tuple[NormTable, ...]:
    """Norm table (sorted items, norm <= bound, zero vector in class 0) of every
    glue class of one root lattice, indexed by class."""
    disc_order(kind, rank)  # validates the symbol
    build = {"A": _a_tables, "D": _d_tables, "E": _e_tables}[kind]
    return tuple(tuple(sorted(table.items())) for table in build(rank, bound))


def _convolve(tables: list[NormTable], bound: int) -> dict[Fraction, int]:
    """Norm table of the orthogonal sum of cosets with the given tables."""
    conv: dict[Fraction, int] = {Fraction(0): 1}
    for table in tables:
        new: dict[Fraction, int] = {}
        for acc_norm, acc_cnt in conv.items():
            room = bound - acc_norm
            for norm, cnt in table:
                if norm > room:
                    break
                _add(new, acc_norm + norm, acc_cnt * cnt)
        conv = new
    return conv


def glued_shell_counts(
    components: tuple[tuple[str, int], ...],
    words: tuple[tuple[int, ...], ...],
    bound: int,
) -> dict[int, int]:
    """Shell counts (norm -> count, norm 0 included) of a union of glue cosets.

    `words` must be the full glue group; the cosets are disjoint, so the total
    is a sum over words of convolutions of per-component coset counts.
    """
    tables = [coset_tables(kind, rank, bound) for kind, rank in components]
    out: dict[int, int] = {}
    for word in words:
        for norm, cnt in _convolve([t[cls] for t, cls in zip(tables, word)], bound).items():
            if norm.denominator != 1:
                raise ValueError("glue cosets produced non-integral norms: not a lattice")
            out[int(norm)] = out.get(int(norm), 0) + cnt
    return out
