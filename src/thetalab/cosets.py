"""Exact norm counts for glue cosets of root lattices, in integers.

A glued lattice is a disjoint union of products of component cosets, one per
glue word, so its shells are sums of convolutions of coset norm tables.  Each
table holds the norms times its root lattice's scale (Conway and Sloane,
*Sphere Packings, Lattices and Groups*, ch. 4): A_n, scale n+1, from
{z in Z^{n+1} : sum(z) = r}, norm (n+1) sum(z^2) - r^2; D_n, scale 4, from
Z^n and (Z + 1/2)^n; E_n from E8 = A8[3], E7 = A7[4] and E6 = A2^3[111].
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, lcm

from .rootdata import disc_order

NormTable = tuple[tuple[int, int], ...]  # (scaled norm, count), sorted
Tables = tuple[int, list[dict[int, int]]]  # the scale, and a norm table per class

# Glue classes of the A_n sublattice (A8, A7, A2^3) that make up each class
# of E_n, indexed by the E_n class.  E6's two nontrivial classes are
# exchanged by x -> -x, so their tables are equal whichever is labelled 1.
_E_SUBLATTICE = {
    8: (8, (((0,), (3,), (6,)),)),
    7: (7, (((0,), (4,)), ((2,), (6,)))),
    6: (2, (((0, 0, 0), (1, 1, 1), (2, 2, 2)), ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
            ((0, 2, 1), (1, 0, 2), (2, 1, 0)))),
}


def _sum_square_counts(length: int, values: range, qmax: int, reach: int) -> dict[tuple[int, int], int]:
    """Number of tuples in values^length by (sum, sum of squares <= qmax), for
    sums of absolute value <= reach: the multiplicity m_v of each value v is
    chosen in decreasing |v| while qmax leaves room, the last value taking the
    rest, so the work follows qmax, not the length."""
    if not values:
        return {(0, 0): 1} if length == 0 else {}
    vals = sorted(values, key=abs, reverse=True)
    low = min(v * v for v in vals)  # every coordinate left costs at least this
    out: dict[tuple[int, int], int] = {}

    def walk(i: int, left: int, s: int, q: int, ways: int) -> None:
        v = vals[i]
        if i == len(vals) - 1:
            s += v * left
            if abs(s) <= reach:
                key = (s, q + v * v * left)
                out[key] = out.get(key, 0) + ways
            return
        step = v * v - low
        m = 0
        while m <= left and q + low * left + step * m <= qmax:
            walk(i + 1, left - m, s + v * m, q + v * v * m, ways)
            m += 1
            ways = ways * (left - m + 1) // m  # times C(left, m) / C(left, m - 1)

    if low * length <= qmax:
        walk(0, length, 0, 0, 1)
    return out


def _a_tables(rank: int, bound: int) -> Tables:
    n1 = rank + 1
    reps = [c if 2 * c <= n1 else c - n1 for c in range(n1)]
    smax = bound + max(r * r for r in reps) // n1
    tables: list[dict[int, int]] = [{} for _ in range(n1)]
    for (s, q), cnt in _sum_square_counts(n1, range(-isqrt(smax), isqrt(smax) + 1), smax, n1 // 2).items():
        norm = n1 * q - s * s
        if reps[s % n1] == s and norm <= n1 * bound:
            tables[s % n1][norm] = cnt  # one (s, q) per norm
    return n1, tables


def _d_tables(rank: int, bound: int) -> Tables:
    """[0] even and [2] odd integer sums; [1]/[3] half-integer vectors 2z = t
    (t odd) split by the parity of sum((t - 1)/2) = (sum(t) - rank)/2."""
    tables: list[dict[int, int]] = [{} for _ in range(4)]
    zmax = isqrt(bound)
    for (s, q), cnt in _sum_square_counts(rank, range(-zmax, zmax + 1), bound, rank * zmax).items():
        table = tables[2 * (s & 1)]
        table[4 * q] = table.get(4 * q, 0) + cnt
    tmax = isqrt(4 * bound) - 1 | 1  # largest odd t with t^2 <= 4 * bound
    for (s, q), cnt in _sum_square_counts(rank, range(-tmax, tmax + 1, 2), 4 * bound, rank * tmax).items():
        table = tables[1 + 2 * (((s - rank) // 2) & 1)]
        table[q] = table.get(q, 0) + cnt
    return 4, tables


def _e_tables(rank: int, bound: int) -> Tables:
    sub_rank, classes = _E_SUBLATTICE[rank]
    scale, sub = coset_tables("A", sub_rank, bound)
    return scale, [_glue_sum([sub] * len(words[0]), words, scale * bound) for words in classes]


@lru_cache(maxsize=None)
def coset_tables(kind: str, rank: int, bound: int) -> tuple[int, tuple[NormTable, ...]]:
    """(scale, tables): the norm table of every glue class of one root lattice,
    by class, each norm <= bound times scale (the zero vector in class 0)."""
    disc_order(kind, rank)  # validates the symbol
    scale, tables = {"A": _a_tables, "D": _d_tables, "E": _e_tables}[kind](rank, bound)
    return scale, tuple(tuple(sorted(table.items())) for table in tables)


def _glue_sum(tables: list[tuple[NormTable, ...]], words, limit: int) -> dict[int, int]:
    """Norm table (norms <= limit) of the union over the words of the sums of
    the cosets tables[i][word[i]], all at one scale."""
    out: dict[int, int] = {}
    for word in words:
        conv = {0: 1}
        for t, cls in zip(tables, word):
            new: dict[int, int] = {}
            for acc_norm, acc_cnt in conv.items():
                room = limit - acc_norm
                for norm, cnt in t[cls]:
                    if norm > room:
                        break
                    new[acc_norm + norm] = new.get(acc_norm + norm, 0) + acc_cnt * cnt
            conv = new
        for norm, cnt in conv.items():
            out[norm] = out.get(norm, 0) + cnt
    return out


def glued_shell_counts(components: tuple[tuple[str, int], ...], words: tuple[tuple[int, ...], ...],
                       bound: int) -> dict[int, int]:
    """Shell counts (norm -> count, norm 0 included) of the union of the glue
    cosets of `words`, the full glue group, at the lcm of the scales."""
    scaled = [coset_tables(kind, rank, bound) for kind, rank in components]
    scale = lcm(*(s for s, _ in scaled))
    tables = [tuple(tuple((scale // s * norm, cnt) for norm, cnt in t) for t in ts) for s, ts in scaled]
    conv = _glue_sum(tables, words, scale * bound)
    if any(norm % scale for norm in conv):
        raise ValueError("glue cosets produced non-integral norms: not a lattice")
    return {norm // scale: cnt for norm, cnt in conv.items()}
