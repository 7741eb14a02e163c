"""Exact norm counts for glue cosets of root lattices.

A glued lattice is the disjoint union, over its glue words, of products of
component cosets, so its shell sizes are convolutions of per-component coset
counts.  A_n and D_n coset counts come from small integer dynamic programs
over ambient coordinates; E6/E7/E8 cosets are counted on the shells of the
dual lattice (tiny), each shell labelled by one integer product with the
class labels of the dual basis.  Everything is exact integer counting.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .exactnum import det_exact
from .fincke_pohst import shells_upto
from .lazy import lazy_module
from .rootdata import ade_gram, disc_order, dual_class_labels, _inverse_gram

np = lazy_module("numpy")

NormTable = dict[Fraction, int]


def _a_coset_counts(rank: int, cls: int, bound: Fraction) -> NormTable:
    """Counts of vectors in (cls * omega_1 + A_rank) by norm <= bound.

    The coset is the image of {z in Z^{n+1} : sum(z) = cls} under subtracting
    the mean, with norm sum(z^2) - cls^2/(n+1).
    """
    n1 = rank + 1
    shift = Fraction(cls * cls, n1)
    smax = int(bound + shift)  # floor
    if smax < 0:
        return {}
    zmax = isqrt(smax)
    # DP over coordinates; state = (running sum, running sum of squares).
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for coord in range(n1):
        remaining = n1 - coord - 1
        new: dict[tuple[int, int], int] = {}
        for (s, q), cnt in states.items():
            for z in range(-zmax, zmax + 1):
                q2 = q + z * z
                if q2 > smax:
                    continue
                s2 = s + z
                # The final sum must hit cls exactly.
                if abs(cls - s2) > remaining * zmax:
                    continue
                key = (s2, q2)
                new[key] = new.get(key, 0) + cnt
        states = new
    out: NormTable = {}
    for (s, q), cnt in states.items():
        if s != cls:
            continue
        norm = q - shift
        if 0 <= norm <= bound:
            out[norm] = out.get(norm, 0) + cnt
    return out


def _d_coset_counts(rank: int, cls: int, bound: Fraction) -> NormTable:
    """Counts for the four glue cosets of D_rank ([0] even sums, [2] odd sums,
    [1]/[3] half-integer vectors split by the parity of sum(z - 1/2))."""
    out: NormTable = {}
    if cls in (0, 2):
        smax = int(bound)
        if smax < 0:
            return {}
        zmax = isqrt(smax)
        want_parity = 0 if cls == 0 else 1
        states: dict[tuple[int, int], int] = {(0, 0): 1}
        for _ in range(rank):
            new: dict[tuple[int, int], int] = {}
            for (p, q), cnt in states.items():
                for z in range(-zmax, zmax + 1):
                    q2 = q + z * z
                    if q2 > smax:
                        continue
                    key = ((p + z) & 1, q2)
                    new[key] = new.get(key, 0) + cnt
            states = new
        for (p, q), cnt in states.items():
            if p == want_parity and q <= bound:
                out[Fraction(q)] = out.get(Fraction(q), 0) + cnt
        return out
    # Half-integer cosets: z_i = t_i / 2 with t_i odd; norm = sum(t^2)/4.
    tmax4 = int(bound * 4)
    if tmax4 < 0:
        return {}
    tmax = isqrt(tmax4)
    if tmax % 2 == 0:
        tmax -= 1
    want_parity = 0 if cls == 1 else 1  # parity of sum((t_i - 1)/2)
    states = {(0, 0): 1}
    for _ in range(rank):
        new = {}
        for (p, q), cnt in states.items():
            for t in range(-tmax, tmax + 1, 2):
                q2 = q + t * t
                if q2 > tmax4:
                    continue
                key = ((p + (t - 1) // 2) & 1, q2)
                new[key] = new.get(key, 0) + cnt
        states = new
    for (p, q), cnt in states.items():
        if p == want_parity:
            norm = Fraction(q, 4)
            if norm <= bound:
                out[norm] = out.get(norm, 0) + cnt
    return out


def _e_coset_counts(rank: int, cls: int, bound: Fraction) -> NormTable:
    """Counts for E6/E7/E8 glue cosets by enumerating the dual lattice."""
    g = ade_gram("E", rank)
    det = det_exact(g)
    ginv = _inverse_gram("E", rank)
    # det * G^{-1} is the integer Gram of the dual basis, scaled by det.
    dual_scaled = [[int(ginv[i][j] * det) for j in range(rank)] for i in range(rank)]
    labels_np = np.array(dual_class_labels("E", rank), dtype=np.int64)
    order = disc_order("E", rank)
    out: NormTable = {}
    if cls == 0:
        out[Fraction(0)] = 1
    b_scaled = int(bound * det)
    for qscaled, vecs in shells_upto(dual_scaled, b_scaled).items():
        # int32 coordinates times labels below the order (<= 3), over <= 8
        # columns: exact in int64.
        hit = int(np.count_nonzero(vecs.astype(np.int64) @ labels_np % order == cls))
        if hit:
            out[Fraction(qscaled, det)] = hit
    return out


@lru_cache(maxsize=None)
def component_coset_counts(kind: str, rank: int, cls: int, bound: Fraction) -> tuple[tuple[Fraction, int], ...]:
    """Norm table (sorted items) for one glue coset of one root lattice."""
    if not 0 <= cls < disc_order(kind, rank):
        raise ValueError(f"class {cls} invalid for {kind}{rank}")
    bound = Fraction(bound)
    if kind == "A":
        table = _a_coset_counts(rank, cls, bound)  # includes the zero vector for cls 0
    elif kind == "D":
        table = _d_coset_counts(rank, cls, bound)
    else:
        table = _e_coset_counts(rank, cls, bound)  # dual enumeration; zero added there
    return tuple(sorted(table.items()))


def glued_shell_counts(
    components: tuple[tuple[str, int], ...],
    words: tuple[tuple[int, ...], ...],
    bound: int,
) -> dict[int, int]:
    """Shell counts (norm -> count, norm 0 included) of a union of glue cosets.

    `words` must be the full glue group; the cosets are disjoint, so the total
    is a sum over words of convolutions of per-component coset counts.
    """
    total: dict[Fraction, int] = {}
    b = Fraction(bound)
    for word in words:
        conv: dict[Fraction, int] = {Fraction(0): 1}
        for (kind, rank), cls in zip(components, word):
            table = component_coset_counts(kind, rank, cls, b)
            new: dict[Fraction, int] = {}
            for acc_norm, acc_cnt in conv.items():
                room = b - acc_norm
                for norm, cnt in table:
                    if norm > room:
                        break
                    key = acc_norm + norm
                    new[key] = new.get(key, 0) + acc_cnt * cnt
            conv = new
        for norm, cnt in conv.items():
            total[norm] = total.get(norm, 0) + cnt
    out: dict[int, int] = {}
    for norm, cnt in total.items():
        if norm.denominator != 1:
            raise ValueError("glue cosets produced non-integral norms: not a lattice")
        out[int(norm)] = out.get(int(norm), 0) + cnt
    return out
