"""Fourier-Jacobi coefficients as joint counts, the root-moment identity, and
the coefficient-level heat equation.

The n-th Fourier-Jacobi coefficient of a degree-(g+1) theta series is stored
as the exact table N(S, l) = #{(x_1..x_g, y) : Gram(x) = S, Q(y) = 2n,
Q(y, x_i) = l_i}.  By the theta decomposition (Eichler-Zagier, The Theory of
Jacobi Forms) this is the degree-(g+1) representation number
r_L([[S, l], [l^T, 2n]]), so the table is read from
`enumeration.representation_count` and has no counting engine of its own.

The root-moment identity r2 * Q(v,v) = c * sum_y Q(y,v)^2 is checked through
the exact second-moment matrix M = sum_y (Gy)(Gy)^T: the matrix equality
r2 * G = c * M is equivalent to the identity holding for every vector of the
lattice at once, and a direct per-vector check over enumerated shells
cross-checks it on small norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from . import enumeration
from .enumeration import GramTarget, representation_count, shell_count
from .lattices import LatticeError

if TYPE_CHECKING:  # pragma: no cover
    from .lattices import Lattice


@dataclass
class JacobiCoefficient:
    """Joint counts N(S, l) for all S with trace <= trace_bound."""

    genus: int
    index: int  # the n of the q^n coefficient; y ranges over vectors of norm 2n
    trace_bound: int
    entries: dict[tuple[GramTarget, tuple[int, ...]], int]

    def second_moment(self, s: GramTarget, i: int, j: int) -> int:
        """Exact sum over l of l_i * l_j * N(S, l)."""
        return sum(ell[i] * ell[j] * c for (t, ell), c in self.entries.items() if t == s)


def jacobi_coefficient(lat: "Lattice", genus: int, index: int, trace_bound: int, jobs: int = 1) -> JacobiCoefficient:
    """Exact joint counts for the index-n Fourier-Jacobi coefficient.

    N(S, l) counts the tuples (x_1..x_g, y) whose Gram matrix is the
    degree-(g+1) index T = [[S, l], [l^T, 2n]], so it is r_L(T); the table
    holds r_L(T) for every candidate T with T_gg = 2n and trace(S) <= bound.
    `jobs` is ignored; it stays only because bench/workloads.py passes it.
    """
    if index < 1:
        raise ValueError("Fourier-Jacobi index must be >= 1")
    two_n = 2 * index
    entries: dict[tuple[GramTarget, tuple[int, ...]], int] = {}
    if shell_count(lat, two_n):
        targets = [t for t in enumeration.candidate_targets(genus + 1, trace_bound + two_n)
                   if t.entries[genus][genus] == two_n]
        for t, c in enumeration.class_counts(lat, targets).items():
            if c:
                s = GramTarget(tuple(row[:genus] for row in t.entries[:genus]))
                entries[(s, t.entries[genus][:genus])] = c
    return JacobiCoefficient(genus=genus, index=index, trace_bound=trace_bound, entries=entries)


# ---------------------------------------------------------------------------
# Root second-moment identity


@dataclass(frozen=True)
class VenkovReport:
    lattice_id: str
    r2: int
    constant: Fraction
    checked_norm_bound: int
    consistent: bool
    verified_vectors: int  # vectors re-checked by the direct per-vector sum


def _root_moment_matrix(lat: "Lattice") -> tuple[int, list[list[int]]]:
    """(r2, M) with M = sum over roots y of (G y)(G y)^T, exactly."""
    table = enumeration.shell_vectors(lat, 2)
    roots = table.get(2, [])
    r2 = len(roots)
    if r2 == 0:
        raise LatticeError("no roots: the moment identity is vacuous")
    g = np.array([list(r) for r in lat.gram.rows], dtype=np.int64)
    y = np.array(roots, dtype=np.int64)
    gy = y @ g  # rows are (G y)^T
    assert int(np.abs(gy).max()) ** 2 * r2 < 2**62
    m = gy.T @ gy
    return r2, [[int(x) for x in row] for row in m]


def venkov_constant(lat: "Lattice", norm_bound: int = 8, per_vector_norm_cap: int = 4) -> VenkovReport:
    """The unique c with r2 * Q(v,v) = c * sum_{roots y} Q(y,v)^2 for every v.

    Both sides are quadratic forms in v, so the identity for all v (any norm
    bound) is exactly the matrix equality r2 * G = c * M with M the root
    second-moment matrix; that equality is what is checked.  Vectors with norm
    up to per_vector_norm_cap are additionally re-verified by the direct sum
    over roots.
    """
    r2, m = _root_moment_matrix(lat)
    gram = lat.gram.rows
    n = lat.rank
    c = None
    consistent = True
    for i in range(n):
        for j in range(n):
            lhs = r2 * gram[i][j]
            rhs = m[i][j]
            if rhs == 0:
                if lhs != 0:
                    consistent = False
                continue
            ratio = Fraction(lhs, rhs)
            if c is None:
                c = ratio
            elif ratio != c:
                consistent = False
    if c is None:
        consistent = False
        c = Fraction(0)
    verified = 0
    if consistent and per_vector_norm_cap > 0:
        # Q(y, v) is basis-free: reduced coordinates, int64 blocks of 2^14 entries.
        ctx = enumeration._context(lat)
        gy = ctx.shell_array(2).astype(np.int64) @ ctx._gram_red_np
        step = max(1, (1 << 14) // len(gy))
        for norm, vecs in sorted(ctx.shell_arrays_upto(min(norm_bound, per_vector_norm_cap)).items()):
            assert (int(np.abs(gy).max()) * int(np.abs(vecs).max(initial=0)) * n) ** 2 * len(gy) < 2**62
            for start in range(0, len(vecs), step):
                dots = vecs[start : start + step].astype(np.int64) @ gy.T
                sums = np.einsum("ij,ij->i", dots, dots)
                # At most one sum satisfies the identity: checking the extremes checks all.
                for rhs_direct in (int(sums.min()), int(sums.max())):
                    consistent &= r2 * norm * c.denominator == c.numerator * rhs_direct
            verified += len(vecs)
    return VenkovReport(
        lattice_id=lat.name,
        r2=r2,
        constant=c,
        checked_norm_bound=norm_bound,
        consistent=consistent,
        verified_vectors=verified,
    )


def heat_coefficient_check(
    lat: "Lattice",
    genus: int,
    s: GramTarget,
    c: Fraction,
    jacobi: JacobiCoefficient | None = None,
    jobs: int = 1,
) -> bool:
    """Exact identity r2 * S_ij * r_L(S) = c * sum_l l_i l_j N(S, l) for i <= j.
    `jobs` is ignored; it stays only because bench/workloads.py passes it."""
    s.check_valid()
    r2 = shell_count(lat, 2)
    if jacobi is None:
        jacobi = jacobi_coefficient(lat, genus, 1, s.trace)
    r_s = representation_count(lat, s)
    for i in range(genus):
        for j in range(i, genus):
            moment = jacobi.second_moment(s, i, j)
            lhs = r2 * s.entries[i][j] * r_s
            if lhs * c.denominator != c.numerator * moment:
                return False
    return True


def pair_difference_f1_check(left: "Lattice", right: "Lattice", genus: int, trace_bound: int) -> bool:
    """Verify the chain used for same-root-count pairs: equal root numbers, one
    shared constant c, and the first Fourier-Jacobi second moments of both
    lattices pinned to their representation numbers by the heat identity."""
    r2_left = shell_count(left, 2)
    r2_right = shell_count(right, 2)
    if r2_left != r2_right:
        raise LatticeError(f"root counts differ: {r2_left} != {r2_right}")
    rep_left = venkov_constant(left, per_vector_norm_cap=2)
    rep_right = venkov_constant(right, per_vector_norm_cap=2)
    if not (rep_left.consistent and rep_right.consistent and rep_left.constant == rep_right.constant):
        return False
    c = rep_left.constant
    for lat in (left, right):
        jac = jacobi_coefficient(lat, genus, 1, trace_bound)
        for s in enumeration.candidate_targets(genus, trace_bound):
            if not heat_coefficient_check(lat, genus, s, c, jacobi=jac):
                return False
    return True
