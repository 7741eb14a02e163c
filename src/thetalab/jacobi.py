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
lattice at once, and a direct check over the shells of small norm
cross-checks it (above norm 2 on one vector per Weyl orbit: both sides are
W-invariant).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import enumeration
from .enumeration import GramTarget, representation_count, shell_count
from .lattices import LatticeError
from .lazy import lazy_module

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from .lattices import Lattice


@dataclass
class JacobiCoefficient:
    """Joint counts N(S, l) for all S with trace <= trace_bound."""

    genus: int
    index: int  # the n of the q^n coefficient; y ranges over vectors of norm 2n
    trace_bound: int
    entries: dict[tuple[GramTarget, tuple[int, ...]], int]

    @functools.cached_property
    def moments(self) -> dict[GramTarget, list[int]]:
        """The sums over l of l_i l_j N(S, l), i <= j row-major, of each S:
        one pass over the entries."""
        out: dict[GramTarget, list[int]] = {}
        for (s, ell), c in self.entries.items():
            terms = [x * y * c for i, x in enumerate(ell) for y in ell[i:]]
            out[s] = list(map(operator.add, out[s], terms)) if s in out else terms
        return out


@functools.cache
def _slots(genus: int, index: int, trace_bound: int) -> tuple[tuple, enumeration.IndexTable]:
    """The (S, l) keys of the table, one GramTarget per S, and in the same
    order the degree-(g+1) indices [[S, l], [l^T, 2n]] with trace(S) <= bound,
    with only the classes they use; one list per (genus, bound, n)."""
    two_n = 2 * index
    table = enumeration.index_classes(genus + 1, trace_bound + two_n)
    table = table.restrict([t.entries[genus][genus] == two_n for t in table.targets])
    cut = operator.itemgetter(slice(genus))
    entries = [t.entries for t in table.targets]
    rows = [tuple(map(cut, e[:genus])) for e in entries]
    s_of = {s: GramTarget(s) for s in dict.fromkeys(rows)}
    return tuple(zip(map(s_of.__getitem__, rows), [cut(e[genus]) for e in entries])), table


def jacobi_coefficient(lat: "Lattice", genus: int, index: int, trace_bound: int, jobs: int = 1) -> JacobiCoefficient:
    """Exact joint counts for the index-n Fourier-Jacobi coefficient.

    N(S, l) counts the tuples (x_1..x_g, y) whose Gram matrix is the
    degree-(g+1) index T = [[S, l], [l^T, 2n]], so it is r_L(T); the table
    holds r_L(T) for every candidate T with T_gg = 2n and trace(S) <= bound,
    zeros omitted.  The slots (S, l) and their classes are listed once per
    (genus, bound, n), and each class is counted once by `class_counts`.
    `jobs` is ignored; it stays only because bench/workloads.py passes it.
    """
    if index < 1:
        raise ValueError("Fourier-Jacobi index must be >= 1")
    entries: dict[tuple[GramTarget, tuple[int, ...]], int] = {}
    if shell_count(lat, 2 * index):
        keys, table = _slots(genus, index, trace_bound)
        entries = {key: c for key, c in zip(keys, enumeration.class_counts(lat, table)) if c}
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
    verified_vectors: int  # vectors covered by the direct sum (orbits by their sizes)


def _root_moment_matrix(lat: "Lattice", gram: "np.ndarray") -> tuple[int, "np.ndarray", "np.ndarray"]:
    """(r2, M, half) with M = sum over roots y of (G y)(G y)^T, exactly, as
    int64, G = gram the lattice's Gram matrix: y and -y give the same term,
    so M is twice the sum over `half`, the stored roots, one of each pair in
    reduced-basis coordinates.  G y in the original basis is
    half @ (transform @ G), transform's rows being the reduced basis."""
    ctx = enumeration._context(lat)
    half = ctx.shell_array(2)
    r2 = 2 * len(half)
    if r2 == 0:
        raise LatticeError("no roots: the moment identity is vacuous")
    u = np.array(ctx.transform, dtype=np.int64)
    assert int(np.abs(u).max()) * int(np.abs(gram).max()) * lat.rank < 2**63
    ug = u @ gram
    assert ctx.shell_top(2) * int(np.abs(ug).max()) * lat.rank < 2**63
    gy = half.astype(np.int64) @ ug  # rows are (G y)^T
    assert int(np.abs(gy).max()) ** 2 * r2 < 2**62  # r2 / 2 terms, doubled
    return r2, 2 * (gy.T @ gy), half


def venkov_constant(lat: "Lattice", norm_bound: int = 8, per_vector_norm_cap: int = 4) -> VenkovReport:
    """The unique c with r2 * Q(v,v) = c * sum_{roots y} Q(y,v)^2 for every v.

    Both sides are quadratic forms in v, so the identity for all v (any norm
    bound) is exactly the matrix equality r2 * G = c * M with M the root
    second-moment matrix; that equality is what is checked, in integers,
    with c = num/den read from the first nonzero entry of M and
    r2 * G * den = num * M compared as one integer array.  Vectors with norm
    up to per_vector_norm_cap are additionally re-verified by the direct
    sum over roots: the roots themselves, and above norm 2 one dominant
    vector per Weyl orbit.  `verified_vectors` counts the vectors so
    covered, each orbit by its size.
    """
    gram = np.array(lat.gram, dtype=np.int64)
    r2, m, half = _root_moment_matrix(lat, gram)
    n = lat.rank
    nonzero = np.flatnonzero(m)
    num, den = (r2 * int(gram.flat[nonzero[0]]), int(m.flat[nonzero[0]])) if nonzero.size else (0, 0)
    # |r2 G den| and |num M| are at most r2 max|G| max|M|; beyond int64, Python ints.
    if r2 * int(np.abs(gram).max()) * int(np.abs(m).max()) >= 2**63:
        gram, m = gram.astype(object), m.astype(object)
    consistent = bool(den) and bool((r2 * den * gram == num * m).all())
    verified = 0
    if consistent and per_vector_norm_cap > 0:
        # Both sides are invariant under the Weyl group W (it permutes the
        # roots), so above norm 2 one dominant vector per W-orbit checks its
        # whole orbit.  The norm-2 shell is the roots themselves: checking
        # them all is one product over the roots, cheaper than finding W.
        # v and -v, y and -y give the same squares, so both run over one
        # root of each pair and the sum over y is doubled.
        # Q(y, v) is basis-free: reduced coordinates, int64.
        # The norms come from the shell counts, so no shell above norm 2 is
        # stored.
        ctx = enumeration._context(lat)
        gy = half.astype(np.int64) @ ctx._gram_red_np
        for norm, count in sorted(ctx.counts_upto(min(norm_bound, per_vector_norm_cap)).items()):
            if not norm or not count:
                continue
            if norm == 2:
                rows, covered = half, r2
            else:
                rows, weights = ctx.orbits(norm)
                covered = int(weights.sum())
            assert (int(np.abs(gy).max()) * int(np.abs(rows).max(initial=0)) * n) ** 2 * r2 < 2**62
            dots = rows.astype(np.int64) @ gy.T
            sums = 2 * np.einsum("ij,ij->i", dots, dots)
            # At most one sum satisfies the identity: checking the extremes checks all.
            for rhs_direct in (int(sums.min()), int(sums.max())):
                consistent &= r2 * norm * den == num * rhs_direct
            verified += covered
    return VenkovReport(
        lattice_id=lat.name,
        r2=r2,
        constant=Fraction(num, den or 1),
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
    if jacobi is None:
        jacobi = jacobi_coefficient(lat, genus, 1, s.trace)
    return _heat_identity(shell_count(lat, 2), s, representation_count(lat, s), c, jacobi)


def heat_profile_check(lat: "Lattice", genus: int, trace_bound: int, c: Fraction,
                       jacobi: JacobiCoefficient) -> dict[GramTarget, bool]:
    """The heat identity at every S with trace <= bound and r_L(S) != 0, in
    canonical order, one count per class (where r_L(S) = 0, N(S, l) = 0 too)."""
    r2 = shell_count(lat, 2)
    table = enumeration.index_classes(genus, trace_bound)
    counts = zip(table.targets, enumeration.class_counts(lat, table))
    return {s: _heat_identity(r2, s, r_s, c, jacobi) for s, r_s in counts if r_s}


def _heat_identity(r2: int, s: GramTarget, r_s: int, c: Fraction, jacobi: JacobiCoefficient) -> bool:
    sums = jacobi.moments.get(s) or [0] * len(s.upper())
    return all(r2 * x * r_s * c.denominator == c.numerator * m for x, m in zip(s.upper(), sums))
