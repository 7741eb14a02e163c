"""Construction and validation of even unimodular lattices.

Lattices are held as a rational basis (rows in a Euclidean ambient space)
together with the integer Gram matrix of that basis.  Root lattices, direct
sums, D_n^+ plus-constructions and glue-code lattices are all built here and
checked exactly: evenness, determinant, positive definiteness, root counts
and the root-system label.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import enumeration, rootdata
from .exactnum import (
    IntMatrix,
    RatMatrix,
    det_exact,
    gram_of_rows,
    is_positive_definite,
    row_basis_rational,
)


class LatticeError(ValueError):
    pass


class EmptyLatticeError(LatticeError):
    pass


@dataclass(frozen=True)
class GlueSpec:
    """Root-lattice components plus generator words in the product of their
    discriminant groups (entries are standard class indices)."""

    components: tuple[tuple[str, int], ...]
    glue_words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for word in self.glue_words:
            if len(word) != len(self.components):
                raise LatticeError("glue word length != number of components")
            for (kind, rank), cls in zip(self.components, word):
                if not 0 <= cls < rootdata.disc_order(kind, rank):
                    raise LatticeError(f"glue class {cls} invalid for {kind}{rank}")

    def word_group(self) -> tuple[tuple[int, ...], ...]:
        """Closure of the generator words under componentwise class addition."""
        zero = tuple(0 for _ in self.components)
        group = {zero}
        frontier = [zero]
        while frontier:
            base = frontier.pop()
            for gen in self.glue_words:
                s = tuple(
                    rootdata.class_add(kind, rank, a, b)
                    for (kind, rank), a, b in zip(self.components, base, gen)
                )
                if s not in group:
                    group.add(s)
                    frontier.append(s)
        return tuple(sorted(group))


@dataclass(frozen=True)
class Lattice:
    """An integral lattice: rational basis rows in Euclidean ambient space, with
    the exact Gram matrix of those rows."""

    name: str
    basis: RatMatrix
    gram: IntMatrix
    decomposition: tuple[tuple[tuple[str, int], ...], tuple[tuple[int, ...], ...]] | None = field(
        default=None, compare=False
    )

    @property
    def rank(self) -> int:
        return self.gram.nrows

    @property
    def fingerprint(self) -> str:
        return _fingerprint(self.gram)

    def __repr__(self):
        return f"Lattice({self.name}, rank {self.rank})"


@lru_cache(maxsize=None)
def _fingerprint_cached(rows: tuple[tuple[int, ...], ...]) -> str:
    h = hashlib.sha256()
    h.update(repr(rows).encode())
    return h.hexdigest()[:32]


def _fingerprint(gram: IntMatrix) -> str:
    return _fingerprint_cached(gram.rows)


@dataclass(frozen=True)
class RootSystemReport:
    """Multiset of irreducible components of the norm-2 vectors, plus their count."""

    components: tuple[tuple[str, int], ...]  # (symbol like "A5", multiplicity), sorted
    r2: int

    @property
    def label(self) -> str:
        return "".join(
            f"{sym}^{mult}" if mult > 1 else sym for sym, mult in self.components
        ) or "(no roots)"


@dataclass(frozen=True)
class ValidationReport:
    even: bool
    det: int
    positive_definite: bool
    min_norm: int | None
    root_count: int | None

    @property
    def is_even_unimodular(self) -> bool:
        return self.even and self.det == 1 and self.positive_definite


def from_gram(name: str, gram, decomposition=None) -> Lattice:
    g = gram if isinstance(gram, IntMatrix) else IntMatrix.from_rows(gram)
    if not g.is_symmetric():
        raise LatticeError("Gram matrix must be symmetric")
    n = g.nrows
    basis = RatMatrix.from_rows([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])
    return Lattice(name=name, basis=basis, gram=g, decomposition=decomposition)


def root_lattice(kind: str, rank: int) -> Lattice:
    """The ADE root lattice with the standard Dynkin Gram matrix."""
    roots = rootdata.simple_roots(kind, rank)
    gram = rootdata.ade_gram(kind, rank)
    return Lattice(
        name=f"{kind}{rank}",
        basis=RatMatrix.from_rows(roots),
        gram=gram,
        decomposition=(((kind, rank),), ((0,),)),
    )


def direct_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Orthogonal direct sum; Gram is block diagonal."""
    n1, n2 = l1.rank, l2.rank
    a1, a2 = l1.basis.ncols, l2.basis.ncols
    rows = []
    for r in l1.basis.rows:
        rows.append(list(r) + [Fraction(0)] * a2)
    for r in l2.basis.rows:
        rows.append([Fraction(0)] * a1 + list(r))
    gram = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            gram[i][j] = l1.gram.rows[i][j]
    for i in range(n2):
        for j in range(n2):
            gram[n1 + i][n1 + j] = l2.gram.rows[i][j]
    decomposition = None
    if l1.decomposition and l2.decomposition:
        (c1, w1), (c2, w2) = l1.decomposition, l2.decomposition
        if len(w1) * len(w2) <= 4096:
            decomposition = (c1 + c2, tuple(a + b for a in w1 for b in w2))
    name = f"{l1.name}+{l2.name}"
    if n1 == 0:
        return Lattice(name=l2.name, basis=l2.basis, gram=l2.gram, decomposition=l2.decomposition)
    if n2 == 0:
        return Lattice(name=l1.name, basis=l1.basis, gram=l1.gram, decomposition=l1.decomposition)
    return Lattice(
        name=name,
        basis=RatMatrix.from_rows(rows),
        gram=IntMatrix.from_rows(gram),
        decomposition=decomposition,
    )


ZERO_LATTICE = Lattice(name="0", basis=RatMatrix(()), gram=IntMatrix(()), decomposition=((), ((),)))


def plus_construction(n: int) -> Lattice:
    """D_n^+: D_n together with the all-halves glue vector; even unimodular iff 8 | n."""
    if n < 8 or n % 8 != 0:
        raise LatticeError(f"D_{n}^+ is not an even unimodular lattice (need n = 0 mod 8)")
    dn = rootdata.simple_roots("D", n)
    rows = [list(r) for r in dn]
    rows.append([Fraction(1, 2)] * n)
    basis = row_basis_rational(rows)
    if len(basis) != n:
        raise LatticeError("plus construction did not give a full-rank lattice")
    gram_rat = gram_of_rows(basis)
    if any(x.denominator != 1 for r in gram_rat for x in r):
        raise LatticeError("plus construction gave a non-integral Gram matrix")
    gram = IntMatrix.from_rows([[int(x) for x in r] for r in gram_rat])
    lat = Lattice(
        name=f"D{n}+",
        basis=RatMatrix.from_rows(basis),
        gram=gram,
        decomposition=((("D", n),), ((0,), (1,))),
    )
    _require_even_unimodular(lat)
    return lat


def glue(spec: GlueSpec, name: str | None = None) -> Lattice:
    """Union of glue-group cosets of the orthogonal sum of root lattices.

    Fails unless the result is an integral even unimodular positive definite
    lattice (bad glue data is detected, not repaired).
    """
    words = spec.word_group()
    total_rank = sum(rank for _, rank in spec.components)
    offsets = []
    dim = 0
    for kind, rank in spec.components:
        offsets.append(dim)
        dim += rootdata.ambient_dim(kind, rank)
    rows: list[list[Fraction]] = []
    for (kind, rank), off in zip(spec.components, offsets):
        for root in rootdata.simple_roots(kind, rank):
            row = [Fraction(0)] * dim
            for t, x in enumerate(root):
                row[off + t] = x
            rows.append(row)
    for word in words:
        row = [Fraction(0)] * dim
        for (kind, rank), cls, off in zip(spec.components, word, offsets):
            rep = rootdata.disc_rep_ambient(kind, rank, cls)
            for t, x in enumerate(rep):
                row[off + t] += x
        rows.append(row)
    basis = row_basis_rational(rows)
    if len(basis) != total_rank:
        raise LatticeError(
            f"glue produced rank {len(basis)}, expected {total_rank}"
        )
    gram_rat = gram_of_rows(basis)
    if any(x.denominator != 1 for r in gram_rat for x in r):
        raise LatticeError("glue words do not give an integral lattice")
    gram = IntMatrix.from_rows([[int(x) for x in r] for r in gram_rat])
    if name is None:
        name = "".join(f"{k}{r}" for k, r in spec.components)
    lat = Lattice(
        name=name,
        basis=RatMatrix.from_rows(basis),
        gram=gram,
        decomposition=(spec.components, words),
    )
    _require_even_unimodular(lat)
    return lat


def _require_even_unimodular(lat: Lattice) -> None:
    rep = validate(lat)
    if not rep.is_even_unimodular:
        raise LatticeError(
            f"{lat.name}: construction is not even unimodular positive definite "
            f"(even={rep.even}, det={rep.det}, pd={rep.positive_definite})"
        )


def validate(lat: Lattice) -> ValidationReport:
    """Exact invariant checks; enumeration supplies min norm and root count."""
    g = lat.gram
    even = all(g.rows[i][i] % 2 == 0 for i in range(g.nrows))
    det = det_exact(g)
    pd = is_positive_definite(g) if g.nrows else True
    min_norm = None
    roots = None
    if pd and g.nrows:
        min_norm = minimum_norm(lat)
        roots = enumeration.shell_count(lat, 2)
    return ValidationReport(even=even, det=det, positive_definite=pd, min_norm=min_norm, root_count=roots)


def minimum_norm(lat: Lattice) -> int:
    """Smallest nonzero norm, by enumeration with a growing bound."""
    if lat.rank == 0:
        raise EmptyLatticeError("rank-0 lattice has no nonzero vectors")
    bound = 2
    limit = 2 * max(lat.gram.rows[i][i] for i in range(lat.rank))
    while True:
        counts = enumeration.shell_counts_upto(lat, bound)
        hits = [q for q, c in counts.items() if q > 0 and c > 0]
        if hits:
            return min(hits)
        if bound > limit:
            raise LatticeError("no nonzero vector below twice the largest diagonal entry")
        bound *= 2


def extremality_bound(rank: int) -> int:
    """Upper bound for the minimal norm of an even unimodular lattice of this rank."""
    return 2 * (rank // 24) + 2


def extremality_check(lat: Lattice) -> dict:
    bound = extremality_bound(lat.rank)
    mu = minimum_norm(lat)
    return {"bound": bound, "is_extremal": mu == bound, "min_norm": mu}


def root_system(lat: Lattice) -> RootSystemReport:
    """Classify the norm-2 vectors into irreducible ADE components
    (`enumeration.root_components`)."""
    comps = enumeration.root_components(lat)
    counts = Counter(sym for sym, _ in comps)
    ordered = tuple(sorted(counts.items(), key=lambda item: (item[0][0], int(item[0][1:]))))
    return RootSystemReport(components=ordered, r2=sum(n for _, n in comps))


def stable_eq_hyp_predicate(l1: Lattice, l2: Lattice) -> bool:
    """Whether the pair satisfies the rank/minimum hypotheses rank equal,
    minimum equal, and rank/minimum <= 8."""
    if l1.rank != l2.rank:
        return False
    m1, m2 = minimum_norm(l1), minimum_norm(l2)
    if m1 != m2:
        return False
    return hyp_ratio_ok(l1.rank, m1)


def hyp_ratio_ok(rank: int, mu: int) -> bool:
    return rank <= 8 * mu
