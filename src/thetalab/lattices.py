"""Construction and validation of even unimodular lattices.

A lattice is its integer Gram matrix; every invariant and every count
depends on nothing else.  Root lattices, direct sums, D_n^+
plus-constructions and glue-code lattices are all built here, the last two
from integer rows in a Euclidean ambient space at one common scale, used
once to form the Gram matrix.  Each is checked exactly: evenness,
determinant, positive definiteness, root counts and the root-system label.
Determinant and definiteness are read off the Gram-Schmidt data that the
basis reduction keeps (`enumeration.gram_determinant`).
"""

from __future__ import annotations

import hashlib
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

from . import enumeration, rootdata
from .exactnum import NotPositiveDefiniteError, _hnf_int_rows, det_exact, scaled_gram


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
        """Closure of the generator words under componentwise class addition,
        one generator g at a time: while g is not in the group H so far, H
        grows by the cosets H + g, H + 2g, ... up to the first multiple of g
        that lies in H, each coset the previous one plus g.  So each word
        costs one componentwise addition."""

        def add(word, gen):
            return tuple(rootdata.class_add(kind, rank, a, b) for (kind, rank), a, b in zip(self.components, word, gen))

        group = [tuple(0 for _ in self.components)]
        seen = set(group)
        for gen in self.glue_words:
            coset = group
            # coset[0] is the latest multiple of gen, as group[0] is zero.
            while add(coset[0], gen) not in seen:
                coset = [add(w, gen) for w in coset]
                group += coset
                seen.update(coset)
        return tuple(sorted(group))


@dataclass(frozen=True)
class Lattice:
    """An integral lattice, given by the Gram matrix of a basis as a tuple of
    int rows, and for glued lattices the glue data that its coset counts use."""

    name: str
    gram: tuple[tuple[int, ...], ...]
    decomposition: tuple[tuple[tuple[str, int], ...], tuple[tuple[int, ...], ...]] | None = field(
        default=None, compare=False
    )

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def fingerprint(self) -> str:
        # Kept on the instance: every cache lookup reads it, and hashing the
        # Gram tuple again would cost rank^2 steps each time.
        return hashlib.sha256(repr(self.gram).encode()).hexdigest()[:32]

    def __repr__(self):
        return f"Lattice({self.name}, rank {self.rank})"


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


def from_gram(name: str, gram) -> Lattice:
    """The lattice with this Gram matrix: square, symmetric, with integer
    entries (`operator.index`, so numpy integers pass and 2.5 or "2" do not)."""
    try:
        rows = tuple(tuple(map(operator.index, r)) for r in gram)
    except TypeError as e:
        raise LatticeError(f"Gram matrix entries must be integers: {e}")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise LatticeError("Gram matrix must be square")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise LatticeError("Gram matrix must be symmetric")
    return Lattice(name, rows)


def root_lattice(kind: str, rank: int) -> Lattice:
    """The ADE root lattice with the standard Dynkin Gram matrix."""
    return Lattice(f"{kind}{rank}", rootdata.ade_gram(kind, rank), (((kind, rank),), ((0,),)))


def direct_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Orthogonal direct sum; Gram is block diagonal."""
    n1, n2 = l1.rank, l2.rank
    if n1 == 0:
        return l2
    if n2 == 0:
        return l1
    gram = tuple(r + (0,) * n2 for r in l1.gram) + tuple((0,) * n1 + r for r in l2.gram)
    decomposition = None
    if l1.decomposition and l2.decomposition:
        (c1, w1), (c2, w2) = l1.decomposition, l2.decomposition
        if len(w1) * len(w2) <= 4096:
            decomposition = (c1 + c2, tuple(a + b for a in w1 for b in w2))
    return Lattice(f"{l1.name}+{l2.name}", gram, decomposition)


ZERO_LATTICE = Lattice("0", (), ((), ((),)))


def plus_construction(n: int) -> Lattice:
    """D_n^+: D_n together with the all-halves glue vector; even unimodular iff 8 | n."""
    if n < 8 or n % 8 != 0:
        raise LatticeError(f"D_{n}^+ is not an even unimodular lattice (need n = 0 mod 8)")
    return glue(GlueSpec((("D", n),), ((1,),)), name=f"D{n}+")


def _glue_rows(comps, words) -> tuple[list[list[int]], int]:
    """(rows, s): the simple roots of each component, then one row per glue
    word, as integer ambient rows at the common scale s, the lcm of the
    components' `rootdata.scale`."""
    s = lcm(*(rootdata.scale(kind, rank) for kind, rank in comps))
    dims = [rootdata.ambient_dim(kind, rank) for kind, rank in comps]
    rows = []
    classes = []  # per component, its class representatives at scale s
    for c, (kind, rank) in enumerate(comps):
        f = s // rootdata.scale(kind, rank)
        before, after = [0] * sum(dims[:c]), [0] * sum(dims[c + 1 :])
        rows += [before + [f * x for x in root] + after for root in rootdata.root_rows(kind, rank)]
        classes.append([[f * x for x in rootdata.class_row(kind, rank, cls)]
                        for cls in range(rootdata.disc_order(kind, rank))])
    rows += [[x for reps, cls in zip(classes, word) for x in reps[cls]] for word in words]
    return rows, s


def glue(spec: GlueSpec, name: str | None = None) -> Lattice:
    """Union of glue-group cosets of the orthogonal sum of root lattices.

    The rows of `_glue_rows` for every word of the glue group (rows for the
    generator words alone would give another basis) are row-reduced over Z
    to a basis B, and the Gram matrix is B B^T / s^2 in integers.  Fails
    unless the result is an integral even unimodular positive definite
    lattice (bad glue data is detected, not repaired).
    """
    comps = spec.components
    words = spec.word_group()
    if name is None:
        name = "".join(f"{kind}{rank}" for kind, rank in comps)
    rows, s = _glue_rows(comps, words)
    basis = _hnf_int_rows(rows)
    try:
        gram = scaled_gram(basis, s)
    except ValueError:
        raise LatticeError(f"{name}: the rows do not generate an integral lattice")
    rank = sum(rank for _, rank in comps)
    if len(basis) != rank:
        raise LatticeError(f"{name}: the rows generate rank {len(basis)}, expected {rank}")
    lat = Lattice(name, gram, (comps, words))
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
    """Exact invariant checks.  On a positive definite Gram matrix the basis
    reduction's Gram-Schmidt data give the determinant, and enumeration the
    min norm and root count; otherwise the determinant is a Bareiss
    elimination of the Gram matrix."""
    g = lat.gram
    even = all(r[i] % 2 == 0 for i, r in enumerate(g))
    try:
        det = enumeration.gram_determinant(lat)
    except NotPositiveDefiniteError:
        return ValidationReport(even=even, det=det_exact(g), positive_definite=False, min_norm=None, root_count=None)
    min_norm = None
    roots = None
    if g:
        min_norm = minimum_norm(lat)
        roots = enumeration.shell_count(lat, 2)
    return ValidationReport(even=even, det=det, positive_definite=True, min_norm=min_norm, root_count=roots)


def minimum_norm(lat: Lattice) -> int:
    """Smallest nonzero norm, by enumeration with a growing bound."""
    if lat.rank == 0:
        raise EmptyLatticeError("rank-0 lattice has no nonzero vectors")
    bound = 2
    limit = 2 * max(lat.gram[i][i] for i in range(lat.rank))
    while True:
        counts = enumeration.shell_counts_upto(lat, bound)
        hits = [q for q, c in counts.items() if q > 0 and c > 0]
        if hits:
            return min(hits)
        if bound > limit:
            raise LatticeError("no nonzero vector below twice the largest diagonal entry")
        bound *= 2


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
