"""Exact lattice-vector enumeration and representation counting.

Every theta coefficient in this package is a representation number
r_L(T) = #{ordered tuples (x_1..x_g) in L^g with Q(x_i, x_j) = T_ij}, computed
by direct counting.  It depends only on the GL_g(Z)-class of T, so each index
is first replaced by its class representative (`class_representative`: a
reduced matrix without zero rows, in a normal form under slot permutations
and sign changes, not a complete invariant of the class); counts, caches and
profiles work on representatives.
One table per (genus, bound), `index_classes`, lists the indices, each
representative once and the position of each index's representative
(trace <= 8: 395 indices, 44 signed-permutation orbits, 26 classes at
degree 3, and 2262, 70, 40 at degree 4).  The indices with a zero row come
from the table one genus down; of the others it reduces one per orbit, met
in normal form, whose search tries only the permutations that maximise row
0 of the off-diagonal entries (signs cannot change it).  Each process
builds its tables anew: (1, 8) to (3, 8) and the genus-2 Jacobi slots of
trace <= 6 take 4 to 5.5 ms in a fresh fork on a 2-core host.
A profile (`class_counts`) looks each class up by its key, counts it if it
is not cached, and expands the counts by position.  The classes come most
demanding first (see the orbit counter below), so one walk of each kind
serves the whole profile, and the new counts reach the disk cache in one
append.
Three engines cover the shapes of the representatives:

* an exact Fincke-Pohst walk for shells and for genus-1 counts (glued lattices
  instead get exact coset-decomposition counts, which agree and are fast),
* a root-system factorisation when every diagonal entry of T is 2 (the hot
  path for genus 3 and 4): a sum over the placements of T's connected blocks
  (`weyl.pieces` of its nonzero pattern) in the irreducible root components,
  of products of per-component counts, each kept per ADE type and found by
  a bitset depth-first search with the first root fixed (the Weyl group is
  transitive on the roots); from genus 3 on it is the highest root, and the
  second runs over one root of each orbit of its stabiliser,
* one orbit counter for every other shape: its first slot, the one with the
  largest diagonal entry, runs over one vector of each Weyl-group orbit
  (`weyl`), the middle slots are walked over stored shells, and the last two
  slots are one weighted histogram of blocked integer products (at genus 2,
  against one of each +-z pair).  Only the slots after the first are stored.

The orbits come from one walk on L when the simple roots number the rank
(every built-in lattice, and every sum of root lattices): a dominant y is
determined by c_i = (y, alpha_i) >= 0 over the simple roots alpha_i, and
in a basis of L whose c-coordinates are upper triangular (from one echelon
form, `_LatticeContext._chamber`), c_i >= 0 is a lower bound on x_i once
x_{i+1..n-1} are fixed.  So a Fincke-Pohst walk clipped to that cone
yields exactly the dominant vectors of L (`_cone_walk`), and no shell is
stored.  When the roots do not span, the dominant vectors are filtered
from the stored shell instead.  Either way the orbit sizes must sum to the
shell count.

The root engine and the orbit counter share one root-system record per
lattice (`_LatticeContext.root_system`), found once from one root of each
+-pair of the norm-2 shell, as (-x, y) = -(x, y): the roots, their
inner-product masks, the simple roots of the lexicographic positive system,
the components, each typed by its simple roots (`weyl.components`), and |W|.
A lattice without roots has W = 1; its orbits are then those of -1.
Everything runs in one process.

Every engine that stores shells gets them from `_LatticeContext`, which sizes
them from the shell counts first and refuses more than
`_SHELL_VECTORS_LIMIT` vectors, and keeps one vector of each +-pair.  The Fourier-Jacobi tables of `jacobi` are
representation numbers one degree up and go through `class_counts` too, on
a restriction of the degree-(g+1) table (`IndexTable.restrict`).

All numpy arithmetic is integer-typed with proven no-overflow bounds, so the
results are exact; nothing here uses floating point.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import os
import zlib
from dataclasses import dataclass
from math import isqrt
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from . import cosets, weyl
from .exactnum import GramSchmidt, _hnf_int_rows, integral_gram_schmidt, is_positive_semidefinite
from .fincke_pohst import by_norm, cone_upto, counts_upto, lll_gram, shells_upto
from .lazy import lazy_module
from .weyl import iter_bits

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from .lattices import Lattice


class RepresentationDomainError(ValueError):
    """Raised when a coefficient index is not an even positive semidefinite
    matrix, or when counting it would need too much memory or work."""


# ---------------------------------------------------------------------------
# Coefficient indices


@dataclass(frozen=True)
class GramTarget:
    """Symmetric integer matrix indexing one Fourier coefficient of degree g."""

    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GramTarget":
        """Integer entries only (`operator.index`: numpy ints pass, floats and
        strings raise RepresentationDomainError)."""
        try:
            return cls(tuple(tuple(operator.index(x) for x in r) for r in rows))
        except TypeError as e:
            raise RepresentationDomainError(f"index entries must be integers: {e}") from None

    @classmethod
    def from_upper(cls, genus: int, upper: Sequence[int]) -> "GramTarget":
        if len(upper) != genus * (genus + 1) // 2:
            raise RepresentationDomainError(
                f"{len(upper)} entries are not the upper triangle of a genus-{genus} index"
            )
        rows = [[0] * genus for _ in range(genus)]
        it = iter(upper)
        for i in range(genus):
            for j in range(i, genus):
                rows[i][j] = rows[j][i] = next(it)
        return cls.from_rows(rows)

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "GramTarget":
        n = len(diag)
        return cls.from_rows([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, genus: int) -> "GramTarget":
        return cls.diagonal([0] * genus)

    @property
    def genus(self) -> int:
        return len(self.entries)

    @property
    def trace(self) -> int:
        return sum(map(operator.getitem, self.entries, range(self.genus)))

    def upper(self) -> tuple[int, ...]:
        return tuple(
            self.entries[i][j] for i in range(self.genus) for j in range(i, self.genus)
        )

    def key(self) -> str:
        return self._key

    @functools.cached_property
    def _key(self) -> str:
        # Kept on the instance (not a dataclass field), so equality still
        # reads the entries alone.
        return f"{self.genus}|" + " ".join(str(x) for x in self.upper())

    _hash = None  # not a field; the first hash sets the instance's own

    def __hash__(self) -> int:
        # Hashed once and kept on the instance, as every dict and cache lookup
        # hashes the target again; the value is the one the dataclass would
        # compute, so set orders stay.
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash((self.entries,))
        return h

    def sort_key(self) -> tuple:
        return (self.trace, self.upper())

    def check_valid(self) -> None:
        rows, g = self.entries, self.genus
        if any(len(r) != g for r in rows):
            raise RepresentationDomainError("index matrix is not square")
        for i in range(g):
            if rows[i][i] < 0 or rows[i][i] % 2:
                raise RepresentationDomainError("diagonal entries must be even and nonnegative")
            if any(rows[i][j] != rows[j][i] for j in range(g)):
                raise RepresentationDomainError("index matrix must be symmetric")
        if g and not is_positive_semidefinite(rows):
            raise RepresentationDomainError("index matrix must be positive semidefinite")

    def principal_submatrix(self, keep: Sequence[int]) -> "GramTarget":
        rows = self.entries
        return GramTarget(tuple(tuple([rows[i][j] for j in keep]) for i in keep))

    def __str__(self):
        return self.key()


# ---------------------------------------------------------------------------
# Per-lattice context (reduced basis, numpy shells, root bitsets)

_CONTEXTS: dict[str, "_LatticeContext"] = {}

# Most vectors one lattice may store as shells, as int32 rows (96 bytes each
# at rank 24, and as much again while the walk's chunks are joined).
# E8+E8 and D16+ have 1,112,640 nonzero vectors of norm <= 6; E8^3 has
# 17,134,560, which would take several GB.
_SHELL_VECTORS_LIMIT = 5 * 10**6

# Most entries of one block of an integer product over a shell.
_BLOCK_ENTRIES = 1 << 20


def _context(lat: "Lattice") -> "_LatticeContext":
    ctx = _CONTEXTS.get(lat.fingerprint)
    if ctx is None:
        ctx = _LatticeContext(lat)
        _CONTEXTS[lat.fingerprint] = ctx
    return ctx


class _RootSystem(NamedTuple):
    vectors: np.ndarray  # int32 rows, reduced-basis coordinates: the positive roots, then their negatives
    masks: dict[int, list[int]]  # bit j of masks[d][i]: roots i and j have inner product d
    linked: list[int]  # bit j of linked[i]: roots i and j are not orthogonal
    simple: int  # bit mask of the simple roots
    components: list[tuple[str, int]]  # (ADE symbol, bit mask) of each irreducible component
    order: int  # |W|


class _Chamber(NamedTuple):
    """The closed dominant chamber as a cone of L: in the coordinates
    c_i = (y, alpha_i) over the simple roots alpha_i, c = H x^T for the
    lattice vector y = x V, with H upper triangular of positive diagonal."""

    gs: GramSchmidt  # integral Gram-Schmidt data of V G V^T
    cone: list[list[int]]  # H
    basis: np.ndarray  # V, int64 rows of reduced-basis coordinates


def _bit_rows(flags: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int, bit j for column j."""
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(flags, axis=1, bitorder="little")]


class _LatticeContext:
    def __init__(self, lat: "Lattice"):
        self.fingerprint = lat.fingerprint
        self.rank = lat.rank
        self.decomposition = lat.decomposition
        self.gram_red, self.transform, d, lam = lll_gram(lat.gram)
        # The integral Gram-Schmidt data of gram_red, which LLL keeps up to
        # date; every walk reads them.
        self.gs = (d, lam)
        self._shells_np: dict[int, np.ndarray] = {}
        self._shells_top: dict[int, int] = {}
        self._shells_bound = 0
        self._counts: dict[int, int] = {0: 1}
        self._counts_bound = 0
        self._orbits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._dominant: dict[int, np.ndarray] = {}
        self._dominant_bound = 0
        self._highest: dict[int, weyl.HighestRootOrbits] = {}
        self._hists: dict[tuple[int, ...], dict[int, int]] = {}

    @functools.cached_property
    def _gram_red_np(self) -> np.ndarray:
        return np.array(self.gram_red, dtype=np.int64).reshape(self.rank, self.rank)

    # ---- shells -----------------------------------------------------------

    def counts_upto(self, bound: int) -> dict[int, int]:
        bound = max(bound, 0)
        if bound > self._counts_bound:
            if self.decomposition is not None:
                comps, words = self.decomposition
                table = cosets.glued_shell_counts(tuple(comps), tuple(words), bound)
            else:
                table = counts_upto(self.gs, bound)
                table[0] = 1
            self._counts = table
            self._counts_bound = bound
        return {q: c for q, c in self._counts.items() if q <= bound}

    def count(self, norm: int) -> int:
        """The number of vectors of the norm (1 at norm 0)."""
        if norm > self._counts_bound:
            self.counts_upto(norm)
        return self._counts.get(norm, 0)

    def shell_arrays_upto(self, bound: int) -> dict[int, np.ndarray]:
        """For each norm 0 < q <= bound, one vector of each +-pair of the
        shell (`shells_upto`), as int32 rows of reduced-basis coordinates.

        The store is sized from the shell counts (coset dynamic programs on
        glued lattices) before it is built, and refused above
        _SHELL_VECTORS_LIMIT vectors, counting both vectors of each pair."""
        if bound > self._shells_bound:
            size = sum(c for q, c in self.counts_upto(bound).items() if q)
            if size > _SHELL_VECTORS_LIMIT:
                raise RepresentationDomainError(
                    f"shells to norm {bound} at rank {self.rank} too large: {size} vectors"
                )
            self._shells_np = shells_upto(self.gs, bound)
            self._shells_top = {q: int(np.abs(a).max()) for q, a in self._shells_np.items()}
            self._shells_bound = bound
        return {q: a for q, a in self._shells_np.items() if q <= bound}

    def shell_array(self, norm: int) -> np.ndarray:
        """One vector of each +-pair of the norm-q shell, q > 0."""
        if norm > self._shells_bound:
            self.shell_arrays_upto(norm)
        return self._shells_np.get(norm, np.zeros((0, self.rank), dtype=np.int32))

    def shell_top(self, norm: int) -> int:
        """The largest |coordinate| in the stored norm shell, and so in any
        subset of it or of its negatives."""
        return self._shells_top.get(norm, 0)

    # ---- roots and Weyl-group orbits ----------------------------------------

    @functools.cached_property
    def root_system(self) -> _RootSystem:
        """The roots, their inner products, and the simple roots, which type
        each irreducible component by its rank (`weyl.components`) and so
        give the order of the Weyl group W.

        Roots come in +-pairs and (-x, y) = -(x, y), so everything is found
        from one root of each pair: the h stored roots, whose last nonzero
        coordinate is positive, which are the positive roots of the
        lexicographic order from the last coordinate, followed by their
        negatives.  Root i + h is -(root i), and only the h x h inner products
        are computed.  On norm-2 vectors |(x, y)| = 2 only for y = +-x, so
        masks[2] and masks[-2] of root i are root i and its negative, and
        only the products +-1 are read from the matrix; masks[0] and
        `linked` are the complements."""
        half = self.shell_array(2)
        h = len(half)
        long = half.astype(np.int64)
        dots = long @ self._gram_red_np @ long.T
        assert dots.max(initial=0) <= 2 and dots.min(initial=0) >= -2
        plus, minus = _bit_rows(dots == 1), _bit_rows(dots == -1)
        # Root i + h is -(root i): masks[-d] is masks[d] with the halves swapped.
        ones = [x | y << h for x, y in zip(plus, minus)] + [y | x << h for x, y in zip(plus, minus)]
        same = [1 << i for i in range(2 * h)]
        swap = lambda rows: rows[h:] + rows[:h]  # noqa: E731
        linked = [a | b | c | e for a, b, c, e in zip(ones, swap(ones), same, swap(same))]
        everything = (1 << 2 * h) - 1
        masks = {-2: swap(same), -1: swap(ones), 0: [everything & ~m for m in linked], 1: ones, 2: same}
        # Lexicographic order, last coordinate first, is compatible with addition.
        simple = weyl.simple_roots(np.lexsort(half.T).tolist(), masks[1])
        components = list(weyl.components(linked, simple, everything))
        order = weyl.group_order(symbol for symbol, _ in components)
        return _RootSystem(np.concatenate([half, -half]), masks, linked, simple, components, order)

    def orbits(self, norm: int, reach: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(rows, weights): the vectors of the norm shell in the closed
        dominant chamber, one per W-orbit, and the orbit sizes.  The weights
        sum to the shell count.  Without roots W = 1, and the orbits are
        those of -1 instead (it too preserves every lattice and every count
        with a fixed first vector): one of each +-v pair, of weight 2.
        A cone walk goes on to norm `reach`, so that later norms up to it
        need no walk of their own."""
        got = self._orbits.get(norm)
        if got is None:
            rs = self.root_system
            if rs.simple:
                rows = self._dominant_rows(norm, reach)
                # y is orthogonal to -x exactly when it is orthogonal to x.
                h = len(rs.vectors) // 2
                on_half = _bit_rows(rows.astype(np.int64) @ self._gram_red_np @ rs.vectors[:h].T.astype(np.int64) == 0)
                orthogonal = [m | m << h for m in on_half]
                weights = np.array(weyl.orbit_sizes(orthogonal, rs.linked, rs.simple, rs.order), dtype=np.int64)
            else:
                rows = self.shell_array(norm)
                weights = np.full(len(rows), 2, dtype=np.int64)
            assert int(weights.sum()) == self.count(norm), f"orbit sizes do not sum to the norm-{norm} shell"
            got = self._orbits[norm] = (rows, weights)
        return got

    def _dominant_rows(self, norm: int, reach: int) -> np.ndarray:
        """The vectors of the norm shell in the closed dominant chamber: from
        the cone walk when the simple roots number the rank (one walk, to
        max(norm, reach), serves every norm it covers), else filtered from
        the stored shell and its negatives."""
        chamber = self._chamber
        if chamber is None:
            shell = self.shell_array(norm)
            rs = self.root_system
            gs = self._gram_red_np @ rs.vectors[list(iter_bits(rs.simple))].T.astype(np.int64)
            return _dominant_signs(shell, gs, self.shell_top(norm))
        if norm > self._dominant_bound:
            self._dominant_bound = max(norm, reach)
            self._dominant = _cone_walk(chamber, self._dominant_bound)
        return self._dominant.get(norm, np.zeros((0, self.rank), dtype=np.int32))

    @functools.cached_property
    def _chamber(self) -> _Chamber | None:
        """The data of the cone walk, or None when the simple roots do not
        number the rank (then they do not span L (x) Q).  c = A G y^T (A the
        simple roots, component by component), so c of the basis vector e_j
        is row j of G A^T.  The echelon form (`_hnf_int_rows`) of the rows
        (c of e_j, last coordinate first, then e_j) has n rows with positive
        pivots in columns 0..n-1; read in reverse, row k is (c of v_k
        reversed, v_k), and c of v_k is 0 beyond c_k and positive at c_k."""
        rs = self.root_system
        simple = [i for _, comp in rs.components for i in iter_bits(comp & rs.simple)]
        n, g = self.rank, self._gram_red_np
        if len(simple) != n:
            return None
        a = rs.vectors[simple].astype(np.int64)
        assert int(np.abs(a).max()) * int(np.abs(g).max()) * n < 2**63
        rows = _hnf_int_rows([c[::-1] + [int(i == j) for i in range(n)] for j, c in enumerate((g @ a.T).tolist())])
        v = np.array([r[n:] for r in reversed(rows)], dtype=np.int64)
        assert int(np.abs(v).max()) ** 2 * int(np.abs(g).max()) * n * n < 2**63
        cone = [list(c) for c in zip(*(r[n - 1 :: -1] for r in reversed(rows)))]
        return _Chamber(integral_gram_schmidt((v @ g @ v.T).tolist()), cone, v)

    def highest_root_orbits(self, comp: int) -> weyl.HighestRootOrbits:
        """`weyl.highest_root_orbits` of one irreducible root component, found once."""
        got = self._highest.get(comp)
        if got is None:
            rs = self.root_system
            got = self._highest[comp] = weyl.highest_root_orbits(rs.masks, rs.linked, rs.simple, comp)
        return got


def _cone_walk(chamber: _Chamber, bound: int) -> dict[int, np.ndarray]:
    """Every nonzero lattice vector of norm <= bound in the closed dominant
    chamber, as int32 rows grouped by norm: the walk visits the x with
    H x^T >= 0 under the form V G V^T, and y = x V."""
    xs, norms = cone_upto(chamber.gs, bound, chamber.cone)
    v = chamber.basis
    assert int(np.abs(xs).max(initial=0)) * int(np.abs(v).max()) * len(v) < 2**63
    ys = xs @ v
    assert ys.size == 0 or int(np.abs(ys).max()) < 2**31
    return by_norm(ys.astype(np.int32), norms)


def _int32_factor(factor: np.ndarray, top: int, width: int) -> tuple[np.ndarray, int]:
    """(`factor` as int32, a bound on |every partial sum of arr @ factor|)
    for rows arr of `width` coordinates of magnitude <= top, after asserting
    that the bound fits in int32, so the product is exact."""
    bound = top * int(np.abs(factor).max(initial=0)) * width
    assert bound < 2**31, "int32 overflow bound exceeded"
    return factor.astype(np.int32), bound


def _dominant_signs(arr: np.ndarray, factor: np.ndarray, top: int) -> np.ndarray:
    """The rows v of arr and of -arr whose product with `factor` has no
    negative entry, for rows of magnitude <= top; blocked, so no
    |arr| x columns matrix is built at once."""
    factor, _ = _int32_factor(factor, top, arr.shape[1])
    step = max(1, _BLOCK_ENTRIES // max(factor.shape[1], 1))
    plus = np.ones(len(arr), dtype=bool)
    minus = np.ones(len(arr), dtype=bool)
    for start in range(0, len(arr), step):
        p = arr[start : start + step] @ factor
        plus[start : start + step] = (p >= 0).all(axis=1)
        minus[start : start + step] = (p <= 0).all(axis=1)
    return np.concatenate([arr[plus], -arr[minus]])


def _dot_histogram(gram: np.ndarray, x_arr: np.ndarray, y_arr: np.ndarray, weights: np.ndarray,
                   top: int) -> dict[int, int]:
    """Exact sum over the rows x of x_arr of weights[x] times the histogram
    of x G y^T over the rows y of y_arr, whose coordinates are at most `top`
    in magnitude.

    Blocked integer products: for a block of x rows, one bincount per block
    of y rows gives each x its own histogram (int64), and the block's
    histograms are then summed with the integer weights.
    """
    if len(x_arr) == 0 or len(y_arr) == 0:
        return {}
    gx, offset = _int32_factor(gram @ x_arr.astype(np.int64).T, top, y_arr.shape[1])
    assert int(weights.sum()) * len(y_arr) < 2**62, "int64 histogram bound exceeded"
    nbins = 2 * offset + 1
    x_step = max(1, _BLOCK_ENTRIES // nbins)
    acc = np.zeros(nbins, dtype=np.int64)
    for x0 in range(0, len(x_arr), x_step):
        cols = gx[:, x0 : x0 + x_step]
        n = cols.shape[1]
        shift = offset + nbins * np.arange(n, dtype=np.int64)
        hist = np.zeros(n * nbins, dtype=np.int64)
        y_step = max(1, _BLOCK_ENTRIES // n)
        for y0 in range(0, len(y_arr), y_step):
            d = y_arr[y0 : y0 + y_step] @ cols
            hist += np.bincount((d + shift).ravel(), minlength=n * nbins)
        acc += weights[x0 : x0 + n] @ hist.reshape(n, nbins)
    return {b - offset: int(v) for b, v in enumerate(acc.tolist()) if v}


# ---------------------------------------------------------------------------
# Public shell operations


def gram_determinant(lat: "Lattice") -> int:
    """det of the Gram matrix: d[n] of the reduced basis's Gram-Schmidt data,
    as a unimodular change of basis keeps it.  Raises
    NotPositiveDefiniteError unless the Gram matrix is positive definite."""
    return _context(lat).gs[0][-1]


def shell_counts_upto(lat: "Lattice", bound: int) -> dict[int, int]:
    """Counts by norm for 0 <= norm <= bound (norm 0 counts the zero vector)."""
    return _context(lat).counts_upto(bound)


def shell_count(lat: "Lattice", norm: int) -> int:
    """Number of lattice vectors of the given norm."""
    if norm < 0:
        return 0
    if norm == 0:
        return 1
    cached = _cache_get(lat.fingerprint, f"1|{norm}")
    if cached is not None:
        return cached
    value = _context(lat).count(norm)
    _cache_put(lat.fingerprint, f"1|{norm}", value)
    return value


def root_components(lat: "Lattice") -> list[tuple[str, int]]:
    """(ADE symbol, root count) of each irreducible component of the root system."""
    return [(symbol, comp.bit_count()) for symbol, comp in _context(lat).root_system.components]


# ---------------------------------------------------------------------------
# Coefficient cache (in-memory plus an optional append-only log per lattice)

_MEM_CACHE: dict[tuple[str, str], int] = {}

CACHE_ENV = "THETALAB_CACHE"

# Directory of the current log format under the cache root; entries written
# in another format (the one-file-per-entry `v2/`) are never read.
_CACHE_FORMAT = "v3"

# Log path -> its checked entries, read once per process at the first lookup;
# None marks a key whose good lines disagree, so it is recomputed.
_DISK_LOGS: dict[str, dict[str, int | None]] = {}

# Log path -> the (key, value) entries held back by the open append batch;
# None outside a batch.
_BATCH: dict[str, list[tuple[str, int]]] | None = None


def _cache_dir() -> str | None:
    return os.environ.get(CACHE_ENV) or None


def cache_stats() -> dict[str, int]:
    return dict(_CACHE_STATS)


# `corrupt` counts log lines rejected by their check, and keys whose good
# lines disagree; both are recomputed and appended again.
_CACHE_STATS = {"memory_hits": 0, "disk_hits": 0, "misses": 0, "writes": 0, "corrupt": 0}


def _disk_path(fp: str) -> str | None:
    root = _cache_dir()
    return _log_path(root, fp) if root else None


@functools.cache
def _log_path(root: str, fp: str) -> str:
    return os.path.join(root, _CACHE_FORMAT, f"{fp[:24]}.log")


def _entry_line(key: str, value: int) -> str:
    """One cache entry: the key, the value and a CRC-32 of both, then a newline."""
    body = f"{key} = {value}"
    return f"{body} {zlib.crc32(body.encode()):08x}\n"


def _read_log(path: str) -> dict[str, int | None]:
    """The entries of one log.  Each record is written as a newline and then
    an entry line, so a torn last record (no final newline) ends before the
    next record starts; the blank lines between records are skipped, and any
    other line that is not exactly an entry, or a torn tail, is corrupt."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:  # absent or unreadable: every lookup is a plain miss
        return {}
    *lines, tail = data.split(b"\n")
    entries: dict[str, int | None] = {}
    bad = 1 if tail else 0
    for raw in lines:
        if not raw:
            continue
        text = raw.decode("latin-1") + "\n"
        key, _, rest = text.partition(" = ")
        try:
            value = int(rest.partition(" ")[0])
        except ValueError:
            value = None
        if value is None or text != _entry_line(key, value):  # re-rendered exactly, check included
            bad += 1
        elif entries.setdefault(key, value) not in (value, None):
            entries[key] = None
            bad += 1
    _CACHE_STATS["corrupt"] += bad
    return entries


def _cache_get(fp: str, key: str) -> int | None:
    hit = _MEM_CACHE.get((fp, key))
    if hit is not None:
        _CACHE_STATS["memory_hits"] += 1
        return hit
    path = _disk_path(fp)
    if path:
        log = _DISK_LOGS.get(path)
        if log is None:
            log = _DISK_LOGS[path] = _read_log(path)
        n = log.get(key)
        if n is not None:
            _MEM_CACHE[(fp, key)] = n
            _CACHE_STATS["disk_hits"] += 1
            return n
    _CACHE_STATS["misses"] += 1
    return None


def _cache_put(fp: str, key: str, value: int) -> None:
    """Keep the entry in memory and append it to the lattice's log, at once
    or, inside an append batch, when the batch closes."""
    _MEM_CACHE[(fp, key)] = value
    path = _disk_path(fp)
    if not path:
        return
    if _BATCH is not None:
        _BATCH.setdefault(path, []).append((key, value))
    else:
        _append(path, [(key, value)])


@contextlib.contextmanager
def _append_batch():
    """Hold back the log appends of `_cache_put` until the block ends, also
    when it ends on an exception, then write each log's entries in one
    append."""
    global _BATCH
    assert _BATCH is None, "append batches do not nest"
    _BATCH = {}
    try:
        yield
    finally:
        batch, _BATCH = _BATCH, None
        for path, entries in batch.items():
            _append(path, entries)


def _append(path: str, entries: list[tuple[str, int]]) -> None:
    """Append the entries to one log in one write, each record a newline and
    an entry line.  O_APPEND makes concurrent appends land whole and in turn;
    a short write leaves a torn tail, which the leading newline of the next
    record closes off, so only the record it cuts is lost."""
    data = "".join("\n" + _entry_line(key, value) for key, value in entries).encode("ascii")
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
    try:
        try:
            fd = os.open(path, flags, 0o644)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(path, flags, 0o644)
        try:
            whole = os.write(fd, data) == len(data)
        finally:
            os.close(fd)
    except OSError:
        # The disk cache is optional: a failed write only costs a recomputation.
        return
    if whole:
        _CACHE_STATS["writes"] += len(entries)
        log = _DISK_LOGS.get(path, {})
        for key, value in entries:
            log.setdefault(key, value)


# ---------------------------------------------------------------------------
# Representation numbers


def representation_count(lat: "Lattice", target, jobs: int = 1) -> int:
    """Exact number of ordered g-tuples in L^g with the prescribed Gram matrix.
    `jobs` is ignored; it stays only because bench/workloads.py passes it."""
    t = target if isinstance(target, GramTarget) else GramTarget.from_rows(target)
    return _class_count(lat, class_representative(t))


def _class_count(lat: "Lattice", rep: GramTarget, reach: int = 0) -> int:
    """r_L(T) for a class representative T, from the cache or counted (an
    orbit walk goes on to norm `reach`, see `_LatticeContext.orbits`)."""
    key = rep.key()
    cached = _cache_get(lat.fingerprint, key)
    if cached is not None:
        return cached
    value = _rep_count(lat, rep, reach)
    _cache_put(lat.fingerprint, key, value)
    return value


def _rep_count(lat: "Lattice", t: GramTarget, reach: int = 0) -> int:
    """r_L(T) for a class representative T (reduced, no zero rows)."""
    g = t.genus
    if g < 2:
        return _context(lat).count(t.trace)
    if all(t.entries[i][i] == 2 for i in range(g)):
        return _count_root_tuples(lat, t)
    return _count_general(lat, t, reach)


# ---- classes of indices ------------------------------------------------------


@functools.cache
def _signed_permutation_max(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """One matrix per orbit of T under permutations and sign changes of its
    slots: over the permutations that leave the diagonal non-decreasing and
    all sign changes, the one whose upper off-diagonal entries (row-major) are
    lexicographically largest.  Row 0 is |T[p0][p_k]| whatever the signs
    (slot k is first met at (0, k), its sign free), so only permutations that
    can maximise it are tried: p0 of least diagonal, the rest by diagonal and
    |T[p0][j]| decreasing, ties in every order.  The best signs make each
    nonzero entry in turn positive unless those chosen fix it (comp[k] labels
    the slots fixed relative to slot k); a permutation stops below the best."""
    g = len(rows)
    diag = [rows[i][i] for i in range(g)]
    pairs = list(itertools.combinations(range(g), 2))
    best = ([], [], [])
    for p0 in range(g):
        if diag[p0] > min(diag):
            continue
        rank = lambda j: (diag[j], -abs(rows[p0][j]))  # noqa: E731
        ties = [list(grp) for _, grp in itertools.groupby(sorted(set(range(g)) - {p0}, key=rank), key=rank)]
        for parts in itertools.product(*map(itertools.permutations, ties)):
            perm = [p0] + [i for part in parts for i in part]
            sign = [1] * g
            comp = list(range(g))
            off = []
            ahead = not best[1]
            for a, b in pairs:
                v = rows[perm[a]][perm[b]]
                if v and comp[a] != comp[b]:
                    old = comp[b]
                    flip = sign[a] * sign[b] * v < 0
                    for k in range(g):
                        if comp[k] == old:
                            comp[k] = comp[a]
                            if flip:
                                sign[k] = -sign[k]
                x = sign[a] * sign[b] * v
                if not ahead:
                    if x < best[0][len(off)]:
                        break
                    ahead = x > best[0][len(off)]
                off.append(x)
            else:
                if ahead:
                    best = (off, perm, sign)
    _, perm, sign = best
    return tuple(tuple(sign[a] * sign[b] * rows[perm[a]][perm[b]] for b in range(g)) for a in range(g))


def _nonzero_normal_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The normal form of a PSD index without its zero rows (those of its zero
    diagonal entries)."""
    keep = [i for i in range(len(rows)) if rows[i][i]]
    return _signed_permutation_max(tuple(tuple(rows[i][j] for j in keep) for i in keep))


@functools.cache
def class_representative(t: GramTarget) -> GramTarget:
    """One index of the GL_g(Z)-class of T, with its zero rows dropped.

    For unimodular U the map (x_i) -> (sum_j U_ij x_j) is a bijection of L^g,
    so r_L(U T U^T) = r_L(T); and r_L(T + 0) = r_L(T).  From the permutation
    and sign normal form of T, the step x_j -> x_j - s x_i, with s the nearest
    integer to T_ij / T_ii, runs while some 2|T_ij| > T_ii: each step strictly
    lowers T_jj, so the loop ends and the trace never grows.  The zero rows
    (slots forced to 0) are dropped and the result is put in normal form again,
    so every permutation and sign change of T has the same representative.
    Other indices of the class can have another: 3|2 1 1 2 0 2 and
    3|2 1 1 2 1 2 are both A3, and 3|2 1 1 2 -1 2 (det 0, x_0 = x_1 + x_2)
    keeps genus 3 though it counts r_L(A2).  T is validated the first time
    it is seen (an invalid T raises every time)."""
    t.check_valid()
    return _reduce(_nonzero_normal_form(t.entries))


def _reduce(normal: tuple[tuple[int, ...], ...]) -> GramTarget:
    """`class_representative` of a valid index in normal form, without zero
    rows, unchecked."""
    g = len(normal)
    rows = [list(r) for r in normal]
    pairs = list(itertools.permutations(range(g), 2))
    # Each step lowers a diagonal entry by at least 2 (they stay even), so at
    # most trace / 2 steps run.
    for steps in range(sum(r[i] for i, r in enumerate(rows)) // 2 + 1):
        for i, j in pairs:
            if 2 * abs(rows[i][j]) > rows[i][i]:
                break
        else:
            break
        s = (2 * rows[i][j] + rows[i][i]) // (2 * rows[i][i])
        for k in range(g):
            rows[j][k] -= s * rows[i][k]
        for k in range(g):
            rows[k][j] -= s * rows[k][i]
    return GramTarget(_nonzero_normal_form(rows) if steps else normal)


# ---- root-tuple engine (all diagonal entries 2) ----------------------------


def _root_dfs_level(masks, t_entries, g, level, level_masks) -> int:
    """Recursive levels: level_masks[k-level] constrains slot k for k >= level."""
    cur = level_masks[0]
    if level == g - 1:
        return cur.bit_count()
    row = t_entries[level]
    total = 0
    if level == g - 2:
        md = masks[row[g - 1]]
        nxt = level_masks[1]
        for i in iter_bits(cur):
            total += (nxt & md[i]).bit_count()
        return total
    for i in iter_bits(cur):
        nxt = [level_masks[k - level] & masks[row[k]][i] for k in range(level + 1, g)]
        if all(nxt):
            total += _root_dfs_level(masks, t_entries, g, level + 1, nxt)
    return total


# r_R(T) by (ADE symbol of an irreducible root system R, class representative
# of T): it depends on the type of R only, so every lattice with an E8
# component shares the E8 counts.
_COMPONENT_COUNTS: dict[tuple[str, str], int] = {}


def _component_count(ctx: "_LatticeContext", symbol: str, comp: int, t: GramTarget) -> int:
    """Ordered tuples of roots of one irreducible component with Gram matrix T.

    The Weyl group of the component acts transitively on its roots and keeps
    the count of completions, so x_0 is fixed at one root and the count of the
    rest is multiplied by the number of roots.  From genus 3 on, x_0 is the
    highest root theta, and x_1 runs over one root of each orbit of theta's
    stabiliser, weighted by the orbit size (`weyl.highest_root_orbits`).
    """
    t = class_representative(t)
    key = (symbol, t.key())
    n = _COMPONENT_COUNTS.get(key)
    if n is None:
        n = comp.bit_count()
        masks = ctx.root_system.masks
        rows = t.entries
        if t.genus == 2:
            rho = (comp & -comp).bit_length() - 1
            n *= (masks[rows[0][1]][rho] & comp).bit_count()
        elif t.genus > 2:
            theta, _, reps = ctx.highest_root_orbits(comp)
            total = 0
            for x, w in reps[rows[0][1]]:
                nxt = [masks[rows[0][k]][theta] & masks[rows[1][k]][x] & comp for k in range(2, t.genus)]
                if all(nxt):
                    total += w * _root_dfs_level(masks, rows, t.genus, 2, nxt)
            n *= total
        _COMPONENT_COUNTS[key] = n
    return n


def _count_root_tuples(lat: "Lattice", t: GramTarget) -> int:
    """r_L(T) with every T_ii = 2, that is ordered tuples of roots.

    Roots of different irreducible components R_c are orthogonal, so each
    block of T lies in a single component and
    r_L(T) = sum over maps f: blocks -> components of prod_c r_{R_c}(T restricted to f^-1(c)).
    The sum is a dynamic program over the components and the subsets of blocks.
    """
    ctx = _context(lat)
    # The blocks are the pieces of the graph joining slots i and j when T_ij != 0.
    linked = [sum(1 << j for j, x in enumerate(row) if x) for row in t.entries]
    blocks = list(weyl.pieces(linked, (1 << t.genus) - 1))
    full = (1 << len(blocks)) - 1
    # parts[s]: T restricted to the slots of the blocks in the subset s.
    parts = [t.principal_submatrix(list(iter_bits(sum(b for k, b in enumerate(blocks) if s >> k & 1))))
             for s in range(full + 1)]
    # ways[s]: maps of the blocks in s into the components taken so far.
    ways = [1] + [0] * full
    for symbol, comp in ctx.root_system.components:
        counts = [1] + [_component_count(ctx, symbol, comp, parts[s]) for s in range(1, full + 1)]
        new = list(ways)
        for s in range(1, full + 1):
            sub = s
            while sub:
                new[s] += ways[s ^ sub] * counts[sub]
                sub = (sub - 1) & s
        ways = new
    return ways[full]


# ---- orbit counter (every other shape) --------------------------------------


def _count_general(lat: "Lattice", t: GramTarget, reach: int = 0) -> int:
    """r_L(T) for genus >= 2.  Slot 0 runs over one vector y of each W-orbit
    of its shell (`_LatticeContext.orbits`), weighted by the orbit size;
    fixing a slot filters the candidates of every later slot, which come
    from the stored shells; and the last two slots are one weighted
    histogram of Q(x, z) over the rows left for them.  The histogram holds
    r_L for every value of T[g-2][g-1], so it is kept under T without that
    entry.  Work grows with the product of shell sizes, so beyond genus 2
    this is meant for small lattices or small bounds.

    The slots are taken in reverse, as r_L(P T P^T) = r_L(T) for the
    reversing permutation P: a representative's diagonal is non-decreasing,
    so the orbit slot gets the largest entry, which has the fewest orbits for
    its shell's size and needs no store, and every later slot is filtered by
    it.  Only the shells of slots 1..g-1 are stored; slot 0's shell count
    says whether it is empty."""
    ctx = _context(lat)
    g = t.genus
    rows = tuple(row[::-1] for row in t.entries[::-1])
    diag = [rows[i][i] for i in range(g)]
    ctx.shell_arrays_upto(max(diag[1:]))
    shells = [ctx.shell_array(d) for d in diag[1:]]
    tops = [ctx.shell_top(d) for d in diag[1:]]
    if not ctx.count(diag[0]) or any(len(s) == 0 for s in shells):
        return 0
    upper = tuple(rows[i][j] for i in range(g) for j in range(i, g))
    key = upper[:-2] + upper[-1:]
    hist = ctx._hists.get(key)
    if hist is None:
        gm = ctx._gram_red_np
        firsts, weights = ctx.orbits(diag[0], reach)
        if g == 2:
            # The store holds one z of each +-pair, and z and -z have
            # opposite products.
            half = _dot_histogram(gm, firsts, shells[0], weights, tops[0])
            hist = {b: half.get(b, 0) + half.get(-b, 0) for b in half.keys() | {-b for b in half}}
        else:
            work = len(firsts)
            for s in shells:
                work *= max(1, min(2 * len(s), 64))
            if work > 5 * 10**7:
                raise RepresentationDomainError(
                    f"general representation count too large for {t.key()} at rank {ctx.rank}"
                )
            hist = {}

            def walk(level: int, x: np.ndarray, w: int, later: list[np.ndarray]) -> None:
                # Slot `level` is x; later[k] holds the rows left for slot
                # level + 1 + k (at level 0, one of each +-pair of its shell:
                # h is kept for (h, x) = v and -h for (h, x) = -v).
                gx = gm @ x
                left = []
                for j, c in enumerate(later, start=level + 1):
                    dots = c @ _int32_factor(gx, tops[j - 1], ctx.rank)[0]
                    want = rows[level][j]
                    c = np.concatenate([c[dots == want], -c[dots == -want]]) if level == 0 else c[dots == want]
                    if not len(c):
                        return
                    left.append(c)
                if level + 3 < g:
                    for v in left[0]:
                        walk(level + 1, v, w, left[1:])
                    return
                pairs = _dot_histogram(gm, left[0], left[1], np.full(len(left[0]), w, dtype=np.int64), tops[-1])
                for b, v in pairs.items():
                    hist[b] = hist.get(b, 0) + v

            for y, w in zip(firsts, weights.tolist()):
                walk(0, y, w, shells)
        ctx._hists[key] = hist
    return hist.get(upper[-2], 0)


# ---------------------------------------------------------------------------
# Profiles


def candidate_targets(genus: int, trace_bound: int) -> list[GramTarget]:
    """All even positive semidefinite integer matrices with trace <= bound, canonical order."""
    return list(index_classes(genus, trace_bound).targets)


class IndexTable(NamedTuple):
    """Indices grouped by class: classes[position[k]] is the class
    representative of targets[k]."""

    targets: tuple[GramTarget, ...]  # canonical order
    classes: tuple[GramTarget, ...]  # each class once, most demanding first (`_grouped`)
    position: tuple[int, ...]
    reach: int  # the largest orbit-slot entry of a class of genus >= 2, else 0

    def restrict(self, keep: Iterable[bool]) -> "IndexTable":
        """The targets where `keep` (one flag per target) is true, in the same
        order, with only the classes they use."""
        keep = list(keep)
        return _grouped(list(itertools.compress(self.targets, keep)),
                        list(itertools.compress(self.position, keep)), self.classes)


def _demand(t: GramTarget) -> tuple[int, int]:
    """(the largest entry of the stored shells, the orbit slot's entry) of a
    class representative, whose diagonal is non-decreasing: the orbit counter
    stores the shells of every slot but the last (the largest), and a
    genus-1 class stores none."""
    rows = t.entries
    return (rows[-2][-2] if len(rows) > 1 else 0, rows[-1][-1] if rows else 0)


def _grouped(targets: list[GramTarget], sources: list[int], found: Sequence[GramTarget]) -> IndexTable:
    """The table of targets with representatives found[sources[k]], equal ones
    merged into the first to appear.  Its classes come by decreasing
    `_demand`, ties in order of first appearance: the first count then stores
    the largest shell that any class needs, and its orbit walk goes on to
    the table's reach, the largest orbit-slot entry."""
    slot: dict[GramTarget, int] = {}
    first = dict.fromkeys(sources)
    for k in first:
        first[k] = slot.setdefault(found[k], len(slot))
    classes = sorted(slot, key=_demand, reverse=True)
    rank = {c: k for k, c in enumerate(classes)}
    moved = [rank[c] for c in slot]
    position = tuple(map(moved.__getitem__, map(first.__getitem__, sources)))
    reach = max((_demand(c)[1] for c in classes if c.genus > 1), default=0)
    return IndexTable(tuple(targets), tuple(classes), position, reach)


def _picker(cells: list[int]) -> Callable[[tuple], tuple]:
    """The entries at `cells` of a tuple, as a tuple."""
    return operator.itemgetter(*cells) if len(cells) > 1 else lambda u: (u[cells[0]],)


@functools.cache
def index_classes(genus: int, trace_bound: int) -> IndexTable:
    """Every even PSD T with trace <= bound, grouped by class; one table per
    (genus, bound).

    A PSD T with a zero diagonal entry has a zero row, and deleting it leaves
    an index of the table one genus down, of the same class.  So those T are
    the lower table's indices, each with a zero row and column put in at
    every slot, and keep their classes.  Of the rest, signed permutations P
    keep the trace, semidefiniteness and class of P T P^T, and each orbit has
    a member with a non-decreasing diagonal and T_0j >= 0.  Only those are
    enumerated, in decreasing order, so the first of an orbit met is its
    normal form; it is tested and reduced, and its representative goes to
    every image (P and -P act alike).  An index is its key (trace,) + u,
    u its upper triangle.  All images are one itemgetter on key + (-key):
    P T P^T takes the cell (p_i, p_j) of T, negated where s_i s_j = -1."""
    cells = [(i, j) for i in range(genus) for j in range(i, genus)]
    at = {c: k for k, c in enumerate(cells, start=1)}
    square = [[at[min(i, j), max(i, j)] for j in range(genus)] for i in range(genus)]
    row_of = [_picker(r) for r in square]
    n = len(cells) + 1
    source: dict[tuple[int, ...], int | None] = {}  # key -> its representative in found, None if not PSD
    found: list[GramTarget] = []
    if genus:
        lower = index_classes(genus - 1, trace_bound)
        found += lower.classes
        # A lower index as its trace, rows and a 0, and each cell of a key
        # with a zero row at slot k as an index into that.
        m = genus - 1
        flat = [(t.trace,) + sum(t.entries, ()) + (0,) for t in lower.targets]
        for k in range(genus):
            shift = _picker([0] + [m * m + 1 if k in (i, j) else (i - (i > k)) * m + j - (j > k) + 1 for i, j in cells])
            source.update(zip(map(shift, flat), lower.position))
    images = _picker([k for p in itertools.permutations(range(genus))
                      for s in itertools.product((1,), *[(1, -1)] * (genus - 1))
                      for k in [0] + [square[p[i]][p[j]] + n * (s[i] != s[j]) for i, j in cells]])
    for diag in itertools.combinations_with_replacement(range(2, trace_bound + 1, 2), genus):
        if sum(diag) > trace_bound:
            continue
        ranges = [[sum(diag)]]
        for i, j in cells:
            r = isqrt(diag[i] * diag[j])
            ranges.append(range(r, r - 1 if i == j else -1 if i == 0 else -r - 1, -1))
        for key in itertools.product(*ranges):
            if key not in source:
                rows = tuple([get(key) for get in row_of])
                rep = None
                # Below genus 3 an index in these ranges is PSD (T_01^2 <= T_00 T_11).
                if genus < 3 or is_positive_semidefinite(rows):
                    rep = len(found)
                    found.append(_reduce(rows))
                source.update(dict.fromkeys(zip(*[iter(images(key + tuple(map(operator.neg, key))))] * n), rep))
    keys = sorted(key for key, rep in source.items() if rep is not None)
    entries = zip(*[map(get, keys) for get in row_of]) if genus else [()] * len(keys)
    return _grouped(list(map(GramTarget, entries)), list(map(source.__getitem__, keys)), found)


def class_counts(lat: "Lattice", table: IndexTable) -> list[int]:
    """r_L(T) for each T of table.targets, in order: one count per class,
    looked up by its key, in the table's order (`_grouped`), and expanded by
    position.  The new cache entries go to the lattice's log in one append
    when the counting ends, also when it stops on an exception."""
    with _append_batch():
        counts = [_class_count(lat, rep, table.reach) for rep in table.classes]
    return list(map(counts.__getitem__, table.position))


def representation_profile(lat: "Lattice", genus: int, trace_bound: int) -> dict[GramTarget, int]:
    """r_L(T) for every representable even PSD T with trace <= bound (zeros
    omitted); one count per class."""
    if genus == 0:
        return {GramTarget.zero(0): 1}
    table = index_classes(genus, trace_bound)
    return {t: c for t, c in zip(table.targets, class_counts(lat, table)) if c}
