"""Exact lattice-vector enumeration and representation counting.

Every theta coefficient in this package is a representation number
r_L(T) = #{ordered tuples (x_1..x_g) in L^g with Q(x_i, x_j) = T_ij}, computed
by direct counting.  It depends only on the GL_g(Z)-class of T, so each index
is first replaced by its class representative (`class_representative`: a
reduced matrix without zero rows, in a normal form under slot permutations
and sign changes); counts, caches and profiles work on representatives, and
a profile counts each class once.  Three engines cover the shapes of the
representatives:

* an exact Fincke-Pohst walk for shells and for genus-1 counts (glued lattices
  instead get exact coset-decomposition counts, which agree and are fast),
* a root-system factorisation when every diagonal entry of T is 2 (the hot
  path for genus 3 and 4): a sum over the placements of T's connected blocks
  in the irreducible root components, of products of per-component counts,
  each kept per ADE type and found by a bitset depth-first search with the
  first root fixed (the Weyl group is transitive on the roots),
* one orbit counter over stored shells for every other shape: its first slot
  runs over one vector of each Weyl-group orbit (`weyl`), the middle slots
  are walked, and the last two slots are one weighted histogram of blocked
  integer products (at genus 2, against one of each +-z pair).

A lattice without roots has W = 1; its orbits are then those of -1.
Everything runs in one process.

Every engine that stores shells gets them from `_LatticeContext`, which sizes
them from the shell counts first and refuses more than
`_SHELL_VECTORS_LIMIT` vectors.  The Fourier-Jacobi tables of `jacobi` are
representation numbers one degree up and go through `class_counts` too.

All numpy arithmetic is integer-typed with proven no-overflow bounds, so the
results are exact; nothing here uses floating point.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import zlib
from dataclasses import dataclass
from math import isqrt
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import cosets, rootdata, weyl
from .exactnum import is_positive_semidefinite, rank_int
from .fincke_pohst import counts_upto, lll_gram, shells_upto
from .weyl import iter_bits

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
        t = tuple(tuple(int(x) for x in r) for r in rows)
        return cls(t)

    @classmethod
    def from_upper(cls, genus: int, upper: Sequence[int]) -> "GramTarget":
        rows = [[0] * genus for _ in range(genus)]
        it = iter(upper)
        for i in range(genus):
            for j in range(i, genus):
                v = int(next(it))
                rows[i][j] = rows[j][i] = v
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
        return sum(self.entries[i][i] for i in range(self.genus))

    def upper(self) -> tuple[int, ...]:
        return tuple(
            self.entries[i][j] for i in range(self.genus) for j in range(i, self.genus)
        )

    def key(self) -> str:
        return f"{self.genus}|" + " ".join(str(x) for x in self.upper())

    def sort_key(self) -> tuple:
        return (self.trace, self.upper())

    def check_valid(self) -> None:
        g = self.genus
        for i in range(g):
            if len(self.entries[i]) != g:
                raise RepresentationDomainError("index matrix is not square")
            if self.entries[i][i] < 0 or self.entries[i][i] % 2:
                raise RepresentationDomainError("diagonal entries must be even and nonnegative")
            for j in range(g):
                if self.entries[i][j] != self.entries[j][i]:
                    raise RepresentationDomainError("index matrix must be symmetric")
        if g and not is_positive_semidefinite(self.entries):
            raise RepresentationDomainError("index matrix must be positive semidefinite")

    def principal_submatrix(self, keep: Sequence[int]) -> "GramTarget":
        return GramTarget.from_rows([[self.entries[i][j] for j in keep] for i in keep])

    def __str__(self):
        return self.key()


# ---------------------------------------------------------------------------
# Per-lattice context (reduced basis, numpy shells, root bitsets)

_CONTEXTS: dict[str, "_LatticeContext"] = {}

# Most vectors one lattice may store as shells: they are walked as Python
# tuples (about 0.2 kB each at rank 16-24) before they become int32 arrays.
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


class _LatticeContext:
    def __init__(self, lat: "Lattice"):
        self.fingerprint = lat.fingerprint
        self.rank = lat.rank
        self.gram = [list(r) for r in lat.gram.rows]
        self.decomposition = lat.decomposition
        if self.rank:
            self.gram_red, self.transform = lll_gram(self.gram)
        else:
            self.gram_red, self.transform = [], []
        self._gram_red_np = np.array(self.gram_red, dtype=np.int64).reshape(self.rank, self.rank)
        self._shells_np: dict[int, np.ndarray] = {}
        self._shells_bound = 0
        self._counts: dict[int, int] = {0: 1}
        self._counts_bound = 0
        self._roots = None
        self._components = None
        self._weyl = None
        self._orbits: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._hists: dict[tuple[int, ...], dict[int, int]] = {}

    # ---- shells -----------------------------------------------------------

    def counts_upto(self, bound: int) -> dict[int, int]:
        bound = max(bound, 0)
        if bound > self._counts_bound:
            if self.decomposition is not None:
                comps, words = self.decomposition
                table = cosets.glued_shell_counts(tuple(comps), tuple(words), bound)
            else:
                table = counts_upto(self.gram_red, bound)
                table[0] = 1
            self._counts = table
            self._counts_bound = bound
        return {q: c for q, c in self._counts.items() if q <= bound}

    def shell_arrays_upto(self, bound: int) -> dict[int, np.ndarray]:
        """Numpy arrays of reduced-basis coordinates for each norm <= bound.

        The store is sized from the shell counts (coset dynamic programs on
        glued lattices) before it is built, and refused above
        _SHELL_VECTORS_LIMIT vectors."""
        if bound > self._shells_bound:
            size = sum(c for q, c in self.counts_upto(bound).items() if q)
            if size > _SHELL_VECTORS_LIMIT:
                raise RepresentationDomainError(
                    f"shells to norm {bound} at rank {self.rank} too large: {size} vectors"
                )
            got = shells_upto(self.gram_red, bound)
            arrays = {}
            for q, vecs in got.items():
                arrays[q] = np.array(vecs, dtype=np.int32).reshape(len(vecs), self.rank)
            self._shells_np = arrays
            self._shells_bound = bound
        return {q: a for q, a in self._shells_np.items() if q <= bound}

    def shell_array(self, norm: int) -> np.ndarray:
        if norm == 0:
            return np.zeros((1, self.rank), dtype=np.int32)
        return self.shell_arrays_upto(norm).get(norm, np.zeros((0, self.rank), dtype=np.int32))

    def shell_vectors_original(self, bound: int) -> dict[int, list[tuple[int, ...]]]:
        """Vectors by norm, mapped back to coordinates in the original basis."""
        u = np.array(self.transform, dtype=np.int64).reshape(self.rank, self.rank)
        out: dict[int, list[tuple[int, ...]]] = {}
        for q, arr in self.shell_arrays_upto(bound).items():
            mapped = arr.astype(np.int64) @ u
            out[q] = [tuple(int(x) for x in row) for row in mapped]
        return out

    # ---- roots ------------------------------------------------------------

    def root_data(self):
        """(vectors int32 (reduced coords), masks by dot): bit j of masks[d][i]
        is set when the roots i and j have inner product d."""
        if self._roots is None:
            arr = self.shell_array(2)
            long = arr.astype(np.int64)
            dots = long @ self._gram_red_np @ long.T
            assert dots.max(initial=0) <= 2 and dots.min(initial=0) >= -2
            masks = {}
            for d in (-2, -1, 0, 1, 2):
                packed = np.packbits(dots == d, axis=1, bitorder="little")
                masks[d] = [int.from_bytes(row.tobytes(), "little") for row in packed]
            self._roots = (arr, masks)
        return self._roots

    def _linked(self) -> list[int]:
        """Bit mask, for each root, of the roots with nonzero inner product with it."""
        masks = self.root_data()[1]
        return [a | b | c | d for a, b, c, d in zip(masks[-2], masks[-1], masks[1], masks[2])]

    def root_components(self) -> list[tuple[str, int]]:
        """Irreducible components of the root system, as (ADE symbol, bit mask
        of their root indices): the connected pieces of the graph joining roots
        with nonzero inner product, each matched by (rank of span, root count)."""
        if self._components is None:
            arr = self.root_data()[0]
            self._components = [
                (rootdata.classify_component(rank_int(arr[list(iter_bits(comp))].tolist()), comp.bit_count()), comp)
                for comp in weyl.pieces(self._linked(), (1 << len(arr)) - 1)
            ]
        return self._components

    # ---- Weyl-group orbits --------------------------------------------------

    def weyl_group(self) -> tuple[int, int]:
        """(bit mask of the simple roots, order of the Weyl group W)."""
        if self._weyl is None:
            arr, masks = self.root_data()
            symbols = [symbol for symbol, _ in self.root_components()]
            simple = weyl.simple_roots(arr.tolist(), masks[1])
            assert simple.bit_count() == sum(int(s[1:]) for s in symbols)
            self._weyl = (simple, weyl.group_order(symbols))
        return self._weyl

    def orbits(self, norm: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, weights): the vectors of the norm shell in the closed
        dominant chamber, one per W-orbit, and the orbit sizes.  The weights
        sum to the shell size.  Without roots W = 1, and the orbits are
        those of -1 instead (it too preserves every lattice and every count
        with a fixed first vector): one of each +-v pair, of weight 2."""
        got = self._orbits.get(norm)
        if got is None:
            shell = self.shell_array(norm)
            roots = self.root_data()[0].astype(np.int64)
            simple, order = self.weyl_group()
            if simple:
                gs = self._gram_red_np @ roots[list(iter_bits(simple))].T
                rows = shell[_nonnegative_rows(shell, gs)]
                dots = rows.astype(np.int64) @ self._gram_red_np @ roots.T
                orthogonal = [int.from_bytes(z.tobytes(), "little")
                              for z in np.packbits(dots == 0, axis=1, bitorder="little")]
                weights = np.array(weyl.orbit_sizes(orthogonal, self._linked(), simple, order), dtype=np.int64)
            else:
                rows = _sign_half(shell)
                weights = np.full(len(rows), 2, dtype=np.int64)
            assert int(weights.sum()) == len(shell), f"orbit sizes do not sum to the norm-{norm} shell"
            got = self._orbits[norm] = (rows, weights)
        return got


def _int32_factor(arr: np.ndarray, factor: np.ndarray) -> tuple[np.ndarray, int]:
    """(`factor` as int32, a bound on |every partial sum of arr @ factor|),
    after asserting that the bound fits in int32, so the product is exact."""
    bound = int(np.abs(arr).max(initial=0)) * int(np.abs(factor).max(initial=0)) * arr.shape[1]
    assert bound < 2**31, "int32 overflow bound exceeded"
    return factor.astype(np.int32), bound


def _nonnegative_rows(arr: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Mask of the rows of arr whose product with `factor` has no negative
    entry; blocked, so no |arr| x columns matrix is built at once."""
    factor, _ = _int32_factor(arr, factor)
    step = max(1, _BLOCK_ENTRIES // max(factor.shape[1], 1))
    keep = np.ones(len(arr), dtype=bool)
    for start in range(0, len(arr), step):
        keep[start : start + step] = (arr[start : start + step] @ factor >= 0).all(axis=1)
    return keep


def _sign_half(arr: np.ndarray) -> np.ndarray:
    """Rows whose first nonzero coordinate is positive (one of each +-v pair)."""
    if len(arr) == 0:
        return arr
    lead = arr[np.arange(len(arr)), (arr != 0).argmax(axis=1)]
    half = arr[lead > 0]
    assert 2 * len(half) == len(arr), "shell not closed under negation"
    return half


def _dot_histogram(gram: np.ndarray, x_arr: np.ndarray, y_arr: np.ndarray, weights: np.ndarray) -> dict[int, int]:
    """Exact sum over the rows x of x_arr of weights[x] times the histogram
    of x G y^T over the rows y of y_arr.

    Blocked integer products: for a block of x rows, one bincount per block
    of y rows gives each x its own histogram (int64), and the block's
    histograms are then summed with the integer weights.
    """
    if len(x_arr) == 0 or len(y_arr) == 0:
        return {}
    gx, offset = _int32_factor(y_arr, gram @ x_arr.astype(np.int64).T)
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
    value = _context(lat).counts_upto(norm).get(norm, 0)
    _cache_put(lat.fingerprint, f"1|{norm}", value)
    return value


def shell_vectors(lat: "Lattice", norm: int) -> dict[int, list[tuple[int, ...]]]:
    """Vectors grouped by norm up to `norm`, in original-basis coordinates."""
    return _context(lat).shell_vectors_original(norm)


def root_components(lat: "Lattice") -> list[tuple[str, int]]:
    """(ADE symbol, root count) of each irreducible component of the root system."""
    return [(symbol, comp.bit_count()) for symbol, comp in _context(lat).root_components()]


# ---------------------------------------------------------------------------
# Coefficient cache (in-memory plus an optional directory of checked entries)

_MEM_CACHE: dict[tuple[str, str], int] = {}

CACHE_ENV = "THETALAB_CACHE"

# Directory of the current entry format under the cache root; entries written
# in another format are never read.
_CACHE_FORMAT = "v2"


def _cache_dir() -> str | None:
    return os.environ.get(CACHE_ENV) or None


def cache_stats() -> dict[str, int]:
    return dict(_CACHE_STATS)


# `corrupt` counts disk entries rejected by their check (then recomputed and replaced).
_CACHE_STATS = {"memory_hits": 0, "disk_hits": 0, "misses": 0, "writes": 0, "corrupt": 0}


def _disk_path(fp: str, key: str) -> str | None:
    root = _cache_dir()
    if not root:
        return None
    h = hashlib.sha1(key.encode()).hexdigest()[:24]
    return os.path.join(root, _CACHE_FORMAT, fp[:24], f"{h}.txt")


def _entry_line(key: str, value: int) -> str:
    """One cache entry: the key, the value and a CRC-32 of both, then a newline."""
    body = f"{key} = {value}"
    return f"{body} {zlib.crc32(body.encode()):08x}\n"


def _entry_value(text: str, key: str) -> int | None:
    """The value stored in a cache entry for `key`, or None unless the entry
    is exactly what `_entry_line` writes (so truncated, empty and garbled
    entries are rejected)."""
    _, _, rest = text.partition(" = ")
    try:
        value = int(rest.partition(" ")[0])
    except ValueError:
        return None
    return value if text == _entry_line(key, value) else None


def _cache_get(fp: str, key: str) -> int | None:
    hit = _MEM_CACHE.get((fp, key))
    if hit is not None:
        _CACHE_STATS["memory_hits"] += 1
        return hit
    path = _disk_path(fp, key)
    if path:
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError:  # absent or unreadable: a plain miss
            text = None
        except ValueError:  # not ASCII
            text = ""
        if text is not None:
            n = _entry_value(text, key)
            if n is not None:
                _MEM_CACHE[(fp, key)] = n
                _CACHE_STATS["disk_hits"] += 1
                return n
            _CACHE_STATS["corrupt"] += 1
    _CACHE_STATS["misses"] += 1
    return None


def _cache_put(fp: str, key: str, value: int) -> None:
    """Publish the entry whole: write a private temp file, then rename it over
    the entry's path, so no reader sees a partial write."""
    if _MEM_CACHE.get((fp, key)) == value:  # a nested call (shell_count) stored it
        return
    _MEM_CACHE[(fp, key)] = value
    path = _disk_path(fp, key)
    if not path:
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        try:
            fh = open(tmp, "w", encoding="ascii")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fh = open(tmp, "w", encoding="ascii")
        with fh:
            fh.write(_entry_line(key, value))
        os.replace(tmp, path)
    except OSError:
        # The disk cache is optional: a failed write only costs a recomputation.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return
    _CACHE_STATS["writes"] += 1


# ---------------------------------------------------------------------------
# Representation numbers


def representation_count(lat: "Lattice", target, jobs: int = 1) -> int:
    """Exact number of ordered g-tuples in L^g with the prescribed Gram matrix.
    `jobs` is ignored; it stays only because bench/workloads.py passes it."""
    t = target if isinstance(target, GramTarget) else GramTarget.from_rows(target)
    rep = class_representative(t)
    key = rep.key()
    cached = _cache_get(lat.fingerprint, key)
    if cached is not None:
        return cached
    value = _rep_count(lat, rep)
    _cache_put(lat.fingerprint, key, value)
    return value


def _rep_count(lat: "Lattice", t: GramTarget) -> int:
    """r_L(T) for a class representative T (reduced, no zero rows)."""
    g = t.genus
    if g < 2:
        return shell_count(lat, t.trace)
    if all(t.entries[i][i] == 2 for i in range(g)):
        return _count_root_tuples(lat, t)
    return _count_general(lat, t)


# ---- classes of indices ------------------------------------------------------


@functools.cache
def _signed_permutation_max(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """One matrix per orbit of T under permutations and sign changes of its
    slots: over the permutations that leave the diagonal non-decreasing and
    all sign changes, the one whose upper off-diagonal entries (row-major) are
    lexicographically largest."""
    g = len(rows)
    order = sorted(range(g), key=lambda i: rows[i][i])
    groups = [list(grp) for _, grp in itertools.groupby(order, key=lambda i: rows[i][i])]
    pairs = list(itertools.combinations(range(g), 2))
    best = None
    for parts in itertools.product(*(itertools.permutations(grp) for grp in groups)):
        perm = [i for part in parts for i in part]
        # Best signs for this permutation: each nonzero entry in turn is made
        # positive unless the signs chosen so far fix it.  comp[k] labels the
        # slots whose signs are fixed relative to slot k.
        sign = [1] * g
        comp = list(range(g))
        off = []
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
            off.append(sign[a] * sign[b] * v)
        if best is None or off > best[0]:
            best = (off, perm, sign)
    _, perm, sign = best
    return tuple(tuple(sign[a] * sign[b] * rows[perm[a]][perm[b]] for b in range(g)) for a in range(g))


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
    T is validated the first time it is seen (an invalid T raises every time).
    """
    t.check_valid()
    rows = [list(r) for r in _signed_permutation_max(t.entries)]
    g = len(rows)
    # Each step lowers a diagonal entry by at least 2 (they stay even), so at
    # most trace / 2 steps run.
    for _ in range(t.trace // 2 + 1):
        pairs = itertools.permutations(range(g), 2)
        step = next(((i, j) for i, j in pairs if 2 * abs(rows[i][j]) > rows[i][i]), None)
        if step is None:
            break
        i, j = step
        s = (2 * rows[i][j] + rows[i][i]) // (2 * rows[i][i])
        for k in range(g):
            rows[j][k] -= s * rows[i][k]
        for k in range(g):
            rows[k][j] -= s * rows[k][i]
    keep = [i for i in range(g) if rows[i][i]]
    return GramTarget(_signed_permutation_max(tuple(tuple(rows[i][j] for j in keep) for i in keep)))


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


def _blocks(t: GramTarget) -> list[list[int]]:
    """Slots of each connected block of the graph joining i and j when T_ij != 0."""
    blocks: list[list[int]] = []
    for i in range(t.genus):
        joined = [b for b in blocks if any(t.entries[i][j] for j in b)]
        blocks = [b for b in blocks if b not in joined] + [sorted([i, *(j for b in joined for j in b)])]
    return blocks


# r_R(T) by (ADE symbol of an irreducible root system R, class representative
# of T): it depends on the type of R only, so every lattice with an E8
# component shares the E8 counts.
_COMPONENT_COUNTS: dict[tuple[str, str], int] = {}


def _component_count(ctx: "_LatticeContext", symbol: str, comp: int, t: GramTarget) -> int:
    """Ordered tuples of roots of one irreducible component with Gram matrix T.

    The Weyl group of the component acts transitively on its roots and keeps
    the count of completions, so x_0 is fixed at one root and the count of the
    rest is multiplied by the number of roots.
    """
    t = class_representative(t)
    key = (symbol, t.key())
    n = _COMPONENT_COUNTS.get(key)
    if n is None:
        n = comp.bit_count()
        if t.genus > 1:
            masks = ctx.root_data()[1]
            rho = (comp & -comp).bit_length() - 1
            first = [masks[t.entries[0][k]][rho] & comp for k in range(1, t.genus)]
            n *= _root_dfs_level(masks, t.entries, t.genus, 1, first)
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
    blocks = _blocks(t)
    full = (1 << len(blocks)) - 1
    # parts[s]: T restricted to the slots of the blocks in the subset s.
    parts = [t.principal_submatrix(sorted(i for k, b in enumerate(blocks) if s >> k & 1 for i in b))
             for s in range(full + 1)]
    # ways[s]: maps of the blocks in s into the components taken so far.
    ways = [1] + [0] * full
    for symbol, comp in ctx.root_components():
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


def _count_general(lat: "Lattice", t: GramTarget) -> int:
    """r_L(T) for genus >= 2 from the stored shells.  Slot 0 runs over one
    vector y of each W-orbit of its shell, weighted by the orbit size; fixing
    a slot filters the candidates of every later slot; and the last two
    slots are one weighted histogram of Q(x, z) over the rows left for them.
    The histogram holds r_L for every value of T[g-2][g-1], so it is kept
    under T without that entry.  Work grows with the product of shell sizes,
    so beyond genus 2 this is meant for small lattices or small bounds."""
    ctx = _context(lat)
    g = t.genus
    rows = t.entries
    diag = [rows[i][i] for i in range(g)]
    ctx.shell_arrays_upto(max(diag))
    shells = [ctx.shell_array(d) for d in diag]
    if any(len(s) == 0 for s in shells):
        return 0
    upper = t.upper()
    key = upper[:-2] + upper[-1:]
    hist = ctx._hists.get(key)
    if hist is None:
        gm = ctx._gram_red_np
        firsts, weights = ctx.orbits(diag[0])
        if g == 2:
            # z and -z have opposite products: multiply one of each pair.
            half = _dot_histogram(gm, firsts, _sign_half(shells[1]), weights)
            hist = {b: half.get(b, 0) + half.get(-b, 0) for b in half.keys() | {-b for b in half}}
        else:
            work = len(firsts)
            for s in shells[1:]:
                work *= max(1, min(len(s), 64))
            if work > 5 * 10**7:
                raise RepresentationDomainError(
                    f"general representation count too large for {t.key()} at rank {ctx.rank}"
                )
            hist = {}

            def walk(level: int, x: np.ndarray, w: int, later: list[np.ndarray]) -> None:
                # Slot `level` is x; later[k] holds the rows left for slot level + 1 + k.
                gx = gm @ x
                left = []
                for j, c in enumerate(later, start=level + 1):
                    c = c[c @ _int32_factor(c, gx)[0] == rows[level][j]]
                    if not len(c):
                        return
                    left.append(c)
                if level + 3 < g:
                    for v in left[0]:
                        walk(level + 1, v, w, left[1:])
                    return
                for b, v in _dot_histogram(gm, left[0], left[1], np.full(len(left[0]), w, dtype=np.int64)).items():
                    hist[b] = hist.get(b, 0) + v

            for y, w in zip(firsts, weights.tolist()):
                walk(0, y, w, shells[1:])
        ctx._hists[key] = hist
    return hist.get(upper[-2], 0)


# ---------------------------------------------------------------------------
# Profiles


def candidate_targets(genus: int, trace_bound: int) -> list[GramTarget]:
    """All even positive semidefinite integer matrices with trace <= bound, canonical order."""
    return list(_candidate_targets(genus, trace_bound))


@functools.cache
def _candidate_targets(genus: int, trace_bound: int) -> tuple[GramTarget, ...]:
    pairs = list(itertools.combinations(range(genus), 2))
    out = []
    for diag in itertools.product(range(0, trace_bound + 1, 2), repeat=genus):
        if sum(diag) > trace_bound:
            continue
        bounds = [isqrt(diag[i] * diag[j]) for i, j in pairs]
        for off in itertools.product(*(range(-b, b + 1) for b in bounds)):
            rows = [[diag[i] if i == j else 0 for j in range(genus)] for i in range(genus)]
            for (i, j), v in zip(pairs, off):
                rows[i][j] = rows[j][i] = v
            if is_positive_semidefinite(rows):
                out.append(GramTarget.from_rows(rows))
    out.sort(key=GramTarget.sort_key)
    return tuple(out)


def class_counts(lat: "Lattice", targets: Iterable[GramTarget]) -> dict[GramTarget, int]:
    """r_L(T) for each T of `targets`, in their order, with one count per class
    representative (which is what is passed to `representation_count`)."""
    values: dict[GramTarget, int] = {}
    out = {}
    for t in targets:
        rep = class_representative(t)
        if rep not in values:
            values[rep] = representation_count(lat, rep)
        out[t] = values[rep]
    return out


def representation_profile(lat: "Lattice", genus: int, trace_bound: int) -> dict[GramTarget, int]:
    """r_L(T) for every representable even PSD T with trace <= bound (zeros
    omitted); one count per class representative."""
    if genus == 0:
        return {GramTarget.zero(0): 1}
    counts = class_counts(lat, candidate_targets(genus, trace_bound))
    return {t: c for t, c in counts.items() if c}
