"""The Fincke-Pohst walk: shells checked row by row against exact norms, the
coset counts and a brute-force box scan."""

from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetalab import enumeration as en
from thetalab import fincke_pohst as fp
from thetalab.cosets import glued_shell_counts
from thetalab.exactnum import integral_gram_schmidt
from thetalab.fincke_pohst import counts_upto, shells_upto
from thetalab.niemeier import BUILTIN_NAMES, builtin

from oracles import ldl_box_vectors

RANK16 = ("E8", "E8+E8", "D16+")


def _sorted_row_keys(x):
    """The rows as columns of int64 keys, in sorted order: each run of `per`
    coordinates read as the digits of one integer in base 2 max|x| + 1, with
    `per` as large as keeps every key below 2^62."""
    base = 2 * int(np.abs(x).max()) + 1
    per = 1
    while base ** (per + 1) < 2**62:
        per += 1
    digits = x + base // 2
    weights = base ** np.arange(per, dtype=np.int64)
    keys = np.stack([digits[:, j : j + per] @ weights[: min(per, x.shape[1] - j)] for j in range(0, x.shape[1], per)])
    return keys[:, np.lexsort(keys)]


@pytest.mark.parametrize("name,bound", [(name, 4) for name in BUILTIN_NAMES] + [(name, 6) for name in RANK16])
def test_builtin_shells_are_exact(name, bound):
    # Each stored half and its negatives: vectors of the norm, all distinct
    # (so no stored row is the negative of another), as many as the coset
    # counts give, so the whole shell; the stored one of each pair has its
    # last nonzero coordinate positive.
    lat = builtin(name)
    ctx = en._context(lat)
    gram = ctx.gram_red
    shells = shells_upto(ctx.gs, bound)
    g = np.array(gram, dtype=np.int64)
    for q, rows in shells.items():
        assert rows.dtype == np.int32 and rows.shape[1] == lat.rank
        x = np.concatenate([rows, -rows]).astype(np.int64)
        assert (int(np.abs(x).max()) * int(np.abs(g).max()) * lat.rank) ** 2 < 2**62
        assert (np.einsum("ij,ij->i", x @ g, x) == q).all()
        keys = _sorted_row_keys(x)
        assert (keys[:, 1:] != keys[:, :-1]).any(axis=0).all()  # distinct rows
        last = rows[np.arange(len(rows)), rows.shape[1] - 1 - (rows[:, ::-1] != 0).argmax(axis=1)]
        assert (last > 0).all()
    comps, words = lat.decomposition
    want = glued_shell_counts(tuple(comps), tuple(words), bound)
    assert {0: 1, **{q: 2 * len(rows) for q, rows in shells.items()}} == want
    assert {0: 1, **counts_upto(ctx.gs, bound)} == want


def _as_sets(shells):
    """Each stored half with its negatives, as a set of tuples, after checking
    that no stored row is another's negative or a repeat."""
    out = {}
    for q, rows in shells.items():
        out[q] = set(map(tuple, np.concatenate([rows, -rows]).tolist()))
        assert len(out[q]) == 2 * len(rows)
    return out


def _box_sets(gram, bound):
    return {q: set(vecs) for q, vecs in ldl_box_vectors(gram, bound).items()}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.integers(0, 10),
)
def test_random_gram_shells_match_box_scan(a, bound):
    n = len(a)
    # A^T A + I: positive definite and, in general, far from reduced.
    gram = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
    want = _box_sets(gram, bound)
    gs = integral_gram_schmidt(gram)
    assert _as_sets(shells_upto(gs, bound)) == want
    assert counts_upto(gs, bound) == {q: len(v) for q, v in want.items()}


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _dot(row, v):
    return sum(h * x for h, x in zip(row, v))


def _in_cone(cone, v):
    return all(_dot(row, v) >= 0 for row in cone)


def _last_nonzero_positive(v):
    return next(x for x in reversed(v) if x) > 0


def _cone_pairs(gs, bound, cone):
    """(vector, norm) pairs of the walk clipped to `cone`, in walk order."""
    return [(tuple(x), q) for xs, norms in fp._half_shell_chunks(gs, bound, cone)
            for x, q in zip(xs.tolist(), norms.tolist())]


@st.composite
def _gram_and_cone(draw):
    """A positive definite Gram matrix A^T A + I of rank n = 1..4, and either
    the identity cone (the orthant) or m = 0..n random rows, row r zero
    before column r + n - m and positive there."""
    n = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    gram = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        return gram, _identity(n)
    lead = n - draw(st.integers(0, n))
    cone = [[draw(st.integers(1, 3)) if j == i else draw(st.integers(-3, 3)) if j > i else 0 for j in range(n)]
            for i in range(lead, n)]
    return gram, cone


@settings(max_examples=60, deadline=None)
@given(_gram_and_cone(), st.integers(0, 12))
@example(([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [[2, -1, 1], [0, 3, -2], [0, 0, 1]]), 8)
@example(([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [[0, 2, -1], [0, 0, 1]]), 8)
@example(([[4, 1, 0], [1, 3, 1], [0, 1, 5]], [[0, 0, 2]]), 12)
@example(([[4, 1, 0], [1, 3, 1], [0, 1, 5]], []), 12)
def test_orthant_walk_matches_box_scan(gram_cone, bound):
    # The walk clipped to the cone H x^T >= 0, H of m <= n rows: the box
    # scan's vectors in the cone, each once, with its norm, and of those
    # with H x^T = 0 the one of each +-x whose last nonzero coordinate is
    # positive.  H = I is the orthant, no rows the half walk.
    gram, cone = gram_cone
    want = {(v, q) for q, vecs in ldl_box_vectors(gram, bound).items() for v in vecs
            if _in_cone(cone, v) and (any(_dot(row, v) for row in cone) or _last_nonzero_positive(v))}
    got = _cone_pairs(integral_gram_schmidt(gram), bound, cone)
    assert len(got) == len(set(got)) and set(got) == want


@pytest.mark.parametrize("newton_min", [0, 10**9], ids=["newton", "isqrt"])
@pytest.mark.parametrize(
    "gram,bound",
    [
        ([[2**40, 1], [1, 2**40]], 2**41),
        ([[2**70]], 4 * 2**70),
        ([[10**12, 3, 0], [3, 10**12, 5], [0, 5, 10**12]], 3 * 10**12),
    ],
)
def test_walk_beyond_int64_matches_box_scan(monkeypatch, newton_min, gram, bound):
    # bound * D_i * D_{i+1} exceeds 2^63: the walk runs on Python-int arrays,
    # with either square root.
    monkeypatch.setattr(fp, "_NEWTON_MIN", newton_min)
    want = _box_sets(gram, bound)
    gs = integral_gram_schmidt(gram)
    assert want and _as_sets(shells_upto(gs, bound)) == want
    assert counts_upto(gs, bound) == {q: len(v) for q, v in want.items()}


@pytest.mark.parametrize("newton_min", [0, 10**9], ids=["newton", "isqrt"])
def test_scaled_e8_walk_beyond_int64(monkeypatch, newton_min):
    # 2^40 E8 to norm 2^40 * 4: the same 2400 vectors as E8 to norm 4, on
    # Python-int arrays.
    monkeypatch.setattr(fp, "_NEWTON_MIN", newton_min)
    ctx = en._context(builtin("E8"))
    scale = 2**40
    want = {q * scale: rows for q, rows in _as_sets(shells_upto(ctx.gs, 4)).items()}
    scaled = integral_gram_schmidt([[scale * x for x in row] for row in ctx.gram_red])
    assert _as_sets(shells_upto(scaled, 4 * scale)) == want


def _walk_sets(gs, bound, orthant):
    """(vector, norm) pairs of a walk: the orthant walk (the identity cone)
    as it is, the half walk with each row's negative."""
    got = _cone_pairs(gs, bound, _identity(len(gs[1])) if orthant else [])
    if not orthant:
        got += [(tuple(-c for c in x), q) for x, q in got]
    assert len(got) == len(set(got))
    return set(got)


def _box_pairs(gram, bound, orthant):
    return {(v, q) for q, vecs in ldl_box_vectors(gram, bound).items() for v in vecs if not orthant or min(v) >= 0}


@pytest.mark.parametrize("orthant", [False, True], ids=["half", "orthant"])
@pytest.mark.parametrize("chunk", [1, 5])
def test_chunked_walk_matches_box_scan(monkeypatch, orthant, chunk):
    # Levels split into chunks of at most `chunk` children give the same
    # vectors, each once.
    monkeypatch.setattr(fp, "_CHUNK", chunk)
    gram = [[4, 1, 0], [1, 3, 1], [0, 1, 5]]
    assert _walk_sets(integral_gram_schmidt(gram), 12, orthant) == _box_pairs(gram, 12, orthant)


@pytest.mark.parametrize("orthant", [False, True], ids=["half", "orthant"])
@pytest.mark.parametrize("side", ["table", "isqrt"])
def test_table_limit_boundary_matches_box_scan(monkeypatch, orthant, side):
    # The largest radicand bound D_i D_{i+1} of the walk just below the
    # table limit takes the table, at the limit `_isqrt`; both give the box
    # scan's vectors.
    gram = [[4, 1, 0], [1, 3, 1], [0, 1, 5]]
    bound = 12
    gs = integral_gram_schmidt(gram)
    d = gs[0]
    radicand = max(bound * d[i] * d[i + 1] for i in range(len(gram)))
    monkeypatch.setattr(fp, "_TABLE_LIMIT", radicand + (side == "table"))
    calls = []
    monkeypatch.setattr(fp, "_isqrt", lambda a, powers: calls.append(len(a)) or fp.np.array(
        [isqrt(v) for v in a.tolist()], dtype=a.dtype))
    assert _walk_sets(gs, bound, orthant) == _box_pairs(gram, bound, orthant)
    assert bool(calls) == (side == "isqrt")


@pytest.mark.parametrize("orthant", [False, True], ids=["half", "orthant"])
@pytest.mark.parametrize("scale", [1, 2**60], ids=["int64", "python-int"])
@pytest.mark.parametrize(
    "rank,coord,narrow",
    [(2, 127, np.int8), (2, 128, np.int16), (1, 32767, np.int16), (1, 32768, np.int32)],
)
def test_coordinate_dtype_boundary_matches_box_scan(orthant, scale, rank, coord, narrow):
    # scale * I to norm scale * coord^2: the proven bound on every |x_i| is
    # coord, which sets the narrowest dtype of the coordinates; int64 or
    # Python-int arithmetic as bound * D_i * D_{i+1} fits or not.
    gram = [[scale * (i == j) for j in range(rank)] for i in range(rank)]
    bound = scale * coord * coord
    gs = integral_gram_schmidt(gram)
    cone = _identity(rank) if orthant else []
    assert {xs.dtype for xs, _ in fp._half_shell_chunks(gs, bound, cone)} == {np.dtype(narrow)}
    want = {(v, q * scale) for v, q in _box_pairs(_identity(rank), coord * coord, orthant)}
    assert _walk_sets(gs, bound, orthant) == want
