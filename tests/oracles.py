"""Independent brute-force oracles shared by the unit and acceptance suites."""

import itertools
import operator
from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from thetalab import enumeration, weyl
from thetalab.enumeration import GramTarget, candidate_targets
from thetalab.exactnum import (
    NotPositiveDefiniteError,
    _hnf_int_rows,
    det_exact,
    integral_gram_schmidt,
    rank_int,
    scaled_gram,
)
from thetalab.fincke_pohst import shells_upto
from thetalab.rootdata import ade_gram, ambient_dim, class_add, classify_component
from thetalab.theta import Series


def ldl_box_vectors(gram, bound):
    """Scan the coordinate box |x_i| <= sqrt(bound * (G^-1)_ii) and group every
    nonzero vector of norm <= bound by norm.  Independent of the enumeration engine."""
    n = len(gram)
    ginv = fraction_inverse(gram)
    boxes = [int(isqrt(int(bound * ginv[i][i]) + 1)) + 1 for i in range(n)]
    vectors = {}
    for x in itertools.product(*[range(-b, b + 1) for b in boxes]):
        if not any(x):
            continue
        q = sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))
        if 0 < q <= bound:
            vectors.setdefault(q, []).append(x)
    return vectors


def fraction_inverse(gram):
    """G^-1 by Gauss-Jordan elimination on Fractions."""
    n = len(gram)
    aug = [[Fraction(gram[r][c]) for c in range(n)] + [Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def fraction_ldl(gram):
    """(pivots, U) with G = U^T diag(pivots) U, by symmetric Gaussian
    elimination on Fractions; raises NotPositiveDefiniteError at the first
    pivot that is not positive."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d = []
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            raise NotPositiveDefiniteError(k)
        d.append(pivot)
        for j in range(k + 1, n):
            u[k][j] = a[k][j] / pivot
        for i in range(k + 1, n):
            for j in range(i, n):
                a[i][j] -= a[k][i] * a[k][j] / pivot
                a[j][i] = a[i][j]
    return d, u


def ldl_box_counts(gram, bound):
    """Counts by norm of `ldl_box_vectors`."""
    return {q: len(v) for q, v in ldl_box_vectors(gram, bound).items()}


def coxeter_number(kind, rank):
    """Coxeter number h of the irreducible root system of this ADE type."""
    if kind == "A":
        return rank + 1
    if kind == "D":
        return 2 * rank - 2
    return {6: 12, 7: 18, 8: 30}[rank]


def e8_ambient_counts(bound):
    """E8 in Euclidean coordinates: even-sum integer vectors plus all-odd
    doubled vectors with doubled sum divisible by 4."""
    counts = {}
    zmax = isqrt(bound)
    for z in itertools.product(range(-zmax, zmax + 1), repeat=8):
        if not any(z):
            continue
        if sum(z) % 2:
            continue
        q = sum(c * c for c in z)
        if q <= bound:
            counts[q] = counts.get(q, 0) + 1
    tmax = isqrt(4 * bound)
    if tmax % 2 == 0:
        tmax -= 1
    for t in itertools.product(range(-tmax, tmax + 1, 2), repeat=8):
        q4 = sum(c * c for c in t)
        if q4 > 4 * bound:
            continue
        if sum(t) % 4 != 0:
            continue
        counts[q4 // 4] = counts.get(q4 // 4, 0) + 1
    return counts


def a_coset_counts(rank, cls, bound):
    """Norm table of the coset cls + A_rank for one integer cls (any
    representative of its class): the projection of {z in Z^{n+1} :
    sum(z) = cls}, with norm sum(z^2) - cls^2/(n+1), by a dynamic program
    over the coordinates that carries one target sum."""
    n1 = rank + 1
    shift = Fraction(cls * cls, n1)
    smax = int(bound + shift)  # floor
    if smax < 0:
        return {}
    zmax = isqrt(smax)
    states = {(0, 0): 1}
    for coord in range(n1):
        remaining = n1 - coord - 1
        new = {}
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
    out = {}
    for (s, q), cnt in states.items():
        if s != cls:
            continue
        norm = q - shift
        if 0 <= norm <= bound:
            out[norm] = out.get(norm, 0) + cnt
    return out


def d_coset_counts(rank, cls, bound):
    """Norm table of one glue coset of D_rank ([0] even sums, [2] odd sums,
    [1]/[3] half-integer vectors split by the parity of sum(z - 1/2)), by a
    dynamic program over (parity, sum of squares) for that class alone."""
    out = {}
    if cls in (0, 2):
        zmax = isqrt(bound)
        want_parity = 0 if cls == 0 else 1
        states = {(0, 0): 1}
        for _ in range(rank):
            new = {}
            for (p, q), cnt in states.items():
                for z in range(-zmax, zmax + 1):
                    q2 = q + z * z
                    if q2 <= bound:
                        key = ((p + z) & 1, q2)
                        new[key] = new.get(key, 0) + cnt
            states = new
        for (p, q), cnt in states.items():
            if p == want_parity:
                out[Fraction(q)] = out.get(Fraction(q), 0) + cnt
        return out
    # Half-integer cosets: z_i = t_i / 2 with t_i odd; norm = sum(t^2)/4.
    tmax = isqrt(4 * bound)
    if tmax % 2 == 0:
        tmax -= 1
    want_parity = 0 if cls == 1 else 1  # parity of sum((t_i - 1)/2)
    states = {(0, 0): 1}
    for _ in range(rank):
        new = {}
        for (p, q), cnt in states.items():
            for t in range(-tmax, tmax + 1, 2):
                q2 = q + t * t
                if q2 <= 4 * bound:
                    key = ((p + (t - 1) // 2) & 1, q2)
                    new[key] = new.get(key, 0) + cnt
        states = new
    for (p, q), cnt in states.items():
        if p == want_parity:
            out[Fraction(q, 4)] = out.get(Fraction(q, 4), 0) + cnt
    return out


def e_coset_counts(rank, bound):
    """Norm tables of every glue class of E_rank, by walking the shells of
    the dual lattice E_rank* (Gram det * G^-1, scaled by det = |E*/E|) and
    labelling each dual vector by its class.  The class of a dual vector is
    the sum of its coordinates times the labels of the dual basis vectors,
    each label k the multiple of a generating dual basis vector g that it is
    congruent to (rows of G^-1 that differ by an integral row)."""
    gram = [list(r) for r in ade_gram("E", rank)]
    det = det_exact(gram)
    ginv = fraction_inverse(gram)
    gen = next((row for row in ginv if any(x.denominator != 1 for x in row)), ginv[0])
    labels = [
        next(k for k in range(det) if all((x - k * y).denominator == 1 for x, y in zip(row, gen)))
        for row in ginv
    ]
    tables = [{} for _ in range(det)]
    tables[0][Fraction(0)] = 1
    dual_scaled = [[int(x * det) for x in row] for row in ginv]
    for qscaled, half in shells_upto(integral_gram_schmidt(dual_scaled), bound * det).items():
        classes = whole_shell(half).astype(np.int64) @ np.array(labels, dtype=np.int64) % det
        for cls, cnt in zip(*np.unique(classes, return_counts=True)):
            tables[int(cls)][Fraction(qscaled, det)] = int(cnt)
    return tables


def fraction_simple_roots(kind, rank):
    """Simple roots as Fraction rows in the Euclidean ambient space (A_n in
    R^{n+1}, D_n in R^n, E_n in R^8, Bourbaki numbering)."""
    dim = ambient_dim(kind, rank)

    def e(i):
        v = [Fraction(0)] * dim
        v[i] = Fraction(1)
        return v

    rows = []
    if kind == "A":
        for i in range(rank):
            v = e(i)
            v[i + 1] = Fraction(-1)
            rows.append(v)
    elif kind == "D":
        for i in range(rank - 1):
            v = e(i)
            v[i + 1] = Fraction(-1)
            rows.append(v)
        v = e(rank - 2)
        v[rank - 1] = Fraction(1)
        rows.append(v)
    else:
        # a1 = (1/2)(e1+e8) - (1/2)(e2+...+e7), a2 = e1+e2, ak = e_{k-1}-e_{k-2}
        rows = [[Fraction(1, 2), *([Fraction(-1, 2)] * 6), Fraction(1, 2)], [Fraction(1)] * 2 + [Fraction(0)] * 6]
        for k in range(3, 9):
            v = e(k - 2)
            v[k - 3] = Fraction(-1)
            rows.append(v)
        rows = rows[:rank]
    return [tuple(r) for r in rows]


def fraction_class_rep(kind, rank, cls):
    """A representative of the cls-th glue class in Fraction ambient
    coordinates: cls omega_1 for A_n; for D_n the spinor classes 1 and 3 and
    the vector class 2; for E6/E7 cls times the first fundamental weight
    omega_i = sum_j (C^-1)_ij alpha_j (C the Gram matrix of the Fraction roots)
    that is not in the root lattice."""
    dim = ambient_dim(kind, rank)
    if cls == 0:
        return (Fraction(0),) * dim
    if kind == "A":
        base = [-Fraction(cls, rank + 1)] * (rank + 1)
        base[0] += cls
        return tuple(base)
    if kind == "D":
        if cls == 2:
            return (Fraction(1),) + (Fraction(0),) * (rank - 1)
        return (Fraction(1, 2),) * (rank - 1) + (Fraction(1 if cls == 1 else -1, 2),)
    roots = fraction_simple_roots(kind, rank)
    ginv = fraction_inverse([[sum(map(operator.mul, a, b)) for b in roots] for a in roots])
    row = next(r for r in ginv if any(x.denominator != 1 for x in r))
    return tuple(cls * sum(c * r[t] for c, r in zip(row, roots)) for t in range(dim))


def fraction_glue_rows(comps, words):
    """The ambient rows of a glue lattice as Fractions: the simple roots of
    each component, then for each word the sum of its class representatives."""
    dims = [ambient_dim(kind, rank) for kind, rank in comps]
    rows = []
    for c, (kind, rank) in enumerate(comps):
        pad = (Fraction(0),) * sum(dims[:c]), (Fraction(0),) * sum(dims[c + 1 :])
        rows += [pad[0] + root + pad[1] for root in fraction_simple_roots(kind, rank)]
    for word in words:
        rows.append(sum((fraction_class_rep(kind, rank, cls) for (kind, rank), cls in zip(comps, word)), ()))
    return rows


def word_closure(spec):
    """The glue code of a spec by breadth-first closure: every generator
    added to every word found, until nothing new appears."""
    group = {tuple(0 for _ in spec.components)}
    frontier = list(group)
    while frontier:
        word = frontier.pop()
        for gen in spec.glue_words:
            s = tuple(class_add(kind, rank, a, b) for (kind, rank), a, b in zip(spec.components, word, gen))
            if s not in group:
                group.add(s)
                frontier.append(s)
    return tuple(sorted(group))


def clear_denominators(rows):
    """(d * rows as integer rows, d), with d the least common denominator of the entries."""
    d = lcm(1, *(x.denominator for r in rows for x in r))
    return [[int(x * d) for x in r] for r in rows], d


def fraction_glue_gram(rows):
    """The Gram matrix of the lattice that Fraction rows generate: one common
    denominator d cleared, the integer rows row-reduced, B B^T / d^2."""
    scaled, d = clear_denominators(rows)
    return scaled_gram(_hnf_int_rows(scaled), d)


def tau(n):
    """Ramanujan's tau(n): the q^n coefficient of q * prod_{m >= 1} (1 - q^m)^24."""
    coeffs = [1] + [0] * (n - 1)  # prod (1 - q^m)^24 up to q^(n-1)
    for m in range(1, n):
        for _ in range(24):
            for i in range(n - 1, m - 1, -1):
                coeffs[i] -= coeffs[i - m]
    return coeffs[n - 1]


def solve_coordinates(basis, v):
    """Coordinates of v in the row span of independent basis rows, or None.

    Solves x * basis = v exactly (Gaussian elimination on the transposed system).
    """
    k = len(basis)
    if k == 0:
        return [] if not any(v) else None
    m = len(basis[0])
    # Rows of the augmented system: (basis^T | v), one row per ambient coordinate.
    aug = [[Fraction(basis[i][c]) for i in range(k)] + [Fraction(v[c])] for c in range(m)]
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            return None  # basis rows not independent
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        row += 1
    # Consistency: remaining rows must be zero.
    if any(aug[i][k] != 0 for i in range(row, m)):
        return None
    return [aug[r][k] for r in range(k)]


def fraction_rank(rows):
    """Rank over Q of a matrix, by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def span_rank_types(vectors, masks):
    """(ADE symbol, rank) of the roots in each bit mask over the rows of
    `vectors`, the rank being that of their span by exact elimination
    (`rank_int`), not a count of simple roots."""
    out = []
    for mask in masks:
        rows = [v for i, v in enumerate(vectors) if mask >> i & 1]
        rank = rank_int(rows)
        out.append((classify_component(rank, len(rows)), rank))
    return out


def simple_roots_by_functional(vectors, ones):
    """Bit mask of the simple roots, from the root coordinates and the masks
    ones[i] of the roots with inner product 1 with root i.

    The positive roots are those positive under f(v) = sum_i v_i B^i with
    B = 2 max|v_i| + 1, which vanishes on no nonzero root.  A positive root is
    simple unless it is the sum of two positive roots, that is unless some
    positive root of smaller f has inner product 1 with it."""
    base = 2 * max((abs(c) for v in vectors for c in v), default=0) + 1
    f = [sum(c * base**i for i, c in enumerate(v)) for v in vectors]
    assert all(f), "functional vanishes on a root"
    simple = lower = 0
    for _, i in sorted((v, i) for i, v in enumerate(f) if v > 0):
        if not ones[i] & lower:
            simple |= 1 << i
        lower |= 1 << i
    return simple


def whole_shell_root_record(roots, gram):
    """(masks, linked, simple, components, |W|) of the roots `roots` (every
    vector of the norm-2 shell, in any order) from the whole product over
    them and `simple_roots_by_functional`; bit j of masks[d][i] is set when
    roots i and j have inner product d."""
    r = np.array(roots, dtype=np.int64).reshape(-1, len(gram))
    dots = r @ np.array(gram, dtype=np.int64) @ r.T

    def bit_rows(flags):
        return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in flags]

    masks = {d: bit_rows(dots == d) for d in range(-2, 3)}
    linked = bit_rows(dots != 0)
    simple = simple_roots_by_functional(r.tolist(), masks[1])
    components = list(weyl.components(linked, simple, (1 << len(r)) - 1))
    return masks, linked, simple, components, weyl.group_order(symbol for symbol, _ in components)


def five_mask_root_record(half, gram):
    """(masks, linked, simple, components, |W|) of the roots [half; -half]
    (`half` one root of each +-pair, root i + h = -(root i)) built from all
    five products -2..2 of half G half^T: each value's masks packed from the
    product matrix and its negation, `linked` the complement of masks[0],
    and the simple roots of the order that compares the last coordinate
    first."""
    h = len(half)
    long = np.asarray(half, dtype=np.int64).reshape(h, len(gram))
    dots = long @ np.array(gram, dtype=np.int64) @ long.T

    def bit_rows(flags):
        return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in flags]

    packed = {d: bit_rows(dots == d) for d in range(-2, 3)}
    masks = {}
    for d in range(-2, 3):
        a, b = packed[d], packed[-d]
        masks[d] = [x | y << h for x, y in zip(a, b)] + [y | x << h for x, y in zip(a, b)]
    everything = (1 << 2 * h) - 1
    linked = [everything & ~m for m in masks[0]]
    positive = sorted(range(h), key=lambda i: long[i].tolist()[::-1])
    simple = weyl.simple_roots(positive, masks[1])
    components = list(weyl.components(linked, simple, everything))
    return masks, linked, simple, components, weyl.group_order(symbol for symbol, _ in components)


def in_z_span(basis, v):
    """Whether v lies in the Z-span of the given independent basis rows (exact)."""
    coords = solve_coordinates(basis, v)
    return coords is not None and all(c.denominator == 1 for c in coords)


def whole_shell(half):
    """A stored shell (one vector of each +-pair) with the negatives of its rows."""
    return np.concatenate([half, -half])


def dominant_filter(shell, gram, simple):
    """The rows y of a whole shell in the closed dominant chamber, those with
    (y, a) >= 0 for every simple root a (the rows of `simple`; with none,
    every row), by blocked integer products under `gram`."""
    factor = np.asarray(gram, dtype=np.int64) @ simple.astype(np.int64).T
    assert int(np.abs(shell).max(initial=0)) * int(np.abs(factor).max(initial=0)) * shell.shape[1] < 2**63
    keep = np.zeros(len(shell), dtype=bool)
    step = 1 << 16
    for start in range(0, len(shell), step):
        keep[start : start + step] = (shell[start : start + step].astype(np.int64) @ factor >= 0).all(axis=1)
    return shell[keep]


def shells_in_basis(lat, bound):
    """The lattice's vectors of each norm <= bound, as tuples of coordinates in
    its own basis: the context's stored shells (reduced coordinates, one of
    each +-pair) with their negatives, mapped through its change of basis."""
    ctx = enumeration._context(lat)
    u = np.array(ctx.transform, dtype=np.int64).reshape(lat.rank, lat.rank)
    return {
        q: [tuple(map(int, row)) for row in whole_shell(arr).astype(np.int64) @ u]
        for q, arr in ctx.shell_arrays_upto(bound).items()
    }


def pairwise_dots(lat, vectors):
    """Exact inner-product matrix of vectors given in original-basis coordinates."""
    v = np.array(vectors, dtype=np.int64)
    g = np.array(lat.gram, dtype=np.int64).reshape(lat.rank, lat.rank)
    bound = (np.abs(v).max(initial=0) ** 2) * max(1, int(np.abs(g).max(initial=0))) * max(1, lat.rank) ** 2
    assert bound < 2**62, "dot bound exceeded"
    return v @ g @ v.T


def shell_pair_histogram(gram, x_arr, y_arr):
    """Histogram of x G y^T over every row x of x_arr and every row y of
    y_arr, by whole-shell blocked integer products.  Both shells are closed
    under negation, so one of each +-v pair is multiplied out on either side
    and H(b) = 2 * (Q(b) + Q(-b)), Q the quarter-space histogram."""

    def sign_half(arr):
        if len(arr) == 0:
            return arr
        lead = arr[np.arange(len(arr)), (arr != 0).argmax(axis=1)]
        assert 2 * int((lead > 0).sum()) == len(arr)
        return arr[lead > 0]

    x_arr, y_arr = sign_half(x_arr), sign_half(y_arr)
    if len(x_arr) == 0 or len(y_arr) == 0:
        return {}
    gy = np.asarray(gram, dtype=np.int64) @ y_arr.astype(np.int64).T
    offset = int(np.abs(x_arr).max()) * int(np.abs(gy).max()) * x_arr.shape[1]
    assert offset < 2**31
    gy, x_arr = gy.astype(np.int32), x_arr.astype(np.int32)
    acc = np.zeros(2 * offset + 1, dtype=np.int64)
    step = max(1, (1 << 22) // gy.shape[1])
    for start in range(0, len(x_arr), step):
        d = x_arr[start : start + step] @ gy
        acc += np.bincount(d.ravel().astype(np.int64) + offset, minlength=len(acc))
    quarter = {b - offset: int(v) for b, v in enumerate(acc.tolist()) if v}
    return {b: 2 * (quarter.get(b, 0) + quarter.get(-b, 0)) for q in quarter for b in (q, -q)}


def tuple_gram_counts(gram, shells, diag):
    """Brute force over every tuple (x_0..x_{g-1}), g >= 2, with x_i a row of
    shells[diag[i]] (coordinates in the basis of gram): the number of tuples
    with each Gram matrix, keyed by its upper triangle, row-major.  Slots
    0..g-3 are looped over; the last two run as one array of all pairs."""
    g = len(diag)
    gm = np.asarray(gram, dtype=np.int64)
    arrs = [np.asarray(shells[d], dtype=np.int64) for d in diag]
    dots = {(i, j): arrs[i] @ gm @ arrs[j].T for i, j in itertools.combinations(range(g), 2)}
    x, z = g - 2, g - 1
    shape = (len(arrs[x]), len(arrs[z]))
    # |Q(u, v)| <= max(diag) by Cauchy-Schwarz, so the entries are digits in base 2m + 1.
    m = max(diag)
    base = 2 * m + 1
    assert base ** (g * (g + 1) // 2) < 2**62
    out = {}
    for prefix in itertools.product(*(range(len(a)) for a in arrs[:x])):
        code = np.zeros(shape, dtype=np.int64)
        for i in range(g):
            for j in range(i, g):
                if i == j:
                    v = diag[i]
                elif j < x:
                    v = dots[i, j][prefix[i], prefix[j]]
                elif i < x:
                    row = dots[i, j][prefix[i]]
                    v = row[:, None] if j == x else row[None, :]
                else:
                    v = dots[x, z]
                code = code * base + (v + m)
        keys, counts = np.unique(code, return_counts=True)
        for k, c in zip(keys.tolist(), counts.tolist()):
            out[k] = out.get(k, 0) + c
    decoded = {}
    for k, c in out.items():
        digits = []
        for _ in range(g * (g + 1) // 2):
            k, d = divmod(k, base)
            digits.append(d - m)
        decoded[tuple(reversed(digits))] = c
    return decoded


def by_target(jac, s):
    """The l-histogram N(S, l) of one S in a Fourier-Jacobi table."""
    return {ell: c for (t, ell), c in jac.entries.items() if t == s}


def constant_one(genus, trace_bound):
    """The theta series of the rank-0 lattice: constant 1 in any degree."""
    return Series(genus=genus, trace_bound=trace_bound, weight=Fraction(0),
                  coeffs={GramTarget.zero(genus): 1}, provenance="1")


def sign_orbit_canonical(t):
    """Representative of the orbit of T under conjugation by diagonal +-1 matrices."""
    g = t.genus
    best = None
    for mask in range(1 << (g - 1)) if g else [0]:
        signs = [1] + [1 if (mask >> k) & 1 == 0 else -1 for k in range(g - 1)]
        rows = tuple(
            tuple(signs[i] * signs[j] * t.entries[i][j] for j in range(g)) for i in range(g)
        )
        if best is None or rows > best:
            best = rows
    return GramTarget(best)


def root_indices(genus):
    """Canonical representatives (under sign changes of the slots) of the
    indices of this genus whose diagonal entries are all 2."""
    found = {}
    for t in candidate_targets(genus, 2 * genus):
        if all(t.entries[i][i] == 2 for i in range(genus)):
            c = sign_orbit_canonical(t)
            found[c.key()] = c
    return sorted(found.values(), key=lambda t: t.sort_key())


def root_tuple_count(lat, t):
    """r_L(T) for T with every diagonal entry 2, by a bitset depth-first search
    over all roots of L: x_0 runs over one root of each +-v pair and the total
    is doubled; x_k for k >= 1 runs over the roots whose inner products with
    the slots fixed so far match T."""
    roots = shells_in_basis(lat, 2).get(2, [])
    if not roots:
        return 0
    g = len(t)
    dots = pairwise_dots(lat, roots)
    masks = {
        d: [int.from_bytes(np.packbits(row == d, bitorder="little").tobytes(), "little") for row in dots]
        for d in range(-2, 3)
    }
    index = {v: i for i, v in enumerate(roots)}

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def level(k, cands):
        # cands[j] holds the candidates left for slot k + j.
        if k == g - 1:
            return cands[0].bit_count()
        if k == g - 2:
            last = masks[t[k][g - 1]]
            return sum((cands[1] & last[i]).bit_count() for i in bits(cands[0]))
        total = 0
        for i in bits(cands[0]):
            nxt = [c & masks[t[k][k + 1 + j]][i] for j, c in enumerate(cands[1:])]
            if all(nxt):
                total += level(k + 1, nxt)
        return total

    half = [i for i, v in enumerate(roots) if i < index[tuple(-x for x in v)]]
    if g == 1:
        return 2 * len(half)
    return 2 * sum(level(1, [masks[t[0][k]][i] for k in range(1, g)]) for i in half)


def psd_by_minors(rows):
    """Exact PSD test of a square symmetric integer matrix: every one of its
    2^n - 1 principal minors is nonnegative."""
    n = len(rows)
    if any(len(r) != n for r in rows) or any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        return False
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if det_exact([[rows[i][j] for j in idx] for i in idx]) < 0:
            return False
    return True


def index_classes_by_product(genus, trace_bound):
    """{T: class_representative(T)} for every even PSD T with trace <= bound,
    in canonical order: the full product over every diagonal and off-diagonal
    choice, filtered by `psd_by_minors`, each T reduced on its own."""
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
            if psd_by_minors(rows):
                out.append(GramTarget.from_rows(rows))
    out.sort(key=GramTarget.sort_key)
    return {t: enumeration.class_representative(t) for t in out}


def signed_permutation_max(rows):
    """The permutation and sign normal form by exhaustive search: over every
    permutation that leaves the diagonal non-decreasing, with the best signs
    for it, the matrix whose upper off-diagonal entries (row-major) are
    lexicographically largest.  For a fixed permutation the greedy choice is
    the best: each nonzero entry in turn is made positive unless the signs
    chosen so far fix it (comp[k] labels the slots whose signs are fixed
    relative to slot k)."""
    g = len(rows)
    order = sorted(range(g), key=lambda i: rows[i][i])
    groups = [list(grp) for _, grp in itertools.groupby(order, key=lambda i: rows[i][i])]
    pairs = list(itertools.combinations(range(g), 2))
    best = None
    for parts in itertools.product(*(itertools.permutations(grp) for grp in groups)):
        perm = [i for part in parts for i in part]
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


def signed_permutation_orbits(targets):
    """The orbits of T -> P T P^T on a set of indices closed under it, P a
    permutation matrix times a diagonal sign matrix, each generated whole."""
    left = set(targets)
    orbits = []
    while left:
        t = left.pop()
        g = t.genus
        orbit = {
            GramTarget(tuple(tuple(s[a] * s[b] * t.entries[p[a]][p[b]] for b in range(g)) for a in range(g)))
            for p in itertools.permutations(range(g))
            for s in itertools.product((1, -1), repeat=g)
        }
        assert orbit - {t} <= left, "not closed under signed permutations"
        left -= orbit
        orbits.append(orbit)
    return orbits


def series_product_pairwise(f, g):
    """The product of two truncations by the pairwise loop: every pair of
    nonzero coefficients with trace(T1) <= bound and trace(T1) + trace(T2) <= bound."""
    bound = min(f.trace_bound, g.trace_bound)
    coeffs = {}
    for t1, c1 in f.coeffs.items():
        for t2, c2 in g.coeffs.items():
            if c1 and c2 and t1.trace <= bound and t1.trace + t2.trace <= bound:
                t = GramTarget(tuple(tuple(map(sum, zip(r1, r2))) for r1, r2 in zip(t1.entries, t2.entries)))
                coeffs[t] = coeffs.get(t, 0) + c1 * c2
    return Series(genus=f.genus, trace_bound=bound, weight=f.weight + g.weight,
                  coeffs={t: c for t, c in coeffs.items() if c}, provenance="pairwise")
