"""Independent brute-force oracles shared by the unit and acceptance suites."""

import itertools
from fractions import Fraction
from math import isqrt


def ldl_box_vectors(gram, bound):
    """Scan the coordinate box |x_i| <= sqrt(bound * (G^-1)_ii) and group every
    nonzero vector of norm <= bound by norm.  Independent of the enumeration engine."""
    n = len(gram)
    ginv_diag = []
    for i in range(n):
        aug = [[Fraction(gram[r][c]) for c in range(n)] + [Fraction(1 if r == i else 0)] for r in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r][col] != 0)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = 1 / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        ginv_diag.append(aug[i][n])
    boxes = [int(isqrt(int(bound * d) + 1)) + 1 for d in ginv_diag]
    vectors = {}
    for x in itertools.product(*[range(-b, b + 1) for b in boxes]):
        if not any(x):
            continue
        q = sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))
        if 0 < q <= bound:
            vectors.setdefault(q, []).append(x)
    return vectors


def ldl_box_counts(gram, bound):
    """Counts by norm of `ldl_box_vectors`."""
    return {q: len(v) for q, v in ldl_box_vectors(gram, bound).items()}


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


def in_z_span(basis, v):
    """Whether v lies in the Z-span of the given independent basis rows (exact)."""
    coords = solve_coordinates(basis, v)
    return coords is not None and all(c.denominator == 1 for c in coords)
