from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetalab.exactnum import (
    NotPositiveDefiniteError,
    _hnf_int_rows,
    det_exact,
    integral_gram_schmidt,
    is_positive_semidefinite,
    rank_int,
    scaled_gram,
    scaled_inverse,
)

from oracles import clear_denominators, fraction_ldl, fraction_rank, in_z_span, psd_by_minors


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


GRAM_A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


def test_det_1x1():
    assert det_exact([[2]]) == 2


def test_det_a4_matches_cofactor_oracle():
    assert det_exact(GRAM_A4) == cofactor_det(GRAM_A4) == 5


def test_det_e8_is_one():
    from thetalab.rootdata import ade_gram

    g = ade_gram("E", 8)
    assert det_exact(g) == 1
    assert cofactor_det([list(r) for r in g]) == 1


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det_exact([[1, 2]])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_det_matches_cofactor_on_random_matrices(rows):
    assert det_exact(rows) == cofactor_det(rows)


def ldl(g):
    """(pivots, U) with G = U^T diag(pivots) U, read off `integral_gram_schmidt`:
    pivot k is d[k+1]/d[k], and U[k][i] = mu[i][k] = lam[i][k]/d[k+1]."""
    d, lam = integral_gram_schmidt(g)
    n = len(g)
    pivots = [Fraction(d[k + 1], d[k]) for k in range(n)]
    u = [[Fraction(lam[i][k], d[k + 1]) if i > k else Fraction(int(i == k)) for i in range(n)] for k in range(n)]
    return pivots, u


def test_ldl_1x1():
    d, u = ldl([[2]])
    assert d == [Fraction(2)]
    assert u == [[Fraction(1)]]


def test_ldl_2x2_hand_checked():
    d, u = ldl([[2, 1], [1, 2]])
    assert d == [Fraction(2), Fraction(3, 2)]
    assert u == [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(1)]]


def test_ldl_d4_pivots_positive():
    from thetalab.rootdata import ade_gram

    d, _ = ldl(ade_gram("D", 4))
    assert len(d) == 4 and all(p > 0 for p in d)


def test_ldl_reports_first_bad_pivot():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        integral_gram_schmidt([[2, 0], [0, -2]])
    assert exc.value.pivot_index == 1
    with pytest.raises(NotPositiveDefiniteError) as exc:
        integral_gram_schmidt([[0]])
    assert exc.value.pivot_index == 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_ldl_reconstructs_when_it_succeeds(rows):
    n = len(rows)
    # A^T A + I is symmetric positive definite.
    g = [[sum(rows[k][i] * rows[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
    d, u = ldl(g)
    rec = [[sum(u[k][i] * d[k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert rec == g


def _symmetric(rows):
    n = len(rows)
    return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_ldl_matches_fraction_elimination(rows):
    # Most draws are indefinite: the same first bad pivot must be reported.
    g = _symmetric(rows)
    try:
        want = fraction_ldl(g)
    except NotPositiveDefiniteError as e:
        with pytest.raises(NotPositiveDefiniteError) as exc:
            integral_gram_schmidt(g)
        assert exc.value.pivot_index == e.pivot_index
        return
    assert ldl(g) == want


def test_psd_checks():
    assert integral_gram_schmidt([[2, 1], [1, 2]]) == ([1, 2, 3], [[0, 0], [1, 0]])
    with pytest.raises(NotPositiveDefiniteError):
        integral_gram_schmidt([[2, 2], [2, 2]])
    assert is_positive_semidefinite([[2, 2], [2, 2]])
    assert not is_positive_semidefinite([[0, 1], [1, 0]])


def _gram_of_vectors(n, k, sign):
    """sign * V V^T for n random vectors V in Z^k: PSD of rank <= k (singular
    when k < n), or negative semidefinite."""
    vectors = st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=n, max_size=n)
    return vectors.map(lambda v: [[sign * sum(a * b for a, b in zip(x, y)) for y in v] for x in v])


_SYMMETRIC = st.integers(1, 5).flatmap(lambda n: st.one_of(
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n).map(_symmetric),
    st.integers(0, n - 1).flatmap(lambda k: _gram_of_vectors(n, k, 1)),
    st.integers(n, n + 2).flatmap(lambda k: _gram_of_vectors(n, k, 1)),
    st.integers(1, n).flatmap(lambda k: _gram_of_vectors(n, k, -1)),
))


@settings(max_examples=400, deadline=None)
@given(_SYMMETRIC)
def test_psd_matches_principal_minors(rows):
    assert is_positive_semidefinite(rows) == psd_by_minors(rows)


def _d8_plus_rows():
    rows = []
    for i in range(7):
        r = [Fraction(0)] * 8
        r[i], r[i + 1] = Fraction(1), Fraction(-1)
        rows.append(r)
    r = [Fraction(0)] * 8
    r[6] = r[7] = Fraction(1)
    rows.append(r)
    rows.append([Fraction(1, 2)] * 8)
    return rows


def test_hnf_d8_plus_gives_even_unimodular_lattice():
    scaled, d = clear_denominators(_d8_plus_rows())
    assert d == 2
    basis = _hnf_int_rows(scaled)
    assert len(basis) == 8
    gram = scaled_gram(basis, d)
    assert det_exact(gram) == 1
    assert all(gram[i][i] % 2 == 0 for i in range(8))
    # (e1 / 2) . (e1 / 2) = 1/4 is not an integer.
    with pytest.raises(ValueError):
        scaled_gram([[1] + [0] * 7], 2)


def test_row_basis_independent_of_row_order():
    rows, _ = clear_denominators(_d8_plus_rows())
    b1 = _hnf_int_rows(rows)
    b2 = _hnf_int_rows(list(reversed(rows)))
    # Same lattice: mutual membership of basis vectors.
    assert all(in_z_span(b1, v) for v in b2)
    assert all(in_z_span(b2, v) for v in b1)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.booleans(),
)
def test_hnf_of_full_rank_rows_is_echelon_with_positive_pivots(a, with_unit):
    # n independent rows, optionally each followed by e_j (the shape the
    # cone walk gives it): n rows, row r zero before column r and positive
    # there, with the same Z-span.
    n = len(a)
    assume(rank_int(a) == n)
    rows = [r + [int(i == j) for i in range(n)] for j, r in enumerate(a)] if with_unit else a
    basis = _hnf_int_rows(rows)
    assert len(basis) == n
    for r, row in enumerate(basis):
        assert not any(row[:r]) and row[r] > 0
    assert all(in_z_span(basis, v) for v in rows)
    assert all(in_z_span(rows, v) for v in basis)


def test_rank_int():
    assert rank_int([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2
    assert rank_int([[0, 0], [0, 0]]) == 0
    assert rank_int([]) == 0
    # A row whose pivot-column entry is 0 must still take the elimination step.
    assert rank_int([[0, 2, -1, 0], [-2, -1, 2, 0], [0, -1, -2, 1], [-2, 2, 1, 0]]) == 4


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=7)))
def test_rank_int_matches_fraction_elimination(rows):
    assert rank_int(rows) == fraction_rank(rows)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_scaled_inverse(rows):
    # A R = d I with d = +-det A, also when a zero pivot forces a row swap;
    # a singular A raises.
    n = len(rows)
    det = det_exact(rows)
    if det == 0:
        with pytest.raises(ValueError):
            scaled_inverse(rows)
        return
    d, r = scaled_inverse(rows)
    assert abs(d) == abs(det)
    assert [[sum(rows[i][k] * r[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
        [d * (i == j) for j in range(n)] for i in range(n)
    ]


def test_scaled_inverse_swaps_rows():
    d, r = scaled_inverse([[0, 1], [1, 0]])
    assert (d, r) in ((1, [[0, 1], [1, 0]]), (-1, [[0, -1], [-1, 0]]))
