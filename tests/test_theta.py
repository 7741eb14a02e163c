from fractions import Fraction

import pytest

from thetalab.enumeration import GramTarget, shell_count
from thetalab.lattices import from_gram, root_lattice
from thetalab.niemeier import builtin
from thetalab.theta import (
    CURATED_GENUS4,
    GRAM_A4,
    SeriesError,
    block_factorization_check,
    export_series,
    k_identity_check,
    linear_independence_rank,
    parse_series,
    series_difference,
    series_product,
    siegel_restrict,
    theta_truncated,
    weight12_product_coefficient,
)

from oracles import constant_one, series_product_pairwise


def flat(tr):
    return {t.key(): c for t, c in tr.coeffs.items() if c}


def test_theta_genus0_is_one():
    tr = theta_truncated(builtin("E8"), 0, 8)
    assert flat(tr) == {"0|": 1}


def test_theta_e8_g1():
    tr = theta_truncated(builtin("E8"), 1, 4)
    assert flat(tr) == {"1|0": 1, "1|2": 240, "1|4": 2160}
    assert tr.weight == Fraction(4)


def test_theta_e8e8_g1_matches_convolution_oracle():
    e8 = builtin("E8")
    shells = {q: shell_count(e8, q) for q in (0, 2, 4)}
    expect4 = sum(shells[a] * shells[4 - a] for a in (0, 2, 4))
    tr = theta_truncated(builtin("E8+E8"), 1, 4)
    assert flat(tr) == {"1|0": 1, "1|2": 480, "1|4": expect4}
    assert expect4 == 61920


def test_difference_with_self_is_zero():
    f = theta_truncated(builtin("E8"), 1, 8)
    assert series_difference(f, f).is_zero


def test_difference_rank16_pair_vanishes_g1():
    fa = theta_truncated(builtin("E8+E8"), 1, 8)
    fb = theta_truncated(builtin("D16+"), 1, 8)
    assert series_difference(fa, fb).is_zero


def test_difference_first_rank24_pair_vanishes_g1():
    fa = theta_truncated(builtin("A5^4D4"), 1, 8)
    fb = theta_truncated(builtin("D4^6"), 1, 8)
    assert series_difference(fa, fb).is_zero


def test_difference_requires_matching_genus_and_weight():
    f = theta_truncated(builtin("E8"), 1, 4)
    g = theta_truncated(builtin("E8"), 2, 4)
    with pytest.raises(SeriesError):
        series_difference(f, g)
    h = theta_truncated(builtin("E8+E8"), 1, 4)
    with pytest.raises(SeriesError):
        series_difference(f, h)


def test_product_unit():
    f = theta_truncated(builtin("E8"), 1, 6)
    one = constant_one(1, 6)
    assert series_product(f, one) == f
    assert series_product(one, f) == f


def test_product_matches_direct_sum_g1():
    e8 = builtin("E8")
    f = theta_truncated(e8, 1, 8)
    prod = series_product(f, f)
    direct = theta_truncated(builtin("E8+E8"), 1, 8)
    assert prod == direct
    assert prod.weight == Fraction(8)


def test_product_matches_direct_sum_g2():
    e8 = builtin("E8")
    f = theta_truncated(e8, 2, 4)
    prod = series_product(f, f)
    direct = theta_truncated(builtin("E8+E8"), 2, 4)
    assert prod == direct


def test_product_commutative_associative():
    a = theta_truncated(root_lattice("A", 1), 1, 6)
    b = theta_truncated(root_lattice("A", 2), 1, 6)
    c = theta_truncated(builtin("E8"), 1, 6)
    assert series_product(a, b) == series_product(b, a)
    assert series_product(series_product(a, b), c) == series_product(a, series_product(b, c))


def test_product_matches_pairwise_loop():
    # The product cases above, and one of degree 3 with a difference (whose
    # zero coefficients are skipped) as a factor.
    e8 = builtin("E8")
    a1, a2 = root_lattice("A", 1), root_lattice("A", 2)
    pairs = [(theta_truncated(e8, 1, 6), constant_one(1, 6)), (constant_one(1, 6), theta_truncated(e8, 1, 6)),
             (theta_truncated(e8, 1, 8), theta_truncated(e8, 1, 8)), (theta_truncated(e8, 2, 4), theta_truncated(e8, 2, 4)),
             (theta_truncated(a1, 1, 6), theta_truncated(a2, 1, 6)), (theta_truncated(a1, 2, 4), theta_truncated(e8, 2, 4))]
    diff = series_difference(theta_truncated(root_lattice("D", 4), 3, 6), theta_truncated(root_lattice("A", 4), 3, 6))
    pairs.append((theta_truncated(a2, 3, 6), diff))
    for f, g in pairs:
        prod = series_product(f, g)
        expect = series_product_pairwise(f, g)
        assert prod.coeffs == expect.coeffs
        assert (prod.trace_bound, prod.weight) == (expect.trace_bound, expect.weight)
    assert len(prod.coeffs) > 50


def test_restrict_constant():
    one = constant_one(1, 4)
    assert flat(siegel_restrict(one)) == {"0|": 1}


def test_restrict_theta_matches_lower_genus():
    e8 = builtin("E8")
    assert siegel_restrict(theta_truncated(e8, 2, 4)) == theta_truncated(e8, 1, 4)
    assert siegel_restrict(theta_truncated(e8, 1, 4)) == theta_truncated(e8, 0, 4)


def test_restrict_commutes_with_product():
    a = theta_truncated(root_lattice("A", 1), 2, 4)
    b = theta_truncated(builtin("E8"), 2, 4)
    lhs = siegel_restrict(series_product(a, b))
    rhs = series_product(siegel_restrict(a), siegel_restrict(b))
    assert lhs == rhs


def test_restrict_is_linear_on_differences():
    fa = theta_truncated(builtin("E8+E8"), 2, 4)
    fb = theta_truncated(builtin("D16+"), 2, 4)
    d = series_difference(fa, fb)
    rd = siegel_restrict(d)
    expect = series_difference(siegel_restrict(fa), siegel_restrict(fb))
    assert {t: c for t, c in rd.coeffs.items() if c} == {t: c for t, c in expect.coeffs.items() if c}


def test_block_factorization_trivial():
    assert block_factorization_check(builtin("E8"), GramTarget.zero(1), GramTarget.zero(1))


def test_block_factorization_propagates_other_errors(monkeypatch):
    # Only an invalid completion is skipped; any other error from the check
    # of a completion reaches the caller.
    check = GramTarget.check_valid

    def broken(t):
        if t.genus == 2:
            raise RuntimeError("not a domain error")
        check(t)

    monkeypatch.setattr(GramTarget, "check_valid", broken)
    with pytest.raises(RuntimeError, match="not a domain error"):
        block_factorization_check(builtin("E8"), GramTarget.diagonal([2]), GramTarget.diagonal([2]))


def test_block_factorization_e8_roots():
    # Sum over completions of diag(2, 2) equals 240 * 240.
    t2 = GramTarget.from_rows([[2]])
    assert block_factorization_check(builtin("E8"), t2, t2)


def test_linear_independence_rank_single():
    f = theta_truncated(builtin("E8"), 1, 6)
    assert linear_independence_rank([f]) == 1


def test_linear_independence_equal_series():
    fa = theta_truncated(builtin("E8+E8"), 1, 8)
    fb = theta_truncated(builtin("D16+"), 1, 8)
    assert linear_independence_rank([fa, fb]) == 1


def test_k_identity_cannot_normalize_on_zero_target():
    with pytest.raises(SeriesError):
        k_identity_check(
            builtin("E8D16"), builtin("E8^3"), t_set=[GramTarget.zero(4)]
        )


# D4's Cartan matrix, a curated index, and the same after x_2 -> x_2 + x_1:
# diagonal (2, 4, 2, 2), whose class representative is the all-2 D4 index.
D4_INDEX = GramTarget.from_rows([[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]])
D4_MOVED = GramTarget.from_rows([[2, 2, -1, 0], [2, 4, -2, 0], [-1, -2, 2, -1], [0, 0, -1, 2]])


def test_k_identity_on_a_conjugate_of_a_curated_index():
    # Both sides are class invariants, so the moved index gives the rows and
    # the k of the curated one.
    assert D4_INDEX in CURATED_GENUS4
    pair = builtin("A17E7"), builtin("D10E7^2")
    curated = k_identity_check(*pair, t_set=[D4_INDEX])
    moved = k_identity_check(*pair, t_set=[D4_MOVED])
    assert [r[1:] for r in moved.rows] == [r[1:] for r in curated.rows] == [(-604800, 5160960)]
    assert moved.k == curated.k == Fraction(-15, 128) and moved.verified
    # A class whose representative has a diagonal entry 4 is still refused.
    with pytest.raises(SeriesError, match="diagonal entries 0 or 2"):
        weight12_product_coefficient(GramTarget.diagonal([4, 0, 0, 0]))


def test_curated_set_shape():
    assert len(CURATED_GENUS4) == 9
    keys = [t.sort_key() for t in CURATED_GENUS4]
    assert keys == sorted(keys)
    assert GRAM_A4 in CURATED_GENUS4
    assert all(t.genus == 4 for t in CURATED_GENUS4)
    assert {t.trace for t in CURATED_GENUS4} == {0, 2, 4, 8}


def test_export_parse_round_trip():
    tr = theta_truncated(builtin("E8"), 2, 4)
    text = export_series(tr)
    back = parse_series(text)
    assert back == tr
    assert export_series(back) == text  # bit-exact round trip


def test_export_parse_round_trip_of_a_name_with_separators():
    # The provenance line "expr: a=b: c#..." holds both "=" and ":".
    tr = theta_truncated(from_gram("a=b: c", [[2, -1], [-1, 2]]), 2, 4)
    text = export_series(tr)
    back = parse_series(text)
    assert back == tr and back.provenance.startswith("a=b: c#")
    assert export_series(back) == text


def test_export_genus0():
    tr = theta_truncated(builtin("E8"), 0, 4)
    back = parse_series(export_series(tr))
    assert back == tr


def test_parse_rejects_garbage():
    good = export_series(theta_truncated(builtin("E8"), 1, 4))
    for text in (
        "not a series\n",
        good.replace("genus: 1\n", ""),  # no genus header
        good.replace("rank: 8", "rank: eight"),
        good + "2 = many\n",
        good + "2 2 = 5\n",  # upper triangle of the wrong length
    ):
        with pytest.raises(SeriesError):
            parse_series(text)
