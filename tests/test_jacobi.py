from fractions import Fraction

import pytest

from thetalab import enumeration as en
from thetalab.enumeration import GramTarget, RepresentationDomainError, shell_count
from thetalab.jacobi import (
    heat_coefficient_check,
    jacobi_coefficient,
    venkov_constant,
)
from thetalab.lattices import LatticeError, from_gram
from thetalab.niemeier import builtin

from oracles import by_target, pairwise_dots, shells_in_basis

S0 = GramTarget.from_rows([[0]])
S2 = GramTarget.from_rows([[2]])


def test_trivial_when_no_vectors_of_norm_2n():
    # Minimal norm 4 > 2: the n=1 coefficient has no terms at all.
    lat = from_gram("no-roots", [[4]])
    jac = jacobi_coefficient(lat, 1, 1, 4)
    assert jac.entries == {}


def test_e8_index1_zero_target():
    jac = jacobi_coefficient(builtin("E8"), 1, 1, 0)
    assert jac.entries == {(S0, (0,)): 240}


def test_e8_index1_marginal_and_histogram():
    e8 = builtin("E8")
    jac = jacobi_coefficient(e8, 1, 1, 2)
    tab = by_target(jac, S2)
    assert sum(tab.values()) == 240 * 240
    # Independent double loop over root pairs.
    roots = shells_in_basis(e8, 2)[2]
    dots = pairwise_dots(e8, roots)
    for ell in (-2, -1, 0, 1, 2):
        assert tab[(ell,)] == int((dots == ell).sum())


def test_e8_index2_zero_target():
    jac = jacobi_coefficient(builtin("E8"), 1, 2, 0)
    assert jac.entries == {(S0, (0,)): 2160}


def test_odd_moments_vanish():
    jac = jacobi_coefficient(builtin("E8"), 1, 1, 4)
    for s in (S2, GramTarget.from_rows([[4]])):
        tab = by_target(jac, s)
        assert sum(ell[0] * c for ell, c in tab.items()) == 0


def test_cauchy_schwarz_support_bound():
    jac = jacobi_coefficient(builtin("E8"), 1, 1, 4)
    for (s, ell), c in jac.entries.items():
        assert c > 0
        for i in range(s.genus):
            assert ell[i] ** 2 <= 2 * s.entries[i][i]


def test_marginalization_to_representation_numbers():
    e8 = builtin("E8")
    jac = jacobi_coefficient(e8, 1, 1, 4)
    for s in (S0, S2, GramTarget.from_rows([[4]])):
        tab = by_target(jac, s)
        assert sum(tab.values()) == en.representation_count(e8, s) * shell_count(e8, 2)


def test_genus2_joint_counts_marginalize():
    e8 = builtin("E8")
    jac = jacobi_coefficient(e8, 2, 1, 4)
    s = GramTarget.from_rows([[2, 1], [1, 2]])
    tab = by_target(jac, s)
    assert sum(tab.values()) == 13440 * 240
    # Sign symmetry of the root set: (l1, l2) and (-l1, -l2) match.
    for ell, c in tab.items():
        assert tab[(-ell[0], -ell[1])] == c


def test_venkov_e8_constant_rank_over_two():
    rep = venkov_constant(builtin("E8"), norm_bound=8, per_vector_norm_cap=4)
    assert rep.consistent
    assert rep.constant == Fraction(4)  # rank / 2
    assert rep.r2 == 240
    assert rep.verified_vectors == 240 + 2160


def test_venkov_direct_double_loop_oracle():
    e8 = builtin("E8")
    rep = venkov_constant(e8, per_vector_norm_cap=2)
    shells = shells_in_basis(e8, 4)
    roots = shells[2]
    g = e8.gram

    def q(v, w):
        return sum(v[i] * g[i][j] * w[j] for i in range(8) for j in range(8))

    for v in (shells[2][0], shells[2][7], shells[4][0], shells[4][11]):
        direct = sum(q(y, v) ** 2 for y in roots)
        assert rep.r2 * q(v, v) * rep.constant.denominator == rep.constant.numerator * direct


def test_venkov_requires_roots():
    with pytest.raises(LatticeError):
        venkov_constant(from_gram("no-roots", [[4]]))


def test_venkov_invariant_under_basis_permutation():
    lat = builtin("D4^6")
    rep = venkov_constant(lat, per_vector_norm_cap=2)
    n = lat.rank
    perm = list(reversed(range(n)))
    g = lat.gram
    permuted = from_gram("D4^6-permuted", [[g[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    rep2 = venkov_constant(permuted, per_vector_norm_cap=2)
    assert rep2.consistent and rep2.constant == rep.constant == Fraction(12)


def test_heat_zero_matrix():
    # S = 0: both sides vanish; the l-moment dies by the y -> -y symmetry.
    lat = builtin("D4^6")
    assert heat_coefficient_check(lat, 1, GramTarget.zero(1), Fraction(12))


def test_heat_e8_cubed_g1():
    lat = builtin("E8^3")
    assert heat_coefficient_check(lat, 1, S2, Fraction(12))


def test_heat_wrong_constant_fails():
    lat = builtin("E8^3")
    assert not heat_coefficient_check(lat, 1, S2, Fraction(48))


@pytest.mark.parametrize("genus", [1, 2], ids=["genus1", "genus2"])
def test_oversized_table_is_refused_before_shells_are_built(monkeypatch, genus):
    # Shells are sized from the shell counts (coset dynamic programming for
    # E8) and refused before any is walked.  Shrunk, the limit refuses the 240
    # roots that these tables need.  A fresh context and memory cache make
    # sure no earlier test has stored the shells or the counts.
    def no_shells(gs, bound):
        raise AssertionError("a shell was built before the size check")

    monkeypatch.setattr(en, "_SHELL_VECTORS_LIMIT", 100)
    monkeypatch.setattr(en, "shells_upto", no_shells)
    monkeypatch.setattr(en, "_CONTEXTS", {})
    monkeypatch.setattr(en, "_MEM_CACHE", {})
    with pytest.raises(RepresentationDomainError, match="too large"):
        jacobi_coefficient(builtin("E8"), genus, 1, 4)
