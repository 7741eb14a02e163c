from fractions import Fraction

import numpy as np
import pytest

from thetalab import enumeration as en
from thetalab import lattices as lat
from thetalab.exactnum import det_exact
from thetalab.lattices import (
    EmptyLatticeError,
    GlueSpec,
    LatticeError,
    direct_sum,
    from_gram,
    glue,
    hyp_ratio_ok,
    minimum_norm,
    plus_construction,
    root_lattice,
    root_system,
    stable_eq_hyp_predicate,
    validate,
)
from thetalab.niemeier import BUILTIN_NAMES, builtin


def test_a1_gram():
    assert root_lattice("A", 1).gram == ((2,),)


def test_from_gram_takes_integers_only():
    assert from_gram("x", np.array([[2, 1], [1, 2]])).gram == ((2, 1), (1, 2))
    for bad in (
        [[2.5]],
        [["2"]],
        [[Fraction(5, 2)]],
        [[2, 1], [1]],  # ragged
        [[2, 1]],  # not square
        [[2, 1], [0, 2]],  # not symmetric
    ):
        with pytest.raises(LatticeError):
            from_gram("x", bad)


# SHA-256 prefixes of the built-in Gram matrices; cache logs and report
# `lattice:` lines are keyed by them.
BUILTIN_FINGERPRINTS = {
    "E8": "fb618f6924fe760b1f79d83d61805002",
    "E8+E8": "3d6766ce236dfbacb4638c1008104c30",
    "D16+": "7540c51b0d029ab11e194203aed93ea3",
    "A5^4D4": "e43fdbb423dc3c21545a4bb49b1e803d",
    "D4^6": "359c243c7066c6d5e02c6545c4536a84",
    "A9^2D6": "534e9b2d537da8ec1a28573f7ac9597f",
    "D6^4": "be480224c6a518c167f8c65b80b362f7",
    "E6^4": "3922a4acbe8bd61d6da7c8ffc61eb66c",
    "A11D7E6": "9894245aeb667c7ab246fcd761212b60",
    "A17E7": "7a9b1e8cd3873d389c345003397702f3",
    "D10E7^2": "c8cc8c8a01efe7dd9b75c7c96100eeae",
    "E8D16": "ee366a1aa603a419becc471b1931b87f",
    "E8^3": "a9d8750bb0736bafac4734d40eaa6ffd",
}


def test_builtin_fingerprints_are_pinned():
    assert {name: builtin(name).fingerprint for name in BUILTIN_NAMES} == BUILTIN_FINGERPRINTS


def test_an_determinant_recurrence():
    # Path-graph Gram determinants follow d_n = 2 d_{n-1} - d_{n-2} = n + 1.
    prev2, prev1 = 1, 2
    for n in range(2, 9):
        d = det_exact(root_lattice("A", n).gram)
        assert d == 2 * prev1 - prev2 == n + 1
        prev2, prev1 = prev1, d


def test_e8_unimodular():
    assert det_exact(root_lattice("E", 8).gram) == 1


def test_invalid_symbols():
    for kind, rank in [("A", 0), ("D", 2), ("E", 5), ("E", 9), ("F", 4)]:
        with pytest.raises(ValueError):
            root_lattice(kind, rank)


def test_direct_sum_blocks():
    e8 = root_lattice("E", 8)
    s = direct_sum(e8, e8)
    assert s.rank == 16
    assert det_exact(s.gram) == 1
    assert en.shell_count(s, 2) == 480


def test_direct_sum_zero_identity():
    e8 = root_lattice("E", 8)
    s = direct_sum(e8, lat.ZERO_LATTICE)
    assert s.gram == e8.gram
    s = direct_sum(lat.ZERO_LATTICE, e8)
    assert s.gram == e8.gram


def test_direct_sum_commutative_up_to_permutation():
    a = root_lattice("A", 1)
    b = root_lattice("A", 2)
    g1 = direct_sum(a, b).gram
    g2 = direct_sum(b, a).gram
    perm = [2, 0, 1]  # move the A1 block behind the A2 block
    permuted = tuple(tuple(g2[perm[i]][perm[j]] for j in range(3)) for i in range(3))
    assert g1 == permuted


def test_direct_sum_associative():
    a, b, c = root_lattice("A", 1), root_lattice("A", 2), root_lattice("D", 4)
    left = direct_sum(direct_sum(a, b), c)
    right = direct_sum(a, direct_sum(b, c))
    assert left.gram == right.gram


def test_plus_construction_8_is_e8_like():
    d8p = plus_construction(8)
    rep = validate(d8p)
    assert rep.is_even_unimodular and rep.min_norm == 2 and rep.root_count == 240


def test_plus_construction_16():
    d16p = plus_construction(16)
    rep = validate(d16p)
    assert rep.is_even_unimodular
    assert rep.root_count == 480


def test_plus_construction_parity_obstruction():
    with pytest.raises(LatticeError):
        plus_construction(12)


def test_glue_examples_from_table():
    assert en.shell_count(builtin("E8^3"), 2) == 720
    assert en.shell_count(builtin("D4^6"), 2) == 144
    assert en.shell_count(builtin("A9^2D6"), 2) == 240


def test_glue_rejects_bad_words():
    # D4 with the norm-1 vector class glued in is integral but odd.
    with pytest.raises(LatticeError):
        glue(GlueSpec((("D", 4),), ((2,),)))


def test_glue_word_group_closure():
    spec = GlueSpec((("A", 9), ("A", 9), ("D", 6)), ((2, 4, 0), (5, 0, 1), (0, 5, 3)))
    assert len(spec.word_group()) == 20


def test_validate_flags_non_unimodular():
    rep = validate(from_gram("Z2-scaled", [[2, 0], [0, 2]]))
    assert rep.even and rep.positive_definite
    assert rep.det == 4
    assert not rep.is_even_unimodular


def test_minimum_norm():
    assert minimum_norm(builtin("E8")) == 2
    assert minimum_norm(builtin("D16+")) == 2
    assert minimum_norm(root_lattice("A", 1)) == 2
    assert minimum_norm(from_gram("no-roots", [[4]])) == 4
    with pytest.raises(EmptyLatticeError):
        minimum_norm(lat.ZERO_LATTICE)


def test_root_system_e8():
    rs = root_system(builtin("E8"))
    assert rs.components == (("E8", 1),)
    assert rs.r2 == 240


def test_root_system_d4_6():
    rs = root_system(builtin("D4^6"))
    assert rs.components == (("D4", 6),)
    assert rs.r2 == 144
    assert rs.label == "D4^6"


def test_root_system_empty():
    rs = root_system(from_gram("no-roots", [[4]]))
    assert rs.components == () and rs.r2 == 0


def test_root_system_total_matches_shell_count():
    for name in ("E8", "D16+", "A5^4D4"):
        L = builtin(name)
        assert root_system(L).r2 == en.shell_count(L, 2)


def test_stable_eq_hyp_predicate():
    assert stable_eq_hyp_predicate(builtin("E8+E8"), builtin("D16+"))
    d16e8 = direct_sum(builtin("D16+"), builtin("E8"))
    assert not stable_eq_hyp_predicate(builtin("E8^3"), d16e8)
    assert not stable_eq_hyp_predicate(builtin("E8"), builtin("D16+"))  # rank mismatch


def test_hyp_ratio_arithmetic():
    # Admissible (rank, minimum) pairs: ratio rank/mu <= 8.
    assert hyp_ratio_ok(8, 2)
    assert hyp_ratio_ok(16, 2)
    assert hyp_ratio_ok(24, 4)
    assert hyp_ratio_ok(32, 4)
    assert hyp_ratio_ok(48, 6)
    assert not hyp_ratio_ok(24, 2)


def test_constructions_validate():
    for name in ("E8", "E8+E8", "D16+", "D6^4"):
        assert validate(builtin(name)).is_even_unimodular
