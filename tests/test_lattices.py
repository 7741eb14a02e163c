import random
from fractions import Fraction

import numpy as np
import pytest

from thetalab import enumeration as en
from thetalab import lattices as lat
from thetalab.exactnum import det_exact, integral_gram_schmidt
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
from thetalab.niemeier import BUILTIN_NAMES, NIEMEIER_GLUE, builtin
from thetalab.rootdata import ade_gram, disc_order, root_count

from oracles import fraction_glue_gram, fraction_glue_rows, fraction_simple_roots, word_closure


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


def test_word_group_matches_closure_oracle():
    # The coset closure against the breadth-first one: every spec below, and
    # random generators on random components (repeated and dependent
    # generators included).
    for spec in GLUE_SPECS.values():
        assert spec.word_group() == word_closure(spec)
    rng = random.Random(5)
    kinds = [("A", 1), ("A", 2), ("A", 3), ("A", 5), ("D", 4), ("D", 5), ("D", 6), ("E", 6), ("E", 7)]
    for _ in range(200):
        comps = tuple(rng.choice(kinds) for _ in range(rng.randint(1, 4)))
        words = [tuple(rng.randrange(disc_order(kind, rank)) for kind, rank in comps) for _ in range(rng.randint(0, 4))]
        spec = GlueSpec(comps, tuple(words + words[:1]))
        assert spec.word_group() == word_closure(spec)


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


def test_validate_non_definite_gram():
    # The determinant of a Gram matrix that is not positive definite comes
    # from Bareiss elimination; nothing is enumerated.
    for gram, det in (([[2, 3], [3, 2]], -5), ([[2, 2], [2, 2]], 0)):
        rep = validate(from_gram("x", gram))
        assert (rep.det, rep.positive_definite, rep.min_norm, rep.root_count) == (det, False, None, None)
        assert rep.even and not rep.is_even_unimodular


def _cyc(head, tail):
    """head followed by each cyclic shift of tail."""
    return tuple(head + tail[k:] + tail[:k] for k in range(len(tail)))


# The other 13 Niemeier lattices with roots (Conway-Sloane, SPLAG ch. 16,
# Table 16.1), with the D_n class labels of `rootdata` (1 and 3 spinor, 2
# vector).  They are built through `glue` only, not registered.
NIEMEIER_13 = {
    "D24": GlueSpec((("D", 24),), ((1,),)),
    "D12^2": GlueSpec((("D", 12),) * 2, ((1, 2), (2, 1))),
    "A24": GlueSpec((("A", 24),), ((5,),)),
    "A15D9": GlueSpec((("A", 15), ("D", 9)), ((2, 1),)),
    "A12^2": GlueSpec((("A", 12),) * 2, ((1, 5),)),
    "D8^3": GlueSpec((("D", 8),) * 3, _cyc((), (1, 2, 2))),
    "A8^3": GlueSpec((("A", 8),) * 3, _cyc((), (1, 1, 4))),
    "A7^2D5^2": GlueSpec((("A", 7),) * 2 + (("D", 5),) * 2, ((1, 1, 1, 2), (1, 7, 2, 1))),
    "A6^4": GlueSpec((("A", 6),) * 4, _cyc((1,), (2, 1, 6))),
    "A4^6": GlueSpec((("A", 4),) * 6, _cyc((1,), (0, 1, 4, 4, 1))),
    "A3^8": GlueSpec((("A", 3),) * 8, _cyc((3,), (2, 0, 0, 1, 0, 1, 1))),
    "A2^12": GlueSpec((("A", 2),) * 12, _cyc((2,), (1, 1, 2, 1, 1, 1, 2, 2, 2, 1, 2))),
    "A1^24": GlueSpec((("A", 1),) * 24, _cyc((1,), (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1))),
}

GLUE_SPECS = {**NIEMEIER_GLUE, "D16+": GlueSpec((("D", 16),), ((1,),)), **NIEMEIER_13}


@pytest.mark.parametrize("name", list(GLUE_SPECS))
def test_glue_rows_match_fraction_reference(name):
    # The integer rows are the Fraction rows at one common scale, so the
    # row-reduced basis and the Gram matrix are the same.
    spec = GLUE_SPECS[name]
    words = spec.word_group()
    rows, scale = lat._glue_rows(spec.components, words)
    ref = fraction_glue_rows(spec.components, words)
    assert rows == [[scale * x for x in r] for r in ref]
    built = builtin(name) if name in BUILTIN_NAMES else glue(spec, name)
    assert built.gram == fraction_glue_gram(ref)
    if name == "D16+":
        # The plus construction's own rows: D16 and the all-halves vector.
        assert built.gram == fraction_glue_gram([*fraction_simple_roots("D", 16), (Fraction(1, 2),) * 16])
    rep = validate(built)
    assert rep.is_even_unimodular
    assert rep.root_count == sum(root_count(kind, rank) for kind, rank in spec.components)


def _random_conjugate(seed):
    """A sum of A_n/D_n root lattices of rank <= 8 under a random unimodular basis."""
    rng = random.Random(seed)
    comps = []
    while sum(r for _, r in comps) < 4:
        comps.append(rng.choice([("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4)]))
    n = sum(r for _, r in comps)
    g = [[0] * n for _ in range(n)]
    off = 0
    for kind, rank in comps:
        for i, row in enumerate(ade_gram(kind, rank)):
            g[off + i][off : off + rank] = row
        off += rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        u[i] = [a + rng.choice((-2, -1, 1, 2)) * b for a, b in zip(u[i], u[j])]
    return from_gram(f"conjugate{seed}", [[sum(u[i][a] * g[a][b] * u[j][b] for a in range(n) for b in range(n))
                                          for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("lattice", [*BUILTIN_NAMES, *(f"seed{k}" for k in range(10))])
def test_reduction_keeps_gram_schmidt_data_and_determinant(lattice):
    # The Gram-Schmidt data that LLL leaves in the context are those of the
    # reduced Gram matrix, which every walk reads, and d[n] is the
    # determinant of the Gram matrix that `validate` reports.
    L = builtin(lattice) if lattice in BUILTIN_NAMES else _random_conjugate(int(lattice[4:]))
    ctx = en._context(L)
    assert ctx.gs == integral_gram_schmidt(ctx.gram_red)
    assert validate(L).det == det_exact(L.gram)
