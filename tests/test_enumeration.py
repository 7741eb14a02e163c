import hashlib
import itertools
import multiprocessing
import os
import pathlib
import random
import shutil
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetalab import enumeration as en
from thetalab import jacobi, weyl
from thetalab.enumeration import (
    GramTarget,
    RepresentationDomainError,
    candidate_targets,
    representation_count,
    representation_profile,
    shell_count,
    shell_counts_upto,
)
from thetalab.exactnum import NotPositiveDefiniteError, det_exact, integral_gram_schmidt, rank_int
from thetalab.fincke_pohst import lll_gram, shells_upto
from thetalab.jacobi import jacobi_coefficient
from thetalab.lattices import direct_sum, from_gram, glue, root_lattice, root_system
from thetalab.niemeier import BUILTIN_NAMES, builtin
from thetalab.rootdata import ade_gram
from thetalab.theta import k_identity_check, theta_truncated


from oracles import (
    dominant_filter,
    e8_ambient_counts,
    five_mask_root_record,
    index_classes_by_product,
    ldl_box_counts,
    ldl_box_vectors,
    pairwise_dots,
    root_indices,
    root_tuple_count,
    shell_pair_histogram,
    shells_in_basis,
    signed_permutation_max,
    signed_permutation_orbits,
    span_rank_types,
    tuple_gram_counts,
    whole_shell,
    whole_shell_root_record,
)
from test_lattices import NIEMEIER_13


@pytest.mark.parametrize(
    "kind,rank,bound",
    [("A", 1, 8), ("A", 2, 8), ("D", 4, 8)],
)
def test_shells_match_ldl_box_oracle(kind, rank, bound):
    lat = root_lattice(kind, rank)
    gram = [list(r) for r in lat.gram]
    expect = ldl_box_counts(gram, bound)
    got = {q: c for q, c in shell_counts_upto(lat, bound).items() if q > 0}
    assert got == expect


def test_e8_shells_match_ambient_oracle_to_norm_8():
    lat = builtin("E8")
    expect = e8_ambient_counts(8)
    got = {q: c for q, c in shell_counts_upto(lat, 8).items() if q > 0}
    assert got == expect
    assert got[2] == 240 and got[4] == 2160


def test_known_small_shells():
    assert shell_count(root_lattice("A", 1), 2) == 2
    assert shell_count(builtin("E8"), 0) == 1
    assert shell_count(builtin("D16+"), 2) == 480


def test_shell_vectors_structure():
    e8 = builtin("E8")
    table = shells_in_basis(e8, 4)
    assert set(table) == {2, 4}
    for q, vecs in table.items():
        assert len(vecs) == shell_count(e8, q)
        seen = set(vecs)
        assert len(seen) == len(vecs)  # duplicate-free
        for v in vecs:
            assert tuple(-x for x in v) in seen  # v and -v together
        assert all(int(d) == q for d in pairwise_dots(e8, vecs).diagonal())


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["A2", "D4"]), st.permutations(range(4)))
def test_shell_counts_invariant_under_basis_change(name, perm):
    kind, rank = name[0], int(name[1])
    lat = root_lattice(kind, rank)
    g = [list(r) for r in lat.gram]
    n = len(g)
    # Unimodular change of basis: permutation plus one shear.
    p = [i % n for i in perm[:n]]
    if sorted(p) != list(range(n)):
        p = list(range(n))
    u = [[1 if j == p[i] else 0 for j in range(n)] for i in range(n)]
    u[0] = [a + b for a, b in zip(u[0], u[-1])] if n > 1 else u[0]
    g2 = [[sum(u[i][a] * g[a][b] * u[j][b] for a in range(n) for b in range(n)) for j in range(n)] for i in range(n)]
    lat2 = from_gram("changed", g2)
    assert shell_counts_upto(lat2, 6) == shell_counts_upto(lat, 6)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_lll_gram_is_reduced_change_of_basis(a):
    n = len(a)
    g = [[sum(a[i][t] * a[j][t] for t in range(n)) + (i == j) for j in range(n)] for i in range(n)]
    red, u, d, lam = lll_gram(g)
    assert red == [[sum(u[i][s] * g[s][t] * u[j][t] for s in range(n) for t in range(n))
                    for j in range(n)] for i in range(n)]
    assert abs(det_exact(u)) == 1
    # The Gram-Schmidt data of red, kept up to date by the reduction:
    # bstar[k] = d[k+1]/d[k], mu[i][j] = lam[i][j]/d[j+1].
    assert (d, lam) == integral_gram_schmidt(red)
    bstar = [Fraction(d[k + 1], d[k]) for k in range(n)]
    mu = [[Fraction(lam[i][j], d[j + 1]) for j in range(n)] for i in range(n)]
    assert all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
    assert all(bstar[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1] for k in range(1, n))


def test_lll_gram_rejects_indefinite_gram():
    with pytest.raises(NotPositiveDefiniteError):
        lll_gram([[2, 3], [3, 2]])
    with pytest.raises(NotPositiveDefiniteError):
        lll_gram([[2, 2], [2, 2]])


def test_representation_zero_matrix():
    e8 = builtin("E8")
    for g in range(4):
        assert representation_count(e8, GramTarget.zero(g)) == 1


def test_representation_count_e8_values():
    e8 = builtin("E8")
    assert representation_count(e8, [[2]]) == 240
    assert representation_count(e8, [[2, 1], [1, 2]]) == 13440


def test_pair_count_brute_force_oracle():
    e8 = builtin("E8")
    roots = shells_in_basis(e8, 2)[2]
    dots = pairwise_dots(e8, roots)
    for b in (-2, -1, 0, 1, 2):
        expect = int((dots == b).sum())
        got = representation_count(e8, [[2, b], [b, 2]])
        assert got == expect
    assert representation_count(e8, [[2, 1], [1, 2]]) == 13440


def test_triple_count_brute_force_oracle_on_a2():
    a2 = root_lattice("A", 2)
    vecs = shells_in_basis(a2, 2)[2]
    dots = pairwise_dots(a2, vecs)
    t = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    expect = 0
    n = len(vecs)
    for i in range(n):
        for j in range(n):
            if dots[i][j] != -1:
                continue
            for k in range(n):
                if dots[i][k] == -1 and dots[j][k] == -1:
                    expect += 1
    # 6 choices of x1, 2 partners at angle 120, and x3 = -x1-x2 forced.
    assert representation_count(a2, t) == expect == 12


def test_sign_symmetry():
    e8 = builtin("E8")
    assert representation_count(e8, [[2, 1], [1, 2]]) == representation_count(e8, [[2, -1], [-1, 2]])
    t1 = [[2, 1, 0], [1, 2, -1], [0, -1, 2]]
    t2 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]  # negate slot 1
    assert representation_count(e8, t1) == representation_count(e8, t2)


def test_permutation_symmetry():
    e8 = builtin("E8")
    t = [[2, 1, 0], [1, 2, -1], [0, -1, 4]]
    base = representation_count(e8, t)
    for perm in itertools.permutations(range(3)):
        tp = [[t[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        assert representation_count(e8, tp) == base
    # Every permutation has the same class representative; the counter itself
    # still sees the permuted index (as the Jacobi tables do).
    assert en._count_general(e8, GramTarget.from_rows(t)) == base
    d5 = root_lattice("D", 5)
    d5_base = representation_count(d5, t)
    for perm in itertools.permutations(range(3)):
        tp = [[t[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
        assert en._count_general(d5, GramTarget.from_rows(tp)) == d5_base == 1920


def test_proportional_slot_collapse():
    e8 = builtin("E8")
    assert representation_count(e8, [[2, 2], [2, 2]]) == 240  # pairs (x, x)
    assert representation_count(e8, [[2, -2], [-2, 2]]) == 240  # pairs (x, -x)
    assert representation_count(e8, [[2, 4], [4, 8]]) == 240  # pairs (x, 2x)
    assert representation_count(e8, [[8, 4], [4, 2]]) == 240  # pairs (2x, x)
    # The counter on the unreduced indices, and the histograms it keeps.
    ctx = en._context(e8)
    for rows in ([[2, 2], [2, 2]], [[2, -2], [-2, 2]], [[2, 4], [4, 8]], [[8, 4], [4, 2]]):
        assert en._count_general(e8, GramTarget.from_rows(rows)) == 240
    assert ctx._hists[(2, 2)][2] == ctx._hists[(2, 2)][-2] == 240
    assert ctx._hists[(2, 8)][4] == 240


def test_direct_sum_shell_convolution():
    a1 = root_lattice("A", 1)
    s = direct_sum(a1, a1)
    for norm in (2, 4, 6, 8):
        expect = sum(
            shell_count(a1, a) * shell_count(a1, norm - a) for a in range(0, norm + 1, 2)
        )
        assert shell_count(s, norm) == expect


def test_profile_genus0():
    prof = representation_profile(builtin("E8"), 0, 4)
    assert len(prof) == 1 and list(prof.values()) == [1]


def test_profile_e8_g1():
    prof = representation_profile(builtin("E8"), 1, 4)
    flat = {t.key(): c for t, c in prof.items()}
    assert flat == {"1|0": 1, "1|2": 240, "1|4": 2160}


def test_profile_e8_g2_contains_both_signs():
    prof = representation_profile(builtin("E8"), 2, 4)
    flat = {t.key(): c for t, c in prof.items()}
    assert flat["2|2 1 2"] == 13440
    assert flat["2|2 -1 2"] == 13440


def test_parallel_determinism():
    # `jobs` is accepted and has no effect; both runs must equal the
    # whole-shell histogram of E8's norm-6 and norm-8 shells.  The counter
    # takes the slots in reverse, so the histogram is kept under (8, 6).
    e8 = builtin("E8")
    ctx = en._context(e8)
    t = GramTarget.from_rows([[6, 3], [3, 8]])
    assert en.class_representative(t) == t
    hists, counts = [], []
    for jobs in (1, 2):
        ctx._hists.pop((8, 6), None)
        en._MEM_CACHE.pop((e8.fingerprint, t.key()), None)
        counts.append(representation_count(e8, t, jobs=jobs))
        hists.append(ctx._hists[(8, 6)])
    want = shell_pair_histogram(ctx._gram_red_np, whole_shell(ctx.shell_array(6)), whole_shell(ctx.shell_array(8)))
    assert hists[0] == hists[1] == want
    assert counts[0] == counts[1] == hists[0][3] > 0


def _fresh_process_view():
    """Forget every cached count and every log read, as a new process would."""
    en._MEM_CACHE.clear()
    en._DISK_LOGS.clear()


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    e8 = builtin("E8")
    t = [[2, 1], [1, 2]]
    _fresh_process_view()  # earlier tests may hold this count in memory
    v1 = representation_count(e8, t)
    logs = sorted(tmp_path.rglob("*"))
    assert logs == [tmp_path / "v3", tmp_path / "v3" / f"{e8.fingerprint[:24]}.log"]
    _fresh_process_view()
    before = en.cache_stats()
    v2 = representation_count(e8, t)
    assert v1 == v2 == 13440
    assert en.cache_stats()["disk_hits"] - before["disk_hits"] == 1
    # cache is safe to delete
    logs[1].unlink()
    _fresh_process_view()
    assert representation_count(e8, t) == 13440


def test_cold_genus1_count_is_one_lookup(tmp_path, monkeypatch):
    # A genus-1 count reads the shell counts directly, so a cold one looks
    # its key up once; with a cache directory it is written once.
    e8 = builtin("E8")
    for writes in (0, 1):
        if writes:
            monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
        _fresh_process_view()
        deltas = []
        for _ in range(2):
            before = en.cache_stats()
            assert representation_count(e8, [[4]]) == 2160
            after = en.cache_stats()
            deltas.append({k: after[k] - before[k] for k in after if after[k] != before[k]})
        assert deltas == [{"misses": 1, **({"writes": 1} if writes else {})}, {"memory_hits": 1}]


def _table_items(table):
    """(T, its class representative) for every target, in order."""
    return [(t, table.classes[p]) for t, p in zip(table.targets, table.position)]


def _demand(t):
    """(second largest, largest) diagonal entry; 0 for a missing one."""
    diag = sorted(t.entries[i][i] for i in range(t.genus))
    return ([0, 0] + diag)[-2:]


def _check_class_list(table):
    # Each class is listed once, in decreasing order of the largest shell it
    # stores (its second largest diagonal entry: the orbit slot takes the
    # largest) and then of its largest diagonal entry, with ties in order of
    # first appearance, and every position resolves to the target's own
    # representative.  Every class is its own representative, which
    # `class_counts` relies on when it looks the classes up by their keys.
    assert len(set(table.classes)) == len(table.classes)
    first = list(dict.fromkeys(table.position))
    order = sorted(first, key=lambda p: [-x for x in _demand(table.classes[p])])
    assert order == list(range(len(table.classes)))
    assert all(table.classes[p] == en.class_representative(t) for t, p in zip(table.targets, table.position))
    assert all(en.class_representative(c) == c for c in table.classes)


@pytest.mark.parametrize("genus", [0, 1, 2, 3, 4, 5])
def test_index_table_matches_product_oracle(genus):
    # Keys, their order and every representative, at each bound up to 8 (at
    # genus 5 at bound 8 only, where every index has a zero row, so the whole
    # table comes from the genus-4 one); a negative bound gives no index,
    # genus 0 the empty matrix.
    for bound in [8] if genus == 5 else range(-2, 9):
        expect = index_classes_by_product(genus, bound)
        table = en.index_classes(genus, bound)
        assert _table_items(table) == list(expect.items()), bound
        _check_class_list(table)
        assert candidate_targets(genus, bound) == list(expect)
    assert candidate_targets(0, 4) == [GramTarget.zero(0)]
    assert candidate_targets(0, -1) == [] == candidate_targets(2, -2)


def test_index_table_sizes():
    # (indices, signed-permutation orbits, classes); every orbit has one
    # representative, and (4, 8) equals the product oracle too.
    sizes = {}
    for genus, bound in ((2, 8), (3, 6), (3, 8), (4, 8)):
        table = en.index_classes(genus, bound)
        reps = dict(_table_items(table))
        orbits = signed_permutation_orbits(table.targets)
        assert all(len({reps[t] for t in orbit}) == 1 for orbit in orbits)
        sizes[genus, bound] = (len(table.targets), len(orbits), len(set(reps.values())))
        _check_class_list(table)
    assert sizes == {(2, 8): (47, 20, 14), (3, 6): (104, 18, 13), (3, 8): (395, 44, 26), (4, 8): (2262, 70, 40)}
    assert _table_items(en.index_classes(4, 8)) == list(index_classes_by_product(4, 8).items())


def test_pruned_normal_form_matches_exhaustive_oracle():
    # The search tries only the permutations that can maximise row 0 of the
    # off-diagonal entries; on seeded random symmetric matrices of genus <= 5
    # and on a signed permutation of each it gives the exhaustive search's
    # normal form (an orbit invariant, so both give the same).
    pruned = en._signed_permutation_max.__wrapped__
    rng = random.Random(24)
    for _ in range(10_000):
        g = rng.randint(1, 5)
        rows = [[0] * g for _ in range(g)]
        for i in range(g):
            rows[i][i] = rng.choice((0, 2, 4, 6, 8))
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        p, s = rng.sample(range(g), g), [rng.choice((1, -1)) for _ in range(g)]
        image = tuple(tuple(s[a] * s[b] * rows[p[a]][p[b]] for b in range(g)) for a in range(g))
        expect = signed_permutation_max(tuple(map(tuple, rows)))
        assert pruned(tuple(map(tuple, rows))) == expect == pruned(image)


def test_fresh_table_reduces_once_per_orbit(monkeypatch):
    # On a built (2, 8) table, a fresh (3, 8) table takes its indices with a
    # zero row from it and reduces one index per signed-permutation orbit of
    # the others, each met first in its normal form.
    lower = en.index_classes(2, 8)
    calls = Counter()
    reduce = en._reduce
    monkeypatch.setattr(en, "_reduce", lambda rows: calls.update(["_reduce"]) or reduce(rows))
    table = en.index_classes.__wrapped__(3, 8)
    monkeypatch.undo()
    assert table == en.index_classes(3, 8) and en.index_classes(2, 8) is lower
    full = [t for t in table.targets if all(t.entries[i][i] for i in range(3))]
    assert calls["_reduce"] == len(signed_permutation_orbits(full))


def test_general_counts_agree_in_both_slot_orders(monkeypatch):
    # From genus 3 on the counter walks a class's slots in reverse, so the
    # orbit slot gets the largest shell.  The reversed index is walked in the
    # class's own order, and r_L(P T P^T) = r_L(T): both orders give the
    # same numbers, on every class of (4, 8) with unequal diagonal entries.
    monkeypatch.setattr(en, "_CONTEXTS", {})
    e8 = builtin("E8")
    classes = [c for c in en.index_classes(4, 8).classes
               if c.genus >= 3 and len({c.entries[i][i] for i in range(c.genus)}) > 1]
    assert {tuple(row[i] for i, row in enumerate(c.entries)) for c in classes} == {(2, 2, 4)}
    walked = set()
    for c in classes:
        flipped = GramTarget(tuple(row[::-1] for row in c.entries[::-1]))
        assert en._count_general(e8, c) == en._count_general(e8, flipped) == representation_count(e8, c), c.key()
        walked |= {t.upper()[:4] + t.upper()[5:] for t in (c, flipped)}
    # Each class left one histogram per walked order, keyed by the walked
    # index without its entry T[1][2].
    assert walked <= set(en._context(e8)._hists)


def test_warm_profile_reduces_nothing(tmp_path, monkeypatch):
    # A warm profile on built tables looks each class up by its key: nothing
    # is reduced again, the lattice's log is read once, and every class is
    # found there once (a class that the genus-1 table holds is a memory hit
    # in the genus-2 and genus-3 ones).
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    lat = root_lattice("D", 4)
    genus_bounds = [(1, 8), (2, 8), (3, 8)]
    _fresh_process_view()
    cold = [representation_profile(lat, g, b) for g, b in genus_bounds]
    _fresh_process_view()
    calls = Counter()
    for name in ("_reduce", "class_representative", "_read_log"):
        fn = getattr(en, name)
        monkeypatch.setattr(en, name, lambda *args, _fn=fn, _name=name: calls.update([_name]) or _fn(*args))
    before = en.cache_stats()
    assert [representation_profile(lat, g, b) for g, b in genus_bounds] == cold
    assert calls == {"_read_log": 1}
    classes = [c for g, b in genus_bounds for c in en.index_classes(g, b).classes]
    assert _stat_deltas(before) == {"memory_hits": len(classes) - len(set(classes)), "disk_hits": len(set(classes)),
                                    "misses": 0, "writes": 0, "corrupt": 0}


def test_candidate_targets_g1():
    keys = [t.key() for t in candidate_targets(1, 4)]
    assert keys == ["1|0", "1|2", "1|4"]


def test_candidate_targets_psd_filter():
    keys = {t.upper() for t in candidate_targets(2, 4)}
    assert (2, 2, 2) in keys  # det 0 allowed
    assert (0, 1, 0) not in keys  # indefinite
    assert (2, 2, 0) not in keys  # negative minor


def test_gram_target_round_trip():
    t = GramTarget.from_rows([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    assert t.trace == 8 and t.genus == 4


def test_domain_errors():
    e8 = builtin("E8")
    with pytest.raises(RepresentationDomainError):
        representation_count(e8, [[1]])  # odd diagonal
    with pytest.raises(RepresentationDomainError):
        representation_count(e8, [[2, 3], [3, 2]])  # not PSD
    with pytest.raises(RepresentationDomainError):
        representation_count(e8, [[2, 1], [0, 2]])  # not symmetric


def test_ragged_index_is_not_square():
    # Every row's length is checked before any entry is read across rows.
    for rows in ([[2, 0], []], [[2], [0, 2]], [[2, 0, 0], [0, 2], [0, 0, 2]]):
        with pytest.raises(RepresentationDomainError, match="not square"):
            GramTarget.from_rows(rows).check_valid()
        with pytest.raises(RepresentationDomainError, match="not square"):
            representation_count(builtin("E8"), rows)


def test_index_entries_are_integers_only():
    e8 = builtin("E8")
    assert representation_count(e8, np.array([[2]])) == 240
    assert GramTarget.from_upper(2, [2, np.int32(1), 2]) == GramTarget.from_rows([[2, 1], [1, 2]])
    for bad in ([[2.9]], [["2"]], [[Fraction(5, 2)]]):
        with pytest.raises(RepresentationDomainError):
            representation_count(e8, bad)
    for genus, upper in ((2, [2, 1]), (1, [2, 5, 7])):  # short, long
        with pytest.raises(RepresentationDomainError):
            GramTarget.from_upper(genus, upper)


@pytest.mark.parametrize(
    "entry",
    [
        b"1|4 = 21",  # a torn tail: cut short before the check and the newline
        b"\x00" * 20 + b"\n",  # space allocated but never written (a crash can leave zeros)
        b"\x00\x17 garbage\n",
        b"1|4 = 21 00000000\n",  # well formed, wrong check
    ],
    ids=["truncated", "zeroed", "garbage", "bad-check"],
)
def test_cache_rejects_and_replaces_bad_entry(tmp_path, monkeypatch, entry):
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    e8 = builtin("E8")
    _fresh_process_view()
    path = pathlib.Path(en._disk_path(e8.fingerprint))
    path.parent.mkdir(parents=True)
    path.write_bytes(entry)
    before = en.cache_stats()
    assert shell_count(e8, 4) == 2160
    after = en.cache_stats()
    assert after["corrupt"] - before["corrupt"] == 1
    assert after["writes"] - before["writes"] == 1
    # A good entry was appended after the bad one, and a fresh read accepts it.
    _fresh_process_view()
    assert shell_count(e8, 4) == 2160
    assert en.cache_stats()["disk_hits"] - after["disk_hits"] == 1
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_cache_ignores_unversioned_entries(tmp_path, monkeypatch):
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    e8 = builtin("E8")
    _fresh_process_view()
    name = hashlib.sha1(b"1|4").hexdigest()[:24] + ".txt"
    # Earlier formats kept one file per entry: unchecked in the lattice's
    # directory, then checked under v2/.  Each holds a wrong value here.
    old = {
        tmp_path / e8.fingerprint[:24] / name: "1|4 = 21\n",
        tmp_path / "v2" / e8.fingerprint[:24] / name: en._entry_line("1|4", 21),
    }
    for path, text in old.items():
        path.parent.mkdir(parents=True)
        path.write_text(text)
    assert shell_count(e8, 4) == 2160
    assert all(path.read_text() == text for path, text in old.items())


def test_cache_torn_tail_does_not_swallow_next_entry(tmp_path, monkeypatch):
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    _fresh_process_view()
    en._cache_put("torn-tail", "1|2", 240)
    path = pathlib.Path(en._disk_path("torn-tail"))
    with path.open("ab") as fh:
        fh.write(b"\n1|4 = 2160 0")  # a record cut short
    en._cache_put("torn-tail", "1|6", 6720)
    _fresh_process_view()
    before = en.cache_stats()
    assert [en._cache_get("torn-tail", k) for k in ("1|2", "1|4", "1|6")] == [240, None, 6720]
    assert en.cache_stats()["corrupt"] - before["corrupt"] == 1


def _append_entries(fp, indices):
    # Batches of 1 to 8 records, each batch one write.
    indices = list(indices)
    start = 0
    for size in itertools.cycle(range(1, 9)):
        if start >= len(indices):
            return
        with en._append_batch():
            for i in indices[start : start + size]:
                en._cache_put(fp, f"1|{2 * i}", 7**i)
        start += size


def test_cache_concurrent_appends_land_whole(tmp_path, monkeypatch):
    # Two processes append to one log at once, with overlapping keys, lines
    # of 10 to 440 bytes and batches of one to eight records; every line
    # must land whole.
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    _fresh_process_view()
    fork = multiprocessing.get_context("fork")
    procs = [fork.Process(target=_append_entries, args=("appends", range(200 * w, 200 * w + 300))) for w in range(2)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in procs] == [0, 0]
    before = en.cache_stats()
    assert all(en._cache_get("appends", f"1|{2 * i}") == 7**i for i in range(500))
    after = en.cache_stats()
    assert after["disk_hits"] - before["disk_hits"] == 500
    assert after["corrupt"] == before["corrupt"]


def _log_keys(path):
    return [line.partition(" = ")[0] for line in path.read_text().split("\n") if line]


def _stat_deltas(before):
    after = en.cache_stats()
    return {k: after[k] - before[k] for k in after}


def test_class_counts_append_one_batch_per_call(tmp_path, monkeypatch):
    # A cold profile writes every class it counted to the lattice's log in one
    # write, in the table's order; warm calls write nothing.
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    e8 = builtin("E8")
    table = en.index_classes(2, 6)
    _fresh_process_view()
    writes = []
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: writes.append(data) or write(fd, data))
    counts = en.class_counts(e8, table)
    path = pathlib.Path(en._disk_path(e8.fingerprint))
    assert writes == [path.read_bytes()]
    assert _log_keys(path) == [c.key() for c in table.classes]
    assert en.class_counts(e8, table) == counts
    _fresh_process_view()
    before = en.cache_stats()
    assert en.class_counts(e8, table) == counts
    assert _stat_deltas(before) == {
        "memory_hits": 0, "disk_hits": len(table.classes), "misses": 0, "writes": 0, "corrupt": 0}
    assert len(writes) == 1


def test_k_identity_appends_one_batch_per_log(tmp_path, monkeypatch):
    # A cold k-identity check counts on five lattices (the pair, E8, E8+E8
    # and D16+) and writes each lattice's new counts to its log in one write.
    # Building the pair validates it, which counts its roots: that goes to
    # another cache directory.
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path / "build"))
    left, right = builtin("A17E7"), builtin("D10E7^2")
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path / "check"))
    _fresh_process_view()
    writes = []
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: writes.append(data) or write(fd, data))
    report = k_identity_check(left, right)
    logs = [p for p in (tmp_path / "check").rglob("*") if p.is_file()]
    assert len(logs) == 5
    assert sorted(writes) == sorted(p.read_bytes() for p in logs)
    assert k_identity_check(left, right) == report
    assert len(writes) == 5


def test_cache_torn_batch_loses_only_its_last_record(tmp_path, monkeypatch):
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    e8 = builtin("E8")
    table = en.index_classes(2, 6)
    _fresh_process_view()
    counts = en.class_counts(e8, table)
    path = pathlib.Path(en._disk_path(e8.fingerprint))
    torn = path.read_bytes()[:-5]  # cut inside the batch's last record
    path.write_bytes(torn)
    _fresh_process_view()
    before = en.cache_stats()
    assert en.class_counts(e8, table) == counts
    n = len(table.classes)
    assert _stat_deltas(before) == {"memory_hits": 0, "disk_hits": n - 1, "misses": 1, "writes": 1, "corrupt": 1}
    last = table.classes[-1]
    assert path.read_bytes() == torn + b"\n" + en._entry_line(last.key(), en._MEM_CACHE[e8.fingerprint, last.key()]).encode()


def test_interrupted_batch_keeps_its_finished_counts(tmp_path, monkeypatch):
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    e8 = builtin("E8")
    table = en.index_classes(2, 6)
    _fresh_process_view()
    calls = []
    rep_count = en._rep_count

    def failing(lat, t, reach):
        calls.append(t)
        if len(calls) == 3:
            raise RuntimeError("interrupted")
        return rep_count(lat, t, reach)

    monkeypatch.setattr(en, "_rep_count", failing)
    with pytest.raises(RuntimeError, match="interrupted"):
        en.class_counts(e8, table)
    assert en._BATCH is None
    path = pathlib.Path(en._disk_path(e8.fingerprint))
    assert _log_keys(path) == [c.key() for c in table.classes[:2]]
    monkeypatch.setattr(en, "_rep_count", rep_count)
    _fresh_process_view()
    before = en.cache_stats()
    en.class_counts(e8, table)
    n = len(table.classes)
    assert _stat_deltas(before) == {"memory_hits": 0, "disk_hits": 2, "misses": n - 2, "writes": n - 2, "corrupt": 0}


def test_cache_recomputes_conflicting_entries(tmp_path, monkeypatch):
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    e8 = builtin("E8")
    _fresh_process_view()
    path = pathlib.Path(en._disk_path(e8.fingerprint))
    path.parent.mkdir(parents=True)
    # Two lines that each pass their check, with different values.
    path.write_text(en._entry_line("1|4", 2160) + en._entry_line("1|4", 21))
    for _ in range(2):  # the appended entry does not settle it: a fresh read recomputes again
        _fresh_process_view()
        before = en.cache_stats()
        assert shell_count(e8, 4) == 2160
        after = en.cache_stats()
        assert {k: after[k] - before[k] for k in after} == {
            "memory_hits": 0, "disk_hits": 0, "misses": 1, "writes": 1, "corrupt": 1}


def test_cache_survives_log_deleted_mid_run(tmp_path, monkeypatch):
    monkeypatch.setenv(en.CACHE_ENV, str(tmp_path))
    e8 = builtin("E8")
    _fresh_process_view()
    assert shell_count(e8, 2) == 240
    path = pathlib.Path(en._disk_path(e8.fingerprint))
    shutil.rmtree(path.parent)
    en._MEM_CACHE.clear()
    assert shell_count(e8, 2) == 240  # the log as this process read and wrote it
    assert shell_count(e8, 4) == 2160  # appended to a new log
    _fresh_process_view()
    before = en.cache_stats()
    assert shell_count(e8, 4) == 2160 and shell_count(e8, 2) == 240
    after = en.cache_stats()
    assert (after["disk_hits"] - before["disk_hits"], after["misses"] - before["misses"]) == (1, 1)


# ADE sums of rank <= 5; block-diagonal Gram matrices of these are the oracle's input.
SMALL_ADE = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]
# ("R", 2): the rank-2 even lattice [[4, 1], [1, 4]], which has no roots.
ROOTLESS = ("R", 2)


def _block_gram(kind, rank):
    return [[4, 1], [1, 4]] if (kind, rank) == ROOTLESS else ade_gram(kind, rank)


@st.composite
def ade_sums(draw, kinds=tuple(SMALL_ADE), max_rank=5, max_parts=3):
    """(components, block-diagonal Gram, the same lattice under a random
    unimodular basis)."""
    comps = draw(
        st.lists(st.sampled_from(kinds), min_size=1, max_size=max_parts).filter(
            lambda c: sum(r for _, r in c) <= max_rank
        )
    )
    n = sum(r for _, r in comps)
    g = [[0] * n for _ in range(n)]
    off = 0
    for kind, rank in comps:
        for i, row in enumerate(_block_gram(kind, rank)):
            g[off + i][off : off + rank] = row
        off += rank
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    u = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 2 * n))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            m = draw(st.sampled_from((-2, -1, 1, 2)))
            u[i] = [a + m * b for a, b in zip(u[i], u[j])]
    changed = [[sum(u[i][a] * g[a][b] * u[j][b] for a in range(n) for b in range(n)) for j in range(n)] for i in range(n)]
    return comps, g, changed


def small_ade_lattices(kinds=tuple(SMALL_ADE), max_rank=5, max_parts=3):
    """(block-diagonal Gram, the same lattice under a random unimodular basis)."""
    return ade_sums(kinds, max_rank, max_parts).map(lambda drawn: drawn[1:])


def _oracle_shells(gram, bound):
    """Oracle vectors of every even norm 0..bound (norm 0: the zero vector), as int64 arrays."""
    n = len(gram)
    vecs = ldl_box_vectors(gram, bound)
    vecs[0] = [(0,) * n]
    return {
        q: np.array(vecs.get(q, []), dtype=np.int64).reshape(-1, n) for q in range(0, bound + 1, 2)
    }


def _brute_count(shells, gm, rows):
    """Ordered tuples of oracle vectors with Gram matrix T (genus <= 3)."""
    g = len(rows)
    if g == 0:
        return 1
    if g == 1:
        return len(shells[rows[0][0]])
    eq = {
        (i, j): (shells[rows[i][i]] @ gm @ shells[rows[j][j]].T == rows[i][j]).astype(np.int64)
        for i, j in itertools.combinations(range(g), 2)
    }
    if g == 2:
        return int(eq[0, 1].sum())
    return int(np.einsum("xy,xz,yz->", eq[0, 1], eq[0, 2], eq[1, 2]))


@settings(max_examples=15, deadline=None)
@given(small_ade_lattices(kinds=(*SMALL_ADE, ROOTLESS)))
@example(([[4, 1], [1, 4]], [[4, 1], [1, 4]]))
@example(([[4, 1, 0], [1, 4, 0], [0, 0, 2]], [[4, 5, 1], [5, 10, 5], [1, 5, 6]]))
def test_walker_matches_brute_force_on_random_bases(pair):
    # The counter counts from one vector per orbit of the Weyl group; the
    # lattices may have a rootless summand, or no roots at all (W = 1).
    block, changed = pair
    lat = from_gram("changed", changed)
    gm = np.array(block, dtype=np.int64)
    shells = _oracle_shells(block, 6)

    def dots(a, b):
        return shells[a] @ gm @ shells[b].T

    # Genus 2, every nonzero diagonal but (2, 2): the counter on the index
    # as given and the count of its class.
    for t in candidate_targets(2, 8):
        (a, b), (_, c) = t.entries
        if a == 0 or c == 0 or (a, c) == (2, 2):
            continue
        expect = _brute_count(shells, gm, t.entries)
        assert en._count_general(lat, t) == expect, t.key()
        assert representation_count(lat, t) == expect, t.key()

    # Genus 3, mixed diagonals: brute force over the shells, against the
    # counter on the index as given and against the count of its class.
    for t in candidate_targets(3, 8):
        d = [t.entries[i][i] for i in range(3)]
        if 0 in d or len(set(d)) == 1:
            continue
        expect = _brute_count(shells, gm, t.entries)
        assert en._count_general(lat, t) == expect, t.key()
        assert representation_count(lat, t) == expect, t.key()

    # Genus-2 first Fourier-Jacobi coefficient: every (x1, x2, y) with Q(y) = 2.
    expect = {}
    for s in candidate_targets(2, 6):
        a, b, c = s.entries[0][0], s.entries[0][1], s.entries[1][1]
        i1, i2 = np.nonzero(dots(a, c) == b)
        l1, l2 = dots(a, 2)[i1], dots(c, 2)[i2]
        for ell, n in Counter(zip(l1.ravel().tolist(), l2.ravel().tolist())).items():
            expect[(s.entries, ell)] = n
    jac = jacobi_coefficient(lat, 2, 1, 6)
    assert {(s.entries, ell): n for (s, ell), n in jac.entries.items()} == expect


@settings(max_examples=8, deadline=None)
@given(small_ade_lattices(kinds=(*SMALL_ADE, ROOTLESS)))
@example(([[4, 1, 0], [1, 4, 0], [0, 0, 2]], [[4, 5, 1], [5, 10, 5], [1, 5, 6]]))
def test_counter_matches_brute_force_at_genus4(pair):
    # Genus 4 is the one case of trace <= 10 with a middle slot walked
    # before the last two slots' histogram: the diagonal (2, 2, 2, 4).
    block, changed = pair
    lat = from_gram("changed", changed)
    brute = tuple_gram_counts(block, _oracle_shells(block, 4), (2, 2, 2, 4))
    # Every representable index as given, and every other value of its last
    # off-diagonal entry T_23 (upper()[8]), which the same histogram answers.
    for upper in {u[:8] + (b,) + u[9:] for u in brute for b in range(-2, 3)}:
        t = GramTarget.from_upper(4, upper)
        assert en._count_general(lat, t) == brute.get(upper, 0), t.key()
    # The count of each class, and the norm-4 slot moved to slot 0, 1 or 2.
    for upper, expect in brute.items():
        t = GramTarget.from_upper(4, upper)
        assert representation_count(lat, t) == expect, t.key()
        for p in ((3, 0, 1, 2), (0, 3, 1, 2), (0, 1, 3, 2)):
            moved = GramTarget.from_rows([[t.entries[i][j] for j in p] for i in p])
            assert en._count_general(lat, moved) == expect, moved.key()


# Orbits of the Weyl group of the roots on the shells of norm 2, 4 and 6.
PINNED_ORBITS = {
    "E8+E8": (2, 3, 4),
    "D16+": (1, 3, 3),
    "E8^3": (3, 6),
    "A17E7": (2, 7),
    "A5^4D4": (5, 63),
    "D4^6": (6, 78),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_orbit_histograms_match_whole_shell_oracle_on_builtins(name):
    # Genus-2 counts from one vector per Weyl-group orbit against the
    # histogram of the whole shells: (2, 4) everywhere, and (4, 4) and
    # (2, 6) at rank <= 16.
    lat = builtin(name)
    ctx = en._context(lat)
    top = 6 if lat.rank <= 16 else 4
    ctx.shell_arrays_upto(top)
    orbits = []
    for q in range(2, top + 1, 2):
        rows, weights = ctx.orbits(q)
        assert int(weights.sum()) == 2 * len(ctx.shell_array(q))
        assert len(rows) == len({r.tobytes() for r in rows})
        orbits.append(len(rows))
    assert tuple(orbits) == PINNED_ORBITS.get(name, tuple(orbits))
    for a, c in [(2, 4)] + ([(4, 4), (2, 6)] if lat.rank <= 16 else []):
        rows, weights = ctx.orbits(a)
        shell = whole_shell(ctx.shell_array(c))
        got = en._dot_histogram(ctx._gram_red_np, rows, shell, weights, ctx.shell_top(c))
        assert got == shell_pair_histogram(ctx._gram_red_np, whole_shell(ctx.shell_array(a)), shell), (a, c)
        # The counter takes the slots in reverse: the histogram is kept under
        # (c, a), from the orbits of the norm-c shell.
        ctx._hists.pop((c, a), None)
        assert en._count_general(lat, GramTarget.diagonal([a, c])) == got.get(0, 0)
        assert ctx._hists[(c, a)] == got


ROOTLESS8 = [[4 if i == j else int(i // 2 == j // 2) for j in range(8)] for i in range(8)]
A2_R2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 4, 1], [0, 0, 1, 4]]


def _check_pair_histograms(monkeypatch, lat, pairs):
    # Each genus-2 diagonal class (a, c) against the histogram of the whole
    # shells, on a fresh context: the counter takes the slots in reverse, so
    # the histogram is kept under (c, a), and it stores the shells of its
    # second slot alone, to norm a.
    half = shells_upto(en._context(lat).gs, max(max(p) for p in pairs))
    for a, c in pairs:
        monkeypatch.setattr(en, "_CONTEXTS", {})
        ctx = en._context(lat)
        want = shell_pair_histogram(ctx._gram_red_np, whole_shell(half[a]), whole_shell(half[c]))
        assert en._count_general(lat, GramTarget.diagonal([a, c])) == want.get(0, 0)
        assert ctx._hists[(c, a)] == want, (a, c)
        assert ctx._shells_bound == a


def test_rootless_orbits_are_one_of_each_sign_pair(monkeypatch):
    # Four copies of [[4, 1], [1, 4]]: no roots, so W = 1, the cone has no
    # rows, and the walk is the shell walk on the reduced basis: the orbits
    # are one of each +-v pair, with weight 2.
    lat = from_gram("rootless8", ROOTLESS8)
    ctx = en._context(lat)
    assert ctx._chamber.cone == []
    _check_dominant_orbits(lat, (4, 6, 8, 10))
    half = shells_upto(ctx.gs, 10)
    for q in (4, 6, 8, 10):
        rows, weights = ctx.orbits(q)
        assert set(weights.tolist()) == {2} and 2 * len(rows) == ctx.count(q)
        assert np.array_equal(rows, half[q])
        assert len({r.tobytes() for r in whole_shell(rows)}) == 2 * len(rows)
    _check_pair_histograms(monkeypatch, lat, [(4, 4), (4, 10), (6, 8), (8, 10)])
    # The walk is refused once it has yielded more rows than the store limit.
    monkeypatch.setattr(en, "_CONTEXTS", {})
    monkeypatch.setattr(en, "_SHELL_VECTORS_LIMIT", 100)
    with pytest.raises(RepresentationDomainError, match="dominant vectors to norm 10 .* too large"):
        en._count_general(lat, GramTarget.diagonal([4, 10]))


def _orbit_set(rows, weights):
    return sorted(zip((r.tobytes() for r in rows), weights.tolist()))


def _check_dominant_orbits(lat, norms):
    # The orbits from the cone walk against the dominance filter over the
    # whole shell (`dominant_filter`): the walked rows, each once, with -y
    # added wherever y is orthogonal to every root, are the filter's rows.
    # The filter's rows carry their W-orbit sizes, which sum to the shell
    # count; a walked y orthogonal to every root has weight 2 and stands for
    # y and -y, each of W-orbit size 1, and every other walked y has its
    # W-orbit size.
    ctx = en._context(lat)
    rs = ctx.root_system
    gm = ctx._gram_red_np
    simple = rs.vectors[list(weyl.iter_bits(rs.simple))]
    half = shells_upto(ctx.gs, max(norms))
    empty = np.zeros((0, ctx.rank), dtype=np.int32)

    def orthogonal(rows):
        return en._bit_rows(rows.astype(np.int64) @ gm @ rs.vectors.T.astype(np.int64) == 0)

    for q in norms:
        shell = whole_shell(half.get(q, empty))
        want = dominant_filter(shell, gm, simple)
        sizes = weyl.orbit_sizes(orthogonal(want), rs.linked, rs.simple, rs.order)
        assert sum(sizes) == len(shell), q
        rows, weights = ctx.orbits(q)
        assert len({r.tobytes() for r in rows}) == len(rows)
        fixed = (rows.astype(np.int64) @ gm @ simple.T.astype(np.int64) == 0).all(axis=1)
        assert all(w == 2 for w, f in zip(weights.tolist(), fixed) if f), q
        got = [(r, w) for r, w, f in zip(rows, weights.tolist(), fixed) if not f]
        got += [(s * r, 1) for r, f in zip(rows, fixed) if f for s in (1, -1)]
        assert sorted((r.tobytes(), w) for r, w in got) == _orbit_set(want, np.array(sizes, dtype=np.int64)), q


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_weight_lattice_orbits_match_shell_filter_on_builtins(name):
    lat = builtin(name)
    _check_dominant_orbits(lat, (2, 4, 6) if lat.rank <= 16 else (2, 4))


@settings(max_examples=12, deadline=None)
@given(small_ade_lattices(kinds=(*SMALL_ADE, ROOTLESS), max_rank=8, max_parts=4))
@example(([[4, 1, 0], [1, 4, 0], [0, 0, 2]], [[4, 5, 1], [5, 10, 5], [1, 5, 6]]))
def test_weight_lattice_orbits_match_shell_filter_on_random_bases(pair):
    _, changed = pair
    _check_dominant_orbits(from_gram("changed", changed), (2, 4, 6))


@pytest.mark.parametrize("name", ["A1^24", "A2^12", "A3^8"])
def test_weight_lattice_orbits_match_shell_filter_on_glue_heavy_niemeier(name):
    # L has index 2^12, 3^6 and 4^4 in the weight lattice of its roots; the
    # cone walk visits L alone.
    _check_dominant_orbits(glue(NIEMEIER_13[name], name), (2, 4))


def test_a1_24_norm6_orbits():
    # The dominant vectors of the A1^24 norm-6 shell, whose orbit sizes sum
    # to the rank-24 count with 48 roots (`orbits` asserts it).
    rows, weights = en._context(glue(NIEMEIER_13["A1^24"], "A1^24")).orbits(6)
    assert len(rows) == 16744 and int(weights.sum()) == 16785216


def test_roots_that_do_not_span_take_the_cone_walk(monkeypatch):
    # A2 + [[4, 1], [1, 4]]: two simple roots at rank 4, so the cone has two
    # rows, and the first two basis vectors of the walk span the vectors
    # orthogonal to the roots; the counts match the whole-shell histograms.
    lat = from_gram("A2+R2", A2_R2)
    ctx = en._context(lat)
    assert ctx.root_system.simple.bit_count() == 2 and len(ctx._chamber.cone) == 2
    assert not (ctx._chamber.basis[:2] @ ctx._gram_red_np @ ctx.root_system.vectors.T.astype(np.int64)).any()
    _check_dominant_orbits(lat, (2, 4, 6, 8))
    _check_pair_histograms(monkeypatch, lat, [(2, 4), (4, 4), (2, 6), (4, 8), (6, 8), (2, 8)])


@pytest.mark.parametrize("name,counts", [("D4^6", (1322176896, 530540928)), ("E8^3", (6636320640, 2696768640))])
def test_rank24_classes_with_a_norm6_slot(monkeypatch, name, counts):
    # r_L([[2, b], [b, 6]]) for b = 0, 1: the orbit slot takes the norm-6
    # shell from the weight lattice, and only the roots are stored.  The
    # values agree with a streamed histogram of the whole norm-6 shell.
    monkeypatch.setattr(en, "_CONTEXTS", {})
    monkeypatch.setattr(en, "_MEM_CACHE", {})
    lat = builtin(name)
    assert tuple(representation_count(lat, [[2, b], [b, 6]]) for b in (0, 1)) == counts
    assert en._context(lat)._shells_bound == 2


ROOT_INDICES_G23 = root_indices(2) + root_indices(3)
ROOT_INDICES_G4 = root_indices(4)


def test_root_index_sets():
    assert len(ROOT_INDICES_G23) == 19
    assert len(ROOT_INDICES_G4) == 152


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_root_engine_matches_oracle_on_builtins(name):
    lat = builtin(name)
    for t in ROOT_INDICES_G23:
        assert en._count_root_tuples(lat, t) == root_tuple_count(lat, t.entries), t.key()


ADE_UP_TO_8 = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8)]


def _named_lattice(name):
    """A built-in lattice, or else the root lattice of an ADE symbol."""
    return builtin(name) if name in BUILTIN_NAMES else root_lattice(name[0], int(name[1:]))


@pytest.mark.parametrize("name", ["D4^6", "A5^4D4", "E8", "E6", "E7", "A7", "D6"])
def test_root_engine_matches_oracle_at_genus4(name):
    lat = _named_lattice(name)
    for t in ROOT_INDICES_G4:
        assert en._count_root_tuples(lat, t) == root_tuple_count(lat, t.entries), t.key()


# |W_J| and the stabiliser orbit sizes on the roots x with (x, theta) = -1, 0, 1.
PINNED_STABILISER_ORBITS = {
    "E8": (2903040, [[56], [126], [56]]),
    "E7": (23040, [[32], [60], [32]]),
    "E6": (720, [[20], [30], [20]]),
    "D6": (384, [[16], [24, 2], [16]]),
    "A5": (24, [[4, 4], [12], [4, 4]]),
}


@pytest.mark.parametrize(
    "name", BUILTIN_NAMES + tuple(f"{k}{n}" for k, n in ADE_UP_TO_8 if f"{k}{n}" not in BUILTIN_NAMES)
)
def test_highest_root_orbits(name):
    # theta is the only root of its component with no negative product with
    # a simple root, and the orbit sizes of its stabiliser sum to the roots
    # with each product.
    ctx = en._context(_named_lattice(name))
    rs = ctx.root_system
    roots = rs.vectors.astype(np.int64) @ ctx._gram_red_np
    dominant = (roots @ rs.vectors[list(weyl.iter_bits(rs.simple))].T.astype(np.int64) >= 0).all(axis=1)
    for symbol, comp in rs.components:
        theta, order, reps = ctx.highest_root_orbits(comp)
        members = list(weyl.iter_bits(comp))
        assert [i for i in members if dominant[i]] == [theta]
        products = Counter((roots[members] @ rs.vectors[theta].astype(np.int64)).tolist())
        for v, pairs in reps.items():
            assert sum(w for _, w in pairs) == products[v]
            assert all(comp >> x & 1 and int(roots[x] @ rs.vectors[theta]) == v for x, _ in pairs)
        got = (order, [sorted((w for _, w in reps[v]), reverse=True) for v in (-1, 0, 1)])
        assert got == PINNED_STABILISER_ORBITS.get(symbol, got), symbol


@settings(max_examples=15, deadline=None)
@given(
    small_ade_lattices(kinds=tuple(ADE_UP_TO_8), max_rank=8, max_parts=5),
    st.lists(st.sampled_from(ROOT_INDICES_G23 + ROOT_INDICES_G4), min_size=1, max_size=6),
)
def test_root_engine_matches_oracle_on_random_bases(pair, targets):
    _, changed = pair
    lat = from_gram("changed", changed)
    for t in targets:
        assert en._count_root_tuples(lat, t) == root_tuple_count(lat, t.entries), t.key()


def _labels(symbols):
    """Root-system labels as `root_system` reports them."""
    return tuple(sorted(Counter(symbols).items(), key=lambda kv: (kv[0][0], int(kv[0][1:]))))


def _check_root_typing(lat):
    # Each component typed by its simple roots against the rank of its span,
    # and the simple roots against the rank of the whole root set.
    rs = en._context(lat).root_system
    vectors = rs.vectors.tolist()
    oracle = span_rank_types(vectors, [mask for _, mask in rs.components])
    assert [(symbol, (mask & rs.simple).bit_count()) for symbol, mask in rs.components] == oracle
    assert rs.simple.bit_count() == rank_int(vectors)
    assert root_system(lat).components == _labels(symbol for symbol, _ in oracle)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_root_typing_matches_span_ranks_on_builtins(name):
    _check_root_typing(builtin(name))


@settings(max_examples=15, deadline=None)
@given(ade_sums(kinds=tuple(ADE_UP_TO_8), max_rank=8, max_parts=5))
def test_root_typing_matches_span_ranks_on_random_bases(drawn):
    comps, _, changed = drawn
    lat = from_gram("changed", changed)
    _check_root_typing(lat)
    assert root_system(lat).components == _labels(f"{kind}{rank}" for kind, rank in comps)


def _mask_matrix(rows, n):
    """Bit masks over n roots as a boolean matrix, bit j of rows[i] at [i, j]."""
    nbytes = (n + 7) // 8
    return np.array(
        [np.unpackbits(np.frombuffer(m.to_bytes(nbytes, "little"), dtype=np.uint8), bitorder="little")[:n]
         for m in rows], dtype=bool).reshape(len(rows), n)


def _check_pm_record(lat):
    # The record built from the stored roots, one of each +-pair, and their
    # +-1 products against the five-mask construction over the same roots,
    # and against the one built from the whole norm-2 shell with the big-int
    # functional of the oracle.
    ctx = en._context(lat)
    rs = ctx.root_system
    half = ctx.shell_array(2)
    shell = whole_shell(half)
    n, h = len(shell), len(half)
    assert len(rs.vectors) == n == 2 * h
    assert (rs.vectors == shell).all()
    last = half[np.arange(h), half.shape[1] - 1 - (half[:, ::-1] != 0).argmax(axis=1)]
    assert (last > 0).all()
    assert five_mask_root_record(half, ctx.gram_red) == (rs.masks, rs.linked, rs.simple, rs.components, rs.order)
    masks, linked, simple, components, order = whole_shell_root_record(shell.tolist(), ctx.gram_red)
    # idx[i]: the record's index of the oracle's root i (the same root set).
    where = {tuple(v): i for i, v in enumerate(rs.vectors.tolist())}
    idx = [where[tuple(v)] for v in shell.tolist()]
    assert sorted(idx) == list(range(n))
    grid = np.ix_(idx, idx)
    for d in range(-2, 3):
        assert (_mask_matrix(rs.masks[d], n)[grid] == _mask_matrix(masks[d], n)).all(), d
    assert (_mask_matrix(rs.linked, n)[grid] == _mask_matrix(linked, n)).all()

    def mapped(mask):
        return sum(1 << idx[i] for i in weyl.iter_bits(mask))

    assert sorted((symbol, mapped(m)) for symbol, m in components) == sorted(rs.components)
    # The oracle's functional is positive where the last nonzero coordinate
    # is, as the stored roots are: the same positive system and simple roots.
    assert mapped(simple) == rs.simple
    assert rs.simple < 1 << h  # simple roots are positive
    assert rs.order == order


@pytest.mark.parametrize(
    "name",
    BUILTIN_NAMES
    + tuple(f"A{n}" for n in range(1, 10))
    + tuple(f"D{n}" for n in range(4, 10))
    + ("E6", "E7", "E8", "none"),
)
def test_pm_root_record_matches_whole_shell_oracle(name):
    lat = from_gram("no-roots", [[4, 1], [1, 4]]) if name == "none" else _named_lattice(name)
    _check_pm_record(lat)


@settings(max_examples=25, deadline=None)
@given(ade_sums(kinds=tuple(k for k in ADE_UP_TO_8 if k[0] != "E"), max_rank=8, max_parts=4))
def test_pm_root_record_matches_whole_shell_oracle_on_random_bases(drawn):
    _, _, changed = drawn
    _check_pm_record(from_gram("changed", changed))


def _conjugate_steps(rows, perm, steps, trace_bound):
    """P T P^T, then x_i -> x_i + m x_j for each step (i, j, m) that keeps the
    trace within the bound: a random index of the same GL_g(Z)-class."""
    g = len(rows)
    t = [[rows[perm[a]][perm[b]] for b in range(g)] for a in range(g)]
    for i, j, m in steps:
        if i == j:
            continue
        new = [list(r) for r in t]
        for k in range(g):
            new[i][k] += m * t[j][k]
        for k in range(g):
            new[k][i] += m * new[k][j]
        if sum(new[k][k] for k in range(g)) <= trace_bound:
            t = new
    return t


def _index_with_conjugate(g):
    steps = st.tuples(st.integers(0, g - 1), st.integers(0, g - 1), st.sampled_from((-2, -1, 1, 2)))
    return st.tuples(
        st.sampled_from(candidate_targets(g, 8)), st.permutations(range(g)), st.lists(steps, max_size=6)
    )


@settings(max_examples=20, deadline=None)
@given(small_ade_lattices(), st.lists(st.integers(1, 3).flatmap(_index_with_conjugate), min_size=1, max_size=4))
def test_counts_match_brute_force_on_unimodular_conjugates(pair, drawn):
    # Valid indices of genus <= 3 and trace <= 8, singular ones included, each
    # with a random U T U^T of trace <= 8: both brute-force counts agree with
    # each other and with representation_count.
    block, changed = pair
    lat = from_gram("changed", changed)
    gm = np.array(block, dtype=np.int64)
    shells = _oracle_shells(block, 8)
    for t0, perm, steps in drawn:
        t = _conjugate_steps(t0.entries, perm, steps, 8)
        expect = _brute_count(shells, gm, t0.entries)
        assert _brute_count(shells, gm, t) == expect, (t0.key(), t)
        assert representation_count(lat, t) == expect, (t0.key(), t)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(_index_with_conjugate))
def test_class_representative_properties(drawn):
    t0, perm, steps = drawn
    t = GramTarget.from_rows(_conjugate_steps(t0.entries, perm, steps, 8))
    rep = en.class_representative(t)
    g, h = t.genus, rep.genus
    e = rep.entries
    assert en.class_representative(rep) == rep
    assert rep.trace <= t.trace
    # Reduced, no zero rows, diagonal non-decreasing.
    assert all(2 * abs(e[i][j]) <= e[i][i] for i in range(h) for j in range(h) if i != j)
    assert all(e[i][i] > 0 for i in range(h))
    assert all(e[i][i] <= e[i + 1][i + 1] for i in range(h - 1))
    # Same determinant once padded with the dropped zero rows, same rank.
    padded = [list(r) + [0] * (g - h) for r in e] + [[0] * g for _ in range(g - h)]
    assert det_exact(padded) == det_exact(t.entries)
    assert rank_int(e) == rank_int(t.entries)
    # Every permutation and sign change of T has the same representative.
    for p in itertools.permutations(range(g)):
        for signs in itertools.product((1, -1), repeat=g):
            moved = [[signs[a] * signs[b] * t.entries[p[a]][p[b]] for b in range(g)] for a in range(g)]
            assert en.class_representative(GramTarget.from_rows(moved)) == rep


def test_representatives_of_one_class_count_alike():
    # The representative is a normal form, not a complete GL_3(Z) invariant:
    # two Gram matrices of A3 keep their own keys, and the singular index with
    # x_0 = x_1 + x_2 keeps a genus-3 key although it counts r_L(A2).
    a3 = [GramTarget.from_upper(3, u) for u in ([2, 1, 1, 2, 0, 2], [2, 1, 1, 2, 1, 2])]
    singular = GramTarget.from_upper(3, [2, 1, 1, 2, -1, 2])
    keys = [en.class_representative(t).key() for t in (*a3, singular)]
    assert keys == ["3|2 1 1 2 0 2", "3|2 1 1 2 1 2", "3|2 1 1 2 -1 2"]
    for lat in (root_lattice("D", 4), builtin("E8")):
        first, second = (representation_count(lat, t) for t in a3)
        assert first == second > 0
        assert representation_count(lat, singular) == representation_count(lat, [[2, -1], [-1, 2]]) > 0


def _a2_cubed_under_random_basis(seed):
    """(block-diagonal Gram of A2^3, the same lattice under a random unimodular basis)."""
    rng = random.Random(seed)
    n = 6
    block = [[0] * n for _ in range(n)]
    for k in range(3):
        block[2 * k][2 * k] = block[2 * k + 1][2 * k + 1] = 2
        block[2 * k][2 * k + 1] = block[2 * k + 1][2 * k] = -1
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        m = rng.choice((-2, -1, 1, 2))
        u[i] = [a + m * b for a, b in zip(u[i], u[j])]
    changed = [[sum(u[i][a] * block[a][b] * u[j][b] for a in range(n) for b in range(n)) for j in range(n)]
               for i in range(n)]
    return block, changed


def test_profile_runs_the_walker_once_per_class(monkeypatch):
    # A2^3 under a random basis, as in the random-gram benchmark: its 395
    # genus-3 indices of trace <= 8 fall into 26 classes, of which 7 of
    # genus 3 and the 7 of genus 2 that are not all-2 need the counter.
    # Counting every index, or every sign class, runs it far more often.
    block, changed = _a2_cubed_under_random_basis(7)
    lat = from_gram("A2^3#basis", changed)
    expect = representation_profile(from_gram("A2^3", block), 3, 8)
    for key in [k for k in en._MEM_CACHE if k[0] == lat.fingerprint]:
        del en._MEM_CACHE[key]
    calls = []
    walker = en._count_general

    def counted(lat_, t, reach):
        calls.append(t.key())
        return walker(lat_, t, reach)

    monkeypatch.setattr(en, "_count_general", counted)
    assert representation_profile(lat, 3, 8) == expect
    assert len(set(calls)) == len(calls)
    genus3 = [k for k in calls if k.startswith("3|")]
    assert 0 < len(genus3) <= 7
    classes = {en.class_representative(t) for t in candidate_targets(3, 8)}
    genus2 = {c.key() for c in classes if c.genus == 2 and {c.entries[0][0], c.entries[1][1]} != {2}}
    assert len(genus2) == 7
    assert sorted(calls) == sorted(genus3 + list(genus2))


def _per_index_profile(lat, genus, bound):
    """representation_count of every index on its own, zeros dropped."""
    counts = {t: representation_count(lat, t) for t in candidate_targets(genus, bound)}
    return {t: c for t, c in counts.items() if c}


def _per_index_jacobi(lat, genus, index, bound):
    """N(S, l) = r_L([[S, l], [l^T, 2n]]) index by index, zeros dropped."""
    out = {}
    for t in candidate_targets(genus + 1, bound + 2 * index):
        if t.entries[genus][genus] == 2 * index and (c := representation_count(lat, t)):
            out[GramTarget(tuple(row[:genus] for row in t.entries[:genus])), t.entries[genus][:genus]] = c
    return out


def test_cold_profiles_walk_once_per_kind(monkeypatch):
    # The first class of each table stores the largest shell that any class
    # of it stores, and its first orbit walk goes on to the table's largest
    # orbit-slot entry, so on a lattice without glue data, cold profiles at
    # genus 1, 2 and 3 walk the shell counts once (to 8), the stored shells
    # once (to 4, for the classes [[4, b], [b, 4]]) and the dominant cone
    # once (to 6, for [[2, b], [b, 6]]).
    _, changed = _a2_cubed_under_random_basis(11)
    lat = from_gram("A2^3#basis", changed)
    monkeypatch.setattr(en, "_CONTEXTS", {})
    monkeypatch.setattr(en, "_MEM_CACHE", {})
    walks = Counter()

    def counting(name, walk):
        def counted(*args):
            walks[name, args[1]] += 1
            return walk(*args)
        return counted

    for name in ("counts_upto", "shells_upto", "_cone_walk"):
        monkeypatch.setattr(en, name, counting(name, getattr(en, name)))
    series = [theta_truncated(lat, genus, 8) for genus in (1, 2, 3)]
    assert walks == {("counts_upto", 8): 1, ("shells_upto", 4): 1, ("_cone_walk", 6): 1}
    for s in series:
        assert s.coeffs == _per_index_profile(lat, s.genus, 8)


def test_refused_class_is_counted_before_any_shell_store(monkeypatch):
    # On E8^3 the genus-2 class diag(6, 6) stores the refused norm-6 shells
    # for its second slot (the orbit slot, the first, stores nothing); it
    # comes before every class that stores less, so nothing is stored.
    monkeypatch.setattr(en, "_CONTEXTS", {})
    monkeypatch.setattr(en, "_MEM_CACHE", {})
    stored = []
    monkeypatch.setattr(en, "shells_upto", lambda *a: stored.append(a))
    with pytest.raises(RepresentationDomainError, match="too large"):
        representation_profile(builtin("E8^3"), 2, 12)
    assert stored == []


def _check_per_class_paths(lat, bound):
    # One count per class, expanded by position, against one count per index:
    # the same values in the same order.  The per-class paths run first, on a
    # cold lattice, and count the classes of each table in its order, most
    # demanding first; the per-index loop then counts again in index order.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(en, "_CONTEXTS", {})
        mp.setattr(en, "_MEM_CACHE", {})
        counted = []
        rep_count = en._rep_count
        mp.setattr(en, "_rep_count", lambda lat_, t, reach: counted.append(t) or rep_count(lat_, t, reach))
        tables, profiles, entries = [], {}, {}
        for genus in (1, 2):
            profiles[genus] = representation_profile(lat, genus, bound)
            tables.append(en.index_classes(genus, bound))
            for index in (1, 2):
                entries[genus, index] = jacobi_coefficient(lat, genus, index, bound).entries
                if shell_count(lat, 2 * index):
                    tables.append(jacobi._slots(genus, index, bound)[1])
    expect = []
    for table in tables:
        _check_class_list(table)
        expect += [c for c in table.classes if c not in expect]
    assert counted == expect
    for genus in (1, 2):
        assert list(profiles[genus].items()) == list(_per_index_profile(lat, genus, bound).items())
        for index in (1, 2):
            assert list(entries[genus, index].items()) == list(_per_index_jacobi(lat, genus, index, bound).items())


@pytest.mark.parametrize("name", ["E8", "D4"])
def test_per_class_paths_match_per_index_counts(name):
    _check_per_class_paths(builtin(name) if name == "E8" else root_lattice("D", 4), 4)


@settings(max_examples=8, deadline=None)
@given(small_ade_lattices(max_rank=6))
def test_per_class_paths_match_per_index_counts_on_random_bases(pair):
    _, changed = pair
    _check_per_class_paths(from_gram("changed", changed), 4)
