"""Known values for the reference module.  Run: python3 -m pytest bench/test_oracle.py"""

import itertools

import oracle


def test_sigma():
    assert [oracle.sigma(1, n) for n in range(1, 7)] == [1, 3, 4, 7, 6, 12]
    assert oracle.sigma(3, 2) == 9
    assert oracle.sigma(7, 2) == 129
    assert oracle.sigma(11, 3) == 177148


def test_tau_from_the_product():
    assert oracle.tau_table(10)[1:] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    # Multiplicativity: tau(6) = tau(2) tau(3); Hecke: tau(4) = tau(2)^2 - 2^11.
    assert oracle.tau(6) == oracle.tau(2) * oracle.tau(3)
    assert oracle.tau(4) == oracle.tau(2) ** 2 - 2**11


def test_genus1_rank16():
    assert [oracle.genus1_rank16(q) for q in (0, 1, 2, 4, 6)] == [1, 0, 480, 61920, 1050240]


def test_genus1_rank24_matches_pinned_counts():
    # A5^4D4 and D4^6 have 144 roots.
    assert oracle.genus1_rank24(2, 144) == 144
    assert oracle.genus1_rank24(4, 144) == 193104
    assert oracle.genus1_rank24(6, 144) == 16809408
    # The Leech lattice: no roots, 196560 minimal vectors.
    assert oracle.genus1_rank24(4, 0) == 196560


def test_root_index_closed_forms():
    assert oracle.r_a2([("A", 17), ("E", 7)]) == 13824
    assert oracle.r_a2([("E", 8)]) == 240 * 56
    assert oracle.r_a1_squared([("E", 8), ("D", 16)]) == 436320
    assert oracle.r_a1_squared([("E", 8)] * 3) == 720 * (720 - 4 * 30 + 6)
    # A1: the only roots are +-x, so there is no A2 pair and every root of
    # another component is orthogonal.
    assert oracle.r_a2([("A", 1)]) == 0
    assert oracle.r_a1_squared([("A", 1), ("A", 1)]) == 4 * 2
    # The chain count at k = 2 is the A2 count; A5^4D4 has 4 * 1440 A4 chains.
    assert oracle.r_a_chain([("A", 6)], 2) == oracle.r_a2([("A", 6)])
    assert oracle.r_a_chain([("A", 5)] * 4 + [("D", 4)], 4) == 5760


def test_root_closure_and_chain_search():
    for kind, rank in (("A", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)):
        roots, _ = oracle.roots_of(kind, rank)
        assert len(roots) == oracle.root_data(kind, rank)[0]
    # The search agrees with the A_n closed form, and with r(A2) = |R| (2h - 4).
    assert oracle.count_chains("A", 5, 4) == 2 * 6 * 5 * 4 * 3 * 2
    assert oracle.count_chains("E", 7, 2) == oracle.r_a2([("E", 7)])
    assert oracle.count_chains("D", 4, 4) == 0


def test_brute_genus1_on_root_lattices():
    # D5: 2n(n-1) = 40 roots; norm 4 is 2n vectors (+-2 e_i) plus 16 C(n, 4).
    assert oracle.brute_genus1(oracle.cartan("D", 5), 4) == {0: 1, 2: 40, 4: 10 + 16 * 5}
    assert oracle.brute_genus1(oracle.cartan("A", 2), 6) == {0: 1, 2: 6, 6: 6}
    assert oracle.brute_genus1(oracle.cartan("D", 4), 4) == {0: 1, 2: 24, 4: 24}
    assert oracle.genus1_of_sum([("A", 1), ("A", 1)], 4) == {0: 1, 2: 4, 4: 4}


def test_closed_forms_agree_with_brute_force_on_a_sum():
    comps = [("A", 2), ("D", 4)]
    gram = oracle.block_diagonal([oracle.cartan(k, r) for k, r in comps])
    n = len(gram)
    reach = 2
    roots = []
    for x in itertools.product(range(-reach, reach + 1), repeat=n):
        if sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)) == 2:
            roots.append(x)
    assert len(roots) == sum(oracle.root_data(k, r)[0] for k, r in comps)
    dots = [[sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n)) for y in roots] for x in roots]
    assert sum(row.count(-1) for row in dots) == oracle.r_a2(comps)
    assert sum(row.count(0) for row in dots) == oracle.r_a1_squared(comps)


def test_a3_chains_by_brute_force():
    gram = oracle.cartan("A", 4)
    n = len(gram)
    roots = [x for x in itertools.product(range(-1, 2), repeat=n)
             if sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)) == 2]
    dot = lambda x, y: sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))
    chains = sum(1 for a in roots for b in roots for c in roots
                 if dot(a, b) == -1 and dot(b, c) == -1 and dot(a, c) == 0)
    assert chains == oracle.r_a_chain([("A", 4)], 3)
