import itertools
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetalab.cosets import _sum_square_counts, coset_tables, glued_shell_counts
from thetalab.enumeration import shell_counts_upto
from thetalab.exactnum import integral_gram_schmidt
from thetalab.fincke_pohst import counts_upto
from thetalab.lattices import direct_sum, root_lattice
from thetalab.niemeier import RANK24_NAMES, builtin
from thetalab.rootdata import ade_gram, root_count

from oracles import a_coset_counts, d_coset_counts, e_coset_counts, tau


def scaled(table, scale):
    """A norm table keyed by Fractions, each norm multiplied by scale and
    checked to be an integer: the form `coset_tables` returns."""
    out = {norm * scale: cnt for norm, cnt in table.items()}
    assert all(norm.denominator == 1 for norm in out)
    return {int(norm): cnt for norm, cnt in out.items()}


def class_tables(kind, rank, bound):
    """The norm tables of every class as dicts of scaled norms, and the scale."""
    scale, tables = coset_tables(kind, rank, bound)
    assert all(type(norm) is int and type(cnt) is int for t in tables for norm, cnt in t)
    return scale, [dict(t) for t in tables]


def brute_a_coset(rank, cls, bound):
    """Direct scan of {z in Z^{n+1} : sum z = cls}, norm = sum z^2 - cls^2/(n+1)."""
    n1 = rank + 1
    shift = Fraction(cls * cls, n1)
    zmax = isqrt(int(bound + shift)) + 1
    out = {}
    for z in itertools.product(range(-zmax, zmax + 1), repeat=n1):
        if sum(z) != cls:
            continue
        norm = sum(c * c for c in z) - shift
        if 0 <= norm <= bound:
            out[norm] = out.get(norm, 0) + 1
    return out


def brute_d_coset(rank, cls, bound):
    out = {}
    if cls in (0, 2):
        zmax = isqrt(int(bound)) + 1
        want = 0 if cls == 0 else 1
        for z in itertools.product(range(-zmax, zmax + 1), repeat=rank):
            if sum(z) % 2 != want:
                continue
            q = sum(c * c for c in z)
            if q <= bound:
                out[Fraction(q)] = out.get(Fraction(q), 0) + 1
        return out
    tmax = isqrt(int(4 * bound)) + 1
    want = 0 if cls == 1 else 1
    for t in itertools.product(range(-tmax, tmax + 1), repeat=rank):
        if any(x % 2 == 0 for x in t):
            continue
        if sum((x - 1) // 2 for x in t) % 2 != want:
            continue
        q4 = sum(x * x for x in t)
        if q4 <= 4 * bound:
            out[Fraction(q4, 4)] = out.get(Fraction(q4, 4), 0) + 1
    return out


@pytest.mark.parametrize("rank,cls", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 2), (4, 1), (4, 3)])
def test_a_coset_counts_match_box_scan(rank, cls):
    scale, got = class_tables("A", rank, 6)
    assert scale == rank + 1
    assert got[cls] == scaled(brute_a_coset(rank, cls, Fraction(6)), scale)


@pytest.mark.parametrize("rank,cls", [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (4, 2), (4, 3)])
def test_d_coset_counts_match_box_scan(rank, cls):
    scale, got = class_tables("D", rank, 6)
    assert scale == 4
    assert got[cls] == scaled(brute_d_coset(rank, cls, Fraction(6)), scale)


@pytest.mark.parametrize("kind,rank", [("A", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8)])
def test_class0_matches_direct_enumeration(kind, rank):
    scale, tables = class_tables(kind, rank, 8)
    gram = [list(r) for r in ade_gram(kind, rank)]
    fp = {scale * k: v for k, v in counts_upto(integral_gram_schmidt(gram), 8).items()}
    fp[0] = 1
    assert tables[0] == fp
    assert tables[0][2 * scale] == root_count(kind, rank)


@pytest.mark.parametrize(
    "kind,rank", [("A", n) for n in range(1, 25)] + [("D", n) for n in range(4, 25)] + [("E", 6), ("E", 7), ("E", 8)]
)
def test_coset_tables_match_per_class_oracles(kind, rank):
    # A_n: one dynamic program per class, read at the class label itself
    # rather than at its representative of least absolute value; D_n: one
    # program per class; E_n: the dual lattice walked and labelled.
    for bound in (0, 2, 4, 8, 10, 12):
        scale, got = class_tables(kind, rank, bound)
        if kind == "A":
            want = [a_coset_counts(rank, cls, bound) for cls in range(rank + 1)]
        elif kind == "D":
            want = [d_coset_counts(rank, cls, bound) for cls in range(4)]
        else:
            want = e_coset_counts(rank, bound)
        assert got == [scaled(t, scale) for t in want], bound


def sigma11(n):
    return sum(d**11 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("name", RANK24_NAMES)
def test_rank24_shell_counts_follow_the_degree1_law(name):
    # theta = E12 + c * Delta with c fixed by the root count: every glue word
    # of the built-in, to norm 12.
    lat = builtin(name)
    counts = shell_counts_upto(lat, 12)
    r2 = sum(root_count(kind, rank) for kind, rank in lat.decomposition[0])
    for norm in range(2, 13, 2):
        n = norm // 2
        law = Fraction(65520, 691) * (sigma11(n) - tau(n)) + r2 * tau(n)
        assert counts[norm] == law, norm
    assert counts[0] == 1 and all(q % 2 == 0 for q in counts)


def brute_sum_square_counts(length, values, qmax, reach):
    out = {}
    for z in itertools.product(values, repeat=length):
        s, q = sum(z), sum(c * c for c in z)
        if q <= qmax and abs(s) <= reach:
            out[s, q] = out.get((s, q), 0) + 1
    return out


@pytest.mark.parametrize("length", range(7))
@pytest.mark.parametrize(
    "values", [range(0, 1), range(-1, 2), range(-2, 3), range(0, 3), range(1, 0, 2), range(-1, 2, 2), range(-3, 4, 2)]
)
def test_multiset_counts_match_the_product_over_values(length, values):
    # Integer ranges (A_n, the integer D_n classes), odd-only ranges (the
    # half-integer D_n classes, empty included) and clipped sums.
    for qmax in range(12):
        for reach in (0, 1, 3, length * 3):
            want = brute_sum_square_counts(length, values, qmax, reach)
            assert _sum_square_counts(length, values, qmax, reach) == want, (qmax, reach)


def test_non_integral_glue_norms_are_refused():
    # A1's class 1 has norms in Z + 1/2, so A1 glued by its whole
    # discriminant group is not an integral lattice.
    with pytest.raises(ValueError, match="non-integral"):
        glued_shell_counts((("A", 1),), ((0,), (1,)), 4)


def test_d8_plus_equals_e8_shells():
    t = glued_shell_counts((("D", 8),), ((0,), (1,)), 8)
    assert t == {0: 1, 2: 240, 4: 2160, 6: 6720, 8: 17520}


def test_glued_counts_match_streaming_on_a_niemeier_lattice():
    lat = builtin("A5^4D4")
    dp = shell_counts_upto(lat, 4)
    gram = [list(r) for r in lat.gram]
    fp = counts_upto(integral_gram_schmidt(gram), 4)
    fp[0] = 1
    assert dp == fp


def test_glued_counts_match_streaming_on_d16_plus():
    lat = builtin("D16+")
    dp = shell_counts_upto(lat, 6)
    gram = [list(r) for r in lat.gram]
    fp = counts_upto(integral_gram_schmidt(gram), 6)
    fp[0] = 1
    assert dp == fp


SMALL_ROOT_LATTICES = (
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8)]
)


@st.composite
def root_lattice_sums(draw, max_rank=8):
    """One to four (kind, rank) summands of total rank <= max_rank."""
    parts = []
    left = max_rank
    for _ in range(draw(st.integers(1, 4))):
        fitting = [p for p in SMALL_ROOT_LATTICES if p[1] <= left]
        if not fitting:
            break
        parts.append(draw(st.sampled_from(fitting)))
        left -= parts[-1][1]
    return parts


@settings(max_examples=25, deadline=None)
@given(root_lattice_sums())
def test_coset_counts_of_random_root_lattice_sums_match_streaming(parts):
    # Sums built with root_lattice / direct_sum carry their coset data, so
    # shell_counts_upto runs the class-0 dynamic programs and their
    # convolution; the Fincke-Pohst walk on the same Gram is the oracle.
    lat = root_lattice(*parts[0])
    for kind, rank in parts[1:]:
        lat = direct_sum(lat, root_lattice(kind, rank))
    assert lat.decomposition is not None
    fp = counts_upto(integral_gram_schmidt(lat.gram), 8)
    fp[0] = 1
    assert shell_counts_upto(lat, 8) == fp
