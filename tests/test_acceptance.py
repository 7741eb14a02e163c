"""Acceptance suite: one test per criterion, every check at its exact tolerance.

Criteria run in order inside one process and share a coefficient cache
directory, so expensive degree-4 counts computed early are reused later.
Each test records a one-line PASS/FAIL verdict that the terminal summary
echoes at the end of the run.
"""

import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import ACCEPTANCE_LINES
from oracles import coxeter_number, e8_ambient_counts, ldl_box_counts, root_indices
from thetalab import enumeration as en
from thetalab import jacobi as jc
from thetalab import lattices as lat
from thetalab import theta as th
from thetalab.enumeration import CACHE_ENV, GramTarget
from thetalab.niemeier import FIVE_PAIRS, NIEMEIER_GLUE, PAIR_ROOT_COUNTS, RANK24_NAMES, builtin

USE_DISK_CACHE = True

ALL_BUILTINS = ("E8", "E8+E8", "D16+") + RANK24_NAMES

# Exact k values pinned from the first verified run (regression guard; the
# test below re-derives each one and checks the identity at every index).
EXPECTED_K = {
    ("A5^4D4", "D4^6"): Fraction(-1, 896),
    ("A9^2D6", "D6^4"): Fraction(-9, 896),
    ("E6^4", "A11D7E6"): Fraction(5, 224),
    ("A17E7", "D10E7^2"): Fraction(-15, 128),
    ("E8D16", "E8^3"): Fraction(-1),
}


@pytest.fixture(scope="module", autouse=True)
def suite_cache(tmp_path_factory):
    d = tmp_path_factory.mktemp("acceptance-cache")
    old = os.environ.get(CACHE_ENV)
    os.environ[CACHE_ENV] = str(d)
    yield str(d)
    if old is None:
        os.environ.pop(CACHE_ENV, None)
    else:
        os.environ[CACHE_ENV] = old


def record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def expected_components(name: str) -> tuple:
    if name == "E8":
        return (("E8", 1),)
    if name == "E8+E8":
        return (("E8", 2),)
    if name == "D16+":
        return (("D16", 1),)
    comps = Counter(f"{k}{r}" for k, r in NIEMEIER_GLUE[name].components)
    return tuple(sorted(comps.items(), key=lambda kv: (kv[0][0], int(kv[0][1:]))))


def test_criterion_01_lattice_construction():
    t0 = time.monotonic()
    ok = True
    details = []
    for name in ALL_BUILTINS:
        L = builtin(name)
        rep = lat.validate(L)
        rs = lat.root_system(L)
        good = rep.is_even_unimodular and rs.components == expected_components(name)
        ok &= good
        details.append(f"{name}:r2={rs.r2}")
    # Root counts of the five pairs against the table values (288 derived).
    for (a, b), r2 in PAIR_ROOT_COUNTS.items():
        ra = en.shell_count(builtin(a), 2)
        rb = en.shell_count(builtin(b), 2)
        ok &= ra == rb == r2
        if r2 == 288:
            ok &= r2 == 24 * 12  # Coxeter number 12 for both members
    # Coxeter consistency: every rank-24 root system has r2 = 24h with one h.
    for name in RANK24_NAMES:
        rs = lat.root_system(builtin(name))
        hs = {coxeter_number(sym[0], int(sym[1:])) for sym, _ in rs.components}
        ok &= len(hs) == 1 and rs.r2 == 24 * next(iter(hs))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    record(
        1,
        ok,
        f"13 lattices validated, labels match, pair root counts (144,240,288,432,720); "
        f"printed 248 for the 288 pair recorded as erratum; {elapsed:.1f}s",
    )


def test_criterion_02_witt_coincidence():
    t0 = time.monotonic()
    e8e8, d16p = builtin("E8+E8"), builtin("D16+")
    ok = True
    counts = []
    for genus, bound in ((1, 8), (2, 8), (3, 6)):
        fa = th.theta_truncated(e8e8, genus, bound)
        fb = th.theta_truncated(d16p, genus, bound)
        ok &= fa == fb
        counts.append(f"g{genus}:{len(fa.coeffs)}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600
    record(
        2,
        ok,
        f"theta(E8+E8) = theta(D16+) exactly on all indices ({', '.join(counts)}); {elapsed:.1f}s",
    )


def test_criterion_03_genus4_witness():
    t0 = time.monotonic()
    e8e8, d16p = builtin("E8+E8"), builtin("D16+")
    witness = None
    left = right = None
    for t in th.CURATED_GENUS4:
        if t.trace > 8:
            continue
        a = en.representation_count(e8e8, t)
        b = en.representation_count(d16p, t)
        if a != b:
            witness, left, right = t, a, b
            break
    elapsed = time.monotonic() - t0
    ok = witness is not None and elapsed < 1800
    record(
        3,
        ok,
        f"degree-4 witness T=[{witness.key() if witness else 'none'}] "
        f"with counts {left} != {right}; {elapsed:.1f}s",
    )


def test_criterion_04_a4_separation():
    t0 = time.monotonic()
    ok = True
    seps = []
    for a, b in FIVE_PAIRS:
        la, lb = builtin(a), builtin(b)
        genus1_equal = en.shell_counts_upto(la, 10) == en.shell_counts_upto(lb, 10)
        ra = en.representation_count(la, th.GRAM_A4)
        rb = en.representation_count(lb, th.GRAM_A4)
        ok &= genus1_equal and ra != rb
        seps.append(f"{a}:{ra}|{b}:{rb}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 3600
    record(
        4,
        ok,
        f"five pairs agree at degree 1 to norm 10 and separate at A4 ({'; '.join(seps)}); {elapsed:.1f}s",
    )


def test_criterion_05_k_identity():
    t0 = time.monotonic()
    ok = True
    ks = []
    for a, b in FIVE_PAIRS:
        rep = th.k_identity_check(builtin(a), builtin(b))
        ok &= rep.verified and rep.k != 0
        ok &= rep.k == EXPECTED_K[(a, b)]
        ks.append(f"{a}:{b} k={rep.k}")
    elapsed = time.monotonic() - t0
    record(5, ok, f"degree-4 identity exact on curated set; {'; '.join(ks)}; {elapsed:.1f}s")


def test_k_identity_on_every_root_index():
    """Criterion 05's identity on every canonical all-2-diagonal degree-4 index
    of trace 8, with the same pinned k for each pair."""
    targets = root_indices(4)
    assert len(targets) == 152
    for a, b in FIVE_PAIRS:
        rep = th.k_identity_check(builtin(a), builtin(b), t_set=targets)
        assert rep.verified and rep.k == EXPECTED_K[(a, b)], (a, b, rep.k)
        assert sum(1 for _, lhs, rhs in rep.rows if lhs or rhs) == 64, (a, b)


def test_criterion_06_venkov_proportionality():
    t0 = time.monotonic()
    ok = True
    constants = set()
    for i, name in enumerate(RANK24_NAMES):
        cap = 4 if name in ("A5^4D4", "E8^3") else 2
        rep = jc.venkov_constant(builtin(name), norm_bound=8, per_vector_norm_cap=cap)
        ok &= rep.consistent
        constants.add(rep.constant)
    ok &= constants == {Fraction(12)}
    # Rank-dependent constant on E8 shows the proportionality is the portable part.
    e8rep = jc.venkov_constant(builtin("E8"), norm_bound=8, per_vector_norm_cap=4)
    ok &= e8rep.consistent and e8rep.constant == Fraction(4)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300
    record(
        6,
        ok,
        "moment identity exact for every v (matrix equality; spot-checked per vector); "
        f"c=12 for all ten rank-24 lattices (printed constant 48 = 2*rank corresponds to a "
        f"doubled-form normalization; mismatch reported, not hidden); E8 gives c=4=rank/2; {elapsed:.1f}s",
    )


def test_criterion_07_heat_equation():
    t0 = time.monotonic()
    c = Fraction(12)
    ok = True
    checked = 0
    for name in RANK24_NAMES:
        L = builtin(name)
        for genus in (1, 2):
            jac = jc.jacobi_coefficient(L, genus, 1, 4)
            for s in en.candidate_targets(genus, 4):
                if en.representation_count(L, s) == 0:
                    continue
                ok &= jc.heat_coefficient_check(L, genus, s, c, jacobi=jac)
                checked += 1
    elapsed = time.monotonic() - t0
    record(
        7,
        ok,
        f"heat identity exact for all ten rank-24 lattices, g<=2, trace<=4 "
        f"({checked} (lattice, S) pairs, c=12); {elapsed:.1f}s",
    )


def test_criterion_08_ring_structure():
    t0 = time.monotonic()
    e8 = builtin("E8")
    ok = True
    for genus in (1, 2):
        f = th.theta_truncated(e8, genus, 6)
        ok &= th.series_product(f, f) == th.theta_truncated(builtin("E8+E8"), genus, 6)
    shapes = [GramTarget.zero(1), GramTarget.from_rows([[2]]), GramTarget.from_rows([[4]])]
    for name in ("E8", "D16+"):
        L = builtin(name)
        for t1 in shapes:
            for t2 in shapes:
                ok &= th.block_factorization_check(L, t1, t2)
    elapsed = time.monotonic() - t0
    record(
        8,
        ok,
        "product = direct-sum convolution (g<=2, trace<=6) and block factorization "
        f"for E8 and D16+ on {{0, 2, 4}}; {elapsed:.1f}s",
    )


def test_criterion_09_siegel_operator():
    t0 = time.monotonic()
    ok = True
    for name in ("E8", "D16+", "D4^6"):
        L = builtin(name)
        for genus in (0, 1, 2):
            upper = th.theta_truncated(L, genus + 1, 6)
            ok &= th.siegel_restrict(upper) == th.theta_truncated(L, genus, 6)
    elapsed = time.monotonic() - t0
    record(9, ok, f"Siegel restriction exact for E8, D16+, D4^6 at g in {{0,1,2}}; {elapsed:.1f}s")


def test_criterion_10_hyp_predicate():
    ok = lat.stable_eq_hyp_predicate(builtin("E8+E8"), builtin("D16+"))
    for a, b in FIVE_PAIRS:
        ok &= not lat.stable_eq_hyp_predicate(builtin(a), builtin(b))
    record(10, ok, "predicate true for the rank-16 pair, false for every rank-24 pair (24/2 > 8)")


def _cli(args, cache_dir, out_path):
    env = dict(os.environ)
    env[CACHE_ENV] = str(cache_dir)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "thetalab.cli", *args, "--out", str(out_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return time.monotonic() - t0


def test_criterion_11_engineering(tmp_path):
    t0 = time.monotonic()
    ok = True
    # Brute-force oracle equivalence of the enumerator, up to norm 8.
    for kind, rank in (("A", 1), ("A", 2), ("D", 4)):
        L = lat.root_lattice(kind, rank)
        gram = [list(r) for r in L.gram.rows]
        got = {q: c for q, c in en.shell_counts_upto(L, 8).items() if q > 0}
        ok &= got == ldl_box_counts(gram, 8)
    got = {q: c for q, c in en.shell_counts_upto(builtin("E8"), 8).items() if q > 0}
    ok &= got == e8_ambient_counts(8)

    # Cold runs in fresh processes: the degree <= 3 coincidence and Venkov.
    witt_args = ["witt", "--max-genus", "3"]
    report, warm_report = tmp_path / "witt.txt", tmp_path / "witt-warm.txt"
    cold = _cli(witt_args, tmp_path / "cacheA", report)
    _cli(["venkov"], tmp_path / "cacheB", tmp_path / "venkov.txt")

    # Warm-cache rerun of the coincidence job: byte-identical, at least 5x faster.
    warm = _cli(witt_args, tmp_path / "cacheA", warm_report)
    ok &= warm_report.read_bytes() == report.read_bytes()
    ok &= warm * 5 <= cold
    elapsed = time.monotonic() - t0
    record(
        11,
        ok,
        f"oracle equivalence (A1, A2, D4, E8 to norm 8); cold witt and venkov exit 0; byte-identical "
        f"warm rerun {warm:.1f}s vs cold {cold:.1f}s (>=5x); {elapsed:.1f}s",
    )
