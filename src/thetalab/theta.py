"""Truncated Siegel theta series as formal coefficient tables, and the
series-level identity checkers built on them.

A truncation is the exact list of representation numbers r_L(T) for every even
positive semidefinite T with trace <= B.  All algebra (difference, product,
restriction to lower degree) is exact integer arithmetic on those tables; a
binary operation restricts to the smaller of the two bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING, Sequence

from .enumeration import (
    GramTarget,
    RepresentationDomainError,
    candidate_targets,
    representation_count,
    representation_profile,
)
from .exactnum import rank_int

if TYPE_CHECKING:  # pragma: no cover
    from .lattices import Lattice


class SeriesError(ValueError):
    pass


@dataclass
class Series:
    """A degree-g series known exactly on all indices with trace <= bound: the
    theta series of a lattice, or a signed combination of such series."""

    genus: int
    trace_bound: int
    weight: Fraction
    coeffs: dict[GramTarget, int]
    provenance: str

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs.values())

    def coefficient(self, t: GramTarget) -> int:
        return self.coeffs.get(t, 0)

    def items_sorted(self) -> list[tuple[GramTarget, int]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __eq__(self, other):
        """Equal genus, bound and nonzero coefficients (stored zeros are ignored)."""
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.genus == other.genus
            and self.trace_bound == other.trace_bound
            and {k: v for k, v in self.coeffs.items() if v}
            == {k: v for k, v in other.coeffs.items() if v}
        )


def theta_truncated(lat: "Lattice", genus: int, trace_bound: int, jobs: int = 1) -> Series:
    """Exact truncation of the degree-g theta series of a lattice.
    `jobs` is ignored; it stays only because bench/workloads.py passes it."""
    if genus < 0 or trace_bound < 0:
        raise SeriesError("genus and trace bound must be nonnegative")
    coeffs = representation_profile(lat, genus, trace_bound)
    return Series(
        genus=genus,
        trace_bound=trace_bound,
        weight=Fraction(lat.rank, 2),
        coeffs=coeffs,
        provenance=f"{lat.name}#{lat.fingerprint[:12]}",
    )


def series_difference(f: Series, g: Series) -> Series:
    if f.genus != g.genus:
        raise SeriesError("difference needs equal genus")
    if f.weight != g.weight:
        raise SeriesError("difference needs equal weight")
    bound = min(f.trace_bound, g.trace_bound)
    coeffs: dict[GramTarget, int] = {}
    for t in set(f.coeffs) | set(g.coeffs):
        if t.trace <= bound:
            d = f.coefficient(t) - g.coefficient(t)
            coeffs[t] = d
    return Series(
        genus=f.genus,
        trace_bound=bound,
        weight=f.weight,
        coeffs=coeffs,
        provenance=f"({f.provenance})-({g.provenance})",
    )


def series_product(f: Series, g: Series) -> Series:
    if f.genus != g.genus:
        raise SeriesError("product needs equal genus")
    bound = min(f.trace_bound, g.trace_bound)
    coeffs: dict[GramTarget, int] = {}
    for t1, c1 in f.coeffs.items():
        if t1.trace > bound or c1 == 0:
            continue
        for t2, c2 in g.coeffs.items():
            if t1.trace + t2.trace > bound or c2 == 0:
                continue
            rows = tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(t1.entries, t2.entries)
            )
            t = GramTarget(rows)
            coeffs[t] = coeffs.get(t, 0) + c1 * c2
    coeffs = {t: c for t, c in coeffs.items() if c}
    return Series(
        genus=f.genus,
        trace_bound=bound,
        weight=f.weight + g.weight,
        coeffs=coeffs,
        provenance=f"({f.provenance})*({g.provenance})",
    )


def siegel_restrict(f: Series):
    """Drop to degree g-1: keep coefficients whose last row and column vanish."""
    if f.genus < 1:
        raise SeriesError("cannot restrict a degree-0 series")
    g = f.genus
    coeffs: dict[GramTarget, int] = {}
    for t, c in f.coeffs.items():
        if any(t.entries[g - 1][j] for j in range(g)):
            continue
        coeffs[t.principal_submatrix(range(g - 1))] = c
    return Series(
        genus=g - 1,
        trace_bound=f.trace_bound,
        weight=f.weight,
        coeffs=coeffs,
        provenance=f"Phi({f.provenance})",
    )


def block_factorization_check(lat: "Lattice", t1: GramTarget, t2: GramTarget) -> bool:
    """Coefficient form of the product factorization: summing representation
    numbers over all off-diagonal completions of diag(T1, T2) must give
    r(T1) * r(T2)."""
    t1.check_valid()
    t2.check_valid()
    g1, g2 = t1.genus, t2.genus
    bounds = [[isqrt(t1.entries[i][i] * t2.entries[j][j]) for j in range(g2)] for i in range(g1)]
    total = 0
    cells = [(i, j) for i in range(g1) for j in range(g2)]

    def fill(idx: int, block):
        nonlocal total
        if idx == len(cells):
            rows = []
            for i in range(g1):
                rows.append(list(t1.entries[i]) + [block[(i, j)] for j in range(g2)])
            for j in range(g2):
                rows.append([block[(i, j)] for i in range(g1)] + list(t2.entries[j]))
            t = GramTarget.from_rows(rows)
            try:
                t.check_valid()
            except RepresentationDomainError:
                return
            total += representation_count(lat, t)
            return
        i, j = cells[idx]
        for v in range(-bounds[i][j], bounds[i][j] + 1):
            block[(i, j)] = v
            fill(idx + 1, block)
        del block[(i, j)]

    fill(0, {})
    lhs = representation_count(lat, t1) * representation_count(lat, t2)
    return total == lhs


# ---------------------------------------------------------------------------
# Genus-4 working set

# Full degree-4 profiles of rank-24 lattices are out of reach, so degree-4
# statements are checked on this fixed list of indices: the zero matrix, the
# rank-1 and rank-2 shapes padded by zeros, and the classical quaternary forms
# A1^4, A2+A2, A4, D4.  Canonically ordered by (trace, upper triangle).
CURATED_GENUS4: tuple[GramTarget, ...] = tuple(
    sorted(
        [
            GramTarget.zero(4),
            GramTarget.diagonal([2, 0, 0, 0]),
            GramTarget.from_rows(
                [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
            ),
            GramTarget.diagonal([2, 2, 0, 0]),
            GramTarget.from_rows(
                [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
            ),
            GramTarget.diagonal([2, 2, 2, 2]),
            GramTarget.from_rows(
                [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]
            ),
            GramTarget.from_rows(
                [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
            ),
            GramTarget.from_rows(
                [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]
            ),
        ],
        key=lambda t: t.sort_key(),
    )
)

GRAM_A4 = GramTarget.from_rows([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])


@dataclass(frozen=True)
class DistinguishReport:
    found: bool
    genus: int | None
    target: GramTarget | None
    left_count: int | None
    right_count: int | None


def distinguishing_report(
    left: "Lattice",
    right: "Lattice",
    g_max: int,
    trace_bound: int,
) -> DistinguishReport:
    """First coefficient (canonical scan order) where the two series differ.

    Degrees 1..3 scan every index with trace <= bound; degree 4 scans the
    curated list (full degree-4 profiles are not attempted).
    """
    if left.rank != right.rank:
        raise SeriesError("distinguishing_report needs equal ranks")
    for genus in range(1, g_max + 1):
        if genus <= 3:
            targets = candidate_targets(genus, trace_bound)
        elif genus == 4:
            targets = [t for t in CURATED_GENUS4 if t.trace <= trace_bound]
        else:
            break
        for t in targets:
            a = representation_count(left, t)
            b = representation_count(right, t)
            if a != b:
                return DistinguishReport(True, genus, t, a, b)
    return DistinguishReport(False, None, None, None, None)


def linear_independence_rank(series: Sequence[Series]) -> int:
    """Exact rank over Q of the coefficient matrix (rows = series)."""
    if not series:
        return 0
    genus = series[0].genus
    bound = series[0].trace_bound
    for s in series:
        if s.genus != genus or s.trace_bound != bound:
            raise SeriesError("linear independence needs equal genus and bound")
    keys = sorted({t for s in series for t in s.coeffs}, key=lambda t: t.sort_key())
    rows = [[s.coefficient(t) for t in keys] for s in series]
    return rank_int(rows)


# ---------------------------------------------------------------------------
# The degree-4 k-identity


def weight8_difference_coefficient(t: GramTarget) -> int:
    """Coefficient of (theta of E8+E8) - (theta of D16+) at T."""
    from .niemeier import builtin

    return representation_count(builtin("E8+E8"), t) - representation_count(builtin("D16+"), t)


def weight12_product_coefficient(t: GramTarget) -> int:
    """Coefficient at T of (theta of E8) * ((theta of E8+E8) - (theta of D16+)).

    Valid for T with diagonal entries in {0, 2}: every even PSD split of such a
    T is a pair of complementary principal submatrices on block-compatible slot
    subsets, so the convolution is a finite sum over subsets.
    """
    from .niemeier import builtin

    e8 = builtin("E8")
    g = t.genus
    slots = [i for i in range(g) if t.entries[i][i] == 2]
    if any(t.entries[i][i] not in (0, 2) for i in range(g)):
        raise SeriesError("product coefficient shortcut needs diagonal entries 0 or 2")
    total = 0
    m = len(slots)
    for mask in range(1 << m):
        s = [slots[i] for i in range(m) if mask >> i & 1]
        rest = [slots[i] for i in range(m) if not mask >> i & 1]
        if any(t.entries[i][j] for i in s for j in rest):
            continue
        left = representation_count(e8, t.principal_submatrix(s))
        if left == 0:
            continue
        right = weight8_difference_coefficient(t.principal_submatrix(rest))
        if right:
            total += left * right
    return total


@dataclass(frozen=True)
class KIdentityReport:
    k: Fraction | None
    verified: bool
    normalizing_target: GramTarget | None
    rows: tuple[tuple[GramTarget, int, int], ...]  # (T, lhs, rhs)


def k_identity_check(
    left: "Lattice",
    right: "Lattice",
    t_set: Sequence[GramTarget] | None = None,
    jobs: int = 1,
) -> KIdentityReport:
    """Determine the constant k with theta(left,4) - theta(right,4) =
    k * theta(E8,4) * (theta(E8+E8,4) - theta(D16+,4)) on the given indices,
    and verify the identity at each of them.
    `jobs` is ignored; it stays only because bench/workloads.py passes it."""
    targets = tuple(t_set) if t_set is not None else CURATED_GENUS4
    rows = []
    for t in targets:
        lhs = representation_count(left, t) - representation_count(right, t)
        rhs = weight12_product_coefficient(t)
        rows.append((t, lhs, rhs))
    norm_row = next(((t, lhs, rhs) for t, lhs, rhs in rows if rhs != 0), None)
    if norm_row is None:
        raise SeriesError("cannot normalize k: right side vanishes on every supplied index")
    t0, lhs0, rhs0 = norm_row
    k = Fraction(lhs0, rhs0)
    verified = all(lhs * k.denominator == k.numerator * rhs for _, lhs, rhs in rows)
    return KIdentityReport(
        k=k,
        verified=verified and k != 0,
        normalizing_target=t0,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Series text format (bit-exact round trip)

FORMAT_HEADER = "# thetalab-series 1"


def export_series(f: Series) -> str:
    lines = [
        FORMAT_HEADER,
        f"expr: {f.provenance}",
        f"rank: {int(2 * f.weight)}",
        f"genus: {f.genus}",
        f"trace_bound: {f.trace_bound}",
    ]
    for t, c in f.items_sorted():
        upper = " ".join(str(x) for x in t.upper())
        lines.append(f"{upper} = {c}" if upper else f"= {c}")
    return "\n".join(lines) + "\n"


def parse_series(text: str) -> Series:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise SeriesError("not a thetalab series file")
    header = {}
    body_start = 1
    for i, ln in enumerate(lines[1:], start=1):
        if ":" in ln and "=" not in ln:
            key, _, val = ln.partition(":")
            header[key.strip()] = val.strip()
            body_start = i + 1
        else:
            break
    try:
        genus = int(header["genus"])
        trace_bound = int(header["trace_bound"])
        weight = Fraction(int(header["rank"]), 2)
    except KeyError as e:
        raise SeriesError(f"series file has no {e.args[0]!r} header")
    except ValueError as e:
        raise SeriesError(f"bad series header: {e}")
    if genus < 0 or trace_bound < 0:
        raise SeriesError("genus and trace bound must be nonnegative")
    coeffs: dict[GramTarget, int] = {}
    for ln in lines[body_start:]:
        upper_str, sep, val = ln.partition("=")
        try:
            upper = [int(x) for x in upper_str.split()]
            value = int(val.strip())
        except ValueError:
            upper = None
        if not sep or upper is None or len(upper) != genus * (genus + 1) // 2:
            raise SeriesError(f"bad series row {ln!r}")
        coeffs[GramTarget.from_upper(genus, upper)] = value
    return Series(
        genus=genus,
        trace_bound=trace_bound,
        weight=weight,
        coeffs=coeffs,
        provenance=header.get("expr", "?"),
    )
