"""Weyl-group orbits on the shells of an even lattice, from its roots alone.

A reflection v -> v - (v, a) a in a root a of an even lattice maps the lattice
to itself and keeps norms, so the Weyl group W of the roots acts on every
shell, and a count of tuples with a fixed first vector is constant on each
W-orbit.  Each orbit meets the closed dominant chamber
{v : (v, a) >= 0 for every simple root a} exactly once, and the stabiliser of
a dominant y is the Weyl group of the roots orthogonal to y, which have the
simple roots orthogonal to y as a base (Humphreys, Reflection Groups and
Coxeter Groups, 1.12).  So the dominant vectors of a shell stand for its
orbits, with the orbit sizes |W| / |W_y| as weights.

The closed dominant chamber is the cone c >= 0 of the integers
c_i = (y, a_i) over the simple roots a_1..a_m.  In a basis of the lattice
whose first n - m vectors are orthogonal to every root and in which c of
the last m is triangular, that cone bounds each of the last m coordinates
from below once the later ones are fixed, so a walk on the lattice alone
finds the dominant vectors of norm <= q, with no shell to filter
(`enumeration._cone_walk`).

The same holds one slot further on.  The stabiliser W_J of a dominant y is a
reflection group with base J, the simple roots orthogonal to y, and keeps
every count with y in the first slot; so the second slot can run over one
vector of each W_J-orbit, those in J's closed chamber, weighted by
|W_J| / |W_{J,x}|.  The root engine does this with y the highest root of an
irreducible component (`highest_root_orbits`).

Roots are indices into one list, and a set of roots is a bit mask over it.
Each irreducible component of a set of roots is typed by its size and its
number of simple roots, its rank (`components`), for the whole root system
and for every stabiliser alike.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import rootdata


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pieces(linked: Sequence[int], roots: int) -> Iterator[int]:
    """Bit masks of the connected pieces of the roots in the mask `roots`,
    under the graph joining roots with nonzero inner product: bit j of
    linked[i] is set when (root i, root j) != 0."""
    while roots:
        piece = frontier = roots & -roots
        while frontier:
            reach = 0
            for i in iter_bits(frontier):
                reach |= linked[i]
            frontier = reach & roots & ~piece
            piece |= frontier
        roots &= ~piece
        yield piece


def simple_roots(positive: Sequence[int], ones: Sequence[int]) -> int:
    """Bit mask of the simple roots, from the indices of the positive roots
    in increasing order and the masks ones[i] of the roots with inner
    product 1 with root i.

    The order must be compatible with addition (as a lexicographic order on
    the coordinates is), so a sum of two positive roots is larger than both.
    A positive root x is simple unless it is such a sum, that is unless some
    smaller positive root a has (a, x) = 1: then x - a is a root, positive
    as x > a (Humphreys, Reflection Groups and Coxeter Groups, 1.3-1.5)."""
    simple = lower = 0
    for i in positive:
        if not ones[i] & lower:
            simple |= 1 << i
        lower |= 1 << i
    return simple


def group_order(symbols: Iterable[str]) -> int:
    """Order of the Weyl group of a root system with these ADE components."""
    return prod(rootdata.weyl_order(s[0], int(s[1:])) for s in symbols)


def components(linked: Sequence[int], simple: int, roots: int) -> Iterator[tuple[str, int]]:
    """(ADE symbol, bit mask) of each piece of the roots in the mask `roots`,
    whose members in `simple` are a base of them: a piece holds as many
    simple roots as its rank, which with its size gives its type."""
    for piece in pieces(linked, roots):
        yield rootdata.classify_component((piece & simple).bit_count(), piece.bit_count()), piece


def orbit_sizes(orthogonal: Iterable[int], linked: Sequence[int], simple: int, order: int) -> list[int]:
    """|W| / |W_y| for each dominant y, given the mask of the roots
    orthogonal to y, whose base is the simple roots among them."""
    stabilisers: dict[int, int] = {}
    sizes = []
    for roots in orthogonal:
        if roots not in stabilisers:
            stabilisers[roots] = group_order(symbol for symbol, _ in components(linked, simple, roots))
        sizes.append(order // stabilisers[roots])
    return sizes


class HighestRootOrbits(NamedTuple):
    theta: int  # the highest root
    order: int  # |W_J|, J the simple roots orthogonal to theta
    # v -> (x, |W_J x|) for each root x in J's chamber with (x, theta) = v
    reps: dict[int, list[tuple[int, int]]]


def highest_root_orbits(
    masks: Mapping[int, Sequence[int]], linked: Sequence[int], simple: int, comp: int
) -> HighestRootOrbits:
    """The highest root theta of the irreducible component `comp`, the one
    root of it in the closed dominant chamber, and one root of each orbit of
    its stabiliser W_J on the roots of `comp`, by inner product with theta.

    The roots orthogonal to theta have base J, so W_J is their Weyl group.
    W_J keeps (x, theta); each of its orbits meets the chamber
    {x : (x, a) >= 0 for a in J} once, and the stabiliser there is the Weyl
    group of the roots orthogonal to theta and x.  Bit j of masks[d][i] is
    set when roots i and j have inner product d."""
    theta = next(i for i in iter_bits(comp) if not (masks[-1][i] | masks[-2][i]) & simple)
    fixed = masks[0][theta] & comp
    outside = 0
    for a in iter_bits(fixed & simple):
        outside |= masks[-1][a] | masks[-2][a]
    order = group_order(symbol for symbol, _ in components(linked, simple, fixed))
    reps = {}
    for v, rows in masks.items():
        xs = list(iter_bits(rows[theta] & comp & ~outside))
        sizes = orbit_sizes((masks[0][x] & fixed for x in xs), linked, simple, order)
        assert sum(sizes) == (rows[theta] & comp).bit_count(), f"stabiliser orbits miss roots at {v}"
        reps[v] = list(zip(xs, sizes))
    return HighestRootOrbits(theta, order, reps)
