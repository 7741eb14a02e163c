"""Built-in lattice registry: E8, E8+E8, D16+ and the rank-24 glue lattices.

Glue words are standard data; they are not trusted: every construction is
checked exactly (even, determinant 1, positive definite) at build time, and
the test suite additionally verifies the root-system label and root count of
each entry.  The D4^6 glue code is the hexacode, generated here from its
quadratic-polynomial description over F4 (classes 1, 2, 3 standing for
1, w, w^2).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .lattices import GlueSpec, Lattice, direct_sum, glue, plus_construction, root_lattice


def _f4_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    exp = {1: 0, 2: 1, 3: 2}
    return {0: 1, 1: 2, 2: 3}[(exp[a] + exp[b]) % 3]


def _hexacode_generators() -> tuple[tuple[int, ...], ...]:
    """Additive generators of the hexacode: words (a, b, c, f(1), f(w), f(w^2))
    with f(x) = a x^2 + b x + c, for f ranging over 1 and w times each monomial."""

    def word(a, b, c):
        def f(x):
            return _f4_mul(a, _f4_mul(x, x)) ^ _f4_mul(b, x) ^ c

        return (a, b, c, f(1), f(2), f(3))

    return tuple(word(a, b, c) for (a, b, c) in
                 [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)])


def _even_permutation_words() -> tuple[tuple[int, ...], ...]:
    out = []
    for p in permutations((0, 1, 2, 3)):
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        if inversions % 2 == 0:
            out.append(p)
    return tuple(out)


NIEMEIER_GLUE: dict[str, GlueSpec] = {
    "A5^4D4": GlueSpec(
        (("A", 5), ("A", 5), ("A", 5), ("A", 5), ("D", 4)),
        ((2, 0, 2, 4, 0), (2, 4, 0, 2, 0), (2, 2, 4, 0, 0),
         (3, 3, 0, 0, 1), (3, 0, 3, 0, 2), (3, 0, 0, 3, 3)),
    ),
    "D4^6": GlueSpec(tuple(("D", 4) for _ in range(6)), _hexacode_generators()),
    "A9^2D6": GlueSpec(
        (("A", 9), ("A", 9), ("D", 6)),
        ((2, 4, 0), (5, 0, 1), (0, 5, 3)),
    ),
    "D6^4": GlueSpec(tuple(("D", 6) for _ in range(4)), _even_permutation_words()),
    "E6^4": GlueSpec(
        tuple(("E", 6) for _ in range(4)),
        ((1, 1, 1, 0), (0, 1, 2, 1)),
    ),
    "A11D7E6": GlueSpec((("A", 11), ("D", 7), ("E", 6)), ((1, 1, 1),)),
    "A17E7": GlueSpec((("A", 17), ("E", 7)), ((3, 1),)),
    "D10E7^2": GlueSpec(
        (("D", 10), ("E", 7), ("E", 7)),
        ((1, 1, 0), (3, 0, 1)),
    ),
    "E8D16": GlueSpec((("E", 8), ("D", 16)), ((0, 1),)),
    "E8^3": GlueSpec(tuple(("E", 8) for _ in range(3)), ()),
}

RANK24_NAMES: tuple[str, ...] = tuple(NIEMEIER_GLUE)

# Same-root-count pairs of rank-24 lattices, in increasing root count
# (144, 240, 288, 432, 720).
FIVE_PAIRS: tuple[tuple[str, str], ...] = (
    ("A5^4D4", "D4^6"),
    ("A9^2D6", "D6^4"),
    ("E6^4", "A11D7E6"),
    ("A17E7", "D10E7^2"),
    ("E8D16", "E8^3"),
)

PAIR_ROOT_COUNTS: dict[tuple[str, str], int] = {
    ("A5^4D4", "D4^6"): 144,
    ("A9^2D6", "D6^4"): 240,
    ("E6^4", "A11D7E6"): 288,
    ("A17E7", "D10E7^2"): 432,
    ("E8D16", "E8^3"): 720,
}

BUILTIN_NAMES: tuple[str, ...] = ("E8", "E8+E8", "D16+") + RANK24_NAMES


@lru_cache(maxsize=None)
def builtin(name: str) -> Lattice:
    """Construct (and memoize) a registry lattice by name."""
    if name == "E8":
        return root_lattice("E", 8)
    if name == "E8+E8":
        return direct_sum(root_lattice("E", 8), root_lattice("E", 8))
    if name == "D16+":
        return plus_construction(16)
    spec = NIEMEIER_GLUE.get(name)
    if spec is None:
        raise KeyError(f"unknown built-in lattice {name!r}")
    return glue(spec, name=name)

