"""The growth element read off at a double arrow.

At a seed whose quiver has a double arrow u => v, the element

    (x_u^2 + x_v^2 + prod of the triangle variables) / (x_u * x_v)

is independent of the chosen double-arrow seed, and its all-ones value is
the principal growth coefficient of every tube frieze of the mutation
class.  The triangle variables sit at the vertices w completing directed
triangles u => v -> w -> u; the Kronecker quiver has none and uses the
empty product 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cc import growth_via_homogeneous
from .errors import MissingDoubleArrow
from .laurent import LaurentPoly
from .quivers import MutationWord, Quiver, has_double_arrow, mutation_class_search
from .seeds import Seed


@dataclass(frozen=True)
class ThetaValue:
    laurent: LaurentPoly
    integer: int


def triangle_neighbors(quiver: Quiver, u: int, v: int) -> list[int]:
    """Vertices w with v -> w and w -> u, completing triangles over u => v."""
    if quiver.b[u][v] != 2:
        raise MissingDoubleArrow("no double arrow from %s to %s"
                                 % (quiver.labels[u], quiver.labels[v]))
    return [w for w in range(quiver.m)
            if quiver.b[v][w] > 0 and quiver.b[w][u] > 0]


def theta(seed: Seed, u: int | None = None, v: int | None = None) -> ThetaValue:
    """The growth element at a double-arrow seed, in the initial variables."""
    quiver = seed.quiver
    if u is None or v is None:
        doubles = quiver.double_arrows()
        if not doubles:
            raise MissingDoubleArrow("seed quiver has no double arrow")
        u, v = doubles[0]
    neighbors = triangle_neighbors(quiver, u, v)
    ring = seed.vars[u].vars
    numerator = seed.vars[u] ** 2 + seed.vars[v] ** 2
    product = LaurentPoly.one(ring)
    for w in neighbors:
        product = product * seed.vars[w]
    laurent = (numerator + product).div_exact(seed.vars[u] * seed.vars[v])
    return ThetaValue(laurent, laurent.at_ones())


def theta_invariance(seed: Seed, words: Sequence[MutationWord | Sequence[int]]) -> bool:
    """True iff the growth element agrees (as a Laurent polynomial) on the
    seed and on every seed reached by the given words."""
    reference = theta(seed).laurent
    for word in words:
        arrived = seed.mutate_word(word)
        if not arrived.quiver.double_arrows():
            raise MissingDoubleArrow("word %s does not end at a double-arrow quiver" % (word,))
        if theta(arrived).laurent != reference:
            return False
    return True


def double_arrow_seed(quiver: Quiver, max_nodes: int = 50_000) -> tuple[Seed, tuple[int, int], MutationWord]:
    """Mutate the initial seed of the quiver to a double-arrow seed.

    Returns the seed, the double-arrow pair, and the word used.
    """
    _, word = mutation_class_search(quiver, has_double_arrow, max_nodes)
    seed = Seed.initial(quiver).mutate_word(word)
    u, v = seed.quiver.double_arrows()[0]
    return seed, (u, v), word


def growth_from_affine_quiver(quiver: Quiver, max_nodes: int = 50_000) -> int:
    """Principal growth coefficient of every tube frieze of an acyclic
    affine quiver: search for a double arrow, read the growth element,
    specialize at all ones."""
    seed, (u, v), _ = double_arrow_seed(quiver, max_nodes)
    return theta(seed, u, v).integer


def bracelet_value(theta_int: int, k: int) -> int:
    """Value of the k-th bracelet: the first-kind Chebyshev transform of
    the growth element's integer value."""
    if theta_int < 2:
        raise ValueError("growth value must be at least 2")
    return growth_via_homogeneous(theta_int, k)
