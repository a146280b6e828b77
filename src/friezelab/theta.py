"""The growth element read off at a double arrow.

At a seed whose quiver has a double arrow u => v, the element

    (x_u^2 + x_v^2 + prod of the triangle variables) / (x_u * x_v)

is independent of the chosen double-arrow seed.  Its value at the all-ones
point of the input's own seed is the principal growth coefficient of every
tube frieze of the class: 14 from the D4 star, 3 from the D4 and E6
double-arrow fans.  The triangle variables sit at the vertices w completing
directed triangles u => v -> w -> u; the Kronecker quiver has none and uses
the empty product, the unit.

`growth_from_affine_quiver` is the one integer route to that value.  On an
input that delta certifies affine it replays the exchange relations on
integers, through the `replay` that mutates Laurent seeds: every cluster
variable at all ones is a positive integer (Laurent phenomenon, positivity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CrossCheckFailed, MissingDoubleArrow
from .laurent import LaurentPoly
from .quivers import MAX_NODES, MutationWord, Quiver, has_double_arrow, mutation_class_search
from .rep import delta
from .seeds import Seed, product, replay


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


def theta(seed: Seed) -> ThetaValue:
    """The growth element at the seed's first double arrow, in the initial
    variables."""
    laurent = _growth_element(seed.quiver, seed.vars, LaurentPoly.div_exact)
    return ThetaValue(laurent, laurent.at_ones())


def _growth_element(quiver: Quiver, values: Sequence, divide):
    """(x_u^2 + x_v^2 + prod of the triangle variables) / (x_u * x_v) at the
    first double arrow u => v, over Laurent polynomials or integers, where
    `divide` is exact division."""
    doubles = quiver.double_arrows()
    if not doubles:
        raise MissingDoubleArrow("seed quiver has no double arrow")
    u, v = doubles[0]
    triangle = product([values[w] for w in triangle_neighbors(quiver, u, v)], values[u])
    return divide(values[u] ** 2 + values[v] ** 2 + triangle, values[u] * values[v])


def theta_invariance(seed: Seed, words: Sequence[Sequence[int]]) -> bool:
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


def _acyclic_unfrozen(quiver: Quiver) -> bool:
    return not quiver.frozen and len(quiver.topological_order()) == quiver.m


def _double_arrow_word(quiver: Quiver, max_nodes: int) -> MutationWord:
    """The search's word to a double-arrow quiver.  An acyclic quiver without
    frozen vertices must be affine: delta raises NotAffine otherwise."""
    if _acyclic_unfrozen(quiver):
        delta(quiver)
    return mutation_class_search(quiver, has_double_arrow, max_nodes)[1]


def double_arrow_seed(quiver: Quiver, max_nodes: int = MAX_NODES) -> tuple[Seed, MutationWord]:
    """The initial seed mutated to a double-arrow seed, and the word used."""
    word = _double_arrow_word(quiver, max_nodes)
    return Seed.initial(quiver).mutate_word(word), word


def _exact_quotient(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise CrossCheckFailed("%d is not divisible by %d: the all-ones values contradict "
                               "the Laurent phenomenon" % (numerator, denominator))
    return quotient


def growth_from_affine_quiver(quiver: Quiver, max_nodes: int = MAX_NODES) -> int:
    """Principal growth coefficient of the tube friezes of the quiver's class:
    the growth element at the all-ones point of the input's own seed, at the
    end of the search's word to a double arrow.  An input that delta has
    certified affine replays the exchange relations on integers, a remainder
    raising CrossCheckFailed; any other is read through the Laurent growth
    element, since no theorem makes its integer replay agree with theta."""
    word = _double_arrow_word(quiver, max_nodes)
    if not _acyclic_unfrozen(quiver):
        return theta(Seed.initial(quiver).mutate_word(word)).integer
    quiver, values = replay(quiver, [1] * quiver.m, word, _exact_quotient)
    return _growth_element(quiver, values, _exact_quotient)
