"""Seeds (a quiver plus cluster variables) and `replay`, the one exchange loop.

Cluster variables are Laurent polynomials in the initial variables.  The
variable attached to vertex label L is named "xL" when L is purely numeric
and "x_L" otherwise, so the rank-2 seed prints as x0, x1 and the lettered
double-arrow base quivers as x_a, x_b, ...
"""

from __future__ import annotations

import math
from typing import Sequence

from .laurent import LaurentPoly
from .quivers import Quiver


def variable_name(label: str) -> str:
    label = str(label)
    return "x%s" % label if label.isdigit() else "x_%s" % label


class Seed:
    """An exchange quiver together with one cluster variable per vertex."""

    __slots__ = ("quiver", "vars")

    def __init__(self, quiver: Quiver, variables: Sequence[LaurentPoly]):
        if len(variables) != quiver.m:
            raise ValueError("need exactly one variable per vertex")
        self.quiver = quiver
        self.vars = tuple(variables)

    @classmethod
    def initial(cls, quiver: Quiver) -> "Seed":
        """The seed whose variables are the generators x_v themselves.

        Frozen vertices get the constant 1 (their variables never mutate and
        are specialized away).
        """
        names = tuple(variable_name(l) for l in quiver.labels)
        return cls(quiver, [LaurentPoly.one(names) if label in quiver.frozen
                            else LaurentPoly.variable(names, name)
                            for label, name in zip(quiver.labels, names)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Seed):
            return NotImplemented
        return self.quiver == other.quiver and self.vars == other.vars

    def __hash__(self) -> int:
        return hash((self.quiver, self.vars))

    def __repr__(self) -> str:
        return "Seed(m=%d, labels=%s)" % (self.quiver.m, self.quiver.labels)

    def mutate(self, k: int) -> "Seed":
        """Exchange mutation at vertex index k (not allowed on frozen ones)."""
        return self.mutate_word((k,))

    def mutate_word(self, word: Sequence[int]) -> "Seed":
        return Seed(*replay(self.quiver, self.vars, word, LaurentPoly.div_exact))

    def restored(self, perm: Sequence[int], base: Quiver) -> "Seed":
        """Permute the variables by perm and reattach them to the base quiver.

        perm must be an isomorphism from this seed's quiver onto base:
        base.b[perm[i]][perm[j]] == self.quiver.b[i][j].
        """
        if self.quiver.permuted(perm).b != base.b:
            raise ValueError("permutation does not carry this quiver to the base quiver")
        variables = [None] * len(perm)
        for i, p in enumerate(perm):
            variables[p] = self.vars[i]
        return Seed(base, variables)


def replay(quiver: Quiver, values: Sequence, word: Sequence[int], divide) -> tuple[Quiver, list]:
    """The quiver and values after exchanges along word, leftmost first, over any
    values `exchange` accepts.  A k outside the quiver or frozen raises before any
    exchange."""
    values = list(values)
    for k in word:
        quiver, values[k] = quiver.mutate(k), exchange(quiver, values, k, divide)
    return quiver, values


def exchange(quiver: Quiver, values: Sequence, k: int, divide):
    """The new value x'_k of the exchange relation x_k * x'_k = P+ + P- at
    vertex index k, where P+ multiplies values[j]^b_jk over the arrows
    j -> k and P- values[j]^b_kj over the arrows k -> j.

    The values may be Laurent polynomials or integers, and `divide` is
    exact division.
    """
    b, m = quiver.b, quiver.m
    inc = product([values[j] ** b[j][k] for j in range(m) if b[j][k] > 0], values[k])
    out = product([values[j] ** b[k][j] for j in range(m) if b[k][j] > 0], values[k])
    return divide(inc + out, values[k])


def product(factors: Sequence, one):
    """The factors multiplied from the first, or one ** 0 if there are none."""
    return math.prod(factors[1:], start=factors[0]) if factors else one ** 0
