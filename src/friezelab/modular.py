"""Generators of the cluster modular group on the affine E double-arrow
base quivers: the fans of catalog.E_LEGS, 0 => 1 with triangles 1 -> w -> 0
and a leg of legs[w] = (0, 1, n - 5) vertices off w = a, b, c.

A generator t_w is a mutation word on the base quiver, leg w from its far
end, then 0 and 1 (tc = mu_ck ... mu_c1 mu_c mu_0 mu_1), followed by the
vertex permutation that returns the quiver to its base labeling.  Its
exponent in ta^2 == tb^3 == tc^(n-3) is legs[w] + 2.  The symmetry gamma of
the 7-vertex quiver swaps legs b and c.

The word is applied leftmost factor first: under that convention every
generator returns the base quiver to a relabeling of itself, and the
restoring permutation is the rotation 0 -> 1 -> w -> 0, which fixes every
other vertex.  The rotation is stated, not searched for: Seed.restored
checks on every application that it carries the quiver back to the base.

A seed on any relabeling of the base quiver gets the generator carried onto
its own labels by the least isomorphism sigma from its quiver to the base:
the seed mutates along sigma^-1(word) and is restored by
sigma^-1 . permutation . sigma.  A word of generators finds sigma once.
Equal canonical keys give one isomorphism sigma0, which sends the seed's
canonical order onto the base's, position by position; every other is
alpha . sigma0 for an automorphism alpha of the base.  Besides the identity
the E7 and E8 fans have no automorphism and the E6 fan has only gamma, so
sigma is sigma0 on E7 and E8, and the smaller of sigma0 and gamma . sigma0
on E6.
"""

from __future__ import annotations

import functools

from .catalog import E_LEGS, e_double_arrow, e_legs, leg
from .errors import UnsupportedQuiver
from .quivers import Quiver
from .seeds import Seed

GENERATORS = ("ta", "tb", "tc", "gamma")


def rank_of(quiver: Quiver) -> int:
    """The n with quiver isomorphic to the affine E_n double-arrow shape."""
    n = quiver.m - 1
    if n not in E_LEGS:
        raise UnsupportedQuiver("the cluster modular group is implemented only for the affine "
                                "E6, E7 and E8 base quivers (7, 8 or 9 vertices); got %d vertices"
                                % quiver.m)
    return n


def generator_labels(n: int, generator: str) -> list[str]:
    """Mutation word of a generator t_w, leftmost composition factor first:
    leg w from its far end, then 0 and 1."""
    legs = e_legs(n)
    w = generator[1:]
    if generator[:1] != "t" or w not in legs:
        raise ValueError("unknown generator %r" % generator)
    return leg(w, legs[w])[::-1] + ["0", "1"]


@functools.cache
def _base_form(n: int) -> tuple[tuple, tuple[int, ...]]:
    return e_double_arrow(n)._canonical_form()


@functools.cache
def _resolve(n: int, generator: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The mutation sequence of a generator and its restoring permutation:
    t_w rotates 0 -> 1 -> w -> 0, and gamma swaps legs b and c."""
    base = e_double_arrow(n)
    if generator == "gamma":
        if n != 6:
            raise ValueError("the symmetry gamma exists only for n = 6")
        labels, moves = [], {"b": "c", "c": "b", "b1": "c1", "c1": "b1"}
    else:
        labels = generator_labels(n, generator)
        moves = {"0": "1", "1": generator[1:], generator[1:]: "0"}
    return (tuple(map(base.index, labels)),
            tuple(base.index(moves.get(l, l)) for l in base.labels))


def modular_generator(seed: Seed, generator: str) -> Seed:
    """Apply a modular-group generator to a seed whose quiver is isomorphic
    to an affine E double-arrow base quiver, returning a seed on the same
    quiver."""
    return apply_generator_word(seed, [generator])


def apply_generator_word(seed: Seed, generators: list[str]) -> Seed:
    """Apply named generators left to right (e.g. ["ta", "ta"]).  Each
    returns a seed on the input quiver, so one sigma carries them all."""
    inverse = None
    for generator in generators:
        if generator not in GENERATORS:
            raise ValueError("generator must be one of %s" % (GENERATORS,))
        if inverse is None:
            n = rank_of(seed.quiver)
            key, order = seed.quiver._canonical_form()
            base_key, base_order = _base_form(n)
            if key != base_key:
                raise UnsupportedQuiver("seed quiver is not isomorphic to the E%d double-arrow "
                                        "shape" % n)
            sigma = tuple(w for _, w in sorted(zip(order, base_order)))
            if n == 6:
                gamma = _resolve(6, "gamma")[1]
                sigma = min(sigma, tuple(gamma[s] for s in sigma))
            inverse = sorted(range(len(sigma)), key=sigma.__getitem__)
        word, perm = _resolve(n, generator)
        # the generator conjugated by sigma: word sigma^-1(word), permutation
        # sigma^-1 . perm . sigma
        seed = seed.mutate_word([inverse[k] for k in word]).restored(
            [inverse[perm[s]] for s in sigma], seed.quiver)
    return seed


def check_relations(seed: Seed) -> dict[str, bool]:
    """The defining relations of the modular group, evaluated as exact seed
    equalities on a seed of an affine E_n double-arrow base quiver:
    ta^2 == tb^3 == tc^(n-3), and for n = 6 also gamma^2 == id and
    gamma*ta == ta*gamma."""
    n = rank_of(seed.quiver)
    powers = {"t%s^%d" % (w, k + 2): apply_generator_word(seed, ["t" + w] * (k + 2))
              for w, k in E_LEGS[n].items()}
    names = list(powers)
    relations = {"%s == %s" % pair: powers[pair[0]] == powers[pair[1]]
                 for pair in zip(names, names[1:])}
    if n == 6:
        relations["gamma^2 == id"] = apply_generator_word(seed, ["gamma", "gamma"]) == seed
        relations["gamma*ta == ta*gamma"] = (apply_generator_word(seed, ["gamma", "ta"])
                                             == apply_generator_word(seed, ["ta", "gamma"]))
    return relations
