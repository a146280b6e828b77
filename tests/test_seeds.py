import operator
import random

import pytest

from friezelab import catalog
from friezelab.frieze import Quiddity
from friezelab.laurent import LaurentPoly
from friezelab.quivers import Quiver
from friezelab.seeds import Seed, exchange, replay, variable_name
from friezelab.theta import _exact_quotient, theta

from laurent_text import parse_laurent
from quiver_helpers import PINNED_SEARCHES


def test_variable_names():
    assert variable_name("0") == "x0"
    assert variable_name("12") == "x12"
    assert variable_name("a") == "x_a"
    assert variable_name("b1") == "x_b1"


def test_initial_seed_variables_are_generators():
    seed = Seed.initial(catalog.d4_star())
    names = ("x1", "x2", "x3", "x4", "x5")
    for name, var in zip(names, seed.vars):
        assert var == LaurentPoly.variable(names, name)


def test_kronecker_exchange():
    seed = Seed.initial(catalog.kronecker())
    mutated = seed.mutate(1)
    names = ("x0", "x1")
    assert mutated.vars[1] == parse_laurent("x0^2*x1^-1 + x1^-1", names)
    assert mutated.vars[0] == LaurentPoly.variable(names, "x0")


def test_exchange_definition_at_initial_seed():
    # x_k' * x_k equals the in-product plus the out-product of initial monomials
    seed = Seed.initial(catalog.e6_affine())
    q = seed.quiver
    for k in range(q.m):
        mutated = seed.mutate(k)
        inc = LaurentPoly.one(seed.vars[0].vars)
        out = LaurentPoly.one(seed.vars[0].vars)
        for j in range(q.m):
            if q.b[j][k] > 0:
                inc = inc * seed.vars[j] ** q.b[j][k]
            if q.b[k][j] > 0:
                out = out * seed.vars[j] ** q.b[k][j]
        assert mutated.vars[k] * seed.vars[k] == inc + out


def test_seed_mutation_is_involution():
    rng = random.Random(42)
    pool = [catalog.kronecker(), catalog.d4_star(), catalog.e6_affine(),
            catalog.d_double_arrow(4), catalog.e_double_arrow(6)]
    checked = 0
    for quiver in pool:
        seed = Seed.initial(quiver)
        for _ in range(8):
            seed = seed.mutate(rng.randrange(quiver.m))
        for _ in range(25):
            k = rng.randrange(quiver.m)
            assert seed.mutate(k).mutate(k) == seed
            checked += 1
    assert checked == 125


def test_laurent_phenomenon_random_words():
    # div_exact inside mutate would raise NotDivisible on any failure
    rng = random.Random(7)
    pool = [catalog.kronecker(), catalog.d4_star(), catalog.affine_a(2, 1),
            catalog.e6_affine()]
    for _ in range(60):
        quiver = rng.choice(pool)
        seed = Seed.initial(quiver)
        for _ in range(rng.randint(1, 12)):
            seed = seed.mutate(rng.randrange(quiver.m))
        assert all(var.terms for var in seed.vars)


@pytest.mark.parametrize("value", [catalog.d4_star(), Seed.initial(catalog.kronecker()),
                                   catalog.d4_m_lambda(2), Quiddity([1, 2, 1, 2])])
def test_equality_with_another_type_is_left_to_it(value):
    assert value.__eq__(object()) is NotImplemented
    assert value != object()


def test_seed_needs_one_variable_per_vertex():
    with pytest.raises(ValueError, match="one variable per vertex"):
        Seed(catalog.kronecker(), Seed.initial(catalog.d4_star()).vars)


@pytest.mark.parametrize("k", [-1, 5])
def test_a_vertex_index_outside_the_quiver_raises(k):
    # -1 used to read the last column without negating the last row
    quiver = catalog.d4_star()
    message = "vertex index %d is outside 0..4" % k
    for mutate in (quiver.mutate, Seed.initial(quiver).mutate,
                   lambda k: replay(quiver, [1] * quiver.m, [0, k], _exact_quotient)):
        with pytest.raises(IndexError, match=message):
            mutate(k)


@pytest.mark.parametrize("k", [True, 1.0])
def test_a_vertex_index_that_is_not_an_integer_raises(k):
    # True used to mutate vertex 1, and 1.0 to fail inside tuple indexing
    quiver = catalog.d4_star()
    for mutate in (quiver.mutate, Seed.initial(quiver).mutate,
                   lambda k: replay(quiver, [1] * quiver.m, [1, k], _exact_quotient)):
        with pytest.raises(ValueError, match="k must be an integer, got %r" % k):
            mutate(k)


REPLAY_WORDS = {name: PINNED_SEARCHES[name][:2] for name in ("d4", "d5", "e6", "e7")}
REPLAY_WORDS["kronecker-12"] = (catalog.kronecker, [0, 1] * 6)


@pytest.mark.parametrize("name", sorted(REPLAY_WORDS))
def test_integer_replay_is_the_laurent_replay_at_ones(name):
    make, word = REPLAY_WORDS[name]
    quiver = make()
    seed = Seed.initial(quiver).mutate_word(word)
    arrived, values = replay(quiver, [1] * quiver.m, word, _exact_quotient)
    assert arrived == seed.quiver
    assert values == [var.at_ones() for var in seed.vars]


class MaxPlus(tuple):
    """A d-vector: the product adds, the sum is the componentwise max, a
    power scales and division subtracts."""
    def __mul__(self, other): return MaxPlus(map(operator.add, self, other))
    def __add__(self, other): return MaxPlus(map(max, self, other))
    def __pow__(self, n): return MaxPlus(n * x for x in self)
    def divide(self, other): return MaxPlus(map(operator.sub, self, other))


def test_replay_computes_denominator_vectors_on_max_plus_values():
    # d(x_i) = -e_i (Fomin-Zelevinsky, Cluster algebras IV, section 7); the word
    # ends at a quasi-simple of the rank-2 tube of affine E8
    quiver = catalog.e8_affine()
    start = [MaxPlus(-int(i == j) for j in range(quiver.m)) for i in range(quiver.m)]
    _, values = replay(quiver, start, [0, 2, 4, 5, 6, 8, 3, 5, 1, 7], MaxPlus.divide)
    assert values[7] == (1, 1, 2, 2, 3, 3, 2, 1, 2)


def test_frozen_vertex_never_mutates():
    q = Quiver(["0", "1", "a"], [[0, 1, -1], [-1, 0, 1], [1, -1, 0]], frozen=["a"])
    seed = Seed.initial(q)
    assert seed.vars[2] == 1
    with pytest.raises(ValueError):
        seed.mutate(2)


def test_restored_requires_matching_quiver():
    seed = Seed.initial(catalog.d4_star())
    # swapping the sink "1" with the center "3" does not preserve the B-matrix
    with pytest.raises(ValueError):
        seed.restored((2, 1, 0, 3, 4), catalog.d4_star())
    # swapping the two sinks does: it is a quiver automorphism
    moved = seed.restored((1, 0, 2, 3, 4), catalog.d4_star())
    assert moved.quiver == catalog.d4_star()
    assert moved.vars[0] == seed.vars[1]
    # a repeated or out-of-range entry is not a relabelling, even where the
    # B-matrix would match
    empty = Quiver(["0", "1", "2"], [[0] * 3] * 3)
    for perm in ([0, 0, 2], [0, 1, 3]):
        with pytest.raises(ValueError, match=r"perm \[0, \d, \d\] is not a permutation"):
            Seed.initial(empty).restored(perm, empty)
    with pytest.raises(ValueError, match="is not a permutation of range"):
        empty.permuted([0, 0, 2])


def test_isolated_vertex_exchanges_empty_products():
    # no arrow meets the vertex: both products are empty, so each is the unit
    # of the values' ring and x0 * x0' = 1 + 1
    q = Quiver(["0"], [[0]])
    assert Seed.initial(q).mutate(0).vars == (parse_laurent("2*x0^-1", ("x0",)),)
    assert exchange(q, [1], 0, _exact_quotient) == 2


def test_products_start_at_their_first_factor(monkeypatch):
    # exchange and the growth element multiply their factors from the first,
    # so the unit is never an operand of a product
    operands = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda p, q: operands.extend((p, q)) or mul(p, q))
    seed = Seed.initial(catalog.kronecker())
    for i in range(40):
        seed = seed.mutate(i % 2)
    assert seed.vars[i % 2].at_ones() == 37889062373143906  # F_81
    assert theta(Seed.initial(catalog.e_double_arrow(6))).integer == 3
    assert operands and not any(x == 1 for x in operands)


def test_permuted_roundtrip():
    seed = Seed.initial(catalog.e6_affine()).mutate(0)
    perm = (3, 0, 1, 2, 6, 5, 4)
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    moved = seed.restored(perm, seed.quiver.permuted(perm))
    assert moved.vars[perm[0]] == seed.vars[0]
    assert moved.restored(inverse, seed.quiver) == seed
