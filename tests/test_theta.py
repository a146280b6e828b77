import importlib
import itertools

import pytest

from friezelab import catalog
from friezelab.cc import cc_map, growth_via_homogeneous
from friezelab.chebyshev import chebyshev_T
from friezelab.errors import (CrossCheckFailed, MissingDoubleArrow, NotAffine, NotDivisible,
                              SearchNotFound)
from friezelab.laurent import LaurentPoly
from friezelab.modular import GENERATORS, modular_generator
from friezelab.quivers import MutationWord, Quiver, has_double_arrow, mutation_class_search
from friezelab.seeds import Seed
from friezelab.theta import (double_arrow_seed, growth_from_affine_quiver, theta,
                             theta_invariance, triangle_neighbors)

from laurent_text import parse_laurent

theta_module = importlib.import_module("friezelab.theta")


# a wild star with five leaves, and the Dynkin quiver A4
NOT_AFFINE = {"star5": catalog._quiver_from_arrows("012345", [(l, "0") for l in "12345"]),
              "a4": catalog._quiver_from_arrows("0123", ["01", "12", "23"])}


def test_triangle_neighbors_shapes():
    fan = catalog.d_double_arrow(4)
    u, v = fan.index("0"), fan.index("1")
    assert sorted(fan.labels[w] for w in triangle_neighbors(fan, u, v)) == ["a", "b", "c"]

    ann = catalog.e_double_arrow(6)
    u, v = ann.index("0"), ann.index("1")
    assert sorted(ann.labels[w] for w in triangle_neighbors(ann, u, v)) == ["a", "b", "c"]

    kro = catalog.kronecker()
    assert triangle_neighbors(kro, 0, 1) == []
    with pytest.raises(MissingDoubleArrow):
        triangle_neighbors(kro, 1, 0)


def test_theta_symbolic_on_triangle_fan():
    seed = Seed.initial(catalog.d_double_arrow(4))
    names = seed.vars[0].vars
    expected = parse_laurent(
        "x1*x0^-1 + x0*x1^-1 + x_a*x_b*x_c*x0^-1*x1^-1", names)
    assert theta(seed).laurent == expected
    assert theta(seed).integer == 3


def test_theta_all_variables_one():
    quiver = catalog.d_double_arrow(4)
    ones = [LaurentPoly.one(("t",)) for _ in range(quiver.m)]
    seed = Seed(quiver, ones)
    assert theta(seed).laurent == 3


def test_theta_two_triangles_with_frozen_variables():
    # annulus-type shape: 0 => 1 with two triangles; freezing the triangle
    # vertices specializes their variables to 1 and the element collapses to
    # the Kronecker one
    from friezelab.quivers import Quiver

    labels = ["0", "1", "a", "b"]
    arrows = {("0", "1"): 2, ("1", "a"): 1, ("a", "0"): 1,
              ("1", "b"): 1, ("b", "0"): 1}
    b = [[0] * 4 for _ in range(4)]
    for (s, t), mult in arrows.items():
        b[labels.index(s)][labels.index(t)] += mult
        b[labels.index(t)][labels.index(s)] -= mult
    quiver = Quiver(labels, b, frozen=["a", "b"])
    assert sorted(quiver.labels[w] for w in triangle_neighbors(quiver, 0, 1)) == ["a", "b"]
    seed = Seed.initial(quiver)
    names = seed.vars[0].vars
    assert theta(seed).laurent == parse_laurent(
        "x1*x0^-1 + x0*x1^-1 + x0^-1*x1^-1", names)
    assert theta(seed).integer == 3


def test_theta_kronecker_empty_product():
    seed = Seed.initial(catalog.kronecker())
    names = seed.vars[0].vars
    assert theta(seed).laurent == parse_laurent(
        "x1*x0^-1 + x0*x1^-1 + x0^-1*x1^-1", names)
    assert theta(seed).integer == 3


def test_theta_missing_double_arrow():
    with pytest.raises(MissingDoubleArrow):
        theta(Seed.initial(catalog.d4_star()))


@pytest.mark.parametrize("name, value", [("d4_star", 14), ("kronecker", 3), ("e6_affine", 322),
                                         ("e7_affine", 702)])
def test_growth_from_affine_quiver_values(monkeypatch, name, value):
    # a certified affine quiver takes the integer replay, never the Laurent form
    monkeypatch.setattr(theta_module, "theta", None)
    assert growth_from_affine_quiver(getattr(catalog, name)()) == value


def test_growth_route_reads_other_quivers_through_laurent_theta():
    # the wild star mutated at its centre is cyclic: its growth element is
    # not a Laurent polynomial, though an integer replay would divide to 7
    star = catalog._quiver_from_arrows("012345", ["10", "20", "03", "04", "05"]).mutate(0)
    with pytest.raises(NotDivisible):
        growth_from_affine_quiver(star)


def test_growth_route_reads_a_cyclic_affine_quiver_through_laurent_theta():
    fan = catalog.e_double_arrow(6)
    assert growth_from_affine_quiver(fan) == 3 == theta(Seed.initial(fan)).integer


@pytest.mark.parametrize("name", sorted(NOT_AFFINE))
def test_growth_route_refuses_non_affine_acyclic_quivers(name):
    # before the guard the star got 23 on integers and A4 exhausted its class
    with pytest.raises(NotAffine, match="radical has dimension 0"):
        growth_from_affine_quiver(NOT_AFFINE[name])
    with pytest.raises(NotAffine, match="radical has dimension 0"):
        double_arrow_seed(NOT_AFFINE[name])


def test_growth_route_searches_cyclic_and_frozen_quivers_unguarded():
    fan = catalog.d_double_arrow(4)
    seed, word = double_arrow_seed(fan)
    assert word == MutationWord([]) and seed == Seed.initial(fan)
    # A4 with a frozen end is not affine, but only unfrozen acyclic quivers are checked
    a4 = NOT_AFFINE["a4"]
    frozen = Quiver(a4.labels, a4.b, frozen=["3"])
    with pytest.raises(SearchNotFound):
        double_arrow_seed(frozen)


@pytest.mark.parametrize("name", ["d4_star", "e6_affine", "e7_affine", "kronecker"])
def test_integer_path_matches_laurent_theta(name):
    quiver = getattr(catalog, name)()
    _, word = mutation_class_search(quiver, has_double_arrow)
    value = theta(Seed.initial(quiver).mutate_word(word))
    assert growth_from_affine_quiver(quiver) == value.integer == value.laurent.at_ones()


def test_integer_path_certifies_its_divisions(monkeypatch):
    monkeypatch.setattr(theta_module, "triangle_neighbors", lambda *args: [])
    with pytest.raises(CrossCheckFailed):
        growth_from_affine_quiver(catalog.d4_star())


def test_theta_matches_cc_character_in_initial_variables():
    seed, _ = double_arrow_seed(catalog.d4_star(), 1000)
    assert theta(seed).laurent == cc_map(catalog.d4_m_lambda(2)).laurent


def test_theta_invariance_under_modular_generators():
    seed = Seed.initial(catalog.e_double_arrow(6))
    for g in GENERATORS:
        assert theta(modular_generator(seed, g)) == theta(seed)


def test_theta_invariance_empty_words():
    seed = Seed.initial(catalog.kronecker())
    assert theta_invariance(seed, [])


def test_theta_invariance_short_words_on_triangle_fan():
    # all words of length <= 4 that happen to return to a double-arrow shape
    seed = Seed.initial(catalog.d_double_arrow(4))
    m = seed.quiver.m
    words = []
    for length in (1, 2, 3, 4):
        for word in itertools.product(range(m), repeat=length):
            if seed.quiver.mutate_word(word).double_arrows():
                words.append(word)
    assert words
    assert theta_invariance(seed, words)


def test_theta_invariance_rejects_bad_word():
    seed = Seed.initial(catalog.kronecker())
    # after one mutation the double arrow persists on the Kronecker quiver,
    # so use the triangle fan where mutating at "a" kills it
    fan_seed = Seed.initial(catalog.d_double_arrow(4))
    with pytest.raises(MissingDoubleArrow):
        theta_invariance(fan_seed, [(fan_seed.quiver.index("a"),)])
    assert theta_invariance(seed, [(0,), (1,)])


MARKOV = Quiver(["0", "1", "2"], [[0, 2, -2], [-2, 0, 2], [2, -2, 0]])


def test_theta_invariance_fails_on_the_markov_quiver():
    # 0 => 1 => 2 => 0 keeps its double arrows under every mutation, but the
    # triangle product changes: theta at ones is 3, then 4 after mu_1
    seed = Seed.initial(MARKOV)
    assert theta(seed).integer == 3
    assert theta(seed.mutate(1)).integer == 4
    assert not theta_invariance(seed, [(1,)])
    assert theta_invariance(seed, [(1, 1)])


def test_bracelet_values():
    # the k-th bracelet at ones is s_k of the growth element's integer value
    assert growth_via_homogeneous(14, 1) == 14
    assert growth_via_homogeneous(14, 2) == 194
    assert growth_via_homogeneous(322, 3) == 322 ** 3 - 3 * 322 == 33385282
    with pytest.raises(ValueError):
        growth_via_homogeneous(14, 0)


def test_bracelet_satisfies_growth_recurrence():
    for theta_int in (3, 14, 322):
        prev, cur = 2, theta_int
        for k in range(1, 8):
            assert growth_via_homogeneous(theta_int, k) == cur
            prev, cur = cur, theta_int * cur - prev
