import itertools

import pytest

from friezelab import catalog
from friezelab.cc import cc_map, growth_via_homogeneous, quiddity_from_tube
from friezelab.chebyshev import chebyshev_S, chebyshev_T, second_kind
from friezelab.errors import UnsupportedQuiver
from friezelab.frieze import Quiddity, generate, growth
from friezelab.laurent import LaurentPoly
from friezelab.quivers import Quiver
from friezelab.rep import QuiverRep, grassmannian_table
from friezelab.reproduce import check_d4_degenerate_identity
from friezelab.seeds import Seed
from friezelab.theta import growth_from_affine_quiver

from laurent_text import parse_laurent
from rep_helpers import direct_sum

D4_VARS = ("x1", "x2", "x3", "x4", "x5")

# the displayed character of the dimension-(1,1,2,1,1) representation:
# 8 numerator terms with coefficients 1,2,1,4,2,1,2,1 over x1*x2*x3^2*x4*x5
DISPLAYED_NUMERATOR = (
    "x1^2*x2^2*x3^2 + 2*x1^2*x2^2*x3 + x1^2*x2^2"
    " + 4*x1*x2*x3*x4*x5 + 2*x1*x2*x4*x5"
    " + x3^2*x4^2*x5^2 + 2*x3*x4^2*x5^2 + x4^2*x5^2")


def displayed_character():
    num = parse_laurent(DISPLAYED_NUMERATOR, D4_VARS)
    den = parse_laurent("x1*x2*x3^2*x4*x5", D4_VARS)
    return num.div_exact(den)


def test_cc_map_matches_displayed_character():
    value = cc_map(catalog.d4_m_lambda(2))
    assert value.laurent == displayed_character()
    assert value.at_ones == 14


def test_cc_map_zero_representation():
    q = catalog.d4_star()
    value = cc_map(QuiverRep(q, (0,) * q.m, [[] for _ in q.arrows()]))
    assert value.laurent == 1
    assert value.at_ones == 1


def test_cc_map_multiplicative_on_direct_sums():
    (r1, r2), (s1, s2), _ = catalog.d4_tubes()
    for a, b in ((r1, r2), (s1, s2), (r1, s1)):
        assert cc_map(direct_sum(a, b)).laurent == cc_map(a).laurent * cc_map(b).laurent


def kronecker_preprojective(a):
    """M_a: dims (a, a + 1) and maps [I_a; 0] and [0; I_a] on the Kronecker quiver."""
    identity = [[int(i == j) for j in range(a)] for i in range(a)]
    zero = [[0] * a]
    return QuiverRep(catalog.kronecker(), (a, a + 1), [identity + zero, zero + identity])


@pytest.mark.parametrize("a", [0, 1, 2, 3])
def test_cc_map_matches_kronecker_mutation(a):
    # mutation of the initial seed at 1, 0, 1, ... makes X_{M_0}, X_{M_1}, ...
    # in turn
    seed = Seed.initial(catalog.kronecker())
    for step in range(a + 1):
        seed = seed.mutate(1 - step % 2)
    assert seed.vars[1 - a % 2] == cc_map(kronecker_preprojective(a)).laurent


def test_cc_refuses_oriented_cycle():
    # the acyclic exponent rule would turn this table into the constant 2
    q = Quiver(["0", "1", "2"], [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    M = QuiverRep(q, (1, 1, 1), [[[1]]] * 3)
    with pytest.raises(UnsupportedQuiver, match="oriented cycles"):
        cc_map(M)
    with pytest.raises(UnsupportedQuiver, match="oriented cycles"):
        quiddity_from_tube(M.quiver, [M])


def test_cc_at_ones_equals_table_sum():
    for M in (catalog.d4_m_lambda(2), catalog.d4_tubes()[0][0],
              catalog.kronecker_regular()):
        assert cc_map(M).at_ones == sum(grassmannian_table(M).values())


def test_cc_coefficients_positive_on_fixtures():
    fixtures = [catalog.d4_m_lambda(2), catalog.d4_m_lambda(0),
                catalog.kronecker_regular()]
    for pair in catalog.d4_tubes():
        fixtures.extend(pair)
    for M in fixtures:
        assert all(c > 0 for c in cc_map(M).laurent.terms.values())


def test_quiddity_from_tubes():
    q = catalog.d4_star()
    tubes = catalog.d4_tubes()
    assert quiddity_from_tube(q, tubes[0]) == Quiddity([8, 2])
    assert quiddity_from_tube(q, tubes[1]) == Quiddity([4, 4])
    assert quiddity_from_tube(q, tubes[2]) == Quiddity([4, 4])


def test_quiddity_from_tubes_needs_no_laurent_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Laurent arithmetic in quiddity_from_tube")

    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    monkeypatch.setattr(LaurentPoly, "__add__", refuse)
    q = catalog.d4_star()
    assert [quiddity_from_tube(q, tube) for tube in catalog.d4_tubes()] == [
        Quiddity([8, 2]), Quiddity([4, 4]), Quiddity([4, 4])]


def test_quiddity_from_kronecker_tube():
    q = catalog.kronecker()
    quiddity = quiddity_from_tube(q, [catalog.kronecker_regular()])
    assert quiddity == Quiddity([3])
    frieze = generate(quiddity, depth=3)
    assert growth(frieze, 1) == 3 == growth_from_affine_quiver(q)


def test_quiddity_rejects_foreign_rep():
    with pytest.raises(ValueError):
        quiddity_from_tube(catalog.kronecker(), [catalog.d4_m_lambda(2)])


def test_friezes_from_tubes():
    q = catalog.d4_star()
    tubes = catalog.d4_tubes()
    f1 = generate(quiddity_from_tube(q, tubes[0]), depth=7)
    assert f1.row(1) == [8, 2]
    assert f1.row(2) == [15, 15]
    assert f1.row(3) == [28, 112]
    assert f1.row(4) == [209, 209]
    assert f1.row(5) == [1560, 390]
    assert f1.row(6) == [2911, 2911]
    f2 = generate(quiddity_from_tube(q, tubes[1]), depth=4)
    assert f2.row(2) == [15, 15]
    assert f2.row(3) == [56, 56]
    assert f2.row(4) == [209, 209]


def test_e6_quiddity_fixture_friezes():
    for quiddity, rows in zip(catalog.E6_TUBE_QUIDDITIES,
                              ([323, 323], [48, 48, 48], [48, 48, 48])):
        f = generate(quiddity, depth=4)
        assert f.row(2) == rows
        assert growth(f, 1) == 322


def test_homogeneous_powers_at_14():
    u = [chebyshev_S(k, 14) for k in range(4)]
    assert u == [1, 14, 195, 2716]


def test_homogeneous_powers_at_two():
    assert list(itertools.islice(second_kind(2), 2, 13)) == list(range(1, 12))


def test_growth_via_homogeneous():
    assert growth_via_homogeneous(14, 1) == 14
    assert growth_via_homogeneous(14, 2) == 195 - 1 == 194
    assert growth_via_homogeneous(14, 3) == 2716 - 14 == 2702
    assert growth_via_homogeneous(7, 1) == 7


def test_growth_identity_against_frieze_and_chebyshev():
    f = generate([8, 2], depth=14)
    for k in range(1, 7):
        sk = growth_via_homogeneous(14, k)
        assert sk == chebyshev_T(k, 14)
        assert sk == growth(f, k)


def test_tube_growth_equals_homogeneous_growth():
    q = catalog.d4_star()
    for tube in catalog.d4_tubes():
        f = generate(quiddity_from_tube(q, tube), depth=7)
        for k in (1, 2, 3):
            assert growth(f, k) == growth_via_homogeneous(14, k)


def test_degenerate_cc_identity():
    check_d4_degenerate_identity()
    assert cc_map(catalog.d4_m_lambda(0)).at_ones == 15


def test_growth_via_homogeneous_equals_bracelet_value():
    # the k-th bracelet at ones is T_k of the first one's value
    for x1 in (3, 14, 322):
        for k in range(1, 7):
            assert growth_via_homogeneous(x1, k) == chebyshev_T(k, x1)
