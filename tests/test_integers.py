"""Every public integer argument is read through `errors.integer`: a bool
or a float is refused with the one "must be an integer" message, and a value
below the argument's least value raises a ValueError, each naming the
argument."""

import re

import pytest

from friezelab import catalog
from friezelab.cc import growth_via_homogeneous, homogeneous_growth
from friezelab.chebyshev import chebyshev_S, chebyshev_T
from friezelab.frieze import Quiddity, generate, growth, measured_growth
from friezelab.laurent import LaurentPoly
from friezelab.quivers import MutationWord, Quiver, has_double_arrow, mutation_class_search
from friezelab.rep import QuiverRep, count_points, counting_primes
from friezelab.theta import growth_from_affine_quiver

X = LaurentPoly.variable(("x",), "x")


def _rep_with_dimension(d):
    return QuiverRep(catalog.kronecker(), (1, d), [[[1]], [[1]]])


def _rep_with_arrow_tail(t):
    data = catalog.d4_m_lambda(2).to_json()
    data["maps"][0]["arrow"][0] = t
    return QuiverRep.from_json(data)


# (call with the argument, one below its least value or None if it has none,
#  the name that the messages give)
ROWS = {
    "growth_via_homogeneous.k": (lambda k: growth_via_homogeneous(14, k), 0, "k"),
    "chebyshev_T.k": (lambda k: chebyshev_T(k, 14), -1, "k"),
    "chebyshev_S.k": (lambda k: chebyshev_S(k, 14), -3, "k"),
    "Quiddity.entry": (lambda a: Quiddity([8, a]), 0, "quiddity entry"),
    "generate.depth": (lambda depth: generate([8, 2], depth), 0, "depth"),
    "growth.k": (lambda k: growth(generate([8, 2], 6), k), 0, "k"),
    "measured_growth.k": (lambda k: measured_growth(generate([8, 2], 6), k), 0, "k"),
    "FriezePattern.row": (lambda r: generate([8, 2], 6).row(r), None, "r"),
    "FriezePattern.entry": (lambda j: generate([8, 2], 6).entry(0, j), None, "j"),
    "LaurentPoly.__pow__": (lambda k: X ** k, -1, "exponent"),
    "QuiverRep.dims": (_rep_with_dimension, -1, "dimension"),
    "affine_a.p": (lambda p: catalog.affine_a(p, 1), 0, "p"),
    "affine_a.q": (lambda q: catalog.affine_a(1, q), 0, "q"),
    "affine_d.rank": (catalog.affine_d, 3, "rank"),
    "d_double_arrow.rank": (catalog.d_double_arrow, 3, "rank"),
    "homogeneous_growth.x1": (lambda x1: next(homogeneous_growth(x1)), None, "x1"),
    "growth_via_homogeneous.x1": (lambda x1: growth_via_homogeneous(x1, 3), None, "x1"),
    "mutation_class_search.max_nodes":
        (lambda n: mutation_class_search(catalog.d4_star(), has_double_arrow, n), 0, "max_nodes"),
    "growth_from_affine_quiver.max_nodes":
        (lambda n: growth_from_affine_quiver(catalog.d4_star(), n), 0, "max_nodes"),
    "counting_primes.n": (lambda n: counting_primes(catalog.d4_m_lambda(2), n), -1, "n"),
    "e_legs.n": (catalog.e_legs, 5, "n"),
    "e_double_arrow.n": (catalog.e_double_arrow, 5, "n"),
    "leg.k": (lambda k: catalog.leg("a", k), -1, "k"),
    "Quiver.permuted.perm": (lambda s: catalog.kronecker().permuted([s, 0]), -1, "perm"),
    "Quiver.b": (lambda x: Quiver(["0", "1"], [[0, x], [-1, 0]]), None, "B entry"),
    "Quiver.mutate.k": (lambda k: catalog.kronecker().mutate(k), None, "k"),
    "MutationWord": (lambda k: MutationWord([0, k]), None, "mutation word entry"),
    "LaurentPoly.exponent": (lambda a: LaurentPoly(("x",), {(a,): 1}), None, "exponent"),
    "LaurentPoly.coefficient": (lambda c: LaurentPoly(("x",), {(1,): c}), None, "coefficient"),
    "chebyshev_T.x": (lambda x: chebyshev_T(3, x), None, "x"),
    "QuiverRep.maps": (lambda x: QuiverRep(catalog.kronecker(), (1, 1), [[[1]], [[x]]]), None,
                       "matrix entry"),
    "QuiverRep.params": (lambda v: QuiverRep(catalog.kronecker(), (1, 1), [[[1]], [[1]]],
                                             {"lambda": v}), None, "lambda"),
    "QuiverRep.from_json.arrow": (_rep_with_arrow_tail, None, "arrow endpoint"),
    "count_points.e": (lambda x: count_points(catalog.d4_m_lambda(2), (x, 1, 1, 0, 0), 3), None,
                       "dimension vector entry"),
    "count_points.p": (lambda p: count_points(catalog.d4_m_lambda(2), (1, 1, 1, 0, 0), p), None,
                       "p"),
}


@pytest.mark.parametrize("call, below, name", ROWS.values(), ids=ROWS.keys())
def test_integer_arguments_are_read_through_one_reader(call, below, name):
    for value in (True, 2.5):
        message = "^%s must be an integer, got %s$" % (re.escape(name), re.escape(repr(value)))
        with pytest.raises(ValueError, match=message):
            call(value)
    if below is not None:
        with pytest.raises(ValueError, match="^%s " % re.escape(name)):
            call(below)
