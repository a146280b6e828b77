from itertools import islice
from typing import Iterator

import pytest

import friezelab.cc as cc_module
from friezelab import catalog
from friezelab.cc import growth_via_homogeneous
from friezelab.chebyshev import chebyshev_S, chebyshev_T, recurrence, second_kind
from friezelab.errors import CrossCheckFailed
from friezelab.laurent import LaurentPoly
from friezelab.theta import growth_from_affine_quiver

from laurent_text import parse_laurent


def test_T_base_cases():
    assert chebyshev_T(0, 5) == 2
    assert chebyshev_T(1, 5) == 5


def test_T_at_14():
    assert chebyshev_T(2, 14) == 194
    # 14*194 - 14, checked by hand
    assert chebyshev_T(3, 14) == 2702


def test_S_base_cases():
    assert chebyshev_S(-2, 9) == -1
    assert chebyshev_S(-1, 9) == 0
    assert chebyshev_S(0, 9) == 1
    assert chebyshev_S(1, 9) == 9


def test_S_at_14():
    assert chebyshev_S(2, 14) == 195
    assert chebyshev_S(3, 14) == 2716


def test_S_at_two_counts_up():
    for k in range(-2, 15):
        assert chebyshev_S(k, 2) == k + 1


def test_invalid_indices():
    with pytest.raises(ValueError):
        chebyshev_T(-1, 3)
    with pytest.raises(ValueError):
        chebyshev_S(-3, 3)
    # True used to read as 1 and a float to fail inside islice
    for k in (True, 2.0, 2.5):
        for call in (lambda: chebyshev_T(k, 14), lambda: chebyshev_S(k, 14),
                     lambda: growth_via_homogeneous(14, k)):
            with pytest.raises(ValueError, match="^k must be an integer, got %r$" % k):
                call()
    # x is an int or a ring element: a float or bool is not read as a number
    for x in (True, 1.5, 2.5):
        for call in (lambda: chebyshev_T(3, x), lambda: chebyshev_S(2, x),
                     lambda: chebyshev_T(1, x)):
            with pytest.raises(ValueError, match="^x must be an integer, got %r$" % x):
                call()


def _laurent_diagonals(names, rows):
    """Entries 0..rows of each diagonal of the frieze whose quiddity is the
    variables named, as generate reads them from the shared recurrence."""
    a = [LaurentPoly.variable(names, v) for v in names]
    n = len(a)
    return [list(islice(recurrence(0, 1, a[(i + 2) % n:] + a[:(i + 2) % n]), rows + 1))
            for i in range(n)]


@pytest.mark.parametrize("names, growth", [(("x", "y"), "x*y - 2"),
                                           (("x", "y", "z"), "x*y*z - x - y - z")])
def test_the_recurrence_runs_laurent_frieze_diagonals(names, growth):
    n = len(names)
    diagonals = _laurent_diagonals(names, 9)
    for i, d in enumerate(diagonals):
        e = diagonals[(i + 1) % n]
        for t in range(1, 9):
            assert d[t] * e[t] - e[t - 1] * d[t + 1] == 1, (i, t)
    # the growth difference d_i[n+1] - d_{i+1}[n-1] is one Laurent polynomial
    differences = {diagonals[i][n + 1] - diagonals[(i + 1) % n][n - 1] for i in range(n)}
    assert differences == {parse_laurent(growth, names)}


@pytest.mark.parametrize("a", [14, -3, LaurentPoly.variable(("x",), "x")])
def test_one_coefficient_recurrence_is_the_second_kind(a):
    # recurrence(0, 1, (a,)) runs from S_{-1}
    assert list(islice(recurrence(0, 1, (a,)), 12)) == list(islice(second_kind(a), 1, 13))


def test_symbolic_first_second_kind_identity():
    x = LaurentPoly.variable(("x",), "x")
    for k in range(0, 21):
        assert chebyshev_T(k, x) == chebyshev_S(k, x) - chebyshev_S(k - 2, x)


def test_symbolic_small_polynomials():
    x = LaurentPoly.variable(("x",), "x")
    assert chebyshev_T(2, x) == parse_laurent("x^2 - 2", ("x",))
    assert chebyshev_T(3, x) == parse_laurent("x^3 - 3*x", ("x",))
    assert chebyshev_S(2, x) == parse_laurent("x^2 - 1", ("x",))
    assert chebyshev_S(3, x) == parse_laurent("x^3 - 2*x", ("x",))
    # the starting constants lie in x's ring, not among the ints
    for value, want in ((chebyshev_T(0, x), 2), (chebyshev_S(-2, x), -1),
                        (chebyshev_S(-1, x), 0)):
        assert isinstance(value, LaurentPoly) and value.vars == x.vars
        assert value == LaurentPoly.constant(x.vars, want)


def off_by_one(fn):
    def corrupted(*args):
        value = fn(*args)
        return (x + 1 for x in value) if isinstance(value, Iterator) else value + 1
    return corrupted


# Each certificate compares two routes to one value.  It must raise a named
# error, not assert, so that it still runs under python -O.
@pytest.mark.parametrize("module, name, call", [
    (cc_module, "first_kind", lambda: growth_via_homogeneous(14, 3)),
    # the third bracelet of the D4 growth element, read at all ones
    pytest.param(cc_module, "first_kind",
                 lambda: growth_via_homogeneous(growth_from_affine_quiver(catalog.d4_star()), 3),
                 id="friezelab.theta-bracelet_value"),
])
def test_cross_checks_raise_on_mismatch(monkeypatch, module, name, call):
    monkeypatch.setattr(module, name, off_by_one(getattr(module, name)))
    with pytest.raises(CrossCheckFailed):
        call()
