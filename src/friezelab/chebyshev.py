"""The three-term recurrence P(k+1) = c*P(k) - P(k-1) over ints or Laurent
polynomials, and the only place it is run.  With a quiddity's coefficients it
gives the frieze diagonals of `frieze.generate`; with one coefficient x, the
normalized Chebyshev values: the first kind from T0 = 2, T1 = x, the second
kind from S0 = 1, S1 = x with S(-1) = 0, S(-2) = -1, and T(k) = S(k) - S(k-2).
The constants are multiples of x ** 0, the unit of x's ring, so every value
lies in that ring.
"""

from __future__ import annotations

from itertools import cycle, islice
from typing import Iterator, Sequence

from .errors import integer
from .laurent import LaurentPoly


def recurrence(first, second, coefficients: Sequence) -> Iterator:
    """P(0) = first, P(1) = second, P(k+1) = c*P(k) - P(k-1), c cycling from coefficients[0]."""
    yield first
    for c in cycle(coefficients):
        yield second
        first, second = second, c * second - first


def _ring_element(x):
    """x itself when it is a LaurentPoly, else x read as an integer."""
    return x if isinstance(x, LaurentPoly) else integer(x, name="x")


def first_kind(x) -> Iterator:
    """T_0(x), T_1(x), ..."""
    x = _ring_element(x)
    return recurrence(2 * x ** 0, x, (x,))


def chebyshev_T(k: int, x):
    """First-kind value T_k(x); x may be an int or a LaurentPoly."""
    return next(islice(first_kind(x), integer(k, least=0, name="k"), None))


def second_kind(x) -> Iterator:
    """S_{-2}(x), S_{-1}(x), S_0(x), S_1(x), ..."""
    x = _ring_element(x)
    return recurrence(-x ** 0, 0 * x ** 0, (x,))


def chebyshev_S(k: int, x):
    """Second-kind value S_k(x) for k >= -2."""
    return next(islice(second_kind(x), integer(k, least=-2, name="k") + 2, None))
