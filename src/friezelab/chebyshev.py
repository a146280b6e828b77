"""Normalized Chebyshev recurrences over ints or Laurent polynomials.

Both families satisfy P(k+1) = x*P(k) - P(k-1); the first kind starts at
T0 = 2, T1 = x, the second kind at S0 = 1, S1 = x with the backward
extension S(-1) = 0, S(-2) = -1.  They are related by T(k) = S(k) - S(k-2).
The constants are multiples of x ** 0, the unit of x's ring, so every
value lies in that ring.  This module is the only place the recurrence is
run.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator


def _recurrence(first, second, x) -> Iterator:
    """first, second, then P(k+1) = x*P(k) - P(k-1) without end."""
    while True:
        yield first
        first, second = second, x * second - first


def first_kind(x) -> Iterator:
    """T_0(x), T_1(x), ..."""
    return _recurrence(2 * x ** 0, x, x)


def chebyshev_T(k: int, x):
    """First-kind value T_k(x); x may be an int or a LaurentPoly."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return next(islice(first_kind(x), k, None))


def second_kind(x) -> Iterator:
    """S_{-2}(x), S_{-1}(x), S_0(x), S_1(x), ..."""
    return _recurrence(-x ** 0, 0 * x ** 0, x)


def chebyshev_S(k: int, x):
    """Second-kind value S_k(x) for k >= -2."""
    if k < -2:
        raise ValueError("k must be at least -2")
    return next(islice(second_kind(x), k + 2, None))
