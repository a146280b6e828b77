"""Exception hierarchy shared by all friezelab modules, and the one reader of
the integer arguments their callers pass: `integer` refuses what is not an
integer, and a value below the argument's least allowed value, each with a
message that names the argument."""

import operator


def integer(value, least: int | None = None, *, name: str) -> int:
    """value as an int, or a ValueError naming the argument and the value
    when it is not an integer: a float such as 2.9, a string or None is not
    truncated or parsed, and a bool is not read as 0 or 1.  When least is
    given, a smaller value raises a ValueError that names the argument and
    the bound."""
    try:
        if not isinstance(value, bool):
            number = operator.index(value)
            if least is None or number >= least:
                return number
            raise ValueError("%s must be at least %d, got %d" % (name, least, number))
    except TypeError:
        pass
    raise ValueError("%s must be an integer, got %r" % (name, value))


class FriezelabError(Exception):
    """Base class for every error raised by this package."""


class NotDivisible(FriezelabError):
    """Exact Laurent division failed: the divisor is not a factor."""


class ExponentOutOfRange(FriezelabError):
    """A Laurent exponent left the range of its packed field."""


class NonPositiveEntry(FriezelabError):
    """Frieze generation produced an entry <= 0 below the row of 1's."""


class InvalidFrieze(FriezelabError):
    """A computed pattern is not a frieze: a diamond bc - ad = 1 fails, or
    the growth difference depends on the diagonal.  generate certifies every
    stored diamond, most of them by the telescoping identity of
    frieze._check_diamonds, read with the quiddity entry, and the rest by
    the products."""


class CrossCheckFailed(FriezelabError):
    """Two independent computations of the same value disagree."""


class UnsupportedQuiver(FriezelabError):
    """The operation is defined only for a family of quivers this one is not in."""


class MissingDoubleArrow(FriezelabError):
    """An operation required a double arrow that the quiver lacks."""


class SearchNotFound(FriezelabError):
    """Mutation-class search exhausted its node budget without a hit."""


class NotAffine(FriezelabError):
    """The symmetrized Euler form does not have a one-dimensional positive radical."""


class InadmissiblePrime(FriezelabError):
    """A counting prime collides with a parameter value of the representation."""


class NonPolynomialCount(FriezelabError):
    """No integer polynomial in the field size fits the point counts: a Newton
    divided difference is not an integer, or the held-out prime disagrees."""
