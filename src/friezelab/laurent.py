"""Multivariate Laurent polynomials with exact integer coefficients.

A value is a finite map from exponent vectors (tuples of ints, possibly
negative) to nonzero Python ints.  The map is kept canonical at all times:
zero coefficients are dropped on construction, so two values are equal iff
their term maps are equal.  All operations return new objects; instances are
treated as immutable and are safe to share.

Each monomial is stored as one packed int: a 16-bit field per variable
holds its exponent plus 2^15, variable 0 most significant, and the total
degree sits above them, unbounded.  A product of monomials is one integer
addition minus the packed zero vector, and integer order is the
graded-lexicographic order (total degree, then the exponent tuple) in which
`str`, `to_json` and exact division read the terms.  The tuple-keyed
`terms` map is decoded on first access and cached.

Stored exponents lie in [-2^14, 2^14), half a field, so the difference of
two monomials still fits.  Each value knows its Newton box, the
per-variable least and greatest exponents, computed once from the terms or
inherited exactly: a product's box is the sum of the factors' boxes (the
product of the two face polynomials is nonzero), a square's is twice its
base's, an exact quotient's is their difference, and a sum in which no
key cancels has the hull of its summands' boxes, since every term of both
survives.  A sum with a cancelled key works its box out from the terms
when asked.  A product, a square or a constructed value whose box leaves
the range raises ExponentOutOfRange, so no exponent ever carries into the
next field.

Powers run by binary powering.  A square multiplies each unordered pair of
terms once, with the doubled coefficient, and each term by itself once:
n(n+1)/2 products for n terms instead of n^2.

The public constructor validates its input.  Ring operations whose result
is canonical by construction (sums, negation, products, squares, exact
quotients) return through the internal `_raw` constructor, which does not
re-check.

Exact division is sparse division with a heap (Monagan & Pearce, Sparse
polynomial division using a heap, J. Symb. Comput. 46, 2011) on one
mutable remainder dict.  It certifies exactness: it raises NotDivisible
unless the remainder empties.
"""

from __future__ import annotations

import json
import struct
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Iterable, Mapping

from .errors import ExponentOutOfRange, NotDivisible, integer

Exponent = tuple[int, ...]

_BITS = 16  # width of one exponent field; the struct code "h" matches it
_LIMIT = 1 << (_BITS - 2)  # stored exponents lie in [-_LIMIT, _LIMIT)


@lru_cache(maxsize=None)
def _layout(n: int):
    """(packed zero vector, pack, unpack) for n variables.  A field holds the
    exponent plus 2^15: its two's complement with the sign bit flipped."""
    bits = _BITS * n
    low = (1 << bits) - 1
    zero = low // ((1 << _BITS) - 1) << (_BITS - 1)
    fields = struct.Struct(">%dh" % n)

    def pack(exp: Exponent) -> int:
        return (sum(exp) << bits) + (int.from_bytes(fields.pack(*exp), "big") ^ zero)

    def unpack(key: int) -> Exponent:
        return fields.unpack(((key ^ zero) & low).to_bytes(fields.size, "big"))
    return zero, pack, unpack


def _checked_box(lo: Exponent, hi: Exponent) -> tuple[Exponent, Exponent]:
    if lo and (min(lo) < -_LIMIT or max(hi) >= _LIMIT):
        raise ExponentOutOfRange("exponents %s..%s leave [%d, %d)" % (lo, hi, -_LIMIT, _LIMIT))
    return lo, hi


class LaurentPoly:
    """A Laurent polynomial in a fixed ordered list of variables."""

    __slots__ = ("vars", "_keys", "_terms", "_box")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, int] | None = None):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names")
        clean: dict[Exponent, int] = {}
        for exp, coef in (terms or {}).items():
            exp = tuple([integer(x, name="exponent") for x in exp])
            if len(exp) != len(vs):
                raise ValueError("exponent vector length does not match variable count")
            coef = integer(coef, name="coefficient")
            if coef:
                clean[exp] = coef
        self.vars, self._terms, self._box = vs, clean, None
        if clean:
            _checked_box(*self._newton_box())
        pack = _layout(len(vs))[1]
        self._keys = {pack(exp): coef for exp, coef in clean.items()}

    @classmethod
    def _raw(cls, variables: tuple[str, ...], keys: dict[int, int],
             box: tuple[Exponent, Exponent] | None = None) -> "LaurentPoly":
        # internal fast path: trusts the caller to pass distinct names, packed
        # in-range keys of nonzero ints, and their exact Newton box or None
        poly = object.__new__(cls)
        poly.vars, poly._keys, poly._terms, poly._box = variables, keys, None, box
        return poly

    @property
    def terms(self) -> dict[Exponent, int]:
        """The term map, exponent tuple -> coefficient."""
        if self._terms is None:
            unpack = _layout(len(self.vars))[2]
            self._terms = {unpack(key): coef for key, coef in self._keys.items()}
        return self._terms

    def _newton_box(self) -> tuple[Exponent, Exponent]:
        """Per-variable minimum and maximum exponents of a nonzero value."""
        if self._box is None:
            columns = list(zip(*self.terms))
            self._box = (tuple(map(min, columns)), tuple(map(max, columns)))
        return self._box

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variables: Iterable[str], value: int) -> "LaurentPoly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def one(cls, variables: Iterable[str]) -> "LaurentPoly":
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "LaurentPoly":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError("no variable named %r in %s" % (name, vs))
        exp = [0] * len(vs)
        exp[vs.index(name)] = 1
        return cls(vs, {tuple(exp): 1})

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self._keys == other._keys

    def __hash__(self) -> int:
        # a constant equals its int, 0 included, so it hashes as that int
        zero = _layout(len(self.vars))[0]
        if self._keys.keys() <= {zero}:
            return hash(self._keys.get(zero, 0))
        return hash((self.vars, frozenset(self._keys.items())))

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.vars != self.vars:
                raise ValueError("variable lists differ: %r vs %r" % (self.vars, other.vars))
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.vars, other)
        raise TypeError("cannot combine LaurentPoly with %r" % type(other).__name__)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        keys = dict(self._keys)
        cancelled = False
        for key, coef in other._keys.items():
            new = keys.get(key, 0) + coef
            if new:
                keys[key] = new
            else:
                del keys[key]
                cancelled = True
        box = None
        if not cancelled and self._box is not None and other._box is not None:
            # every term of both summands survives, so the hull is exact
            (lo1, hi1), (lo2, hi2) = self._box, other._box
            box = tuple(map(min, lo1, lo2)), tuple(map(max, hi1, hi2))
        return LaurentPoly._raw(self.vars, keys, box)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.vars, {k: -c for k, c in self._keys.items()}, self._box)

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if not self._keys or not other._keys:
            return LaurentPoly._raw(self.vars, {})
        (lo1, hi1), (lo2, hi2) = self._newton_box(), other._newton_box()
        box = _checked_box(tuple(map(add, lo1, lo2)), tuple(map(add, hi1, hi2)))
        zero = _layout(len(self.vars))[0]
        out: dict[int, int] = {}
        get = out.get
        right = [(k - zero, c) for k, c in other._keys.items()]
        for k1, c1 in self._keys.items():
            for k2, c2 in right:
                key = k1 + k2
                out[key] = get(key, 0) + c1 * c2
        # a product of nonzero values is nonzero, with the summed Newton box
        return LaurentPoly._raw(self.vars, {k: c for k, c in out.items() if c}, box)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        k = integer(k, least=0, name="exponent")
        if not k:
            return LaurentPoly.one(self.vars)
        # binary powering from the top bit: p**(2m) = (p**m)**2, p**(2m+1) = p**(2m) * p
        result = self
        for bit in bin(k)[3:]:
            result = result._square()
            if bit == "1":
                result = result * self
        return result

    def _square(self) -> "LaurentPoly":
        if not self._keys:
            return self
        lo, hi = self._newton_box()
        box = _checked_box(tuple(e + e for e in lo), tuple(e + e for e in hi))
        zero = _layout(len(self.vars))[0]
        out: dict[int, int] = {}
        get = out.get
        items = list(self._keys.items())
        for i, (k1, c1) in enumerate(items):
            key = k1 + k1 - zero
            out[key] = get(key, 0) + c1 * c1
            k1, c1 = k1 - zero, c1 + c1
            for k2, c2 in items[i + 1:]:
                key = k1 + k2
                out[key] = get(key, 0) + c1 * c2
        # the square of a nonzero value is nonzero, with twice its Newton box
        return LaurentPoly._raw(self.vars, {k: c for k, c in out.items() if c}, box)

    # -- division ----------------------------------------------------------

    def div_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Return r with r * divisor == self, or raise NotDivisible.

        The heap holds the remainder's negated keys, so it yields its
        grlex-largest term (skipping cancelled keys); grlex order is
        translation invariant, so every product pushed lies below the term
        just popped.  A quotient exponent outside the Newton box
        lo(self) - lo(divisor) <= e <= hi(self) - hi(divisor), or a
        coefficient that does not divide, raises NotDivisible at once.  The
        finite box ends the loop and keeps every remainder exponent inside
        self's box, hence inside its fields.
        """
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly._raw(self.vars, {})
        (lo_p, hi_p), (lo_q, hi_q) = self._newton_box(), divisor._newton_box()
        lo, hi = tuple(map(sub, lo_p, lo_q)), tuple(map(sub, hi_p, hi_q))
        zero, _, unpack = _layout(len(self.vars))
        lead = max(divisor._keys)
        lead_coef = divisor._keys[lead]
        rest = [(k - lead, c) for k, c in divisor._keys.items() if k != lead]
        rem = dict(self._keys)
        heap = [-k for k in rem]
        heapify(heap)
        quotient: dict[int, int] = {}
        get = rem.get
        while heap:
            top = -heappop(heap)
            coef = rem.pop(top, 0)
            if not coef:
                continue
            qkey = top - lead + zero
            qexp = unpack(qkey)
            if coef % lead_coef or not (all(map(le, lo, qexp)) and all(map(le, qexp, hi))):
                raise NotDivisible("no exact Laurent quotient exists")
            qcoef = coef // lead_coef
            quotient[qkey] = qcoef
            for d, c in rest:
                key = top + d
                old = get(key)
                if old is None:
                    rem[key] = -qcoef * c
                    heappush(heap, -key)
                else:
                    new = old - qcoef * c
                    if new:
                        rem[key] = new
                    else:
                        del rem[key]
        return LaurentPoly._raw(self.vars, quotient, (lo, hi))

    # -- evaluation --------------------------------------------------------

    def at_ones(self) -> int:
        """Value at the all-ones point: the sum of the coefficients."""
        return sum(self._keys.values())

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """The terms in graded-lexicographic order, largest first."""
        unpack = _layout(len(self.vars))[2]
        return [(unpack(k), c) for k, c in sorted(self._keys.items(), reverse=True)]

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for exp, coef in self.sorted_terms():
            factors = []
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                mono = str(abs(coef))
            elif abs(coef) == 1:
                mono = "*".join(factors)
            else:
                mono = "%d*%s" % (abs(coef), "*".join(factors))
            sign = "-" if coef < 0 else "+"
            parts.append((sign, mono))
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, mono in parts[1:]:
            out += " %s %s" % (sign, mono)
        return out

    def __repr__(self) -> str:
        return "LaurentPoly(%r)" % str(self)

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"exp": list(exp), "coef": str(coef)} for exp, coef in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentPoly":
        # coefficients are written as decimal strings
        terms = {tuple(t["exp"]): int(c) if isinstance(c := t["coef"], str) else c
                 for t in data["terms"]}
        return cls(tuple(data["vars"]), terms)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)
