"""Multivariate Laurent polynomials with exact integer coefficients.

A value is a finite map from exponent vectors (tuples of ints, possibly
negative) to nonzero Python ints.  The map is kept canonical at all times:
zero coefficients are dropped on construction, so two values are equal iff
their term maps are equal.  All operations return new objects; instances are
treated as immutable and are safe to share.

The public constructor validates its input.  Ring operations whose result
is canonical by construction (sums, negation, products, exact quotients)
return through the internal `_raw` constructor, which does not re-check.

Exact division is sparse division with a heap (Monagan & Pearce, Sparse
polynomial division using a heap, J. Symb. Comput. 46, 2011): the
remainder lives in one mutable dict, a heap of graded-lexicographic keys
with lazy deletion yields its leading term, and each quotient term
subtracts its product with the divisor's non-leading terms in place.  It
certifies exactness: it raises NotDivisible unless the remainder empties.

Serialization order is graded-lexicographic on exponent vectors (total
degree descending, then lexicographic descending), which makes printed and
JSON forms byte-stable.
"""

from __future__ import annotations

import json
from heapq import heapify, heappop, heappush
from operator import add, sub
from typing import Iterable, Mapping

from .errors import NotDivisible

Exponent = tuple[int, ...]


def _grlex_key(exp: Exponent) -> tuple:
    return (sum(exp), exp)


class LaurentPoly:
    """A Laurent polynomial in a fixed ordered list of variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, int] | None = None):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "vars", vs)
        clean: dict[Exponent, int] = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != len(vs):
                raise ValueError("exponent vector length does not match variable count")
            coef = int(coef)
            if coef:
                clean[exp] = coef
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, variables: tuple[str, ...], terms: dict[Exponent, int]) -> "LaurentPoly":
        # internal fast path: trusts the caller to pass distinct names and a
        # dict of exponent tuples of matching length to nonzero ints
        poly = object.__new__(cls)
        object.__setattr__(poly, "vars", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "LaurentPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Iterable[str], value: int) -> "LaurentPoly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): int(value)})

    @classmethod
    def one(cls, variables: Iterable[str]) -> "LaurentPoly":
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "LaurentPoly":
        vs = tuple(variables)
        exp = [0] * len(vs)
        exp[vs.index(name)] = 1
        return cls(vs, {tuple(exp): 1})

    @classmethod
    def monomial(cls, variables: Iterable[str], exponents: Iterable[int], coef: int = 1) -> "LaurentPoly":
        return cls(variables, {tuple(exponents): coef})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.constant(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

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
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            new = terms.get(exp, 0) + coef
            if new:
                terms[exp] = new
            else:
                del terms[exp]
        return LaurentPoly._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out: dict[Exponent, int] = {}
        get = out.get
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
        return LaurentPoly._raw(self.vars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = LaurentPoly.one(self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- division ----------------------------------------------------------

    def _min_exponents(self) -> Exponent:
        # Per-variable minimum over the support; the Newton-polytope identity
        # min(p*q) = min(p) + min(q) makes this the right shift for division.
        mins = [min(e[i] for e in self.terms) for i in range(len(self.vars))]
        return tuple(mins)

    def div_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Return r with r * divisor == self, or raise NotDivisible.

        Both operands are shifted by their per-variable minimum exponents,
        which turns them into polynomials, and their exponents are negated,
        so that the smallest heap key (sum, exponent) is the
        graded-lexicographically largest term.  The remainder is one dict;
        the heap holds the key of every term it has gained, and a popped key
        whose term has since cancelled is skipped.  Every product pushed lies
        strictly below the term just popped in this monomial order, which
        over polynomials has finitely many monomials below any given one,
        so the loop ends.  A leading term that the divisor's leading term
        does not divide, in exponent or coefficient, raises NotDivisible;
        the quotient is returned only once the remainder is empty.  Its
        coefficients are nonzero quotients, so it is built with `_raw`.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly._raw(self.vars, {})
        low_p = self._min_exponents()
        low_q = divisor._min_exponents()
        rem = {tuple(map(sub, low_p, e)): c for e, c in self.terms.items()}
        keyed = []
        for e, c in divisor.terms.items():
            n = tuple(map(sub, low_q, e))
            keyed.append((sum(n), n, c))
        keyed.sort()
        lead_deg, lead, lead_coef = keyed[0]
        rest = keyed[1:]
        heap = [(sum(n), n) for n in rem]
        heapify(heap)
        quotient: dict[Exponent, int] = {}
        get = rem.get
        while heap:
            deg, top = heappop(heap)
            coef = rem.pop(top, 0)
            if not coef:
                continue
            qexp = tuple(map(sub, top, lead))
            if max(qexp, default=0) > 0 or coef % lead_coef:
                raise NotDivisible("no exact Laurent quotient exists")
            qcoef = coef // lead_coef
            quotient[qexp] = qcoef
            qdeg = deg - lead_deg
            for d, n, c in rest:
                exp = tuple(map(add, qexp, n))
                old = get(exp)
                if old is None:
                    rem[exp] = -qcoef * c
                    heappush(heap, (qdeg + d, exp))
                else:
                    new = old - qcoef * c
                    if new:
                        rem[exp] = new
                    else:
                        del rem[exp]
        back = tuple(map(sub, low_p, low_q))
        return LaurentPoly._raw(self.vars, {tuple(map(sub, back, e)): c
                                            for e, c in quotient.items()})

    # -- evaluation --------------------------------------------------------

    def at_ones(self) -> int:
        """Value at the all-ones point: the sum of the coefficients."""
        return sum(self.terms.values())

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]), reverse=True)

    def __str__(self) -> str:
        if self.is_zero():
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
        terms = {tuple(int(x) for x in t["exp"]): int(t["coef"]) for t in data["terms"]}
        return cls(tuple(data["vars"]), terms)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)
