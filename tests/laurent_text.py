"""A parser for the textual form of LaurentPoly, which the tests use to
write expected values, e.g. parse_laurent('x0^-1*x1 + 2*x_a', names), and a
tuple-keyed reference for the packed arithmetic: the schoolbook product of
term maps and the graded-lexicographic order written out."""

import re
from typing import Iterable

from friezelab.laurent import LaurentPoly

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))")


def parse_laurent(text: str, variables: Iterable[str]) -> LaurentPoly:
    """Parse the textual form produced by str(), e.g. 'x0^-1*x1 + 2*x_a'."""
    vs = tuple(variables)
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError("cannot tokenize %r" % text[pos:])
            break
        tokens.append(m.group().strip())
        pos = m.end()

    result = LaurentPoly(vs)
    i = 0
    sign = 1
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            sign = 1
            i += 1
            continue
        if tok == "-":
            sign = -1
            i += 1
            continue
        coef = sign
        exp = [0] * len(vs)
        while True:
            tok = tokens[i]
            if tok.isdigit():
                coef *= int(tok)
                i += 1
            else:
                if tok not in vs:
                    raise ValueError("unknown variable %r" % tok)
                power = 1
                i += 1
                if i < len(tokens) and tokens[i] == "^":
                    i += 1
                    neg = 1
                    if tokens[i] == "-":
                        neg = -1
                        i += 1
                    power = neg * int(tokens[i])
                    i += 1
                exp[vs.index(tok)] += power
            if i < len(tokens) and tokens[i] == "*":
                i += 1
                continue
            break
        result = result + LaurentPoly(vs, {tuple(exp): coef})
        sign = 1
    return result


def reference_product(left: dict, right: dict) -> dict:
    """The product of two term maps (exponent tuple -> coefficient),
    multiplying every pair of terms, without zero coefficients."""
    out: dict = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            exp = tuple(a + b for a, b in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {exp: coef for exp, coef in out.items() if coef}


def grlex_sorted(terms: dict) -> list:
    """The terms by total degree, then the exponent tuple, largest first."""
    return sorted(terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
