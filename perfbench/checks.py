"""Output checks that share no code path with the friezelab calls they check.

Integer-valued claims are recomputed here from scratch: matrix mutation,
the exchange relation on integers, the growth element at all ones, the odd
Fibonacci numbers and the Chebyshev recurrence.  Symbolic outputs are read
through their term maps only.  Each check returns a list of
(layer, message) pairs, empty when the output is right.
"""

from __future__ import annotations

import random

# Principal growth coefficient s_1 of the tube friezes, from the paper:
# 14 for the affine D4 tubes and 322 for the affine E6 tubes.
TUBE_S1 = {(8, 2): 14, (4, 4): 14, (9, 36): 322, (7, 7, 7): 322}


def b_matrix(labels, arrows) -> list[list[int]]:
    """Skew-symmetric exchange matrix of an arrow list over the labels."""
    index = {label: i for i, label in enumerate(labels)}
    b = [[0] * len(labels) for _ in labels]
    for tail, head in arrows:
        b[index[tail]][index[head]] += 1
        b[index[head]][index[tail]] -= 1
    return b


def mutate_matrix(b, k: int) -> list[list[int]]:
    """Matrix mutation at k: b'_ij = -b_ij if k in {i, j}, else
    b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2."""
    m = len(b)
    return [[-b[i][j] if k in (i, j)
             else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
             for j in range(m)] for i in range(m)]


def exchange_at_ones(b, word, values=None) -> tuple[list[int], list[list[int]]]:
    """Replay a mutation word on integers: x_k x'_k = P+ + P- with every
    initial variable equal to 1.  Returns the values and the final matrix."""
    m = len(b)
    x = list(values) if values is not None else [1] * m
    for k in word:
        plus = minus = 1
        for j in range(m):
            if b[j][k] > 0:
                plus *= x[j] ** b[j][k]
            elif b[j][k] < 0:
                minus *= x[j] ** -b[j][k]
        total = plus + minus
        if total % x[k]:
            raise ArithmeticError("exchange relation is not integral at vertex %d" % k)
        x[k] = total // x[k]
        b = mutate_matrix(b, k)
    return x, b


def double_arrow(b) -> tuple[int, int] | None:
    """First (u, v) in row-major order with exactly two arrows u -> v."""
    m = len(b)
    for u in range(m):
        for v in range(m):
            if b[u][v] == 2:
                return u, v
    return None


def triangle(b, u: int, v: int) -> list[int]:
    return [w for w in range(len(b)) if b[v][w] > 0 and b[w][u] > 0]


def theta_at_ones(b, x) -> int:
    """(x_u^2 + x_v^2 + prod of triangle variables) / (x_u x_v) on integers."""
    u, v = double_arrow(b)
    product = 1
    for w in triangle(b, u, v):
        product *= x[w]
    numerator = x[u] ** 2 + x[v] ** 2 + product
    if numerator % (x[u] * x[v]):
        raise ArithmeticError("growth element is not integral")
    return numerator // (x[u] * x[v])


def initial_theta_terms(b) -> dict[tuple[int, ...], int]:
    """Term map of the growth element at an initial double-arrow seed:
    x_u/x_v + x_v/x_u + prod(x_w)/(x_u x_v)."""
    m = len(b)
    u, v = double_arrow(b)
    terms: dict[tuple[int, ...], int] = {}

    def add(exp):
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + 1

    for a, c in ((u, v), (v, u)):
        exp = [0] * m
        exp[a], exp[c] = 1, -1
        add(exp)
    exp = [0] * m
    exp[u] = exp[v] = -1
    for w in triangle(b, u, v):
        exp[w] += 1
    add(exp)
    return terms


def odd_fibonacci(count: int) -> list[int]:
    """F_1, F_3, F_5, ...: 1, 2, 5, 13, 34, ..."""
    out, a, b = [], 1, 1  # (F_1, F_2)
    for _ in range(count):
        out.append(a)
        a, b = a + b, a + 2 * b  # (F_{n+2}, F_{n+3})
    return out


def chebyshev_t(k: int, x: int) -> int:
    """Normalized first-kind Chebyshev value: T_0 = 2, T_1 = x."""
    if k == 0:
        return 2
    prev, cur = 2, x
    for _ in range(k - 1):
        prev, cur = cur, x * cur - prev
    return cur


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def coefficient_sum(terms) -> int:
    return sum(terms.values())


def positive(terms) -> bool:
    return all(c > 0 for c in terms.values())


def merged(*term_maps) -> dict:
    out: dict = {}
    for terms in term_maps:
        for exp, coef in terms.items():
            out[exp] = out.get(exp, 0) + coef
    return {e: c for e, c in out.items() if c}


def duality_sample(dims, centers, seed: int, size: int) -> list[tuple[int, ...]]:
    """A seeded sample of dimension vectors e <= dims with e[0] in centers."""
    rng = random.Random(seed)
    return [(rng.choice(centers),) + tuple(rng.randint(0, d) for d in dims[1:])
            for _ in range(size)]


def expect(problems: list, condition: bool, layer: str, message: str) -> None:
    if not condition:
        problems.append((layer, message))
