"""Quiver representations over prime fields and quiver-Grassmannian counting.

A representation assigns a dimension to every vertex and an integer matrix to
every arrow (shape dims[head] x dims[tail]).  Subrepresentations are counted
by one exact backtracking routine over the vertices in
Quiver.topological_order(), vertices on oriented cycles last.  At a vertex v,
U_v runs over the subspaces containing the span W_v of the images from its
tails, and a branch dies once the images along an arrow that closes a cycle
leave the subspace chosen at its head.  A free vertex, one that constrains
no later choice, is not enumerated: free vertices come last, the traversal
stops where they begin, and each class of leaves with the same e and the same
span size w at every free vertex is expanded once, after the traversal, by the
Gaussian binomials [d_v - w, e_v - w]_p.  Each span join and each row's images
along its vertex's out-arrows are computed once per traversal and dropped with
it.  One traversal per prime counts every e <= dims at once, and the table it
fills is kept on the QuiverRep while it lives, so a QuiverRep is treated as
immutable; count_points reads a single e from it.  Once the table is kept,
a read of a tuple e of ints costs one type scan, one set lookup and one dict
read; any other e takes the full checks.  chi(Gr_e) is
P(1) for the point-counting polynomial P in the field size, held in an integer
Newton divided-difference table over the first bound + 1 admissible primes,
bound = sum_v e_v(d_v - e_v).  Monic integer Newton basis polynomials make P
integral exactly when every division in the table is exact.  A remainder
raises NonPolynomialCount, and so does a count at the next admissible prime,
held out, that differs from P there.  The primes are the first admissible odd
ones: some counts that fit one polynomial at odd primes do not fit it at 2.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import le, mul
from typing import Iterable, Mapping, Sequence

from .errors import InadmissiblePrime, NonPolynomialCount, NotAffine, integer
from .quivers import Quiver

DimVector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class QuiverRep:
    """A representation of a quiver by integer matrices; immutable, like Quiver."""

    __slots__ = ("quiver", "dims", "maps", "params", "_tables")

    def __init__(self, quiver: Quiver, dims: Iterable[int],
                 maps: Sequence[Sequence[Sequence[int]]],
                 params: Mapping[str, int] | None = None):
        dims = tuple(integer(d, least=0, name="dimension") for d in dims)
        if len(dims) != quiver.m:
            raise ValueError("need one dimension per vertex")
        arrows = quiver.arrows()
        if len(maps) != len(arrows):
            raise ValueError("need one matrix per arrow (%d arrows, %d matrices)"
                             % (len(arrows), len(maps)))
        clean: list[Matrix] = []
        for (t, h), mat in zip(arrows, maps):
            rows = tuple(tuple(integer(x, name="matrix entry") for x in row) for row in mat)
            if len(rows) != dims[h] or any(len(r) != dims[t] for r in rows):
                raise ValueError("matrix for arrow %s->%s must be %d x %d"
                                 % (quiver.labels[t], quiver.labels[h], dims[h], dims[t]))
            clean.append(rows)
        self.quiver = quiver
        self.dims = dims
        self.maps = tuple(clean)
        self.params = {k: integer(v, name=k) for k, v in (params or {}).items()}
        if bad := {k: v for k, v in self.params.items() if v in (0, 1)}:
            raise ValueError("parameters %s degenerate at every prime" % (bad,))
        self._tables: dict = {}  # prime -> _count_by_dimvector(self, prime)

    def admissible(self, p: int) -> bool:
        """A prime is admissible unless some parameter degenerates mod p."""
        return all(v % p not in (0, 1) for v in self.params.values())

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.to_json(),
            "dims": list(self.dims),
            "maps": [{"arrow": [t, h], "matrix": [list(r) for r in mat]}
                     for (t, h), mat in zip(self.quiver.arrows(), self.maps)],
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, data) -> "QuiverRep":
        quiver = Quiver.from_json(data["quiver"])
        arrows = quiver.arrows()
        # arrows() is row-major with parallel arrows adjacent: a stable sort
        # aligns the maps and keeps parallel arrows in declaration order
        def arrow(entry):
            return tuple(integer(v, name="arrow endpoint") for v in entry["arrow"])
        entries = sorted(data["maps"], key=arrow)
        declared = [arrow(entry) for entry in entries]
        if declared != arrows:
            raise ValueError("declared arrows %s do not match the quiver's %s"
                             % (declared, arrows))
        maps = [entry["matrix"] for entry in entries]
        return cls(quiver, data["dims"], maps, data.get("params", {}))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuiverRep):
            return NotImplemented
        return (self.quiver == other.quiver and self.dims == other.dims
                and self.maps == other.maps and self.params == other.params)

    def __repr__(self) -> str:
        return "QuiverRep(dims=%s)" % (self.dims,)


# -- Euler form, radical vector, defect -------------------------------------

def euler_form(quiver: Quiver, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """<alpha, beta> = sum_i alpha(i)beta(i) - sum_arrows alpha(tail)beta(head)."""
    if len(alpha) != quiver.m or len(beta) != quiver.m:
        raise ValueError("vector length must equal the vertex count")
    total = sum(a * b for a, b in zip(alpha, beta))
    for t, h in quiver.arrows():
        total -= alpha[t] * beta[h]
    return total


def symmetrized_cartan(quiver: Quiver) -> list[list[int]]:
    """2 on the diagonal, minus the total number of arrows between i and j."""
    m = quiver.m
    return [[2 if i == j else -abs(quiver.b[i][j]) for j in range(m)] for i in range(m)]


def delta(quiver: Quiver) -> DimVector:
    """The primitive positive generator of the radical of the symmetrized
    Euler form; raises NotAffine when the radical is not one-dimensional or
    has no positive generator."""
    kernel = _integer_kernel(symmetrized_cartan(quiver))
    if len(kernel) != 1:
        raise NotAffine("radical has dimension %d, expected 1" % len(kernel))
    vec = kernel[0]
    if any(x <= 0 for x in vec):
        raise NotAffine("radical generator %s is not positive" % (vec,))
    return vec


def _integer_kernel(matrix: Sequence[Sequence[int]]) -> list[DimVector]:
    """Primitive integer basis of the kernel, via Gauss-Jordan elimination over Q."""
    m = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots: list[int] = []
    for col in range(m):
        r = len(pivots)
        pivot = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot is None:
            continue
        top = [x / rows[pivot][col] for x in rows[pivot]]
        rows[pivot] = rows[r]
        rows = [top if i == r else [a - row[col] * b for a, b in zip(row, top)]
                for i, row in enumerate(rows)]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        vec = [Fraction(int(c == fc)) for c in range(m)]
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        scale = math.lcm(*(x.denominator for x in vec))
        g = math.gcd(*(int(x * scale) for x in vec))
        basis.append(tuple(int(x * scale) // g for x in vec))
    return basis


def defect(quiver: Quiver, alpha: Sequence[int]) -> int:
    """<delta, alpha>: negative/zero/positive for preprojective/regular/preinjective."""
    return euler_form(quiver, delta(quiver), alpha)


# -- counting subrepresentations over F_p -------------------------------------

def rref_subspaces(n: int, k: int, p: int, support: Sequence[int]):
    """Yield the k-dimensional subspaces of F_p^n inside the coordinate
    subspace on the sorted coordinates `support`, as RREF row tuples."""
    for pivots in itertools.combinations(support, k):
        free = [(r, c) for r, piv in enumerate(pivots) for c in support
                if c > piv and c not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[int(c == piv) for c in range(n)] for piv in pivots]
            for (r, c), x in zip(free, values):
                rows[r][c] = x
            yield tuple(map(tuple, rows))


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    """The number of k-dimensional subspaces of F_p^n, for 0 <= k <= n."""
    return (math.prod(p ** (n - i) - 1 for i in range(k))
            // math.prod(p ** (i + 1) - 1 for i in range(k)))


def _insert(basis: tuple, vec: tuple, p: int) -> tuple:
    """An echelon basis ((pivot, row), ...) of span(basis) + vec: basis itself
    when vec already lies in the span, else basis with one row more.  Each row
    is 1 at its pivot and 0 at the pivots of the rows before it."""
    for piv, row in basis:
        c = vec[piv]
        if c:
            vec = tuple((x - c * y) % p for x, y in zip(vec, row))
    piv = next((i for i, x in enumerate(vec) if x), None)
    if piv is None:
        return basis
    inv = pow(vec[piv], -1, p)
    return basis + ((piv, tuple(x * inv % p for x in vec)),)


def _count_by_dimvector(rep: QuiverRep, p: int) -> dict[DimVector, int]:
    """The number of subrepresentations over F_p of every dimension vector;
    only nonzero counts appear.  The prime is checked and the table made once
    per prime, then kept on rep for as long as rep lives, so rep is treated as
    immutable.  Each span join (span, vector) and each row's images along its
    vertex's out-arrows are computed once per traversal and dropped with it.
    Each leaf records e at the enumerated vertices and the span size at every
    free vertex; each such class is expanded once, after the traversal, by
    Gaussian binomials memoized per (n, k)."""
    if p in rep._tables:
        return rep._tables[p]
    if not is_prime(p):
        raise ValueError("%d is not prime" % p)
    if not rep.admissible(p):
        raise InadmissiblePrime("prime %d degenerates a parameter of the fixture" % p)
    dims, m = rep.dims, rep.quiver.m
    order = rep.quiver.topological_order()
    order += sorted(set(range(m)) - set(order))  # vertices on oriented cycles last
    out = [[] for _ in order]  # arrows v -> h as (h, matrix mod p, h visited after v)
    for (t, h), mat in zip(rep.quiver.arrows(), rep.maps):
        out[t].append((h, [[x % p for x in r] for r in mat], order.index(h) > order.index(t)))
    watched = frozenset(h for arrows in out for h, _, later in arrows if not later)
    # U_v constrains no later choice: count it by Gaussian binomials, last
    free = [v not in watched and all(dims[h] == 0 for h, _, _ in out[v]) for v in range(m)]
    order.sort(key=free.__getitem__)
    stop = m - sum(free)
    tail = order[stop:]
    chosen: list = [None] * m  # echelon basis of U_h at the heads of backward arrows
    subspaces: dict = {}
    joins: dict = {}  # (span, vector) -> _insert(span, vector, p)
    images: list[dict] = [{} for _ in range(m)]  # row at v -> its image along each out-arrow
    leaves: dict = {}  # (e, span size at each free vertex) -> number of leaves
    e = [0] * m

    def join(span, vec):
        if (got := joins.get(key := (span, vec))) is None:
            got = joins[key] = _insert(span, vec, p)
        return got

    def push(v, spans, rows):
        """spans with the images of rows added at the heads visited later, or
        None when an image leaves the U_h chosen at an earlier head."""
        spans = list(spans)
        seen = images[v]
        for row in rows:
            if row not in seen:
                seen[row] = [tuple(sum(map(mul, r, row)) % p for r in mat) for _, mat, _ in out[v]]
        for j, (h, _, later) in enumerate(out[v]):
            span = spans[h] if later else chosen[h]
            for row in rows:
                span = join(span, seen[row][j])
            if later:
                spans[h] = span
            elif len(span) != len(chosen[h]):  # join returns span or one row more
                return None
        return spans

    def visit(i, spans):
        if i == stop:
            key = (tuple(e), tuple(len(spans[v]) for v in tail))
            leaves[key] = leaves.get(key, 0) + 1
            return
        v = order[i]
        span = spans[v]
        w = len(span)
        base = push(v, spans, [row for _, row in span])
        if base is None:
            return
        complement = tuple(sorted(set(range(dims[v])) - {piv for piv, _ in span}))
        for k in range(w, dims[v] + 1):
            e[v] = k
            # U_v = W_v + S, S a (k - w)-subspace on the coordinates off W_v's pivots
            if (key := (dims[v], k - w, complement)) not in subspaces:
                subspaces[key] = list(rref_subspaces(dims[v], k - w, p, complement))
            for rows in subspaces[key]:
                spans_out = push(v, base, rows)
                if spans_out is not None:
                    if v in watched:
                        chosen[v] = functools.reduce(join, rows, span)
                    visit(i + 1, spans_out)

    visit(0, [()] * m)
    binomials: dict = {}
    counts: dict[DimVector, int] = {}
    for (enumerated, sizes), n in leaves.items():
        e = list(enumerated)
        for ks in itertools.product(*(range(w, dims[v] + 1) for v, w in zip(tail, sizes))):
            weight = n
            for v, w, k in zip(tail, sizes, ks):
                e[v] = k
                if (key := (dims[v] - w, k - w)) not in binomials:
                    binomials[key] = _gaussian_binomial(*key, p)
                weight *= binomials[key]
            counts[tuple(e)] = counts.get(tuple(e), 0) + weight
    rep._tables[p] = counts
    return counts


def count_points(rep: QuiverRep, e: Sequence[int], p: int) -> int:
    """Number of subrepresentations of dimension vector e over F_p, read from
    the table of every e that one traversal per prime fills (module docstring).
    Once the table of an int p is kept, a tuple e of ints is checked by one
    type scan and one lookup in the set of every e <= dims; any other e or p
    takes the full checks of _check_dimvector and integer."""
    table = rep._tables.get(p) if type(p) is int else None
    # the type scan comes first: True and 1.0 equal 1, and a list is unhashable
    if (table is not None and type(e) is tuple and all(type(x) is int for x in e)
            and e in _dimvectors(rep.dims)):
        return table.get(e, 0)
    e = _check_dimvector(rep, e)
    return _count_by_dimvector(rep, integer(p, name="p")).get(e, 0)


@functools.lru_cache(maxsize=64)
def _dimvectors(dims: DimVector) -> frozenset[DimVector]:
    """Every dimension vector 0 <= e <= dims."""
    return frozenset(itertools.product(*(range(d + 1) for d in dims)))


def _check_dimvector(rep: QuiverRep, e: Sequence[int]) -> DimVector:
    e = tuple(integer(x, name="dimension vector entry") for x in e)
    if len(e) != len(rep.dims):
        raise ValueError("dimension vector length mismatch")
    if min(e, default=0) < 0:
        raise ValueError("dimension vector %s has a negative entry" % (e,))
    if not all(map(le, e, rep.dims)):
        raise ValueError("dimension vector %s exceeds dims %s" % (e, rep.dims))
    return e


def counting_degree_bound(rep: QuiverRep, e: Sequence[int]) -> int:
    """sum_v e_v(d_v - e_v), the degree bound of the point-counting polynomial
    of Gr_e (module docstring), with e read and checked as count_points reads
    it on a fresh rep."""
    e = _check_dimvector(rep, e)
    return sum(x * (d - x) for x, d in zip(e, rep.dims))


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def counting_primes(rep: QuiverRep, n: int) -> tuple[int, ...]:
    """The first n odd primes admissible for rep (module docstring)."""
    odd = (p for p in itertools.count(3, 2) if is_prime(p) and rep.admissible(p))
    return tuple(itertools.islice(odd, integer(n, least=0, name="n")))


def _certified_chi(rep: QuiverRep, e: DimVector, primes: Sequence[int], count) -> int:
    """chi(Gr_e) from count(p), its number of points over F_p (module docstring)."""
    bound = counting_degree_bound(rep, e)
    sample, held_out = primes[:bound + 1], primes[bound + 1]
    table = [count(p) for p in sample]  # becomes the divided differences in place
    for k in range(1, len(sample)):
        for i in range(len(sample) - 1, k - 1, -1):
            table[i], rest = divmod(table[i] - table[i - 1], sample[i] - sample[i - k])
            if rest:
                raise NonPolynomialCount(
                    "interpolated counting polynomial for e=%s is not integral" % (e,))
    predicted = chi = 0  # Horner on the Newton form, at the held-out prime and at 1
    for c, node in zip(reversed(table), reversed(sample)):
        predicted = predicted * (held_out - node) + c
        chi = chi * (1 - node) + c
    if predicted != (actual := count(held_out)):
        raise NonPolynomialCount(
            "held-out prime %d disagrees for e=%s: predicted %d, counted %d"
            % (held_out, e, predicted, actual))
    return chi


def grassmannian_table(rep: QuiverRep) -> dict[DimVector, int]:
    """The dict e -> chi(Gr_e) over every e with Gr_e nonempty at the first
    counting prime, ordered by (sum(e), e).  One counting traversal per prime
    serves every e.  The first sum_v floor(d_v^2 / 4) + 2 counting primes
    suffice for every e, since e_v(d_v - e_v) <= floor(d_v^2 / 4)."""
    primes = counting_primes(rep, sum(d * d // 4 for d in rep.dims) + 2)
    return {e: _certified_chi(rep, e, primes, lambda p: _count_by_dimvector(rep, p).get(e, 0))
            for e in sorted(_count_by_dimvector(rep, primes[0]), key=lambda e: (sum(e), e))}


def table_json(table: Mapping[DimVector, int]) -> list[dict]:
    """The JSON rows {"e": [...], "chi": "<decimal>"} of a Grassmannian table."""
    return [{"e": list(e), "chi": str(chi)} for e, chi in table.items()]
