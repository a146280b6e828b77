"""Quiver representations over prime fields and quiver-Grassmannian counting.

A representation assigns a dimension to every vertex and an integer matrix to
every arrow (shape dims[head] x dims[tail]); matrices are reduced mod p on
demand.  Subrepresentations with a prescribed dimension vector are counted by
enumerating reduced-row-echelon representatives of each vertex Grassmannian
and filtering by closure under the arrow maps.  Euler characteristics are
extracted by interpolating the count as a polynomial in the field size and
evaluating at 1, with one held-out prime double-checking every interpolation.

Vertex dimensions in the shipped fixtures are at most 3, so the enumeration
stays tiny; nothing here is meant for large representations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InadmissiblePrime, NonPolynomialCount, NotAffine
from .quivers import Quiver

DimVector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

DEFAULT_PRIMES = (3, 5, 7, 11, 13, 17, 19)


class QuiverRep:
    """A representation of an acyclic quiver by integer matrices."""

    __slots__ = ("quiver", "dims", "maps", "params")

    def __init__(self, quiver: Quiver, dims: Iterable[int],
                 maps: Sequence[Sequence[Sequence[int]]],
                 params: Mapping[str, int] | None = None):
        dims = tuple(int(d) for d in dims)
        if len(dims) != quiver.m:
            raise ValueError("need one dimension per vertex")
        if any(d < 0 for d in dims):
            raise ValueError("dimensions must be nonnegative")
        arrows = quiver.arrows()
        if len(maps) != len(arrows):
            raise ValueError("need one matrix per arrow (%d arrows, %d matrices)"
                             % (len(arrows), len(maps)))
        clean: list[Matrix] = []
        for (t, h), mat in zip(arrows, maps):
            rows = tuple(tuple(int(x) for x in row) for row in mat)
            if len(rows) != dims[h] or any(len(r) != dims[t] for r in rows):
                raise ValueError("matrix for arrow %s->%s must be %d x %d"
                                 % (quiver.labels[t], quiver.labels[h], dims[h], dims[t]))
            clean.append(rows)
        self.quiver = quiver
        self.dims = dims
        self.maps = tuple(clean)
        self.params = dict(params or {})

    @property
    def arrows(self) -> list[tuple[int, int]]:
        return self.quiver.arrows()

    def admissible(self, p: int) -> bool:
        """A prime is admissible unless some parameter degenerates mod p."""
        return all(v % p not in (0, 1) for v in self.params.values())

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.to_json(),
            "dims": list(self.dims),
            "maps": [{"arrow": [t, h], "matrix": [list(r) for r in mat]}
                     for (t, h), mat in zip(self.arrows, self.maps)],
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, data) -> "QuiverRep":
        quiver = Quiver.from_json(data["quiver"])
        arrows = quiver.arrows()
        declared = [tuple(entry["arrow"]) for entry in data["maps"]]
        if sorted(declared) != sorted(arrows):
            raise ValueError("declared arrows %s do not match the quiver's %s"
                             % (sorted(declared), sorted(arrows)))
        # align parallel arrows by order of declaration
        remaining = {(t, h): [e["matrix"] for e in data["maps"] if tuple(e["arrow"]) == (t, h)]
                     for (t, h) in set(declared)}
        maps = [remaining[a].pop(0) for a in arrows]
        return cls(quiver, data["dims"], maps,
                   {k: int(v) for k, v in data.get("params", {}).items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuiverRep):
            return NotImplemented
        return (self.quiver == other.quiver and self.dims == other.dims
                and self.maps == other.maps and self.params == other.params)

    def __repr__(self) -> str:
        return "QuiverRep(dims=%s)" % (self.dims,)


def direct_sum(m1: QuiverRep, m2: QuiverRep) -> QuiverRep:
    """Block-diagonal sum of two representations of the same quiver."""
    if m1.quiver != m2.quiver:
        raise ValueError("summands must share the quiver")
    dims = tuple(a + b for a, b in zip(m1.dims, m2.dims))
    maps = []
    for (t, h), a, b in zip(m1.arrows, m1.maps, m2.maps):
        rows = []
        for r in range(m1.dims[h]):
            rows.append(tuple(a[r]) + (0,) * m2.dims[t])
        for r in range(m2.dims[h]):
            rows.append((0,) * m1.dims[t] + tuple(b[r]))
        maps.append(rows)
    params = dict(m1.params)
    params.update(m2.params)
    return QuiverRep(m1.quiver, dims, maps, params)


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
    c = [[0] * m for _ in range(m)]
    for i in range(m):
        c[i][i] = 2
    for i in range(m):
        for j in range(m):
            if i != j:
                c[i][j] = -abs(quiver.b[i][j])
    return c


def delta(quiver: Quiver) -> DimVector:
    """The primitive positive generator of the radical of the symmetrized
    Euler form; raises NotAffine when the radical is not one-dimensional or
    has no positive generator."""
    kernel = _integer_kernel(symmetrized_cartan(quiver))
    if len(kernel) != 1:
        raise NotAffine("radical has dimension %d, expected 1" % len(kernel))
    vec = kernel[0]
    if all(x <= 0 for x in vec):
        vec = tuple(-x for x in vec)
    if any(x <= 0 for x in vec):
        raise NotAffine("radical generator %s is not positive" % (vec,))
    return vec


def _integer_kernel(matrix: Sequence[Sequence[int]]) -> list[DimVector]:
    """Primitive integer basis of the kernel, via fraction-free elimination."""
    m = len(matrix)
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots: list[int] = []
    r = 0
    for col in range(m):
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -rows[row_idx][fc]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        ints = [int(x * lcm) for x in vec]
        g = 0
        for x in ints:
            g = math.gcd(g, abs(x))
        basis.append(tuple(x // g for x in ints) if g else tuple(ints))
    return basis


def defect(quiver: Quiver, alpha: Sequence[int]) -> int:
    """<delta, alpha>: negative/zero/positive for preprojective/regular/preinjective."""
    return euler_form(quiver, delta(quiver), alpha)


def extending_vertices(quiver: Quiver) -> set[int]:
    d = delta(quiver)
    return {i for i, x in enumerate(d) if x == 1}


def projective_dims(quiver: Quiver, vertex: int) -> DimVector:
    """Dimension vector of the projective at a vertex: path counts (acyclic)."""
    order = quiver.topological_order()
    if len(order) < quiver.m:
        raise ValueError("projective dimension vectors need an acyclic quiver")
    m = quiver.m
    counts = [0] * m
    counts[vertex] = 1
    for i in order:
        if counts[i]:
            for j in range(m):
                if quiver.b[i][j] > 0:
                    counts[j] += quiver.b[i][j] * counts[i]
    return tuple(counts)


# -- subspace enumeration over F_p -------------------------------------------

def rref_subspaces(n: int, k: int, p: int):
    """Yield all k-dimensional subspaces of F_p^n as RREF row tuples."""
    if k < 0 or k > n:
        return
    if k == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), k):
        free_positions = []
        for r in range(k):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in itertools.product(range(p), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(k)]
            for r in range(k):
                rows[r][pivots[r]] = 1
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


def _in_span(rows: Matrix, pivots: tuple[int, ...], vec: list[int], p: int) -> bool:
    vec = list(vec)
    for row, piv in zip(rows, pivots):
        c = vec[piv]
        if c:
            for i in range(len(vec)):
                vec[i] = (vec[i] - c * row[i]) % p
    return not any(vec)


def _pivots(rows: Matrix) -> tuple[int, ...]:
    out = []
    for row in rows:
        out.append(next(i for i, x in enumerate(row) if x))
    return tuple(out)


def count_points(rep: QuiverRep, e: Sequence[int], p: int) -> int:
    """Number of subrepresentations of dimension vector e over F_p."""
    e = tuple(int(x) for x in e)
    if len(e) != rep.quiver.m:
        raise ValueError("dimension vector length mismatch")
    if any(x < 0 or x > d for x, d in zip(e, rep.dims)):
        raise ValueError("dimension vector %s exceeds dims %s" % (e, rep.dims))
    if not rep.admissible(p):
        raise InadmissiblePrime("prime %d degenerates a parameter of the fixture" % p)
    arrows = rep.arrows
    reduced = [tuple(tuple(x % p for x in row) for row in mat) for mat in rep.maps]
    spaces = [list(rref_subspaces(rep.dims[i], e[i], p)) for i in range(rep.quiver.m)]
    pivot_cache = [[_pivots(rows) for rows in per_vertex] for per_vertex in spaces]
    count = 0
    for choice in itertools.product(*(range(len(s)) for s in spaces)):
        ok = True
        for (t, h), mat in zip(arrows, reduced):
            ut = spaces[t][choice[t]]
            uh = spaces[h][choice[h]]
            ph = pivot_cache[h][choice[h]]
            for u in ut:
                img = [sum(m_row[c] * u[c] for c in range(len(u))) % p for m_row in mat]
                if not _in_span(uh, ph, img, p):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def subrep_dimvectors(rep: QuiverRep, prime: int | None = None) -> list[DimVector]:
    """All e <= dims whose Grassmannian is nonempty over a test prime."""
    if prime is None:
        prime = next(p for p in DEFAULT_PRIMES if rep.admissible(p))
    out = []
    for e in itertools.product(*(range(d + 1) for d in rep.dims)):
        if count_points(rep, e, prime) > 0:
            out.append(e)
    out.sort(key=lambda e: (sum(e), e))
    return out


def _interpolate(points: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Lagrange interpolation; coefficients of the polynomial, low degree first."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            # multiply basis by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] -= c * xj
                nxt[d + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    return coeffs


def counting_degree_bound(rep: QuiverRep, e: Sequence[int]) -> int:
    return sum(x * (d - x) for x, d in zip(e, rep.dims))


def euler_characteristic(rep: QuiverRep, e: Sequence[int],
                         primes: Sequence[int] = DEFAULT_PRIMES) -> int:
    """Counting polynomial evaluated at 1, certified by a held-out prime."""
    e = tuple(int(x) for x in e)
    bound = counting_degree_bound(rep, e)
    admissible = [p for p in primes if rep.admissible(p)]
    if len(admissible) < bound + 2:
        raise ValueError("need at least %d admissible primes, got %d"
                         % (bound + 2, len(admissible)))
    sample = admissible[:bound + 1]
    held_out = admissible[bound + 1]
    points = [(p, count_points(rep, e, p)) for p in sample]
    coeffs = _interpolate(points)
    if any(c.denominator != 1 for c in coeffs):
        raise NonPolynomialCount("interpolated counting polynomial for e=%s is not integral" % (e,))
    predicted = sum(int(c) * held_out ** d for d, c in enumerate(coeffs))
    actual = count_points(rep, e, held_out)
    if predicted != actual:
        raise NonPolynomialCount(
            "held-out prime %d disagrees for e=%s: predicted %d, counted %d"
            % (held_out, e, predicted, actual))
    return sum(int(c) for c in coeffs)


@dataclass(frozen=True)
class GrassmannianTable:
    rows: tuple[tuple[DimVector, int], ...]

    def chi_sum(self) -> int:
        return sum(chi for _, chi in self.rows)

    def as_dict(self) -> dict[DimVector, int]:
        return {e: chi for e, chi in self.rows}

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def to_json(self) -> list[dict]:
        return [{"e": list(e), "chi": str(chi)} for e, chi in self.rows]


def grassmannian_table(rep: QuiverRep,
                       primes: Sequence[int] = DEFAULT_PRIMES) -> GrassmannianTable:
    """(e, chi) for every nonempty subrepresentation dimension vector."""
    rows = []
    for e in subrep_dimvectors(rep):
        rows.append((e, euler_characteristic(rep, e, primes)))
    return GrassmannianTable(tuple(rows))
