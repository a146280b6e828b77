"""Quivers as skew-symmetric exchange matrices, with mutation, canonical
forms, and breadth-first search of a mutation class.

Vertices carry string labels; B[i][j] = (#arrows i -> j) - (#arrows j -> i).
Everything here is exact integer combinatorics.

The canonical form is the one isomorphism test: two quivers are isomorphic,
by a bijection that keeps frozen vertices frozen, exactly when their
canonical keys are equal, and then the map sending one canonical order
onto the other, position by position, is an isomorphism.  Its color
refinement gives a vertex a signature, one integer whose base-(m+1) digits
count its nonzero entries by (rank of the value B[i][j], color of j), above
its own color, so it codes the color and that multiset exactly; signatures
are ranked until the partition is stable.  Frozen vertices start in a color
of their own, so no isomorphism unfreezes one.
The canonical form is individualization-refinement (McKay & Piperno,
Practical graph isomorphism II, 2014): each vertex of the first smallest
non-singleton cell is given a color of its own in turn, the partition is
refined again, and the search recurses until every cell is a singleton.
The canonical key is the least B-matrix, read in leaf order, over all
leaves of that tree (then the number of frozen vertices, if any); that
leaf's vertex order is the canonical order.  Two vertices with equal rows
are twins: swapping them is an automorphism that fixes the rest of the
search node, so only the first of them is individualized, and a node whose
every cell consists of twins is a leaf.  The work is exponential only in
the symmetry that refinement cannot break and that twins do not cover.

The mutation-class search computes a canonical form for a child only when
no record places it.  Every class records, per vertex, the class of the
child there and an isomorphism onto that class's representative, read off
other records by reversal, twins, commuting squares and pentagons where it
can.  A record only ever names a visited class, so a shortcut never hides
a new class, and a missing record costs one form.  Records live as long as
the search; equal isomorphisms are stored once.
"""

from __future__ import annotations

import functools
from collections import deque
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .errors import SearchNotFound, integer

Matrix = tuple[tuple[int, ...], ...]

MAX_NODES = 50_000  # default budget: canonical classes a mutation-class search may visit


class Quiver:
    """A finite quiver without loops or 2-cycles, encoded by its B-matrix."""

    __slots__ = ("labels", "b", "frozen")

    def __init__(self, labels: Iterable[str], b: Sequence[Sequence[int]],
                 frozen: Iterable[str] = ()):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate vertex labels")
        m = len(labels)
        rows = tuple(tuple(integer(x, name="B entry") for x in row) for row in b)
        if len(rows) != m or any(len(r) != m for r in rows):
            raise ValueError("B must be a %d x %d matrix" % (m, m))
        for i in range(m):
            if rows[i][i] != 0:
                raise ValueError("diagonal of B must vanish")
            for j in range(m):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("B must be skew-symmetric")
        self.labels = labels
        self.b = rows
        self.frozen = frozenset(str(x) for x in frozen)
        if not self.frozen <= set(labels):
            raise ValueError("frozen vertices must be existing labels")

    @classmethod
    def _raw(cls, labels: tuple[str, ...], b: Matrix, frozen: frozenset) -> "Quiver":
        # internal fast path: trusts the caller to pass a valid B-matrix
        quiver = object.__new__(cls)
        quiver.labels = labels
        quiver.b = b
        quiver.frozen = frozen
        return quiver

    # -- basics --------------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        if (label := str(label)) not in self.labels:
            raise ValueError("no vertex labelled %r in %s" % (label, self.labels))
        return self.labels.index(label)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.labels == other.labels and self.b == other.b and self.frozen == other.frozen

    def __hash__(self) -> int:
        return hash((self.labels, self.b, self.frozen))

    def __repr__(self) -> str:
        return "Quiver(labels=%s)" % (self.labels,)

    def arrows(self) -> list[tuple[int, int]]:
        """Arrow list (tail, head) with multiplicity, in row-major order."""
        out = []
        for i in range(self.m):
            for j in range(self.m):
                if self.b[i][j] > 0:
                    out.extend([(i, j)] * self.b[i][j])
        return out

    def topological_order(self) -> list[int]:
        """Vertices ordered so that every arrow points forward (Kahn's
        algorithm); fewer than m vertices when the quiver has an oriented
        cycle."""
        m = self.m
        indeg = [0] * m
        for i in range(m):
            for j in range(m):
                if self.b[i][j] > 0:
                    indeg[j] += 1
        queue = deque(i for i in range(m) if indeg[i] == 0)
        order = []
        while queue:
            i = queue.popleft()
            order.append(i)
            for j in range(m):
                if self.b[i][j] > 0:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        queue.append(j)
        return order

    # -- mutation --------------------------------------------------------------

    def mutate(self, k: int) -> "Quiver":
        """Standard matrix mutation at vertex index k, which must not be frozen.

        A row with B[i][k] == 0 is left unchanged and is reused as it is.
        """
        if not 0 <= (k := integer(k, name="k")) < self.m:
            raise IndexError("vertex index %r is outside 0..%d" % (k, self.m - 1))
        if self.labels[k] in self.frozen:
            raise ValueError("cannot mutate frozen vertex %r" % self.labels[k])
        b = self.b
        out_k = [(j, x) for j, x in enumerate(b[k]) if x > 0]
        in_k = [(j, x) for j, x in enumerate(b[k]) if x < 0]
        rows = []
        for i, old in enumerate(b):
            bik = old[k]
            if i == k:
                rows.append(tuple(-x for x in old))
            elif not bik:
                rows.append(old)
            else:
                # b'_ij = b_ij + |b_ik| b_kj where b_ik and b_kj have the same sign
                row = list(old)
                row[k] = -bik
                weight = abs(bik)
                for j, x in (out_k if bik > 0 else in_k):
                    row[j] += weight * x
                rows.append(tuple(row))
        return Quiver._raw(self.labels, tuple(rows), self.frozen)

    def mutate_word(self, word: Sequence[int]) -> "Quiver":
        q = self
        for k in word:
            q = q.mutate(k)
        return q

    # -- structure queries -----------------------------------------------------

    def double_arrows(self) -> list[tuple[int, int]]:
        """Ordered pairs (u, v) with exactly two parallel arrows u -> v."""
        return [(u, v) for u in range(self.m) for v in range(self.m) if self.b[u][v] == 2]

    def permuted(self, perm: Sequence[int]) -> "Quiver":
        """Relabel: vertex i moves to slot perm[i] (labels move with it)."""
        m, perm = self.m, [integer(s, name="perm") for s in perm]
        if sorted(perm) != list(range(m)):
            raise ValueError("perm %r is not a permutation of range(%d)" % (perm, m))
        inv = sorted(range(m), key=perm.__getitem__)  # inv[perm[i]] == i
        labels = tuple(self.labels[inv[s]] for s in range(m))
        b = tuple(tuple(self.b[inv[s]][inv[t]] for t in range(m)) for s in range(m))
        return Quiver._raw(labels, b, self.frozen)

    # -- canonical form ---------------------------------------------------------

    def canonical_key(self) -> tuple:
        """Complete invariant of isomorphisms that keep frozen vertices frozen:
        the least row-major flattening of B over the leaves of the
        individualization-refinement tree, then the frozen count if nonzero."""
        return self._canonical_form()[0]

    def _canonical_form(self) -> tuple[tuple, tuple[int, ...]]:
        """(key, order) with key[i * m + j] == B[order[i]][order[j]]."""
        b, m = self.b, self.m
        entries, lead = _entries(b)
        best: tuple | None = None
        best_order: list[int] = []
        stack = [_refine(entries, lead, [int(label in self.frozen) for label in self.labels])]
        while stack:
            colors = stack.pop()
            order = sorted(range(m), key=colors.__getitem__)
            # Equal rows force B[u][v] == B[v][v] == 0, so swapping u and v is
            # an automorphism that fixes this node: their subtrees give equal
            # leaves.  Once every cell is a set of twins, every leaf below
            # reads the matrix in this order.
            if all(b[u] == b[v] for u, v in zip(order, order[1:]) if colors[u] == colors[v]):
                leaf = tuple([row[w] for row in [b[v] for v in order] for w in order])
                if best is None or leaf < best:
                    best, best_order = leaf, order
                continue
            sizes = [0] * m
            for c in colors:
                sizes[c] += 1
            cell_color = min((n, c) for c, n in enumerate(sizes) if n > 1)[1]
            shifted = [2 * c + 1 for c in colors]
            tried = set()
            for v in range(m):
                if colors[v] != cell_color or b[v] in tried:
                    continue
                tried.add(b[v])
                child = shifted[:]
                child[v] -= 1
                stack.append(_refine(entries, lead, child))
        if self.frozen:
            best += (len(self.frozen),)
        return best, tuple(best_order)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"labels": list(self.labels),
                "b": [list(row) for row in self.b],
                "frozen": sorted(self.frozen)}

    @classmethod
    def from_json(cls, data) -> "Quiver":
        labels, frozen = data["labels"], data.get("frozen", [])
        if not all(isinstance(names, list) and all(isinstance(x, str) for x in names)
                   for names in (labels, frozen)):
            raise ValueError("labels and frozen must list strings: %r, %r" % (labels, frozen))
        return cls(labels, data["b"], frozen)


@functools.lru_cache(maxsize=64)
def _weights(m: int, values: int) -> tuple[tuple[int, ...], ...]:
    """Rows (m+1)^(v*C + c) over c < C = 2m per value v, then c * (m+1)^(values*C)."""
    colors = 2 * m
    powers = list(accumulate(range(values * colors), lambda p, _: p * (m + 1), initial=1))
    return tuple([tuple(powers[v * colors:(v + 1) * colors]) for v in range(values)]
                 + [tuple(c * powers[-1] for c in range(colors))])


def _entries(b: Matrix) -> tuple[list[tuple[int, int, tuple]], tuple[int, ...]]:
    """Nonzero entries (i, j, weight row of v) of B, v the rank of B[i][j]
    among the nonzero values, and the lead row."""
    values = sorted({x for row in b for x in row if x})
    weights = _weights(len(b), len(values))
    rank = dict(zip(values, weights))
    entries = [(i, j, rank[x]) for i, row in enumerate(b) for j, x in enumerate(row) if x]
    return entries, weights[-1]


def _refine(entries: list[tuple[int, int, tuple]], lead: tuple[int, ...],
            colors: list[int]) -> list[int]:
    """Coarsest stable refinement of a coloring of m vertices by colors
    below C = 2m, as dense ranks of the codes color[i] * (m+1)^(V*C) plus
    (m+1)^(v*C + color[j]) summed over the entries (i, j, v), V values.  A
    row has at most m - 1 entries, so each base-(m+1) digit of the sum is
    the multiplicity of one (v, color[j]) pair and the sum stays below
    (m+1)^(V*C): the code is the color and the multiset exactly.  So cells
    only split and keep their order, and a relabeling permutes the result."""
    count = len(set(colors))
    while True:
        codes = [lead[c] for c in colors]
        for i, j, w in entries:
            codes[i] += w[colors[j]]
        ranks = {code: r for r, code in enumerate(sorted(set(codes)))}
        colors = [ranks[code] for code in codes]
        if len(ranks) == count or len(ranks) == len(codes):
            return colors
        count = len(ranks)


class MutationWord(tuple):
    """A mutation sequence: a tuple of vertex indices, applied left first."""

    def __new__(cls, sequence: Iterable[int]):
        return super().__new__(cls, (integer(k, name="mutation word entry") for k in sequence))

    def __repr__(self) -> str:
        return "MutationWord(%s)" % (list(self),)

    @property
    def sequence(self) -> tuple[int, ...]:
        return tuple(self)


def mutation_class_search(start: Quiver,
                          predicate: Callable[[Quiver], bool],
                          max_nodes: int = MAX_NODES) -> tuple[Quiver, MutationWord]:
    """Breadth-first search of the mutation class up to isomorphism.

    Returns the first quiver satisfying the predicate together with the
    mutation word reaching it; raises SearchNotFound once max_nodes distinct
    canonical quivers have been visited.  Frozen vertices are never mutated,
    and the canonical form never maps one to a mutable vertex.

    Each class records, per mutable vertex k of its representative Q, the
    class R of mu_k(Q) and an isomorphism psi from mu_k(Q) onto R's
    representative; a vertex with a record is not expanded.  A record is
    the child's canonical form or is read off other records:
    - reverse: mutation is an involution, so R's record at psi(k) is (Q, psi^-1);
    - twins: a vertex k with the row of an earlier j has j's record, psi o (k j);
    - squares: for Q' = mu_l(P) expanded at k with B[k][l] == 0, mu_k(Q') is
      mu_l(mu_k(P)): P's record at k, (N, psi), and N's at psi(l), (R, chi),
      give chi o psi;
    - pentagons: with |B[k][l]| == 1, mu_k(Q') is sigma mu_k mu_l mu_k(P),
      sigma the swap of k and l (the period-5 relation of a rank-2 A2
      subseed): three records P -> N -> M -> R, which through a reverse
      record may start at P's own parent.
    When only the last record of a square or a pentagon is missing, the
    child's form fills it, so that corner costs no form when expanded.
    Every record names a visited class, so it only drops a child that
    keying it would find visited: words, arrived quivers and visited counts
    are those of keying every child.  Records live as long as the search,
    and the records share one object per distinct isomorphism.
    """
    max_nodes = integer(max_nodes, least=1, name="max_nodes")
    if predicate(start):
        return start, MutationWord([])
    m = start.m
    identity = tuple(range(m))
    key, order = start._canonical_form()
    # a class is an id into these lists: canonical order, per vertex (class, isomorphism)
    visited = {key: 0}
    orders = [order]
    records = [[None] * m]
    isos: dict = {}  # one object per isomorphism, shared by the records

    def link(c: int, k: int, r: int, iso) -> None:
        records[c][k] = (r, isos.setdefault(iso, iso))
        if records[r][iso[k]] is None:
            inverse = tuple(sorted(range(m), key=iso.__getitem__))
            records[r][iso[k]] = (c, isos.setdefault(inverse, inverse))

    def swapped(iso, u: int, v: int):
        iso = list(iso)
        iso[u], iso[v] = iso[v], iso[u]
        return tuple(iso)

    queue = deque([(start, (), 0, None, None)])
    while queue:
        quiver, word, c, parent, l = queue.popleft()
        record = records[c]
        first = {}
        for k in range(m):
            row = quiver.b[k]
            if quiver.labels[k] in quiver.frozen:
                continue
            twin = first.setdefault(row, k)
            if record[k] is not None:
                continue
            if twin != k:
                r, iso = record[twin]
                link(c, k, r, swapped(iso, k, twin))
                continue
            # (X, phi): phi maps mu_k(quiver) onto mu_phi(l) of X's representative
            corner = None
            if parent is not None and abs(row[l]) < 2:
                n, psi = records[parent][k]
                if not row[l]:
                    corner = (n, psi)
                elif (hop := records[n][psi[l]]) is not None:
                    corner = (hop[0], swapped([hop[1][v] for v in psi], k, l))
            if corner is not None:
                x, phi = corner
                if (hit := records[x][phi[l]]) is not None:
                    link(c, k, hit[0], tuple(map(hit[1].__getitem__, phi)))
                    continue
            nxt = quiver.mutate(k)
            key, order = nxt._canonical_form()
            seen = visited.get(key)
            if seen is not None:
                # vertex order[i] of the child is vertex orders[seen][i] there
                iso = tuple(v for _, v in sorted(zip(order, orders[seen])))
            else:
                if predicate(nxt):
                    return nxt, MutationWord(word + (k,))
                seen = len(orders)
                visited[key] = seen
                if len(visited) >= max_nodes:
                    raise SearchNotFound("no quiver matching the predicate within %d canonical quivers"
                                         % max_nodes)
                orders.append(order)
                records.append([None] * m)
                iso = identity
                queue.append((nxt, word + (k,), seen, c, k))
            link(c, k, seen, iso)
            if corner is not None:
                # the missing last record: mu_phi(l) of X's representative is the child
                x, phi = corner
                link(x, phi[l], seen, tuple(iso[v] for v in sorted(range(m), key=phi.__getitem__)))
    raise SearchNotFound("mutation class exhausted (%d canonical quivers) without a match"
                         % len(visited))


def has_double_arrow(q: Quiver) -> bool:
    return any(2 in row for row in q.b)
