"""Periodic infinite frieze patterns generated from quiddity sequences.

Entries x[i][j] live on diagonals: x[i][i] = 0, x[i][i+1] = 1, and
`chebyshev.recurrence` fills everything below with the division-free
x[i][j+1] = a[j+1]*x[i][j] - x[i][j-1] (quiddity index mod n).  Integrality
holds by construction, and the diamond relation bc - ad = 1 is certified
afterwards on every stored diamond: the first of each pair of adjacent
diagonals by its two products, and every later one by the identity, read
with the quiddity entry, that equates it with the diamond above.  Each
diagonal runs past the requested depth until every later entry is
certified positive, so only an infinite frieze gets a pattern.

Row numbering follows the staggered layout: the row of 0's is row -1, the
row of 1's is row 0, the quiddity row is row 1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .chebyshev import chebyshev_T, recurrence
from .errors import InvalidFrieze, NonPositiveEntry, integer


class Quiddity:
    """A cyclic sequence of positive integers, compared up to rotation."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[int]):
        ent = tuple(integer(a, least=1, name="quiddity entry") for a in entries)
        if not ent:
            raise ValueError("quiddity must have at least one entry")
        self.entries = ent

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def rotations(self) -> list[tuple[int, ...]]:
        n = len(self.entries)
        return [self.entries[i:] + self.entries[:i] for i in range(n)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quiddity):
            return NotImplemented
        return len(self) == len(other) and other.entries in self.rotations()

    def __hash__(self) -> int:
        return hash(min(self.rotations()))

    def __repr__(self) -> str:
        return "Quiddity(%s)" % (self.entries,)


class FriezePattern:
    """An n-periodic infinite frieze computed down to a fixed depth."""

    def __init__(self, quiddity: Quiddity, depth: int, diagonals: dict[int, list[int]]):
        self.quiddity = quiddity
        self.depth = depth
        self._diagonals = diagonals  # residue of i (mod n) -> [x[i][i+t] for t in 0..depth+1]

    @property
    def period(self) -> int:
        return len(self.quiddity)

    def entry(self, i: int, j: int) -> int:
        """The entry x[i][j]; defined for j - i in [0, depth + 1]."""
        i, j = integer(i, name="i"), integer(j, name="j")
        t = j - i
        if t < 0 or t > self.depth + 1:
            raise IndexError("entry (%d, %d) lies outside the computed band" % (i, j))
        return self._diagonals[i % self.period][t]

    def row(self, r: int) -> list[int]:
        """One period of row r, aligned with the printed staggered layout."""
        if (r := integer(r, name="r")) < -1 or r > self.depth:
            raise IndexError("row %d not computed (depth %d)" % (r, self.depth))
        start, n = (-2 - (r // 2) if r >= 0 else -2), self.period
        # x[start + t][start + t + r + 1] is entry r + 1 of the diagonal through start + t
        return [self._diagonals[(start + t) % n][r + 1] for t in range(n)]

    def __repr__(self) -> str:
        return "FriezePattern(quiddity=%s, depth=%d)" % (self.quiddity.entries, self.depth)


def generate(quiddity: Quiddity | Sequence[int], depth: int) -> FriezePattern:
    """Fill a frieze pattern from its quiddity row down to the given depth.

    Raises NonPositiveEntry at the first entry in rows >= 1 that is not
    positive, at any depth, since then the quiddity does not bound an
    infinite frieze.  Entries n apart on a diagonal satisfy e_{k+1} =
    s*e_k - e_{k-1} with s = tr M (Cayley-Hamilton).  If e_{k+1} - e_k >=
    e_k - e_{k-1} >= 0 with e_{k-1} > 0, then s >= 2 and e_{k+2} - e_{k+1} =
    (s - 2)*e_{k+1} + (e_{k+1} - e_k) >= e_{k+1} - e_k, so the next triple
    holds too and every later entry is positive.  So each diagonal runs to
    the depth, and past it until n consecutive entries end such a triple,
    or until an entry <= 0 appears.  Either happens: when s <= 1 some entry
    is <= 0, and when s >= 2 each subsequence either starts to grow or
    reaches 0 or below.

    Then _check_diamonds certifies bc - ad = 1 on every stored diamond and
    raises InvalidFrieze at the first that fails.
    """
    quiddity, depth = Quiddity(quiddity), integer(depth, least=1, name="depth")
    n, rotations = len(quiddity), quiddity.rotations()
    diagonals: dict[int, list[int]] = {}
    for res in range(n):
        # the diagonal through (i, i) depends only on i mod n; a[i+t+1] makes x[i][i+t+1]
        entries = recurrence(0, 1, rotations[(res + 2) % n])
        diag = [next(entries), next(entries)]
        streak, t = 0, 1
        while t <= depth or streak < n:
            nxt = next(entries)
            if nxt <= 0:
                raise NonPositiveEntry(
                    "entry in row %d is %d <= 0; quiddity %s does not bound an infinite frieze"
                    % (t, nxt, quiddity.entries))
            diag.append(nxt)
            t += 1
            if streak < n:
                # diag[t - 2n] is positive once t > 2n: only diag[0] is not
                convex = t > 2 * n and nxt - diag[t - n] >= diag[t - n] - diag[t - 2 * n] >= 0
                streak = streak + 1 if convex else 0
        del diag[depth + 2:]
        diagonals[res] = diag
    _check_diamonds(quiddity.entries, diagonals, depth)
    return FriezePattern(quiddity, depth, diagonals)


def _check_diamonds(entries: Sequence, diagonals: dict[int, list], depth: int) -> None:
    """Certify every stored diamond, or raise InvalidFrieze at the first that fails.

    The diamond at (i, i + t) reads the adjacent diagonals d = i and e = i + 1:
    W_t = d[t]*e[t] - e[t-1]*d[t+1] = x[i][i+t]*x[i+1][i+1+t] -
    x[i+1][i+t]*x[i][i+1+t] must be 1 for t in 1..depth.  For t >= 2,
        W_t - W_{t-1} = d[t]*(e[t] + e[t-2]) - e[t-1]*(d[t+1] + d[t-1]),
    which is 0 when both sums are a*d[t] and a*e[t-1] for the quiddity entry
    a = entries[(i + t + 1) % n]; then W_t = W_{t-1}, already certified.  W_1
    and any other t multiply W_t out.  This holds for any a, so the check
    accepts exactly the diagonals on which every W_t is 1 and names the same
    first failure as the products would.  It uses only +, * and ==, so the
    quiddity and the diagonals may hold ints or LaurentPolys.
    """
    n = len(entries)
    for i in range(n):
        d, e = diagonals[i], diagonals[(i + 1) % n]
        for t in range(1, depth + 1):
            a = entries[(i + t + 1) % n]
            if t > 1 and d[t + 1] + d[t - 1] == a * d[t] and e[t] + e[t - 2] == a * e[t - 1]:
                continue
            if d[t] * e[t] - e[t - 1] * d[t + 1] != 1:
                raise InvalidFrieze("diamond relation fails at (%d, %d)" % (i, i + t))


def growth(pattern: FriezePattern, k: int) -> int:
    """The k-th growth coefficient s_k = T_k(s_1) of the pattern, with s_1
    read from the entries (row n minus row n-2, checked to be independent
    of the starting diagonal)."""
    return chebyshev_T(integer(k, least=1, name="k"), measured_growth(pattern, 1))


def measured_growth(pattern: FriezePattern, k: int) -> int:
    """Read s_k directly from the entries (needs depth >= k*n)."""
    k = integer(k, least=1, name="k")
    n = pattern.period
    if pattern.depth < k * n:
        raise ValueError("depth %d too shallow to measure s_%d" % (pattern.depth, k))
    diffs = {pattern.entry(i, i + k * n + 1) - pattern.entry(i + 1, i + k * n) for i in range(n)}
    if len(diffs) != 1:
        raise InvalidFrieze("growth difference depends on the diagonal: %s" % sorted(diffs))
    return diffs.pop()
