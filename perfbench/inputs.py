"""Seeded input generation for the three workloads.

Everything here is plain data (lists, ints, strings) made from one
`random.Random(seed)`; the workloads turn it into friezelab objects.  Each
workload's operation list holds the same multiset of operation kinds and
size strata on every seed, in a seeded order and with seeded instances, so
that runs on different seeds do the same amount and mix of work and differ
only in the concrete inputs.  The list holds a few copies of each input,
and a run times the whole list several times over, so that every input is
timed often enough for its fastest timing to show its own cost.
"""

from __future__ import annotations

import hashlib
import json
import random

def _copies(ops: list[dict], copies: int) -> list[dict]:
    return [op for op in ops for _ in range(copies)]

# -- mutation-search ----------------------------------------------------------

# Underlying trees of the affine diagrams, as (labels, edges).
def _affine_d_tree(rank: int) -> tuple[list[str], list[tuple[str, str]]]:
    spine = ["s%d" % i for i in range(1, rank - 2)]
    labels = ["f1", "f2"] + spine + ["f3", "f4"]
    edges = [("f1", spine[0]), ("f2", spine[0]), (spine[-1], "f3"), (spine[-1], "f4")]
    edges += list(zip(spine, spine[1:]))
    return labels, edges


TREES = {
    "D6": _affine_d_tree(6),
    "D7": _affine_d_tree(7),
    "E6": ([str(i) for i in range(1, 8)],
           [("2", "1"), ("3", "2"), ("4", "1"), ("5", "4"), ("6", "1"), ("7", "6")]),
    "E7": ([str(i) for i in range(1, 9)],
           [(str(i + 1), str(i)) for i in range(1, 7)] + [("8", "4")]),
}

# E7 orientations, as bit masks over TREES["E7"] edges (bit i set: edge i
# reversed), whose mutation class reaches a double arrow in 9 steps.  The
# other 120 orientations need 10-12 steps, and `theta` at the double-arrow
# seed then takes 0.5-12 s, above the 2 s per-operation limit.  The mask 0
# is the orientation of the shipped e7 fixture.
E7_NEAR_MASKS = (0, 63, 64, 127)

# The operation list, as (type, orientations, copies of each).  D6 searches, whose
# cost varies least between orientations, are 20 of the 26 operations, so
# both op_p50_ms and op_tail_ms (the 11th slowest operation) are D6
# latencies: the seventh and the eighth cheapest of ten orientations.
SEARCH_OPS = (("D6", 10, 2), ("E6", 1, 3), ("D7", 1, 2), ("E7", 1, 1))


def _orientation(kind: str, rng: random.Random) -> dict:
    labels, edges = TREES[kind]
    if kind == "E7":
        mask = rng.choice(E7_NEAR_MASKS)
    else:
        mask = rng.getrandbits(len(edges))
    arrows = [[h, t] if (mask >> i) & 1 else [t, h] for i, (t, h) in enumerate(edges)]
    # A seeded vertex order: the BFS tries mutations in index order, so the
    # order changes which double-arrow seed (and word) the search finds.
    order = list(labels)
    rng.shuffle(order)
    return {"kind": "search", "type": kind, "labels": order, "arrows": arrows}


def _search_ops(rng: random.Random) -> list[dict]:
    return [op for kind, count, copies in SEARCH_OPS
            for op in _copies([_orientation(kind, rng) for _ in range(count)], copies)]


# -- exchange -------------------------------------------------------------------

# Twelve chains of the tail length and sixteen of the middle length, whose
# costs are the same on every seed, four chains of seeded lengths and two
# copies each of six seeded modular words.  The middle chains hold the
# median and the tail chains the 11th slowest operation whichever way the
# seeded operations fall, so op_p50_ms is a 12-step chain and op_tail_ms a
# 14-step chain.
KRONECKER_TAIL = (14, 12)       # (length, chains)
KRONECKER_MIDDLE = (12, 16)
KRONECKER_SEEDED = 4            # chains of seeded length
KRONECKER_LENGTHS = (6, 10)     # inclusive range of the seeded lengths
MODULAR_WORDS = 3               # words per base quiver (E6 and E7)
MODULAR_COPIES = 2
MODULAR_WORD_LENGTHS = (6, 10)  # inclusive range
MODULAR_GENERATORS = ("ta", "tb", "tc")
BASE_SIZES = {6: 7, 7: 8}  # n -> vertex count of the E_n double-arrow base quiver


def _exchange_ops(rng: random.Random) -> list[dict]:
    lengths = ([KRONECKER_TAIL[0]] * KRONECKER_TAIL[1]
               + [KRONECKER_MIDDLE[0]] * KRONECKER_MIDDLE[1]
               + [rng.randint(*KRONECKER_LENGTHS) for _ in range(KRONECKER_SEEDED)])
    ops = [{"kind": "kronecker", "length": length, "start": rng.randrange(2)}
           for length in lengths]
    for n in (6, 7):
        for _ in range(MODULAR_WORDS):
            length = rng.randint(*MODULAR_WORD_LENGTHS)
            perm = list(range(BASE_SIZES[n]))
            rng.shuffle(perm)
            word = [rng.choice(MODULAR_GENERATORS) for _ in range(length)]
            ops += _copies([{"kind": "modular", "n": n, "perm": perm, "word": word}],
                           MODULAR_COPIES)
    return ops


# -- tube -------------------------------------------------------------------------

E6_DELTA = (3, 2, 1, 2, 1, 2, 1)
# Arrows of catalog.e6_affine in Quiver.arrows() order, as (tail, head) indices.
E6_ARROWS = ((1, 0), (2, 1), (3, 0), (4, 3), (5, 0), (6, 5))
TUBE_QUIDDITIES = ((8, 2), (4, 4), (9, 36), (7, 7, 7))
FRIEZE_DEPTHS = (800, 1200)  # inclusive range; a frieze costs less than a p=3 count
FRIEZE_PAIRS = 2             # pairs of one D4 and one E6 quiddity
# Cheap characters (twelve values of lambda, four copies each) are two
# thirds of the operations, so op_p50_ms is a cc_map latency.  Above the 16 p=3
# counting operations there are only the four p=5 ones, so op_tail_ms (the
# 11th slowest) is a p=3 counting latency.
CC_OPS = (12, 4)  # (values of lambda, copies of each)
COUNT_PRIMES = (3, 5)
# Representations counted per prime, and copies of each.  The p=5 counts
# are half of the operation time and their cost varies by a third between
# representations, so there are two of them.
COUNT_REPS = {3: 4, 5: 2}
COUNT_COPIES = {3: 2, 5: 1}
# A counting table is split into two operations of about equal cost by the
# dimension e[0] at the central vertex: the e[0] = 2 part costs as much as
# the e[0] in {0, 1, 3} part, because F_p^3 has as many planes as lines.
COUNT_SPLIT = ((0, 1, 3), (2,))
DUALITY_SAMPLE = 12  # dimension vectors per counting operation checked by duality


def _generic_lambda(rng: random.Random) -> int:
    # lambda must avoid 0 and 1 modulo 3, 5 and 7 so the Euler
    # characteristics interpolate from the same three primes in every run
    while True:
        lam = rng.randint(2, 10 ** 6)
        if all(lam % p not in (0, 1) for p in (3, 5, 7)):
            return lam


def _rank(matrix: list[list[int]]) -> int:
    """Rank over the rationals of a 0/1 matrix with at most two columns."""
    if len(matrix[0]) == 1:
        return int(any(row[0] for row in matrix))
    if any(a[0] * b[1] != a[1] * b[0] for a in matrix for b in matrix):
        return 2
    return int(any(any(row) for row in matrix))


def _full_rank_zero_one_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    # Full rank, as in a generic representation; rank-deficient maps keep
    # more candidate subspaces alive and make counting cost vary twice as much.
    while True:
        matrix = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        if _rank(matrix) == min(rows, cols):
            return matrix


def _tube_ops(rng: random.Random) -> list[dict]:
    ops = _copies([{"kind": "cc", "lambda": _generic_lambda(rng)} for _ in range(CC_OPS[0])],
                  CC_OPS[1])
    for p in COUNT_PRIMES:
        for _ in range(COUNT_REPS[p]):
            maps = [_full_rank_zero_one_matrix(rng, E6_DELTA[h], E6_DELTA[t])
                    for t, h in E6_ARROWS]
            for centers in COUNT_SPLIT:
                ops += _copies([{"kind": "count", "p": p, "maps": maps, "centers": list(centers),
                                 "duality_seed": rng.getrandbits(32)}], COUNT_COPIES[p])
    for _ in range(FRIEZE_PAIRS):
        for quiddity in (rng.choice(TUBE_QUIDDITIES[:2]), rng.choice(TUBE_QUIDDITIES[2:])):
            depth = rng.randint(*FRIEZE_DEPTHS)
            ops.append({"kind": "frieze", "quiddity": list(quiddity), "depth": depth,
                        "k": depth // len(quiddity)})
    return ops


GENERATORS = {"mutation-search": _search_ops, "exchange": _exchange_ops, "tube": _tube_ops}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's operation list for a seed, in a seeded order."""
    rng = random.Random("%s/%d" % (workload, seed))
    ops = GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops


def digest(value) -> str:
    """sha256 of the canonical JSON form of plain data."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
