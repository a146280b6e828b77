"""Built-in quivers and representation fixtures used by the tests, the CLI,
and the verification suite.

The affine D4 star, the affine E6 orientation, and the rank-2 tube
representations below are the standard desk examples.  The double-arrow
base quivers, the unique shapes in their mutation classes whose generator
words admit restoring permutations satisfying the tau relations, are one
fan: 0 => 1 with triangles 1 -> w -> 0 and a leg wk -> ... -> w1 -> w
pointing INTO each w in a, b, c.  The legs have (0, 0, rank - 4) vertices
for affine D_rank and E_LEGS[n] = (0, 1, n - 5) for affine E_n, whose
generator t_w has exponent legs[w] + 2 in ta^2 == tb^3 == tc^(n-3).
"""

from __future__ import annotations

from .errors import integer
from .quivers import Quiver
from .rep import QuiverRep


def _quiver_from_arrows(labels, arrows):
    idx = {l: i for i, l in enumerate(labels)}
    m = len(labels)
    b = [[0] * m for _ in range(m)]
    for t, h in arrows:
        b[idx[t]][idx[h]] += 1
        b[idx[h]][idx[t]] -= 1
    return Quiver(labels, b)


# -- acyclic affine quivers ---------------------------------------------------

def kronecker() -> Quiver:
    """Two vertices, two parallel arrows 0 -> 1."""
    return Quiver(["0", "1"], [[0, 2], [-2, 0]])


def affine_a(p: int, q: int) -> Quiver:
    """Cycle with p clockwise and q counterclockwise arrows (p, q >= 1)."""
    p, q = integer(p, least=1, name="p"), integer(q, least=1, name="q")
    n = p + q
    labels = [str(i) for i in range(n)]
    arrows = [(labels[i], labels[(i + 1) % n]) if i < p else (labels[(i + 1) % n], labels[i])
              for i in range(n)]
    return _quiver_from_arrows(labels, arrows)


def d4_star() -> Quiver:
    """Affine D4: center 3 with arrows 3->1, 3->2, 4->3, 5->3."""
    return _quiver_from_arrows(
        ["1", "2", "3", "4", "5"],
        [("3", "1"), ("3", "2"), ("4", "3"), ("5", "3")])


def affine_d(rank: int) -> Quiver:
    """An orientation of the affine D_rank diagram (rank >= 4)."""
    rank = integer(rank, least=4, name="rank")
    if rank == 4:
        return d4_star()
    spine = ["s%d" % i for i in range(1, rank - 2)]
    labels = ["f1", "f2"] + spine + ["f3", "f4"]
    arrows = [("f1", spine[0]), ("f2", spine[0]),
              (spine[-1], "f3"), (spine[-1], "f4")]
    arrows += [(a, b) for a, b in zip(spine, spine[1:])]
    return _quiver_from_arrows(labels, arrows)


def e6_affine() -> Quiver:
    """Affine E6: center 1, legs 3->2->1, 5->4->1, 7->6->1."""
    return _quiver_from_arrows(
        ["1", "2", "3", "4", "5", "6", "7"],
        [("2", "1"), ("3", "2"), ("4", "1"), ("5", "4"), ("6", "1"), ("7", "6")])


def e7_affine() -> Quiver:
    """Affine E7: path 1..7 oriented downward with 8 attached to 4."""
    labels = [str(i) for i in range(1, 9)]
    arrows = [(str(i + 1), str(i)) for i in range(1, 7)] + [("8", "4")]
    return _quiver_from_arrows(labels, arrows)


def e8_affine() -> Quiver:
    """Affine E8: path 1..8 oriented downward with 9 attached to 6."""
    labels = [str(i) for i in range(1, 10)]
    arrows = [(str(i + 1), str(i)) for i in range(1, 8)] + [("9", "6")]
    return _quiver_from_arrows(labels, arrows)


# -- double-arrow base quivers ------------------------------------------------

E_LEGS = {n: {"a": 0, "b": 1, "c": n - 5} for n in (6, 7, 8)}


def leg(w: str, k: int) -> list[str]:
    """The triangle vertex w and the k vertices w1, ..., wk of its leg."""
    return [w] + ["%s%d" % (w, i) for i in range(1, integer(k, least=0, name="k") + 1)]


def _fan(legs: dict[str, int]) -> Quiver:
    """The fan with legs[w] vertices in the leg of each w, labeled 0, 1,
    then each w followed by its leg."""
    labels, arrows = ["0", "1"], [("0", "1"), ("0", "1")]
    for w, k in legs.items():
        chain = leg(w, k)
        labels += chain
        arrows += [("1", w), (w, "0")] + list(zip(chain[1:], chain))
    return _quiver_from_arrows(labels, arrows)


def d_double_arrow(rank: int) -> Quiver:
    """Double-arrow quiver of affine type D_rank (unique for rank 4)."""
    return _fan({"a": 0, "b": 0, "c": integer(rank, least=4, name="rank") - 4})


def e_legs(n: int) -> dict[str, int]:
    """The legs of the affine E_n fan."""
    if (n := integer(n, name="n")) not in E_LEGS:
        raise ValueError("n must be 6, 7 or 8")
    return E_LEGS[n]


def e_double_arrow(n: int) -> Quiver:
    """Double-arrow base quiver of affine type E_n."""
    return _fan(e_legs(n))


# -- representation fixtures ---------------------------------------------------

def d4_m_lambda(lam: int = 2) -> QuiverRep:
    """The dimension-(1,1,2,1,1) representation of the D4 star with maps
    [1 1], [lam 1], [1 0]^T, [0 1]^T.  Generic parameter values (lam not 0
    or 1) give the quasi-simple of a homogeneous tube; lam = 0 degenerates
    into a non-homogeneous tube."""
    params = {"lambda": lam} if lam not in (0, 1) else {}
    return QuiverRep(
        d4_star(),
        dims=(1, 1, 2, 1, 1),
        maps=[
            [[1, 1]],        # 3 -> 1
            [[lam, 1]],      # 3 -> 2
            [[1], [0]],      # 4 -> 3
            [[0], [1]],      # 5 -> 3
        ],
        params=params)


def _d4_rep(dims, maps):
    return QuiverRep(d4_star(), dims, maps)


def d4_tubes() -> list[tuple[QuiverRep, QuiverRep]]:
    """Quasi-simple pairs at the mouths of the three rank-2 tubes of the
    D4 star, in the order (tube 1, tube 2, tube 3)."""
    one = [[1]]
    none_10 = [[]]            # 1 x 0 matrix
    none_01 = []              # 0 x 1 matrix
    r1_tube1 = _d4_rep((1, 1, 1, 1, 1), [one, one, one, one])
    r2_tube1 = _d4_rep((0, 0, 1, 0, 0), [none_01, none_01, none_10, none_10])
    r1_tube2 = _d4_rep((1, 0, 1, 0, 1), [one, none_01, none_10, one])
    r2_tube2 = _d4_rep((0, 1, 1, 1, 0), [none_01, one, one, none_10])
    r1_tube3 = _d4_rep((0, 1, 1, 0, 1), [none_01, one, none_10, one])
    r2_tube3 = _d4_rep((1, 0, 1, 1, 0), [one, none_01, one, none_10])
    return [(r1_tube1, r2_tube1), (r1_tube2, r2_tube2), (r1_tube3, r2_tube3)]


def kronecker_regular() -> QuiverRep:
    """A regular quasi-simple of the Kronecker quiver: maps (1) and (2)."""
    return QuiverRep(kronecker(), (1, 1), [[[1]], [[2]]], {"nu": 2})


E6_TUBE_QUIDDITIES = ((9, 36), (7, 7, 7), (7, 7, 7))

# Dimension vectors of the quasi-simples at the mouths of the three
# non-homogeneous tubes of the affine E6 orientation above (ranks 2, 3, 3).
# Explicit matrices are not shipped; each vector is regular (defect 0) and
# each tube's vectors sum to the radical vector delta = (3,2,1,2,1,2,1).
E6_TUBE_DIMENSION_VECTORS = (
    ((1, 1, 0, 1, 0, 1, 0), (2, 1, 1, 1, 1, 1, 1)),
    ((1, 1, 1, 0, 0, 1, 0), (1, 0, 0, 1, 0, 1, 1), (1, 1, 0, 1, 1, 0, 0)),
    ((1, 1, 0, 0, 0, 1, 1), (1, 1, 1, 1, 0, 0, 0), (1, 0, 0, 1, 1, 1, 0)),
)


def fixture_payloads() -> dict:
    """{path under friezelab/fixtures: JSON payload} for every shipped fixture
    file except d4/goldens.json, whose values are computed rather than stated."""
    tubes = {"d4/tube%d.json" % i: {"reps": [rep.to_json() for rep in tube]}
             for i, tube in enumerate(d4_tubes(), 1)}
    return {
        "d4/quiver.json": d4_star().to_json(),
        "d4/m_lambda.json": d4_m_lambda(2).to_json(),
        "d4/m_lambda0.json": d4_m_lambda(0).to_json(),
        **tubes,
        "d4/double_arrow.json": d_double_arrow(4).to_json(),
        "e6/quiver.json": e6_affine().to_json(),
        "e6/double_arrow.json": e_double_arrow(6).to_json(),
        "e6/quiddities.json": {"tubes": [[str(a) for a in q] for q in E6_TUBE_QUIDDITIES]},
        "e6/tube_dimension_vectors.json":
            {"tubes": [[list(v) for v in tube] for tube in E6_TUBE_DIMENSION_VECTORS]},
        "e7/quiver.json": e7_affine().to_json(),
        "e7/double_arrow.json": e_double_arrow(7).to_json(),
        "e8/quiver.json": e8_affine().to_json(),
        "e8/double_arrow.json": e_double_arrow(8).to_json(),
        "kronecker/quiver.json": kronecker().to_json(),
        "kronecker/regular.json": kronecker_regular().to_json(),
    }
