"""Operations on representations that only the tests use."""

import friezelab.rep as rep_module
from friezelab.quivers import Quiver
from friezelab.rep import QuiverRep


def direct_sum(m1: QuiverRep, m2: QuiverRep) -> QuiverRep:
    """Block-diagonal sum of two representations of the same quiver."""
    if m1.quiver != m2.quiver:
        raise ValueError("summands must share the quiver")
    dims = tuple(a + b for a, b in zip(m1.dims, m2.dims))
    maps = [[row + (0,) * m2.dims[t] for row in a] + [(0,) * m1.dims[t] + row for row in b]
            for (t, h), a, b in zip(m1.quiver.arrows(), m1.maps, m2.maps)]
    return QuiverRep(m1.quiver, dims, maps, {**m1.params, **m2.params})


def dual(rep: QuiverRep) -> QuiverRep:
    """DM, the dual of rep: the same dimensions on the opposite quiver, where
    the k-th arrow h -> t carries the transpose of the k-th map on t -> h.
    Its subrepresentations of dimension vector dims - e are the annihilators
    of those of rep of dimension vector e."""
    q = rep.quiver
    opposite = Quiver(q.labels, [[-x for x in row] for row in q.b], q.frozen)
    maps: dict = {}
    for arrow, mat in zip(q.arrows(), rep.maps):
        maps.setdefault(arrow, []).append(mat)
    transposed = []
    for t, h in opposite.arrows():
        mat = maps[(h, t)].pop(0)
        transposed.append([[row[j] for row in mat] for j in range(rep.dims[h])])
    return QuiverRep(opposite, rep.dims, transposed, rep.params)


def spy_traversals(monkeypatch) -> list[int]:
    """The primes of the counting traversals run from now on, in order.  A
    traversal runs when its prime's table is not yet kept on the
    representation; a later count at that prime only reads the table."""
    traversed = []
    real = rep_module._count_by_dimvector

    def spy(rep, p):
        if p not in rep._tables:
            traversed.append(p)
        return real(rep, p)

    monkeypatch.setattr(rep_module, "_count_by_dimvector", spy)
    return traversed
