"""Operations on representations that only the tests use."""

import friezelab.rep as rep_module
from friezelab.rep import QuiverRep


def direct_sum(m1: QuiverRep, m2: QuiverRep) -> QuiverRep:
    """Block-diagonal sum of two representations of the same quiver."""
    if m1.quiver != m2.quiver:
        raise ValueError("summands must share the quiver")
    dims = tuple(a + b for a, b in zip(m1.dims, m2.dims))
    maps = [[row + (0,) * m2.dims[t] for row in a] + [(0,) * m1.dims[t] + row for row in b]
            for (t, h), a, b in zip(m1.quiver.arrows(), m1.maps, m2.maps)]
    return QuiverRep(m1.quiver, dims, maps, {**m1.params, **m2.params})


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
