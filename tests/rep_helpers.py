"""Operations on representations that only the tests use."""

from friezelab.rep import QuiverRep


def direct_sum(m1: QuiverRep, m2: QuiverRep) -> QuiverRep:
    """Block-diagonal sum of two representations of the same quiver."""
    if m1.quiver != m2.quiver:
        raise ValueError("summands must share the quiver")
    dims = tuple(a + b for a, b in zip(m1.dims, m2.dims))
    maps = [[row + (0,) * m2.dims[t] for row in a] + [(0,) * m1.dims[t] + row for row in b]
            for (t, h), a, b in zip(m1.quiver.arrows(), m1.maps, m2.maps)]
    return QuiverRep(m1.quiver, dims, maps, {**m1.params, **m2.params})
