"""Quiver operations and pinned search outputs that only the tests use."""

from friezelab import catalog

# Words and arrived B-matrices of the double-arrow searches, recorded from the
# brute-force canonical form that individualization-refinement replaced.  Any
# complete invariant visits the same classes in the same order, so these must
# not move.
PINNED_SEARCHES = {
    "d4": (catalog.d4_star, [2, 0, 3, 4],
           [[0, 2, -1, -1, -1],
            [-2, 0, 1, 1, 1],
            [1, -1, 0, 0, 0],
            [1, -1, 0, 0, 0],
            [1, -1, 0, 0, 0]]),
    "d5": (lambda: catalog.affine_d(5), [2, 3, 0, 4, 5],
           [[0, -2, 0, 1, 1, 1],
            [2, 0, 0, -1, -1, -1],
            [0, 0, 0, 1, 0, 0],
            [-1, 1, -1, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0]]),
    "e6": (catalog.e6_affine, [1, 2, 0, 3, 5, 2, 0, 4, 6],
           [[0, -1, 1, 0, 0, 0, 0],
            [1, 0, -2, 0, 1, 0, 1],
            [-1, 2, 0, 0, -1, 0, -1],
            [0, 0, 0, 0, 0, 0, 1],
            [0, -1, 1, 0, 0, -1, 0],
            [0, 0, 0, 0, 1, 0, 0],
            [0, -1, 1, -1, 0, 0, 0]]),
    "e7": (catalog.e7_affine, [3, 4, 2, 5, 7, 1, 2, 3, 6],
           [[0, -2, 1, 1, 0, 0, 1, 0],
            [2, 0, -1, -1, 0, 0, -1, 0],
            [-1, 1, 0, 0, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, -1, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0, 0, -1],
            [0, 0, 0, 0, -1, 0, 1, 0]]),
    "e8": (catalog.e8_affine, [5, 4, 6, 3, 8, 2, 4, 7, 1, 2, 3, 5],
           [[0, -2, 1, 1, 0, 1, 0, 0, 0],
            [2, 0, -1, -1, 0, -1, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0, 0, 0, 0],
            [-1, 1, 0, 0, -1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0, 0, -1, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 1, 0, 0, -1],
            [0, 0, 0, 0, 0, 0, -1, 1, 0]]),
}


def reference_isomorphisms(p, q):
    """Every bijection sigma with q.b[sigma(i)][sigma(j)] == p.b[i][j] that
    sends frozen vertices to frozen ones and mutable to mutable ones, by
    plain backtracking over the vertices in order, in lexicographic order.
    It shares no code with the canonical form it checks."""
    if p.m != q.m:
        return []
    frozen_p = [label in p.frozen for label in p.labels]
    frozen_q = [label in q.frozen for label in q.labels]
    found, image = [], []

    def extend(i):
        if i == p.m:
            found.append(tuple(image))
            return
        for j in range(q.m):
            if (j not in image and frozen_p[i] == frozen_q[j]
                    and all(p.b[i][i2] == q.b[j][j2] for i2, j2 in enumerate(image))):
                image.append(j)
                extend(i + 1)
                image.pop()

    extend(0)
    return found
