"""Quiver operations that only the tests use."""


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
