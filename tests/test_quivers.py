import itertools
import random
import re
import time
from collections import deque

import pytest

from friezelab import catalog
from friezelab.errors import SearchNotFound
from friezelab.modular import _resolve
from friezelab.quivers import (MutationWord, Quiver, has_double_arrow,
                               mutation_class_search)

from quiver_helpers import PINNED_SEARCHES, reference_isomorphisms


def test_validation():
    with pytest.raises(ValueError):
        Quiver(["0", "1"], [[0, 1], [1, 0]])  # not skew-symmetric
    with pytest.raises(ValueError):
        Quiver(["0", "1"], [[1, 0], [0, 0]])  # diagonal
    with pytest.raises(ValueError):
        Quiver(["0", "0"], [[0, 0], [0, 0]])  # duplicate labels
    with pytest.raises(ValueError, match="^B entry must be an integer, got 2.9$"):
        Quiver(["0", "1"], [[0, 2.9], [-2.9, 0]])  # not an integer
    with pytest.raises(ValueError, match="^mutation word entry must be an integer, got 1.7$"):
        MutationWord([1.7, 0])
    with pytest.raises(ValueError, match="B must be a 2 x 2 matrix"):
        Quiver(["0", "1"], [[0, 1]])  # not square
    with pytest.raises(ValueError, match="frozen vertices must be existing labels"):
        Quiver(["0", "1"], [[0, 1], [-1, 0]], frozen=["2"])
    # the catalog refuses ranks below its families' smallest member
    with pytest.raises(ValueError, match="^p must be at least 1, got 0$"):
        catalog.affine_a(0, 1)
    for family in (catalog.affine_d, catalog.d_double_arrow):
        with pytest.raises(ValueError, match="^rank must be at least 4, got 3$"):
            family(3)


def test_an_unknown_label_is_named():
    with pytest.raises(ValueError, match=r"^no vertex labelled 'zz' in \('0', '1'\)$"):
        catalog.kronecker().index("zz")
    assert catalog.kronecker().index(1) == 1


def test_kronecker_mutation_flips_double_arrow():
    q = catalog.kronecker()
    m = q.mutate(0)
    assert m.b[1][0] == 2 and m.b[0][1] == -2


def test_mutation_is_involution():
    rng = random.Random(5)
    q = catalog.e6_affine()
    for _ in range(30):
        k = rng.randrange(q.m)
        assert q.mutate(k).mutate(k) == q
        q = q.mutate(rng.randrange(q.m))


def test_d4_star_mutation_at_center():
    # Mutating the star at its center reverses all four arrows and adds the
    # composites of the length-2 paths 4->3->1, 4->3->2, 5->3->1, 5->3->2.
    q = catalog.d4_star()
    m = q.mutate(q.index("3"))
    idx = q.index
    expected = {(idx("1"), idx("3")): 1, (idx("2"), idx("3")): 1,
                (idx("3"), idx("4")): 1, (idx("3"), idx("5")): 1,
                (idx("4"), idx("1")): 1, (idx("4"), idx("2")): 1,
                (idx("5"), idx("1")): 1, (idx("5"), idx("2")): 1}
    for i in range(q.m):
        for j in range(q.m):
            want = expected.get((i, j), 0) - expected.get((j, i), 0)
            assert m.b[i][j] == want


def test_skew_symmetry_preserved_by_random_mutations():
    rng = random.Random(99)
    q = catalog.affine_d(5)
    for _ in range(50):
        q = q.mutate(rng.randrange(q.m))
        for i in range(q.m):
            assert q.b[i][i] == 0
            for j in range(q.m):
                assert q.b[i][j] == -q.b[j][i]


def test_mutation_matches_matrix_formula():
    # b'_ij = -b_ij if k in {i, j}, else b_ij + (|b_ik| b_kj + b_ik |b_kj|) / 2
    rng = random.Random(41)
    for _ in range(300):
        m = rng.randint(2, 7)
        b = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                b[i][j] = rng.randint(-3, 3)
                b[j][i] = -b[i][j]
        k = rng.randrange(m)
        want = [[-b[i][j] if k in (i, j)
                 else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
                 for j in range(m)] for i in range(m)]
        got = Quiver([str(i) for i in range(m)], b).mutate(k)
        assert [list(row) for row in got.b] == want


def test_double_arrows():
    assert catalog.kronecker().double_arrows() == [(0, 1)]
    assert catalog.d4_star().double_arrows() == []
    fan = catalog.d_double_arrow(4)
    assert fan.double_arrows() == [(fan.index("0"), fan.index("1"))]


# the automorphism tests certify what modular.apply_generator_word relies on:
# gamma is the E6 fan's one automorphism besides the identity, and the E7 and
# E8 fans have none besides it
def test_automorphisms_e6_base():
    base = catalog.e_double_arrow(6)
    autos = reference_isomorphisms(base, base)
    assert len(autos) == 2
    nontrivial = [p for p in autos if p != tuple(range(base.m))][0]
    # the symmetry swaps the b-leg and the c-leg and fixes 0, 1, a
    assert nontrivial[base.index("b")] == base.index("c")
    assert nontrivial[base.index("b1")] == base.index("c1")
    assert nontrivial[base.index("a")] == base.index("a")
    assert nontrivial == _resolve(6, "gamma")[1]


def test_automorphisms_e7_e8_trivial():
    for n in (7, 8):
        base = catalog.e_double_arrow(n)
        assert reference_isomorphisms(base, base) == [tuple(range(n + 1))]


def test_isomorphism_after_double_mutation():
    q = catalog.d4_star()
    assert q.mutate(2).mutate(2) == q


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(1)
    q = catalog.e6_affine()
    for _ in range(10):
        perm = list(range(q.m))
        rng.shuffle(perm)
        assert q.permuted(perm).canonical_key() == q.canonical_key()
    assert q.canonical_key() != q.mutate(0).canonical_key() or q.mutate(0) == q


def test_search_kronecker_trivial():
    q, word = mutation_class_search(catalog.kronecker(), has_double_arrow)
    assert word == MutationWord([])
    assert q == catalog.kronecker()


def test_search_d4_reaches_triangle_fan():
    found, word = mutation_class_search(catalog.d4_star(), has_double_arrow, max_nodes=1000)
    assert found.canonical_key() == catalog.d_double_arrow(4).canonical_key()
    assert catalog.d4_star().mutate_word(word.sequence) == found
    # the word is a tuple of ints; .sequence is the same ints as a plain tuple
    assert type(word.sequence) is tuple and word.sequence == tuple(word)
    assert all(type(k) is int for k in word) and word == word.sequence
    assert catalog.d4_star().mutate_word(word) == found


def test_search_e6_reaches_base_shape():
    found, _ = mutation_class_search(catalog.e6_affine(), has_double_arrow, max_nodes=5000)
    (u, v), = found.double_arrows()
    triangles = [w for w in range(found.m) if found.b[v][w] > 0 and found.b[w][u] > 0]
    assert len(triangles) == 3
    assert found.canonical_key() == catalog.e_double_arrow(6).canonical_key()


def test_search_not_found_budget():
    with pytest.raises(SearchNotFound):
        mutation_class_search(catalog.d4_star(), lambda q: False, max_nodes=5)


def assert_pinned_search(name):
    make, word, b = PINNED_SEARCHES[name]
    found, got = mutation_class_search(make(), has_double_arrow)
    assert list(got.sequence) == word
    assert [list(row) for row in found.b] == b


@pytest.mark.parametrize("name", ["d4", "d5", "e6", "e7"])
def test_search_outputs_pinned(name):
    assert_pinned_search(name)


def test_bfs_reaches_double_arrow_from_affine_orientations():
    starts = [catalog.affine_a(2, 1), catalog.affine_a(2, 2),
              catalog.affine_d(4), catalog.affine_d(5), catalog.affine_d(6),
              catalog.e6_affine(), catalog.e7_affine()]
    for q in starts:
        found, _ = mutation_class_search(q, has_double_arrow)
        assert found.double_arrows()
    # the E8 search runs in test_search_places_children_from_records


@pytest.mark.parametrize("name,budget", [("d5", 51), ("e7", 1374), ("e8", 9305)])
def test_search_places_children_from_records(name, budget, monkeypatch):
    # most children are placed by records (reversed, copied to twins, across
    # commuting squares and around pentagons) with no canonical form: the
    # search computes 1,347 forms for E7 and 9,123 for E8, where the square
    # rule alone took 2,379 and 16,456, one form per crossed edge of the
    # class graph 4,212 and 33,378, and keying every child but the parent
    # 7,085 and 58,975; the pinned E8 quiver has its double arrow 2 => 1.
    # D5 guards the twin rule, without which the E7 and E8 counts do not
    # change: it takes 50 forms, 60 without the twin rule and 52 without
    # filling a missing last record
    calls = []
    form = Quiver._canonical_form
    monkeypatch.setattr(Quiver, "_canonical_form", lambda q: calls.append(q) or form(q))
    assert_pinned_search(name)
    assert len(calls) <= budget


def test_pentagon_identity_on_random_quivers():
    # with |B[k][l]| == 1, mu_k(mu_l(Q)) is mu_k(mu_l(mu_k(Q))) with k and l
    # swapped (the period-5 relation of the rank-2 subseed on k and l), which
    # the search reads through three records; with |B[k][l]| == 2 it mostly
    # fails, so the rule must not fire there
    rng = random.Random(48)
    held, tried = {1: 0, 2: 0}, {1: 0, 2: 0}
    for _ in range(400):
        m = rng.randint(2, 7)
        b = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                b[i][j] = rng.choice([-2, -1, -1, 0, 1, 1, 2])
                b[j][i] = -b[i][j]
        q = Quiver([str(i) for i in range(m)], b)
        k, l = rng.sample(range(m), 2)
        swap = list(range(m))
        swap[k], swap[l] = l, k
        if abs(b[k][l]) in held:
            held[abs(b[k][l])] += q.mutate_word([k, l, k]).permuted(swap).b == q.mutate_word([l, k]).b
            tried[abs(b[k][l])] += 1
    assert held[1] == tried[1] > 100 and held[2] < tried[2] // 2
    # 0 => 1 -> 2 at k, l = 0, 1: three mutations leave 2 isolated, two do not
    q = Quiver("012", [[0, 2, 0], [-2, 0, 1], [0, -1, 0]])
    assert q.mutate_word([0, 1, 0]).permuted([1, 0, 2]).b == ((0, 2, -1), (-2, 0, 0), (1, 0, 0))
    assert q.mutate_word([1, 0]).b == ((0, 2, -2), (-2, 0, 3), (2, -3, 0))


def dynkin(kind, n):
    """A Dynkin quiver with every arrow i -> j, i < j: the path 0 - ... - (n-1)
    for A; for D and E the last vertex hangs off vertex n-3 or vertex 2."""
    edges = [(i, i + 1) for i in range(n - 2)]
    edges.append({"A": (n - 2, n - 1), "D": (n - 3, n - 1), "E": (2, n - 1)}[kind])
    b = [[0] * n for _ in range(n)]
    for i, j in edges:
        b[i][j], b[j][i] = 1, -1
    return Quiver([str(i) for i in range(n)], b)


@pytest.mark.parametrize("kind,n,size", [("A", 4, 6), ("A", 5, 19), ("D", 4, 6), ("D", 5, 26),
                                         ("D", 6, 80), ("E", 6, 67), ("E", 7, 416),
                                         ("E", 8, 1574)])
def test_exhaustive_mutation_class_sizes(kind, n, size):
    # quivers up to isomorphism in the whole mutation class; E6, E7 and E8
    # are the counts known from the literature
    with pytest.raises(SearchNotFound, match=r"exhausted \(%d canonical quivers\)" % size):
        mutation_class_search(dynkin(kind, n), lambda q: False)


def test_quiver_json_roundtrip():
    for q in (catalog.kronecker(), catalog.d4_star(), catalog.e_double_arrow(7)):
        assert Quiver.from_json(q.to_json()) == q


def test_frozen_vertex_is_no_mutable_vertex_in_search():
    # with frozen vertices colored apart, mu_0(q) is a new class, and its
    # mutation at 1 has a double arrow
    q = Quiver(["0", "1", "2"], [[0, 1, 1], [-1, 0, -1], [-1, 1, 0]], frozen=["2"])
    found, word = mutation_class_search(q, has_double_arrow)
    assert word == MutationWord([0, 1])
    assert found == q.mutate_word([0, 1]) and found.double_arrows()
    assert q.mutate(0).canonical_key() != q.canonical_key()
    assert not reference_isomorphisms(q.mutate(0), q)


def test_canonical_key_tells_frozen_sets_apart():
    b = [[0, 1, 1], [-1, 0, -1], [-1, 1, 0]]
    variants = [Quiver(["0", "1", "2"], b, frozen)
                for frozen in ([], ["0"], ["1"], ["2"], ["0", "1"], ["0", "1", "2"])]
    assert len({q.canonical_key() for q in variants}) == 6
    # with no frozen vertex and with all three frozen the starting colors
    # coincide; the frozen count in the key tells those two apart
    for p in variants:
        for q in variants:
            same_key = p.canonical_key() == q.canonical_key()
            assert same_key == bool(reference_isomorphisms(p, q)) == (p.frozen == q.frozen)
    # relabeling moves the frozen labels with their vertices
    q = Quiver(["0", "1", "2"], b, ["1"])
    assert q.permuted([2, 0, 1]).canonical_key() == q.canonical_key()


def plain_search(start, predicate, max_nodes):
    """Breadth-first search that keys every child: (word, arrived quiver) or
    the number of canonical quivers visited when it gives up."""
    if predicate(start):
        return (), start
    visited = {start.canonical_key()}
    queue = deque([(start, ())])
    while queue:
        quiver, word = queue.popleft()
        for k in range(quiver.m):
            if quiver.labels[k] in quiver.frozen:
                continue
            nxt = quiver.mutate(k)
            key = nxt.canonical_key()
            if key in visited:
                continue
            if predicate(nxt):
                return word + (k,), nxt
            visited.add(key)
            if len(visited) >= max_nodes:
                return len(visited)
            queue.append((nxt, word + (k,)))
    return len(visited)


def search_outcome(start, predicate, max_nodes):
    """mutation_class_search in plain_search's terms."""
    try:
        found, word = mutation_class_search(start, predicate, max_nodes)
    except SearchNotFound as error:
        count = int(re.search(r"(\d+) canonical quivers", str(error)).group(1))
        assert ("within %d" % max_nodes in str(error)) == (count == max_nodes)
        return count
    return word.sequence, found


def test_search_matches_plain_search_on_random_ice_quivers():
    # records drop only children whose class is visited, so words, arrived
    # quivers and visited counts are those of keying every child
    rng = random.Random(21)
    for _ in range(60):
        m = rng.randint(3, 6)
        b = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                b[i][j] = rng.choice([-2, -1, -1, 0, 0, 0, 1, 1, 2])
                b[j][i] = -b[i][j]
        labels = [str(i) for i in range(m)]
        q = Quiver(labels, b, rng.sample(labels, rng.randint(0, 2)))
        for predicate in (has_double_arrow, lambda p: p.b[0][1] == 1):
            assert search_outcome(q, predicate, 120) == plain_search(q, predicate, 120)


def oriented(m, arrows, frozen=()):
    b = [[0] * m for _ in range(m)]
    for i, j in arrows:
        b[i][j], b[j][i] = 1, -1
    return Quiver([str(i) for i in range(m)], b, [str(v) for v in frozen])


def orientations(edges):
    """Every orientation of a graph, as arrow lists."""
    for flips in itertools.product((False, True), repeat=len(edges)):
        yield [(j, i) if flip else (i, j) for (i, j), flip in zip(edges, flips)]


def symmetric_starts():
    """Quivers with many automorphisms: every orientation of affine D4, of
    A(2,2) and of A(3,3), two and three disjoint oriented 3-cycles, and some
    of the same with frozen vertices that keep part of the symmetry."""
    star = [(0, v) for v in range(1, 5)]
    starts = [oriented(5, arrows) for arrows in orientations(star)]
    for n in (4, 6):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        starts += [oriented(n, arrows) for arrows in orientations(cycle)
                   if sum((j - i) % n == 1 for i, j in arrows) == n // 2]
    triangles = [[(3 * t + i, 3 * t + (i + 1) % 3) for i in range(3)] for t in range(3)]
    starts += [oriented(6, triangles[0] + triangles[1]),
               oriented(9, triangles[0] + triangles[1] + triangles[2])]
    # a frozen vertex 5 over two leaves of the star, 6 over one vertex of each
    # triangle, 4 over opposite vertices of an A(2,2) square
    starts += [oriented(6, arrows + [(5, 1), (5, 2)], [5])
               for arrows in list(orientations(star))[::5]]
    starts += [oriented(7, triangles[0] + triangles[1] + [(6, 0), (6, 3)], [6]),
               oriented(5, [(0, 1), (2, 1), (2, 3), (0, 3), (4, 0), (4, 2)], [4])]
    return starts


def test_search_matches_plain_search_on_symmetric_quivers():
    # the square rule's isomorphism to a class's representative may differ
    # from the canonical one by an automorphism, and so may the vertex it
    # skips there; the outputs must still be those of keying every child.
    # The frozen star's and square's classes are infinite: their searches
    # give up at the budget
    for q in symmetric_starts():
        # the last predicate asks for the labelled path 1 -> 0 -> 2
        for predicate in (lambda p: False, has_double_arrow,
                          lambda p: p.b[1][0] == p.b[0][2] == 1 and p.b[1][2] == 0):
            assert search_outcome(q, predicate, 150) == plain_search(q, predicate, 150)
    # affine D5 has fewer automorphisms but a larger class, where a wrong
    # skip shows in the double-arrow words
    for arrows in orientations([(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]):
        q = oriented(6, arrows)
        assert search_outcome(q, has_double_arrow, 150) == plain_search(q, has_double_arrow, 150)


def test_search_matches_plain_search_on_affine_orientations():
    # seeded orientations and vertex orders of affine D5-D8, E6 and E7, whose
    # classes are large enough for pentagons around records three levels
    # deep, and an ice quiver: affine E6 with a frozen vertex over one vertex
    rng = random.Random(48)

    def reoriented(q, extra=(), frozen=()):
        arrows = [(i, j) if rng.random() < 0.5 else (j, i) for i, j in q.arrows()]
        return relabeled(oriented(q.m + len(frozen), arrows + list(extra), frozen), rng)

    starts = [reoriented(catalog.affine_d(n)) for n in (5, 5, 6, 6, 7, 7, 8)]
    starts += [reoriented(make()) for make in (catalog.e6_affine, catalog.e7_affine) * 2]
    for q in starts:
        assert search_outcome(q, has_double_arrow, 2000) == plain_search(q, has_double_arrow, 2000)
    ice = reoriented(catalog.e6_affine(), [(7, 1)], [7])
    for predicate, budget in ((has_double_arrow, 2000), (lambda p: False, 300)):
        assert search_outcome(ice, predicate, budget) == plain_search(ice, predicate, budget)


def test_search_mutates_one_vertex_of_each_twin_class(monkeypatch):
    # arrows c -> f, c -> 1, c -> 2, c -> 3: all four leaves have equal rows,
    # but f is frozen, so 1 is the first mutable one and stands for 2 and 3
    labels = ["c", "f", "1", "2", "3"]
    b = [[0, 1, 1, 1, 1]] + [[-1, 0, 0, 0, 0] for _ in range(4)]
    q = Quiver(labels, b, frozen=["f"])
    mutated = []
    mutate = Quiver.mutate
    monkeypatch.setattr(Quiver, "mutate", lambda p, k: mutated.append((p, k)) or mutate(p, k))
    with pytest.raises(SearchNotFound):
        mutation_class_search(q, lambda _: False, max_nodes=50)
    assert [k for p, k in mutated if p is q] == [0, 2]


def test_frozen_vertices_skipped_in_search():
    q = Quiver(["0", "1", "a"], [[0, 1, -1], [-1, 0, 1], [1, -1, 0]], frozen=["a"])
    with pytest.raises(SearchNotFound):
        # only vertices 0 and 1 may mutate; the predicate never fires
        mutation_class_search(q, lambda _: False, max_nodes=50)


def test_d5_double_arrow_shape_in_class():
    found, _ = mutation_class_search(catalog.affine_d(5), has_double_arrow, 2000)
    assert found.canonical_key() == catalog.d_double_arrow(5).canonical_key()


def test_e_base_quivers_lie_in_affine_classes():
    # from each double-arrow base quiver, BFS reaches an acyclic quiver whose
    # underlying graph is the affine E_n tree
    expected_degrees = {6: [1, 1, 1, 2, 2, 2, 3], 7: [1, 1, 1, 2, 2, 2, 2, 3],
                        8: [1, 1, 1, 2, 2, 2, 2, 2, 3]}
    for n in (6, 7):
        base = catalog.e_double_arrow(n)
        found, _ = mutation_class_search(base, lambda q: len(q.topological_order()) == q.m)
        assert all(abs(x) <= 1 for row in found.b for x in row)
        degrees = [sum(abs(x) for x in row) for row in found.b]
        assert sorted(degrees) == expected_degrees[n]


def oriented_cycles(*lengths):
    """Disjoint union of oriented cycles of the given lengths."""
    n = sum(lengths)
    b = [[0] * n for _ in range(n)]
    first = 0
    for length in lengths:
        for i in range(length):
            s, t = first + i, first + (i + 1) % length
            b[s][t], b[t][s] = 1, -1
        first += length
    return Quiver([str(i) for i in range(n)], b)


def relabeled(q, rng):
    perm = list(range(q.m))
    rng.shuffle(perm)
    return q.permuted(perm)


def class_sample(rng, per_start=12):
    """Quivers from the D4, D5, E6 and E7 mutation classes and from the
    mutation-infinite class of a triple arrow 0 => 1 with a frozen vertex 2,
    whose entries leave +-2, each with a randomly relabeled copy next to it."""
    triple = Quiver(["0", "1", "2"], [[0, 3, -1], [-3, 0, 1], [1, -1, 0]], frozen=["2"])
    out = []
    for start in (catalog.d4_star(), catalog.affine_d(5), catalog.e6_affine(),
                  catalog.e7_affine(), triple):
        for _ in range(per_start):
            # the words may mutate the B-matrix at vertex 2 too, which
            # Quiver.mutate refuses while 2 is frozen; it is frozen again after
            word = [rng.randrange(start.m) for _ in range(rng.randrange(10))]
            q = Quiver(start.labels, start.b).mutate_word(word)
            q = Quiver(q.labels, q.b, start.frozen)
            out.extend([q, relabeled(q, rng)])
    return out


def test_canonical_key_invariant_under_relabeling_in_mutation_classes():
    rng = random.Random(11)
    for q in class_sample(rng):
        for _ in range(3):
            assert relabeled(q, rng).canonical_key() == q.canonical_key()


def edge_quivers():
    """The empty quiver, one vertex, three vertices without arrows, and one
    arrow 0 -> 1 of multiplicity 1 and of multiplicity 3."""
    return ([Quiver([], []), Quiver(["0"], [[0]]), Quiver("012", [[0] * 3] * 3)]
            + [Quiver("01", [[0, k], [-k, 0]]) for k in (1, 3)])


def test_canonical_key_equal_exactly_when_isomorphic():
    rng = random.Random(12)
    sample = class_sample(rng, per_start=8) + edge_quivers()
    single, triple = edge_quivers()[-2:]
    assert single.canonical_key() != triple.canonical_key()
    assert reference_isomorphisms(single, triple) == []
    isomorphic_pairs = 0
    for i, p in enumerate(sample):
        for q in sample[i:]:
            same_key = p.canonical_key() == q.canonical_key()
            assert same_key == bool(reference_isomorphisms(p, q))
            isomorphic_pairs += same_key
    # every quiver sits next to a relabeled copy, so both outcomes occur
    assert len(sample) < isomorphic_pairs < len(sample) * (len(sample) + 1) // 2


def test_canonical_key_of_oriented_12_cycle_is_fast():
    # all 12 vertices share one color under refinement alone; a brute force
    # inside the color classes would try 12! orderings
    cycle = oriented_cycles(12)
    start = time.perf_counter()
    key = cycle.canonical_key()
    assert time.perf_counter() - start < 1.0
    assert relabeled(cycle, random.Random(3)).canonical_key() == key
    assert key != oriented_cycles(11).canonical_key()


def test_canonical_key_where_refinement_alone_cannot_split():
    # every vertex has one arrow in and one out, so refinement leaves a single
    # cell; vertices of the 3-cycle and of the 4-cycle lie in different orbits
    rng = random.Random(4)
    triangles, hexagon, mixed = oriented_cycles(3, 3), oriented_cycles(6), oriented_cycles(3, 4)
    for q in (triangles, hexagon, mixed):
        for _ in range(6):
            assert relabeled(q, rng).canonical_key() == q.canonical_key()
    assert triangles.canonical_key() != hexagon.canonical_key()
    assert not reference_isomorphisms(triangles, hexagon)
