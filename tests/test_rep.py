import importlib.util
import itertools
import math
import random
import re
from pathlib import Path

import pytest

import friezelab.rep as rep_module
from friezelab import catalog
from friezelab.errors import InadmissiblePrime, NotAffine
from friezelab.quivers import Quiver
from friezelab.rep import (QuiverRep, _certified_chi, count_points, counting_degree_bound,
                           counting_primes, delta, defect, euler_form,
                           grassmannian_table, is_prime, rref_subspaces)

from quiver_helpers import reference_isomorphisms
from rep_helpers import direct_sum, dual, spy_traversals

TABLE_ROWS = {
    (0, 0, 0, 0, 0): 1,
    (1, 0, 0, 0, 0): 1,
    (0, 1, 0, 0, 0): 1,
    (1, 1, 0, 0, 0): 1,
    (1, 0, 1, 0, 0): 1,
    (0, 1, 1, 0, 0): 1,
    (1, 1, 1, 0, 0): 2,
    (1, 1, 2, 0, 0): 1,
    (1, 1, 1, 1, 0): 1,
    (1, 1, 2, 1, 0): 1,
    (1, 1, 1, 0, 1): 1,
    (1, 1, 2, 0, 1): 1,
    (1, 1, 2, 1, 1): 1,
}


def test_euler_form_simple():
    q = catalog.d4_star()
    unit = (1, 0, 0, 0, 0)
    assert euler_form(q, unit, unit) == 1


def test_euler_form_isotropic_delta():
    q = catalog.d4_star()
    assert euler_form(q, (1, 1, 2, 1, 1), (1, 1, 2, 1, 1)) == 0


# Dimension vectors of the projectives of the D4 star (arrows 3->1, 3->2,
# 4->3, 5->3): P(v) counts the paths that start at v.
D4_PROJECTIVES = {"1": (1, 0, 0, 0, 0), "2": (0, 1, 0, 0, 0), "3": (1, 1, 1, 0, 0),
                  "4": (1, 1, 1, 1, 0), "5": (1, 1, 1, 0, 1)}


def test_euler_form_projective_pairing():
    q = catalog.d4_star()
    d = delta(q)
    for label in ("1", "2", "4", "5"):
        assert euler_form(q, D4_PROJECTIVES[label], d) == 1


def test_euler_form_bilinear_random():
    rng = random.Random(8)
    q = catalog.e6_affine()
    for _ in range(50):
        a = tuple(rng.randint(0, 4) for _ in range(q.m))
        b = tuple(rng.randint(0, 4) for _ in range(q.m))
        c = tuple(rng.randint(0, 4) for _ in range(q.m))
        ab = tuple(x + y for x, y in zip(a, b))
        assert euler_form(q, ab, c) == euler_form(q, a, c) + euler_form(q, b, c)
        assert euler_form(q, c, ab) == euler_form(q, c, a) + euler_form(q, c, b)


def test_delta_values():
    assert delta(catalog.d4_star()) == (1, 1, 2, 1, 1)
    assert delta(catalog.e6_affine()) == (3, 2, 1, 2, 1, 2, 1)
    assert delta(catalog.kronecker()) == (1, 1)


def test_delta_rejects_finite_type():
    a3 = Quiver(["1", "2", "3"], [[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    with pytest.raises(NotAffine):
        delta(a3)


def test_delta_fixed_by_automorphisms():
    for q in (catalog.d4_star(), catalog.e6_affine(), catalog.kronecker()):
        d = delta(q)
        for sigma in reference_isomorphisms(q, q):
            assert tuple(d[i] for i in _inverse(sigma)) == d


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def test_defect():
    q = catalog.d4_star()
    assert defect(q, delta(q)) == 0
    assert defect(q, D4_PROJECTIVES["3"]) < 0


def test_extending_vertices_d4():
    q = catalog.d4_star()
    extending = {i for i, x in enumerate(delta(q)) if x == 1}
    assert {q.labels[i] for i in extending} == {"1", "2", "4", "5"}


def test_rref_subspace_counts():
    # Gaussian binomials: [n choose k]_q subspaces
    assert len(list(rref_subspaces(2, 1, 3, range(2)))) == 4
    assert len(list(rref_subspaces(2, 1, 5, range(2)))) == 6
    assert len(list(rref_subspaces(3, 1, 3, range(3)))) == 13
    assert len(list(rref_subspaces(3, 2, 3, range(3)))) == 13
    assert list(rref_subspaces(2, 0, 3, range(2))) == [()]
    assert len(list(rref_subspaces(2, 2, 7, range(2)))) == 1


def test_rref_subspaces_are_distinct_and_reduced():
    # distinct RREF matrices of rank k are distinct subspaces, so together
    # with the Gaussian binomial counts above this shows every subspace is
    # yielded once; with a support the rows vanish off it
    for n, k, p, support in ((3, 1, 3, range(3)), (3, 2, 2, range(3)), (4, 2, 3, (0, 2, 3))):
        subs = list(rref_subspaces(n, k, p, support))
        assert len(set(subs)) == len(subs) == rep_module._gaussian_binomial(len(support), k, p)
        for rows in subs:
            pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
            assert pivots == sorted(pivots) and all(rows[r][c] == 1 for r, c in enumerate(pivots))
            assert all(row[c] == 0 for row in rows for c in pivots if c != row.index(1))
            assert all(row[c] == 0 for row in rows for c in range(n) if c not in support)


# -- the counting engine against the product enumeration -----------------------

def _span(rows, n, p):
    """Every vector of the span of rows in F_p^n."""
    return {tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % p for i in range(n))
            for coeffs in itertools.product(range(p), repeat=len(rows))}


def _reference_count(rep, e, p):
    """Subrepresentations of dimension vector e over F_p, by running through
    the full product of the vertex Grassmannians and keeping the tuples that
    every arrow maps into themselves."""
    arrows = rep.quiver.arrows()
    spaces = [list(rref_subspaces(d, k, p, range(d))) for d, k in zip(rep.dims, e)]
    members = [[_span(rows, d, p) for rows in per_vertex]
               for d, per_vertex in zip(rep.dims, spaces)]
    # maps_into[a][i][j]: arrow a maps the i-th subspace at its tail into the
    # j-th subspace at its head
    maps_into = [[[all(tuple(sum(a * b for a, b in zip(r, u)) % p for r in mat) in span
                       for u in rows) for span in members[h]] for rows in spaces[t]]
                 for (t, h), mat in zip(arrows, rep.maps)]
    return sum(all(table[choice[t]][choice[h]] for (t, h), table in zip(arrows, maps_into))
               for choice in itertools.product(*(range(len(s)) for s in spaces)))


def _oriented_triangle():
    return Quiver(["a", "b", "c"], [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])


def _random_rep(quiver, rng, max_dim):
    """Dimensions up to max_dim, few of them zero, and entries in 0..3, with
    some maps forced to rank at most one or to zero so that rank-deficient
    maps occur.  The product enumeration over every e at p = 5 stays below
    20,000 subspace tuples."""
    while True:
        dims = [rng.choice([0] + [1, 2, 3][:max_dim] * 3) for _ in range(quiver.m)]
        if math.prod(sum(rep_module._gaussian_binomial(d, k, 5) for k in range(d + 1))
                     for d in dims) <= 20000:
            break
    maps = []
    for t, h in quiver.arrows():
        kind = rng.randrange(6)
        col = [rng.randint(0, 3) for _ in range(dims[h])]
        row = [rng.randint(1, 3) for _ in range(dims[t])]
        maps.append([[0] * dims[t] if kind == 0 else
                     [a * b for b in row] if kind < 3 else
                     [rng.randint(0, 3) for _ in range(dims[t])] for a in col])
    return QuiverRep(quiver, dims, maps)


def _oracle_reps():
    rng = random.Random(20261018)
    quivers = [(catalog.d4_star(), 2), (catalog.affine_a(2, 1), 2), (catalog.kronecker(), 3),
               (catalog.e6_affine(), 2), (_oriented_triangle(), 2)]
    reps = [_random_rep(q, rng, top) for q, top in quivers for _ in range(4)]
    reps += [catalog.d4_m_lambda(lam) for lam in (0, 1, 2, 3, 4)]
    reps += [r for pair in catalog.d4_tubes() for r in pair]
    # free vertices, counted by Gaussian binomials: the centre 3, whose heads
    # are zero and which 4 and 5 push into (their images coincide at p = 2);
    # then the sinks 1 and 2, whose span sizes differ where U_3 meets the
    # kernel of 3 -> 1 only
    d4 = catalog.d4_star()
    reps.append(QuiverRep(d4, (0, 0, 2, 1, 1), [[], [], [[1], [0]], [[1], [2]]]))
    reps.append(QuiverRep(d4, (1, 2, 2, 1, 0), [[[1, 0]], [[1, 0], [0, 1]], [[1], [1]], [[], []]]))
    return reps


def _every_e(rep):
    return itertools.product(*(range(d + 1) for d in rep.dims))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_count_points_matches_product_enumeration(p):
    for M in _oracle_reps():
        if not M.admissible(p):
            with pytest.raises(InadmissiblePrime):
                count_points(M, M.dims, p)
            continue
        table = rep_module._count_by_dimvector(M, p)
        for e in _every_e(M):
            want = _reference_count(M, e, p)
            assert count_points(M, e, p) == want, (M.quiver.labels, M.dims, M.maps, e)
            assert table.get(e, 0) == want, (M.quiver.labels, M.dims, M.maps, e)
        assert 0 not in table.values()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_count_points_matches_product_enumeration_on_an_e6_delta_rep(p):
    rng = random.Random(7)
    q = catalog.e6_affine()
    d = delta(q)
    maps = [[[rng.randint(0, 1) for _ in range(d[t])] for _ in range(d[h])]
            for t, h in q.arrows()]
    M = QuiverRep(q, d, maps)
    table = rep_module._count_by_dimvector(M, p)
    for e in _every_e(M):
        want = _reference_count(M, e, p)
        assert count_points(M, e, p) == table.get(e, 0) == want, e


def _perfbench_e6_delta_reps():
    """The four p=3 E6 delta-representations of the seed-0 tube workload."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    maps = []
    for op in inputs.generate("tube", 0):
        if op["kind"] == "count" and op["p"] == 3 and op["maps"] not in maps:
            maps.append(op["maps"])
    return [QuiverRep(catalog.e6_affine(), inputs.E6_DELTA, m) for m in maps]


def test_a_traversal_joins_each_span_and_vector_once(monkeypatch):
    # the same (span, image) joins recur across the branches of one
    # traversal: without the per-traversal memo these tables take 679 joins
    # at p = 3 and 1,247 at p = 5
    calls = []
    real = rep_module._insert
    monkeypatch.setattr(rep_module, "_insert",
                        lambda basis, vec, p: calls.append(p) or real(basis, vec, p))
    for M in _perfbench_e6_delta_reps():
        for p, most in ((3, 250), (5, 500)):
            calls.clear()
            rep_module._count_by_dimvector(QuiverRep(M.quiver, M.dims, M.maps), p)
            assert 0 < len(calls) <= most, (p, len(calls))


def test_counts_are_dual_past_the_oracle_primes():
    # Gr_e(M) and Gr_{d-e}(DM) have the same points; DM's traversal starts at
    # M's sinks, so its joins and free vertices fall elsewhere
    for M in _perfbench_e6_delta_reps():
        DM = dual(M)
        for e in _every_e(M):
            co = tuple(d - x for d, x in zip(M.dims, e))
            assert count_points(M, e, 7) == count_points(DM, co, 7), e


def test_counting_setup_is_made_once_per_prime(monkeypatch):
    one, two = catalog.d4_m_lambda(2), catalog.d4_m_lambda(2)
    es = list(itertools.islice(itertools.cycle(_every_e(one)), 200))
    calls = []
    real = Quiver.topological_order
    monkeypatch.setattr(Quiver, "topological_order",
                        lambda quiver: calls.append(quiver) or real(quiver))
    for e in es:
        count_points(one, e, 3)
    assert len(calls) == 1
    calls.clear()
    for i, e in enumerate(es):
        count_points(two, e, (3, 5)[i % 2])
    assert len(calls) == 2


def test_per_e_counts_equal_one_traversal():
    reps = _perfbench_e6_delta_reps()
    assert len(reps) == 4
    for M in reps:
        for p in (3, 5, 3):  # the table of p=3 is read again after p=5's
            fresh = QuiverRep(M.quiver, M.dims, M.maps)
            table = rep_module._count_by_dimvector(fresh, p)
            for e in _every_e(M):
                assert count_points(M, e, p) == table.get(e, 0), (p, e)
    M = catalog.d4_m_lambda(3)
    assert count_points(M, (1, 1, 1, 0, 0), 5) == 6
    with pytest.raises(InadmissiblePrime):
        count_points(M, (1, 1, 1, 0, 0), 3)


def test_oriented_cycle_counts_image_inclusion():
    # a -> b -> c -> a with identity maps on F_p: a subrepresentation is one
    # subspace U with U_a = U_b = U_c, so dimension vector (1, 1, 1) counts
    # the p + 1 lines of F_p^2 and (1, 0, 0) counts none
    q = _oriented_triangle()
    identity = [[1, 0], [0, 1]]
    M = QuiverRep(q, (2, 2, 2), [identity] * len(q.arrows()))
    assert count_points(M, (1, 1, 1), 3) == 4
    assert count_points(M, (1, 0, 0), 3) == 0
    assert grassmannian_table(M) == {(0, 0, 0): 1, (1, 1, 1): 2, (2, 2, 2): 1}


def test_count_points_trivial_ends():
    M = catalog.d4_m_lambda(2)
    for p in (3, 5, 7):
        assert count_points(M, (0, 0, 0, 0, 0), p) == 1
        assert count_points(M, M.dims, p) == 1


def test_count_points_projective_line_stratum():
    M = catalog.d4_m_lambda(2)
    for p, line_count in ((3, 4), (5, 6), (7, 8)):
        assert count_points(M, (1, 1, 1, 0, 0), p) == line_count
        # arrow 3 -> 1 is [1 1], with a kernel of dimension 1, so U_3 = F_p^2
        # cannot map into U_1 = 0
        assert count_points(M, (0, 0, 2, 0, 0), p) == 0


def test_count_points_forced_stratum():
    M = catalog.d4_m_lambda(2)
    for p in (3, 5, 11):
        assert count_points(M, (1, 1, 1, 1, 0), p) == 1
    # the map [[3]] of 0 -> 1 vanishes over F_3 only, so U_0 = F_p maps into
    # U_1 = 0 at p = 3 and nowhere else
    N = QuiverRep(Quiver(["0", "1"], [[0, 1], [-1, 0]]), (1, 1), [[[3]]])
    assert count_points(N, (1, 0), 3) == 1
    assert count_points(N, (1, 0), 5) == 0


def test_inadmissible_prime():
    M = catalog.d4_m_lambda(2)
    for e in ((0, 0, 0, 0, 0), (0, 0, 2, 0, 0)):  # the second counts 0 at every prime
        with pytest.raises(InadmissiblePrime):
            count_points(M, e, 2)
    assert M.admissible(3)
    assert not M.admissible(2)


def _chi(M, e, primes=None, count=count_points):
    """The certified Euler characteristic of Gr_e(M), counting with count at
    primes, by default the first bound + 2 admissible odd primes."""
    if primes is None:
        primes = counting_primes(M, counting_degree_bound(M, e) + 2)
    return _certified_chi(M, e, primes, lambda p: count(M, e, p))


def test_grassmannian_table_zero_and_simple():
    q = catalog.d4_star()
    zero = QuiverRep(q, (0,) * q.m, [[] for _ in q.arrows()])
    assert grassmannian_table(zero) == {(0, 0, 0, 0, 0): 1}
    # the simple at the center "3"; its four arrows have zero-size matrices
    simple = QuiverRep(catalog.d4_star(), (0, 0, 1, 0, 0), [[], [], [[]], [[]]])
    assert grassmannian_table(simple) == {(0, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0): 1}


def test_euler_characteristic_table_rows():
    M = catalog.d4_m_lambda(2)
    assert _chi(M, (1, 1, 1, 0, 0)) == 2
    assert _chi(M, (1, 1, 2, 1, 0)) == 1


def test_grassmannian_table_matches_reference():
    table = grassmannian_table(catalog.d4_m_lambda(2))
    assert table == TABLE_ROWS
    assert sum(table.values()) == 14
    assert len(table) == 13


def test_table_reads_dimension_vectors_at_the_first_counting_prime(monkeypatch):
    M = catalog.d4_m_lambda(2)
    # 4849845 = 3*5*7*11*13*17*19 vanishes mod every odd prime below 23
    N = QuiverRep(M.quiver, M.dims, M.maps, {"lambda": 4849845})
    traversed = spy_traversals(monkeypatch)
    assert grassmannian_table(N) == TABLE_ROWS
    assert traversed == [23, 31, 37]  # and 4849845 = 1 mod 29
    # sum floor(d_v^2 / 4) = 1: three primes, the first read for the rows
    traversed.clear()
    assert grassmannian_table(M) == TABLE_ROWS
    assert traversed == [3, 5, 7]


def test_quasi_simple_tables():
    (r1, r2), _, _ = catalog.d4_tubes()
    t2 = grassmannian_table(r2)
    assert t2 == {(0, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0): 1}
    t1 = grassmannian_table(r1)
    assert len(t1) == 8 and all(chi == 1 for chi in t1.values())
    assert sum(t1.values()) == 8


def test_interpolation_held_out_on_all_fixtures():
    fixtures = [catalog.d4_m_lambda(2), catalog.d4_m_lambda(0),
                catalog.kronecker_regular()]
    for pair in catalog.d4_tubes():
        fixtures.extend(pair)
    for M in fixtures:
        # the table certifies every row with a held-out prime and raises
        # NonPolynomialCount on any disagreement
        assert all(chi >= 0 for chi in grassmannian_table(M).values())


def test_non_polynomial_count_detected():
    from friezelab.errors import NonPolynomialCount

    M = catalog.d4_m_lambda(2)

    def tampered(rep, e, p):
        return count_points(rep, e, p) + (1 if p == 13 else 0)  # held-out prime disagrees

    with pytest.raises(NonPolynomialCount):
        # degree bound 1: interpolate at 3 and 5, hold out the tampered 13
        _chi(M, (1, 1, 1, 0, 0), (3, 5, 13), tampered)


def test_non_integral_count_detected():
    from friezelab.errors import NonPolynomialCount

    M = catalog.d4_m_lambda(2)
    counts = {3: 0, 5: 1, 7: 2}  # the line through (3, 0) and (5, 1) has slope 1/2
    with pytest.raises(NonPolynomialCount, match="not integral"):
        _certified_chi(M, (1, 1, 1, 0, 0), (3, 5, 7), counts.__getitem__)


def test_certified_chi_of_integer_polynomials_at_shuffled_primes():
    # only the dimensions enter: e = (1, 2) has degree bound 2 + 4 = 6
    M = QuiverRep(catalog.kronecker(), (3, 4), [[[0] * 3] * 4] * 2)
    rng = random.Random(21)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for _ in range(200):
        e = (rng.randint(0, 3), rng.randint(0, 4))
        degree = rng.randint(0, counting_degree_bound(M, e))
        coeffs = [rng.randint(-100, 100) for _ in range(degree + 1)]
        rng.shuffle(primes)
        chi = _certified_chi(M, e, primes,
                             lambda p: sum(c * p ** d for d, c in enumerate(coeffs)))
        assert chi == sum(coeffs)


def test_counts_after_a_table_run_no_traversal(monkeypatch):
    M = catalog.d4_m_lambda(2)
    grassmannian_table(M)
    primes = counting_primes(M, sum(d * d // 4 for d in M.dims) + 2)
    inserts = []
    real = rep_module._insert
    monkeypatch.setattr(rep_module, "_insert",
                        lambda basis, vec, p: inserts.append(p) or real(basis, vec, p))
    for p in primes:
        for e in _every_e(M):
            count_points(M, e, p)
    assert inserts == []  # every traversal inserts an image; a lookup does not


def test_degree_bound_of_a_projective_line():
    # Gr_e(M) for e = (1, 1, 1, 0, 0) is P^1, with p + 1 points over F_p
    M = catalog.d4_m_lambda(2)
    assert counting_degree_bound(M, (1, 1, 1, 0, 0)) == 1


@pytest.mark.parametrize("p", [9, 4, 1, 0, -3])
def test_counting_refuses_a_modulus_that_is_not_prime(p):
    for e in ((1, 1, 1, 0, 0), (0, 0, 2, 0, 0)):  # the second counts 0 at every prime
        with pytest.raises(ValueError, match="^%d is not prime$" % p):
            count_points(catalog.d4_m_lambda(0), e, p)


@pytest.mark.parametrize("p", [3.0, "3", True])
def test_counting_refuses_a_modulus_that_is_not_an_integer(p):
    M = catalog.d4_m_lambda(2)
    message = "^p must be an integer, got %s$" % re.escape(repr(p))
    for _ in range(2):  # fresh, then with the table of p = 3 kept on M
        with pytest.raises(ValueError, match=message):
            count_points(M, (1, 1, 1, 0, 0), p)
        assert count_points(M, (1, 1, 1, 0, 0), 3) == 4


@pytest.mark.parametrize("e, message", [
    ((1, 1, 1.5, 0, 0), "^dimension vector entry must be an integer, got 1.5$"),
    ((True, 1, 1, 0, 0), "^dimension vector entry must be an integer, got True$"),
    (([1], 1, 1, 0, 0),  # unhashable, so scanned first
     r"^dimension vector entry must be an integer, got \[1\]$"),
    ((-1, 1, 1, 0, 0), r"^dimension vector \(-1, 1, 1, 0, 0\) has a negative entry$"),
    ((1, 1, 3, 0, 0), r"^dimension vector \(1, 1, 3, 0, 0\) exceeds dims \(1, 1, 2, 1, 1\)$"),
    ((1, 1, 1, 0), "^dimension vector length mismatch$"),
])
def test_a_kept_table_is_read_only_at_a_valid_dimension_vector(e, message):
    M = catalog.d4_m_lambda(2)
    for _ in range(2):  # fresh, then with the table of p = 3 kept on M
        with pytest.raises(ValueError, match=message):
            count_points(M, e, 3)
        assert count_points(M, (1, 1, 1, 0, 0), 3) == count_points(M, [1, 1, 1, 0, 0], 3) == 4
        assert 3 in M._tables


def test_direct_sum_dims_and_maps():
    (r1, r2), _, _ = catalog.d4_tubes()
    s = direct_sum(r1, r2)
    assert s.dims == (1, 1, 2, 1, 1)
    assert sum(grassmannian_table(s).values()) == 16  # 8 * 2, multiplicativity


def test_rep_json_roundtrip():
    for M in (catalog.d4_m_lambda(2), catalog.kronecker_regular(),
              catalog.d4_tubes()[1][0]):
        assert QuiverRep.from_json(M.to_json()) == M


def test_rep_json_aligns_maps_with_arrows():
    # maps may be declared in any order; parallel arrows keep theirs
    data = catalog.d4_m_lambda(2).to_json()
    data["maps"].reverse()
    assert QuiverRep.from_json(data) == catalog.d4_m_lambda(2)
    data = catalog.kronecker_regular().to_json()
    data["maps"].reverse()
    assert QuiverRep.from_json(data).maps == (((2,),), ((1,),))
    data["maps"][0]["arrow"] = [1, 0]
    with pytest.raises(ValueError) as info:
        QuiverRep.from_json(data)
    assert str(info.value) == ("declared arrows [(0, 1), (1, 0)] do not match "
                               "the quiver's [(0, 1), (0, 1)]")


def test_rep_validation():
    q = catalog.kronecker()
    with pytest.raises(ValueError):
        QuiverRep(q, (1,), [[[1]], [[1]]])
    with pytest.raises(ValueError):
        QuiverRep(q, (1, 1), [[[1]]])
    with pytest.raises(ValueError):
        QuiverRep(q, (1, 1), [[[1, 0]], [[1]]])
    with pytest.raises(ValueError, match="^dimension must be at least 0, got -1$"):
        QuiverRep(q, (1, -1), [[[1]], [[1]]])
    with pytest.raises(ValueError, match="vector length must equal the vertex count"):
        euler_form(q, (1, 0), (1, 0, 0))
    # numbers that are not integers are rejected, not truncated
    with pytest.raises(ValueError, match="^dimension must be an integer, got 1.5$"):
        QuiverRep(q, (1.5, 1), [[[1]], [[1]]])
    with pytest.raises(ValueError, match="^matrix entry must be an integer, got 0.5$"):
        QuiverRep(q, (1, 1), [[[1]], [[0.5]]])
    with pytest.raises(ValueError, match="^lambda must be an integer, got 2.5$"):
        QuiverRep(q, (1, 1), [[[1]], [[1]]], {"lambda": 2.5})
    for x in (1.5, True):
        for e in ((1, 1, x, 0, 0), (x, 1, 1, 0, 0)):
            message = "^dimension vector entry must be an integer, got %r$" % x
            with pytest.raises(ValueError, match=message):
                count_points(catalog.d4_m_lambda(2), e, 3)
            with pytest.raises(ValueError, match=message):
                counting_degree_bound(catalog.d4_m_lambda(2), e)
    # a parameter 0 or 1 degenerates at every prime, so no count could start
    for value in (0, 1):
        with pytest.raises(ValueError, match="'lambda': %d" % value):
            QuiverRep(q, (1, 1), [[[1]], [[1]]], {"lambda": value})


def test_counting_primes_are_the_first_admissible_odd_primes():
    assert counting_primes(catalog.d4_m_lambda(0), 10) == (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    M = catalog.d4_m_lambda(2)
    N = QuiverRep(M.quiver, M.dims, M.maps, {"lambda": 4849845})  # 3*5*7*11*13*17*19
    assert counting_primes(N, 3) == (23, 31, 37)  # and 4849845 = 1 mod 29
    assert counting_primes(M, 0) == ()
    assert [n for n in range(-2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_e6_tube_dimension_vectors_are_regular():
    q = catalog.e6_affine()
    d = delta(q)
    for tube in catalog.E6_TUBE_DIMENSION_VECTORS:
        for vec in tube:
            assert defect(q, vec) == 0
        total = tuple(sum(col) for col in zip(*tube))
        assert total == d
