import random
import re
from itertools import islice

import pytest

from friezelab.chebyshev import chebyshev_T, recurrence
from friezelab.errors import InvalidFrieze, NonPositiveEntry
from friezelab.frieze import Quiddity, _check_diamonds, generate, growth, measured_growth
from friezelab.laurent import LaurentPoly


def test_quiddity_validation():
    with pytest.raises(ValueError):
        Quiddity([])
    with pytest.raises(ValueError):
        Quiddity([0, 5])
    with pytest.raises(ValueError):
        Quiddity([3, -1])
    # numbers that are not integers are rejected, not truncated
    with pytest.raises(ValueError, match="^quiddity entry must be an integer, got 8.9$"):
        generate([8.9, 2.2], 3)
    with pytest.raises(ValueError, match="depth must be at least 1"):
        generate([8, 2], 0)


def test_pattern_reads_only_its_computed_band():
    f = generate([8, 2], depth=3)
    assert f.entry(0, 4) == 112 and f.row(-1) == [0, 0]
    for i, j in ((0, -1), (0, 5)):
        with pytest.raises(IndexError, match=r"entry \(%d, %d\) lies outside" % (i, j)):
            f.entry(i, j)
    for r in (-2, 4):
        with pytest.raises(IndexError, match="row %d not computed" % r):
            f.row(r)


def test_quiddity_cyclic_equality():
    assert Quiddity([8, 2]) == Quiddity([2, 8])
    assert Quiddity([1, 2, 3]) == Quiddity([3, 1, 2])
    assert Quiddity([1, 2, 3]) != Quiddity([1, 3, 2])
    assert hash(Quiddity([8, 2])) == hash(Quiddity([2, 8]))


def test_generate_8_2_matches_printed_rows():
    f = generate([8, 2], depth=6)
    assert f.row(1) == [8, 2]
    assert f.row(2) == [15, 15]
    assert f.row(3) == [28, 112]
    assert f.row(4) == [209, 209]
    assert f.row(5) == [1560, 390]
    assert f.row(6) == [2911, 2911]


def test_generate_4_4_matches_printed_rows():
    f = generate([4, 4], depth=5)
    assert f.row(1) == [4, 4]
    assert f.row(2) == [15, 15]
    assert f.row(3) == [56, 56]
    assert f.row(4) == [209, 209]


def test_generate_9_36_matches_printed_rows():
    # The originally published tabulation of this pattern misprints one row-3
    # entry as 1152; 2-periodicity forces 11592 and that is what we emit.
    f = generate([9, 36], depth=4)
    assert f.row(1) == [9, 36]
    assert f.row(2) == [323, 323]
    assert f.row(3) == [11592, 2898]
    assert f.entry(-3, 1) == f.entry(-1, 3) == 11592


def test_generate_trivial_rows():
    f = generate([7, 7, 7], depth=4)
    assert f.row(-1) == [0, 0, 0]
    assert f.row(0) == [1, 1, 1]
    assert f.row(1) == [7, 7, 7]
    assert f.row(2) == [48, 48, 48]
    assert f.row(3) == [329, 329, 329]


def test_generate_rejects_polygon_quiddity():
    # (1,3) closes up like a finite pattern: the recurrence hits a
    # nonpositive entry within a few rows.
    with pytest.raises(NonPositiveEntry):
        generate([1, 3], depth=8)


def test_growth_8_2():
    f = generate([8, 2], depth=6)
    assert growth(f, 1) == 14
    assert growth(f, 2) == 194
    assert growth(f, 3) == 2702


def test_growth_7_7_7():
    f = generate([7, 7, 7], depth=4)
    assert growth(f, 1) == 322


def test_growth_9_36():
    f = generate([9, 36], depth=4)
    assert growth(f, 1) == 322


def test_measured_growth_agrees_with_recurrence():
    f = generate([8, 2], depth=12)
    for k in range(1, 7):
        assert measured_growth(f, k) == growth(f, k) == chebyshev_T(k, 14)


def test_growth_needs_depth():
    f = generate([8, 2], depth=1)
    with pytest.raises(ValueError):
        growth(f, 1)


@pytest.mark.parametrize("k", [0, -1])
def test_growth_needs_positive_k(k):
    f = generate([8, 2], depth=6)
    for read in (growth, measured_growth):
        with pytest.raises(ValueError, match="^k must be at least 1, got %d$" % k):
            read(f, k)


@pytest.mark.parametrize("x", [2.5, True, "3"])
def test_depth_and_k_must_be_integers(x):
    got = re.escape(repr(x))
    with pytest.raises(ValueError, match="^depth must be an integer, got %s$" % got):
        generate([8, 2], x)
    f = generate([8, 2], depth=6)
    for read in (growth, measured_growth):
        with pytest.raises(ValueError, match="^k must be an integer, got %s$" % got):
            read(f, x)


def test_classify_growth():
    # s_1 > 2 is fast affine growth, s_1 == 2 arithmetic-like growth
    assert growth(generate([8, 2], depth=4), 1) == 14
    # punctured-disc style quiddity: all growth coefficients equal 2
    assert growth(generate([2, 2], depth=6), 1) == 2


def test_all_twos_guiddity_is_arithmetic():
    f = generate([2, 2, 2], depth=9)
    for k in (1, 2, 3):
        assert measured_growth(f, k) == 2


def test_growth_rejects_inconsistent_entries():
    from friezelab.frieze import FriezePattern

    # hand-built table whose diagonals do not form a frieze: the growth
    # difference depends on the starting diagonal
    bogus = FriezePattern(Quiddity([8, 2]), 2,
                          {0: [0, 1, 8, 15], 1: [0, 1, 2, 14]})
    with pytest.raises(InvalidFrieze):
        growth(bogus, 1)


def _first_failure(check, *args):
    try:
        check(*args)
    except NonPositiveEntry as error:
        return str(error)
    return None


def _recurrence(quiddity, rows):
    """Run every diagonal of the frieze down to the given row with the
    plain recurrence, and raise at its first entry <= 0 as generate does."""
    n = len(quiddity)
    for res in range(n):
        prev, cur = 0, 1
        for t in range(1, rows + 1):
            prev, cur = cur, quiddity[(res + t + 1) % n] * cur - prev
            if cur <= 0:
                raise NonPositiveEntry(
                    "entry in row %d is %d <= 0; quiddity %s does not bound an infinite frieze"
                    % (t, cur, tuple(quiddity)))


@pytest.mark.parametrize("quiddity, row", [((1, 2, 2, 4, 4), 14), ((1, 3), 5)])
def test_generate_sees_past_a_shallow_depth(quiddity, row):
    # rows 1..row-1 are positive and s_1 = 1 for both, but neither quiddity
    # bounds an infinite frieze
    with pytest.raises(NonPositiveEntry, match="entry in row %d is 0" % row):
        generate(quiddity, depth=row - 1)


def test_generate_agrees_with_deep_recurrence():
    rng = random.Random(1616)
    infinite = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        q = [rng.randint(1, 6) for _ in range(n)]
        verdict = _first_failure(generate, q, rng.randint(1, 2 * n))
        assert verdict == _first_failure(_recurrence, q, 40 * n), q
        infinite += verdict is None
    assert 0 < infinite < 400


def test_periodicity_invariant():
    f = generate([3, 1, 2, 5], depth=8)
    n = f.period
    for i in range(-4, 4):
        for t in range(0, f.depth + 2):
            assert f.entry(i, i + t) == f.entry(i + n, i + n + t)


def test_growth_differences_match_chebyshev_on_random_quiddities():
    rng = random.Random(31415)
    survivors = 0
    while survivors < 25:
        n = rng.randint(1, 4)
        q = [rng.randint(1, 6) for _ in range(n)]
        try:
            f = generate(q, depth=3 * n)
        except NonPositiveEntry:
            continue
        survivors += 1
        s1 = growth(f, 1)
        for k in range(1, 4):
            assert measured_growth(f, k) == chebyshev_T(k, s1)


def test_diamond_on_random_surviving_quiddities():
    # generate() itself certifies the diamond relation on every stored
    # diamond (the first of each diagonal pair, and any step whose sums are
    # not the quiddity entry's multiples, by the products, the rest by the
    # telescoping identity); survivors must also have positive interior rows.
    rng = random.Random(2024)
    survivors = 0
    attempts = 0
    while survivors < 100 and attempts < 5000:
        attempts += 1
        n = rng.randint(1, 5)
        q = [rng.randint(1, 6) for _ in range(n)]
        try:
            f = generate(q, depth=2 * n + 2)
        except NonPositiveEntry:
            continue
        survivors += 1
        for r in range(1, f.depth + 1):
            assert all(v > 0 for v in f.row(r))
    assert survivors == 100


def _multiplied_out(entries, diagonals, depth):
    """The diamond check with both products of every diamond, as the oracle."""
    n = len(diagonals)
    for i in range(n):
        d, e = diagonals[i], diagonals[(i + 1) % n]
        for t in range(1, depth + 1):
            if d[t] * e[t] - e[t - 1] * d[t + 1] != 1:
                raise InvalidFrieze("diamond relation fails at (%d, %d)" % (i, i + t))


def _diamond_verdict(check, entries, diagonals, depth):
    try:
        check(entries, diagonals, depth)
    except InvalidFrieze as error:
        return str(error)
    return None


_ENTRY_CHANGES = (lambda x: x + 1, lambda x: x - 1, lambda x: x + 2, lambda x: x - 2,
                  lambda x: 0, lambda x: -x, lambda x: 2 * x, lambda x: x + 10 ** 6)


def _compare_with_the_products(read):
    """Make 1-3 seeded changes to the entries of generated patterns, on any
    diagonal and at any t in 0..depth+1, and check that _check_diamonds,
    given read(quiddity), names the same first failing diamond as the
    products or accepts with them."""
    rng = random.Random(53)
    quiddities = ((3,), (8, 2), (4, 4), (9, 36), (7, 7, 7), (4, 5, 7, 9, 22))
    patterns: dict = {}
    failed = 0
    for _ in range(3000):
        quiddity, depth = rng.choice(quiddities), rng.randint(1, 40)
        if (quiddity, depth) not in patterns:
            diagonals = generate(quiddity, depth)._diagonals
            assert _diamond_verdict(_check_diamonds, read(quiddity), diagonals, depth) is None
            patterns[quiddity, depth] = diagonals
        changed = {res: list(diag) for res, diag in patterns[quiddity, depth].items()}
        for _ in range(rng.randint(1, 3)):
            diag, t = changed[rng.randrange(len(quiddity))], rng.randint(0, depth + 1)
            diag[t] = rng.choice(_ENTRY_CHANGES)(diag[t])
        want = _diamond_verdict(_multiplied_out, quiddity, changed, depth)
        assert _diamond_verdict(_check_diamonds, read(quiddity), changed, depth) == want, (
            quiddity, depth)
        failed += want is not None
    assert 2000 < failed < 3000


def test_telescoped_diamonds_fail_where_the_products_fail():
    _compare_with_the_products(lambda quiddity: quiddity)


@pytest.mark.parametrize("read", [lambda q: tuple(a + 1 for a in q), lambda q: q[1:] + q[:1]],
                         ids=["entries-plus-one", "rotated"])
def test_a_wrong_quiddity_only_sends_steps_to_the_products(read):
    # the identity equates W_t with W_{t-1} for any a, so a wrong quiddity
    # costs products but never accepts a diamond that fails
    _compare_with_the_products(read)


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
@pytest.mark.parametrize("res, first_failure", [(0, "(0, 3)"), (1, "(0, 4)")])
def test_diamonds_are_certified_over_laurent_polynomials(names, res, first_failure):
    # the diagonals of the frieze whose quiddity is the variables named, as
    # generate builds them from the shared recurrence; entry 4 of diagonal 0
    # is a d-side entry of the first failing diamond, that of diagonal 1 an
    # e-side one
    a = [LaurentPoly.variable(names, v) for v in names]
    n, depth = len(a), 8
    diagonals = {i: list(islice(recurrence(0, 1, a[(i + 2) % n:] + a[:(i + 2) % n]), depth + 2))
                 for i in range(n)}
    assert _diamond_verdict(_check_diamonds, a, diagonals, depth) is None
    diagonals[res][4] += 1
    want = _diamond_verdict(_multiplied_out, a, diagonals, depth)
    assert want == "diamond relation fails at " + first_failure
    assert _diamond_verdict(_check_diamonds, a, diagonals, depth) == want
