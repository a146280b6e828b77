import hashlib
import random

import pytest

from friezelab import catalog
from friezelab.errors import ExponentOutOfRange, NotDivisible
from friezelab.laurent import LaurentPoly
from friezelab.seeds import Seed
from friezelab.theta import double_arrow_seed, theta

from laurent_text import grlex_sorted, parse_laurent, reference_product

V2 = ("x0", "x1")


def lp(text, variables=V2):
    return parse_laurent(text, variables)


def test_add_inverse_cancels():
    x0 = LaurentPoly.variable(V2, "x0")
    assert not (x0 + (-x0))


def test_add_like_terms():
    p = lp("x0*x1^-1")
    assert p + p == lp("2*x0*x1^-1")


def test_add_mixed():
    assert lp("x1^2 + 1") + lp("x1") == lp("x1^2 + x1 + 1")


def test_mul_unit():
    assert lp("x0^-1") * lp("x0") == 1


def test_mul_difference_of_squares():
    assert lp("x0 + x1") * lp("x0 - x1") == lp("x0^2 - x1^2")


def test_mul_absorbing_zero():
    p = lp("x0^3 + 2*x1 - 1")
    assert not (LaurentPoly(V2) * p)


def test_variable_list_mismatch():
    p = LaurentPoly.variable(("x0",), "x0")
    q = LaurentPoly.variable(V2, "x0")
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_an_unknown_variable_name_is_named():
    with pytest.raises(ValueError, match=r"^no variable named 'y' in \('x',\)$"):
        LaurentPoly.variable(("x",), "y")


def test_int_on_the_left_and_foreign_operands():
    p = lp("x0 + 1")
    assert 3 - p == lp("2 - x0")
    with pytest.raises(TypeError, match="cannot combine LaurentPoly with 'float'"):
        p + 1.5
    assert p.__eq__("x0 + 1") is NotImplemented and p != "x0 + 1"


def test_div_exact_factor():
    assert lp("x0^2 - x1^2").div_exact(lp("x0 + x1")) == lp("x0 - x1")


def test_div_exact_self():
    p = lp("3*x0^2*x1^-1 - x1 + 7")
    assert p.div_exact(p) == 1


def test_div_exact_non_factor():
    with pytest.raises(NotDivisible):
        lp("x0 + x1").div_exact(lp("x0 + 2*x1"))


def test_div_exact_laurent_shift():
    # quotient genuinely needs negative exponents
    assert lp("1").div_exact(lp("x0")) == lp("x0^-1")
    assert lp("x0 + x1").div_exact(lp("x0*x1")) == lp("x1^-1 + x0^-1")


def test_specialize_all_ones():
    vs = ("x0", "x1", "x_a", "x_b", "x_c")
    p = parse_laurent("x0*x1^-1 + x0^-1*x1 + x_a*x_b*x_c*x0^-1*x1^-1", vs)
    assert p.at_ones() == 3


def _random_poly(rng, variables, max_terms=4, reach=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(-reach, reach) for _ in variables)
        terms[exp] = rng.randint(-5, 5)
    return LaurentPoly(variables, terms)


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(200):
        p = _random_poly(rng, V2)
        q = _random_poly(rng, V2)
        r = _random_poly(rng, V2)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_div_exact_roundtrip_randomized():
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        p = _random_poly(rng, V2)
        q = _random_poly(rng, V2)
        if not q:
            continue
        assert (p * q).div_exact(q) == p
        checked += 1


def test_serialize_parse_roundtrip():
    rng = random.Random(7)
    for _ in range(100):
        p = _random_poly(rng, V2, max_terms=6)
        assert parse_laurent(str(p), V2) == p
        assert str(parse_laurent(str(p), V2)) == str(p)


def test_json_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        p = _random_poly(rng, V2, max_terms=6)
        assert LaurentPoly.from_json(p.to_json()) == p


def test_json_coefficients_are_strings():
    p = lp("12345678901234567890*x0")
    data = p.to_json()
    assert data["terms"][0]["coef"] == "12345678901234567890"


def test_constant_hashes_as_its_int():
    # a constant equals an int, so sets and dicts must find one by the other
    for value in (1, 0, -7):
        constant = LaurentPoly.constant(V2, value)
        assert constant == value
        assert len({value, constant}) == 1
        assert {value: "int"}.get(constant) == "int"
    x0 = LaurentPoly.variable(V2, "x0")
    assert {0: "int"}.get(x0 - x0) == "int"
    assert {1: "int"}.get(x0 ** 0) == "int"


def test_canonical_no_zero_coefficients():
    p = LaurentPoly(V2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms


def test_pow():
    x0 = LaurentPoly.variable(V2, "x0")
    assert x0 ** 0 == 1
    assert (x0 + 1) ** 3 == lp("x0^3 + 3*x0^2 + 3*x0 + 1")
    with pytest.raises(ValueError):
        x0 ** -1
    for k in (True, 2.0):  # True used to return x0
        with pytest.raises(ValueError, match="^exponent must be an integer, got %r$" % k):
            x0 ** k


def test_div_exact_roundtrip_several_variables():
    # negative exponents, zero dividends, and three or four variables
    rng = random.Random(5)
    checked = zeros = 0
    while checked < 150:
        variables = ("a", "b", "c", "d")[:rng.choice((3, 4))]
        p = _random_poly(rng, variables, max_terms=6)
        q = _random_poly(rng, variables, max_terms=5)
        if not q:
            continue
        zeros += not p
        assert (p * q).div_exact(q) == p
        checked += 1
    assert zeros


def test_div_exact_rejects_non_unit_remainder():
    # p*q + c == q*r would make q divide the constant c, so q would be a
    # unit; a Laurent polynomial with two or more terms is not one
    rng = random.Random(17)
    checked = 0
    while checked < 150:
        variables = ("a", "b", "c", "d")[:rng.choice((2, 3, 4))]
        p = _random_poly(rng, variables, max_terms=5)
        q = _random_poly(rng, variables, max_terms=5)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        if len(q.terms) < 2:
            continue
        with pytest.raises(NotDivisible):
            (p * q + c).div_exact(q)
        checked += 1


def test_div_exact_without_variables():
    assert LaurentPoly((), {(): 6}).div_exact(LaurentPoly((), {(): -3})) == -2
    with pytest.raises(NotDivisible):
        LaurentPoly((), {(): 6}).div_exact(LaurentPoly((), {(): 4}))


def test_ring_results_have_no_zero_coefficients():
    rng = random.Random(23)
    for _ in range(200):
        p = _random_poly(rng, V2)
        q = _random_poly(rng, V2)
        results = [p + q, p - q, -p, p * q, p * q - q * p]
        if q:
            results.append((p * q).div_exact(q))
        for r in results:
            assert 0 not in r.terms.values()


def test_at_ones_is_coefficient_sum():
    rng = random.Random(29)
    for _ in range(100):
        p = _random_poly(rng, V2, max_terms=6)
        assert p.at_ones() == sum(p.terms.values())


def test_pow_matches_repeated_multiplication():
    # powers run by repeated squaring, not by repeated multiplication
    rng = random.Random(31)
    polys = [LaurentPoly(("a", "b", "c"))]
    polys += [_random_poly(rng, ("a", "b", "c"), max_terms=5) for _ in range(30)]
    for p in polys:
        expected = LaurentPoly.one(p.vars)
        for k in range(10):
            assert p ** k == expected
            expected = expected * p


def test_div_exact_roundtrip_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    variables = ("a", "b", "c")
    polys = st.dictionaries(st.tuples(*[st.integers(-3, 3)] * len(variables)),
                            st.integers(-9, 9), max_size=6).map(
                                lambda terms: LaurentPoly(variables, terms))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(polys, polys)
    def check(p, q):
        hypothesis.assume(q)
        assert (p * q).div_exact(q) == p

    check()


# stored exponents lie in [-2^14, 2^14), as the laurent module documents
LIMIT = 1 << 14


def test_packed_arithmetic_matches_tuple_reference():
    rng = random.Random(41)
    for n in range(1, 10):
        variables = tuple("y%d" % i for i in range(n))
        for _ in range(25):
            p = _random_poly(rng, variables, max_terms=8, reach=5)
            q = _random_poly(rng, variables, max_terms=6, reach=5)
            product = p * q
            assert product.terms == reference_product(p.terms, q.terms)
            assert hash(product) == hash(q * p)
            assert product.sorted_terms() == grlex_sorted(product.terms)
            assert [(tuple(t["exp"]), int(t["coef"])) for t in product.to_json()["terms"]] \
                == grlex_sorted(product.terms)
            if q:
                assert product.div_exact(q) == p


def test_div_exact_rejects_quotients_outside_the_newton_box():
    # x0^3 / x0 = x0^2 lies in the box 0 <= e0 <= 2, e1 = 0, but the next
    # quotient term -x0*x1 leaves it
    with pytest.raises(NotDivisible):
        lp("x0^3 + x1").div_exact(lp("x0 + x1"))
    # the divisor's box is wider than the dividend's: the box is empty
    with pytest.raises(NotDivisible):
        lp("x0").div_exact(lp("x0^2 + 1"))
    with pytest.raises(NotDivisible):
        (lp("x0^2 - x1^2") + lp("x0^-5")).div_exact(lp("x0 + x1"))


def test_exponents_past_the_field_range_raise():
    x0 = LaurentPoly.variable(V2, "x0")
    assert (x0 ** (LIMIT - 1)).terms == {(LIMIT - 1, 0): 1}
    with pytest.raises(ExponentOutOfRange):
        x0 ** LIMIT
    inverse = LaurentPoly(V2, {(-1, 0): 1})
    assert (inverse ** LIMIT).terms == {(-LIMIT, 0): 1}
    with pytest.raises(ExponentOutOfRange):
        inverse ** (LIMIT + 1)
    with pytest.raises(ExponentOutOfRange):
        LaurentPoly(V2, {(0, LIMIT): 1})
    half = LaurentPoly(V2, {(LIMIT // 2, 0): 1})
    with pytest.raises(ExponentOutOfRange):
        half * half


def test_powers_near_the_field_range_raise_exactly_when_the_power_leaves_it():
    # p**k has k times p's box; a mixed-sign box meets -LIMIT and LIMIT at
    # k = 8, once inside the range ([-LIMIT, LIMIT)) and once outside it
    eighth = LIMIT // 8
    inside = LaurentPoly(V2, {(eighth - 1, -eighth): 1, (-5, 0): -2, (0, 7): 3})
    outside = LaurentPoly(V2, {(-eighth, 0): 1, (0, eighth): -1, (0, 0): 1})
    for p, last in ((inside, 8), (outside, 7)):
        lo, hi = _box_from_terms(p)
        assert last * min(lo) >= -LIMIT and last * max(hi) < LIMIT
        assert (last + 1) * min(lo) < -LIMIT or (last + 1) * max(hi) >= LIMIT
        expected = p
        for k in range(2, last + 1):
            expected = expected * p
            assert p ** k == expected
        with pytest.raises(ExponentOutOfRange):
            p ** (last + 1)


def _box_from_terms(poly):
    columns = list(zip(*poly.terms))
    return tuple(map(min, columns)), tuple(map(max, columns))


def _assert_exact_box(poly):
    # a carried box is the box of the terms; one is worked out when asked
    if poly._box is not None:
        assert poly._box == _box_from_terms(poly)
    if poly:
        assert poly._newton_box() == _box_from_terms(poly)


def test_carried_newton_boxes_are_exact():
    rng = random.Random(37)
    for n in (1, 2, 3):
        variables = ("a", "b", "c")[:n]
        for _ in range(60):
            p = _random_poly(rng, variables, max_terms=5, reach=4)
            q = _random_poly(rng, variables, max_terms=5, reach=4)
            results = [p + q, p - q, q - p, -p, p * q, p ** 2, p ** 3, p + q * q]
            if q:
                results.append((p * q).div_exact(q))
            for r in results:
                _assert_exact_box(r)


def test_sum_boxes_after_cancellation_and_without_an_operand_box():
    a = LaurentPoly(V2, {(3, -2): 1})
    b = LaurentPoly(V2, {(-1, 0): 1, (0, -1): 2})
    assert (a + b)._box == ((-1, -2), (3, 0))
    # the extreme term a cancels: the box is b's, not the hull
    cancelled = (a + b) + (-a)
    assert cancelled == b
    _assert_exact_box(cancelled)
    assert cancelled._newton_box() == ((-1, -1), (0, 0))
    unboxed = LaurentPoly._raw(V2, dict(a._keys))
    for r in (unboxed + b, b + unboxed, unboxed - b, unboxed + unboxed, -unboxed):
        _assert_exact_box(r)
    # negative exponents only, and a sum that empties
    negative = LaurentPoly(V2, {(-3, -1): 4, (-1, -2): -1})
    for r in (negative + negative, negative - negative, negative * negative,
              negative ** 2, negative ** 5, negative + a):
        _assert_exact_box(r)


def test_repeated_square_and_divide_keeps_its_range():
    # the box of p*p / p is p's box again, not the sum of the boxes
    half = LIMIT // 2 - 1
    p = LaurentPoly(V2, {(half, 0): 1, (0, -half): 2, (1, 1): -3})
    start = p
    for _ in range(40):
        p = (p * p).div_exact(p)
    assert p == start


def test_constructor_and_division_reject_malformed_input():
    with pytest.raises(ValueError, match="duplicate variable names"):
        LaurentPoly(("x0", "x0"))
    with pytest.raises(ValueError, match="exponent vector length"):
        LaurentPoly(V2, {(1,): 2})
    with pytest.raises(ZeroDivisionError, match="zero polynomial"):
        lp("x0").div_exact(LaurentPoly(V2))


def test_constructor_rejects_non_integers():
    with pytest.raises(ValueError, match="1.5"):
        LaurentPoly(V2, {(1.5, 0): 2})
    with pytest.raises(ValueError, match="2.7"):
        LaurentPoly(V2, {(1, 0): 2.7})
    with pytest.raises(ValueError, match="2.7"):
        LaurentPoly.from_json({"vars": list(V2), "terms": [{"exp": [1, 0], "coef": 2.7}]})


def _sha256(poly):
    return hashlib.sha256(poly.dumps().encode()).hexdigest()


def test_dumps_bytes_pinned():
    # digests of the outputs before the heap division replaced long division
    seed = Seed.initial(catalog.kronecker())
    k = 0
    for _ in range(20):
        seed = seed.mutate(k)
        k = 1 - k
    variable = seed.vars[1]
    assert variable.at_ones() == 165580141  # F_41
    assert _sha256(variable) == \
        "f8d082ae1251728a36f85a6edc050e48f372f26b5e018731814b16e8ff791495"

    arrived, _ = double_arrow_seed(catalog.e7_affine())
    value = theta(arrived)
    assert value.integer == 702
    assert _sha256(value.laurent) == \
        "86d9d593f48021b40d50f112b3d476cd2e053d407f4d264a6ae71ae25bd36d69"
