"""End-to-end verification checks reproducing the reference worked examples.

ALL_CHECKS is the single statement of each worked example.  Each entry is a
name, a time budget in seconds, and a function that raises (with a readable
message) on any mismatch; run_checks collects results so the CLI can print
one line per check and exit nonzero when something fails, and the
acceptance tests run every entry against its budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import catalog, fixtures
from .cc import cc_map, growth_via_homogeneous, quiddity_from_tube
from .chebyshev import chebyshev_S, chebyshev_T
from .frieze import Quiddity, generate, growth, measured_growth
from .laurent import LaurentPoly
from .modular import apply_generator_word, check_relations
from .rep import grassmannian_table
from .seeds import Seed
from .theta import double_arrow_seed, growth_from_affine_quiver, theta


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_d4_frieze_rows() -> None:
    f = generate([8, 2], depth=6)
    rows = [f.row(r) for r in range(1, 7)]
    _expect(rows == [[8, 2], [15, 15], [28, 112], [209, 209], [1560, 390], [2911, 2911]],
            "rows of the (8,2) pattern are %s" % rows)
    g = generate([4, 4], depth=5)
    _expect([g.row(r) for r in range(2, 5)] == [[15, 15], [56, 56], [209, 209]],
            "rows of the (4,4) pattern are wrong")


def check_d4_growth() -> None:
    for quiddity in ((8, 2), (4, 4), (4, 4)):
        f = generate(quiddity, depth=2 * len(quiddity) + 2)
        _expect(growth(f, 1) == 14, "s_1 of %s is %d" % (quiddity, growth(f, 1)))
        _expect(growth(f, 2) == 194, "s_2 of %s is wrong" % (quiddity,))
        _expect(growth(f, 3) == 2702 == chebyshev_T(3, 14), "s_3 mismatch")


def check_d4_grassmannian_table() -> None:
    table = grassmannian_table(catalog.d4_m_lambda(2))
    golden = fixtures.load_json("d4/goldens.json")["grassmannian_table"]
    want = {tuple(row["e"]): int(row["chi"]) for row in golden}
    _expect(table == want, "character table differs from the golden file")
    _expect(len(table) == 13 and sum(table.values()) == 14, "table shape is wrong")
    _expect(table[(1, 1, 1, 0, 0)] == 2, "the projective-line stratum must have chi 2")
    _expect(list(table.values()).count(2) == 1, "more than one stratum has chi 2")


def check_d4_cc_character() -> None:
    golden = LaurentPoly.from_json(fixtures.load_json("d4/goldens.json")["cc_m_lambda"])
    value = cc_map(catalog.d4_m_lambda(2))
    _expect(value.laurent == golden, "character differs from the golden polynomial")
    _expect(value.at_ones == 14, "character has wrong all-ones value")
    numerator = value.laurent * LaurentPoly(value.laurent.vars, {(1, 1, 2, 1, 1): 1})
    _expect(len(numerator.terms) == 8
            and sorted(numerator.terms.values()) == [1, 1, 1, 1, 2, 2, 2, 4],
            "numerator over x1*x2*x3^2*x4*x5 has coefficients %s"
            % sorted(numerator.terms.values()))


def check_d4_tube_quiddities() -> None:
    q = catalog.d4_star()
    rows = [quiddity_from_tube(q, tube) for tube in catalog.d4_tubes()]
    _expect(rows == [Quiddity([8, 2]), Quiddity([4, 4]), Quiddity([4, 4])],
            "tube quiddities are %s" % rows)


def check_d4_theta_pipeline() -> None:
    _expect(growth_from_affine_quiver(catalog.d4_star(), 1000) == 14,
            "growth element specializes wrong")
    seed, _ = double_arrow_seed(catalog.d4_star(), 1000)
    _expect(theta(seed).laurent == cc_map(catalog.d4_m_lambda(2)).laurent,
            "growth element differs from the homogeneous character")


def check_d4_degenerate_identity() -> None:
    generic = cc_map(catalog.d4_m_lambda(2))
    degenerate = cc_map(catalog.d4_m_lambda(0))
    _expect(degenerate.laurent == generic.laurent + 1,
            "degenerate character is not generic + 1")
    _expect(degenerate.at_ones == 15, "degenerate all-ones value is not 15")


def check_d4_tube_friezes() -> None:
    q = catalog.d4_star()
    f1 = generate(quiddity_from_tube(q, catalog.d4_tubes()[0]), depth=6)
    _expect(f1.row(2) == [15, 15] and f1.row(3) == [28, 112] and f1.row(4) == [209, 209],
            "tube-1 pattern is wrong")
    f2 = generate(quiddity_from_tube(q, catalog.d4_tubes()[1]), depth=4)
    _expect(f2.row(3) == [56, 56], "tube-2 pattern is wrong")


def check_e6_growth_pipeline() -> None:
    value = growth_from_affine_quiver(catalog.e6_affine())
    _expect(value == 322, "growth of the 7-vertex star is %d" % value)


def check_e6_friezes() -> None:
    f = generate([9, 36], depth=4)
    _expect(f.row(2) == [323, 323], "(9,36) second row wrong")
    # a previously published tabulation misprints one row-3 entry as 1152;
    # periodicity forces 11592
    _expect(f.row(3) == [11592, 2898], "(9,36) third row wrong")
    _expect(f.entry(-3, 1) == f.entry(-1, 3) == 11592, "(9,36) third row is not 2-periodic")
    _expect(growth(f, 1) == 322, "(9,36) growth wrong")
    g = generate([7, 7, 7], depth=4)
    _expect(g.row(2) == [48, 48, 48] and g.row(3) == [329, 329, 329],
            "(7,7,7) rows wrong")
    _expect(growth(g, 1) == 322, "(7,7,7) growth wrong")


def _relations(n: int) -> Seed:
    seed = Seed.initial(catalog.e_double_arrow(n))
    failed = [name for name, ok in check_relations(seed).items() if not ok]
    _expect(not failed, "relations fail for n = %d: %s" % (n, ", ".join(failed)))
    return seed


def check_modular_relations_e6() -> None:
    S = _relations(6)
    _expect(apply_generator_word(S, ["gamma", "tb"]) == apply_generator_word(S, ["tc", "gamma"]),
            "gamma conjugation does not carry tb to tc")


def check_modular_relations_e7() -> None:
    _relations(7)


def check_modular_relations_e8() -> None:
    _relations(8)


def check_growth_identities() -> None:
    f = generate([8, 2], depth=12)
    for k in range(1, 7):
        sk = growth_via_homogeneous(14, k)
        _expect(sk == chebyshev_T(k, 14), "s_%d disagrees with the Chebyshev value" % k)
        _expect(sk == measured_growth(f, k), "s_%d disagrees with the measured value" % k)
    _expect(chebyshev_S(2, 14) == 195 and chebyshev_S(3, 14) == 2716,
            "second-kind values u_2, u_3 are wrong")


def check_kronecker_growth() -> None:
    _expect(growth_from_affine_quiver(catalog.kronecker()) == 3, "Kronecker growth wrong")
    quiddity = quiddity_from_tube(catalog.kronecker(), [catalog.kronecker_regular()])
    _expect(quiddity == Quiddity([3]), "Kronecker tube quiddity wrong")
    _expect(growth(generate(quiddity, 3), 1) == 3, "Kronecker tube frieze growth wrong")


def check_chebyshev_identity() -> None:
    x = LaurentPoly.variable(("x",), "x")
    for k in range(0, 21):
        _expect(chebyshev_T(k, x) == chebyshev_S(k, x) - chebyshev_S(k - 2, x),
                "first/second-kind identity fails at k = %d" % k)


def check_fixtures_integrity() -> None:
    for relative, expected in catalog.fixture_payloads().items():
        _expect(fixtures.load_json(relative) == expected,
                "fixture %s differs from the catalog" % relative)
    golden = fixtures.load_json("d4/goldens.json")
    _expect(golden["theta_at_ones"] == "14", "golden theta value corrupted")
    f = generate([8, 2], depth=6)
    _expect(golden["frieze_8_2"]["rows"] == [[str(x) for x in f.row(r)] for r in range(1, 7)],
            "golden frieze rows corrupted")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    message: str


# (name, budget in seconds, check); the acceptance tests fail a check that
# runs past its budget.
ALL_CHECKS: tuple[tuple[str, float, Callable[[], None]], ...] = (
    ("d4-frieze-rows", 1.0, check_d4_frieze_rows),
    ("d4-growth", 1.0, check_d4_growth),
    ("d4-grassmannian-table", 30.0, check_d4_grassmannian_table),
    ("d4-cc-character", 30.0, check_d4_cc_character),
    ("d4-tube-quiddities", 60.0, check_d4_tube_quiddities),
    ("d4-tube-friezes", 30.0, check_d4_tube_friezes),
    ("d4-theta-pipeline", 30.0, check_d4_theta_pipeline),
    ("d4-degenerate-identity", 30.0, check_d4_degenerate_identity),
    ("e6-growth-pipeline", 240.0, check_e6_growth_pipeline),
    ("e6-friezes", 60.0, check_e6_friezes),
    ("modular-relations-e6", 40.0, check_modular_relations_e6),
    ("modular-relations-e7", 40.0, check_modular_relations_e7),
    ("modular-relations-e8", 40.0, check_modular_relations_e8),
    ("growth-identities", 30.0, check_growth_identities),
    ("kronecker-growth", 30.0, check_kronecker_growth),
    ("chebyshev-identity", 30.0, check_chebyshev_identity),
    ("fixtures-integrity", 30.0, check_fixtures_integrity),
)


def run_checks(only: str | None = None) -> list[CheckResult]:
    results = []
    for name, _, func in ALL_CHECKS:
        if only and not name.startswith(only):
            continue
        try:
            func()
        except Exception as exc:  # noqa: BLE001 - report, do not crash the runner
            results.append(CheckResult(name, False, str(exc)))
        else:
            results.append(CheckResult(name, True, ""))
    return results
