import json
import re
from pathlib import Path

from friezelab import catalog
from friezelab.cc import cc_map
from friezelab.fixtures import (fixture_root, list_fixtures, load_json,
                                load_quiver, load_rep, load_tube)
from friezelab.laurent import LaurentPoly


def test_listing_contains_expected_groups():
    names = list_fixtures()
    assert "d4/quiver.json" in names
    assert "d4/m_lambda.json" in names
    assert "e6/double_arrow.json" in names
    assert "kronecker/regular.json" in names


def test_fixture_files_match_catalog():
    assert load_quiver("d4/quiver.json") == catalog.d4_star()
    assert load_quiver("e6/quiver.json") == catalog.e6_affine()
    assert load_quiver("e6/double_arrow.json") == catalog.e_double_arrow(6)
    assert load_quiver("e7/double_arrow.json") == catalog.e_double_arrow(7)
    assert load_quiver("e8/double_arrow.json") == catalog.e_double_arrow(8)
    assert load_rep("d4/m_lambda.json") == catalog.d4_m_lambda(2)
    assert load_rep("d4/m_lambda0.json") == catalog.d4_m_lambda(0)
    assert load_rep("kronecker/regular.json") == catalog.kronecker_regular()
    for i, tube in enumerate(catalog.d4_tubes(), 1):
        assert load_tube("d4/tube%d.json" % i) == list(tube)


def test_golden_character_matches_computation():
    golden = LaurentPoly.from_json(load_json("d4/goldens.json")["cc_m_lambda"])
    assert golden == cc_map(catalog.d4_m_lambda(2)).laurent


def test_quiddity_fixture():
    data = load_json("e6/quiddities.json")
    assert [[int(x) for x in row] for row in data["tubes"]] == [
        [9, 36], [7, 7, 7], [7, 7, 7]]


def test_fixture_bytes_are_stable():
    # writing the same payload twice must give identical bytes
    path = fixture_root() / "d4" / "goldens.json"
    data = json.loads(path.read_text())
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == path.read_text()


def test_readme_fixture_paths_resolve_from_repository_root():
    # the README's examples use fixtures/... through the root symlink
    root = Path(__file__).resolve().parent.parent
    assert (root / "fixtures").resolve() == (root / "src" / "friezelab" / "fixtures").resolve()
    paths = set(re.findall(r"fixtures/[\w/]+\.json", (root / "README.md").read_text()))
    assert paths
    for path in sorted(paths):
        assert (root / path).is_file(), path
