import importlib.util
import json
import re
import sys
from pathlib import Path

from friezelab import catalog
from friezelab.cc import cc_map
from friezelab.fixtures import fixture_root, load_json
from friezelab.laurent import LaurentPoly
from friezelab.quivers import Quiver
from friezelab.rep import QuiverRep


def test_listing_contains_expected_groups():
    for name in ("d4/quiver.json", "d4/m_lambda.json", "e6/double_arrow.json",
                 "kronecker/regular.json"):
        assert (fixture_root() / name).is_file()


def test_fixture_files_match_catalog():
    assert Quiver.from_json(load_json("d4/quiver.json")) == catalog.d4_star()
    assert Quiver.from_json(load_json("e6/quiver.json")) == catalog.e6_affine()
    assert Quiver.from_json(load_json("e6/double_arrow.json")) == catalog.e_double_arrow(6)
    assert Quiver.from_json(load_json("e7/double_arrow.json")) == catalog.e_double_arrow(7)
    assert Quiver.from_json(load_json("e8/double_arrow.json")) == catalog.e_double_arrow(8)
    assert QuiverRep.from_json(load_json("d4/m_lambda.json")) == catalog.d4_m_lambda(2)
    assert QuiverRep.from_json(load_json("d4/m_lambda0.json")) == catalog.d4_m_lambda(0)
    assert (QuiverRep.from_json(load_json("kronecker/regular.json"))
            == catalog.kronecker_regular())
    for i, tube in enumerate(catalog.d4_tubes(), 1):
        reps = load_json("d4/tube%d.json" % i)["reps"]
        assert [QuiverRep.from_json(entry) for entry in reps] == list(tube)


def test_double_arrow_quivers_are_fans_with_legs():
    # labels 0, 1, then each triangle vertex followed by its leg; the arrows
    # are the double arrow, the triangles 1 -> w -> 0 and legs pointing at w
    def arrows(q):
        return sorted((q.labels[t], q.labels[h]) for t, h in q.arrows())

    fan = [("0", "1"), ("0", "1")] + [(t, h) for w in "abc" for t, h in (("1", w), (w, "0"))]
    d6 = catalog.d_double_arrow(6)
    assert d6.labels == ("0", "1", "a", "b", "c", "c1", "c2")
    assert arrows(d6) == sorted(fan + [("c1", "c"), ("c2", "c1")])
    e7 = catalog.e_double_arrow(7)
    assert e7.labels == ("0", "1", "a", "b", "b1", "c", "c1", "c2")
    assert arrows(e7) == sorted(fan + [("b1", "b"), ("c1", "c"), ("c2", "c1")])
    assert catalog.affine_a(1, 1) == catalog.kronecker()


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


def test_make_fixtures_regenerates_the_shipped_files(tmp_path, monkeypatch):
    tool = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", tool)
    make_fixtures = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ on import
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "ROOT", tmp_path)
    make_fixtures.main()
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.json"))
    shipped = Path(str(fixture_root()))
    assert written == sorted(p.relative_to(shipped) for p in shipped.rglob("*.json"))
    for relative in written:
        assert (tmp_path / relative).read_bytes() == (shipped / relative).read_bytes(), relative


def test_readme_fixture_paths_resolve_from_repository_root():
    # the README's examples use fixtures/... through the root symlink
    root = Path(__file__).resolve().parent.parent
    assert (root / "fixtures").resolve() == (root / "src" / "friezelab" / "fixtures").resolve()
    paths = set(re.findall(r"fixtures/[\w/]+\.json", (root / "README.md").read_text()))
    assert paths
    for path in sorted(paths):
        assert (root / path).is_file(), path
