import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from friezelab import catalog
from friezelab.chebyshev import chebyshev_S, chebyshev_T
from friezelab.cli import main, render_frieze
from friezelab.fixtures import fixture_root
from friezelab.frieze import generate
from friezelab.laurent import LaurentPoly
from friezelab.quivers import Quiver
from friezelab.rep import QuiverRep

from rep_helpers import spy_traversals


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def fixture(relative: str) -> str:
    return str(fixture_root() / relative)


def usage_error(capsys, *argv):
    """Run a command argparse rejects; return the JSON error on stdout."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "UsageError"
    return error


def test_frieze_growth_report(capsys):
    code, payload = run_json(capsys, "frieze", "--quiddity", "8,2",
                             "--depth", "6", "--growth", "2")
    assert code == 0
    assert payload["growth"] == {"1": "14", "2": "194"}
    assert payload["rows"][0] == ["8", "2"]
    assert payload["rows"][4] == ["1560", "390"]
    assert all(isinstance(x, str) for row in payload["rows"] for x in row)


@pytest.mark.parametrize("quiddity, depth, growth, row", [
    ("1,2,2,4,4", "13", "2", 14),
    ("1,3", "4", "1", 5),
])
def test_frieze_refuses_a_finite_quiddity_above_its_nonpositive_row(capsys, quiddity, depth,
                                                                    growth, row):
    # the rows down to --depth are positive, but a later row is 0
    code, payload = run_json(capsys, "frieze", "--quiddity", quiddity, "--depth", depth,
                             "--growth", growth)
    assert code == 1
    assert payload["error"]["type"] == "NonPositiveEntry"
    assert "entry in row %d is 0" % row in payload["error"]["message"]


def test_frieze_growth_reads_s1_once(capsys, monkeypatch):
    import friezelab.frieze as frieze_module

    calls = []
    real = frieze_module.measured_growth
    monkeypatch.setattr(frieze_module, "measured_growth",
                        lambda pattern, k: calls.append(k) or real(pattern, k))
    code, payload = run_json(capsys, "frieze", "--quiddity", "8,2", "--depth", "2",
                             "--growth", "5")
    assert code == 0 and calls == [1]
    assert payload["growth"] == {str(k): str(chebyshev_T(k, 14)) for k in range(1, 6)}


def test_frieze_json_roundtrip(capsys):
    code, payload = run_json(capsys, "frieze", "--quiddity", "7,7,7", "--depth", "3")
    assert code == 0
    assert json.loads(json.dumps(payload)) == payload
    assert payload["rows"] == [["7", "7", "7"], ["48", "48", "48"], ["329", "329", "329"]]


def test_frieze_output_is_deterministic(capsys):
    _, first = run(capsys, "frieze", "--quiddity", "8,2", "--json")
    _, second = run(capsys, "frieze", "--quiddity", "8,2", "--json")
    assert first == second


def test_frieze_usage_error_on_nonpositive_quiddity(capsys):
    error = usage_error(capsys, "frieze", "--quiddity", "0,5")
    assert "--quiddity" in error["message"]


_NOT_AN_INT = "argument %s: invalid literal for int() with base 10: 'abc'"


@pytest.mark.parametrize("argv, mentions", [
    (["grassmannian", "--rep", fixture("d4/m_lambda.json"), "--dimvec", "1,x,1"], "--dimvec"),
    # the message names the bad entry, not the parser's private type function
    (["grassmannian", "--rep", fixture("d4/m_lambda.json"), "--dimvec", "1,,2"], ": ''"),
    (["nosuch"], "nosuch"),
    # the counting primes are worked out from the degree bound, never given
    (["grassmannian", "--rep", fixture("d4/m_lambda.json"), "--table", "--primes", "3,5,7"],
     "--primes"),
    (["frieze", "--quiddity", "8,2", "--depth", "0"], "--depth"),
    # a positive integer option gives int()'s message, not the private type function's name
    (["frieze", "--quiddity", "8,2", "--depth", "abc"], _NOT_AN_INT % "--depth"),
    (["frieze", "--quiddity", "8,2", "--growth", "abc"], _NOT_AN_INT % "--growth"),
    (["search", "--quiver", fixture("d4/quiver.json"), "--max-nodes", "abc"],
     _NOT_AN_INT % "--max-nodes"),
    (["theta", "--quiver", fixture("d4/quiver.json"), "--max-nodes", "abc"],
     _NOT_AN_INT % "--max-nodes"),
    (["tube-frieze", "--quiver", fixture("d4/quiver.json"), "--tube", fixture("d4/tube2.json"),
      "--depth", "abc"], _NOT_AN_INT % "--depth"),
    (["tube-frieze", "--quiver", fixture("d4/quiver.json"), "--tube", fixture("d4/tube2.json"),
      "--growth", "abc"], _NOT_AN_INT % "--growth"),
    (["growth-identity", "--k", "2", "--x1", "abc"], _NOT_AN_INT % "--x1"),
    (["growth-identity", "--x1", "3", "--k", "abc"], _NOT_AN_INT % "--k"),
])
def test_parser_usage_errors_are_json(capsys, argv, mentions):
    assert mentions in usage_error(capsys, *argv)["message"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frieze", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: friezelab frieze")


def test_frieze_human_layout(capsys):
    code, out = run(capsys, "frieze", "--quiddity", "8,2", "--depth", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["0"] * len(lines[0].split())
    assert "15" in out and "112" in out


def test_frieze_json_does_not_render_the_text_layout(capsys, monkeypatch):
    import friezelab.cli as cli_module

    def refuse(pattern):
        raise AssertionError("render_frieze called under --json")

    monkeypatch.setattr(cli_module, "render_frieze", refuse)
    code, payload = run_json(capsys, "frieze", "--quiddity", "8,2", "--depth", "3")
    assert code == 0 and payload["rows"] == [["8", "2"], ["15", "15"], ["28", "112"]]


def test_render_offsets_alternate():
    lines = render_frieze(generate([4, 4], 2))
    assert len(lines) == 4
    indents = [len(l) - len(l.lstrip()) for l in lines]
    assert indents[0] != indents[1] and indents[0] == indents[2]


def test_theta_at_ones(capsys):
    code, out = run(capsys, "theta", "--quiver", fixture("d4/quiver.json"), "--at-ones")
    assert code == 0 and out.strip() == "14"


@pytest.mark.parametrize("quiver", ["e6/quiver.json", "e7/quiver.json", "kronecker/quiver.json"])
def test_theta_at_ones_prints_the_laurent_value(capsys, quiver):
    # plain --at-ones takes the integer path; --json still reads the Laurent form
    code, out = run(capsys, "theta", "--quiver", fixture(quiver), "--at-ones")
    _, payload = run_json(capsys, "theta", "--quiver", fixture(quiver))
    assert code == 0 and out == payload["at_ones"] + "\n"
    assert LaurentPoly.from_json(payload["laurent"]).at_ones() == int(payload["at_ones"])


@pytest.mark.parametrize("mode", [["--at-ones"], ["--json"], ["--at-ones", "--json"]])
@pytest.mark.parametrize("name, message", [
    ("star5", "radical has dimension 0, expected 1"),
    ("a4", "radical has dimension 0, expected 1"),
    ("kronecker+point", "radical generator (1, 1, 0) is not positive"),
], ids=["star5", "a4", "kronecker+point"])
def test_theta_refuses_non_affine_acyclic_quivers(capsys, tmp_path, name, message, mode):
    # a wild star with five leaves printed 23, and A4 exhausted its class;
    # Kronecker with an isolated point has a radical that is not positive
    quiver = {"star5": catalog._quiver_from_arrows("012345", [(l, "0") for l in "12345"]),
              "a4": catalog._quiver_from_arrows("0123", ["01", "12", "23"]),
              "kronecker+point": catalog._quiver_from_arrows("012", ["01", "01"])}[name]
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(quiver.to_json()))
    code, out = run(capsys, "theta", "--quiver", str(path), *mode)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "NotAffine", "message": message}}


@pytest.mark.parametrize("mode", [["--at-ones"], ["--at-ones", "--json"]])
def test_theta_at_ones_agrees_across_modes_on_a_wild_cyclic_quiver(capsys, tmp_path, mode):
    # text mode replayed the word on integers and printed 7
    star = catalog._quiver_from_arrows("012345", ["10", "20", "03", "04", "05"]).mutate(0)
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(star.to_json()))
    code, out = run(capsys, "theta", "--quiver", str(path), *mode)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotDivisible"


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_cc_refuses_oriented_cycle(capsys, tmp_path, mode):
    cycle = Quiver(["0", "1", "2"], [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(QuiverRep(cycle, (1, 1, 1), [[[1]]] * 3).to_json()))
    code, out = run(capsys, "cc", "--rep", str(path), *mode)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "UnsupportedQuiver"


def test_theta_json(capsys):
    code, payload = run_json(capsys, "theta", "--quiver", fixture("e6/quiver.json"))
    assert code == 0
    assert payload["at_ones"] == "322"
    assert LaurentPoly.from_json(payload["laurent"]).at_ones() == 322


def test_theta_invariance_words(capsys):
    code, payload = run_json(capsys, "theta", "--quiver", fixture("e6/double_arrow.json"),
                             "--invariance-words", "0;1;0,1,0")
    # single mutations at a double-arrow endpoint keep a double arrow
    assert code == 0
    assert payload["invariant"] is True


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_theta_invariance_failure_exits_1(capsys, tmp_path, mode):
    # the Markov quiver 0 => 1 => 2 => 0: theta at ones is 3, then 4 after mu_1
    path = tmp_path / "markov.json"
    path.write_text(json.dumps(Quiver(["0", "1", "2"],
                                      [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]).to_json()))
    code, out = run(capsys, "theta", "--quiver", str(path), "--invariance-words", "1", *mode)
    assert code == 1
    if mode:
        assert json.loads(out)["invariant"] is False
    else:
        assert out.splitlines()[-1] == "invariant under given words: False"


def test_search_json(capsys):
    code, payload = run_json(capsys, "search", "--quiver", fixture("d4/quiver.json"))
    assert code == 0
    found = Quiver.from_json(payload["quiver"])
    assert found.double_arrows()
    start = catalog.d4_star()
    word = [start.index(l) for l in payload["word"]]
    assert start.mutate_word(word) == found


def test_mutate_seed_json(capsys):
    code, payload = run_json(capsys, "mutate", "--quiver", fixture("kronecker/quiver.json"),
                             "--word", "1", "--seed")
    assert code == 0
    data = payload["vars"][1]
    assert {tuple(t["exp"]): int(t["coef"]) for t in data["terms"]} == {(2, -1): 1, (0, -1): 1}


def test_mutate_involution(capsys):
    code, payload = run_json(capsys, "mutate", "--quiver", fixture("d4/quiver.json"),
                             "--word", "3,3")
    assert code == 0
    assert Quiver.from_json(payload) == catalog.d4_star()


def test_mutate_prints_the_multiplicity_of_a_triple_arrow(capsys, tmp_path):
    # a triple arrow printed as 1->0, the line of a single arrow
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({"labels": ["0", "1"], "b": [[0, 3], [-3, 0]]}))
    code, out = run(capsys, "mutate", "--quiver", str(path), "--word", "0")
    assert code == 0 and out.splitlines()[0] == "quiver: 1=3=>0"


@pytest.mark.parametrize("mode", [[], ["--json"], ["--seed"], ["--seed", "--json"]])
def test_mutate_refuses_a_frozen_vertex(capsys, tmp_path, mode):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(Quiver("012", [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], "2").to_json()))
    code, out = run(capsys, "mutate", "--quiver", str(path), "--word", "0,2", *mode)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "ValueError",
                                         "message": "cannot mutate frozen vertex '2'"}}


@pytest.mark.parametrize("argv, label", [
    (["mutate", "--quiver", fixture("d4/quiver.json"), "--word", "3,x"], "x"),
    (["mutate", "--quiver", fixture("d4/quiver.json"), "--word", "3,x", "--seed"], "x"),
    (["theta", "--quiver", fixture("d4/double_arrow.json"), "--invariance-words", "0;zz"], "zz"),
    (["theta", "--quiver", fixture("d4/double_arrow.json"), "--invariance-words", "0;0,zz",
      "--at-ones"], "zz"),
])
def test_unknown_vertex_label_is_usage_error(capsys, argv, label):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": {"type": "UsageError",
                                         "message": "unknown vertex label %r" % label}}


def test_grassmannian_table_json(capsys):
    code, payload = run_json(capsys, "grassmannian", "--rep", fixture("d4/m_lambda.json"),
                             "--table")
    assert code == 0
    assert payload["sum"] == "14"
    assert len(payload["table"]) == 13


def test_grassmannian_table_at_admissible_primes_only(capsys, tmp_path):
    data = json.loads(Path(fixture("d4/m_lambda.json")).read_text())
    data["params"]["lambda"] = 4849845  # = 3*5*7*11*13*17*19: 23 is the first admissible prime
    rep = tmp_path / "m_lambda_big.json"
    rep.write_text(json.dumps(data))
    expected = run_json(capsys, "grassmannian", "--rep", fixture("d4/m_lambda.json"), "--table")[1]
    code, payload = run_json(capsys, "grassmannian", "--rep", str(rep), "--table")
    assert code == 0 and payload == expected


def test_parameter_inadmissible_at_every_prime_is_a_json_error(capsys, tmp_path):
    data = json.loads(Path(fixture("d4/m_lambda.json")).read_text())
    data["params"]["lambda"] = 1
    rep = tmp_path / "m_lambda_one.json"
    rep.write_text(json.dumps(data))
    for command in (["grassmannian", "--table"], ["cc"]):
        code, payload = run_json(capsys, *command, "--rep", str(rep))
        assert code == 1
        assert payload["error"] == {"type": "ValueError", "message": "%s is malformed: "
                                    "parameters {'lambda': 1} degenerate at every prime" % rep}


def test_grassmannian_dimvec_counts_each_prime_once(capsys, monkeypatch):
    traversed = spy_traversals(monkeypatch)
    code, payload = run_json(capsys, "grassmannian", "--rep", fixture("d4/m_lambda.json"),
                             "--dimvec", "1,1,1,0,0")
    assert code == 0 and payload["chi"] == "2"
    # degree bound 1: the first three admissible odd primes, and no others
    assert sorted(traversed) == [3, 5, 7]
    assert payload["counts"] == {"3": "4", "5": "6", "7": "8"}  # points of P^1


@pytest.mark.parametrize("dimvec, message", [
    ("1,1,3,0,0", "dimension vector (1, 1, 3, 0, 0) exceeds dims (1, 1, 2, 1, 1)"),
    ("1,1", "dimension vector length mismatch"),
    ("-1,1,1,0,0", "dimension vector (-1, 1, 1, 0, 0) has a negative entry"),
])
def test_grassmannian_dimvec_is_checked_before_the_primes(capsys, dimvec, message):
    # a bad e would otherwise give a degree bound, possibly negative, to
    # work out the primes from; "--dimvec=" keeps a leading "-" from reading
    # as an option
    code, payload = run_json(capsys, "grassmannian", "--rep", fixture("d4/m_lambda.json"),
                             "--dimvec=" + dimvec)
    assert code == 1
    assert payload["error"] == {"type": "ValueError", "message": message}


@pytest.mark.parametrize("mode, message", [
    ([], "one of the arguments --dimvec --table is required"),
    (["--table", "--dimvec", "1,1,1,0,0"], "not allowed with argument"),
])
def test_grassmannian_takes_exactly_one_mode(capsys, mode, message):
    error = usage_error(capsys, "grassmannian", "--rep", fixture("d4/m_lambda.json"), *mode)
    assert message in error["message"]


def test_cc_at_ones(capsys):
    code, out = run(capsys, "cc", "--rep", fixture("d4/m_lambda.json"), "--at-ones")
    assert code == 0 and out.strip() == "14"
    code, out = run(capsys, "cc", "--rep", fixture("d4/m_lambda0.json"), "--at-ones")
    assert code == 0 and out.strip() == "15"


def test_tube_frieze(capsys):
    code, payload = run_json(capsys, "tube-frieze", "--quiver", fixture("d4/quiver.json"),
                             "--tube", fixture("d4/tube2.json"), "--depth", "4",
                             "--growth", "1")
    assert code == 0
    assert payload["quiddity"] == ["4", "4"]
    assert payload["growth"] == {"1": "14"}


def test_growth_identity(capsys):
    code, payload = run_json(capsys, "growth-identity", "--x1", "14", "--k", "3")
    assert code == 0
    assert payload["u"] == ["1", "14", "195", "2716"]
    assert payload["s"]["3"] == "2702"


def _decimal_to_int(text: str) -> int:
    # chunked, so that no conversion meets the interpreter's digit limit
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_growth_identity_prints_integers_above_the_digit_limit(capsys):
    # interpreters before 3.10.7 have no digit limit; on the others, pin the
    # default limit, which the environment may have changed
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
    try:
        code, payload = run_json(capsys, "growth-identity", "--x1", "14", "--k", "4000")
        assert code == 0
        s_k = payload["s"]["4000"]
        assert len(s_k) > 4300 and _decimal_to_int(s_k) == chebyshev_T(4000, 14)
        assert _decimal_to_int(payload["u"][-1]) == chebyshev_S(4000, 14)
        if limited:
            # the limit is lifted only while main runs
            assert sys.get_int_max_str_digits() == 4300
    finally:
        if limited:
            sys.set_int_max_str_digits(previous)


def test_modular_check_relations(capsys):
    code, payload = run_json(capsys, "modular", "--quiver", fixture("e6/double_arrow.json"),
                             "--check-relations")
    assert code == 0
    assert all(payload["relations"].values())


def test_modular_json_is_one_object_with_seed_and_relations(capsys):
    quiver = fixture("e6/double_arrow.json")
    code, both = run_json(capsys, "modular", "--quiver", quiver, "--word", "ta",
                          "--check-relations")
    assert code == 0
    _, moved = run_json(capsys, "modular", "--quiver", quiver, "--word", "ta")
    _, checked = run_json(capsys, "modular", "--quiver", quiver, "--check-relations")
    assert both == {**moved, **checked} and set(both) == {"quiver", "vars", "relations"}


@pytest.mark.parametrize("mode", [[], ["--json"], ["--word", ","], ["--word", " , "]])
def test_modular_needs_word_or_relations(capsys, mode):
    code, out = run(capsys, "modular", "--quiver", fixture("e6/double_arrow.json"), *mode)
    assert code == 2
    error = json.loads(out)["error"]
    assert error == {"type": "UsageError", "message": "give --word, --check-relations or both"}


def test_modular_unknown_generator_is_usage_error(capsys):
    code, out = run(capsys, "modular", "--quiver", fixture("e6/double_arrow.json"),
                    "--word", "ta,zz")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "UsageError" and "zz" in error["message"]


def test_modular_checks_generator_names_before_the_relations(capsys, monkeypatch):
    import friezelab.cli as cli_module

    def refuse(seed):
        raise AssertionError("relations computed before the names were checked")

    monkeypatch.setattr(cli_module, "check_relations", refuse)
    code, out = run(capsys, "modular", "--quiver", fixture("e8/double_arrow.json"),
                    "--word", "foo", "--check-relations")
    assert code == 2
    assert json.loads(out) == {"error": {"type": "UsageError",
                                         "message": "unknown generator 'foo'"}}


def test_modular_check_relations_rejects_non_e_quiver(capsys):
    code, payload = run_json(capsys, "modular", "--quiver", fixture("d4/double_arrow.json"),
                             "--check-relations")
    assert code == 1
    assert payload["error"]["type"] == "UnsupportedQuiver"
    assert "E6, E7" in payload["error"]["message"]


def test_modular_word_rejects_non_e_quiver(capsys):
    code, payload = run_json(capsys, "modular", "--quiver", fixture("d4/double_arrow.json"),
                             "--word", "ta")
    assert code == 1
    assert payload["error"]["type"] == "UnsupportedQuiver"
    assert "E6, E7" in payload["error"]["message"]


def test_reproduce_subset(capsys):
    code, payload = run_json(capsys, "reproduce-paper", "--only", "d4")
    assert code == 0
    assert payload["failed"] == 0
    assert all(c["name"].startswith("d4") for c in payload["checks"])


def test_reproduce_unknown_prefix_fails(capsys):
    code, payload = run_json(capsys, "reproduce-paper", "--only", "nope")
    assert code == 1
    assert "error" in payload


def test_reproduce_detects_corrupted_fixture(tmp_path, capsys, monkeypatch):
    # copy the packaged fixtures, corrupt one file, and point the loader at it
    target = tmp_path / "fixtures"
    shutil.copytree(fixture_root(), target)
    golden = target / "d4" / "goldens.json"
    data = json.loads(golden.read_text())
    data["theta_at_ones"] = "13"
    golden.write_text(json.dumps(data))
    import friezelab.fixtures as fixture_module
    monkeypatch.setattr(fixture_module, "fixture_root", lambda: target)
    code, payload = run_json(capsys, "reproduce-paper", "--only", "fixtures")
    assert code == 1
    (check,) = payload["checks"]
    assert check["name"] == "fixtures-integrity" and not check["ok"]


def test_module_error_is_machine_readable(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "theta", "--quiver", str(bad))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "JSONDecodeError"


def _with(relative, **fields):
    data = json.loads(Path(fixture(relative)).read_text())
    data.update(fields)
    return data


def _with_first_map(**fields):
    data = _with("d4/m_lambda.json")
    data["maps"][0].update(fields)
    return data


@pytest.mark.parametrize("option, payload", [
    ("--quiver", []),
    ("--quiver", {"labels": 5, "b": []}),
    ("--quiver", {"labels": ["0"], "b": [[None]]}),
    ("--quiver", {"labels": ["0"], "b": [[float("inf")]]}),
    ("--quiver", _with("d4/quiver.json", frozen=5)),
    ("--rep", _with("d4/m_lambda.json", maps=[5])),
    ("--rep", _with_first_map(matrix=5)),
    ("--rep", _with("d4/m_lambda.json", params=[1])),
    ("--tube", {"reps": 5}),
    # a string is not a list of one-character labels, a bool is not 0 or 1
    ("--quiver", {"labels": "01", "b": [[0, 2], [-2, 0]]}),
    ("--quiver", _with("d4/quiver.json", frozen="12")),
    ("--quiver", {"labels": ["0", "1"], "b": [[0, True], [-1, False]]}),
    ("--rep", {"quiver": {"labels": ["0", "1"], "b": [[0, 1], [-1, 0]]}, "dims": [True, 1],
               "maps": [{"arrow": [0, 1], "matrix": [[1]]}]}),
    # an arrow's ends are integers, and labels and frozen vertices are strings
    ("--rep", {"quiver": {"labels": ["0", "1"], "b": [[0, 1], [-1, 0]]}, "dims": [1, 1],
               "maps": [{"arrow": [False, 1], "matrix": [[1]]}]}),
    ("--rep", {"quiver": {"labels": ["0", "1"], "b": [[0, 1], [-1, 0]]}, "dims": [1, 1],
               "maps": [{"arrow": [0, 1.0], "matrix": [[1]]}]}),
    ("--quiver", {"labels": [0, "1"], "b": [[0, 2], [-2, 0]]}),
    ("--quiver", {"labels": ["0", True], "b": [[0, 2], [-2, 0]]}),
    ("--quiver", _with("d4/quiver.json", frozen=[1])),
])
def test_malformed_input_file_is_a_json_error(capsys, tmp_path, option, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    argv = {"--quiver": ["search", "--quiver", str(bad)],
            "--rep": ["cc", "--rep", str(bad)],
            "--tube": ["tube-frieze", "--quiver", fixture("d4/quiver.json"),
                       "--tube", str(bad)]}[option]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ValueError" and str(bad) in error["message"]


def _without(relative, key):
    data = _with(relative)
    del data[key]
    return data


@pytest.mark.parametrize("option, payload, culprit", [
    ("--quiver", {"labels": ["0"]}, "'b'"),
    ("--quiver", {"labels": ["0", "1"], "b": [[0, 2.9], [-2.9, 0]]}, "2.9"),
    ("--rep", _without("d4/m_lambda.json", "dims"), "'dims'"),
    ("--rep", _with("d4/m_lambda.json", dims=[1, 1, 1.5, 1, 1]), "1.5"),
    ("--rep", _with("d4/m_lambda.json", params={"lambda": 2.5}), "2.5"),
    ("--tube", {}, "'reps'"),
    ("--tube", {"reps": [_without("d4/m_lambda.json", "maps")]}, "'maps'"),
    ("--rep", _with("d4/m_lambda.json", dims=[1, 1, True, 1, 1]), "True"),
])
def test_input_file_error_names_the_file_and_the_culprit(capsys, tmp_path, option, payload,
                                                          culprit):
    # a missing key, or a number that is not an integer, which int() would
    # have truncated or, for a bool, read as 0 or 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    argv = {"--quiver": ["search", "--quiver", str(bad)],
            "--rep": ["cc", "--rep", str(bad)],
            "--tube": ["tube-frieze", "--quiver", fixture("d4/quiver.json"),
                       "--tube", str(bad)]}[option]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ValueError"
    assert str(bad) in error["message"] and culprit in error["message"]


def _first_map_without(key):
    data = _with("d4/m_lambda.json")
    del data["maps"][0][key]
    return data


def _tube_without_quiver_key(index, key):
    reps = [catalog.d4_tubes()[0][0].to_json(), catalog.d4_tubes()[0][1].to_json()]
    del reps[index]["quiver"][key]
    return {"reps": reps}


@pytest.mark.parametrize("option, payload, message", [
    ("--quiver", {"b": [[0]]}, "missing key 'labels'"),
    ("--rep", _with("d4/m_lambda.json", quiver={"labels": ["0"]}),
     "missing key 'b' in quiver"),
    ("--rep", _first_map_without("matrix"), "missing key 'matrix' in maps[0]"),
    ("--tube", {"reps": [{}]}, "missing key 'quiver' in reps[0]"),
    ("--tube", _tube_without_quiver_key(1, "b"), "missing key 'b' in reps[1].quiver"),
])
def test_missing_key_names_the_object(capsys, tmp_path, option, payload, message):
    # a key missing below the top level names the JSON path of its object
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    argv = {"--quiver": ["search", "--quiver", str(bad)],
            "--rep": ["cc", "--rep", str(bad)],
            "--tube": ["tube-frieze", "--quiver", fixture("d4/quiver.json"),
                       "--tube", str(bad)]}[option]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error == {"type": "ValueError", "message": "%s is malformed: %s" % (bad, message)}


def _nested_note(levels):
    """The Kronecker quiver with a key that nothing reads, whose value nests
    levels objects deep."""
    return ('{"labels": ["0", "1"], "b": [[0, 2], [-2, 0]], "note": '
            + '{"a": ' * levels + "0" + "}" * levels + "}")


def _long_path(m):
    """A path of m vertices with dimension 1 and identity maps."""
    b = [[0] * m for _ in range(m)]
    for v in range(m - 1):
        b[v][v + 1], b[v + 1][v] = 1, -1
    return json.dumps({"quiver": {"labels": [str(v) for v in range(m)], "b": b},
                       "dims": [1] * m,
                       "maps": [{"arrow": [v, v + 1], "matrix": [[1]]} for v in range(m - 1)]})


def _containers(value):
    """The number of lists and objects in a JSON value, itself included."""
    if isinstance(value, (list, dict)):
        items = value.values() if isinstance(value, dict) else value
        return 1 + sum(map(_containers, items))
    return 0


def test_located_visits_each_container_once_and_no_number(monkeypatch):
    # a flat list, such as a matrix row, comes back as it is
    from friezelab import cli
    data = json.loads(_long_path(5))
    calls = []
    located = cli._located
    monkeypatch.setattr(cli, "_located", lambda value, path="": calls.append(path)
                        or located(value, path))
    out = cli._located(data)
    assert out == data and len(calls) == _containers(data) == 27
    assert out["quiver"].path == "quiver" and out["maps"][2].path == "maps[2]"
    assert out["quiver"]["b"][3] is data["quiver"]["b"][3] and out["dims"] is data["dims"]


@pytest.mark.parametrize("command, text, kind", [
    # the copy that locates each object overflows at 600 levels (two frames
    # a level), and json.load itself at 100,000
    (["search", "--quiver"], lambda: _nested_note(600), "ValueError"),
    (["search", "--quiver"], lambda: _nested_note(100_000), "ValueError"),
    # the counting traversal takes one frame per vertex
    (["grassmannian", "--table", "--rep"], lambda: _long_path(1200), "RecursionError"),
], ids=["nested-600", "nested-100000", "path-1200"])
def test_deep_input_is_a_json_error_not_a_traceback(capsys, tmp_path, command, text, kind):
    deep = tmp_path / "deep.json"
    deep.write_text(text())
    code = main(command + [str(deep), "--json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == kind
    if kind == "ValueError":
        assert error["message"] == "%s is malformed: JSON nested too deeply" % deep


def test_search_budget_error(capsys):
    code, out = run(capsys, "search", "--quiver", fixture("e6/quiver.json"),
                    "--max-nodes", "2")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "SearchNotFound"


def test_closed_stdout_exits_quietly():
    # python -m runs the __main__ guard; the reader takes one byte of about
    # 116 KB, more than a 64 KiB pipe holds, and closes the pipe, so the
    # write fails and main takes its BrokenPipeError branch
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "friezelab.cli", "frieze", "--quiddity", "9,36",
                             "--depth", "300", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    proc.stderr.close()
    assert stderr == b""
