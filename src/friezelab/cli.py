"""Command-line interface.

Every subcommand reads quivers and representations from JSON files and
emits either a human-readable report or, with --json, a single JSON object
whose integer payloads are decimal strings (frieze entries overflow 64 bits
quickly).  Module errors exit with status 1 and a machine-readable error
object; usage errors exit with status 2 and a JSON error object of type
UsageError.  When the reader closes stdout early, the run stops quietly with
status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice, repeat

from .cc import cc_map, homogeneous_growth, quiddity_from_tube
from .chebyshev import first_kind
from .errors import FriezelabError
from .frieze import FriezePattern, Quiddity, generate, growth
from .modular import apply_generator_word, check_relations, GENERATORS
from .quivers import MAX_NODES, Quiver, has_double_arrow, mutation_class_search
from .rep import (QuiverRep, _certified_chi, count_points, counting_degree_bound,
                  counting_primes, grassmannian_table, table_json)
from .reproduce import run_checks
from .seeds import Seed
from .theta import double_arrow_seed, growth_from_affine_quiver, theta, theta_invariance


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if value <= 0:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return value


def _quiddity(text: str) -> Quiddity:
    try:
        entries = [int(x) for x in text.split(",") if x != ""]
        return Quiddity(entries)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _dimvec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


class _Object(dict):
    """A JSON object whose missing key raises KeyError(key, its path)."""

    def __missing__(self, key):
        raise KeyError(key, self.path)


def _located(value, path: str = ""):
    """The JSON value with every object an _Object that knows its path in
    the file, such as reps[1].quiver ("" at the top).  A list that holds no
    list or object, such as a matrix row, is returned as it is."""
    if isinstance(value, list):
        if not any(map(isinstance, value, repeat((list, dict)))):
            return value
        return [_located(item, "%s[%d]" % (path, i)) for i, item in enumerate(value)]
    if isinstance(value, dict):
        value = _Object((k, _located(v, "%s.%s" % (path, k) if path else k))
                        for k, v in value.items())
        value.path = path
    return value


def _load(path: str, parse):
    """The object parse builds from the JSON in path.  JSON of the wrong
    shape, which parse meets as a TypeError, AttributeError or ValueError
    (a number that is not an integer, a matrix that is not skew-symmetric),
    or without a key that parse reads (named with its object's path), raises
    a ValueError naming the file, and so does JSON nested too deeply to read."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = _located(json.load(handle))
        except RecursionError:
            raise ValueError("%s is malformed: JSON nested too deeply" % path) from None
    try:
        return parse(data)
    except KeyError as exc:
        key, where = (exc.args + ("",))[:2]
        raise ValueError("%s is malformed: missing key %r%s"
                         % (path, key, where and " in " + where)) from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise ValueError("%s is malformed: %s" % (path, exc)) from exc


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}))


class _Parser(argparse.ArgumentParser):
    """An argument parser (subparsers inherit the class) whose usage errors
    print the JSON error object before exiting with status 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _emit_error("UsageError", message)
        raise SystemExit(2)


def _seed_json(seed: Seed) -> dict:
    return {"quiver": seed.quiver.to_json(),
            "vars": [v.to_json() for v in seed.vars]}


def describe_quiver(quiver: Quiver) -> str:
    parts = []
    for i in range(quiver.m):
        for j in range(quiver.m):
            k = quiver.b[i][j]
            if k > 0:
                arrow = {1: "->", 2: "=>"}.get(k, "=%d=>" % k)
                parts.append("%s%s%s" % (quiver.labels[i], arrow, quiver.labels[j]))
    return " ".join(parts)


def render_frieze(pattern: FriezePattern) -> list[str]:
    """The lines of the staggered layout: 0's, 1's, then the computed rows,
    each repeated over the same number of periods."""
    periods = max(2, 6 // pattern.period + 1)
    rows = [[str(v) for v in pattern.row(r)] for r in range(-1, pattern.depth + 1)]
    width = max(len(v) for row in rows for v in row) + 2
    width += width % 2
    return [(" " * (width // 2) if r % 2 == 0 else "")
            + ("".join(v.center(width) for v in row) * periods).rstrip()
            for r, row in enumerate(rows, -1)]


# -- subcommand handlers -------------------------------------------------------

# A handler returns its exit status, its --json payload and its text lines;
# main prints the payload under --json and the lines otherwise.
Report = tuple[int, dict | None, list[str] | None]


def _vertices(quiver: Quiver, text: str) -> list[int]:
    """The vertex indices of comma-separated labels; an unknown label is a
    usage error that names it."""
    labels = [label for label in text.split(",") if label != ""]
    for label in labels:
        if label not in quiver.labels:
            raise argparse.ArgumentTypeError("unknown vertex label %r" % label)
    return [quiver.index(label) for label in labels]


def _frieze_report(args, quiddity: Quiddity, header: bool) -> Report:
    """The frieze of a quiddity row down to --depth (default 3n+1) and its
    growth coefficients s_1..s_K for K = --growth; the text report starts
    with the quiddity row when header is set.  Only the output of the
    requested mode is built, since a deep frieze is large in either."""
    depth = args.depth if args.depth is not None else 3 * len(quiddity) + 1
    pattern = generate(quiddity, depth)
    # s_k = T_k(s_1): one run of the recurrence gives s_1..s_K
    coefficients = islice(first_kind(growth(pattern, 1)), 1, args.growth + 1) if args.growth else ()
    growth_report = {str(k): str(s) for k, s in enumerate(coefficients, 1)}
    if args.json:
        payload = {"quiddity": [str(a) for a in quiddity],
                   "rows": [[str(x) for x in pattern.row(r)] for r in range(1, depth + 1)]}
        if growth_report:
            payload["growth"] = growth_report
        return 0, payload, None
    lines = ["quiddity: " + ",".join(str(a) for a in quiddity)] if header else []
    lines += render_frieze(pattern)
    lines += ["s_%s = %s" % item for item in growth_report.items()]
    return 0, None, lines


def cmd_frieze(args) -> Report:
    return _frieze_report(args, args.quiddity, header=False)


def cmd_mutate(args) -> Report:
    quiver = _load(args.quiver, Quiver.from_json)
    word = _vertices(quiver, args.word)
    if args.seed:
        seed = Seed.initial(quiver).mutate_word(word)
        lines = ["x[%s] = %s" % pair for pair in zip(seed.quiver.labels, seed.vars)]
        return 0, _seed_json(seed), ["quiver: " + describe_quiver(seed.quiver)] + lines
    mutated = quiver.mutate_word(word)
    payload = mutated.to_json()
    return 0, payload, ["quiver: " + describe_quiver(mutated),
                        json.dumps(payload, sort_keys=True)]


def cmd_search(args) -> Report:
    quiver = _load(args.quiver, Quiver.from_json)
    found, word = mutation_class_search(quiver, has_double_arrow, args.max_nodes)
    payload = {"quiver": found.to_json(),
               "word": [quiver.labels[k] for k in word]}
    return 0, payload, ["word: " + (",".join(payload["word"]) or "(empty)"),
                        "quiver: " + describe_quiver(found),
                        json.dumps(payload["quiver"], sort_keys=True)]


def cmd_modular(args) -> Report:
    names = [w.strip() for w in args.word.split(",") if w.strip()]
    if not (names or args.check_relations):
        raise argparse.ArgumentTypeError("give --word, --check-relations or both")
    for name in names:
        if name not in GENERATORS:
            raise argparse.ArgumentTypeError("unknown generator %r" % name)
    seed = Seed.initial(_load(args.quiver, Quiver.from_json))
    relations = check_relations(seed) if args.check_relations else None
    payload, lines = {}, []
    if names:
        moved = apply_generator_word(seed, names)
        payload = _seed_json(moved)
        lines.append("applied %s" % ",".join(names))
        lines += ["x[%s] = %s" % pair for pair in zip(moved.quiver.labels, moved.vars)]
    if relations is None:
        return 0, payload, lines
    payload["relations"] = relations
    lines += ["%s: %s" % (k, "ok" if v else "FAIL") for k, v in relations.items()]
    return 0 if all(relations.values()) else 1, payload, lines


def cmd_theta(args) -> Report:
    quiver = _load(args.quiver, Quiver.from_json)
    if args.at_ones and not args.json and not args.invariance_words:
        return 0, None, [str(growth_from_affine_quiver(quiver, args.max_nodes))]
    words = [_vertices(quiver, chunk.strip())
             for chunk in args.invariance_words.split(";") if chunk.strip()]
    seed, found = double_arrow_seed(quiver, args.max_nodes)
    word = [quiver.labels[k] for k in found]
    value = theta(seed)
    payload = {"laurent": value.laurent.to_json(), "at_ones": str(value.integer), "word": word}
    if args.at_ones:
        lines = [str(value.integer)]
    else:
        lines = ["theta = %s" % value.laurent, "theta(1,...,1) = %s" % value.integer]
        if word:
            lines.append("via word: " + ",".join(word))
    if not args.invariance_words:
        return 0, payload, lines
    payload["invariant"] = invariant = theta_invariance(seed, words)
    if not args.at_ones:
        lines.append("invariant under given words: %s" % invariant)
    return 0 if invariant else 1, payload, lines


def cmd_grassmannian(args) -> Report:
    rep = _load(args.rep, QuiverRep.from_json)
    if args.dimvec is not None:
        primes = counting_primes(rep, counting_degree_bound(rep, args.dimvec) + 2)
        count = lambda p: count_points(rep, args.dimvec, p)
        chi = _certified_chi(rep, args.dimvec, primes, count)
        counts = {str(p): str(count(p)) for p in primes}
        payload = {"e": list(args.dimvec), "chi": str(chi), "counts": counts}
        return 0, payload, (["chi(Gr_e) = %s" % chi]
                            + ["  points over F_%s: %s" % item for item in counts.items()])
    table = grassmannian_table(rep)
    total = sum(table.values())
    return 0, {"table": table_json(table), "sum": str(total)}, (
        ["%s  chi=%d" % row for row in table.items()] + ["sum of chi: %s" % total])


def cmd_cc(args) -> Report:
    value = cc_map(_load(args.rep, QuiverRep.from_json))
    payload = {"laurent": value.laurent.to_json(), "at_ones": str(value.at_ones)}
    if args.at_ones:
        return 0, payload, [str(value.at_ones)]
    return 0, payload, ["X = %s" % value.laurent, "X(1,...,1) = %s" % value.at_ones]


def cmd_tube_frieze(args) -> Report:
    quiver = _load(args.quiver, Quiver.from_json)
    tube = _load(args.tube, lambda data: [QuiverRep.from_json(r) for r in data["reps"]])
    return _frieze_report(args, quiddity_from_tube(quiver, tube), header=True)


def cmd_growth_identity(args) -> Report:
    rows = list(islice(homogeneous_growth(args.x1), args.k + 1))
    report = {
        "x1": str(args.x1),
        "u": [str(u) for u, _ in rows],
        "s": {str(k): str(s) for k, (_, s) in enumerate(rows) if k},
    }
    return 0, report, (["u_0..u_%d: %s" % (args.k, ", ".join(report["u"]))]
                       + ["s_%s = %s" % item for item in report["s"].items()])


def cmd_reproduce(args) -> Report:
    results = run_checks(args.only)
    if not results:
        raise FriezelabError("no checks match prefix %r" % args.only)
    failed = [r for r in results if not r.ok]
    payload = {"checks": [{"name": r.name, "ok": r.ok, "message": r.message}
                          for r in results],
               "passed": len(results) - len(failed),
               "failed": len(failed)}
    width = max(len(r.name) for r in results)
    lines = ["%-*s  %s" % (width, r.name, "ok" if r.ok else "FAIL  (%s)" % r.message)
             for r in results]
    lines.append("%d passed, %d failed" % (payload["passed"], payload["failed"]))
    return 1 if failed else 0, payload, lines


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="friezelab",
        description="Exact computations with periodic friezes, cluster seeds, "
                    "quiver Grassmannians, and cluster characters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frieze", help="generate a frieze pattern from a quiddity row")
    p.add_argument("--quiddity", type=_quiddity, required=True,
                   help="comma-separated positive integers, e.g. 8,2")
    p.add_argument("--depth", type=_positive_int, default=None,
                   help="rows below the row of 1's (default 3n+1)")
    p.add_argument("--growth", type=_positive_int, default=0,
                   help="also report growth coefficients s_1..s_K")
    p.set_defaults(func=cmd_frieze)

    p = sub.add_parser("mutate", help="mutate a quiver (or seed) along a word")
    p.add_argument("--quiver", required=True)
    p.add_argument("--word", required=True, help="comma-separated vertex labels")
    p.add_argument("--seed", action="store_true", help="track cluster variables")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("search", help="breadth-first search of the mutation class")
    p.add_argument("--quiver", required=True)
    p.add_argument("--max-nodes", type=_positive_int, default=MAX_NODES)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("modular", help="apply cluster modular group generators")
    p.add_argument("--quiver", required=True,
                   help="a double-arrow base quiver of affine type E")
    p.add_argument("--word", default="", help="comma-separated generators, e.g. ta,ta")
    p.add_argument("--check-relations", action="store_true")
    p.set_defaults(func=cmd_modular)

    p = sub.add_parser("theta", help="growth element of an affine quiver")
    p.add_argument("--quiver", required=True)
    p.add_argument("--at-ones", action="store_true", help="print only the integer value")
    p.add_argument("--invariance-words", default="",
                   help="semicolon-separated label words to test invariance against")
    p.add_argument("--max-nodes", type=_positive_int, default=MAX_NODES)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("grassmannian", help="subrepresentation counts and characteristics")
    p.add_argument("--rep", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--dimvec", type=_dimvec, default=None)
    mode.add_argument("--table", action="store_true",
                      help="tabulate all nonempty subrepresentation dimension vectors")
    p.set_defaults(func=cmd_grassmannian)

    p = sub.add_parser("cc", help="cluster character of a representation")
    p.add_argument("--rep", required=True)
    p.add_argument("--at-ones", action="store_true")
    p.set_defaults(func=cmd_cc)

    p = sub.add_parser("tube-frieze", help="frieze pattern of a tube of quasi-simples")
    p.add_argument("--quiver", required=True)
    p.add_argument("--tube", required=True, help="JSON file with a reps list")
    p.add_argument("--depth", type=_positive_int, default=None)
    p.add_argument("--growth", type=_positive_int, default=0)
    p.set_defaults(func=cmd_tube_frieze)

    p = sub.add_parser("growth-identity", help="growth coefficients from homogeneous data")
    p.add_argument("--x1", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(func=cmd_growth_identity)

    p = sub.add_parser("reproduce-paper",
                       help="re-run the built-in verification suite of worked examples")
    p.add_argument("--only", default=None, help="run only checks with this name prefix")
    p.set_defaults(func=cmd_reproduce)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # frieze entries and growth coefficients may exceed the interpreter's
    # default limit of 4300 digits for int-to-str conversion
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        status, payload, lines = args.func(args)
        lines = [json.dumps(payload, sort_keys=True)] if args.json else lines
        print(*lines, sep="\n")
        sys.stdout.flush()  # a reader that closed early shows up here, not at exit
        return status
    except BrokenPipeError:
        # stdout is closed, so no error object can be printed; point stdout
        # at devnull so that the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except argparse.ArgumentTypeError as exc:
        # a bad argument value found by the handler rather than by the parser
        _emit_error("UsageError", str(exc))
        return 2
    except (FriezelabError, ValueError, OSError, json.JSONDecodeError, KeyError,
            RecursionError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
