#!/usr/bin/env python3
"""Record the CLI transcript that tests/test_cli_transcript.py replays.

Each command of the README's "Command line" block, and a few more cases,
runs in process from the repository root, once in text mode and once with
--json.  The argument list, exit status and stdout of every run are written
to tests/cli_transcript.json.  Run from the repository root after an
intended change of the CLI's output:

    python3 tools/cli_transcript.py
"""

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from friezelab import cli

GOLDEN = REPO / "tests" / "cli_transcript.json"

# runs that the README block does not show: a quiver without --seed, the
# full character, invariance words at a double-arrow seed, the generators
# tb, tc and gamma, a growth element with an empty triangle product (the
# Kronecker quiver, in both rings), a searched word, a Grassmannian table,
# a character at ones, a quiddity read from Euler characteristic sums, the
# E7 generators and friezes of 3 and 7 periods, the table of a parameter-free
# representation, the character of one whose parameter is inadmissible at 2,
# a shallow frieze with many growth coefficients, two finite quiddities
# whose first non-positive entry lies below the requested depth, a growth
# coefficient read off a cyclic double-arrow quiver (the Laurent route), the
# modular relations of E6 (with those of gamma) and of E7, the E8
# generators, the refusal of a quiver that is not a double-arrow fan, a
# dimension vector that one arrow's kernel rank shows to be empty, and two
# multi-step Laurent replays (six Kronecker steps, five E7 steps by label),
# and a usage error (a depth that is not an integer)
EXTRA = [
    ["mutate", "--quiver", "fixtures/d4/quiver.json", "--word", "3,1"],
    ["cc", "--rep", "fixtures/d4/m_lambda.json"],
    ["theta", "--quiver", "fixtures/d4/double_arrow.json", "--invariance-words", "0;1;0,1"],
    ["modular", "--quiver", "fixtures/e6/double_arrow.json", "--word", "tb,tc,gamma"],
    ["modular", "--quiver", "fixtures/e7/double_arrow.json", "--word", "ta,tb,tc"],
    ["frieze", "--quiddity", "7,7,7", "--depth", "4"],
    ["frieze", "--quiddity", "3", "--depth", "4", "--growth", "2"],
    ["theta", "--quiver", "fixtures/kronecker/quiver.json", "--at-ones"],
    ["search", "--quiver", "fixtures/e6/quiver.json"],
    ["grassmannian", "--rep", "fixtures/kronecker/regular.json", "--table"],
    ["cc", "--rep", "fixtures/d4/m_lambda0.json", "--at-ones"],
    ["tube-frieze", "--quiver", "fixtures/d4/quiver.json", "--tube", "fixtures/d4/tube2.json",
     "--growth", "1"],
    ["grassmannian", "--rep", "fixtures/d4/m_lambda0.json", "--table"],
    ["cc", "--rep", "fixtures/kronecker/regular.json"],
    ["frieze", "--quiddity", "8,2", "--depth", "2", "--growth", "40"],
    ["frieze", "--quiddity", "1,2,2,4,4", "--depth", "13", "--growth", "2"],
    ["frieze", "--quiddity", "1,3", "--depth", "4", "--growth", "1"],
    ["theta", "--quiver", "fixtures/e6/double_arrow.json", "--at-ones"],
    ["modular", "--quiver", "fixtures/e6/double_arrow.json", "--check-relations"],
    ["modular", "--quiver", "fixtures/e7/double_arrow.json", "--check-relations"],
    ["modular", "--quiver", "fixtures/e8/double_arrow.json", "--word", "ta,tb,tc"],
    ["modular", "--quiver", "fixtures/e6/quiver.json", "--word", "ta"],
    ["grassmannian", "--rep", "fixtures/d4/m_lambda.json", "--dimvec", "0,0,2,0,0"],
    ["mutate", "--quiver", "fixtures/kronecker/quiver.json", "--word", "0,1,0,1,0,1", "--seed"],
    ["mutate", "--quiver", "fixtures/e7/double_arrow.json", "--word", "c2,c1,c,0,1", "--seed"],
    ["frieze", "--quiddity", "8,2", "--depth", "abc"],
]


def readme_commands() -> list[list[str]]:
    """The argument lists of the friezelab commands in the README's
    "Command line" code block."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            if words[0] != "friezelab":
                raise ValueError("README command does not start with friezelab: %r" % line)
            commands.append(words[1:])
    return commands


def invocations() -> list[list[str]]:
    """Every README command and extra case, in text and in --json mode."""
    runs = []
    for argv in readme_commands() + EXTRA:
        text = [word for word in argv if word != "--json"]
        for mode in (text, text + ["--json"]):
            if mode not in runs:
                runs.append(mode)
    return runs


def run(argv: list[str]) -> dict:
    """The exit status and stdout of one in-process run from the
    repository root; a usage error's status is that of its SystemExit."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
    finally:
        os.chdir(cwd)
    return {"argv": argv, "status": status, "stdout": out.getvalue()}


def main() -> None:
    transcript = [run(argv) for argv in invocations()]
    GOLDEN.write_text(json.dumps(transcript, indent=1) + "\n", encoding="utf-8")
    print("wrote %s (%d runs)" % (GOLDEN.relative_to(REPO), len(transcript)))


if __name__ == "__main__":
    main()
