"""Replay tests/cli_transcript.json, written by tools/cli_transcript.py: each
run must give the recorded exit status and stdout byte for byte."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_transcript.py"
_spec = importlib.util.spec_from_file_location("cli_transcript", TOOL)
cli_transcript = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_transcript)

TRANSCRIPT = json.loads(cli_transcript.GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", TRANSCRIPT, ids=[" ".join(e["argv"]) for e in TRANSCRIPT])
def test_cli_matches_the_transcript(entry):
    assert cli_transcript.run(entry["argv"]) == entry


def test_transcript_covers_every_readme_command():
    recorded = [entry["argv"] for entry in TRANSCRIPT]
    readme = cli_transcript.readme_commands()
    assert {argv[0] for argv in readme} == {
        "frieze", "mutate", "search", "modular", "theta", "grassmannian", "cc",
        "tube-frieze", "growth-identity", "reproduce-paper"}
    missing = [argv for argv in cli_transcript.invocations() if argv not in recorded]
    assert not missing
