"""Access to the JSON fixtures shipped inside the package.

The files live under friezelab/fixtures/{d4,e6,e7,e8,kronecker}/.
tools/make_fixtures.py writes them from catalog.fixture_payloads(), and the
fixtures-integrity check of the reproduce module compares them with it.
Callers parse a file with Quiver.from_json or QuiverRep.from_json.  The
repository root links the same directory as fixtures/ for command-line use.
"""

from __future__ import annotations

import json
from importlib import resources


def fixture_root():
    return resources.files("friezelab") / "fixtures"


def load_json(relative: str):
    path = fixture_root() / relative
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)
