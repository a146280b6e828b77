"""Access to the JSON fixtures shipped inside the package.

The files live under friezelab/fixtures/{d4,e6,e7,e8,kronecker}/ and mirror
the in-code constructors of the catalog module; a consistency check in the
verification suite keeps the two in sync.  The repository root links the
same directory as fixtures/ for command-line use.
"""

from __future__ import annotations

import json
from importlib import resources

from .quivers import Quiver
from .rep import QuiverRep


def fixture_root():
    return resources.files("friezelab") / "fixtures"


def load_json(relative: str):
    path = fixture_root() / relative
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def load_quiver(relative: str) -> Quiver:
    return Quiver.from_json(load_json(relative))


def load_rep(relative: str) -> QuiverRep:
    return QuiverRep.from_json(load_json(relative))


def load_tube(relative: str) -> list[QuiverRep]:
    return [QuiverRep.from_json(entry) for entry in load_json(relative)["reps"]]


def list_fixtures() -> list[str]:
    out = []
    root = fixture_root()
    for group in sorted(root.iterdir(), key=lambda p: p.name):
        if group.is_dir():
            for item in sorted(group.iterdir(), key=lambda p: p.name):
                if item.name.endswith(".json"):
                    out.append("%s/%s" % (group.name, item.name))
    return out
