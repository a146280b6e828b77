#!/usr/bin/env python3
"""Regenerate the JSON fixtures shipped with the package from the catalog.

Run from the repository root after changing friezelab.catalog:

    python3 tools/make_fixtures.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from friezelab import catalog
from friezelab.cc import cc_map
from friezelab.frieze import generate, growth
from friezelab.rep import grassmannian_table, table_json
from friezelab.theta import growth_from_affine_quiver

ROOT = Path(__file__).resolve().parent.parent / "src" / "friezelab" / "fixtures"


def dump(relative: str, payload) -> None:
    path = ROOT / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote", path.relative_to(ROOT.parent.parent.parent))


def goldens():
    f = generate([8, 2], depth=6)
    table = grassmannian_table(catalog.d4_m_lambda(2))
    character = cc_map(catalog.d4_m_lambda(2))
    return {
        "frieze_8_2": {
            "quiddity": ["8", "2"],
            "rows": [[str(x) for x in f.row(r)] for r in range(1, 7)],
        },
        "growth_8_2": {str(k): str(growth(f, k)) for k in (1, 2, 3)},
        "grassmannian_table": table_json(table),
        "cc_m_lambda": character.laurent.to_json(),
        "cc_m_lambda_at_ones": str(character.at_ones),
        "theta_at_ones": str(growth_from_affine_quiver(catalog.d4_star())),
    }


def main() -> None:
    for relative, payload in catalog.fixture_payloads().items():
        dump(relative, payload)
    dump("d4/goldens.json", goldens())


if __name__ == "__main__":
    main()
