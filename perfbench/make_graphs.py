"""Regenerate perfbench/graphs.json, the pinned input graphs.

The benchmark builds its input graphs with ``verkit.new_graph`` from these
edge lists, so that set-up time does not include class generation (the
genus-4 classes alone take about two seconds to enumerate).  The lists were
written by this script from ``enumerate_trivalent`` at the commit that
added the benchmark; ``test_perfbench.py`` checks them against the closed
counts and against the library's own labels.

Run from the repository root:  python3 perfbench/make_graphs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIGNATURES = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (2, 0), (2, 1),
              (3, 0), (4, 0)]


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from verkit import enumerate_trivalent

    classes = {}
    for g, n in SIGNATURES:
        classes[f"{g},{n}"] = [
            {"vertices": [v for v, _ in c.vertices],
             "edges": [list(e) for e in c.edges],
             "legs": [list(leg) for leg in c.legs]}
            for c in enumerate_trivalent(g, n)
        ]
    out = Path(__file__).with_name("graphs.json")
    out.write_text(json.dumps({"classes": classes}, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
