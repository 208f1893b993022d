"""Record reference boxes from finished untraced runs.

    python3 perfbench/reference.py

Reads .perfbench_out/<workload>-seed<n>-trace0.json and writes the first
FRAMES boxes of each run to perfbench/reference.json, which later runs
compare against (a diagnostic, not a gate). Raised frames are stored as null.
"""

from __future__ import annotations

import json
import re

from run import OUT_DIR, REFERENCE

FRAMES = 100


def main() -> int:
    ref: dict[str, dict[str, list]] = {}
    for path in sorted(OUT_DIR.glob("*-seed*-trace0.json")):
        workload, seed = re.fullmatch(r"(.+)-seed(\d+)-trace0\.json", path.name).groups()
        boxes = json.loads(path.read_text(encoding="utf-8"))["boxes"][:FRAMES]
        ref.setdefault(workload, {})[seed] = boxes
    REFERENCE.write_text(json.dumps(ref, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{REFERENCE}: " + ", ".join(f"{w} seeds {sorted(s, key=int)}" for w, s in ref.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
