"""Run the `reforacle` console script from a source checkout.

    python3 perfbench/entry.py RUSAGE.json ARGS...

The target is read from `[project.scripts]` in pyproject.toml and
imported with `src` on the import path, so the benchmark calls whatever
function the package names as its CLI. On exit the process writes its
own peak RSS and the largest peak RSS among the children it waited for
(javac and java) to RUSAGE.json.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def console_script(name: str = "reforacle"):
    with (ROOT / "pyproject.toml").open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    sys.path.insert(0, str(ROOT / "src"))
    return getattr(importlib.import_module(module), attr)


def main() -> int:
    rusage_path, args = sys.argv[1], sys.argv[2:]
    entry = console_script()
    sys.argv = ["reforacle", *args]
    try:
        return entry()
    finally:
        usage = {
            "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        Path(rusage_path).write_text(json.dumps(usage), "utf-8")


if __name__ == "__main__":
    sys.exit(main())
