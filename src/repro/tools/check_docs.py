"""Doc-drift checker: every module the design docs name must exist.

Two kinds of reference are checked against a source checkout:

* every module (and package directory) in the module map of
  ``DESIGN.md`` section 3 — the fenced block under the heading that
  contains "module map", indented two spaces per level below
  ``src/repro/``;
* every backticked ``dir/module.py`` path in ``docs/ARCHITECTURE.md``
  and ``docs/API.md``, resolved against the repository root or
  ``src/repro/``.

Run as a script (``python -m repro.tools.check_docs [REPO_ROOT]``),
through ``python -m repro verify``, or through
``tests/test_doc_drift.py`` (tier 1).
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import List, Optional

#: documents whose backticked module paths must resolve.
PATH_DOCS = ("docs/ARCHITECTURE.md", "docs/API.md")

_PATH_REF = re.compile(r"`([\w./-]+/[\w-]+\.py)(?:::[\w:]*)?`")
_MAP_ENTRY = re.compile(r"^((?:  )+)([\w.-]+(?:/|\.py))(?:\s|$)")


def module_map(design_text: str) -> List[str]:
    """Paths (relative to ``src/repro``) listed in DESIGN.md's module
    map; directories end in ``/``."""
    lines = design_text.splitlines()
    start = next(index for index, line in enumerate(lines)
                 if line.startswith("#") and "module map" in line.lower())
    fence = next(index for index in range(start, len(lines))
                 if lines[index].startswith("```"))
    paths: List[str] = []
    parents: List[str] = []
    for line in lines[fence + 1:]:
        if line.startswith("```"):
            break
        match = _MAP_ENTRY.match(line)
        if match is None:
            continue                   # a wrapped description line
        depth = len(match.group(1)) // 2 - 1
        del parents[depth:]
        path = "".join(parents) + match.group(2)
        paths.append(path)
        if path.endswith("/"):
            parents.append(match.group(2))
    return paths


def doc_drift(repo_root: pathlib.Path) -> List[str]:
    """One message per module the docs name that does not exist."""
    package = repo_root / "src" / "repro"
    problems = [f"DESIGN.md module map: {path} does not exist"
                for path in module_map((repo_root / "DESIGN.md").read_text())
                if not (package / path).exists()]
    for doc in PATH_DOCS:
        for path in _PATH_REF.findall((repo_root / doc).read_text()):
            if not ((repo_root / path).exists()
                    or (package / path).exists()):
                problems.append(f"{doc}: {path} does not exist")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(args[0] if args else ".")
    problems = doc_drift(root)
    for problem in problems:
        print(problem)
    if not problems:
        print("docs name only modules that exist")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
