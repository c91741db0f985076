"""Lint guard: no new per-node Python traversal loops in ``core/``.

PR 8 moved the exact-engine hot path to frontier batching — whole
levels of the enumeration tree expand through vectorised kernels, so
a ``stack.pop()`` driving a ``while`` loop in ``src/repro/core/`` is
almost always a regression back to the per-node scalar walk.  This
script AST-walks every module there and flags each ``.pop()`` call
inside a ``while`` loop unless its source line carries a
``# scalar-pop-ok`` pragma (used by EPivoter's vertex-list walk, the
MBCE baseline, and the frontier loop's whole-batch pops).

Run from the repo root (CI lint job does)::

    python scripts/check_scalar_traversal.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
PRAGMA = "# scalar-pop-ok"


def _pop_calls(tree: ast.AST):
    """Yield every ``<expr>.pop(...)`` call nested under a ``while``."""
    stack: list[tuple[ast.AST, bool]] = [(tree, False)]
    while stack:
        node, in_while = stack.pop()  # scalar-pop-ok: AST walk, not a traversal
        if (
            in_while
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
        ):
            yield node
        here = in_while or isinstance(node, ast.While)
        stack.extend((child, here) for child in ast.iter_child_nodes(node))


def check_file(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    failures = []
    for call in _pop_calls(ast.parse(source, filename=str(path))):
        line = lines[call.lineno - 1]
        if PRAGMA not in line:
            failures.append(
                f"{path}:{call.lineno}: per-node .pop() traversal in core/ "
                f"(vectorise it, or annotate the line with '{PRAGMA}: why')"
            )
    return failures


def main() -> int:
    failures: list[str] = []
    for path in sorted(CORE.glob("*.py")):
        failures.extend(check_file(path))
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        return 1
    print(f"scalar-traversal guard: {len(list(CORE.glob('*.py')))} modules clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
