"""Declared dependencies match what the package imports.

Every third-party module imported anywhere under ``src/repro`` must be
declared in ``[project].dependencies`` of ``pyproject.toml``, and every
declared dependency must be imported: a missing declaration breaks a
clean install, and an unused one is dead weight.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    """Top-level package names of every import statement in src/repro."""
    names: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def declared_dependencies() -> set[str]:
    """Requirement names in ``[project].dependencies``.

    Parsed by hand: Python 3.10 has no ``tomllib``.  The list may span
    lines; names are cut at the first version, marker or extras token.
    """
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    listing = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1), re.M | re.S)
    assert listing, "[project] declares no dependencies"
    requirements = re.findall(r"[\"']([^\"']+)[\"']", listing.group(1))
    return {
        re.split(r"[\s<>=!~;\[(]", req.strip(), maxsplit=1)[0].lower().replace("-", "_")
        for req in requirements
    }


def test_declared_dependencies_match_imports():
    assert imported_packages() == declared_dependencies()
