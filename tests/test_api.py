"""Every name that ``lpcoset`` exports has a reader outside its own
definition: code in ``src/lpcoset`` other than ``__init__.py``, the
benchmark under ``perfbench/``, or README.  A name without one is removed,
or listed in ``KEEP`` with the reason it stays.

A reader in Python code is a name, an attribute or a dotted string constant
(the benchmark's tracer patches functions by name) in a top-level statement
other than the name's own definition and the definitions of other unread
exports; README counts a mention as a reader.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lpcoset"

# exported name -> why it stays although nothing reads it
KEEP: dict[str, str] = {}


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def _reads(node: ast.stmt) -> tuple[str | None, set[str]]:
    """The name a top-level statement defines, if any, and the names it
    reads outside its own name."""
    own = getattr(node, "name", None)
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            read.update(sub.value.split("."))
    read.discard(own)
    return own, read


def _unread_exports() -> set[str]:
    """Exported names with no reader; code that only unread exports outside
    ``KEEP`` read is unread too, so a chain of dead code is found whole."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    readers = [
        _reads(node)
        for path in files
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme_names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", readme))
    exported = set(_exported_names())
    unread: set[str] = set()
    while True:
        dead = unread - KEEP.keys()
        read = readme_names.union(*(names for own, names in readers if own not in dead))
        if exported - read == unread:
            return unread
        unread = exported - read


def test_every_export_has_a_reader_or_a_reason():
    unread = sorted(_unread_exports() - KEEP.keys())
    assert unread == [], f"exported but read nowhere: {unread}"


def test_keep_list_holds_only_unread_exports():
    exported = set(_exported_names())
    unread = _unread_exports()
    stale = [name for name in KEEP if name not in exported or name not in unread]
    assert stale == [], f"remove from KEEP: {stale}"
