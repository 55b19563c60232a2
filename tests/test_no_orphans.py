"""Every top-level def under gdal_ray/ is reached by name.

Code that no module, test, benchmark or entry point names gets
deleted, not kept (ROADMAP aim 2). The scan counts every word in the
sources (strings included, so the ``"module:function"`` openers of
``drivers.py`` count) and flags a def whose name appears nowhere
outside its own body. No Ray.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = (
    "gdal_ray",
    "tests",
    "perfbench",
    "bench.py",
    "job_entry.py",
    "__ray_entry__.py",
)
WORD = re.compile(r"\w+")


def _sources():
    for name in SCANNED:
        path = ROOT / name
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.exists():
            yield path


def orphans() -> list[str]:
    """``path::name`` of each top-level def under gdal_ray/ whose name
    no scanned file mentions outside that def."""
    words: Counter = Counter()
    own: Counter = Counter()  # mentions inside the defs themselves
    defs = []
    for path in _sources():
        text = path.read_text(encoding="utf-8")
        words.update(WORD.findall(text))
        if not path.is_relative_to(ROOT / "gdal_ray"):
            continue
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            body = "\n".join(lines[start - 1 : node.end_lineno])
            own[node.name] += WORD.findall(body).count(node.name)
            defs.append((path.relative_to(ROOT), node.name))
    return [f"{path}::{name}" for path, name in defs if words[name] <= own[name]]


def test_every_top_level_def_is_named():
    found = orphans()
    assert not found, "top-level defs that nothing names:\n" + "\n".join(found)
