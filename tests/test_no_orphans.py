"""Every module under gdal_ray/ is reached by a role, and every
top-level def in it by name.

Code that no role reaches gets deleted, not kept (ROADMAP aim 2). The
module check follows imports (function-level ones too) and
``"gdal_ray.x"`` strings from the roles: the CLI, the query
registries, the ``DRIVERS`` openers, ``bench.py``, the job entry
points and perfbench. Tests are not roles, so a module only tests
import is flagged unless ``KEEP`` says why it stays. The name check
counts every word in the sources (strings included, so the
``"module:function"`` openers of ``drivers.py`` count) and flags a def
whose name appears nowhere outside its own body. No Ray.
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


def map_groups_calls(path: Path) -> list[int]:
    """Lines of the ``.map_groups(...)`` attribute calls in ``path``."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(
        encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "map_groups"]


def test_no_map_groups_under_gdal_ray(tmp_path):
    """Every per-key callback of the engine runs through
    ``stages.partition``; Ray's ``map_groups`` is not called."""
    found = [f"{p.relative_to(ROOT)}:{n}"
             for p in sorted((ROOT / "gdal_ray").rglob("*.py"))
             for n in map_groups_calls(p)]
    assert not found, "map_groups calls:\n" + "\n".join(found)
    probe = tmp_path / "probe.py"
    probe.write_text('"""map_groups( in a docstring"""\n'
                     "map_groups = 1  # map_groups(\n"
                     "f(map_groups)\n"
                     "ds.groupby('k').map_groups(fn)\n"
                     "x.map_groups\n")
    assert map_groups_calls(probe) == [4]


# --- every module is reached by a role -------------------------------

PACKAGE = "gdal_ray"
# the roles: the CLI, the query registries, and what the bench, the job
# entry points and perfbench import (DRIVERS' openers are added below)
ROLE_MODULES = (
    "gdal_ray.cli",
    "gdal_ray.queries",
    "gdal_ray.queries_ml",
    "gdal_ray.queries_relational",
)
ROLE_FILES = ("bench.py", "job_entry.py", "__ray_entry__.py", "perfbench")
# module → why it stays although no role reaches it
KEEP = {
    "gdal_ray.raster.checksum": "the GDALChecksumImage oracle that the "
    "raster tests compare against",
    "gdal_ray.pipelines.webtext": "the `curate` workload the benchmark "
    "is to add (ROADMAP item 4)",
    "gdal_ray.stages.decontam": "imported by gdal_ray.pipelines.webtext",
}


def modules(root: Path, package: str = PACKAGE) -> dict[str, Path]:
    """Dotted name → file of every module under ``root/package``; a
    package is its ``__init__``."""
    out = {}
    for path in sorted((root / package).rglob("*.py")):
        parts = list(path.relative_to(root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def references(path: Path, mods: dict, package: str = PACKAGE) -> set:
    """The modules of ``mods`` that ``path`` imports anywhere in its
    body (``from p import m`` included) or names in a string, with the
    packages whose ``__init__`` that import runs."""
    names = set()
    ref = re.compile(rf"\b{package}(?:\.\w+)+")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(ref.findall(node.value))
    out = set()
    for name in names:
        while name and name not in mods:  # an attribute, not a module
            name = name.rpartition(".")[0]
        while name:
            out.add(name)
            name = name.rpartition(".")[0]
    return out


def unreached(root: Path, seeds, role_files, package: str = PACKAGE
              ) -> list[str]:
    """Modules under ``root/package`` that neither ``seeds`` nor the
    imports of ``role_files`` (files or directories) reach."""
    mods = modules(root, package)
    todo = [s for s in seeds if s in mods]
    for name in role_files:
        path = root / name
        for f in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            todo.extend(references(f, mods, package))
    seen: set = set()
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo.extend(references(mods[m], mods, package) - seen)
    return sorted(set(mods) - seen)


def keep_list_problems(found: list[str], keep: dict[str, str]) -> list[str]:
    """Unreached modules off the keep-list, and keep-list entries that
    give no reason or no longer need keeping."""
    out = [f"{m}: no role reaches it" for m in found if m not in keep]
    for m, why in keep.items():
        if not why.strip():
            out.append(f"{m}: kept without a reason")
        if m not in found:
            out.append(f"{m}: kept, but a role reaches it or it is gone")
    return out


def role_seeds() -> set[str]:
    from gdal_ray.drivers import DRIVERS

    openers = {
        spec.partition(":")[0]
        for d in DRIVERS
        for spec in (d.raster, d.vector, d.write)
        if spec and spec.startswith(PACKAGE + ".")
    }
    return openers | set(ROLE_MODULES)


def test_every_module_is_reached_by_a_role():
    found = unreached(ROOT, role_seeds(), ROLE_FILES)
    problems = keep_list_problems(found, KEEP)
    assert not problems, "\n".join(problems)


def test_scan_on_a_synthetic_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    for name in ("__init__", "a", "b", "c"):
        (pkg / f"{name}.py").write_text("")
    # A is imported inside a function body, B named by an opener string
    (tmp_path / "role.py").write_text(
        "def run():\n    import pkg.a\n\n\nOPENER = 'pkg.b:read_b'\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_c.py").write_text("import pkg.c\n")
    found = unreached(tmp_path, (), ("role.py",), package="pkg")
    assert found == ["pkg.c"]
    assert keep_list_problems(found, {"pkg.c": "an oracle"}) == []
    assert keep_list_problems(found, {}) == ["pkg.c: no role reaches it"]
    assert keep_list_problems(found, {"pkg.c": " "}) == [
        "pkg.c: kept without a reason"]
    stale = "kept, but a role reaches it or it is gone"
    for entry in ("pkg.a", "pkg.gone"):
        keep = {"pkg.c": "an oracle", entry: "was once unreached"}
        assert keep_list_problems(found, keep) == [f"{entry}: {stale}"]
