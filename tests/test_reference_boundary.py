"""The reference oracles stay test-only: no production module imports them.

:mod:`repro.reference` keeps the slower executors the production paths
replaced, for the differential suites to check against.  If a module
outside ``src/repro/reference/`` imported it, an oracle would quietly
become a second production path again; this AST walk fails first.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
REFERENCE = "repro.reference"


def module_name(path: Path, root: Path = PACKAGE_ROOT) -> str:
    parts = path.relative_to(root.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(path: Path, root: Path = PACKAGE_ROOT):
    """Every module an ``import`` statement in ``path`` names, absolute."""
    name = module_name(path, root)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            yield prefix
            for alias in node.names:
                yield f"{prefix}.{alias.name}"


def is_reference(module: str) -> bool:
    return module == REFERENCE or module.startswith(REFERENCE + ".")


def test_no_production_module_imports_the_reference():
    production = [
        path
        for path in PACKAGE_ROOT.rglob("*.py")
        if path.relative_to(PACKAGE_ROOT).parts[0] != "reference"
    ]
    assert len(production) > 50  # the walk really sees the package
    offenders = {
        module_name(path): sorted(found)
        for path in production
        if (found := {m for m in imported_modules(path) if is_reference(m)})
    }
    assert not offenders, f"production modules import the oracle: {offenders}"


def test_the_walk_resolves_relative_imports(tmp_path):
    """Self-check: the forms a production module could use are all caught."""
    root = tmp_path / "repro"
    runtime = root / "runtime"
    runtime.mkdir(parents=True)
    for source in (
        "from ..reference import run_fleet",
        "from .. import reference",
        "import repro.reference.sdf",
        "from repro.reference.reactive import ReactiveSimulator",
    ):
        module = runtime / "fleet.py"
        module.write_text(source + "\n", encoding="utf-8")
        assert any(is_reference(m) for m in imported_modules(module, root)), source
    module.write_text("from ..runtime import reactive\n", encoding="utf-8")
    assert not any(is_reference(m) for m in imported_modules(module, root))
