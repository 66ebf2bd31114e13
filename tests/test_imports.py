"""Every ``repro`` subpackage and top-level module can be imported first.

Each import runs in a fresh interpreter: an import cycle that only bites
when its module is the first ``repro`` import cannot hide behind the
order in which the test session happened to import things.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: ``repro.<name>`` for every subpackage and top-level module.
MODULES = sorted(
    f"repro.{path.stem}"
    for path in (SRC / "repro").iterdir()
    if (path.suffix == ".py" and path.stem != "__init__")
    or (path / "__init__.py").is_file()
)


def test_every_package_is_listed():
    assert {"repro.detect", "repro.crawler", "repro.web", "repro.cli"} <= set(
        MODULES
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def _imported_modules(path: Path):
    """Every module *path* imports, at any depth: ``import a.b`` and
    ``from a.b import c`` (relative imports resolved)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    package = ".".join(path.relative_to(SRC).parent.parts)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def test_no_crawler_module_imports_the_cache():
    """The crawlers take no cache: Study looks their results up. Not
    even a typing-only import under ``TYPE_CHECKING`` may name it."""
    offenders = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted((SRC / "repro" / "crawler").rglob("*.py"))
        for name in _imported_modules(path)
        if name == "repro.cache" or name.startswith("repro.cache.")
    )
    assert offenders == []
