"""Every ``repro`` subpackage and top-level module can be imported first.

Each import runs in a fresh interpreter: an import cycle that only bites
when its module is the first ``repro`` import cannot hide behind the
order in which the test session happened to import things.
"""

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
