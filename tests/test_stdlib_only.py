"""The package imports nothing outside the standard library, and the
simulator imports no network code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "saska").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_absolute_import_is_stdlib():
    assert SOURCES
    outside = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_simulator_loads_no_network_code():
    """The simulator moves frames itself: importing it loads neither the
    TCP transport nor the socket module."""
    code = "import sys, saska.adversary; print(sorted({'saska.transport', 'socket'} & set(sys.modules)))"
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
