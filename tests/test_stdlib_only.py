"""The package imports nothing outside the standard library, no module
of the package or the tests imports a name it never uses, every function,
method and class of the package is named outside its definition, the
simulator imports no network code, a pairing peer imports no simulator code
and no dataclasses, only Peer.__init__ picks the OS generator, and the
tests' reference model imports nothing from saska.protocol."""

import ast
import os
import re
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


def unused_imports(path: Path) -> list[str]:
    """Names bound by an import in `path` that no expression reads;
    `from __future__` imports are switches, not names."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_imports():
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert SOURCES and tests
    unused = [f"{path.name}: {name}" for path in SOURCES + tests for name in unused_imports(path)]
    assert unused == []


def definitions(path: Path) -> list[str]:
    """The functions, methods and classes that `path` defines, dunders
    excluded."""
    return [
        node.name
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_no_unreferenced_definitions():
    """Every definition in the package is named, as a whole word, somewhere
    besides a definition of that name: in the package, the tests or
    perfbench/, whose tracer hooks names through strings."""
    root = Path(__file__).parent.parent
    text = "\n".join(path.read_text() for folder in ("src/saska", "tests", "perfbench")
                     for path in sorted((root / folder).glob("*.py")))
    unreferenced = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in definitions(path)
        if not re.search(rf"(?<!def )(?<!class )\b{name}\b", text)
    ]
    assert unreferenced == []


def system_random_uses(path: Path) -> list[str]:
    """The enclosing function or class of each place `path` names
    SystemRandom, as `file: qualified name`."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if "SystemRandom" in (getattr(child, "attr", None), getattr(child, "id", None),
                                  getattr(child, "name", None)):
                uses.append(f"{path.name}: {'.'.join(scope)}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), [])
    return uses


def test_only_peer_picks_os_entropy():
    """A pairing session draws only from the generator its Peer holds, so
    Peer.__init__ is the one place the package picks the OS generator."""
    uses = sorted(use for path in SOURCES for use in system_random_uses(path))
    assert uses == ["protocol.py: Peer.__init__"]


def test_reference_model_stands_apart():
    """tests/model.py states the protocol that tests/test_protocol.py checks
    Peer against, so it may not borrow saska.protocol."""
    names = absolute_imports(Path(__file__).parent / "model.py")
    assert [name for name in names if name.split(".")[0] == "saska"
            and name not in ("saska.group", "saska.commitment")] == []


def loaded_modules(statement: str) -> set[str]:
    """The modules loaded after `statement` in a fresh interpreter."""
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    src = str(Path(__file__).parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_simulator_loads_no_network_code():
    """The simulator moves frames itself: importing it loads neither the
    TCP transport nor the socket module."""
    assert {"saska.transport", "socket"} & loaded_modules("import saska.adversary") == set()


def test_peer_loads_no_simulator_code():
    """A CLI peer starts a fresh interpreter for every pairing, so the
    peer path imports neither the simulator and the statistics modules it
    uses nor dataclasses, inspect (which dataclasses loads), secrets or
    base64, beyond what the bare interpreter already loads; the simulator
    itself needs no dataclasses either."""
    bare = loaded_modules("pass")
    heavy = {"saska.adversary", "fractions", "statistics", "dataclasses", "inspect", "secrets",
             "base64"}
    assert heavy & (loaded_modules("import saska.cli") - bare) == set()
    assert "dataclasses" not in loaded_modules("import saska.adversary") - bare
