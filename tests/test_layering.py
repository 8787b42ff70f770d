"""Import layering between the package's modules, read from their source."""

import ast
from pathlib import Path

import rigiddock

PACKAGE_DIR = Path(rigiddock.__file__).parent


def package_imports(path: Path) -> set[str]:
    """Names of the rigiddock modules one source file imports with ``from``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0:
            if parts[0] != "rigiddock":
                continue
            parts = parts[1:]
        if parts and parts[0]:
            found.add(parts[0])     # from .x import y
        else:
            found.update(alias.name for alias in node.names)   # from . import x
    return found


def test_module_layering():
    imports = {path.stem: package_imports(path) for path in PACKAGE_DIR.glob("*.py")}
    assert imports["geometry"] == set()
    assert not imports["synthetic"] & {"model", "docking"}
    assert {name for name, deps in imports.items() if "checks" in deps} == {"cli"}


def test_only_graphs_walks_distance_blocks():
    """Other modules search for contacts through ``graphs.contact_pairs``."""
    names = {path.stem for path in PACKAGE_DIR.glob("*.py")
             if "distance_blocks" in path.read_text()}
    assert names == {"graphs"}


def imports_concurrent(path: Path) -> bool:
    """Whether one source file imports ``concurrent`` or a module under it."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "concurrent" for name in names):
            return True
    return False


def test_only_tiles_imports_concurrent_futures():
    """The one pool thread belongs to ``tiles.run``; other modules run tiles through it."""
    names = {path.stem for path in PACKAGE_DIR.glob("*.py") if imports_concurrent(path)}
    assert names == {"tiles"}
