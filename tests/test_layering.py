"""Import layering between the package's modules, read from their source."""

import ast
import importlib.util
import sys
from pathlib import Path

import rigiddock

PACKAGE_DIR = Path(rigiddock.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_package_imports_only_stdlib_and_numpy():
    """Every absolute import of the package is the standard library, numpy or itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "rigiddock"}
    found = {}
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update((name.split(".")[0], path.name) for name in names)
    assert "numpy" in found
    assert {name: module for name, module in found.items() if name not in allowed} == {}


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


def test_every_benchmark_trace_site_resolves():
    """Every name perfbench's tracer patches exists, read with the tracer's own ``binding``.

    Dropping one then fails here rather than in a traced benchmark run.
    """
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr, _ in tracing.SITES:
        owner, name = tracing.binding(rigiddock, module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr}"


def users(match) -> set[str]:
    """'module.function' of the innermost function around each node of the package that matches.

    A match outside every function is reported as its module's name.
    """
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if match(child):
                found.add(where)
            visit(child, where)

    for path in PACKAGE_DIR.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def names(name: str):
    return lambda node: ((isinstance(node, ast.Name) and node.id == name)
                         or (isinstance(node, ast.Attribute) and node.attr == name))


def test_one_coordinate_reader_and_one_coordinate_writer():
    """Coordinate fields are parsed only in ``_coordinates`` and written only in ``_columns``."""
    assert users(names("_parse_coord")) == {"pdbio._coordinates"}
    assert users(names("_coordinates")) == {"pdbio.parse_pdb", "pdbio.transform_atom_records"}
    written = users(lambda node: isinstance(node, ast.FormattedValue) and node.format_spec
                    is not None and ast.unparse(node.format_spec) == "f'8.3f'")
    assert written == {"pdbio._columns"}
    assert users(names("_columns")) == {"pdbio.format_ca_pdb", "pdbio.transform_atom_records"}


def test_each_writer_calls_the_coordinate_writer_once_outside_any_loop():
    """``format_ca_pdb`` and ``transform_atom_records`` pass all their atoms to one
    ``_columns`` call, so a writer that formats record by record cannot return."""
    repeated = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
                ast.GeneratorExp, ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
    tree = ast.parse((PACKAGE_DIR / "pdbio.py").read_text())
    writers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in ("format_ca_pdb", "transform_atom_records")}
    assert len(writers) == 2

    def calls(node, inside):
        """``inside`` for each call of ``_columns`` under ``node``: whether a loop,
        comprehension or nested function encloses it."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and names("_columns")(child.func):
                yield inside
            yield from calls(child, inside or isinstance(child, repeated))

    for name, writer in writers.items():
        assert list(calls(writer, False)) == [False], name


def test_one_fallback_for_a_pair_the_network_cannot_dock():
    """Every ``except`` naming ``DegenerateKeypointsError`` or ``NonFiniteError`` sits in
    ``training._docked_or_input``, the training step of ``training.train`` or ``cli.main``,
    so a further hand-written fallback cannot return."""
    def catches(node):
        return isinstance(node, ast.ExceptHandler) and node.type is not None and any(
            names(name)(part) for part in ast.walk(node.type)
            for name in ("DegenerateKeypointsError", "NonFiniteError"))

    assert users(catches) == {"training._docked_or_input", "training.train", "cli.main"}


def test_one_skip_warning_in_the_training_loop():
    """``training.train`` logs exactly one warning whose format ends in "step skipped",
    so every skipped step, whatever failed, goes through the step's one handler."""
    tree = ast.parse((PACKAGE_DIR / "training.py").read_text())
    [train] = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "train"]
    skips = [node for node in ast.walk(train) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "logger.warning" and node.args
             and isinstance(node.args[0], ast.Constant)
             and str(node.args[0].value).endswith("step skipped")]
    assert len(skips) == 1


def test_only_the_tensor_and_the_optimizer_bind_a_tensors_data():
    """Every assignment to an attribute named ``data`` sits in ``Tensor.__init__`` or
    ``Adam.__init__``, so once the optimizer has made each parameter's data a view of
    its flat buffer, nothing else (a checkpoint load, say) points that data elsewhere."""
    def bound(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from bound(element)
        elif isinstance(target, ast.Starred):
            yield from bound(target.value)
        elif isinstance(target, ast.Attribute):
            yield target.attr

    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign, ast.For, ast.AsyncFor)):
                targets = [child.target]
            else:
                targets = []
            if any(attr == "data" for target in targets for attr in bound(target)):
                found.add(where)
            visit(child, where)

    for path in PACKAGE_DIR.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    assert found == {"autodiff.Tensor.__init__", "training.Adam.__init__"}
