"""The reference layer lives in oracle.py, and nothing reaches it by another road; only the CLI catches a refusal."""

import ast
from pathlib import Path

import quiverdec
from quiverdec.errors import ResourceLimit

PACKAGE = Path(quiverdec.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"
REFERENCE = ("connected_components", "default_suite", "iter_box", "restrict_vector")
MAIN_PATH = ("decomposer", "lambda_roots", "quiver_core", "reflection_walk", "root_system")
CATCHERS = {cls.__name__ for cls in ResourceLimit.__mro__} | {""}  # a handler by any of these catches it; "": bare


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported(tree):
    """Each module an import names, dotted as written: ``from . import oracle`` gives "oracle"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            names.update([node.module or "", *(prefix + alias.name for alias in node.names)])
    return names


def _caught(tree):
    """Each name an except clause or ``suppress(...)`` catches by, as last written: "" for a bare except."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            types = [node.type]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "suppress":
            types = node.args
        else:
            continue
        for t in types:
            for e in t.elts if isinstance(t, ast.Tuple) else [t]:
                names.add("" if e is None else getattr(e, "attr", getattr(e, "id", "?")))
    return names


def test_the_reference_layer_lives_in_the_oracle():
    modules = {path.stem: _parse(path) for path in PACKAGE.glob("*.py")}
    defined = sorted((node.name, stem) for stem, tree in modules.items() for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name in REFERENCE)
    assert defined == [(name, "oracle") for name in REFERENCE]
    for stem in MAIN_PATH:
        names = _imported(modules[stem])
        assert not any("oracle" in name.split(".") for name in names), (stem, names)
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for path in demos:
        names = _imported(_parse(path))
        assert not any(name.split(".")[:2] == ["quiverdec", "cli"] for name in names), (path.name, names)


def test_only_the_command_line_catches_a_refusal():
    # the library asks Caps.refusal where it would catch its own ResourceLimit; cli.main maps one to exit 3
    for path in PACKAGE.glob("*.py"):
        caught = _caught(_parse(path))
        assert bool(caught & CATCHERS) == (path.stem == "cli"), (path.name, caught)
