"""The reference layer lives in oracle.py, and nothing reaches it by another road."""

import ast
from pathlib import Path

import quiverdec

PACKAGE = Path(quiverdec.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"
REFERENCE = ("connected_components", "default_suite", "iter_box", "restrict_vector")
MAIN_PATH = ("decomposer", "lambda_roots", "quiver_core", "reflection_walk", "root_system")


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
