"""The package re-exports only what its own modules or the benchmark run."""

import ast
from pathlib import Path

import contourcalc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "contourcalc"


def _referenced_names(paths):
    """Every name that the files use: read, imported, or reached as an
    attribute, the last part of every module that they import from, and
    each part of a string that is a dotted name, which the benchmark's
    tracer passes to ``getattr``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
    return names


def test_every_public_name_is_run_by_the_package_or_the_benchmark():
    # a name that only tests call belongs in the tests, not in the API
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += sorted((ROOT / "perfbench").glob("*.py"))
    referenced = _referenced_names(users)
    unused = sorted(set(contourcalc.__all__) - referenced)
    assert unused == [], f"public names that no module or benchmark file uses: {unused}"
    assert {"derive_rule", "verify", "parse_file"} <= set(contourcalc.__all__)
