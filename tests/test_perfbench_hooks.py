"""The benchmark in ``perfbench/`` reaches contourcalc only by name.

A refactor that renames or removes one of those names breaks the
benchmark; these tests make it fail in the tier-1 suite instead.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_resolve():
    tracing = _load("tracing")
    assert tracing.LAYER_FUNCTIONS
    for span, (modules, attr) in tracing.LAYER_FUNCTIONS.items():
        for module in modules:
            assert callable(getattr(module, attr, None)), (span, module.__name__, attr)


def _program_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every contourcalc name a benchmark file imports
    or reads as an attribute of an imported contourcalc module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: dict[str, str] = {}
    names: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("contourcalc"):
            for alias in node.names:
                if node.module == "contourcalc":
                    modules[alias.asname or alias.name] = f"contourcalc.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            names.add((modules[node.value.id], node.attr))
    return names


def test_benchmark_names_exist():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= _program_names(path)
    # the hooks the checks and workloads stand on are among those scanned
    assert {
        ("contourcalc.oracle", "placement_for_times"),
        ("contourcalc.catalog", "build_rule"),
        ("contourcalc.catalog", "all_targets"),
        ("contourcalc.catalog", "CORPUS"),
    } <= names
    for module, name in sorted(names):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_verify_reaches_symbolic_layers_through_the_module(monkeypatch):
    # the traced benchmark wraps module attributes; a call that binds them
    # locally or inlines them would silently time nothing.  A verdict is
    # one signed count, the branch split's occurrences minus the rule's,
    # and builds no normal form while it passes
    from contourcalc import catalog, oracle
    from contourcalc.parser import parse_superindex

    calls = {
        "signed_count": 0,
        "normal_form": 0,
        "branch_split_normal_form": 0,
        "branch_split_oracle": 0,
    }
    for name in calls:
        original = getattr(oracle, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    eq = catalog.convolution()
    (record,) = oracle.verify(eq, parse_superindex(">", eq), seeds=())
    assert record.passed
    assert calls == {
        "signed_count": 1,
        "normal_form": 0,
        "branch_split_normal_form": 0,
        "branch_split_oracle": 0,
    }


def test_verify_reaches_numeric_sides_through_the_module(monkeypatch):
    # verify must call both batch sides through the module, once per order
    # class, with every seed's samples of that class in one batch, so that
    # a tracer can time them by wrapping these attributes.  The benchmark's
    # tracer still wraps the one-sample sides, which verify does not call;
    # this hook is kept for a tracer of the batches
    from contourcalc import catalog, oracle
    from contourcalc.parser import parse_superindex

    calls = {"evaluate_contour_batch": [], "evaluate_realtime_batch": []}
    for name in calls:
        original = getattr(oracle, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(len(args[4]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    eq = catalog.convolution()
    target = parse_superindex(">", eq)
    records = oracle.verify(eq, target, seeds=(0, 1))
    assert [r.mode for r in records] == ["symbolic", "numeric", "numeric"]
    assert all(r.passed for r in records)
    classes, _ = oracle._ordering_classes(eq, target)
    assert len(classes) > 0
    batch = 2 * oracle.SAMPLES_PER_CLASS
    assert calls == {name: [batch] * len(classes) for name in calls}
