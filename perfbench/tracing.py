"""Spans around the calls into contourcalc's layers, recorded from outside.

Each layer function is replaced, for the duration of a traced pass, in the
module namespaces where its callers look it up (``derive_rule`` reaches
``representation`` through ``contourcalc.compiler``, ``verify`` reaches the
numeric sides through ``contourcalc.oracle``, and so on).  Nothing in
``src/`` is edited.  A span is ``(name, start, end, parent, pass)``; a
layer's self time is its spans' durations minus the durations of their
direct child spans.  Counts are computed on the benchmark's side of the
call from the arguments and results, so they repeat exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from contourcalc import cli, compiler, engine, oracle, parser
from contourcalc.ir import EXTENDED

# span name -> (modules through which callers reach the function, attribute)
LAYER_FUNCTIONS = {
    "parser.parse_file": ((parser,), "parse_file"),
    "parser.parse_superindex": ((parser,), "parse_superindex"),
    "engine.representation": ((compiler,), "representation"),
    "compiler.derive_rule": ((compiler, cli, oracle), "derive_rule"),
    "ir.canonicalize": ((compiler,), "canonicalize"),
    "compiler.emit": ((compiler, cli), "emit"),
    "cli.render_tables": ((cli,), "render_tables"),
    "oracle.verify": ((oracle,), "verify"),
    "oracle.branch_split_oracle": ((oracle,), "branch_split_oracle"),
    "oracle.normal_form": ((oracle,), "normal_form"),
    "oracle.ComponentTable": ((oracle,), "ComponentTable"),
    "oracle.evaluate_contour_side": ((oracle,), "evaluate_contour_side"),
    "oracle.evaluate_realtime_side": ((oracle,), "evaluate_realtime_side"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _chains_hold(chains, times) -> bool:
    return all(
        times[c[i]] > times[c[i + 1]] for c in chains for i in range(len(c) - 1)
    )


def contour_points(eq, target, grid, external_times) -> int:
    """Integrand points of one ``evaluate_contour_side`` call: for every
    external word whose step prefactor holds, every branch assignment of
    the internals times the nodes of the branches assigned."""
    words = sum(
        1
        for _, chains, _ in engine.expand_retarded(target.real_items())
        if _chains_hold(chains, external_times)
    )
    per_label = 2 * grid.n_fwd + (grid.n_mats if eq.contour == EXTENDED else 0)
    return words * per_label ** len(eq.internal)


def realtime_points(expr, grid) -> int:
    """Integrand points of one ``evaluate_realtime_side`` call."""
    return sum(
        grid.n_fwd ** len(t.real_integrals) * grid.n_mats ** len(t.imag_integrals)
        for t in expr.terms
    )


def _count(name, args, kwargs, result, counts):
    if name == "engine.representation":
        counts["engine.representation_terms"] += len(result)
    elif name == "compiler.derive_rule":
        counts["compiler.rule_terms"] += len(result.terms)
    elif name == "ir.canonicalize":
        counts["ir.canonicalize_terms_in"] += len(_arg(args, kwargs, 0, "expr").terms)
        counts["ir.canonicalize_terms_out"] += len(result.terms)
    elif name == "compiler.emit":
        counts["compiler.emit_chars"] += len(result)
    elif name == "oracle.branch_split_oracle":
        eq = _arg(args, kwargs, 0, "eq")
        target = _arg(args, kwargs, 1, "target")
        words = len(engine.expand_retarded(target.real_items()))
        counts["oracle.branch_configs"] += words * oracle.branch_count(eq)
        counts["oracle.branch_terms"] += len(result.terms)
    elif name == "oracle.normal_form":
        counts["oracle.normal_form_keys"] += len(result)
    elif name == "oracle.ComponentTable":
        counts["oracle.table_builds"] += 1
    elif name == "oracle.evaluate_contour_side":
        counts["oracle.contour_points"] += contour_points(
            _arg(args, kwargs, 0, "eq"),
            _arg(args, kwargs, 1, "target"),
            _arg(args, kwargs, 3, "grid"),
            _arg(args, kwargs, 4, "external_times"),
        )
    elif name == "oracle.evaluate_realtime_side":
        counts["oracle.realtime_points"] += realtime_points(
            _arg(args, kwargs, 0, "expr"), _arg(args, kwargs, 3, "grid")
        )


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self._base_clock = clock
        self._counting = 0.0  # seconds spent computing counts
        self.spans: list[list] = []  # [name, start, end, parent, pass_id]
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._pass: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, self.clock(), None, parent, self._pass]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            start = self._base_clock()
            _count(name, args, kwargs, result, self.counts[self._pass])
            self._counting += self._base_clock() - start
            return result

        return traced

    def clock(self) -> float:
        """Span clock: stands still while counts are computed, so that time
        lands in no layer."""
        return self._base_clock() - self._counting

    def install(self):
        for name, (modules, attr) in LAYER_FUNCTIONS.items():
            for module in modules:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def begin_pass(self, pass_id: str):
        self._pass = pass_id

    def self_times(self, pass_id: str) -> dict[str, float]:
        """Self seconds per span name within one pass."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid != pass_id:
                continue
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pid in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "pass": pid}
                    )
                    + "\n"
                )
