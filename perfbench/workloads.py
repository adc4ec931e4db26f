"""The benchmark's workloads: their inputs, set-up and timed passes.

Every workload has two phases, timed apart:

* a derive pass compiles targets with ``derive_rule`` and renders them with
  ``emit``, or renders whole tables with ``cli.render_tables``;
* a verify pass brings targets to a full verdict with ``verify(...,
  rule=...)``: the symbolic check plus one numeric check per seed.

Each workload puts most of its time in one layer.  ``compile`` spends it in
the compiler, and verifies only the convolution as a spot check so that a
verify rate exists for it.  The three verify workloads render only the
convolution table as their spot of ``cli.render_tables``.  The spots keep
every metric defined on every workload and are small next to the work the
workload is named for.

contourcalc is called only through module attributes (``compiler.emit``,
``oracle.verify``, ...) so that the tracer can stand in for them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

from contourcalc import catalog, cli, compiler, oracle, parser
from contourcalc.ir import EXTENDED, KELDYSH

INPUTS = Path(__file__).resolve().parent / "inputs"

# structure names of the equations in each DSL input, in file order
INPUT_NAMES = {
    "corpus": tuple(catalog.CORPUS),
    "chain4": ("chain4",),
    "ladder": ("ladder",),
    "three_external": ("X",),
}

CORPUS = INPUT_NAMES["corpus"]
PROBES = ("chain4", "ladder", "X")
# the structures `contourcalc tables` prints; chain3 is not among them
TABLE_STRUCTURES = ("convolution", "product", "double_triangle", "triangle", "vertex")


@dataclass(frozen=True)
class Spec:
    inputs: tuple[str, ...]  # DSL files under inputs/
    contours: tuple[str, ...]
    derive: tuple[str, ...]  # structures compiled one target at a time
    verify: tuple[str, ...]  # structures brought to a verdict
    tables: tuple[tuple[str, str, str | None], ...]  # (contour, format, only)
    emit_formats: tuple[str, ...]
    grid: int  # verify grid, nodes per branch
    derive_share: float  # share of the run spent on derive passes
    # (structure, contour, target) whose rule is corrupted and must be rejected
    corrupt: tuple[tuple[str, str, str], ...]
    probe_checks: tuple[str, ...] = ()  # structures checked against the contour sum
    targets: tuple[str, ...] | None = None  # None: catalog.all_targets


WORKLOADS = {
    "compile": Spec(
        inputs=("corpus", "chain4", "ladder", "three_external"),
        contours=(EXTENDED, KELDYSH),
        derive=PROBES,
        verify=("convolution",),
        tables=tuple(
            (c, f, None) for c in (EXTENDED, KELDYSH) for f in ("text", "latex")
        ),
        emit_formats=("text", "latex"),
        grid=24,
        derive_share=0.6,
        corrupt=(("X", EXTENDED, "M(1)23"),),
        probe_checks=PROBES,
    ),
    "corpus-verify": Spec(
        inputs=("corpus",),
        contours=(EXTENDED, KELDYSH),
        derive=CORPUS,
        verify=CORPUS,
        tables=tuple((c, "text", "convolution") for c in (EXTENDED, KELDYSH)),
        emit_formats=("text",),
        grid=24,
        derive_share=0.4,
        corrupt=tuple((s, EXTENDED, "1" if s == "triangle" else ">") for s in CORPUS),
    ),
    "chain4-numeric": Spec(
        inputs=("chain4",),
        contours=(EXTENDED,),
        derive=("chain4",),
        verify=("chain4",),
        tables=((EXTENDED, "text", "convolution"),),
        emit_formats=("text",),
        grid=12,
        derive_share=0.35,
        corrupt=(("chain4", EXTENDED, "rc"),),
        targets=(">",),
    ),
    "ladder-symbolic": Spec(
        inputs=("ladder",),
        contours=(KELDYSH,),
        derive=("ladder",),
        verify=("ladder",),
        tables=((KELDYSH, "text", "convolution"),),
        emit_formats=("text",),
        grid=6,
        derive_share=0.35,
        corrupt=(("ladder", EXTENDED, "rc"),),
        targets=(">",),
    ),
}


@dataclass
class Structure:
    name: str
    eq: object  # ContourEquation
    targets: list  # [(target name, SuperIndex)]


@dataclass
class Setup:
    spec: Spec
    structures: dict  # (structure name, contour) -> Structure
    table_targets: list  # targets rendered by each entry of spec.tables


def load(name: str) -> Setup:
    """Parse the workload's DSL inputs and enumerate its targets."""
    spec = WORKLOADS[name]
    structures = {}
    for contour in spec.contours:
        for fname in spec.inputs:
            text = (INPUTS / f"{fname}.ctr").read_text(encoding="utf-8")
            eqs = parser.parse_file(text, contour)
            for sname, eq in zip(INPUT_NAMES[fname], eqs, strict=True):
                names = spec.targets or catalog.all_targets(eq)
                targets = [(t, parser.parse_superindex(t, eq)) for t in names]
                structures[(sname, contour)] = Structure(sname, eq, targets)
    table_targets = [
        sum(
            len(catalog.all_targets(replace(catalog.CORPUS[sname](), contour=contour)))
            for sname in TABLE_STRUCTURES
            if only in (None, sname)
        )
        for contour, _, only in spec.tables
    ]
    return Setup(spec, structures, table_targets)


def _failure(key, err) -> str:
    """Report a failed operation on standard error; its output is the error."""
    print(f"OPERATION FAILED {key}: {err!r}", file=sys.stderr)
    return f"error: {err!r}"


def _selected(setup: Setup, names):
    for contour in setup.spec.contours:
        for sname in names:
            yield setup.structures[(sname, contour)]


def derive_pass(setup: Setup):
    """One derive pass.  Returns (outputs, attempted, failed); an output is
    (key, rule or None, rendered text)."""
    spec = setup.spec
    outputs, attempted, failed = [], 0, 0
    for (contour, fmt, only), n in zip(spec.tables, setup.table_targets):
        attempted += n
        cfg = cli.RunConfig(command="tables", contour=contour, format=fmt, only=only)
        try:
            text = cli.render_tables(cfg)
        except Exception as err:  # a failed render is a failed operation
            failed += n
            text = _failure(("tables", contour, fmt, only), err)
        outputs.append((("tables", contour, fmt, only), None, text))
    for st in _selected(setup, spec.derive):
        for tname, target in st.targets:
            attempted += 1
            try:
                rule = compiler.derive_rule(st.eq, target)
                text = "\n".join(compiler.emit(rule, f) for f in spec.emit_formats)
            except Exception as err:
                failed += 1
                rule, text = None, _failure((st.name, st.eq.contour, tname), err)
            outputs.append(((st.name, st.eq.contour, tname), rule, text))
    return outputs, attempted, failed


def verify_seeds(seed: int) -> tuple[int, ...]:
    """The component-table seeds of every verdict, three as at the CLI's
    default; they also select the sampled external times."""
    return tuple(seed * 10 + k for k in range(3))


def verify_jobs(setup: Setup):
    """(structure, target name, target, rule) for every verdict of a pass;
    the rules are derived here, before any timing."""
    return [
        (st, tname, target, compiler.derive_rule(st.eq, target))
        for st in _selected(setup, setup.spec.verify)
        for tname, target in st.targets
    ]


def verify_pass(setup: Setup, jobs, seeds):
    """One verify pass.  Returns (outputs, attempted, failed); an output is
    (key, list of verdict records as dicts)."""
    outputs, attempted, failed = [], 0, 0
    for st, tname, target, rule in jobs:
        attempted += 1
        try:
            records = [
                r.as_dict()
                for r in oracle.verify(
                    st.eq, target, target_name=tname, seeds=seeds,
                    grid_size=setup.spec.grid, rule=rule,
                )
            ]
            failed += not all(r["passed"] for r in records)
        except Exception as err:
            failed += 1
            records = [{"error": _failure((st.name, st.eq.contour, tname), err)}]
        outputs.append(((st.name, st.eq.contour, tname), records))
    return outputs, attempted, failed
