"""Command-line front end: derive rules, verify them, print the rule tables."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import catalog
from .combinatorics import RangeError
from .compiler import NamingUnavailable, derive_rule, emit
from .ir import EXTENDED, KELDYSH, ContourEquation, ContourError
from .oracle import np, verify
from .parser import parse_file, parse_superindex


# the exit code when the reader of standard output closes it early: 128 + SIGPIPE
BROKEN_PIPE = 141


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    targets: list[str] = field(default_factory=lambda: ["all"])
    contour: str = EXTENDED
    format: str = "text"
    grid: int = 24
    seeds: int = 3
    tol: float = 1e-8
    json_out: bool = False
    only: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if not math.isfinite(self.tol):
            raise RangeError("tolerance must be finite")
        if self.tol <= 0:
            raise RangeError("tolerance must be positive")
        if self.grid < 4:
            raise RangeError("grid size must be at least 4")
        if self.seeds < 0:
            raise RangeError("seed count must not be negative")
        if self.jobs < 1:
            raise RangeError("job count must be at least 1")


def _load_equations(cfg: RunConfig) -> list[ContourEquation]:
    if cfg.input is None:
        raise ContourError("no input given")
    if cfg.input in catalog.CORPUS:
        eq = catalog.CORPUS[cfg.input]()
        return [ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, cfg.contour)]
    try:
        # utf-8-sig: a leading byte-order mark is not part of the text
        text = Path(cfg.input).read_text(encoding="utf-8-sig")
    except OSError as err:
        raise ContourError(f"cannot read {cfg.input}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ContourError(f"cannot read {cfg.input}: {err}") from None
    equations = parse_file(text, cfg.contour)
    if not equations:
        raise ContourError(f"no equation in {cfg.input}")
    return equations


def _targets_for(eq: ContourEquation, cfg: RunConfig):
    """The catalog's targets, or the given ones, each under its catalog
    name (:func:`_catalog_name`) as it is reached."""
    if cfg.targets == ["all"]:
        return catalog.all_targets(eq)
    return (_catalog_name(eq, text) for text in cfg.targets)


def _catalog_name(eq: ContourEquation, text: str) -> str:
    """The :func:`catalog.all_targets` spelling of the target ``text``, so
    that every spelling of one target names its rule alike; ``text`` itself
    where the catalog has none (more than four externals, or an order
    inside ``R(...)`` that the catalog does not spell)."""
    target = parse_superindex(text, eq)
    try:
        names = catalog.all_targets(eq)
    except RangeError:
        return text
    return next((name for name in names if parse_superindex(name, eq) == target), text)


def _render(eq: ContourEquation, name: str, fmt: str) -> str:
    rule = derive_rule(eq, parse_superindex(name, eq))
    try:
        body = emit(rule, fmt, "langreth")
    except NamingUnavailable:
        body = emit(rule, fmt, "hacek")
    lhs = f"{eq.lhs_name}^{{{name}}}"
    return f"{lhs} = {body}"


def cmd_derive(cfg: RunConfig) -> int:
    try:
        for eq in _load_equations(cfg):
            # argument-list note: factor superscripts refer to these slots
            print(("% " if cfg.format == "latex" else "# ") + str(eq))
            for name in _targets_for(eq, cfg):
                print(_render(eq, name, cfg.format))
    except ContourError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def _verify_one(job):
    eq, name, target, rule, seeds, grid, tol = job
    return verify(
        eq, target, target_name=name, seeds=range(seeds), grid_size=grid, tol=tol, rule=rule
    )


def cmd_verify(cfg: RunConfig) -> int:
    # the numeric check multiplies small matrices, on which a second BLAS
    # thread only spins; set before NumPy loads, and a value the user set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    failed = False
    try:
        equations = _load_equations(cfg)
        # targets are parsed and their rules derived here, so a target that
        # does not fit is a usage error, as in derive
        jobs = []
        for eq in equations:
            for name in _targets_for(eq, cfg):
                target = parse_superindex(name, eq)
                rule = derive_rule(eq, target)
                jobs.append((eq, name, target, rule, cfg.seeds, cfg.grid, cfg.tol))
    except ContourError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # NumPy loads on first numeric use: load it before the workers fork,
        # so that they inherit it instead of each importing it again
        if cfg.seeds:
            np.ndarray
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            all_records = list(pool.map(_verify_one, jobs))
    else:
        all_records = [_verify_one(job) for job in jobs]
    for (eq, name, *_), records in zip(jobs, all_records):
        for rec in records:
            failed |= not rec.passed
            if cfg.json_out:
                print(json.dumps(rec.as_dict()))
            else:
                status = "PASS" if rec.passed else "FAIL"
                seed = "-" if rec.seed is None else rec.seed
                print(
                    f"{status} {eq.lhs_name}^{{{name}}} mode={rec.mode} "
                    f"seed={seed} max_error={rec.max_error:.3e} {rec.detail}"
                )
    return 2 if failed else 0


_TABLES = {
    "table1": ("convolution", "product"),
    "table2": ("double_triangle", "triangle"),
    "table3": ("vertex",),
}


def render_tables(cfg: RunConfig) -> str:
    lines: list[str] = []
    latex = cfg.format == "latex"
    for table, structures in _TABLES.items():
        wanted = [s for s in structures if cfg.only in (None, s)]
        if not wanted:
            continue
        lines.append(f"# {table}" if not latex else f"% {table}")
        for sname in wanted:
            eq = catalog.CORPUS[sname]()
            eq = ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, cfg.contour)
            if latex:
                lines.append(r"\begin{tabular}{@{}l@{}}")
                lines.append(str(eq) + r" \\")
            else:
                lines.append(f"## {sname}: {eq}")
            for name in catalog.all_targets(eq):
                row = _render(eq, name, cfg.format)
                lines.append(row + r" \\" if latex else row)
            if latex:
                lines.append(r"\end{tabular}")
            lines.append("")
    return "\n".join(lines)


def cmd_tables(cfg: RunConfig) -> int:
    print(render_tables(cfg), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="contourcalc",
        description="derive and verify real-time rules for contour equations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input: bool):
        if needs_input:
            p.add_argument(
                "--input",
                required=True,
                help="DSL file, or a built-in structure name "
                f"({', '.join(sorted(catalog.CORPUS))})",
            )
            p.add_argument(
                "--target",
                action="append",
                dest="targets",
                metavar="TARGET",
                help="component/composition name (repeatable), default 'all'",
            )
        p.add_argument("--contour", choices=[KELDYSH, EXTENDED])
        p.add_argument("--format", choices=["text", "latex"])

    p_derive = sub.add_parser("derive", help="print compiled real-time rules")
    common(p_derive, True)

    p_verify = sub.add_parser("verify", help="check rules against both oracles")
    common(p_verify, True)
    p_verify.add_argument("--grid", type=int)
    p_verify.add_argument("--seeds", type=int)
    p_verify.add_argument("--tol", type=float)
    p_verify.add_argument("--json", action="store_true", default=None, dest="json_out")
    p_verify.add_argument("--jobs", type=int, help="parallel verification workers")

    p_tables = sub.add_parser("tables", help="print the reference rule tables")
    common(p_tables, False)
    p_tables.add_argument(
        "--only", choices=sorted(s for structures in _TABLES.values() for s in structures)
    )

    return ap


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    # unset options are None and fall back to the RunConfig defaults
    try:
        cfg = RunConfig(**{k: v for k, v in vars(ns).items() if v is not None})
    except ContourError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    handler = {"derive": cmd_derive, "verify": cmd_verify, "tables": cmd_tables}[cfg.command]
    try:
        code = handler(cfg)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (as in `| head`): the rest of the output goes
        # nowhere, so that the exit flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
