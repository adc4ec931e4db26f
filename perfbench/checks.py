"""Output checks, run outside the timed passes.

Each check is one operation of the run; a check that fails or raises is a
failed operation.  The references are computed apart from the compiler
(hand-derived catalog rows, the direct discrete-contour sum) or are
properties the method must have (corrupted rules are rejected).  Only the
table comparison is against stored copies, the files under ``golden/``.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from contourcalc import catalog, compiler, engine, oracle, parser
from contourcalc.ir import EXTENDED, KELDYSH, RealTimeExpression, Ret

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_FILES = {
    (EXTENDED, "text"): "tables.txt",
    (KELDYSH, "text"): "tables_keldysh.txt",
    (EXTENDED, "latex"): "tables.tex",
    # golden/ holds no Keldysh LaTeX table
}

TOL = 1e-8
CHECK_GRID = 4

# (structure, contour, {target: hand-derived row})
REFERENCE_ROWS = (
    ("convolution", EXTENDED, catalog.CONVOLUTION_ROWS),
    ("product", EXTENDED, catalog.PRODUCT_ROWS),
    ("double_triangle", EXTENDED, catalog.DOUBLE_TRIANGLE_ROWS),
    ("vertex", EXTENDED, catalog.VERTEX_ROWS),
    ("triangle", EXTENDED, {"1": catalog.TRIANGLE_ONE_EXTERNAL_ROW}),
    ("chain3", KELDYSH, {">": catalog.CHAIN3_GREATER_ROW}),
)


class Checks:
    """Tally of checks run; failures are reported on standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, fn):
        self.attempted += 1
        try:
            ok = bool(fn())
            detail = "" if ok else "check returned false"
        except Exception as err:  # a raising check is a failed check
            ok, detail = False, repr(err)
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return ok


def _rule(rules, st, tname, target):
    """The workload's own rule for a target when it has one, else a fresh
    derivation."""
    key = (st.name, st.eq.contour, tname)
    return rules[key] if key in rules else compiler.derive_rule(st.eq, target)


def reference_rows(checks: Checks, setup, rules):
    """Every corpus rule with a hand-derived catalog row equals it up to
    normal form."""
    for sname, contour, rows in REFERENCE_ROWS:
        st = setup.structures.get((sname, contour))
        if st is None:
            continue
        for tname, target in st.targets:
            if tname not in rows:
                continue
            checks.record(
                f"reference row {sname} {contour} {tname}",
                lambda: oracle.normal_form_equal(
                    _rule(rules, st, tname, target),
                    catalog.build_rule(st.eq, rows[tname]),
                    st.eq,
                ),
            )


def golden_tables(checks: Checks, tables):
    """``tables`` output equals golden/ byte for byte; a table of one
    structure is the start of the full file."""
    for (contour, fmt, only), text in tables:
        fname = GOLDEN_FILES.get((contour, fmt))
        if fname is None:
            continue
        golden = (GOLDEN / fname).read_text(encoding="utf-8")
        checks.record(
            f"golden {fname} only={only}",
            lambda: text == golden if only is None else golden.startswith(text),
        )


def _live_orderings(eq, target):
    """Orders of the horizontal externals (latest first) on which some
    external word of the target has a non-zero step prefactor and every
    such word has a contour placement."""
    mats = {str(l) for l in target.mats_labels()}
    horizontal = [l for l in eq.external if l not in mats]
    words = engine.expand_retarded(target.real_items())
    for omega in itertools.permutations(horizontal):
        times = {l: float(len(omega) - i) for i, l in enumerate(omega)}
        live = [
            tuple(str(l) for l in word)
            for _, chains, word in words
            if all(times[c[i]] > times[c[i + 1]] for c in chains for i in range(len(c) - 1))
        ]
        if live and all(
            len(w) <= 2 or oracle.placement_for_times(w, times) is not None for w in live
        ):
            yield omega


def _external_times(eq, target, omega, grid, rng):
    """Times decreasing along ``omega``, off the grid nodes and apart from
    each other; Matsubara externals get depths in (0, 1)."""
    span = grid.t_max - grid.t0
    for _ in range(100):
        draws = np.sort(rng.uniform(grid.t0 + 0.05 * span, grid.t_max - 0.05 * span, len(omega)))[::-1]
        off_nodes = all(np.min(np.abs(grid.real_nodes - t)) > 1e-6 for t in draws)
        if off_nodes and (len(draws) < 2 or np.min(-np.diff(draws)) > 1e-6):
            break
    else:
        raise RuntimeError("no tie-free external times in 100 draws")
    times = {l: float(t) for l, t in zip(omega, draws)}
    times.update({str(l): float(rng.uniform(0.05, 0.95)) for l in target.mats_labels()})
    return times


def _error(lhs, rhs) -> float:
    return float(abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs))))


def probe_rules(checks: Checks, setup, rules, probes, seed: int):
    """Every probe rule equals the direct discrete-contour sum within TOL
    at a small grid, on every live ordering of its externals.  The two
    sides are called directly, so three horizontal externals are covered."""
    grid = oracle.DiscreteContour(n_fwd=CHECK_GRID)
    for sname in probes:
        for contour in setup.spec.contours:
            st = setup.structures[(sname, contour)]
            tables = oracle.ComponentTable(st.eq, seed)
            rng = np.random.default_rng(seed)

            def agrees(target, rule):
                worst, n = 0.0, 0
                for omega in _live_orderings(st.eq, target):
                    times = _external_times(st.eq, target, omega, grid, rng)
                    lhs = oracle.evaluate_contour_side(st.eq, target, tables, grid, times)
                    rhs = oracle.evaluate_realtime_side(rule, st.eq, tables, grid, times)
                    worst, n = max(worst, _error(lhs, rhs)), n + 1
                return n > 0 and worst <= TOL

            for tname, target in st.targets:
                checks.record(
                    f"probe {sname} {contour} {tname} vs contour sum",
                    lambda: agrees(target, _rule(rules, st, tname, target)),
                )


def _constraint(term) -> int:
    """How much of the time domain a term is confined to: real integrals,
    step-chain labels and retarded items."""
    rets = sum(isinstance(i, Ret) for f in term.factors for i in f.index.items)
    return len(term.real_integrals) + sum(len(c) for c in term.steps) + rets


def corrupted_rules(checks: Checks, setup, rules, corruptions, seed: int):
    """The rule with one term dropped, and with that term's sign flipped,
    each get FAIL from the symbolic and from the numeric check.

    The corrupted term is the least confined one, so that it is non-zero
    on the small check grid whatever external times the seed draws."""
    for sname, contour, tname in corruptions:
        base = next(st for (n, _), st in setup.structures.items() if n == sname)
        eq = replace(base.eq, contour=contour)
        target = parser.parse_superindex(tname, eq)
        key = (sname, contour, tname)
        rule = rules[key] if key in rules else compiler.derive_rule(eq, target)
        terms = list(rule.terms)
        k = min(range(len(terms)), key=lambda i: _constraint(terms[i]))
        flipped = replace(terms[k], sign=-terms[k].sign)
        variants = {
            "dropped": terms[:k] + terms[k + 1:],
            "sign flipped": terms[:k] + [flipped] + terms[k + 1:],
        }
        for label, bad_terms in variants.items():

            def rejected():
                records = oracle.verify(
                    eq, target, target_name=tname, seeds=(seed,), grid_size=CHECK_GRID,
                    rule=RealTimeExpression(tuple(bad_terms)),
                )
                return all(not r.passed for r in records)

            checks.record(f"corrupted {sname} {contour} {tname}, term {k} {label}: rejected", rejected)
