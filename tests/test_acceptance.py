"""Acceptance criteria, one test per criterion, each printing a status line.

Every tolerance and time budget is fixed here; nothing is deferred to
later calibration.  The reference rows these tests compare against live in
``contourcalc.catalog`` and are themselves cross-checked against the
branch-splitting oracle.
"""

import functools
import math
import time
from pathlib import Path

from contourcalc import catalog
from contourcalc.combinatorics import commutator_words, linear_extensions
from contourcalc.compiler import component_of_product, derive_rule, emit
from contourcalc.engine import expand_retarded, representation
from contourcalc.ir import ContourEquation, SuperIndex, canonicalize, to_hacek
from contourcalc.oracle import (
    ComponentTable,
    DiscreteContour,
    branch_split_oracle,
    evaluate_contour_side,
    normal_form,
    normal_form_equal,
    verify,
)
from contourcalc.parser import parse_equation, parse_superindex

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def _keldysh(eq):
    return ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, "keldysh")


def _status(num, ok, detail, t0):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({time.time() - t0:.2f}s) {detail}"
    print(line)
    assert ok, line


def test_criterion_1_table1_reproduction():
    t0 = time.time()
    conv = catalog.convolution()
    prod = catalog.product_structure()
    golden = (GOLDEN / "tables.txt").read_text(encoding="utf-8").splitlines()

    emitted = {}
    for eq, rows in ((conv, catalog.CONVOLUTION_ROWS), (prod, catalog.PRODUCT_ROWS)):
        for name in catalog.all_targets(eq):
            rule = derive_rule(eq, parse_superindex(name, eq))
            line = f"{eq.lhs_name}^{{{name}}} = " + emit(rule, "text", "langreth")
            emitted[(eq.lhs_name, id(eq), name)] = line
            assert line in golden, f"missing golden row: {line}"
            # normal-form match against the reference form of the row
            ref = catalog.build_rule(eq, rows[name])
            assert normal_form_equal(rule, ref, eq), (eq.lhs_name, name)
    assert len(emitted) == 14

    # where two bracketed alternatives are listed, both test equal
    for kind in ("R", "A"):
        rule = derive_rule(prod, parse_superindex(kind, prod))
        for rows in (catalog.PRODUCT_ROWS, catalog.PRODUCT_ALT_ROWS):
            assert normal_form_equal(rule, catalog.build_rule(prod, rows[kind]), prod)

    ok = time.time() - t0 < 1.0
    _status(1, ok, "14 rules, golden strings, both bracket alternatives", t0)


def test_criterion_2_chain_rule():
    t0 = time.time()
    eq = _keldysh(catalog.chain3())
    rule = derive_rule(eq, parse_superindex(">", eq))
    expected = canonicalize(catalog.build_rule(eq, catalog.CHAIN3_GREATER_ROW))
    exact = rule == expected
    three_terms = len(rule.terms) == 3
    ok = exact and three_terms and (time.time() - t0 < 1.0)
    _status(2, ok, "three-term chain rule, canonical form", t0)


def test_criterion_3_double_triangle_table():
    t0 = time.time()
    eq = catalog.double_triangle()
    for name, row in catalog.DOUBLE_TRIANGLE_ROWS.items():
        rule = derive_rule(eq, parse_superindex(name, eq))
        assert normal_form_equal(rule, catalog.build_rule(eq, row), eq), name

    tri = catalog.triangle_one()
    rule = derive_rule(tri, parse_superindex("1", tri))
    assert normal_form_equal(
        rule, catalog.build_rule(tri, catalog.TRIANGLE_ONE_EXTERNAL_ROW), tri
    )
    # the fully retarded triangle block: both listed forms test equal
    form1 = catalog.build_rule(tri, catalog.TRIANGLE_FORM_1)
    form2 = catalog.build_rule(tri, catalog.TRIANGLE_FORM_2)
    assert normal_form_equal(form1, form2, tri)
    tri_k = _keldysh(tri)
    retarded_block = derive_rule(tri_k, parse_superindex("1", tri_k))
    assert normal_form_equal(retarded_block, form1, tri_k)

    ok = time.time() - t0 < 10.0
    _status(3, ok, "7 double-triangle rows + triangle row, both retarded forms", t0)


def test_criterion_4_vertex_table():
    t0 = time.time()
    eq = catalog.vertex()
    for name, row in catalog.VERTEX_ROWS.items():
        rule = derive_rule(eq, parse_superindex(name, eq))
        assert normal_form_equal(rule, catalog.build_rule(eq, row), eq), name
    ok = time.time() - t0 < 10.0
    _status(4, ok, "7 vertex rows up to normal form", t0)


def test_criterion_5_worked_example_parity():
    t0 = time.time()
    four = parse_equation("D[a,d] = int{b,c} : Dbar[a,b,c,d]")
    four_k = _keldysh(four)
    args = four.product[0].args

    def hacek_strings(eq, target):
        terms = representation(eq, parse_superindex(target, eq))
        return [str(to_hacek(rt.index, args)) for rt in terms]

    assert hacek_strings(four_k, "12") == [
        "R(1,23)4", "R(1,2)R(4,3)", "R(1,3)R(4,2)", "1R(4,23)",
    ]
    assert sorted(hacek_strings(four_k, "21")) == sorted(
        ["4R(1,23)", "R(4,3)R(1,2)", "R(4,2)R(1,3)", "R(4,23)1"]
    )

    seven = parse_equation("E[a,b,c,d,e] = int{f,g} : Ebar[a,b,c,d,e,f,g]", contour="keldysh")
    terms = representation(seven, parse_superindex("R(a,b)R(c,de)", seven))
    got = [str(to_hacek(rt.index, seven.product[0].args)) for rt in terms]
    assert got == [
        "R(1,267)R(3,45)", "R(1,26)R(3,457)", "R(1,27)R(3,456)", "R(1,2)R(3,4567)",
    ]
    _status(5, True, "component and composition representations term-for-term", t0)


def test_criterion_6_combinatorial_counts():
    t0 = time.time()

    def shuffles(m, k, rev):
        front = tuple(range(k, 0, -1)) if rev else tuple(range(1, k + 1))
        return linear_extensions(tuple(range(1, m + 1)), (front, tuple(range(k + 1, m + 1))))

    def nested_commutator(items):
        return functools.reduce(
            lambda words, item: commutator_words(words, [(1, (item,))]),
            items[1:],
            [(1, (items[0],))],
        )

    def signed_sum(words):
        out = {}
        for s, w in words:
            out[w] = out.get(w, 0) + s
        return {w: c for w, c in out.items() if c}

    for m in range(0, 9):
        for k in range(0, m + 1):
            for rev in (False, True):
                assert len(shuffles(m, k, rev)) == math.comb(m, k)
    for n in range(1, 9):
        items = tuple(range(n))
        words = nested_commutator(items)
        assert len(words) == 2 ** (n - 1)
        for k in range(0, n):
            part = [(s, w) for s, w in words if w.index(0) == k]
            assert len(part) == math.comb(n - 1, k)
            assert all(s == (-1) ** k for s, _ in part)
            # the slice is the inverses of the reversed-front shuffles
            orders = {tuple(v for v in w if v != 0) for _, w in part}
            inverses = {
                tuple(p.index(v) + 1 for v in range(1, n)) for p in shuffles(n - 1, k, True)
            }
            assert orders == inverses
        # the slices partition the commutator: their C(n-1, k) words add up
        # to its 2**(n-1), and no two words cancel
        assert len(signed_sum(words)) == len(words)

    # Jacobi identity over formal words
    A, B, C = [(1, ("A",))], [(1, ("B",))], [(1, ("C",))]
    total = []
    for x, y, z in ((A, B, C), (C, A, B), (B, C, A)):
        total += commutator_words(commutator_words(x, y), z)
    assert signed_sum(total) == {}

    # insertion: [1..i, x, i+1..n] is the sum over j <= i of the
    # commutators of 1..n with [j, x] in place of j
    for n in range(1, 6):
        for i in range(1, n + 1):
            lhs = nested_commutator(tuple(range(1, i + 1)) + ("x",) + tuple(range(i + 1, n + 1)))
            rhs = []
            for j in range(1, i + 1):
                fused = [[(1, (v,))] if v != j else [(1, (j, "x")), (-1, ("x", j))]
                         for v in range(1, n + 1)]
                rhs += functools.reduce(commutator_words, fused[1:], fused[0])
            assert signed_sum(lhs) == signed_sum(rhs), (n, i)
    _status(6, True, "shuffle/commutator counts, slices and the Jacobi and insertion identities", t0)


def test_criterion_7_oracle_equivalence_full_corpus():
    t0 = time.time()
    worst = 0.0
    for name in ("convolution", "product", "chain3", "double_triangle", "vertex"):
        eq = catalog.CORPUS[name]()
        for tname in catalog.all_targets(eq):
            target = parse_superindex(tname, eq)
            rule = derive_rule(eq, target)
            assert normal_form_equal(branch_split_oracle(eq, target), rule, eq), (name, tname)
            records = verify(
                eq, target, target_name=tname, seeds=(0, 1, 2), grid_size=24,
                tol=1e-8, rule=rule,
            )
            for rec in records:
                assert rec.passed, (name, tname, rec.mode, rec.seed, rec.max_error)
                worst = max(worst, rec.max_error)
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    _status(7, ok, f"35 targets symbolic+numeric, worst error {worst:.2e}", t0)


def test_criterion_8_structural_zero():
    t0 = time.time()
    worst = 0.0
    # the cancellation is node-wise exact, so the grid size is immaterial;
    # keep the four-point mesh small
    for labels, n in (("a,b", 20), ("a,b,c", 20), ("a,b,c,d", 10)):
        grid = DiscreteContour(n_fwd=n)
        eq = parse_equation(f"Z[] = int{{{labels}}} : O[{labels}]", contour="keldysh")
        for seed in (0, 1):
            tables = ComponentTable(eq, seed=seed)
            val, scale = evaluate_contour_side(
                eq, SuperIndex(()), tables, grid, {}, with_scale=True
            )
            worst = max(worst, abs(val) / scale)
    ok = worst < 1e-10
    _status(8, ok, f"full contour integrals vanish, worst ratio {worst:.2e}", t0)


def test_criterion_9_vanishing_soundness():
    t0 = time.time()
    checked = 0
    for name in ("convolution", "product", "chain3", "double_triangle", "vertex"):
        eq = catalog.CORPUS[name]()
        for tname in catalog.all_targets(eq):
            dropped = []
            derive_rule(eq, parse_superindex(tname, eq), dropped=dropped)
            for funcs, items in dropped:
                acc = {}
                for sign, chains, word in expand_retarded(items):
                    key = (chains, component_of_product(funcs, word))
                    acc[key] = acc.get(key, 0) + sign
                assert all(v == 0 for v in acc.values()), (name, tname)
                checked += 1
    _status(9, True, f"{checked} discarded blocks expand to the empty normal form", t0)
