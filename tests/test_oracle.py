"""Branch-splitting oracle, normal forms, and the discrete-contour evaluators."""

import ast
import dataclasses
import gc
import itertools
import json
import os
import pickle
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from contourcalc import catalog, oracle
from contourcalc.combinatorics import ForeignLabel
from contourcalc.compiler import derive_rule
from contourcalc.engine import expand_retarded
from contourcalc.ir import (
    ContourEquation,
    CoverError,
    RealTimeExpression,
    RealTimeTerm,
    SubFunction,
    SuperIndex,
    canonicalize,
    to_hacek,
)
from contourcalc.oracle import (
    BWD,
    FWD,
    MAT,
    SAMPLE_ATTEMPTS,
    ComponentTable,
    DiscreteContour,
    GridTieError,
    UnknownComponent,
    _sample_times,
    branch_count,
    branch_split_oracle,
    evaluate_contour_batch,
    evaluate_contour_side,
    evaluate_realtime_batch,
    evaluate_realtime_side,
    normal_form,
    normal_form_equal,
    placement_for_times,
    verify,
)
from contourcalc.parser import EquationSyntaxError, parse_equation, parse_superindex


def _keldysh(eq):
    return ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, "keldysh")


def _flip_one_sign(expr: RealTimeExpression, k: int = 0) -> RealTimeExpression:
    t = expr.terms[k]
    flipped = RealTimeTerm(-t.sign, t.steps, t.factors, t.real_integrals, t.imag_integrals)
    return RealTimeExpression(expr.terms[:k] + (flipped,) + expr.terms[k + 1:])


CONV = catalog.convolution()
PROD = catalog.product_structure()


def test_branch_split_matches_convolution_rule():
    target = parse_superindex(">", CONV)
    assert normal_form_equal(branch_split_oracle(CONV, target), derive_rule(CONV, target), CONV)


def test_branch_split_product_greater():
    target = parse_superindex(">", PROD)
    nf = normal_form(branch_split_oracle(PROD, target), PROD)
    assert len(nf) == 2  # A^> B^< on each external ordering
    for (m_placed, imag, omega, factors), coeff in nf.items():
        assert coeff == 1 and not m_placed
        # A^> B^<: with B's arguments (b, a), its lesser component renders
        # with a later, i.e. as the word (a, b)
        assert sorted(str(f) for f in factors) == ["A^{ab}", "B^{ab}"]


def _contour_word(real_order, branch):
    """Contour-descending order of the real labels that have a branch:
    ``real_order`` lists labels by descending real time, and the backward
    branch is later than the forward one and runs back toward t0."""
    bwd = [l for l in real_order if branch.get(l) == BWD]
    fwd = [l for l in real_order if branch.get(l) == FWD]
    return tuple(reversed(bwd)) + tuple(fwd)


@pytest.mark.parametrize("n", range(4))
def test_placement_for_times_against_every_assignment(n):
    labels = "abc"[:n]
    for word in itertools.permutations(labels):
        found = set()
        for order in itertools.permutations(labels):  # latest first
            times = {l: float(n - i) for i, l in enumerate(order)}
            realisable = any(
                _contour_word(order, dict(zip(word, branches))) == word
                for branches in itertools.product((FWD, BWD), repeat=n)
            )
            placement = placement_for_times(word, times)
            assert (placement is None) == (not realisable), (word, order)
            if placement is not None:
                assert _contour_word(order, placement) == word
                found.add(tuple(placement[l] for l in word))
        if n <= 2:
            # one placement for every order of the times
            assert found == {{0: (), 1: (FWD,), 2: (BWD, FWD)}[n]}


def test_branch_split_counts():
    assert branch_count(_keldysh(catalog.chain3())) == 4
    assert branch_count(catalog.chain3()) == 9
    assert branch_count(CONV) == 3


def test_normal_form_equal_product_brace_alternatives():
    for kind in ("R", "A"):
        main = catalog.build_rule(PROD, catalog.PRODUCT_ROWS[kind])
        alt = catalog.build_rule(PROD, catalog.PRODUCT_ALT_ROWS[kind])
        assert normal_form_equal(main, alt, PROD)
        assert normal_form_equal(derive_rule(PROD, parse_superindex(kind, PROD)), main, PROD)


def test_normal_form_equal_triangle_brace_alternatives():
    eq = catalog.triangle_one()
    f1 = catalog.build_rule(eq, catalog.TRIANGLE_FORM_1)
    f2 = catalog.build_rule(eq, catalog.TRIANGLE_FORM_2)
    assert normal_form_equal(f1, f2, eq)


def test_normal_form_detects_sign_flip():
    target = parse_superindex(">", CONV)
    rule = derive_rule(CONV, target)
    assert not normal_form_equal(rule, _flip_one_sign(rule), CONV)


def test_vanished_terms_have_empty_normal_form():
    # every block discarded by the disconnected-set rule expands to nothing
    from contourcalc.compiler import component_of_product
    from contourcalc.engine import expand_retarded

    for name in ("chain3", "double_triangle", "vertex"):
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


# ---------------------------------------------------------------------------
# numeric


def test_grid_rejects_external_on_node():
    grid = DiscreteContour(n_fwd=8)
    (label,) = CONV.internal
    for node in (grid.real_nodes[3], grid.label_nodes(label)[3]):
        with pytest.raises(GridTieError):
            evaluate_contour_side(
                CONV, parse_superindex(">", CONV), ComponentTable(CONV, 0), grid,
                {"a": float(node), "b": 0.123},
            )


# one function of all the labels, as in the paper's worked examples
FOUR_POINT = "D[a,d] = int{b,c} : Dbar[a,b,c,d]"
SEVEN_POINT = "E[a,b,c,d,e] = int{f,g} : Ebar[a,b,c,d,e,f,g]"


def test_internal_labels_have_disjoint_nodes_inside_the_grid():
    # the numeric sums have no tie to leave out only because no two internal
    # labels share a real node
    equations = [make() for make in catalog.CORPUS.values()]
    equations += [
        parse_equation(src)
        for src in (FOUR_POINT, SEVEN_POINT, SELF_ENERGY, CHAIN4, LADDER, THREE_EXTERNAL)
    ]
    for eq in equations:
        for n in range(2, 25):
            grid = DiscreteContour(t0=0.5, t_max=2.5, n_fwd=n)
            nodes = [grid.label_nodes(l) for l in eq.internal]
            together = np.concatenate(nodes) if nodes else np.empty(0)
            assert len(np.unique(together)) == n * len(eq.internal), (str(eq), n)
            assert np.all((grid.t0 < together) & (together < grid.t_max)), (str(eq), n)


def test_matsubara_components_symmetric():
    eq = catalog.double_triangle()
    tables = ComponentTable(eq, seed=5)
    t1, t2 = 0.3, 0.8
    v1 = tables.component("C", frozenset({1, 2}), (), [t1, t2])
    v2 = tables.component("C", frozenset({1, 2}), (), [t2, t1])
    assert v1 == pytest.approx(v2)


def test_numeric_convolution_exact_to_rounding():
    grid = DiscreteContour(n_fwd=24)
    target = parse_superindex(">", CONV)
    rule = derive_rule(CONV, target)
    for seed in range(5):
        tables = ComponentTable(CONV, seed)
        for times in ({"a": 1.31, "b": 0.52}, {"a": 0.52, "b": 1.31}):
            lhs = evaluate_contour_side(CONV, target, tables, grid, times)
            rhs = evaluate_realtime_side(rule, CONV, tables, grid, times)
            assert abs(lhs - rhs) <= 1e-8 * (1 + max(abs(lhs), abs(rhs)))


def test_numeric_detects_corrupted_rule():
    grid = DiscreteContour(n_fwd=16)
    target = parse_superindex(">", CONV)
    rule = _flip_one_sign(derive_rule(CONV, target))
    tables = ComponentTable(CONV, 0)
    times = {"a": 1.31, "b": 0.52}
    lhs = evaluate_contour_side(CONV, target, tables, grid, times)
    rhs = evaluate_realtime_side(rule, CONV, tables, grid, times)
    assert abs(lhs - rhs) > 1e-6


def test_total_contour_integral_vanishes():
    grid = DiscreteContour(n_fwd=20)
    for labels in ("a,b", "a,b,c", "a,b,c,d"):
        eq = parse_equation(f"Z[] = int{{{labels}}} : O[{labels}]", contour="keldysh")
        tables = ComponentTable(eq, seed=3)
        val, scale = evaluate_contour_side(
            eq, SuperIndex(()), tables, grid, {}, with_scale=True
        )
        assert abs(val) < 1e-10 * scale


def test_unknown_branch_names_are_refused():
    # a branch is looked up in the branch table, so a name it does not hold
    # (a typo, or "M" for a horizontal external) is refused rather than
    # evaluated on the vertical branch
    grid = DiscreteContour(n_fwd=8)
    target = parse_superindex(">", CONV)
    tables = ComponentTable(CONV, 0)
    times = {"a": 1.31, "b": 0.52}
    default = evaluate_contour_side(CONV, target, tables, grid, times)
    # the default places a on B, so naming that branch changes nothing
    assert default == evaluate_contour_side(
        CONV, target, tables, grid, times, branch_override={"a": BWD}
    )
    for name in ("f", "X", MAT):
        with pytest.raises(ValueError, match="names no horizontal branch"):
            evaluate_contour_side(CONV, target, tables, grid, times, branch_override={"a": name})
    with pytest.raises(KeyError):
        grid.contour_key("Q", 1.0)
    with pytest.raises(KeyError):
        oracle._contour_orders((FWD, "X"))
    assert grid.contour_key(MAT, 1.0) == 5 * grid.t_max + 1.0


def test_override_of_a_label_that_is_no_horizontal_external_is_refused():
    # an override key must be a horizontal external of the target: an
    # unknown label, an internal or a Matsubara external is refused rather
    # than ignored
    grid = DiscreteContour(n_fwd=8)
    target = parse_superindex(">", CONV)
    tables = ComponentTable(CONV, 0)
    times = {"a": 1.31, "b": 0.52}
    for override in ({"z": FWD}, {"c": BWD}, {"a": BWD, "c": BWD}):
        with pytest.raises(ValueError, match="names no horizontal external"):
            evaluate_contour_side(CONV, target, tables, grid, times, branch_override=override)
        with pytest.raises(ValueError, match="names no horizontal external"):
            evaluate_contour_batch(CONV, target, (tables,), grid, (times,), override)
    mixed = parse_superindex("rc", CONV)
    with pytest.raises(ValueError, match="names no horizontal external"):
        evaluate_contour_side(CONV, mixed, tables, grid, {"a": 1.31, "b": 0.3}, {"b": FWD})
    value = evaluate_contour_side(CONV, mixed, tables, grid, {"a": 1.31, "b": 0.3}, {"a": FWD})
    assert np.isfinite(value)


def test_largest_time_branch_flip_symmetry():
    grid = DiscreteContour(n_fwd=16)
    eq = _keldysh(catalog.chain3())
    target = parse_superindex(">", eq)
    tables = ComponentTable(eq, seed=2)
    times = {"a": 1.7321, "b": 0.61}  # a is the latest external
    base = evaluate_contour_side(eq, target, tables, grid, times)
    flipped = evaluate_contour_side(
        eq, target, tables, grid, times, branch_override={"a": "F"}
    )
    scale = max(abs(base), 1.0)
    assert abs(base - flipped) < 1e-12 * scale


def test_contour_truncation():
    grid = DiscreteContour(n_fwd=16)
    eq = _keldysh(catalog.chain3())
    target = parse_superindex(">", eq)
    tables = ComponentTable(eq, seed=2)
    times = {"a": 1.7321, "b": 0.61}
    base = evaluate_contour_side(eq, target, tables, grid, times)
    trunc = evaluate_contour_side(eq, target, tables, grid, times, truncate_at=times["a"])
    assert abs(base - trunc) < 1e-10 * max(abs(base), 1.0)


def test_verify_passes_and_fails():
    target = parse_superindex(">", CONV)
    records = verify(CONV, target, seeds=(0, 1), grid_size=12)
    assert all(r.passed for r in records)
    bad = verify(
        CONV, target, seeds=(0,), grid_size=12,
        rule=_flip_one_sign(derive_rule(CONV, target)),
    )
    assert any(not r.passed for r in bad)
    # an impossible tolerance fails on float rounding
    zero_tol = verify(CONV, target, seeds=(0,), grid_size=12, tol=0.0)
    numeric = [r for r in zero_tol if r.mode == "numeric"]
    assert numeric and not all(r.passed for r in numeric)


def test_verify_refuses_a_position_labelled_target():
    target = to_hacek(parse_superindex("R", CONV), CONV.external)
    with pytest.raises(CoverError):
        verify(CONV, target, seeds=(0,), grid_size=8)


def test_unknown_component_raises():
    tables = ComponentTable(CONV, 0)
    with pytest.raises(UnknownComponent):
        tables.component("Z", frozenset(), (1, 2), [0.1, 0.2])


def test_normal_form_rejects_foreign_factors():
    from contourcalc.oracle import NotFullyExpanded

    other = catalog.vertex()
    rule = derive_rule(other, parse_superindex("M", other))
    with pytest.raises(NotFullyExpanded):
        normal_form(rule, CONV)


@pytest.mark.parametrize("seeds", [(), (0,)])
def test_verify_records_a_foreign_factor_as_a_failure(seeds):
    # failures are records, not exceptions: a rule with a factor that the
    # equation does not carry fails its symbolic record with the error text
    other = parse_equation("D[a,b] = int{c} : A[a,c]*Q[c,b]", CONV.contour)
    rule = derive_rule(other, parse_superindex(">", other))
    symbolic, *numeric = verify(CONV, parse_superindex(">", CONV), seeds=seeds, grid_size=8, rule=rule)
    assert symbolic.mode == "symbolic" and not symbolic.passed
    assert symbolic.max_error == float("inf")
    assert symbolic.detail.startswith("factor Q") and "does not belong to D" in symbolic.detail
    assert [r.seed for r in numeric] == list(seeds)
    assert not any(r.passed for r in numeric)


def test_verify_records_a_malformed_rule_as_a_failure():
    # the extended convolution >, with A^{M(c)a} of the vertical term swapped
    # for the A^{R(a,c)} of a real term: c is integrated on the vertical
    # branch but sits in a real retarded slot, so the step chain (a, c)
    # leaves the real labels; that fails the symbolic record and every
    # seed, and raises nothing
    target = parse_superindex(">", CONV)
    real, retarded, vertical = derive_rule(CONV, target).terms
    assert vertical.imag_integrals == {"c"} and str(retarded.factors[0]) == "A^{R(a,c)}"
    swapped = dataclasses.replace(vertical, factors=(retarded.factors[0], vertical.factors[1]))
    rule = RealTimeExpression((real, retarded, swapped))
    with pytest.raises(ForeignLabel):
        oracle.signed_count(CONV, target, rule, ())
    symbolic, *numeric = verify(CONV, target, rule=rule)
    assert not symbolic.passed and symbolic.max_error == float("inf")
    assert "leaves the labels" in symbolic.detail
    assert [r.seed for r in numeric] == [0, 1, 2]
    assert not any(r.passed for r in numeric)


def test_keldysh_rule_is_the_horizontal_part_of_the_extended_rule():
    # the Keldysh contour is the extended one without its vertical branch:
    # each Keldysh rule is the extended rule's terms with no vertical label
    checked = 0
    for make in catalog.CORPUS.values():
        extended = make()
        keldysh = _keldysh(extended)
        for tname in catalog.all_targets(keldysh):
            horizontal = [
                t for t in derive_rule(extended, parse_superindex(tname, extended)).terms
                if not t.imag_integrals and not any(f.index.mats_labels() for f in t.factors)
            ]
            kel = derive_rule(keldysh, parse_superindex(tname, keldysh))
            assert canonicalize(kel) == canonicalize(RealTimeExpression(tuple(horizontal))), (
                str(extended), tname
            )
            checked += 1
    assert checked == 21


def test_branch_split_all_matsubara_on_keldysh_is_empty():
    # no horizontal placements survive: the forward and backward copies of
    # every internal cancel, leaving no real integrals at all
    eq = ContourEquation(CONV.lhs_name, CONV.external, CONV.internal, CONV.product, "keldysh")
    target = parse_superindex("M", CONV)
    nf = normal_form(branch_split_oracle(eq, target), eq)
    assert nf == {}
    assert normal_form_equal(branch_split_oracle(eq, target), derive_rule(eq, target), eq)


def test_component_table_values_do_not_depend_on_order_of_use():
    # each component is drawn on first use from its own seeded stream
    eq = catalog.vertex()
    keys = [
        (f.name, frozenset(msub), perm)
        for f in eq.product
        for k in range(len(f.args) + 1)
        for msub in itertools.combinations(range(1, len(f.args) + 1), k)
        for perm in itertools.permutations(
            [p for p in range(1, len(f.args) + 1) if p not in msub]
        )
    ]
    forward, backward = ComponentTable(eq, 3), ComponentTable(eq, 3)
    times = {key: [0.1 + 0.2 * i for i in range(len(key[2]) + len(key[1]))] for key in keys}
    values = {key: forward.component(*key, times[key]) for key in keys}
    assert {key: backward.component(*key, times[key]) for key in reversed(keys)} == values
    assert ComponentTable(eq, 4).component(*keys[0], times[keys[0]]) != values[keys[0]]
    # an order or a vertical slot that the function does not have
    for bad in [
        ("A", frozenset(), (1, 1)),
        ("A", frozenset({3}), (1, 2)),
        ("C", frozenset(), (1, 2)),
    ]:
        with pytest.raises(UnknownComponent):
            forward.component(*bad, [0.3, 0.7, 0.5])


def test_nonzero_origin_grid():
    grid = DiscreteContour(t0=0.5, t_max=2.5, n_fwd=12)
    target = parse_superindex(">", CONV)
    rule = derive_rule(CONV, target)
    tables = ComponentTable(CONV, 4)
    times = {"a": 2.1313, "b": 0.8111}
    lhs = evaluate_contour_side(CONV, target, tables, grid, times)
    rhs = evaluate_realtime_side(rule, CONV, tables, grid, times)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
    with pytest.raises(ValueError):
        DiscreteContour(t0=-1.0, t_max=1.0)


# ---------------------------------------------------------------------------
# repeated sub-function names

SELF_ENERGY = "S[a,b] = int{c,d} : G[a,c]*G[c,d]*G[d,b]"
CHAIN4 = "G[a,b] = int{c,d,e,f} : A[a,c]*B[c,d]*C[d,e]*D[e,f]*E[f,b]"
LADDER = "G[a,b] = int{c,d,e,f} : A[a,c]*B[a,d]*C[c,d]*D[c,e]*E[d,f]*F[e,f]*H[e,b]*K[f,b]"


@pytest.mark.parametrize("contour", ["extended", "keldysh"])
def test_repeated_names_verify_every_target(contour):
    eq = parse_equation(SELF_ENERGY, contour=contour)
    targets = catalog.all_targets(eq)
    assert len(targets) == (7 if contour == "extended" else 4)
    for name in targets:
        records = verify(eq, parse_superindex(name, eq), target_name=name, grid_size=8)
        assert all(r.passed for r in records), (name, records)


def test_repeated_names_corrupted_rule_fails():
    eq = parse_equation(SELF_ENERGY)
    target = parse_superindex(">", eq)
    bad = verify(eq, target, seeds=(0,), grid_size=8, rule=_flip_one_sign(derive_rule(eq, target)))
    assert not any(r.passed for r in bad)


@pytest.mark.parametrize("contour", ["extended", "keldysh"])
def test_numeric_check_rejects_every_sign_flip_of_chain4(contour):
    # 15 terms on the extended contour and 5 on Keldysh; the numeric
    # records alone, at a small grid and one seed, catch every flip
    eq = parse_equation(CHAIN4, contour=contour)
    target = parse_superindex(">", eq)
    rule = derive_rule(eq, target)
    assert len(rule.terms) == (15 if contour == "extended" else 5)
    for k in range(len(rule.terms)):
        records = verify(eq, target, seeds=(1,), grid_size=6, rule=_flip_one_sign(rule, k))
        (numeric,) = [r for r in records if r.mode == "numeric"]
        assert not numeric.passed, k


def test_repeated_name_with_two_arities_is_refused():
    # the parser refuses this equation; a hand-built one reaches the tables
    with pytest.raises(EquationSyntaxError, match="ArityMismatch"):
        parse_equation("S[a,b] = int{c} : G[a,c]*G[c]*G[c,b]")
    product = (SubFunction("G", ("a", "c")), SubFunction("G", ("c",)), SubFunction("G", ("c", "b")))
    eq = ContourEquation("S", ("a", "b"), ("c",), product)
    with pytest.raises(UnknownComponent, match="G"):
        ComponentTable(eq, 0)


# ---------------------------------------------------------------------------
# three horizontal externals

THREE_EXTERNAL = "X[a,b,c] = int{u,v} : A[a,u]*B[u,b]*C[u,v]*D[v,c]"


@pytest.mark.parametrize("contour", ["extended", "keldysh"])
def test_three_horizontal_externals_pass_symbolically(contour):
    eq = parse_equation(THREE_EXTERNAL, contour=contour)
    targets = catalog.all_targets(eq)
    assert len(targets) == (19 if contour == "extended" else 9)
    for name in targets:
        (record,) = verify(eq, parse_superindex(name, eq), target_name=name, seeds=())
        assert record.mode == "symbolic" and record.passed, name


def test_branch_split_skips_orders_without_placement():
    eq = parse_equation(THREE_EXTERNAL)
    split = branch_split_oracle(eq, parse_superindex("123", eq))
    orders = {tuple(l for l in term.steps[0] if l in "abc") for term in split}
    # the contour word a, b, c has no placement where b is earliest
    assert orders == set(itertools.permutations("abc")) - {("a", "c", "b"), ("c", "a", "b")}


_SPLIT_TERMS = """
import pickle, sys
from contourcalc import catalog
from contourcalc.oracle import branch_split_oracle
from contourcalc.parser import parse_superindex
eq = catalog.double_triangle()
sys.stdout.buffer.write(pickle.dumps(branch_split_oracle(eq, parse_superindex(">", eq)).terms))
"""


def test_branch_split_term_order_independent_of_hash_seed():
    # the terms hold frozensets, whose iteration order follows the string
    # hash salt; the order of the terms themselves must not
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for seed in ("0", "2"):
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", _SPLIT_TERMS], env=env, capture_output=True, check=True
        )
        runs.append(pickle.loads(proc.stdout))
    assert len(runs[0]) == 66
    assert runs[0] == runs[1]


def test_three_horizontal_externals_sign_flip_fails_symbolically():
    eq = parse_equation(THREE_EXTERNAL)
    target = parse_superindex("123", eq)
    rule = derive_rule(eq, target)
    assert len(rule.terms) > 1
    for k in range(len(rule.terms)):
        (record,) = verify(eq, target, seeds=(), rule=_flip_one_sign(rule, k))
        assert not record.passed, k


# ---------------------------------------------------------------------------
# verify driver robustness


class _OnNodeGenerator:
    """Stands in for a numpy generator and always draws one grid node."""

    def __init__(self, node):
        self.node = node
        self.calls = 0

    def uniform(self, low, high, size=None):
        self.calls += 1
        return np.full(size, self.node)


def test_sample_times_gives_up_after_bounded_draws():
    grid = DiscreteContour(n_fwd=8)
    (label,) = CONV.internal
    for node in (grid.real_nodes[3], grid.label_nodes(label)[3]):
        rng = _OnNodeGenerator(float(node))
        with pytest.raises(GridTieError):
            _sample_times(CONV, parse_superindex(">", CONV), ("a", "b"), grid, rng)
        assert rng.calls == SAMPLE_ATTEMPTS


# ---------------------------------------------------------------------------
# contour side against a literal per-point sum


def _literal_contour_sum(eq, tables, grid, ext_kinds, ext_times, truncate_at=None):
    """Sum over every branch, every node and, at each point, the one
    contour order of each function's arguments; returns (value, scale)."""
    span = grid.t_max

    def contour_time(kind, t):  # increasing along the contour
        return t if kind == "F" else 2 * span - t

    branches = ["F", "B"] + (["M"] if eq.contour == "extended" else [])
    total, scale = 0j, 0.0
    for assign in itertools.product(branches, repeat=len(eq.internal)):
        nodes = [
            list(zip(grid.mats_nodes, grid.mats_weights)) if b == "M"
            else list(zip(grid.label_nodes(label), grid.real_weights))
            for label, b in zip(eq.internal, assign)
        ]
        for point in itertools.product(*nodes):
            kinds, times = dict(ext_kinds), dict(ext_times)
            factor, weight, real_times = 1 + 0j, 1.0, []
            for label, b, (t, w) in zip(eq.internal, assign, point):
                kinds[label], times[label] = b, float(t)
                weight *= w
                if b == "M":
                    factor *= -1j
                else:
                    real_times.append(float(t))
                    factor *= -1 if b == "B" else 1
            assert len(set(real_times)) == len(real_times), "two internals on one real node"
            if truncate_at is not None and any(t > truncate_at for t in real_times):
                continue
            value = 1 + 0j
            for f in eq.product:
                mset = frozenset(i + 1 for i, a in enumerate(f.args) if kinds[a] == "M")
                horizontal = [i + 1 for i, a in enumerate(f.args) if kinds[a] != "M"]
                korder = tuple(sorted(
                    horizontal,
                    key=lambda i: -contour_time(kinds[f.args[i - 1]], times[f.args[i - 1]]),
                ))
                value *= tables.component(f.name, mset, korder, [times[a] for a in f.args])
            total += factor * weight * value
            scale += weight * abs(value)
    return total, scale


# (equation, target, external branches, external times, options)
LITERAL_CASES = [
    (CONV, ">", {"a": "B", "b": "F"}, {"a": 1.31, "b": 0.52}, {}),
    (CONV, ">", {"a": "B", "b": "F"}, {"a": 0.52, "b": 1.31}, {"truncate_at": 1.0}),
    (CONV, "rc", {"a": "F", "b": "M"}, {"a": 0.77, "b": 0.35}, {}),
    (_keldysh(catalog.chain3()), ">", {"a": "B", "b": "F"}, {"a": 1.7321, "b": 0.61}, {}),
    (
        _keldysh(catalog.chain3()), ">", {"a": "F", "b": "F"}, {"a": 1.7321, "b": 0.61},
        {"branch_override": {"a": "F"}},
    ),
    (  # moves b past a on the contour, so the value changes
        _keldysh(catalog.chain3()), ">", {"a": "B", "b": "B"}, {"a": 1.7321, "b": 0.61},
        {"branch_override": {"b": "B"}},
    ),
    (
        _keldysh(catalog.chain3()), ">", {"a": "B", "b": "F"}, {"a": 0.61, "b": 1.7321},
        {"truncate_at": 1.2},
    ),
    (catalog.double_triangle(), ">", {"a": "B", "b": "F"}, {"a": 1.31, "b": 0.52}, {}),
    (catalog.double_triangle(), "lc", {"a": "M", "b": "F"}, {"a": 0.4, "b": 1.13}, {}),
    (parse_equation(SELF_ENERGY), ">", {"a": "B", "b": "F"}, {"a": 0.52, "b": 1.31}, {}),
    # three and four internals, so that up to four labels are compared on
    # one branch; a "grid" entry sets the nodes per branch (3 otherwise)
    (parse_equation(CHAIN4), ">", {"a": "B", "b": "F"}, {"a": 1.31, "b": 0.52}, {}),
    (
        parse_equation(CHAIN4), ">", {"a": "B", "b": "F"}, {"a": 0.52, "b": 1.31},
        {"truncate_at": 1.0},
    ),
    (parse_equation(CHAIN4), "rc", {"a": "F", "b": "M"}, {"a": 0.77, "b": 0.35}, {}),
    (
        parse_equation(CHAIN4, contour="keldysh"), ">", {"a": "F", "b": "F"},
        {"a": 1.7321, "b": 0.61}, {"branch_override": {"a": "F"}, "grid": 4},
    ),
    (
        parse_equation(CHAIN4, contour="keldysh"), "<", {"a": "F", "b": "B"},
        {"a": 0.61, "b": 1.7321}, {"truncate_at": 1.5, "grid": 5},
    ),
    (
        parse_equation(LADDER, contour="keldysh"), ">", {"a": "B", "b": "F"},
        {"a": 1.31, "b": 0.52}, {"grid": 4},
    ),
    (
        parse_equation(LADDER, contour="keldysh"), ">", {"a": "B", "b": "B"},
        {"a": 1.31, "b": 0.52}, {"branch_override": {"b": "B"}, "grid": 4},
    ),
    (
        parse_equation(THREE_EXTERNAL), "123", {"a": "B", "b": "B", "c": "F"},
        {"a": 0.5, "b": 1.2, "c": 0.3}, {},
    ),
    (
        parse_equation(THREE_EXTERNAL), "M(1)23", {"a": "M", "b": "B", "c": "F"},
        {"a": 0.4, "b": 1.2, "c": 0.3}, {"truncate_at": 1.0},
    ),
    (
        parse_equation(THREE_EXTERNAL, contour="keldysh"), "312",
        {"a": "B", "b": "F", "c": "B"}, {"a": 1.4, "b": 0.9, "c": 0.35}, {"truncate_at": 1.0},
    ),
    (
        parse_equation(THREE_EXTERNAL, contour="keldysh"), "123",
        {"a": "F", "b": "B", "c": "F"}, {"a": 0.5, "b": 1.2, "c": 0.3},
        {"branch_override": {"a": "F"}},
    ),
    (
        parse_equation(SELF_ENERGY, contour="keldysh"), ">", {"a": "B", "b": "B"},
        {"a": 1.31, "b": 0.52}, {"branch_override": {"b": "B"}},
    ),
    (
        parse_equation(SELF_ENERGY), "lc", {"a": "M", "b": "F"}, {"a": 0.4, "b": 1.13},
        {"truncate_at": 0.9},
    ),
]


@pytest.mark.parametrize("case", range(len(LITERAL_CASES)))
def test_contour_side_matches_literal_point_sum(case):
    eq, tname, ext_kinds, ext_times, options = LITERAL_CASES[case]
    options = dict(options)
    grid = DiscreteContour(n_fwd=options.pop("grid", 3))
    tables = ComponentTable(eq, seed=7)
    got, got_scale = evaluate_contour_side(
        eq, parse_superindex(tname, eq), tables, grid, ext_times, with_scale=True, **options
    )
    want, want_scale = _literal_contour_sum(
        eq, tables, grid, ext_kinds, ext_times, options.get("truncate_at")
    )
    assert want_scale > 0
    assert abs(got - want) <= 1e-12 * want_scale
    assert got_scale == pytest.approx(want_scale, rel=1e-12)


# ---------------------------------------------------------------------------
# real-time side against a literal per-point sum


def _literal_realtime_sum(expr, tables, grid, ext_times):
    """Sum every term over every node of its integrals, one point at a time;
    returns (value, scale)."""

    def holds(chains, times):
        return all(times[x] > times[y] for c in chains for x, y in zip(c, c[1:]))

    total, scale = 0j, 0.0
    expanded = {}
    for term in expr.terms:
        reals, imags = sorted(term.real_integrals), sorted(term.imag_integrals)
        nodes = (
            [list(zip(grid.label_nodes(l), grid.real_weights)) for l in reals]
            + [list(zip(grid.mats_nodes, grid.mats_weights))] * len(imags)
        )
        for point in itertools.product(*nodes):
            times, weight = dict(ext_times), 1.0
            for label, (t, w) in zip(reals + imags, point):
                times[label] = float(t)
                weight *= w
            assert len({times[l] for l in reals}) == len(reals), "two real internals on one node"
            value = term.sign * (-1j) ** len(imags) * holds(term.steps, times)
            for f in term.factors:
                mats = {str(l) for l in f.index.mats_labels()}
                mset = frozenset(i + 1 for i, a in enumerate(f.func.args) if a in mats)
                arg_times = [times[a] for a in f.func.args]
                if f not in expanded:
                    expanded[f] = expand_retarded(f.index)
                value *= sum(
                    sign * tables.component(
                        f.func.name, mset,
                        tuple(f.func.args.index(str(l)) + 1 for l in word), arg_times,
                    )
                    for sign, chains, word in expanded[f]
                    if holds(chains, times)
                )
            total += weight * value
            scale += weight * abs(value)
    return total, scale


# (equation, target, external times, nodes per branch); the double-triangle
# R and A rules have terms with step chains, the R(...) factors carry their
# own chains, the rc and lc targets have imaginary integrals, and every real
# term has two real internals, compared by its steps.  chain4 has
# terms with four, three, ... real internals, several layouts of one rule
# on the extended contour; the Keldysh ladder has 104 terms, most with step
# chains among its four real internals; X has three externals and, on the
# extended contour, four layouts.  The product structure has no internal
# labels, so every piece is a number, and the self-energy puts one function
# name in three slots
REALTIME_CASES = [
    (catalog.double_triangle(), "R", {"a": 1.31, "b": 0.52}, 3),
    (catalog.double_triangle(), "A", {"a": 0.52, "b": 1.31}, 3),
    (catalog.double_triangle(), "lc", {"a": 0.4, "b": 1.13}, 3),
    (catalog.chain3(), "rc", {"a": 0.77, "b": 0.35}, 3),
    (catalog.chain3(), ">", {"a": 1.7321, "b": 0.61}, 3),
    (_keldysh(catalog.chain3()), "<", {"a": 0.61, "b": 1.7321}, 3),
    (parse_equation(CHAIN4), ">", {"a": 1.31, "b": 0.52}, 4),
    (parse_equation(CHAIN4, contour="keldysh"), ">", {"a": 1.7321, "b": 0.61}, 5),
    (parse_equation(LADDER, contour="keldysh"), ">", {"a": 1.95, "b": 0.52}, 4),
    (parse_equation(THREE_EXTERNAL), "123", {"a": 0.5, "b": 1.2, "c": 0.3}, 4),
    (
        parse_equation(THREE_EXTERNAL, contour="keldysh"), "123",
        {"a": 1.4, "b": 0.9, "c": 0.35}, 5,
    ),
    (PROD, "R", {"a": 1.31, "b": 0.52}, 3),
    (_keldysh(PROD), ">", {"a": 0.61, "b": 1.7321}, 3),
    (parse_equation(SELF_ENERGY), ">", {"a": 1.31, "b": 0.52}, 4),
    (parse_equation(SELF_ENERGY, contour="keldysh"), ">", {"a": 0.61, "b": 1.7321}, 4),
]


@pytest.mark.parametrize("case", range(len(REALTIME_CASES)))
def test_realtime_side_matches_literal_point_sum(case):
    eq, tname, ext_times, nodes = REALTIME_CASES[case]
    grid = DiscreteContour(n_fwd=nodes)
    tables = ComponentTable(eq, seed=7)
    rule = derive_rule(eq, parse_superindex(tname, eq))
    got = evaluate_realtime_side(rule, eq, tables, grid, ext_times)
    want, scale = _literal_realtime_sum(rule, tables, grid, ext_times)
    assert scale > 0
    assert abs(got - want) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# real-time side: terms sharing a mesh


def test_realtime_side_is_the_sum_of_its_terms_over_many_layouts():
    # the extended ladder > rule integrates over 16 different layouts of
    # real and imaginary integrals, and shares factors between them
    eq = parse_equation(LADDER)
    rule = derive_rule(eq, parse_superindex(">", eq))
    layouts = {(frozenset(t.real_integrals), frozenset(t.imag_integrals)) for t in rule}
    assert len(layouts) == 16
    grid = DiscreteContour(n_fwd=3)
    ext_times = {"a": 1.31, "b": 0.52}

    def evaluate(seed):
        return evaluate_realtime_side(rule, eq, ComponentTable(eq, seed), grid, ext_times)

    tables = ComponentTable(eq, 0)
    per_term = [
        evaluate_realtime_side(RealTimeExpression((term,)), eq, tables, grid, ext_times)
        for term in rule
    ]
    first = evaluate(0)
    # the layouts sum their terms in another order than one term at a time
    assert abs(first - sum(per_term)) <= 1e-12 * sum(abs(v) for v in per_term)
    # values computed for one table are not reused for another
    assert evaluate(1) != first
    assert evaluate(0) == first


# ---------------------------------------------------------------------------
# batches of samples, and one value table per batch, shared by both sides


def _component_keys(monkeypatch):
    """Records each evaluation of a component for a batch
    (``oracle._components``) as ``(name, mset, korder, args)``, an argument
    being the tuple of its times over the samples or of its nodes."""
    calls = []
    components = oracle._components

    def recording(tables, fname, mset, korder, times):
        args = tuple(tuple(np.ravel(t).tolist()) for t in times)
        calls.append((fname, mset, korder, args))
        return components(tables, fname, mset, korder, times)

    monkeypatch.setattr(oracle, "_components", recording)
    return calls


def _one_class_batch(eq, times, seeds=(4, 5, 6)):
    """Two samples per seed, in the order class of ``times``: each sample
    moves every time by the same step, which keeps their order."""
    tables = tuple(ComponentTable(eq, seed) for seed in seeds for _ in range(2))
    samples = tuple({l: t + 0.0131 * k for l, t in times.items()} for k in range(len(tables)))
    return tables, samples


SHARED_CASES = [
    (catalog.double_triangle(), ">", {"a": 1.31, "b": 0.52}),
    (catalog.double_triangle(), "lc", {"a": 0.4, "b": 1.13}),
    (_keldysh(catalog.chain3()), "R", {"a": 1.7321, "b": 0.61}),
    (parse_equation(SELF_ENERGY), ">", {"a": 0.52, "b": 1.31}),
    (parse_equation(THREE_EXTERNAL), "R(1,23)", {"a": 1.4, "b": 0.9, "c": 0.35}),
    (parse_equation(THREE_EXTERNAL), "M(1)23", {"a": 0.4, "b": 1.2, "c": 0.3}),
]


@pytest.mark.parametrize("case", range(len(SHARED_CASES)))
def test_each_component_is_evaluated_once_per_sample(case, monkeypatch):
    # one sample, and a batch of two samples from each of three seeds:
    # across both sides of a batch, no component is evaluated twice
    eq, tname, times = SHARED_CASES[case]
    target = parse_superindex(tname, eq)
    rule = derive_rule(eq, target)
    grid = DiscreteContour(n_fwd=5)
    calls = _component_keys(monkeypatch)
    one = ((ComponentTable(eq, seed=4),), (times,))
    for tables, samples in [one, _one_class_batch(eq, times)]:
        calls.clear()
        lhs = evaluate_contour_batch(eq, target, tables, grid, samples)
        contour_calls = len(calls)
        rhs = evaluate_realtime_batch(rule, eq, tables, grid, samples)
        assert contour_calls > 0
        assert len(set(calls)) == len(calls)
        assert np.all(abs(lhs - rhs) <= 1e-8 * (1 + np.maximum(abs(lhs), abs(rhs))))


def test_value_table_holds_one_batch(monkeypatch):
    # a value with no external argument is evaluated once per tables tuple
    # and grid; one with an external argument once per batch that reads
    # it, and dropped when another batch is read
    eq = catalog.double_triangle()
    target = parse_superindex(">", eq)
    grid = DiscreteContour(n_fwd=5)
    external = set(eq.external)
    tables, first = _one_class_batch(eq, {"a": 1.31, "b": 0.52})
    second = tuple({"a": t["a"], "b": t["b"] - 0.1} for t in first)
    calls = _component_keys(monkeypatch)
    value = evaluate_contour_batch(eq, target, tables, grid, first)
    table = oracle._batch_values(tables, grid)
    shared, held = set(table.shared), set(table.values)
    assert shared and not any(external & set(key[3]) for key in shared)
    assert held and all(external & set(key[3]) for key in held)
    assert len(calls) == len(shared) + len(held)
    # the same batch reads its table
    assert np.array_equal(evaluate_contour_batch(eq, target, tables, grid, first), value)
    assert len(calls) == len(shared) + len(held)
    # a second batch on the same tables makes its values with an external
    # argument, and none of the shared ones
    before = len(calls)
    assert not np.array_equal(evaluate_contour_batch(eq, target, tables, grid, second), value)
    assert oracle._batch_values(tables, grid) is table
    assert set(table.shared) == shared and set(table.values) == held
    assert len(calls) - before == len(held)
    # reading the first batch again makes its values with an external
    # argument again, and only those
    before = len(calls)
    assert np.array_equal(evaluate_contour_batch(eq, target, tables, grid, first), value)
    assert len(calls) - before == len(held)
    # a batch on other tables replaces the table
    others, _ = _one_class_batch(eq, {"a": 1.31, "b": 0.52}, seeds=(7, 8, 9))
    evaluate_contour_batch(eq, target, others, grid, first)
    assert oracle._batch_values.cache_info().currsize <= 1
    assert oracle._batch_values(others, grid) is not table
    before = len(calls)
    assert np.array_equal(evaluate_contour_batch(eq, target, tables, grid, first), value)
    assert len(calls) - before == len(shared) + len(held)
    assert oracle._batch_values.cache_info().currsize <= 1


def test_batches_read_back_to_back_equal_fresh_tables():
    # batches on one tables tuple share the values with no external
    # argument; each equals, bit for bit, the batch on a fresh table, so
    # no value with an external argument, a Matsubara one included, is
    # shared: two order classes, then two Matsubara depths
    grid = DiscreteContour(n_fwd=5)
    cases = [
        (catalog.double_triangle(), ">", [{"a": 1.31, "b": 0.52}, {"a": 0.52, "b": 1.31}]),
        (
            parse_equation(THREE_EXTERNAL), "M(1)23",
            [{"a": 0.4, "b": 1.2, "c": 0.3}, {"a": 0.8, "b": 1.2, "c": 0.3}],
        ),
    ]
    for eq, tname, times in cases:
        target = parse_superindex(tname, eq)
        rule = derive_rule(eq, target)
        tables, _ = _one_class_batch(eq, times[0])
        batches = [_one_class_batch(eq, t)[1] for t in times]

        def sides(samples):
            return (
                evaluate_contour_batch(eq, target, tables, grid, samples),
                evaluate_realtime_batch(rule, eq, tables, grid, samples),
            )

        oracle._batch_values.cache_clear()
        back_to_back = [sides(samples) for samples in batches]
        assert oracle._batch_values(tables, grid).shared
        for samples, got in zip(batches, back_to_back):
            oracle._batch_values.cache_clear()
            want = sides(samples)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # the two batches differ
        assert not np.array_equal(back_to_back[0][0], back_to_back[1][0])
    oracle._batch_values.cache_clear()


def test_cached_meshes_give_bit_identical_values(monkeypatch):
    # one corpus sample, with the sparse meshes cached per (grid, node sets)
    # and with a fresh np.meshgrid at every use
    eq = catalog.double_triangle()
    target = parse_superindex("R", eq)
    rule = derive_rule(eq, target)
    grid = DiscreteContour(n_fwd=24)
    tables = ComponentTable(eq, seed=10)
    times = {"a": 1.31, "b": 0.52}
    oracle._batch_values.cache_clear()
    oracle._sparse_mesh.cache_clear()
    cached = (
        evaluate_contour_side(eq, target, tables, grid, times),
        evaluate_realtime_side(rule, eq, tables, grid, times),
    )
    info = oracle._sparse_mesh.cache_info()
    assert 0 < info.misses < info.hits
    oracle._batch_values.cache_clear()
    monkeypatch.setattr(oracle, "_sparse_mesh", oracle._sparse_mesh.__wrapped__)
    uncached = (
        evaluate_contour_side(eq, target, tables, grid, times),
        evaluate_realtime_side(rule, eq, tables, grid, times),
    )
    assert cached == uncached


# SHARED_CASES, then the options of the contour side
BATCH_CASES = [case + ({},) for case in SHARED_CASES] + [
    (_keldysh(catalog.chain3()), ">", {"a": 1.7321, "b": 0.61}, {"truncate_at": 1.2}),
    (_keldysh(catalog.chain3()), ">", {"a": 1.7321, "b": 0.61}, {"branch_override": {"b": "B"}}),
    (
        parse_equation(THREE_EXTERNAL), "M(1)23", {"a": 0.4, "b": 1.2, "c": 0.3},
        {"truncate_at": 1.0},
    ),
    (
        parse_equation(THREE_EXTERNAL, contour="keldysh"), "123",
        {"a": 0.5, "b": 1.2, "c": 0.3}, {"branch_override": {"a": "F"}},
    ),
]


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_batch_equals_its_samples_one_at_a_time(case):
    eq, tname, times, options = BATCH_CASES[case]
    target = parse_superindex(tname, eq)
    rule = derive_rule(eq, target)
    grid = DiscreteContour(n_fwd=5)
    tables, samples = _one_class_batch(eq, times)
    lhs, scale = evaluate_contour_batch(
        eq, target, tables, grid, samples, with_scale=True, **options
    )
    rhs = evaluate_realtime_batch(rule, eq, tables, grid, samples)
    assert lhs.shape == scale.shape == rhs.shape == (len(samples),)
    for k, (table, sample) in enumerate(zip(tables, samples)):
        one, one_scale = evaluate_contour_side(
            eq, target, table, grid, sample, with_scale=True, **options
        )
        assert one_scale > 0 and abs(scale[k] - one_scale) <= 1e-12 * one_scale
        assert abs(lhs[k] - one) <= 1e-12 * one_scale
        one = evaluate_realtime_side(rule, eq, table, grid, sample)
        assert abs(rhs[k] - one) <= 1e-12 * one_scale
    # the seeds' tables differ, so their samples do
    assert lhs[0] != lhs[2] != lhs[4]


def test_batch_of_two_order_classes_is_refused():
    eq = catalog.double_triangle()
    target = parse_superindex("R", eq)
    rule = derive_rule(eq, target)
    grid = DiscreteContour(n_fwd=5)
    tables = (ComponentTable(eq, 0),) * 2
    both = ({"a": 1.31, "b": 0.52}, {"a": 0.52, "b": 1.31})
    # the rule compares a and b, so its side refuses the batch too
    assert oracle._plan_rule(rule)[2] == ("a", "b")
    with pytest.raises(ValueError, match="one order class"):
        evaluate_contour_batch(eq, target, tables, grid, both)
    with pytest.raises(ValueError, match="one order class"):
        evaluate_realtime_batch(rule, eq, tables, grid, both)
    with pytest.raises(ValueError):
        evaluate_contour_batch(eq, target, (), grid, ())
    with pytest.raises(ValueError):
        evaluate_realtime_batch(rule, eq, tables[:1], grid, both[:1] * 2)
    # the vertical depth of a Matsubara external orders no class
    eq = parse_equation(THREE_EXTERNAL)
    target = parse_superindex("M(1)23", eq)
    rule = derive_rule(eq, target)
    mixed = ({"a": 0.9, "b": 1.2, "c": 0.3}, {"a": 0.1, "b": 1.21, "c": 0.31})
    tables = (ComponentTable(eq, 0),) * 2
    lhs = evaluate_contour_batch(eq, target, tables, grid, mixed)
    rhs = evaluate_realtime_batch(rule, eq, tables, grid, mixed)
    assert np.all(abs(lhs - rhs) <= 1e-8 * (1 + np.maximum(abs(lhs), abs(rhs))))


def _numeric_records_one_sample_at_a_time(eq, target, name, seeds, grid_size, rule):
    """``(seed, max_error, detail)`` of each numeric record of ``verify``,
    computed one sample at a time: each seed draws its samples from its own
    stream, class by class."""
    classes, _ = oracle._ordering_classes(eq, target)
    grid = DiscreteContour(n_fwd=grid_size)
    out = []
    for seed in seeds:
        rng = np.random.default_rng(oracle._stable_seed("verify", seed, eq.lhs_name, name))
        tables = ComponentTable(eq, seed)
        worst, detail = 0.0, ""
        for omega in classes:
            for _ in range(oracle.SAMPLES_PER_CLASS):
                times = _sample_times(eq, target, omega, grid, rng)
                lhs = evaluate_contour_side(eq, target, tables, grid, times)
                rhs = evaluate_realtime_side(rule, eq, tables, grid, times)
                err = float(abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs))))
                if err > worst:
                    worst, detail = err, f"ordering {'>'.join(omega) or '-'}"
        out.append((seed, worst, detail))
    return out


@pytest.mark.parametrize("case", range(len(SHARED_CASES)))
@pytest.mark.parametrize("corrupt", [False, True])
def test_verify_records_equal_a_loop_over_samples(case, corrupt):
    eq, tname, _ = SHARED_CASES[case]
    target = parse_superindex(tname, eq)
    rule = derive_rule(eq, target)
    if corrupt:
        rule = _flip_one_sign(rule)
    records = verify(eq, target, tname, seeds=(3, 4, 5), grid_size=6, rule=rule)
    got = [(r.seed, r.max_error, r.detail) for r in records if r.mode == "numeric"]
    want = _numeric_records_one_sample_at_a_time(eq, target, tname, (3, 4, 5), 6, rule)
    assert [seed for seed, _, _ in got] == [seed for seed, _, _ in want]
    for (_, err, detail), (_, want_err, want_detail) in zip(got, want):
        assert abs(err - want_err) <= 1e-14
        # two orderings may tie at rounding level
        assert detail == want_detail or max(err, want_err) < 1e-14
    if corrupt:
        assert all(err > 1e-8 for _, err, _ in got)


def test_a_seed_whose_draws_run_out_fails_alone(monkeypatch):
    target = parse_superindex(">", CONV)
    rule = derive_rule(CONV, target)
    before = verify(CONV, target, ">", seeds=(0, 1, 2), grid_size=8, rule=rule)
    # seed 1's stream draws nothing but a grid node
    node = float(DiscreteContour(n_fwd=8).real_nodes[3])
    stuck = oracle._stable_seed("verify", 1, CONV.lhs_name, ">")
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng",
        lambda seed=None: _OnNodeGenerator(node) if seed == stuck else default_rng(seed),
    )
    after = verify(CONV, target, ">", seeds=(0, 1, 2), grid_size=8, rule=rule)
    assert [r.seed for r in after] == [None, 0, 1, 2]
    assert after[2].max_error == np.inf and not after[2].passed
    assert after[2].detail.startswith("no tie-free external times")
    assert [after[k] for k in (0, 1, 3)] == [before[k] for k in (0, 1, 3)]
    assert all(r.passed for r in before)


def test_a_structural_error_fails_every_seed(monkeypatch):
    target = parse_superindex(">", CONV)

    def unknown(tables, fname, mset, korder, times):
        raise UnknownComponent(f"no component {fname}")

    monkeypatch.setattr(oracle, "_components", unknown)
    records = verify(CONV, target, ">", seeds=(0, 1, 2), grid_size=8)
    assert records[0].mode == "symbolic" and records[0].passed
    assert [r.seed for r in records[1:]] == [0, 1, 2]
    for r in records[1:]:
        assert r.max_error == np.inf and not r.passed
        assert r.detail.startswith("no component ")


def _records_class_by_class(eq, target, name, seeds, grid_size, rule):
    """The records of ``verify``, its numeric check made one order class
    at a time by the public batch functions, on its draws: each seed draws
    from its own stream, class by class, and each class is one batch of
    every seed's samples.  The symbolic record is ``verify``'s with no
    seed, which has no numeric check."""
    (symbolic,) = verify(eq, target, name, seeds=(), grid_size=grid_size, rule=rule)
    classes, _ = oracle._ordering_classes(eq, target)
    grid = DiscreteContour(n_fwd=grid_size)
    tables = [ComponentTable(eq, seed) for seed in seeds]
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(oracle._stable_seed("verify", seed, eq.lhs_name, name))
        draws.append([
            [_sample_times(eq, target, omega, grid, rng) for _ in range(oracle.SAMPLES_PER_CLASS)]
            for omega in classes
        ])
    worst, detail = [0.0] * len(seeds), [""] * len(seeds)
    for c, omega in enumerate(classes):
        ks = [k for k in range(len(seeds)) for _ in draws[k][c]]
        samples = [times for k in range(len(seeds)) for times in draws[k][c]]
        batch_tables = [tables[k] for k in ks]
        lhs = evaluate_contour_batch(eq, target, batch_tables, grid, samples)
        rhs = evaluate_realtime_batch(rule, eq, batch_tables, grid, samples)
        errors = np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
        for k, err in zip(ks, errors.tolist()):
            if err > worst[k]:
                worst[k], detail[k] = err, f"ordering {'>'.join(omega) or '-'}"
    return [symbolic] + [
        oracle.VerifyRecord(eq.lhs_name, name, "numeric", seed, worst[k], worst[k] <= 1e-8, detail[k])
        for k, seed in enumerate(seeds)
    ]


# (equation, target, grid size): one value table for all of a verdict's
# order classes
VERDICT_CASES = [
    (parse_equation(CHAIN4), ">", 12),
    (parse_equation(LADDER, contour="keldysh"), ">", 6),
    (parse_equation(THREE_EXTERNAL), "R(1,23)", 24),
    (parse_equation(THREE_EXTERNAL), "M(1)23", 24),
    (catalog.double_triangle(), ">", 24),
    (_keldysh(catalog.double_triangle()), ">", 24),
]


@pytest.mark.parametrize("case", range(len(VERDICT_CASES)))
def test_verify_equals_its_classes_one_batch_at_a_time(case, monkeypatch):
    eq, tname, grid_size = VERDICT_CASES[case]
    target = parse_superindex(tname, eq)
    rule = derive_rule(eq, target)
    seeds = (3, 4, 5)
    calls = _component_keys(monkeypatch)
    records = verify(eq, target, tname, seeds=seeds, grid_size=grid_size, rule=rule)
    # no component key is evaluated twice within one verdict
    assert calls and len(set(calls)) == len(calls)
    want = _records_class_by_class(eq, target, tname, seeds, grid_size, rule)
    assert json.dumps([r.as_dict() for r in records]) == json.dumps([r.as_dict() for r in want])
    assert all(r.passed for r in records)
    # the case has more than one order class, so the table is shared
    assert len(oracle._ordering_classes(eq, target)[0]) > 1


def test_verify_calls_at_one_grid_size_share_one_grid(monkeypatch):
    eq = catalog.double_triangle()
    target = parse_superindex(">", eq)
    rule = derive_rule(eq, target)
    grids = []

    class Recording(DiscreteContour):
        def __init__(self, *args):
            super().__init__(*args)
            grids.append(self)

    oracle._shared_grid.cache_clear()
    oracle._contour_plan.cache_clear()
    monkeypatch.setattr(oracle, "DiscreteContour", Recording)
    first = verify(eq, target, ">", seeds=(0, 1), grid_size=7, rule=rule)
    assert len(grids) == 1
    misses = oracle._sparse_mesh.cache_info().misses
    # the second call adds no grid and no sparse mesh
    assert verify(eq, target, ">", seeds=(0, 1), grid_size=7, rule=rule) == first
    assert len(grids) == 1
    assert oracle._sparse_mesh.cache_info().misses == misses
    assert oracle._contour_plan(eq, 0.0, 2.0, 7).grid is grids[0]
    # another size, and another t0, get their own grid
    verify(eq, target, ">", seeds=(0, 1), grid_size=8, rule=rule)
    assert len(grids) == 2 and grids[1].n_fwd == 8
    other = oracle._contour_plan(eq, 0.5, 2.0, 7).grid
    assert len(grids) == 3 and other is grids[2] and other.t0 == 0.5
    assert oracle._shared_grid(0.0, 2.0, 7) is grids[0]
    oracle._shared_grid.cache_clear()
    oracle._contour_plan.cache_clear()


def test_a_verdict_frees_its_value_table_when_it_returns(monkeypatch):
    # the table and its classes hold no reference cycle, so its arrays go
    # when verify drops it, not at some later garbage collection
    eq = catalog.double_triangle()
    target = parse_superindex(">", eq)
    tables = []

    class Recording(oracle._BatchValues):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(weakref.ref(self))

    monkeypatch.setattr(oracle, "_BatchValues", Recording)
    gc.disable()
    try:
        records = verify(eq, target, ">", seeds=(0, 1), grid_size=6)
        assert len(tables) == 1 and tables[0]() is None
    finally:
        gc.enable()
    assert all(r.passed for r in records)


def test_a_verdict_table_holds_the_external_values_of_one_class(monkeypatch):
    # a value with no external argument is evaluated once per verdict, and
    # one with an external argument once per class that reads it; the
    # next class drops the last one's
    eq = parse_equation(THREE_EXTERNAL)
    target = parse_superindex("R(1,23)", eq)
    rule = derive_rule(eq, target)
    tables, held = [], []

    class Recording(oracle._BatchValues):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    realtime = oracle.evaluate_realtime_batch

    def holding(*args):
        value = realtime(*args)
        (table,) = tables
        held.append((table.samples, set(table.values), set(table.shared)))
        return value

    monkeypatch.setattr(oracle, "_BatchValues", Recording)
    monkeypatch.setattr(oracle, "evaluate_realtime_batch", holding)
    calls = _component_keys(monkeypatch)
    records = verify(eq, target, "R(1,23)", seeds=(0, 1), grid_size=6, rule=rule)
    assert all(r.passed for r in records)
    n_classes = len(oracle._ordering_classes(eq, target)[0])
    assert n_classes > 1 and len({samples for samples, _, _ in held}) == len(held) == n_classes
    external = set(eq.external)
    shared = held[-1][2]
    assert shared and not any(external & set(key[3]) for key in shared)
    for _, values, _ in held:
        assert values and all(external & set(key[3]) for key in values)
    assert len(calls) == len(shared) + sum(len(values) for _, values, _ in held)


def test_contour_side_evaluates_no_order_with_forward_before_backward(monkeypatch):
    # the contour side sums exactly the orders of its planned blocks, so
    # every plan it builds is read here
    grid = DiscreteContour(n_fwd=4)
    seen = Counter()
    plan_function = oracle._plan_function

    def checking(eq, grid, j, ext_kinds):
        perm, blocks = plan_function(eq, grid, j, ext_kinds)
        for block in blocks:
            for _, _, korder in block.orders:
                # the branches of the order's arguments, latest first
                branches = "".join(block.kinds[i - 1] for i in korder)
                assert FWD + BWD not in branches, (eq.product[j], korder, block.kinds)
                seen[BWD + FWD if FWD in branches and BWD in branches else "one"] += 1
        return perm, blocks

    oracle._contour_plan.cache_clear()
    monkeypatch.setattr(oracle, "_plan_function", checking)
    for eq, tname, times in SHARED_CASES:
        evaluate_contour_side(eq, parse_superindex(tname, eq), ComponentTable(eq, 4), grid, times)
    assert seen[BWD + FWD] > 0 and seen["one"] > 0


def test_contour_plan_is_built_once_per_function_and_external_branches(monkeypatch):
    eq, tname, ext_kinds, ext_times, options = LITERAL_CASES[7]
    assert (eq, tname, options) == (catalog.double_triangle(), ">", {})
    target = parse_superindex(tname, eq)
    built = []
    plan_function = oracle._plan_function

    def counting(eq, grid, j, kinds):
        built.append((grid.n_fwd, j, kinds))
        return plan_function(eq, grid, j, kinds)

    oracle._contour_plan.cache_clear()
    monkeypatch.setattr(oracle, "_plan_function", counting)

    def check(nodes, seed, times):
        grid = DiscreteContour(n_fwd=nodes)
        tables = ComponentTable(eq, seed)
        got = evaluate_contour_side(eq, target, tables, grid, times)
        want, scale = _literal_contour_sum(eq, tables, grid, ext_kinds, times, None)
        assert abs(got - want) <= 1e-12 * scale

    # one plan per function: the double triangle's five functions each see
    # their own external branches
    check(5, 7, ext_times)
    per_function = sorted(
        (j, tuple(ext_kinds[a] for a in f.args if a in ext_kinds))
        for j, f in enumerate(eq.product)
    )
    assert sorted(built) == [(5, j, kinds) for j, kinds in per_function]
    # other times in the same ordering class, and another seed's table
    check(5, 8, {"a": 1.13, "b": 0.4})
    assert len(built) == len(per_function)
    # another grid size plans again
    check(6, 7, ext_times)
    assert sorted(built[len(per_function):]) == [(6, j, kinds) for j, kinds in per_function]


def test_corpus_verify_pass_component_calls(monkeypatch):
    # every corpus target on both contours at the CLI grid, three seeds; the
    # sides used to make 18216 calls here, three in four of them repeats,
    # then 4026 calls, one per sample; a call now evaluates a whole batch
    jobs = []
    for contour in ("extended", "keldysh"):
        for make in catalog.CORPUS.values():
            e = make()
            eq = ContourEquation(e.lhs_name, e.external, e.internal, e.product, contour)
            for tname in catalog.all_targets(eq):
                target = parse_superindex(tname, eq)
                jobs.append((eq, tname, target, derive_rule(eq, target)))
    calls = _component_keys(monkeypatch)
    for eq, tname, target, rule in jobs:
        records = verify(eq, target, tname, seeds=(10, 11, 12), grid_size=24, rule=rule)
        assert all(r.passed for r in records)
    assert len(jobs) == 58
    assert 0 < len(calls) <= 671


# ---------------------------------------------------------------------------
# real-time side: one plan per rule, contractions in runs of terms


def test_realtime_plan_is_built_once_per_rule():
    eq = parse_equation(LADDER, contour="keldysh")
    rule = derive_rule(eq, parse_superindex(">", eq))
    grid = DiscreteContour(n_fwd=4)
    tables = ComponentTable(eq, 0)
    times = {"a": 1.95, "b": 0.52}
    first = evaluate_realtime_side(rule, eq, tables, grid, times)
    misses = oracle._plan_rule.cache_info().misses
    # no new plan for the same rule, nor for an equal one derived apart
    assert evaluate_realtime_side(rule, eq, tables, grid, {"a": 0.1, "b": 1.9}) != first
    assert evaluate_realtime_side(rule, eq, tables, grid, times) == first
    again = derive_rule(eq, parse_superindex(">", eq))
    assert again == rule and again is not rule
    assert evaluate_realtime_side(again, eq, tables, grid, times) == first
    assert oracle._plan_rule.cache_info().misses == misses


@pytest.mark.parametrize("case", [6, 8])
def test_realtime_side_in_runs_of_terms(case, monkeypatch):
    # a small bound on intermediates splits each contraction into runs of
    # terms, down to one term per run, for one sample and for a batch of
    # six, one term of which can exceed the bound
    eq, tname, times, nodes = REALTIME_CASES[case]
    target = parse_superindex(tname, eq)
    rule = derive_rule(eq, target)
    grid = DiscreteContour(n_fwd=nodes)
    tables = ComponentTable(eq, 0)
    whole = evaluate_realtime_side(rule, eq, tables, grid, times)
    want, scale = _literal_realtime_sum(rule, tables, grid, times)
    assert abs(whole - want) <= 1e-12 * scale
    batch_tables, samples = _one_class_batch(eq, times)
    batch = evaluate_realtime_batch(rule, eq, batch_tables, grid, samples)
    _, scales = evaluate_contour_batch(eq, target, batch_tables, grid, samples, with_scale=True)
    for elements in (1, 200):
        monkeypatch.setattr(oracle, "CONTRACTION_ELEMENTS", elements)
        assert abs(evaluate_realtime_side(rule, eq, tables, grid, times) - whole) <= 1e-12 * scale
        bounded = evaluate_realtime_batch(rule, eq, batch_tables, grid, samples)
        assert np.all(np.abs(bounded - batch) <= 1e-12 * scales)


# the general vertex: its R(1,23) rule has 396 terms over four real internals
VERTEX = "V[a,b,c] = int{d,e,f,g} : K[a,b,d,e]*G[d,f]*G[g,e]*L[f,g,c]"


def test_realtime_side_intermediates_stay_within_bound(monkeypatch):
    # one sample, and a batch of two samples from each of three seeds: the
    # runs of terms shrink so that the sample axis grows no operand, copy
    # or intermediate of a lowered step past the bound
    eq = parse_equation(VERTEX, contour="keldysh")
    rule = derive_rule(eq, parse_superindex("R(1,23)", eq))
    grid = DiscreteContour(n_fwd=12)
    times = {"a": 1.31, "b": 0.52, "c": 0.83}
    batch = _one_class_batch(eq, times, seeds=(0, 1, 2))
    sizes = []
    call = oracle._Step.__call__

    def recorded(step, *operands):
        # the stacks a step multiplies are its operands after their sums,
        # transposes and reshapes: the copies it makes, if any
        def product(*stacks):
            result = step.product(*stacks)
            sizes.extend(map(np.size, stacks + (result,)))
            return result

        result = call(step._replace(product=product), *operands)
        sizes.extend(map(np.size, operands + (result,)))
        return result

    monkeypatch.setattr(oracle._Step, "__call__", recorded)
    for tables, samples in [((ComponentTable(eq, 0),), (times,)), batch]:
        sizes.clear()
        evaluate_realtime_batch(rule, eq, tables, grid, samples)
        assert sizes and max(sizes) <= oracle.CONTRACTION_ELEMENTS


# (operand subscripts, operand shapes, letters the result keeps): each
# pattern of a lowered step, on complex operands; "a" is the sample axis
# and "A" the term axis, each of size 1 on one side where it broadcasts
LOWERED_STEPS = [
    # a contracted letter, the sample axis broadcast on the left
    (("AaBD", "AaDEC"), ((5, 1, 3, 4), (5, 6, 4, 2, 3)), "AaBEC"),
    # a contracted letter, the term axis broadcast on the right, and a
    # transpose on each side
    (("aDAB", "ABaD"), ((6, 4, 5, 3), (1, 3, 6, 4)), "AaB"),
    # contracted letters only: a batched dot product
    (("AaCD", "AaDC"), ((5, 6, 3, 4), (5, 1, 4, 3)), "Aa"),
    # no contracted letter: a batched outer product, free letters both sides
    (("AaCE", "aACD"), ((5, 1, 3, 2), (6, 5, 3, 4)), "AaCED"),
    # no contracted letter and free letters on one side only
    (("AaDE", "AaCED"), ((5, 6, 4, 2), (5, 1, 3, 2, 4)), "AaDEC"),
    # no free letter at all: an elementwise product
    (("AaBC", "AaCB"), ((5, 6, 3, 2), (1, 6, 2, 3)), "AaBC"),
    # a letter only the left operand carries, summed before the product
    (("AaBD", "aDE"), ((5, 1, 3, 4), (6, 4, 2)), "aBE"),
    # a letter only the right operand carries, summed, with no contraction
    (("aB", "AaBC"), ((1, 3), (5, 6, 3, 2)), "aB"),
    # one operand: its letters are summed alone
    (("abB",), ((6, 2, 4),), "a"),
]


@pytest.mark.parametrize("case", range(len(LOWERED_STEPS)))
def test_lowered_step_matches_einsum(case):
    picked, shapes, kept = LOWERED_STEPS[case]
    rng = np.random.default_rng(case)
    operands = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    step = oracle._lower(tuple(range(len(picked))), list(picked), set(kept))
    assert sorted(step.letters) == sorted(kept)
    got = step(*operands)
    want = np.einsum(",".join(picked) + "->" + step.letters, *operands)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_path_steps_take_a_group_two_at_a_time():
    # a path that groups three operands runs as two lowered steps
    subscripts = ["abB", "abBcC", "acC", "acCdD"]
    shapes = [(3, 2, 4), (1, 2, 4, 2, 4), (3, 2, 4), (3, 2, 4, 2, 4)]
    rng = np.random.default_rng(7)
    operands = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    steps = oracle._path_steps(subscripts, [(0, 1, 2), (0, 1)])
    assert [len(step.positions) for step in steps] == [2, 2, 2]
    want = np.einsum(",".join(subscripts) + "->a", *operands)
    got = oracle._contract(operands, steps)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_only_the_branch_table_names_a_branch():
    # the contour's branches are data: no function or class names a branch
    # or a contour, compares a value to a branch or contour literal, or
    # compares ``eq.contour``; only the module-level statements that define
    # the branch table name them
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names = {"FWD", "BWD", "MAT", "KELDYSH", "EXTENDED"}
    literals = {FWD, BWD, MAT, "keldysh", "extended"}

    def tests_a_name(node) -> list[int]:
        lines = []
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in names:
                lines.append(n.lineno)
            elif isinstance(n, ast.Compare) and any(
                isinstance(m, ast.Constant) and m.value in literals
                or isinstance(m, ast.Attribute) and m.attr == "contour"
                for m in ast.walk(n)
            ):
                lines.append(n.lineno)
        return lines

    defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    assert [line for d in defs for line in tests_a_name(d)] == []
    table = {
        target.id for n in tree.body if isinstance(n, ast.Assign) and tests_a_name(n)
        for target in ast.walk(n.targets[0]) if isinstance(target, ast.Name)
    }
    assert table == {"FWD", "BWD", "MAT", "BRANCHES", "CONTOURS", "HORIZONTAL", "VERTICAL"}
    assert not hasattr(oracle, "_branches")
    assert oracle.CONTOURS == {"keldysh": (FWD, BWD), "extended": (FWD, BWD, MAT)}
    assert [oracle.BRANCHES[b].sign for b in (FWD, BWD, MAT)] == [1, -1, 1]
    assert [oracle.BRANCHES[b].vertical for b in (FWD, BWD, MAT)] == [False, False, True]


def _contour_orders_by_filter(kinds):
    """The definition of ``oracle._contour_orders`` before the branch
    table: every permutation of the horizontal positions that puts no
    forward position later than a backward one."""
    horizontal = [i + 1 for i, k in enumerate(kinds) if k != MAT]
    return tuple(
        perm
        for perm in itertools.permutations(horizontal)
        if not any(
            kinds[x - 1] == FWD and kinds[y - 1] == BWD
            for x, y in itertools.combinations(perm, 2)
        )
    )


def test_contour_orders_keep_the_sequence_of_the_permutation_filter():
    # the contour side sums a block's orders in this sequence, so its values
    # stay the same bit for bit only if the sequence does
    for n in range(5):
        for kinds in itertools.product((FWD, BWD, MAT), repeat=n):
            assert oracle._contour_orders(kinds) == _contour_orders_by_filter(kinds), kinds


def test_oracle_takes_only_its_inputs_from_the_compiler_and_engine():
    # the oracles share nothing with the compiler's reduction: the module
    # takes from the compiler only the rule to check, the component of a
    # product and the type of a function with its Matsubara slots, and from
    # the engine only the expansion of retarded components
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported: dict[str, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ["contourcalc", module]))
            imported.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                imported.setdefault(a.name, set())
    assert imported["contourcalc.compiler"] == {"BFunc", "component_of_product", "derive_rule"}
    assert imported["contourcalc.engine"] == {"expand_retarded"}
    assert not {"compiler", "engine"} & imported.get("contourcalc", set())
