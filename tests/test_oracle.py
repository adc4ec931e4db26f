"""Branch-splitting oracle, normal forms, and the discrete-contour evaluators."""

import itertools

import numpy as np
import pytest

from contourcalc import catalog
from contourcalc.compiler import derive_rule
from contourcalc.ir import (
    ContourEquation,
    RealTimeExpression,
    RealTimeTerm,
    SuperIndex,
)
from contourcalc.oracle import (
    SAMPLE_ATTEMPTS,
    ComponentTable,
    DiscreteContour,
    GridTieError,
    UnknownComponent,
    _sample_times,
    branch_count,
    branch_split_oracle,
    evaluate_contour_side,
    evaluate_realtime_side,
    normal_form,
    normal_form_equal,
    verify,
)
from contourcalc.parser import parse_equation, parse_superindex


def _keldysh(eq):
    return ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, "keldysh")


def _flip_one_sign(expr: RealTimeExpression) -> RealTimeExpression:
    t0 = expr.terms[0]
    flipped = RealTimeTerm(-t0.sign, t0.steps, t0.factors, t0.real_integrals, t0.imag_integrals)
    return RealTimeExpression((flipped,) + expr.terms[1:])


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


def test_grid_requires_shared_real_nodes():
    with pytest.raises(GridTieError):
        DiscreteContour(n_fwd=24, n_bwd=20)


def test_grid_rejects_external_on_node():
    grid = DiscreteContour(n_fwd=8)
    with pytest.raises(GridTieError):
        evaluate_contour_side(
            CONV, parse_superindex(">", CONV), ComponentTable(CONV, 0), grid,
            {"a": float(grid.real_nodes[3]), "b": 0.123},
        )


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


def test_branch_split_all_matsubara_on_keldysh_is_empty():
    # no horizontal placements survive: the forward and backward copies of
    # every internal cancel, leaving no real integrals at all
    eq = ContourEquation(CONV.lhs_name, CONV.external, CONV.internal, CONV.product, "keldysh")
    target = parse_superindex("M", CONV)
    nf = normal_form(branch_split_oracle(eq, target), eq)
    assert nf == {}
    assert normal_form_equal(branch_split_oracle(eq, target), derive_rule(eq, target), eq)


def test_component_table_is_prebuilt_and_consistent():
    tables = ComponentTable(CONV, 0)
    keys = set(tables._coeff_table)
    v1 = tables.component("A", frozenset(), (1, 2), [0.3, 0.7])
    assert tables.component("A", frozenset(), (1, 2), [0.3, 0.7]) == v1
    assert set(tables._coeff_table) == keys  # no lazy growth


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


def test_repeated_name_with_two_arities_is_refused():
    eq = parse_equation("S[a,b] = int{c} : G[a,c]*G[c]*G[c,b]")
    with pytest.raises(UnknownComponent, match="G"):
        ComponentTable(eq, 0)


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
    rng = _OnNodeGenerator(float(grid.real_nodes[3]))
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
            else list(zip(grid.real_nodes, grid.real_weights))
            for b in assign
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
            if len(set(real_times)) < len(real_times):
                continue  # two internals on one real node
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
]


@pytest.mark.parametrize("case", range(len(LITERAL_CASES)))
def test_contour_side_matches_literal_point_sum(case):
    eq, tname, ext_kinds, ext_times, options = LITERAL_CASES[case]
    grid = DiscreteContour(n_fwd=3)
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
