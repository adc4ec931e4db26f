"""Component calculus on products, separation rules, and the rule compiler."""

import pytest

from contourcalc import catalog
from contourcalc.compiler import (
    NamingUnavailable,
    _reduce_block,
    component_of_product,
    derive_rule,
    emit,
)
from contourcalc.engine import expand_retarded
from contourcalc.ir import (
    ContourEquation,
    Mats,
    Plain,
    RealTimeExpression,
    Ret,
    SubFunction,
    SuperIndex,
    canonicalize,
    direct_edges,
)
from contourcalc.oracle import normal_form_equal
from contourcalc.parser import parse_equation, parse_superindex


def _keldysh(eq):
    return ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, "keldysh")


def _fs(factors):
    return sorted(str(f) for f in factors)


A_ac = SubFunction("A", ("a", "c"))
B_cb = SubFunction("B", ("c", "b"))


def test_component_of_product_examples():
    # the total order picks the induced sub-order of each factor
    got = component_of_product((A_ac, B_cb), ("a", "b", "c"))
    assert _fs(got) == ["A^{ac}", "B^{bc}"]
    got = component_of_product((A_ac, B_cb), ("b", "a", "c"))
    assert _fs(got) == ["A^{ac}", "B^{bc}"]
    got = component_of_product((A_ac,), ("c", "a"))
    assert _fs(got) == ["A^{ca}"]


def _block(eq, index):
    """The (function, Matsubara labels) pairs and real items derive_rule reduces."""
    mats = index.mats_labels()
    funcs = tuple((f, tuple(l for l in mats if l in f.args)) for f in eq.product)
    return funcs, index.real_items()


def _reduced(eq, index, dropped=None):
    return [(s, c, _fs(f)) for s, c, f in _reduce_block(*_block(eq, index), dropped)]


def test_distribute_matsubara_convolution():
    # both functions keep the Matsubara label and close on their external
    eq = catalog.convolution()
    got = _reduced(eq, SuperIndex((Mats(("c",)), Plain("a"), Plain("b"))))
    assert got == [(1, (), ["A^{M(c)a}", "B^{M(c)b}"])]


def test_distribute_matsubara_vertex_keeps_marked_function():
    # only the functions owning c carry the marker; C keeps it on its
    # two horizontal arguments, B gets none
    eq = catalog.vertex()
    got = _reduced(eq, SuperIndex((Mats(("c",)), Plain("a"), Plain("b"), Plain("d"))))
    assert got == [(1, (), ["A^{M(c)a}", "B^{ad}", "C^{M(c)bd}"])]


def test_distribute_matsubara_empty_set_is_identity():
    eq = catalog.convolution()
    got = _reduced(eq, SuperIndex((Plain("a"), Plain("b"), Plain("c"))))
    assert got == [(1, (), ["A^{ac}", "B^{bc}"])]


def test_all_labels_matsubara_double_triangle():
    eq = catalog.double_triangle()
    got = _reduced(eq, SuperIndex((Mats(("a", "b", "c", "d")),)))
    assert got == [
        (1, (), ["A^{M(ac)}", "B^{M(bc)}", "C^{M(cd)}", "D^{M(ad)}", "E^{M(bd)}"])
    ]


CHAIN = catalog.chain3()


def test_vanishes_matsubara_separated_retarded_pair():
    # with c and d vertical nothing joins a and b on the horizontal branches
    pair = Ret(Plain("a"), (Plain("b"),))
    index = SuperIndex((Mats(("c", "d")), pair))
    dropped = []
    assert _reduced(CHAIN, index, dropped) == []
    assert dropped == [_block(CHAIN, index)]
    assert dropped[0][1] == (pair,)


def test_vanishes_connected_set_survives():
    dropped = []
    index = SuperIndex((Ret(Plain("a"), (Plain("c"), Plain("d"), Plain("b"))),))
    assert _reduced(CHAIN, index, dropped)
    assert dropped == []


def test_vanishes_singleton_never():
    dropped = []
    index = SuperIndex((Plain("a"), Plain("b"), Plain("c"), Plain("d")))
    assert _reduced(CHAIN, index, dropped) == [
        (1, (), ["A^{ac}", "B^{cd}", "C^{bd}"])
    ]
    assert dropped == []


def test_commutator_prune_chain_single_survivor():
    # of the six permutations of R(a,cdb) over the chain, one survives
    items = (Ret(Plain("a"), (Plain("c"), Plain("d"), Plain("b"))),)
    got = expand_retarded(items, edges=direct_edges(CHAIN.product))
    chains = {c for _, cs, _ in got for c in cs}
    assert chains == {("a", "c", "d", "b")}
    assert len(got) == 2 ** 3


def test_commutator_prune_disconnected_pair_empty():
    eq = parse_equation("Z[a,b] = int{} : P[a]*Q[b]")
    items = (Ret(Plain("a"), (Plain("b"),)),)
    assert expand_retarded(items, edges=direct_edges(eq.product)) == []


def test_separate_distinct_sets_factor_out():
    # a two-point function spanning two retarded sets is fully determined,
    # and the two sets fall apart into one single-function block each
    index = SuperIndex((Ret(Plain("a"), (Plain("c"),)), Ret(Plain("b"), (Plain("d"),))))
    assert _reduced(CHAIN, index) == [(1, (), ["A^{R(a,c)}", "B^{cd}", "C^{R(b,d)}"])]


def test_separate_leaves_bridge_work_to_the_reducer():
    # a nested composition joined through a two-point bridge is not split by
    # plain separation; the bridge rewrite peels it
    eq2 = parse_equation("X[a,c,d] = int{} : A[a,c]*B[c,d]")
    index = SuperIndex((Ret(Plain("a"), (Ret(Plain("c"), (Plain("d"),)),)),))
    assert _reduced(eq2, index) == [(1, (), ["A^{R(a,c)}", "B^{R(c,d)}"])]
    rule = derive_rule(eq2, parse_superindex("R(a,cd)", eq2))
    assert emit(rule, "text", "labeled") == "A^{R(a,c)} B^{R(c,d)}"


def _langreth(eq, name):
    return emit(derive_rule(eq, parse_superindex(name, eq)), "text", "langreth")


def test_convolution_rules_langreth_strings():
    eq = catalog.convolution()
    assert _langreth(eq, ">") == "∫{c} A^{>} B^{A} + ∫{c} A^{R} B^{>} + ⋆{c} A^{⌉} B^{⌈}"
    assert _langreth(eq, "R") == "∫{c} A^{R} B^{R}"
    assert _langreth(eq, "rc") == "∫{c} A^{R} B^{⌉} + ⋆{c} A^{⌉} B^{M}"
    assert _langreth(eq, "M") == "⋆{c} A^{M} B^{M}"


def test_product_rules_langreth_strings():
    eq = catalog.product_structure()
    assert _langreth(eq, ">") == "A^{>} B^{<}"
    assert _langreth(eq, "R") == "A^{<} B^{A} + A^{R} B^{<}"
    assert _langreth(eq, "A") == "A^{>} B^{R} + A^{A} B^{>}"
    assert _langreth(eq, "M") == "A^{M} B^{M}"


def test_chain3_keldysh_greater_exact_three_terms():
    eq = _keldysh(CHAIN)
    rule = derive_rule(eq, parse_superindex(">", eq))
    expected = canonicalize(catalog.build_rule(eq, catalog.CHAIN3_GREATER_ROW))
    assert rule == expected
    assert emit(rule, "text", "langreth") == (
        "∫{cd} A^{>} B^{A} C^{A} + ∫{cd} A^{R} B^{>} C^{A} + ∫{cd} A^{R} B^{R} C^{>}"
    )


def test_double_triangle_matsubara_row():
    eq = catalog.double_triangle()
    assert _langreth(eq, "M") == "⋆{cd} A^{M} B^{M} C^{M} D^{M} E^{M}"


def test_vertex_matsubara_row():
    eq = catalog.vertex()
    rule = derive_rule(eq, parse_superindex("M", eq))
    assert emit(rule, "text", "labeled") == "⋆{cd} A^{M(ac)} B^{M(ad)} C^{M(bcd)}"
    with pytest.raises(NamingUnavailable):
        emit(rule, "text", "langreth")


def test_triangle_one_external_rule():
    eq = catalog.triangle_one()
    rule = derive_rule(eq, parse_superindex("1", eq))
    closed_m = [t for t in rule.terms if t.imag_integrals]
    assert len(closed_m) == 3
    # the fully horizontal block comes out in compact retarded form: four
    # terms, only the two step-split ones carrying an explicit chain
    horizontal = [t for t in rule.terms if not t.imag_integrals]
    assert len(horizontal) == 4
    assert sum(1 for t in horizontal if t.steps) == 2
    ref = catalog.build_rule(eq, catalog.TRIANGLE_ONE_EXTERNAL_ROW)
    assert normal_form_equal(rule, ref, eq)


def test_all_matsubara_target_on_keldysh_contour_vanishes():
    # with every external on the vertical branch, the horizontal integral
    # spans the whole contour and the rule is identically zero
    eq = _keldysh(catalog.convolution())
    rule = derive_rule(eq, parse_superindex("M", catalog.convolution()))
    assert rule.terms == ()


def test_completeness_every_factor_is_single_function():
    for name, make in catalog.CORPUS.items():
        eq = make()
        names = {f.name for f in eq.product}
        for tname in catalog.all_targets(eq):
            rule = derive_rule(eq, parse_superindex(tname, eq))
            for term in rule.terms:
                for factor in term.factors:
                    assert factor.func.name in names


def test_dropped_blocks_recorded():
    eq = catalog.double_triangle()
    dropped = []
    derive_rule(eq, parse_superindex("R", eq), dropped=dropped)
    assert dropped  # the fully Matsubara-separated distribution vanishes


def test_emit_empty_and_latex():
    assert emit(RealTimeExpression(()), "text", "langreth") == "0"
    eq = catalog.convolution()
    rule = derive_rule(eq, parse_superindex("R", eq))
    assert emit(rule, "latex", "langreth") == r"\int_{c} A^{R} B^{R}"
    assert emit(rule, "latex", "hacek") == r"\int_{c} A^{R(1,2)} B^{R(1,2)}"
    assert emit(rule, "latex", "labeled") == r"\int_{c} A^{R(\check{a},\check{c})} B^{R(\check{c},\check{b})}"


def test_emit_hacek_vertex_factor():
    eq = catalog.vertex()
    rule = derive_rule(eq, parse_superindex("lc", eq))
    text = emit(rule, "text", "hacek")
    # C[c,d,b]: the mixed component with c vertical is M(1), top b is slot 3
    assert "C^{M(1)R(3,2)}" in text


def test_three_external_composition_consistency():
    # the oracle stops at two horizontal externals, but two internal
    # identities pin the pipeline at E = 3: symmetry of the retarded
    # arguments, and the composition being the step-weighted commutator
    # combination of the component rules
    from contourcalc.ir import RealTimeTerm

    eq = parse_equation("X[a,b,c] = int{u,v} : A[a,u]*B[u,b]*C[u,v]*D[v,c]")
    r1 = derive_rule(eq, parse_superindex("R(a,bc)", eq))
    r2 = derive_rule(eq, parse_superindex("R(a,cb)", eq))
    assert normal_form_equal(r1, r2, eq)

    target = parse_superindex("R(a,bc)", eq)
    combined = []
    for sign, chains, word in expand_retarded(target.items):
        comp = derive_rule(eq, SuperIndex(tuple(Plain(l) for l in word)))
        for t in comp.terms:
            combined.append(
                RealTimeTerm(
                    sign * t.sign, t.steps + chains, t.factors,
                    t.real_integrals, t.imag_integrals,
                )
            )
    combo = RealTimeExpression(tuple(combined))
    assert normal_form_equal(r1, combo, eq)

    # mixed vertical placement at E = 3 reduces to a single chain term
    r3 = derive_rule(eq, parse_superindex("M(b)R(a,c)", eq))
    assert len(r3.terms) == 1
