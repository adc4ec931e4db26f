"""Component calculus on products, separation rules, and the rule compiler."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contourcalc import catalog, compiler
from contourcalc.compiler import (
    NamingUnavailable,
    _closure,
    _fuse_chain_sets,
    _merge_theta,
    _reduce_block,
    component_of_product,
    derive_rule,
    emit,
)
from contourcalc.engine import expand_retarded
from contourcalc.ir import (
    EXTENDED,
    KELDYSH,
    ContourEquation,
    CoverError,
    Mats,
    Plain,
    RealTimeExpression,
    Ret,
    SubFunction,
    SuperIndex,
    canonicalize,
    to_hacek,
)
from contourcalc.oracle import normal_form_equal
from contourcalc.parser import parse_equation, parse_superindex


def _keldysh(eq):
    return ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, "keldysh")


def direct_edges(product):
    """Pairs of labels appearing together in some sub-function."""
    return {frozenset(pair) for f in product for pair in itertools.combinations(f.args, 2)}


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


# the structures whose factors pin the writer: the corpus, the chain of four
# convolutions, the ladder, three horizontal externals and a repeated name
WRITER_STRUCTURES = [f() for f in catalog.CORPUS.values()] + [
    parse_equation(text)
    for text in (
        "G[a,b] = int{c,d,e,f} : A[a,c]*B[c,d]*C[d,e]*D[e,f]*E[f,b]",
        "G[a,b] = int{c,d,e,f} : A[a,c]*B[a,d]*C[c,d]*D[c,e]*E[d,f]*F[e,f]*H[e,b]*K[f,b]",
        "X[a,b,c] = int{u,v} : A[a,u]*B[u,b]*C[u,v]*D[v,c]",
        "S[a,b] = int{c,d} : G[a,c]*G[c,d]*G[d,b]",
    )
]

TEN = parse_equation("W[a,b,c,d,e,f,g,h,i,j] = int{k} : A[a,k]*K[k,b,c,d,e,f,g,h,i,j]")


def test_factor_sort_key_is_the_positional_index():
    checked = 0
    for eq in WRITER_STRUCTURES:
        for contour_eq in (eq, _keldysh(eq)):
            for name in catalog.all_targets(contour_eq):
                rule = derive_rule(contour_eq, parse_superindex(name, contour_eq))
                for term in rule:
                    for f in term.factors:
                        expected = (f.func.name, str(to_hacek(f.index, f.func.args)), f.func.args)
                        assert f.sort_key() == expected
                        checked += 1
    assert checked > 1000


def test_emit_ten_argument_factor():
    # positions reach two digits: the hacek forms, text and LaTeX, separate
    # them with ','; labels never need it
    rule = derive_rule(TEN, parse_superindex("R(a,bc)defghij", TEN))
    assert emit(rule, "text", "hacek") == (
        "∫{k} Θ(bc) A^{R(1,2)} K^{R(R(1,2),3),4,5,6,7,8,9,10}"
        " + ∫{k} Θ(cb) A^{R(1,2)} K^{R(R(1,3),2),4,5,6,7,8,9,10}"
    )
    assert emit(rule, "latex", "hacek") == (
        r"\int_{k} \Theta_{bc} A^{R(1,2)} K^{R(R(1,2),3),4,5,6,7,8,9,10}"
        r" + \int_{k} \Theta_{cb} A^{R(1,2)} K^{R(R(1,3),2),4,5,6,7,8,9,10}"
    )
    assert emit(rule, "latex", "labeled") == (
        r"\int_{k} \Theta_{bc} A^{R(\check{a},\check{k})} K^{R(R(\check{k},\check{b}),\check{c})"
        r"\check{d}\check{e}\check{f}\check{g}\check{h}\check{i}\check{j}}"
        r" + \int_{k} \Theta_{cb} A^{R(\check{a},\check{k})} K^{R(R(\check{k},\check{c}),\check{b})"
        r"\check{d}\check{e}\check{f}\check{g}\check{h}\check{i}\check{j}}"
    )
    # a Matsubara set holding the tenth argument
    rule = derive_rule(TEN, parse_superindex("M(j)abcdefghi", TEN))
    tail = RealTimeExpression(rule.terms[-2:])
    assert emit(tail, "text", "hacek") == (
        "∫{k} A^{R(1,2)} K^{M(10),1,2,3,4,5,6,7,8,9}"
        " + ⋆{k} A^{M(2)1} K^{M(10,1),2,3,4,5,6,7,8,9}"
    )
    assert emit(tail, "latex", "hacek") == (
        r"\int_{k} A^{R(1,2)} K^{M(10),1,2,3,4,5,6,7,8,9}"
        r" + \star_{k} A^{M(2)1} K^{M(10,1),2,3,4,5,6,7,8,9}"
    )
    assert emit(tail, "latex", "labeled") == (
        r"\int_{k} A^{R(\check{a},\check{k})} K^{M(\check{j})\check{k}\check{b}\check{c}"
        r"\check{d}\check{e}\check{f}\check{g}\check{h}\check{i}}"
        r" + \star_{k} A^{M(\check{k})\check{a}} K^{M(\check{j}\check{k})\check{b}\check{c}"
        r"\check{d}\check{e}\check{f}\check{g}\check{h}\check{i}}"
    )


def test_compiler_never_rebuilds_indices_through_to_hacek(monkeypatch):
    import contourcalc.ir

    def refuse(*args):
        raise AssertionError("to_hacek called")

    monkeypatch.setattr(contourcalc.ir, "to_hacek", refuse)
    for eq, name in ((catalog.vertex(), "lc"), (TEN, "R(a,bc)defghij")):
        rule = derive_rule(eq, parse_superindex(name, eq))
        assert canonicalize(rule) == rule
        for fmt in ("text", "latex"):
            for naming in ("hacek", "labeled"):
                assert emit(rule, fmt, naming)


@pytest.mark.parametrize("name", sorted(catalog.CORPUS))
def test_position_labelled_targets_are_refused(name):
    # a target holds label strings; the int positions to_hacek returns
    # cover no external and fail the cover check
    eq = catalog.CORPUS[name]()
    for tname in catalog.all_targets(eq):
        target = to_hacek(parse_superindex(tname, eq), eq.external)
        with pytest.raises(CoverError):
            derive_rule(eq, target)


# ---------------------------------------------------------------------------
# step-chain fusion


def _all_pairs_merge_theta(parts):
    """The fusion by one all-pairs scan over every term, from the start
    again after each fusion: the order of fusions and the places of the
    fused terms that ``_merge_theta`` must keep."""

    def clean(chains):
        return tuple(sorted({c for c in chains if len(c) > 1}))

    terms = [(s, clean(c), f) for s, c, f in parts]
    changed = True
    while changed:
        changed = False
        for a in range(len(terms)):
            s1, c1, f1 = terms[a]
            for b in range(a + 1, len(terms)):
                s2, c2, f2 = terms[b]
                if s1 != s2 or f1 != f2:
                    continue
                fused = _fuse_chain_sets(c1, c2)
                if fused is None:
                    continue
                terms[a] = (s1, clean(fused), f1)
                del terms[b]
                changed = True
                break
            if changed:
                break
    return terms


# chains over few labels, so that many pairs of terms fuse
_CHAINS = [
    c for n in (1, 2, 3) for labels in itertools.combinations("abcd", n)
    for c in itertools.permutations(labels)
]


@st.composite
def _part_lists(draw):
    chain_sets = st.lists(st.sampled_from(_CHAINS), max_size=3).map(tuple)
    part = st.tuples(st.sampled_from((1, -1)), chain_sets, st.sampled_from(((), ("A",), ("B",))))
    parts = draw(st.lists(part, max_size=10))
    # partners that fuse: one chain with two adjacent labels swapped
    for s, chains, f in list(parts):
        long = [i for i, c in enumerate(chains) if len(c) > 1]
        if long and draw(st.booleans()):
            i = draw(st.sampled_from(long))
            j = draw(st.integers(0, len(chains[i]) - 2))
            c = chains[i]
            swapped = c[:j] + (c[j + 1], c[j]) + c[j + 2:]
            parts.append((s, chains[:i] + (swapped,) + chains[i + 1:], f))
    return draw(st.permutations(parts))


@settings(max_examples=200, deadline=None)
@given(_part_lists())
def test_merge_theta_matches_all_pairs_scan(parts):
    assert _merge_theta(parts) == _all_pairs_merge_theta(parts)


def test_merge_theta_fuses_a_transposition_in_place():
    parts = [
        (1, (("a", "b", "c"),), ("A",)),
        (-1, (("b", "a"),), ("A",)),
        (1, (("b", "a", "c"),), ("A",)),
    ]
    # Theta(abc) + Theta(bac) = Theta(ac) Theta(bc), at the first term's place
    assert _merge_theta(parts) == [
        (1, (("a", "c"), ("b", "c")), ("A",)),
        (-1, (("b", "a"),), ("A",)),
    ]


def _fixpoint_closure(pairs):
    """The transitive closure by a fixpoint over all pairs of pairs, added
    until nothing is new: the result ``_closure``'s graph search must keep."""
    done = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(done):
            for (c, d) in list(done):
                if b == c and (a, d) not in done:
                    done.add((a, d))
                    changed = True
    return done


# pairs over few labels, so that long paths, self-pairs and cycles are common
_LABEL = st.sampled_from("abcde")


@settings(max_examples=300, deadline=None)
@given(st.sets(st.tuples(_LABEL, _LABEL), max_size=12))
@example(set())
@example({("a", "a")})
@example({("a", "b"), ("b", "c"), ("c", "a")})
@example({("a", "b"), ("b", "b"), ("c", "d")})
def test_closure_matches_fixpoint(pairs):
    assert _closure(pairs) == _fixpoint_closure(pairs)


# the ladder telescopes on four internal labels, X on three horizontal
# externals; every function is two-point, so every rule has Langreth
# names.  Between them they reach every process-wide compiler cache
CACHE_PROBES = (
    "G[a,b] = int{c,d,e,f} : A[a,c]*B[a,d]*C[c,d]*D[c,e]*E[d,f]*F[e,f]*H[e,b]*K[f,b]",
    "X[a,b,c] = int{u,v} : A[a,u]*B[u,b]*C[u,v]*D[v,c]",
)


def _compiler_caches():
    return {
        name: fn for name, fn in vars(compiler).items()
        if callable(getattr(fn, "cache_clear", None)) and hasattr(fn, "cache_info")
    }


def _probe_texts(clear):
    """The emitted text of every probe target on both contours, each target
    derived with every compiler cache emptied first when ``clear``."""
    texts = []
    for contour in (EXTENDED, KELDYSH):
        for src in CACHE_PROBES:
            eq = parse_equation(src, contour)
            for name in catalog.all_targets(eq):
                if clear:
                    for fn in _compiler_caches().values():
                        fn.cache_clear()
                rule = derive_rule(eq, parse_superindex(name, eq))
                texts.append((contour, src, name) + tuple(
                    emit(rule, fmt, naming)
                    for fmt in ("text", "latex") for naming in ("hacek", "langreth")
                ))
    return texts


def test_compiler_caches_are_bounded_and_change_no_output():
    caches = _compiler_caches()
    assert {"_support_pairs", "_implied", "_built_pairs", "_render_factor"} <= set(caches)
    assert all(fn.cache_info().maxsize is not None for fn in caches.values())
    cold = _probe_texts(clear=True)
    _probe_texts(clear=False)
    assert all(fn.cache_info().currsize > 0 for fn in caches.values())
    assert _probe_texts(clear=False) == cold
