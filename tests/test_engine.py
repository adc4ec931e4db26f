"""Retarded-set representations and expansions."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contourcalc.combinatorics import RangeError
from contourcalc.engine import (
    _validate_target,
    enumerate_pivots,
    expand_retarded,
    nested_expand,
    normalize_item,
    ordering_variants,
    representation,
    variant_count,
)
from contourcalc.ir import (
    ContourEquation,
    CoverError,
    Plain,
    Ret,
    SuperIndex,
    to_hacek,
    top_label,
)
from contourcalc.parser import parse_equation, parse_superindex
from contourcalc import catalog


def _keldysh(eq):
    return ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, "keldysh")


def _hacek_strings(eq, terms):
    args = eq.product[0].args
    return [str(to_hacek(t.index, args)) for t in terms]


FOUR = parse_equation("D[a,d] = int{b,c} : Dbar[a,b,c,d]")
FOUR_K = _keldysh(FOUR)


def test_component_representation_greater_worked_example():
    terms = representation(FOUR_K, parse_superindex("12", FOUR_K))
    assert _hacek_strings(FOUR_K, terms) == [
        "R(1,23)4",
        "R(1,2)R(4,3)",
        "R(1,3)R(4,2)",
        "1R(4,23)",
    ]
    assert all(t.real_integrals == frozenset("bc") for t in terms)


def test_component_representation_lesser_worked_example():
    terms = representation(FOUR_K, parse_superindex("21", FOUR_K))
    assert sorted(_hacek_strings(FOUR_K, terms)) == sorted(
        ["4R(1,23)", "R(4,3)R(1,2)", "R(4,2)R(1,3)", "R(4,23)1"]
    )


def test_component_representation_extended_matsubara_head():
    terms = representation(FOUR, parse_superindex("M(a)d", FOUR))
    assert _hacek_strings(FOUR, terms) == [
        "M(123)4",
        "M(12)R(4,3)",
        "M(13)R(4,2)",
        "M(1)R(4,23)",
    ]
    assert [sorted(t.imag_integrals) for t in terms] == [["b", "c"], ["b"], ["c"], []]


def test_component_representation_zero_internals():
    eq = catalog.product_structure()
    terms = representation(eq, parse_superindex(">", eq))
    assert len(terms) == 1 and terms[0].index.items == (Plain("a"), Plain("b"))


def test_composition_representation_seven_point_worked_example():
    eq = parse_equation("E[a,b,c,d,e] = int{f,g} : Ebar[a,b,c,d,e,f,g]", contour="keldysh")
    terms = representation(eq, parse_superindex("R(a,b)R(c,de)", eq))
    assert _hacek_strings(eq, terms) == [
        "R(1,267)R(3,45)",
        "R(1,26)R(3,457)",
        "R(1,27)R(3,456)",
        "R(1,2)R(3,4567)",
    ]


def test_composition_single_internal_fully_retarded():
    eq = _keldysh(parse_equation("O[e] = int{i} : Obar[e,i]"))
    # R(e, empty set) is the plain top; the single internal joins the one slot
    terms = representation(eq, SuperIndex((Ret(Plain("e"), ()),)))
    assert _hacek_strings(eq, terms) == ["R(1,2)"]


def test_composition_no_internals_identity():
    eq = parse_equation("D[a,b] = int{} : A[a,b]*B[b,a]")
    target = parse_superindex("R", eq)
    terms = representation(eq, target)
    assert len(terms) == 1 and terms[0].index == target


def test_composition_reduces_to_component_representation():
    # a component is the composition whose retarded sets hold their top
    # alone, since R(e, empty) is e
    for target in ("12", "21", "M(a)d"):
        si = parse_superindex(target, FOUR)
        sets = SuperIndex(tuple(Ret(i, ()) if isinstance(i, Plain) else i for i in si.items))
        _validate_target(FOUR, sets)
        got = [
            (SuperIndex(tuple(map(normalize_item, t.index.items))), t.real_integrals, t.imag_integrals)
            for t in representation(FOUR, sets)
        ]
        assert got == [
            (t.index, t.real_integrals, t.imag_integrals) for t in representation(FOUR, si)
        ]


def test_term_counts():
    # H slots to the power of internals on the Keldysh contour, (H+1)**I extended
    eq = catalog.double_triangle()
    eqk = _keldysh(eq)
    t = parse_superindex(">", eq)
    assert len(representation(eqk, t)) == 2 ** 2
    assert len(representation(eq, t)) == 3 ** 2
    tri = catalog.triangle_one()
    assert len(representation(tri, parse_superindex("1", tri))) == 2 ** 2
    assert len(representation(_keldysh(tri), parse_superindex("1", _keldysh(tri)))) == 1


def test_target_validation():
    with pytest.raises(CoverError):
        _validate_target(FOUR, SuperIndex((Plain("a"),)))
    with pytest.raises(CoverError):
        _validate_target(FOUR, SuperIndex((Ret(Ret(Plain("a"), (Plain("d"),)), ()),)))
    _validate_target(FOUR, parse_superindex("R(a,d)", FOUR))
    # on the Keldysh contour the vertical slot is suppressed for internals;
    # external vertical placements stay legal and distribute over real slots
    terms = representation(FOUR_K, parse_superindex("M(a)d", FOUR))
    assert _hacek_strings(FOUR_K, terms) == ["M(1)R(4,23)"]
    # with every external vertical, the horizontal integral vanishes
    eq = _keldysh(parse_equation("D[a,b] = int{c} : A[a,c]*B[c,b]"))
    full_m = parse_superindex("M", eq)
    assert representation(eq, full_m) == []


# ---------------------------------------------------------------------------
# expansions


def _nf(terms):
    """Total-order normal form of (sign, chains, word) expansions."""
    out = {}
    for sign, chains, word in terms:
        for omega in itertools.permutations(sorted(set(word))):
            pos = {l: i for i, l in enumerate(omega)}
            if not all(pos[x] < pos[y] for c in chains for x, y in zip(c, c[1:])):
                continue
            key = (omega, word)
            out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


def test_expand_retarded_two_arguments():
    got = expand_retarded((Ret(Plain("e"), (Plain("i"),)),))
    assert sorted(got) == sorted(
        [(1, (("e", "i"),), ("e", "i")), (-1, (("e", "i"),), ("i", "e"))]
    )


def test_expand_retarded_three_arguments_two_chains():
    got = expand_retarded((Ret(Plain("e"), (Plain("i"), Plain("j"))),))
    chains = {c for _, cs, _ in got for c in cs}
    assert chains == {("e", "i", "j"), ("e", "j", "i")}
    assert len(got) == 2 * 4


def test_expand_retarded_nested_single_chain_pair():
    got = expand_retarded((Ret(Plain("a"), (Ret(Plain("c"), (Plain("d"),)),)),))
    assert all(set(cs) == {("a", "c"), ("c", "d")} for _, cs, _ in got)
    words = sorted((s, w) for s, _, w in got)
    assert words == sorted(
        [
            (1, ("a", "c", "d")),
            (-1, ("a", "d", "c")),
            (-1, ("c", "d", "a")),
            (1, ("d", "c", "a")),
        ]
    )


def _poly_mul(p, q):
    out = {}
    for (c1, w1), x in p.items():
        for (c2, w2), y in q.items():
            key = (tuple(sorted(c1 + c2)), w1 + w2)
            out[key] = out.get(key, 0) + x * y
    return out


def _poly_add(p, q, scale=1):
    out = dict(p)
    for key, y in q.items():
        out[key] = out.get(key, 0) + scale * y
    return {k: v for k, v in out.items() if v}


def brute_retarded(items):
    """Oracle: the definition of a retarded set, expanded over formal words.

    ``R(t, e_1..e_m)`` is the sum over orderings P of the entries of
    ``Theta(top labels of t, P) [..[[t, P_1], P_2].., P_m]`` with the
    commutator ``[X, Y] = XY - YX`` taken literally on polynomials in
    non-commuting words; step chains are scalars.  Items multiply in order.
    Polynomials map ``(sorted chains, word)`` to a coefficient.
    """

    def expand(item):
        if isinstance(item, Plain):
            return {((), (item.label,)): 1}
        total = {}
        for perm in itertools.permutations(item.rest):
            chain = tuple(top_label(e) for e in (item.top,) + perm)
            acc = expand(item.top)
            for entry in perm:
                x = expand(entry)
                acc = _poly_add(_poly_mul(acc, x), _poly_mul(x, acc), -1)
            total = _poly_add(total, _poly_mul({((chain,), ()): 1}, acc))
        return total

    out = {((), ()): 1}
    for item in items:
        out = _poly_mul(out, expand(item))
    return out


def _R(top, *rest):
    wrap = lambda x: Plain(x) if isinstance(x, str) else x
    return Ret(wrap(top), tuple(wrap(e) for e in rest))


@pytest.mark.parametrize(
    "items",
    [
        (_R(_R("a", "b"), "c", "d"),),  # nested top
        (_R("a", _R("b", "c"), "d"),),  # nested retarded entry
        (_R("a", _R("b", _R("c", "d")), "e"),),  # two nesting levels
        (_R(_R(_R("a", "b"), "c"), "d"),),  # two nesting levels in the top
        (_R("a", "b", "c"), Plain("g"), _R("d", _R("e", "f"))),  # two sets side by side
    ],
    ids=["nested-top", "nested-entry", "two-levels", "two-levels-in-top", "side-by-side"],
)
def test_expand_retarded_nested_matches_formal_words(items):
    got = {}
    for sign, chains, word in expand_retarded(items):
        key = (tuple(sorted(chains)), word)
        got[key] = got.get(key, 0) + sign
    oracle = brute_retarded(items)
    assert got == oracle
    # distinct labels: no two expansion terms coincide, so nothing cancelled
    assert len(expand_retarded(items)) == len(oracle)


def test_retarded_symmetry_under_permuted_rest():
    # R(e, P(I)) has the same canonical step-weighted expansion for every P
    rest = (Plain("i"), Plain("j"), Plain("k"))
    base = _nf(expand_retarded((Ret(Plain("e"), rest),)))
    for perm in itertools.permutations(rest):
        assert _nf(expand_retarded((Ret(Plain("e"), perm),))) == base


def test_nested_expand_examples():
    # pivot 4 of R(1,234)
    items = (Ret(Plain("1"), (Plain("2"), Plain("3"), Plain("4"))),)
    got = nested_expand(items, (0, 3))
    rendered = [str(SuperIndex(ch)) for ch in got]
    assert rendered == ["R(R(1,4),23)", "R(1,R(2,4)3)", "R(1,2R(3,4))"]

    # pivot d, then pivot c, of R(a,cd)
    items = (Ret(Plain("a"), (Plain("c"), Plain("d"))),)
    assert [str(SuperIndex(ch)) for ch in nested_expand(items, (0, 2))] == [
        "R(R(a,d),c)",
        "R(a,R(c,d))",
    ]
    assert [str(SuperIndex(ch)) for ch in nested_expand(items, (0, 1))] == [
        "R(R(a,c),d)",
        "R(a,R(d,c))",
    ]


def test_nested_expand_pivot_errors():
    items = (Ret(Plain("a"), (Plain("c"), Plain("d"))),)
    with pytest.raises(RangeError):
        nested_expand(items, (0, 0))
    with pytest.raises(RangeError):
        nested_expand(items, (0, 5))
    with pytest.raises(RangeError):
        nested_expand(items, (2, 1))


def test_pivot_independence():
    # expanding w.r.t. any retarded entry preserves the step-weighted sum
    for n in (3, 4, 5):
        labels = [f"x{i}" for i in range(n)]
        items = (Ret(Plain(labels[0]), tuple(Plain(l) for l in labels[1:])),)
        base = _nf(expand_retarded(items))
        for pivot in range(1, n):
            combined = []
            for child in nested_expand(items, (0, pivot)):
                combined.extend(expand_retarded(child))
            assert _nf(combined) == base, (n, pivot)


def test_double_expansion_identity():
    # R(1,234) equals the fully nested four-term combination
    lhs = _nf(expand_retarded((Ret(Plain("1"), (Plain("2"), Plain("3"), Plain("4"))),)))
    one, two, three, four = "1", "2", "3", "4"
    rhs_items = [
        (Ret(Ret(Plain(one), (Plain(three), Plain(four))), (Plain(two),)),),
        (Ret(Ret(Plain(one), (Plain(four),)), (Ret(Plain(two), (Plain(three),)),)),),
        (Ret(Ret(Plain(one), (Plain(three),)), (Ret(Plain(two), (Plain(four),)),)),),
        (Ret(Plain(one), (Ret(Plain(two), (Plain(three), Plain(four))),)),),
    ]
    combined = []
    for items in rhs_items:
        combined.extend(expand_retarded(items))
    assert _nf(combined) == lhs


def test_enumerate_pivots_skips_binary_sets():
    items = (Ret(Plain("a"), (Plain("b"),)), Ret(Plain("c"), (Plain("d"), Plain("e"))))
    paths = enumerate_pivots(items)
    assert paths == [(1, 1), (1, 2)]


def test_normalize_item():
    assert normalize_item(Ret(Plain("a"), ())) == Plain("a")
    nested = Ret(Ret(Plain("a"), ()), (Ret(Plain("b"), ()),))
    assert normalize_item(nested) == Ret(Plain("a"), (Plain("b"),))


def _draw_item(draw, names, budget: int, nested: bool):
    """An item of at most ``budget`` labels, taken from ``names``, and the
    number it holds: a retarded set, or where ``nested`` allows it, perhaps
    a plain label."""
    if budget < 2 or (nested and draw(st.booleans())):
        return Plain(next(names)), 1
    top, used = _draw_item(draw, names, budget - 1, True)
    rest = []
    while True:
        entry, n = _draw_item(draw, names, budget - used, True)
        rest.append(entry)
        used += n
        if used >= budget or not draw(st.booleans()):
            return Ret(top, tuple(rest)), used


@st.composite
def _retarded_sets(draw):
    return _draw_item(draw, iter("abcdef"), draw(st.integers(2, 6)), False)[0]


A, B, C, D, E, F = (Plain(l) for l in "abcdef")
# R(a, bcdef): 5! = 120 variants, as many as the largest set that one
# derive pass of the benchmark's compile workload meets
FLAT_FIVE = Ret(A, (B, C, D, E, F))


@settings(max_examples=150, deadline=None)
@given(_retarded_sets())
@example(FLAT_FIVE)
@example(Ret(Ret(A, (B, C)), (Ret(D, (E,)), F)))
@example(Ret(A, (Ret(B, (C,)), Ret(D, (E,)), F)))
def test_variant_count_matches_the_variants(item):
    assert variant_count(item) == len(ordering_variants(item))


def test_variant_count_of_flat_five():
    assert variant_count(FLAT_FIVE) == len(ordering_variants(FLAT_FIVE)) == 120
