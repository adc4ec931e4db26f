"""Core IR: validation, connectivity, super-indices, canonicalization,
interning."""

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contourcalc import ir
from contourcalc.ir import (
    ContourEquation,
    CoverError,
    Factor,
    Mats,
    Plain,
    RealTimeExpression,
    RealTimeTerm,
    Ret,
    SubFunction,
    SuperIndex,
    ValidationError,
    canonicalize,
    connected,
    map_labels,
    to_hacek,
    validate_equation,
)
from contourcalc.parser import parse_equation


def _eq(text, contour="extended"):
    return parse_equation(text, contour)


def _edges(eq):
    """Pairs of labels that appear together in some sub-function."""
    return {frozenset(pair) for f in eq.product for pair in itertools.combinations(f.args, 2)}


def _to_labeled(si, args):
    """The inverse of :func:`to_hacek` for the same argument list."""
    return map_labels(si, lambda p: args[p - 1])


def test_validate_double_triangle_ok():
    eq = _eq("D[a,b] = int{c,d} : A[a,c]*B[c,b]*C[c,d]*E[a,d]*F[d,b]")
    assert validate_equation(eq) == []


def test_validate_overlapping_sets():
    eq = ContourEquation("D", ("a", "b"), ("a",), (SubFunction("A", ("a", "b")),))
    kinds = [d.kind for d in validate_equation(eq)]
    assert "OverlappingSets" in kinds


def test_validate_dangling_internal():
    eq = ContourEquation("D", ("a", "b"), ("c",), (SubFunction("A", ("a", "b")),))
    kinds = [d.kind for d in validate_equation(eq)]
    assert "DanglingInternal" in kinds


def test_validate_unknown_and_duplicate():
    eq = ContourEquation("D", ("a", "a"), (), (SubFunction("A", ("a", "z")),))
    kinds = {d.kind for d in validate_equation(eq)}
    assert {"DuplicateLabel", "UnknownLabel"} <= kinds


def test_connectivity_chain():
    edges = _edges(_eq("E[a,b] = int{c,d} : A[a,c]*B[c,d]*C[d,b]"))
    assert connected({"a", "c", "d", "b"}, edges)
    assert not connected({"a", "b"}, edges)
    assert connected({"a"}, edges)
    # a label of no sub-function is linked to nothing
    assert not connected({"a", "z"}, edges)


def test_connectivity_monotone_under_added_subfunction():
    eq = _eq("E[a,b] = int{c,d} : A[a,c]*B[c,d]*C[d,b]")
    bigger = ContourEquation(
        eq.lhs_name, eq.external, eq.internal, eq.product + (SubFunction("X", ("a", "b")),)
    )
    for subset in ({"a", "b"}, {"a", "c"}, {"c", "d", "b"}):
        if connected(subset, _edges(eq)):
            assert connected(subset, _edges(bigger))


def test_superindex_duplicate_labels_rejected():
    with pytest.raises(CoverError):
        SuperIndex((Plain("a"), Plain("a")))


def test_mats_only_at_head():
    with pytest.raises(CoverError):
        SuperIndex((Plain("a"), Mats(("b",))))
    with pytest.raises(CoverError):
        Ret(Plain("a"), (Mats(("b",)),))


def test_hacek_round_trip_simple():
    args = ("a", "b", "c", "d")
    si = SuperIndex((Mats(("a",)), Ret(Plain("d"), (Plain("b"), Plain("c")))))
    h = to_hacek(si, args)
    assert str(h) == "M(1)R(4,23)"
    assert _to_labeled(h, args) == si


def test_hacek_conversions_refuse_the_other_label_kind():
    # production indices carry label strings; positions are the ints that
    # to_hacek returns, and it does not pass positions through
    args = ("a", "b")
    labeled = SuperIndex((Plain("a"), Plain("b")))
    with pytest.raises(CoverError):
        to_hacek(to_hacek(labeled, args), args)
    with pytest.raises(CoverError):
        to_hacek(SuperIndex((Plain("a"), Plain("z"))), args)


@st.composite
def _index_over(draw, args):
    labels = list(args)
    draw_n = draw(st.integers(0, len(labels)))
    mats = labels[:0]
    items = []
    pool = labels[:]
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(pool)
    if draw(st.booleans()) and draw_n:
        mats = pool[:draw_n]
        pool = pool[draw_n:]
        items.append(Mats(tuple(mats)))

    def build(avail, depth=0):
        if len(avail) == 1 or depth > 2 or draw(st.booleans()):
            return Plain(avail[0]), avail[1:]
        top, rest = build(avail, depth + 1)
        entries = []
        while rest and draw(st.booleans()):
            e, rest = build(rest, depth + 1)
            entries.append(e)
        if not entries:
            return top, rest
        return Ret(top, tuple(entries)), rest

    while pool:
        item, pool = build(pool)
        items.append(item)
    return SuperIndex(tuple(items))


@given(st.integers(1, 8), st.data())
@settings(max_examples=120, deadline=None)
def test_hacek_round_trip_property(arity, data):
    args = tuple(f"x{i}" for i in range(arity))
    si = data.draw(_index_over(args))
    assert _to_labeled(to_hacek(si, args), args) == si


def _term(sign, factors, steps=(), real=frozenset(), imag=frozenset()):
    return RealTimeTerm(sign, steps, factors, real, imag)


A2 = SubFunction("A", ("a", "b"))
B2 = SubFunction("B", ("b", "a"))


def _f(func, *labels):
    return Factor(func, SuperIndex(tuple(Plain(l) for l in labels)))


def test_canonicalize_cancellation():
    x = _term(1, (_f(A2, "a", "b"),))
    minus_x = _term(-1, (_f(A2, "a", "b"),))
    assert canonicalize(RealTimeExpression((x, minus_x))).terms == ()


def test_canonicalize_factor_sort_determinism():
    ab = canonicalize(RealTimeExpression((_term(1, (_f(A2, "a", "b"), _f(B2, "b", "a"))),)))
    ba = canonicalize(RealTimeExpression((_term(1, (_f(B2, "b", "a"), _f(A2, "a", "b"))),)))
    assert ab == ba


def test_canonicalize_rejects_non_unit_coefficients():
    x = _term(1, (_f(A2, "a", "b"),))
    with pytest.raises(ValueError):
        canonicalize(RealTimeExpression((x, x)))


@given(st.lists(st.sampled_from([1, -1]), min_size=0, max_size=6), st.data())
@settings(max_examples=80, deadline=None)
def test_canonicalize_idempotent(signs, data):
    pool = [
        (_f(A2, "a", "b"),),
        (_f(A2, "b", "a"),),
        (_f(A2, "a", "b"), _f(B2, "b", "a")),
        (_f(B2, "a", "b"),),
    ]
    terms = []
    for s in signs:
        factors = data.draw(st.sampled_from(pool))
        steps = data.draw(st.sampled_from([(), (("a", "b"),)]))
        terms.append(_term(s, factors, steps))
    try:
        once = canonicalize(RealTimeExpression(tuple(terms)))
    except ValueError:
        return  # merged coefficient beyond +-1: not a canonicalizable input
    assert canonicalize(once) == once


def test_factor_cover_checks():
    with pytest.raises(CoverError):
        Factor(A2, SuperIndex((Plain("a"),)))
    with pytest.raises(CoverError):
        Factor(A2, SuperIndex((Plain("a"), Plain("z"))))


def test_factor_sort_key_and_repr():
    f = Factor(A2, SuperIndex((Mats(("a",)), Plain("b"))))
    # the memoized sort key and the dataclass repr are those the fields give
    assert f.sort_key() == ("A", "M(1)2", ("a", "b"))
    assert repr(f) == (
        "Factor(func=SubFunction(name='A', args=('a', 'b')), index=SuperIndex("
        "items=(Mats(labels=('a',)), Plain(label='b'))))"
    )


@given(st.integers(1, 12), st.data())
@settings(max_examples=120, deadline=None)
def test_factor_sort_key_writes_the_hacek_index(arity, data):
    # the positional text is written straight from the labeled index; ten
    # or more arguments give two-digit positions, separated by ','
    args = tuple(f"x{i}" for i in range(arity))
    si = data.draw(_index_over(args))
    f = Factor(SubFunction("F", args), si)
    assert f.sort_key() == ("F", str(to_hacek(si, args)), args)


# ---------------------------------------------------------------------------
# interning


def _values():
    a, b = Plain("a"), Plain("b")
    index = SuperIndex((Mats(("a",)), Ret(b, ())))
    return [a, Ret(a, (b,)), Mats(("a", "b")), index, A2, Factor(A2, index)]


def test_equal_values_are_one_object():
    for value in _values():
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        assert type(value)(*fields.values()) is value
        assert type(value)(**fields) is value
        assert dataclasses.replace(value) is value
        assert hash(value) == object.__hash__(value)
    assert dataclasses.replace(Plain("a"), label="b") is Plain("b")
    assert Factor(index=SuperIndex((Plain("b"), Plain("a"))), func=A2) is Factor(
        A2, SuperIndex((Plain("b"), Plain("a")))
    )
    assert Plain("a") != Plain("b") and Plain(1) is not Plain("1")


def test_pickle_and_copies_return_the_interned_value():
    for value in _values():
        assert pickle.loads(pickle.dumps(value)) is value
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
    # a value inside a container that is not interned comes back interned
    term = RealTimeTerm(1, (("a", "b"),), (_values()[-1],))
    assert pickle.loads(pickle.dumps(term)).factors[0] is _values()[-1]


def test_invalid_value_raises_and_is_not_stored():
    func = SubFunction("Interned", ("p", "q"))
    half = SuperIndex((Plain("p"),))
    for _ in range(2):
        with pytest.raises(CoverError):
            Factor(func, half)
        with pytest.raises(CoverError):
            SuperIndex((Plain("p"), Mats(("q",))))
    whole = SuperIndex((Plain("q"), Plain("p")))
    assert Factor(func, whole) is Factor(func, whole)
    assert str(Factor(func, whole)) == "Interned^{qp}"


def test_sort_key_is_computed_once_per_value(monkeypatch):
    calls = []
    index_text = ir._index_text
    monkeypatch.setattr(ir, "_index_text", lambda *a: calls.append(a) or index_text(*a))
    func = SubFunction("SortedOnce", ("p", "q"))
    f = Factor(func, SuperIndex((Plain("q"), Plain("p"))))
    keys = {f.sort_key() for _ in range(3)}
    keys.add(Factor(func, SuperIndex((Plain("q"), Plain("p")))).sort_key())
    assert keys == {("SortedOnce", "21", ("p", "q"))}
    assert len(calls) == 1


def test_linear_combination_from_words():
    # a signed sum of words, as emit writes a rule: each word is joined into
    # one term text
    words = [(1, ("e", "i")), (-1, ("i", "e"))]
    assert ir._signed_sum((sign, "".join(w)) for sign, w in words) == "ei - ie"


def test_linear_combination_signs():
    # no "+" before the first term, "- " before every negative one, "0" for none
    assert ir._signed_sum(()) == "0"
    assert ir._signed_sum([(-1, "ab"), (1, "ba"), (-1, "a")]) == "- ab + ba - a"
