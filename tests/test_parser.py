"""DSL parsing, pretty-printing, and target super-index syntax."""

from pathlib import Path

import pytest

from contourcalc import catalog
from contourcalc.ir import (
    EXTENDED,
    KELDYSH,
    ContourEquation,
    ContourError,
    Mats,
    Plain,
    Ret,
    SubFunction,
    to_hacek,
    validate_equation,
)
from contourcalc.parser import (
    ArityMismatch,
    EquationSyntaxError,
    SourceSpan,
    parse_equation,
    parse_file,
    parse_superindex,
)


def test_parse_double_triangle():
    eq = parse_equation("X[a,b] = int{c,d} : A[a,c]*B[c,b]*C[c,d]*D[a,d]*E[d,b]")
    assert eq.lhs_name == "X"
    assert eq.external == ("a", "b")
    assert eq.internal == ("c", "d")
    assert [f.name for f in eq.product] == ["A", "B", "C", "D", "E"]
    assert eq.product[2].args == ("c", "d")


def test_parse_vertex():
    eq = parse_equation("H[a,b] = int{c,d} : A[a,c]*B[a,d]*C[c,d,b]")
    assert eq.product[2].args == ("c", "d", "b")


def test_parse_product_zero_internals():
    eq = parse_equation("D[a,b] = int{} : A[a,b]*B[b,a]")
    assert eq.internal == ()


def test_star_optional_and_whitespace_insensitive():
    a = parse_equation("D[a,b]=int{c}:A[a,c]B[c,b]")
    b = parse_equation("D[ a , b ] = int { c } :  A[a,c] * B[c,b]")
    assert a == b


def test_comments_and_stanzas():
    text = """
    # chain of two convolutions
    E[a,b] = int{c,d} : A[a,c]*B[c,d]*C[d,b]

    D[a,b] = int{c} : A[a,c]*B[c,b]  # the plain convolution
    """
    eqs = parse_file(text)
    assert [e.lhs_name for e in eqs] == ["E", "D"]


def test_pretty_parse_round_trip():
    for text in (
        "D[a,b] = int{c} : A[a,c]*B[c,b]",
        "D[a,b] = int{} : A[a,b]*B[b,a]",
        "H[a,b] = int{c,d} : A[a,c]*B[a,d]*C[c,d,b]",
        "F[a] = int{b,c} : A[a,b]*B[a,c]*C[b,c]",
    ):
        eq = parse_equation(text)
        assert parse_equation(str(eq)) == eq


def test_syntax_error_has_span():
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation("D[a,b] = why{c} : A[a,c]")
    assert err.value.span.start >= 0


def test_validation_error_carries_span():
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation("D[a,b] = int{a} : A[a,b]")
    assert "Overlapping" in str(err.value)
    assert err.value.span.end >= err.value.span.start


@pytest.mark.parametrize(
    "text, at",
    [
        ("G[a b] = int{c} : A[a,c]*B[c,b]", 4),  # lhs
        ("G[a,b] = int{c d} : A[a,c]*B[c,d]*C[d,b]", 15),  # int{}
        ("G[a,b] = int{c} : A[a c]*B[c,b]", 22),  # a factor
    ],
)
def test_labels_need_commas(text, at):
    with pytest.raises(EquationSyntaxError, match="expected ','") as err:
        parse_equation(text)
    assert err.value.span == SourceSpan(at, at)


def test_dangling_internal_rejected():
    with pytest.raises(EquationSyntaxError) as err:
        parse_equation("D[a,b] = int{c} : A[a,b]")
    assert "Dangling" in str(err.value)
    (diag,) = validate_equation(ContourEquation("D", ("a", "b"), ("c",), (SubFunction("A", ("a", "b")),)))
    assert (diag.kind, diag.label, diag.position) == ("DanglingInternal", "c", None)


@pytest.mark.parametrize(
    "text, kind, spanned",
    [
        ("D[a,b] = int{c,x} : A[a,c]*B[c,b]", "DanglingInternal", "x"),
        ("D[a,b] = int{c} : A[a,c]*B[c,b]*C[q,b]", "UnknownLabel", "q"),
        ("D[a,b] = int{b} : A[a,b]", "OverlappingSets", "b"),
        ("D[b,b] = int{c} : A[b,c]*B[c,b]", "DuplicateLabel", "b"),
        # a label repeated in one sub-function spans that sub-function
        ("D[a,b] = int{c} : A[a,c]*B[c,c,b]", "DuplicateLabel", "B[c,c,b]"),
    ],
)
def test_validation_error_spans_its_label(text, kind, spanned):
    # the span is the diagnostic's label, found by the label itself, not
    # by a search of the message text, where a one-letter label inside a
    # word such as "DanglingInternal" would win
    with pytest.raises(EquationSyntaxError, match=kind) as err:
        parse_equation(text)
    span = err.value.span
    assert text[span.start:span.end + 1] == spanned


CONV = parse_equation("D[a,b] = int{c} : A[a,c]*B[c,b]")


def test_shorthand_greater_is_hacek_12():
    si = parse_superindex(">", CONV)
    assert to_hacek(si, CONV.external).items == (Plain(1), Plain(2))


def test_shorthand_retarded():
    si = parse_superindex("R", CONV)
    assert to_hacek(si, CONV.external).items == (Ret(Plain(1), (Plain(2),)),)


def test_shorthand_mixed_and_aliases():
    for text in ("⌉", "rc", "^r]"):
        si = parse_superindex(text, CONV)
        assert to_hacek(si, CONV.external).items == (Mats((2,)), Plain(1))
    for text in ("⌈", "lc", "^l]"):
        si = parse_superindex(text, CONV)
        assert to_hacek(si, CONV.external).items == (Mats((1,)), Plain(2))


def test_general_labeled_target():
    eq = parse_equation("D[a,d] = int{b,c} : Dbar[a,b,c,d]")
    si = parse_superindex("M(a)d", eq)
    assert to_hacek(si, eq.external).items == (Mats((1,)), Plain(2))


def test_digit_targets_are_positions():
    eq = parse_equation("X[a,b,c] = int{} : A[a,b]*B[b,c]")
    si = parse_superindex("213", eq)
    assert si.items == (Plain("b"), Plain("a"), Plain("c"))
    si = parse_superindex("R(1,23)", eq)
    assert si.items == (Ret(Plain("a"), (Plain("b"), Plain("c"))),)


def test_superscript_digits_are_labels_not_positions():
    # '²' is a digit to str.isdigit but no int; as a label it parses, and
    # beside a position it is refused, never a traceback
    eq = parse_equation("P[²,b] = int{} : A[²,b]")
    assert parse_superindex("²b", eq).items == (Plain("²"), Plain("b"))
    with pytest.raises(ContourError):
        parse_superindex("²1", CONV)


def test_nested_target_syntax():
    eq = parse_equation("X[a,b,c] = int{} : A[a,b]*B[b,c]")
    si = parse_superindex("R(R(a,b),c)", eq)
    assert si.items == (Ret(Ret(Plain("a"), (Plain("b"),)), (Plain("c"),)),)


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_superindex("R(a,c)", CONV)  # c is internal, not external
    eq1 = parse_equation("F[a] = int{b,c} : A[a,b]*B[a,c]*C[b,c]")
    with pytest.raises(ArityMismatch):
        parse_superindex(">", eq1)


def test_one_name_at_two_arities_is_refused():
    # a repeated name is one function, so it must keep one arity
    text = "X[a,b] = int{u} : F[a,u]*F[u,b,a]"
    product = (SubFunction("F", ("a", "u")), SubFunction("F", ("u", "b", "a")))
    (diag,) = validate_equation(ContourEquation("X", ("a", "b"), ("u",), product))
    assert diag.kind == "ArityMismatch" and diag.position == 1
    with pytest.raises(EquationSyntaxError, match="ArityMismatch") as err:
        parse_equation(text)
    # the span is the second use, the one with the other arity
    assert text[err.value.span.start:err.value.span.end + 1] == "F[u,b,a]"
    with pytest.raises(EquationSyntaxError, match="ArityMismatch"):
        parse_file("D[a,b] = int{c} : A[a,c]*B[c,b]\n" + text + "\n")


def test_unknown_contour_is_refused():
    # a contour name that is neither keldysh nor extended is a diagnostic,
    # not the Keldysh contour; it spans the whole text, since the contour is
    # an argument and no label of the text
    text = "D[a,b] = int{c} : A[a,c]*B[c,b]"
    for parse in (parse_equation, parse_file):
        with pytest.raises(EquationSyntaxError, match="UnknownContour") as err:
            parse(text, contour="Extended")
        assert (err.value.span.start, err.value.span.end) == (0, len(text) - 1)
    product = (SubFunction("A", ("a", "c")), SubFunction("B", ("c", "b")))
    (diag,) = validate_equation(ContourEquation("D", ("a", "b"), ("c",), product, "Extended"))
    assert diag.kind == "UnknownContour" and diag.position is None
    for contour in (KELDYSH, EXTENDED):
        assert parse_equation(text, contour=contour).contour == contour


def test_superindex_garbage_rejected():
    with pytest.raises(EquationSyntaxError):
        parse_superindex("R(a", CONV)
    with pytest.raises(EquationSyntaxError):
        parse_superindex("1a", parse_equation("X[a,b,c] = int{} : A[a,b]*B[b,c]"))


from hypothesis import given, settings
from hypothesis import strategies as st
from contourcalc.ir import ContourError


@given(st.text(alphabet="DABab[]{}=int:,*#\n <>R()M", max_size=60))
@settings(max_examples=200, deadline=None)
def test_parser_never_panics(text):
    # anything that fails must fail with a spanned syntax error
    try:
        parse_file(text)
    except ContourError as err:
        assert getattr(err, "span", None) is not None


CORPUS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "corpus.ctr"


def test_pretty_round_trip_corpus_file():
    for eq in parse_file(CORPUS_FILE.read_text("utf-8")):
        assert parse_equation(str(eq)) == eq


def test_corpus_file_is_the_catalog_corpus():
    assert parse_file(CORPUS_FILE.read_text("utf-8")) == [f() for f in catalog.CORPUS.values()]


@pytest.mark.parametrize(
    "text, message, span",
    [
        ("R(1)2", "a retarded set needs a retarded entry", (0, 3)),
        ("R(1,)2", "a retarded set needs a retarded entry", (0, 4)),
        ("R(R(1,2),)3", "a retarded set needs a retarded entry", (0, 9)),
        ("M()12", "a Matsubara set needs a label", (0, 2)),
    ],
)
def test_empty_set_rejected(text, message, span):
    eq = parse_equation("X[a,b,c] = int{} : A[a,b]*B[b,c]")
    with pytest.raises(EquationSyntaxError, match=message) as err:
        parse_superindex(text, eq)
    assert (err.value.span.start, err.value.span.end) == span


@pytest.mark.parametrize("text", ["R(1,2", "M(1", "R(1,R(2,3)", "M(12)R(3"])
def test_unclosed_set_reports_missing_paren(text):
    eq = parse_equation("X[a,b,c] = int{} : A[a,b]*B[b,c]")
    with pytest.raises(EquationSyntaxError, match="expected '\\)'") as err:
        parse_superindex(text, eq)
    assert err.value.span.end == len(text) - 1
