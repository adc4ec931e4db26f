"""Parser for the contour-equation DSL and component-target strings.

Equation grammar (whitespace-insensitive, ``#`` starts a comment)::

    equation := name '[' labels ']' '=' 'int' '{' labels? '}' ':' product
    product  := subfn ('*'? subfn)*
    subfn    := name '[' labels ']'

Target strings name components or compositions of the equation's output:
either one of the two-point shorthands (``>``, ``<``, ``R``, ``A``, ``rc``,
``lc``, ``M`` and their unicode forms) or the general syntax, e.g.
``M(a)d``, ``R(a,bc)d``, ``R(R(a,d),c)``; digit strings are read as
argument positions of the output function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    EXTENDED,
    TWO_POINT,
    ContourEquation,
    ContourError,
    CoverError,
    Item,
    Mats,
    Plain,
    Ret,
    SubFunction,
    SuperIndex,
    map_labels,
    validate_equation,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start after end")


class EquationSyntaxError(ContourError):
    def __init__(self, message: str, span: SourceSpan, text: str = ""):
        loc = f" at {span.start}..{span.end}"
        snippet = ""
        if text:
            snippet = f": {text[span.start:span.end + 1]!r}"
        super().__init__(message + loc + snippet)
        self.span = span


class ArityMismatch(ContourError):
    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.span = span


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self.pos += 1
            elif c.isspace():
                self.pos += 1
            else:
                break

    def eof(self) -> bool:
        self._skip()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def span_here(self) -> SourceSpan:
        p = min(self.pos, max(len(self.text) - 1, 0))
        return SourceSpan(p, p)

    def error(self, message: str):
        raise EquationSyntaxError(message, self.span_here(), self.text)

    def expect(self, lit: str):
        self._skip()
        if not self.text.startswith(lit, self.pos):
            self.error(f"expected {lit!r}")
        self.pos += len(lit)

    def ident(self) -> tuple[str, SourceSpan]:
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self.error("expected an identifier")
        return self.text[start : self.pos], SourceSpan(start, self.pos - 1)

    def label_list(self, close: str) -> list[tuple[str, SourceSpan]]:
        labels = []
        while True:
            if self.peek() == close:
                self.pos += 1
                return labels
            if labels:
                if self.peek() != ",":
                    self.error(f"expected ',' or {close!r} after a label")
                self.pos += 1
            labels.append(self.ident())


def parse_equation(text: str, contour: str = EXTENDED) -> ContourEquation:
    """Parse one equation; validation diagnostics are re-raised with spans."""
    sc = _Scanner(text)
    eq, spans, func_spans = _parse_one(sc)
    if not sc.eof():
        sc.error("trailing input after equation")
    eq = ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, contour)
    _revalidate(eq, spans, func_spans, text)
    return eq


def parse_file(text: str, contour: str = EXTENDED) -> list[ContourEquation]:
    """Parse a DSL file: one equation per stanza, ``#`` comments allowed."""
    sc = _Scanner(text)
    out = []
    while not sc.eof():
        eq, spans, func_spans = _parse_one(sc)
        eq = ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, contour)
        _revalidate(eq, spans, func_spans, text)
        out.append(eq)
    return out


def _parse_one(sc: _Scanner):
    """One equation, the span of each label's first use and the span of
    each sub-function, as ``(equation, spans, function spans)``."""
    spans: dict[str, SourceSpan] = {}
    func_spans: list[SourceSpan] = []
    lhs, _ = sc.ident()
    sc.expect("[")
    ext = sc.label_list("]")
    sc.expect("=")
    kw, kw_span = sc.ident()
    if kw != "int":
        raise EquationSyntaxError("expected 'int'", kw_span, sc.text)
    sc.expect("{")
    internal = sc.label_list("}")
    sc.expect(":")
    product = []
    while True:
        name, name_span = sc.ident()
        sc.expect("[")
        args = sc.label_list("]")
        func_spans.append(SourceSpan(name_span.start, sc.pos - 1))
        for lbl, span in args:
            spans.setdefault(lbl, span)
        product.append(SubFunction(name, tuple(a for a, _ in args)))
        if sc.peek() == "*":
            sc.pos += 1
            continue
        # '*' is optional: a following `name[...]` not starting a new
        # equation (no '=' after it) is another sub-function
        save = sc.pos
        cont = False
        if not sc.eof():
            try:
                sc.ident()
                if sc.peek() == "[":
                    sc.pos += 1
                    sc.label_list("]")
                    cont = sc.peek() != "="
            except EquationSyntaxError:
                cont = False
        sc.pos = save
        if not cont:
            break
    for lbl, span in ext + internal:
        spans.setdefault(lbl, span)
    eq = ContourEquation(
        lhs,
        tuple(l for l, _ in ext),
        tuple(l for l, _ in internal),
        tuple(product),
    )
    return eq, spans, func_spans


def _revalidate(
    eq: ContourEquation,
    spans: dict[str, SourceSpan],
    func_spans: list[SourceSpan],
    text: str,
):
    diags = validate_equation(eq)
    if diags:
        first = diags[0]
        # a diagnostic on no function or label, such as one on the contour
        # (an argument, not in the text), spans the whole text
        span = SourceSpan(0, max(len(text) - 1, 0))
        if first.position is not None:
            span = func_spans[first.position]
        elif first.label is not None:
            span = spans[first.label]
        raise EquationSyntaxError(str(first), span, text)


# ---------------------------------------------------------------------------
# target super-indices

# raw text -> two-point kind: the kinds, their text glyphs and ASCII forms
_SHORTHANDS = {
    **{k: k for k in TWO_POINT},
    **{tp.text: k for k, tp in TWO_POINT.items()},
    "^r]": "rc",
    "^l]": "lc",
}


def parse_superindex(text: str, target: ContourEquation) -> SuperIndex:
    """Parse a component/composition name against the equation's externals."""
    raw = text.strip()
    ext = target.external
    if raw in _SHORTHANDS:
        kind = _SHORTHANDS[raw]
        if kind == "M":
            return SuperIndex((Mats(tuple(ext)),))
        if len(ext) != 2:
            raise ArityMismatch(
                f"shorthand {raw!r} requires a two-point function, {target.lhs_name} has {len(ext)} externals"
            )
        return SuperIndex(TWO_POINT[kind].items(*ext))

    items, used_digits = _parse_items(raw, target)
    si = SuperIndex(tuple(items))
    if used_digits:
        bad = [int(p) for p in si.labels() if not 1 <= int(p) <= len(ext)]
        if bad:
            raise CoverError(f"positions {bad} out of range for arity {len(ext)}")
        si = map_labels(si, lambda p: ext[int(p) - 1])
    covered = sorted(si.labels())
    if covered != sorted(ext):
        raise ArityMismatch(
            f"target {raw!r} covers {covered}, expected the externals {sorted(ext)}",
            SourceSpan(0, max(len(text) - 1, 0)),
        )
    return si


def _parse_items(raw: str, target: ContourEquation):
    multi = any(len(l) > 1 for l in target.external)
    sc = _Scanner(raw)
    digits_seen = False
    letters_seen = False

    def label() -> str:
        nonlocal digits_seen, letters_seen
        if multi:
            name, _ = sc.ident()
        else:
            c = sc.peek()
            if not (c.isalnum() or c == "_"):
                sc.error("expected a label")
            sc.pos += 1
            name = c
        if name.isdecimal():
            digits_seen = True
        else:
            letters_seen = True
        return name

    def set_entries(start: int, read, empty: str) -> list:
        # the entries of a set opened at ``start``, up to and past its ')'
        entries = []
        while sc.peek() != ")":
            if sc.eof():
                sc.error("expected ')'")
            entries.append(read())
            if sc.peek() == ",":
                sc.pos += 1
        if not entries:
            raise EquationSyntaxError(empty, SourceSpan(start, sc.pos), raw)
        sc.pos += 1
        return entries

    def entry() -> Item:
        c = sc.peek()
        if c == "R" and sc.text[sc.pos + 1 : sc.pos + 2] == "(":
            start = sc.pos
            sc.pos += 2
            top = entry()
            if sc.peek() == ",":
                sc.pos += 1
            return Ret(top, tuple(set_entries(start, entry, "a retarded set needs a retarded entry")))
        return Plain(label())

    items: list[Item] = []
    first = True
    while not sc.eof():
        c = sc.peek()
        if first and c == "M" and sc.text[sc.pos + 1 : sc.pos + 2] == "(":
            start = sc.pos
            sc.pos += 2
            items.append(Mats(tuple(set_entries(start, label, "a Matsubara set needs a label"))))
        else:
            items.append(entry())
        first = False
    if digits_seen and letters_seen:
        sc.error("cannot mix positions and labels in one super-index")
    return items, digits_seen
