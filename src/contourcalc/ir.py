"""Core data model for contour equations and real-time expressions.

A contour equation declares an output function as a contour integral over a
product of sub-functions; the labels of the output function are *external*,
the integrated ones *internal*.  Components and compositions of contour
functions are named by super-indices: sequences of index items that are
either plain labels, retarded sets ``R(top, retarded...)`` (possibly
nested), or a single leading Matsubara set ``M(...)``.

All values here are immutable (frozen dataclasses over tuples), so every
operation in the package is a pure function and safe to share between
threads.  The label items, super-indices, sub-functions and factors are
also interned (:func:`_interned`): each distinct value is built once per
process, so equal values are one object, compared and hashed by
identity.  A value is stored only once its validation has passed, and
stored with ``dict.setdefault``, so two threads building one value get
the same object.  Pickling, ``copy`` and ``deepcopy`` rebuild a value from
its fields, which finds the interned object again, in a ``--jobs`` worker
too.  Identity hashes differ between processes, so nothing that is
printed may follow the iteration order of a set of these values.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

LabelLike = Union[str, int]

KELDYSH = "keldysh"
EXTENDED = "extended"


class ContourError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ContourError):
    """A contour equation violates a structural invariant.

    ``kind`` is one of ``DuplicateLabel``, ``UnknownLabel``,
    ``OverlappingSets``, ``DanglingInternal``, ``ArityMismatch``,
    ``UnknownContour``.
    ``position`` is the place in the product of the sub-function the
    diagnostic is about, and ``label`` the label it is about, where there
    is one.
    """

    def __init__(
        self, kind: str, message: str, position: Optional[int] = None, label: Optional[str] = None
    ):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.position = position
        self.label = label


class CoverError(ContourError):
    """A super-index does not cover exactly the labels it must."""


def _interned(cls):
    """Hash-consing for a frozen dataclass: one object per distinct value.

    ``cls(...)`` normalises its positional, keyword and default arguments to
    the tuple of field values and looks that up in the class's table.  A
    new value is built by the dataclass ``__init__`` (so ``__post_init__``
    validates it once, and an invalid value is never stored) and stored by
    ``setdefault``, which keeps the first of two racing builds.  Equality
    and hashing are then ``object``'s, and ``__reduce__`` gives the fields,
    so unpickling and copying find the interned value.
    """
    names = tuple(f.name for f in fields(cls))
    build = cls.__init__
    signature = inspect.signature(build)
    table: dict = {}

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(names):
            bound = signature.bind(None, *args, **kwargs)
            bound.apply_defaults()
            args = tuple(bound.arguments[n] for n in names)
        value = table.get(args)
        if value is None:
            value = object.__new__(cls)
            build(value, *args)
            value = table.setdefault(args, value)
        return value

    def __reduce__(self):
        return cls, tuple(getattr(self, n) for n in names)

    cls.__new__ = __new__
    # object's __init__ ignores the arguments of a class with its own __new__
    cls.__init__ = object.__init__
    cls.__eq__ = object.__eq__
    cls.__ne__ = object.__ne__
    cls.__hash__ = object.__hash__
    cls.__reduce__ = __reduce__
    return cls


# ---------------------------------------------------------------------------
# index items


@_interned
@dataclass(frozen=True)
class Plain:
    """A single argument at a definite slot of the contour order."""

    label: LabelLike


@_interned
@dataclass(frozen=True)
class Ret:
    """A retarded set: ``top`` is latest in real time, ``rest`` retarded.

    Both the top and the retarded entries may themselves be retarded sets
    (nested sets); a nested set behaves as an atom positioned by its top
    label.
    """

    top: "Item"
    rest: tuple["Item", ...]

    def __post_init__(self):
        if isinstance(self.top, Mats) or any(isinstance(e, Mats) for e in self.rest):
            raise CoverError("Matsubara sets cannot appear inside retarded sets")


@_interned
@dataclass(frozen=True)
class Mats:
    """Arguments placed on the vertical (imaginary-time) branch."""

    labels: tuple[LabelLike, ...]


Item = Union[Plain, Ret, Mats]


def item_labels(item: Item) -> tuple[LabelLike, ...]:
    """All labels covered by an item, in textual order."""
    if isinstance(item, Plain):
        return (item.label,)
    if isinstance(item, Mats):
        return tuple(item.labels)
    out = list(item_labels(item.top))
    for entry in item.rest:
        out.extend(item_labels(entry))
    return tuple(out)


def top_label(item: Item) -> LabelLike:
    """The label that fixes an item's position in the contour order."""
    if isinstance(item, Plain):
        return item.label
    if isinstance(item, Ret):
        return top_label(item.top)
    raise CoverError("a Matsubara set has no top label")


def render_item(item: Item, sep: str = "", label: Callable[[LabelLike], str] = str) -> str:
    """An item's text, with ``sep`` between entries and each label written
    by ``label``."""
    if isinstance(item, Plain):
        return label(item.label)
    if isinstance(item, Mats):
        return "M(%s)" % sep.join(label(l) for l in item.labels)
    rest = sep.join(render_item(e, sep, label) for e in item.rest)
    return "R(%s,%s)" % (render_item(item.top, sep, label), rest)


# ---------------------------------------------------------------------------
# super-indices


@_interned
@dataclass(frozen=True)
class SuperIndex:
    """A sequence of index items naming a component or composition.

    Items are ordered by contour time, latest first.  A Matsubara item may
    appear only at the head (its arguments are always latest on the
    contour).  Labels are the label strings of an equation; only
    :func:`to_hacek` returns 1-based int argument positions instead.
    """

    items: tuple[Item, ...]

    def __post_init__(self):
        for i, item in enumerate(self.items):
            if isinstance(item, Mats) and i != 0:
                raise CoverError("Matsubara set allowed only at the head of a super-index")
        labels = self.labels()
        if len(set(labels)) != len(labels):
            raise CoverError(f"duplicate labels in super-index {self}")

    def labels(self) -> tuple[LabelLike, ...]:
        out: list[LabelLike] = []
        for item in self.items:
            out.extend(item_labels(item))
        return tuple(out)

    def mats_labels(self) -> tuple[LabelLike, ...]:
        if self.items and isinstance(self.items[0], Mats):
            return tuple(self.items[0].labels)
        return ()

    def real_items(self) -> tuple[Item, ...]:
        if self.items and isinstance(self.items[0], Mats):
            return self.items[1:]
        return self.items

    def __str__(self) -> str:
        sep = "," if any(len(str(l)) > 1 for l in self.labels()) else ""
        return sep.join(render_item(i, sep) for i in self.items) or "()"


def _map_item(item: Item, f) -> Item:
    if isinstance(item, Plain):
        return Plain(f(item.label))
    if isinstance(item, Mats):
        return Mats(tuple(f(l) for l in item.labels))
    return Ret(_map_item(item.top, f), tuple(_map_item(e, f) for e in item.rest))


def map_labels(si: SuperIndex, f) -> SuperIndex:
    return SuperIndex(tuple(_map_item(i, f) for i in si.items))


def to_hacek(si: SuperIndex, args: Iterable[str]) -> SuperIndex:
    """Convert a labeled super-index to positions in ``args`` (1-based)."""
    pos = {a: i + 1 for i, a in enumerate(args)}
    missing = [l for l in si.labels() if l not in pos]
    if missing:
        raise CoverError(f"labels {missing} are not arguments of the target function")
    return map_labels(si, pos.__getitem__)


class TwoPoint(NamedTuple):
    """A two-point shorthand: its items over the arguments ``(x, y)`` and
    its glyphs in text and LaTeX output."""

    items: Callable[[LabelLike, LabelLike], tuple[Item, ...]]
    text: str
    latex: str


# the seven two-point shorthands, by kind; the parser also accepts the text
# glyphs of the mixed components as aliases
TWO_POINT = {
    ">": TwoPoint(lambda x, y: (Plain(x), Plain(y)), ">", ">"),
    "<": TwoPoint(lambda x, y: (Plain(y), Plain(x)), "<", "<"),
    "R": TwoPoint(lambda x, y: (Ret(Plain(x), (Plain(y),)),), "R", "R"),
    "A": TwoPoint(lambda x, y: (Ret(Plain(y), (Plain(x),)),), "A", "A"),
    # right ceiling: mixed component with the second slot imaginary
    "rc": TwoPoint(lambda x, y: (Mats((y,)), Plain(x)), "⌉", r"\rceil"),
    "lc": TwoPoint(lambda x, y: (Mats((x,)), Plain(y)), "⌈", r"\lceil"),
    "M": TwoPoint(lambda x, y: (Mats((x, y)),), "M", "M"),
}


# ---------------------------------------------------------------------------
# equations


@_interned
@dataclass(frozen=True)
class SubFunction:
    """A named factor of the integrand with an ordered argument list."""

    name: str
    args: tuple[str, ...]

    def __post_init__(self):
        if len(self.args) < 1:
            raise ValidationError("UnknownLabel", f"sub-function {self.name} has no arguments")

    def __str__(self) -> str:
        return f"{self.name}[{','.join(self.args)}]"


@dataclass(frozen=True)
class ContourEquation:
    """``lhs(external) = integral over internal of product``."""

    lhs_name: str
    external: tuple[str, ...]
    internal: tuple[str, ...]
    product: tuple[SubFunction, ...]
    contour: str = EXTENDED

    def labels(self) -> tuple[str, ...]:
        return self.external + self.internal

    def __str__(self) -> str:
        prod = " * ".join(str(f) for f in self.product)
        return f"{self.lhs_name}[{','.join(self.external)}] = int{{{','.join(self.internal)}}} : {prod}"


def validate_equation(eq: ContourEquation) -> list[ValidationError]:
    """Collect structural diagnostics; an empty list means the equation is ok."""
    diags: list[ValidationError] = []
    if eq.contour not in (KELDYSH, EXTENDED):
        diags.append(ValidationError(
            "UnknownContour", f"contour {eq.contour!r} is neither {KELDYSH} nor {EXTENDED}"
        ))
    for name, seq in (("external", eq.external), ("internal", eq.internal)):
        dup = {l for l in seq if seq.count(l) > 1}
        if dup:
            diags.append(ValidationError("DuplicateLabel", f"{sorted(dup)} repeated in {name} set", label=min(dup)))
    overlap = set(eq.external) & set(eq.internal)
    if overlap:
        diags.append(ValidationError(
            "OverlappingSets", f"labels {sorted(overlap)} are both external and internal",
            label=min(overlap),
        ))
    known = set(eq.external) | set(eq.internal)
    used: set[str] = set()
    # a repeated name is one function, so it keeps one arity
    first_use: dict[str, SubFunction] = {}
    for i, f in enumerate(eq.product):
        dup = {a for a in f.args if f.args.count(a) > 1}
        if dup:
            diags.append(ValidationError("DuplicateLabel", f"{sorted(dup)} repeated in {f}", i, min(dup)))
        for a in f.args:
            if a not in known:
                diags.append(ValidationError(
                    "UnknownLabel", f"label {a} of {f} is neither external nor internal", label=a
                ))
        first = first_use.setdefault(f.name, f)
        if len(first.args) != len(f.args):
            diags.append(ValidationError(
                "ArityMismatch",
                f"sub-function {f.name} is used with {len(first.args)} and "
                f"{len(f.args)} arguments ({first} and {f})",
                i,
            ))
        used.update(f.args)
    for l in eq.internal:
        if l not in used:
            diags.append(ValidationError("DanglingInternal", f"internal {l} appears in no sub-function", label=l))
    return diags


def check_equation(eq: ContourEquation) -> ContourEquation:
    diags = validate_equation(eq)
    if diags:
        raise diags[0]
    return eq


def connected(labels: Iterable[str], edges: set[frozenset[str]]) -> bool:
    """True iff every pair in ``labels`` is linked by a path inside ``labels``."""
    todo = list(labels)
    if len(todo) <= 1:
        return True
    seen = {todo[0]}
    frontier = [todo[0]]
    universe = set(todo)
    while frontier:
        x = frontier.pop()
        for y in universe - seen:
            if frozenset((x, y)) in edges:
                seen.add(y)
                frontier.append(y)
    return seen == universe


def _signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """``a - b + c``: no ``+`` before the first term, ``- `` before every
    negative one, and ``0`` for no terms."""
    bits = []
    for i, (sign, text) in enumerate(terms):
        bits.append((("+ " if i else "") if sign > 0 else "- ") + text)
    return " ".join(bits) or "0"


# ---------------------------------------------------------------------------
# real-time expressions


@_interned
@dataclass(frozen=True)
class Factor:
    """A component or composition of a single sub-function."""

    func: SubFunction
    index: SuperIndex

    def __post_init__(self):
        cover = set(self.index.labels())
        if not cover <= set(self.func.args):
            raise CoverError(f"index {self.index} uses labels outside {self.func}")
        if len(cover) != len(self.func.args):
            raise CoverError(f"index {self.index} does not cover the arity of {self.func}")
        # built once per interned value; the arguments only break ties
        # between factors of one name
        object.__setattr__(
            self, "_sort_key", (self.func.name, _index_text(self, True, False), self.func.args)
        )

    def __str__(self) -> str:
        return f"{self.func.name}^{{{self.index}}}"

    def sort_key(self):
        return self._sort_key


def _index_text(factor: Factor, hacek: bool, latex: bool) -> str:
    """A factor's super-index by argument position (``hacek``) or by label,
    as text or as LaTeX (labels in ``\\check``, no separator).

    The hacek text is ``str(to_hacek(factor.index, factor.func.args))``: the
    index covers every argument once, so positions reach two digits, and
    are then separated by ``,``, from the tenth argument on, in LaTeX too.
    """
    args = factor.func.args
    if hacek:
        label = {a: str(i) for i, a in enumerate(args, 1)}.__getitem__
    elif latex:
        label = lambda l: r"\check{%s}" % l
    else:
        return str(factor.index)
    sep = "," if hacek and len(args) >= 10 else ""
    return sep.join(render_item(i, sep, label) for i in factor.index.items)


@dataclass(frozen=True)
class RealTimeTerm:
    """One signed product term of a real-time expression.

    ``sign`` is +-1; the full scalar is ``sign * (-i)**len(imag_integrals)``
    (each imaginary-time integral carries an implicit factor -i).
    ``steps`` are unexpanded step-function chains Theta(t_1,...,t_k).
    """

    sign: int
    steps: tuple[tuple[str, ...], ...]
    factors: tuple[Factor, ...]
    real_integrals: frozenset[str] = frozenset()
    imag_integrals: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("term sign must be +-1")


@dataclass(frozen=True)
class RealTimeExpression:
    terms: tuple[RealTimeTerm, ...]

    def __iter__(self) -> Iterator[RealTimeTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


_first = itemgetter(0)


def canonicalize(expr: RealTimeExpression) -> RealTimeExpression:
    """Deterministic form: sorted factors and terms, cancelled term pairs.

    Idempotent.  Raises if merging leaves a coefficient other than 0 or +-1:
    the calculus never produces other scalars, so such a merge is a bug in
    the caller.
    """
    merged: dict = {}
    for term in expr.terms:
        factors = tuple(sorted(term.factors, key=Factor.sort_key))
        key = (tuple(sorted(term.steps)), factors, term.real_integrals, term.imag_integrals)
        merged[key] = merged.get(key, 0) + term.sign
    out = []
    for key, coeff in merged.items():
        if coeff == 0:
            continue
        if coeff not in (1, -1):
            raise ValueError(f"non-unit coefficient {coeff} for term {key}")
        steps, factors, real, imag = key
        factor_keys = tuple(f.sort_key() for f in factors)
        order = (tuple(sorted(imag)), tuple(sorted(real)), factor_keys, steps, -coeff)
        out.append((order, RealTimeTerm(coeff, steps, factors, real, imag)))
    out.sort(key=_first)
    return RealTimeExpression(tuple(t for _, t in out))
