"""Core data model for contour equations and real-time expressions.

A contour equation declares an output function as a contour integral over a
product of sub-functions; the labels of the output function are *external*,
the integrated ones *internal*.  Components and compositions of contour
functions are named by super-indices: sequences of index items that are
either plain labels, retarded sets ``R(top, retarded...)`` (possibly
nested), or a single leading Matsubara set ``M(...)``.

All values here are immutable (frozen dataclasses over tuples), so every
operation in the package is a pure function and safe to share between
threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

LabelLike = Union[str, int]

LABELED = "labeled"
HACEK = "hacek"

KELDYSH = "keldysh"
EXTENDED = "extended"


class ContourError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ContourError):
    """A contour equation violates a structural invariant.

    ``kind`` is one of ``DuplicateLabel``, ``UnknownLabel``,
    ``OverlappingSets``, ``DanglingInternal``.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class CoverError(ContourError):
    """A super-index does not cover exactly the labels it must."""


# ---------------------------------------------------------------------------
# index items


@dataclass(frozen=True)
class Plain:
    """A single argument at a definite slot of the contour order."""

    label: LabelLike


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


def render_item(item: Item, sep: str = "") -> str:
    if isinstance(item, Plain):
        return str(item.label)
    if isinstance(item, Mats):
        return "M(%s)" % sep.join(str(l) for l in item.labels)
    rest = sep.join(render_item(e, sep) for e in item.rest)
    return "R(%s,%s)" % (render_item(item.top, sep), rest)


# ---------------------------------------------------------------------------
# super-indices


@dataclass(frozen=True)
class SuperIndex:
    """A sequence of index items naming a component or composition.

    Items are ordered by contour time, latest first.  A Matsubara item may
    appear only at the head (its arguments are always latest on the
    contour).  ``mode`` is ``"labeled"`` (labels are strings) or ``"hacek"``
    (labels are 1-based argument positions).
    """

    items: tuple[Item, ...]
    mode: str = LABELED

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


def map_labels(si: SuperIndex, f, mode: str) -> SuperIndex:
    return SuperIndex(tuple(_map_item(i, f) for i in si.items), mode)


def to_hacek(si: SuperIndex, args: Iterable[str]) -> SuperIndex:
    """Convert a labeled super-index to positions in ``args`` (1-based)."""
    pos = {a: i + 1 for i, a in enumerate(args)}
    if si.mode == HACEK:
        return si
    missing = [l for l in si.labels() if l not in pos]
    if missing:
        raise CoverError(f"labels {missing} are not arguments of the target function")
    return map_labels(si, lambda l: pos[l], HACEK)


def to_labeled(si: SuperIndex, args: Iterable[str]) -> SuperIndex:
    """Inverse of :func:`to_hacek` for the same argument list."""
    args = list(args)
    if si.mode == LABELED:
        return si
    n = len(args)
    bad = [p for p in si.labels() if not (1 <= int(p) <= n)]
    if bad:
        raise CoverError(f"positions {bad} out of range for arity {n}")
    return map_labels(si, lambda p: args[int(p) - 1], LABELED)


def plain_index(labels: Iterable[LabelLike], mode: str = LABELED) -> SuperIndex:
    return SuperIndex(tuple(Plain(l) for l in labels), mode)


# ---------------------------------------------------------------------------
# equations


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

    def arg_order(self) -> tuple[str, ...]:
        """Canonical argument list of the integrand: first appearance order."""
        seen: dict[str, None] = {}
        for f in self.product:
            for a in f.args:
                seen.setdefault(a, None)
        for l in self.labels():
            seen.setdefault(l, None)
        return tuple(seen)

    def __str__(self) -> str:
        prod = " * ".join(str(f) for f in self.product)
        return f"{self.lhs_name}[{','.join(self.external)}] = int{{{','.join(self.internal)}}} : {prod}"


def validate_equation(eq: ContourEquation) -> list[ValidationError]:
    """Collect structural diagnostics; an empty list means the equation is ok."""
    diags: list[ValidationError] = []
    for name, seq in (("external", eq.external), ("internal", eq.internal)):
        dup = {l for l in seq if seq.count(l) > 1}
        if dup:
            diags.append(ValidationError("DuplicateLabel", f"{sorted(dup)} repeated in {name} set"))
    overlap = set(eq.external) & set(eq.internal)
    if overlap:
        diags.append(ValidationError("OverlappingSets", f"labels {sorted(overlap)} are both external and internal"))
    known = set(eq.external) | set(eq.internal)
    used: set[str] = set()
    for f in eq.product:
        dup = {a for a in f.args if f.args.count(a) > 1}
        if dup:
            diags.append(ValidationError("DuplicateLabel", f"{sorted(dup)} repeated in {f}"))
        for a in f.args:
            if a not in known:
                diags.append(ValidationError("UnknownLabel", f"label {a} of {f} is neither external nor internal"))
        used.update(f.args)
    for l in eq.internal:
        if l not in used:
            diags.append(ValidationError("DanglingInternal", f"internal {l} appears in no sub-function"))
    return diags


def check_equation(eq: ContourEquation) -> ContourEquation:
    diags = validate_equation(eq)
    if diags:
        raise diags[0]
    return eq


def direct_edges(product: Iterable[SubFunction]) -> set[frozenset[str]]:
    """Pairs of labels appearing together in some sub-function."""
    edges: set[frozenset[str]] = set()
    for f in product:
        for x, y in itertools.combinations(f.args, 2):
            edges.add(frozenset((x, y)))
    return edges


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


def connectivity(eq: ContourEquation, subset: Iterable[str]) -> bool:
    """Connectivity of a label subset through shared sub-function arguments,

    never leaving the subset.
    """
    subset = tuple(subset)
    known = set(eq.labels())
    for l in subset:
        if l not in known:
            raise ValidationError("UnknownLabel", f"label {l} not in equation")
    return connected(subset, direct_edges(eq.product))


@dataclass(frozen=True)
class LinearCombination:
    """A formal signed sum of super-indices attached to one function."""

    terms: tuple[tuple[int, SuperIndex], ...]

    @classmethod
    def from_words(cls, words: Iterable[tuple[int, tuple[LabelLike, ...]]], mode: str = LABELED):
        return cls(tuple((sign, plain_index(word, mode)) for sign, word in words))

    def __str__(self) -> str:
        bits = []
        for i, (sign, si) in enumerate(self.terms):
            prefix = ("" if i == 0 else "+ ") if sign > 0 else "- "
            bits.append(prefix + str(si))
        return " ".join(bits) or "0"


# ---------------------------------------------------------------------------
# real-time expressions


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

    def hacek(self) -> SuperIndex:
        return to_hacek(self.index, self.func.args)

    def __str__(self) -> str:
        return f"{self.func.name}^{{{self.index}}}"

    def sort_key(self):
        # the arguments only break ties between factors of one name
        return (self.func.name, str(self.hacek()), self.func.args)


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

    def key(self):
        """Identity of the term up to sign."""
        return (self.steps, self.factors, self.real_integrals, self.imag_integrals)

    def sort_key(self):
        return (
            tuple(sorted(self.imag_integrals)),
            tuple(sorted(self.real_integrals)),
            tuple(f.sort_key() for f in self.factors),
            self.steps,
            -self.sign,
        )

    def sorted(self) -> "RealTimeTerm":
        return RealTimeTerm(
            self.sign,
            tuple(sorted(self.steps)),
            tuple(sorted(self.factors, key=Factor.sort_key)),
            self.real_integrals,
            self.imag_integrals,
        )


@dataclass(frozen=True)
class RealTimeExpression:
    terms: tuple[RealTimeTerm, ...]

    def __iter__(self) -> Iterator[RealTimeTerm]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


ZERO = RealTimeExpression(())


def canonicalize(expr: RealTimeExpression) -> RealTimeExpression:
    """Deterministic form: sorted factors and terms, cancelled term pairs.

    Idempotent.  Raises if merging leaves a coefficient other than 0 or +-1:
    the calculus never produces other scalars, so such a merge is a bug in
    the caller.
    """
    merged: dict = {}
    for term in expr.terms:
        t = term.sorted()
        merged[t.key()] = merged.get(t.key(), 0) + t.sign
    out = []
    for key, coeff in merged.items():
        if coeff == 0:
            continue
        if coeff not in (1, -1):
            raise ValueError(f"non-unit coefficient {coeff} for term {key}")
        steps, factors, real, imag = key
        out.append(RealTimeTerm(coeff, steps, factors, real, imag))
    out.sort(key=RealTimeTerm.sort_key)
    return RealTimeExpression(tuple(out))
