"""Built-in contour structures and reference forms of their rules.

The corpus covers the structures whose real-time rules are standard
benchmarks: the convolution and the simple product, the chain of two
convolutions, the double-triangle, the three-point vertex, and the
one-external triangle.  For each, reference rows store hand-derived
compact forms (including the conventional bracket shorthands for nested
convolutions) against which the compiler's output is checked for
normal-form equality.  The reference encodings are data, not derivations:
every row is itself validated against the branch-splitting oracle.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .combinatorics import RangeError
from .compiler import component_of_product
from .engine import expand_retarded
from .ir import (
    EXTENDED,
    ContourEquation,
    Factor,
    Mats,
    Plain,
    RealTimeExpression,
    RealTimeTerm,
    Ret,
    SubFunction,
    SuperIndex,
    TWO_POINT,
    canonicalize,
    check_equation,
)
from .parser import parse_equation, parse_superindex


def convolution() -> ContourEquation:
    return parse_equation("D[a,b] = int{c} : A[a,c]*B[c,b]")


def product_structure() -> ContourEquation:
    return parse_equation("D[a,b] = int{} : A[a,b]*B[b,a]")


def chain3() -> ContourEquation:
    return parse_equation("E[a,b] = int{c,d} : A[a,c]*B[c,d]*C[d,b]")


def double_triangle() -> ContourEquation:
    return parse_equation("G[a,b] = int{c,d} : A[a,c]*B[c,b]*C[c,d]*D[a,d]*E[d,b]")


def vertex() -> ContourEquation:
    return parse_equation("H[a,b] = int{c,d} : A[a,c]*B[a,d]*C[c,d,b]")


def triangle_one() -> ContourEquation:
    return parse_equation("F[a] = int{b,c} : A[a,b]*B[a,c]*C[b,c]")


CORPUS = {
    "convolution": convolution,
    "product": product_structure,
    "chain3": chain3,
    "double_triangle": double_triangle,
    "vertex": vertex,
    "triangle": triangle_one,
}

TWO_POINT_TARGETS = tuple(TWO_POINT)
# the Keldysh contour has no vertical branch, so no Matsubara slot
KELDYSH_TWO_POINT_TARGETS = tuple(
    k for k, tp in TWO_POINT.items() if not isinstance(tp.items("x", "y")[0], Mats)
)


def all_targets(eq: ContourEquation) -> list[str]:
    """Component, Matsubara-placement, and single-top composition targets.

    For E externals: the E! components, every split of the externals into a
    Matsubara set plus an ordering of the rest, and the single-top retarded
    compositions; on the Keldysh contour the Matsubara placements drop out.
    """
    ext = eq.external
    if len(ext) > 4:
        raise RangeError("target enumeration is capped at 4 externals")
    if len(ext) == 2:
        return list(
            TWO_POINT_TARGETS if eq.contour == EXTENDED else KELDYSH_TWO_POINT_TARGETS
        )
    if len(ext) == 1:
        return ["1", "M"] if eq.contour == EXTENDED else ["1"]
    names: list[str] = []
    for perm in itertools.permutations(range(1, len(ext) + 1)):
        names.append("".join(str(p) for p in perm))
    if eq.contour == EXTENDED:
        for k in range(1, len(ext) + 1):
            for msub in itertools.combinations(range(1, len(ext) + 1), k):
                rest = [p for p in range(1, len(ext) + 1) if p not in msub]
                for perm in itertools.permutations(rest):
                    names.append(
                        "M(%s)%s" % ("".join(map(str, msub)), "".join(map(str, perm)))
                    )
    for top in range(1, len(ext) + 1):
        rest = "".join(str(p) for p in range(1, len(ext) + 1) if p != top)
        names.append(f"R({top},{rest})")
    return names


# ---------------------------------------------------------------------------
# reference-row construction
#
# Rows are lists of (coefficient, [fragment, ...]); fragments expand into
# signed step-weighted factor products and the row is their sum.
#
#   ("f", name, kind)            two-point shorthand component of one function
#   ("fx", name, text)           explicit super-index, e.g. ("fx","C","M(d)R(b,c)")
#   ("chain", names, path, kind) convolution sub-chain along path (x, s..., y)
#   ("prod2", c1, c2, kind)      product of two chain brackets as one 2-point object
#   ("comp", names, text)        word-level composition of a sub-product
#   ("combo", [(coeff, frag)])   signed sum of alternatives, e.g. D^< - D^A

Frag = tuple
PartTerm = tuple[int, tuple, tuple[Factor, ...]]


def _fn(eq: ContourEquation, name: str) -> SubFunction:
    for f in eq.product:
        if f.name == name:
            return f
    raise KeyError(name)


def two_point_index(func: SubFunction, kind: str) -> SuperIndex:
    return SuperIndex(TWO_POINT[kind].items(*func.args))


def _letter(eq: ContourEquation, name: str, kind: str) -> Factor:
    return Factor(_fn(eq, name), two_point_index(_fn(eq, name), kind))


def _explicit(eq: ContourEquation, name: str, text: str) -> Factor:
    func = _fn(eq, name)
    shim = check_equation(
        ContourEquation(func.name, func.args, (), (func,), eq.contour)
    )
    return Factor(func, parse_superindex(text, shim))


def _ret(x: str, y: str) -> SuperIndex:
    return SuperIndex((Ret(Plain(x), (Plain(y),)),))


def _word(labels: Sequence[str]) -> SuperIndex:
    return SuperIndex(tuple(Plain(l) for l in labels))


def _chain_terms(
    eq: ContourEquation, names: Sequence[str], path: Sequence[str], kind: str
) -> list[PartTerm]:
    """Horizontal-contour forms of a chain of two-point functions.

    ``path`` lists the labels (x, s1, ..., y) visited by the chain.  The
    retarded and advanced compositions are single products along the path;
    the greater and lesser components follow the two-term convolution rule
    (supported for chains of two functions).
    """
    funcs = [_fn(eq, n) for n in names]
    if kind in ("R", "A"):
        pairs = list(zip(path, path[1:]))
        if kind == "A":
            pairs = [(y, x) for x, y in pairs]
        return [
            (1, (), tuple(Factor(f, _ret(x, y)) for f, (x, y) in zip(funcs, pairs)))
        ]
    if len(funcs) != 2:
        raise ValueError("greater/lesser chain shorthands cover two functions")
    x, s, y = path
    X, Y = funcs
    if kind == ">":
        return [
            (1, (), (Factor(X, _ret(x, s)), Factor(Y, _word((s, y))))),
            (1, (), (Factor(X, _word((x, s))), Factor(Y, _ret(y, s)))),
        ]
    if kind == "<":
        return [
            (1, (), (Factor(X, _ret(x, s)), Factor(Y, _word((y, s))))),
            (1, (), (Factor(X, _word((s, x))), Factor(Y, _ret(y, s)))),
        ]
    raise ValueError(f"unknown chain kind {kind!r}")


def _comp_terms(eq: ContourEquation, names: Sequence[str], text: str) -> list[PartTerm]:
    """Word-level expansion of a composition of a sub-product."""
    funcs = tuple(_fn(eq, n) for n in names)
    labels: dict[str, None] = {}
    for f in funcs:
        for a in f.args:
            labels.setdefault(a, None)
    shim = check_equation(
        ContourEquation(
            "shim", tuple(labels), (), (SubFunction("shim", tuple(labels)),), eq.contour
        )
    )
    index = parse_superindex(text, shim)
    out: list[PartTerm] = []
    for sign, chains, word in expand_retarded(index):
        out.append((sign, chains, component_of_product(funcs, word)))
    return out


def _prod2_terms(eq: ContourEquation, c1: Frag, c2: Frag, kind: str) -> list[PartTerm]:
    """Product of two chain brackets sharing their endpoints, as one
    two-point object (x latest for R, earliest for A).

    Telescoping the retarded combination of the product:
    ``[PQ]^R = P^R Q^> + P^< Q^R`` and ``[PQ]^A = P^A Q^< + P^> Q^A``.
    """
    _, n1, p1, _ = c1
    _, n2, p2, _ = c2
    if kind == "R":
        combos = [("R", ">"), ("<", "R")]
    elif kind == "A":
        combos = [("A", "<"), (">", "A")]
    else:
        raise ValueError("prod2 supports R and A")
    out: list[PartTerm] = []
    for k1, k2 in combos:
        left = _chain_terms(eq, n1, p1, k1)
        right = _chain_terms(eq, n2, p2, k2)
        out.extend(
            (s1 * s2, ch1 + ch2, f1 + f2)
            for s1, ch1, f1 in left
            for s2, ch2, f2 in right
        )
    return out


def _cross(parts: Sequence[list[PartTerm]]) -> list[PartTerm]:
    out: list[PartTerm] = [(1, (), ())]
    for frag in parts:
        out = [
            (s1 * s2, c1 + c2, f1 + f2)
            for s1, c1, f1 in out
            for s2, c2, f2 in frag
        ]
    return out


def expand_fragment(eq: ContourEquation, frag: Frag) -> list[PartTerm]:
    op = frag[0]
    if op == "f":
        return [(1, (), (_letter(eq, frag[1], frag[2]),))]
    if op == "fx":
        return [(1, (), (_explicit(eq, frag[1], frag[2]),))]
    if op == "chain":
        return _chain_terms(eq, frag[1], frag[2], frag[3])
    if op == "prod2":
        return _prod2_terms(eq, frag[1], frag[2], frag[3])
    if op == "comp":
        return _comp_terms(eq, frag[1], frag[2])
    if op == "combo":
        out: list[PartTerm] = []
        for coeff, sub in frag[1]:
            for s, c, f in expand_fragment(eq, sub):
                out.append((coeff * s, c, f))
        return out
    raise ValueError(f"unknown fragment {frag!r}")


def build_rule(eq: ContourEquation, row: Sequence[tuple[int, Sequence[Frag]]]) -> RealTimeExpression:
    """Assemble a reference rule from signed fragment products.

    Integration markers are inferred: internals inside some factor's
    Matsubara set integrate along the vertical branch, the rest along the
    real axis.
    """
    terms = []
    for coeff, frags in row:
        for sign, chains, factors in _cross([expand_fragment(eq, f) for f in frags]):
            m_placed = set()
            for f in factors:
                m_placed.update(f.index.mats_labels())
            imag = frozenset(l for l in eq.internal if l in m_placed)
            real = frozenset(eq.internal) - imag
            sgn = coeff * sign
            terms.append(RealTimeTerm(sgn, chains, factors, real, imag))
    return canonicalize(RealTimeExpression(tuple(terms)))


# ---------------------------------------------------------------------------
# reference rows

# convolution D = A*B on the extended contour
CONVOLUTION_ROWS: dict[str, list] = {
    ">": [(1, [("f", "A", "R"), ("f", "B", ">")]),
          (1, [("f", "A", ">"), ("f", "B", "A")]),
          (1, [("f", "A", "rc"), ("f", "B", "lc")])],
    "<": [(1, [("f", "A", "R"), ("f", "B", "<")]),
          (1, [("f", "A", "<"), ("f", "B", "A")]),
          (1, [("f", "A", "rc"), ("f", "B", "lc")])],
    "R": [(1, [("f", "A", "R"), ("f", "B", "R")])],
    "A": [(1, [("f", "A", "A"), ("f", "B", "A")])],
    "rc": [(1, [("f", "A", "rc"), ("f", "B", "M")]),
           (1, [("f", "A", "R"), ("f", "B", "rc")])],
    "lc": [(1, [("f", "A", "lc"), ("f", "B", "A")]),
           (1, [("f", "A", "M"), ("f", "B", "lc")])],
    "M": [(1, [("f", "A", "M"), ("f", "B", "M")])],
}

# product D = A_{ab} B_{ba}; the retarded and advanced rows each have a
# second conventional form listed alongside
PRODUCT_ROWS: dict[str, list] = {
    ">": [(1, [("f", "A", ">"), ("f", "B", "<")])],
    "<": [(1, [("f", "A", "<"), ("f", "B", ">")])],
    "R": [(1, [("f", "A", "R"), ("f", "B", "<")]),
          (1, [("f", "A", "<"), ("f", "B", "A")])],
    "A": [(1, [("f", "A", "A"), ("f", "B", "<")]),
          (1, [("f", "A", "<"), ("f", "B", "R")])],
    "rc": [(1, [("f", "A", "rc"), ("f", "B", "lc")])],
    "lc": [(1, [("f", "A", "lc"), ("f", "B", "rc")])],
    "M": [(1, [("f", "A", "M"), ("f", "B", "M")])],
}

PRODUCT_ALT_ROWS: dict[str, list] = {
    "R": [(1, [("f", "A", "R"), ("f", "B", ">")]),
          (1, [("f", "A", ">"), ("f", "B", "A")])],
    "A": [(1, [("f", "A", "A"), ("f", "B", ">")]),
          (1, [("f", "A", ">"), ("f", "B", "R")])],
}

# chain of two convolutions, greater component (horizontal part is the
# standard three-term rule)
CHAIN3_GREATER_ROW = [
    (1, [("fx", "A", "R(a,c)"), ("fx", "B", "cd"), ("fx", "C", "R(b,d)")]),
    (1, [("fx", "A", "R(a,c)"), ("fx", "B", "R(c,d)"), ("fx", "C", "db")]),
    (1, [("fx", "A", "ac"), ("fx", "B", "R(d,c)"), ("fx", "C", "R(b,d)")]),
]

_AB = lambda kind: ("chain", ("A", "B"), ("a", "c", "b"), kind)
_DE = lambda kind: ("chain", ("D", "E"), ("a", "d", "b"), kind)
_DCB = lambda kind: ("chain", ("D", "C", "B"), ("a", "d", "c", "b"), kind)
_ACE = lambda kind: ("chain", ("A", "C", "E"), ("a", "c", "d", "b"), kind)
_ABDE = lambda kind: ("prod2", _AB("R"), _DE("R"), kind)

DOUBLE_TRIANGLE_ROWS: dict[str, list] = {
    ">": [
        (1, [("f", "A", "rc"), ("f", "B", "lc"), ("f", "C", "M"), ("f", "D", "rc"), ("f", "E", "lc")]),
        (1, [_AB(">"), ("f", "C", "rc"), ("f", "D", "rc"), ("f", "E", "lc")]),
        (1, [("f", "A", "rc"), ("f", "B", "lc"), ("f", "C", "lc"), _DE(">")]),
        (1, [_AB(">"), ("f", "C", ">"), _DE(">")]),
        (1, [_AB(">"), ("f", "C", "R"),
             ("combo", [(1, ("f", "D", "<")), (-1, ("f", "D", "A"))]), ("f", "E", ">")]),
        (1, [("f", "A", ">"),
             ("combo", [(1, ("f", "B", "<")), (1, ("f", "B", "R"))]),
             ("f", "C", "A"), _DE(">")]),
    ],
    "<": [
        (1, [("f", "A", "rc"), ("f", "B", "lc"), ("f", "C", "M"), ("f", "D", "rc"), ("f", "E", "lc")]),
        (1, [_AB("<"), ("f", "C", "rc"), ("f", "D", "rc"), ("f", "E", "lc")]),
        (1, [("f", "A", "rc"), ("f", "B", "lc"), ("f", "C", "lc"), _DE("<")]),
        (1, [_AB("<"), ("f", "C", ">"), _DE("<")]),
        (1, [_AB("<"), ("f", "C", "R"), ("f", "D", "<"),
             ("combo", [(1, ("f", "E", ">")), (-1, ("f", "E", "R"))])]),
        (1, [("combo", [(1, ("f", "A", ">")), (1, ("f", "A", "A"))]),
             ("f", "B", "<"), ("f", "C", "A"), _DE("<")]),
    ],
    "R": [
        (1, [_AB("R"), ("f", "C", "rc"), ("f", "D", "rc"), ("f", "E", "lc")]),
        (1, [("f", "A", "rc"), ("f", "B", "lc"), ("f", "C", "lc"), _DE("R")]),
        (1, [_ABDE("R"), ("f", "C", ">")]),
        (1, [_AB("R"), ("f", "C", "R"), ("f", "D", "<"), ("f", "E", ">")]),
        (1, [("f", "A", ">"), ("f", "B", "<"), ("f", "C", "A"), _DE("R")]),
        (1, [("f", "A", ">"), _DCB("R"), ("f", "E", ">")]),
        (1, [("f", "B", "<"), _ACE("R"), ("f", "D", "<")]),
    ],
    "A": [
        (1, [_AB("A"), ("f", "C", "rc"), ("f", "D", "rc"), ("f", "E", "lc")]),
        (1, [("f", "A", "rc"), ("f", "B", "lc"), ("f", "C", "lc"), _DE("A")]),
        (1, [_ABDE("A"), ("f", "C", ">")]),
        (1, [_AB("A"), ("f", "C", "R"), ("f", "D", "<"), ("f", "E", ">")]),
        (1, [("f", "A", ">"), ("f", "B", "<"), ("f", "C", "A"), _DE("A")]),
        (1, [("f", "A", ">"), _DCB("A"), ("f", "E", ">")]),
        (1, [("f", "B", "<"), _ACE("A"), ("f", "D", "<")]),
    ],
    "rc": [
        (1, [("f", "A", "rc"), ("f", "B", "M"), ("f", "C", "M"), ("f", "D", "rc"), ("f", "E", "M")]),
        (1, [("f", "A", "rc"), ("f", "B", "M"), ("f", "C", "lc"), ("f", "D", "R"), ("f", "E", "rc")]),
        (1, [("f", "A", "R"), ("f", "B", "rc"), ("f", "C", "rc"), ("f", "D", "rc"), ("f", "E", "M")]),
        (1, [("comp", ("A", "D", "C"), "R(a,cd)"), ("f", "B", "rc"), ("f", "E", "rc")]),
    ],
    "lc": [
        (1, [("f", "A", "M"), ("f", "B", "lc"), ("f", "C", "M"), ("f", "D", "M"), ("f", "E", "lc")]),
        (1, [("f", "A", "M"), ("f", "B", "lc"), ("f", "C", "lc"), ("f", "D", "lc"), ("f", "E", "A")]),
        (1, [("f", "A", "lc"), ("f", "B", "A"), ("f", "C", "rc"), ("f", "D", "M"), ("f", "E", "lc")]),
        (1, [("f", "A", "lc"), ("f", "D", "lc"), ("comp", ("C", "B", "E"), "R(b,cd)")]),
    ],
    "M": [
        (1, [("f", "A", "M"), ("f", "B", "M"), ("f", "C", "M"), ("f", "D", "M"), ("f", "E", "M")]),
    ],
}

# one-external triangle F = A_{ab} B_{ac} C_{bc}: the fully retarded block
# has two conventional three-term forms
TRIANGLE_FORM_1 = [
    (1, [("fx", "A", "R(a,b)"), ("fx", "B", "ac"), ("fx", "C", "R(b,c)")]),
    (1, [("fx", "A", "ba"), ("fx", "B", "R(a,c)"), ("fx", "C", "R(c,b)")]),
    (1, [("fx", "A", "R(a,b)"), ("fx", "B", "R(a,c)"), ("fx", "C", "cb")]),
]

TRIANGLE_FORM_2 = [
    (1, [("fx", "A", "ab"), ("fx", "B", "R(a,c)"), ("fx", "C", "R(c,b)")]),
    (1, [("fx", "A", "R(a,b)"), ("fx", "B", "ca"), ("fx", "C", "R(b,c)")]),
    (1, [("fx", "A", "R(a,b)"), ("fx", "B", "R(a,c)"), ("fx", "C", "bc")]),
]

TRIANGLE_ONE_EXTERNAL_ROW = [
    (1, [("f", "A", "rc"), ("f", "B", "rc"), ("f", "C", "M")]),
    (1, [("f", "A", "rc"), ("f", "B", "R"), ("f", "C", "lc")]),
    (1, [("f", "A", "R"), ("f", "B", "rc"), ("f", "C", "rc")]),
    (1, [("comp", ("A", "B", "C"), "R(a,bc)")]),
]

VERTEX_ROWS: dict[str, list] = {
    ">": [
        (1, [("f", "A", "rc"), ("f", "B", "rc"), ("fx", "C", "M(cd)b")]),
        (1, [("f", "A", ">"), ("f", "B", "rc"), ("fx", "C", "M(d)R(b,c)")]),
        (1, [("f", "A", "R"), ("f", "B", "rc"), ("fx", "C", "M(d)cb")]),
        (1, [("f", "A", "rc"), ("f", "B", ">"), ("fx", "C", "M(c)R(b,d)")]),
        (1, [("f", "A", "rc"), ("f", "B", "R"), ("fx", "C", "M(c)db")]),
        (1, [("f", "A", ">"), ("f", "B", "R"), ("fx", "C", "R(d,c)b")]),
        (1, [("f", "A", "R"), ("f", "B", "<"), ("fx", "C", "R(c,d)b")]),
        (1, [("f", "A", "R"), ("f", "B", ">"), ("fx", "C", "cR(b,d)")]),
        (1, [("f", "A", ">"), ("f", "B", "R"), ("fx", "C", "dR(b,c)")]),
        (1, [("f", "A", "R"), ("f", "B", "R"), ("fx", "C", "cdb")]),
        (1, [("f", "A", ">"), ("f", "B", ">"), ("fx", "C", "R(b,cd)")]),
    ],
    "<": [
        (1, [("f", "A", "rc"), ("f", "B", "rc"), ("fx", "C", "M(cd)b")]),
        (1, [("f", "A", "<"), ("f", "B", "rc"), ("fx", "C", "M(d)R(b,c)")]),
        (1, [("f", "A", "R"), ("f", "B", "rc"), ("fx", "C", "M(d)bc")]),
        (1, [("f", "A", "rc"), ("f", "B", "<"), ("fx", "C", "M(c)R(b,d)")]),
        (1, [("f", "A", "rc"), ("f", "B", "R"), ("fx", "C", "M(c)bd")]),
        (1, [("f", "A", ">"), ("f", "B", "R"), ("fx", "C", "bR(d,c)")]),
        (1, [("f", "A", "<"), ("f", "B", "R"), ("fx", "C", "R(b,c)d")]),
        (1, [("f", "A", "R"), ("f", "B", "<"), ("fx", "C", "bR(c,d)")]),
        (1, [("f", "A", "R"), ("f", "B", "<"), ("fx", "C", "R(b,d)c")]),
        (1, [("f", "A", "R"), ("f", "B", "R"), ("fx", "C", "bcd")]),
        (1, [("f", "A", "<"), ("f", "B", "<"), ("fx", "C", "R(b,cd)")]),
    ],
    "R": [
        (1, [("f", "A", "R"), ("f", "B", "rc"), ("fx", "C", "M(d)R(c,b)")]),
        (1, [("f", "A", "rc"), ("f", "B", "R"), ("fx", "C", "M(c)R(d,b)")]),
        (1, [("f", "A", ">"), ("f", "B", "R"), ("fx", "C", "R(d,bc)")]),
        (1, [("f", "A", "R"), ("f", "B", "<"), ("fx", "C", "R(c,bd)")]),
        (1, [("f", "A", "R"), ("f", "B", "R"),
             ("combo", [(1, ("fx", "C", "cR(d,b)")), (1, ("fx", "C", "R(c,b)d"))])]),
    ],
    "A": [
        (1, [("f", "A", "A"), ("f", "B", "rc"), ("fx", "C", "M(d)R(b,c)")]),
        (1, [("f", "A", "rc"), ("f", "B", "A"), ("fx", "C", "M(c)R(b,d)")]),
        (1, [("f", "A", ">"), ("f", "B", "A"), ("fx", "C", "R(b,cd)")]),
        (1, [("f", "A", "A"), ("f", "B", "<"), ("fx", "C", "R(b,cd)")]),
        (1, [("f", "A", "R"), ("f", "B", "A"), ("fx", "C", "cR(b,d)")]),
        (1, [("f", "A", "A"), ("f", "B", "R"), ("fx", "C", "R(b,c)d")]),
    ],
    "rc": [
        (1, [("f", "A", "rc"), ("f", "B", "rc"), ("fx", "C", "M(bcd)")]),
        (1, [("f", "A", "rc"), ("f", "B", "R"), ("fx", "C", "M(bc)d")]),
        (1, [("f", "A", "R"), ("f", "B", "rc"), ("fx", "C", "M(bd)c")]),
        (1, [("f", "A", "R"), ("f", "B", "<"), ("fx", "C", "M(b)R(c,d)")]),
        (1, [("f", "A", ">"), ("f", "B", "R"), ("fx", "C", "M(b)R(d,c)")]),
        (1, [("f", "A", "R"), ("f", "B", "R"), ("fx", "C", "M(b)cd")]),
    ],
    "lc": [
        (1, [("f", "A", "M"), ("f", "B", "M"), ("fx", "C", "M(cd)b")]),
        (1, [("f", "A", "M"), ("f", "B", "lc"), ("fx", "C", "M(c)R(b,d)")]),
        (1, [("f", "A", "lc"), ("f", "B", "M"), ("fx", "C", "M(d)R(b,c)")]),
        (1, [("f", "A", "lc"), ("f", "B", "lc"), ("fx", "C", "R(b,cd)")]),
    ],
    "M": [
        (1, [("f", "A", "M"), ("f", "B", "M"), ("fx", "C", "M(bcd)")]),
    ],
}
