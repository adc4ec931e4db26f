"""Byte-for-byte pins of the derived rules of three larger probe structures.

The golden file ``golden/probes.txt`` holds, per contour and format, the
``derive`` output of every ``catalog.all_targets`` target.  These structures
exercise the multilinear telescope on four internal labels and on three
horizontal externals, which the corpus tables do not reach.  The general
four-point vertex is pinned by the term count of each rule, and its
R-type rules by the symbolic check.

Regenerate (only when a rule change is intended) with::

    PYTHONPATH=src python tests/test_probe_rules.py > golden/probes.txt
"""

from pathlib import Path

import pytest

from contourcalc.catalog import all_targets
from contourcalc.compiler import NamingUnavailable, derive_rule, emit
from contourcalc.ir import EXTENDED, KELDYSH
from contourcalc.oracle import verify
from contourcalc.parser import parse_equation, parse_superindex

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "probes.txt"

PROBES = (
    "G[a,b] = int{c,d,e,f} : A[a,c]*B[c,d]*C[d,e]*D[e,f]*E[f,b]",
    "G[a,b] = int{c,d,e,f} : A[a,c]*B[a,d]*C[c,d]*D[c,e]*E[d,f]*F[e,f]*H[e,b]*K[f,b]",
    "X[a,b,c] = int{u,v} : A[a,u]*B[u,b]*C[u,v]*D[v,c]",
)

FORMATS = ("text", "latex")


def _row(eq, name, rule, fmt):
    # the same rendering as ``contourcalc derive``
    try:
        body = emit(rule, fmt, "langreth")
    except NamingUnavailable:
        body = emit(rule, fmt, "hacek")
    return f"{eq.lhs_name}^{{{name}}} = {body}"


def render_probes() -> str:
    """Derive every target once and render it in both formats."""
    lines = []
    for contour in (EXTENDED, KELDYSH):
        sections = {fmt: [] for fmt in FORMATS}
        for src in PROBES:
            eq = parse_equation(src, contour)
            sections["text"].append("# " + str(eq))
            sections["latex"].append("% " + str(eq))
            for name in all_targets(eq):
                rule = derive_rule(eq, parse_superindex(name, eq))
                for fmt in FORMATS:
                    sections[fmt].append(_row(eq, name, rule, fmt))
        for fmt in FORMATS:
            lines.append(f"## contour={contour} format={fmt}")
            lines.extend(sections[fmt])
    return "\n".join(lines) + "\n"


def test_probe_rules_match_golden():
    assert render_probes() == GOLDEN.read_text(encoding="utf-8")


# the general vertex: its rules run to about 0.7 MB of text per format, so
# they are pinned by their term counts, not by a golden file
VERTEX = "V[a,b,c] = int{d,e,f,g} : K[a,b,d,e]*G[d,f]*G[g,e]*L[f,g,c]"
VERTEX_TERMS = {
    KELDYSH: {
        **dict.fromkeys(["123", "132", "213", "231", "312", "321"], 540),
        "R(1,23)": 396, "R(2,13)": 396, "R(3,12)": 360,
    },
    EXTENDED: {
        **dict.fromkeys(["123", "132", "213", "231", "312", "321"], 670),
        **dict.fromkeys(["M(1)23", "M(1)32", "M(2)13", "M(2)31"], 237),
        "M(3)12": 195, "M(3)21": 195,
        "M(12)3": 32, "M(13)2": 33, "M(23)1": 33, "M(123)": 1,
        "R(1,23)": 422, "R(2,13)": 422, "R(3,12)": 496,
    },
}


@pytest.mark.parametrize("contour", [KELDYSH, EXTENDED])
def test_vertex_rule_sizes_and_symbolic_check(contour):
    # the R-type rules telescope the one retarded set of 7 labels (3072
    # chained terms each when that set was left to the word expansion)
    eq = parse_equation(VERTEX, contour)
    rules = {name: derive_rule(eq, parse_superindex(name, eq)) for name in all_targets(eq)}
    assert {name: len(rule.terms) for name, rule in rules.items()} == VERTEX_TERMS[contour]
    for name in ("R(1,23)", "R(2,13)", "R(3,12)"):
        (record,) = verify(eq, parse_superindex(name, eq), name, seeds=(), rule=rules[name])
        assert record.passed, (contour, name)


if __name__ == "__main__":
    print(render_probes(), end="")
