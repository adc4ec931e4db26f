"""Byte-for-byte pins of the derived rules of three larger probe structures.

The golden file ``golden/probes.txt`` holds, per contour and format, the
``derive`` output of every ``catalog.all_targets`` target.  These structures
exercise the multilinear telescope on four internal labels and on three
horizontal externals, which the corpus tables do not reach.

Regenerate (only when a rule change is intended) with::

    PYTHONPATH=src python tests/test_probe_rules.py > golden/probes.txt
"""

from pathlib import Path

from contourcalc.catalog import all_targets
from contourcalc.compiler import NamingUnavailable, derive_rule, emit
from contourcalc.ir import EXTENDED, KELDYSH
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


if __name__ == "__main__":
    print(render_probes(), end="")
