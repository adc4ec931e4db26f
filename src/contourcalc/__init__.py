"""contourcalc: contour-integral equations compiled to real-time rules.

The package turns equations over multi-point contour functions (Keldysh or
extended contour) into real-time expressions built from components and
retarded compositions of the individual sub-functions, and verifies every
generated rule against an exact branch-splitting oracle and a discrete
numeric evaluator.
"""

from .ir import (
    ContourEquation,
    ContourError,
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
    validate_equation,
)
from .engine import (
    expand_retarded,
    nested_expand,
    representation,
)
from .compiler import (
    NamingUnavailable,
    component_of_product,
    derive_rule,
    emit,
)
from .oracle import (
    ComponentTable,
    DiscreteContour,
    GridTieError,
    NotFullyExpanded,
    UnknownComponent,
    branch_split_oracle,
    evaluate_contour_side,
    evaluate_realtime_side,
    normal_form,
    normal_form_equal,
    verify,
)
from .parser import ArityMismatch, EquationSyntaxError, parse_equation, parse_file, parse_superindex

__all__ = [name for name in dir() if not name.startswith("_")]
