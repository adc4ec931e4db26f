"""Randomized cross-check of the compiler against the branch-split oracle.

The corpus covers the standard structures; this module draws arbitrary
small products (mixed arities, both contours) and requires the compiled
rule to match the oracle's cancelled normal form for every target.
"""

import random

from contourcalc import catalog
from contourcalc.compiler import derive_rule
from contourcalc.ir import ContourEquation, SubFunction, validate_equation
from contourcalc.oracle import branch_split_oracle, normal_form_equal, verify
from contourcalc.parser import parse_superindex


def _random_equation(rng, n_ext=(1, 2, 2), names=None):
    """A random valid equation, or None.  With ``names``, each sub-function
    draws its name from that pool, so names repeat; without, the names are
    F0, F1, ... and take no draw from ``rng``."""
    n_int = rng.choice([0, 1, 1, 2, 2])
    ext = ["a", "b", "c"][: rng.choice(n_ext)]
    internal = ["u", "v"][:n_int]
    labels = ext + internal
    product = []
    for i in range(rng.randint(1, 4)):
        arity = rng.choice([1, 2, 2, 2, 3])
        args = rng.sample(labels, min(arity, len(labels)))
        name = f"F{i}" if names is None else rng.choice(names)
        product.append(SubFunction(name, tuple(args)))
    used = {a for f in product for a in f.args}
    if not set(internal) <= used:
        return None
    contour = rng.choice(["keldysh", "extended"])
    eq = ContourEquation("X", tuple(ext), tuple(internal), tuple(product), contour)
    if validate_equation(eq):
        return None
    return eq


def test_random_structures_match_oracle():
    rng = random.Random(20240817)
    checked = 0
    trials = 0
    while checked < 120 and trials < 600:
        trials += 1
        eq = _random_equation(rng)
        if eq is None:
            continue
        for tname in catalog.all_targets(eq):
            target = parse_superindex(tname, eq)
            rule = derive_rule(eq, target)
            assert normal_form_equal(branch_split_oracle(eq, target), rule, eq), (
                str(eq),
                tname,
            )
            checked += 1
    assert checked >= 120


def test_random_repeated_name_structures_match_oracle():
    # names drawn from a pool of two, so one name labels several factors
    rng = random.Random(16180)
    checked = 0
    repeated = 0
    trials = 0
    while checked < 120 and trials < 600:
        trials += 1
        eq = _random_equation(rng, names=("G", "H"))
        if eq is None:
            continue
        names = [f.name for f in eq.product]
        repeated += len(set(names)) < len(names)
        for tname in catalog.all_targets(eq):
            target = parse_superindex(tname, eq)
            rule = derive_rule(eq, target)
            assert normal_form_equal(branch_split_oracle(eq, target), rule, eq), (
                str(eq),
                tname,
            )
            checked += 1
    assert checked >= 120
    assert repeated >= 10


def test_random_three_external_structures_match_oracle():
    # symbolic check only: it compares the normal forms on every order of
    # the three externals that has a contour placement
    rng = random.Random(27182)
    checked = 0
    trials = 0
    while checked < 45 and trials < 300:
        trials += 1
        eq = _random_equation(rng, n_ext=(3,))
        if eq is None:
            continue
        for tname in catalog.all_targets(eq):
            target = parse_superindex(tname, eq)
            (record,) = verify(eq, target, target_name=tname, seeds=())
            assert record.passed, (str(eq), tname)
            checked += 1
    assert checked >= 45


def test_random_structures_numeric():
    from contourcalc.oracle import (
        ComponentTable,
        DiscreteContour,
        evaluate_contour_side,
        evaluate_realtime_side,
    )

    rng = random.Random(31415)
    grid = DiscreteContour(n_fwd=8)
    checked = 0
    trials = 0
    while checked < 40 and trials < 400:
        trials += 1
        eq = _random_equation(rng)
        if eq is None:
            continue
        tables = ComponentTable(eq, seed=trials)
        for tname in catalog.all_targets(eq):
            target = parse_superindex(tname, eq)
            rule = derive_rule(eq, target)
            m_ext = {str(l) for l in target.mats_labels()}
            horizontals = [l for l in eq.external if l not in m_ext]
            times = {l: rng.uniform(0.1, 1.9) for l in horizontals}
            times.update({l: rng.uniform(0.05, 0.95) for l in m_ext})
            lhs = evaluate_contour_side(eq, target, tables, grid, times)
            rhs = evaluate_realtime_side(rule, eq, tables, grid, times)
            assert abs(lhs - rhs) <= 1e-10 * (1 + max(abs(lhs), abs(rhs))), (
                str(eq),
                tname,
            )
            checked += 1
    assert checked >= 40


def test_four_point_heavy_structure_regression():
    # a structure whose telescoped representation is not unit-coefficient:
    # the reducer must decline it and fall back to exact word expansion
    from contourcalc.parser import parse_equation

    text = "X[a,b] = int{u,v} : F0[u,v,a]*F1[v,u,b,a]*F2[v,b,a,u]"
    for contour in ("keldysh", "extended"):
        eq = parse_equation(text, contour)
        for tname in catalog.all_targets(eq):
            target = parse_superindex(tname, eq)
            rule = derive_rule(eq, target)
            assert normal_form_equal(branch_split_oracle(eq, target), rule, eq)
