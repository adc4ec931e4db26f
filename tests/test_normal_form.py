"""The symbolic oracle against literal permutation-filter references.

``normal_form`` visits only the total orderings that a term's step chains
allow, through ``combinatorics.linear_extensions``.  The branch split also
visits only the orderings that survive the largest-time cancellation, in
which every real internal has a later neighbour (``linear_extensions`` with
neighbours), and counts its keys directly in the normal-form basis
(``branch_split_normal_form``); both key on interned factors.  The
references below walk every permutation of the real labels and filter it,
keyed by ``Factor``s, with no cancellation left out, which is slow but
plainly right; the optimized code must give exactly the same result, the
branch split its terms in the same order, and its direct counts the keys
of ``normal_form`` of those terms in the same order.  A verdict's one
signed count (``signed_count``) must give the verdict of comparing the two
normal forms.
"""

import dataclasses
import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contourcalc import catalog
from contourcalc.combinatorics import linear_extensions, order_relation
from contourcalc.compiler import component_of_product, derive_rule
from contourcalc.engine import expand_retarded
from contourcalc.ir import (
    ContourEquation,
    Factor,
    Mats,
    Plain,
    RealTimeExpression,
    RealTimeTerm,
    SuperIndex,
)
from contourcalc.oracle import (
    _ordering_classes,
    _SignedCounts,
    branch_split_normal_form,
    branch_split_oracle,
    normal_form,
    placement_for_times,
    signed_count,
    verify,
)
from contourcalc.parser import parse_equation, parse_superindex


def _holds(chain, pos):
    return all(pos[chain[i]] < pos[chain[i + 1]] for i in range(len(chain) - 1))


def _filtered_permutations(labels, chains, neighbours=()):
    out = []
    for omega in itertools.permutations(labels):
        pos = {l: i for i, l in enumerate(omega)}
        if all(_holds(c, pos) for c in chains) and all(
            any(x in pos and pos[x] < pos[l] for x in others) for l, others in neighbours
        ):
            out.append(omega)
    return out


# ---------------------------------------------------------------------------
# linear extensions


LABELS = "abcdef"


@st.composite
def _labels_and_chains(draw):
    labels = list(draw(st.permutations(LABELS[: draw(st.integers(0, 6))])))
    if not labels:
        return labels, []
    chain = st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True)
    chains = draw(st.lists(chain, max_size=4))
    return labels, chains


@settings(max_examples=300, deadline=None)
@given(_labels_and_chains())
def test_linear_extensions_match_permutation_filter(case):
    labels, chains = case
    got = linear_extensions(labels, chains)
    assert len(set(got)) == len(got)
    # the same orders, and in the order of itertools.permutations(labels)
    assert got == _filtered_permutations(labels, chains)


@pytest.mark.parametrize(
    "labels, chains, count",
    [
        ("abcd", [], 24),  # no chains: every order
        ("abcd", [("c",), ("a",)], 24),  # length-1 chains constrain nothing
        ("abcde", [("a", "b", "c"), ("b", "d"), ("e", "c")], 7),  # overlapping
        ("abcdef", [("f", "a", "c", "b", "e", "d")], 1),  # one total chain
        ("abcd", [("a", "b"), ("b", "c"), ("c", "a")], 0),  # a cycle
        ("", [], 1),  # the empty order
    ],
)
def test_linear_extensions_examples(labels, chains, count):
    got = linear_extensions(list(labels), chains)
    assert got == _filtered_permutations(list(labels), chains)
    assert len(got) == count


@st.composite
def _labels_chains_and_neighbours(draw):
    labels, chains = draw(_labels_and_chains())
    if not labels:
        return labels, chains, ()
    constrained = draw(st.lists(st.sampled_from(labels), unique=True))
    neighbours = tuple(
        (l, frozenset(draw(st.lists(st.sampled_from(labels), max_size=3))) - {l})
        for l in constrained
    )
    return labels, chains, neighbours


@settings(max_examples=200, deadline=None)
@given(_labels_chains_and_neighbours())
def test_linear_extensions_with_neighbours_match_permutation_filter(case):
    # each constrained label needs a later neighbour: the orders that
    # survive the branch split's cancellation
    labels, chains, neighbours = case
    got = linear_extensions(labels, chains, neighbours)
    assert got == _filtered_permutations(labels, chains, neighbours)


def test_linear_extensions_with_neighbours_examples():
    # b and c each need a later neighbour; a label without one never fits
    assert linear_extensions("abc", [], [("b", "a"), ("c", "ab")]) == [
        ("a", "b", "c"),
        ("a", "c", "b"),
    ]
    assert linear_extensions("ab", [], [("b", ())]) == []


def test_linear_extensions_reject_foreign_labels():
    with pytest.raises(ValueError):
        linear_extensions(["a", "b"], [("a", "z")])
    with pytest.raises(ValueError):
        linear_extensions("ab", [("z", "a", "b")], [("b", "a")])


def test_linear_extensions_edge_cases():
    # no labels: the one empty order, whatever the neighbours ask
    assert linear_extensions((), []) == [()]
    assert linear_extensions("", [], [("a", "b")]) == [()]
    # a neighbour condition naming no label of the labels never holds
    assert linear_extensions("ab", [], [("b", "xz")]) == []
    assert linear_extensions("ab", [], [("b", "ax")]) == [("a", "b")]
    # a cycle, of one label or of three, leaves no order
    assert linear_extensions("ab", [("a", "a")]) == []
    assert linear_extensions("abc", [("a", "b", "c"), ("c", "a")]) == []
    # a repeated label of others counts once
    assert linear_extensions("abc", [], [("c", "aab")]) == _filtered_permutations(
        "abc", [], [("c", "ab")]
    )
    # the orders come in the order of itertools.permutations(labels),
    # which follows the labels' given order, not their sorted one
    got = linear_extensions("dbca", [("c", "a")], [("b", "cd")])
    assert got == _filtered_permutations("dbca", [("c", "a")], [("b", "cd")])
    assert got != sorted(got) and len(got) == 9


@st.composite
def _labels_and_two_chain_sets(draw):
    """Labels, a chain set over them, and a second one: the first's
    adjacent pairs in another order, with some more pairs, which its order
    may or may not imply."""
    labels, chains = draw(_labels_and_chains())
    pairs = [(x, y) for chain in chains for x, y in zip(chain, chain[1:])]
    pair = st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True)
    extra = draw(st.lists(pair, max_size=3)) if len(labels) > 1 else []
    return labels, chains, draw(st.permutations(pairs)) + extra


@settings(max_examples=300, deadline=None)
@given(_labels_and_two_chain_sets())
def test_order_relation_is_equal_exactly_when_the_orders_are(case):
    labels, chains, others = case
    same_orders = set(linear_extensions(labels, chains)) == set(linear_extensions(labels, others))
    assert (order_relation(labels, chains) == order_relation(labels, others)) == same_orders


def test_order_relation_of_no_order_is_none():
    # a cycle, of one label or of three, and a repeated label have no order
    for labels, chains in [
        ("ab", [("a", "a")]),
        ("abc", [("a", "b", "c"), ("c", "a")]),
        ("aab", []),
        ("aab", [("a", "b")]),
    ]:
        assert linear_extensions(labels, chains) == []
        assert order_relation(labels, chains) is None
    # each label's mask holds the labels that must be later, closed
    # transitively; a chain of one label, or none, constrains nothing
    assert order_relation("abc", [("a", "b"), ("b", "c")]) == (0, 0b001, 0b011)
    assert order_relation("abc", [("c",)]) == order_relation("abc", []) == (0, 0, 0)
    with pytest.raises(ValueError):
        order_relation("ab", [("a", "z")])


# ---------------------------------------------------------------------------
# normal form


def _reference_normal_form(expr, eq):
    """The normal form by filtering every permutation of the real labels,
    rebuilding each plain factor for every (ordering, combination) pair."""
    nf = Counter()
    for term in expr.terms:
        m_placed = set(term.imag_integrals)
        for f in term.factors:
            m_placed.update(str(l) for l in f.index.mats_labels())
        real_labels = sorted(
            (set(eq.labels()) - m_placed - set(eq.internal)) | set(term.real_integrals)
        )
        expansions = [
            (f.func, sorted(str(l) for l in f.index.mats_labels()), expand_retarded(f.index))
            for f in term.factors
        ]
        for omega in itertools.permutations(real_labels):
            pos = {l: i for i, l in enumerate(omega)}
            if not all(_holds(c, pos) for c in term.steps):
                continue
            choices = [
                [(s, w) for s, chains, w in ex if all(_holds(c, pos) for c in chains)]
                for _, _, ex in expansions
            ]
            for combo in itertools.product(*choices):
                sign = term.sign
                factors = []
                for (func, mats, _), (s, w) in zip(expansions, combo):
                    sign *= s
                    items = tuple(Plain(l) for l in w)
                    if mats:
                        items = (Mats(tuple(mats)),) + items
                    factors.append(Factor(func, SuperIndex(items)))
                key = (
                    frozenset(m_placed),
                    frozenset(term.imag_integrals),
                    omega,
                    tuple(sorted(factors, key=Factor.sort_key)),
                )
                nf[key] += sign
    return Counter({k: v for k, v in nf.items() if v != 0})


PROBES = {
    "chain4": "G[a,b] = int{c,d,e,f} : A[a,c]*B[c,d]*C[d,e]*D[e,f]*E[f,b]",
    "X": "X[a,b,c] = int{u,v} : A[a,u]*B[u,b]*C[u,v]*D[v,c]",
}


def _structures(contour):
    for name, build in catalog.CORPUS.items():
        eq = build()
        yield name, ContourEquation(eq.lhs_name, eq.external, eq.internal, eq.product, contour)
    for name, text in PROBES.items():
        yield name, parse_equation(text, contour)


@pytest.mark.parametrize("contour", ["extended", "keldysh"])
def test_normal_form_matches_reference(contour):
    checked = 0
    for name, eq in _structures(contour):
        for tname in catalog.all_targets(eq):
            target = parse_superindex(tname, eq)
            for side, expr in (
                ("rule", derive_rule(eq, target)),
                ("branch split", branch_split_oracle(eq, target)),
            ):
                assert normal_form(expr, eq) == _reference_normal_form(expr, eq), (
                    name,
                    tname,
                    side,
                )
                checked += 1
    assert checked == {"extended": 2 * 63, "keldysh": 2 * 34}[contour]


# ---------------------------------------------------------------------------
# branch split


def _reference_branch_split(eq, target):
    """The branch split by a plain loop: every branch assignment and every
    permutation of the real labels, each reduced to its induced components
    and counted under a key of ``Factor``s; keys that cancel to 0 give no
    term, the others give their terms in the order the keys first arise."""
    m_ext = [str(l) for l in target.mats_labels()]
    branches = ("F", "B", "M") if eq.contour == "extended" else ("F", "B")
    nf = Counter()
    for sign_t, chains_t, ext_word in expand_retarded(target.real_items()):
        for assign in itertools.product(branches, repeat=len(eq.internal)):
            branch = dict(zip(eq.internal, assign))
            imag = frozenset(l for l, b in branch.items() if b == "M")
            real_int = frozenset(eq.internal) - imag
            m_labels = m_ext + [l for l in eq.internal if l in imag]
            bfuncs = tuple((f, tuple(l for l in m_labels if l in f.args)) for f in eq.product)
            sign = sign_t * (-1) ** assign.count("B")
            for omega in _filtered_permutations(sorted(real_int | set(ext_word)), chains_t):
                placement = placement_for_times(ext_word, {l: -i for i, l in enumerate(omega)})
                if placement is None:
                    continue
                at = {**branch, **placement}
                bwd = [l for l in omega if at[l] == "B"]
                word = tuple(reversed(bwd)) + tuple(l for l in omega if at[l] == "F")
                factors = component_of_product(bfuncs, word)
                nf[omega, tuple(sorted(factors, key=Factor.sort_key)), real_int, imag] += sign
    return tuple(
        RealTimeTerm(1 if c > 0 else -1, (omega,), factors, real_int, imag)
        for (omega, factors, real_int, imag), c in nf.items()
        for _ in range(abs(c))
    )


SELF_ENERGY = "S[a,b] = int{c,d} : G[a,c]*G[c,d]*G[d,b]"


@pytest.mark.parametrize("contour", ["extended", "keldysh"])
def test_branch_split_matches_reference_in_order(contour):
    # the corpus, chain4, X and a sub-function name used three times
    structures = [*_structures(contour), ("S", parse_equation(SELF_ENERGY, contour))]
    checked = 0
    for name, eq in structures:
        for tname in catalog.all_targets(eq):
            target = parse_superindex(tname, eq)
            reference = _reference_branch_split(eq, target)
            assert branch_split_oracle(eq, target).terms == reference, (name, tname)
            checked += 1
    assert checked == {"extended": 63 + 7, "keldysh": 34 + 4}[contour]


# the dangling Matsubara external: ``a`` sits in no function, so the normal
# form counts it as a real label
DANGLING = ("X[a,b,c] = int{u} : F0[c,b,u]", "M(1)23")


@pytest.mark.parametrize("contour", ["extended", "keldysh"])
def test_branch_split_counts_its_own_normal_form(contour):
    structures = [*_structures(contour), ("S", parse_equation(SELF_ENERGY, contour))]
    cases = [
        (name, eq, parse_superindex(tname, eq))
        for name, eq in structures
        for tname in catalog.all_targets(eq)
    ]
    dangling = parse_equation(DANGLING[0], contour)
    cases.append(("dangling", dangling, parse_superindex(DANGLING[1], dangling)))
    for name, eq, target in cases:
        direct = branch_split_normal_form(eq, target)
        # the same counts, keys in the same order
        expected = normal_form(branch_split_oracle(eq, target), eq)
        assert list(direct.items()) == list(expected.items()), (name, target)
        # no count on an order of the horizontal externals with no placement
        _, blocked = _ordering_classes(eq, target)
        horizontal = set(eq.external) - set(target.mats_labels())
        assert not any(
            tuple(l for l in key[2] if l in horizontal) in blocked for key in direct
        ), (name, target)
    assert len(cases) == {"extended": 63 + 7 + 1, "keldysh": 34 + 4 + 1}[contour]


CHAIN6 = "G[a,b] = int{c,d,e,f,g,h} : A[a,c]*B[c,d]*C[d,e]*D[e,f]*E[f,g]*F[g,h]*H[h,b]"


@pytest.mark.parametrize("contour", ["extended", "keldysh"])
def test_chain6_symbolic_check(contour):
    # six internals: 2**6 or 3**6 branch assignments, 8! orderings of the
    # real labels; only the orderings that survive the cancellation are built
    eq = parse_equation(CHAIN6, contour)
    target = parse_superindex(">", eq)
    rule = derive_rule(eq, target)
    (record,) = verify(eq, target, seeds=(), rule=rule)
    assert record.passed
    flipped = dataclasses.replace(rule.terms[0], sign=-rule.terms[0].sign)
    wrong = RealTimeExpression((flipped,) + rule.terms[1:])
    (record,) = verify(eq, target, seeds=(), rule=wrong)
    assert not record.passed


# ---------------------------------------------------------------------------
# corrupted rules that keep every sign

LADDER = "G[a,b] = int{c,d,e,f} : A[a,c]*B[a,d]*C[c,d]*D[c,e]*E[d,f]*F[e,f]*H[e,b]*K[f,b]"


def _dropped_chain(rule):
    """The rule with the step chains of its first chained term dropped."""
    k = next(i for i, t in enumerate(rule.terms) if t.steps)
    bad = dataclasses.replace(rule.terms[k], steps=())
    return RealTimeExpression(rule.terms[:k] + (bad,) + rule.terms[k + 1:])


def _swapped_component(rule):
    """The rule with the first two-label component of its first term
    swapped for the function's other component on the same labels."""
    term = rule.terms[0]
    j = next(
        i for i, f in enumerate(term.factors)
        if len(f.index.items) == 2 and all(isinstance(x, Plain) for x in f.index.items)
    )
    f = term.factors[j]
    other = Factor(f.func, SuperIndex(tuple(reversed(f.index.items))))
    bad = dataclasses.replace(term, factors=term.factors[:j] + (other,) + term.factors[j + 1:])
    return RealTimeExpression((bad,) + rule.terms[1:])


@pytest.mark.parametrize(
    "text, contour, corrupt",
    [
        # chain4's rules carry no step chains; the extended ladder's do
        (LADDER, "keldysh", _dropped_chain),
        (LADDER, "extended", _dropped_chain),
        (LADDER, "keldysh", _swapped_component),
        (PROBES["chain4"], "extended", _swapped_component),
    ],
    ids=["ladder-keldysh-chain", "ladder-extended-chain", "ladder-keldysh-component",
         "chain4-extended-component"],
)
def test_symbolic_check_rejects_corruption_that_keeps_signs(text, contour, corrupt):
    eq = parse_equation(text, contour)
    target = parse_superindex(">", eq)
    rule = derive_rule(eq, target)
    bad = corrupt(rule)
    assert [t.sign for t in bad.terms] == [t.sign for t in rule.terms]
    assert bad.terms != rule.terms
    (record,) = verify(eq, target, seeds=(), rule=bad)
    assert not record.passed


def test_failing_symbolic_record_says_where():
    eq = parse_equation(PROBES["chain4"], "extended")
    target = parse_superindex(">", eq)
    rule = derive_rule(eq, target)
    (record,) = verify(eq, target, seeds=(), rule=rule)
    assert record.passed and record.detail == ""
    (record,) = verify(eq, target, seeds=(), rule=_swapped_component(rule))
    assert not record.passed
    match = re.fullmatch(
        r"(\d+) of (\d+) normal-form keys differ, first on ordering ([a-z>]+)", record.detail
    )
    assert match, record.detail
    differ, keys = int(match[1]), int(match[2])
    # the swapped component moves the keys of the first term: it removes
    # some and adds as many, on the orderings of six real labels
    assert 0 < differ <= keys
    assert sorted(match[3].split(">")) == list("abcdef")


# ---------------------------------------------------------------------------
# one signed count per verdict


def _two_normal_forms(eq, target, rule):
    """``(keys that differ, keys)`` between the branch split's normal form
    and the rule's, with the rule's keys on a blocked order of the
    horizontal externals dropped: the comparison that one signed count
    replaces."""
    _, blocked = _ordering_classes(eq, target)
    horizontal = set(eq.external) - set(target.mats_labels())
    split_nf = branch_split_normal_form(eq, target)
    rule_nf = {
        key: c for key, c in normal_form(rule, eq).items()
        if tuple(l for l in key[2] if l in horizontal) not in blocked
    }
    keys = set(split_nf) | set(rule_nf)
    return sum(split_nf.get(k, 0) != rule_nf.get(k, 0) for k in keys), len(keys)


def _dropped_term(rule):
    return RealTimeExpression(rule.terms[1:])


def _flipped_sign(rule):
    bad = dataclasses.replace(rule.terms[0], sign=-rule.terms[0].sign)
    return RealTimeExpression((bad,) + rule.terms[1:])


@pytest.mark.parametrize("contour", ["extended", "keldysh"])
def test_signed_count_gives_the_verdict_of_two_normal_forms(contour):
    # every target of the corpus, chain4 and X (three horizontal externals,
    # with blocked orders), and the dangling Matsubara external; the rule,
    # and the rule with its first term dropped or its first sign flipped
    cases = [
        (name, eq, parse_superindex(tname, eq))
        for name, eq in _structures(contour)
        for tname in catalog.all_targets(eq)
    ]
    dangling = parse_equation(DANGLING[0], contour)
    cases.append(("dangling", dangling, parse_superindex(DANGLING[1], dangling)))
    blocked_targets = 0
    for name, eq, target in cases:
        rule = derive_rule(eq, target)
        _, blocked = _ordering_classes(eq, target)
        blocked_targets += bool(blocked)
        for variant in (rule, _dropped_term(rule), _flipped_sign(rule)):
            if not variant.terms:
                continue
            differ, _ = _two_normal_forms(eq, target, variant)
            assert signed_count(eq, target, variant, blocked).zero() == (differ == 0), (name, target)
        assert signed_count(eq, target, rule, blocked).zero(), (name, target)
    assert blocked_targets > 0


@pytest.mark.parametrize(
    "text, contour, corrupt",
    [
        (LADDER, "keldysh", _dropped_chain),
        (LADDER, "extended", _dropped_chain),
        (LADDER, "keldysh", _swapped_component),
        (PROBES["chain4"], "extended", _swapped_component),
        (LADDER, "keldysh", _dropped_term),
        (PROBES["X"], "keldysh", _flipped_sign),
    ],
    ids=["ladder-keldysh-chain", "ladder-extended-chain", "ladder-keldysh-component",
         "chain4-extended-component", "ladder-keldysh-term", "X-keldysh-sign"],
)
def test_failing_detail_counts_the_keys_of_two_normal_forms(text, contour, corrupt):
    eq = parse_equation(text, contour)
    target = parse_superindex("123" if eq.lhs_name == "X" else ">", eq)
    bad = corrupt(derive_rule(eq, target))
    (record,) = verify(eq, target, seeds=(), rule=bad)
    assert not record.passed
    match = re.fullmatch(r"(\d+) of (\d+) normal-form keys differ, first on ordering .+", record.detail)
    assert match, record.detail
    assert (int(match[1]), int(match[2])) == _two_normal_forms(eq, target, bad)


VERTEX = "V[a,b,c] = int{d,e,f,g} : K[a,b,d,e]*G[d,f]*G[g,e]*L[f,g,c]"


def test_rule_lists_only_the_orderings_of_combinations_that_do_not_cancel(monkeypatch):
    # combinations with the same group and order relation are summed
    # before their orderings are listed; listing every combination's
    # orderings counted 21 504 occurrences on the ladder and 61 440 on V
    occurrences = []
    add = _SignedCounts.add

    def counted(self, sign, groups, ids):
        ids = list(ids)
        occurrences.append(abs(sign) * len(ids))
        return add(self, sign, groups, ids)

    monkeypatch.setattr(_SignedCounts, "add", counted)
    for text, tname, expected in ((LADDER, ">", 11_904), (VERTEX, "R(1,23)", 30_720)):
        eq = parse_equation(text, "keldysh")
        rule = derive_rule(eq, parse_superindex(tname, eq))
        occurrences.clear()
        nf = normal_form(rule, eq)
        assert sum(occurrences) == expected, tname
        assert sum(map(abs, nf.values())) < expected


def test_combinations_that_add_up_count_their_orderings_as_often():
    # a term given twice sums to 2 before its orderings are listed
    eq = parse_equation(LADDER, "keldysh")
    target = parse_superindex(">", eq)
    rule = derive_rule(eq, target)
    twice = RealTimeExpression(rule.terms * 2)
    assert normal_form(twice, eq) == {key: 2 * c for key, c in normal_form(rule, eq).items()}
    _, blocked = _ordering_classes(eq, target)
    assert not signed_count(eq, target, twice, blocked).zero()
