"""Independent verifiers for compiled real-time rules.

Two oracles, deliberately sharing nothing with the compiler's reduction
strategy:

* a symbolic one that splits every contour integral over the branches,
  reduces each branch configuration with plain component calculus, and
  cancels -- the result is a normal form over total orderings of the real
  time labels.  Both symbolic layers count occurrences of their keys in
  bulk (:class:`_SignedCounts`): a key's group (its Matsubara placement
  and its plain component factors, which are interned by
  :mod:`contourcalc.ir` and put in ``Factor.sort_key`` order once per
  call) and its ordering are numbered, so an occurrence is one int that
  ``Counter`` counts in C, and only the keys whose count is not zero are
  built.  Orderings are listed as linear extensions over bitmasks of
  placed labels (:func:`~contourcalc.combinatorics.linear_extensions`).
  The branch split lists only the orderings in which every real internal
  has a later neighbour (a real label it shares a function with); the
  others cancel between its forward and backward placements, by the
  largest-time equation in local form (:func:`branch_split_oracle`).  It
  picks each function's component for all of a branch assignment's
  orderings at once, by comparing its labels' contour keys, and so counts
  in the normal-form basis itself (:func:`_count_split`).  The rule sums
  the signs of its combinations of expansion entries that share a group
  and an order relation first, and lists orderings only for the non-zero
  sums (:func:`_count_rule`).  A verdict is one signed count, the split's
  occurrences minus the rule's off the blocked orders of the horizontal
  externals (:func:`signed_count`): it passes when every count is 0, and
  only a failing one builds the two normal forms, to say how many keys
  differ and the ordering of the first;
* a numeric one that evaluates both sides of a rule on a shared discrete
  contour.  The rules are identities between integrands wherever the
  contour times are distinct, where the step-function algebra holds.
  Each internal label has its own real nodes (:class:`DiscreteContour`),
  so no two labels ever share a node, and the forward and backward
  branches of one label use the same nodes: all the cancellation lemmas
  hold node by node, and agreement is limited only by floating-point
  rounding, not quadrature error.  Both sides evaluate a batch of
  samples of one order class of the horizontal externals at once
  (:func:`evaluate_contour_batch`, :func:`evaluate_realtime_batch`; a
  single sample is the batch of one), every array carrying a leading
  sample axis, of size 1 where it does not vary over the samples.  Both
  evaluate a function as the masked sum over component orders of
  :func:`_ordered_sum`, which reads every component value from one value
  table (:class:`_BatchValues`).  The contour side is planned once per
  (equation, grid) (:class:`_ContourPlan`) and the real-time side once
  per rule (:func:`_plan_rule`); both contract their operands along
  paths lowered to matrix products when they are planned
  (:class:`_Step`).

Both read the contour's branches from one table: :data:`CONTOURS` gives
each contour's branch names in contour order, and :data:`BRANCHES` each
branch's sign, whether it is vertical and where its contour keys start
(:class:`Branch`).  The split's signs and contour keys, the grid's keys
and weights, the contour orders and the blocks of the contour side all
come from it, and no other code tests a branch name or a contour's
name; a name the table does not hold is refused.

Only the numeric oracle uses NumPy, and this module is the only one of
the package that refers to it: ``np`` is a lazy module
(:func:`_lazy_numpy`), so importing the package, parsing, deriving,
emitting and the symbolic check (:func:`verify` with no seeds among
them) never load NumPy, and the first numeric call does.

Per-call memos aside, bounded caches live as long as the process: the
component table of each (equation, seed), 64 entries; the grid of each
(t0, t_max, grid size), 16; the contour plan of each (equation, grid),
64; the plan of each factor, 4096; the real-time plan of each rule,
keyed by the rule, so equal rules share one, 64; the sparse mesh of
each (grid, node sets), 64; and the value table of the component tables
and grid read last, 1, which :func:`verify` empties when it returns.
An entry adds what it is asked for (a grid its label nodes, a contour
plan its function plans, a rule plan its paths, the value table its
values) but never changes a value once built.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import itertools
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .combinatorics import linear_extensions, order_relation
from .compiler import BFunc, component_of_product, derive_rule
from .engine import expand_retarded
from .ir import (
    EXTENDED,
    KELDYSH,
    ContourEquation,
    ContourError,
    Factor,
    RealTimeExpression,
    RealTimeTerm,
    SubFunction,
    SuperIndex,
)


def _lazy_numpy():
    """NumPy, loaded on first use: the module itself if it is already
    imported, else a lazy module (``importlib.util.LazyLoader``) under its
    name in ``sys.modules``, which runs NumPy's import on its first
    attribute access and is a plain module from then on."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

FWD, BWD, MAT = "F", "B", "M"


class Branch(NamedTuple):
    """One branch of the contour.

    ``sign`` is +1 where contour time runs with real time and -1 where it
    runs back toward t0: the sign of the branch's integrals, the direction
    of its contour keys and its factor in the branch split.  ``vertical``
    marks the vertical track, whose integrals carry -i and whose nodes are
    the shared vertical ones.  ``offset`` is where its contour keys start,
    in units of ``t_max``."""

    sign: int
    vertical: bool
    offset: float


# the branch table, which both oracles read: every branch by its name, and
# each contour's branch names in contour order
BRANCHES = {FWD: Branch(1, False, 0.0), BWD: Branch(-1, False, 3.0), MAT: Branch(1, True, 5.0)}
CONTOURS = {KELDYSH: (FWD, BWD), EXTENDED: (FWD, BWD, MAT)}
# the branches an external's placement picks from, in contour order, and
# the one a Matsubara external sits on
HORIZONTAL = tuple(b for b in CONTOURS[EXTENDED] if not BRANCHES[b].vertical)
(VERTICAL,) = (b for b in CONTOURS[EXTENDED] if BRANCHES[b].vertical)


class GridTieError(ContourError):
    """Two distinct time labels coincide on the discrete contour."""


class UnknownComponent(ContourError):
    pass


class NotFullyExpanded(ContourError):
    pass


# ---------------------------------------------------------------------------
# symbolic normal form


def normal_form(expr: RealTimeExpression, eq: ContourEquation) -> Counter:
    """Expand to the common basis: one key per (Matsubara placement, total
    ordering of the real labels, plain component factors).

    Counted by :func:`_count_rule`, which sums the signs of the
    combinations that hold on the same orderings before it lists them: a
    key arises with the first combination of its group and order
    relation, so where combinations cancel or share their orderings, the
    keys may arise in another order than the terms list them.
    """
    counts = _SignedCounts()
    _count_rule(counts, expr, eq)
    return counts.normal_form()


def _count_rule(
    counts: _SignedCounts,
    expr: RealTimeExpression,
    eq: ContourEquation,
    sign: int = 1,
    blocked: Collection[tuple[str, ...]] = (),
) -> None:
    """Add ``sign`` times the occurrences of ``expr``'s normal-form keys
    to ``counts``, none on a ``blocked`` order of the horizontal
    externals.

    A term's combinations of expansion entries are folded factor by
    factor, in the order of ``itertools.product``, so combinations that
    share a prefix share its sign and step chains.  Each combination
    holds on the orderings of the term's real labels where the term's and
    its entries' chains hold, which depend on their order relation alone
    (:func:`~contourcalc.combinatorics.order_relation`, once per distinct
    (real labels, chains)).  So the signs of the combinations with the
    same group and relation are summed first, and only a non-zero sum
    lists its orderings, once per relation, and counts them in bulk
    (:class:`_SignedCounts`) with that sum as their multiplicity.  With
    ``blocked``, a relation's orderings are those of the relation and
    each other order of the horizontal externals in turn, so no blocked
    ordering is listed.
    """
    known = {f.name for f in eq.product}
    # each distinct factor expands once, into (sign, step chains, component)
    expansions: dict[Factor, list[tuple[int, tuple, Factor]]] = {}
    relations = _Relations()
    # the summed sign of each (shifted group | relation id)
    sums: dict[int, int] = {}
    for term in expr.terms:
        m_placed: set[str] = set()
        for f in term.factors:
            if f.func.name not in known:
                raise NotFullyExpanded(f"factor {f} does not belong to {eq.lhs_name}")
            m_placed.update(f.index.mats_labels())
        m_placed |= set(term.imag_integrals)
        real_labels = tuple(sorted(
            (set(eq.labels()) - m_placed - set(eq.internal)) | set(term.real_integrals)
        ))
        for f in term.factors:
            if f not in expansions:
                bf = (f.func, tuple(sorted(f.index.mats_labels())))
                expansions[f] = [
                    (s, chains, component_of_product((bf,), w)[0])
                    for s, chains, w in expand_retarded(f.index)
                ]
        combos = [(term.sign, term.steps, ())]
        for f in term.factors:
            combos = [
                (prefix * s, chains + cs, factors + (c,))
                for prefix, chains, factors in combos
                for s, cs, c in expansions[f]
            ]
        groups = counts.group(frozenset(m_placed), frozenset(term.imag_integrals))
        for s, chains, factors in combos:
            r = relations[real_labels, chains]
            if r is not None:
                pair = groups[factors] | r
                sums[pair] = sums.get(pair, 0) + s
    # every other order of the horizontal externals, as a chain
    horizontal = sorted(next(iter(blocked), ()))
    allowed = [(o,) for o in itertools.permutations(horizontal) if o not in blocked]
    listed: dict[int, list[int]] = {}
    for pair, n in sums.items():
        if n:
            r = pair & 0xFFFFFFFF
            if r not in listed:
                labels, chains = relations.first[r]
                if blocked and set(horizontal) <= set(labels):
                    orderings = itertools.chain.from_iterable(
                        linear_extensions(labels, chains + o) for o in allowed
                    )
                else:
                    orderings = linear_extensions(labels, chains)
                listed[r] = counts.ids(orderings)
            counts.add(sign * n, itertools.repeat(pair - r), listed[r])


class _Relations(dict):
    """The id of the order relation that each ``(labels, chains)`` pair
    puts on its labels, numbered as the relations arise, or None where it
    allows no ordering; ``first[id]`` is the first pair of each."""

    def __init__(self):
        super().__init__()
        self.ids = _Ids()
        self.first: list[tuple] = []

    def __missing__(self, key: tuple) -> Optional[int]:
        relation = order_relation(*key)
        n = None if relation is None else self.ids[key[0], relation]
        if n == len(self.first):
            self.first.append(key)
        self[key] = n
        return n


class _Ids(dict):
    """Numbers each new key on first lookup: 0, ``step``, ``2 * step``, ..."""

    def __init__(self, step: int = 1):
        super().__init__()
        self.step = step

    def __missing__(self, key) -> int:
        self[key] = n = len(self) * self.step
        return n


class _Groups(dict):
    """The group of each tuple of factors, in any order, under one
    placement ``(Matsubara-placed labels, imaginary integrals)``: its id in
    ``ids``, which numbers the placement with the factors in
    ``Factor.sort_key`` order."""

    def __init__(self, ids: _Ids, placement: tuple[frozenset, frozenset]):
        super().__init__()
        self.ids, self.placement = ids, placement

    def __missing__(self, factors: tuple[Factor, ...]) -> int:
        self[factors] = n = self.ids[
            (*self.placement, tuple(sorted(factors, key=Factor.sort_key)))
        ]
        return n


class _SignedCounts:
    """Signed occurrences of (group, ordering) pairs, counted in bulk.

    A group is a ``(Matsubara-placed labels, imaginary integrals, factors
    in Factor.sort_key order)`` triple; groups and orderings are numbered
    as they arise, and a pair is the int ``group << 32 | ordering``.  One
    ``Counter`` counts them: ``update`` adds the positive occurrences (in
    C) and ``subtract`` takes the negative ones away, and either enters a
    new pair after the others, so the pairs come in the order in which
    they first arose, whatever their sign.  Only the pairs whose count is
    not zero become keys.
    """

    def __init__(self):
        # groups shifted into place
        self.groups = _Ids(step=1 << 32)
        self.placed: dict[tuple[frozenset, frozenset], _Groups] = {}
        self.orderings = _Ids()
        self.counts: Counter = Counter()

    def group(self, m_placed: frozenset, imag: frozenset) -> _Groups:
        """The groups of one placement, by their factors in any order."""
        if (m_placed, imag) not in self.placed:
            self.placed[m_placed, imag] = _Groups(self.groups, (m_placed, imag))
        return self.placed[m_placed, imag]

    def ids(self, orderings: Iterable[tuple]) -> list[int]:
        return list(map(self.orderings.__getitem__, orderings))

    def add(self, sign: int, groups: Iterable[int], ids: Iterable[int]) -> None:
        """``sign`` occurrences of each (group, ordering) pair, from
        shifted groups and ordering ids taken in step: ``abs(sign)`` of
        them, each of the sign of ``sign``."""
        pairs = map(operator.or_, groups, ids)
        if abs(sign) > 1:
            pairs = list(pairs) * abs(sign)
        if sign > 0:
            self.counts.update(pairs)
        else:
            self.counts.subtract(pairs)

    def zero(self) -> bool:
        """Whether every count is 0."""
        return not any(self.counts.values())

    def normal_form(self) -> Counter:
        """Normal-form keys ``(Matsubara-placed labels, imaginary
        integrals, ordering, factors)`` with their non-zero counts."""
        groups, orderings = list(self.groups), list(self.orderings)
        keys: Counter = Counter()
        for pair, n in self.counts.items():
            if n:
                m_placed, imag, factors = groups[pair >> 32]
                keys[m_placed, imag, orderings[pair & 0xFFFFFFFF], factors] = n
        return keys


def normal_form_equal(x: RealTimeExpression, y: RealTimeExpression, eq: ContourEquation) -> bool:
    """Whether ``x`` and ``y`` have the same normal form: ``x`` counted
    with a plus sign and ``y`` with a minus sign leave every count 0."""
    counts = _SignedCounts()
    _count_rule(counts, x, eq)
    _count_rule(counts, y, eq, -1)
    return counts.zero()


def signed_count(
    eq: ContourEquation, target: SuperIndex, rule: RealTimeExpression,
    blocked: Collection[tuple[str, ...]],
) -> _SignedCounts:
    """The branch split's normal-form counts minus ``rule``'s, in one
    :class:`_SignedCounts`, the rule's taken on the orders of the
    horizontal externals that are not ``blocked``: the rule is right
    exactly when every count is 0.  No key is built."""
    counts = _SignedCounts()
    _count_split(counts, eq, target)
    _count_rule(counts, rule, eq, -1, blocked)
    return counts


# ---------------------------------------------------------------------------
# branch splitting


def placement_for_times(word: tuple[str, ...], times: dict[str, float]) -> Optional[dict[str, str]]:
    """A branch assignment realising contour order ``word`` at given times.

    The first k labels go on the later of the :data:`HORIZONTAL` branches
    (B) and the rest on the earlier (F), trying k from ``len(word) - 1``
    down.  Along the word contour time falls, so on each branch the
    labels' times times the branch's sign must fall: decreasing real
    times on F and increasing ones on B.  Regions admitting no such split
    are not contour-constrained and yield None.  For one or two labels
    the first k always fits, so the placement does not depend on the
    times: F, and (B, F).
    """
    early, late = HORIZONTAL
    for k in range(max(len(word) - 1, 0), -1, -1):
        branches = [late] * k + [early] * (len(word) - k)
        keys = [BRANCHES[b].sign * times[l] for b, l in zip(branches, word)]
        if all(keys[i] > keys[i + 1] for i in range(len(word) - 1) if i != k - 1):
            return dict(zip(word, branches))
    return None


def branch_split_normal_form(eq: ContourEquation, target: SuperIndex) -> Counter:
    """``normal_form(branch_split_oracle(eq, target), eq)``, keys in the
    same order, counted by the split itself (:func:`_count_split`): its
    signed counts, keyed in the normal-form basis as ``(Matsubara-placed
    labels, imaginary integrals, ordering, component factors)``, the
    factors in ``Factor.sort_key`` order; no count is 0."""
    counts = _SignedCounts()
    _count_split(counts, eq, target)
    return counts.normal_form()


def _count_split(counts: _SignedCounts, eq: ContourEquation, target: SuperIndex) -> None:
    """Add the branch split's signed occurrences of its normal-form keys
    to ``counts``.

    The loop of :func:`branch_split_oracle`, whose docstring gives the
    cancellation that leaves out most orderings.  The Matsubara-placed
    labels are built as :func:`normal_form` builds them: the Matsubara
    slots of the components and the imaginary integrals.  So a Matsubara
    external that no function carries is, as there, a real label of the
    orderings, with no branch and in no function's word.  Equal components
    of two functions are one interned ``Factor``, so they share a key.

    A label's contour key in an ordering is ``i`` on a branch of sign +1
    (F) and ``~i = -1 - i`` on one of sign -1 (B), for its position ``i``
    in the ordering (latest first): the backward branch is later than the
    forward one and runs back toward t0, so a function's word is its
    horizontal labels in ascending key order.  An external's branch is
    its placement's (:func:`placement_for_times`), which the ordering
    fixes.  The branch assignments with the same Matsubara internals share
    everything but the branch of each real internal: the functions'
    Matsubara slots and horizontal labels, the orderings, and each
    horizontal label's key column over the orderings on either branch.
    An assignment's sign is the product of its branches' signs.  Each
    function is one column of components over the orderings, which
    depends only on which of its labels are on B and is picked by the
    outcomes of one key comparison per pair of its horizontal labels
    (:class:`_Words`); per assignment, the rows of the columns are
    counted in bulk (:class:`_SignedCounts`).  No contour word, rank or
    sorted label tuple is built per ordering, and an external order's
    placement is found once per word.
    """
    m_ext = target.mats_labels()
    carried = {l for f in eq.product for l in f.args}
    dangling = [l for l in m_ext if l not in carried]
    horizontal = frozenset(eq.external).difference(m_ext)
    # the components of each (function, Matsubara slots), once per call
    words: dict[tuple[int, tuple[str, ...]], _Words] = {}
    # what depends on the Matsubara internals alone, once per call
    by_imag: dict[frozenset, tuple] = {}

    def matsubara(imag: frozenset) -> tuple:
        """``(Matsubara-placed labels, each function's components, real
        internals, real labels, neighbours)`` for the Matsubara internals
        ``imag``: a real internal's neighbours are the other horizontal
        labels of its functions."""
        m_labels = list(m_ext) + [l for l in eq.internal if l in imag]
        real_int = frozenset(eq.internal) - imag
        tables = []
        for j, f in enumerate(eq.product):
            bf = (f, tuple(l for l in m_labels if l in f.args))
            if (j, bf[1]) not in words:
                words[j, bf[1]] = _Words(bf, tuple(sorted(set(f.args).difference(bf[1]))))
            tables.append(words[j, bf[1]])
        neighbours = tuple(
            (u, frozenset().union(*(t.own for t in tables if u in t.own)) - {u})
            for u in sorted(real_int)
        )
        real_labels = tuple(sorted(real_int.union(horizontal, dangling)))
        m_placed = imag.union(*(t.bf[1] for t in tables))
        return m_placed, tables, real_int, real_labels, neighbours

    # the orderings of each (real labels, chains, neighbours), once per call
    extensions: dict[tuple, list[tuple]] = {}
    for sign_t, chains_t, ext_word in expand_retarded(target.real_items()):
        # placement for each real-time order of the word's labels that
        # arises, latest first
        placements: dict[tuple[str, ...], Optional[dict[str, str]]] = {}
        in_word = frozenset(ext_word).__contains__

        def shared_by(imag: frozenset) -> tuple:
            """``(Matsubara-placed labels, each function's components, key
            columns, ordering ids, component columns)`` for the Matsubara
            internals ``imag``, the last filled as the assignments need
            them.  The orderings are those in which every real internal
            has a later neighbour (the others cancel between F and B) and
            the externals have a placement."""
            if imag not in by_imag:
                by_imag[imag] = matsubara(imag)
            m_placed, tables, real_int, real_labels, neighbours = by_imag[imag]
            if (real_labels, chains_t, neighbours) not in extensions:
                extensions[real_labels, chains_t, neighbours] = linear_extensions(
                    real_labels, chains_t, neighbours
                )
            live, places = [], []
            for omega in extensions[real_labels, chains_t, neighbours]:
                order = tuple(filter(in_word, omega))
                if order not in placements:
                    placements[order] = placement_for_times(
                        ext_word, {l: -i for i, l in enumerate(order)}
                    )
                placement = placements[order]
                if placement is not None:
                    live.append(omega)
                    places.append(placement)
            # each horizontal label's key column over the orderings, on F
            # and on B; an external's is the same column twice
            keys = {}
            if live:
                labels = tuple(real_int.union(ext_word))
                positions = zip(*(tuple(map(omega.index, labels)) for omega in live))
                for l, column in zip(labels, positions):
                    if l in real_int:
                        keys[l] = (column, tuple(map(operator.invert, column)))
                    else:
                        ext = tuple(
                            i if BRANCHES[p[l]].sign > 0 else ~i for i, p in zip(column, places)
                        )
                        keys[l] = (ext, ext)
            return m_placed, tables, keys, counts.ids(live), {}

        shared: dict[frozenset, tuple] = {}
        branches = [BRANCHES[b] for b in CONTOURS[eq.contour]]
        for assign in itertools.product(branches, repeat=len(eq.internal)):
            imag = frozenset(l for l, b in zip(eq.internal, assign) if b.vertical)
            if imag not in shared:
                shared[imag] = shared_by(imag)
            m_placed, tables, keys, ids, columns = shared[imag]
            if not ids:
                continue
            on_b = frozenset(l for l, b in zip(eq.internal, assign) if b.sign < 0)
            # a function's column depends only on which of its labels are on B
            factors = []
            for j, table in enumerate(tables):
                pattern = (j, tuple(map(on_b.__contains__, table.own)))
                if pattern not in columns:
                    columns[pattern] = table.column(keys, pattern[1], len(ids))
                factors.append(columns[pattern])
            groups = map(counts.group(m_placed, imag).__getitem__, zip(*factors))
            counts.add(sign_t * math.prod(b.sign for b in assign), groups, ids)


class _Words(dict):
    """The components of one function with its Matsubara slots, keyed by
    the outcomes of ``key[a] < key[b]`` for each pair ``a < b`` of its
    horizontal labels ``own`` (in ``itertools.combinations`` order), where
    ``key`` is their contour keys; each is built on first use."""

    def __init__(self, bf: BFunc, own: tuple[str, ...]):
        super().__init__()
        self.bf, self.own = bf, own
        self.pairs = tuple(itertools.combinations(range(len(own)), 2))

    def __missing__(self, outcomes: tuple[bool, ...]) -> Factor:
        # a label's place in the word is the number of labels before it
        place = [0] * len(self.own)
        for (a, b), before in zip(self.pairs, outcomes):
            place[b if before else a] += 1
        word = tuple(l for _, l in sorted(zip(place, self.own)))
        (self[outcomes],) = component_of_product((self.bf,), word)
        return self[outcomes]

    def column(self, keys: dict, on_b: tuple[bool, ...], n: int) -> tuple[Factor, ...]:
        """The component in each of ``n`` orderings, the labels of ``own``
        on B where ``on_b`` says, from their ``keys`` columns (on F, on
        B)."""
        if len(self.own) < 2:
            return (self[()],) * n
        by_label = [keys[l][b] for l, b in zip(self.own, on_b)]
        return tuple(map(self.__getitem__, zip(*(
            map(operator.lt, by_label[a], by_label[b]) for a, b in self.pairs
        ))))


def branch_split_oracle(eq: ContourEquation, target: SuperIndex) -> RealTimeExpression:
    """Real-time expression for a target, by brute-force branch splitting.

    Every internal is assigned to the forward branch, the backward branch
    (one sign flip each), or the Matsubara branch (extended contour); each
    total ordering of the real labels is treated separately and reduced by
    plain component calculus.  The externals take the placement of
    :func:`placement_for_times` for their order within the total ordering;
    orders with no placement are skipped.  The output is fully expanded and
    cancelled, its terms in the order they first arise, each key's count
    from :func:`branch_split_normal_form` giving that many terms of its
    sign.

    The orderings that cancel are never visited.  This is the largest-time
    equation (Veltman, Physica 29, 186 (1963)) in local form.  Call a real
    label x a neighbour of a real internal u when some function has both
    as horizontal arguments.  Let u be later in real time than each of its
    neighbours, and move u between F and B.  Its contour order relative to
    a neighbour x stays the same:

    * x on F: u is the later of the two on F by real time, and on B
      because B follows F;
    * x on B: x is the later with u on F, because B follows F, and with u
      on B too, because B runs back towards t0 and x is earlier in real
      time.

    The other labels keep their contour order among themselves, and the
    placement of the externals depends on the ordering alone.  A
    function's induced component is the contour order of its horizontal
    arguments, so every one is the same on both branches of u, and only
    the sign (-1 per backward label) flips.  Which u qualify depends only
    on the ordering and on which internals are real, not on the forward
    or backward branch of any label; Matsubara labels are not real
    labels.  For a fixed ordering and Matsubara set, flipping the first
    qualifying u therefore pairs every assignment with one of the same
    key and the opposite sign, and the ordering contributes nothing.  An
    ordering survives exactly when every real internal has a later
    neighbour, and :func:`~contourcalc.combinatorics.linear_extensions`
    builds only those, placing a real internal only once one of its
    neighbours is placed.  An ordering
    whose latest label is internal is one that cancels, and so is every
    ordering of a real internal with no neighbour.  Leaving out an
    ordering leaves out only keys whose count is 0, so the other keys
    keep their order of first arising.
    """
    counts = branch_split_normal_form(eq, target)
    internal = frozenset(eq.internal)
    return RealTimeExpression(tuple(
        RealTimeTerm(1 if coeff > 0 else -1, (omega,), factors, internal - imag, imag)
        for (_, imag, omega, factors), coeff in counts.items()
        for _ in range(abs(coeff))
    ))


def branch_count(eq: ContourEquation) -> int:
    """Integration-domain terms before cancellation: one per branch of the
    contour per internal label, 2**I or 3**I."""
    return len(CONTOURS[eq.contour]) ** len(eq.internal)


# ---------------------------------------------------------------------------
# discrete contour and component tables


# the real span of a grid where none is given, as in verify
GRID_T0 = 0.0
GRID_T_MAX = 2.0


class DiscreteContour:
    """Discretisation of the branches of :data:`BRANCHES`.

    The real axis from ``t0`` to ``t_max`` is cut into ``n_fwd`` cells of
    width dt.  Each internal label has its own node in every cell
    (:meth:`label_nodes`), shifted from the cell's start by a fraction of
    dt that the label's name fixes, so two labels never share a node.
    Every horizontal branch carries a label's nodes, with its ``sign`` as
    the integration sign, so F and B carry them with opposite signs.  The
    vertical branch has unit imaginary extent and as many nodes
    (``n_mats``), shared by all labels, since imaginary times are never
    compared.  ``real_nodes`` are the cells shifted by an irrational
    fraction; no label sits on them, but external times stay off them as
    off every label's nodes.
    """

    def __init__(self, t0: float = GRID_T0, t_max: float = GRID_T_MAX, n_fwd: int = 24):
        if n_fwd < 2:
            raise ValueError("the grid size must be at least 2")
        if not (0.0 <= t0 < t_max):
            raise ValueError("need 0 <= t0 < t_max to keep branch keys disjoint")
        self.t0 = t0
        self.t_max = t_max
        self.n_fwd = n_fwd
        self.n_mats = n_mats = n_fwd
        self.dt = dt = (t_max - t0) / n_fwd
        shift = math.sqrt(2.0) - 1.0  # irrational, in (0, 1)
        self.real_nodes = t0 + (np.arange(n_fwd) + shift) * dt
        self.real_weights = np.full(n_fwd, dt)
        dm = 1.0 / n_mats
        mshift = math.sqrt(3.0) - 1.0
        self.mats_nodes = (np.arange(n_mats) + mshift) * dm
        self.mats_weights = np.full(n_mats, dm)
        self._label_nodes: dict[str, np.ndarray] = {}

    def label_nodes(self, label: str) -> np.ndarray:
        """The real nodes of ``label``: t0 + (k + s) dt for each cell k,
        with s in (0, 1) the top 52 bits of a digest of the name, so it does
        not depend on the string-hash salt and two names share it with
        probability about 2**-52; read-only, computed once per grid and
        label."""
        nodes = self._label_nodes.get(label)
        if nodes is None:
            shift = ((_stable_seed("node shift", label) >> 12) + 0.5) / 2**52
            nodes = self.t0 + (np.arange(self.n_fwd) + shift) * self.dt
            nodes.flags.writeable = False
            nodes = self._label_nodes.setdefault(label, nodes)
        return nodes

    def node_gap(self, times, labels: tuple[str, ...]) -> float:
        """The least distance from any of ``times`` to ``real_nodes`` or to
        a node of one of ``labels`` (inf for no times); the nodes are
        gathered on each call."""
        nodes = np.concatenate([self.real_nodes, *map(self.label_nodes, labels)])[:, None]
        return float(np.min(np.abs(nodes - np.asarray(times)), initial=np.inf))

    def contour_key(self, branch: str, t):
        """Strictly increasing with contour time, ``offset * t_max + sign *
        t`` on the branch of that name in :data:`BRANCHES`, which refuses
        any other name; branches never collide."""
        b = BRANCHES[branch]
        return b.offset * self.t_max + b.sign * np.asarray(t, dtype=float)

    def check_external(self, times, labels: tuple[str, ...] = ()):
        """Raise :class:`GridTieError` where one of the external ``times``
        lies on ``real_nodes`` or on a node of one of ``labels``."""
        if self.node_gap(times, labels) < 1e-11:
            raise GridTieError(f"external times {times} coincide with a grid node")


def _stable_seed(*parts) -> int:
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class ComponentTable:
    """Random smooth complex components for every sub-function of an equation.

    Each (function, Matsubara subset, horizontal ordering) triple gets an
    independent trigonometric polynomial; Matsubara arguments enter only
    through symmetric combinations, making those components invariant under
    reordering of the Matsubara labels.
    """

    def __init__(self, eq: ContourEquation, seed: int):
        self.eq = eq
        self.seed = seed
        # a repeated name is one function: its components are shared.  The
        # parser refuses a name at two arities; a hand-built equation that
        # is not validated is refused here
        self.funcs: dict[str, SubFunction] = {}
        for f in eq.product:
            other = self.funcs.setdefault(f.name, f)
            if len(other.args) != len(f.args):
                raise UnknownComponent(
                    f"sub-function {f.name} is used with {len(other.args)} and "
                    f"{len(f.args)} arguments ({other} and {f})"
                )
        # each component's coefficients, drawn on first use from its own
        # seeded stream, so they do not depend on the order of use
        self._coeff_table: dict = {}

    def _coeffs(self, fname: str, mset: frozenset, korder: tuple) -> tuple:
        """The coefficients of one component, as ``(c, x)``: the complex
        amplitude of each term, and an array over (term, argument) holding
        each argument's frequency, then each argument's phase, then the two
        frequencies and the phase of the Matsubara combination."""
        cf = self._coeff_table.get((fname, mset, korder))
        if cf is not None:
            return cf
        if fname not in self.funcs:
            raise UnknownComponent(f"no sub-function named {fname}")
        positions = range(1, len(self.funcs[fname].args) + 1)
        if not mset <= set(positions) or sorted(korder) != [
            p for p in positions if p not in mset
        ]:
            raise UnknownComponent(
                f"no component {fname} with vertical slots {sorted(mset)} and order {korder}"
            )
        rng = np.random.default_rng(
            _stable_seed(self.seed, fname, tuple(sorted(mset)), korder)
        )
        n_terms = 2
        c = rng.uniform(-1, 1, n_terms) + 1j * rng.uniform(-1, 1, n_terms)
        w = rng.uniform(0.5, 2.0, (n_terms, len(positions)))
        p = rng.uniform(0, 2 * np.pi, (n_terms, len(positions)))
        wm = rng.uniform(0.5, 2.0, (n_terms, 2))
        pm = rng.uniform(0, 2 * np.pi, (n_terms, 1))
        return self._coeff_table.setdefault(
            (fname, mset, korder), (c, np.concatenate([w, p, wm, pm], axis=1))
        )

    def component(self, fname: str, mset: frozenset, korder: tuple, times: list):
        """Evaluate one component at one point; ``times`` follow the
        function's own argument order (imaginary depths at Matsubara
        positions)."""
        return _components((self,), fname, mset, korder, [np.reshape(t, 1) for t in times])[0]


def _components(
    tables: Sequence[ComponentTable], fname: str, mset: frozenset, korder: tuple, times: list
) -> np.ndarray:
    """One component of each sample's table, as an array over (sample,
    axes): ``tables`` holds one table per sample, and ``times`` one array
    per argument of the function, in its argument order (imaginary depths
    at Matsubara positions), each over (sample, axes), of size 1 along an
    axis it does not vary on.  The tables' coefficients are stacked over
    the samples, so every sample and term is one broadcast."""
    c, x = zip(*(t._coeffs(fname, mset, korder) for t in tables))
    # (sample, term), then a unit axis per axis of the times
    unit = (len(tables), -1) + (1,) * (np.ndim(times[0]) - 1)
    x = np.array(x)
    n = len(times)
    times = [t[:, None] for t in times]
    value = np.array(c).reshape(unit)
    for i, t in enumerate(times):
        if (i + 1) not in mset:
            value = value * np.cos(x[:, :, i].reshape(unit) * t + x[:, :, n + i].reshape(unit))
    if mset:
        s1 = sum(times[i - 1] for i in mset)
        s2 = sum(times[i - 1] * times[i - 1] for i in mset)
        wm1, wm2, pm = (x[:, :, 2 * n + j].reshape(unit) for j in range(3))
        value = value * np.cos(wm1 * s1 + wm2 * s2 + pm)
    return value.sum(axis=1)


@functools.lru_cache(maxsize=64)
def _component_table(eq: ContourEquation, seed: int) -> ComponentTable:
    """The table of ``(eq, seed)``, built once per process while it stays
    among the 64 most recently used; a component's values do not depend
    on when it is first used."""
    return ComponentTable(eq, seed)


# ---------------------------------------------------------------------------
# numeric evaluation


# the node set of an internal argument on the vertical branch, in the keys
# of the value table; on a real branch it is the label's name
MATS_NODES = "vertical nodes"


class _BatchValues:
    """The component values of the batches on one tuple of component
    tables and one grid, sample ``i`` of every batch on ``tables[i]``;
    called with a key, the value of the batch read last (:meth:`read`).

    A value is keyed by ``(function name, mset, korder, args)``; each entry
    of ``args`` is an external label of the equation, whose time in each
    sample ``times`` holds, or the node set of an internal argument: its
    label's real nodes, named by the label, or :data:`MATS_NODES`.  The
    value is an array over the samples and a sparse mesh over the
    function's own node arguments, in argument order, so every caller
    whose labels sit on those node sets shares it.  A value with no
    external argument depends only on the tables, the grid and its key,
    and is held in ``shared`` for every batch.  One with an external
    argument depends on the samples' times too: it is held in ``values``
    until another batch is read."""

    def __init__(self, tables: tuple[ComponentTable, ...], grid: DiscreteContour):
        self.tables = tables
        self.grid = grid
        self.external = frozenset(tables[0].eq.external)
        self.shared: dict[tuple, np.ndarray] = {}
        # the batch read last, as each sample's external times in sorted
        # items, its times over the samples and its values with an
        # external argument
        self.samples: Optional[tuple] = None
        self.times: dict[str, np.ndarray] = {}
        self.values: dict[tuple, np.ndarray] = {}

    def read(self, samples: Sequence[dict[str, float]]) -> _BatchValues:
        """The table, reading the batch of ``samples``, each sample's
        external times."""
        key = tuple(tuple(sorted(t.items())) for t in samples)
        if key != self.samples:
            self.samples, self.values = key, {}
            self.times = {l: np.array([t[l] for t in samples]) for l in samples[0]}
        return self

    def __call__(self, fname: str, mset: frozenset, korder: tuple, args: tuple) -> np.ndarray:
        key = (fname, mset, korder, args)
        value = self.shared.get(key)
        if value is None:
            value = self.values.get(key)
        if value is None:
            nodes = tuple(a for a in args if a not in self.external)
            axes = iter(_sparse_mesh(self.grid, nodes))
            times = _on_axes(self.times, len(nodes))
            value = _components(self.tables, fname, mset, korder, [
                times[a] if a in self.external else next(axes) for a in args
            ])
            (self.shared if len(nodes) == len(args) else self.values)[key] = value
        return value


def _on_axes(times: dict[str, np.ndarray], n_axes: int) -> dict[str, np.ndarray]:
    """``times`` (arrays over the samples) on the sample axis followed by
    ``n_axes`` unit axes, which broadcasts against a mesh of that many
    axes from :func:`_sparse_mesh`."""
    shape = (-1,) + (1,) * n_axes
    return {l: t.reshape(shape) for l, t in times.items()}


@functools.lru_cache(maxsize=64)
def _sparse_mesh(grid: DiscreteContour, node_sets: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """The sparse mesh over ``node_sets`` (a label's name for its real
    nodes, or :data:`MATS_NODES`) of ``grid``, after a unit sample axis;
    read-only, since both sides of every batch on one grid share it."""
    axes = np.meshgrid(
        *(grid.mats_nodes if n == MATS_NODES else grid.label_nodes(n) for n in node_sets),
        indexing="ij",
        sparse=True,
    )
    axes = tuple(axis[None] for axis in axes)
    for axis in axes:
        axis.flags.writeable = False
    return axes


@functools.lru_cache(maxsize=1)
def _batch_values(tables: tuple[ComponentTable, ...], grid: DiscreteContour) -> _BatchValues:
    """The value table of ``tables`` on ``grid``.  One entry: the batches
    on one tables tuple and grid, such as the order classes of a verdict,
    share its values with no external argument, and a batch on other
    tables or another grid replaces it; :func:`verify` empties it when it
    returns."""
    return _BatchValues(tables, grid)


def _batch(
    tables: Sequence[ComponentTable],
    grid: DiscreteContour,
    samples: Sequence[dict[str, float]],
    ordered: Sequence[str],
) -> _BatchValues:
    """The value table (:func:`_batch_values`) reading a batch whose
    samples all order the labels ``ordered`` alike; any other batch, and
    an empty one, is refused."""
    if len(tables) != len(samples):
        raise ValueError(f"{len(tables)} tables for {len(samples)} samples")
    classes = {
        tuple(t[x] > t[y] for x, y in itertools.permutations(ordered, 2)) for t in samples
    }
    if len(classes) != 1:
        raise ValueError(
            f"a batch takes samples of one order class of {', '.join(ordered) or 'no labels'}, "
            f"not {len(classes)}"
        )
    return _batch_values(tuple(tables), grid).read(samples)


def _steps(mask, pairs, keys):
    """``mask`` times the step comparison ``keys[x] > keys[y]`` of each
    pair ``(x, y)`` of ``pairs``."""
    for x, y in pairs:
        mask = mask * (keys[x] > keys[y])
    return mask


def _ordered_sum(
    values: _BatchValues,
    func: SubFunction,
    mset: frozenset,
    orders: Iterable[tuple[object, tuple, tuple[int, ...]]],
    args: tuple,
    perm: Optional[tuple[int, ...]],
    keys: dict[str, object],
):
    """Sum of mask * theta(pairs) * component(korder) over the ``(mask,
    pairs, korder)`` entries of ``orders``, on the caller's mesh.  ``mask``
    is the part of an entry its caller has already built (a sign, or the
    step comparisons it planned), and each of ``pairs`` holds where its
    ``keys`` decrease (:func:`_steps`).  ``args`` is the key entry of each
    argument of ``func`` (see :class:`_BatchValues`); each value is put
    onto the mesh by the transpose ``perm`` of its axes (None: as it is)."""
    total = 0
    for mask, pairs, korder in orders:
        value = values(func.name, mset, korder, args)
        if perm is not None:
            value = value.transpose(perm)
        total = total + _steps(mask, pairs, keys) * value
    return total


def _contour_orders(kinds: tuple[str, ...]) -> tuple[tuple[int, ...], ...]:
    """The contour orders, latest first, of the horizontal positions (from
    1) of a function whose arguments sit on the branches ``kinds``: every
    position on a later branch (by ``offset``) before every one on an
    earlier branch, as the product of each branch's own permutations, the
    latest branch's first.  The contour side sums over the orders in this
    sequence, the one in which ``itertools.permutations`` of the
    positions lists them."""
    horizontal = {k for k in kinds if not BRANCHES[k].vertical}
    later_first = sorted(horizontal, key=lambda k: -BRANCHES[k].offset)
    own = [[i + 1 for i, k in enumerate(kinds) if k == b] for b in later_first]
    return tuple(sum(perms, ()) for perms in itertools.product(*map(itertools.permutations, own)))


def _branch_weights(
    eq: ContourEquation, grid: DiscreteContour, truncate_at: Optional[float]
) -> dict[str, np.ndarray]:
    """The weight ``w[branch, node]`` of each internal label, one row per
    branch of the contour in contour order: the branch's sign times dt on
    a horizontal branch (+dt on F, -dt on B) and -i*dm on the vertical
    one, zero on the label's real nodes past ``truncate_at``."""
    branches = [BRANCHES[b] for b in CONTOURS[eq.contour]]
    weights = {}
    for label in eq.internal:
        real = grid.real_weights.astype(complex)
        if truncate_at is not None:
            real[grid.label_nodes(label) > truncate_at] = 0
        rows = [-1j * grid.mats_weights if b.vertical else b.sign * real for b in branches]
        weights[label] = np.array(rows)
    return weights


class _Block(NamedTuple):
    """One block of a function's contour-side tensor: one branch per
    internal argument.

    ``slot`` indexes the block in the tensor; ``kinds`` is the branch of
    each argument of the function and ``mset`` its vertical positions;
    ``args`` is the key entry (:class:`_BatchValues`) of each argument;
    ``keys`` holds the contour keys of the internal labels on the block's
    sparse mesh.  ``orders`` lists the contour orders that can hold on the
    block, as :func:`_ordered_sum` entries: the product of the order's
    steps between two internal labels as the mask, and the steps that
    involve an external label, compared per sample, as the pairs."""

    slot: tuple
    kinds: tuple[str, ...]
    mset: frozenset
    args: tuple[str, ...]
    keys: dict[str, np.ndarray]
    orders: tuple[tuple[object, tuple[tuple[str, str], ...], tuple[int, ...]], ...]


def _plan_function(
    eq: ContourEquation, grid: DiscreteContour, j: int, ext_kinds: tuple[str, ...]
) -> tuple[Optional[tuple[int, ...]], tuple[_Block, ...]]:
    """The blocks of function ``j`` whose external arguments sit on
    ``ext_kinds``, one per branch pattern of its internal labels, and the
    transpose that puts a value from the function's argument order onto
    the sample axis and those labels in ``eq.internal`` order (None where
    it is the same), as ``(perm, blocks)``.  An order whose steps between
    internal labels hold at no point of a block is left out of it."""
    f = eq.product[j]
    branches = CONTOURS[eq.contour]
    labels = tuple(l for l in eq.internal if l in f.args)
    own = [a for a in f.args if a in labels]
    perm = (0,) + tuple(own.index(l) + 1 for l in labels)
    external = dict(zip((a for a in f.args if a not in labels), ext_kinds))
    blocks = []
    for pattern in itertools.product(range(len(branches)), repeat=len(labels)):
        kind = dict(external)
        kind.update((l, branches[b]) for l, b in zip(labels, pattern))
        vertical = {a for a in f.args if BRANCHES[kind[a]].vertical}
        axes = _sparse_mesh(grid, tuple(MATS_NODES if l in vertical else l for l in labels))
        keys = {l: grid.contour_key(kind[l], t) for l, t in zip(labels, axes)}
        fkinds = tuple(kind[a] for a in f.args)
        # orders with the same steps between internal labels share a mask
        masks: dict[tuple, object] = {}
        orders = []
        for korder in _contour_orders(fkinds):
            chain = [f.args[i - 1] for i in korder]
            pairs = list(zip(chain, chain[1:]))
            static = tuple(p for p in pairs if p[0] in keys and p[1] in keys)
            if static not in masks:
                masks[static] = _steps(True, static, keys)
            if np.any(masks[static]):
                dynamic = tuple(p for p in pairs if p not in static)
                orders.append((masks[static], dynamic, korder))
        blocks.append(_Block(
            (slice(None),) + tuple(x for b in pattern for x in (b, slice(None))),
            fkinds,
            frozenset(i + 1 for i, a in enumerate(f.args) if a in vertical),
            tuple(MATS_NODES if a in vertical and a in labels else a for a in f.args),
            keys,
            tuple(orders),
        ))
    return (None if perm == tuple(range(len(perm))) else perm), tuple(blocks)


class _ContourPlan:
    """What the contour side of an equation on a grid does not take from
    the external times: each function's internal labels and external
    arguments, the labels no function carries, the ``(branch, node)``
    shape of one label's axes, the pairwise steps (:func:`_path_steps`)
    of one greedy path that contracts the operands of
    :func:`_contour_operands` to one number per sample and, on first use,
    the plan (:func:`_plan_function`) of each (function position, branches
    of its external arguments)."""

    def __init__(self, eq: ContourEquation, grid: DiscreteContour):
        self.eq = eq
        self.grid = grid
        self.labels = [tuple(l for l in eq.internal if l in f.args) for f in eq.product]
        self.externals = [tuple(a for a in f.args if a not in eq.internal) for f in eq.product]
        carried = set().union(*self.labels)
        # a label no function carries integrates its weight alone
        self.lone = tuple(l for l in eq.internal if l not in carried)
        self.shape = (len(CONTOURS[eq.contour]), grid.n_fwd)
        # each label has a branch letter and a node letter; every operand
        # has the sample axis first, of size 1 where it does not vary
        axes = {l: chr(ord("b") + i) + chr(ord("B") + i) for i, l in enumerate(eq.internal)}
        labelsets = self.labels + [(l,) for l in self.lone]
        self.steps = _greedy_steps(
            [SAMPLE_AXIS + "".join(axes[l] for l in labels) for labels in labelsets],
            [(1,) + self.shape * len(labels) for labels in labelsets],
        )
        self.functions: dict[tuple[int, tuple[str, ...]], tuple] = {}

    def function(self, j: int, ext_kinds: tuple[str, ...]):
        if (j, ext_kinds) not in self.functions:
            self.functions[j, ext_kinds] = _plan_function(self.eq, self.grid, j, ext_kinds)
        return self.functions[j, ext_kinds]


@functools.lru_cache(maxsize=64)
def _contour_plan(eq: ContourEquation, t0: float, t_max: float, n_fwd: int) -> _ContourPlan:
    """The contour plan of ``eq`` on the grid ``(t0, t_max, n_fwd)``, built
    once per process while it stays among the 64 most recently used."""
    return _ContourPlan(eq, _shared_grid(t0, t_max, n_fwd))


@functools.lru_cache(maxsize=16)
def _shared_grid(t0: float, t_max: float, n_fwd: int) -> DiscreteContour:
    """The grid ``(t0, t_max, n_fwd)`` that :func:`verify` and the contour
    plans share, so its label nodes and its sparse meshes are built once;
    kept while it stays among the 16 most recently used."""
    return DiscreteContour(t0, t_max, n_fwd)


def _contour_operands(
    plan: _ContourPlan,
    values: _BatchValues,
    kinds: dict[str, str],
    weights: dict[str, np.ndarray],
    filled: dict,
) -> list[np.ndarray]:
    """One tensor per function, over the sample axis and a (branch, node)
    axis pair per internal argument, in ``eq.internal`` order, then the
    weight of each label no function carries: the operands of
    ``plan.steps``.

    Each block of a tensor (:class:`_Block`) is the masked sum over its
    planned contour orders, whose steps that involve an external label are
    compared here on the external contour keys, written straight into its
    slot.  Each label's weight is folded into the first tensor that carries
    it.  A tensor depends on the word only through the branches of the
    function's external arguments, so ``filled`` keeps each one under
    (position in the product, those branches) for the other words of the
    call."""
    eq, grid = plan.eq, plan.grid
    keys = {l: grid.contour_key(kinds[l], values.times[l]) for l in eq.external}
    weighted: set[str] = set()
    operands = []
    for j, (f, labels) in enumerate(zip(eq.product, plan.labels)):
        key = (j, tuple(kinds[a] for a in plan.externals[j]))
        if key not in filled:
            perm, blocks = plan.function(*key)
            tensor = np.empty((len(values.tables),) + plan.shape * len(labels), dtype=complex)
            external = _on_axes(keys, len(labels))
            for block in blocks:
                tensor[block.slot] = _ordered_sum(
                    values, f, block.mset, block.orders, block.args, perm, external | block.keys
                )
            for i, l in enumerate(labels):
                if l not in weighted:
                    shape = [1] * tensor.ndim
                    shape[1 + 2 * i: 3 + 2 * i] = plan.shape
                    tensor *= weights[l].reshape(shape)
            filled[key] = tensor
        weighted.update(labels)
        operands.append(filled[key])
    operands.extend(weights[l][None] for l in plan.lone)
    return operands


# the letter of the sample axis in every contraction, which keeps it
SAMPLE_AXIS = "a"


def _greedy_steps(
    subscripts: Sequence[str], shapes: Sequence[tuple[int, ...]], grow: int = 1
) -> tuple:
    """The pairwise steps (:func:`_path_steps`) of a greedy path that
    contracts operands of ``shapes`` with ``subscripts`` to their sample
    axis.

    No intermediate is larger than the largest operand times ``grow``; a
    path that needs a larger one finishes in one step over the operands
    left."""
    limit = max(math.prod(s) for s in shapes) * grow
    path = np.einsum_path(
        ",".join(subscripts) + "->" + SAMPLE_AXIS,
        *(np.broadcast_to(0.0, s) for s in shapes),
        optimize=("greedy", limit),
    )[0]
    return _path_steps(subscripts, path[1:])


def _path_steps(subscripts: Sequence[str], path) -> tuple:
    """The steps along a contraction path, each lowered to one product
    (:class:`_Step`): a step takes the operands at its ``positions`` and
    appends its result to the operands left, and every result keeps the
    sample axis.  A group of more than two operands in ``path`` is taken
    two at a time, in its order."""
    held = list(subscripts)
    names = list(range(len(held)))
    fresh = itertools.count(len(held))
    steps = []
    for group in path:
        current, *others = (names[i] for i in group)
        for other in others or [None]:
            positions = tuple(names.index(n) for n in (current, other) if n is not None)
            rest = set("".join(h for i, h in enumerate(held) if i not in positions) + SAMPLE_AXIS)
            step = _lower(positions, [held[i] for i in positions], rest)
            for i in sorted(positions, reverse=True):
                del held[i], names[i]
            current = next(fresh)
            held.append(step.letters)
            names.append(current)
            steps.append(step)
    return tuple(steps)


class _Step(NamedTuple):
    """One step of a contraction path, lowered once, when the path is
    planned, to a transpose, a reshape, one product and a reshape.

    Each operand first sums the letters that it alone carries and no later
    operand needs (``sums``, as axis positions).  A transpose (``perms``,
    None where it would change nothing) then puts the letters of the left
    operand in the order (batch, left free, contracted) and those of the
    right one in the order (batch, contracted, right free): batch letters
    are carried by both and kept (the sample and term axes among them),
    contracted ones are carried by both and dropped, and free ones are
    carried by one.  Each operand is reshaped to a stack of matrices over
    its own batch axes, so a unit batch axis broadcasts against a full
    one, and ``product`` multiplies the stacks; reshaped, its result is
    the step's, over ``letters`` (batch, left free, right free), so no
    result is transposed.  ``product`` is ``np.matmul`` where a letter is
    contracted or both operands keep free letters; otherwise it is
    ``np.multiply`` on the (batch, left, 1) and (batch, 1, right) stacks,
    where a matrix product would make one call per batch element on
    matrices of one row or column.  ``copies`` holds the letters of each
    array that the step makes before its product: the result of a sum, and
    the copy that reshaping a transposed operand makes.  ``shapes`` keeps
    the shapes of the two stacks and of the result for each pair of
    operand shapes met, since the sample and term axes change from call
    to call.  A step of one operand only sums."""

    positions: tuple[int, ...]
    sums: tuple[tuple[int, ...], ...]
    perms: tuple[Optional[tuple[int, ...]], ...]
    batch: int
    left: int
    contracted: int
    product: Optional[np.ufunc]
    letters: str
    copies: tuple[str, ...]
    shapes: dict

    def __call__(self, x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
        if y is None:
            return x.sum(self.sums[0]) if self.sums[0] else x
        (x_sum, y_sum), (x_perm, y_perm) = self.sums, self.perms
        if x_sum:
            x = x.sum(x_sum)
        if y_sum:
            y = y.sum(y_sum)
        if x_perm:
            x = x.transpose(x_perm)
        if y_perm:
            y = y.transpose(y_perm)
        key = x.shape, y.shape
        shapes = self.shapes.get(key)
        if shapes is None:
            shapes = self.shapes[key] = self._stacks(*key)
        x_stack, y_stack, result = shapes
        return self.product(x.reshape(x_stack), y.reshape(y_stack)).reshape(result)

    def _stacks(self, xs: tuple[int, ...], ys: tuple[int, ...]) -> tuple:
        """The shapes of the two stacks of matrices and of the result, for
        operands of shapes ``xs`` and ``ys`` after their sums and
        transposes."""
        b, l, c = self.batch, self.left, self.contracted
        batch = np.broadcast_shapes(xs[:b], ys[:b])
        return (
            xs[:b] + (math.prod(xs[b:b + l]), math.prod(xs[b + l:])),
            ys[:b] + (math.prod(ys[b:b + c]), math.prod(ys[b + c:])),
            batch + xs[b:b + l] + ys[b + c:],
        )


def _lower(positions: tuple[int, ...], picked: list[str], rest: set[str]) -> _Step:
    """The :class:`_Step` that contracts operands with the letters
    ``picked`` at ``positions``, keeping the letters in ``rest``."""
    if len(picked) == 1:
        (x,) = picked
        sums = tuple(i for i, l in enumerate(x) if l not in rest)
        letters = "".join(l for l in x if l in rest)
        return _Step(
            positions, (sums,), (None,), 0, 0, 0, None, letters, (letters,) * bool(sums), {}
        )
    x, y = picked
    # the letters each operand holds after its sum
    held = ["".join(l for l in a if l in rest or l in b) for a, b in ((x, y), (y, x))]
    batch = [l for l in held[0] if l in held[1] and l in rest]
    contracted = [l for l in held[0] if l in held[1] and l not in rest]
    left = [l for l in held[0] if l not in held[1]]
    right = [l for l in held[1] if l not in held[0]]
    sums, perms, copies = [], [], []
    orders = (batch + left + contracted, batch + contracted + right)
    for letters, h, order in zip(picked, held, orders):
        sums.append(tuple(i for i, l in enumerate(letters) if l not in h))
        perm = tuple(h.index(l) for l in order)
        perms.append(None if perm == tuple(range(len(perm))) else perm)
        copies.extend([h] * (bool(sums[-1]) + (perms[-1] is not None)))
    product = np.matmul if contracted or (left and right) else np.multiply
    # the result's letters are in the order its product makes them, so the
    # letter order of each operand decides only which transposes copy;
    # results kept in the order their operands held them (a transposed
    # view of each) ran the ladder's and the vertex's numeric sides no
    # faster
    return _Step(
        positions, tuple(sums), tuple(perms), len(batch), len(left), len(contracted),
        product, "".join(batch + left + right), tuple(copies), {},
    )


def _contract(operands: list, steps) -> np.ndarray:
    """Runs the ``steps`` of :func:`_path_steps` on ``operands``; the
    result is an array over the samples."""
    operands = list(operands)
    for step in steps:
        picked = [operands[i] for i in step.positions]
        for i in sorted(step.positions, reverse=True):
            del operands[i]
        operands.append(step(*picked))
    (result,) = operands
    return result


def _placed_words(target: SuperIndex, times: dict[str, float]) -> list:
    """The external words of ``target`` whose step chains hold at ``times``,
    as ``(sign, word, placement)``; the placement is the one of
    :func:`placement_for_times`, None where the word has none."""
    out = []
    for sign, chains, word in expand_retarded(target.real_items()):
        if all(times[x] > times[y] for c in chains for x, y in zip(c, c[1:])):
            out.append((sign, word, placement_for_times(word, times)))
    return out


def evaluate_contour_side(
    eq: ContourEquation,
    target: SuperIndex,
    tables: ComponentTable,
    grid: DiscreteContour,
    external_times: dict[str, float],
    branch_override: Optional[dict[str, str]] = None,
    truncate_at: Optional[float] = None,
    with_scale: bool = False,
):
    """Discrete contour integral of the product, for one target placement.

    Retarded-composition targets are expanded into their step-weighted component
    combination first, each component evaluated with the external branch
    placement :func:`placement_for_times` gives at these times.  Returns a
    complex value (and an absolute-magnitude scale when requested): the
    one-sample batch of :func:`evaluate_contour_batch`.
    """
    result = evaluate_contour_batch(
        eq, target, (tables,), grid, (external_times,), branch_override, truncate_at, with_scale
    )
    if with_scale:
        return result[0][0], result[1][0]
    return result[0]


def evaluate_contour_batch(
    eq: ContourEquation,
    target: SuperIndex,
    tables: Sequence[ComponentTable],
    grid: DiscreteContour,
    samples: Sequence[dict[str, float]],
    branch_override: Optional[dict[str, str]] = None,
    truncate_at: Optional[float] = None,
    with_scale: bool = False,
):
    """:func:`evaluate_contour_side` of a batch of samples, ``tables`` and
    ``samples`` holding each sample's component table and external times,
    as an array over the samples (and one of the scales when requested).

    The samples must be of one order class of the horizontal externals;
    any other batch is refused, and so is a ``branch_override`` that names
    no :data:`HORIZONTAL` branch, or a label that is no horizontal
    external of the target.  The values come from the value table
    (:func:`_batch`).  The samples share their live external words and
    placements, and so the planned blocks and the contraction, which
    carry the sample axis."""
    m_ext = target.mats_labels()
    horizontal = [l for l in eq.external if l not in m_ext]
    if branch_override and not set(branch_override.values()) <= set(HORIZONTAL):
        raise ValueError(f"branch override {branch_override} names no horizontal branch")
    if branch_override and not set(branch_override) <= set(horizontal):
        raise ValueError(f"branch override {branch_override} names no horizontal external")
    values = _batch(tables, grid, samples, horizontal)
    grid.check_external([t[l] for t in samples for l in horizontal], eq.internal)
    plan = _contour_plan(eq, grid.t0, grid.t_max, grid.n_fwd)
    weights = _branch_weights(eq, grid, truncate_at)
    filled: dict = {}
    total = np.zeros(len(samples), dtype=complex)
    scale = np.zeros(len(samples))
    for sign_t, word, placement in _placed_words(target, samples[0]):
        if placement is None:
            raise GridTieError(
                f"contour order {word} is not realisable at these external times"
            )
        if branch_override:
            placement.update(branch_override)
        kinds = dict.fromkeys(m_ext, VERTICAL)
        kinds.update(placement)
        operands = _contour_operands(plan, values, kinds, weights, filled)
        total += sign_t * _contract(operands, plan.steps)
        if with_scale:
            scale += _contract([np.abs(t) for t in operands], plan.steps).real
    if with_scale:
        return total, scale
    return total


def evaluate_realtime_side(
    expr: RealTimeExpression,
    eq: ContourEquation,
    tables: ComponentTable,
    grid: DiscreteContour,
    external_times: dict[str, float],
):
    """Evaluate a compiled rule on the same grid and weights as the contour
    side; a real integral runs over its label's real nodes, an imaginary
    one over the vertical nodes with the implicit -i per integral: the
    one-sample batch of :func:`evaluate_realtime_batch`."""
    return evaluate_realtime_batch(expr, eq, (tables,), grid, (external_times,))[0]


def evaluate_realtime_batch(
    expr: RealTimeExpression,
    eq: ContourEquation,
    tables: Sequence[ComponentTable],
    grid: DiscreteContour,
    samples: Sequence[dict[str, float]],
) -> np.ndarray:
    """:func:`evaluate_realtime_side` of a batch of samples, ``tables`` and
    ``samples`` holding each sample's component table and external times,
    as an array over the samples.

    The samples must order alike the external labels that the rule
    compares with each other; any other batch is refused.  The rule's
    plan is cached by the rule (:func:`_plan_rule`), and each of its
    pieces is computed once per call, on the sample axis and its own
    labels' axes, of size 1 along the sample axis where it does not
    vary.  The terms of one layout are summed by one contraction whose
    operands are the phases and the pieces of each slot
    (:class:`_Layout`), in runs of terms (:func:`_run_steps`).  The
    values come from the value table (:func:`_batch`)."""
    pieces, layouts, compared = _plan_rule(expr)
    values = _batch(tables, grid, samples, compared)
    arrays: dict[int, np.ndarray] = {}
    nodes_max = max(grid.n_fwd, grid.n_mats)
    total = np.zeros(len(samples), dtype=complex)
    for layout in layouts:
        for i in layout.first:
            arrays[i] = _piece_value(pieces[i], values, grid)
        # each column's distinct pieces on one shape, after a unit term
        # axis: a piece that does not vary over the samples is broadcast
        # along their axis
        columns = [
            np.broadcast_arrays(*(arrays[i][None] for i in ids)) for ids, _ in layout.columns
        ]
        for i in layout.last:
            del arrays[i]
        # each column's shape in one term, the sample axis first
        shapes = tuple(column[0].shape[1:] for column in columns)
        weight = grid.real_weights[0] ** len(layout.reals) * grid.mats_weights[0] ** len(
            layout.imags
        )
        if shapes not in layout.paths:
            layout.paths[shapes] = _run_steps(layout, shapes, nodes_max)
        steps, per_term = layout.paths[shapes]
        run_length = max(1, CONTRACTION_ELEMENTS // per_term)
        for start in range(0, len(layout.phases), run_length):
            run = slice(start, start + run_length)
            # a stacked column is gathered one run at a time, and only the
            # contraction holds it, which frees it once it is used
            total += weight * _contract([layout.phases[run]] + [
                column[0][0] if index is None
                else np.concatenate([column[i] for i in index[run]])
                for column, (_, index) in zip(columns, layout.columns)
            ], steps)
    return total


def _piece_value(piece: _Piece, values: _BatchValues, grid: DiscreteContour) -> np.ndarray:
    """The value of ``piece`` for the batch of ``values``: an array over
    the sample axis, of size 1 where it does not vary, and its labels'
    node axes."""
    mesh = _sparse_mesh(grid, piece.kinds)
    times: dict[str, object] = _on_axes(values.times, len(mesh))
    times.update(zip(piece.labels, mesh))
    if piece.func is None:
        return _steps(np.ones((1,) + tuple(axis.size for axis in mesh)), piece.pairs, times)
    args = tuple(
        piece.kinds[piece.labels.index(a)] if a in piece.labels else a for a in piece.func.args
    )
    # a piece's labels follow its function's arguments: no transpose
    return _ordered_sum(values, piece.func, piece.mset, piece.orders, args, None, times)


def _run_steps(layout, shapes: tuple[tuple[int, ...], ...], grow: int) -> tuple:
    """The contraction steps for the runs of terms of ``layout``, whose
    slots have operands of ``shapes`` in one term, and the elements per
    term that the arrays holding the term axis reach together along the
    path, as ``(steps, per_term)``: at each step, the operands not yet
    used, those it uses, the copies it makes (:class:`_Step`) and its
    result.  A run of
    CONTRACTION_ELEMENTS // per_term terms holds no more than that bound
    at once.  ``per_term`` counts the sample axis, so where one term of
    the whole batch exceeds the bound, a run is that one term and is not
    held to it.

    The greedy path is planned on runs whose largest operand times
    ``grow``, its limit on any intermediate, fills CONTRACTION_ELEMENTS;
    the steps hold for a run of any length."""
    planned = max(1, min(
        len(layout.phases), CONTRACTION_ELEMENTS // (max(map(math.prod, shapes)) * grow)
    ))
    run_shapes = [(planned,)] + [
        shape if index is None else (planned,) + shape
        for shape, (_, index) in zip(shapes, layout.columns)
    ]
    steps = _greedy_steps(layout.subscripts, run_shapes, grow)
    size: dict[str, int] = {}
    for subscripts, shape in zip(layout.subscripts, run_shapes):
        for letter, n in zip(subscripts, shape):
            size[letter] = max(size.get(letter, 1), n)
    size[TERM_AXIS] = 1

    def elements(subscripts: str) -> int:
        return math.prod(size[l] for l in subscripts) if TERM_AXIS in subscripts else 0

    live = [elements(subscripts) for subscripts in layout.subscripts]
    per_term = sum(live)
    for step in steps:
        result = elements(step.letters)
        per_term = max(per_term, sum(live) + sum(map(elements, step.copies)) + result)
        for i in sorted(step.positions, reverse=True):
            del live[i]
        live.append(result)
    return steps, per_term


# the most elements that the arrays of a real-time side contraction which
# hold the term axis reach together in one run of terms, except where one
# term of the whole batch exceeds it; 1 MiB of complex numbers, at which
# the ladder's and the vertex's batches ran faster than at 2**18
CONTRACTION_ELEMENTS = 2**16


class _Piece(NamedTuple):
    """A factor, or a product of step comparisons (``func`` None), on the
    axes of its internal ``labels``, which sit on the node sets ``kinds``
    (as in the keys of :class:`_BatchValues`)."""

    labels: tuple[str, ...]
    kinds: tuple[str, ...]
    func: Optional[SubFunction] = None
    mset: frozenset = frozenset()
    orders: tuple = ()
    pairs: tuple[tuple[str, str], ...] = ()


# the letter of the term axis; the labels take the letters after it
TERM_AXIS = "A"


class _Layout(NamedTuple):
    """The terms of a rule with one layout: sorted real and sorted imaginary
    integrals, and one piece in each slot (a function, or the step
    comparisons among one set of internal labels).

    ``phases`` holds each term's sign times (-i) per imaginary integral.
    ``columns`` holds the pieces of each slot, as (distinct piece numbers,
    each term's place among them), the place None where all terms share the
    piece.  The phases and each column are one operand of the layout's
    contraction, with the letters of each operand's axes in
    ``subscripts``: the term axis first, where the operand has it, then,
    for a column, the sample axis and one letter per label.  ``first``
    holds the pieces that no earlier layout of the rule uses, and
    ``last`` those that no later layout uses.  ``paths``
    keeps the :func:`_run_steps` of each tuple of one term's column
    shapes."""

    reals: tuple[str, ...]
    imags: tuple[str, ...]
    phases: np.ndarray
    columns: tuple[tuple[tuple[int, ...], Optional[np.ndarray]], ...]
    subscripts: tuple[str, ...]
    first: tuple[int, ...]
    last: tuple[int, ...]
    paths: dict


@functools.lru_cache(maxsize=64)
def _plan_rule(expr: RealTimeExpression):
    """The pieces of ``expr``, numbered, its layouts (:class:`_Layout`)
    and the external labels it compares with each other, sorted, as
    ``(pieces, layouts, compared)``; built once per process while the
    rule stays among the 64 most recently planned, and shared by equal
    rules."""
    # (reals, imags) -> per term: its sign and its piece in each of its slots;
    # a slot is ("f", function name, arguments, repeat) or ("s", labels)
    groups: dict[tuple, list[tuple[int, dict]]] = {}
    compared: set[str] = set()
    internal: set[str] = set()
    for term in expr.terms:
        reals = tuple(sorted(term.real_integrals))
        imags = tuple(sorted(term.imag_integrals))
        internal.update(reals + imags)
        compared.update(l for chain in term.steps for l in chain)
        kind = {l: l for l in reals} | dict.fromkeys(imags, MATS_NODES)
        slots: dict[tuple, _Piece] = {}
        for factor in term.factors:
            mset, orders = _factor_plan(factor)
            compared.update(l for _, pairs, _ in orders for pair in pairs for l in pair)
            func = factor.func
            labels = tuple(a for a in func.args if a in kind)
            repeat = sum(s[1:3] == (func.name, func.args) for s in slots)
            slots["f", func.name, func.args, repeat] = _Piece(
                labels, tuple(kind[l] for l in labels), func, mset, orders
            )
        pairs: dict[tuple[str, ...], set] = {}
        for chain in term.steps:
            for x, y in zip(chain, chain[1:]):
                pairs.setdefault(tuple(l for l in reals if l in (x, y)), set()).add((x, y))
        for labels, ps in pairs.items():
            slots["s", labels] = _Piece(labels, labels, pairs=tuple(sorted(ps)))
        groups.setdefault((reals, imags), []).append((term.sign, slots))
    pieces: dict[_Piece, int] = {}
    layouts = []
    for (reals, imags), terms in groups.items():
        kind = {l: l for l in reals} | dict.fromkeys(imags, MATS_NODES)
        labels_of = {slot: p.labels for _, slots in terms for slot, p in slots.items()}
        # a label no slot carries integrates alone, on a piece of ones
        carried = set().union(*labels_of.values())
        labels_of.update((("s", (l,)), (l,)) for l in reals + imags if l not in carried)
        # a term without a slot has a piece of ones there
        ones = {s: _Piece(ls, tuple(kind[l] for l in ls)) for s, ls in labels_of.items()}
        ids = np.array([
            [pieces.setdefault(slots.get(s, ones[s]), len(pieces)) for s in sorted(ones)]
            for _, slots in terms
        ])
        letter = {l: chr(ord("B") + i) for i, l in enumerate(reals + imags)}
        columns, subscripts = [], [TERM_AXIS]
        for column, slot in zip(ids.T, sorted(ones)):
            distinct, index = np.unique(column, return_inverse=True)
            shared = len(distinct) == 1
            columns.append((tuple(distinct.tolist()), None if shared else index))
            axes = SAMPLE_AXIS if shared else TERM_AXIS + SAMPLE_AXIS
            subscripts.append(axes + "".join(letter[l] for l in labels_of[slot]))
        layouts.append(_Layout(
            reals,
            imags,
            (-1j) ** len(imags) * np.array([sign for sign, _ in terms]),
            tuple(columns),
            tuple(subscripts),
            (),
            (),
            {},
        ))
    # each piece is computed for the first layout that uses it and dropped
    # after the last
    uses = [(n, i) for n, layout in enumerate(layouts) for ids, _ in layout.columns for i in ids]
    first = {i: n for n, i in reversed(uses)}
    last = {i: n for n, i in uses}
    layouts = [
        layout._replace(
            first=tuple(i for i, k in first.items() if k == n),
            last=tuple(i for i, k in last.items() if k == n),
        )
        for n, layout in enumerate(layouts)
    ]
    return list(pieces), layouts, tuple(sorted(compared - internal))


@functools.lru_cache(maxsize=4096)
def _factor_plan(factor: Factor):
    """A factor's vertical slots and its plain components, as ``(mset,
    ((sign, steps, korder), ...))`` with the sign a complex number and the
    steps the consecutive pairs of its step chains (:func:`_ordered_sum`
    entries); built once per process while it stays among the 4096 most
    recently used."""
    func = factor.func
    mats = factor.index.mats_labels()
    mset = frozenset(i + 1 for i, a in enumerate(func.args) if a in mats)
    pos = {a: i + 1 for i, a in enumerate(func.args)}
    return mset, tuple(
        (
            complex(sign),
            tuple(p for chain in chains for p in zip(chain, chain[1:])),
            tuple(pos[l] for l in word),
        )
        for sign, chains, word in expand_retarded(factor.index)
    )


# ---------------------------------------------------------------------------
# verification driver


@dataclass
class VerifyRecord:
    equation: str
    target: str
    mode: str
    seed: Optional[int]
    max_error: float
    passed: bool
    detail: str = ""

    def as_dict(self):
        return {
            "equation": self.equation,
            "target": self.target,
            "mode": self.mode,
            "seed": None if self.seed is None else int(self.seed),
            # strict JSON has no infinity: a failure with no error found is null
            "max_error": float(self.max_error) if math.isfinite(self.max_error) else None,
            "passed": bool(self.passed),
            "detail": self.detail,
        }


def _mismatch(
    eq: ContourEquation, target: SuperIndex, rule: RealTimeExpression,
    blocked: Collection[tuple[str, ...]],
) -> str:
    """Where the branch split's normal form and the rule's, off the
    ``blocked`` orders, differ: how many of their keys have different
    counts, out of how many, and the ordering of the first such key, the
    split's keys first."""
    split_nf = branch_split_normal_form(eq, target)
    counts = _SignedCounts()
    _count_rule(counts, rule, eq, 1, blocked)
    rule_nf = counts.normal_form()
    keys = dict.fromkeys(itertools.chain(split_nf, rule_nf))
    differ = [key for key in keys if split_nf.get(key, 0) != rule_nf.get(key, 0)]
    omega = differ[0][2]
    return (
        f"{len(differ)} of {len(keys)} normal-form keys differ, "
        f"first on ordering {'>'.join(omega) or '-'}"
    )


def _ordering_classes(
    eq: ContourEquation, target: SuperIndex
) -> tuple[list[tuple[str, ...]], set[tuple[str, ...]]]:
    """Total orders of the horizontal externals, latest first, as
    ``(classes, blocked)``.  An order is blocked when some external word
    whose step prefactor can be non-zero there has no contour placement;
    the classes are the other orders on which some prefactor can be
    non-zero, which the numeric oracle samples."""
    m_ext = target.mats_labels()
    k_ext = [l for l in eq.external if l not in m_ext]
    classes, blocked = [], set()
    for omega in itertools.permutations(k_ext):
        times = {l: float(len(omega) - i) for i, l in enumerate(omega)}
        live = _placed_words(target, times)
        if any(placement is None for _, _, placement in live):
            blocked.add(omega)
        elif live:
            classes.append(omega)
    return classes, blocked


# draws of external times before _sample_times gives up; a tie has
# probability zero, so only a broken generator exhausts them
SAMPLE_ATTEMPTS = 100
# numeric samples per order class of the external times, per seed
SAMPLES_PER_CLASS = 2


def _sample_times(
    eq: ContourEquation,
    target: SuperIndex,
    omega: tuple[str, ...],
    grid: DiscreteContour,
    rng: np.random.Generator,
) -> dict[str, float]:
    span = grid.t_max - grid.t0
    lo, hi = grid.t0 + 0.05 * span, grid.t_max - 0.05 * span
    times: dict[str, float] = {}
    for _ in range(SAMPLE_ATTEMPTS):
        draws = np.sort(rng.uniform(lo, hi, len(omega)))[::-1]
        if grid.node_gap(draws, eq.internal) > 1e-9 and (
            len(draws) < 2 or np.min(np.abs(np.diff(draws))) > 1e-9
        ):
            break
    else:
        raise GridTieError(
            f"no tie-free external times for ordering {omega} "
            f"in {SAMPLE_ATTEMPTS} draws"
        )
    for l, t in zip(omega, draws):
        times[l] = float(t)
    for l in target.mats_labels():
        times[l] = float(rng.uniform(0.05, 0.95))
    return times


def verify(
    eq: ContourEquation,
    target: SuperIndex,
    target_name: str = "",
    seeds: Sequence[int] = (0, 1, 2),
    grid_size: int = 24,
    tol: float = 1e-8,
    rule: Optional[RealTimeExpression] = None,
) -> list[VerifyRecord]:
    """Check one rule symbolically and, once per seed, numerically;
    failures are records, not exceptions.  The symbolic check is one
    signed count (:func:`signed_count`), and a ``ContourError`` in it, such
    as a factor that the equation does not carry, fails the symbolic
    record with its text.  With no seeds the check is symbolic alone and
    loads no NumPy.  The numeric check evaluates each
    order class of the horizontal externals once, as one batch of every
    seed's samples in seed order, on the grid of its size that the
    contour plans share (:func:`_shared_grid`).  So every class's batch
    is on the same component tables, and the classes share one value
    table (:func:`_batch_values`) and its values with no external
    argument; the table is emptied on return."""
    name = target_name or str(target)
    rule = derive_rule(eq, target) if rule is None else rule
    classes, blocked = _ordering_classes(eq, target)
    # the branch split has no term on an order of the horizontal externals
    # that has no contour placement (tested on the three-external probe; a
    # term there would fail the verdict, not pass it): the rule's count
    # leaves those orders out
    try:
        sym_ok = signed_count(eq, target, rule, blocked).zero()
        sym_detail = "" if sym_ok else _mismatch(eq, target, rule, blocked)
    except ContourError as exc:
        sym_ok, sym_detail = False, str(exc)
    records = [VerifyRecord(
        eq.lhs_name, name, "symbolic", None, 0.0 if sym_ok else math.inf, sym_ok, sym_detail
    )]
    if not seeds:
        return records
    grid = _shared_grid(GRID_T0, GRID_T_MAX, grid_size)
    worst = [0.0] * len(seeds)
    detail = [""] * len(seeds)
    # every seed's table and external times, drawn from its own stream by
    # class, then sample; a seed whose table or draws fail fails alone
    tables, draws = {}, {}
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(_stable_seed("verify", seed, eq.lhs_name, name))
        try:
            tables[k] = _component_table(eq, seed)
            draws[k] = [
                [_sample_times(eq, target, omega, grid, rng) for _ in range(SAMPLES_PER_CLASS)]
                for omega in classes
            ]
        except ContourError as exc:
            worst[k], detail[k] = np.inf, str(exc)
    # the seed of each sample of a class, and its table
    ks = [k for k in draws for _ in range(SAMPLES_PER_CLASS)]
    class_tables = tuple(tables[k] for k in ks)
    try:
        for c, omega in enumerate(classes if draws else ()):
            samples = [times for k in draws for times in draws[k][c]]
            try:
                lhs = evaluate_contour_batch(eq, target, class_tables, grid, samples)
                rhs = evaluate_realtime_batch(rule, eq, class_tables, grid, samples)
            except ContourError as exc:
                # every seed has samples in the class, so it fails them all
                for k in draws:
                    worst[k], detail[k] = np.inf, str(exc)
                break
            errors = np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
            for k, err in zip(ks, errors.tolist()):
                if err > worst[k]:
                    worst[k], detail[k] = err, f"ordering {'>'.join(omega) or '-'}"
    finally:
        # no verdict's values outlive it
        _batch_values.cache_clear()
    records += [
        VerifyRecord(eq.lhs_name, name, "numeric", int(seed), worst[k], worst[k] <= tol, detail[k])
        for k, seed in enumerate(seeds)
    ]
    return records
