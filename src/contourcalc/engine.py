"""Retarded-set representations and expansions of compositions.

Two layers live here.  ``representation`` turns a component or composition
of an integrated contour function into the sum over all distributions of
the internal labels into the target's retarded sets (plus the Matsubara
set on the extended contour).  ``expand_retarded`` and ``nested_expand``
rewrite compositions themselves: the former into step-function-weighted
nested commutators (and further into signed words), the latter into sums
of nested retarded compositions obtained by pinning one retarded entry
onto each of its siblings.

``_variants`` is the one place that enumerates the orderings of a
retarded set.  ``ordering_variants`` builds swap trees from it, which the
compiler's telescope reads directly; ``expand_retarded`` builds each
variant's signed words from it, level by level, without a tree; every
other expansion goes through ``expand_retarded``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .combinatorics import RangeError, commutator_words
from .ir import (
    EXTENDED,
    ContourEquation,
    CoverError,
    Item,
    Mats,
    Plain,
    Ret,
    SuperIndex,
    item_labels,
    top_label,
)

Chain = tuple[str, ...]
Word = tuple[str, ...]
SignedWord = tuple[int, tuple[Chain, ...], Word]


@dataclass(frozen=True)
class RepresentationTerm:
    """One distribution of the internal labels, with integration markers."""

    index: SuperIndex
    real_integrals: frozenset[str]
    imag_integrals: frozenset[str]


def normalize_item(item: Item) -> Item:
    """Apply ``R(e, empty) -> e`` recursively."""
    if not isinstance(item, Ret):
        return item
    top = normalize_item(item.top)
    rest = tuple(normalize_item(e) for e in item.rest)
    if not rest:
        return top
    return Ret(top, rest)


def _is_flat_slot(item: Item) -> bool:
    if isinstance(item, Plain):
        return True
    if isinstance(item, Ret):
        return isinstance(item.top, Plain) and all(isinstance(e, Plain) for e in item.rest)
    return False


def _validate_target(eq: ContourEquation, target: SuperIndex) -> None:
    covered = target.labels()
    if sorted(covered) != sorted(eq.external):
        raise CoverError(
            f"target {target} covers {sorted(covered)}, expected externals {sorted(eq.external)}"
        )
    for item in target.real_items():
        if isinstance(item, Ret) and not _is_flat_slot(item):
            raise CoverError("composition targets must use flat retarded sets")


def representation(eq: ContourEquation, target: SuperIndex) -> list[RepresentationTerm]:
    """Distribute the internals of ``eq`` over the slots of ``target``.

    Every internal label goes either into the Matsubara set (slot 0, on the
    extended contour) or into one of the real slots, as a retarded argument
    of that slot's top; relative order within a slot follows the internal
    label list.  Terms come out in ascending lexicographic order of the
    slot-assignment vector.
    """
    slots = list(target.real_items())
    has_mats = eq.contour == EXTENDED
    choices = ([0] if has_mats else []) + list(range(1, len(slots) + 1))
    if not choices and eq.internal:
        # Keldysh contour with every external on the vertical branch: the
        # horizontal integrals span the whole contour and vanish
        return []
    out = []
    for assign in itertools.product(choices, repeat=len(eq.internal)):
        m_labels = list(target.mats_labels())
        new_items: list[Item] = []
        added: dict[int, list[str]] = {}
        for lbl, slot in zip(eq.internal, assign):
            if slot == 0:
                m_labels.append(lbl)
            else:
                added.setdefault(slot, []).append(lbl)
        for j, item in enumerate(slots, start=1):
            extra = tuple(Plain(l) for l in added.get(j, ()))
            if not extra:
                new_items.append(item)
            elif isinstance(item, Plain):
                new_items.append(Ret(item, extra))
            else:
                assert isinstance(item, Ret)
                new_items.append(Ret(item.top, item.rest + extra))
        items: tuple[Item, ...] = tuple(new_items)
        if m_labels:
            items = (Mats(tuple(m_labels)),) + items
        real = frozenset(l for l, s in zip(eq.internal, assign) if s != 0)
        imag = frozenset(eq.internal) - real
        out.append(RepresentationTerm(SuperIndex(items), real, imag))
    return out


# ---------------------------------------------------------------------------
# ordering variants of retarded sets, as swap trees
#
# A retarded set is the sum over orderings of its retarded entries, each
# weighted by the step chain over the entries' top labels.  One ordering is
# a nested commutator of the entries; its swap tree is left-nested, one
# ``swap`` node per commutator level, and nested entries contribute their
# own subtrees.  Every sign assignment to the swap nodes is one word, and
# the words of a swap node are the commutator of its two sides' words.

Tree = tuple  # ("leaf", label) | ("swap", dim_id, left, right)
Variant = tuple[tuple[Chain, ...], Tree]


def _prune_seq(entries: tuple[Item, ...], edges) -> bool:
    """True when some entry lacks a direct connection to everything left of it."""
    seen: set[str] = set(item_labels(entries[0]))
    for entry in entries[1:]:
        labels = set(item_labels(entry))
        if not any(frozenset((x, y)) in edges for x in labels for y in seen):
            return True
        seen |= labels
    return False


def ordering_variants(item: Item, edges=None) -> list[Variant]:
    """The ordering variants of a retarded set as ``(step chains, swap tree)``.

    Swap nodes are numbered uniquely within a tree.  When a direct-connection
    edge set is supplied, orderings in which some entry is not directly
    connected to anything on its left are pruned (they cancel identically
    for that product structure).
    """
    return _variants(item, edges, itertools.count(1))


def variant_count(item: Item) -> int:
    """``len(ordering_variants(item))`` without building them: one for a
    plain label; for a retarded set, the orderings of its entries times the
    variants of its top and of each entry."""
    if isinstance(item, Plain):
        return 1
    return math.factorial(len(item.rest)) * math.prod(
        variant_count(e) for e in (item.top,) + item.rest
    )


def _variants(item: Item, edges, ids: Optional[itertools.count]) -> list:
    """The ordering variants of ``item`` as ``(step chains, swap tree)``,
    its swap nodes numbered from ``ids``; with ``ids`` None, as ``(step
    chains, signed words)``, each commutator level's words the commutator
    of its two sides' words, which is what the tree's words would be."""
    if isinstance(item, Plain):
        return [((), ("leaf", item.label) if ids else [(1, (item.label,))])]
    if not isinstance(item, Ret):
        raise CoverError("Matsubara sets cannot be expanded over real orderings")
    out = []
    for perm in itertools.permutations(item.rest):
        seq = (item.top,) + perm
        if edges is not None and _prune_seq(seq, edges):
            continue
        chain = tuple(top_label(e) for e in seq)
        chain_part = (chain,) if len(chain) > 1 else ()
        for top_chains, top in _variants(item.top, edges, ids):
            partials = [(top_chains + chain_part, top)]
            for entry in perm:
                nxt = []
                for e_chains, e in _variants(entry, edges, ids):
                    for p_chains, p in partials:
                        nxt.append((
                            p_chains + e_chains,
                            ("swap", next(ids), p, e) if ids else commutator_words(p, e),
                        ))
                partials = nxt
            out.extend(partials)
    return out


def _tree_labels(tree: Tree) -> tuple[str, ...]:
    if tree[0] == "leaf":
        return (tree[1],)
    return _tree_labels(tree[2]) + _tree_labels(tree[3])


def tree_word(tree: Tree, signs: dict[int, int]) -> Word:
    """The word of one sign assignment; unassigned swaps keep their order."""
    if tree[0] == "leaf":
        return (tree[1],)
    left = tree_word(tree[2], signs)
    right = tree_word(tree[3], signs)
    return left + right if signs.get(tree[1], 1) > 0 else right + left


def tree_dims(tree: Tree) -> list[tuple[int, frozenset, frozenset]]:
    """The swap nodes in pre-order, with the labels on either side."""
    if tree[0] == "leaf":
        return []
    left, right = tree[2], tree[3]
    return [(tree[1], frozenset(_tree_labels(left)), frozenset(_tree_labels(right)))] + (
        tree_dims(left) + tree_dims(right)
    )


def expand_retarded(items: tuple[Item, ...] | SuperIndex, edges=None) -> list[SignedWord]:
    """Fully expand the real items into ``(sign, theta chains, word)`` terms.

    Words list all covered labels in contour order, latest first.  Nested
    sets contribute their own step chains over top labels only.  ``edges``
    prunes orderings as in :func:`ordering_variants`.
    """
    if isinstance(items, SuperIndex):
        items = items.real_items()
    terms: list[SignedWord] = [(1, (), ())]
    for k, item in enumerate(items):
        # each variant's signed words straight from its commutator levels:
        # the words of its swap tree, without the tree
        ex = [(1, (), (item.label,))] if isinstance(item, Plain) else [
            (s, chains, w)
            for chains, words in _variants(normalize_item(item), edges, None)
            for s, w in words
        ]
        # the product with the terms so far, of which the first item's are its own
        terms = ex if k == 0 else [
            (s1 * s2, c1 + c2, w1 + w2) for s1, c1, w1 in terms for s2, c2, w2 in ex
        ]
    return terms


def enumerate_pivots(items: tuple[Item, ...]) -> list[tuple[int, ...]]:
    """Paths of non-top entries of retarded sets with at least two entries.

    A path is ``(item index, entry index, ...)`` where entry index 0 is the
    top and ``i >= 1`` addresses ``rest[i-1]``.  Sets with a single retarded
    entry are skipped: expanding them is the identity.
    """
    paths: list[tuple[int, ...]] = []

    def walk(item: Item, prefix: tuple[int, ...]):
        if not isinstance(item, Ret):
            return
        if len(item.rest) >= 2:
            for j in range(len(item.rest)):
                paths.append(prefix + (j + 1,))
        walk(item.top, prefix + (0,))
        for j, e in enumerate(item.rest):
            walk(e, prefix + (j + 1,))

    for i, item in enumerate(items):
        walk(item, (i,))
    return paths


def _expand_set_at(item: Ret, pivot_idx: int) -> list[Ret]:
    """Nest ``rest[pivot_idx-1]`` onto each sibling entry in turn."""
    pivot = item.rest[pivot_idx - 1]
    siblings = [(0, item.top)] + [
        (j + 1, e) for j, e in enumerate(item.rest) if j + 1 != pivot_idx
    ]
    out = []
    for onto_idx, onto in siblings:
        if onto_idx == 0:
            new_top = Ret(item.top, (pivot,))
            new_rest = tuple(e for j, e in enumerate(item.rest) if j + 1 != pivot_idx)
            out.append(Ret(new_top, new_rest))
        else:
            new_rest = tuple(
                Ret(e, (pivot,)) if j + 1 == onto_idx else e
                for j, e in enumerate(item.rest)
                if j + 1 != pivot_idx
            )
            out.append(Ret(item.top, new_rest))
    return out


def nested_expand(items: tuple[Item, ...] | SuperIndex, pivot: tuple[int, ...]) -> list[tuple[Item, ...]]:
    """Expand one retarded set w.r.t. the pivot entry addressed by ``pivot``.

    Returns ``r - 1`` item tuples for a set of ``r`` entries: the pivot is
    nested onto the top first, then onto each remaining entry in order.
    The sum of the results equals the original composition.
    """
    if isinstance(items, SuperIndex):
        items = items.real_items()
    if not pivot or not 0 <= pivot[0] < len(items):
        raise RangeError(f"bad pivot path {pivot}")

    def rebuild(item: Item, path: tuple[int, ...]) -> list[Item]:
        if not isinstance(item, Ret):
            raise RangeError(f"pivot path {pivot} does not address a retarded entry")
        if len(path) == 1:
            if not 1 <= path[0] <= len(item.rest):
                raise RangeError(f"pivot path {pivot} addresses the top or is out of range")
            return list(_expand_set_at(item, path[0]))
        head, rest_path = path[0], path[1:]
        if head == 0:
            return [Ret(sub, item.rest) for sub in rebuild(item.top, rest_path)]
        if not 1 <= head <= len(item.rest):
            raise RangeError(f"bad pivot path {pivot}")
        variants = rebuild(item.rest[head - 1], rest_path)
        return [
            Ret(item.top, item.rest[: head - 1] + (v,) + item.rest[head:])
            for v in variants
        ]

    expanded = rebuild(items[pivot[0]], pivot[1:])
    base = list(items)
    results = []
    for variant in expanded:
        results.append(tuple(base[: pivot[0]]) + (variant,) + tuple(base[pivot[0] + 1 :]))
    return results
