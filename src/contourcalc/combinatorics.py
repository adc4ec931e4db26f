"""Step-function orders and nested commutators over formal words.

Two facts of the calculus live here.  A product of step chains is the sum
of the single chains over the total orders that the chains allow: with a
front chain of k labels and a back chain of m - k labels, the C(m, k)
shuffles.  These orders are the chains' linear extensions
(:func:`linear_extensions`), and the order relation that the chains
generate is a key for that set (:func:`order_relation`).  A nested
commutator ``[x,1,...,m] = [...[[x,1],2],...,m]`` is a fold of
:func:`commutator_words` and expands into 2**m signed words; the words
with k entries left of the head carry the sign (-1)**k and are the
inverses of the shuffles with the front reversed.  Together these make
retarded compositions work.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence

from .ir import ContourError


class RangeError(ContourError):
    pass


class ForeignLabel(ContourError, ValueError):
    """A step chain names a label outside the labels that it orders."""


def linear_extensions(
    labels: Sequence[Hashable],
    chains: Iterable[Sequence[Hashable]],
    neighbours: Iterable[tuple[Hashable, Iterable[Hashable]]] = (),
) -> list[tuple]:
    """The total orders of ``labels``, latest first, in which every chain
    holds (each chain lists labels from latest to earliest) and, for each
    ``(label, others)`` pair of ``neighbours``, some label of ``others`` is
    later than ``label``.

    A label is placed once all of its chain predecessors are and, if it
    has neighbours, once one of them is, trying labels in their given
    order, so the orders come out in the order of
    ``itertools.permutations(labels)``.  The placed labels are a bitmask,
    and each label has one candidate entry: its bit with its predecessors'
    (the mask it needs), and the mask of its neighbours.  The orders that
    complete a placed mask depend on the mask alone, so each reachable
    mask's completions are built once per call.  A cyclic chain set, a
    repeated label, or a neighbour condition naming no label of
    ``labels`` gives none.
    """
    bits, preds = _chain_masks(labels, chains)
    # a bit above the labels' is set in every placed mask, so it is the
    # neighbour mask of a label that needs no neighbour
    start = 1 << len(labels)
    later = dict.fromkeys(bits, start)
    for l, others in neighbours:
        if l in later:
            later[l] = 0
            for x in others:
                later[l] |= bits.get(x, 0)
    # (mask needed, predecessors, neighbours, label); a label that precedes
    # itself has no entry
    table = [
        (bit | preds[l], preds[l], later[l], l)
        for l, bit in bits.items()
        if not preds[l] & bit
    ]
    if len(table) < len(labels):
        return []
    return _completions(start, table, {2 * start - 1: [()]})


def order_relation(
    labels: Sequence[Hashable], chains: Iterable[Sequence[Hashable]]
) -> Optional[tuple[int, ...]]:
    """The order that ``chains`` put on ``labels``, as a key: for each
    label, in the given order, the bitmask of the labels that must be
    later than it, closed transitively.  A partial order is the
    intersection of its linear extensions (Szpilrajn), so two chain sets
    over the same labels have the same key exactly when
    :func:`linear_extensions` lists the same orders for them.  A cyclic
    chain set or a repeated label has no order, and its key is None.
    """
    bits, preds = _chain_masks(labels, chains)
    if len(bits) < len(labels):
        return None
    later = list(preds.values())
    # Warshall's closure, one intermediate label at a time
    for k, bit in enumerate(bits.values()):
        for i, mask in enumerate(later):
            if mask & bit:
                later[i] = mask | later[k]
    if any(mask >> i & 1 for i, mask in enumerate(later)):
        return None
    return tuple(later)


def _chain_masks(
    labels: Sequence[Hashable], chains: Iterable[Sequence[Hashable]]
) -> tuple[dict, dict]:
    """Each label's bit, and the mask of the labels that its chains put
    right before it (later), by label in the labels' order."""
    bits = {l: 1 << i for i, l in enumerate(labels)}
    preds = dict.fromkeys(bits, 0)
    for chain in chains:
        for x, y in zip(chain, chain[1:]):
            if x not in bits or y not in bits:
                raise ForeignLabel(f"step chain {chain} leaves the labels {tuple(labels)}")
            preds[y] |= bits[x]
    return bits, preds


def _completions(placed: int, table: list[tuple], tails: dict[int, list[tuple]]) -> list[tuple]:
    """The orders of the labels not in the mask ``placed`` that complete
    it, for :func:`linear_extensions`; ``tails`` keeps each mask's."""
    out = tails.get(placed)
    if out is None:
        out = tails[placed] = [
            (l,) + tail
            for need, pred, nb, l in table
            if placed & need == pred and placed & nb
            for tail in _completions(placed | need, table, tails)
        ]
    return out


# ---------------------------------------------------------------------------
# nested commutators over formal words


def commutator_words(
    left: Sequence[tuple[int, tuple]], right: Sequence[tuple[int, tuple]]
) -> list[tuple[int, tuple]]:
    """The commutator ``[L, R] = LR - RL`` of two sums of signed words."""
    out: list[tuple[int, tuple]] = []
    for s1, w1 in left:
        for s2, w2 in right:
            out.append((s1 * s2, w1 + w2))
            out.append((-s1 * s2, w2 + w1))
    return out
