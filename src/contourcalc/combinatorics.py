"""Permutation classes, step-function products, and nested commutators.

Products of multi-argument step functions decompose into sums of single
step functions over shuffle-like permutation classes; nested commutators
``[x,1,...,m] = [...[[x,1],2],...,m]`` expand into 2**m signed words whose
slices (grouped by the number of entries left of the head) are exactly the
inverses of the reversed-front shuffle class.  These two facts together are
what make retarded compositions work.  The total orders that a set of step
chains allows are its linear extensions (:func:`linear_extensions`), and
the order relation that the chains generate is a key for that set
(:func:`order_relation`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

from .ir import ContourError


class OverlappingChains(ContourError):
    """A step-function chain repeats one of its own labels."""


class RangeError(ContourError):
    pass


@dataclass(frozen=True)
class Permutation:
    """One-line notation: ``mapping[i]`` is the image of position i+1."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(1, len(self.mapping) + 1)):
            raise RangeError(f"{self.mapping} is not a permutation of 1..{len(self.mapping)}")

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for i, v in enumerate(self.mapping):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def apply(self, seq: Sequence) -> tuple:
        """Reorder ``seq`` so that position i holds ``seq[mapping[i]-1]``."""
        return tuple(seq[v - 1] for v in self.mapping)


@dataclass(frozen=True)
class ShuffleClass:
    """Permutations of 1..m preserving the order of 1..k and k+1..m.

    With ``reversed_front`` the front block must appear in decreasing
    order instead, matching the product of a reversed and a forward chain.
    """

    m: int
    k: int
    reversed_front: bool = False

    def __post_init__(self):
        if not 0 <= self.k <= self.m:
            raise RangeError(f"need 0 <= k <= m, got k={self.k}, m={self.m}")


def enumerate_shuffles(cls: ShuffleClass) -> list[Permutation]:
    """All permutations of the class, as images of the identity.

    There are C(m, k) of them: a permutation is fixed by choosing
    which positions the front block occupies.
    """
    front = list(range(cls.k, 0, -1)) if cls.reversed_front else list(range(1, cls.k + 1))
    back = list(range(cls.k + 1, cls.m + 1))
    out = []
    for positions in itertools.combinations(range(cls.m), cls.k):
        image = [0] * cls.m
        fi = bi = 0
        pos = set(positions)
        for i in range(cls.m):
            if i in pos:
                image[i] = front[fi]
                fi += 1
            else:
                image[i] = back[bi]
                bi += 1
        out.append(Permutation(tuple(image)))
    return out


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
                raise ValueError(f"step chain {chain} leaves the labels {tuple(labels)}")
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


def merge_chains(front: Sequence[Hashable], back: Sequence[Hashable]) -> list[tuple]:
    """All orderings of the union consistent with both chains.

    Chains may share labels; shared labels act as synchronisation points.
    Conflicting chains produce an empty list (the product of the two step
    functions is identically zero).
    """
    front = tuple(front)
    back = tuple(back)
    for chain in (front, back):
        if len(set(chain)) != len(chain):
            raise OverlappingChains(f"chain {chain} repeats a label")
    return linear_extensions(tuple(dict.fromkeys(front + back)), (front, back))


def theta_product_decompose(
    front: Sequence[Hashable], back: Sequence[Hashable], reversed_front: bool = False
) -> list[tuple]:
    """Rewrite Theta(front) * Theta(back) as a sum of single Theta chains.

    Pointwise exact for pairwise-distinct times.  For disjoint chains of
    sizes k and m-k this yields the C(m, k) shuffles; shared labels
    are allowed and reduce the count.
    """
    f = tuple(reversed(front)) if reversed_front else tuple(front)
    return merge_chains(f, back)


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


def nested_commutator(items: Sequence[Hashable]) -> list[tuple[int, tuple]]:
    """Expand ``[items[0], items[1], ..., items[-1]]`` into signed words.

    Returns ``(sign, word)`` pairs; 2**(n-1) of them for n items, the sign
    being (-1)**k with k the number of items left of the head.
    """
    if not items:
        raise RangeError("nested commutator needs at least one item")
    terms: list[tuple[int, tuple]] = [(1, (items[0],))]
    for item in items[1:]:
        terms = commutator_words(terms, [(1, (item,))])
    return terms


def commutator_slice(items: Sequence[Hashable], k: int) -> list[tuple[int, tuple]]:
    """The (-1)**k part of the nested commutator with k items left of the head.

    The words have the left block in decreasing original order and the
    right block increasing; there are C(n-1, k) of them.
    """
    n = len(items)
    if not 0 <= k <= n - 1:
        raise RangeError(f"slice index {k} out of range for {n} items")
    head, rest = items[0], list(items[1:])
    sign = (-1) ** k
    out = []
    for left_idx in itertools.combinations(range(len(rest)), k):
        left = [rest[i] for i in reversed(left_idx)]
        right = [rest[i] for i in range(len(rest)) if i not in left_idx]
        out.append((sign, tuple(left) + (head,) + tuple(right)))
    return out

