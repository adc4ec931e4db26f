"""Reduction of compositions of products to single-function factors.

The driver ``derive_rule`` takes each term of the target's representation
(the internal labels distributed over its retarded and Matsubara sets),
gives every sub-function its own labels of the Matsubara set, and reduces
the resulting block.  A block with a disconnected retarded set vanishes;
the rest is reduced by a fixpoint of:

* factoring out sub-functions whose horizontal arguments sit in distinct
  top-level items (their contour order is fixed; this closes functions
  left with at most one horizontal argument),
* splitting blocks whose sub-functions fall apart into disconnected groups,
* peeling two-point bridges off binary nested sets,
* a multilinear telescope over the sign dimensions of a single retarded
  set, which leaves one retarded-difference factor per dimension,
* nested-retarded expansion with the pivot chosen to maximise the number
  of immediately vanishing terms.

Blocks that none of these rules touch are expanded into step-weighted
words of plain components; the result is then exact but not compact.

The telescope builds each function's factors once per ordering variant,
keyed by (function, its pinned signs, the dimensions it carries).
Per-call memos aside, bounded caches live as long as the process, each
on a pure helper whose key is interned or a tuple of interned parts: the
horizontal arguments of each (function, Matsubara labels) (``_kargs``,
4096 entries); the ordering variants of each retarded set of at most 8
variants, counted before any is built (``_capped_variants``, keyed by the
item, 1024); the step pairs implied by each factor index
(``_support_pairs``, keyed by the index, 4096); the
closed step pairs implied by each tuple of factors of a telescope term
(``_implied``, 4096); the step pairs of every ordering variant of each
nested difference candidate (``_built_pairs``, keyed by the item, 1024);
the shorthand key of each two-point item tuple per argument pair
(``_two_point_kinds``, 1024); and the text of each (factor, format,
naming) (``_render_factor``, 4096).  Each value is a frozen set, a dict
never changed after it is built, a string, or a tuple of strings or of
ordering variants (step chains and a swap tree, all tuples); no cache
holds a block or a rule.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Optional, Sequence

from .ir import (
    ContourEquation,
    ContourError,
    Factor,
    Item,
    Mats,
    Plain,
    RealTimeExpression,
    RealTimeTerm,
    Ret,
    SubFunction,
    SuperIndex,
    TWO_POINT,
    _index_text,
    _signed_sum,
    canonicalize,
    connected,
    item_labels,
    top_label,
)
from .engine import (
    expand_retarded,
    enumerate_pivots,
    nested_expand,
    normalize_item,
    ordering_variants,
    representation,
    tree_dims,
    tree_word,
    variant_count,
    _validate_target,
)


class NamingUnavailable(ContourError):
    """Langreth shorthand naming requested for a factor that has none."""


# a sub-function together with the subset of its arguments pinned to the
# Matsubara branch (order follows the global Matsubara label sequence)
BFunc = tuple[SubFunction, tuple[str, ...]]
PartTerm = tuple[int, tuple[tuple[str, ...], ...], tuple[Factor, ...]]


@functools.lru_cache(maxsize=4096)
def _kargs(bf: BFunc) -> tuple[str, ...]:
    func, mats = bf
    return tuple(a for a in func.args if a not in mats)


def _kedges(funcs: Sequence[BFunc]) -> set[frozenset[str]]:
    edges: set[frozenset[str]] = set()
    for bf in funcs:
        ks = _kargs(bf)
        for x, y in itertools.combinations(ks, 2):
            edges.add(frozenset((x, y)))
    return edges


def _factor(bf: BFunc, real_items: Sequence[Item]) -> Factor:
    func, mats = bf
    items: tuple[Item, ...] = tuple(real_items)
    if mats:
        items = (Mats(mats),) + items
    return Factor(func, SuperIndex(items))


def disconnected_witness(items: Sequence[Item], edges: set[frozenset[str]]) -> Optional[Item]:
    """The first retarded set (outer or nested) that is disconnected."""

    def walk(item: Item) -> Optional[Item]:
        if not isinstance(item, Ret):
            return None
        if not connected(item_labels(item), edges):
            return item
        hit = walk(item.top)
        if hit is not None:
            return hit
        for e in item.rest:
            hit = walk(e)
            if hit is not None:
                return hit
        return None

    for item in items:
        hit = walk(item)
        if hit is not None:
            return hit
    return None


def component_of_product(
    product: Sequence[SubFunction] | Sequence[BFunc], full_order: Sequence[str]
) -> tuple[Factor, ...]:
    """Induced components of the sub-functions under one total ordering.

    Each sub-function keeps its own labels in the relative order given by
    ``full_order`` (latest first); Matsubara markers pass through.
    """
    word = tuple(full_order)
    out = []
    for entry in product:
        bf: BFunc = entry if isinstance(entry, tuple) else (entry, ())
        ks = set(_kargs(bf))
        induced = tuple(Plain(l) for l in word if l in ks)
        out.append(_factor(bf, induced))
    return tuple(out)


# ---------------------------------------------------------------------------
# block reduction


def _item_positions(items: Sequence[Item]) -> dict[str, int]:
    pos = {}
    for i, item in enumerate(items):
        for l in item_labels(item):
            pos[l] = i
    return pos


def _determined(funcs: Sequence[BFunc], items: Sequence[Item]):
    """Split off functions whose arguments all sit in distinct items."""
    pos = _item_positions(items)
    factors: list[Factor] = []
    remaining: list[BFunc] = []
    for bf in funcs:
        ks = _kargs(bf)
        slots = [pos[a] for a in ks]
        if len(set(slots)) == len(slots):
            ordered = tuple(Plain(a) for a in sorted(ks, key=lambda a: pos[a]))
            factors.append(_factor(bf, ordered))
        else:
            remaining.append(bf)
    return tuple(factors), tuple(remaining)


def _components(funcs: Sequence[BFunc]) -> list[set[str]]:
    groups: list[set[str]] = []
    for bf in funcs:
        ks = set(_kargs(bf))
        merged = [g for g in groups if g & ks]
        for g in merged:
            ks |= g
            groups.remove(g)
        groups.append(ks)
    return groups


def _separate_once(funcs: Sequence[BFunc], items: Sequence[Item]):
    """Factor determined functions, drop orphan plains, split components."""
    factors, funcs = _determined(funcs, items)
    owned = set(l for bf in funcs for l in _kargs(bf))
    items = tuple(i for i in items if not (isinstance(i, Plain) and i.label not in owned))
    groups = _components(funcs)
    blocks = []
    for g in groups:
        bl_funcs = tuple(bf for bf in funcs if set(_kargs(bf)) <= g)
        bl_items = tuple(i for i in items if set(item_labels(i)) <= g)
        blocks.append((bl_funcs, bl_items))
    return factors, blocks


def _entry_at(items: Sequence[Item], path: tuple[int, ...]) -> Item:
    node: Item = items[path[0]]
    for step in path[1:]:
        assert isinstance(node, Ret)
        node = node.top if step == 0 else node.rest[step - 1]
    return node


def _try_bridge(funcs: Sequence[BFunc], items: Sequence[Item]):
    """Peel a two-point function joining the tops of a binary set.

    Applicable to a top-level item ``R(t, (u,))`` when one of ``t``/``u``
    is a plain label owned by exactly one remaining function, and that
    function's other horizontal argument is the other entry's top label.
    The function factors as ``R(top(t), top(u))`` and the item collapses
    onto the other entry.
    """
    for i, item in enumerate(items):
        if not (isinstance(item, Ret) and len(item.rest) == 1):
            continue
        t, u = item.top, item.rest[0]
        for solo, other in ((t, u), (u, t)):
            if not isinstance(solo, Plain):
                continue
            x = solo.label
            owners = [bf for bf in funcs if x in _kargs(bf)]
            if len(owners) != 1:
                continue
            bf = owners[0]
            ks = set(_kargs(bf))
            y = top_label(other)
            if ks != {x, y}:
                continue
            factor = _factor(bf, (Ret(Plain(top_label(t)), (Plain(top_label(u)),)),))
            new_items = items[:i] + (other,) + items[i + 1 :]
            new_funcs = tuple(b for b in funcs if b is not bf)
            return factor, new_funcs, new_items
    return None


# ---------------------------------------------------------------------------
# multilinear telescoping of a single retarded set
#
# The nested-commutator expansion of a binarized retarded set is a product
# of two-sided block swaps: every ordering of the retarded entries gives
# words  prod_d s_d  with one sign dimension per commutator level (outer
# and inside nested entries).  When each sub-function of the block straddles
# at most one swap, the sum factorizes per dimension and telescopes into a
# single retarded-difference factor per dimension.  The ordering variants
# and their swap trees come from ``engine.ordering_variants``.


def _closure(pairs: Iterable[tuple[str, str]]) -> set[tuple[str, str]]:
    """Transitive closure: ``(a, d)`` for every path of one or more pairs
    from ``a`` to ``d``, by one graph search from each label."""
    succ: dict[str, list[str]] = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
    done: set[tuple[str, str]] = set()
    for a, nxt in succ.items():
        reached: set[str] = set()
        stack = list(nxt)
        while stack:
            b = stack.pop()
            if b not in reached:
                reached.add(b)
                stack.extend(succ.get(b, ()))
        done.update((a, b) for b in reached)
    return done


def _chain_pairs(chains) -> set[tuple[str, str]]:
    return {(c[i], c[i + 1]) for c in chains for i in range(len(c) - 1)}


@functools.lru_cache(maxsize=4096)
def _support_pairs(index: SuperIndex) -> frozenset:
    """Order relations that hold wherever a factor with this index is non-zero."""
    common = None
    for _, chains, _ in expand_retarded(index):
        cl = _closure(_chain_pairs(chains))
        common = cl if common is None else (common & cl)
    return frozenset(common or set())


@functools.lru_cache(maxsize=4096)
def _implied(factors: tuple[Factor, ...]) -> frozenset:
    """Order relations that hold wherever every one of these factors is non-zero."""
    return frozenset(_closure(set().union(*(_support_pairs(f.index) for f in factors))))


def _strip_implied(chains, factors) -> tuple:
    """Drop step pairs already enforced by the factors' supports."""
    implied = _implied(factors)
    out = []
    for chain in chains:
        run: list[str] = []
        for a, b in zip(chain, chain[1:]):
            if (a, b) in implied:
                if len(run) > 1:
                    out.append(tuple(run))
                run = []
            elif run and run[-1] == a:
                run.append(b)
            else:
                if len(run) > 1:
                    out.append(tuple(run))
                run = [a, b]
        if len(run) > 1:
            out.append(tuple(run))
    return tuple(sorted(set(out)))


def _delta_candidate(word, deltas, support):
    """A single-function composition reproducing a multi-swap difference.

    ``deltas`` lists (left, right) label pairs restricted to the function,
    innermost first; the candidate nests them into retarded items and is
    accepted only if its own step support is implied by the variant's.
    """
    built_labels: set[str] = set()
    built: Item | None = None
    for left, right in deltas:
        if built is None:
            if len(left) == 1 and len(right) == 1:
                built = Ret(Plain(next(iter(left))), (Plain(next(iter(right))),))
                built_labels = set(left) | set(right)
                continue
            return None
        if built_labels == set(left) and len(right) == 1:
            built = Ret(built, (Plain(next(iter(right))),))
        elif built_labels == set(right) and len(left) == 1:
            built = Ret(Plain(next(iter(left))), (built,))
        else:
            return None
        built_labels |= set(left) | set(right)
    items: list[Item] = []
    placed = False
    for l in word:
        if l in built_labels:
            if not placed:
                items.append(built)
                placed = True
        else:
            items.append(Plain(l))
    if not _built_pairs(built) <= support:
        return None
    return tuple(items)


@functools.lru_cache(maxsize=1024)
def _built_pairs(built: Item) -> frozenset:
    """The step pairs of every ordering variant of a nested candidate."""
    return frozenset(p for chains, _ in ordering_variants(built) for p in _chain_pairs(chains))


@functools.lru_cache(maxsize=1024)
def _capped_variants(item: Ret) -> Optional[tuple]:
    """The ordering variants of a retarded set, or None where it has more
    than 8, which are then never built."""
    # without this cap 28 golden probe rows change (X R(1,23): 1 term to 3 chained)
    if variant_count(item) > 8:
        return None
    return tuple(ordering_variants(item))


def _multilinear_reduce(funcs: tuple[BFunc, ...], items: tuple[Item, ...]):
    """Compact reduction of a block with one retarded set among plain items.

    Each ordering variant of the set is a product of sign dimensions; the
    sum telescopes dimension by dimension, leaving one difference factor
    per dimension per term.  Differences whose nested structure matches a
    retarded composition (with its step support implied by the variant's)
    are absorbed; the rest stay as signed word pairs.  Returns None when
    the pattern does not apply.
    """
    set_idx = None
    for i, item in enumerate(items):
        if isinstance(item, Ret):
            if set_idx is not None:
                return None
            set_idx = i
    if set_idx is None:
        return None
    variants = _capped_variants(items[set_idx])
    if variants is None:
        return None

    ksets = [frozenset(_kargs(bf)) for bf in funcs]
    out: list[PartTerm] = []
    for chains, tree in variants:
        dims = tree_dims(tree)
        dim_ids = [d for d, _, _ in dims]
        sides = {d: (left, right) for d, left, right in dims}
        depth = {d: i for i, d in enumerate(dim_ids)}

        def induced(signs: dict[int, int], ks: frozenset) -> tuple[str, ...]:
            """The function's labels in the block word of these signs."""
            w: list[str] = []
            for i, item in enumerate(items):
                w.extend(tree_word(tree, signs) if i == set_idx else item_labels(item))
            return tuple(l for l in w if l in ks)

        dep: dict[int, list[int]] = {d: [] for d in dim_ids}
        for d in dim_ids:
            left, right = sides[d]
            for j, ks in enumerate(ksets):
                if ks & left and ks & right:
                    dep[d].append(j)
        if any(not dep[d] for d in dim_ids):
            continue  # an invisible swap: the variant sums to zero
        # without this bound 27 of 972 random wide rules grow: 70 379 to 109 089 terms
        if math.prod(len(dep[d]) for d in dim_ids) > 24:
            return None

        support = _closure(_chain_pairs(chains))

        def factor_list(j: int, pin: dict[int, int], delta: list[int]) -> list[tuple[int, Factor]]:
            """Function j's signed factors: its component at the pinned
            corner, or its difference over the dimensions it carries."""
            bf, ks = funcs[j], ksets[j]
            if not delta:
                return [(1, _factor(bf, tuple(Plain(l) for l in induced(pin, ks))))]
            ds = sorted(delta, key=lambda d: depth[d], reverse=True)
            deltas = [(ks & sides[d][0], ks & sides[d][1]) for d in ds]
            candidate = _delta_candidate(
                induced({**pin, **{d: 1 for d in ds}}, ks), deltas, support
            )
            if candidate is not None:
                return [(1, _factor(bf, candidate))]
            words: list[tuple[int, Factor]] = []
            for signs in itertools.product((1, -1), repeat=len(ds)):
                w = induced({**pin, **dict(zip(ds, signs))}, ks)
                words.append((math.prod(signs), _factor(bf, tuple(Plain(l) for l in w))))
            return words

        # choose one difference carrier per dimension; everything else is
        # pinned to a telescope corner.  A function's factors depend only
        # on its own pins and carried dimensions, so each is built once
        # per variant.
        made: dict[tuple, list[tuple[int, Factor]]] = {}
        for choice in itertools.product(*(dep[d] for d in dim_ids)):
            pins: dict[int, dict[int, int]] = {j: {} for j in range(len(funcs))}
            delta_dims: dict[int, list[int]] = {j: [] for j in range(len(funcs))}
            for d, k in zip(dim_ids, choice):
                for j in dep[d]:
                    if j == k:
                        delta_dims[j].append(d)
                    else:
                        pins[j][d] = -1 if j < k else 1
            factor_lists: list[list[tuple[int, Factor]]] = []
            for j in range(len(funcs)):
                key = (j, tuple(pins[j].items()), tuple(delta_dims[j]))
                fl = made.get(key)
                if fl is None:
                    fl = made[key] = factor_list(j, pins[j], delta_dims[j])
                factor_lists.append(fl)
            for picks in itertools.product(*factor_lists):
                sign = 1
                factors = []
                for s, f in picks:
                    sign *= s
                    factors.append(f)
                out.append((sign, chains, tuple(factors)))
    # cancel exact opposites; a surviving multiplicity means this
    # representation is not unit-coefficient, so decline and let the
    # caller expand into words instead
    merged: dict = {}
    for s, c, f in out:
        merged[(c, f)] = merged.get((c, f), 0) + s
    if any(abs(v) > 1 for v in merged.values()):
        return None
    out = [(v, c, f) for (c, f), v in merged.items() if v]
    # fusing needs no second strip: each pair it leaves adjacent was adjacent
    # in one of the stripped chains it fused, next to the same factors
    return _merge_theta([(s, _strip_implied(c, f), f) for s, c, f in out])


def _merge_theta(parts: list[PartTerm]) -> list[PartTerm]:
    """Fuse step chains differing by one adjacent transposition.

    ``Theta(X a b Y) + Theta(X b a Y) = Theta(X a Y) Theta(X b Y)``;
    chains of one label drop out.  Applied to same-sign terms with equal
    factors until nothing fuses: the terms are grouped by (sign, factors),
    in list order, and each group is scanned from its start again after
    every fusion, which keeps the earlier term's place.
    """

    def clean(chains):
        return tuple(sorted({c for c in chains if len(c) > 1}))

    # (sign, factors) -> [position in parts, chains] of its terms, in order
    groups: dict[tuple, list[list]] = {}
    for i, (s, c, f) in enumerate(parts):
        groups.setdefault((s, f), []).append([i, clean(c)])
    merged = []
    for (s, f), terms in groups.items():
        changed = True
        while changed:
            changed = False
            for a in range(len(terms)):
                for b in range(a + 1, len(terms)):
                    fused = _fuse_chain_sets(terms[a][1], terms[b][1])
                    if fused is None:
                        continue
                    terms[a][1] = clean(fused)
                    del terms[b]
                    changed = True
                    break
                if changed:
                    break
        merged.extend((i, s, c, f) for i, c in terms)
    merged.sort(key=lambda t: t[0])
    return [(s, c, f) for _, s, c, f in merged]


def _fuse_chain_sets(c1, c2):
    if len(c1) != len(c2):
        return None
    d1 = [c for c in c1 if c not in c2]
    d2 = [c for c in c2 if c not in c1]
    if len(d1) != 1 or len(d2) != 1:
        return None
    u, v = d1[0], d2[0]
    if len(u) != len(v):
        return None
    for i in range(len(u) - 1):
        if u[:i] == v[:i] and u[i] == v[i + 1] and u[i + 1] == v[i] and u[i + 2 :] == v[i + 2 :]:
            rest = tuple(c for c in c1 if c != u)
            return rest + (u[: i + 1] + u[i + 2 :], u[:i] + u[i + 1 :])
    return None


def _reduce_block(funcs: tuple[BFunc, ...], items: tuple[Item, ...], dropped=None) -> list[PartTerm]:
    """Signed step-chain terms of one block; ``dropped`` collects vanishing blocks."""
    items = tuple(normalize_item(i) for i in items)
    edges = _kedges(funcs)
    if disconnected_witness(items, edges) is not None:
        if dropped is not None:
            dropped.append((funcs, items))
        return []

    factors, blocks = _separate_once(funcs, items)
    if len(blocks) > 1 or factors:
        out: list[PartTerm] = [(1, (), factors)]
        for bl_funcs, bl_items in blocks:
            parts = _reduce_block(bl_funcs, bl_items, dropped)
            out = [
                (s1 * s2, c1 + c2, f1 + f2)
                for s1, c1, f1 in out
                for s2, c2, f2 in parts
            ]
        return out

    funcs, items = blocks[0] if blocks else ((), ())
    if not funcs:
        return [(1, (), ())]

    if len(funcs) == 1:
        return [(1, (), (_factor(funcs[0], items),))]

    bridged = _try_bridge(funcs, items)
    if bridged is not None:
        factor, new_funcs, new_items = bridged
        return [(s, c, (factor,) + f) for s, c, f in _reduce_block(new_funcs, new_items, dropped)]

    reduced = _multilinear_reduce(funcs, items)
    if reduced is not None:
        return reduced

    # nested expansion, pivot chosen to kill the most terms outright
    best = None
    for path in enumerate_pivots(items):
        children = nested_expand(items, path)
        kills = sum(
            1 for ch in children if disconnected_witness(ch, edges) is not None
        )
        if kills == 0:
            continue
        key = (-kills, top_label(_entry_at(items, path)), path)
        if best is None or key < best[0]:
            best = (key, children)
    if best is not None:
        out = []
        for ch in best[1]:
            out.extend(_reduce_block(funcs, ch, dropped))
        return out

    # irreducible: expand into step-weighted words of plain components
    out = []
    for sign, chains, word in expand_retarded(items, edges=edges):
        out.append((sign, chains, component_of_product(funcs, word)))
    return out


# ---------------------------------------------------------------------------
# the compiler driver


def derive_rule(
    eq: ContourEquation,
    target: SuperIndex,
    dropped=None,
) -> RealTimeExpression:
    """Compile the real-time rule for one component or composition target.

    Every factor of the result is a component or composition of a single
    sub-function; irreducible blocks contribute explicit step-function
    chains.  ``dropped``, when given, collects the ``(functions, items)``
    blocks discarded by the disconnected-set rule.
    """
    _validate_target(eq, target)
    rep = representation(eq, target)
    terms = []
    for rt in rep:
        # each function keeps its own labels of the Matsubara set
        mats = rt.index.mats_labels()
        funcs = tuple((f, tuple(l for l in mats if l in f.args)) for f in eq.product)
        for sign, chains, factors in _reduce_block(funcs, rt.index.real_items(), dropped):
            terms.append(
                RealTimeTerm(sign, chains, factors, rt.real_integrals, rt.imag_integrals)
            )
    return canonicalize(RealTimeExpression(tuple(terms)))


# ---------------------------------------------------------------------------
# emission


def langreth_name(factor: Factor) -> Optional[str]:
    """Two-point shorthand key for a factor, or None if it has none."""
    if len(factor.func.args) != 2:
        return None
    return _two_point_kinds(*factor.func.args).get(factor.index.items)


@functools.lru_cache(maxsize=1024)
def _two_point_kinds(x: str, y: str) -> dict:
    """The shorthand key of each two-point item tuple on arguments (x, y),
    the first in ``TWO_POINT`` order where two keys share one tuple."""
    kinds: dict = {}
    for kind, tp in TWO_POINT.items():
        kinds.setdefault(tp.items(x, y), kind)
        if kind == "M":
            # the Matsubara component is M(xy) and M(yx) alike
            kinds.setdefault(tp.items(y, x), kind)
    return kinds


@functools.lru_cache(maxsize=4096)
def _render_factor(factor: Factor, fmt: str, naming: str) -> str:
    """One factor's text; factors are interned, so each (factor, format,
    naming) is rendered once while among the 4096 most recently used."""
    if naming == "langreth":
        key = langreth_name(factor)
        if key is None:
            raise NamingUnavailable(
                f"factor {factor} is not a two-point component; use hacek naming"
            )
        sup = TWO_POINT[key].latex if fmt == "latex" else TWO_POINT[key].text
    else:
        sup = _index_text(factor, naming == "hacek", fmt == "latex")
    return f"{factor.func.name}^{{{sup}}}"


def _render_term(term: RealTimeTerm, fmt: str, naming: str) -> str:
    bits = []
    if term.real_integrals:
        bits.append(
            ("\\int_{%s}" if fmt == "latex" else "∫{%s}")
            % "".join(sorted(term.real_integrals))
        )
    if term.imag_integrals:
        bits.append(
            ("\\star_{%s}" if fmt == "latex" else "⋆{%s}")
            % "".join(sorted(term.imag_integrals))
        )
    for chain in term.steps:
        bits.append(
            (r"\Theta_{%s}" if fmt == "latex" else "Θ(%s)") % "".join(chain)
        )
    for f in term.factors:
        bits.append(_render_factor(f, fmt, naming))
    return " ".join(bits)


def emit(
    expr: RealTimeExpression,
    format: str = "text",
    naming: str = "hacek",
) -> str:
    """Deterministic rendering of a canonical expression: the signed sum
    of its terms, without a left-hand side.

    ``naming='langreth'`` uses the seven two-point shorthands and raises
    :class:`NamingUnavailable` on factors of higher arity; ``'hacek'``
    renders per-factor argument positions, ``'labeled'`` the label names.
    """
    if format not in ("text", "latex"):
        raise ValueError(f"unknown format {format!r}")
    if naming not in ("langreth", "hacek", "labeled"):
        raise ValueError(f"unknown naming {naming!r}")
    return _signed_sum((t.sign, _render_term(t, format, naming)) for t in expr.terms)
