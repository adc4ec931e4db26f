"""The paper's two combinatorial facts, checked on the functions that the
compiler and the oracles run: products of step chains split into shuffles
(``linear_extensions``), and nested commutators, folds of
``commutator_words``, expand into 2**(n-1) signed words whose slices are
the inverses of the reversed-front shuffles."""

import functools
import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contourcalc.combinatorics import commutator_words, linear_extensions


def shuffles(m, k, reversed_front=False):
    """The orders of 1..m that keep 1..k (decreasing with
    ``reversed_front``) and k+1..m in order: the linear extensions of a
    front and a back chain."""
    front = tuple(range(k, 0, -1)) if reversed_front else tuple(range(1, k + 1))
    return linear_extensions(tuple(range(1, m + 1)), (front, tuple(range(k + 1, m + 1))))


def theta_product(front, back, reversed_front=False):
    """Theta(front) * Theta(back) as the single chains of its orders."""
    f = tuple(reversed(front)) if reversed_front else tuple(front)
    return linear_extensions(tuple(dict.fromkeys(f + tuple(back))), (f, back))


def nested_commutator(items):
    """``[items[0], items[1], ..., items[-1]]`` as signed words: the fold
    of ``commutator_words`` that ``engine.expand_retarded`` runs."""
    return functools.reduce(
        lambda words, item: commutator_words(words, [(1, (item,))]),
        items[1:],
        [(1, (items[0],))],
    )


def commutator_slice(items, k):
    """The words of the nested commutator with k items left of the head."""
    return [(s, w) for s, w in nested_commutator(items) if w.index(items[0]) == k]


def slice_formula(items, k):
    """Reference for :func:`commutator_slice`: the C(n-1, k) words with k
    of the other items, in decreasing order, left of the head and the rest,
    increasing, right of it, each with the sign (-1)**k."""
    head, rest = items[0], items[1:]
    out = []
    for left_idx in itertools.combinations(range(len(rest)), k):
        left = tuple(rest[i] for i in reversed(left_idx))
        right = tuple(rest[i] for i in range(len(rest)) if i not in left_idx)
        out.append(((-1) ** k, left + (head,) + right))
    return out


def brute_force_shuffles(m, k, reversed_front):
    """Independent oracle: filter all of S_m by the defining order conditions."""
    out = []
    for image in itertools.permutations(range(1, m + 1)):
        inv = [0] * m
        for i, v in enumerate(image):
            inv[v - 1] = i
        ok = True
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i < j and i <= k and j <= k:
                    want = inv[i - 1] > inv[j - 1] if reversed_front else inv[i - 1] < inv[j - 1]
                    ok &= want
                if i < j and i > k and j > k:
                    ok &= inv[i - 1] < inv[j - 1]
        if ok:
            out.append(image)
    return sorted(out)


def brute_force_shuffle_classes(m):
    """Independent oracle for every class of S_m in one walk over S_m.

    Each permutation joins the classes ``(k, reversed_front)`` whose defining
    conditions it meets: labels ``1..k`` in increasing (or, reversed, in
    decreasing) order of position and labels ``k+1..m`` in increasing order.
    """
    classes = {(k, rev): [] for k in range(m + 1) for rev in (False, True)}
    for image in itertools.permutations(range(1, m + 1)):
        inv = [0] * m
        for i, v in enumerate(image):
            inv[v - 1] = i
        # rises[i]: label i+1 sits before label i+2
        rises = [inv[i] < inv[i + 1] for i in range(m - 1)]
        for k in range(m + 1):
            if not all(rises[k:]):
                continue
            front = rises[: max(k - 1, 0)]
            if all(front):
                classes[k, False].append(image)
            if not any(front):
                classes[k, True].append(image)
    return {key: sorted(images) for key, images in classes.items()}


def test_shuffles_m4_k2():
    got = sorted(shuffles(4, 2))
    assert got == [
        (1, 2, 3, 4),
        (1, 3, 2, 4),
        (1, 3, 4, 2),
        (3, 1, 2, 4),
        (3, 1, 4, 2),
        (3, 4, 1, 2),
    ]


def test_shuffles_k0_identity_only():
    assert shuffles(4, 0) == [(1, 2, 3, 4)]


def test_shuffles_m6_k3_against_brute_force():
    got = sorted(shuffles(6, 3, reversed_front=True))
    assert got == brute_force_shuffles(6, 3, reversed_front=True)
    assert len(got) == 20  # binomial(6,3); not 6!/3!


def test_shuffle_counts_binomial_up_to_8():
    for m in range(0, 9):
        brute = brute_force_shuffle_classes(m)
        for k in range(0, m + 1):
            for rev in (False, True):
                got = shuffles(m, k, rev)
                assert len(got) == math.comb(m, k)
                assert len(set(got)) == len(got)
                assert sorted(got) == brute[k, rev]


def test_theta_product_disjoint_pairs():
    chains = theta_product(("t1", "t2"), ("t3", "t4"))
    assert sorted(chains) == sorted(
        [
            ("t1", "t2", "t3", "t4"),
            ("t1", "t3", "t2", "t4"),
            ("t1", "t3", "t4", "t2"),
            ("t3", "t1", "t2", "t4"),
            ("t3", "t1", "t4", "t2"),
            ("t3", "t4", "t1", "t2"),
        ]
    )


def test_theta_product_singletons():
    assert sorted(theta_product(("t1",), ("t2",))) == [("t1", "t2"), ("t2", "t1")]


def test_theta_product_shared_label():
    # Theta(a,b) * Theta(c,b) = Theta(c,a,b) + Theta(a,c,b)
    assert sorted(theta_product(("a", "b"), ("c", "b"))) == [
        ("a", "c", "b"),
        ("c", "a", "b"),
    ]


def test_theta_product_conflicting_chains_empty():
    assert theta_product(("a", "b"), ("b", "a")) == []


def test_theta_product_duplicate_in_chain_rejected():
    # Theta(a, a) is zero: a chain that repeats a label allows no order
    assert theta_product(("a", "a"), ("b",)) == []


def _theta(chain, values):
    return all(values[chain[i]] > values[chain[i + 1]] for i in range(len(chain) - 1))


def test_theta_product_pointwise_exact():
    # product of the two chains equals the sum of merged chains, exactly,
    # on random tuples of pairwise-distinct times
    rng = np.random.default_rng(42)
    cases = [
        (("a", "b"), ("c", "d"), False),
        (("a", "b", "c"), ("d", "e"), False),
        (("a", "b"), ("c", "b"), False),
        (("a", "b", "c"), ("d", "e"), True),
        (("a",), ("b", "c", "d"), True),
    ]
    for front, back, rev in cases:
        labels = sorted(set(front) | set(back))
        merged = theta_product(front, back, rev)
        f = tuple(reversed(front)) if rev else front
        for _ in range(2000):
            values = dict(zip(labels, rng.uniform(0, 1, len(labels))))
            lhs = _theta(f, values) * _theta(back, values)
            rhs = sum(_theta(c, values) for c in merged)
            assert lhs == rhs


def test_merge_chains_reversed_front_counts():
    for m in range(0, 7):
        for k in range(0, m + 1):
            front = tuple(f"f{i}" for i in range(k))
            back = tuple(f"b{i}" for i in range(m - k))
            assert len(theta_product(front, back, reversed_front=True)) == math.comb(m, k)


def test_nested_commutator_single_item():
    assert nested_commutator(("x",)) == [(1, ("x",))]


def test_nested_commutator_pair():
    assert sorted(nested_commutator(("e", "i"))) == [(-1, ("i", "e")), (1, ("e", "i"))]


def brute_commutator(items):
    """Oracle: expand [..[items[0],items[1]],..] literally over words."""
    terms = {(items[0],): 1}
    for it in items[1:]:
        nxt = {}
        for word, coeff in terms.items():
            nxt[word + (it,)] = nxt.get(word + (it,), 0) + coeff
            nxt[(it,) + word] = nxt.get((it,) + word, 0) - coeff
        terms = nxt
    return terms


def test_nested_commutator_counts_and_balance():
    for n in range(1, 9):
        items = tuple(range(n))
        got = nested_commutator(items)
        assert len(got) == 2 ** (n - 1)
        pos = sum(1 for s, _ in got if s > 0)
        if n >= 2:
            assert pos == len(got) - pos
        oracle = brute_commutator(items)
        mine = {}
        for s, w in got:
            mine[w] = mine.get(w, 0) + s
        assert mine == oracle


def test_commutator_slice_example_k2():
    got = commutator_slice(("x", 1, 2, 3, 4), 2)
    words = sorted(w for _, w in got)
    assert all(s == 1 for s, _ in got)
    assert words == sorted(
        [
            (2, 1, "x", 3, 4),
            (3, 1, "x", 2, 4),
            (4, 1, "x", 2, 3),
            (3, 2, "x", 1, 4),
            (4, 2, "x", 1, 3),
            (4, 3, "x", 1, 2),
        ]
    )


def test_commutator_slice_k0_and_extremes():
    assert commutator_slice(("x", 1, 2), 0) == [(1, ("x", 1, 2))]
    for n in range(2, 7):
        items = tuple(["x"] + list(range(1, n)))
        got = commutator_slice(items, n - 1)
        # oracle: the fully-reversed-left word from the brute expansion
        oracle = {
            w: c for w, c in brute_commutator(items).items() if w.index("x") == n - 1
        }
        assert {w: s for s, w in got} == oracle
        assert got[0][0] == (-1) ** (n - 1)
    # no word has more items left of the head than there are
    assert commutator_slice(("x", 1), 2) == []


def test_slices_partition_commutator():
    for n in range(1, 9):
        items = tuple(["x"] + list(range(1, n)))
        whole = {}
        for s, w in nested_commutator(items):
            whole[w] = whole.get(w, 0) + s
        combined = {}
        for k in range(0, n):
            sl = commutator_slice(items, k)
            assert len(sl) == math.comb(n - 1, k)
            assert all(s == (-1) ** k for s, _ in sl)
            assert sorted(sl, key=str) == sorted(slice_formula(items, k), key=str)
            for s, w in sl:
                combined[w] = combined.get(w, 0) + s
        assert combined == whole


def test_jacobi_identity_formal_words():
    # [[A,B],C] + [[C,A],B] + [[B,C],A] expands to the empty combination
    A, B, C = [(1, ("A",))], [(1, ("B",))], [(1, ("C",))]
    total = {}
    for x, y, z in ((A, B, C), (C, A, B), (B, C, A)):
        words = commutator_words(commutator_words(x, y), z)
        assert len(words) == 4
        for c, w in words:
            total[w] = total.get(w, 0) + c
    assert len(total) == 6 and all(c == 0 for c in total.values())


def _commutator_with_fused(seq, j, inner):
    """Expand the nested commutator of ``seq`` with element j replaced by the
    word combination ``inner``."""

    def expansion(it):
        return inner if it == j else {(it,): 1}

    acc = expansion(seq[0])
    for it in seq[1:]:
        nxt = {}
        ex = expansion(it)
        for word, coeff in acc.items():
            for iw, ic in ex.items():
                nxt[word + iw] = nxt.get(word + iw, 0) + coeff * ic
                nxt[iw + word] = nxt.get(iw + word, 0) - coeff * ic
        acc = nxt
    return acc


def test_insertion_telescoping_identity():
    # [1,..,i,x,i+1,..,n] equals the sum over j <= i of the commutators
    # with [j, x] fused in place of j, verified over formal words
    for n in range(1, 7):
        for i in range(1, n + 1):
            items = list(range(1, i + 1)) + ["x"] + list(range(i + 1, n + 1))
            lhs = {}
            for c, w in nested_commutator(tuple(items)):
                lhs[w] = lhs.get(w, 0) + c
            assert lhs == brute_commutator(tuple(items))
            lhs = {w: c for w, c in lhs.items() if c}
            rhs = {}
            seq = list(range(1, n + 1))
            for j in range(1, i + 1):
                inner = {(j, "x"): 1, ("x", j): -1}
                for w, c in _commutator_with_fused(seq, j, inner).items():
                    rhs[w] = rhs.get(w, 0) + c
            rhs = {w: c for w, c in rhs.items() if c}
            assert lhs == rhs, (n, i)


def test_slices_are_inverses_of_reversed_shuffles():
    # the words with k entries left of the head correspond exactly to the
    # inverses of the reversed-front shuffle class
    for n in range(2, 8):
        for k in range(0, n):
            m = n - 1
            slice_words = [w for _, w in commutator_slice(tuple(["x"] + list(range(1, n))), k)]
            perms = set()
            for w in slice_words:
                seq = [v for v in w if v != "x"]
                perms.add(tuple(seq))
            # the inverse of an order: where each of 1..m stands in it
            inv = {tuple(p.index(v) + 1 for v in range(1, m + 1)) for p in shuffles(m, k, True)}
            assert perms == inv


@given(st.integers(0, 6), st.integers(0, 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_shuffle_count_property(m, k, rev):
    assume(k <= m)
    assert len(shuffles(m, k, rev)) == math.comb(m, k)
