"""Independent verifiers for compiled real-time rules.

Two oracles, deliberately sharing nothing with the compiler's reduction
strategy:

* a symbolic one that splits every contour integral over the branches,
  reduces each branch configuration with plain component calculus, and
  cancels -- the result is a normal form over total orderings of the real
  time labels;
* a numeric one that evaluates both sides of a rule on a shared discrete
  contour.  Forward and backward branches use the same real nodes, so all
  the cancellation lemmas hold node-by-node and agreement is limited only
  by floating-point rounding, not quadrature error.

Ties between distinct time labels would break the step-function algebra;
grids are built tie-free and configurations placing two internals on the
same real node are excluded from both sides alike.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .compiler import BFunc, component_of_product, derive_rule
from .engine import expand_retarded
from .ir import (
    EXTENDED,
    ContourEquation,
    ContourError,
    Factor,
    Mats,
    Plain,
    RealTimeExpression,
    RealTimeTerm,
    SubFunction,
    SuperIndex,
)

FWD, BWD, MAT = "F", "B", "M"


class GridTieError(ContourError):
    """Two distinct time labels coincide on the discrete contour."""


class UnknownComponent(ContourError):
    pass


class NotFullyExpanded(ContourError):
    pass


# ---------------------------------------------------------------------------
# symbolic normal form


def _chain_holds(chain: Sequence[str], pos: dict[str, int]) -> bool:
    return all(pos[chain[i]] < pos[chain[i + 1]] for i in range(len(chain) - 1))


def _plain_factor(func: SubFunction, mats: Iterable[str], word: Iterable[str]) -> Factor:
    items = tuple(Plain(l) for l in word)
    mats = tuple(sorted(mats))
    if mats:
        items = (Mats(mats),) + items
    return Factor(func, SuperIndex(items))


def normal_form(expr: RealTimeExpression, eq: ContourEquation) -> Counter:
    """Expand to the common basis: one key per (Matsubara placement, total
    ordering of the real labels, plain component factors)."""
    known = {f.name for f in eq.product}
    nf: Counter = Counter()
    for term in expr.terms:
        m_placed: set[str] = set()
        for f in term.factors:
            if f.func.name not in known:
                raise NotFullyExpanded(f"factor {f} does not belong to {eq.lhs_name}")
            m_placed.update(str(l) for l in f.index.mats_labels())
        m_placed |= set(term.imag_integrals)
        real_labels = sorted(
            (set(eq.labels()) - m_placed - set(eq.internal)) | set(term.real_integrals)
        )
        expansions = []
        for f in term.factors:
            ex = expand_retarded(f.index)
            expansions.append(
                (f.func, tuple(sorted(str(l) for l in f.index.mats_labels())), ex)
            )
        for omega in itertools.permutations(real_labels):
            pos = {l: i for i, l in enumerate(omega)}
            if not all(_chain_holds(c, pos) for c in term.steps):
                continue
            choices = []
            for func, mats, ex in expansions:
                local = [
                    (s, w)
                    for s, chains, w in ex
                    if all(_chain_holds(c, pos) for c in chains)
                ]
                choices.append((func, mats, local))
            for combo in itertools.product(*(l for _, _, l in choices)):
                sign = term.sign
                factors = []
                for (func, mats, _), (s, w) in zip(choices, combo):
                    sign *= s
                    factors.append(_plain_factor(func, mats, w))
                key = (
                    frozenset(m_placed),
                    frozenset(term.imag_integrals),
                    omega,
                    tuple(sorted(factors, key=Factor.sort_key)),
                )
                nf[key] += sign
    return Counter({k: v for k, v in nf.items() if v != 0})


def normal_form_equal(x: RealTimeExpression, y: RealTimeExpression, eq: ContourEquation) -> bool:
    return normal_form(x, eq) == normal_form(y, eq)


# ---------------------------------------------------------------------------
# branch splitting


def _external_placement(word: tuple[str, ...]) -> dict[str, str]:
    """A fixed branch assignment realising the contour order ``word`` for
    every configuration of real external times (supported up to E = 2)."""
    if len(word) == 0:
        return {}
    if len(word) == 1:
        return {word[0]: FWD}
    if len(word) == 2:
        return {word[0]: BWD, word[1]: FWD}
    raise NotImplementedError(
        "branch splitting with more than two horizontal externals needs "
        "region-dependent placements"
    )


def placement_for_times(word: tuple[str, ...], times: dict[str, float]) -> Optional[dict[str, str]]:
    """A branch assignment realising contour order ``word`` at given times.

    The first k labels go backward (needing increasing real times along the
    word) and the rest forward (decreasing); regions admitting no such
    split are not contour-constrained and yield None.
    """
    ts = [times[l] for l in word]
    for k in range(len(word) + 1):
        bwd, fwd = ts[:k], ts[k:]
        if all(bwd[i] < bwd[i + 1] for i in range(len(bwd) - 1)) and all(
            fwd[i] > fwd[i + 1] for i in range(len(fwd) - 1)
        ):
            return {l: (BWD if i < k else FWD) for i, l in enumerate(word)}
    return None


def _contour_word(
    real_order: Sequence[str], branch: dict[str, str]
) -> tuple[str, ...]:
    """Contour-descending order of the real labels.

    ``real_order`` lists labels by descending real time; the backward
    branch is later than the forward one and runs back toward t0.
    """
    bwd = [l for l in real_order if branch[l] == BWD]
    fwd = [l for l in real_order if branch[l] == FWD]
    return tuple(reversed(bwd)) + tuple(fwd)


def branch_split_oracle(eq: ContourEquation, target: SuperIndex) -> RealTimeExpression:
    """Real-time expression for a target, by brute-force branch splitting.

    Every internal is assigned to the forward branch, the backward branch
    (one sign flip each), or the Matsubara branch (extended contour); each
    total ordering of the real labels is treated separately and reduced by
    plain component calculus.  The output is fully expanded and cancelled.
    """
    m_ext = tuple(str(l) for l in target.mats_labels())
    branch_opts = (FWD, BWD) + ((MAT,) if eq.contour == EXTENDED else ())
    nf: Counter = Counter()
    for sign_t, chains_t, ext_word in expand_retarded(target.real_items()):
        placement = _external_placement(ext_word)
        for assign in itertools.product(branch_opts, repeat=len(eq.internal)):
            branch = dict(placement)
            m_labels = list(m_ext)
            for l, b in zip(eq.internal, assign):
                branch[l] = b
                if b == MAT:
                    m_labels.append(l)
            sign_b = (-1) ** sum(1 for b in assign if b == BWD)
            real_labels = sorted(l for l, b in branch.items() if b != MAT)
            imag = frozenset(l for l in eq.internal if branch.get(l) == MAT)
            real_int = frozenset(eq.internal) - imag
            bfuncs: tuple[BFunc, ...] = tuple(
                (f, tuple(l for l in m_labels if l in f.args)) for f in eq.product
            )
            for omega in itertools.permutations(real_labels):
                pos = {l: i for i, l in enumerate(omega)}
                if not all(_chain_holds(c, pos) for c in chains_t):
                    continue
                word = _contour_word(omega, branch)
                factors = component_of_product(bfuncs, word)
                key = (omega, tuple(sorted(factors, key=Factor.sort_key)), real_int, imag)
                nf[key] += sign_t * sign_b
    terms = []
    for (omega, factors, real_int, imag), coeff in sorted(
        nf.items(), key=lambda kv: repr(kv[0])
    ):
        for _ in range(abs(coeff)):
            terms.append(
                RealTimeTerm(
                    1 if coeff > 0 else -1, (omega,), factors, real_int, imag
                )
            )
    return RealTimeExpression(tuple(terms))


def branch_count(eq: ContourEquation) -> int:
    """Integration-domain terms before cancellation: 2**I or 3**I."""
    base = 3 if eq.contour == EXTENDED else 2
    return base ** len(eq.internal)


# ---------------------------------------------------------------------------
# discrete contour and component tables


class DiscreteContour:
    """Shared-node discretisation of the two-branch (plus vertical) contour.

    Forward and backward branches carry the same real nodes with opposite
    integration signs; the vertical branch has unit imaginary extent.  All
    nodes are midpoints shifted by an irrational fraction of the spacing,
    so no two nodes coincide.
    """

    def __init__(self, t0: float = 0.0, t_max: float = 2.0, n_fwd: int = 24,
                 n_bwd: Optional[int] = None, n_mats: Optional[int] = None):
        n_bwd = n_fwd if n_bwd is None else n_bwd
        n_mats = n_fwd if n_mats is None else n_mats
        if n_bwd != n_fwd:
            raise GridTieError(
                "forward and backward branches must share their real nodes"
            )
        if min(n_fwd, n_mats) < 2:
            raise ValueError("grid sizes must be at least 2")
        if not (0.0 <= t0 < t_max):
            raise ValueError("need 0 <= t0 < t_max to keep branch keys disjoint")
        self.t0 = t0
        self.t_max = t_max
        self.n_fwd = n_fwd
        self.n_bwd = n_bwd
        self.n_mats = n_mats
        dt = (t_max - t0) / n_fwd
        shift = math.sqrt(2.0) - 1.0  # irrational, in (0, 1)
        self.real_nodes = t0 + (np.arange(n_fwd) + shift) * dt
        self.real_weights = np.full(n_fwd, dt)
        dm = 1.0 / n_mats
        mshift = math.sqrt(3.0) - 1.0
        self.mats_nodes = (np.arange(n_mats) + mshift) * dm
        self.mats_weights = np.full(n_mats, dm)

    def contour_key(self, branch: str, t):
        """Strictly increasing with contour time; branches never collide."""
        span = self.t_max
        if branch == FWD:
            return np.asarray(t, dtype=float)
        if branch == BWD:
            return 3.0 * span - np.asarray(t, dtype=float)
        return 5.0 * span + np.asarray(t, dtype=float)

    def check_external(self, t: float):
        if np.min(np.abs(self.real_nodes - t)) < 1e-11:
            raise GridTieError(f"external time {t} coincides with a grid node")


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
        # a repeated name is one function: its components are shared
        self.funcs: dict[str, SubFunction] = {}
        for f in eq.product:
            other = self.funcs.setdefault(f.name, f)
            if len(other.args) != len(f.args):
                raise UnknownComponent(
                    f"sub-function {f.name} is used with {len(other.args)} and "
                    f"{len(f.args)} arguments ({other} and {f})"
                )
        # built eagerly for every legal component key, so instances are
        # immutable afterwards and safe to share between workers
        self._coeff_table: dict = {}
        for f in self.funcs.values():
            n = len(f.args)
            for k in range(n + 1):
                for msub in itertools.combinations(range(1, n + 1), k):
                    rest = [p for p in range(1, n + 1) if p not in msub]
                    for perm in itertools.permutations(rest):
                        self._make_coeffs(f.name, frozenset(msub), perm)

    def _make_coeffs(self, fname: str, mset: frozenset, korder: tuple):
        rng = np.random.default_rng(
            _stable_seed(self.seed, fname, tuple(sorted(mset)), korder)
        )
        n_terms = 2
        arity = len(self.funcs[fname].args)
        self._coeff_table[(fname, mset, korder)] = {
            "c": (rng.uniform(-1, 1, n_terms) + 1j * rng.uniform(-1, 1, n_terms)),
            "w": rng.uniform(0.5, 2.0, (n_terms, arity)),
            "p": rng.uniform(0, 2 * np.pi, (n_terms, arity)),
            "wm": rng.uniform(0.5, 2.0, (n_terms, 2)),
            "pm": rng.uniform(0, 2 * np.pi, n_terms),
        }

    def _coeffs(self, fname: str, mset: frozenset, korder: tuple):
        try:
            return self._coeff_table[(fname, mset, korder)]
        except KeyError:
            raise UnknownComponent(
                f"no component {fname} with vertical slots {sorted(mset)} and order {korder}"
            ) from None

    def component(self, fname: str, mset: frozenset, korder: tuple, times: list):
        """Evaluate one component; ``times`` follow the function's own
        argument order (imaginary depths at Matsubara positions)."""
        if fname not in self.funcs:
            raise UnknownComponent(f"no sub-function named {fname}")
        cf = self._coeffs(fname, mset, korder)
        total = 0.0 + 0.0j
        for j in range(len(cf["c"])):
            val = cf["c"][j]
            for i, t in enumerate(times):
                if (i + 1) in mset:
                    continue
                val = val * np.cos(cf["w"][j, i] * np.asarray(t) + cf["p"][j, i])
            if mset:
                s1 = sum(np.asarray(times[i - 1]) for i in mset)
                s2 = sum(np.asarray(times[i - 1]) ** 2 for i in mset)
                val = val * np.cos(cf["wm"][j, 0] * s1 + cf["wm"][j, 1] * s2 + cf["pm"][j])
            total = total + val
        return total


# ---------------------------------------------------------------------------
# numeric evaluation


def _func_value(
    table: ComponentTable,
    func: SubFunction,
    kinds: dict[str, str],
    times: dict[str, object],
    keys: dict[str, object],
):
    """Keldysh-sum lookup of one sub-function on (arrays of) contour points."""
    mset = frozenset(i + 1 for i, a in enumerate(func.args) if kinds[a] == MAT)
    k_idx = [i + 1 for i, a in enumerate(func.args) if kinds[a] != MAT]
    arg_times = [times[a] for a in func.args]
    if not k_idx:
        return table.component(func.name, mset, (), arg_times)
    total = None
    for perm in itertools.permutations(k_idx):
        mask = 1.0
        for x, y in zip(perm, perm[1:]):
            kx = keys[func.args[x - 1]]
            ky = keys[func.args[y - 1]]
            mask = mask * (np.asarray(kx) > np.asarray(ky))
        if len(perm) == 1:
            mask = np.asarray(1.0)
        val = mask * table.component(func.name, mset, perm, arg_times)
        total = val if total is None else total + val
    return total


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
    combination first, each component evaluated with a fixed external
    branch placement.  Returns a complex value (and an absolute-magnitude
    scale when requested).
    """
    m_ext = [str(l) for l in target.mats_labels()]
    for l in set(eq.external) - set(m_ext):
        grid.check_external(external_times[l])
    branch_opts = [FWD, BWD] + ([MAT] if eq.contour == EXTENDED else [])
    total = 0.0 + 0.0j
    scale = 0.0
    by_kinds: dict = {}
    for sign_t, chains_t, ext_word in expand_retarded(target.real_items()):
        ok = all(
            all(
                external_times[c[i]] > external_times[c[i + 1]]
                for i in range(len(c) - 1)
            )
            for c in chains_t
        )
        if not ok:
            continue
        word = tuple(str(l) for l in ext_word)
        if len(word) <= 2:
            placement = _external_placement(word)
        else:
            found = placement_for_times(word, external_times)
            if found is None:
                raise GridTieError(
                    f"contour order {word} is not realisable at these external times"
                )
            placement = found
        if branch_override:
            placement.update(branch_override)
        kinds = {l: MAT for l in m_ext}
        kinds.update(placement)
        times: dict[str, object] = {l: external_times[l] for l in eq.external}
        keys = {
            l: grid.contour_key(kinds[l], external_times[l]) for l in eq.external
        }
        for assign in itertools.product(branch_opts, repeat=len(eq.internal)):
            # sparse axes: each function runs on its own arguments' axes and
            # broadcasts into the full product
            axes = np.meshgrid(
                *[grid.mats_nodes if b == MAT else grid.real_nodes for b in assign],
                indexing="ij",
                sparse=True,
            )
            shape = tuple(grid.n_mats if b == MAT else grid.n_fwd for b in assign) or (1,)
            weight = 1.0
            sign = 1
            for l, b, t in zip(eq.internal, assign, axes):
                kinds[l] = b
                times[l] = t
                keys[l] = grid.contour_key(b, t)
                weight *= grid.mats_weights[0] if b == MAT else grid.real_weights[0]
                if b == BWD:
                    sign = -sign
            phase = (-1j) ** sum(1 for b in assign if b == MAT)
            mask = np.ones(shape, dtype=bool)
            reals = [l for l, b in zip(eq.internal, assign) if b != MAT]
            for x, y in itertools.combinations(reals, 2):
                mask &= times[x] != times[y]
            if truncate_at is not None:
                for l in reals:
                    mask &= times[l] <= truncate_at
            value = np.ones(shape, dtype=complex)
            for f in eq.product:
                # a function's value depends only on its own arguments' kinds
                fkey = (f, tuple(kinds[a] for a in f.args))
                if fkey not in by_kinds:
                    by_kinds[fkey] = _func_value(tables, f, kinds, times, keys)
                value = value * by_kinds[fkey]
            contrib = sign_t * sign * phase * (weight * mask * value).sum()
            total += contrib
            scale += float((weight * mask * np.abs(value)).sum())
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
    side; real integrals run over the shared real nodes, imaginary ones
    over the vertical nodes with the implicit -i per integral."""
    total = 0.0 + 0.0j
    for term in expr.terms:
        reals = sorted(term.real_integrals)
        imags = sorted(term.imag_integrals)
        axes = [grid.real_nodes] * len(reals) + [grid.mats_nodes] * len(imags)
        mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        shape = tuple(len(a) for a in axes) or (1,)
        times: dict[str, object] = dict(external_times)
        for l, t in zip(reals + imags, mesh):
            times[l] = t
        weight = math.prod(
            [grid.real_weights[0]] * len(reals) + [grid.mats_weights[0]] * len(imags)
        )
        mask = np.ones(shape, dtype=bool)
        for x, y in itertools.combinations(reals, 2):
            mask &= np.asarray(times[x]) != np.asarray(times[y])
        value = np.ones(shape, dtype=complex)
        for chain in term.steps:
            for x, y in zip(chain, chain[1:]):
                value = value * (np.asarray(times[x]) > np.asarray(times[y]))
        for factor in term.factors:
            value = value * _factor_value(factor, tables, times)
        phase = term.sign * (-1j) ** len(imags)
        total += phase * (weight * mask * value).sum()
    return total


def _factor_value(factor: Factor, tables: ComponentTable, times: dict):
    func = factor.func
    if func.name not in tables.funcs:
        raise UnknownComponent(f"no table for {func.name}")
    mats = [str(l) for l in factor.index.mats_labels()]
    mset = frozenset(i + 1 for i, a in enumerate(func.args) if a in mats)
    pos = {a: i + 1 for i, a in enumerate(func.args)}
    arg_times = [times[a] for a in func.args]
    total = None
    for sign, chains, word in expand_retarded(factor.index):
        val = complex(sign)
        for chain in chains:
            for x, y in zip(chain, chain[1:]):
                val = val * (np.asarray(times[x]) > np.asarray(times[y]))
        korder = tuple(pos[str(l)] for l in word)
        val = val * tables.component(func.name, mset, korder, arg_times)
        total = val if total is None else total + val
    if total is None:
        total = tables.component(func.name, mset, (), arg_times)
    return total


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
            "max_error": float(self.max_error),
            "passed": bool(self.passed),
            "detail": self.detail,
        }


def _ordering_classes(eq: ContourEquation, target: SuperIndex) -> list[tuple[str, ...]]:
    """Total orders of the horizontal externals on which the target's step
    prefactors can be non-zero and every needed contour order is realisable."""
    m_ext = set(str(l) for l in target.mats_labels())
    k_ext = [l for l in eq.external if l not in m_ext]
    classes = []
    for omega in itertools.permutations(k_ext):
        pos = {l: i for i, l in enumerate(omega)}
        times = {l: float(len(omega) - i) for i, l in enumerate(omega)}
        usable = False
        for _, chains, word in expand_retarded(target.real_items()):
            if not all(_chain_holds(c, pos) for c in chains):
                continue
            w = tuple(str(l) for l in word)
            if len(w) > 2 and placement_for_times(w, times) is None:
                usable = False
                break
            usable = True
        if usable:
            classes.append(omega)
    return classes


# draws of external times before _sample_times gives up; a tie has
# probability zero, so only a broken generator exhausts them
SAMPLE_ATTEMPTS = 100


def _sample_times(
    eq: ContourEquation,
    target: SuperIndex,
    omega: tuple[str, ...],
    grid: DiscreteContour,
    rng: np.random.Generator,
) -> dict[str, float]:
    m_ext = [str(l) for l in target.mats_labels()]
    span = grid.t_max - grid.t0
    lo, hi = grid.t0 + 0.05 * span, grid.t_max - 0.05 * span
    times: dict[str, float] = {}
    for _ in range(SAMPLE_ATTEMPTS):
        draws = np.sort(rng.uniform(lo, hi, len(omega)))[::-1]
        ok = all(
            np.min(np.abs(grid.real_nodes - t)) > 1e-9 for t in draws
        ) and (len(draws) < 2 or np.min(np.abs(np.diff(draws))) > 1e-9)
        if ok:
            break
    else:
        raise GridTieError(
            f"no tie-free external times for ordering {omega} "
            f"in {SAMPLE_ATTEMPTS} draws"
        )
    for l, t in zip(omega, draws):
        times[l] = float(t)
    for l in m_ext:
        times[l] = float(rng.uniform(0.05, 0.95))
    return times


def verify(
    eq: ContourEquation,
    target: SuperIndex,
    target_name: str = "",
    seeds: Sequence[int] = (0, 1, 2),
    grid_size: int = 24,
    tol: float = 1e-8,
    samples_per_class: int = 2,
    rule: Optional[RealTimeExpression] = None,
) -> list[VerifyRecord]:
    """Check one rule symbolically and numerically; failures are records,
    not exceptions."""
    name = target_name or str(target)
    rule = derive_rule(eq, target) if rule is None else rule
    records = []
    sym_detail = ""
    try:
        split = branch_split_oracle(eq, target)
    except NotImplementedError as err:
        split, sym_detail = None, f"symbolic oracle unavailable: {err}"
    sym_ok = split is not None and normal_form_equal(split, rule, eq)
    records.append(
        VerifyRecord(
            eq.lhs_name, name, "symbolic", None, 0.0 if sym_ok else np.inf, sym_ok, sym_detail
        )
    )
    grid = DiscreteContour(n_fwd=grid_size)
    classes = _ordering_classes(eq, target)
    for seed in seeds:
        tables = ComponentTable(eq, seed)
        rng = np.random.default_rng(_stable_seed("verify", seed, eq.lhs_name, name))
        worst = 0.0
        detail = ""
        for omega in classes:
            for _ in range(samples_per_class):
                times = _sample_times(eq, target, omega, grid, rng)
                lhs = evaluate_contour_side(eq, target, tables, grid, times)
                rhs = evaluate_realtime_side(rule, eq, tables, grid, times)
                err = float(abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs))))
                if err > worst:
                    worst = err
                    detail = f"ordering {'>'.join(omega) or '-'}"
        records.append(
            VerifyRecord(eq.lhs_name, name, "numeric", int(seed), worst, worst <= tol, detail)
        )
    return records
