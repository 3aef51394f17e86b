"""Exact worst-case analysis of extractors against adaptive adversaries.

The oracle answers, in exact rational arithmetic, the question every
error bound quantifies over: across *all* adaptive die-picking
strategies, how biased can a given extractor's output get?

* :func:`exact_extremes` — backward induction over the depth-n game,
  yielding the exact max/min expectation of a +/-1 extractor and the
  strategies achieving them.
* :func:`output_distribution` — exact forward distribution of the
  extractor output under a fixed strategy.
* :func:`exact_multibit_error` — worst-case total-variation distance
  from uniform for multi-bit outputs.  This is not a single backward
  induction (the adversary optimizes a maximum of 2^m signed sums), so
  the worst case is found by enumerating strategy trees under an explicit
  guard, with exact fixed-strategy evaluation as the fallback.
* :func:`greedy_plus_strategy` — the constructive adversary that turns a
  failure of the mean-variance ratio condition into extractor bias: at
  each node it picks a die whose mean gain on the conditional advantage
  beats epsilon times its variance.

A node's value depends only on its depth and the extractor state there,
so for tables with a stepper :func:`exact_extremes` and
:func:`greedy_plus_strategy` run the induction once per distinct (depth,
state) pair rather than once per history.  Their strategy trees share the
subtrees of equal pairs: they are read-only DAGs that expand to the full
|F|^n trees only when walked or serialised, which gives the same bytes.
Tables without a stepper are keyed on the history.

Everything is deterministic: die ties resolve to the smallest index.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .errors import EnumLimitError, NoQualifyingDieError, TreeLimitError
from .extractors import (
    BitExpState,
    MultiBitState,
    ThresholdState,
    bit_exp_step,
    bit_extract_exp,
    multibit_extract_naive,
    multibit_step_naive,
    threshold_bound_m,
    threshold_extract,
    threshold_step,
)
from .model import SourceSpec, Strategy, Witness, rat, rat_str

__all__ = [
    "BiasReport",
    "ExtractorTable",
    "exact_extremes",
    "exact_multibit_error",
    "greedy_plus_strategy",
    "output_distribution",
    "tree_guard",
]

DEFAULT_TREE_GUARD = 10**8
DEFAULT_ENUM_GUARD = 10**6

PM_ONE = "pm1"
INDEX = "index"


def tree_guard() -> int:
    """The |F|^n cost guard; overridable via GSV_TREE_GUARD."""
    raw = os.environ.get("GSV_TREE_GUARD")
    return int(raw) if raw else DEFAULT_TREE_GUARD


@dataclass(frozen=True)
class ExtractorTable:
    """A deterministic total function from length-n face sequences to
    outputs: +/-1 bits (kind "pm1") or indices in [2^m] (kind "index").

    Leaves are evaluated lazily per sequence, so streaming extractors
    never materialize their |F|^n output table.  Extractors that are
    state machines additionally expose (init, step, finish); tree walks
    thread that state down shared prefixes, which changes nothing about
    the outputs but avoids refolding every leaf from scratch.  States
    must be hashable: the backward inductions memoise on them.
    """

    n: int
    output_kind: str
    fn: Callable[[tuple[int, ...]], int]
    out_size: int = 2  # number of possible outputs (2^m for "index")
    init: object = None
    step: Callable | None = None
    finish: Callable | None = None

    def value(self, faces: tuple[int, ...]) -> int:
        return self.fn(faces)

    @classmethod
    def constant(cls, n: int, out: int) -> "ExtractorTable":
        return cls(n, PM_ONE, lambda _f: out)

    @classmethod
    def for_threshold(cls, psi: Witness, epsilon, n: int) -> "ExtractorTable":
        eps = rat(epsilon)
        values = psi.values
        return cls(
            n,
            PM_ONE,
            lambda faces: threshold_extract(psi, eps, faces),
            init=ThresholdState.initial(threshold_bound_m(eps)),
            step=lambda st, f: threshold_step(st, values[f]),
            finish=lambda st: 1 if st.z >= 0 else -1,
        )

    @classmethod
    def for_bit_exp(cls, psi: Witness, n: int) -> "ExtractorTable":
        values = psi.values
        return cls(
            n,
            PM_ONE,
            lambda faces: bit_extract_exp(psi, faces),
            init=BitExpState(),
            step=lambda st, f: bit_exp_step(st, values[f]),
            finish=lambda st: 1 if st.z >= 0 else -1,
        )

    @classmethod
    def for_multibit(cls, psi: Witness, n: int, m: int) -> "ExtractorTable":
        values = psi.values
        return cls(
            n,
            INDEX,
            lambda faces: int(multibit_extract_naive(psi, faces, m), 2),
            out_size=1 << m,
            init=MultiBitState.initial(m),
            step=lambda st, f: multibit_step_naive(st, values[f]),
            finish=lambda st: st.winner(),
        )

    @classmethod
    def from_outputs(cls, n: int, num_faces: int, outputs: Sequence[int]) -> "ExtractorTable":
        """Explicit table; ``outputs`` indexed by the big-endian sequence."""
        if len(outputs) != num_faces**n:
            raise ValueError(f"need {num_faces**n} outputs for n={n}, |F|={num_faces}")
        table = tuple(outputs)

        def fn(faces: tuple[int, ...]) -> int:
            idx = 0
            for f in faces:
                idx = idx * num_faces + f
            return table[idx]

        return cls(n, PM_ONE, fn)


@dataclass(frozen=True)
class BiasReport:
    """Exact extremes of E[Ext] over all strategies, with the achievers."""

    max_expectation: Fraction
    min_expectation: Fraction
    bias: Fraction
    max_strategy: Strategy
    min_strategy: Strategy
    max_tree: dict
    min_tree: dict

    def to_jsonable(self) -> dict:
        return {
            "max_expectation": rat_str(self.max_expectation),
            "min_expectation": rat_str(self.min_expectation),
            "bias": rat_str(self.bias),
            "max_strategy": self.max_tree,
            "min_strategy": self.min_tree,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2) + "\n"


def _check_tree_guard(spec: SourceSpec, n: int, guard: int | None) -> None:
    limit = tree_guard() if guard is None else guard
    if spec.num_faces**n > limit:
        raise TreeLimitError(f"|F|^n = {spec.num_faces}^{n} exceeds the guard {limit}")


def _node_key(ext: ExtractorTable) -> Callable[[tuple[int, ...], object], object]:
    """The memo key of a game-tree node.

    A node's value depends only on its depth and the extractor state
    there, so tables with a stepper key on (depth, state) and equal
    states share one backward induction.  Tables without a stepper have
    nothing but the history to go on.
    """
    if ext.step is not None:
        return lambda history, state: (len(history), state)
    return lambda history, _state: history


def _leaf_output(ext: ExtractorTable, history: tuple[int, ...], state) -> int:
    return ext.finish(state) if ext.step is not None else ext.value(history)


def _child_states(ext: ExtractorTable, state, nfaces: int) -> list:
    if ext.step is None:
        return [None] * nfaces
    return [ext.step(state, f) for f in range(nfaces)]


def exact_extremes(spec: SourceSpec, ext: ExtractorTable, guard: int | None = None) -> BiasReport:
    """Exact max/min of E[Ext] over every adaptive strategy.

    Backward induction: a leaf is worth the extractor output; an internal
    node is worth the best (resp. worst) die expectation over its
    children.  Ties pick the smallest die index, so the recorded strategy
    trees are canonical.

    With a stepper the induction runs once per distinct (depth, state)
    pair, and nodes with equal pairs return the same subtree objects: the
    strategy trees are DAGs that expand to the full |F|^n trees only when
    they are walked or serialised.  Treat them as read-only.
    """
    if ext.output_kind != PM_ONE:
        raise ValueError("exact_extremes needs a +/-1 extractor")
    _check_tree_guard(spec, ext.n, guard)
    labels = spec.face_labels
    nfaces = spec.num_faces
    key = _node_key(ext)
    memo: dict = {}

    def walk(history: tuple[int, ...], state):
        node = key(history, state)
        got = memo.get(node)
        if got is not None:
            return got
        if len(history) == ext.n:
            leaf = Fraction(_leaf_output(ext, history, state))
            got = leaf, leaf, {}, {}
        else:
            kids = [
                walk(history + (f,), child)
                for f, child in enumerate(_child_states(ext, state, nfaces))
            ]
            best_hi = best_lo = None
            die_hi = die_lo = 0
            for i, die in enumerate(spec.dice):
                hi = sum((p * k[0] for p, k in zip(die.probs, kids)), Fraction(0))
                lo = sum((p * k[1] for p, k in zip(die.probs, kids)), Fraction(0))
                if best_hi is None or hi > best_hi:
                    best_hi, die_hi = hi, i
                if best_lo is None or lo < best_lo:
                    best_lo, die_lo = lo, i
            hi_tree = {"die": die_hi, "children": {labels[f]: kids[f][2] for f in range(nfaces)}}
            lo_tree = {"die": die_lo, "children": {labels[f]: kids[f][3] for f in range(nfaces)}}
            got = best_hi, best_lo, hi_tree, lo_tree
        memo[node] = got
        return got

    hi, lo, hi_tree, lo_tree = walk((), ext.init)
    return BiasReport(
        max_expectation=hi,
        min_expectation=lo,
        bias=max(abs(hi), abs(lo)),
        max_strategy=Strategy.from_tree(hi_tree, labels),
        min_strategy=Strategy.from_tree(lo_tree, labels),
        max_tree=hi_tree,
        min_tree=lo_tree,
    )


def output_distribution(
    spec: SourceSpec, strategy: Strategy, ext: ExtractorTable, guard: int | None = None
) -> dict[int, Fraction]:
    """Exact distribution of Ext under the strategy; probabilities sum to 1.

    Zero-probability branches are pruned, so point-mass dice cost no more
    than the sequences they can actually produce.
    """
    _check_tree_guard(spec, ext.n, guard)
    dist: dict[int, Fraction] = {}
    streamed = ext.step is not None

    def walk(history: tuple[int, ...], prob: Fraction, state=ext.init) -> None:
        if len(history) == ext.n:
            out = _leaf_output(ext, history, state)
            dist[out] = dist.get(out, Fraction(0)) + prob
            return
        die = spec.dice[strategy.choose(history)]
        for f, p in enumerate(die.probs):
            if p > 0:
                walk(history + (f,), prob * p, ext.step(state, f) if streamed else None)

    walk((), Fraction(1))
    return dist


def expectation(dist: dict[int, Fraction]) -> Fraction:
    return sum((Fraction(out) * p for out, p in dist.items()), Fraction(0))


def _tv_from_uniform(dist: dict[int, Fraction], out_size: int) -> Fraction:
    u = Fraction(1, out_size)
    seen = sum(abs(p - u) for p in dist.values())
    missing = (out_size - len(dist)) * u
    return (seen + missing) / 2


def _all_histories(nfaces: int, n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    level: list[tuple[int, ...]] = [()]
    for _ in range(n - 1):
        level = [h + (f,) for h in level for f in range(nfaces)]
        out.extend(level)
    return out


def exact_multibit_error(
    spec: SourceSpec,
    ext: ExtractorTable,
    strategy: Strategy | None = None,
    enum_guard: int = DEFAULT_ENUM_GUARD,
    guard: int | None = None,
) -> Fraction:
    """Total-variation distance of the output from uniform.

    With ``strategy`` given: the exact distance under that strategy.
    Without: the exact worst case over all strategies, by enumerating
    every strategy tree (|D|^(number of internal nodes) of them); raises
    EnumLimitError when that exceeds ``enum_guard`` — callers then fall
    back to fixed-strategy mode.
    """
    if ext.output_kind != INDEX:
        raise ValueError("exact_multibit_error needs an index-output extractor")
    if strategy is not None:
        return _tv_from_uniform(output_distribution(spec, strategy, ext, guard), ext.out_size)
    nodes = _all_histories(spec.num_faces, ext.n)
    ndice = spec.num_dice
    if ndice ** len(nodes) > enum_guard:
        raise EnumLimitError(
            f"{ndice}^{len(nodes)} strategy trees exceed the guard {enum_guard}"
        )
    worst = Fraction(0)
    for assignment in product(range(ndice), repeat=len(nodes)):
        table = dict(zip(nodes, assignment))
        strat = Strategy(lambda h, t=table: t[h], "enumerated")
        tv = _tv_from_uniform(output_distribution(spec, strat, ext, guard), ext.out_size)
        if tv > worst:
            worst = tv
    return worst


def greedy_plus_strategy(
    spec: SourceSpec, ext: ExtractorTable, epsilon, guard: int | None = None
) -> Strategy:
    """The bias-amplifying adversary built from a ratio-condition failure.

    Advantage is measured on the [0, 1] scale alpha = Pr[Ext = +1].  At
    each node, with alpha(f) the guaranteed (min over continuations)
    advantage after seeing f and alpha the node's own guaranteed value,
    the first die satisfying

        E_d[alpha(F) - alpha] >= epsilon * Var_d[alpha(F)]

    is chosen.  Such a die exists at every node when the source fails the
    ratio condition at ``epsilon``; if none qualifies somewhere, the
    precondition was violated and NoQualifyingDieError is raised.  The
    strategy's exact advantage then exceeds the guaranteed value by at
    least (eps/(1+eps)) * alpha * (1 - alpha).

    Both the guaranteed values and the tree are computed once per
    distinct (depth, state) pair when the table has a stepper; the
    returned strategy's tree shares those subtrees and is read-only.  The
    walk is depth-first in history order, so an error names the first
    failing history, as a walk over every history would.
    """
    if ext.output_kind != PM_ONE:
        raise ValueError("greedy_plus_strategy needs a +/-1 extractor")
    eps = rat(epsilon)
    _check_tree_guard(spec, ext.n, guard)
    labels = spec.face_labels
    nfaces = spec.num_faces

    key = _node_key(ext)
    # node key -> (guaranteed advantage, child states)
    adv: dict = {}

    def min_adv(history: tuple[int, ...], state) -> Fraction:
        node = key(history, state)
        got = adv.get(node)
        if got is None:
            if len(history) == ext.n:
                out = Fraction(1) if _leaf_output(ext, history, state) == 1 else Fraction(0)
                got = out, ()
            else:
                children = _child_states(ext, state, nfaces)
                kids = [min_adv(history + (f,), child) for f, child in enumerate(children)]
                out = min(
                    sum((p * a for p, a in zip(die.probs, kids)), Fraction(0))
                    for die in spec.dice
                )
                got = out, children
            adv[node] = got
        return got[0]

    built: dict = {}

    def build(history: tuple[int, ...], state) -> dict:
        if len(history) == ext.n:
            return {}
        node = key(history, state)
        got = built.get(node)
        if got is not None:
            return got
        alpha, children = adv[node]
        alphas = [adv[key(history + (f,), child)][0] for f, child in enumerate(children)]
        chosen = None
        for i, die in enumerate(spec.dice):
            mean = sum((p * a for p, a in zip(die.probs, alphas)), Fraction(0))
            mean_gap = mean - alpha * sum(die.probs)
            second = sum((p * a * a for p, a in zip(die.probs, alphas)), Fraction(0))
            var = second - mean * mean
            if mean_gap >= eps * var:
                chosen = i
                break
        if chosen is None:
            raise NoQualifyingDieError(
                f"no die satisfies the gain inequality at history {history}"
            )
        got = {
            "die": chosen,
            "children": {
                labels[f]: build(history + (f,), child) for f, child in enumerate(children)
            },
        }
        built[node] = got
        return got

    min_adv((), ext.init)
    tree = build((), ext.init)
    strategy = Strategy.from_tree(tree, labels)
    strategy.description = "greedy-plus"
    return strategy
