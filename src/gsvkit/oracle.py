"""Exact worst-case analysis of extractors against adaptive adversaries.

The oracle answers, in exact rational arithmetic, the question every
error bound quantifies over: across *all* adaptive die-picking
strategies, how biased can a given extractor's output get?

* :func:`exact_extremes` — the exact max/min expectation of a +/-1
  extractor and the strategies achieving them.
* :func:`exact_biases` — the exact worst-case bias of a +/-1 extractor
  for a whole list of sample counts n, from one sweep, with no strategy.
* :func:`output_distribution` — exact forward distribution of the
  extractor output under a fixed strategy.
* :func:`exact_multibit_error` — worst-case total-variation distance
  from uniform for multi-bit outputs: the largest, over nonempty proper
  output sets S, of the best strategy's Pr[out in S] minus |S|/2^m,
  one backward induction per S under an explicit guard on the number of
  sets, with exact fixed-strategy evaluation as the fallback.
* :func:`greedy_plus_strategy` — the constructive adversary that turns a
  failure of the mean-variance ratio condition into extractor bias: at
  each node it picks a die whose mean gain on the conditional advantage
  beats epsilon times its variance.

All worst-case questions share one engine.  A node's value depends only
on its depth and the extractor state there, so a forward pass interns the
distinct states of each depth, a backward induction over those layers
takes the max or min die expectation at every state, and one bottom-up
builder makes the strategy trees.  Nodes with equal states share
subtrees: the trees are read-only DAGs that expand to the full |F|^n
trees only when walked or serialised, which gives the same bytes.
Nothing here recurses, tree serialisation included.  The cost guard
counts the game-tree nodes a call visits, equal states once, as it goes.

A bias sweep needs no tree, and a state's value with r steps left does
not depend on n.  So :func:`exact_biases` interns states across depths
instead, in breadth-first order, and one max and one min sweep over
r = 1..N give the value at the initial state for every n <= N.  Both the
layers and the sweep take one die-expectation step, ``_expect``, over a
whole list of states at a time.

The engine computes in integers.  With Q the lcm of the dice
denominators, a die is the integer row P_f = p_f * Q, a value at depth t
is a numerator over Q^(n-t) and a probability at depth t one over Q^t;
the extractor tables step the integer state machines of
:mod:`gsvkit.extractors`.  Each answer becomes one ``Fraction`` at the
root.

Everything is deterministic: die ties resolve to the smallest index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from operator import add, mul
from typing import Callable, Sequence

from .errors import EnumLimitError, NoQualifyingDieError, StrategyError, TreeLimitError
from .extractors import _bit_exp_machine, _naive_machine, _threshold_machine
from .model import (
    SourceSpec,
    Strategy,
    Witness,
    _check_die,
    _integer_rows,
    _TreeFault,
    rat,
    rat_str,
)

__all__ = [
    "BiasReport",
    "ExtractorTable",
    "exact_biases",
    "exact_extremes",
    "exact_multibit_error",
    "greedy_plus_strategy",
    "output_distribution",
]

TREE_GUARD = 10**7  # game-tree nodes one call may visit; equal states count once
DEFAULT_ENUM_GUARD = 10**6

PM_ONE = "pm1"
INDEX = "index"


def _visit(count: int, what: str) -> None:
    """Refuse a call past TREE_GUARD game-tree nodes, read at each check."""
    if count > TREE_GUARD:
        raise TreeLimitError(f"{count} {what}, over the guard {TREE_GUARD}")


def _fold(init, step: Callable, finish: Callable, faces: tuple[int, ...]) -> int:
    return finish(reduce(step, faces, init))


@dataclass(frozen=True)
class ExtractorTable:
    """A deterministic total function from length-n face sequences to
    outputs: +/-1 bits (kind "pm1") or indices in [2^m] (kind "index").

    Every table is a state machine (init, step, finish): the output of a
    sequence is ``finish`` of the state its faces step ``init`` to.  The
    oracle walks these states and interns them per depth (across depths
    in a bias sweep), so they must be hashable, and leaves are never
    folded one by one: streaming extractors never materialize their
    |F|^n output table.

    The threshold, damped-walk and multi-bit tables step the integer
    state machines of :mod:`gsvkit.extractors`, an explicit table steps
    its big-endian prefix index and a constant one a single state.  All
    states at one depth share one scale, so equal walks at equal depth
    are one state, as for the ``Fraction`` steppers.

    :meth:`value` gives the output of a whole sequence, the fold of the
    machine.  ``fn`` is that fold too, derived here; it is a field only
    so that ``dataclasses.replace`` can swap it.
    """

    n: int
    output_kind: str
    out_size: int  # number of possible outputs (2^m for "index")
    init: object
    step: Callable
    finish: Callable
    fn: Callable[[tuple[int, ...]], int] | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.fn is None:
            object.__setattr__(self, "fn", partial(_fold, self.init, self.step, self.finish))

    def value(self, faces: tuple[int, ...]) -> int:
        return _fold(self.init, self.step, self.finish, faces)

    @classmethod
    def constant(cls, n: int, out: int) -> "ExtractorTable":
        if out not in (1, -1):
            raise ValueError(f"output {out!r} is not +1 or -1")
        return cls(n, PM_ONE, 2, 0, lambda s, _f: s, lambda _s: out)

    @classmethod
    def for_threshold(cls, psi: Witness, epsilon, n: int) -> "ExtractorTable":
        return cls(n, PM_ONE, 2, *_threshold_machine(psi, epsilon)[:3])

    @classmethod
    def for_bit_exp(cls, psi: Witness, n: int) -> "ExtractorTable":
        return cls(n, PM_ONE, 2, *_bit_exp_machine(psi)[:3])

    @classmethod
    def for_multibit(cls, psi: Witness, n: int, m: int) -> "ExtractorTable":
        return cls(n, INDEX, 1 << m, *_naive_machine(psi, m)[:3])

    @classmethod
    def from_outputs(cls, n: int, num_faces: int, outputs: Sequence[int]) -> "ExtractorTable":
        """Explicit table; ``outputs`` indexed by the big-endian sequence,
        whose prefix index i steps to i * |F| + f."""
        table = tuple(outputs)
        # rejects n < 0 before |F|^n is formed
        ext = cls(n, PM_ONE, 2, 0, lambda i, f: i * num_faces + f, table.__getitem__)
        # once n passes the count's bit length, |F|^n >= 2^n exceeds it: never form the power
        if (num_faces > 1 and n > len(table).bit_length()) or len(table) != num_faces**n:
            raise ValueError(f"need |F|^n = {num_faces}^{n} outputs, got {len(table)}")
        bad = next((i for i, out in enumerate(table) if out not in (1, -1)), None)
        if bad is not None:
            raise ValueError(f"output {bad} is {table[bad]!r}, not +1 or -1")
        return ext


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
        """``json.dumps(self.to_jsonable(), indent=2) + "\\n"``, written with
        an explicit stack so that trees of any depth serialise."""
        out: list[str] = []
        todo: list = [(self.to_jsonable(), 0)]  # (value, depth) or literal text
        nodes = 0
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            value, depth = item
            if isinstance(value, dict) and depth & 1:  # tree nodes: roots at depth 1, kids 2 below
                nodes += 1
                _visit(nodes, "strategy-tree nodes written")
            if not isinstance(value, dict) or not value:
                out.append(json.dumps(value))
                continue
            pad = "\n" + "  " * (depth + 1)
            todo.append("\n" + "  " * depth + "}")
            items = list(value.items())
            for i in reversed(range(len(items))):
                key, child = items[i]
                todo.append((child, depth + 1))
                todo.append(("," if i else "{") + pad + json.dumps(key) + ": ")
        out.append("\n")
        return "".join(out)


def _layers(ext: ExtractorTable, nfaces: int) -> tuple[list[list[list[int]]], list[int]]:
    """Forward pass over the distinct extractor states of each depth.

    Returns (kids, leaves): ``kids[t][i][f]`` is the index at depth t + 1
    of the state that face f leads to from the i-th state at depth t (the
    initial state is index 0 at depth 0), and ``leaves[i]`` is the output
    at the i-th state at depth n.  Each distinct state steps each face
    once.
    """
    step, finish = ext.step, ext.finish
    faces = range(nfaces)
    layer = [ext.init]
    kids = []
    seen = 1
    for _ in range(ext.n):
        index: dict = {}
        kids.append([[index.setdefault(step(s, f), len(index)) for f in faces] for s in layer])
        layer = list(index)
        seen += len(layer)
        _visit(seen, "game-tree states interned")
    return kids, [finish(s) for s in layer]


def _die_rows(spec: SourceSpec) -> tuple[int, list[list[tuple[int, int]]]]:
    """(Q, rows): Q is the lcm of the dice denominators and ``rows[d]``
    lists (f, P_f) with p_f = P_f / Q for the faces die d can show."""
    q, ints = _integer_rows([die.probs for die in spec.dice])
    return q, [[(f, p) for f, p in enumerate(row) if p] for row in ints]


def _expect(rows, kids, below: list[int], pick) -> tuple[list[int], list[list[int]]]:
    """One induction step over a list of states, a whole layer at a time.

    ``kids[i][f]`` indexes ``below``, the values one step further on, and
    ``rows`` are the dice of :func:`_die_rows`.  Returns (values, sums):
    ``sums[d][i]`` is die d's expectation sum_f P_f * below[kids[i][f]] at
    state i, and ``values[i]`` the ``pick`` (max or min) of those over the
    dice.  The sums are formed face by face over the whole list.
    """
    vals = [list(map(below.__getitem__, col)) for col in zip(*kids)]
    sums = []
    for row in rows:
        (f, p), *rest = row
        acc = list(map(mul, vals[f], repeat(p)))
        for f, p in rest:
            acc = list(map(add, acc, map(mul, vals[f], repeat(p))))
        sums.append(acc)
    return (sums[0] if len(sums) == 1 else list(map(pick, *sums))), sums


def _induct(rows, kids, leaf_values: list[int], pick) -> tuple[list[list[int]], list[list[int]]]:
    """Backward induction over the layers of :func:`_layers`.

    ``rows`` are the dice of :func:`_die_rows` and ``leaf_values`` integers,
    so a value at depth t is a numerator over Q^(n-t), one denominator per
    depth; each layer is one :func:`_expect` step.  Returns (values, dies):
    ``values[t][i]`` for every depth t <= n and ``dies[t][i]``, the first
    die reaching the extreme (ties go to the smallest die), for t < n.
    """
    values = [leaf_values]
    dies = []
    for layer in reversed(kids):
        best, sums = _expect(rows, layer, values[-1], pick)
        values.append(best)
        dies.append([col.index(v) for col, v in zip(zip(*sums), best)])
    values.reverse()
    dies.reverse()
    return values, dies


def _first_history(kids, t: int, i: int) -> tuple[int, ...]:
    """The smallest history reaching the i-th state at depth t of
    :func:`_layers`, read back through the first (parent, face) pointing
    to each state on the way: that pair interned the state."""
    history: tuple[int, ...] = ()
    for layer in reversed(kids[:t]):
        i, f = next((p, f) for p, row in enumerate(layer) for f, k in enumerate(row) if k == i)
        history = (f, *history)
    return history


def _tree(labels: Sequence[str], kids, dies: list[list[int]], nleaves: int) -> dict:
    """The strategy tree playing ``dies[t][i]`` at the i-th state of depth
    t, built bottom-up from the ``nleaves`` leaves.  Nodes with equal
    states share one subtree object, so the tree is a read-only DAG."""
    below: list[dict] = [{}] * nleaves
    for layer, layer_dies in zip(reversed(kids), reversed(dies)):
        below = [
            {"die": die, "children": {labels[f]: below[k] for f, k in enumerate(row)}}
            for row, die in zip(layer, layer_dies)
        ]
    return below[0]


def exact_extremes(spec: SourceSpec, ext: ExtractorTable) -> BiasReport:
    """Exact max/min of E[Ext] over every adaptive strategy.

    Backward induction: a leaf is worth the extractor output; an internal
    node is worth the best (resp. worst) die expectation over its
    children.  Ties pick the smallest die index, so the recorded strategy
    trees are canonical.

    The induction runs once per distinct (depth, state) pair, and nodes
    with equal pairs share subtree objects: the strategy trees are DAGs
    that expand to the full |F|^n trees only when they are walked or
    serialised.  Treat them as read-only.
    """
    if ext.output_kind != PM_ONE:
        raise ValueError("exact_extremes needs a +/-1 extractor")
    labels = spec.face_labels
    q, rows = _die_rows(spec)
    kids, leaves = _layers(ext, spec.num_faces)
    his, hi_dies = _induct(rows, kids, leaves, max)
    los, lo_dies = _induct(rows, kids, leaves, min)
    hi, lo = Fraction(his[0][0], q**ext.n), Fraction(los[0][0], q**ext.n)
    hi_tree = _tree(labels, kids, hi_dies, len(leaves))
    lo_tree = _tree(labels, kids, lo_dies, len(leaves))
    return BiasReport(
        max_expectation=hi,
        min_expectation=lo,
        bias=max(abs(hi), abs(lo)),
        max_strategy=Strategy.from_tree(hi_tree, labels),
        min_strategy=Strategy.from_tree(lo_tree, labels),
        max_tree=hi_tree,
        min_tree=lo_tree,
    )


def _reach(ext: ExtractorTable, nfaces: int, depth: int) -> tuple[list, list[list[int]], list[int]]:
    """Forward pass over the distinct states reachable within ``depth`` steps.

    States are interned across depths in breadth-first order, so the
    states first reached within d steps are ``states[:within[d]]``, a
    prefix.  Returns (states, kids, within): ``kids[i][f]`` is the index
    of the state that face f leads to from ``states[i]``, for the states
    first reached within depth - 1 steps.  Each distinct state steps each
    face at most once.  The pass stops at the first depth that adds no
    state, so ``within`` may end before ``depth``: every later depth
    reaches the same states.

    The guard counts the states interned and, as they grow, the (state,
    steps left) pairs a sweep to ``depth`` takes: the sum over d < depth
    of within[min(d, D)], with D the last depth listed.  So a sweep too
    long for the guard is refused before anything loops once per step.
    """
    step = ext.step
    faces = range(nfaces)
    index = {ext.init: 0}
    states = [ext.init]
    kids: list[list[int]] = []
    within = [1]
    swept = 0  # the pairs of the depths d < len(within) - 1
    while len(within) <= depth and len(kids) < len(states):
        swept += within[-1]
        _visit(swept, "(state, steps left) pairs to sweep")
        frontier = states[len(kids):]
        kids += [[index.setdefault(step(s, f), len(index)) for f in faces] for s in frontier]
        if len(index) > len(states):
            _visit(len(index), "game-tree states interned")
            states = list(index)
        within.append(len(states))
    _visit(swept + (depth + 1 - len(within)) * len(states), "(state, steps left) pairs to sweep")
    return states, kids, within


def exact_biases(spec: SourceSpec, ext: ExtractorTable, ns: Sequence[int]) -> list[Fraction]:
    """Exact worst-case bias max(|max E[Ext]|, |min E[Ext]|) of the
    table's machine run for n steps, for each n in ``ns``, in order.

    Each value equals ``exact_extremes(spec, replace(ext, n=n)).bias``;
    ``ext.n`` itself is not read, and an explicit table answers only at
    its own n.  Every n is checked for n < 0 before any work is done
    (a ``range`` by its ends, so a huge one is not walked); the guard
    then counts the distinct states the sweep interns and the (state,
    steps left) pairs it would take, before any loop over n.

    A state's value with r steps left, W_r(s), does not depend on n: W_0
    is ``finish`` and W_r the max (or min) die expectation of W_(r-1).  So
    one forward pass to N = max(ns) and one max and one min sweep, W_r
    over the states first reached within N - r steps, give W_n(init) / Q^n
    for every n <= N, and no strategy tree is built.
    """
    if ext.output_kind != PM_ONE:
        raise ValueError("exact_biases needs a +/-1 extractor")
    ends = (ns[0], ns[-1]) if isinstance(ns, range) and ns else ns
    if min(ends, default=0) < 0:
        raise ValueError("n must be nonnegative")
    top = max(ends, default=0)
    q, rows = _die_rows(spec)
    states, kids, within = _reach(ext, spec.num_faces, top)
    leaves = [ext.finish(s) for s in states]
    last = len(within) - 1

    def roots(pick) -> list[int]:
        # roots(pick)[r] = W_r(init), a numerator over Q^r
        values, out = leaves, [leaves[0]]
        for r in range(1, top + 1):
            values, _sums = _expect(rows, kids[: within[min(top - r, last)]], values, pick)
            out.append(values[0])
        return out

    his, los = roots(max), roots(min)
    return [Fraction(max(abs(his[n]), abs(los[n])), q**n) for n in ns]


def _no_state(_state, _face) -> None:
    """The strategy step past the last face, where no die is read."""
    return None


def output_distribution(
    spec: SourceSpec, strategy: Strategy, ext: ExtractorTable
) -> dict[int, Fraction]:
    """Exact distribution of Ext under the strategy; probabilities sum to 1.

    One forward pass keeps one probability per distinct (strategy state,
    table state) pair of each depth, and reads the strategy's die once
    per pair.  So histories that reach equal pairs merge: a constant
    strategy costs one pair per table state, and a tree strategy's shared
    subtrees (the oracle's DAGs) stay shared.  Zero-probability faces are
    pruned, and the strategy is not stepped past the last face.  A
    probability at depth t is an integer numerator over Q^t (Q as in
    :func:`_die_rows`).  Pairs, and so the outputs, come in the order of
    their first sequence, as a depth-first walk over the histories gives
    them.  The guard counts the pairs reached.

    A StrategyError is the one that walk would meet first, at the least
    failing history in tuple order: on that path only,
    :func:`_first_fault` walks again to find it.
    """
    step, finish = ext.step, ext.finish
    q, rows = _die_rows(spec)
    pushes = [[(f, p) for f, p in row if p > 0] for row in rows]
    ndice = len(pushes)
    die = strategy.die
    layer = {(strategy.init, ext.init): 1}
    seen = 1
    try:
        for t in range(ext.n):
            walk = strategy.step if t + 1 < ext.n else _no_state
            layer, pairs = {}, layer
            for (state, x), prob in pairs.items():
                die_index = die(state)
                _check_die(die_index, ndice)
                for f, p in pushes[die_index]:
                    kid = (walk(state, f), step(x, f))
                    layer[kid] = layer.get(kid, 0) + prob * p
            seen += len(layer)
            _visit(seen, "game-tree states reached")
    except (StrategyError, _TreeFault):
        _first_fault(strategy, ext, pushes)
        raise
    dist: dict[int, int] = {}
    for (_state, x), prob in layer.items():
        out = finish(x)
        dist[out] = dist.get(out, 0) + prob
    scale = q**ext.n
    return {out: Fraction(prob, scale) for out, prob in dist.items()}


def _first_fault(strategy: Strategy, ext: ExtractorTable, pushes) -> None:
    """Raise the strategy fault a depth-first walk over the histories
    meets first, naming its history.

    The walk keeps the history on its way down but visits each distinct
    (depth, strategy state, table state) node once: a node met again was
    walked in full before without a fault.  Returns if it meets none.
    """
    step, die = strategy.step, strategy.die
    ndice = len(pushes)
    walked: set = set()
    path: list[int] = []
    stack = [(0, 0, None, ext.init)]  # (depth, face into it, parent's strategy state, table state)
    while stack:
        t, face, parent, x = stack.pop()
        if t:
            del path[t - 1:]
            path.append(face)
        try:
            state = step(parent, face) if t else strategy.init
            if (t, state, x) in walked:
                continue
            walked.add((t, state, x))
            _visit(len(walked), "game-tree states reached")
            die_index = die(state)
        except _TreeFault as fault:
            raise fault.at(path) from None
        _check_die(die_index, ndice)
        if t + 1 < ext.n:
            stack.extend((t + 1, f, state, ext.step(x, f)) for f, _p in reversed(pushes[die_index]))


def expectation(dist: dict[int, Fraction]) -> Fraction:
    return sum((Fraction(out) * p for out, p in dist.items()), Fraction(0))


def _tv_from_uniform(dist: dict[int, Fraction], out_size: int) -> Fraction:
    u = Fraction(1, out_size)
    seen = sum(abs(p - u) for p in dist.values())
    missing = (out_size - len(dist)) * u
    return (seen + missing) / 2


def exact_multibit_error(
    spec: SourceSpec, ext: ExtractorTable, strategy: Strategy | None = None
) -> Fraction:
    """Total-variation distance of the output from uniform.

    With ``strategy`` given: the exact distance under that strategy.
    Without: the exact worst case over all strategies.  The distance is
    the largest Pr[out in S] - |S|/2^m over output sets S, so the worst
    case is the largest, over nonempty proper S, of a max backward
    induction on the leaf values 1[out in S], minus |S|/2^m.  Raises
    EnumLimitError when the 2^(2^m) - 2 sets exceed DEFAULT_ENUM_GUARD;
    callers then fall back to fixed-strategy mode.
    """
    if ext.output_kind != INDEX:
        raise ValueError("exact_multibit_error needs an index-output extractor")
    if strategy is not None:
        return _tv_from_uniform(output_distribution(spec, strategy, ext), ext.out_size)
    if (1 << ext.out_size) - 2 > DEFAULT_ENUM_GUARD:
        raise EnumLimitError(
            f"2^{ext.out_size} - 2 output sets exceed the guard {DEFAULT_ENUM_GUARD}"
        )
    q, rows = _die_rows(spec)
    kids, leaves = _layers(ext, spec.num_faces)
    scale = q**ext.n
    # Pr[out in S] - |S|/2^m as a numerator over 2^m * Q^n
    worst = 0
    for s in range(1, (1 << ext.out_size) - 1):
        values, _dies = _induct(rows, kids, [s >> out & 1 for out in leaves], max)
        worst = max(worst, values[0][0] * ext.out_size - s.bit_count() * scale)
    return Fraction(worst, ext.out_size * scale)


def greedy_plus_strategy(spec: SourceSpec, ext: ExtractorTable, epsilon) -> Strategy:
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

    The guaranteed values come from one min induction on 0/1 leaves and
    the die is picked once per distinct (depth, state) pair; the returned
    strategy's tree shares the subtrees of equal pairs and is read-only.
    An error names the first failing history in depth-first order, as a
    walk over every history would.
    """
    if ext.output_kind != PM_ONE:
        raise ValueError("greedy_plus_strategy needs a +/-1 extractor")
    eps = rat(epsilon)
    e_num, e_den = eps.numerator, eps.denominator
    labels = spec.face_labels
    q, rows = _die_rows(spec)
    masses = [sum(p for _f, p in row) for row in rows]
    kids, leaves = _layers(ext, spec.num_faces)
    adv, _dies = _induct(rows, kids, [1 if out == 1 else 0 for out in leaves], min)

    def gain_die(a: int, kid_adv: list[int], r: int) -> int | None:
        # The gain inequality with alpha = a / (Q*r) and alpha(f) = A_f / r,
        # multiplied through by e_den * Q^2 * r^2 > 0.
        for i, row in enumerate(rows):
            m1 = sum([p * kid_adv[f] for f, p in row])
            m2 = sum([p * kid_adv[f] ** 2 for f, p in row])
            if e_den * r * (q * m1 - a * masses[i]) >= e_num * (q * m2 - m1 * m1):
                return i
        return None

    dies = []
    for t, layer in enumerate(kids):
        here, below, r = adv[t], adv[t + 1], q ** (ext.n - t - 1)
        dies.append([gain_die(here[i], [below[k] for k in kid], r) for i, kid in enumerate(layer)])
    # A layer numbers its states in the order of their smallest histories,
    # so the least failing history in tuple order (depth-first order) is
    # the least of each failing layer's first failing state's smallest one.
    failing = [(t, layer.index(None)) for t, layer in enumerate(dies) if None in layer]
    if failing:
        history = min(_first_history(kids, t, i) for t, i in failing)
        raise NoQualifyingDieError(f"no die satisfies the gain inequality at history {history}")
    strategy = Strategy.from_tree(_tree(labels, kids, dies, len(leaves)), labels)
    strategy.description = "greedy-plus"
    return strategy
