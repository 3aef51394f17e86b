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
  one backward induction per S, with exact fixed-strategy evaluation as
  the fallback when the sets are too many.
* :func:`greedy_plus_strategy` — the constructive adversary that turns a
  failure of the mean-variance ratio condition into extractor bias: at
  each node it picks a die whose mean gain on the conditional advantage
  beats epsilon times its variance.

All worst-case questions share one engine.  A state's value with r steps
left, W_r, does not depend on the depth: W_0 is the output and W_r the
max (or min) die expectation of W_(r-1).  One forward pass, ``_reach``,
interns the distinct states across depths, and a sweep over r takes one
die-expectation step, ``_expect``, over a list of states at a time: the
states reachable in exactly n - r steps for a game of n steps, or those
first reached within N - r steps for a bias sweep to N, which reads
W_r(init) for every n <= N.  Worst-case and greedy strategies are
policies: a die table per depth over the same states, expanded to the
|F|^n tree only when walked or serialised, with the same bytes.  Nothing
here recurses, tree serialisation included.  TREE_GUARD bounds each pass
by the game-tree nodes it visits, equal states once, counted where it
runs: states interned, a bias sweep's (state, steps left) pairs, a game's
(depth, state) pairs (times the output sets for the multi-bit worst
case), an output distribution's pairs and a report's written nodes.

The engine computes in integers.  With Q the lcm of the dice
denominators, a die is the integer row P_f = p_f * Q, a value with r
steps left is a numerator over Q^r and a probability at depth t one over
Q^t; the extractor tables step the integer state machines of
:mod:`gsvkit.extractors`.  Each answer becomes one ``Fraction`` at the
root.

Everything is deterministic: die ties resolve to the smallest index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, repeat
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

PM_ONE = "pm1"
INDEX = "index"


def _visit(count: int, what: str, error: type = TreeLimitError) -> None:
    """Refuse a call past TREE_GUARD game-tree nodes, read at each check."""
    if count > TREE_GUARD:
        raise error(f"{count} {what}, over the guard {TREE_GUARD}")


def _fold(init, step: Callable, finish: Callable, faces: tuple[int, ...]) -> int:
    return finish(reduce(step, faces, init))


@dataclass(frozen=True)
class ExtractorTable:
    """A deterministic total function from length-n face sequences to
    outputs: +/-1 bits (kind "pm1") or indices in [2^m] (kind "index").

    Every table is a state machine (init, step, finish): the output of a
    sequence is ``finish`` of the state its faces step ``init`` to.  The
    oracle walks these states and interns them across depths, so they
    must be hashable, and leaves are never folded one by one: streaming
    extractors never materialize their |F|^n output table.

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
    """Exact extremes of E[Ext] over all strategies, with the achievers,
    which play n faces labelled ``face_labels``."""

    max_expectation: Fraction
    min_expectation: Fraction
    bias: Fraction
    max_strategy: Strategy
    min_strategy: Strategy
    face_labels: tuple[str, ...]
    n: int

    def to_json(self) -> str:
        """The report as ``json.dumps(..., indent=2) + "\\n"`` writes it, each
        strategy as its depth-n tree (:meth:`Strategy.to_tree`), expanded
        as it is written with an explicit stack: no tree is held."""
        keys = [json.dumps(label) for label in self.face_labels]
        out = [f'{{\n  "max_expectation": "{rat_str(self.max_expectation)}",\n'
               f'  "min_expectation": "{rat_str(self.min_expectation)}",\n'
               f'  "bias": "{rat_str(self.bias)}"']
        nodes = 0
        for key, strategy in (("max_strategy", self.max_strategy),
                              ("min_strategy", self.min_strategy)):
            todo: list = [(0, strategy.init), f',\n  "{key}": ']  # (depth, state) or text
            while todo:
                item = todo.pop()
                if isinstance(item, str):
                    out.append(item)
                    continue
                t, state = item
                nodes += 1
                _visit(nodes, "strategy-tree nodes written")
                if t == self.n:
                    out.append("{}")
                    continue
                pad = "\n" + "  " * (2 * t + 2)
                out.append(f'{{{pad}"die": {json.dumps(strategy.die(state))},{pad}"children": {{')
                todo.append(f"{pad}}}\n{'  ' * (2 * t + 1)}}}")
                for f in reversed(range(len(keys))):
                    todo.append((t + 1, strategy.step(state, f) if t + 1 < self.n else None))
                    todo.append(("," if f else "") + pad + "  " + keys[f] + ": ")
        return "".join(out) + "\n}\n"


def _die_rows(spec: SourceSpec) -> tuple[int, list[list[tuple[int, int]]]]:
    """(Q, rows): Q is the lcm of the dice denominators and ``rows[d]``
    lists (f, P_f) with p_f = P_f / Q for the faces die d can show."""
    q, ints = _integer_rows([die.probs for die in spec.dice])
    return q, [[(f, p) for f, p in enumerate(row) if p] for row in ints]


def _expect(rows, kids, below: list[int], pick) -> tuple[list[int], list[list[int]]]:
    """One induction step over a list of states.

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


def _reach(ext: ExtractorTable, nfaces: int, depth: int) -> tuple[list, list[list[int]], list[int]]:
    """Forward pass over the distinct states reachable within ``depth`` steps.

    States are interned across depths in breadth-first order, so the
    states first reached within d steps are the first within[d], a
    prefix.  Returns (outs, kids, within): ``outs[i]`` is ``finish`` of the
    i-th state and ``kids[i][f]`` the index of the state face f leads to
    from it, for the states first reached within depth - 1 steps.  Each
    distinct state steps each face at most once.  The pass stops at the
    first depth that adds no state, so ``within`` may end before
    ``depth``: every later depth reaches the same states.  The guard
    counts the states interned; each caller counts its own sweep.
    """
    step = ext.step
    faces = range(nfaces)
    index = {ext.init: 0}
    states = [ext.init]
    kids: list[list[int]] = []
    within = [1]
    while len(within) <= depth and len(kids) < len(states):
        frontier = states[len(kids):]
        kids += [[index.setdefault(step(s, f), len(index)) for f in faces] for s in frontier]
        if len(index) > len(states):
            _visit(len(index), "game-tree states interned")
            states = list(index)
        within.append(len(states))
    return list(map(ext.finish, states)), kids, within


def _sweep(rows, kids, values: list[int], swept, pick):
    """Backward induction over the states of :func:`_reach`, in place:
    ``values`` holds W_0 and ``swept`` lists, for r = 1, 2, ..., the state
    indices ``here`` whose W_r is needed.  Each step yields (here, W_r
    there, the die sums) of one :func:`_expect` while ``values`` still
    holds W_(r-1), then writes W_r into it.  W_r is a numerator over Q^r."""
    for here in swept:
        new, sums = _expect(rows, list(map(kids.__getitem__, here)), values, pick)
        yield here, new, sums
        for i, value in zip(here, new):
            values[i] = value


def _game(spec: SourceSpec, ext: ExtractorTable):
    """(Q, rows, outs, kids, depths) for a game of n = ``ext.n`` steps:
    :func:`_die_rows`, :func:`_reach`, and ``depths[t]`` the indices of the
    states reachable in exactly t steps, t < n, read from the kids.  A game
    sweeps those (depth, state) pairs, at least one per depth, so n past
    the guard is refused first; the guard then counts them as listed."""
    n = ext.n
    _visit(n, "game steps to sweep")
    q, rows = _die_rows(spec)
    outs, kids, _within = _reach(ext, spec.num_faces, n)
    depths = [[0]][:n]
    pairs = len(depths)
    while len(depths) < n:
        depths.append(list(set(chain.from_iterable(map(kids.__getitem__, depths[-1])))))
        pairs += len(depths[-1])
        _visit(pairs, "(depth, state) pairs to sweep")
    return q, rows, outs, kids, depths


def _die_table(here: list[int], picked) -> list[int | None]:
    """The die table of one depth: ``picked`` lists the dies of the state
    indices ``here``; the other entries are never read."""
    table = [None] * (max(here) + 1)
    for i, die in zip(here, picked):
        table[i] = die
    return table


def _policy(kids, dies: list[list[int | None]], description: str) -> Strategy:
    """A policy: the strategy playing ``dies[t][i]`` at the i-th state of
    :func:`_reach` at depth t < len(dies).  Its state is (t, i), a step
    looks the next index up in ``kids``, and past the last die it fails
    as a depth-n tree would.  It expands to that tree only when walked."""
    n = len(dies)

    def die(state: tuple[int, int]) -> int:
        t, i = state
        if t < n:
            return dies[t][i]
        raise _TreeFault("strategy tree has no die at history ")

    def step(state: tuple[int, int], face: int) -> tuple[int, int]:
        t, i = state
        if t < n:
            return t + 1, kids[i][face]
        raise _TreeFault("strategy tree has no branch for history ")

    return Strategy(die, description, (0, 0), step)


def exact_extremes(spec: SourceSpec, ext: ExtractorTable) -> BiasReport:
    """Exact max/min of E[Ext] over every adaptive strategy.

    Backward induction: a leaf is worth the extractor output; an internal
    node is worth the best (resp. worst) die expectation over its
    children.  Ties pick the smallest die index, so the recorded strategy
    trees are canonical.

    One max and one min sweep over the distinct states give the values,
    and the strategies are policies (:func:`_policy`).
    """
    if ext.output_kind != PM_ONE:
        raise ValueError("exact_extremes needs a +/-1 extractor")
    n = ext.n
    q, rows, leaves, kids, depths = _game(spec, ext)

    def extreme(pick) -> tuple[Fraction, Strategy]:
        values, dies = leaves[:], []
        for here, new, sums in _sweep(rows, kids, values, reversed(depths), pick):
            # the first die whose expectation is the value, at each state here
            dies.append(_die_table(here, map(tuple.index, zip(*sums), new)))
        dies.reverse()
        return Fraction(values[0], q**n), _policy(kids, dies, "worst-case")

    (hi, hi_strategy), (lo, lo_strategy) = extreme(max), extreme(min)
    return BiasReport(hi, lo, max(abs(hi), abs(lo)), hi_strategy, lo_strategy,
                      spec.face_labels, n)


def exact_biases(spec: SourceSpec, ext: ExtractorTable, ns: Sequence[int]) -> list[Fraction]:
    """Exact worst-case bias max(|max E[Ext]|, |min E[Ext]|) of the
    table's machine run for n steps, for each n in ``ns``, in order.

    Each value equals ``exact_extremes(spec, replace(ext, n=n)).bias``;
    ``ext.n`` itself is not read, and an explicit table answers only at
    its own n.  Every n is checked for n < 0 before any work is done
    (a ``range`` by its ends, so a huge one is not walked); the guard
    then counts the distinct states the forward pass interns, and next
    the (state, steps left) pairs the sweep takes, before any loop over n.

    One forward pass to N = max(ns) and one max and one min sweep give
    W_n(init) / Q^n for every n <= N, and no strategy is built.
    """
    if ext.output_kind != PM_ONE:
        raise ValueError("exact_biases needs a +/-1 extractor")
    ends = (ns[0], ns[-1]) if isinstance(ns, range) and ns else ns
    if min(ends, default=0) < 0:
        raise ValueError("n must be nonnegative")
    top = max(ends, default=0)
    q, rows = _die_rows(spec)
    leaves, kids, within = _reach(ext, spec.num_faces, top)
    last = len(within) - 1  # <= top; the sweep takes sum_{d < top} within[min(d, last)] pairs
    _visit(sum(within[:last]) + (top - last) * within[last], "(state, steps left) pairs to sweep")

    def roots(pick) -> list[int]:
        # roots(pick)[r] = W_r(init), a numerator over Q^r, from W_r over
        # the states first reached within top - r steps, a prefix
        swept = (range(within[min(top - r, last)]) for r in range(1, top + 1))
        return [leaves[0], *(new[0] for _h, new, _s in _sweep(rows, kids, leaves[:], swept, pick))]

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
    strategy costs one pair per table state, and a policy's (depth, state)
    pairs and a tree's shared subtrees stay shared.  Zero-probability faces
    are pruned, and the strategy is not stepped past the last face.  A
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
    induction on the leaf values 1[out in S], minus |S|/2^m.  When the
    2^(2^m) - 2 sets (checked before the forward pass), times the (depth,
    state) pairs of one sweep, pass TREE_GUARD it raises EnumLimitError;
    callers then fall back to fixed-strategy mode.
    """
    if ext.output_kind != INDEX:
        raise ValueError("exact_multibit_error needs an index-output extractor")
    if strategy is not None:
        return _tv_from_uniform(output_distribution(spec, strategy, ext), ext.out_size)
    sets = (1 << ext.out_size) - 2
    _visit(sets, "output sets to sweep", EnumLimitError)
    q, rows, outs, kids, depths = _game(spec, ext)
    what = f"(depth, state) pairs to sweep for {sets} output sets"
    _visit(sets * sum(map(len, depths)), what, EnumLimitError)
    scale = q**ext.n
    # Pr[out in S] - |S|/2^m as a numerator over 2^m * Q^n
    worst = 0
    for s in range(1, sets + 1):
        values = [s >> out & 1 for out in outs]
        for _step in _sweep(rows, kids, values, reversed(depths), max):
            pass
        worst = max(worst, values[0] * ext.out_size - s.bit_count() * scale)
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

    The guaranteed values come from one min sweep on 0/1 leaves, and the
    strategy is a policy (:func:`_policy`).  An error names the first
    failing history in depth-first order, as a walk over every one would.
    """
    if ext.output_kind != PM_ONE:
        raise ValueError("greedy_plus_strategy needs a +/-1 extractor")
    eps = rat(epsilon)
    e_num, e_den = eps.numerator, eps.denominator
    q, rows, outs, kids, depths = _game(spec, ext)
    masses = [sum(p for _f, p in row) for row in rows]
    values = [1 if out == 1 else 0 for out in outs]

    def gain_die(a: int, kid_adv: list[int], m1s: tuple[int, ...], scale: int) -> int | None:
        # The gain inequality with alpha = a / (Q*scale) and alpha(f) =
        # A_f / scale, multiplied through by e_den * Q^2 * scale^2 > 0;
        # m1 = sum_f P_f * A_f is the die's expectation from the sweep.
        for i, (row, m1) in enumerate(zip(rows, m1s)):
            m2 = sum([p * kid_adv[f] ** 2 for f, p in row])
            if e_den * scale * (q * m1 - a * masses[i]) >= e_num * (q * m2 - m1 * m1):
                return i
        return None

    dies = []
    failing = False
    scale = 1  # Q^(r-1) at r steps left
    for here, adv, sums in _sweep(rows, kids, values, reversed(depths), min):
        picked = [gain_die(a, list(map(values.__getitem__, kids[i])), m1s, scale)
                  for i, a, m1s in zip(here, adv, zip(*sums))]
        failing = failing or None in picked
        dies.append(_die_table(here, picked))
        scale *= q
    dies.reverse()
    if failing:
        history = _least_failing(kids, dies)
        raise NoQualifyingDieError(f"no die satisfies the gain inequality at history {history}")
    return _policy(kids, dies, "greedy-plus")


def _least_failing(kids, dies: list[list[int | None]]) -> tuple[int, ...] | None:
    """The least history in tuple order whose node has no die in ``dies``
    (read as :func:`_policy` reads them): a depth-first walk that visits
    each (depth, state index) node once, as :func:`_first_fault` does."""
    n = len(dies)
    faces = range(len(kids[0]))
    walked: set = set()
    path: list[int] = []
    stack = [(0, 0, 0)]  # (depth, face into it, state index)
    while stack:
        t, face, i = stack.pop()
        if t:
            del path[t - 1:]
            path.append(face)
        if (t, i) in walked:
            continue
        walked.add((t, i))
        if dies[t][i] is None:
            return tuple(path)
        if t + 1 < n:
            stack.extend((t + 1, f, kids[i][f]) for f in reversed(faces))
