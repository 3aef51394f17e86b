"""Core model: dice, sources, witnesses, strategies, and exact sampling.

A source type is a pair (faces, dice): a finite face alphabet together
with a finite set of probability distributions ("dice") over it.  An
adversary generates a sequence by picking, before each sample, one die as
a function of the faces seen so far.

Everything in this module is exact: probabilities and witness values are
arbitrary-precision rationals (`fractions.Fraction`), and all moments are
computed without rounding.  The only floating point anywhere is absent
even from sampling — the inverse-CDF draw compares an integer uniform
64-bit variate against the integers ceil(cum * 2^64) of the exact
rational cumulative probabilities.

All types are immutable values and all operations are pure functions,
so everything here is safe for unrestricted concurrent use.  The one
cache is a tree strategy's table of the nodes it has walked, which only
grows, one dict operation at a time.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, repeat
from math import lcm
from random import Random
from typing import Callable, Iterable, Sequence

from .errors import DimensionError, SpecFormatError, StrategyError

__all__ = [
    "Die",
    "History",
    "SourceSpec",
    "Strategy",
    "ValidationReport",
    "Violation",
    "Witness",
    "WitnessKind",
    "die_mean",
    "die_var",
    "rat",
    "rat_str",
    "sample_sequence",
    "support",
    "validate_source",
]

#: A history prefix: the face indices observed so far.
History = tuple[int, ...]


def rat(value) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts Fractions, ints, and strings ("3/4", "0.25", "2"); rejects
    binary floats outright since they silently corrupt exactness, and
    booleans, which are ints to Python but not numbers in a source.
    """
    if isinstance(value, float):
        raise SpecFormatError(
            f"refusing float {value!r}: use a 'p/q' or decimal string for exact input"
        )
    if isinstance(value, bool):
        raise SpecFormatError(f"refusing boolean {value!r}: a rational is an int or a string")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"cannot parse rational from {value!r}") from exc
    raise SpecFormatError(f"cannot build a rational from {type(value).__name__}")


def rat_str(x: Fraction) -> str:
    """Exact text of a rational: "p/q", or "p" for an integer; ``rat`` reads it back."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


@dataclass(frozen=True)
class Die:
    """One die: an exact probability distribution over the face alphabet."""

    probs: tuple[Fraction, ...]

    def __init__(self, probs: Iterable) -> None:
        object.__setattr__(self, "probs", tuple(rat(p) for p in probs))

    @property
    def arity(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class SourceSpec:
    """A source type: face labels plus the set of dice over those faces.

    Construction enforces only the structural basics (at least one face
    and one die, unique labels); the numeric invariants are checked by
    :func:`validate_source`, which reports violations instead of raising
    so that callers can show all of them at once.
    """

    face_labels: tuple[str, ...]
    dice: tuple[Die, ...]

    def __init__(self, face_labels: Iterable[str], dice: Iterable) -> None:
        labels = tuple(str(f) for f in face_labels)
        if not labels:
            raise ValueError("a source needs at least one face")
        if len(set(labels)) != len(labels):
            raise ValueError("face labels must be unique")
        ds = tuple(d if isinstance(d, Die) else Die(d) for d in dice)
        if not ds:
            raise ValueError("a source needs at least one die")
        object.__setattr__(self, "face_labels", labels)
        object.__setattr__(self, "dice", ds)

    @property
    def num_faces(self) -> int:
        return len(self.face_labels)

    @property
    def num_dice(self) -> int:
        return len(self.dice)

    def to_json(self) -> str:
        doc = {
            "faces": list(self.face_labels),
            "dice": [[rat_str(p) for p in d.probs] for d in self.dice],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SourceSpec":
        doc = _read_json(text, "source", _reject_float)
        if not isinstance(doc, dict) or "faces" not in doc or "dice" not in doc:
            raise SpecFormatError('source JSON must be {"faces": [...], "dice": [[...], ...]}')
        faces, dice = doc["faces"], doc["dice"]
        if not isinstance(faces, list):
            raise SpecFormatError(f'"faces" must be an array of labels, got {json.dumps(faces)}')
        if not isinstance(dice, list):
            raise SpecFormatError(f'"dice" must be an array of arrays, got {json.dumps(dice)}')
        for i, row in enumerate(dice):
            if not isinstance(row, list):
                raise SpecFormatError(f"die {i} must be an array, got {json.dumps(row)}")
        try:
            return cls(faces, [Die(row) for row in dice])
        except (TypeError, ValueError) as exc:
            raise SpecFormatError(str(exc)) from exc


def _reject_float(text: str) -> Fraction:
    raise SpecFormatError(
        f"bare float {text} in JSON: quote it as a decimal or 'p/q' string"
    )


def _read_json(text: str, what: str, parse_float: Callable | None = None):
    """Parse one input document (a source, strategy tree or extractor
    table): text that is not JSON, or that nests deeper than the parser's
    recursion limit, raises SpecFormatError naming ``what``."""
    try:
        return json.loads(text, parse_float=parse_float)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"bad {what} JSON: {exc}") from exc
    except RecursionError:
        raise SpecFormatError(f"bad {what} JSON: nested too deep to parse") from None


class WitnessKind(Enum):
    NK = "NK"
    NK_PLUS = "NK_PLUS"
    HNK_SUBSET = "HNK_SUBSET"
    MVR = "MVR"
    MVD = "MVD"


@dataclass(frozen=True)
class Witness:
    """A face function psi certifying one of the structural conditions.

    Values are exact rationals in [-1, 1].  ``epsilon`` is the parameter
    the witness was built for (ratio/divergence kinds) and
    ``min_variance`` the exact minimum of Var_d[psi] over the dice, when
    it was computed.
    """

    values: tuple[Fraction, ...]
    kind: WitnessKind
    epsilon: Fraction | None = None
    min_variance: Fraction | None = None

    def __init__(self, values, kind, epsilon=None, min_variance=None):
        vals = tuple(rat(v) for v in values)
        if any(abs(v) > 1 for v in vals):
            raise ValueError("witness values must lie in [-1, 1]")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "kind", WitnessKind(kind))
        object.__setattr__(self, "epsilon", None if epsilon is None else rat(epsilon))
        object.__setattr__(
            self, "min_variance", None if min_variance is None else rat(min_variance)
        )

    def __len__(self) -> int:
        return len(self.values)

    def to_jsonable(self) -> dict:
        doc: dict = {
            "values": [rat_str(v) for v in self.values],
            "kind": self.kind.value,
        }
        if self.epsilon is not None:
            doc["epsilon"] = rat_str(self.epsilon)
        if self.min_variance is not None:
            doc["min_variance"] = rat_str(self.min_variance)
        return doc


def _values_of(psi) -> tuple[Fraction, ...]:
    if isinstance(psi, Witness):
        return psi.values
    return tuple(rat(v) for v in psi)


def _integer_rows(rows: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """(L, [[x * L for x in row] for row in rows]): rational rows as
    integers over the lcm L of all their denominators."""
    scale = lcm(*[x.denominator for row in rows for x in row])
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _scaled_terms(die: Die, psi) -> tuple[list[int], list[int], int, int]:
    """(P*p for each probability p, V*v for each value v, P, V) in
    integers, where P and V are the lcms of the probabilities' and the
    values' denominators."""
    values = _values_of(psi)
    if len(values) != die.arity:
        raise DimensionError(f"witness has {len(values)} values, die has {die.arity} faces")
    p_scale, (probs,) = _integer_rows((die.probs,))
    v_scale, (vals,) = _integer_rows((values,))
    return probs, vals, p_scale, v_scale


def die_mean(die: Die, psi) -> Fraction:
    """Exact expectation of psi under the die's distribution."""
    probs, vals, p_scale, v_scale = _scaled_terms(die, psi)
    return Fraction(sum(p * v for p, v in zip(probs, vals)), p_scale * v_scale)


def die_var(die: Die, psi) -> Fraction:
    """Exact variance of psi under the die's distribution.

    One pass in integers: with S1 = sum P*p * V*v and S2 = sum P*p * (V*v)^2,
    the variance S2/(P V^2) - (S1/(P V))^2 is (P*S2 - S1^2) / (P V)^2.
    """
    probs, vals, p_scale, v_scale = _scaled_terms(die, psi)
    first = second = 0
    for p, v in zip(probs, vals):
        pv = p * v
        first += pv
        second += pv * v
    return Fraction(p_scale * second - first * first, (p_scale * v_scale) ** 2)


def support(die: Die) -> frozenset[int]:
    """The faces to which the die assigns strictly positive probability."""
    return frozenset(f for f, p in enumerate(die.probs) if p > 0)


@dataclass(frozen=True)
class Violation:
    code: str  # NEGATIVE_PROB | SUM_NOT_ONE | ORPHAN_FACE | ARITY_MISMATCH
    die: int | None
    face: int | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate_source(spec: SourceSpec) -> ValidationReport:
    """Check the numeric source invariants, reporting every violation.

    A valid source has same-arity dice with nonnegative entries summing to
    exactly one, and assigns every face positive probability under at
    least one die.
    """
    bad: list[Violation] = []
    nfaces = spec.num_faces
    for i, die in enumerate(spec.dice):
        if die.arity != nfaces:
            bad.append(
                Violation("ARITY_MISMATCH", i, None,
                          f"die {i} has {die.arity} entries for {nfaces} faces")
            )
            continue
        for f, p in enumerate(die.probs):
            if p < 0:
                bad.append(
                    Violation("NEGATIVE_PROB", i, f, f"die {i} gives face {f} probability {p}")
                )
        total = sum(die.probs)
        if total != 1:
            bad.append(Violation("SUM_NOT_ONE", i, None, f"die {i} sums to {total}"))
    matched = [d for d in spec.dice if d.arity == nfaces]
    for f in range(nfaces):
        if not any(d.probs[f] > 0 for d in matched):
            bad.append(
                Violation("ORPHAN_FACE", None, f,
                          f"face {f} ({spec.face_labels[f]!r}) has no supporting die")
            )
    return ValidationReport(tuple(bad))


def _same(state, _face):
    """The step of a one-state machine: a constant strategy's."""
    return state


def _extend(history: History, face: int) -> History:
    """The step of a callback strategy, whose state is its history."""
    return history + (face,)


class _TreeFault(Exception):
    """A fault a tree strategy's machine meets.  The machine does not
    know the history it is asked at, so its caller names it:
    ``at(history)`` is the StrategyError to raise."""

    def __init__(self, head: str, tail: str = ""):
        super().__init__(head, tail)
        self.head, self.tail = head, tail

    def at(self, history: Sequence[int]) -> StrategyError:
        return StrategyError(f"{self.head}{tuple(history)}{self.tail}")


class Strategy:
    """An adaptive adversary: a deterministic state machine (init, step, die).

    The die played after a history is ``die(state)``, where ``state`` is
    what the history's faces step ``init`` to, one ``step(state, face)``
    per face.  Samplers and the oracle step a strategy only between
    draws, never past the last face.  States must be hashable, and equal
    states must play alike from there on: the oracle keeps one
    probability per distinct (strategy state, table state) pair.  The
    kinds, and what a step costs:

    * ``Strategy.constant(k)`` has one state;
    * ``Strategy.from_tree`` steps a node pointer in O(1), so nodes that
      parents share are one state;
    * the oracle's policies step (depth, extractor state index) in O(1);
    * ``Strategy(callback)`` keeps the history as its state and plays
      ``callback(history)``.  Each step copies the history, so n steps
      cost O(n^2).  Determinism (same history, same die) is part of the
      contract for callbacks.

    ``Strategy(die, description, init, step)`` builds any other machine.
    """

    def __init__(self, die: Callable, description: str = "strategy", init=(),
                 step: Callable = _extend):
        self.init, self.step, self.die = init, step, die
        self.description = description

    def choose(self, history: Sequence[int]) -> int:
        """The die played after ``history``."""
        history = tuple(history)
        try:
            # a callback's state is its history and a constant's is init:
            # no fold, which would make one Python call per face
            if self.step is _extend:
                state = history
            elif self.step is _same:
                state = self.init
            else:
                state = reduce(self.step, history, self.init)
            return self.die(state)
        except _TreeFault as fault:
            raise fault.at(history) from None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Strategy({self.description})"

    @classmethod
    def constant(cls, die_index: int) -> "Strategy":
        return cls(lambda _state: die_index, f"constant:{die_index}", 0, _same)

    @classmethod
    def from_tree(cls, tree: dict, face_labels: Sequence[str]) -> "Strategy":
        """Build a strategy from its explicit tree form.

        A node is ``{"die": k, "children": {face_label: node}}``; nodes at
        the padded depth carry no die.  A state is a node pointer: the id
        of a node, which a table of the nodes walked so far keeps alive
        and unique.  Walking past the tree, a node that is not an object,
        or a die that is not an ``int`` (booleans refused, as :func:`rat`
        refuses them) raises StrategyError naming the history.  Treat
        the tree as read-only once it is wrapped.
        """
        labels = list(face_labels)
        nodes = {id(tree): tree}
        not_an_object = ("strategy tree walk to history ", " meets a node that is not an object")

        def step(node_id: int, face: int) -> int:
            try:
                children = nodes[node_id].get("children", {})
                key = labels[face]
                if key not in children:
                    raise _TreeFault("strategy tree has no branch for history ")
                child = children[key]
            except (AttributeError, TypeError):  # a node or its children is not an object
                raise _TreeFault(*not_an_object) from None
            nodes.setdefault(id(child), child)
            return id(child)

        def die(node_id: int) -> int:
            node = nodes[node_id]
            try:
                if "die" not in node:
                    raise _TreeFault("strategy tree has no die at history ")
                die_index = node["die"]
            except (AttributeError, TypeError):
                raise _TreeFault(*not_an_object) from None
            if type(die_index) is not int:
                raise _TreeFault(f"strategy tree die {die_index!r} at history ",
                                 " is not an integer")
            return die_index

        return cls(die, "tree", id(tree), step)

    def to_tree(self, spec: SourceSpec, n: int) -> dict:
        """Materialize the explicit depth-``n`` tree over ``spec``'s faces.

        Histories are asked in depth-first order, with an explicit stack.
        """
        labels = spec.face_labels
        tree: dict = {}
        stack = [((), tree)]
        while stack:
            history, node = stack.pop()
            if len(history) == n:
                continue
            node["die"] = self.choose(history)
            children = node["children"] = {label: {} for label in labels}
            stack.extend(
                (history + (f,), children[labels[f]]) for f in reversed(range(len(labels)))
            )
        return tree


def _check_die(die_index, ndice: int) -> None:
    """Raise StrategyError unless a strategy's choice names one of the dice
    (an ``int``: booleans refused, as :func:`rat` refuses them)."""
    if type(die_index) is not int or not 0 <= die_index < ndice:
        raise StrategyError(f"strategy chose die {die_index!r}, have {ndice} dice")


def _thresholds(die: Die) -> tuple[list[int], Fraction]:
    """(T, mass): T_f = ceil(cum_f * 2^64) for the die's cumulative masses
    cum_f, as running maxima, and the die's total mass.

    The first f with u < T_f is the first with u < max(T_0..T_f), so the
    running maxima change no draw; they keep T sorted for bisection when
    a negative entry (outside the validated contract) lowers a cum_f.
    """
    thresholds = []
    cum = Fraction(0)
    for p in die.probs:
        cum += p
        thresholds.append(-((-cum.numerator << 64) // cum.denominator))
    return list(accumulate(thresholds, max)), cum


def _short_mass(die_index: int, mass: Fraction) -> ValueError:
    return ValueError(f"die {die_index} is not a distribution (mass {mass} < 1)")


def sample_sequence(spec: SourceSpec, strategy: Strategy, n: int, seed: int) -> tuple[int, ...]:
    """Draw ``n`` faces from the source under ``strategy``, reproducibly.

    Each step draws one uniform 64-bit integer u (``getrandbits(64)``,
    one call per face, in order) from a generator seeded with ``seed``
    and inverts the chosen die's exact cumulative distribution against
    it: the face is the first f with u < T_f, where T_f =
    ceil(cum_f * 2^64) is computed once per die, and is found by
    ``bisect_right(T, u)``.  For an integer u, u < T_f is exactly
    u/2^64 < cum_f, so the sampled path is a deterministic function of
    (spec, strategy, n, seed) with exactly the die's probabilities at
    2^-64 granularity.  The strategy's machine is stepped with each face
    before the next die is read, so a tree strategy costs O(1) per face.
    A constant strategy (``Strategy.constant``) has one state: its die
    is read once and its faces are bisected over the mapped stream of
    draws.

    Raises ValueError for a negative ``n`` or ``seed`` (``Random`` seeds
    with |seed|, so a negative seed would repeat the positive one's
    faces) and for a draw past the last threshold of a die whose mass is
    below one, and StrategyError for a choice that names no die.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    draws = map(Random(seed).getrandbits, repeat(64, n))
    ndice = spec.num_dice
    if strategy.step is _same and n:  # n = 0 reads no die, as for any other strategy
        fixed = strategy.die(strategy.init)
        _check_die(fixed, ndice)
        thresholds, mass = _thresholds(spec.dice[fixed])
        faces = list(map(partial(bisect_right, thresholds), draws))
        if mass != 1 and len(thresholds) in faces:
            raise _short_mass(fixed, mass)
        return tuple(faces)
    step, die = strategy.step, strategy.die
    state = strategy.init
    cdfs: dict[int, tuple[list[int], Fraction]] = {}  # die -> (thresholds, total mass)
    out: list[int] = []
    try:
        for draw in draws:
            if out:
                state = step(state, out[-1])
            die_index = die(state)
            cdf = cdfs.get(die_index) if type(die_index) is int else None
            if cdf is None:
                _check_die(die_index, ndice)
                cdf = cdfs[die_index] = _thresholds(spec.dice[die_index])
            face = bisect_right(cdf[0], draw)
            if face == len(cdf[0]):
                raise _short_mass(die_index, cdf[1])
            out.append(face)
    except _TreeFault as fault:
        raise fault.at(out) from None
    return tuple(out)
