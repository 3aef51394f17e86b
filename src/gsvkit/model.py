"""Core model: dice, sources, witnesses, strategies, and exact sampling.

A source type is a pair (faces, dice): a finite face alphabet together
with a finite set of probability distributions ("dice") over it.  An
adversary generates a sequence by picking, before each sample, one die as
a function of the faces seen so far.

Everything in this module is exact: probabilities and witness values are
arbitrary-precision rationals (`fractions.Fraction`), and all moments are
computed without rounding.  The only floating point anywhere is absent
even from sampling — the inverse-CDF draw compares an integer uniform
64-bit variate against exact rational cumulative probabilities.

All types are immutable values; all operations are pure functions, so
everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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
    binary floats outright since they silently corrupt exactness.
    """
    if isinstance(value, float):
        raise SpecFormatError(
            f"refusing float {value!r}: use a 'p/q' or decimal string for exact input"
        )
    if isinstance(value, (Fraction, int)):
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
        try:
            doc = json.loads(text, parse_float=_reject_float)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"bad source JSON: {exc}") from exc
        if not isinstance(doc, dict) or "faces" not in doc or "dice" not in doc:
            raise SpecFormatError('source JSON must be {"faces": [...], "dice": [[...], ...]}')
        try:
            return cls(doc["faces"], [Die(row) for row in doc["dice"]])
        except (TypeError, ValueError) as exc:
            raise SpecFormatError(str(exc)) from exc


def _reject_float(text: str) -> Fraction:
    raise SpecFormatError(
        f"bare float {text} in JSON: quote it as a decimal or 'p/q' string"
    )


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


def die_mean(die: Die, psi) -> Fraction:
    """Exact expectation of psi under the die's distribution."""
    values = _values_of(psi)
    if len(values) != die.arity:
        raise DimensionError(f"witness has {len(values)} values, die has {die.arity} faces")
    return sum((p * v for p, v in zip(die.probs, values)), Fraction(0))


def die_var(die: Die, psi) -> Fraction:
    """Exact variance of psi under the die's distribution."""
    values = _values_of(psi)
    if len(values) != die.arity:
        raise DimensionError(f"witness has {len(values)} values, die has {die.arity} faces")
    mean = sum((p * v for p, v in zip(die.probs, values)), Fraction(0))
    second = sum((p * v * v for p, v in zip(die.probs, values)), Fraction(0))
    return second - mean * mean


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


class Strategy:
    """An adaptive adversary: a deterministic map from histories to dice.

    Wraps either a callback or an explicit tree.  Determinism (same
    history, same die) is part of the contract for callback strategies;
    tree strategies are deterministic by construction.
    """

    def __init__(self, choose: Callable[[History], int], description: str = "strategy"):
        self._choose = choose
        self.description = description

    def choose(self, history: Sequence[int]) -> int:
        return self._choose(tuple(history))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Strategy({self.description})"

    @classmethod
    def constant(cls, die_index: int) -> "Strategy":
        return cls(lambda _h: die_index, f"constant:{die_index}")

    @classmethod
    def from_tree(cls, tree: dict, face_labels: Sequence[str]) -> "Strategy":
        """Build a strategy from its explicit tree form.

        A node is ``{"die": k, "children": {face_label: node}}``; nodes at
        the padded depth carry no die.  Walking past the tree raises
        StrategyError.
        """
        labels = list(face_labels)

        def choose(history: History) -> int:
            node = tree
            for face in history:
                children = node.get("children", {})
                key = labels[face]
                if key not in children:
                    raise StrategyError(f"strategy tree has no branch for history {history}")
                node = children[key]
            if "die" not in node:
                raise StrategyError(f"strategy tree has no die at history {history}")
            return node["die"]

        return cls(choose, "tree")

    def to_tree(self, spec: SourceSpec, n: int) -> dict:
        """Materialize the explicit depth-``n`` tree over ``spec``'s faces."""

        def build(history: History) -> dict:
            if len(history) == n:
                return {}
            die = self.choose(history)
            children = {
                spec.face_labels[f]: build(history + (f,)) for f in range(spec.num_faces)
            }
            return {"die": die, "children": children}

        return build(())


def sample_sequence(spec: SourceSpec, strategy: Strategy, n: int, seed: int) -> tuple[int, ...]:
    """Draw ``n`` faces from the source under ``strategy``, reproducibly.

    Each step draws a uniform 64-bit integer from a seeded generator and
    inverts the chosen die's exact cumulative distribution against it, so
    the sampled path is a deterministic function of (spec, strategy, n,
    seed) with exactly the die's probabilities at 2^-64 granularity.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = Random(seed)
    ndice = spec.num_dice
    out: list[int] = []
    for _ in range(n):
        die_index = strategy.choose(tuple(out))
        if not isinstance(die_index, int) or not 0 <= die_index < ndice:
            raise StrategyError(f"strategy chose die {die_index!r}, have {ndice} dice")
        die = spec.dice[die_index]
        u = rng.getrandbits(64)
        cum = Fraction(0)
        face = None
        for f, p in enumerate(die.probs):
            cum += p
            # u/2^64 < cum, compared exactly in integers
            if u * cum.denominator < cum.numerator << 64:
                face = f
                break
        if face is None:
            raise ValueError(f"die {die_index} is not a distribution (mass {cum} < 1)")
        out.append(face)
    return tuple(out)
