"""Deciding the structural conditions of a source type, exactly.

The conditions, in increasing strength:

* NK       — some nonzero psi has zero mean under every die.
* HNK      — NK survives restriction to every die subset (on the faces
             that subset supports).
* NK+      — some psi has zero mean and strictly positive variance under
             every die.

plus the two analytic conditions parameterized by epsilon (and delta):

* MVR(eps)        — |E_d[psi]| <  eps * Var_d[psi]        for all dice
* MVD(eps, delta) — |E_d[psi]| <  eps * (Var_d[psi] - delta)

These categorize a source: NK+ means extraction with exponentially small
error is possible, HNK without NK+ means polynomial error, and failing
HNK means no extraction at all.  Every decision here is exact (rational
arithmetic throughout) and, where the answer is positive, constructive:
the returned witness or certificate can be re-verified independently.

HNK is decided over support unions, not over die subsets.  For a union
U of die supports, let D(U) be every die whose support lies inside U.
HNK fails iff for some U the pmf rows of D(U), restricted to U, have
full column rank: enlarging a failing subset to D(U) keeps its union
and cannot lower the rank.  So the decision costs one rank test per
distinct union, at most min(2^|F|, 2^|D|) - 1 of them, and the die
subsets are walked only to name the certificate once HNK is known to
fail.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product, repeat

from . import linalg
from .errors import EpsilonTooLargeError, NotHnkError, SubsetLimitError
from .model import (
    SourceSpec,
    Witness,
    WitnessKind,
    die_mean,
    die_var,
    rat,
    rat_str,
    support,
)

__all__ = [
    "Category",
    "ClassificationReport",
    "DualCertificate",
    "HnkCertificate",
    "KernelBasis",
    "check_hnk",
    "check_mvd",
    "check_mvr",
    "check_nk",
    "check_nk_plus",
    "classify",
    "dual_certificate",
    "kernel_basis",
    "mvr_witness",
]

SUBSET_GUARD = 24  # check_hnk may enumerate 2^|D| subsets; refuse beyond this


@dataclass(frozen=True)
class KernelBasis:
    """A basis of the space of face functions with zero mean under every die."""

    basis: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class HnkCertificate:
    """A die subset whose supported faces admit no nonzero witness."""

    dice: tuple[int, ...]
    faces: tuple[int, ...]


@dataclass(frozen=True)
class DualCertificate:
    """Duality data for a source failing NK+.

    For the named die, the indicator difference of the face pair
    (f_star, f_low) lies in the span of the dice pmfs with coefficients
    ``beta``, so psi(f_star) - psi(f_low) = sum_d beta[d] * E_d[psi] for
    every face function psi.  ``constant`` is the square of the largest
    sum of |beta| over the support face pairs, the constant appearing in
    the divergence lower bound.
    """

    die: int
    f_star: int
    f_low: int
    beta: tuple[Fraction, ...]
    constant: Fraction


class Category(Enum):
    EXP_ERROR = "EXP_ERROR"
    POLY_ERROR = "POLY_ERROR"
    NON_EXTRACTABLE = "NON_EXTRACTABLE"


def kernel_basis(spec: SourceSpec) -> KernelBasis:
    """Exact basis of the kernel; empty means NK fails."""
    rows = [[Fraction(p) for p in die.probs] for die in spec.dice]
    return KernelBasis(tuple(linalg.nullspace(rows, spec.num_faces)))


def _normalized(values) -> tuple[Fraction, ...]:
    """Rescale so max |psi| = 1 and the extreme value +1 is attained."""
    scale = max(abs(v) for v in values)
    if scale == 0:
        raise ValueError("cannot normalize the zero function")
    vals = tuple(v / scale for v in values)
    if max(vals) < 1:
        vals = tuple(-v for v in vals)
    return vals


def check_nk(spec: SourceSpec) -> tuple[bool, Witness | None]:
    """NK holds iff the kernel is nonzero; the witness is a basis vector."""
    return _nk(kernel_basis(spec).basis)


def _nk(basis) -> tuple[bool, Witness | None]:
    if not basis:
        return False, None
    return True, Witness(_normalized(basis[0]), WitnessKind.NK)


def _nonconstant_on(vec, faces: frozenset[int]) -> bool:
    return len({vec[f] for f in faces}) > 1


def _combine_positive_variance(spec, dice_idx, basis):
    """Combine per-die kernel vectors into one with positive variance
    under every listed die, or return None.

    For each die we need some basis vector that is not constant on its
    support; an integer combination with coefficients from
    {1, ..., |D|+1} then works for some tuple, because for each die at
    most one coefficient choice can collapse the combination to a
    constant once the others are fixed.  The search is deterministic
    (lexicographic with early exit) for reproducibility.
    """
    picks = []
    for d in dice_idx:
        supp = support(spec.dice[d])
        vec = next((b for b in basis if _nonconstant_on(b, supp)), None)
        if vec is None:
            return None
        picks.append(vec)
    coeff_range = range(1, len(dice_idx) + 2)
    nfaces = len(basis[0])
    for coeffs in product(coeff_range, repeat=len(dice_idx)):
        combo = tuple(
            sum(c * vec[f] for c, vec in zip(coeffs, picks)) for f in range(nfaces)
        )
        if all(die_var(spec.dice[d], combo) > 0 for d in dice_idx):
            return _normalized(combo)
    return None  # unreachable by the counting argument; kept for safety


def check_nk_plus(spec: SourceSpec) -> tuple[bool, Witness | None]:
    """NK+ holds iff every die sees a non-constant kernel direction on its
    support; the returned witness has exact zero mean and positive
    variance under every die, with the minimum variance recorded."""
    return _nk_plus(spec, kernel_basis(spec).basis)


def _nk_plus(spec: SourceSpec, basis) -> tuple[bool, Witness | None]:
    if not basis:
        return False, None
    combo = _combine_positive_variance(spec, list(range(spec.num_dice)), basis)
    if combo is None:
        return False, None
    v = min(die_var(d, combo) for d in spec.dice)
    return True, Witness(combo, WitnessKind.NK_PLUS, min_variance=v)


def _restricted_kernel(spec: SourceSpec, dice_idx, faces) -> list[tuple[Fraction, ...]]:
    rows = [[spec.dice[d].probs[f] for f in faces] for d in dice_idx]
    return linalg.nullspace(rows, len(faces))


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(f for f in range(mask.bit_length()) if mask >> f & 1)


def check_hnk(spec: SourceSpec) -> tuple[bool, HnkCertificate | None]:
    """HNK via the closure of die-support unions.

    HNK fails iff some union U of die supports has this property: the
    pmf rows of D(U), every die whose support lies inside U, restricted
    to the faces of U, have full column rank.  Enlarging a die subset to
    D(U) keeps its union and cannot lower the rank, so one rank test per
    distinct union decides HNK.

    When HNK fails, the certificate is the first failing subset by size,
    then lexicographically, with the faces it supports.  A failing
    subset S lies inside D(U(S)), has U(S) failing and |S| >= |U(S)|, so
    the walk visits only such subsets of the failing unions' dice.
    """
    ndice = spec.num_dice
    if ndice > SUBSET_GUARD:
        raise SubsetLimitError(f"{ndice} dice exceed the {SUBSET_GUARD}-die subset guard")
    masks = [sum(1 << f for f in support(die)) for die in spec.dice]
    unions: set[int] = set()
    for m in masks:
        unions |= {m | u for u in unions}
        unions.add(m)
    inside = {u: tuple(d for d, m in enumerate(masks) if m & ~u == 0) for u in unions}
    failing = [
        u for u in unions
        if len(inside[u]) >= u.bit_count() and not _restricted_kernel(spec, inside[u], _bits(u))
    ]
    if not failing:
        return True, None
    # max(1, ...): a die with no positive entry has the empty union
    for size in range(max(1, min(u.bit_count() for u in failing)), ndice + 1):
        pools = [
            zip(combinations(inside[u], size), repeat(u))
            for u in failing
            if u.bit_count() <= size
        ]
        for subset, u in heapq.merge(*pools):
            mask = 0
            for d in subset:
                mask |= masks[d]
            if mask == u and not _restricted_kernel(spec, subset, _bits(u)):
                return False, HnkCertificate(subset, _bits(u))
    raise AssertionError("D(U) of a failing union U is itself a failing subset")


def check_mvr(spec: SourceSpec, psi, epsilon) -> bool:
    """Does |E_d[psi]| < eps * Var_d[psi] hold for every die, exactly?"""
    eps = rat(epsilon)
    return all(abs(die_mean(d, psi)) < eps * die_var(d, psi) for d in spec.dice)


def check_mvd(spec: SourceSpec, psi, epsilon, delta) -> bool:
    """Does |E_d[psi]| < eps * (Var_d[psi] - delta) hold for every die?"""
    eps, dlt = rat(epsilon), rat(delta)
    return all(
        abs(die_mean(d, psi)) < eps * (die_var(d, psi) - dlt) for d in spec.dice
    )


def _ratio_witness_values(spec, faces, dice_idx, eps):
    """Recursive construction of a ratio witness on a sub-source.

    Returns a full-length vector, zero outside ``faces``, satisfying
    |E_d| < eps * Var_d for every die in ``dice_idx`` (verified exactly
    before returning at each level).
    """
    basis = _restricted_kernel(spec, dice_idx, faces)
    if not basis:
        raise NotHnkError(f"die subset {tuple(dice_idx)} admits no nonzero witness")

    def embed(restricted) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * spec.num_faces
        for f, v in zip(faces, restricted):
            out[f] = v
        return tuple(out)

    # If the sub-source has a positive-variance witness, it already
    # satisfies the ratio condition for any eps > 0 (its means vanish).
    combo = _combine_positive_variance(spec, dice_idx, [embed(b) for b in basis])
    if combo is not None:
        return combo

    psi = embed(_normalized(basis[0]))
    flat = [d for d in dice_idx if die_var(spec.dice[d], psi) == 0]
    lively = [d for d in dice_idx if d not in flat]
    # flat is a proper nonempty subset here: nonempty since the combine
    # step failed, proper since psi is nonzero on some supported face
    v = min(die_var(spec.dice[d], psi) for d in lively)
    sub_faces = sorted(set().union(*(support(spec.dice[d]) for d in flat)))
    sub_eps = v * eps * eps / 8
    psi2 = _ratio_witness_values(spec, sub_faces, flat, sub_eps)
    phi = tuple(a + (v * eps / 8) * b for a, b in zip(psi, psi2))
    for d in dice_idx:
        if not abs(die_mean(spec.dice[d], phi)) < eps * die_var(spec.dice[d], phi):
            raise EpsilonTooLargeError(
                f"ratio witness fails at die {d} for epsilon {eps}; retry smaller"
            )
    return phi


def mvr_witness(spec: SourceSpec, epsilon) -> Witness:
    """Construct and exactly verify a witness for the ratio condition.

    The construction recurses on the zero-variance die subset, combining
    the sub-witness (scaled by v*eps/8) with the current kernel witness.
    The result is verified before returning: every die must satisfy the
    strict ratio inequality, and the minimum variance must clear the
    eps^(3*2^|D| - 3) floor.  Verification failure raises
    EpsilonTooLargeError — the guarantee only kicks in for small epsilon,
    and the operational threshold is this verified-or-reject contract.
    """
    eps = rat(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    ok, _cert = check_hnk(spec)
    if not ok:
        raise NotHnkError("source fails HNK; no ratio witness exists")
    values = _ratio_witness_values(
        spec, list(range(spec.num_faces)), list(range(spec.num_dice)), eps
    )
    floor = eps ** (3 * 2**spec.num_dice - 3)
    variances = [die_var(d, values) for d in spec.dice]
    for d, (die, var) in enumerate(zip(spec.dice, variances)):
        if not abs(die_mean(die, values)) < eps * var:
            raise EpsilonTooLargeError(f"ratio inequality fails at die {d} for epsilon {eps}")
        if var < floor:
            raise EpsilonTooLargeError(
                f"variance {var} under die {d} is below the floor epsilon^"
                f"{3 * 2**spec.num_dice - 3}"
            )
    return Witness(values, WitnessKind.MVR, epsilon=eps, min_variance=min(variances))


def dual_certificate(spec: SourceSpec) -> DualCertificate | None:
    """Duality certificate for NK+ failure, or None when NK+ holds.

    Picks the lexicographically smallest die whose support sees only
    constant kernel directions, then for each face pair in its support
    expresses the indicator difference in the span of the pmf rows.  The
    reported pair maximizes sum |beta|; ``constant`` is that sum squared.
    """
    return _dual_certificate(spec, kernel_basis(spec).basis)


def _dual_certificate(spec: SourceSpec, basis) -> DualCertificate | None:
    # NK+ holds exactly when every die sees a non-constant kernel
    # direction: _combine_positive_variance then always finds a witness
    die_index = next(
        (
            d
            for d in range(spec.num_dice)
            if not any(_nonconstant_on(b, support(spec.dice[d])) for b in basis)
        ),
        None,
    )
    if die_index is None:
        return None
    supp = sorted(support(spec.dice[die_index]))
    # columns are the dice pmfs; unknowns are the beta coefficients
    mat = [[spec.dice[d].probs[f] for d in range(spec.num_dice)] for f in range(spec.num_faces)]
    best = None
    for f_star in supp:
        for f_low in supp:
            target = [Fraction(0)] * spec.num_faces
            target[f_star] += 1
            target[f_low] -= 1
            beta = linalg.solve(mat, target)
            if beta is None:  # impossible for the qualifying die
                raise RuntimeError("indicator difference left the pmf span")
            weight = sum(abs(b) for b in beta)
            if best is None or weight > best[0]:
                best = (weight, f_star, f_low, beta)
    weight, f_star, f_low, beta = best
    return DualCertificate(die_index, f_star, f_low, tuple(beta), weight * weight)


@dataclass(frozen=True)
class ClassificationReport:
    """Where a source sits in the three-way extractability split."""

    nk: bool
    nk_witness: Witness | None
    nk_plus: bool
    nk_plus_witness: Witness | None
    hnk: bool
    hnk_certificate: HnkCertificate | None
    dual: DualCertificate | None
    category: Category

    def to_jsonable(self) -> dict:
        doc: dict = {
            "category": self.category.value,
            "nk": {"holds": self.nk},
            "nk_plus": {"holds": self.nk_plus},
            "hnk": {"holds": self.hnk},
        }
        if self.nk_witness is not None:
            doc["nk"]["witness"] = self.nk_witness.to_jsonable()
        if self.nk_plus_witness is not None:
            doc["nk_plus"]["witness"] = self.nk_plus_witness.to_jsonable()
        if self.hnk_certificate is not None:
            doc["hnk"]["failing_subset"] = {
                "dice": list(self.hnk_certificate.dice),
                "faces": list(self.hnk_certificate.faces),
            }
        if self.dual is not None:
            doc["dual_certificate"] = {
                "die": self.dual.die,
                "f_star": self.dual.f_star,
                "f_low": self.dual.f_low,
                "beta": [rat_str(b) for b in self.dual.beta],
                "constant": rat_str(self.dual.constant),
            }
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2) + "\n"


def classify(spec: SourceSpec) -> ClassificationReport:
    """Full classification: condition flags, witnesses, and the category."""
    basis = kernel_basis(spec).basis
    nk, nk_w = _nk(basis)
    plus, plus_w = _nk_plus(spec, basis)
    hnk, hnk_cert = check_hnk(spec)
    dual = None if plus else _dual_certificate(spec, basis)
    if plus:
        category = Category.EXP_ERROR
    elif hnk:
        category = Category.POLY_ERROR
    else:
        category = Category.NON_EXTRACTABLE
    return ClassificationReport(nk, nk_w, plus, plus_w, hnk, hnk_cert, dual, category)
