"""Classifier: kernels, the three conditions, witnesses, certificates."""

import importlib
import sys
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest

from gsvkit import (
    Category,
    EmptySupportError,
    EpsilonTooLargeError,
    HnkCertificate,
    NotHnkError,
    SourceSpec,
    SubsetLimitError,
    check_hnk,
    check_mvd,
    check_mvr,
    check_nk,
    check_nk_plus,
    classify,
    die_mean,
    die_var,
    dual_certificate,
    kernel_basis,
    mvr_witness,
    support,
)
from gsvkit import linalg, validate_source
from gsvkit.classify import (
    _below_power,
    _combine_positive_variance,
    _dual_certificate,
    _nonconstant_on,
    _normalized,
)
from gsvkit.presets import PRESETS, e1, e2, fair_coin, hidden_sv, sv_pair

from specgen import random_hierarchical_spec, random_spec, random_zero_mean_spec

SV = sv_pair("1/4")
classify_module = importlib.import_module("gsvkit.classify")


def _proportional(u, v):
    cross = None
    for a, b in zip(u, v):
        if (a == 0) != (b == 0):
            return False
        if a != 0:
            ratio = b / a
            if cross is None:
                cross = ratio
            elif ratio != cross:
                return False
    return cross is not None


# -- kernel ---------------------------------------------------------------


def test_kernel_e1_is_the_swap_direction():
    kb = kernel_basis(e1())
    assert kb.dimension == 1
    assert _proportional(kb.basis[0], (-1, 1, 0, 0))


def test_kernel_sv_pair_empty():
    assert kernel_basis(SV).dimension == 0


def test_kernel_single_fair_coin():
    kb = kernel_basis(fair_coin())
    assert kb.dimension == 1
    assert _proportional(kb.basis[0], (1, -1))


def test_kernel_vectors_have_zero_mean_everywhere():
    rng = Random(11)
    specs = [e1(), e2(), hidden_sv()] + [
        random_spec(rng, rng.randint(2, 5), rng.randint(1, 4)) for _ in range(20)
    ]
    for spec in specs:
        for vec in kernel_basis(spec).basis:
            for die in spec.dice:
                assert die_mean(die, [F(x) for x in vec]) == 0


# -- NK / NK+ / HNK -------------------------------------------------------


def test_nk_examples():
    ok, w = check_nk(e1())
    assert ok and _proportional(w.values, (-1, 1, 0, 0))
    assert check_nk(SV) == (False, None)
    ok, w = check_nk(fair_coin())
    assert ok and _proportional(w.values, (1, -1))


def test_nk_plus_fair_coin():
    ok, w = check_nk_plus(fair_coin())
    assert ok
    assert tuple(abs(v) for v in w.values) == (1, 1)
    assert w.min_variance == 1


def test_nk_plus_fails_on_e1_and_e2():
    assert check_nk_plus(e1())[0] is False
    assert check_nk_plus(e2())[0] is False


def test_nk_plus_witness_contract():
    rng = Random(5)
    for _ in range(25):
        spec, _psi = random_zero_mean_spec(rng, rng.randint(2, 5), rng.randint(1, 4))
        ok, w = check_nk_plus(spec)
        assert ok, "constructed sources carry a zero-mean positive-variance witness"
        for die in spec.dice:
            assert die_mean(die, w) == 0
            assert die_var(die, w) > 0
        assert w.min_variance == min(die_var(d, w) for d in spec.dice)
        assert max(abs(v) for v in w.values) == 1


def _combine_by_product_search(spec, dice_idx, basis):
    """Reference: walk every coefficient tuple in {1, ..., k+1}^k in
    lexicographic order; returns (witness, tuple) or (None, None)."""
    picks = []
    for d in dice_idx:
        vec = next((b for b in basis if _nonconstant_on(b, support(spec.dice[d]))), None)
        if vec is None:
            return None, None
        picks.append(vec)
    nfaces = len(basis[0])
    for coeffs in product(range(1, len(dice_idx) + 2), repeat=len(dice_idx)):
        combo = tuple(sum(c * vec[f] for c, vec in zip(coeffs, picks)) for f in range(nfaces))
        if all(die_var(spec.dice[d], combo) > 0 for d in dice_idx):
            return _normalized(combo), coeffs
    return None, None


def _corpus_specs(seeds):
    """The classify-corpus benchmark's generated sources."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        del sys.path[0]
    for seed in seeds:
        texts, _jobs = workloads.build("classify-corpus", seed)
        yield from (SourceSpec.from_json(text) for text in texts.values())


def _sparse_spec_and_basis(rng):
    """Two-face supports and small integer vectors, so that sums of picks
    often turn constant on a support and the search must go past (1, ..., 1)."""
    while True:
        nfaces, ndice = rng.randint(3, 4), rng.randint(3, 5)
        dice = []
        for _ in range(ndice):
            supp = rng.sample(range(nfaces), 2)
            weights = [rng.randint(1, 3) if f in supp else 0 for f in range(nfaces)]
            dice.append([F(w, sum(weights)) for w in weights])
        spec = SourceSpec([f"f{i}" for i in range(nfaces)], dice)
        if validate_source(spec).ok:
            break
    basis = [
        tuple(F(rng.choice([0, 1, -1, 2])) for _ in range(nfaces))
        for _ in range(rng.randint(2, 3))
    ]
    return spec, basis


def test_nk_plus_combination_matches_product_search():
    rng = Random(47)
    specs = list(_corpus_specs(range(20)))
    for i in range(1560):
        if i % 3 == 0:
            specs.append(random_spec(rng, rng.randint(1, 6), rng.randint(1, 7)))
        elif i % 3 == 1:
            specs.append(random_zero_mean_spec(rng, rng.randint(2, 7), rng.randint(1, 8))[0])
        else:
            specs.append(random_hierarchical_spec(rng))
    cases = [(spec, kernel_basis(spec).basis) for spec in specs]
    assert len(cases) >= 3000
    cases += [_sparse_spec_and_basis(rng) for _ in range(1000)]
    outcomes = set()
    for spec, basis in cases:
        if not basis:
            continue
        dice_idx = list(range(spec.num_dice))
        expected, coeffs = _combine_by_product_search(spec, dice_idx, basis)
        assert _combine_positive_variance(spec, dice_idx, basis) == expected
        outcomes.add("none" if coeffs is None else "ones" if set(coeffs) == {1} else "later")
    assert outcomes == {"none", "ones", "later"}


def test_hnk_e1_certificate():
    ok, cert = check_hnk(e1())
    assert not ok
    assert cert.dice == (1, 2)
    assert cert.faces == (2, 3)
    # the certificate's restricted pmf matrix has full column rank
    rows = [[e1().dice[d].probs[f] for f in cert.faces] for d in cert.dice]
    assert linalg.rank(rows) == len(cert.faces)


def test_hnk_e2_and_small_sources():
    assert check_hnk(e2()) == (True, None)
    assert check_hnk(fair_coin()) == (True, None)
    assert check_hnk(hidden_sv())[0] is False


def _hnk_by_subsets(spec):
    """Reference: every die subset, smallest first, then lexicographically."""
    for size in range(1, spec.num_dice + 1):
        for subset in combinations(range(spec.num_dice), size):
            faces = tuple(sorted(set().union(*(support(spec.dice[d]) for d in subset))))
            rows = [[spec.dice[d].probs[f] for f in faces] for d in subset]
            if not linalg.nullspace(rows, len(faces)):
                return False, HnkCertificate(subset, faces)
    return True, None


def test_hnk_matches_subset_enumeration():
    rng = Random(41)
    specs = [make() for make in PRESETS.values()] + [SV, sv_pair(0), sv_pair("1/2")]
    for i in range(330):
        kind = i % 3
        if kind == 0:
            specs.append(random_spec(rng, rng.randint(1, 6), rng.randint(1, 7)))
        elif kind == 1:
            specs.append(random_zero_mean_spec(rng, rng.randint(2, 6), rng.randint(1, 7))[0])
        else:
            specs.append(random_hierarchical_spec(rng))
    outcomes = set()
    for spec in specs:
        got = check_hnk(spec)
        assert got == _hnk_by_subsets(spec)
        outcomes.add(got[0])
    assert outcomes == {True, False}


def test_hnk_cost_is_bounded_by_support_unions(monkeypatch):
    # 3 faces give at most 7 support unions, so at most 7 rank tests,
    # where a walk over die subsets would make 2^20 - 1
    spec, _psi = random_zero_mean_spec(Random(43), 3, 20)
    calls = []
    nullspace = linalg.nullspace

    def counting(*args, **kwargs):
        calls.append(args)
        return nullspace(*args, **kwargs)

    monkeypatch.setattr(linalg, "nullspace", counting)
    assert check_hnk(spec) == (True, None)
    assert 0 < len(calls) <= 7


def test_hnk_subset_guard():
    dice = [[F(1, 2), F(1, 2)]] * 25
    with pytest.raises(SubsetLimitError):
        check_hnk(SourceSpec(("a", "b"), dice))


# -- ratio and divergence conditions --------------------------------------


def test_check_mvr_examples():
    assert check_mvr(fair_coin(), [1, -1], "1/1000")
    assert not check_mvr(SV, [1, -1], "1/10")
    psi = [F(1, 10), F(-1, 10), 1, -1]
    assert check_mvr(e2(), psi, "1/10")


def test_e2_hand_arithmetic():
    psi = [F(1, 10), F(-1, 10), 1, -1]
    d2 = e2().dice[1]
    assert die_mean(d2, psi) == F(1, 60)
    assert die_var(d2, psi) == F(2, 3) + F(1, 300) - F(1, 3600)


def test_check_mvd_examples():
    psi = [F(1, 10), F(-1, 10), 1, -1]
    # the first die's variance is exactly epsilon^2, so the floor bites
    assert not check_mvd(e2(), psi, "1/10", "1/100")
    assert check_mvd(e2(), psi, "1/10", "1/10000")


def test_mvr_witness_e2():
    w = mvr_witness(e2(), F(1, 10))
    scale = F(2, 3) * F(1, 10) / 8  # witness mixes the sub-witness at v*eps/8
    assert tuple(abs(v) for v in w.values) == (scale, scale, 1, 1)
    assert w.min_variance == scale * scale
    for die in e2().dice:
        assert abs(die_mean(die, w)) < F(1, 10) * die_var(die, w)
        assert die_var(die, w) >= F(1, 10) ** (3 * 2**3 - 3)


def test_mvr_witness_on_positive_variance_source():
    w = mvr_witness(fair_coin(), F(1, 100))
    assert tuple(abs(v) for v in w.values) == (1, 1)
    assert die_mean(fair_coin().dice[0], w) == 0


def test_mvr_witness_rejections():
    with pytest.raises(NotHnkError):
        mvr_witness(e1(), F(1, 10))
    with pytest.raises(EpsilonTooLargeError):
        mvr_witness(e2(), F(9, 10))  # variance floor eps^21 is unreachable


def test_mvr_witness_random_hnk_sources():
    rng = Random(17)
    for _ in range(15):
        spec, _psi = random_zero_mean_spec(rng, rng.randint(2, 4), rng.randint(1, 3))
        w = mvr_witness(spec, F(1, 8))
        for die in spec.dice:
            assert abs(die_mean(die, w)) < F(1, 8) * die_var(die, w)


def test_variance_floor_matches_the_power(monkeypatch):
    # x < eps^k decided without the power, against the power itself: at
    # and next to eps^k, and on the variances mvr_witness checks on
    # seeded sources with up to 6 dice
    rng = Random(29)
    for _ in range(300):
        eps = F(rng.randint(1, 9), 10)
        k = rng.randint(0, 40)
        power = eps**k
        for x in (power, power * F(99, 100), power * F(101, 100), power / 2 ** rng.randint(1, 9),
                  F(rng.randint(1, 10**6), rng.randint(1, 10**9))):
            assert _below_power(x, eps, k) == (x < power)
    specs = [random_zero_mean_spec(rng, rng.randint(2, 4), rng.randint(1, 6))[0] for _ in range(12)]
    specs += [random_hierarchical_spec(rng) for _ in range(6)] + [e2(), fair_coin()]
    outcomes = []
    for spec in specs:
        for eps in (F(1, 16), F(1, 4), F(1, 2), F(3, 4), F(9, 10)):
            got = []
            for below in (_below_power, lambda x, e, k: x < e**k):
                monkeypatch.setattr(classify_module, "_below_power", below)
                try:
                    got.append(mvr_witness(spec, eps).values)
                except EpsilonTooLargeError as exc:
                    got.append(str(exc))
            assert got[0] == got[1]
            outcomes.append("below the floor" in str(got[0]))
    assert any(outcomes) and not all(outcomes)


# -- duality ---------------------------------------------------------------


def test_dual_certificate_sv_pair():
    cert = dual_certificate(SV)
    assert (cert.die, cert.f_star, cert.f_low) == (0, 0, 1)
    assert cert.beta == (2, -2)
    assert cert.constant == 16


def test_dual_certificate_none_when_plus_holds():
    assert dual_certificate(fair_coin()) is None


def test_dual_certificate_e1_die_and_identity():
    cert = dual_certificate(e1())
    spec = e1()
    assert cert.die == 1  # first die whose support sees only constant kernel vectors
    assert {cert.f_star, cert.f_low} <= support(spec.dice[cert.die])
    for f in range(spec.num_faces):
        indicator = [F(int(i == f)) for i in range(spec.num_faces)]
        lhs = indicator[cert.f_star] - indicator[cert.f_low]
        rhs = sum(
            b * die_mean(die, indicator) for b, die in zip(cert.beta, spec.dice)
        )
        assert lhs == rhs


def test_dual_identity_on_random_failing_specs():
    rng = Random(23)
    found = 0
    while found < 10:
        spec = random_spec(rng, rng.randint(2, 4), rng.randint(2, 4))
        plus, _ = check_nk_plus(spec)
        if plus:
            continue
        found += 1
        cert = dual_certificate(spec)
        assert cert is not None
        for f in range(spec.num_faces):
            indicator = [F(int(i == f)) for i in range(spec.num_faces)]
            lhs = indicator[cert.f_star] - indicator[cert.f_low]
            rhs = sum(b * die_mean(d, indicator) for b, d in zip(cert.beta, spec.dice))
            assert lhs == rhs


def _dual_by_pairs(spec, basis):
    """Reference: one solve per ordered face pair of the first die whose
    support sees only constant kernel directions."""
    die = next(
        (d for d in range(spec.num_dice)
         if not any(_nonconstant_on(b, support(spec.dice[d])) for b in basis)),
        None,
    )
    if die is None:
        return None
    mat = [[spec.dice[d].probs[f] for d in range(spec.num_dice)] for f in range(spec.num_faces)]
    best = None
    for f_star in sorted(support(spec.dice[die])):
        for f_low in sorted(support(spec.dice[die])):
            target = [F(int(f == f_star) - int(f == f_low)) for f in range(spec.num_faces)]
            beta = linalg.solve(mat, target)
            weight = sum(abs(b) for b in beta)
            if best is None or weight > best[0]:
                best = (weight, f_star, f_low, beta)
    weight, f_star, f_low, beta = best
    return (die, f_star, f_low, beta, weight * weight)


def test_dual_certificate_matches_one_solve_per_pair():
    rng = Random(53)
    specs = [e1(), SV, hidden_sv(), sv_pair("1/8"), e2()]
    while len(specs) < 205:
        spec = random_spec(rng, rng.randint(2, 6), rng.randint(2, 8))
        if not check_nk_plus(spec)[0]:
            specs.append(spec)
    for spec in specs:
        basis = kernel_basis(spec).basis
        cert = _dual_certificate(spec, basis)
        expected = _dual_by_pairs(spec, basis)
        assert (cert.die, cert.f_star, cert.f_low, cert.beta, cert.constant) == expected


def test_dual_certificate_eliminates_once(monkeypatch):
    eliminate = linalg._eliminate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    for spec in (e1(), SV, hidden_sv(), random_spec(Random(59), 6, 8)):
        basis = kernel_basis(spec).basis
        calls.clear()
        monkeypatch.setattr(linalg, "_eliminate", counting)
        assert _dual_certificate(spec, basis) is not None
        monkeypatch.undo()
        assert len(calls) == 1


def test_dual_certificate_names_an_empty_die():
    # unvalidated: die 1 gives no face positive probability, so it sees
    # no kernel direction and has no face pair to certify
    spec = SourceSpec(("a", "b"), [("1/2", "1/2"), ("0", "0")])
    with pytest.raises(EmptySupportError, match="die 1 "):
        dual_certificate(spec)



# -- classification ---------------------------------------------------------


def test_classify_corpus():
    assert classify(e1()).category is Category.NON_EXTRACTABLE
    assert classify(e2()).category is Category.POLY_ERROR
    assert classify(fair_coin()).category is Category.EXP_ERROR
    assert classify(SV).category is Category.NON_EXTRACTABLE
    assert classify(hidden_sv()).category is Category.NON_EXTRACTABLE


def test_classify_report_consistency():
    for spec in (e1(), e2(), fair_coin(), SV):
        rep = classify(spec)
        assert (rep.category is Category.EXP_ERROR) == rep.nk_plus
        assert (rep.category is Category.POLY_ERROR) == (rep.hnk and not rep.nk_plus)
        assert (rep.category is Category.NON_EXTRACTABLE) == (not rep.hnk)
        if not rep.nk_plus:
            assert rep.dual is not None
        doc = rep.to_jsonable()
        assert doc["category"] == rep.category.value


def test_condition_monotonicity_fuzz():
    # NK+ implies HNK implies NK, on arbitrary random sources
    rng = Random(31)
    for _ in range(40):
        spec = random_spec(rng, rng.randint(1, 5), rng.randint(1, 4))
        nk, _ = check_nk(spec)
        plus, _ = check_nk_plus(spec)
        hnk, _ = check_hnk(spec)
        assert not plus or hnk
        assert not hnk or nk
