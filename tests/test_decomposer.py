import random
import re
from fractions import Fraction
from math import gcd

import pytest

import quiverdec as qd
from corpus import _orthogonal_weight, build_corpus
from quiverdec import PairState, RootClass, apply_sequence, decomposer
from quiverdec.errors import InternalInconsistency, NotInNRLambdaPlus, SumMismatch
from quiverdec.lambda_roots import BoxTable

EX4 = qd.Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])
EX4_WEIGHT = (0, 1, -2, 1)
KRONECKER = qd.extended_dynkin_quiver("A1")
A2 = qd.dynkin_quiver("A2")
JORDAN = qd.extended_dynkin_quiver("A0")


@pytest.fixture(scope="module")
def kron0():
    return qd.LambdaContext(KRONECKER, (0, 0))


def test_canonical_kronecker(kron0):
    dec = qd.canonical_decompose(kron0, (2, 3))
    assert [(t.sigma, t.multiplicity) for t in dec.terms] == [((1, 1), 2), ((0, 1), 1)]
    assert dec.norm == 2
    assert dec.total == (2, 3)
    assert dec.multiset() == ((0, 1), (1, 1), (1, 1))


def test_canonical_single_sigma_member():
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
    dec = qd.canonical_decompose(ctx, (1, 3, 2, 1))
    assert [(t.sigma, t.multiplicity) for t in dec.terms] == [((1, 3, 2, 1), 1)]


def test_canonical_examples(kron0):
    a2 = qd.LambdaContext(A2, (1, -1))
    dec = qd.canonical_decompose(a2, (2, 2))
    assert [(t.sigma, t.multiplicity) for t in dec.terms] == [((1, 1), 2)]
    assert qd.canonical_decompose(kron0, (0, 0)).terms == ()
    with pytest.raises(NotInNRLambdaPlus):
        qd.canonical_decompose(a2, (1, 0))
    with pytest.raises(NotInNRLambdaPlus):
        qd.canonical_decompose(a2, (-1, 0))


def test_term_invariants_and_order(kron0):
    dec = qd.canonical_decompose(kron0, (3, 4))
    total = tuple(
        sum(t.multiplicity * t.sigma[i] for t in dec.terms) for i in range(2)
    )
    assert total == dec.total
    assert dec.norm == sum(t.multiplicity * t.p_value for t in dec.terms)
    assert [t.p_value for t in dec.terms] == sorted(
        (t.p_value for t in dec.terms), reverse=True
    )
    sigmas = [t.sigma for t in dec.terms]
    assert len(set(sigmas)) == len(sigmas)


def test_dimension_examples(kron0):
    assert qd.dimension_of_N(kron0, (2, 3)) == 4
    assert qd.dimension_of_N(qd.LambdaContext(JORDAN, (0,)), (3,)) == 6
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
    assert qd.dimension_of_N(ctx, (1, 3, 2, 1)) == 0


def test_representation_type(kron0):
    assert qd.representation_type(kron0, (2, 3)) == [(2, (1, 1)), (1, (0, 1))]
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
    assert qd.representation_type(ctx, (1, 3, 2, 1)) == [(1, (1, 3, 2, 1))]
    assert qd.representation_type(kron0, (0, 0)) == []


def test_product_report_kronecker(kron0):
    report = qd.product_structure_report(kron0, (2, 3))
    assert report.formula == "S^2 N((0,0),(1,1)) x point"
    kinds = [f.kind for f in report.factors]
    assert kinds == ["Kleinian", "Point"]
    assert report.factors[0].label == "A1"
    assert report.factors[0].dimension_contribution == 4
    assert report.factors[1].dimension_contribution == 0
    data = report.to_json_dict()
    assert data["dimension"] == 4
    assert data["terms"][0]["factor"] == "Kleinian(A1)"
    assert data["terms"][1]["factor"] == "Point"


def test_product_report_multiple_of_delta():
    for name, m in (("A1", 3), ("A2", 2)):
        q = qd.extended_dynkin_quiver(name)
        delta = qd.classify_shape(q).delta
        ctx = qd.LambdaContext(q, [0] * q.n)
        report = qd.product_structure_report(ctx, tuple(m * d for d in delta))
        assert len(report.factors) == 1
        factor = report.factors[0]
        assert factor.kind == "Kleinian" and factor.label == name
        assert factor.multiplicity == m
        assert report.formula.startswith(f"S^{m} N(")


def test_product_report_nonisotropic_and_empty():
    k3 = qd.Quiver(["0", "1"], [["0", "1"]] * 3)
    ctx = qd.LambdaContext(k3, (0, 0))
    report = qd.product_structure_report(ctx, (2, 2))
    assert [f.kind for f in report.factors] == ["NonIsotropicBlock"]
    assert report.factors[0].multiplicity == 1
    assert report.factors[0].describe() == "NonIsotropicBlock"
    assert report.to_json_dict()["terms"][0]["factor"] == "NonIsotropicBlock"
    assert "S^" not in report.formula
    assert qd.product_structure_report(ctx, (0, 0)).formula == "point"


def test_kleinian_label_ex4_delta():
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
    assert qd.kleinian_label(ctx, (0, 1, 1, 1)) == "A2"
    assert qd.kleinian_label(qd.LambdaContext(JORDAN, (0,)), (1,)) == "A0"


def test_kleinian_label_needs_normalization():
    # (1,1,1,1) is an isotropic Sigma member outside the fundamental region:
    # one reflection lands it on the triangle's delta
    lam = (1, -1, 1, -1)
    ctx = qd.LambdaContext(EX4, lam)
    assert qd.in_sigma_lambda(ctx, (1, 1, 1, 1))
    assert not qd.in_fundamental_region(EX4, (1, 1, 1, 1))
    assert qd.kleinian_label(ctx, (1, 1, 1, 1)) == "A2"


def test_kleinian_label_follows_a_descent_of_any_length():
    # (1,1,1) on the Kronecker pair with a leaf, raised by (s_a s_b)^50000: the label's
    # descent takes 100,001 steps down to the Kronecker delta (1,1,0), and the factor gets its type
    q = qd.Quiver(["a", "b", "c"], [["a", "b"], ["a", "b"], ["c", "a"]])
    ctx = qd.LambdaContext(q, (1, 1, -5000050002))
    report = qd.product_structure_report(ctx, (2500000001, 2500050001, 1))
    assert [f.describe() for f in report.factors] == ["Kleinian(A1)"]


def test_kleinian_label_after_one_reflection():
    lam = (1, -1, 1, -1)
    assert qd.descend(EX4, qd.make_pair(EX4, lam, (1, 1, 1, 1)))[1] == ("1",)
    assert qd.kleinian_label(qd.LambdaContext(EX4, lam), (1, 1, 1, 1)) == "A2"


def test_kleinian_label_rejects_a_descent_stuck_at_a_zero_weight():
    # none of these is an isotropic Sigma member at its weight: a caller's error, exit 1
    k3 = qd.Quiver(["0", "1"], [["0", "1"]] * 3)
    for q, lam, sigma, message in (
        (EX4, (0, 0, 0, 0), (1, 1, 1, 1), "outside the fundamental region"),  # isotropic, splits off e_1
        (KRONECKER, (0, 0), (2, 2), "not the delta of its support"),  # twice delta
        (KRONECKER, (0, 0), (1, 0), "outside the fundamental region"),  # real
        (k3, (0, 0), (1, 1), "support of kind Other"),  # non-isotropic Sigma member
        (KRONECKER, (1, 0), (1, 1), r"\(1, 1\) is not orthogonal to the weight"),  # delta, off the weight
    ):
        ctx = qd.LambdaContext(q, lam)
        isotropic = qd.classify_root(q, sigma) is RootClass.ISOTROPIC_IMAGINARY
        assert not (isotropic and qd.in_sigma_lambda(ctx, sigma))
        with pytest.raises(qd.NotIsotropicSigma, match=message) as raised:
            qd.kleinian_label(ctx, sigma)
        assert isinstance(raised.value, ValueError)


def test_over_cap_pair_decomposed_after_descent():
    # sum 28 exceeds the default cap 24; four admissible reflections reach (0,0,0,4)
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
    report = qd.product_structure_report(ctx, (4, 12, 8, 4))
    assert [(t.multiplicity, t.sigma, t.root_class, t.p_value) for t in report.decomposition.terms] == [
        (4, (1, 3, 2, 1), RootClass.REAL, 0)
    ]
    assert [f.describe() for f in report.factors] == ["Point"]
    assert report.formula == "point" and report.decomposition.norm == 0
    assert qd.in_N_R_lambda_plus(ctx, (4, 12, 8, 4))
    assert qd.norm_lambda(ctx, (4, 12, 8, 4)) == 0 == qd.dimension_of_N(ctx, (4, 12, 8, 4))


def test_over_cap_pair_descending_to_a_negative_entry_is_not_a_member():
    # (1,0,8,16) is orthogonal to the weight, of entry sum 25; (0,30,0,0) is not orthogonal, so it does not descend
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
    with pytest.raises(NotInNRLambdaPlus, match=r"reflects along 4 to \(1, 0, 8, -8\)"):
        qd.canonical_decompose(ctx, (1, 0, 8, 16))
    with pytest.raises(NotInNRLambdaPlus):
        qd.norm_lambda(ctx, (1, 0, 8, 16))
    assert not qd.in_N_R_lambda_plus(ctx, (1, 0, 8, 16))
    with pytest.raises(NotInNRLambdaPlus, match=r"^\(0, 30, 0, 0\) is not a sum of orthogonal positive roots$"):
        qd.canonical_decompose(ctx, (0, 30, 0, 0))


TWO_LOOPS = qd.Quiver(["0"], [["0", "0"], ["0", "0"]])  # (1,) is a Sigma member with p = 2 at weight 0


@pytest.mark.parametrize("owner, name, broken, message", [
    (BoxTable, "count", lambda table, a: 2, "2 maximizing multisets for (1,); expected exactly one"),
    (decomposer, "norm_lambda", lambda ctx, a: 3, "maximal p-sum over Sigma multisets (2) disagrees with the norm"),
    (BoxTable, "witness", lambda table, a: ((1,), (1,)), "non-isotropic term (1,) appears with multiplicity 2"),
], ids=["two-maximizers", "sigma-best-off-the-norm", "non-isotropic-twice"])
def test_canonical_decompose_refuses_a_broken_guarantee(monkeypatch, owner, name, broken, message):
    ctx = qd.LambdaContext(TWO_LOOPS, (0,))
    assert qd.canonical_decompose(ctx, (1,)).terms == (qd.Term((1,), 1, RootClass.NONISOTROPIC_IMAGINARY, 2),)
    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(InternalInconsistency, match=f"^{re.escape(message)}$"):
        qd.canonical_decompose(qd.LambdaContext(TWO_LOOPS, (0,)), (1,))


def test_over_cap_pair_at_weight_zero_is_still_refused():
    # no vertex is admissible at weight 0, so nothing reduces the box
    ctx = qd.LambdaContext(EX4, (0, 0, 0, 0))
    for query in (qd.canonical_decompose, qd.norm_lambda, qd.in_N_R_lambda_plus):
        with pytest.raises(qd.ResourceLimit, match="max_bound_sum"):
            query(ctx, (4, 12, 8, 4))


def test_over_cap_pair_off_the_weight_with_no_descent_step_is_not_a_member():
    # (100,99) pairs to 1 with the weight (1,-1) and no reflection reduces it: no box is needed
    ctx = qd.LambdaContext(qd.Quiver(["0", "1"], [["0", "1"]] * 3), (1, -1))
    assert not qd.in_N_R_lambda_plus(ctx, (100, 99))
    assert qd.max_proper_sum_p(ctx, (100, 99)) is None
    for query in (qd.norm_lambda, qd.sigma_maximizer_count, qd.canonical_decompose):
        with pytest.raises(NotInNRLambdaPlus, match=r"\(100, 99\) is not a sum of orthogonal positive roots"):
            query(ctx, (100, 99))


def test_one_loop_far_past_the_default_sum_cap():
    # every table is filled bottom-up, so no recursion limit bounds the vector
    ctx = qd.LambdaContext(JORDAN, (0,), qd.Caps(max_bound_sum=1200))
    report = qd.product_structure_report(ctx, (1200,))
    assert [(t.multiplicity, t.sigma) for t in report.decomposition.terms] == [(1200, (1,))]
    assert report.to_json_dict()["dimension"] == 2400
    assert report.factors[0].describe() == "Kleinian(A0)"
    assert report.formula == "S^1200 N((0),(1))"
    assert qd.sigma_maximizer_count(ctx, (1200,)) == 1


def test_isotropic_terms_indivisible(kron0):
    for alpha in [(2, 3), (3, 3), (4, 2)]:
        for t in qd.canonical_decompose(kron0, alpha).terms:
            if t.root_class is RootClass.ISOTROPIC_IMAGINARY:
                assert gcd(*t.sigma) == 1


def test_decomposition_reflects_along_admissible_move():
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
    alpha = (1, 4, 3, 2)  # Sigma member plus delta
    dec = qd.canonical_decompose(ctx, alpha)
    image_weight = qd.dual_reflection(EX4, "2", ctx.weight)
    image_alpha = qd.simple_reflection(EX4, "2", alpha)
    image_dec = qd.canonical_decompose(qd.LambdaContext(EX4, image_weight), image_alpha)
    expected = sorted(qd.simple_reflection(EX4, "2", t) for t in dec.multiset())
    assert sorted(image_dec.multiset()) == expected


def test_check_refinement_examples(kron0):
    delta, e0, e1 = (1, 1), (1, 0), (0, 1)
    assert qd.check_refinement([delta, delta, e1], [(2, 3)])
    assert qd.check_refinement([e0, e1], [delta])
    assert qd.check_refinement([e0, e1, delta], [delta, delta])
    assert not qd.check_refinement([(2, 0), (0, 2)], [(1, 1), (1, 1)])
    with pytest.raises(SumMismatch):
        qd.check_refinement([delta, delta], [delta, (2, 0)])
    with pytest.raises(SumMismatch):
        qd.check_refinement([delta], [(1, 1, 0)])
    # every vector of both multisets counts, not only the first of each
    with pytest.raises(SumMismatch, match="different vertex sets"):
        qd.check_refinement([(1,), (1, 2)], [(2,)])
    with pytest.raises(SumMismatch, match="different vertex sets"):
        qd.check_refinement([(1, 1)], [(1, 1), (0,)])
    assert qd.check_refinement([], [])
    with pytest.raises(ValueError, match="1.5 is not an integer"):
        qd.check_refinement([(1.5,)], [(1,)])
    assert qd.check_refinement([(2.0,), (Fraction(4, 2),)], [(4,)])
    # the two parts group to (1,), but the search assumes no negative entry
    with pytest.raises(ValueError, match="entry -1 is negative"):
        qd.check_refinement([(2,), (-1,)], [(1,)])


def test_check_refinement_with_many_parts():
    # the grouping search keeps its own stack, so a part count far past the
    # recursion limit still gets an answer
    assert qd.check_refinement([(1,)] * 1200, [(1200,)])
    assert qd.check_refinement([(1,)] * 1200, [(1,)] * 1200)


def _terms_match_definitions(ctx, alpha):
    """Each term's class and p by Kac descent and the form, its way back by pair reflections.

    The decomposer reads p from the Sigma table and maps terms back with the
    simple reflections alone; here the terms of the resolved pair are mapped
    back with ``apply_sequence`` on its weight, which checks admissibility
    at every step. Returns whether the pair was reduced by a descent.
    """
    q = ctx.quiver
    low, b, seq = ctx.resolve(alpha)
    dec = qd.canonical_decompose(ctx, alpha)
    for t in dec.terms:
        assert t.root_class is qd.classify_root(q, t.sigma)
        assert t.p_value == qd.p_form(q, t.sigma)
    back = sorted(
        (apply_sequence(q, PairState(low.weight, t.sigma), seq[::-1])[0].dim, t.multiplicity)
        for t in qd.canonical_decompose(low, b).terms
    )
    assert sorted((t.sigma, t.multiplicity) for t in dec.terms) == back
    return bool(seq)


def test_terms_match_definitions_on_the_corpus():
    for name, q, lam, alpha, ctx in build_corpus(minimum=200):
        _terms_match_definitions(ctx, alpha)


def test_terms_match_definitions_after_descent_on_ex4():
    rng = random.Random(20261018)
    reduced = 0
    while reduced < 20:
        alpha = tuple(rng.randint(0, 10) for _ in range(4))
        if sum(alpha) <= qd.DEFAULT_CAPS.max_bound_sum:
            continue
        ctx = qd.LambdaContext(EX4, _orthogonal_weight(EX4, alpha, rng))
        try:
            reduced += _terms_match_definitions(ctx, alpha)
        except (NotInNRLambdaPlus, qd.ResourceLimit):
            continue


def test_terms_match_definitions_after_a_long_descent():
    ctx = qd.LambdaContext(KRONECKER, (1, Fraction(-2000, 2001)))
    assert _terms_match_definitions(ctx, (2000, 2001))
