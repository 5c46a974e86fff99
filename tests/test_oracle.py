import itertools
from fractions import Fraction

import pytest

import quiverdec as qd
from corpus import build_corpus
from quiverdec import oracle
from quiverdec.errors import InternalInconsistency, NotInNRLambdaPlus, ResourceLimit

EX4 = qd.Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])
EX4_WEIGHT = (0, 1, -2, 1)
KRONECKER = qd.extended_dynkin_quiver("A1")
TRIANGLE = qd.extended_dynkin_quiver("A2")
A2 = qd.dynkin_quiver("A2")


def test_root_closure_matches_descent_filter():
    for q, bound in (
        (KRONECKER, (3, 3)),
        (TRIANGLE, (2, 2, 2)),
        (qd.Quiver(["0", "1"], [["0", "1"]] * 3), (4, 4)),
        (EX4, (1, 3, 2, 2)),
        (qd.extended_dynkin_quiver("A0"), (4,)),
    ):
        assert sorted(oracle.positive_roots_in_box(q, bound)) == list(
            qd.positive_roots_upto(q, bound)
        )


def test_enumerate_decompositions_examples():
    kron0 = qd.LambdaContext(KRONECKER, (0, 0))
    assert oracle.enumerate_decompositions(kron0, (1, 1), 2) == [((0, 1), (1, 0))]
    assert oracle.enumerate_decompositions(kron0, (1, 0), 2) == []
    a20 = qd.LambdaContext(A2, (0, 0))
    assert oracle.enumerate_decompositions(a20, (1, 1), 1) == [((0, 1), (1, 0)), ((1, 1),)]


def test_enumeration_canonical_order():
    kron0 = qd.LambdaContext(KRONECKER, (0, 0))
    decs = oracle.enumerate_decompositions(kron0, (2, 2), 1)
    assert decs == sorted(decs)
    for d in decs:
        assert list(d) == sorted(d)
        total = tuple(sum(p[i] for p in d) for i in range(2))
        assert total == (2, 2)


def test_sigma_enumeration_is_the_filtered_enumeration():
    checked = 0
    for name, q, lam, alpha, ctx in build_corpus(minimum=200):
        if sum(alpha) > 6:
            continue
        checked += 1
        assert oracle.enumerate_sigma_decompositions(ctx, alpha) == [
            d for d in oracle.enumerate_decompositions(ctx, alpha)
            if all(oracle.sigma_member(ctx, p) for p in d)
        ]
    assert checked >= 100


def test_oracle_canonical_examples():
    kron0 = qd.LambdaContext(KRONECKER, (0, 0))
    assert oracle.oracle_canonical(kron0, (2, 3)) == ((0, 1), (1, 1), (1, 1))
    ctx4 = qd.LambdaContext(EX4, EX4_WEIGHT)
    assert oracle.oracle_canonical(ctx4, (1, 3, 2, 1)) == ((1, 3, 2, 1),)
    assert oracle.oracle_canonical(kron0, (0, 0)) == ()
    with pytest.raises(NotInNRLambdaPlus):
        oracle.oracle_canonical(ctx4, (0, 0, 1, 2))


def test_oracle_canonical_refuses_two_maximizers_as_an_internal_inconsistency(monkeypatch):
    kron0 = qd.LambdaContext(KRONECKER, (0, 0))
    canonical = oracle.oracle_canonical(kron0, (2, 3))
    monkeypatch.setattr(oracle, "enumerate_sigma_decompositions", lambda ctx, a: [canonical, canonical])
    with pytest.raises(InternalInconsistency, match="2 maximizing Sigma multisets"):
        oracle.oracle_canonical(kron0, (2, 3))


def test_sigma_member_matches_main():
    # the whole box of the maincase check, non-orthogonal vectors and zero included
    for lam, orthogonal, members in ((EX4_WEIGHT, 26, 3), ((0, 1, -1, 0), 50, 4)):
        ctx4 = qd.LambdaContext(EX4, lam)
        seen = found = 0
        for vec in itertools.product(range(2), range(5), range(5), range(5)):
            member = oracle.sigma_member(ctx4, vec)
            assert member == qd.in_sigma_lambda(ctx4, vec), (lam, vec)
            seen += qd.lambda_dot(ctx4.weight, vec) == 0
            found += member
        assert (seen, found) == (orthogonal, members), lam


def test_sigma_member_tests_orthogonality_before_the_box_scan():
    ctx4 = qd.LambdaContext(EX4, EX4_WEIGHT, qd.Caps(max_box_volume=10))
    # (1,4,4,3) pairs to -1 with the weight; its box of volume 200 is over the cap
    assert oracle.sigma_member(ctx4, (1, 4, 4, 3)) is False
    assert qd.in_sigma_lambda(ctx4, (1, 4, 4, 3)) is False
    # (1,4,4,4) is orthogonal, so its box is scanned and the cap still holds
    with pytest.raises(ResourceLimit, match="max_box_volume"):
        oracle.sigma_member(ctx4, (1, 4, 4, 4))


def test_nr_member_matches_main():
    ctx4 = qd.LambdaContext(EX4, EX4_WEIGHT)
    for vec in itertools.product(range(2), range(3), range(3), range(2)):
        assert oracle.nr_member(ctx4, vec) == qd.in_N_R_lambda_plus(ctx4, vec)


def test_refines_local():
    assert oracle.refines([(1, 0), (0, 1)], [(1, 1)])
    assert oracle.refines([(1, 1), (1, 1)], [(1, 1), (1, 1)])
    assert not oracle.refines([(2, 0), (0, 2)], [(1, 1), (1, 1)])
    with pytest.raises(ValueError, match="0.5 is not an integer"):
        oracle.refines([(0.5,), (1.9,)], [(1,)])
    assert oracle.refines([(2.0,), (Fraction(4, 2),)], [(4,)])


def test_check_deltasum():
    kron0 = qd.LambdaContext(KRONECKER, (0, 0))
    report = oracle.check_deltasum(kron0, 2)
    assert report.passed and report.instances_checked == 3
    assert oracle.check_deltasum(kron0, 1).passed
    assert oracle.check_deltasum(kron0, 3).passed
    tri = qd.LambdaContext(TRIANGLE, (1, -1, 0))
    report = oracle.check_deltasum(tri, 2)
    assert report.passed and report.instances_checked >= 1
    with pytest.raises(ValueError):
        oracle.check_deltasum(qd.LambdaContext(A2, (0, 0)), 2)
    with pytest.raises(ValueError):
        oracle.check_deltasum(qd.LambdaContext(KRONECKER, (1, 0)), 2)


def test_check_dynkvec():
    for name, bound in (("A1", 4), ("A2", 4), ("D4", 3)):
        report = oracle.check_dynkvec(qd.dynkin_quiver(name), bound)
        assert report.passed, name
        n = qd.dynkin_quiver(name).n
        assert report.instances_checked == (2 * bound + 1) ** n - 1
    with pytest.raises(ValueError):
        oracle.check_dynkvec(KRONECKER, 2)


def _dynkvec_by_bilinear_form(q, bound):
    """Counterexamples and instance count of the vector check, one form call per pairing."""
    roots = oracle._dynkin_positive_roots(q)
    vectors = [v for v in itertools.product(range(-bound, bound + 1), repeat=q.n) if any(v)]
    bad = [list(v) for v in vectors if all(-1 <= qd.bilinear_form(q, v, eta) <= 0 for eta in roots)]
    return bad, len(vectors)


def test_check_dynkvec_matches_the_bilinear_form():
    for name in ("A1", "A2", "A3", "A4", "D4", "E6"):
        q = qd.dynkin_quiver(name)
        report = oracle.check_dynkvec(q, 2)
        bad, instances = _dynkvec_by_bilinear_form(q, 2)
        assert [ce["vector"] for ce in report.counterexamples] == bad, name
        assert report.instances_checked == instances == 5 ** q.n - 1, name


def test_dynkin_closure_root_counts():
    counts = {f"A{n}": n * (n + 1) // 2 for n in range(1, 9)}
    counts |= {f"D{n}": n * (n - 1) for n in range(4, 9)}
    counts |= {"E6": 36, "E7": 63, "E8": 120}
    caps = qd.Caps(max_bound_sum=30)
    for name, count in counts.items():
        q = qd.dynkin_quiver(name)
        roots = oracle._dynkin_positive_roots(q)
        assert len(roots) == count, name
        if name in ("A1", "A2", "A3", "A4", "D4", "D5"):
            assert roots == list(qd.positive_roots_upto(q, (6,) * q.n, caps)), name
    # the highest root of E8 reaches the box edge the closure stops at
    assert max(map(max, oracle._dynkin_positive_roots(qd.dynkin_quiver("E8")))) == 6


def test_added_vertex_split():
    j, k, delta = oracle.added_vertex_split(EX4)
    assert (j, k, delta) == ("1", "2", (0, 1, 1, 1))
    with pytest.raises(ValueError):
        oracle.added_vertex_split(KRONECKER)


def test_check_rootineq():
    ctx4 = qd.LambdaContext(EX4, EX4_WEIGHT)
    assert oracle.check_rootineq(ctx4, (1, 3, 2, 1)).passed
    assert oracle.check_rootineq(ctx4, (1, 0, 0, 0)).passed
    synth = qd.LambdaContext(EX4, (0, 1, -1, 0))
    report = oracle.check_rootineq(synth, (1, 0, 0, 0))
    assert report.passed and report.instances_checked == 2
    with pytest.raises(ValueError, match=r"^the vector must have entry 1 at the added vertex '1'$"):
        oracle.check_rootineq(ctx4, (0, 1, 1, 1))
    with pytest.raises(ValueError, match=r"^the weight must be orthogonal to delta and vanish at the added vertex$"):
        oracle.check_rootineq(qd.LambdaContext(EX4, (1, 1, -2, 1)), (1, 0, 0, 0))
    with pytest.raises(ValueError, match=r"^\(1, 1, 0, 0\) is not a Sigma member for this weight$"):
        oracle.check_rootineq(ctx4, (1, 1, 0, 0))


def test_check_maincase():
    ctx4 = qd.LambdaContext(EX4, EX4_WEIGHT)
    report = oracle.check_maincase(ctx4, (1, 4, 4, 4), 6)
    assert report.passed
    assert report.info["with_qualifying_m"] == [{"alpha": [1, 0, 0, 0], "m": 0}]
    assert [1, 3, 2, 1] in report.info["without_qualifying_m"]
    with pytest.raises(ValueError, match=r"^the weight must be orthogonal to delta and vanish at the added vertex$"):
        oracle.check_maincase(qd.LambdaContext(EX4, (1, 1, -2, 1)), (1, 2, 2, 2), 3)


def test_check_support_split_disjoint():
    q = qd.Quiver(["a", "b", "c"], [["a", "b"]])
    ctx = qd.LambdaContext(q, (1, -1, 0))
    report = oracle.check_support_split(ctx, (1, 1, 2), ("a", "b"), ("c",))
    assert report.passed


def test_check_support_split_one_one():
    bridge = qd.Quiver(
        ["j1", "j2", "k1", "k2"],
        [["j1", "j2"], ["j2", "k1"], ["k1", "k2"], ["k1", "k2"]],
    )
    ctx = qd.LambdaContext(bridge, (1, -1, Fraction(1, 2), Fraction(-1, 2)))
    report = oracle.check_support_split(ctx, (1, 1, 1, 1), ("j1", "j2"), ("k1", "k2"))
    assert report.passed and report.instances_checked == 2


def test_check_support_split_delta_multiple():
    pend = qd.Quiver(["j", "k0", "k1"], [["j", "k0"], ["k0", "k1"], ["k0", "k1"]])
    ctx = qd.LambdaContext(pend, (0, 1, -1))
    report = oracle.check_support_split(ctx, (1, 2, 2), ("j",), ("k0", "k1"))
    assert report.passed


def test_check_support_split_hypotheses():
    bridge = qd.Quiver(["a", "b"], [["a", "b"]])
    ctx = qd.LambdaContext(bridge, (1, -1))
    with pytest.raises(ValueError, match=r"^the weight must be orthogonal to the first side$"):
        oracle.check_support_split(ctx, (2, 2), ("a",), ("b",))
    with pytest.raises(ValueError, match=r"^the connecting arrow needs entries 1-1 or the delta-multiple shape$"):
        oracle.check_support_split(qd.LambdaContext(bridge, (0, 0)), (2, 2), ("a",), ("b",))
    two_arrows = qd.Quiver(["a", "b"], [["a", "b"], ["a", "b"]])
    with pytest.raises(ValueError, match=r"^the parts must be joined by at most one arrow$"):
        oracle.check_support_split(
            qd.LambdaContext(two_arrows, (0, 0)), (1, 1), ("a",), ("b",)
        )
    with pytest.raises(ValueError, match=r"^the two parts must partition the vertex set$"):
        oracle.check_support_split(ctx, (1, 1), ("a",), ("a", "b"))


def test_one_arrow_membership_factorization():
    # with a single connecting arrow and entry 1 at the join, membership
    # on the whole quiver factors through the two sides
    bridge = qd.Quiver(["j1", "j", "k", "k1"], [["j1", "j"], ["j", "k"], ["k", "k1"]])
    tilde = qd.Quiver(["j", "k", "k1"], [["j", "k"], ["k", "k1"]])
    lam = (1, -1, 2, -2)
    ctx = qd.LambdaContext(bridge, lam)
    mu = qd.LambdaContext(tilde, (0, 2, -2))
    lam_j = qd.LambdaContext(bridge, lam)
    for alpha in itertools.product(range(3), (1,), range(3), range(3)):
        a_j = (alpha[0], alpha[1], 0, 0)
        a_k = (0, 0, alpha[2], alpha[3])
        if qd.lambda_dot(ctx.weight, a_j) != 0 or qd.lambda_dot(ctx.weight, a_k) != 0:
            continue
        whole = oracle.nr_member(ctx, alpha)
        left = oracle.nr_member(lam_j, a_j)
        right = oracle.nr_member(mu, (1, alpha[2], alpha[3]))
        assert whole == (left and right), alpha


def test_dominant_weight_forces_delta_multiples():
    # with the weight dominant away from the join, closure members vanishing
    # at the added vertex are delta multiples wherever the weight is nonzero
    for lam in ((0, -2, 1, 1), (0, -1, 1, 0), (0, -1, 0, 1)):
        ctx = qd.LambdaContext(EX4, lam)
        delta = (0, 1, 1, 1)
        assert qd.lambda_dot(ctx.weight, delta) == 0
        nonzero = [i for i, x in enumerate(ctx.weight) if x != 0]
        for vec in itertools.product((0,), range(4), range(4), range(4)):
            if not any(vec) or not oracle.nr_member(ctx, vec):
                continue
            ratios = {Fraction(vec[i], delta[i]) for i in nonzero}
            assert len(ratios) == 1, (lam, vec)
            assert next(iter(ratios)).denominator == 1, (lam, vec)


def test_report_json_shape():
    kron0 = qd.LambdaContext(KRONECKER, (0, 0))
    data = oracle.check_deltasum(kron0, 2).to_json_dict()
    assert set(data) == {"lemma", "instances_checked", "counterexamples", "passed", "info"}
    assert "elapsed" not in data
