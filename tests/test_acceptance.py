"""Acceptance criteria, one test per criterion, each timed at its stated limit.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The shared instance corpus comes from ``corpus.py``.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest

import quiverdec as qd
from quiverdec import oracle
from quiverdec.cli import main
from quiverdec.decomposer import check_refinement, sigma_maximizer_count

from corpus import EX4, EX4_WEIGHT, build_corpus

KRONECKER = qd.extended_dynkin_quiver("A1")
TRIANGLE = qd.extended_dynkin_quiver("A2")
JORDAN = qd.extended_dynkin_quiver("A0")


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(minimum=200)


def _report(number, elapsed, limit, message):
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {message}")


def test_criterion_1_reflection_chain(capsys):
    started = time.perf_counter()
    rc = main([
        "reflect", "--quiver", qd.fixture_path("ex4.json"),
        "--lambda", "0,1,-2,1", "--alpha", "1,3,2,1", "--seq", "2,3,4,2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    expected = [
        "((0,1,-2,1),(1,3,2,1))",
        "((1,-1,-1,2),(1,1,2,1))",
        "((1,-2,1,1),(1,1,0,1))",
        "((1,-1,2,-1),(1,1,0,0))",
        "((0,1,1,-2),(1,0,0,0))",
    ]
    lines = out.strip().splitlines()
    assert len(lines) == 5
    for line, pair in zip(lines, expected):
        assert line.endswith(pair)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(1, elapsed, 1.0, "reflection chain reproduced exactly")


def test_criterion_2_sigma_membership_and_gap():
    started = time.perf_counter()
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
    assert qd.in_sigma_lambda(ctx, (1, 3, 2, 1))
    delta, alpha_prime = (0, 1, 1, 1), (0, 3, 2, 1)
    for m in range(9):
        gap = tuple(m * d - x for d, x in zip(delta, alpha_prime))
        assert not qd.in_N_R_lambda_plus(ctx, gap), m
    _report(2, time.perf_counter() - started, 10.0,
            "Sigma membership holds and no multiple of delta qualifies")


def test_criterion_3_extended_dynkin_formula():
    started = time.perf_counter()
    checked = 0
    for name in ("A1", "A2"):
        q = qd.extended_dynkin_quiver(name)
        delta = qd.classify_shape(q).delta
        ctx = qd.LambdaContext(q, [0] * q.n)
        expected_sigma = {delta} | {qd.coordinate_vector(q, v) for v in q.vertices}
        got = set(qd.sigma_lambda_upto(ctx, tuple(2 * d for d in delta)))
        assert got == expected_sigma, name
        for alpha in itertools.product(*(range(3 * d + 2) for d in delta)):
            m = min(a // d for a, d in zip(alpha, delta))
            expected = [(delta, m)] if m else []
            expected += [
                (qd.coordinate_vector(q, v), a - m * d)
                for v, (a, d) in zip(q.vertices, zip(alpha, delta))
                if a - m * d
            ]
            dec = qd.canonical_decompose(ctx, alpha)
            assert sorted((t.sigma, t.multiplicity) for t in dec.terms) == sorted(expected)
            checked += 1
    _report(3, time.perf_counter() - started, 30.0,
            f"largest-multiple-of-delta formula on {checked} vectors")


def test_criterion_4_refinement_and_uniqueness(corpus):
    started = time.perf_counter()
    assert len(corpus) >= 200
    total_decs = 0
    for name, q, lam, alpha, ctx in corpus:
        canonical = qd.canonical_decompose(ctx, alpha)
        target = canonical.multiset()
        assert sigma_maximizer_count(ctx, alpha) == 1, (name, lam, alpha)
        for dec in oracle.enumerate_sigma_decompositions(ctx, alpha):
            total_decs += 1
            assert check_refinement(dec, target), (name, lam, alpha, dec)
    _report(4, time.perf_counter() - started, 300.0,
            f"{len(corpus)} instances, {total_decs} decompositions all refine; maximizer unique")


def test_criterion_5_oracle_equivalence(corpus):
    started = time.perf_counter()
    for name, q, lam, alpha, ctx in corpus:
        canonical = qd.canonical_decompose(ctx, alpha).multiset()
        assert oracle.oracle_canonical(ctx, alpha) == canonical, (name, lam, alpha)
        assert oracle.sigma_member(ctx, alpha) == qd.in_sigma_lambda(ctx, alpha)
    _report(5, time.perf_counter() - started, 300.0,
            f"oracle agrees on all {len(corpus)} instances")


def test_criterion_6_factor_classification(corpus):
    started = time.perf_counter()
    # (1) real terms are points with zero dimension contribution
    # (2) isotropic terms are indivisible and normalize onto extended Dynkin deltas
    # (3) non-isotropic multiples stay Sigma members; multiplicity one in corpus
    isotropic_seen = 0
    for name, q, lam, alpha, ctx in corpus:
        report = qd.product_structure_report(ctx, alpha)
        for term, factor in zip(report.decomposition.terms, report.factors):
            if term.root_class is qd.RootClass.REAL:
                assert factor.kind == "Point" and factor.dimension_contribution == 0
            elif term.root_class is qd.RootClass.ISOTROPIC_IMAGINARY:
                isotropic_seen += 1
                assert gcd(*term.sigma) == 1
                found = qd.fundamental_representative(q, qd.PairState(ctx.weight, term.sigma))
                assert found is not None
                state, _ = found
                supp = qd.support(q, state.dim)
                sub = qd.restrict(q, supp)
                shape = qd.classify_shape(sub)
                assert shape.kind is qd.ShapeKind.EXTENDED_DYNKIN
                from quiverdec.oracle import restrict_vector

                assert restrict_vector(q, state.dim, supp) == shape.delta
                assert factor.label is not None
            else:
                assert factor.kind == "NonIsotropicBlock"
                assert term.multiplicity == 1
    assert isotropic_seen > 0
    assert qd.kleinian_label(qd.LambdaContext(KRONECKER, (0, 0)), (1, 1)) == "A1"
    assert qd.kleinian_label(qd.LambdaContext(TRIANGLE, (0, 0, 0)), (1, 1, 1)) == "A2"
    k3 = qd.Quiver(["0", "1"], [["0", "1"]] * 3)
    ctx3 = qd.LambdaContext(k3, (0, 0))
    for m in (1, 2, 3):
        assert qd.in_sigma_lambda(ctx3, (m, m)), m
    _report(6, time.perf_counter() - started, 60.0,
            f"factor classes verified; {isotropic_seen} isotropic terms normalized")


def test_criterion_7_dynkin_vector_check():
    started = time.perf_counter()
    for name in ("A1", "A2", "A3", "A4", "D4"):
        report = oracle.check_dynkvec(qd.dynkin_quiver(name), 3)
        assert report.passed and report.counterexamples == [], name
    _report(7, time.perf_counter() - started, 60.0,
            "no vector pairs within [-1,0] against all positive roots, five quivers")


def test_criterion_8_dimension_arithmetic(corpus):
    started = time.perf_counter()
    for name, q, lam, alpha, ctx in corpus:
        dec = qd.canonical_decompose(ctx, alpha)
        assert qd.dimension_of_N(ctx, alpha) == 2 * sum(
            t.multiplicity * t.p_value for t in dec.terms
        )
    assert qd.dimension_of_N(qd.LambdaContext(KRONECKER, (0, 0)), (2, 3)) == 4
    assert qd.dimension_of_N(qd.LambdaContext(JORDAN, (0,)), (3,)) == 6
    _report(8, time.perf_counter() - started, 60.0,
            f"dimension equals twice the weighted p-sum on {len(corpus)} instances")


def _random_quiver(rng):
    n = rng.randint(1, 4)
    vertices = [str(i) for i in range(n)]
    arrows = [
        [vertices[rng.randrange(n)], vertices[rng.randrange(n)]]
        for _ in range(rng.randint(0, 5))
    ]
    return qd.Quiver(vertices, arrows)


def test_criterion_9_invariant_micro_suite():
    started = time.perf_counter()
    rng = random.Random(987654321)
    cases = 1000
    for _ in range(cases):
        q = _random_quiver(rng)
        a = tuple(rng.randint(-4, 4) for _ in range(q.n))
        b = tuple(rng.randint(-4, 4) for _ in range(q.n))
        lam = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(q.n))
        assert qd.bilinear_form(q, a, b) == qd.bilinear_form(q, b, a)
        assert qd.p_form(q, a) == 1 - qd.q_form(q, a)
        for v in q.vertices:
            if not q.is_loopfree(v):
                continue
            image = qd.simple_reflection(q, v, a)
            assert qd.p_form(q, image) == qd.p_form(q, a)
            assert qd.simple_reflection(q, v, image) == a
            rlam = qd.dual_reflection(q, v, lam)
            assert qd.lambda_dot(rlam, image) == qd.lambda_dot(lam, a)
            assert qd.dual_reflection(q, v, rlam) == lam
    _report(9, time.perf_counter() - started, 120.0,
            f"{cases} random cases per identity, zero failures")
