"""Property tests for the algebraic identities the package relies on."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import quiverdec as qd


@st.composite
def quivers(draw):
    n = draw(st.integers(1, 4))
    vertices = [str(i) for i in range(n)]
    n_arrows = draw(st.integers(0, 6))
    idx = st.integers(0, n - 1)
    arrows = [[vertices[draw(idx)], vertices[draw(idx)]] for _ in range(n_arrows)]
    return qd.Quiver(vertices, arrows)


@st.composite
def quiver_with_vectors(draw, count=1):
    q = draw(quivers())
    vecs = [
        tuple(draw(st.integers(-4, 4)) for _ in range(q.n)) for _ in range(count)
    ]
    return (q, *vecs)


@st.composite
def quiver_with_weight_and_vector(draw):
    q = draw(quivers())
    lam = tuple(
        Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))) for _ in range(q.n)
    )
    a = tuple(draw(st.integers(-4, 4)) for _ in range(q.n))
    return q, lam, a


def _loopfree(q):
    return [v for v in q.vertices if q.is_loopfree(v)]


@given(quiver_with_vectors(count=2))
def test_form_symmetry(data):
    q, a, b = data
    assert qd.bilinear_form(q, a, b) == qd.bilinear_form(q, b, a)


@given(quiver_with_vectors(count=3))
def test_form_bilinearity(data):
    q, a, b, c = data
    ab = tuple(x + y for x, y in zip(a, b))
    assert qd.bilinear_form(q, ab, c) == qd.bilinear_form(q, a, c) + qd.bilinear_form(q, b, c)


@given(quiver_with_vectors())
def test_p_is_one_minus_q(data):
    q, a = data
    assert qd.p_form(q, a) == 1 - qd.q_form(q, a)


@given(quivers())
def test_loopfree_diagonal(q):
    for v in q.vertices:
        eps = qd.coordinate_vector(q, v)
        value = qd.bilinear_form(q, eps, eps)
        if q.is_loopfree(v):
            assert value == 2
        else:
            assert value <= 0


@given(quiver_with_vectors())
def test_reflection_involution_and_p_invariance(data):
    q, a = data
    for v in _loopfree(q):
        image = qd.simple_reflection(q, v, a)
        assert qd.simple_reflection(q, v, image) == a
        assert qd.p_form(q, image) == qd.p_form(q, a)


@given(quiver_with_weight_and_vector())
def test_dual_reflection_pairing_identity(data):
    q, lam, a = data
    for v in _loopfree(q):
        assert qd.lambda_dot(
            qd.dual_reflection(q, v, lam), qd.simple_reflection(q, v, a)
        ) == qd.lambda_dot(lam, a)


@given(quiver_with_weight_and_vector())
def test_dual_reflection_involution(data):
    q, lam, a = data
    for v in _loopfree(q):
        assert qd.dual_reflection(q, v, qd.dual_reflection(q, v, lam)) == tuple(lam)


@settings(max_examples=60)
@given(quiver_with_vectors())
def test_classification_constant_on_positive_orbits(data):
    q, a = data
    a = tuple(abs(x) for x in a)
    if not any(a):
        return
    cls = qd.classify_root(q, a)
    if cls.is_root:
        assert cls.is_imaginary == (qd.p_form(q, a) >= 1)
    for v in _loopfree(q):
        image = qd.simple_reflection(q, v, a)
        if all(x >= 0 for x in image) and any(image):
            assert qd.classify_root(q, image) is cls


@settings(max_examples=40)
@given(quivers())
def test_positive_roots_box_restriction(q):
    # roots below a smaller bound are exactly the larger list filtered
    small = (1,) * q.n
    big = (2,) * q.n
    small_roots = set(qd.positive_roots_upto(q, small))
    big_roots = qd.positive_roots_upto(q, big)
    assert small_roots == {b for b in big_roots if all(x <= 1 for x in b)}


_EX4 = qd.Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])
_D4 = qd.extended_dynkin_quiver("D4")
_A2 = qd.extended_dynkin_quiver("A2")
# decomposable pairs at nonzero weights, small enough to decompose directly
_WEIGHTED_PAIRS = [
    (_EX4, (0, 1, -2, 1), (1, 3, 2, 1)),
    (_EX4, (0, 1, -2, 1), (1, 4, 3, 2)),
    (_EX4, (0, 1, -1, 0), (1, 2, 2, 2)),
    (_A2, (1, 2, -3), (1, 1, 1)),
    (_A2, (1, -1, 0), (2, 2, 2)),
    (_D4, (1, -1, 0, 1, -1), (2, 1, 2, 1, 2)),
    (_D4, (1, -1, 0, 1, -1), (2, 2, 4, 2, 2)),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_WEIGHTED_PAIRS), st.lists(st.integers(0, 4), max_size=5))
def test_decomposition_equivariant_through_the_reduced_path(case, picks):
    # random admissible moves carry the canonical decomposition term by term;
    # the moved pair is decomposed under a sum cap that only its descent fits
    q, lam, alpha = case
    base = qd.canonical_decompose(qd.LambdaContext(q, lam), alpha)
    pair, seq = qd.make_pair(q, lam, alpha), []
    for k in picks:
        admissible = [v for v in q.vertices if qd.is_admissible(q, pair, v)]
        if admissible:
            seq.append(admissible[k % len(admissible)])
            pair = qd.reflect_pair(q, pair, seq[-1])
    assert min(pair.dim) >= 0
    low, _ = qd.descend(q, pair)
    caps = qd.Caps(max_bound_sum=max(sum(low.dim), 1))
    ctx = qd.LambdaContext(q, pair.weight, caps)
    moved = [t._replace(sigma=qd.apply_sequence(q, qd.make_pair(q, lam, t.sigma), seq)[0].dim)
             for t in base.terms]
    dec = qd.canonical_decompose(ctx, pair.dim)
    assert dec.terms == tuple(sorted(moved, key=lambda t: (-t.p_value, t.sigma)))
    assert (dec.total, dec.norm) == (pair.dim, base.norm)
    assert qd.in_N_R_lambda_plus(ctx, pair.dim) and qd.norm_lambda(ctx, pair.dim) == base.norm
