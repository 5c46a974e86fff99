"""Property tests for the algebraic identities the package relies on."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import quiverdec as qd
from quiverdec import cli


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


# -- the command line never ends in a traceback ---------------------------------

# (path, vertex count) of each bundled fixture
_FIXTURES = [(qd.fixture_path(name), qd.load_fixture(name).n)
             for name in ("a2.json", "ex4.json", "jordan.json", "kronecker.json")]
_CAP_ENV = ("QUIVERDEC_MAX_BOX", "QUIVERDEC_MAX_SUM")
_JUNK = ["", " ", "x", "1/0", "1/2", "-1/3", "1.5", "1e3", "0x1", "+2", "--json"]
# cap values stay at or below the defaults: a raised cap would let a huge box be enumerated
_cap_values = st.one_of(st.integers(1, 24).map(str), st.integers(1, 24).map(str),
                        st.sampled_from(["", "abc", "-1", "0", "1.5", "1/0", " 7 "]))
_number = st.integers(-3, 12).map(str)
_entry = st.one_of(_number, st.sampled_from(_JUNK))
_huge = st.integers(10**6, 10**30).map(str)


def _csv(draw, entry, n):
    """Comma-separated entries: mostly ``n`` numbers, else the wrong length or junk."""
    size = draw(st.sampled_from([n, n, n, 0, 1, n + 1]))
    entry = draw(st.sampled_from([_number, _number, entry]))
    return ",".join(draw(entry) for _ in range(size))


@st.composite
def _quiver_json(draw):
    """(text, vertex count) of a random quiver file, valid or not."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        q = draw(quivers())
        return json.dumps({"vertices": list(q.vertices), "arrows": [list(a) for a in q.arrows]}), q.n
    if kind == 1:
        leaf = st.one_of(st.none(), st.integers(-2, 3), st.text("ab", max_size=2))
        value = st.recursive(leaf, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
        text = json.dumps(draw(st.dictionaries(st.sampled_from(["vertices", "arrows", "x"]), value)))
    else:
        text = draw(st.text(max_size=20))
    return text, draw(st.integers(0, 4))


@st.composite
def _invocation(draw):
    """(argv, quiver text): a command line, mostly malformed, and either no text (the
    quiver is a fixture) or the text to write to a file in place of ``QUIVER``."""
    if draw(st.booleans()):
        (path, n), text = draw(st.sampled_from(_FIXTURES)), None
    else:
        (text, n), path = draw(_quiver_json()), "QUIVER"
    vector = _csv(draw, _entry, n)
    weight = _csv(draw, _entry, n)
    # huge entries only where a box cap refuses them before any descent runs
    huge = _csv(draw, st.one_of(_entry, _huge), n)
    zero = ",".join(["0"] * n)
    command = draw(st.sampled_from(["classify", "classify-alpha", "roots", "sigma-alpha",
                                    "sigma-bound", "decompose", "decompose-zero", "reflect"]))
    argv = {
        "classify": ["classify"],
        "classify-alpha": ["classify", "--alpha", vector],
        "roots": ["roots", "--bound", huge, "--lambda", weight],
        "sigma-alpha": ["sigma", "--lambda", weight, "--alpha", vector],
        "sigma-bound": ["sigma", "--lambda", weight, "--bound", huge],
        "decompose": ["decompose", "--lambda", weight, "--alpha", vector],
        "decompose-zero": ["decompose", "--lambda", zero, "--alpha", huge],
        "reflect": ["reflect", "--lambda", weight, "--alpha", vector, "--seq", _csv(draw, _entry, 3)],
    }[command]
    flags = draw(st.sampled_from([[], [], ["--json"], ["--max-box", "0"], ["--max-sum", "x"], ["--max-box", "5"]]))
    return [argv[0], "--quiver", path, *argv[1:], *flags], text


@pytest.fixture(scope="module")
def quiver_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("quivers")


_EX4_FILE, _KRONECKER_FILE = _FIXTURES[1][0], _FIXTURES[3][0]


@settings(max_examples=150, deadline=None)
@example(case=(["decompose", "--quiver", _EX4_FILE, "--lambda", "1/0,0,0,0", "--alpha", "1,1,1,1"], None), env={})
@example(case=(["sigma", "--quiver", _EX4_FILE, "--lambda", "0,0,0,0", "--alpha", ""], None), env={})
@example(case=(["decompose", "--quiver", _KRONECKER_FILE, "--lambda", "0,0", "--alpha", "1,x"], None), env={})
@example(case=(["roots", "--quiver", _KRONECKER_FILE, "--bound", f"{10**30},1"], None), env={})
@example(case=(["decompose", "--quiver", _KRONECKER_FILE, "--lambda", "0,0", "--alpha", "1,2,3"], None),
         env={"QUIVERDEC_MAX_SUM": "1/0"})
@example(case=(["classify", "--quiver", "QUIVER"], '{"vertices": [1], "arrows": null}'), env={})
@example(case=(["classify", "--quiver", "QUIVER"], '{"vertices": ["a", "b"], "arrows": [[["a"], "b"]]}'), env={})
@example(case=(["classify", "--quiver", "QUIVER"], "[" * 200_000 + "]" * 200_000), env={})
@given(case=_invocation(), env=st.fixed_dictionaries({}, optional={k: _cap_values for k in _CAP_ENV}))
def test_cli_never_escapes_with_a_traceback(quiver_dir, case, env):
    argv, text = case
    if text is not None:
        (quiver_dir / "q.json").write_text(text)
        argv = [str(quiver_dir / "q.json") if a == "QUIVER" else a for a in argv]
    with pytest.MonkeyPatch.context() as mp:
        for name in _CAP_ENV:
            mp.delenv(name, raising=False)
        for name, value in env.items():
            mp.setenv(name, value)
        assert cli.main(argv) in (0, 1, 2, 3), argv
