import ast
import itertools
import random
from fractions import Fraction

import pytest

import quiverdec as qd
from corpus import build_corpus, table_cells
from quiverdec import decomposer, lambda_roots
from quiverdec.errors import InternalInconsistency, NotInNRLambdaPlus
from quiverdec.lambda_roots import BoxTable

EX4 = qd.Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])
EX4_WEIGHT = (0, 1, -2, 1)
KRONECKER = qd.extended_dynkin_quiver("A1")
A2 = qd.dynkin_quiver("A2")
K3 = qd.Quiver(["0", "1"], [["0", "1"]] * 3)


@pytest.fixture(scope="module")
def ex4_ctx():
    return qd.LambdaContext(EX4, EX4_WEIGHT)


def test_in_R_examples(ex4_ctx):
    assert not qd.in_R_lambda_plus(ex4_ctx, (0, 0, 1, 0))
    assert qd.in_R_lambda_plus(qd.LambdaContext(KRONECKER, (0, 0)), (1, 1))
    assert qd.in_R_lambda_plus(qd.LambdaContext(A2, (1, -1)), (1, 1))
    assert not qd.in_R_lambda_plus(qd.LambdaContext(A2, (1, -1)), (1, 0))


def test_in_NR_examples(ex4_ctx):
    assert qd.in_N_R_lambda_plus(ex4_ctx, (0, 0, 0, 0))
    assert not qd.in_N_R_lambda_plus(ex4_ctx, (0, 0, 1, 2))
    assert qd.in_N_R_lambda_plus(qd.LambdaContext(A2, (1, -1)), (2, 2))
    # negative entries are simply not members
    assert not qd.in_N_R_lambda_plus(ex4_ctx, (0, -1, 0, 1))


def test_no_m_clears_delta_gap(ex4_ctx):
    # the added-vertex counterexample: no multiple of delta reaches past alpha'
    delta = (0, 1, 1, 1)
    alpha_prime = (0, 3, 2, 1)
    for m in range(9):
        gap = tuple(m * d - x for d, x in zip(delta, alpha_prime))
        assert not qd.in_N_R_lambda_plus(ex4_ctx, gap), m


def test_sigma_examples(ex4_ctx):
    assert qd.in_sigma_lambda(ex4_ctx, (1, 3, 2, 1))
    assert not qd.in_sigma_lambda(qd.LambdaContext(A2, (0, 0)), (1, 1))
    assert qd.in_sigma_lambda(qd.LambdaContext(K3, (0, 0)), (2, 2))


def test_zero_and_negative_vectors_are_neither_roots_nor_members():
    # a fresh context has the zero box, so (1, -1, 0, 0) is outside it and (-1, 0, 0, 0) inside
    for warm in (False, True):
        ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
        if warm:
            assert qd.in_sigma_lambda(ctx, (1, 3, 2, 1))
        for a in ((-1, 0, 0, 0), (0, 0, 0, 0), (1, -1, 0, 0)):
            assert not qd.in_R_lambda_plus(ctx, a), (warm, a)
            assert not qd.in_sigma_lambda(ctx, a), (warm, a)


def test_sigma_upto_examples():
    kron0 = qd.LambdaContext(KRONECKER, (0, 0))
    assert set(qd.sigma_lambda_upto(kron0, (2, 2))) == {(1, 0), (0, 1), (1, 1)}
    a2 = qd.LambdaContext(A2, (1, -1))
    assert qd.sigma_lambda_upto(a2, (2, 2)) == ((1, 1),)
    assert qd.sigma_lambda_upto(a2, (0, 0)) == ()


def test_sigma_zero_extended_dynkin_is_delta_and_simples():
    for name in ("A1", "A2", "D4"):
        q = qd.extended_dynkin_quiver(name)
        delta = qd.classify_shape(q).delta
        ctx = qd.LambdaContext(q, [0] * q.n)
        expected = {delta} | {qd.coordinate_vector(q, v) for v in q.vertices}
        assert set(qd.sigma_lambda_upto(ctx, tuple(2 * d for d in delta))) == expected


def test_norm_examples(ex4_ctx):
    kron0 = qd.LambdaContext(KRONECKER, (0, 0))
    assert qd.norm_lambda(kron0, (2, 3)) == 2
    assert qd.norm_lambda(ex4_ctx, (1, 3, 2, 1)) == 0
    # one-term decompositions are optimal on Sigma members
    assert qd.norm_lambda(ex4_ctx, (0, 1, 1, 1)) == qd.p_form(EX4, (0, 1, 1, 1)) == 1
    with pytest.raises(NotInNRLambdaPlus):
        qd.norm_lambda(ex4_ctx, (0, 0, 1, 2))
    with pytest.raises(NotInNRLambdaPlus):
        qd.norm_lambda(ex4_ctx, (0, -1, 0, 0))
    assert qd.norm_lambda(ex4_ctx, (0, 0, 0, 0)) == 0


def test_membership_chain_on_samples(ex4_ctx):
    import itertools

    for a in itertools.product(range(2), range(3), range(3), range(2)):
        if not any(a):
            continue
        in_sigma = qd.in_sigma_lambda(ex4_ctx, a)
        in_r = qd.in_R_lambda_plus(ex4_ctx, a)
        in_nr = qd.in_N_R_lambda_plus(ex4_ctx, a)
        assert not (in_sigma and not in_r)
        assert not (in_r and not in_nr)


def test_norm_superadditive():
    ctx = qd.LambdaContext(KRONECKER, (0, 0))
    import itertools

    members = [
        v
        for v in itertools.product(range(4), repeat=2)
        if any(v) and qd.in_N_R_lambda_plus(ctx, v)
    ]
    for a in members:
        for b in members:
            total = tuple(x + y for x, y in zip(a, b))
            assert qd.norm_lambda(ctx, total) >= qd.norm_lambda(ctx, a) + qd.norm_lambda(ctx, b)


def test_sigma_reflection_equivariance_along_chain(ex4_ctx):
    # admissible moves carry Sigma members to Sigma members
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1))
    _, trace = qd.apply_sequence(EX4, pair, ["2", "3", "4", "2"])
    for step in trace:
        ctx = qd.LambdaContext(EX4, step.state.weight)
        assert qd.in_sigma_lambda(ctx, step.state.dim)


def test_sigma_is_delta_plus_indecomposables():
    # on an extended Dynkin quiver with the weight orthogonal to delta,
    # Sigma is delta together with the indecomposable members of the
    # additive closure, and everything lies below delta
    import itertools

    cases = [("A1", (1, -1)), ("A2", (Fraction(1, 2), Fraction(-1, 2), 0)), ("A2", (0, 0, 0))]
    for name, lam in cases:
        q = qd.extended_dynkin_quiver(name)
        delta = qd.classify_shape(q).delta
        ctx = qd.LambdaContext(q, lam)
        assert qd.lambda_dot(ctx.weight, delta) == 0
        box = tuple(2 * d for d in delta)
        members = {
            v
            for v in itertools.product(*(range(b + 1) for b in box))
            if any(v) and qd.in_N_R_lambda_plus(ctx, v)
        }

        def splits(v):
            for x in itertools.product(*(range(e + 1) for e in v)):
                if any(x) and x != v and x in members:
                    rest = tuple(a - b for a, b in zip(v, x))
                    if rest in members:
                        return True
            return False

        indecomposable = {v for v in members if not splits(v)}
        sigma = set(qd.sigma_lambda_upto(ctx, box))
        assert sigma == indecomposable | {delta}, (name, lam)
        assert all(all(x <= d for x, d in zip(s, delta)) for s in sigma)


def test_max_proper_sum_p():
    ctx = qd.LambdaContext(K3, (0, 0))
    assert qd.max_proper_sum_p(ctx, (2, 2)) == 4
    assert qd.max_proper_sum_p(ctx, (1, 0)) is None
    kron0 = qd.LambdaContext(KRONECKER, (0, 0))
    assert qd.max_proper_sum_p(kron0, (1, 1)) == 0


def test_weight_entries_are_exact():
    lam = [Fraction(1, 3), Fraction(-1, 3), 0, 0]
    ctx = qd.LambdaContext(EX4, lam)
    assert ctx.weight[0] == Fraction(1, 3)
    assert qd.lambda_dot(ctx.weight, (1, 1, 0, 0)) == 0
    assert qd.in_R_lambda_plus(ctx, (1, 1, 0, 0))


# -- the integer orthogonality filter against lambda_dot ---------------------------


def _orthogonal_to(vec, rng):
    """A seeded rational weight orthogonal to ``vec``, nonzero somewhere."""
    lam = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 11))) for _ in vec]
    lam[-1] = -sum(x * d for x, d in zip(lam[:-1], vec)) / vec[-1]
    return tuple(lam) if any(lam) else _orthogonal_to(vec, rng)


def _filter_cases():
    rng = random.Random(808)
    cases = []
    for name in ("D4", "E6"):
        q = qd.extended_dynkin_quiver(name)
        delta = qd.classify_shape(q).delta
        cases.append((q, (0,) * q.n, delta))
        cases += [(q, _orthogonal_to(delta, rng), delta) for _ in range(2)]
    cases.append((EX4, EX4_WEIGHT, (2, 4, 3, 2)))
    for _ in range(2):
        cases.append((EX4, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(4)), (2, 4, 3, 2)))
    cases.append((EX4, _orthogonal_to((1, 3, 2, 1), rng), (2, 4, 3, 2)))
    return cases


@pytest.mark.parametrize("q, lam, bound", _filter_cases())
def test_orthogonal_roots_match_the_rational_filter(q, lam, bound):
    expected = [b for b in qd.positive_roots_upto(q, bound) if qd.lambda_dot(qd.weight_vector(q, lam), b) == 0]
    ctx = qd.LambdaContext(q, lam)
    assert ctx.orthogonal_roots_upto(bound) == tuple(sorted(expected, key=lambda b: (sum(b), b)))
    half = tuple(x // 2 for x in bound)
    assert ctx.orthogonal_roots_upto(half) == tuple(b for b in sorted(expected, key=lambda b: (sum(b), b))
                                                    if all(x <= y for x, y in zip(b, half)))
    # the norm table leaves out the real roots of entry sum above 1 supported on the
    # loopfree vertices of weight 0, which are sums of those vertices' coordinate vectors
    weight = qd.weight_vector(q, lam)
    zero = {i for i, v in enumerate(q.vertices) if q.is_loopfree(v) and weight[i] == 0}

    def pruned(b):
        return qd.p_form(q, b) == 0 and sum(b) > 1 and all(i in zero for i, x in enumerate(b) if x)

    norm = ctx.norm_table(bound)
    assert norm.items == {b: qd.p_form(q, b) for b in expected if not pruned(b)}
    # a positive multiple of the weight has the same orthogonal roots, so the same tables
    scaled = qd.LambdaContext(q, [random.Random(str(lam)).randint(2, 10**6) * Fraction(x) for x in lam])
    for table in ("sigma_table", "norm_table"):
        ours, theirs = getattr(ctx, table)(bound), getattr(scaled, table)(bound)
        assert (table_cells(ours), ours.items) == (table_cells(theirs), theirs.items), table


def _witness_by_tuples(table, a):
    """Reference: the first added item, in the order added, whose rest is a best cell, one tuple per try."""
    parts = []
    while any(a):
        for item, p in table.items.items():
            rest = tuple(x - y for x, y in zip(a, item))
            if min(rest) >= 0 and table[rest] is not None and table[rest] + p == table[a]:
                parts.append(item)
                a = rest
                break
        else:
            raise InternalInconsistency(f"no added item continues a best multiset at {a!r}")
    return tuple(parts)


def test_witness_by_cell_index_matches_the_walk_by_tuples_at_every_corpus_cell():
    reached = 0
    for q, lam, alpha in sorted({(q, lam, alpha) for _, q, lam, alpha, _ in build_corpus()}, key=repr):
        ctx = qd.LambdaContext(q, lam)
        for table in (ctx.sigma_table(alpha), ctx.norm_table(alpha)):
            for a in itertools.product(*(range(b + 1) for b in table.bound)):
                if table[a] is None:
                    with pytest.raises(InternalInconsistency):
                        table.witness(a)
                    with pytest.raises(InternalInconsistency):
                        _witness_by_tuples(table, a)
                else:
                    assert table.witness(a) == _witness_by_tuples(table, a), (q, lam, a)
                    reached += 1
    assert reached >= 2000



def test_witness_offsets_follow_items_as_they_grow():
    # witness keeps its item offsets; an item added, or a seed's entry written into items as
    # LambdaContext._table writes it, is seen by the next call
    table = BoxTable((2, 3), seeds=[0])
    with pytest.raises(InternalInconsistency):
        table.witness((2, 0))
    table.items[(1, 0)] = 0
    assert table.witness((2, 0)) == ((1, 0), (1, 0))
    table.add((0, 1), 1)
    assert table.witness((1, 3)) == ((1, 0), (0, 1), (0, 1), (0, 1)) == _witness_by_tuples(table, (1, 3))
    table.add((0, 3), 5)
    assert table.witness((1, 3)) == ((1, 0), (0, 3)) == _witness_by_tuples(table, (1, 3))


def test_the_query_engine_does_not_import_reflection_walk():
    # lambda_roots and decomposer reach the one descent loop, root_system._descent, directly
    for module in (lambda_roots, decomposer):
        with open(module.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        names = {name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 for name in [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]}
        assert not any("reflection_walk" in name.split(".") for name in names), (module.__name__, names)
