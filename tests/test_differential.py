"""The Sigma-first engine against per-vector classification and the oracle.

The root enumeration in ``positive_roots_upto``, an interval search of the
fundamental region and raising reflections that carry their pairings, is
checked against the lex pass it replaced, and below m * delta of every
extended Dynkin type up to E8 against the closed count of affine roots.
The block-built table seeds are checked against a per-cell seeding, the
seeded tables against one knapsack pass per item, the integer radical
against the rational elimination, over-cap queries on the kept reduced
contexts against the direct path, the Kleinian labels read off Cartan rows
against the sub-quiver path, the tables of a box classified without its
real roots against one pass over every listed orthogonal root, ``classify_root``
against the oracle's roots, and the tables behind Sigma, the norm,
the best proper split and additive-closure membership against the
definitional paths, at boxes up to twice delta of the extended Dynkin
quivers, where the oracle still enumerates quickly.
"""

import gc
import itertools
import math
import random
import weakref
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest

import quiverdec as qd
from corpus import build_corpus, table_cells
from quiverdec import cli, lambda_roots, oracle
from quiverdec.errors import InadmissibleStep
from quiverdec.lambda_roots import BoxTable
from quiverdec.oracle import connected_components, iter_box, restrict_vector
from quiverdec.quiver_core import pairing_with_simple
from quiverdec.root_system import _descent, _in_fundamental, _radical, _roots_with_p

EX4 = qd.Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])
EX4_WEIGHT = (0, 1, -2, 1)
D4 = qd.extended_dynkin_quiver("D4")
D4_DELTA = qd.classify_shape(D4).delta


def _multiple(m, vec):
    return tuple(m * x for x in vec)


def _orthogonal_to_delta(delta, seed):
    """A seeded rational weight orthogonal to delta, nonzero somewhere."""
    rng = random.Random(seed)
    lam = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in delta]
    lam[-1] = -sum(x * d for x, d in zip(lam[:-1], delta)) / delta[-1]
    assert any(lam) and qd.lambda_dot(lam, delta) == 0
    return tuple(lam)


@pytest.mark.parametrize(
    "q, bound",
    [
        (qd.extended_dynkin_quiver("E6"), qd.classify_shape(qd.extended_dynkin_quiver("E6")).delta),
        (D4, _multiple(2, D4_DELTA)),
        (EX4, (2, 4, 3, 2)),
        (qd.extended_dynkin_quiver("A2"), (3, 3, 3)),
        (qd.extended_dynkin_quiver("A0"), (30,)),
    ],
    ids=["E6-delta", "D4-2delta", "ex4", "A2-333", "one-loop-30"],
)
def test_box_pass_matches_descent_and_oracle(q, bound):
    caps = qd.Caps(max_bound_sum=30)
    roots = qd.positive_roots_upto(q, bound, caps)
    assert roots == tuple(a for a in iter_box(bound) if qd.classify_root(q, a).is_root)
    assert set(roots) == oracle.positive_roots_in_box(q, bound, caps)


# -- the cone search and closure against the lex pass ----------------------------


def _strides(bound):
    """Mixed-radix place values: ``sum(a_i * stride_i)`` numbers the box ascending lex."""
    strides = [1] * len(bound)
    for i in range(len(bound) - 1, 0, -1):
        strides[i - 1] = strides[i] * (bound[i] + 1)
    return strides


def _lex_pass(q, bound):
    """The positive roots of the box by one ascending lex pass, one lookup per vector.

    A vector pairing positively at a loopfree vertex reflects to a smaller
    vector classified earlier, or leaves the orthant; the others are
    classified by descent.
    """
    strides = _strides(bound)
    cartan = q.cartan_matrix()
    rows = [(i, [(j, c) for j, c in enumerate(cartan[i]) if c]) for i, v in enumerate(q.vertices) if q.is_loopfree(v)]
    is_root = [False]  # entry k decides the k-th vector of the box
    for k, a in enumerate(iter_box(bound), start=1):
        for i, row in rows:
            c = sum(x * a[j] for j, x in row)
            if c > 0 and sum(a) > 1:
                is_root.append(c <= a[i] and is_root[k - c * strides[i]])
                break
        else:
            is_root.append(qd.classify_root(q, a).is_root)
    return tuple(a for a, root in zip(iter_box(bound), is_root[1:]) if root)


RAISED = qd.Caps(max_bound_sum=120)
AFFINE_DELTA_BOXES = (("A1", 6), ("A2", 3), ("A3", 2), ("A5", 1), ("D5", 1), ("A4", 2), ("D4", 2), ("D6", 1), ("E6", 1))
STAR = qd.Quiver([str(i) for i in range(6)], [["0", str(i)] for i in range(1, 6)])
K3 = qd.Quiver(["0", "1"], [["0", "1"]] * 3)


def _affine_box(name, m):
    q = qd.extended_dynkin_quiver(name)
    return q, _multiple(m, qd.classify_shape(q).delta)


def _permuted(q, bound, rng):
    """The same quiver and box with the vertices in a seeded order."""
    order = list(range(q.n))
    rng.shuffle(order)
    return qd.Quiver([q.vertices[i] for i in order], q.arrows), tuple(bound[i] for i in order)


def _random_quiver(rng, n):
    """Seeded quiver on ``n`` vertices; repeated pairs give parallel arrows and loops."""
    vertices = [str(i) for i in range(n)]
    return qd.Quiver(vertices, [[rng.choice(vertices), rng.choice(vertices)] for _ in range(rng.randint(0, 2 * n + 1))])


def _random_boxes(seed, count):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        q = _random_quiver(rng, rng.randint(1, 5))
        cases.append((q, tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(q.n))))
    assert any(not q.is_loopfree(v) for q, _ in cases for v in q.vertices)
    assert any(len(set(q.arrows)) < len(q.arrows) for q, _ in cases)
    assert any(0 in bound and any(bound) for _, bound in cases)
    return cases


def _check_enumeration(q, bound, caps=qd.DEFAULT_CAPS):
    roots = qd.positive_roots_upto(q, bound, caps)
    assert roots == _lex_pass(q, bound), (q, bound)
    carried = _roots_with_p(q, bound, caps)
    assert tuple(sorted(carried)) == roots
    assert all(p == qd.p_form(q, b) for b, p in carried.items()), (q, bound)


def test_enumeration_matches_the_lex_pass_on_the_corpus():
    boxes = {(q, alpha) for _, q, _, alpha, _ in build_corpus(minimum=200)}
    for q, alpha in boxes:
        _check_enumeration(q, alpha)


def test_enumeration_matches_the_lex_pass_on_the_benchmark_boxes():
    rng = random.Random(11)
    for name, m in AFFINE_DELTA_BOXES:
        q, bound = _affine_box(name, m)
        _check_enumeration(q, bound)
        _check_enumeration(*_permuted(q, bound, rng))


@pytest.mark.parametrize(
    "q, bound",
    [_affine_box("E6", 3), _affine_box("E7", 2), _affine_box("D4", 6), (STAR, (8, 4, 4, 4, 4, 4)), (K3, (60, 60))],
    ids=["E6-3delta", "E7-2delta", "D4-6delta", "5-arm-star", "3-kronecker-60"],
)
def test_enumeration_matches_the_lex_pass_on_large_boxes(q, bound):
    _check_enumeration(q, bound, RAISED)


@pytest.mark.parametrize("seed", range(3))
def test_enumeration_matches_the_lex_pass_on_random_quivers(seed):
    for q, bound in _random_boxes(seed, 200):
        _check_enumeration(q, bound)


# the positive roots of the finite type of each extended Dynkin family, by rank
FINITE_POSITIVE_ROOTS = {"A": lambda r: r * (r + 1) // 2, "D": lambda r: r * (r - 1), "E": {6: 36, 7: 63, 8: 120}.get}
HUGE = qd.Caps(max_bound_sum=120, max_box_volume=10**15)


@pytest.mark.parametrize("name", [f"A{r}" for r in range(12)] + [f"D{r}" for r in range(4, 10)] + ["E6", "E7", "E8"])
def test_enumeration_matches_the_closed_form_below_multiples_of_delta(name):
    # the positive roots below m * delta are the multiples k * delta, 1 <= k <= m, with p = 1,
    # and the real roots beta + k * delta for a finite root beta, with 0 <= k < m where
    # beta > 0 and 0 < k <= m where beta < 0: 2m of them per positive finite root
    q = qd.extended_dynkin_quiver(name)
    delta = qd.classify_shape(q).delta
    positive = FINITE_POSITIVE_ROOTS[name[0]](int(name[1:]))
    for m in (1, 2, 3):
        roots = _roots_with_p(q, _multiple(m, delta), HUGE)
        assert len(roots) == 2 * m * positive + m, (name, m)
        assert roots == {b: 0 for b in roots} | {_multiple(k, delta): 1 for k in range(1, m + 1)}, (name, m)


def _oracle_answers(ctx, a):
    """(member, norm, best proper split, Sigma) of ``a`` from the oracle's enumerations."""
    decs = oracle.enumerate_decompositions(ctx, a)
    sums = [(len(dec), sum(qd.p_form(ctx.quiver, part) for part in dec)) for dec in decs]
    proper = [s for n, s in sums if n >= 2]
    member = oracle.nr_member(ctx, a)
    assert member == bool(decs)
    return (
        member,
        max((s for _, s in sums), default=None),
        max(proper, default=None),
        oracle.sigma_member(ctx, a),
    )


def _engine_answers(ctx, a):
    member = qd.in_N_R_lambda_plus(ctx, a)
    norm = qd.norm_lambda(ctx, a) if member else None
    return member, norm, qd.max_proper_sum_p(ctx, a), qd.in_sigma_lambda(ctx, a)


D4_LAMBDA = _orthogonal_to_delta(D4_DELTA, seed=20261018)


def _sample(bound, count, seed):
    """Seeded vectors of the box, always including the bound itself."""
    vectors = list(iter_box(bound))
    return sorted(set(random.Random(seed).sample(vectors, count)) | {tuple(bound)})


@pytest.mark.parametrize(
    "q, lam, vectors",
    [
        (D4, (0,) * 5, list(iter_box(D4_DELTA))),
        (D4, (0,) * 5, _sample(_multiple(2, D4_DELTA), 40, seed=5) + [D4_DELTA]),
        (D4, D4_LAMBDA, list(iter_box(D4_DELTA))),
        (D4, D4_LAMBDA, list(iter_box(_multiple(2, D4_DELTA)))),
        (EX4, EX4_WEIGHT, list(iter_box((2, 4, 3, 2)))),
    ],
    ids=["D4-delta-0", "D4-2delta-0", "D4-delta-lam", "D4-2delta-lam", "ex4-paper"],
)
def test_engine_matches_oracle(q, lam, vectors):
    ctx = qd.LambdaContext(q, lam)
    octx = qd.LambdaContext(q, lam)
    for a in vectors:
        assert _engine_answers(ctx, a) == _oracle_answers(octx, a), a
    bound = tuple(max(col) for col in zip(*vectors))
    members = {b for b in qd.positive_roots_upto(q, bound) if oracle.sigma_member(octx, b)}
    assert set(qd.sigma_lambda_upto(ctx, bound)) == members


def _answers(ctx, a):
    member = qd.in_N_R_lambda_plus(ctx, a)
    canonical = qd.canonical_decompose(ctx, a).multiset() if member else None
    report = qd.product_structure_report(ctx, a).to_json_dict() if member else None
    return _engine_answers(ctx, a) + (canonical, report)


def _answers_or_refusal(ctx, a):
    """The answers to ``a``, or the type and message of the error that refuses it."""
    try:
        return _answers(ctx, a)
    except qd.QuiverdecError as exc:
        return type(exc), str(exc)


# (quiver, weight, box, vectors outside the box: over the caps, or with a negative entry)
SHARED_CONTEXTS = [
    (EX4, EX4_WEIGHT, (2, 4, 3, 2), [(4, 12, 8, 4), (9, 9, 9, 0), (-1, 2, 3, 2), (1, 1, 1, -1)]),
    (D4, (1, -1, 0, 1, -1), (2, 2, 2, 2, 2), [(6, 6, 6, 6, 6), (2, 2, -2, 2, 2)]),
    (qd.extended_dynkin_quiver("A2"), (0, 0, 0), (3, 3, 3), [(9, 9, 9), (0, -1, 3)]),
    (qd.Quiver(["0", "1"], [["0", "1"]] * 3), (0, 0), (4, 4), [(16, 16), (4, -4)]),
    (qd.Quiver(["a", "b", "c"], [["a", "a"], ["a", "b"], ["b", "c"], ["b", "c"]]), (1, -1, 1), (3, 3, 3),
     [(9, 9, 9), (3, -1, 3)]),  # two isotropic members, labelled A0 and A1
]
SHARED_IDS = ["ex4-paper", "D4-lam", "A2-zero", "3-kronecker-zero", "loop-kronecker-lam"]


@pytest.mark.parametrize("q, lam, box, outside", SHARED_CONTEXTS, ids=SHARED_IDS)
def test_shared_memo_is_order_independent(q, lam, box, outside):
    # every answer on one context, reports and their labels included, in box order, reversed and
    # shuffled, with the outside vectors at seeded places, equals the answer of a fresh context
    vectors = list(iter_box(box))
    fresh = {a: _answers_or_refusal(qd.LambdaContext(q, lam), a) for a in vectors + outside}
    rng = random.Random(20261020)
    for order in (vectors, vectors[::-1], rng.sample(vectors, len(vectors))):
        order = list(order)
        for a in outside:
            order.insert(rng.randrange(len(order) + 1), a)
        ctx = qd.LambdaContext(q, lam)
        assert {a: _answers_or_refusal(ctx, a) for a in order} == fresh


@pytest.mark.parametrize("q, lam, box", [c[:3] for c in SHARED_CONTEXTS[:2]], ids=SHARED_IDS[:2])
def test_warm_queries_inside_the_box_do_no_box_work(monkeypatch, q, lam, box):
    # once a box and both its tables are built, no query inside it enumerates roots, descends or
    # builds a table; its answers equal another context's
    ctx = qd.LambdaContext(q, lam)
    ctx.sigma_table(box), ctx.norm_table(box)
    other = qd.LambdaContext(q, lam)
    expected = {a: _answers(other, a) for a in iter_box(box)}

    def refuse(*args, **kwargs):
        raise AssertionError("box work on a warm query")

    monkeypatch.setattr(lambda_roots, "_roots_with_p", refuse)
    monkeypatch.setattr(lambda_roots, "_descent", refuse)
    monkeypatch.setattr(BoxTable, "__init__", refuse)
    assert {a: _answers(ctx, a) for a in iter_box(box)} == expected


def test_sigma_query_between_two_boxes():
    # a box sweep grows the classified box by joins; a vector beyond a
    # join that would break the caps gets a box of its own
    ctx = qd.LambdaContext(qd.extended_dynkin_quiver("A0"), (0,), qd.Caps(max_bound_sum=10))
    assert qd.sigma_lambda_upto(ctx, (6,)) == ((1,),)
    assert qd.norm_lambda(ctx, (10,)) == 10
    assert qd.in_sigma_lambda(ctx, (1,)) and not qd.in_sigma_lambda(ctx, (2,))
    two = qd.LambdaContext(qd.Quiver(["a", "b"], []), (0, 0), qd.Caps(max_bound_sum=12))
    for a in itertools.chain(((12, 0), (0, 12)), iter_box((3, 3))):
        assert qd.in_N_R_lambda_plus(two, a)
        assert qd.norm_lambda(two, a) == 0


@pytest.mark.parametrize(
    "q, lam, box",
    [
        (qd.extended_dynkin_quiver("A1"), (0, 0), (3, 3)),
        (D4, (0,) * 5, D4_DELTA),
        (EX4, EX4_WEIGHT, (2, 4, 3, 2)),
    ],
    ids=["kronecker-zero", "D4-delta-0", "ex4-paper"],
)
def test_table_counts_match_enumeration(q, lam, box):
    # the norm table's best is the maximum over all root decompositions; it
    # counts the decompositions into its items attaining it, often more than
    # one; the Sigma table counts maximizing Sigma multisets
    ctx = qd.LambdaContext(q, lam)
    norms, sigmas = ctx.norm_table(box), ctx.sigma_table(box)
    for a in iter_box(box):
        for table, decs in (
            (norms, oracle.enumerate_decompositions(ctx, a)),
            (sigmas, oracle.enumerate_sigma_decompositions(ctx, a)),
        ):
            sums = [sum(qd.p_form(q, part) for part in dec) for dec in decs]
            assert table[a] == max(sums, default=None), a
            if table is norms:  # the pruned items no longer count as decompositions of their own
                sums = [s for s, dec in zip(sums, decs) if all(part in table.items for part in dec)]
            assert table.count(a) == (sums.count(table[a]) if decs else 0), a


# -- the pruned norm table against an unpruned knapsack --------------------------


def _unpruned_norm(q, lam, bound):
    """Best p-sum over decompositions into every orthogonal root of the box, by mixed-radix index."""
    weight = qd.weight_vector(q, lam)
    roots = {b: qd.p_form(q, b) for b in _lex_pass(q, bound) if qd.lambda_dot(weight, b) == 0}
    best = {(0,) * q.n: 0}
    for a in iter_box(bound):  # ascending lex, so each a - b is decided before a
        values = [best[rest] + p for b, p in roots.items() if (rest := tuple(x - y for x, y in zip(a, b))) in best]
        if values:
            best[a] = max(values)
    return [0] + [best.get(a) for a in iter_box(bound)], roots


def _norm_cases():
    cases = {(q, lam, alpha) for _, q, lam, alpha, _ in build_corpus(minimum=200)}
    for q, bound in (_affine_box("D4", 2), _affine_box("E6", 1)):
        delta = qd.classify_shape(q).delta
        cases |= {(q, (0,) * q.n, bound), (q, _orthogonal_to_delta(delta, 3), bound)}
    cases.add((D4, (1, -1, 0, 1, -1), _multiple(2, D4_DELTA)))
    cases.add((qd.extended_dynkin_quiver("E6"), (0, 1, -1, 0, 2, -2, 0), _affine_box("E6", 1)[1]))
    rng = random.Random(77)
    for q, bound in _random_boxes(78, 300):
        cases.add((q, tuple(rng.choice((0, 0, 0, 1, -1, Fraction(1, 2), -2)) for _ in range(q.n)), bound))
    return cases


def test_pruned_norm_matches_the_unpruned_knapsack():
    pruned = 0
    for q, lam, bound in _norm_cases():
        table = qd.LambdaContext(q, lam).norm_table(bound)
        best, roots = _unpruned_norm(q, lam, bound)
        assert [value for value, _ in table_cells(table)] == best, (q, lam, bound)
        assert set(table.items) <= set(roots)
        pruned += len(table.items) < len(roots)
    assert pruned >= 50


# -- the seeded tables against one knapsack pass per item -------------------------


def _per_cell_seeds(bound, seeds):
    """A fresh table's (best, count), cell by cell: 0 and 1 where the support lies in ``seeds``, else None and 0."""
    seeded = [all(i in seeds for i, x in enumerate(a) if x) for a in itertools.product(*(range(b + 1) for b in bound))]
    return [(0, 1) if on else (None, 0) for on in seeded]


def test_block_built_seeds_match_a_per_cell_seeding():
    rng = random.Random(81)
    zero_seeded = partial = 0
    for _ in range(400):
        bound = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(rng.randint(0, 6)))
        some = rng.sample(range(len(bound)), rng.randint(0, len(bound)))
        for seeds in ((), some, range(len(bound))):
            table = BoxTable(bound, seeds)
            assert table_cells(table) == _per_cell_seeds(bound, set(seeds)), (bound, seeds)
        cells = list(itertools.product(*(range(b + 1) for b in bound)))
        assert [table._index(a) for a in cells] == list(range(len(cells))), bound
        zero_seeded += any(bound[i] == 0 for i in some)
        partial += 0 < len(some) < len(bound)
    assert zero_seeded >= 100 and partial >= 150, (zero_seeded, partial)


def _pass_per_item(ctx, kind):
    """The ``kind`` table of the classified box by one pass per orthogonal root, and the splits Sigma read.

    The norm keeps the roots of p > 0, the coordinate vectors and the roots where the weight is
    nonzero somewhere on the support; Sigma keeps the roots whose p beats their best proper split.
    """
    table, splits = BoxTable(ctx._bound), {}
    for beta in ctx.orthogonal_roots_upto(ctx._bound):
        p = qd.p_form(ctx.quiver, beta)
        if kind == "norm":
            keep = p or sum(beta) == 1 or any(map(mul, ctx._scaled, beta))
        else:
            keep = (split := splits.setdefault(beta, table[beta])) is None or split < p
        if keep:
            table.add(beta, p)
    return table, splits


def _interleaved(roots):
    """Does a root of entry sum 1 and p > 0, at a loop vertex, come between two seeded roots?"""
    ps = [p for b, p in roots.items() if sum(b) == 1]
    return any(p and 0 in ps[:k] and 0 in ps[k + 1:] for k, p in enumerate(ps))


def test_seeded_tables_match_one_pass_per_item():
    cases = sorted(_norm_cases(), key=repr)
    rng = random.Random(79)
    for q, bound in _random_boxes(80, 200):  # a loop vertex between zero-weight loopfree ones
        if q.n >= 3:
            q = qd.Quiver(q.vertices, list(q.arrows) + [[q.vertices[1]] * 2])
            lam = [rng.choice((0, 0, 1, -1)) for _ in range(q.n)]
            lam[0] = lam[1] = lam[2] = 0
            cases.append((q, tuple(lam), (1,) * 3 + bound[3:]))
    partial = interleaved = zero_bound = 0
    for k, (q, lam, bound) in enumerate(cases):
        ctx = qd.LambdaContext(q, lam)
        for kind in ("norm", "sigma")[:: 1 - 2 * (k % 2)]:  # either table first
            table = getattr(ctx, f"{kind}_table")(bound)
            reference, splits = _pass_per_item(ctx, kind)
            assert table_cells(table) == table_cells(reference), (q, lam, bound, kind)
            assert list(table.items.items()) == list(reference.items.items()), (q, lam, bound, kind)
            if kind == "sigma":
                assert {b: qd.max_proper_sum_p(ctx, b) for b in splits} == splits, (q, lam, bound)
        seeds = [b for b, p in ctx._roots.items() if sum(b) == 1 and not p]
        for e in seeds:
            assert qd.max_proper_sum_p(ctx, e) is None and qd.in_sigma_lambda(ctx, e), (q, lam, e)
        partial += 0 < len(seeds) < sum(map(bool, bound))
        interleaved += _interleaved(ctx._roots)
        zero_bound += bool(seeds) and 0 in bound
    assert partial >= 150 and interleaved >= 50 and zero_bound >= 150, (partial, interleaved, zero_bound)


def test_imaginary_only_tables_match_the_full_classification():
    # weight 0 at every loopfree vertex, any weight at a loop vertex: each real root is
    # orthogonal, and the tables, classified without the real roots of entry sum above 1,
    # match one pass per item over every orthogonal root that the listing gives
    rng = random.Random(313)
    skipped = weighted = 0
    for _ in range(500):
        q = _random_quiver(rng, rng.randint(1, 4))
        lam = tuple(0 if q.is_loopfree(v) else rng.choice((0, 1, -1, Fraction(1, 2))) for v in q.vertices)
        bound = tuple(rng.randint(0, 3) for _ in q.vertices)
        roots = [b for b in qd.positive_roots_upto(q, bound) if qd.lambda_dot(lam, b) == 0]
        listed = qd.LambdaContext(q, lam).orthogonal_roots_upto(bound)
        assert listed == tuple(sorted(roots, key=lambda b: (sum(b), b)))
        ctx = qd.LambdaContext(q, lam)
        for kind in ("sigma", "norm")[:: 1 - 2 * rng.randint(0, 1)]:
            table = getattr(ctx, f"{kind}_table")(bound)
            reference = _pass_per_item(ctx, kind)[0]
            assert table_cells(table) == table_cells(reference), (q.arrows, lam, bound, kind)
            assert list(table.items.items()) == list(reference.items.items()), (q.arrows, lam, bound, kind)
        assert set(ctx._roots) == {b for b in roots if sum(b) == 1 or qd.p_form(q, b)}, (q.arrows, lam, bound)
        skipped += len(ctx._roots) < len(roots)
        weighted += any(lam) and len(ctx._roots) < len(roots)
        assert ctx.orthogonal_roots_upto(bound) == listed  # every orthogonal root, on a warm context
    assert skipped >= 80 and weighted >= 25, (skipped, weighted)


def test_e8_delta_at_weight_zero_classifies_ten_roots():
    q, delta = _affine_box("E8", 1)
    ctx = qd.LambdaContext(q, (0,) * q.n, qd.Caps(max_bound_sum=40))
    report = qd.product_structure_report(ctx, delta)
    assert report.formula == f"N(({','.join('0' * q.n)}),({','.join(map(str, delta))}))"
    assert [f.describe() for f in report.factors] == ["Kleinian(E8)"]
    assert len(ctx._roots) == 10  # delta and the nine coordinate vectors
    assert len(ctx.orthogonal_roots_upto(delta)) == 241 and len(ctx._roots) == 10  # listing keeps the box


def test_listing_roots_leaves_a_warm_context_as_it_was():
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT, qd.Caps(max_bound_sum=14))
    sigma, norm = ctx.sigma_table((1, 3, 2, 1)), ctx.norm_table((1, 3, 2, 1))
    bound, roots = ctx._bound, ctx._roots
    cold = qd.LambdaContext(EX4, EX4_WEIGHT, qd.Caps(max_bound_sum=14)).orthogonal_roots_upto((2, 5, 3, 3))
    assert ctx.orthogonal_roots_upto((2, 5, 3, 3)) == cold and len(cold) > len(roots)
    with pytest.raises(qd.ResourceLimit, match="bound sum 17 exceeds cap 14"):
        ctx.orthogonal_roots_upto((3, 6, 4, 4))
    assert ctx._bound is bound and ctx._roots is roots
    assert ctx._tables["sigma"] is sigma and ctx._tables["norm"] is norm
    assert ctx.sigma_table((1, 3, 2, 1)) is sigma and ctx.norm_table((1, 3, 2, 1)) is norm


# -- Kac's descent against the oracle's roots ---------------------------------------

_CLASSES = qd.RootClass.REAL, qd.RootClass.ISOTROPIC_IMAGINARY, qd.RootClass.NONISOTROPIC_IMAGINARY


def test_classify_root_matches_the_oracle():
    # every nonzero vector of random boxes, loops and parallel arrows included: a root of the
    # oracle's closure has the class its p names, any other vector is none; a negated vector gets
    # the same class and a mixed-sign one is no root
    rng = random.Random(401)
    seen, mixed = Counter(), 0
    for _ in range(300):
        q = _random_quiver(rng, rng.randint(1, 4))
        bound = tuple(rng.randint(0, 3) for _ in q.vertices)
        roots = oracle.positive_roots_in_box(q, bound)
        for a in iter_box(bound):
            expected = _CLASSES[min(qd.p_form(q, a), 2)] if a in roots else qd.RootClass.NOT_ROOT
            assert qd.classify_root(q, a) is expected, (q.arrows, a)
            assert qd.classify_root(q, tuple(-x for x in a)) is expected, (q.arrows, a)
            seen[expected] += 1
            if sum(map(bool, a)) > 1:
                i = next(i for i, x in enumerate(a) if x)
                assert qd.classify_root(q, a[:i] + (-a[i],) + a[i + 1:]) is qd.RootClass.NOT_ROOT, (q.arrows, a)
                mixed += 1
    assert sum(seen.values()) >= 4000 and mixed >= 3000 and min(seen.values()) >= 400, (seen, mixed)
    kronecker = qd.extended_dynkin_quiver("A1")
    for n in (1, 2, 3, 10, 999, 10**4):
        assert qd.classify_root(kronecker, (n, n + 1)) is qd.RootClass.REAL, n
        assert qd.classify_root(kronecker, (-n - 1, -n)) is qd.RootClass.REAL, n
        assert qd.classify_root(kronecker, (n, n)) is qd.RootClass.ISOTROPIC_IMAGINARY, n
        assert qd.classify_root(kronecker, (n, n + 2)) is qd.RootClass.NOT_ROOT, n


# -- admissible descent against the breadth-first search and the direct path ----

TRIANGLE_DELTA = (0, 1, 1, 1)


def _subquiver_label(q, d):
    """The label of a descent's end ``d`` from the sub-quiver on its support, with kleinian_label's errors.

    The support's shape comes from the radical of its form, and the label from its delta.
    """
    if not qd.in_fundamental_region(q, d):
        raise qd.NotIsotropicSigma(f"descent of {d!r} ends outside the fundamental region")
    supp = qd.support(q, d)
    sub = qd.restrict(q, supp)
    shape = qd.classify_shape(sub)
    if shape.kind is not qd.ShapeKind.EXTENDED_DYNKIN:
        raise qd.NotIsotropicSigma(f"fundamental representative {d!r} has support of kind {shape.kind.value}")
    if restrict_vector(q, d, supp) != shape.delta:
        raise qd.NotIsotropicSigma(f"fundamental representative {d!r} is not the delta of its support")
    return qd.ade_label(sub)


def _bfs_label(ctx, sigma):
    """(fundamental-region vector, Kleinian label) as the breadth-first orbit search gives them."""
    found = qd.fundamental_representative(ctx.quiver, qd.PairState(ctx.weight, sigma), budget=100_000)
    assert found is not None, (ctx.weight, sigma)
    return found[0].dim, _subquiver_label(ctx.quiver, found[0].dim)


def _reflected_isotropic_pair(target, rng):
    """The pair at ``target`` reached from a generic weight at the triangle's delta.

    The weight at the delta is orthogonal to it; the word is a random Kac
    descent from ``target`` down to the delta, replayed upwards.
    """
    word, a = [], target
    while a != TRIANGLE_DELTA:
        v = rng.choice([v for v in EX4.vertices if pairing_with_simple(EX4, a, v) > 0])
        a = qd.simple_reflection(EX4, v, a)
        word.append(v)
    while True:
        x, y, u = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 97), rng.randint(1, 89)) for _ in range(3))
        try:
            state, _ = qd.apply_sequence(EX4, qd.make_pair(EX4, (u, x, y, -(x + y)), TRIANGLE_DELTA), word[::-1])
        except InadmissibleStep:
            continue
        assert state.dim == target
        return state


def _isotropic_label_cases():
    cases = {}
    for name, q, lam, alpha, ctx in build_corpus(minimum=200):
        for t in qd.canonical_decompose(ctx, alpha).terms:
            if t.root_class is qd.RootClass.ISOTROPIC_IMAGINARY:
                cases[(name, lam, t.sigma)] = (ctx, t.sigma)
    for name in ("D4", "A2"):
        q = qd.extended_dynkin_quiver(name)
        delta = qd.classify_shape(q).delta
        cases[(name, (0,) * q.n, delta)] = (qd.LambdaContext(q, (0,) * q.n), delta)
    rng = random.Random(505)
    for target in ((1, 5, 3, 3), (3, 4, 2, 3), (3, 4, 3, 2)):
        for _ in range(2):
            state = _reflected_isotropic_pair(target, rng)
            cases[("ex4-reflected", state.weight, target)] = (qd.LambdaContext(EX4, state.weight), target)
    return list(cases.values())


def test_descent_labels_match_the_orbit_search():
    cases = _isotropic_label_cases()
    reflected = 0
    for ctx, sigma in cases:
        state, seq = qd.descend(ctx.quiver, qd.PairState(ctx.weight, sigma))
        assert (state.dim, qd.kleinian_label(ctx, sigma)) == _bfs_label(ctx, sigma), (ctx.weight, sigma)
        reflected += len(seq) >= 6
    assert len(cases) >= 16 and reflected == 6


def _label_outcome(label, *args):
    try:
        return label(*args)
    except qd.QuiverdecError as error:
        return type(error), str(error)


def test_cartan_row_labels_match_the_subquiver_path():
    # at weight 0 no reflection is admissible, so each vector is its own descent's end;
    # random small quivers with loops and parallel arrows, then k * delta of the catalogue
    rng = random.Random(909)
    cases = []
    for _ in range(150):
        q = _random_quiver(rng, rng.randint(1, 4))
        cases += [(q, a) for a in iter_box((3,) * q.n)]
    for name in [f"A{r}" for r in range(9)] + [f"D{r}" for r in range(4, 9)] + ["E6", "E7", "E8"]:
        q, delta = _affine_box(name, 1)
        cases += [(q, delta), (q, _multiple(2, delta))]
    seen = Counter()
    for q, a in cases:
        got = _label_outcome(qd.kleinian_label, qd.LambdaContext(q, (0,) * q.n), a)
        assert got == _label_outcome(_subquiver_label, q, a), (q.arrows, a)
        if _in_fundamental(q, a):
            seen[got if isinstance(got, str) else got[1].split()[-1]] += 1
            # a label on a support that a vertex outside it pairs with: C_S d = 0, but not C d
            seen["edge"] += isinstance(got, str) and any(pairing_with_simple(q, a, v) for v in q.vertices)
    assert seen["Other"] >= 1000 and seen["support"] >= 200 and seen["edge"] >= 50, seen
    assert all(seen[f"A{r}"] for r in range(9)) and seen["E8"] == 1, seen


# -- the fundamental region against its definition -------------------------------

TWO_LOOPS = qd.Quiver(["0", "1"], [["0", "0"], ["1", "1"]])


def _definitional_fundamental(q, a):
    """Nonnegative and nonzero, connected support, then (a, e_i) <= 0 at each vertex."""
    if any(e < 0 for e in a) or not any(a):
        return False
    if len(connected_components(q, qd.support(q, a))) != 1:
        return False
    return all(pairing_with_simple(q, a, v) <= 0 for v in q.vertices)


def test_fundamental_region_matches_its_definition():
    # two Jordan loops at (1,1): every pairing is 0, but the support is disconnected
    cases = [(TWO_LOOPS, (1, 1)), (TWO_LOOPS, (0, 2)), (TWO_LOOPS, (0, 0)), (TWO_LOOPS, (1, -1))]
    for name, m in AFFINE_DELTA_BOXES:
        q, bound = _affine_box(name, m)
        cases += [(q, bound), (q, tuple(x + (i == 0) for i, x in enumerate(bound)))]
    rng = random.Random(606)
    for _ in range(3000):
        q = _random_quiver(rng, rng.randint(1, 5))
        cases.append((q, tuple(rng.choice((-1, 0, 0, 1, 1, 2, 3)) for _ in range(q.n))))
    inside = split = zero_loop = 0
    for q, a in cases:
        want = _definitional_fundamental(q, a)
        assert qd.in_fundamental_region(q, a) is want, (q.arrows, a)
        assert _in_fundamental(q, a) is want, (q.arrows, a)
        pairings_pass = min(a) >= 0 and all(pairing_with_simple(q, a, v) <= 0 for v in q.vertices)
        inside += want
        split += any(a) and pairings_pass and not want
        zero_loop += want and any(not q.is_loopfree(v) and pairing_with_simple(q, a, v) == 0 for v in qd.support(q, a))
    assert inside >= 400 and split >= 30 and zero_loop >= 100, (inside, split, zero_loop)


def _outcome(f, *args):
    try:
        return f(*args)
    except qd.NotInNRLambdaPlus:
        return "not a member"


def _reduced_cap(ctx, alpha):
    """A sum cap that refuses ``alpha``'s box but admits its descent; None without one."""
    state, seq = qd.descend(ctx.quiver, qd.PairState(ctx.weight, alpha))
    cap = sum(state.dim) if min(state.dim) >= 0 else sum(alpha) - 1
    if not seq or cap < 1:
        return None
    with pytest.raises(qd.ResourceLimit):
        qd.Caps(max_bound_sum=cap).check_box(alpha)
    return qd.Caps(max_bound_sum=cap)


def _sigma_answers(ctx, alpha):
    """Sigma membership, best proper split and maximizer count, through whichever path ``ctx`` takes."""
    return (qd.in_sigma_lambda(ctx, alpha), qd.max_proper_sum_p(ctx, alpha),
            _outcome(qd.sigma_maximizer_count, ctx, alpha))


def test_reduced_path_matches_the_direct_path_on_the_corpus():
    checked = 0
    for name, q, lam, alpha, ctx in build_corpus(minimum=200):
        caps = _reduced_cap(ctx, alpha)
        if caps is None:
            continue
        capped = qd.LambdaContext(q, lam, caps)
        direct, reduced = qd.product_structure_report(ctx, alpha), qd.product_structure_report(capped, alpha)
        assert reduced.decomposition == direct.decomposition, (name, lam, alpha)
        assert (reduced.formula, reduced.factors) == (direct.formula, direct.factors), (name, lam, alpha)
        assert qd.in_N_R_lambda_plus(capped, alpha) and qd.norm_lambda(capped, alpha) == direct.decomposition.norm
        assert _sigma_answers(capped, alpha) == _sigma_answers(ctx, alpha), (name, lam, alpha)
        checked += 1
    assert checked >= 16


@pytest.mark.parametrize(
    "q, lam, box, sigma_members",
    [
        (EX4, EX4_WEIGHT, (2, 4, 3, 2), 2),
        (qd.extended_dynkin_quiver("A2"), (1, 2, -3), (3, 3, 3), 0),
        (D4, _orthogonal_to_delta(D4_DELTA, 11), _multiple(2, D4_DELTA), 1),
    ],
    ids=["ex4-paper", "A2-weighted", "D4-weighted"],
)
def test_reduced_membership_and_norm_match_the_direct_path(q, lam, box, sigma_members):
    # non-members included: some descend to a negative entry, some to a non-member;
    # ``sigma_members`` counts the Sigma members among the reduced vectors
    ctx = qd.LambdaContext(q, lam)
    checked = negative = sigma = 0
    for alpha in iter_box(box):
        caps = _reduced_cap(ctx, alpha)
        if caps is None:
            continue
        capped = qd.LambdaContext(q, lam, caps)
        member = qd.in_N_R_lambda_plus(ctx, alpha)
        assert qd.in_N_R_lambda_plus(capped, alpha) == member, alpha
        assert _outcome(qd.norm_lambda, capped, alpha) == _outcome(qd.norm_lambda, ctx, alpha), alpha
        assert _sigma_answers(capped, alpha) == _sigma_answers(ctx, alpha), alpha
        sigma += qd.in_sigma_lambda(ctx, alpha)
        if member:
            assert qd.canonical_decompose(capped, alpha) == qd.canonical_decompose(ctx, alpha), alpha
        else:
            with pytest.raises(qd.NotInNRLambdaPlus):
                qd.canonical_decompose(capped, alpha)
        checked += 1
        negative += min(qd.descend(q, qd.PairState(ctx.weight, alpha))[0].dim) < 0
    assert checked >= 20 and negative >= 1 and sigma == sigma_members


def test_over_cap_queries_reuse_the_reduced_context():
    # one reduced context per reduced weight, grown by joins: the orthogonal (5,6,7,8), (4,6,7,8) and
    # (4,7,8,9) descend along 4,3 to (5,6,4,5), (4,6,4,5) and (4,7,5,6); (4,12,8,4) to (0,0,0,4) elsewhere
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
    direct = qd.LambdaContext(EX4, EX4_WEIGHT, qd.Caps(max_bound_sum=30))
    low, dim, seq = ctx.resolve((5, 6, 7, 8))
    assert (dim, seq, low._bound) == ((5, 6, 4, 5), ("4", "3"), (5, 6, 4, 5))
    for alpha in ((5, 6, 7, 8), (4, 6, 7, 8), (4, 7, 8, 9), (4, 12, 8, 4), (5, 6, 7, 8), (4, 12, 8, 4)):
        reduced = ctx.resolve(alpha)[0]
        assert ctx.resolve(alpha)[0] is reduced is ctx._reduced[reduced.weight], alpha
        assert _answers(ctx, alpha) == _answers(direct, alpha), alpha
    assert ctx.resolve((4, 6, 7, 8))[0] is low and low._bound == (5, 7, 5, 6)
    assert len(ctx._reduced) == 2


def test_a_repeated_over_cap_query_descends_once(monkeypatch):
    descents = []

    def counted(q, dim, weight=None):
        descents.append(tuple(dim))
        return _descent(q, dim, weight)

    monkeypatch.setattr(lambda_roots, "_descent", counted)
    ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
    direct = qd.LambdaContext(EX4, EX4_WEIGHT, qd.Caps(max_bound_sum=30))
    order = ((4, 12, 8, 4), (5, 6, 7, 8), (4, 12, 8, 4), (4, 12, 8, 4), (5, 6, 7, 8))
    assert [_answers(ctx, alpha) for alpha in order] == [_answers(direct, alpha) for alpha in order]
    assert descents == [(4, 12, 8, 4), (5, 6, 7, 8)]


@pytest.mark.parametrize("scale", [1, Fraction(1, 3)])
def test_a_descent_back_to_the_weight_runs_on_the_context_itself(scale):
    # (1,7,8,9) descends along 4,3,2,4,3,2 to (1,4,4,4) at the context's own weight: one context per
    # weight, counting itself; of the orthogonal over-cap vectors with entries at most 12, 107 are
    # answered, 5 of them on the context itself, each as a context with the sum cap at 30 answers it
    lam = tuple(scale * x for x in EX4_WEIGHT)
    ctx = qd.LambdaContext(EX4, lam)
    direct = qd.LambdaContext(EX4, lam, qd.Caps(max_bound_sum=30))
    assert ctx.resolve((1, 7, 8, 9)) == (ctx, (1, 4, 4, 4), ("4", "3", "2", "4", "3", "2"))
    answered = own = 0
    for alpha in itertools.product(range(13), repeat=4):
        if sum(alpha) <= qd.DEFAULT_CAPS.max_bound_sum or qd.lambda_dot(lam, alpha):
            continue
        try:
            low = ctx.resolve(alpha)[0]
        except qd.QuiverdecError:
            continue
        answered += 1
        own += low is ctx
        assert _answers(ctx, alpha) == _answers(direct, alpha), alpha
        assert ctx._reduced.get(ctx.weight, ctx) is ctx and ctx.resolve(alpha)[0] is low, alpha
    assert (answered, own) == (107, 5)


def test_a_descent_back_to_the_weight_leaves_no_reference_cycle():
    # with the cycle collector off, only reference counting can free the context
    gc.disable()
    try:
        ctx = qd.LambdaContext(EX4, EX4_WEIGHT)
        assert ctx.resolve((1, 7, 8, 9))[0] is ctx
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def _off_weight_cases(seed, count):
    """Seeded (quiver, weight, vector) with the vector not orthogonal to the weight, most over the sum cap."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        q = _random_quiver(rng, rng.randint(1, 4))
        lam = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(q.n))
        a = tuple(rng.randint(0, 60 // q.n) for _ in range(q.n))
        if sum(map(mul, lam, a)):
            cases.append((q, lam, a))
    assert any(not q.is_loopfree(v) for q, _, _ in cases for v in q.vertices)
    assert any(len(set(q.arrows)) < len(q.arrows) for q, _, _ in cases)
    return cases


def _off_weight_answers(ctx, a):
    """The box-free answers to ``a``, then the message each raising query refuses it with."""
    answers = [qd.in_N_R_lambda_plus(ctx, a), qd.in_sigma_lambda(ctx, a), qd.max_proper_sum_p(ctx, a)]
    for query in (qd.norm_lambda, qd.sigma_maximizer_count, qd.canonical_decompose):
        with pytest.raises(qd.NotInNRLambdaPlus) as err:
            query(ctx, a)
        answers.append(str(err.value))
    return answers


@pytest.mark.parametrize("seed", [1, 2])
def test_a_vector_off_the_weight_gets_the_same_answer_whatever_the_caps(monkeypatch, seed):
    # lambda . a != 0 rules out every sum of orthogonal roots: over the default caps that answers at once,
    # never by a descent or a refusal, and equals what a box admitted by raised caps answers
    def refuse(q, dim, weight=None):
        raise AssertionError(f"descended {tuple(dim)!r}")

    monkeypatch.setattr(lambda_roots, "_descent", refuse)
    over = 0
    for q, lam, a in _off_weight_cases(seed, 80):
        raised = qd.Caps(max_bound_sum=max(sum(a), 1), max_box_volume=math.prod(e + 1 for e in a))
        expected = [False, False, None] + [f"{a!r} is not a sum of orthogonal positive roots"] * 3
        for caps in (qd.DEFAULT_CAPS, raised):
            assert _off_weight_answers(qd.LambdaContext(q, lam, caps), a) == expected, (q, lam, a, caps)
        over += sum(a) > qd.DEFAULT_CAPS.max_bound_sum
    assert over >= 50


def test_sigma_queries_on_an_over_cap_weighted_pair(capsys):
    # (7,10,6,5), entry sum 28, is reflected from the triangle's delta; the
    # default sum cap 24 refuses its box, so every Sigma query answers after descent
    lam = (Fraction(-167, 77), Fraction(-1467, 1001), Fraction(169, 77), Fraction(3337, 1001))
    alpha = (7, 10, 6, 5)
    ctx, direct = qd.LambdaContext(EX4, lam), qd.LambdaContext(EX4, lam, qd.Caps(max_bound_sum=28))
    assert _sigma_answers(ctx, alpha) == (True, None, 1) == _sigma_answers(direct, alpha)
    assert qd.product_structure_report(ctx, alpha).formula == f"N(({','.join(map(str, lam))}),(7,10,6,5))"
    ex4 = qd.fixture_path("ex4.json")
    weight = "--lambda=" + ",".join(map(str, lam))
    assert cli.main(["sigma", "--quiver", ex4, weight, "--alpha", "7,10,6,5"]) == 0
    assert capsys.readouterr().out == "true\n"
    # at weight 0 nothing reduces: an orthogonal root over the cap is still refused,
    # a vector that is not a root is still answered without a box
    kronecker = qd.fixture_path("kronecker.json")
    assert cli.main(["sigma", "--quiver", kronecker, "--lambda", "0,0", "--alpha", "13,14"]) == 3
    assert "(max_bound_sum, QUIVERDEC_MAX_SUM, --max-sum)" in capsys.readouterr().err
    assert cli.main(["decompose", "--quiver", ex4, "--lambda", "0,0,0,0", "--alpha", "4,12,8,4"]) == 3
    assert "(max_bound_sum, QUIVERDEC_MAX_SUM, --max-sum)" in capsys.readouterr().err
    assert cli.main(["sigma", "--quiver", ex4, "--lambda", "0,0,0,0", "--alpha", "4,12,8,4"]) == 0
    assert capsys.readouterr().out == "false\n"


def _grouped(rng, parts, n):
    """Targets that the parts refine: the sums of a random grouping, empty groups kept as zeros."""
    groups = [[0] * n for _ in range(rng.randint(1, max(1, len(parts))))]
    for part in parts:
        group = rng.choice(groups)
        for i, x in enumerate(part):
            group[i] += x
    return [tuple(g) for g in groups]


def _moved_unit(rng, targets):
    """The same total with one unit moved from one target to another; often no refinement."""
    i, j = rng.sample(range(len(targets)), 2)
    v = rng.randrange(len(targets[i]))
    out = [list(t) for t in targets]
    if out[i][v]:
        out[i][v] -= 1
        out[j][v] += 1
    return [tuple(t) for t in out]


def test_refinement_search_matches_the_oracle():
    rng = random.Random(20261018)
    cases = [([], []), ([(0, 0)], []), ([], [(0, 0)]), ([(0,)], [(0,)]), ([(0,), (1,)], [(1,), (0,)])]
    for _ in range(3000):
        n = rng.randint(1, 3)
        parts = [tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)) for _ in range(rng.randint(0, 7))]
        targets = _grouped(rng, parts, n)
        if rng.random() < 0.3:
            targets.append((0,) * n)
        if len(targets) > 1 and rng.random() < 0.7:
            targets = _moved_unit(rng, targets)
        cases.append((parts, targets))
    answers = {True: 0, False: 0}
    for parts, targets in cases:
        expected = oracle.refines(parts, targets)
        assert qd.check_refinement(parts, targets) is expected, (parts, targets)
        answers[expected] += 1
        n = len(parts[0]) if parts else len(targets[0]) if targets else 1
        with pytest.raises(qd.SumMismatch):  # the oracle does not check sums
            qd.check_refinement(parts, targets + [(0,) * (n - 1) + (1,)])
    assert min(answers.values()) >= 500, answers


# -- the integer radical against the rational elimination it replaced -----------


def _rational_radical(cartan):
    """Primitive basis of the form's radical by symmetric elimination over the rationals, or None
    unless semidefinite: each zero pivot with a zero row is free; back-substitution gives its vector."""
    n = len(cartan)
    m = [[Fraction(x) for x in row] for row in cartan]
    free = []
    for k in range(n):
        pivot = m[k][k]
        if pivot < 0 or (pivot == 0 and any(m[k][k + 1:])):
            return None
        if pivot == 0:
            free.append(k)
            continue
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            if factor:
                m[i][k:] = [x - factor * y for x, y in zip(m[i][k:], m[k][k:])]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for k in reversed(range(f)):
            if m[k][k]:
                vec[k] = -sum(m[k][j] * vec[j] for j in range(k + 1, n)) / m[k][k]
        denom = lcm(*(x.denominator for x in vec))
        ints = [int(x * denom) for x in vec]
        g = gcd(*ints)
        basis.append(tuple(x // g for x in ints))
    return basis


def _random_form(rng):
    """A seeded symmetric form on 1-9 vertices: diagonal 2, 0 or -2 (no, one or two loops),
    off-diagonal 0, -1 or -2 (no, one or two arrows), sparse enough to be often disconnected."""
    n, density = rng.randint(1, 9), rng.choice((0.15, 0.3, 0.5))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.choice((2, 2, 2, 2, 2, 2, 0, -2))
        for j in range(i):
            if rng.random() < density:
                m[i][j] = m[j][i] = rng.choice((-1, -1, -1, -2))
    return m


def _catalogue_forms(rng):
    """The Cartan matrices of the A0-E8 extended and Dynkin quivers, each also with its vertices shuffled."""
    names = [f"A{r}" for r in range(9)] + [f"D{r}" for r in range(4, 10)] + ["E6", "E7", "E8"]
    quivers = [qd.extended_dynkin_quiver(name) for name in names]
    quivers += [qd.dynkin_quiver(name) for name in names if name != "A0"]
    forms = []
    for q in quivers:
        forms.append(q.cartan_matrix())
        order = rng.sample(range(q.n), q.n)
        forms.append([[q.cartan_matrix()[i][j] for j in order] for i in order])
    return forms


def _connected(form):
    """Is the graph of the form's nonzero off-diagonal entries connected?"""
    vertices = [str(i) for i in range(len(form))]
    arrows = [[vertices[i], vertices[j]] for i in range(len(form)) for j in range(i) if form[i][j]]
    return len(connected_components(qd.Quiver(vertices, arrows))) == 1


def test_integer_radical_matches_the_rational_elimination():
    rng = random.Random(20261019)
    forms = [_random_form(rng) for _ in range(5000)] + _catalogue_forms(rng)
    outcomes, disconnected = Counter(), 0
    for form in forms:
        radical = _radical(form)
        assert radical == _rational_radical(form), form
        outcomes["indefinite" if radical is None else min(len(radical), 2)] += 1
        disconnected += radical is not None and not _connected(form)
    assert outcomes["indefinite"] >= 3000 and outcomes[0] >= 1000, outcomes
    assert outcomes[1] >= 350 and outcomes[2] >= 30 and disconnected >= 700, (outcomes, disconnected)
