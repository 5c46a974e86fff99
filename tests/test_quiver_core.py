import json
import random
import sys
from fractions import Fraction

import pytest

import quiverdec as qd
from quiverdec.errors import DimensionMismatch
from quiverdec.quiver_core import (
    connected_components,
    has_connected_support,
    parse_rational,
    quiver_from_json_dict,
    quiver_to_json_dict,
    restrict_vector,
    weight_to_json_list,
)

KRONECKER = qd.Quiver(["0", "1"], [["0", "1"], ["0", "1"]])
JORDAN = qd.Quiver(["0"], [["0", "0"]])
A2 = qd.Quiver(["1", "2"], [["1", "2"]])
K3 = qd.Quiver(["0", "1"], [["0", "1"]] * 3)
EX4 = qd.Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])


def test_bilinear_form_examples():
    assert qd.bilinear_form(KRONECKER, (1, 0), (0, 1)) == -2
    assert qd.bilinear_form(JORDAN, (1,), (1,)) == 0
    assert qd.bilinear_form(A2, (1, 0), (1, 0)) == 2


def test_q_and_p_examples():
    assert qd.q_form(KRONECKER, (1, 1)) == 0
    assert qd.p_form(KRONECKER, (1, 1)) == 1
    assert qd.p_form(K3, (1, 1)) == 2
    for q, v in ((A2, "1"), (A2, "2"), (KRONECKER, "0")):
        assert qd.p_form(q, qd.coordinate_vector(q, v)) == 0


def test_p_is_one_minus_q_on_samples():
    for vec in [(2, 3), (0, 1), (5, 2)]:
        assert qd.p_form(KRONECKER, vec) == 1 - qd.q_form(KRONECKER, vec)


def test_lambda_dot_examples():
    assert qd.lambda_dot((0, 1, -2, 1), (1, 3, 2, 1)) == 0
    assert qd.lambda_dot((0, 0), (7, 9)) == 0
    assert qd.lambda_dot((1, -1), (2, 2)) == 0
    with pytest.raises(DimensionMismatch):
        qd.lambda_dot((1, 2, 3), (1, 2))


def test_support_and_restrict():
    assert qd.support(EX4, (0, 3, 2, 1)) == ("2", "3", "4")
    sub = qd.restrict(EX4, ("2", "3", "4"))
    assert sub.vertices == ("2", "3", "4")
    assert len(sub.arrows) == 3
    assert qd.classify_shape(sub).kind is qd.ShapeKind.EXTENDED_DYNKIN
    empty = qd.restrict(EX4, ())
    assert empty.n == 0 and empty.arrows == ()
    assert restrict_vector(EX4, (0, 3, 2, 1), ("2", "3", "4")) == (3, 2, 1)
    with pytest.raises(ValueError, match="unknown vertices"):
        qd.restrict(EX4, ("2", "z"))


def test_vector_validation():
    with pytest.raises(DimensionMismatch):
        qd.dim_vector(A2, (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        qd.weight_vector(A2, (1,))
    with pytest.raises(DimensionMismatch):
        qd.bilinear_form(A2, (1, 2), (1, 2, 3))


def test_dim_vector_rejects_non_integral_entries():
    for entries in ((1.5, 1), (Fraction(5, 2), 1), ("3", 1)):
        with pytest.raises(ValueError):
            qd.dim_vector(A2, entries)
    vec = qd.dim_vector(A2, (2.0, Fraction(4, 2)))
    assert vec == (2, 2) and all(type(x) is int for x in vec)
    with pytest.raises(ValueError, match="1.9"):
        qd.product_structure_report(qd.LambdaContext(KRONECKER, (0, 0)), (1.9, 1.2))
    with pytest.raises(ValueError, match="0.5"):
        qd.classify_root(KRONECKER, (0.5, 1))


def test_quiver_validation():
    with pytest.raises(ValueError):
        qd.Quiver(["a", "a"], [])
    with pytest.raises(ValueError):
        qd.Quiver(["a"], [["a", "b"]])
    with pytest.raises(ValueError):
        qd.Quiver([], [["a", "b"]])
    with pytest.raises(ValueError, match="strings"):
        qd.Quiver(["a", 1], [])


def test_multi_arrows_counted_with_multiplicity():
    assert qd.bilinear_form(K3, (1, 0), (0, 1)) == -3


def test_loop_degree_and_cartan():
    assert JORDAN.cartan_matrix() == ((0,),)
    assert JORDAN.degree("0") == 2
    assert EX4.degree("2") == 3


def test_connected_components():
    q = qd.Quiver(["a", "b", "c", "d"], [["a", "b"], ["c", "c"]])
    assert connected_components(q) == [("a", "b"), ("c",), ("d",)]
    assert has_connected_support(q, (1, 1, 0, 0))
    assert not has_connected_support(q, (1, 0, 1, 0))
    assert not has_connected_support(q, (0, 0, 0, 0))


def _components_by_arrows(q, within=None):
    """Reference walk over a neighbour dict built from the arrows."""
    pool = list(q.vertices) if within is None else [v for v in q.vertices if v in set(within)]
    neighbours = {v: set() for v in pool}
    for tail, head in q.arrows:
        if tail in neighbours and head in neighbours and tail != head:
            neighbours[tail].add(head)
            neighbours[head].add(tail)
    seen, out = set(), []
    for v in pool:
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in neighbours[u] - seen:
                seen.add(w)
                stack.append(w)
        out.append(tuple(sorted(comp, key=q.index)))
    return out


def test_connected_components_match_the_arrow_walk():
    rng = random.Random(20261018)
    shapes = {"loop": 0, "parallel": 0, "isolated": 0}
    for _ in range(2000):
        n = rng.randint(0, 8)
        vertices = [f"v{i}" for i in range(n)]
        rng.shuffle(vertices)
        arrows = []
        for _ in range(rng.randint(0, 2 * n)):
            arrows += [[rng.choice(vertices), rng.choice(vertices)]] * rng.choice((1, 1, 2, 3))
        q = qd.Quiver(vertices, arrows)
        shapes["loop"] += any(t == h for t, h in q.arrows)
        shapes["parallel"] += len(set(q.arrows)) < len(q.arrows)
        shapes["isolated"] += any(q.degree(v) == 0 for v in vertices)
        for within in (
            None,
            rng.sample(vertices, rng.randint(0, n)),
            tuple(rng.sample(vertices, rng.randint(0, n))) + ("w", "v9"),
        ):
            assert connected_components(q, within) == _components_by_arrows(q, within), (q, within)
    assert min(shapes.values()) >= 100, shapes


def test_bitmask_connectivity_matches_connected_components():
    """``has_connected_support`` walks neighbour bitmasks; the reference counts named components."""
    rng = random.Random(20261020)
    shapes = {"loop": 0, "parallel": 0, "isolated": 0, "zero": 0, "connected": 0, "split": 0}
    for _ in range(3000):
        n = rng.randint(0, 9)
        vertices = [f"v{i}" for i in range(n)]
        arrows = []
        for _ in range(rng.randint(0, 2 * n)):
            arrows += [[rng.choice(vertices), rng.choice(vertices)]] * rng.choice((1, 1, 2, 3))
        q = qd.Quiver(vertices, arrows)
        shapes["loop"] += any(t == h for t, h in q.arrows)
        shapes["parallel"] += len(set(q.arrows)) < len(q.arrows)
        shapes["isolated"] += any(q.degree(v) == 0 for v in vertices)
        for a in ((0,) * n, tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))):
            shapes["zero"] += not any(a)
            expected = len(connected_components(q, qd.support(q, a))) == 1
            assert has_connected_support(q, a) == expected, (q, a)
            shapes["connected" if expected else "split"] += any(a)
    assert min(shapes.values()) >= 100, shapes


def test_quiver_json_round_trip():
    data = quiver_to_json_dict(EX4)
    again = quiver_from_json_dict(json.loads(json.dumps(data)))
    assert again == EX4


def test_quiver_json_errors():
    with pytest.raises(ValueError, match="missing"):
        quiver_from_json_dict({"vertices": ["1"]})
    for arrow in (["1", "2"], [["1"], "1"], ["1", {"1": 1}], [1, "1"]):
        with pytest.raises(ValueError, match="undeclared"):
            quiver_from_json_dict({"vertices": ["1"], "arrows": [arrow]})
    with pytest.raises(ValueError, match="line"):
        qd.parse_quiver_json("{not json")
    with pytest.raises(ValueError, match="must be an object"):
        quiver_from_json_dict(["1"])
    with pytest.raises(ValueError, match="'arrows' must be a list"):
        quiver_from_json_dict({"vertices": ["1"], "arrows": "1,1"})


def test_quiver_json_nested_past_the_recursion_limit_is_a_value_error():
    # near the limit json.loads may succeed and the repr of an arrow in an error message may not
    limit = sys.getrecursionlimit()
    for depth in [*range(limit - 100, limit + 1), 200_000]:
        nested = "[" * depth + "]" * depth
        for text in (nested, f'{{"vertices": ["a", "b"], "arrows": [[{nested}, "b"]]}}',
                     f'{{"vertices": ["a", "b"], "arrows": [{nested}]}}'):
            with pytest.raises(ValueError):
                qd.parse_quiver_json(text)


def test_weight_serialization():
    from fractions import Fraction

    lam = qd.weight_vector(A2, [Fraction(1, 2), -3])
    assert weight_to_json_list(lam) == ["1/2", -3]
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational(5) == 5
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    for token in (True, False, 0.5, 2.0, None):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(token)


def test_rationals_beyond_the_digit_limit_are_refused_while_parsing():
    import sys
    import time

    assert parse_rational("1e3") == 1000 and parse_rational("1.5") == Fraction(3, 2)
    assert parse_rational("-2.5e-2") == Fraction(-1, 40)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not a rational: '1e-10000000'"):
        parse_rational("1e-10000000")
    assert time.perf_counter() - start < 0.1
    limit = sys.get_int_max_str_digits()
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)  # limit digits: still converts to text
    for token in (f"1e{limit}", f"1e-{limit}", "1e" + "9" * (limit + 1), "9" * (limit + 1), "0." + "0" * limit + "1"):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(token)


def test_library_weights_beyond_the_digit_limit_are_refused_while_parsing():
    import time

    kronecker = qd.extended_dynkin_quiver("A1")
    for build, entries in ((qd.LambdaContext, ["1e-5000", "-1e-5000"]), (qd.weight_vector, ["1e-1000000", 0])):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"not a rational: '{entries[0]}'"):
            build(kronecker, entries)
        assert time.perf_counter() - start < 0.1
    assert qd.weight_vector(kronecker, ["1/3", "1.5"]) == (Fraction(1, 3), Fraction(3, 2))
    assert qd.weight_vector(kronecker, ["1e3", Fraction(2, 4)]) == (1000, Fraction(1, 2))
    assert qd.weight_vector(kronecker, [0.5, 2]) == (Fraction(1, 2), 2)  # other entry types as Fraction reads them
