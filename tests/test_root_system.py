import random
from fractions import Fraction
from math import gcd

import pytest

import quiverdec as qd
from quiverdec import RootClass, ShapeKind, root_system
from quiverdec.errors import ResourceLimit
from quiverdec.caps import Caps
from quiverdec.oracle import connected_components
from quiverdec.root_system import _affine_label, _radical

KRONECKER = qd.extended_dynkin_quiver("A1")
JORDAN = qd.extended_dynkin_quiver("A0")
A2 = qd.dynkin_quiver("A2")
K3 = qd.Quiver(["0", "1"], [["0", "1"]] * 3)


def test_a_descent_end_with_p_below_one_is_an_internal_inconsistency(monkeypatch):
    # with no descent step, the real root (1,1) of A2 ends outside the fundamental region, at p = 0
    monkeypatch.setattr(root_system, "_descent", lambda q, dim, weight=None: [])
    with pytest.raises(qd.InternalInconsistency, match=r"^vector \(1, 1\) stuck in descent with p=0; "):
        qd.classify_root(A2, (1, 1))


def test_classify_examples():
    assert qd.classify_root(KRONECKER, (1, 1)) is RootClass.ISOTROPIC_IMAGINARY
    assert qd.classify_root(A2, (1, 1)) is RootClass.REAL
    assert qd.classify_root(A2, (1, 2)) is RootClass.NOT_ROOT
    assert qd.classify_root(K3, (1, 1)) is RootClass.NONISOTROPIC_IMAGINARY


def test_classify_edge_cases():
    with pytest.raises(ValueError):
        qd.classify_root(A2, (0, 0))
    # negatives classify through the absolute value; mixed signs never roots
    assert qd.classify_root(A2, (-1, -1)) is RootClass.REAL
    assert qd.classify_root(A2, (1, -1)) is RootClass.NOT_ROOT
    assert qd.classify_root(A2, (2, 0)) is RootClass.NOT_ROOT
    assert qd.classify_root(JORDAN, (5,)) is RootClass.ISOTROPIC_IMAGINARY
    two_loops = qd.Quiver(["0"], [["0", "0"], ["0", "0"]])
    assert qd.classify_root(two_loops, (1,)) is RootClass.NONISOTROPIC_IMAGINARY
    # descent leaves the orthant at -e_i exactly from a coordinate vector e_i, also with no neighbour
    point = qd.Quiver(["1"], [])
    assert qd.classify_root(point, (1,)) is RootClass.REAL
    assert qd.classify_root(point, (-1,)) is RootClass.REAL
    assert qd.classify_root(point, (2,)) is RootClass.NOT_ROOT
    assert qd.classify_root(K3, (1, 0)) is RootClass.REAL
    ex4 = qd.Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])
    assert qd.classify_root(ex4, (0, 0, 1, 0)) is RootClass.REAL


def test_simple_reflection_examples():
    ex4 = qd.Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])
    assert qd.simple_reflection(ex4, "3", (1, 1, 2, 1)) == (1, 1, 0, 1)
    eps = qd.coordinate_vector(A2, "1")
    assert qd.simple_reflection(A2, "1", eps) == (-1, 0)
    for a in [(2, 3), (0, 5), (7, 1)]:
        assert qd.simple_reflection(A2, "2", qd.simple_reflection(A2, "2", a)) == a
    with pytest.raises(ValueError):
        qd.simple_reflection(JORDAN, "0", (1,))


def test_reflection_preserves_p():
    for a in [(1, 2), (3, 1), (4, 4)]:
        for v in ("0", "1"):
            assert qd.p_form(K3, qd.simple_reflection(K3, v, a)) == qd.p_form(K3, a)


def test_fundamental_region():
    assert qd.in_fundamental_region(KRONECKER, (1, 1))
    assert not qd.in_fundamental_region(A2, (1, 1))
    disconnected = qd.Quiver(["a", "b", "c"], [["a", "b"]])
    assert not qd.in_fundamental_region(disconnected, (1, 0, 1))
    assert not qd.in_fundamental_region(KRONECKER, (0, 0))


def test_positive_roots_upto_examples():
    assert qd.positive_roots_upto(A2, (1, 1)) == ((0, 1), (1, 0), (1, 1))
    assert set(qd.positive_roots_upto(KRONECKER, (2, 2))) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)
    }
    assert qd.positive_roots_upto(A2, (0, 0)) == ()


def test_positive_roots_equal_brute_filter():
    # same set as pointwise classification over the box, by construction
    for q, bound in ((KRONECKER, (3, 3)), (K3, (3, 3)), (JORDAN, (4,))):
        roots = qd.positive_roots_upto(q, bound)
        from quiverdec.oracle import iter_box

        brute = tuple(a for a in iter_box(bound) if qd.classify_root(q, a).is_root)
        assert roots == brute


def test_positive_roots_caps():
    with pytest.raises(ResourceLimit):
        qd.positive_roots_upto(KRONECKER, (30, 30))
    with pytest.raises(ResourceLimit):
        qd.positive_roots_upto(KRONECKER, (3, 3), Caps(max_box_volume=2, max_bound_sum=24))


DYNKIN_DELTAS = {
    # classical deltas, used only as a cross-check of the radical computation
    "A1": (1, 1),
    "A2": (1, 1, 1),
    "A3": (1, 1, 1, 1),
    "D4": (1, 1, 2, 1, 1),
    "D5": (1, 1, 2, 2, 1, 1),
    "E6": (1, 2, 3, 2, 1, 2, 1),
    "E7": (2, 3, 4, 3, 2, 1, 2, 1),
    "E8": (2, 3, 4, 5, 6, 4, 2, 3, 1),
}


def test_dynkin_shapes_positive_definite():
    for name in ("A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7", "E8"):
        shape = qd.classify_shape(qd.dynkin_quiver(name))
        assert shape.kind is ShapeKind.DYNKIN, name
        assert shape.delta is None
    for name in ("A0", "D3", "E5", "E9", "F4"):
        with pytest.raises(ValueError, match="unknown Dynkin type"):
            qd.dynkin_quiver(name)


def test_extended_shapes_and_deltas():
    for name, delta in DYNKIN_DELTAS.items():
        q = qd.extended_dynkin_quiver(name)
        shape = qd.classify_shape(q)
        assert shape.kind is ShapeKind.EXTENDED_DYNKIN, name
        assert sorted(shape.delta) == sorted(delta), name
        assert qd.q_form(q, shape.delta) == 0
        assert all(qd.bilinear_form(q, shape.delta, qd.coordinate_vector(q, v)) == 0 for v in q.vertices)
        assert shape.extending == tuple(v for v, d in zip(q.vertices, shape.delta) if d == 1)
        assert qd.ade_label(q) == name
    for name in ("D3", "E5", "E9", "G2"):
        with pytest.raises(ValueError, match="unknown extended Dynkin type"):
            qd.extended_dynkin_quiver(name)


def test_shape_examples():
    assert qd.classify_shape(A2).kind is ShapeKind.DYNKIN
    shape = qd.classify_shape(KRONECKER)
    assert shape.kind is ShapeKind.EXTENDED_DYNKIN
    assert shape.delta == (1, 1)
    assert shape.extending == ("0", "1")
    assert qd.classify_shape(K3).kind is ShapeKind.OTHER
    assert qd.classify_shape(JORDAN).delta == (1,)


def test_shape_other_cases():
    disconnected = qd.Quiver(["a", "b"], [])
    assert qd.classify_shape(disconnected).kind is ShapeKind.OTHER
    empty = qd.Quiver([], [])
    assert qd.classify_shape(empty).kind is ShapeKind.OTHER


def test_shape_json():
    shape = qd.classify_shape(KRONECKER)
    assert shape.to_json_dict() == {
        "kind": "ExtendedDynkin",
        "delta": [1, 1],
        "extending": ["0", "1"],
    }


def test_extended_dynkin_positive_roots_structure():
    # small-bound check: every positive root is <= delta or delta plus a real part
    for name in ("A1", "A2"):
        q = qd.extended_dynkin_quiver(name)
        delta = qd.classify_shape(q).delta
        bound = tuple(2 * d for d in delta)
        for beta in qd.positive_roots_upto(q, bound):
            below = all(x <= d for x, d in zip(beta, delta))
            if below:
                continue
            m = max((x - 1) // d for x, d in zip(beta, delta))
            rest = tuple(x - m * d for x, d in zip(beta, delta))
            assert any(rest), beta
            assert qd.classify_root(q, rest).is_root, beta


# -- the elimination behind classify_shape, against the two routines it replaced


def _reference_char_poly_signs(cartan):
    """Elementary symmetric functions of the eigenvalues, by Faddeev-LeVerrier."""
    n = len(cartan)
    work = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = []
    a_prev = 0
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                work[i][i] += a_prev
        nxt = [[sum(cartan[i][t] * work[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        a_prev = -sum(nxt[i][i] for i in range(n)) // k
        coeffs.append(a_prev)
        work = nxt
    return [(-1) ** k * a for k, a in enumerate(coeffs, start=1)]


def _reference_integer_kernel(cartan):
    """Primitive integer basis of the kernel, by reduced row echelon form."""
    n = len(cartan)
    m = [[Fraction(x) for x in row] for row in cartan]
    pivots = []
    for col in range(n):
        row = len(pivots)
        pivot = next((r for r in range(row, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -m[r][f]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in vec]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        basis.append(tuple(x // g for x in ints))
    return basis


def _reference_shape(q):
    """(kind, delta, extending) from the characteristic polynomial, then the kernel."""
    if q.n == 0 or len(connected_components(q)) != 1:
        return ShapeKind.OTHER, None, None
    e_k = _reference_char_poly_signs(q.cartan_matrix())
    if all(e > 0 for e in e_k):
        return ShapeKind.DYNKIN, None, None
    if all(e >= 0 for e in e_k):
        kernel = _reference_integer_kernel(q.cartan_matrix())
        if len(kernel) == 1:
            delta = kernel[0]
            if all(x < 0 for x in delta):
                delta = tuple(-x for x in delta)
            if all(x > 0 for x in delta):
                extending = tuple(v for v, d in zip(q.vertices, delta) if d == 1)
                return ShapeKind.EXTENDED_DYNKIN, delta, extending
    return ShapeKind.OTHER, None, None


def _catalogue():
    names = [f"A{r}" for r in range(9)] + [f"D{r}" for r in range(4, 10)] + ["E6", "E7", "E8"]
    quivers = [qd.extended_dynkin_quiver(name) for name in names]
    return quivers + [qd.dynkin_quiver(name) for name in names if name != "A0"]


def _random_quivers(count, seed):
    """Quivers on 1-7 vertices with loops, parallel arrows and disconnected pieces."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        vertices = [str(i) for i in range(rng.randint(1, 7))]
        arrows = [
            [rng.choice(vertices), rng.choice(vertices)]
            for _ in range(rng.randint(0, len(vertices) + 2))
        ]
        out.append(qd.Quiver(vertices, arrows))
    return out


def test_shape_elimination_matches_reference_routines():
    quivers = _catalogue() + _random_quivers(5000, seed=20261018)
    kinds = set()
    for q in quivers:
        shape = qd.classify_shape(q)
        assert (shape.kind, shape.delta, shape.extending) == _reference_shape(q), q
        kinds.add(shape.kind)
        if shape.kind is ShapeKind.EXTENDED_DYNKIN:
            for v in q.vertices:
                assert qd.bilinear_form(q, shape.delta, qd.coordinate_vector(q, v)) == 0, (q, v)
    assert kinds == set(ShapeKind)


def test_radical_rejects_indefinite_and_reads_semidefinite_forms():
    assert _radical(K3.cartan_matrix()) is None  # pivots 2, then 2 - 9/2 < 0
    assert _radical(((0, -1), (-1, 2))) is None  # a zero pivot with a nonzero row
    assert _radical(((-2,),)) is None  # two loops
    assert _radical(A2.cartan_matrix()) == []
    assert _radical(KRONECKER.cartan_matrix()) == [(1, 1)]
    assert _radical(qd.Quiver(["a", "b"], [["a", "a"], ["b", "b"]]).cartan_matrix()) == [(1, 0), (0, 1)]


# -- ADE labels against the family-table rule they replaced ----------------------

_FAMILY_BY_MAX_DELTA = {1: "A", 2: "D", 3: "E", 4: "E", 6: "E"}


def _label_by_family_table(q, delta):
    """The family read off the largest delta entry; E's rank from it, the others' from n."""
    top = max(delta)
    family = _FAMILY_BY_MAX_DELTA[top]
    return f"{family}{q.n - 1 if family != 'E' else {3: 6, 4: 7, 6: 8}[top]}"


def _relabelled(q, rng):
    """``q`` with renamed and reordered vertices, shuffled arrows and about half of them reversed."""
    names = dict(zip(q.vertices, rng.sample([f"v{i}" for i in range(100)], q.n)))
    vertices = rng.sample([names[v] for v in q.vertices], q.n)
    arrows = [[names[h], names[t]] if rng.random() < 0.5 else [names[t], names[h]] for t, h in q.arrows]
    return qd.Quiver(vertices, rng.sample(arrows, len(arrows)))


def test_ade_label_matches_the_family_table_on_the_relabelled_catalogue():
    rng = random.Random(13)
    names = [f"A{r}" for r in range(14)] + [f"D{r}" for r in range(4, 14)] + ["E6", "E7", "E8"]
    for name in names:
        for _ in range(6):
            q = _relabelled(qd.extended_dynkin_quiver(name), rng)
            shape = qd.classify_shape(q)
            assert qd.ade_label(q) == _label_by_family_table(q, shape.delta) == name, q


def test_ade_label_rejects_a_delta_of_no_catalogue_diagram():
    wrong = {
        "A0": (2,),
        "A1": (1, 2),
        "D4": (1, 1, 1, 1, 1),  # A4's delta on D4's degrees
        "E6": (1, 1, 2, 2, 2, 1, 1),  # D6's delta on E6's degrees
        "E8": (1, 2, 3, 4, 5, 6, 4, 2, 2),
    }
    for name, delta in wrong.items():
        q = qd.extended_dynkin_quiver(name)
        with pytest.raises(qd.InternalInconsistency, match="matches no affine ADE diagram"):
            _affine_label(q.cartan_matrix(), delta, q)
    for q in (K3, A2, qd.Quiver(["a", "b"], [])):
        with pytest.raises(ValueError, match="extended Dynkin"):
            qd.ade_label(q)
