"""Kac root classification, positive-root enumeration, and shape recognition.

One engine, ``_descent``, steps a vector down at the first loopfree vertex
pairing positively until none is left or an entry is negative: Kac's descent,
ending in the fundamental region (imaginary root), at -e_i from e_i (real) or
elsewhere off the orthant (no root), or, gated by a weight, admissible descent.
A box's roots run it upwards from the simple roots and the fundamental region,
searched one coordinate interval at a time, carrying their pairings.
Everything is exact integer arithmetic, bounded by Caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import gcd
from operator import mul
from typing import Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import InternalInconsistency
from .quiver_core import (
    DimVector,
    Quiver,
    _spans_one_component,
    dim_vector,
    has_connected_support,
    p_form,
    pairing_with_simple,
)


class RootClass(Enum):
    NOT_ROOT = "NotRoot"
    REAL = "Real"
    ISOTROPIC_IMAGINARY = "IsotropicImaginary"
    NONISOTROPIC_IMAGINARY = "NonIsotropicImaginary"

    @property
    def is_root(self) -> bool:
        return self is not RootClass.NOT_ROOT

    @property
    def is_imaginary(self) -> bool:
        return self in (RootClass.ISOTROPIC_IMAGINARY, RootClass.NONISOTROPIC_IMAGINARY)


def _loopfree_index(q: Quiver, vertex: str) -> int:
    """The index of ``vertex``, where both reflections act; ValueError where it carries a loop."""
    if not q.is_loopfree(vertex):
        raise ValueError(f"cannot reflect at vertex {vertex!r}: it carries a loop")
    return q.index(vertex)


def simple_reflection(q: Quiver, vertex: str, a: Sequence[int]) -> DimVector:
    """Reflect at a loopfree vertex; an involution preserving q and p."""
    a = dim_vector(q, a)
    i = _loopfree_index(q, vertex)
    c = pairing_with_simple(q, a, vertex)
    return tuple(e - c if j == i else e for j, e in enumerate(a))


def in_fundamental_region(q: Quiver, a: Sequence[int]) -> bool:
    """Nonzero, nonnegative, (a, e_i) <= 0 everywhere, connected support: the cheap tests first."""
    return _in_fundamental(q, dim_vector(q, a))


def _in_fundamental(q: Quiver, a: DimVector) -> bool:
    """``in_fundamental_region`` for a tuple of ints of length ``q.n``, unchecked."""
    if min(a, default=0) < 0 or not any(a):
        return False
    return all(sum(map(mul, row, a)) <= 0 for row in q.cartan_matrix()) and has_connected_support(q, a)


# a positive root is real at p = 0, isotropic at p = 1 and non-isotropic above
_CLASS_BY_P = RootClass.REAL, RootClass.ISOTROPIC_IMAGINARY, RootClass.NONISOTROPIC_IMAGINARY


def classify_root(q: Quiver, a: Sequence[int]) -> RootClass:
    """Classify a vector by Kac's reflection descent (``_descent`` with no weight).

    Accepts a nonzero vector with all entries >= 0 or all <= 0 (a negative
    vector is classified through its absolute value); mixed signs are never
    roots. Only a coordinate vector e_i descends out of the orthant, to -e_i:
    it is real. A vector that stops is a root when its support is connected,
    of the class its p names.
    """
    a = dim_vector(q, a)
    if all(e == 0 for e in a):
        raise ValueError("the zero vector is not classified")
    if all(e <= 0 for e in a):
        a = tuple(-e for e in a)
    if any(e < 0 for e in a):
        return RootClass.NOT_ROOT
    end = list(a)
    _descent(q, end)
    if min(end) < 0:
        return RootClass.REAL if sum(end) == min(end) == -1 else RootClass.NOT_ROOT
    a = tuple(end)
    if not has_connected_support(q, a):
        return RootClass.NOT_ROOT
    p = p_form(q, a)
    if p < 1:
        raise InternalInconsistency(f"vector {a!r} stuck in descent with p={p}; the fundamental region has p >= 1")
    return _CLASS_BY_P[min(p, 2)]


def _descent(q: Quiver, dim: list[int], weight: list[int] | None = None) -> list[int]:
    """Kac's descent of ``dim`` in place, admissible for an integer ``weight`` reflected along; the i stepped at."""
    steps = []
    while min(dim, default=0) >= 0:
        for i, nbrs in q._moves:
            if (weight is None or weight[i]) and (c := 2 * dim[i] - sum(m * dim[j] for j, m in nbrs)) > 0:
                break
        else:
            break
        steps.append(i)
        dim[i] -= c
        if weight is not None:
            w, weight[i] = weight[i], -weight[i]
            for j, m in nbrs:
                weight[j] += m * w
    return steps


def positive_roots_upto(q: Quiver, bound: Sequence[int], caps: Caps = DEFAULT_CAPS) -> tuple[DimVector, ...]:
    """All positive roots componentwise below ``bound``, ascending lex (see :func:`_roots_with_p`)."""
    return tuple(sorted(_roots_with_p(q, bound, caps)))


def _roots_with_p(q: Quiver, bound: Sequence[int], caps: Caps, real: bool = True) -> dict[DimVector, int]:
    """Each positive root componentwise below ``bound``, with its p.

    Kac: a positive root that is no loopfree coordinate vector and lies outside the fundamental region F
    pairs positively with a loopfree e_i, and s_i lowers it to a positive root. Read upwards, the box's
    roots are those coordinate vectors and F's vectors with connected support, raised by reflections at
    loopfree e_k pairing negatively that stay in the box, and each keeps its seed's p. Every vector
    carries its pairings with the e_k, which a reflection at k moves by a multiple of row k of the form.
    F is searched coordinate by coordinate, each over one interval bounded by the loopfree rows it
    moves, split by sign once per coordinate; x there moves the pairings in its row's nonzero columns,
    and x = 0 shares them. Each support bitmask of F is tested for connectivity once. Vertices of bound
    0 drop out: a raising reflection there leaves the box. Unless ``real``, only F's seeds are raised:
    the result holds the imaginary roots and the loopfree coordinate vectors.
    """
    bound = dim_vector(q, bound)
    if any(b < 0 for b in bound):
        raise ValueError("bound must be nonnegative")
    caps.check_box(bound)
    live = [i for i, b in enumerate(bound) if b]
    top = [bound[i] for i in live]
    form = [[q._cartan[i][j] for j in live] for i in live]
    free = [k for k, i in enumerate(live) if not q._loops[i]]
    # a prefix of F carries its pairings and its support's bitmask; ``slack[d]`` holds each row's most negative
    # terms from coordinate d on, so each loopfree row that coordinate d moves bounds it above (w > 0) or below
    slack = [[0] * len(live)]
    for d in reversed(range(len(live))):
        slack.insert(0, [s + min(0, w) * top[d] for s, w in zip(slack[0], form[d])])
    cone = [((), [0] * len(live), 0)]
    for d, b in enumerate(top):
        lower = [(k, w, slack[d + 1][k]) for k in free if (w := form[d][k]) < 0]  # row[k] + s + w * x <= 0
        upper = [(k, w, slack[d + 1][k]) for k in free if (w := form[d][k]) > 0]
        cols, bit, grown = [(k, w) for k, w in enumerate(form[d]) if w], 1 << live[d], []
        for a, row, mask in cone:
            lo, hi = 0, b
            for k, w, s in lower:
                if (x := -((row[k] + s) // w)) > lo:
                    lo = x
            for k, w, s in upper:
                if (x := -(row[k] + s) // w) < hi:
                    hi = x
            for x in range(lo, hi + 1):
                child = row.copy() if x else row  # x = 0 moves no pairing: the child shares its parent's row
                for k, w in cols if x else ():
                    child[k] += w * x
                grown.append((a + (x,), child, mask | bit if x else mask))
        cone = grown
    connected = {mask: _spans_one_component(q, mask) for mask in {mask for *_, mask in cone}}  # one per support
    simple = [((0,) * k + (1,) + (0,) * (len(live) - k - 1), form[k]) for k in free]
    frontier = (simple if real else []) + [(a, row) for a, row, mask in cone if connected[mask]]
    roots = {a: 1 - sum(map(mul, a, row)) // 2 for a, row in simple + frontier}
    while frontier:
        a, row = frontier.pop()
        for k in free:
            if (c := row[k]) < 0 and (x := a[k] - c) <= top[k] and (image := a[:k] + (x,) + a[k + 1:]) not in roots:
                roots[image] = roots[a]
                frontier.append((image, [v - c * w for v, w in zip(row, form[k])]))
    at = [live.index(i) if b else -1 for i, b in enumerate(bound)]  # -1: the 0 appended to each root
    return roots if len(live) == q.n else {tuple((a + (0,))[j] for j in at): p for a, p in roots.items()}


# -- shape recognition -------------------------------------------------------


class ShapeKind(Enum):
    DYNKIN = "Dynkin"
    EXTENDED_DYNKIN = "ExtendedDynkin"
    OTHER = "Other"


@dataclass(frozen=True)
class QuiverShape:
    kind: ShapeKind
    delta: DimVector | None = None
    extending: tuple[str, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "delta": list(self.delta) if self.delta is not None else None,
            "extending": list(self.extending) if self.extending is not None else None,
        }


def _radical(cartan) -> list[DimVector] | None:
    """Primitive integer basis of the form's radical, or None unless semidefinite.

    Symmetric elimination in integers, pivoting on the diagonal in vertex order;
    rows clear by positive multiples and divide by their gcd, so each pivot keeps
    its rational sign. The form is positive semidefinite exactly when no pivot is
    negative and every zero pivot has a zero row, so its sign and its radical
    are one computation. Each zero pivot is a free index, and back-substitution
    through the pivot rows, scaled to stay integral, gives its radical vector.
    """
    n = len(cartan)
    m = [list(row) for row in cartan]
    free = []
    for k in range(n):
        pivot = m[k][k]
        if pivot < 0 or (pivot == 0 and any(m[k][k + 1:])):
            return None
        if pivot == 0:
            free.append(k)
            continue
        for i in range(k + 1, n):
            if c := m[i][k]:
                row = [pivot * x - c * y for x, y in zip(m[i][k:], m[k][k:])]
                m[i][k:] = [x // g for x in row] if (g := gcd(*row)) else row
    basis = []
    for f in free:
        vec = [int(j == f) for j in range(n)]
        for k in reversed(range(f)):
            if pivot := m[k][k]:  # scale by pivot / g so that vec[k] = -s / pivot is an integer
                s = sum(map(mul, m[k][k + 1:], vec[k + 1:]))
                g = gcd(s, pivot)
                vec = [x * (pivot // g) for x in vec]
                vec[k] = -s // g
        g = gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return basis


def classify_shape(q: Quiver) -> QuiverShape:
    """Recognize Dynkin / extended Dynkin quivers from the quadratic form.

    Dynkin means positive definite; extended Dynkin means positive
    semidefinite with a one-dimensional radical spanned by a strictly
    positive primitive vector delta (computed from the exact radical, never
    from a lookup table). Disconnected or empty quivers report Other.
    """
    if not _spans_one_component(q, (1 << q.n) - 1):  # the empty quiver spans none
        return QuiverShape(ShapeKind.OTHER)
    radical = _radical(q.cartan_matrix())
    if radical == []:
        return QuiverShape(ShapeKind.DYNKIN)
    # the free entry of a radical vector is positive, so no sign flip is needed
    if radical is not None and len(radical) == 1 and all(x > 0 for x in radical[0]):
        delta = radical[0]
        extending = tuple(v for v, d in zip(q.vertices, delta) if d == 1)
        return QuiverShape(ShapeKind.EXTENDED_DYNKIN, delta, extending)
    return QuiverShape(ShapeKind.OTHER)


# -- the affine ADE catalogue -------------------------------------------------


def dynkin_quiver(name: str) -> Quiver:
    """A linearly oriented Dynkin quiver: ``A1``..``An``, ``Dn``, ``E6``-``E8``."""
    family, rank = name[0].upper(), int(name[1:])
    edges: list[tuple[int, int]]
    if family == "A" and rank >= 1:
        edges = [(i, i + 1) for i in range(1, rank)]
    elif family == "D" and rank >= 4:
        edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, rank)]
    elif family == "E" and rank in (6, 7, 8):
        # chain 1..(rank-1) with vertex ``rank`` hanging off the third node
        edges = [(i, i + 1) for i in range(1, rank - 1)] + [(3, rank)]
    else:
        raise ValueError(f"unknown Dynkin type {name!r}")
    vertices = [str(i) for i in range(1, rank + 1)]
    return Quiver(vertices, [[str(t), str(h)] for t, h in edges])


def extended_dynkin_quiver(name: str) -> Quiver:
    """The extended quiver of an ADE type, with an extending vertex ``0``.

    ``A0`` is the one-loop quiver, ``A1`` the double arrow; the families
    follow the usual affine diagrams. Orientations are arbitrary since the
    bilinear form only sees the underlying graph.
    """
    family, rank = name[0].upper(), int(name[1:])
    if family == "A" and rank == 0:
        return Quiver(["0"], [["0", "0"]])
    if family == "A" and rank >= 1:
        vertices = [str(i) for i in range(rank + 1)]
        edges = [(str(i), str((i + 1) % (rank + 1))) for i in range(rank + 1)]
        return Quiver(vertices, edges)
    if family == "D" and rank >= 4:
        # path p3 .. p(rank-1) with two leaves at each end
        path = [f"p{i}" for i in range(3, rank)]
        vertices = ["0", "1"] + path + ["2", "3"]
        edges = [("0", path[0]), ("1", path[0]), ("2", path[-1]), ("3", path[-1])]
        edges += [(path[i], path[i + 1]) for i in range(len(path) - 1)]
        return Quiver(vertices, edges)
    if family == "E" and rank in (6, 7, 8):
        base = dynkin_quiver(f"E{rank}")
        # the extending vertex attaches to the affine node of each diagram
        attach = {6: str(rank), 7: "1", 8: str(rank - 1)}[rank]
        return Quiver(list(base.vertices) + ["0"], [list(a) for a in base.arrows] + [[attach, "0"]])
    raise ValueError(f"unknown extended Dynkin type {name!r}")


def ade_label(q: Quiver) -> str:
    """ADE type of an extended Dynkin quiver, e.g. ``A1`` for the double arrow (see :func:`_affine_label`)."""
    shape = classify_shape(q)
    if shape.kind is not ShapeKind.EXTENDED_DYNKIN:
        raise ValueError("ADE labels exist only for extended Dynkin quivers")
    return _affine_label(q.cartan_matrix(), shape.delta, q)


def _affine_label(rows: Sequence[Sequence[int]], delta: Sequence[int], owner: object) -> str:
    """ADE type of the diagram with Cartan matrix ``rows`` and null vector ``delta``.

    The first of A, D and E on its vertex count whose catalogue diagram has the same
    vertex count, sorted degrees 2 - (row sum) and sorted delta; the families differ in
    their largest delta entry, so at most one matches. ``owner`` names the diagram in the error.
    """
    rank, signature = len(rows) - 1, _signature(rows, delta)
    for label in [f"A{rank}"] + [f"D{rank}"] * (rank >= 4) + [f"E{rank}"] * (rank in (6, 7, 8)):
        if _catalogue_signature(label) == signature:
            return label
    raise InternalInconsistency(f"delta {delta!r} of {owner!r} matches no affine ADE diagram")


def _signature(rows: Sequence[Sequence[int]], delta: Sequence[int]) -> tuple:
    return len(rows), tuple(sorted(2 - sum(row) for row in rows)), tuple(sorted(delta))


@cache
def _catalogue_signature(label: str) -> tuple:
    """Vertex count, sorted degrees and sorted delta of a catalogue diagram, once per label."""
    reference = extended_dynkin_quiver(label)
    return _signature(reference.cartan_matrix(), classify_shape(reference).delta)
