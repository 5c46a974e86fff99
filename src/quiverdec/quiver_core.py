"""Quivers, dimension vectors, weights, and their bilinear forms.

A quiver is a finite directed multigraph; loops and parallel arrows are
allowed and counted with multiplicity. Vertices are named by strings and
their order, fixed at construction, indexes every vector-valued quantity.
Dimension vectors are tuples of Python ints (arbitrary precision),
weights are tuples of ``fractions.Fraction``. No floating point is used
anywhere in the package: the conditions consumed downstream (``lam . a == 0``,
``lam[i] != 0``) are algebraic and must be decided exactly.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch

DimVector = tuple[int, ...]
WeightVector = tuple[Fraction, ...]


class Quiver:
    """Immutable directed multigraph carrying the symmetric bilinear form.

    The form counts each arrow twice, once per orientation in the double
    quiver, so it depends only on the underlying graph with multiplicities:

        (a, b) = sum_i 2*a_i*b_i - sum_{arrows} (a_h*b_t + a_t*b_h)

    with a loop contributing ``-2*a_i*b_i``.
    """

    __slots__ = ("vertices", "arrows", "_index", "_cartan", "_loops", "_moves", "_nbrs")

    def __init__(self, vertices: Iterable[str], arrows: Iterable[Sequence[str]]):
        vertices = tuple(vertices)
        if any(not isinstance(v, str) for v in vertices):
            raise ValueError("vertex names must be strings")
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        index = {v: i for i, v in enumerate(vertices)}
        arrow_list = []
        for a in arrows:
            tail, head = a
            for end in (tail, head):
                if not isinstance(end, str) or end not in index:
                    raise ValueError(f"arrow {list(a)!r} uses undeclared vertex {end!r}")
            arrow_list.append((tail, head))

        n = len(vertices)
        loops, nbrs = [0] * n, [0] * n  # nbrs: each vertex's neighbours, as a bitmask
        cartan = [[0] * n for _ in range(n)]
        for tail, head in arrow_list:
            t, h = index[tail], index[head]
            if t == h:
                loops[t] += 1
            else:
                cartan[t][h] -= 1
                cartan[h][t] -= 1
                nbrs[t], nbrs[h] = nbrs[t] | 1 << h, nbrs[h] | 1 << t
        for i in range(n):
            cartan[i][i] = 2 - 2 * loops[i]

        self.vertices = vertices
        self.arrows = tuple(arrow_list)
        self._index = index
        self._loops = tuple(loops)
        self._cartan = tuple(tuple(row) for row in cartan)
        self._moves = tuple((i, tuple((j, -c) for j, c in enumerate(row) if c and j != i))
                            for i, row in enumerate(cartan) if not loops[i])  # loopfree i, neighbours (j, -C_ij)
        self._nbrs = tuple(nbrs)

    # -- basic structure --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, vertex: str) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise ValueError(f"unknown vertex {vertex!r}") from None

    def loops_at(self, vertex: str) -> int:
        return self._loops[self.index(vertex)]

    def is_loopfree(self, vertex: str) -> bool:
        return self.loops_at(vertex) == 0

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Matrix of the bilinear form on coordinate vectors."""
        return self._cartan

    def degree(self, vertex: str) -> int:
        """Undirected degree with multiplicity; a loop counts twice."""
        i = self.index(vertex)
        return sum(-self._cartan[i][j] for j in range(self.n) if j != i) + 2 * self._loops[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and sorted(self.arrows) == sorted(other.arrows)

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(sorted(self.arrows))))

    def __repr__(self) -> str:
        return f"Quiver(vertices={list(self.vertices)!r}, arrows={[list(a) for a in self.arrows]!r})"


# -- vector constructors ---------------------------------------------------


def integer_entries(entries: Iterable[int]) -> DimVector:
    """Freeze entries as ints; an entry that is not an integer raises ValueError."""
    entries = tuple(entries)
    vec = tuple(map(int, entries))
    if vec != entries:
        bad = next(e for e, x in zip(entries, vec) if e != x)
        raise ValueError(f"entry {bad!r} is not an integer")
    return vec


def dim_vector(q: Quiver, entries: Iterable[int]) -> DimVector:
    """Validate and freeze an integer vector indexed by ``q``'s vertices."""
    vec = integer_entries(entries)
    if len(vec) != q.n:
        raise DimensionMismatch(f"expected {q.n} entries, got {len(vec)}")
    return vec


def weight_vector(q: Quiver, entries: Iterable) -> WeightVector:
    """Validate and freeze an exact rational weight indexed by ``q``'s vertices; strings via parse_rational."""
    vec = tuple(e if type(e) is Fraction else parse_rational(e) if isinstance(e, str) else Fraction(e) for e in entries)
    if len(vec) != q.n:
        raise DimensionMismatch(f"expected {q.n} entries, got {len(vec)}")
    return vec


def zero_vector(q: Quiver) -> DimVector:
    return (0,) * q.n


def coordinate_vector(q: Quiver, vertex: str) -> DimVector:
    """The coordinate dimension vector supported at one vertex."""
    i = q.index(vertex)
    return tuple(1 if j == i else 0 for j in range(q.n))


def _check_len(q: Quiver, a: Sequence) -> None:
    if len(a) != q.n:
        raise DimensionMismatch(f"vector of length {len(a)} on quiver with {q.n} vertices")


# -- forms -----------------------------------------------------------------


def bilinear_form(q: Quiver, a: Sequence[int], b: Sequence[int]) -> int:
    """Symmetric bilinear form of the quiver; arrows count with multiplicity."""
    _check_len(q, a)
    _check_len(q, b)
    cartan = q._cartan
    return sum(a[i] * sum(cartan[i][j] * b[j] for j in range(q.n)) for i in range(q.n))


def q_form(q: Quiver, a: Sequence[int]) -> int:
    """Quadratic (Tits) form, half the bilinear form on the diagonal."""
    value = bilinear_form(q, a, a)
    # the form matrix has even diagonal, so the diagonal value is even
    assert value % 2 == 0
    return value // 2


def p_form(q: Quiver, a: Sequence[int]) -> int:
    """Parameter count 1 - q(a); 0 on real roots, 1 on isotropic ones."""
    return 1 - q_form(q, a)


def lambda_dot(lam: Sequence[Fraction], a: Sequence[int]) -> Fraction:
    """Exact rational dot product of a weight with a dimension vector."""
    if len(lam) != len(a):
        raise DimensionMismatch(f"weight of length {len(lam)} against vector of length {len(a)}")
    return sum((Fraction(x) * y for x, y in zip(lam, a)), Fraction(0))


def pairing_with_simple(q: Quiver, a: Sequence[int], vertex: str) -> int:
    """The value (a, e_i) for the coordinate vector at ``vertex``."""
    _check_len(q, a)
    row = q._cartan[q.index(vertex)]
    return sum(row[j] * a[j] for j in range(q.n))


# -- support and restriction -------------------------------------------------


def support(q: Quiver, a: Sequence[int]) -> tuple[str, ...]:
    """Vertices where the vector is nonzero, in vertex order."""
    _check_len(q, a)
    return tuple(v for v, e in zip(q.vertices, a) if e != 0)


def restrict(q: Quiver, keep: Iterable[str]) -> Quiver:
    """Full subquiver on ``keep``: arrows survive iff both ends survive."""
    keep_set = set(keep)
    unknown = keep_set - set(q.vertices)
    if unknown:
        raise ValueError(f"unknown vertices {sorted(unknown)!r}")
    vertices = tuple(v for v in q.vertices if v in keep_set)
    arrows = tuple(a for a in q.arrows if a[0] in keep_set and a[1] in keep_set)
    return Quiver(vertices, arrows)


def restrict_vector(q: Quiver, a: Sequence[int], keep: Iterable[str]) -> DimVector:
    """Project a vector onto the subquiver's vertex order."""
    _check_len(q, a)
    keep_set = set(keep)
    return tuple(e for v, e in zip(q.vertices, a) if v in keep_set)


def connected_components(q: Quiver, within: Iterable[str] | None = None) -> list[tuple[str, ...]]:
    """Connected components of the underlying graph (nonzero Cartan entries), restricted to ``within``."""
    keep = set(q.vertices if within is None else within)
    pool = [i for i, v in enumerate(q.vertices) if v in keep]
    cartan = q.cartan_matrix()
    out, seen = [], set()
    for i in pool:
        if i in seen:
            continue
        comp, stack = [], [i]
        seen.add(i)
        while stack:
            u = stack.pop()
            comp.append(u)
            linked = [w for w in pool if w not in seen and cartan[u][w]]
            seen.update(linked)
            stack += linked
        out.append(tuple(q.vertices[u] for u in sorted(comp)))
    return out


def has_connected_support(q: Quiver, a: Sequence[int]) -> bool:
    """True iff the support is nonempty and spans one component (see :func:`_spans_one_component`)."""
    _check_len(q, a)
    return _spans_one_component(q, sum(1 << i for i, e in enumerate(a) if e))


def _spans_one_component(q: Quiver, mask: int) -> bool:
    """True iff bitmask ``mask`` holds vertices, all connected: a flood fill on ``Quiver._nbrs``."""
    reached, fresh = 0, mask & -mask  # fresh: vertices found whose neighbours are not yet joined
    while fresh:
        reached |= (low := fresh & -fresh)
        fresh = (fresh | q._nbrs[low.bit_length() - 1] & mask) & ~reached
    return reached == mask != 0


# -- JSON ------------------------------------------------------------------
#
# Quiver files: {"vertices": ["1", "2"], "arrows": [["1", "2"], ...]}
# Dimension vectors serialize as arrays of ints, weights as arrays whose
# entries are ints or exact "p/q" strings.


def quiver_to_json_dict(q: Quiver) -> dict:
    return {"vertices": list(q.vertices), "arrows": [list(a) for a in q.arrows]}


def quiver_from_json_dict(data: dict) -> Quiver:
    if not isinstance(data, dict):
        raise ValueError("quiver JSON must be an object")
    for field in ("vertices", "arrows"):
        if field not in data:
            raise ValueError(f"quiver JSON is missing the {field!r} field")
    vertices = data["vertices"]
    arrows = data["arrows"]
    if not isinstance(vertices, list) or any(not isinstance(v, str) for v in vertices):
        raise ValueError("'vertices' must be a list of strings")
    if not isinstance(arrows, list):
        raise ValueError("'arrows' must be a list of two-element lists")
    for a in arrows:
        if not isinstance(a, list) or len(a) != 2:
            raise ValueError(f"arrow {a!r} must be a [tail, head] pair")
    return Quiver(vertices, arrows)


def parse_quiver_json(text: str) -> Quiver:
    try:
        return quiver_from_json_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:  # from json.loads, or from the repr of an arrow it read, in an error message
        raise ValueError("quiver JSON is nested too deeply") from None


def weight_entry_to_json(x: Fraction) -> int | str:
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def weight_to_json_list(lam: Sequence[Fraction]) -> list:
    return [weight_entry_to_json(x) for x in lam]


def parse_rational(token) -> Fraction:
    """Accept ints and int, 'p/q' or decimal strings, such as '1.5' or '1e3'.

    A numerator or denominator of more digits than the interpreter converts to text
    is refused, and an exponent beyond that many before its power is built.
    """
    if isinstance(token, str):
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        try:
            exponent = token.lower().partition("e")[2]
            if limit and exponent and abs(int(exponent)) > limit:
                raise ValueError
            value = Fraction(token.strip())
            top = max(abs(value.numerator), value.denominator)
            if not limit or top.bit_length() <= 3 * limit or top < 10**limit:  # below 8**limit: fewer digits
                return value
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(token, int) and not isinstance(token, bool):
        return Fraction(token)
    raise ValueError(f"not a rational: {token!r}")
