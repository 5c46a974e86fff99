"""Independent brute-force references and exhaustive lemma checkers.

Everything here recomputes its answers from definitions, sharing only the
quiver and form primitives with the main algorithms. Roots close seed vectors
under simple reflections, as the main path does, but find the seeds by a scan
of the box; the tests check both against ``classify_root``'s pointwise descent.
Memberships are decided by full multiset enumeration instead of the memoized
maximum, and refinements by a local partition search. Agreement between this
module and the main path is the evidence the test suite is built on. The
module also holds the reference helpers, which no main-path module calls, and
``default_suite``, the lemma checks that ``quiverdec verify`` runs.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Iterable, Sequence

from .caps import Caps
from .errors import InternalInconsistency, NotInNRLambdaPlus
from .lambda_roots import LambdaContext
from .quiver_core import (
    DimVector,
    Quiver,
    _check_len,
    bilinear_form,
    coordinate_vector,
    dim_vector,
    integer_entries,
    lambda_dot,
    p_form,
    pairing_with_simple,
    restrict,
    support,
)
from .root_system import (
    ShapeKind,
    classify_shape,
    dynkin_quiver,
    extended_dynkin_quiver,
    simple_reflection,
)


@dataclass
class CheckReport:
    """Outcome of one exhaustive check; empty counterexamples means pass."""

    lemma: str
    instances_checked: int
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        # elapsed is intentionally omitted so JSON output stays byte-stable
        return {
            "lemma": self.lemma,
            "instances_checked": self.instances_checked,
            "counterexamples": self.counterexamples,
            "passed": self.passed,
            "info": self.info,
        }


# -- reference helpers ------------------------------------------------------------


def iter_box(bound: Sequence[int]):
    """Yield all nonzero componentwise-bounded nonnegative vectors, ascending lex."""
    for vec in itertools.product(*(range(b + 1) for b in bound)):
        if any(vec):
            yield vec


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


# -- independent root enumeration ----------------------------------------------

_ROOT_BOX_CACHE: dict[tuple[Quiver, DimVector], frozenset] = {}


def positive_roots_in_box(q: Quiver, bound: Sequence[int], caps: Caps | None = None) -> frozenset[DimVector]:
    """Positive roots below ``bound`` by reflection closure of seed vectors.

    Seeds are the loopfree coordinate vectors plus every fundamental-region
    vector in the box; the closure applies simple reflections while staying
    inside the box. Any positive root descends to such a seed through
    vectors below itself, so the closure is exhaustive on the box.
    """
    bound = dim_vector(q, bound)
    if caps is not None:
        caps.check_box(bound)
    if (q, bound) in _ROOT_BOX_CACHE:
        return _ROOT_BOX_CACHE[(q, bound)]
    simples = {coordinate_vector(q, v) for v in q.vertices if q.is_loopfree(v) and bound[q.index(v)] >= 1}
    fundamental = {
        vec for vec in iter_box(bound)
        if all(pairing_with_simple(q, vec, v) <= 0 for v in q.vertices)
        and len(connected_components(q, support(q, vec))) == 1
    }
    result = frozenset(_closure(q, simples | fundamental, bound))
    if len(_ROOT_BOX_CACHE) < 4096:
        _ROOT_BOX_CACHE[(q, bound)] = result
    return result


def _closure(q: Quiver, seeds: Iterable[DimVector], bound: DimVector) -> set[DimVector]:
    """Everything simple reflections reach from ``seeds`` without leaving the box below ``bound``."""
    found = set(seeds)
    frontier = list(found)
    loopfree = [v for v in q.vertices if q.is_loopfree(v)]
    while frontier:
        vec = frontier.pop()
        for v in loopfree:
            image = simple_reflection(q, v, vec)
            if image not in found and all(0 <= x <= b for x, b in zip(image, bound)):
                found.add(image)
                frontier.append(image)
    return found


def _orthogonal_roots(ctx: LambdaContext, bound: DimVector) -> list[DimVector]:
    return sorted(
        b
        for b in positive_roots_in_box(ctx.quiver, bound, ctx.caps)
        if lambda_dot(ctx.weight, b) == 0
    )


# -- decomposition enumeration ---------------------------------------------------


def _multisets(
    elements: Sequence[DimVector], a: DimVector, min_parts: int
) -> list[tuple[DimVector, ...]]:
    """Multisets of at least ``min_parts`` of the sorted ``elements`` summing to ``a`` >= 0.

    Parts are in nondecreasing order and the list is in lexicographic order.
    """
    out: list[tuple[DimVector, ...]] = []
    parts: list[DimVector] = []

    def grow(residual: DimVector, start: int) -> None:
        if not any(residual):
            if len(parts) >= min_parts:
                out.append(tuple(parts))
            return
        for j in range(start, len(elements)):
            beta = elements[j]
            if all(x <= r for x, r in zip(beta, residual)):
                parts.append(beta)
                grow(tuple(r - x for r, x in zip(residual, beta)), j)
                parts.pop()

    grow(a, 0)
    return out


def enumerate_decompositions(
    ctx: LambdaContext, a: Sequence[int], min_parts: int = 1
) -> list[tuple[DimVector, ...]]:
    """All multisets of orthogonal positive roots summing to ``a``.

    Multisets are emitted with parts in nondecreasing order and the list
    itself is in lexicographic order. ``min_parts=0`` admits the empty
    decomposition of the zero vector.
    """
    a = dim_vector(ctx.quiver, a)
    if any(e < 0 for e in a):
        return []
    return _multisets(_orthogonal_roots(ctx, a), a, min_parts)


def enumerate_sigma_decompositions(
    ctx: LambdaContext, a: Sequence[int], min_parts: int = 1
) -> list[tuple[DimVector, ...]]:
    """All multisets of Sigma members summing to ``a``, canonical order.

    Sigma membership of the candidate parts is decided by this module's
    own enumeration-based test.
    """
    a = dim_vector(ctx.quiver, a)
    if any(e < 0 for e in a):
        return []
    members = [b for b in _orthogonal_roots(ctx, a) if sigma_member(ctx, b)]
    return _multisets(members, a, min_parts)


def nr_member(ctx: LambdaContext, a: Sequence[int]) -> bool:
    """Additive-closure membership by plain recursion over enumerated roots."""
    a = dim_vector(ctx.quiver, a)
    if any(e < 0 for e in a):
        return False
    roots = _orthogonal_roots(ctx, a)

    @cache
    def reach(residual: DimVector) -> bool:
        if not any(residual):
            return True
        for beta in roots:
            if all(x <= r for x, r in zip(beta, residual)):
                if reach(tuple(r - x for r, x in zip(residual, beta))):
                    return True
        return False

    return reach(a)


def sigma_member(ctx: LambdaContext, a: Sequence[int]) -> bool:
    """Sigma membership straight from the definition, by full enumeration.

    Orthogonality to the weight is tested before the box scan for roots, so
    a vector the weight does not annihilate answers False even when its box
    is over the caps.
    """
    a = dim_vector(ctx.quiver, a)
    if any(e < 0 for e in a) or not any(a):
        return False
    if lambda_dot(ctx.weight, a) != 0:
        return False
    if a not in positive_roots_in_box(ctx.quiver, a, ctx.caps):
        return False
    p = p_form(ctx.quiver, a)
    return all(
        sum(p_form(ctx.quiver, part) for part in dec) < p
        for dec in enumerate_decompositions(ctx, a, min_parts=2)
    )


def oracle_canonical(ctx: LambdaContext, a: Sequence[int]) -> tuple[DimVector, ...]:
    """The p-sum-maximizing multiset of Sigma members, by full enumeration.

    Raises InternalInconsistency if more than one multiset attains the
    maximum, and ResourceLimit through the underlying box scan. The
    maximum is sanity-checked against the unrestricted maximum over all
    orthogonal-root decompositions.
    """
    a = dim_vector(ctx.quiver, a)
    if not any(a):
        return ()
    all_decs = enumerate_decompositions(ctx, a, min_parts=1)
    if not all_decs:
        raise NotInNRLambdaPlus(f"{a!r} is not a sum of orthogonal positive roots")
    overall = max(sum(p_form(ctx.quiver, part) for part in dec) for dec in all_decs)
    winners = [
        dec for dec in enumerate_sigma_decompositions(ctx, a)
        if sum(p_form(ctx.quiver, part) for part in dec) == overall
    ]
    if len(winners) != 1:
        raise InternalInconsistency(
            f"{len(winners)} maximizing Sigma multisets for {a!r}; expected exactly one"
        )
    return winners[0]


def refines(parts: Iterable[Sequence[int]], targets: Iterable[Sequence[int]]) -> bool:
    """Partition-refinement test, kept local so the oracle stays self-contained."""
    parts = sorted(map(integer_entries, parts))
    targets = sorted(map(integer_entries, targets), key=lambda t: (-sum(t), t))

    def assign(remaining: tuple, queue: tuple) -> bool:
        if not queue:
            return not remaining
        target = queue[0]

        def choose(residual, start, taken):
            if not any(residual):
                rest = list(remaining)
                for idx in sorted(taken, reverse=True):
                    del rest[idx]
                return assign(tuple(rest), queue[1:])
            prev = None
            for idx in range(start, len(remaining)):
                cand = remaining[idx]
                if cand == prev:
                    continue
                prev = cand
                if any(x > r for x, r in zip(cand, residual)):
                    continue
                if choose(tuple(r - x for r, x in zip(residual, cand)), idx + 1, taken + [idx]):
                    return True
            return False

        return choose(target, 0, [])

    return assign(tuple(parts), tuple(targets))


# -- lemma checkers ---------------------------------------------------------------


def _report(lemma: str, started: float, instances: int, counterexamples: list, info: dict | None = None) -> CheckReport:
    return CheckReport(
        lemma=lemma,
        instances_checked=instances,
        counterexamples=counterexamples,
        elapsed=time.perf_counter() - started,
        info=info or {},
    )


def check_deltasum(ctx: LambdaContext, m: int) -> CheckReport:
    """Every Sigma decomposition of m*delta refines delta + ... + delta.

    Requires an extended Dynkin quiver whose delta is orthogonal to the
    weight; checks each enumerated Sigma decomposition of m*delta against
    the m-fold split.
    """
    started = time.perf_counter()
    shape = classify_shape(ctx.quiver)
    if shape.kind is not ShapeKind.EXTENDED_DYNKIN:
        raise ValueError("delta-sum check needs an extended Dynkin quiver")
    delta = shape.delta
    if lambda_dot(ctx.weight, delta) != 0:
        raise ValueError("the weight must be orthogonal to delta")
    target = tuple(m * d for d in delta)
    decs = enumerate_sigma_decompositions(ctx, target)
    counterexamples = [
        {"decomposition": [list(p) for p in dec]} for dec in decs if not refines(dec, [delta] * m)
    ]
    return _report("deltasum", started, len(decs), counterexamples, {"m": m, "delta": list(delta)})


def _dynkin_positive_roots(q: Quiver) -> list[DimVector]:
    """All positive roots of a Dynkin quiver by reflection closure.

    No entry of a Dynkin positive root exceeds 6, the largest coefficient of
    E8's highest root, so the box below (6, ..., 6) holds them all.
    """
    simples = [coordinate_vector(q, v) for v in q.vertices if q.is_loopfree(v)]
    return sorted(_closure(q, simples, (6,) * q.n))


def check_dynkvec(q: Quiver, box_bound: int) -> CheckReport:
    """No nonzero integer vector pairs within [-1, 0] against every positive root.

    Exhausts the cube [-b, b]^n for a Dynkin quiver. Each root eta enters
    through its Cartan image C*eta, computed once: (v, eta) = v . (C*eta).
    """
    started = time.perf_counter()
    if classify_shape(q).kind is not ShapeKind.DYNKIN:
        raise ValueError("the vector check is a statement about Dynkin quivers")
    roots = _dynkin_positive_roots(q)
    images = [tuple(sum(map(mul, row, eta)) for row in q.cartan_matrix()) for eta in roots]
    counterexamples = []
    instances = 0
    for vec in itertools.product(range(-box_bound, box_bound + 1), repeat=q.n):
        if not any(vec):
            continue
        instances += 1
        if all(-1 <= sum(map(mul, vec, image)) <= 0 for image in images):
            counterexamples.append({"vector": list(vec)})
    return _report("dynkvec", started, instances, counterexamples, {"roots": len(roots)})


def added_vertex_split(q: Quiver) -> tuple[str, str, DimVector]:
    """Recognize a quiver built by joining one vertex to an extended Dynkin one.

    Returns (added vertex j, extending vertex k, delta padded with 0 at j)
    for the first vertex in order that works; raises ValueError when the
    quiver does not have this shape.
    """
    for j in q.vertices:
        if q.loops_at(j) != 0:
            continue
        incident = [a for a in q.arrows if j in a]
        if len(incident) != 1:
            continue
        tail, head = incident[0]
        k = head if tail == j else tail
        rest = [v for v in q.vertices if v != j]
        sub = restrict(q, rest)
        shape = classify_shape(sub)
        if shape.kind is not ShapeKind.EXTENDED_DYNKIN:
            continue
        if k not in shape.extending:
            continue
        inner = dict(zip(sub.vertices, shape.delta))
        delta = tuple(inner.get(v, 0) for v in q.vertices)
        return j, k, delta
    raise ValueError("no vertex splits off an extended Dynkin quiver at an extending vertex")


def _added_vertex(ctx: LambdaContext) -> tuple[str, str, DimVector]:
    """``added_vertex_split`` of the quiver, under the weight's hypotheses there."""
    j, k, delta = added_vertex_split(ctx.quiver)
    if lambda_dot(ctx.weight, delta) != 0 or ctx.weight[ctx.quiver.index(j)] != 0:
        raise ValueError("the weight must be orthogonal to delta and vanish at the added vertex")
    return j, k, delta


def check_rootineq(ctx: LambdaContext, a: Sequence[int]) -> CheckReport:
    """gamma_k - 1 <= (a', gamma) <= gamma_k for orthogonal roots gamma below delta.

    Here a' zeroes the added vertex j and gamma ranges over orthogonal
    positive roots strictly below delta componentwise. Requires the
    added-vertex shape, a Sigma member ``a`` with a_j = 1, and the
    standing weight conditions.
    """
    started = time.perf_counter()
    q = ctx.quiver
    a = dim_vector(q, a)
    j, k, delta = _added_vertex(ctx)
    ji, ki = q.index(j), q.index(k)
    if a[ji] != 1:
        raise ValueError(f"the vector must have entry 1 at the added vertex {j!r}")
    if not sigma_member(ctx, a):
        raise ValueError(f"{a!r} is not a Sigma member for this weight")
    a_prime = tuple(0 if i == ji else x for i, x in enumerate(a))
    # gamma < delta means gamma <= delta componentwise and gamma != delta
    gammas = [g for g in _orthogonal_roots(ctx, delta) if g != delta]
    counterexamples = []
    for g in gammas:
        value = bilinear_form(q, a_prime, g)
        if not (g[ki] - 1 <= value <= g[ki]):
            counterexamples.append({"gamma": list(g), "pairing": value})
    return _report(
        "rootineq", started, len(gammas), counterexamples,
        {"alpha": list(a), "j": j, "k": k},
    )


def check_maincase(ctx: LambdaContext, box_bound: Sequence[int], m_max: int) -> CheckReport:
    """Sigma members with entry 1 at the added vertex and a reachable m*delta - a'.

    Sweeps the box; whenever a Sigma member with a_j = 1 admits some
    m <= m_max with m*delta - a' in the additive closure, it must be the
    coordinate vector at j. Also records which Sigma members had no such
    m, since the hypothesis is genuinely needed.
    """
    started = time.perf_counter()
    q = ctx.quiver
    box_bound = dim_vector(q, box_bound)
    j, k, delta = _added_vertex(ctx)
    ji = q.index(j)
    eps_j = coordinate_vector(q, j)
    counterexamples = []
    with_m = []
    without_m = []
    sigma_count = 0
    for vec in iter_box(box_bound):
        if vec[ji] != 1:
            continue
        if not sigma_member(ctx, vec):
            continue
        sigma_count += 1
        a_prime = tuple(0 if i == ji else x for i, x in enumerate(vec))
        # nr_member answers False for a candidate with a negative entry
        qualifying = next(
            (m for m in range(m_max + 1) if nr_member(ctx, tuple(m * d - x for d, x in zip(delta, a_prime)))),
            None,
        )
        if qualifying is None:
            without_m.append(list(vec))
            continue
        with_m.append({"alpha": list(vec), "m": qualifying})
        if vec != eps_j:
            counterexamples.append({"alpha": list(vec), "m": qualifying})
    return _report(
        "maincase", started, sigma_count, counterexamples,
        {"with_qualifying_m": with_m, "without_qualifying_m": without_m,
         "j": j, "k": k, "delta": list(delta), "m_max": m_max},
    )


def check_support_split(
    ctx: LambdaContext,
    a: Sequence[int],
    part_j: Iterable[str],
    part_k: Iterable[str],
) -> CheckReport:
    """The canonical decomposition splits along a one-arrow vertex partition.

    Validates the hypotheses (disjoint cover; at most one connecting arrow;
    with one connecting arrow j-k either a_j = a_k = 1, or a_j = 1 with the
    second side extended Dynkin, k extending, and that side a multiple
    m >= 2 of its delta), then checks that every canonical term is
    supported on one side and the term multisets agree with the two
    restricted decompositions.
    """
    from .decomposer import canonical_decompose

    started = time.perf_counter()
    q = ctx.quiver
    a = dim_vector(q, a)
    part_j, part_k = tuple(part_j), tuple(part_k)
    if sorted(part_j + part_k) != sorted(q.vertices) or set(part_j) & set(part_k):
        raise ValueError("the two parts must partition the vertex set")
    crossing = [arrow for arrow in q.arrows if (arrow[0] in part_j) != (arrow[1] in part_j)]
    if len(crossing) > 1:
        raise ValueError("the parts must be joined by at most one arrow")
    a_j = tuple(x if v in part_j else 0 for v, x in zip(q.vertices, a))
    a_k = tuple(x - y for x, y in zip(a, a_j))
    if crossing:
        j, k = crossing[0] if crossing[0][0] in part_j else crossing[0][::-1]
        ji, ki = q.index(j), q.index(k)
        if lambda_dot(ctx.weight, a_j) != 0:
            raise ValueError("the weight must be orthogonal to the first side")
        one_one = a[ji] == 1 and a[ki] == 1
        shape = classify_shape(restrict(q, part_k))
        # an extending vertex has delta_k = 1, so the multiple is a_k
        multiple = (
            a[ji] == 1 and a[ki] >= 2
            and shape.kind is ShapeKind.EXTENDED_DYNKIN and k in shape.extending
            and restrict_vector(q, a_k, part_k) == tuple(a[ki] * d for d in shape.delta)
        )
        if not (one_one or multiple):
            raise ValueError("the connecting arrow needs entries 1-1 or the delta-multiple shape")

    whole = canonical_decompose(ctx, a)
    left = canonical_decompose(ctx, a_j)
    right = canonical_decompose(ctx, a_k)
    counterexamples = []
    instances = 0
    for term in whole.terms:
        instances += 1
        supp = set(support(q, term.sigma))
        if not (supp <= set(part_j) or supp <= set(part_k)):
            counterexamples.append({"term": list(term.sigma), "reason": "support crosses the partition"})
    if sorted(whole.multiset()) != sorted(left.multiset() + right.multiset()):
        counterexamples.append(
            {
                "reason": "term multisets disagree",
                "whole": [list(t) for t in whole.multiset()],
                "split": [list(t) for t in left.multiset() + right.multiset()],
            }
        )
    return _report(
        "support_split", started, instances, counterexamples,
        {"alpha": list(a), "side_j": list(part_j), "side_k": list(part_k)},
    )


# -- the default suite ------------------------------------------------------------


def default_suite(caps: Caps) -> list[CheckReport]:
    """The default lemma-check suite at desk-scale bounds, run by ``quiverdec verify``."""
    kronecker = extended_dynkin_quiver("A1")
    triangle = extended_dynkin_quiver("A2")
    ex4 = Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])
    ex4_weight = [0, 1, -2, 1]

    reports = []
    reports.append(check_deltasum(LambdaContext(kronecker, [0, 0], caps), 2))
    reports.append(check_deltasum(LambdaContext(triangle, [1, -1, 0], caps), 2))
    for name in ("A1", "A2", "A3", "A4", "D4"):
        reports.append(check_dynkvec(dynkin_quiver(name), 3))
    ctx4 = LambdaContext(ex4, ex4_weight, caps)
    reports.append(check_rootineq(ctx4, (1, 3, 2, 1)))
    ctx4_synth = LambdaContext(ex4, [0, 1, -1, 0], caps)
    reports.append(check_rootineq(ctx4_synth, (1, 0, 0, 0)))
    reports.append(check_maincase(ctx4, (1, 4, 4, 4), 6))
    # one-arrow join of an A2 side and a Kronecker side, entries 1 at the join
    bridge = Quiver(
        ["j1", "j2", "k1", "k2"],
        [["j1", "j2"], ["j2", "k1"], ["k1", "k2"], ["k1", "k2"]],
    )
    ctx_bridge = LambdaContext(bridge, [1, -1, Fraction(1, 2), Fraction(-1, 2)], caps)
    reports.append(check_support_split(ctx_bridge, (1, 1, 1, 1), ("j1", "j2"), ("k1", "k2")))
    # extended Dynkin side carrying twice its delta
    pend = Quiver(["j", "k0", "k1"], [["j", "k0"], ["k0", "k1"], ["k0", "k1"]])
    ctx_pend = LambdaContext(pend, [0, 1, -1], caps)
    reports.append(check_support_split(ctx_pend, (1, 2, 2), ("j",), ("k0", "k1")))
    # two components with no connecting arrow split unconditionally
    disjoint = Quiver(["a", "b", "c"], [["a", "b"]])
    ctx_disjoint = LambdaContext(disjoint, [1, -1, 0], caps)
    reports.append(check_support_split(ctx_disjoint, (1, 1, 2), ("a", "b"), ("c",)))
    return reports
