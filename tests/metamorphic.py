"""Metamorphic relations of the whole product report, needing no reference answer.

Each relation runs the main path on a pair (quiver, weight, vector) and on a
transformed pair, and asserts what theory says must agree:

- ``relabel``: rename and reorder the vertices, shuffle the arrows and reverse
  some of them. The form depends only on the underlying graph, so the report is
  the same up to the permutation.
- ``scale``: multiply the weight by a nonzero rational. Orthogonality and
  admissibility only see where the weight is zero, so the terms, the dimension
  and the labels are the same.
- ``reflect``: reflect the pair at an admissible vertex (loopfree, nonzero
  weight) whose simple reflection keeps the vector in the orthant. It permutes
  the orthogonal roots and keeps p (Crawley-Boevey, Compositio 2001), so each
  term maps by the same reflection, with the same multiplicity, class, p and
  factor, and the norm stays.
- ``disjoint_union``: join two pairs on vertices renamed apart. A root has
  connected support, so it lies in one part, and p adds over the parts; the
  union's terms are the parts' terms padded with zeros, and the norms add.

A vector outside the additive closure must stay outside it. A cap refusal is a
bounded answer, not a wrong one: a relation with a refusal on either side
compares nothing and says so. Each relation returns the kind of outcome it
compared, "answer", "non-member" or "refused", so a test can assert its case
mix; ``reflect`` also returns the vertex it reflected at, if any. The caps are
the caller's, so a test of a faster path can run the same relations at the
sizes it reaches.

``closed_form`` needs no second run: on an extended Dynkin quiver, at a weight
with weight . delta = 0, the imaginary roots are the k * delta, each with p = 1,
so no decomposition of m * delta has a p-sum above m, and only m x delta reaches it.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import quiverdec as qd


def outcome(q, weight, vector, caps):
    """The product report of the pair, or the kind of typed refusal it meets."""
    return _outcome(q.vertices, q.arrows, tuple(map(Fraction, weight)), tuple(vector), caps)


@lru_cache(maxsize=16)  # the relations run on one original pair in turn: its report is computed once
def _outcome(vertices, arrows, weight, vector, caps):
    try:
        return qd.product_structure_report(qd.LambdaContext(qd.Quiver(vertices, arrows), weight, caps), vector)
    except qd.NotInNRLambdaPlus:
        return "non-member"
    except qd.ResourceLimit:
        return "refused"


def _terms(report, move=lambda sigma: sigma):
    """The report's terms as a multiset of (moved sigma, m, class, p, factor)."""
    return Counter((move(t.sigma), t.multiplicity, t.root_class, t.p_value, f.describe())
                   for t, f in zip(report.decomposition.terms, report.factors))


def _kind(result) -> str:
    return result if isinstance(result, str) else "answer"


def _compare(before, after, move=lambda sigma: sigma, same_order=False) -> str:
    """Assert that two outcomes agree, the terms of ``before`` moved; the kind compared."""
    if "refused" in (_kind(before), _kind(after)):
        return "refused"
    assert _kind(after) == _kind(before), (before, after)
    if _kind(before) == "answer":
        assert after.decomposition.norm == before.decomposition.norm
        assert _terms(after) == _terms(before, move)
        if same_order:
            assert after.decomposition.terms == before.decomposition.terms and after.factors == before.factors
    return _kind(before)


def relabel(q, weight, vector, caps, rng: random.Random) -> str:
    """The report after renaming and permuting the vertices and shuffling and reversing arrows."""
    order = rng.sample(range(q.n), q.n)  # new position k holds old vertex order[k]
    names = {v: f"v{rng.randrange(10**6)}_{k}" for k, v in enumerate(q.vertices)}
    arrows = [[names[h], names[t]] if rng.random() < 0.5 else [names[t], names[h]] for t, h in q.arrows]
    rng.shuffle(arrows)
    moved = qd.Quiver([names[q.vertices[i]] for i in order], arrows)
    before = outcome(q, weight, vector, caps)
    after = outcome(moved, [weight[i] for i in order], [vector[i] for i in order], caps)
    return _compare(before, after, lambda sigma: tuple(sigma[i] for i in order))


def scale(q, weight, vector, caps, rng: random.Random) -> str:
    """The report after multiplying the weight by a random nonzero rational."""
    factor = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
    before = outcome(q, weight, vector, caps)
    after = outcome(q, [factor * Fraction(x) for x in weight], vector, caps)
    return _compare(before, after, same_order=True)


def reflect(q, weight, vector, caps, rng: random.Random) -> tuple[str, str | None]:
    """The report after a random admissible reflection keeping the vector nonnegative; (kind, vertex or None)."""
    pair = qd.make_pair(q, weight, vector)
    images = {v: qd.reflect_pair(q, pair, v) for v in q.vertices if qd.is_admissible(q, pair, v)}
    landing = [v for v, image in images.items() if min(image.dim) >= 0]
    before = outcome(q, weight, vector, caps)
    if not landing:
        return _kind(before), None
    v = rng.choice(landing)
    after = outcome(q, images[v].weight, images[v].dim, caps)
    return _compare(before, after, lambda sigma: qd.simple_reflection(q, v, sigma)), v


def disjoint_union(first, second, caps) -> str:
    """The report of two pairs (quiver, weight, vector) joined on vertices renamed apart, against the parts'."""
    vertices, arrows = [], []
    for k, (q, _, _) in enumerate((first, second)):
        vertices += [f"{k}:{v}" for v in q.vertices]
        arrows += [[f"{k}:{t}", f"{k}:{h}"] for t, h in q.arrows]
    parts = [outcome(*first, caps), outcome(*second, caps)]
    after = outcome(qd.Quiver(vertices, arrows), [*first[1], *second[1]], [*first[2], *second[2]], caps)
    if "refused" in map(_kind, parts + [after]):
        return "refused"
    assert (_kind(after) == "non-member") == ("non-member" in map(_kind, parts)), (parts, after)
    if _kind(after) == "answer":
        left, right = (0,) * first[0].n, (0,) * second[0].n
        assert _terms(after) == _terms(parts[0], lambda sigma: sigma + right) + _terms(parts[1], lambda sigma: left + sigma)
        assert after.decomposition.norm == sum(part.decomposition.norm for part in parts)
        assert after.to_json_dict()["dimension"] == sum(part.to_json_dict()["dimension"] for part in parts)
    return _kind(after)


def closed_form(name: str, m: int, weight, caps) -> None:
    """Assert that m * delta on the extended Dynkin quiver ``name``, at a weight with weight . delta = 0, is m x delta."""
    q = qd.extended_dynkin_quiver(name)
    delta = qd.classify_shape(q).delta
    report = qd.product_structure_report(qd.LambdaContext(q, weight, caps), [m * x for x in delta])
    assert report.decomposition.terms == (qd.Term(delta, m, qd.RootClass.ISOTROPIC_IMAGINARY, 1),)
    assert [f.describe() for f in report.factors] == [f"Kleinian({name})"]
    assert report.to_json_dict()["dimension"] == 2 * m
    lam, vec = (",".join(map(str, v)) for v in (map(Fraction, weight), delta))
    assert report.formula == (f"S^{m} " if m > 1 else "") + f"N(({lam}),({vec}))"
