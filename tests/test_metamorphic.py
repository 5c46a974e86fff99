"""The relations of ``metamorphic.py``: on seeded random pairs at default caps, and the closed form on the catalogue."""

import random
from collections import Counter
from fractions import Fraction

import quiverdec as qd
from metamorphic import closed_form, disjoint_union, reflect, relabel, scale


def _random_pair(rng: random.Random, top: int = 4):
    """A quiver of 2-6 vertices with loops and parallel arrows, a vector of entries 0-``top`` and a weight.

    The weight has zero entries, and four times in five it is made orthogonal to the vector
    through one vertex where the vector is nonzero.
    """
    n = rng.randint(2, 6)
    vertices = [str(i) for i in range(n)]
    arrows = [[rng.choice(vertices), rng.choice(vertices)] for _ in range(rng.randint(n - 1, 2 * n))]
    vector = [rng.randint(0, top) for _ in range(n)]
    weight = [Fraction(rng.choice([0, 0, 0, 1, -1, 2, -2, 3])) for _ in range(n)]
    live = [i for i, x in enumerate(vector) if x]
    if live and rng.random() < 0.8:
        i = rng.choice(live)
        weight[i] = -sum(w * x for j, (w, x) in enumerate(zip(weight, vector)) if j != i) / vector[i]
    return qd.Quiver(vertices, arrows), weight, vector


def test_reports_obey_relabelling_scaling_and_admissible_reflection():
    rng = random.Random(20011)
    kinds, reflected = Counter(), 0
    for _ in range(1000):
        q, weight, vector = _random_pair(rng)
        kind = relabel(q, weight, vector, qd.DEFAULT_CAPS, rng)
        assert scale(q, weight, vector, qd.DEFAULT_CAPS, rng) == kind
        reflected_kind, vertex = reflect(q, weight, vector, qd.DEFAULT_CAPS, rng)
        assert reflected_kind == kind
        kinds[kind] += 1
        reflected += vertex is not None
    # every kind the relations compare occurs, and no default cap refuses these small boxes
    assert (kinds, reflected) == ({"answer": 453, "non-member": 547}, 721)


def test_a_disjoint_union_decomposes_into_its_parts():
    rng = random.Random(20027)
    kinds = Counter(disjoint_union(_random_pair(rng, 2), _random_pair(rng, 2), qd.DEFAULT_CAPS) for _ in range(400))
    # entries 0-2 on at most 12 vertices stay within the default caps
    assert kinds == {"answer": 118, "non-member": 282}
    kronecker = (qd.extended_dynkin_quiver("A1"), (0, 0), (2, 2))
    assert disjoint_union(kronecker, kronecker, qd.Caps(max_bound_sum=6)) == "refused"  # the parts answer


def test_m_delta_is_m_times_delta_on_every_affine_type_at_weights_orthogonal_to_delta():
    rng = random.Random(20028)
    for name in [f"A{r}" for r in range(9)] + [f"D{r}" for r in range(4, 10)] + ["E6", "E7", "E8"]:
        delta = qd.classify_shape(qd.extended_dynkin_quiver(name)).delta
        weight = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in delta]
        weight[delta.index(1)] -= sum(w * x for w, x in zip(weight, delta))  # delta is 1 there
        for m in (1,) if name == "E8" else (1, 2):  # E8 2 * delta takes seconds
            for lam in ([0] * len(delta), weight):
                closed_form(name, m, lam, qd.Caps(max_bound_sum=max(24, m * sum(delta))))
