"""The metamorphic relations of ``metamorphic.py`` on seeded random pairs, at default caps."""

import random
from collections import Counter
from fractions import Fraction

import quiverdec as qd
from metamorphic import reflect, relabel, scale


def _random_pair(rng: random.Random):
    """A quiver of 2-6 vertices with loops and parallel arrows, a vector of entries 0-4 and a weight.

    The weight has zero entries, and four times in five it is made orthogonal to the vector
    through one vertex where the vector is nonzero.
    """
    n = rng.randint(2, 6)
    vertices = [str(i) for i in range(n)]
    arrows = [[rng.choice(vertices), rng.choice(vertices)] for _ in range(rng.randint(n - 1, 2 * n))]
    vector = [rng.randint(0, 4) for _ in range(n)]
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
