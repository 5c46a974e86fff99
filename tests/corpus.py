"""Deterministic instance corpus shared by the agreement and acceptance tests.

Instances are (name, quiver, weight, alpha) with alpha a member of the
additive closure for that weight, total entry sum at most 8, spanning
Dynkin, extended Dynkin, and wild quivers. Weights mix zero, the
added-vertex example's weight, and seeded random small rationals
orthogonal to alpha. ``table_cells`` reads a classified box's table cell by cell.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import quiverdec as qd

EX4 = qd.Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])
EX4_WEIGHT = (0, 1, -2, 1)

QUIVERS = [
    ("A1", qd.dynkin_quiver("A1")),
    ("A2", qd.dynkin_quiver("A2")),
    ("A3", qd.dynkin_quiver("A3")),
    ("kronecker", qd.extended_dynkin_quiver("A1")),
    ("jordan", qd.extended_dynkin_quiver("A0")),
    ("3-kronecker", qd.Quiver(["0", "1"], [["0", "1"]] * 3)),
    ("ex4", EX4),
]

MAX_ALPHA_SUM = 8


def table_cells(table):
    """(best, count) at every cell of the table's box, the zero cell included, ascending lex."""
    return [(table[a], table.count(a)) for a in itertools.product(*(range(b + 1) for b in table.bound))]


def _box_alphas(q, per_entry, cap=None):
    """Every nonzero vector with entries up to ``per_entry`` and small sum."""
    out = [
        vec
        for vec in itertools.product(range(per_entry + 1), repeat=q.n)
        if any(vec) and sum(vec) <= MAX_ALPHA_SUM
    ]
    return out[:cap] if cap else out


def _random_alphas(q, rng, count):
    """Seeded nonzero candidate vectors with entry sum at most the cap."""
    out = set()
    attempts = 0
    while len(out) < count and attempts < 60 * count:
        attempts += 1
        vec = tuple(rng.randint(0, 3) for _ in range(q.n))
        if any(vec) and sum(vec) <= MAX_ALPHA_SUM:
            out.add(vec)
    return sorted(out)


def _orthogonal_weight(q, alpha, rng):
    """A small random rational weight with weight . alpha == 0."""
    entries = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(q.n)]
    pivot = next((i for i, a in enumerate(alpha) if a), None)
    if pivot is None:
        return tuple(entries)
    rest = sum(e * a for i, (e, a) in enumerate(zip(entries, alpha)) if i != pivot)
    entries[pivot] = -rest / alpha[pivot]
    return tuple(entries)


def build_corpus(minimum=200, seed=20260809):
    """At least ``minimum`` member instances, deterministically."""
    rng = random.Random(seed)
    instances = []
    contexts = {}

    def ctx_for(name, q, lam):
        key = (name, lam)
        if key not in contexts:
            contexts[key] = qd.LambdaContext(q, lam)
        return contexts[key]

    for name, q in QUIVERS:
        zero = (Fraction(0),) * q.n
        per_entry = 4 if q.n <= 2 else 2
        for alpha in _box_alphas(q, per_entry, cap=40):
            ctx = ctx_for(name, q, zero)
            if qd.in_N_R_lambda_plus(ctx, alpha):
                instances.append((name, q, zero, alpha, ctx))
        for alpha in _random_alphas(q, rng, 20):
            lam = _orthogonal_weight(q, alpha, rng)
            ctx = ctx_for(name, q, lam)
            if qd.in_N_R_lambda_plus(ctx, alpha):
                instances.append((name, q, lam, alpha, ctx))

    lam = tuple(Fraction(x) for x in EX4_WEIGHT)
    ctx = ctx_for("ex4", EX4, lam)
    for alpha in itertools.product(range(2), range(5), range(3), range(3)):
        if any(alpha) and sum(alpha) <= MAX_ALPHA_SUM and qd.in_N_R_lambda_plus(ctx, alpha):
            instances.append(("ex4-paper", EX4, lam, alpha, ctx))

    if len(instances) < minimum:
        raise AssertionError(f"corpus too small: {len(instances)} < {minimum}")
    return instances
