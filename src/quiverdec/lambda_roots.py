"""The weight-dependent root sets and the norm they induce.

For a quiver with weight ``lam`` the positive roots orthogonal to ``lam``
form the set here called the orthogonal roots (R-plus). Sigma is decided
first, by a refinement fact: an orthogonal root outside Sigma has a proper
split whose p-sum is at least its own p, so refining decompositions ends at
Sigma multisets. A root's best proper split is thus its best proper Sigma
multiset, of members with smaller entry sums, and visiting the roots by
(entry sum, lex) decides each from the members before it. The norm keeps
its definition, a maximum over decompositions into all orthogonal roots,
in a table of its own, so the decomposer's check that the Sigma maximum
equals it compares two computations. Neither table can use a real root where
the weight is 0, a sum of orthogonal coordinate vectors, so the classified
box keeps none; ``LambdaContext._cover`` states that rule once. Tables are
filled bottom-up.
"""

from __future__ import annotations

from math import prod
from operator import le, mul, sub
from typing import Collection, Iterable, Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import InternalInconsistency, NotInNRLambdaPlus, ResourceLimit
from .quiver_core import (
    DimVector,
    Quiver,
    WeightVector,
    dim_vector,
    weight_vector,
    zero_vector,
)
from .reflection_walk import PairState, _integer_weight, descend
from .root_system import _roots_with_p, classify_root


def _below(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


class BoxTable:
    """Best p-sum over multisets of the added items, for each vector of a box.

    Read by cell only: ``table[a]`` is the best, None when no multiset sums to ``a``;
    ``count(a)`` how many attain it; ``witness(a)`` one that does. ``items`` maps each added
    item to its p, ``splits`` to the best its cell held just before it joined. How cells are
    numbered and stored is private. Adding an item is one unbounded-knapsack pass, so each
    multiset is counted once. The p = 0 coordinate vectors at ``seeds`` start added, with no
    ``items`` entry: a vector on their support is one multiset. Cells go ascending lex, and
    seeds go down in blocks, last coordinate first: a seeded one repeats the block after it.
    """

    def __init__(self, bound: DimVector, seeds: Collection[int] = ()):
        self.bound = bound
        self._strides = tuple(prod(b + 1 for b in bound[i + 1:]) for i in range(len(bound)))
        self._best: list[int | None] = [0]
        self._count = [1]
        for i in reversed(range(len(bound))):
            if i in seeds:
                self._best, self._count = self._best * (bound[i] + 1), self._count * (bound[i] + 1)
            else:
                self._best += [None] * (len(self._best) * bound[i])
                self._count += [0] * (len(self._count) * bound[i])
        self.items: dict[DimVector, int] = {}
        self.splits: dict[DimVector, int | None] = {}

    def _index(self, a: Sequence[int]) -> int:
        return sum(map(mul, a, self._strides))

    def __getitem__(self, a: Sequence[int]) -> int | None:
        return self._best[self._index(a)]

    def count(self, a: Sequence[int]) -> int:
        return self._count[self._index(a)]

    def add(self, item: DimVector, p: int) -> None:
        best, count, shift = self._best, self._count, self._index(item)
        self.items[item] = p
        self.splits[item] = best[shift]
        rows = [0]  # first indices of the rows of vectors below bound - item, ascending
        for b, x, stride in zip(self.bound[:-1], item, self._strides):
            rows = [o + k * stride for o in rows for k in range(b - x + 1)]
        width = self.bound[-1] - item[-1] + 1
        for row in rows:
            for j in range(row, row + width):
                if best[j] is None:
                    continue
                k = j + shift
                value, current = best[j] + p, best[k]
                if current is None or value > current:
                    best[k], count[k] = value, count[j]
                elif value == current:
                    count[k] += count[j]

    def witness(self, a: DimVector) -> tuple[DimVector, ...]:
        """One multiset of the added items attaining the best at ``a``, taking the first added that continues one.

        Walks cell indices: a try reads the cell its item's index offset lower; only a match checks the item fits.
        """
        best, cell, parts = self._best, self._index(a), []
        if best[cell] is None:
            raise InternalInconsistency(f"no multiset of the added items sums to {a!r}")
        offsets = [(item, self._index(item), p) for item, p in self.items.items()]
        while cell:
            target = best[cell]
            for item, shift, p in offsets:
                if (rest := cell - shift) >= 0 and best[rest] == target - p and all(map(le, item, a)):
                    parts.append(item)
                    a, cell = tuple(map(sub, a, item)), rest
                    break
            else:
                raise InternalInconsistency(f"no added item continues a best multiset at {a!r}")
        return tuple(parts)


class LambdaContext:
    """A quiver with a fixed exact-rational weight and resource caps.

    The context classifies one box, grown to cover each bound asked about,
    with its Sigma and norm tables; Sigma decisions are memoized by vector,
    as they do not depend on the box. A context is safe to use from one
    thread at a time; distinct contexts are fully independent.
    """

    def __init__(self, quiver: Quiver, weight: Iterable, caps: Caps = DEFAULT_CAPS):
        self.quiver = quiver
        self.weight: WeightVector = weight_vector(quiver, weight)
        self._scaled = _integer_weight(self.weight)[1]  # orthogonality is linear in the weight
        self.caps = caps
        self._bound: DimVector = zero_vector(quiver)
        self._roots: dict[DimVector, int] = {}  # p of each kept orthogonal root of the box, by (sum, lex)
        self._tables: dict[str, BoxTable] = {}
        self._reduced: dict[WeightVector, LambdaContext] = {}  # where over-cap vectors descend, by weight
        self._over: dict[DimVector, tuple[LambdaContext, DimVector, tuple[str, ...]]] = {}  # resolved over-cap

    def _cover(self, bound: DimVector) -> None:
        """Classify a box containing ``bound``, the join with the old box if it fits the caps.

        Of the orthogonal roots it keeps those with p > 0, the coordinate vectors and those where
        the weight is nonzero on the support: no table can use any other, a real root that sums
        orthogonal coordinate vectors of p = 0. So where the weight is 0 at every loopfree vertex,
        only imaginary roots are raised.
        """
        if _below(bound, self._bound):
            return
        box = tuple(map(max, bound, self._bound))
        real = any(w for w, v in zip(self._scaled, self.quiver.vertices) if self.quiver.is_loopfree(v))
        try:
            roots = _roots_with_p(self.quiver, box, self.caps, real)
        except ResourceLimit:
            box, roots = bound, _roots_with_p(self.quiver, bound, self.caps, real)
        self._roots = {b: roots[b] for b in self._orthogonal(roots)
                       if roots[b] or sum(b) == 1 or any(map(mul, self._scaled, b))}
        self._bound = box
        self._tables.clear()

    def _orthogonal(self, roots: Iterable[DimVector]) -> list[DimVector]:
        """Those of ``roots`` orthogonal to the weight, by (entry sum, lex)."""
        return sorted((b for b in roots if not sum(map(mul, self._scaled, b))), key=lambda b: (sum(b), b))

    def orthogonal_roots_upto(self, bound: Sequence[int]) -> tuple[DimVector, ...]:
        """Positive roots below ``bound`` orthogonal to the weight, by (entry sum, lex); the box stays."""
        return tuple(self._orthogonal(_roots_with_p(self.quiver, bound, self.caps)))

    def resolve(self, a: Sequence[int]) -> tuple[LambdaContext, DimVector, tuple[str, ...]]:
        """(context, vector, reflections) that a vector query on ``a`` runs on, the box covering it.

        Itself, ``a`` and () when the caps admit a box containing ``a``; else the pair's admissible
        descent, which keeps orthogonal roots and p, on the context kept for its reduced weight;
        that triple is kept per vector, as no box of the caps ever covers it. NotInNRLambdaPlus for
        a negative entry, given or reached, or a descent with no step from a vector not orthogonal
        to the weight; any other descent with no step, as at weight 0, re-raises the caps' refusal.
        """
        a = dim_vector(self.quiver, a)
        if any(e < 0 for e in a):
            raise NotInNRLambdaPlus(f"{a!r} has a negative entry")
        if a not in self._over:
            try:
                self._cover(a)
                return self, a, ()
            except ResourceLimit:
                state, seq = descend(self.quiver, PairState(self.weight, a))
                if not seq:
                    if sum(map(mul, self._scaled, a)):
                        raise NotInNRLambdaPlus(f"{a!r} is not a sum of orthogonal positive roots") from None
                    raise
            if min(state.dim) < 0:
                along = ",".join(seq) if len(seq) <= 64 else f"{','.join(seq[:8])},… ({len(seq)} reflections)"
                raise NotInNRLambdaPlus(f"{a!r} reflects along {along} to {state.dim!r}")
            low = self._reduced.get(state.weight) or LambdaContext(self.quiver, state.weight, self.caps)
            self._reduced[state.weight] = low
            self._over[a] = low, state.dim, seq
        low, b, seq = self._over[a]
        low._cover(b)  # the reduced box may since have moved to another vector's
        return low, b, seq

    def sigma_table(self, bound: Sequence[int]) -> BoxTable:
        """Best Sigma multisets, with their counts, over a box containing ``bound``."""
        self._cover(dim_vector(self.quiver, bound))
        return self._table("sigma")

    def norm_table(self, bound: Sequence[int]) -> BoxTable:
        """Best decompositions into all orthogonal roots, over a box containing ``bound``."""
        self._cover(dim_vector(self.quiver, bound))
        return self._table("norm")

    def _table(self, kind: str) -> BoxTable:
        """The "sigma" or "norm" table of the classified box, built on first use.

        Both tables seed the roots of entry sum 1 and p = 0, which come first, and the norm
        table adds every other kept root. Sigma decides roots by (entry sum, lex): read before
        the root is added, its cell holds its best proper split, and a root whose p beats that
        joins Sigma and the table.
        """
        if kind not in self._tables:
            seeds = {b: b.index(1) for b, p in self._roots.items() if sum(b) == 1 and not p}
            table = self._tables[kind] = BoxTable(self._bound, seeds.values())
            for beta, p in self._roots.items():
                if beta in seeds:  # seeded, with no proper split: never read its cell
                    table.items[beta] = p
                elif kind == "norm" or (split := table[beta]) is None or split < p:
                    table.add(beta, p)
        return self._tables[kind]


def in_R_lambda_plus(ctx: LambdaContext, a: Sequence[int]) -> bool:
    """Positive root orthogonal to the weight?"""
    a = dim_vector(ctx.quiver, a)
    if all(e == 0 for e in a) or any(e < 0 for e in a):
        return False
    return sum(map(mul, ctx._scaled, a)) == 0 and classify_root(ctx.quiver, a).is_root


def in_N_R_lambda_plus(ctx: LambdaContext, a: Sequence[int]) -> bool:
    """Sum (possibly empty) of orthogonal positive roots?

    Vectors with a negative entry are never members, so sweeps like
    "m * delta - a for every m" can call this without pre-filtering.
    """
    try:
        ctx, a, _ = ctx.resolve(a)
    except NotInNRLambdaPlus:
        return False
    return ctx._table("sigma")[a] is not None


def norm_lambda(ctx: LambdaContext, a: Sequence[int]) -> int:
    """Maximal p-sum over decompositions into orthogonal positive roots."""
    ctx, a, _ = ctx.resolve(a)
    best = ctx._table("norm")[a]
    if best is None:
        raise NotInNRLambdaPlus(f"{a!r} is not a sum of orthogonal positive roots")
    return best


def max_proper_sum_p(ctx: LambdaContext, a: Sequence[int]) -> int | None:
    """Max p-sum over decompositions of ``a`` with at least two parts.

    None when there is none, e.g. for coordinate vectors. Read off the resolved Sigma table: a
    member's split, recorded as it joined after every member below it; else the cell of ``a``.
    """
    try:
        ctx, a, _ = ctx.resolve(a)
    except NotInNRLambdaPlus:
        return None
    table = ctx._table("sigma")
    return table.splits.get(a) if a in table.items or not any(a) else table[a]


def in_sigma_lambda(ctx: LambdaContext, a: Sequence[int]) -> bool:
    """Orthogonal positive root whose p exceeds that of every proper split.

    The defining inequality is strict and quantifies over decompositions
    into two or more orthogonal positive roots; with no proper split the
    condition is vacuous. Read from the resolved pair's Sigma table, whose
    items are the Sigma members of its box. Sigma lies in the orthogonal
    roots, so a vector outside the classified box that is not one answers
    False without a box, whatever the caps.
    """
    a = dim_vector(ctx.quiver, a)
    if not _below(a, ctx._bound) and not in_R_lambda_plus(ctx, a):
        return False
    try:
        ctx, a, _ = ctx.resolve(a)
    except NotInNRLambdaPlus:
        return False
    return a in ctx._table("sigma").items


def sigma_lambda_upto(ctx: LambdaContext, bound: Sequence[int]) -> tuple[DimVector, ...]:
    """All Sigma members componentwise below ``bound``, ascending lex."""
    bound = dim_vector(ctx.quiver, bound)
    if any(b < 0 for b in bound):
        return ()
    return tuple(sorted(b for b in ctx.sigma_table(bound).items if _below(b, bound)))
