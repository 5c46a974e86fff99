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

from fractions import Fraction
from operator import le, mul, sub
from typing import Collection, Iterable, Sequence

from .caps import DEFAULT_CAPS, Caps
from .errors import InternalInconsistency, NotInNRLambdaPlus, ResourceLimit
from .quiver_core import (
    DimVector,
    Quiver,
    WeightVector,
    _integer_weight,
    dim_vector,
    weight_vector,
    zero_vector,
)
from .root_system import _descent, _roots_with_p, classify_root


def _below(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(map(le, a, b))


class BoxTable:
    """Best p-sum over multisets of the added items, for each vector of a box.

    Read by cell only: ``table[a]`` is the best, None when no multiset sums to ``a``;
    ``count(a)`` how many attain it; ``witness(a)`` one that does; ``items`` maps each added item to its p.
    How cells are numbered and stored is private. Adding an item is one unbounded-knapsack pass, so each
    multiset is counted once. The p = 0 coordinate vectors at ``seeds`` start added, with no
    ``items`` entry: a vector on their support is one multiset. Cells go ascending lex, and
    seeds go down in blocks, last coordinate first: a seeded one repeats the block after it.
    """

    def __init__(self, bound: DimVector, seeds: Collection[int] = ()):
        self.bound = bound
        self._strides = [0] * len(bound)  # coordinate i's is the cell count of the coordinates after it
        self._best: list[int | None] = [0]
        self._count = [1]
        for i in reversed(range(len(bound))):
            self._strides[i] = len(self._best)
            if i in seeds:
                self._best, self._count = self._best * (bound[i] + 1), self._count * (bound[i] + 1)
            else:
                self._best += [None] * (len(self._best) * bound[i])
                self._count += [0] * (len(self._count) * bound[i])
        self.items: dict[DimVector, int] = {}
        self._offsets: list[tuple[DimVector, int, int]] = []  # witness's (item, cell offset, p), in ``items`` order

    def _index(self, a: Sequence[int]) -> int:
        return sum(map(mul, a, self._strides))

    def __getitem__(self, a: Sequence[int]) -> int | None:
        return self._best[self._index(a)]

    def count(self, a: Sequence[int]) -> int:
        return self._count[self._index(a)]

    def add(self, item: DimVector, p: int) -> None:
        best, count, shift = self._best, self._count, self._index(item)
        self.items[item] = p
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
        The offsets are kept, and rebuilt once ``items`` has grown, by ``add`` or by a seed's entry written directly.
        """
        best, cell, parts = self._best, self._index(a), []
        if best[cell] is None:
            raise InternalInconsistency(f"no multiset of the added items sums to {a!r}")
        if len(self._offsets) != len(self.items):
            self._offsets = [(item, self._index(item), p) for item, p in self.items.items()]
        while cell:
            target = best[cell]
            for item, shift, p in self._offsets:
                if (rest := cell - shift) >= 0 and best[rest] == target - p and all(map(le, item, a)):
                    parts.append(item)
                    a, cell = tuple(map(sub, a, item)), rest
                    break
            else:
                raise InternalInconsistency(f"no added item continues a best multiset at {a!r}")
        return tuple(parts)


class LambdaContext:
    """A quiver with a fixed exact-rational weight and resource caps.

    The context classifies one box, grown to cover each bound asked about, with its Sigma and
    norm tables. Only over-cap vectors keep their resolution per vector, naming the reduced
    context they descend to, kept per weight, or none when the descent returns to this weight:
    no context refers to itself. A warm context keeps its reports' Kleinian labels and weight
    text, and its tables their witness offsets: a query inside the box validates once, resolves
    at once and reads its cells. A context is safe to use from one thread at a time; distinct
    contexts are fully independent.
    """

    def __init__(self, quiver: Quiver, weight: Iterable, caps: Caps = DEFAULT_CAPS):
        self.quiver = quiver
        self.weight: WeightVector = weight_vector(quiver, weight)
        self._scale, self._scaled = _integer_weight(self.weight)  # orthogonality, descent: linear in the weight
        self.caps = caps
        self._bound: DimVector = zero_vector(quiver)
        self._roots: dict[DimVector, int] = {}  # p of each kept orthogonal root of the box, by (sum, lex)
        self._tables: dict[str, BoxTable] = {}
        self._reduced: dict[WeightVector, LambdaContext] = {}  # where over-cap vectors descend, by other weight
        self._over: dict[DimVector, tuple[LambdaContext | None, DimVector, tuple[str, ...]]] = {}  # None: self
        self._labels: dict[DimVector, str] = {}  # product_structure_report's, by isotropic Sigma member
        self._weight_text: str | None = None  # product_structure_report's rendering of the weight

    def _cover(self, bound: DimVector) -> None:
        """Classify a box containing ``bound``: the join with the old box if the caps admit it, else ``bound``.

        ResourceLimit when the caps refuse ``bound`` too. Of the orthogonal roots it keeps those with p > 0,
        the coordinate vectors and those where the weight is nonzero on the support: no table can use any
        other, a real root that sums orthogonal coordinate vectors of p = 0. So where the weight is 0 at every
        loopfree vertex, only imaginary roots are raised. Each table reads its seeds off the kept roots.
        """
        if _below(bound, self._bound):
            return
        join = tuple(map(max, bound, self._bound))
        box = bound if self.caps.refusal(join) else join
        real = any(w for w, v in zip(self._scaled, self.quiver.vertices) if self.quiver.is_loopfree(v))
        roots = _roots_with_p(self.quiver, box, self.caps, real)
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

        Itself, ``a`` and () at once when the classified box holds ``a`` (a box within the caps holds no over-cap
        vector), else when the caps admit ``a``, asked before any box is built. Over the caps, NotInNRLambdaPlus for
        a vector not orthogonal to the weight, with no box and no descent; else the pair's admissible descent, which
        keeps orthogonal roots and p, on the reduced weight's context: itself, or the one kept for another weight.
        That triple is kept per vector, as no box of the caps covers it, with None for itself. NotInNRLambdaPlus for
        a negative entry, given or reached; a descent with no step, as at weight 0, raises the caps' refusal of ``a``.
        """
        a = dim_vector(self.quiver, a)
        if min(a, default=0) < 0:
            raise NotInNRLambdaPlus(f"{a!r} has a negative entry")
        if _below(a, self._bound):
            return self, a, ()
        if a not in self._over:
            if (reason := self.caps.refusal(a)) is None:
                self._cover(a)
                return self, a, ()
            if sum(map(mul, self._scaled, a)):
                raise NotInNRLambdaPlus(f"{a!r} is not a sum of orthogonal positive roots")
            dim, weight = list(a), list(self._scaled)
            seq = tuple(self.quiver.vertices[i] for i in _descent(self.quiver, dim, weight))
            if not seq:
                raise ResourceLimit(reason)
            if min(dim) < 0:
                along = ",".join(seq) if len(seq) <= 64 else f"{','.join(seq[:8])},… ({len(seq)} reflections)"
                raise NotInNRLambdaPlus(f"{a!r} reflects along {along} to {tuple(dim)!r}")
            weight = tuple(Fraction(x, self._scale) for x in weight)
            if weight != self.weight and weight not in self._reduced:
                self._reduced[weight] = LambdaContext(self.quiver, weight, self.caps)
            self._over[a] = self._reduced.get(weight), tuple(dim), seq
        low, b, seq = self._over[a]
        low = low or self
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


def _table_at(ctx: LambdaContext, kind: str, a: DimVector) -> BoxTable:
    """The "sigma" or "norm" table of the box of ``ctx``; NotInNRLambdaPlus when no multiset sums to ``a``."""
    table = ctx._table(kind)
    if table[a] is None:
        raise NotInNRLambdaPlus(f"{a!r} is not a sum of orthogonal positive roots")
    return table


def in_R_lambda_plus(ctx: LambdaContext, a: Sequence[int]) -> bool:
    """Positive root orthogonal to the weight?"""
    a = dim_vector(ctx.quiver, a)
    return any(a) and min(a) >= 0 and not sum(map(mul, ctx._scaled, a)) and classify_root(ctx.quiver, a).is_root


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
    return _table_at(ctx, "norm", a)[a]


def max_proper_sum_p(ctx: LambdaContext, a: Sequence[int]) -> int | None:
    """Max p-sum over decompositions of ``a`` with at least two parts.

    None when there is none, e.g. for coordinate vectors. Read off the resolved Sigma table: for an item
    or 0, the best p(b) + cell a - b over the other items b below it, cells no later item reaches; else cell a.
    """
    try:
        ctx, a, _ = ctx.resolve(a)
    except NotInNRLambdaPlus:
        return None
    table = ctx._table("sigma")
    sums = (p + rest for b, p in table.items.items()
            if b != a and _below(b, a) and (rest := table[tuple(map(sub, a, b))]) is not None)
    return max(sums, default=None) if a in table.items or not any(a) else table[a]


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
