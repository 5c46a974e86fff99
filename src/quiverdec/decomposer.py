"""Canonical decomposition of dimension vectors and the structure report.

Every vector expressible as a sum of orthogonal positive roots has a
unique coarsest decomposition into Sigma members: it maximizes the summed
parameter count p, every other Sigma decomposition refines it, and the
reduction it describes factors as a product of symmetric powers of the
factors attached to its terms. The decomposition is computed here by the
maximization characterization, with the uniqueness of the maximizer
asserted rather than assumed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InternalInconsistency, NotInNRLambdaPlus, NotIsotropicSigma, SumMismatch
from .lambda_roots import LambdaContext, norm_lambda
from .quiver_core import (
    DimVector,
    WeightVector,
    dim_vector,
    integer_entries,
    weight_to_json_list,
)
from .root_system import _CLASS_BY_P, RootClass, _affine_label, _descent, _in_fundamental, simple_reflection


class Term(NamedTuple):
    sigma: DimVector
    multiplicity: int
    root_class: RootClass
    p_value: int


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Multiset of Sigma members with multiplicities, summing to ``total``.

    Terms are ordered by descending p, then ascending lexicographically.
    ``norm`` is the maximal p-sum, half the dimension of the reduction.
    """

    terms: tuple[Term, ...]
    total: DimVector
    norm: int

    def multiset(self) -> tuple[DimVector, ...]:
        """The terms written out with multiplicity, sorted ascending."""
        out = []
        for t in self.terms:
            out.extend([t.sigma] * t.multiplicity)
        return tuple(sorted(out))


def _maximal_sigma_multiset(ctx: LambdaContext, a: DimVector):
    """(best p-sum, count, one witness) of Sigma multisets summing to ``a``, in the box of ``ctx``.

    Read from the counting Sigma table; NotInNRLambdaPlus when no multiset sums to ``a``.
    """
    table = ctx._table("sigma")
    if table[a] is None:
        raise NotInNRLambdaPlus(f"{a!r} is not a sum of orthogonal positive roots")
    return table[a], table.count(a), table.witness(a)


def sigma_maximizer_count(ctx: LambdaContext, a: Sequence[int]) -> int:
    """How many Sigma multisets attain the maximal p-sum; expected 1."""
    return _maximal_sigma_multiset(*ctx.resolve(a)[:2])[1]


def canonical_decompose(ctx: LambdaContext, a: Sequence[int]) -> CanonicalDecomposition:
    """The unique coarsest decomposition into Sigma members.

    Asserts internally that the maximizing multiset is unique, that its
    p-sum agrees with the norm over all orthogonal-root decompositions,
    and that multiplicities above one only occur on terms with p <= 1;
    any violation raises InternalInconsistency. Runs on the pair that
    ``ctx.resolve`` gives. Each term's p is read from the Sigma table and
    fixes its class; after a descent the term is reflected back along the
    reversed descent, which keeps both.
    """
    a = dim_vector(ctx.quiver, a)
    low, b, seq = ctx.resolve(a)
    best, count, witness = _maximal_sigma_multiset(low, b)
    if count != 1:
        raise InternalInconsistency(
            f"{count} maximizing multisets for {b!r}; expected exactly one"
        )
    if best != norm_lambda(low, b):
        raise InternalInconsistency(
            f"maximal p-sum over Sigma multisets ({best}) disagrees with the norm"
        )
    items = low._table("sigma").items
    terms = []
    for sigma, mult in Counter(witness).items():
        p = items[sigma]
        if p > 1 and mult != 1:
            raise InternalInconsistency(
                f"non-isotropic term {sigma!r} appears with multiplicity {mult}"
            )
        for vertex in reversed(seq):  # the descent was admissible, so its reverse is too
            sigma = simple_reflection(ctx.quiver, vertex, sigma)
        terms.append(Term(sigma, mult, _CLASS_BY_P[min(p, 2)], p))
    terms.sort(key=lambda t: (-t.p_value, t.sigma))
    return CanonicalDecomposition(tuple(terms), a, best)


def dimension_of_N(ctx: LambdaContext, a: Sequence[int]) -> int:
    """Dimension of the reduction: twice the norm."""
    return 2 * norm_lambda(ctx, a)


def representation_type(ctx: LambdaContext, a: Sequence[int]) -> list[tuple[int, DimVector]]:
    """(multiplicity, dimension vector) pairs of the general semisimple element."""
    return [(t.multiplicity, t.sigma) for t in canonical_decompose(ctx, a).terms]


# -- factor classification -----------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """How one term of the decomposition contributes to the product.

    ``kind`` is "Point" for real terms, "Kleinian" for isotropic ones
    (with the ADE type in ``label``), and "NonIsotropicBlock" otherwise;
    ``label`` is None for the other two kinds. The dimension contribution
    is ``2 * multiplicity * p``.
    """

    sigma: DimVector
    multiplicity: int
    kind: str
    label: str | None
    dimension_contribution: int

    def describe(self) -> str:
        if self.kind == "Kleinian":
            return f"Kleinian({self.label})"
        return self.kind


@dataclass(frozen=True)
class ProductReport:
    decomposition: CanonicalDecomposition
    factors: tuple[Factor, ...]
    formula: str
    weight: tuple

    def to_json_dict(self) -> dict:
        terms = [
            {"sigma": list(term.sigma), "m": term.multiplicity, "class": term.root_class.value,
             "p": term.p_value, "factor": factor.describe()}
            for term, factor in zip(self.decomposition.terms, self.factors)
        ]
        return {
            "alpha": list(self.decomposition.total),
            "lambda": weight_to_json_list(self.weight),
            "dimension": 2 * self.decomposition.norm,
            "terms": terms,
            "formula": self.formula,
        }


def kleinian_label(ctx: LambdaContext, sigma: Sequence[int]) -> str:
    """ADE type of the Kleinian factor attached to an isotropic Sigma member.

    A zero-weight loopfree vertex pairing positively with a Sigma member would
    split off its coordinate vector at no loss of p, so admissible descent
    ends in the fundamental region, at the delta of an extended Dynkin
    support. The descent is not capped: its length grows with the entries of
    ``sigma``. NotIsotropicSigma when its end shows ``sigma`` is no isotropic
    Sigma member.

    The end d is judged by the Cartan rows C_S on its support S: by Vinberg's trichotomy
    (Kac, Infinite-Dimensional Lie Algebras, Thm 4.3), a d > 0 with C_S d = 0 makes S extended
    Dynkin with radical spanned by d / gcd(d); as d lies in the fundamental region, (d, d) <= 0
    rules out Dynkin S, and semidefinite S has C_S d = 0.
    """
    sigma = dim_vector(ctx.quiver, sigma)
    end = list(sigma)
    _descent(ctx.quiver, end, list(ctx._scaled))
    d = tuple(end)
    if not _in_fundamental(ctx.quiver, d):
        raise NotIsotropicSigma(f"descent of {sigma!r} ends outside the fundamental region")
    cartan, supp = ctx.quiver.cartan_matrix(), [i for i, x in enumerate(d) if x]
    if any(sum(map(mul, cartan[i], d)) for i in supp):  # C_S d, as d is 0 off S
        raise NotIsotropicSigma(f"fundamental representative {d!r} has support of kind Other")
    if gcd(*d) != 1:
        raise NotIsotropicSigma(f"fundamental representative {d!r} is not the delta of its support")
    return _affine_label([[cartan[i][j] for j in supp] for i in supp], tuple(d[i] for i in supp), d)


def _format_vector(vec) -> str:
    return "(" + ",".join(str(x) for x in vec) + ")"


def _format_weight(lam: WeightVector) -> str:
    return "(" + ",".join(map(str, lam)) + ")"  # a Fraction prints as its JSON entry: "3", "-1/2"


_FACTOR_KINDS = {RootClass.REAL: "Point", RootClass.ISOTROPIC_IMAGINARY: "Kleinian",
                 RootClass.NONISOTROPIC_IMAGINARY: "NonIsotropicBlock"}


def product_structure_report(ctx: LambdaContext, a: Sequence[int]) -> ProductReport:
    """Classify every factor and render the product formula.

    Real terms contribute points and are rendered once as a trailing
    "point"; isotropic terms come with symmetric powers and an ADE label;
    non-isotropic terms are single unsymmetrized blocks. The empty
    decomposition renders "point".
    """
    decomposition = canonical_decompose(ctx, a)
    lam_str = _format_weight(ctx.weight)
    factors, pieces = [], []
    for term in decomposition.terms:
        kind = _FACTOR_KINDS[term.root_class]
        label = kleinian_label(ctx, term.sigma) if kind == "Kleinian" else None
        factors.append(Factor(term.sigma, term.multiplicity, kind, label, 2 * term.multiplicity * term.p_value))
        if kind != "Point":
            power_str = f"S^{term.multiplicity} " if term.multiplicity > 1 else ""
            pieces.append(f"{power_str}N({lam_str},{_format_vector(term.sigma)})")
    if not pieces or any(f.kind == "Point" for f in factors):
        pieces.append("point")
    return ProductReport(decomposition, tuple(factors), " x ".join(pieces), ctx.weight)


# -- refinement -----------------------------------------------------------------


def check_refinement(d1: Sequence[Sequence[int]], d2: Sequence[Sequence[int]]) -> bool:
    """Can the parts of ``d1`` be grouped to sum to the parts of ``d2``?

    Both are multisets of integer vectors (else ValueError) of one length and one total, else SumMismatch.
    A zero part joins any group and a zero target is an empty group; the rest
    is one memoized placement search: parts go largest first into targets
    with room left, skipping a room equal to the one before it or one that
    no later part fits, and each state (parts placed, sorted rooms) is
    expanded once.
    """
    parts = sorted(map(integer_entries, d1))
    targets = sorted(map(integer_entries, d2), key=lambda t: (-sum(t), t))
    lengths = {len(v) for v in parts + targets}
    if len(lengths) > 1:
        raise SumMismatch("decompositions live on different vertex sets")
    n = lengths.pop() if lengths else 0
    total1 = tuple(sum(v[i] for v in parts) for i in range(n))
    total2 = tuple(sum(v[i] for v in targets) for i in range(n))
    if total1 != total2:
        raise SumMismatch(f"sums differ: {total1!r} vs {total2!r}")
    rooms = tuple(sorted(t for t in targets if any(t)))
    if not rooms:
        return not parts
    parts = sorted((v for v in parts if any(v)), key=lambda v: (sum(v), v), reverse=True)
    stack = [(0, rooms)]
    seen = set(stack)
    while stack:
        placed, rooms = stack.pop()
        if placed == len(parts):  # the sums agree, so every room is used up
            return True
        part = parts[placed]
        for j, room in enumerate(rooms):
            if (j and room == rooms[j - 1]) or any(x > r for x, r in zip(part, room)):
                continue
            left = tuple(r - x for r, x in zip(room, part))
            if any(left) and not any(all(x <= r for x, r in zip(p, left)) for p in parts[placed + 1:]):
                continue  # no later part fits in what is left of this target
            rest = rooms[:j] + rooms[j + 1:] + ((left,) if any(left) else ())
            state = (placed + 1, tuple(sorted(rest)))
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False
