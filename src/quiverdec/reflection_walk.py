"""The admissible-reflection calculus on (weight, dimension) pairs.

Reflecting at a loopfree vertex acts on dimension vectors by the simple
reflection and on weights by the dual reflection; the move is admissible
when the weight is nonzero at that vertex. Sequences of admissible moves
generate an equivalence on pairs. One bounded breadth-first search,
``_OrbitSearch``, explores a class for both :func:`normalize_pair` and
:func:`fundamental_representative`: the class can be infinite, so the
search carries a state budget and records whether it refused a state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InadmissibleStep, InvalidCaps
from .quiver_core import (
    DimVector,
    Quiver,
    WeightVector,
    _integer_weight,
    dim_vector,
    pairing_with_simple,
    weight_to_json_list,
    weight_vector,
)
from .root_system import _descent, _in_fundamental, _loopfree_index, simple_reflection


class PairState(NamedTuple):
    weight: WeightVector
    dim: DimVector


class TraceStep(NamedTuple):
    vertex: str | None  # None marks the initial state
    state: PairState


def make_pair(q: Quiver, weight: Iterable, dim: Iterable[int]) -> PairState:
    return PairState(weight_vector(q, weight), dim_vector(q, dim))


def dual_reflection(q: Quiver, vertex: str, lam: Sequence) -> WeightVector:
    """Reflect a weight at a loopfree vertex; dual to the simple reflection."""
    lam = weight_vector(q, lam)
    i = _loopfree_index(q, vertex)
    row = q.cartan_matrix()[i]
    return tuple(x - row[j] * lam[i] for j, x in enumerate(lam))


def is_admissible(q: Quiver, pair: PairState, vertex: str) -> bool:
    """Loopfree vertex where the weight is nonzero."""
    return q.is_loopfree(vertex) and pair.weight[q.index(vertex)] != 0


def reflect_pair(q: Quiver, pair: PairState, vertex: str) -> PairState:
    return PairState(
        dual_reflection(q, vertex, pair.weight),
        simple_reflection(q, vertex, pair.dim),
    )


def apply_sequence(
    q: Quiver, pair: PairState, seq: Sequence[str]
) -> tuple[PairState, tuple[TraceStep, ...]]:
    """Apply reflections in order, checking admissibility step by step.

    Returns the final pair and the full trace, initial state included.
    """
    state = make_pair(q, pair.weight, pair.dim)
    trace = [TraceStep(None, state)]
    for pos, vertex in enumerate(seq):
        if not is_admissible(q, state, vertex):
            raise InadmissibleStep(pos, vertex)
        state = reflect_pair(q, state, vertex)
        trace.append(TraceStep(vertex, state))
    return state, tuple(trace)


@dataclass(frozen=True)
class NormalizedPair:
    state: PairState
    sequence: tuple[str, ...]
    exhaustive: bool


class _OrbitSearch:
    """Breadth-first search of the admissible class of a pair, on flat states L * weight then dim.

    Admits at most ``budget`` states (a positive int, else InvalidCaps), the start
    included, with exact-state deduplication, and hands out their indices into
    ``states`` in BFS order; :meth:`sequence` rebuilds a shortest sequence from the
    parent links on demand. ``truncated`` records whether an admission was refused;
    after the first refusal the search stops expanding and hands out only admitted states.

    The start tries every move (``tries[0]``); a state reached by the move at i
    tries ``tries[i + 1]``, which skips the move back and every j < i with
    C_ij = 0: s_j commutes with s_i and keeps the weight at j, so the parent P
    tried j before i, and s_j here gives s_i(s_j P), admitted by the time s_j P
    was expanded (induction on the BFS index); the admitted states do not change.
    """

    def __init__(self, q: Quiver, pair: PairState, budget: int):
        if isinstance(budget, bool) or not isinstance(budget, int) or budget <= 0:  # as Caps checks a cap
            raise InvalidCaps(f"budget must be a positive integer, got {budget!r}")
        start = make_pair(q, pair.weight, pair.dim)
        self.scale, weight = _integer_weight(start.weight)  # both moves are linear in the weight
        self.vertices, self.n = q.vertices, q.n
        self.budget, self.truncated = budget, False
        self.states = [weight + start.dim]
        self.parent, self.via = [-1], [-1]
        self.tries = [[move for move in q._moves if (j := move[0]) > i or j != i and q.cartan_matrix()[i][j]]
                      for i in range(-1, self.n)]

    def pair(self, state: tuple[int, ...]) -> PairState:
        return PairState(tuple(Fraction(x, self.scale) for x in state[:self.n]), state[self.n:])

    def __iter__(self) -> Iterator[int]:
        states, parent, via, n = self.states, self.parent, self.via, self.n
        seen = set(states)
        for k, state in enumerate(states):  # grows while it is read: the list is the queue
            yield k
            if self.truncated:
                continue
            for i, nbrs in self.tries[via[k] + 1]:
                if not (w := state[i]):
                    continue
                nxt = list(state)
                nxt[i], d = -w, -state[n + i]
                for j, m in nbrs:
                    nxt[j] += m * w
                    d += m * state[n + j]
                nxt[n + i] = d
                if (nxt := tuple(nxt)) in seen:
                    continue
                if len(seen) >= self.budget:
                    self.truncated = True
                    break
                seen.add(nxt)
                states.append(nxt)
                parent.append(k)
                via.append(i)

    def sequence(self, k: int) -> tuple[str, ...]:
        seq = []
        while k:
            seq.append(self.vertices[self.via[k]])
            k = self.parent[k]
        return tuple(reversed(seq))


def normalize_pair(q: Quiver, pair: PairState, budget: int = 100_000) -> NormalizedPair:
    """Search the admissible class for a pair of minimal total dimension.

    Breadth-first with exact-state deduplication, admitting at most
    ``budget`` states; ties in the total break lexicographically on the
    dimension vector, then on the order of discovery. The result is minimal
    among the states admitted and is flagged ``exhaustive`` only when no
    admission was refused: the class is infinite for many quivers, so
    global minimality is only certified by that flag.
    """
    search = _OrbitSearch(q, pair, budget)
    best = min(search, key=lambda k: (sum(dim := search.states[k][search.n:]), dim))
    return NormalizedPair(search.pair(search.states[best]), search.sequence(best), not search.truncated)


def fundamental_representative(
    q: Quiver, pair: PairState, budget: int = 100_000
) -> tuple[PairState, tuple[str, ...]] | None:
    """First admitted pair whose dimension lies in the fundamental region.

    Breadth-first over at most ``budget`` states, so the realizing sequence
    is as short as possible. Returns None only when no admitted pair lies in
    the fundamental region: none is reachable, or the budget ran out first.
    """
    search = _OrbitSearch(q, pair, budget)
    for k in search:
        if _in_fundamental(q, search.states[k][search.n:]):
            return search.pair(search.states[k]), search.sequence(k)
    return None


def descend(q: Quiver, pair: PairState) -> tuple[PairState, tuple[str, ...]]:
    """Reflect at the first admissible vertex pairing positively until none is left.

    Stops early at a negative entry; each step lowers the total, so it ends (``root_system._descent``).
    """
    start = make_pair(q, pair.weight, pair.dim)
    scale, weight = _integer_weight(start.weight)
    weight, dim = list(weight), list(start.dim)
    steps = _descent(q, dim, weight)
    return PairState(tuple(Fraction(x, scale) for x in weight), tuple(dim)), tuple(q.vertices[i] for i in steps)


def strip_simple(q: Quiver, pair: PairState) -> tuple[str, PairState] | None:
    """Peel one coordinate vector where the weight vanishes.

    Returns the lowest-indexed loopfree vertex with zero weight and positive
    pairing against the dimension vector, together with the reduced pair;
    None when no vertex qualifies. Iterating this terminates since each
    step lowers the total dimension by one.
    """
    pair = make_pair(q, pair.weight, pair.dim)
    for i, vertex in enumerate(q.vertices):
        if q.is_loopfree(vertex) and pair.weight[i] == 0 and pairing_with_simple(q, pair.dim, vertex) > 0:
            return vertex, pair._replace(dim=tuple(e - 1 if j == i else e for j, e in enumerate(pair.dim)))
    return None


def trace_to_json(trace: Sequence[TraceStep]) -> list[dict]:
    """Serialize a reflection trace, initial state first."""
    return [
        {
            "vertex": step.vertex,
            "lambda": weight_to_json_list(step.state.weight),
            "alpha": list(step.state.dim),
        }
        for step in trace
    ]
