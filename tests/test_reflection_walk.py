import random
from fractions import Fraction
from math import lcm

import pytest

import quiverdec as qd
from quiverdec.errors import InadmissibleStep, InvalidCaps
from quiverdec import reflection_walk
from quiverdec.reflection_walk import _OrbitSearch, trace_to_json
from quiverdec.root_system import _in_fundamental

EX4 = qd.Quiver(["1", "2", "3", "4"], [["1", "2"], ["2", "3"], ["2", "4"], ["3", "4"]])
EX4_WEIGHT = (0, 1, -2, 1)
KRONECKER = qd.extended_dynkin_quiver("A1")
JORDAN = qd.extended_dynkin_quiver("A0")

CHAIN = [
    (None, (0, 1, -2, 1), (1, 3, 2, 1)),
    ("2", (1, -1, -1, 2), (1, 1, 2, 1)),
    ("3", (1, -2, 1, 1), (1, 1, 0, 1)),
    ("4", (1, -1, 2, -1), (1, 1, 0, 0)),
    ("2", (0, 1, 1, -2), (1, 0, 0, 0)),
]


def test_dual_reflection_examples():
    assert qd.dual_reflection(EX4, "2", (0, 1, -2, 1)) == (1, -1, -1, 2)
    assert qd.dual_reflection(EX4, "3", (1, -1, -1, 2)) == (1, -2, 1, 1)
    # a zero entry at the reflecting vertex leaves the weight unchanged
    lam = qd.weight_vector(EX4, (1, 0, 2, -3))
    assert qd.dual_reflection(EX4, "2", lam) == lam
    with pytest.raises(ValueError):
        qd.dual_reflection(JORDAN, "0", (1,))


def test_dual_reflection_involution_and_pairing():
    lam = qd.weight_vector(EX4, (Fraction(1, 2), -1, 2, Fraction(-3, 2)))
    for v in EX4.vertices:
        assert qd.dual_reflection(EX4, v, qd.dual_reflection(EX4, v, lam)) == lam
        for a in [(1, 2, 0, 3), (0, 1, 1, 1)]:
            assert qd.lambda_dot(
                qd.dual_reflection(EX4, v, lam), qd.simple_reflection(EX4, v, a)
            ) == qd.lambda_dot(lam, a)


def test_is_admissible_examples():
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1))
    assert not qd.is_admissible(EX4, pair, "1")
    assert qd.is_admissible(EX4, pair, "2")
    jordan_pair = qd.make_pair(JORDAN, (1,), (1,))
    assert not qd.is_admissible(JORDAN, jordan_pair, "0")


def test_apply_sequence_reproduces_chain():
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1))
    final, trace = qd.apply_sequence(EX4, pair, ["2", "3", "4", "2"])
    assert len(trace) == len(CHAIN)
    for step, (v, lam, dim) in zip(trace, CHAIN):
        assert step.vertex == v
        assert step.state.weight == qd.weight_vector(EX4, lam)
        assert step.state.dim == dim
    assert final.dim == (1, 0, 0, 0)


def test_apply_sequence_identity_and_involution():
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1))
    same, trace = qd.apply_sequence(EX4, pair, [])
    assert same == pair and len(trace) == 1
    back, _ = qd.apply_sequence(EX4, pair, ["2", "2"])
    assert back == pair


def test_apply_sequence_inadmissible():
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1))
    with pytest.raises(InadmissibleStep) as err:
        qd.apply_sequence(EX4, pair, ["2", "2", "1"])
    assert err.value.position == 2
    assert err.value.vertex == "1"


def test_trace_serialization():
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1))
    _, trace = qd.apply_sequence(EX4, pair, ["2"])
    data = trace_to_json(trace)
    assert data[0] == {"vertex": None, "lambda": [0, 1, -2, 1], "alpha": [1, 3, 2, 1]}
    assert data[1] == {"vertex": "2", "lambda": [1, -1, -1, 2], "alpha": [1, 1, 2, 1]}


def test_normalize_pair_reaches_total_one():
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1))
    res = qd.normalize_pair(EX4, pair, budget=5_000)
    # the admissible class here is unbounded, so the search cannot exhaust it,
    # but a coordinate vector (total 1, the global minimum) is found quickly
    assert not res.exhaustive
    assert sum(res.state.dim) == 1
    replay, _ = qd.apply_sequence(EX4, pair, res.sequence)
    assert replay == res.state


def test_normalize_pair_no_admissible_vertex():
    pair = qd.make_pair(EX4, (0, 0, 0, 0), (1, 3, 2, 1))
    res = qd.normalize_pair(EX4, pair)
    assert res.exhaustive
    assert res.state == pair and res.sequence == ()


def test_normalize_pair_zero_budget():
    # a budget that is not a positive integer is refused like a cap, by both searches
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1))
    with pytest.raises(InvalidCaps, match=r"^budget must be a positive integer, got 0$"):
        qd.normalize_pair(EX4, pair, budget=0)
    for budget in (0, -1, True):
        with pytest.raises(InvalidCaps, match=rf"^budget must be a positive integer, got {budget!r}$"):
            qd.fundamental_representative(EX4, pair, budget=budget)


def test_coordinate_vector_reachable_without_added_vertex():
    # a Sigma member with entry 1 at the added vertex walks to its coordinate
    # vector by admissible reflections avoiding that vertex
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1))
    target = qd.coordinate_vector(EX4, "1")
    from collections import deque

    from quiverdec.reflection_walk import is_admissible, reflect_pair

    seen = {pair}
    queue = deque([pair])
    hit = None
    while queue and hit is None:
        state = queue.popleft()
        if state.dim == target:
            hit = state
            break
        for v in ("2", "3", "4"):
            if is_admissible(EX4, state, v):
                nxt = reflect_pair(EX4, state, v)
                if nxt not in seen and sum(nxt.dim) <= 8:
                    seen.add(nxt)
                    queue.append(nxt)
    assert hit is not None


def test_invariance_along_admissible_moves():
    # equivalent pairs share the computed invariants: dimension and the
    # multiset of term multiplicities and p values
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 4, 3, 2))
    _, trace = qd.apply_sequence(EX4, pair, ["2", "3", "2"])
    profiles = []
    for step in trace:
        ctx = qd.LambdaContext(EX4, step.state.weight)
        dec = qd.canonical_decompose(ctx, step.state.dim)
        profiles.append(
            (2 * dec.norm, sorted((t.multiplicity, t.p_value) for t in dec.terms))
        )
    assert len(set(map(str, profiles))) == 1


def test_fundamental_representative_examples():
    found = qd.fundamental_representative(EX4, qd.make_pair(EX4, EX4_WEIGHT, (0, 1, 1, 1)))
    assert found is not None
    state, seq = found
    assert seq == ()
    assert state.dim == (0, 1, 1, 1)
    assert qd.fundamental_representative(EX4, qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1)), budget=200) is None


def test_descend_examples():
    # each step is admissible and lowers the total; the last pair has no admissible descent
    state, seq = qd.descend(EX4, qd.make_pair(EX4, EX4_WEIGHT, (4, 12, 8, 4)))
    assert (state.dim, seq) == ((0, 0, 0, 4), ("2", "1", "3", "2"))
    _, trace = qd.apply_sequence(EX4, qd.make_pair(EX4, EX4_WEIGHT, (4, 12, 8, 4)), seq)
    assert [sum(step.state.dim) for step in trace] == [28, 20, 16, 8, 4]
    assert trace[-1].state == state
    assert not any(qd.is_admissible(EX4, state, v) and qd.bilinear_form(EX4, state.dim, qd.coordinate_vector(EX4, v)) > 0
                   for v in EX4.vertices)
    # it stops at the first negative entry, and takes no step at weight 0
    state, seq = qd.descend(EX4, qd.make_pair(EX4, EX4_WEIGHT, (0, 30, 0, 0)))
    assert (state.dim, seq) == ((0, -30, 0, 0), ("2",))
    pair = qd.make_pair(EX4, (0, 0, 0, 0), (4, 12, 8, 4))
    assert qd.descend(EX4, pair) == (pair, ())


def test_strip_simple_examples():
    kron0 = qd.make_pair(KRONECKER, (0, 0), (2, 3))
    vertex, reduced = qd.strip_simple(KRONECKER, kron0)
    assert vertex == "1"
    assert reduced.dim == (2, 2)
    # fundamental-region vectors with zero weight strip nothing
    assert qd.strip_simple(KRONECKER, qd.make_pair(KRONECKER, (0, 0), (1, 1))) is None
    # nowhere-zero weights strip nothing
    assert qd.strip_simple(KRONECKER, qd.make_pair(KRONECKER, (1, -1), (2, 3))) is None


def test_strip_simple_iteration_terminates():
    pair = qd.make_pair(KRONECKER, (0, 0), (2, 5))
    steps = 0
    while (res := qd.strip_simple(KRONECKER, pair)) is not None:
        vertex, nxt = res
        assert sum(nxt.dim) == sum(pair.dim) - 1
        pair = nxt
        steps += 1
    assert steps == 3  # (2,5) -> (2,2), then the fundamental region stops it
    assert pair.dim == (2, 2)


# -- the one bounded orbit search ----------------------------------------------

# a pair whose fundamental representative is admitted as the 144th state, with
# states still queued ahead of it: the search hands it out as it is admitted
BOUNDARY = qd.make_pair(EX4, (Fraction(5, 27), Fraction(-5, 9), Fraction(-2, 3), 1), (3, 4, 2, 3))
A2 = qd.dynkin_quiver("A2")


def _reference_normalize(q, pair, budget):
    """Breadth-first minimization kept independent of the library's search.

    Returns (state, sequence, exhaustive, states admitted).
    """
    from collections import deque

    from quiverdec.reflection_walk import is_admissible, reflect_pair

    best, best_seq = pair, ()
    seen = {pair}
    queue = deque([(pair, ())])
    truncated = False
    while queue:
        state, seq = queue.popleft()
        if (sum(state.dim), state.dim) < (sum(best.dim), best.dim):
            best, best_seq = state, seq
        for vertex in q.vertices:
            if not is_admissible(q, state, vertex):
                continue
            nxt = reflect_pair(q, state, vertex)
            if nxt in seen:
                continue
            if len(seen) >= budget:
                truncated = True
                continue
            seen.add(nxt)
            queue.append((nxt, seq + (vertex,)))
    return best, best_seq, not truncated, len(seen)


def test_fundamental_representative_uses_states_queued_before_the_budget_ran_out():
    unbounded = qd.fundamental_representative(EX4, BOUNDARY, budget=100_000)
    assert unbounded is not None
    assert unbounded[0].dim == (0, 1, 1, 1)
    assert unbounded[1] == ("1", "2", "4", "3", "2", "1")
    assert qd.fundamental_representative(EX4, BOUNDARY, budget=143) is None
    assert qd.fundamental_representative(EX4, BOUNDARY, budget=144) == unbounded


def test_both_searches_agree_at_equal_budgets():
    for budget in (1, 50, 100, 142, 143, 144, 145, 237, 238, 1000):
        found = qd.fundamental_representative(EX4, BOUNDARY, budget=budget)
        res = qd.normalize_pair(EX4, BOUNDARY, budget=budget)
        # the minimum of this class is the delta of the triangle, its only
        # fundamental-region vector
        if qd.in_fundamental_region(EX4, res.state.dim):
            assert found == (res.state, res.sequence), budget
        else:
            assert found is None, budget


def test_normalize_pair_exhaustive_exactly_at_the_class_size():
    pair = qd.make_pair(A2, (1, 2), (1, 0))
    *_, exhaustive, size = _reference_normalize(A2, pair, 10**6)
    assert exhaustive and size == 6  # a generic weight has a free Weyl orbit
    assert qd.normalize_pair(A2, pair, budget=size).exhaustive
    assert not qd.normalize_pair(A2, pair, budget=size - 1).exhaustive


def test_normalize_pair_matches_reference_at_every_small_budget():
    pair = qd.make_pair(EX4, EX4_WEIGHT, (1, 3, 2, 1))
    for budget in range(1, 61):
        state, seq, exhaustive, _ = _reference_normalize(EX4, pair, budget)
        assert qd.normalize_pair(EX4, pair, budget=budget) == qd.NormalizedPair(
            state, seq, exhaustive
        ), budget


# -- the integer search and descent against the Fraction path ------------------

D4 = qd.extended_dynkin_quiver("D4")
# a Kronecker pair and a loop vertex "c": never a move, but its row counts in the fundamental test
LOOPED = qd.Quiver(["a", "b", "c"], [["a", "b"], ["a", "b"], ["b", "c"], ["c", "c"]])
# primes above 1000: two nonzero entries already put the weight's lcm above 10**6
LARGE_PRIMES = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061)
ORBIT_BUDGET = 300


def _reference_orbit(q, pair, budget):
    """The admitted states of the breadth-first search, in order, on ``reflect_pair``.

    Returns ([(state, sequence)], exhaustive). A smaller budget b admits the
    first b of these states, and is exhaustive when the class fits in b.
    """
    from collections import deque

    from quiverdec.reflection_walk import is_admissible, reflect_pair

    admitted, seen, queue, truncated = [], {pair}, deque([(pair, ())]), False
    while queue:
        state, seq = queue.popleft()
        admitted.append((state, seq))
        for vertex in q.vertices:
            if is_admissible(q, state, vertex):
                nxt = reflect_pair(q, state, vertex)
                if nxt in seen:
                    continue
                if len(seen) >= budget:
                    truncated = True
                    continue
                seen.add(nxt)
                queue.append((nxt, seq + (vertex,)))
    return admitted, not truncated


def _reference_descend(q, pair):
    from quiverdec.reflection_walk import is_admissible, reflect_pair

    seq = []
    while min(pair.dim) >= 0:
        down = [v for v in q.vertices if is_admissible(q, pair, v)
                and qd.bilinear_form(q, pair.dim, qd.coordinate_vector(q, v)) > 0]
        if not down:
            break
        pair = reflect_pair(q, pair, down[0])
        seq.append(down[0])
    return pair, tuple(seq)


def _large_denominator_pairs(seed, count=4):
    rng = random.Random(seed)
    pairs = []
    for q in (EX4, D4, KRONECKER, LOOPED):
        for _ in range(count):
            dens = rng.sample(LARGE_PRIMES, q.n)
            weight = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), d) for d in dens]
            for i in rng.sample(range(q.n), rng.randint(0, q.n - 2)):
                weight[i] = Fraction(0)
            dim = [rng.randint(0, 4) for _ in range(q.n)]
            if rng.random() < 0.2:
                dim[rng.randrange(q.n)] = -1
            pairs.append((q, qd.make_pair(q, weight, dim)))
    return pairs


def _check_against_fraction_path(q, pair, budgets):
    admitted, exhaustive = _reference_orbit(q, pair, max(budgets))
    for budget in budgets:
        prefix = admitted[:budget]
        state, seq = min(prefix, key=lambda found: (sum(found[0].dim), found[0].dim))
        res = qd.normalize_pair(q, pair, budget=budget)
        assert res == qd.NormalizedPair(state, seq, exhaustive and len(admitted) <= budget), (pair, budget)
        found = next((f for f in prefix if min(f[0].dim) >= 0 and qd.in_fundamental_region(q, f[0].dim)), None)
        assert qd.fundamental_representative(q, pair, budget=budget) == found, (pair, budget)
        assert all(isinstance(x, Fraction) for x in res.state.weight)
    state, seq = qd.descend(q, pair)
    assert (state, seq) == _reference_descend(q, pair)
    assert all(isinstance(x, Fraction) for x in state.weight)


@pytest.mark.parametrize("seed", range(3))
def test_integer_search_and_descent_match_the_fraction_path(seed):
    cases = _large_denominator_pairs(seed)
    assert any(lcm(*(x.denominator for x in pair.weight)) > 10**6 for _, pair in cases)
    assert any(0 in pair.weight for _, pair in cases)
    assert any(q is LOOPED and 0 in pair.weight for q, pair in cases)
    assert any(min(pair.dim) < 0 for _, pair in cases)
    rng = random.Random(1000 + seed)
    for q, pair in cases:
        _check_against_fraction_path(q, pair, sorted(rng.sample(range(1, ORBIT_BUDGET + 1), 10)))


def test_integer_search_matches_the_fraction_path_at_every_budget():
    _check_against_fraction_path(EX4, BOUNDARY, range(1, ORBIT_BUDGET + 1))


def test_long_descent_takes_one_step_per_reflection():
    # Kronecker (n, n+1) at (1, -n/(n+1)) descends by n reflections; the
    # sequence is built in time linear in its length
    n = 20_000
    pair = qd.make_pair(KRONECKER, (1, Fraction(-n, n + 1)), (n, n + 1))
    state, seq = qd.descend(KRONECKER, pair)
    assert isinstance(seq, tuple) and len(seq) == n
    assert (state, seq) == _reference_descend(KRONECKER, pair)


# the triangle's delta reflected up thirteen times: its fundamental
# representative is admitted deep in the search
DEEP = qd.apply_sequence(
    EX4, qd.make_pair(EX4, (Fraction(1, 3), Fraction(2, 5), Fraction(-7, 11), Fraction(13, 55)), (0, 1, 1, 1)),
    "1234234213243",
)[0]
DEEP_BUDGET = 5_000


@pytest.mark.parametrize("pair", [qd.make_pair(EX4, EX4_WEIGHT, (k, 3 * k, 2 * k, k)) for k in (1, 2, 3)] + [DEEP],
                         ids=["1x", "2x", "3x", "deep"])
def test_sequences_rebuilt_from_parent_links_replay_at_depth(pair):
    admitted, exhaustive = _reference_orbit(EX4, pair, DEEP_BUDGET)
    assert len(admitted) == DEEP_BUDGET and max(len(seq) for _, seq in admitted) >= 14
    search = _OrbitSearch(EX4, pair, DEEP_BUDGET)
    assert [(search.pair(search.states[k]), search.sequence(k)) for k in search] == admitted
    assert search.truncated is not exhaustive
    res = qd.normalize_pair(EX4, pair, budget=DEEP_BUDGET)
    assert res == qd.NormalizedPair(*min(admitted, key=lambda found: (sum(found[0].dim), found[0].dim)), exhaustive)
    found = qd.fundamental_representative(EX4, pair, budget=DEEP_BUDGET)
    assert found == next((f for f in admitted if qd.in_fundamental_region(EX4, f[0].dim)), None)
    assert (found is not None) == (pair is DEEP)
    for end, seq in [(res.state, res.sequence)] + ([found] if found else []):
        assert qd.apply_sequence(EX4, pair, seq)[0] == end
    if found:
        assert found[0].dim == (0, 1, 1, 1) and len(found[1]) == 13


# -- the pruned search on quivers with many commuting pairs of moves -----------

# a star with five arms of length two: moves on different arms commute, and so do the centre's and the arm tips'
STAR5 = qd.Quiver(["c"] + [f"{a}{k}" for a in "abcde" for k in (1, 2)],
                  [["c", f"{a}1"] for a in "abcde"] + [[f"{a}1", f"{a}2"] for a in "abcde"])
PRUNING_BUDGET = 200


def _random_multiquiver(rng):
    n = rng.randint(4, 7)
    names = [f"v{i}" for i in range(n)]
    arrows = [[names[i], names[i + 1]] for i in range(n - 1)]  # a path keeps it connected
    for _ in range(rng.randint(0, n)):
        tail, head = rng.sample(names, 2)
        arrows += [[tail, head]] * rng.choice((1, 1, 2))  # parallel arrows
    arrows += [[v, v] for v in rng.sample(names, rng.randint(0, 2))]  # loops
    return qd.Quiver(names, arrows)


def _pruning_cases():
    rng = random.Random(19)
    quivers = 2 * [qd.extended_dynkin_quiver("A5"), qd.extended_dynkin_quiver("D6"), STAR5]
    quivers += [_random_multiquiver(rng) for _ in range(12)]
    cases = []
    for q in quivers:
        weight = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(q.n)]
        dim = [rng.randint(0, 3) for _ in range(q.n)]
        cases.append((q, qd.make_pair(q, weight, dim)))
    return cases


def _commuting_pairs(q):
    """Pairs of loopfree vertices joined by no edge: the moves the search prunes."""
    free = [i for i, v in enumerate(q.vertices) if q.is_loopfree(v)]
    return sum(1 for j in free for i in free if j < i and not q.cartan_matrix()[i][j])


@pytest.mark.parametrize("case", range(len(_pruning_cases())))
def test_pruned_search_matches_the_fraction_path_at_every_budget(case):
    q, pair = _pruning_cases()[case]
    admitted, exhaustive = _reference_orbit(q, pair, PRUNING_BUDGET)
    search = _OrbitSearch(q, pair, PRUNING_BUDGET)
    assert [(search.pair(search.states[k]), search.sequence(k)) for k in search] == admitted
    assert search.truncated is not exhaustive
    _check_against_fraction_path(q, pair, range(1, PRUNING_BUDGET + 1))


def _descent_cases(seed, count=40):
    """Random quivers with loops and parallel arrows, at weights with zero entries and dimensions up to 6."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        q = _random_multiquiver(rng)
        weight = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(q.n)]
        for i in rng.sample(range(q.n), rng.randint(1, q.n // 2)):
            weight[i] = Fraction(0)
        cases.append((q, qd.make_pair(q, weight, [rng.randint(0, 6) for _ in range(q.n)])))
    return cases


def _blocked_by_the_weight(q, pair):
    """A zero-weight loopfree vertex pairing positively: Kac's descent could step there, admissible descent not."""
    return any(w == 0 and q.is_loopfree(v) and qd.bilinear_form(q, pair.dim, qd.coordinate_vector(q, v)) > 0
               for v, w in zip(q.vertices, pair.weight))


@pytest.mark.parametrize("seed", range(3))
def test_descent_matches_the_fraction_path_on_random_multiquivers(seed):
    cases = _descent_cases(50 + seed)
    assert any(not q.is_loopfree(v) for q, _ in cases for v in q.vertices)
    assert any(len(set(q.arrows)) < len(q.arrows) for q, _ in cases)
    assert sum(_blocked_by_the_weight(q, pair) for q, pair in cases) >= 10
    ends = []
    for q, pair in cases:
        state, seq = qd.descend(q, pair)
        assert (state, seq) == _reference_descend(q, pair), pair
        assert all(isinstance(x, Fraction) for x in state.weight)
        ends.append((len(seq), min(state.dim) < 0))
    assert max(ends)[0] >= 3 and sum(1 for steps, _ in ends if steps) >= len(cases) // 2
    assert {negative for _, negative in ends} == {True, False}


def test_pruning_cases_reach_deep_and_wide():
    cases = _pruning_cases()
    assert sum(_commuting_pairs(q) for q, _ in cases) >= 100
    assert any(len(set(q.arrows)) < len(q.arrows) for q, _ in cases)  # parallel arrows
    assert any(not q.is_loopfree(v) for q, _ in cases for v in q.vertices)
    sizes = [len(_reference_orbit(q, pair, PRUNING_BUDGET)[0]) for q, pair in cases]
    assert sum(size == PRUNING_BUDGET for size in sizes) >= len(cases) // 2  # most classes outgrow the budget


# -- the search stops at its answer, and tests only states that can lie in F --

# answers at the start, within the budget or past it; zero weights, negative entries, and weight-only
# moves (c = 0: the dimension stays) admitted ahead of an answer
SEARCH_BUDGET = 60
SEARCH_CASES = [
    (EX4, BOUNDARY),
    (EX4, qd.make_pair(EX4, (Fraction(1, 3), Fraction(2, 5), Fraction(-7, 11), Fraction(13, 55)), (0, 1, 1, 1))),
    (EX4, qd.make_pair(EX4, (2, 1, 0, Fraction(-1, 2)), (1, 2, 1, 2))),
    (EX4, qd.make_pair(EX4, (Fraction(-1, 3), Fraction(1, 3), Fraction(-4, 3), Fraction(2, 3)), (2, 3, 2, 3))),
    (D4, qd.make_pair(D4, (1, 0, -1, 2, 0), (1, 1, 2, 1, 1))),
    (D4, qd.make_pair(D4, (1, 0, -1, 2, 0), (1, 3, 2, -1, 1))),
    (KRONECKER, qd.make_pair(KRONECKER, (1, 2), (3, 3))),
    (KRONECKER, qd.make_pair(KRONECKER, (1, Fraction(-2, 3)), (2, 3))),
    (KRONECKER, qd.make_pair(KRONECKER, (0, 1), (-1, 2))),
    (LOOPED, qd.make_pair(LOOPED, (4, -3, 5), (3, 5, 1))),
    (LOOPED, qd.make_pair(LOOPED, (1, -3, 0), (3, 4, 1))),
    (LOOPED, qd.make_pair(LOOPED, (0, 1, 0), (2, -1, 1))),
]


def _moves_into(q, admitted):
    """For each admitted state after the start: (its parent's dimension, the vertex index of its move)."""
    index = {seq: k for k, (_, seq) in enumerate(admitted)}
    return {k: (admitted[index[seq[:-1]]][0].dim, q.index(seq[-1])) for k, (_, seq) in enumerate(admitted) if seq}


def _answer_index(q, admitted):
    return next((k for k, (state, _) in enumerate(admitted) if qd.in_fundamental_region(q, state.dim)), None)


@pytest.mark.parametrize("case", range(len(SEARCH_CASES)))
def test_searches_match_the_reference_at_every_budget_to_60(case):
    q, pair = SEARCH_CASES[case]
    _check_against_fraction_path(q, pair, range(1, SEARCH_BUDGET + 1))


def test_search_cases_reach_every_kind_of_state():
    kinds = set()
    for q, pair in SEARCH_CASES:
        admitted, _ = _reference_orbit(q, pair, SEARCH_BUDGET)
        k, moves = _answer_index(q, admitted), _moves_into(q, admitted)
        kinds.add(q)
        kinds |= {"zero weight"} if 0 in pair.weight else set()
        kinds |= {"negative entry"} if min(pair.dim) < 0 else set()
        kinds.add("answer at the start" if k == 0 else "no answer" if k is None else "answer within the budget")
        if k is not None and any(state.dim == moves[j][0] for j, (state, _) in enumerate(admitted[1:k], 1)):
            kinds.add("weight-only move ahead of an answer")
    assert kinds == {EX4, D4, KRONECKER, LOOPED, "zero weight", "negative entry", "answer at the start",
                     "no answer", "answer within the budget", "weight-only move ahead of an answer"}


@pytest.mark.parametrize("case", range(len(SEARCH_CASES)))
def test_the_search_stops_at_its_answer_and_tests_only_states_not_raised(monkeypatch, case):
    # a state raised at i pairs positively with e_i, as (s_i a, e_i) = -(a, e_i), so it lies outside F;
    # a weight-only move keeps the dimension and its state is still tested
    q, pair = SEARCH_CASES[case]
    admitted, _ = _reference_orbit(q, pair, SEARCH_BUDGET)
    moves = _moves_into(q, admitted)
    unraised = [0] + [k for k, (before, i) in moves.items() if admitted[k][0].dim[i] <= before[i]]
    searches, tested = [], []

    class Recorded(_OrbitSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    def counted(q, dim):
        tested.append(dim)
        return _in_fundamental(q, dim)

    monkeypatch.setattr(reflection_walk, "_OrbitSearch", Recorded)
    monkeypatch.setattr(reflection_walk, "_in_fundamental", counted)
    for budget in range(1, SEARCH_BUDGET + 1):
        searches.clear()
        tested.clear()
        prefix = admitted[:budget]
        k = _answer_index(q, prefix)
        assert qd.fundamental_representative(q, pair, budget=budget) == (None if k is None else prefix[k])
        end = len(prefix) if k is None else k + 1
        assert len(searches[0].states) == end, budget  # nothing admitted after the answer
        assert tested == [prefix[j][0].dim for j in unraised if j < end], budget


class _CountingList(list):
    """A list that counts its reads by index: one per state the search expands."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("case", range(len(SEARCH_CASES)))
def test_the_search_expands_no_state_after_a_refused_admission(case):
    q, pair = SEARCH_CASES[case]
    admitted, _ = _reference_orbit(q, pair, SEARCH_BUDGET + 1)
    index = {seq: k for k, (_, seq) in enumerate(admitted)}
    for budget in range(1, SEARCH_BUDGET + 1):
        search = _OrbitSearch(q, pair, budget)
        search.tries = _CountingList(search.tries)
        assert list(search) == list(range(min(budget, len(admitted))))
        refused = len(admitted) > budget  # then the expansion of the next state's parent is refused
        assert search.truncated is refused
        assert search.tries.reads == (index[admitted[budget][1][:-1]] + 1 if refused else len(admitted)), budget
