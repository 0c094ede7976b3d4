"""Adjacency-plan tests: plan sizes, the replacement rule, reconstruction."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalesort.core import (
    HiddenOrder,
    InconsistentAnswersError,
    Oracle,
    PreconditionError,
    RESOLVED,
    REFLECTION_AMBIGUOUS,
    ScaleSpec,
    equivalent_up_to_ambiguity,
    true_partition,
)
from scalesort.offline_adjacency import (
    AdjacencyMap,
    adjacency_sort,
    answer_plan,
    build_adjacency_plan,
    eliminate_nonadjacent,
    plan_size_formula,
    rebuild_order,
    solve_from_results,
)


class TestPlan:
    @pytest.mark.parametrize("n,spec,size", [
        (10, ScaleSpec(3, (2,)), 108),    # 3 * C(9, 2)
        (12, ScaleSpec(4, (2,)), 495),    # 3 * C(11, 3)
        (14, ScaleSpec(6, (2, 4)), 495),  # rho = 3: 3 * C(11, 3)
    ])
    def test_plan_sizes(self, n, spec, size):
        plan = build_adjacency_plan(n, spec)
        assert plan.size == size == plan_size_formula(n, spec)
        assert len(plan.fans) == 3
        refs = [fan.reference for fan in plan.fans]
        assert all(not (a & b) for a, b in itertools.combinations(refs, 2))

    def test_rho_zero_runs_everything(self):
        plan = build_adjacency_plan(7, ScaleSpec(3, (1,)))
        assert plan.size == 35  # C(7, 3)
        assert [fan.reference for fan in plan.fans] == [frozenset()]

    def test_too_small_for_three_references(self):
        with pytest.raises(PreconditionError):
            build_adjacency_plan(5, ScaleSpec(3, (2,)))

    @pytest.mark.parametrize("n,spec,rho", [
        (8, ScaleSpec(3, (2,)), 1),
        (9, ScaleSpec(4, (2,)), 1),
        (14, ScaleSpec(6, (2, 4)), 3),
        (7, ScaleSpec(3, (1,)), 0),
        (7, ScaleSpec(4, (4,)), 0),  # the mirrored maximum
    ])
    def test_query_order_is_each_fan_in_lexicographic_order(self, n, spec, rho):
        # Reference: for each reference set in turn, every (k - rho)-subset
        # of the other ids, listed by bitmask and sorted.
        refs = [list(range(i * rho, (i + 1) * rho)) for i in range(3 if rho else 1)]
        expected = []
        for ref in refs:
            rest = [e for e in range(n) if e not in ref]
            subsets = ([e for j, e in enumerate(rest) if mask >> j & 1]
                       for mask in range(1 << len(rest)))
            expected += [sorted(ref + free)
                         for free in sorted(s for s in subsets if len(s) == spec.k - rho)]
        plan = build_adjacency_plan(n, spec)
        assert [sorted(q) for q in plan.queries()] == expected
        assert plan.size == len(expected)

    def test_plan_is_generated_on_demand(self, capped_python):
        # 4:2 at n = 10^4 plans about 5e11 queries; only the fans' id
        # tuples are built up front.
        proc = capped_python("-c", _FIRST_QUERY_AT_N_10_4)
        assert proc.returncode == 0, proc.stderr
        size, first, peak = json.loads(proc.stdout)
        assert size == 3 * math.comb(9999, 3)
        assert first == [0, 1, 2, 3]
        assert peak < 2**20


_FIRST_QUERY_AT_N_10_4 = """
import json, tracemalloc
from scalesort.core import ScaleSpec
from scalesort.offline_adjacency import build_adjacency_plan
tracemalloc.start()
plan = build_adjacency_plan(10**4, ScaleSpec(4, (2,)))
first = sorted(next(plan.queries()))
print(json.dumps([plan.size, first, tracemalloc.get_traced_memory()[1]]))
"""


class TestElimination:
    def test_replacement_rule_deletes_witnessed_pair(self):
        # Identity on 7 with a (3,{2}) fan over reference {1}: {1,2,3}
        # answers 2 while {1,3,4} answers 3, not 4; so 2 and 4 cannot be
        # adjacent (3 sits between them).
        spec = ScaleSpec(3, (2,))
        oracle = Oracle(HiddenOrder.identity(7), spec)
        plan = build_adjacency_plan(7, spec)
        results = answer_plan(oracle, plan)
        assert results[frozenset({1, 2, 3})] == {2}
        assert results[frozenset({1, 3, 4})] == {3}
        adj = eliminate_nonadjacent(plan, results)
        assert not adj.has_edge(2, 4)

    def test_true_edges_survive(self):
        spec = ScaleSpec(3, (2,))
        for seed in range(12):
            order = HiddenOrder.from_seed(9, seed)
            oracle = Oracle(order, spec)
            plan = build_adjacency_plan(9, spec)
            adj = eliminate_nonadjacent(plan, answer_plan(oracle, plan))
            _, mid, _ = true_partition(order, spec)
            for a, b in zip(mid, mid[1:]):
                assert adj.has_edge(a, b)

    def test_surviving_graph_is_the_true_path(self):
        spec = ScaleSpec(3, (2,))
        oracle = Oracle(HiddenOrder.identity(7), spec)
        plan = build_adjacency_plan(7, spec)
        adj = eliminate_nonadjacent(plan, answer_plan(oracle, plan))
        assert adj.support == {1, 2, 3, 4, 5}
        assert adj.is_path()
        assert adj.walk() == [1, 2, 3, 4, 5]

    def test_processing_order_is_irrelevant(self):
        # Elimination is monotone: shuffling the fan order changes nothing.
        spec = ScaleSpec(4, (2,))
        order = HiddenOrder.from_seed(11, 5)
        oracle = Oracle(order, spec)
        plan = build_adjacency_plan(11, spec)
        results = answer_plan(oracle, plan)
        base = eliminate_nonadjacent(plan, results).neighbors
        rng = random.Random(0)
        for _ in range(3):
            fans = list(plan.fans)
            rng.shuffle(fans)
            shuffled = type(plan)(plan.n, plan.spec, tuple(fans))
            assert eliminate_nonadjacent(shuffled, results).neighbors == base

    def test_matches_the_pairwise_rule(self):
        # Reference: the replacement rule read pair by pair, u answered in
        # its query and v not answered in the sibling, as neighbour sets.
        rng = random.Random(3)
        cases = 0
        for k in range(2, 7):
            for t in range(1, k + 1):
                spec = ScaleSpec(k, (t,))
                rho = min(t, k + 1 - t) - 1
                least = max(k + 1, 3 * rho + (k - rho) + 1)
                for n in (least, least + 2, least + 5):
                    plan = build_adjacency_plan(n, spec)
                    results = answer_plan(Oracle(HiddenOrder.from_seed(n, cases), spec), plan)
                    for corrupt in (False, True):
                        if corrupt:
                            for q in rng.sample(sorted(results, key=sorted), 3):
                                results[q] = frozenset({rng.choice(sorted(q))})
                        support = set().union(*results.values())
                        expected = {a: support - {a} for a in support}
                        for fan in plan.fans:
                            for q in map(fan.reference.union, fan.free_sets()):
                                for u in q - fan.reference:
                                    if u not in results[q]:
                                        continue
                                    for v in range(n):
                                        sibling = q - {u} | {v}
                                        if (v not in q and v in support
                                                and v not in results.get(sibling, {v})):
                                            expected[u].discard(v)
                                            expected[v].discard(u)
                        assert eliminate_nonadjacent(plan, results).neighbors == expected
                        cases += 1
        assert cases == 120

    def test_missing_answer_raises(self):
        spec = ScaleSpec(3, (2,))
        oracle = Oracle(HiddenOrder.identity(7), spec)
        plan = build_adjacency_plan(7, spec)
        results = answer_plan(oracle, plan)
        results.pop(next(iter(results)))
        with pytest.raises(InconsistentAnswersError):
            eliminate_nonadjacent(plan, results)


# Shapes at and just above their plan's floor, n >= max(k + 1, k + 2*rho + 1).
_HOSTILE_CASES = [("4:2,3", 9), ("4:2,3", 11), ("5:2,4", 12), ("6:3,4", 13), ("7:2,4,6", 18),
                  ("3:1", 4), ("3:1", 6), ("4:4", 6), ("4:2", 7), ("5:3", 10)]


def _pairwise_rule(plan, results):
    """Neighbour sets by the replacement rule read pair by pair: u answered in
    its query and v not answered in the sibling that swaps u for v."""
    support = set().union(*results.values())
    expected = {a: support - {a} for a in support}
    for fan in plan.fans:
        for q in map(fan.reference.union, fan.free_sets()):
            for u in q - fan.reference:
                if u not in results[q]:
                    continue
                for v in set(fan.rest) - q:
                    if v in support and v not in results[q - {u} | {v}]:
                        expected[u].discard(v)
                        expected[v].discard(u)
    return support, expected


@settings(max_examples=200)
@given(st.sampled_from(_HOSTILE_CASES), st.integers(0, 10**6),
       st.lists(st.tuples(st.integers(0, 10**6),
                          st.sampled_from(["member", "reference", "outsider", 99, -1])),
                max_size=6))
def test_elimination_matches_the_pairwise_rule_on_hostile_answers(case, seed, corruptions):
    # An outcome member is swapped for another member of its query, an id
    # of a fan's reference set, an id outside the query, or an id outside
    # range(n): the ids 99 and -1 join the support and keep every edge.
    text, n = case
    spec = ScaleSpec.parse(text)
    plan = build_adjacency_plan(n, spec)
    results = answer_plan(Oracle(HiddenOrder.from_seed(n, seed), spec), plan)
    queries = sorted(results, key=sorted)
    references = set().union(*(fan.reference for fan in plan.fans))
    for pick, kind in corruptions:
        q = queries[pick % len(queries)]
        out = results[q]
        pool = {"member": sorted(q - out), "reference": sorted(q & references - out),
                "outsider": sorted(set(range(n)) - q)}.get(kind, [kind])
        if pool:
            results[q] = out - {min(out)} | {pool[pick % len(pool)]}
    adj = eliminate_nonadjacent(plan, results)
    assert (adj.support, adj.neighbors) == _pairwise_rule(plan, results)


def _reference_walk(m, edges):
    """The vertices of a path graph on range(m) from its lower-labelled end, else None."""
    degrees = sorted(sum(v in edge for edge in edges) for v in range(m))
    if m == 0 or degrees != ([0] if m == 1 else [1, 1] + [2] * (m - 2)):
        return None
    reached = {0}
    for _ in range(m):
        reached |= {v for edge in edges if reached & set(edge) for v in edge}
    if len(reached) != m:
        return None
    links = {frozenset(edge) for edge in edges}
    return next(list(p) for p in itertools.permutations(range(m))
                if all(frozenset(pair) in links for pair in zip(p, p[1:])))


class TestRebuild:
    def test_path_walk(self):
        adj = AdjacencyMap({1, 2, 3})
        adj.neighbors[1].discard(3)
        adj.neighbors[3].discard(1)
        assert adj.walk() in ([1, 2, 3], [3, 2, 1])

    @pytest.mark.parametrize("m", range(6))
    def test_is_path_and_walk_on_every_small_graph(self, m):
        # Every graph on m <= 5 labelled vertices (1,024 on five) against a
        # reference: a path is connected with degree sequence [1, 1, 2, ...]
        # (or one vertex), and its walk starts at its lower-labelled end.
        pairs = list(itertools.combinations(range(m), 2))
        paths = 0
        for mask in range(1 << len(pairs)):
            edges = {pair for i, pair in enumerate(pairs) if mask >> i & 1}
            adj = AdjacencyMap(range(m))
            for a, b in set(pairs) - edges:
                adj.neighbors[a].discard(b)
                adj.neighbors[b].discard(a)
            expected = _reference_walk(m, edges)
            assert adj.is_path() == (expected is not None)
            if expected is not None:
                assert adj.walk() == expected
                paths += 1
        assert paths == ([0, 1, 1] + [math.factorial(m) // 2] * 3)[m]

    def test_symmetric_reflection(self):
        spec = ScaleSpec(3, (2,))
        order = HiddenOrder.identity(7)
        res = adjacency_sort(Oracle(order, spec))
        assert res.orientation == REFLECTION_AMBIGUOUS
        assert res.queries_used == plan_size_formula(7, spec)
        assert equivalent_up_to_ambiguity(res, order, spec)

    def test_asymmetric_resolved(self):
        spec = ScaleSpec(4, (2,))
        oracle = Oracle(HiddenOrder.identity(12), spec)
        res = adjacency_sort(oracle)
        assert res.orientation == RESOLVED
        assert res.middle == tuple(range(1, 10))
        assert res.s_set == {0} and res.l_set == {10, 11}

    def test_non_path_rejected(self):
        adj = AdjacencyMap({1, 2, 3, 4})  # complete graph, not a path
        with pytest.raises(InconsistentAnswersError):
            rebuild_order(adj, [], ScaleSpec(3, (2,)))

    def test_answers_that_leave_two_readings_are_refused(self):
        # Path 0-1-2 with outside {3, 4, 5}: the answers hold for middle
        # 2, 1, 0 with S = {4} and with S = {5}, and no answer tells them apart.
        adj = AdjacencyMap({0, 1, 2})
        adj.neighbors[0].discard(2)
        adj.neighbors[2].discard(0)
        transcript = [((0, 1, 2, 3), (1,)), ((0, 1, 4, 5), (1,))]
        with pytest.raises(InconsistentAnswersError,
                           match="^2 orderings match the answers; ambiguity beyond reflection$"):
            rebuild_order(adj, transcript, ScaleSpec(4, (2,)))


# Multi-output sizes respect the empirical completeness floor n > 2k + 3*rho.
@pytest.mark.parametrize("spec,n", [
    (ScaleSpec(3, (2,)), 9),
    (ScaleSpec(3, (1,)), 8),
    (ScaleSpec(4, (2,)), 11),
    (ScaleSpec(6, (2, 4)), 22),
    (ScaleSpec(5, (2, 4)), 20),
])
def test_end_to_end_seeded(spec, n):
    for seed in range(10):
        order = HiddenOrder.from_seed(n, seed)
        oracle = Oracle(order, spec)
        res = adjacency_sort(oracle)
        assert res.queries_used == plan_size_formula(n, spec)
        assert equivalent_up_to_ambiguity(res, order, spec)


def test_zero_slack_instrument_is_sound_or_errors():
    # With ts = k-1 the reference fills all but two slots, leaving no room
    # to steer elements onto reported positions; elimination can then leave
    # extra edges at any n.  It must never return a wrong ordering though:
    # either the result is equivalent or reconstruction refuses cleanly.
    spec = ScaleSpec(6, (2, 5))
    outcomes = {"ok": 0, "refused": 0}
    for n, seed in [(25, 0), (30, 0), (40, 0), (25, 3)]:
        order = HiddenOrder.from_seed(n, seed)
        oracle = Oracle(order, spec)
        try:
            res = adjacency_sort(oracle)
        except InconsistentAnswersError:
            outcomes["refused"] += 1
            continue
        assert equivalent_up_to_ambiguity(res, order, spec)
        outcomes["ok"] += 1
    assert outcomes["ok"] + outcomes["refused"] == 4


def test_solve_from_external_answers():
    spec = ScaleSpec(4, (2,))
    order = HiddenOrder.from_seed(11, 9)
    oracle = Oracle(order, spec)
    plan = build_adjacency_plan(11, spec)
    results = answer_plan(oracle, plan)
    res = solve_from_results(plan, results)
    assert equivalent_up_to_ambiguity(res, order, spec)
    assert res.queries_used == plan.size
