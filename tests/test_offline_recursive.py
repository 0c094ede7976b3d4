"""Deduction-engine tests: lower bound, pair extraction, deduction, replay."""

import hashlib
import itertools
import random
from collections import Counter
from math import comb

import pytest

from scalesort.core import (
    HiddenOrder,
    InconsistentAnswersError,
    Oracle,
    PreconditionError,
    RESOLVED,
    ScaleError,
    ScaleSpec,
    UnsupportedScaleError,
    answer_plan,
    equivalent_up_to_ambiguity,
    first_contradiction,
    outcome_of,
    true_partition,
)
from scalesort.offline_adjacency import adjacency_sort, build_adjacency_plan
from scalesort.offline_adjacency import solve_from_results as solve_adjacency
from scalesort.offline_recursive import (
    DeductionError,
    KnowledgeBase,
    _interpret_absent,
    build_recursive_plan,
    deduce_query,
    find_ordered_pair,
    offline_lower_bound,
    order_superset,
    plan_size_formula,
    recursive_plan,
    recursive_sort,
    solve_from_results,
)


class TestLowerBound:
    @pytest.mark.parametrize("n,k,t,expected", [
        (10, 3, 2, 15),    # ceil(45 / 3)
        (10, 4, 2, 30),    # ceil(C(10,3) / C(4,3))
        (9, 3, 1, 84),     # t=1 degenerates to C(n, k)
        (10, 3, 3, 120),   # t normalized to min(t, k+1-t) = 1
    ])
    def test_values(self, n, k, t, expected):
        assert offline_lower_bound(n, k, t) == expected

    def test_range_check(self):
        with pytest.raises(PreconditionError):
            offline_lower_bound(3, 4, 2)

    def test_against_factorial_form(self):
        # Independent big-integer route: the same quotient via factorials,
        # ceiling taken by hand.
        from math import factorial
        import random
        rng = random.Random(5)
        for _ in range(20):
            k = rng.randint(2, 8)
            t = rng.randint(1, k)
            n = rng.randint(k, k + 40)
            tt = min(t, k + 1 - t)
            r = k - tt + 1
            num = factorial(n) // (factorial(r) * factorial(n - r))
            den = factorial(k) // (factorial(r) * factorial(k - r))
            expected = (num + den - 1) // den
            assert offline_lower_bound(n, k, t) == expected

    def test_grid_against_the_binomials_of_r(self):
        # Both binomials from r = k - min(t, k+1-t) + 1, whichever of r and
        # n - k is smaller.
        for n in range(1, 40):
            for k in range(1, n + 1):
                for t in range(1, k + 1):
                    r = k - min(t, k + 1 - t) + 1
                    assert offline_lower_bound(n, k, t) == -(-comb(n, r) // comb(k, r))


class TestFindOrderedPair:
    def test_minimum_scale_pool(self):
        # (3,{1}) over four elements: the smallest answers three times.
        spec = ScaleSpec(3, (1,))
        oracle = Oracle(HiddenOrder.identity(5), spec)
        pool = (0, 1, 2, 3)
        results = {frozenset(c): oracle.query(c)
                   for c in itertools.combinations(pool, 3)}
        assert find_ordered_pair(results, spec) == (0, 1)

    def test_symmetric_pool_rejected(self):
        spec = ScaleSpec(3, (2,))
        oracle = Oracle(HiddenOrder.identity(5), spec)
        results = {frozenset(c): oracle.query(c)
                   for c in itertools.combinations(range(4), 3)}
        with pytest.raises(UnsupportedScaleError):
            find_ordered_pair(results, spec)

    def test_second_smallest_pool(self):
        # Ranks 3,5,7,9,11 on ids 0..4: the rank-5 element answers three
        # times (k+1-t), the rank-7 element twice.
        spec = ScaleSpec(4, (2,))
        ranks = (3, 5, 7, 9, 11, 1, 2, 4, 6, 8, 10)
        oracle = Oracle(HiddenOrder(ranks), spec)
        results = {frozenset(c): oracle.query(c)
                   for c in itertools.combinations(range(5), 4)}
        assert find_ordered_pair(results, spec) == (1, 2)

    def test_multiplicities_exact(self):
        from collections import Counter
        for k, t in [(3, 1), (4, 2), (5, 2)]:
            spec = ScaleSpec(k, (t,))
            order = HiddenOrder.from_seed(k + 3, 7)
            oracle = Oracle(order, spec)
            counts = Counter()
            for c in itertools.combinations(range(k + 1), k):
                counts[next(iter(oracle.query(c)))] += 1
            assert sorted(counts.values()) == sorted((k + 1 - t, t))


def _knowledge_base_for(spec, order, chain):
    """All queries answered, explicit chain: the substrate for rule tests."""
    n = order.n
    oracle = Oracle(order, spec)
    known = {frozenset(c): oracle.query(c)
             for c in itertools.combinations(range(n), spec.k)}
    return KnowledgeBase(spec, known, chain)


class TestDeduceQuery:
    def test_substitute_answered(self):
        # (3,{2}) identity on 8, chain (4): probing {1,3,6} with 4 answers 4
        # twice and 3 once; the non-substitute answer is the target.
        spec = ScaleSpec(3, (2,))
        kb = _knowledge_base_for(spec, HiddenOrder.identity(8), (4,))
        kb.known.pop(frozenset({1, 3, 6}))
        assert deduce_query(kb, {1, 3, 6}) == {3}

    def test_substitute_below(self):
        spec = ScaleSpec(3, (2,))
        kb = _knowledge_base_for(spec, HiddenOrder.identity(8), (0,))
        kb.known.pop(frozenset({1, 3, 6}))
        assert deduce_query(kb, {1, 3, 6}) == {3}

    def test_substitute_above(self):
        spec = ScaleSpec(3, (2,))
        kb = _knowledge_base_for(spec, HiddenOrder.identity(8), (7,))
        kb.known.pop(frozenset({1, 3, 6}))
        assert deduce_query(kb, {1, 3, 6}) == {3}

    def test_reference_of_extremes_deduces_nothing(self):
        # A reference of length t whose members are the small segment plus
        # the smallest remaining element: every probe against its fan
        # answers the substitute itself, which identifies nothing.
        spec = ScaleSpec(3, (2,))
        order = HiddenOrder.identity(7)
        oracle = Oracle(order, spec)
        chain = (0, 1)
        known = {}
        for combo in itertools.combinations(range(2, 7), 1):
            q = frozenset(chain) | frozenset(combo)
            known[q] = oracle.query(q)
        kb = KnowledgeBase(spec, known, chain)
        # direct check of the stall: substituting 1 into {0, 3, 4} answers 1
        probes = [frozenset({0, 1, v}) for v in (3, 4)]
        assert all(known[p] == {1} for p in probes)
        with pytest.raises(DeductionError):
            deduce_query(kb, {2, 3, 4})

    def test_probe_answered_with_two_ids_is_refused(self):
        # The first probe of {1, 3, 6} swaps 1 for the chain member 4; its
        # recorded answer names two ids, which no singleton instrument gives.
        spec = ScaleSpec(3, (2,))
        kb = _knowledge_base_for(spec, HiddenOrder.identity(8), (4,))
        kb.known.pop(frozenset({1, 3, 6}))
        kb.known[frozenset({3, 4, 6})] = frozenset({3, 4})
        with pytest.raises(InconsistentAnswersError,
                           match="deduction requires singleton answers"):
            deduce_query(kb, {1, 3, 6})

    # Pair tie-breaks from partial answers.  Substitutes all above the
    # query give a k = 2t instrument its two-candidate signature: the
    # target (query rank t) and its upper neighbour (rank t + 1).
    def test_tiebreak_needs_a_pool_on_the_certified_side(self):
        # One substitute above 4:2's {0, 1, 2, 4} leaves {1, 2}; a pair
        # query needs k - t = 2 pool members above them, and there is one.
        spec = ScaleSpec(4, (2,))
        kb = _knowledge_base_for(spec, HiddenOrder.identity(7), (3,))
        kb.known.pop(frozenset({0, 1, 2, 4}))
        with pytest.raises(DeductionError):
            deduce_query(kb, {0, 1, 2, 4})

    def test_tiebreak_skips_a_pair_query_without_an_answer(self):
        # 6:3 on {0, ..., 5} with substitutes 6 < 7 < 8 leaves {2, 3}; the
        # pair queries {2, 3, 6, 7, 8} plus one filler come in filler order.
        # The filler-0 query has no answer, so the filler-1 one settles it:
        # it answers 3, the neighbour, so the target is 2.
        spec = ScaleSpec(6, (3,))
        kb = _knowledge_base_for(spec, HiddenOrder.identity(9), (6, 7, 8))
        for q in ({0, 1, 2, 3, 4, 5}, {0, 2, 3, 6, 7, 8}):
            kb.known.pop(frozenset(q))
        assert deduce_query(kb, {0, 1, 2, 3, 4, 5}) == {2}

    def test_tiebreak_without_a_pair_query_naming_a_candidate(self):
        # As above without the filler-0 and filler-1 answers: fillers 4 and
        # 5 sit above the pair, so their queries answer the filler itself.
        spec = ScaleSpec(6, (3,))
        kb = _knowledge_base_for(spec, HiddenOrder.identity(9), (6, 7, 8))
        for q in ({0, 1, 2, 3, 4, 5}, {0, 2, 3, 6, 7, 8}, {1, 2, 3, 6, 7, 8}):
            kb.known.pop(frozenset(q))
        assert kb.known[frozenset({2, 3, 4, 6, 7, 8})] == {4}
        with pytest.raises(DeductionError):
            deduce_query(kb, {0, 1, 2, 3, 4, 5})

    def test_minimum_scale_rejected(self):
        spec = ScaleSpec(3, (1,))
        kb = _knowledge_base_for(spec, HiddenOrder.identity(7), (3,))
        with pytest.raises(UnsupportedScaleError):
            deduce_query(kb, {0, 1, 2})


def test_response_table_multiplicities():
    """Probe answers occur with multiplicities (t-1, 1, k-t) split by the
    victim's side of the target, for every substitute placement."""
    spec = ScaleSpec(4, (2,))
    k, t = spec.k, spec.outputs[0]
    order = HiddenOrder.from_seed(8, 1)
    ranks = order.ranks
    for q in itertools.combinations(range(8), k):
        target = outcome_of(ranks, spec.outputs, q)
        b_t = next(iter(target))
        for y in range(8):
            if y in q:
                continue
            below = equal = above = 0
            for e in q:
                probe = tuple(set(q) - {e} | {y})
                resp = next(iter(outcome_of(ranks, spec.outputs, probe)))
                if ranks[e] < ranks[b_t]:
                    below += 1
                elif e == b_t:
                    equal += 1
                else:
                    above += 1
            assert (below, equal, above) == (t - 1, 1, k - t)


class TestPlanAndSort:
    @pytest.mark.parametrize("n,k,t,size", [
        (10, 3, 2, 109),   # C(3,3) + C(3,1)*C(9,2)
        (12, 4, 2, 661),   # C(4,4) + C(4,1)*C(11,3)
    ])
    def test_plan_size(self, n, k, t, size):
        plan = build_recursive_plan(n, k, t)
        assert plan.physical_size == size == plan_size_formula(n, k, t)
        count = len(plan.closure_queries) + sum(1 for _ in plan.iter_fan_queries())
        assert count == size

    @pytest.mark.parametrize("n,spec", [
        (7, ScaleSpec(3, (2,))),
        (9, ScaleSpec(4, (2,))),
        (11, ScaleSpec(5, (3,))),
        (9, ScaleSpec(4, (3,))),   # planned as its mirror image, 4:2
        (9, ScaleSpec(4, (1,))),   # empty superset: one fan of every query
    ])
    def test_query_order_is_closure_then_each_fan_in_lexicographic_order(self, n, spec):
        # Reference: every k-subset of range(n) in lexicographic order, kept
        # when it lies inside the superset (the closure) and then, for each
        # (t-1)-subset of the superset in lexicographic order, when it holds it.
        k = spec.k
        t = min(spec.outputs[0], k + 1 - spec.outputs[0])
        superset = set(range(k + t - 2)) if t > 1 else set()
        every = list(itertools.combinations(range(n), k))
        expected = [list(q) for q in every if set(q) <= superset]
        for ref in itertools.combinations(sorted(superset), t - 1):
            expected += [list(q) for q in every if set(ref) <= set(q)]
        plan = recursive_plan(n, spec)
        assert [sorted(q) for q in plan.queries()] == expected
        assert ([sorted(q) for q in plan.closure_queries]
                + [sorted(q) for _, q in plan.iter_fan_queries()]) == expected
        assert plan.size == len(expected) == plan_size_formula(n, k, t)

    @pytest.mark.parametrize("text", ["8:4", "8:5"])
    def test_superset_of_ten_sorts(self, text):
        # k + t' - 2 = 10 with t' = min(t, k+1-t) = 4: more superset orders
        # than the certifier enumerates, ordered by the adjacency solve.
        spec = ScaleSpec.parse(text)
        order = HiddenOrder.from_seed(17, 0)
        oracle = Oracle(order, spec)
        res = recursive_sort(oracle)
        assert res.queries_used == oracle.query_count == 240285 == plan_size_formula(17, 8, 4)
        assert equivalent_up_to_ambiguity(res, order, spec)

    def test_superset_of_eight_still_sorts(self):
        spec = ScaleSpec(7, (3,))
        order = HiddenOrder.from_seed(16, 1)
        assert equivalent_up_to_ambiguity(recursive_sort(Oracle(order, spec)), order, spec)

    def test_plan_closed_under_fans(self):
        plan = build_recursive_plan(10, 3, 2)
        fan_sets = {frozenset(q) for _, q in plan.iter_fan_queries()}
        for ref in itertools.combinations(plan.superset, 1):
            for free in itertools.combinations(
                    [e for e in range(10) if e not in ref], 2):
                assert frozenset(ref) | frozenset(free) in fan_sets

    def test_identity_example(self):
        spec = ScaleSpec(4, (2,))
        oracle = Oracle(HiddenOrder.identity(12), spec)
        res = recursive_sort(oracle)
        assert res.queries_used == 661
        assert res.middle == tuple(range(1, 10))
        assert res.s_set == {0} and res.l_set == {10, 11}
        assert res.orientation == RESOLVED

    def test_t1_runs_everything(self):
        spec = ScaleSpec(3, (1,))
        order = HiddenOrder.from_seed(7, 3)
        oracle = Oracle(order, spec)
        res = recursive_sort(oracle)
        assert res.queries_used == comb(7, 3)
        assert equivalent_up_to_ambiguity(res, order, spec)

    def test_mirrored_t(self):
        spec = ScaleSpec(4, (3,))
        order = HiddenOrder.from_seed(11, 4)
        oracle = Oracle(order, spec)
        res = recursive_sort(oracle)
        assert res.queries_used == plan_size_formula(11, 4, 2)
        assert equivalent_up_to_ambiguity(res, order, spec)

    def test_needs_room(self):
        oracle = Oracle(HiddenOrder.identity(6), ScaleSpec(3, (2,)))
        with pytest.raises(PreconditionError):
            recursive_sort(oracle)

    @pytest.mark.parametrize("n,seed,wrong", [
        # Two swapped outcomes: the elimination query {3,4,6,8} is answered
        # {1}, none of its four candidates.
        (11, 3, {(1, 2, 4, 5): (6,), (3, 4, 6, 8): (1,)}),
        # One wrong outcome inside its query: a block-minimum query of the
        # extraction is answered with one of its pads.
        (9, 5, {(1, 3, 4, 8): (4,)}),
    ])
    def test_inconsistent_answers_are_refused(self, n, seed, wrong):
        spec = ScaleSpec(4, (2,))
        plan = recursive_plan(n, spec)
        answers = answer_plan(Oracle(HiddenOrder.from_seed(n, seed), spec), plan)
        answers.update({frozenset(q): frozenset(o) for q, o in wrong.items()})
        with pytest.raises(InconsistentAnswersError):
            solve_from_results(plan, answers)

    def test_missing_fan_answer_is_refused(self):
        # A fan query could be deduced from the rest, but queries_used would
        # then count a query nobody answered.
        spec = ScaleSpec(4, (2,))
        plan = recursive_plan(11, spec)
        answers = answer_plan(Oracle(HiddenOrder.from_seed(11, 2), spec), plan)
        del answers[frozenset({0, 2, 5, 6})]
        with pytest.raises(InconsistentAnswersError,
                           match=r"missing answer for plan query \[0, 2, 5, 6\]"):
            solve_from_results(plan, answers)

    @pytest.mark.parametrize("extra", [
        {5, 6, 7, 8},        # no superset member: outside the plan
        {0, 2, 5},           # too small
        {0, 2, 5, 6, 7},     # too large
        {0, 2, 5, 11},       # an id outside range(n)
    ])
    def test_missing_answer_replaced_by_a_stray_key_is_refused(self, extra):
        # The answers hold as many keys as the plan has queries, so only a
        # key that is not a plan query can stand in for the missing one.
        spec = ScaleSpec(4, (2,))
        plan = recursive_plan(11, spec)
        answers = answer_plan(Oracle(HiddenOrder.from_seed(11, 2), spec), plan)
        del answers[frozenset({0, 2, 5, 6})]
        answers[frozenset(extra)] = frozenset({min(extra)})
        with pytest.raises(InconsistentAnswersError,
                           match=r"missing answer for plan query \[0, 2, 5, 6\]"):
            solve_from_results(plan, answers)


@pytest.mark.parametrize("algo", ["adjacency", "recursive"])
def test_solve_agrees_with_every_answer_or_refuses(algo):
    # Fuzz: one to three outcomes of an answered plan are replaced by other
    # elements of their queries, the shape `scalesort solve` accepts.  A
    # solve must refuse, or return an order under which every answer holds.
    build, solve = {"adjacency": (build_adjacency_plan, solve_adjacency),
                    "recursive": (recursive_plan, solve_from_results)}[algo]
    rng = random.Random(8)
    refused = 0
    for trial in range(60):
        spec = ScaleSpec(*rng.choice([(3, (2,)), (4, (2,)), (4, (3,))]))
        n = rng.randint(2 * spec.k + 1, 12)
        plan = build(n, spec)
        answers = answer_plan(Oracle(HiddenOrder.from_seed(n, trial), spec), plan)
        for q in rng.sample(sorted(answers, key=sorted), rng.randint(1, 3)):
            answers[q] = frozenset({rng.choice(sorted(q))})
        try:
            res = solve(plan, answers)
        except ScaleError:
            refused += 1
            continue
        reading = sorted(res.s_set) + list(res.middle) + sorted(res.l_set)
        ranks = [0] * n
        for rank, e in enumerate(reading, 1):
            ranks[e] = rank
        for q, out in answers.items():
            assert outcome_of(ranks, spec.outputs, q) == out, (trial, sorted(q))
    assert refused  # the corruption is not always harmless


@pytest.mark.parametrize("algo", ["adjacency", "recursive"])
def test_outcome_outside_its_query_is_refused(algo):
    # `scalesort solve` checks this shape when it loads a results file; the
    # library entry points see it unchecked.  Outsiders come from S, from L
    # (whose members tie in rank) and from the middle.
    build, solve = {"adjacency": (build_adjacency_plan, solve_adjacency),
                    "recursive": (recursive_plan, solve_from_results)}[algo]
    spec, n = ScaleSpec(4, (2,)), 11
    order = HiddenOrder.from_seed(n, 4)
    plan = build(n, spec)
    answers = answer_plan(Oracle(order, spec), plan)
    s_true, middle, l_true = true_partition(order, spec)
    for outsider in sorted(s_true) + sorted(l_true) + [middle[3]]:
        q = max((q for q in answers if outsider not in q), key=sorted)
        corrupted = dict(answers)
        corrupted[q] = frozenset({outsider})
        with pytest.raises(InconsistentAnswersError):
            solve(plan, corrupted)


class _ReadRecorder(dict):
    """An answer map that notes every query the deduction engine looks up."""

    def __init__(self, answers):
        super().__init__(answers)
        self.read = set()

    def get(self, q, default=None):
        self.read.add(q)
        return super().get(q, default)


@pytest.mark.parametrize("text,n", [("4:2", 11), ("4:3", 11)])   # 4:3 reads as its mirror
def test_final_check_names_an_answer_the_replay_never_reads(text, n):
    spec = ScaleSpec.parse(text)
    plan = recursive_plan(n, spec)
    answers = answer_plan(Oracle(HiddenOrder.from_seed(n, 2), spec), plan)
    recorder = _ReadRecorder(answers)
    solve_from_results(plan, recorder)
    closure = set(map(frozenset, plan.closure_queries))
    unread = [q for q in answers if q not in recorder.read and q not in closure]
    q = min(unread, key=sorted)
    wrong = min(q - answers[q])
    corrupted = dict(answers)
    corrupted[q] = frozenset({wrong})
    query_text = ", ".join(map(str, sorted(q)))
    with pytest.raises(InconsistentAnswersError,
                       match=rf"contradicts the answer \[{wrong}\] to query \[{query_text}\]"):
        solve_from_results(plan, corrupted)


# sha256 over repr((transcript, result or error class name)) of 96 offline
# sorts: both algorithms on every singleton with k <= 5, half of them read
# from the mirror side, pinned before the mirror decision moved into
# ScaleSpec.read_side.
PINNED_OFFLINE_SWEEP = "d8a50090192b75168ad049eaa0e3ce9df0a08699e4c2916289fb53061332ce5e"


def test_offline_sweep_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for sort in (adjacency_sort, recursive_sort):
        for k in (3, 4, 5):
            for t in range(1, k + 1):
                for n in (2 * k + 1, 2 * k + 3):
                    for seed in (0, 1):
                        oracle = Oracle(HiddenOrder.from_seed(n, seed), ScaleSpec(k, (t,)))
                        try:
                            res = sort(oracle)
                        except ScaleError as exc:
                            res = type(exc).__name__
                        digest.update(repr((oracle.transcript, res)).encode())
                        count += 1
    assert count == 96
    assert digest.hexdigest() == PINNED_OFFLINE_SWEEP


class TestOrderSuperset:
    def test_two_fixed_from_closure(self):
        # (5,{3}): closure of the six lowest labels pins the middle pair and
        # both segment sets, up to the symmetric reflection.
        spec = ScaleSpec(5, (3,))
        order = HiddenOrder.from_seed(12, 6)
        oracle = Oracle(order, spec)
        plan = build_recursive_plan(12, 5, 3)
        closure = {frozenset(q): oracle.query(q) for q in plan.closure_queries}
        chain, below, above, free = order_superset(closure, plan.superset, spec)
        members = sorted(plan.superset)
        ranked = sorted(members, key=order.ranks.__getitem__)
        mid_true = tuple(ranked[2:4])
        assert chain in (mid_true, tuple(reversed(mid_true)))
        if chain == mid_true:
            assert set(below) == set(ranked[:2]) and set(above) == set(ranked[4:])
        else:
            assert set(below) == set(ranked[4:]) and set(above) == set(ranked[:2])
        assert free == ()

    def test_single_fixed_leaves_free_pool(self):
        spec = ScaleSpec(4, (2,))
        order = HiddenOrder.from_seed(11, 2)
        oracle = Oracle(order, spec)
        plan = build_recursive_plan(11, 4, 2)
        closure = {frozenset(q): oracle.query(q) for q in plan.closure_queries}
        chain, below, above, free = order_superset(closure, plan.superset, spec)
        members = sorted(plan.superset)
        ranked = sorted(members, key=order.ranks.__getitem__)
        assert chain == (ranked[1],)
        assert below == () and above == ()
        assert set(free) == set(members) - {ranked[1]}


def _order_superset_by_first_contradiction(closure, superset, spec):
    """Reference order_superset: each ordering of the superset checked on its own."""
    members = sorted(superset)
    top = len(members) - spec.l_size
    per_middle = {}
    for perm in itertools.permutations(members):
        if first_contradiction(closure.items(), perm, (), (), spec.outputs) is None:
            lo, hi = per_middle.setdefault(perm[spec.s_size:top],
                                           (set(perm[:spec.s_size]), set(perm[top:])))
            lo &= set(perm[:spec.s_size])
            hi &= set(perm[top:])
    chain = min(per_middle)
    below, above = per_middle[chain]
    free = tuple(e for e in members if e not in chain and e not in below and e not in above)
    return chain, tuple(sorted(below)), tuple(sorted(above)), free


@pytest.mark.parametrize("k,t,n,seed", [(7, 3, 16, 0), (7, 3, 16, 1), (6, 3, 14, 0),
                                        (6, 3, 14, 1), (6, 3, 14, 2), (4, 1, 9, 0),
                                        (4, 2, 9, 0), (5, 3, 11, 0)])
def test_order_superset_matches_a_per_permutation_check(k, t, n, seed):
    spec = ScaleSpec(k, (t,))
    plan = build_recursive_plan(n, k, t)
    oracle = Oracle(HiddenOrder.from_seed(n, seed), spec)
    closure = {frozenset(q): oracle.query(q) for q in plan.closure_queries}
    assert (order_superset(closure, plan.superset, spec)
            == _order_superset_by_first_contradiction(closure, plan.superset, spec))


@pytest.mark.parametrize("k,t", [(k, t) for k in range(8, 12) for t in range(2, (k + 3) // 2)
                                 if k + t - 2 >= 10])
def test_order_superset_orders_supersets_of_ten_or_more(k, t):
    # Every read-side singleton with k <= 11 whose superset has 10 to 15
    # ids, more than the certifier enumerates: the true order, read from
    # below for an asymmetric instrument and canonically for a symmetric
    # one.  With t = 2 the closure's one answer is all it places.
    spec = ScaleSpec(k, (t,))
    plan = build_recursive_plan(2 * k + 1, k, t)
    order = HiddenOrder.from_seed(2 * k + 1, k * t)
    oracle = Oracle(order, spec)
    closure = {frozenset(q): oracle.query(q) for q in plan.closure_queries}
    ranked = sorted(plan.superset, key=order.ranks.__getitem__)
    top = len(ranked) - spec.l_size
    low, mid, high = tuple(sorted(ranked[:t - 1])), tuple(ranked[t - 1:top]), tuple(
        sorted(ranked[top:]))
    if t == 2:
        readings = [(mid, (), (), tuple(sorted(low + high)))]
    else:
        readings = [(mid, low, high, ())]
    if spec.is_symmetric:
        readings.append((mid[::-1], high, low, ()))
    assert order_superset(closure, plan.superset, spec) == min(readings)


@pytest.mark.parametrize("text,n", [("4:2", 9), ("5:3", 11), ("7:3", 16)])
def test_corrupted_closure_answers_are_refused_by_the_superset_stage(text, n):
    # One closure answer moved to another id of its query (or, with the
    # closure of one query, outside it), for 20 seeded orders each.
    spec = ScaleSpec.parse(text)
    plan = recursive_plan(n, spec)
    for seed in range(20):
        rng = random.Random(seed)
        oracle = Oracle(HiddenOrder.from_seed(n, seed), spec)
        closure = {frozenset(q): oracle.query(q) for q in plan.closure_queries}
        q = rng.choice(sorted(closure, key=sorted))
        others = set(range(n + 1)) - q if len(closure) == 1 else q - closure[q]
        closure[q] = frozenset({rng.choice(sorted(others))})
        with pytest.raises(InconsistentAnswersError,
                           match="^no superset ordering matches the closure answers"):
            order_superset(closure, plan.superset, spec)


@pytest.mark.parametrize("k", range(3, 8))
def test_unanswered_substitute_windows_hold_the_target(k):
    """For every rank w of the substitute among the k + 1 ids and every set
    of query members placed apart from it, beta of them below it: when the
    probes never answer the substitute, two response values leave a
    candidate set that holds the target and names the substitute's zone."""
    for t in range(2, (k + 1) // 2 + 1):
        for w in range(1, k + 2):
            q = [r for r in range(1, k + 2) if r != w]   # ids are their ranks
            target = q[t - 1]
            for m in range(k):
                for placed in itertools.combinations(q, m):
                    beta = sum(p < w for p in placed)
                    responses = Counter(sorted(set(q) - {e} | {w})[t - 1]
                                        for e in q if e not in placed)
                    if w in responses:
                        continue
                    cands, zones = _interpret_absent(responses, k, t, m, beta)
                    if len(responses) == 1:
                        assert cands == set()
                    else:
                        assert target in cands
                        assert (1 if w < target else 4) in zones


@pytest.mark.parametrize("k,t,n", [(3, 2, 8), (4, 2, 10), (4, 2, 13), (5, 2, 11), (5, 3, 11)])
def test_deduction_matches_truth_seeded(k, t, n):
    spec = ScaleSpec(k, (t,))
    plan = build_recursive_plan(n, k, t)
    for seed in range(6):
        order = HiddenOrder.from_seed(n, seed)
        oracle = Oracle(order, spec)
        closure = {frozenset(q): oracle.query(q) for q in plan.closure_queries}
        known = dict(closure)
        for _, q in plan.iter_fan_queries():
            known[frozenset(q)] = oracle.query(q)
        chain, below, above, free = order_superset(closure, plan.superset, spec)
        kb = KnowledgeBase(spec, known, chain, below, above, free)
        for combo in itertools.combinations(range(n), k):
            assert deduce_query(kb, combo) == outcome_of(order.ranks, spec.outputs, combo)


# (spec, n, seed, cut, reverse, sha256 of the answers, sha256 of the sorted
# memo, memo size).  A sweep deduces every k-subset of range(n), in
# lexicographic order or its reverse, from a recursive plan answered under
# HiddenOrder.from_seed(n, seed), less every recorded query whose only
# superset member is below `cut`.  Every probe holds its substitute, a
# superset member, so with t = 2 a full plan records it; the withheld
# answers and the reversed order, which reaches queries outside the
# superset before the withheld ones, make the engine recurse.  Under
# stdlib `trace` the 4:2 case recurses 440 times, finds a probe already on
# the busy path 220 times and settles 280 ties in `_pair_order_tiebreak`;
# the 5:2 case recurses 280 times and finds the busy path 420 times; the
# 3:2 case is a full plan in lexicographic order, as the benchmark's
# deduce-all sweeps read it.
PINNED_DEDUCTION = [
    ("4:2", 16, 2, 2, True, "089c1fd575ffd77ee9c801b8162a8668351f8cb0fd56aa0496fcaba12deb18bd",
     "3c7fbd8fa4d78198719f49f02982436ff2c8dd957a9742571733bc4f89a7766c", 935),
    ("3:2", 20, 0, 0, False, "5ad2789300a06ae22d58b5b39927b8e0e3c110e57919628ee4dde6d4da9cbd9d",
     "88d971badd178c6d7a2d919af1d403ad7be61c18c244f65d756a21c52aca67c3", 680),
    ("5:2", 13, 0, 4, True, "11c11e9d2f31efdfb3a769714d80b9c16c4c8671f03db70b713c82844f243380",
     "9060a75b620a759c492b2f86f81ee7b814807ed120459c25e23b4a1c470eb149", 336),
]


@pytest.mark.parametrize("text,n,seed,cut,reverse,answers_sha,deduced_sha,deduced_len",
                         PINNED_DEDUCTION)
def test_deduction_sweeps_are_pinned(text, n, seed, cut, reverse, answers_sha, deduced_sha,
                                     deduced_len):
    spec = ScaleSpec.parse(text)
    plan = recursive_plan(n, spec)
    order = HiddenOrder.from_seed(n, seed)
    known = answer_plan(Oracle(order, spec), plan)
    closure = {q: known[q] for q in map(frozenset, plan.closure_queries)}
    chain, below, above, free = order_superset(closure, plan.superset, spec)
    superset = frozenset(plan.superset)
    for q in [q for q in known if len(q & superset) == 1 and min(q) < cut]:
        del known[q]
    kb = KnowledgeBase(spec, known, chain, below, above, free)
    combos = list(itertools.combinations(range(n), spec.k))
    if reverse:
        combos.reverse()
    answers = []
    for combo in combos:
        out = deduce_query(kb, combo)
        assert out == outcome_of(order.ranks, spec.outputs, combo)
        answers.append(sorted(out))
    deduced = sorted((sorted(q), sorted(o)) for q, o in kb.deduced.items())
    digest = lambda value: hashlib.sha256(repr(value).encode()).hexdigest()
    assert (digest(answers), digest(deduced), len(deduced)) == (answers_sha, deduced_sha,
                                                                 deduced_len)
