"""Core model tests: instruments, oracle evaluation, result equivalence."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalesort.core import (
    DuplicateElementError,
    HiddenOrder,
    Oracle,
    PartitionError,
    PreconditionError,
    QuerySizeError,
    RESOLVED,
    REFLECTION_AMBIGUOUS,
    ScaleError,
    ScaleSpec,
    SortResult,
    UnknownElementError,
    equivalent_up_to_ambiguity,
)


class TestScaleSpec:
    def test_parse_round_trip(self):
        spec = ScaleSpec.parse("7:2,6")
        assert spec == ScaleSpec(7, (2, 6))
        assert spec.text == "7:2,6"

    @pytest.mark.parametrize("k,outputs", [
        (1, (1,)),            # arity too small
        (3, ()),              # no outputs
        (3, (2, 2)),          # repeated position
        (3, (3, 2)),          # not increasing
        (3, (0,)),            # below range
        (3, (4,)),            # above range
        (3, (1, 2, 3)),       # every position: answers determine nothing
    ])
    def test_invalid_specs(self, k, outputs):
        with pytest.raises(ScaleError):
            ScaleSpec(k, outputs)

    @pytest.mark.parametrize("k,outputs,expected", [
        ((3), (2,), (1, 1, True, 2)),
        ((4), (2,), (1, 2, False, 3)),
        ((5), (2, 4), (1, 1, True, 2)),   # reflection set {6-2, 6-4} = {4, 2}
    ])
    def test_scale_properties(self, k, outputs, expected):
        spec = ScaleSpec(k, outputs)
        assert (spec.s_size, spec.l_size, spec.is_symmetric, spec.k_prime) == expected

    @pytest.mark.parametrize("text,bottom,top", [
        ("5:1,2", 2, 0),
        ("4:1,2,3", 3, 0),
        ("4:1,2,4", 2, 0),     # the run 1..2 counts; the lone 4 does not
        ("4:3,4", 0, 2),
        ("5:1,2,4,5", 2, 2),
        ("3:1", 0, 0),         # a run of one is an ordinary reported position
        ("5:1,3", 0, 0),
        ("5:2,3", 0, 0),       # a run that does not start at 1
    ])
    def test_end_block_sizes(self, text, bottom, top):
        spec = ScaleSpec.parse(text)
        assert (spec.bottom_block_size, spec.top_block_size) == (bottom, top)

    def test_mirrored(self):
        assert ScaleSpec(6, (2, 4)).mirrored() == ScaleSpec(6, (3, 5))
        assert ScaleSpec(5, (2, 4)).mirrored() == ScaleSpec(5, (2, 4))


class TestHiddenOrder:
    def test_identity_and_by_rank(self):
        order = HiddenOrder.identity(5)
        assert order.by_rank == (0, 1, 2, 3, 4)
        assert order.ranks[3] == 4

    def test_rejects_non_bijection(self):
        with pytest.raises(ScaleError):
            HiddenOrder((1, 1, 3))

    def test_from_seed_deterministic(self):
        assert HiddenOrder.from_seed(9, 4).ranks == HiddenOrder.from_seed(9, 4).ranks
        assert HiddenOrder.from_seed(9, 4).ranks != HiddenOrder.from_seed(9, 5).ranks

    def test_reversed(self):
        order = HiddenOrder((2, 1, 3))
        assert order.reversed_().ranks == (2, 3, 1)


class TestEvaluateQuery:
    def test_rank_positions_direct(self):
        # Identity order on 8 elements; the full arity-7 query reports the
        # elements at in-query ranks 2 and 6.
        oracle = Oracle(HiddenOrder.identity(8), ScaleSpec(7, (2, 6)))
        assert oracle.query(range(7)) == {1, 5}

    def test_minimum_scale_returns_smallest(self):
        oracle = Oracle(HiddenOrder((3, 1, 2, 4), ), ScaleSpec(3, (1,)))
        assert oracle.query((0, 1, 2)) == {1}

    def test_never_reported_elements(self):
        # On 8 elements no query of a (7,{2,6}) instrument can ever report
        # the two extreme elements of either end: ranks 1, 4, 5, 8.
        oracle = Oracle(HiddenOrder.identity(8), ScaleSpec(7, (2, 6)))
        seen = set()
        for combo in itertools.combinations(range(8), 7):
            seen |= oracle.query(combo)
        assert set(range(8)) - seen == {0, 3, 4, 7}

    def test_error_cases_leave_state_untouched(self):
        oracle = Oracle(HiddenOrder.identity(6), ScaleSpec(3, (2,)))
        with pytest.raises(QuerySizeError):
            oracle.query((0, 1))
        with pytest.raises(DuplicateElementError):
            oracle.query((0, 1, 1))
        with pytest.raises(UnknownElementError):
            oracle.query((0, 1, 17))
        assert oracle.query_count == 0
        assert oracle.transcript == []

    def test_count_and_transcript_grow_together(self):
        oracle = Oracle(HiddenOrder.identity(6), ScaleSpec(3, (2,)))
        first = oracle.query((0, 1, 2))
        second = oracle.query((0, 1, 2))
        assert first == second  # idempotent in value
        assert oracle.query_count == 2 == len(oracle.transcript)

    def test_constructor_floor(self):
        with pytest.raises(PreconditionError):
            Oracle(HiddenOrder.identity(3), ScaleSpec(3, (2,)))      # needs n >= k+1

    def test_multi_sorting_floor(self):
        from scalesort.online import multi_sort
        oracle = Oracle(HiddenOrder.identity(10), ScaleSpec(5, (2, 4)))
        with pytest.raises(PreconditionError):
            multi_sort(oracle)                                       # s>1 sorting needs n > 2k


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_outcome_equivariant_under_relabeling(rng):
    """Relabeling ids and the order together leaves outcomes unchanged."""
    n, spec = 7, ScaleSpec(3, (2,))
    ranks = list(range(1, n + 1))
    rng.shuffle(ranks)
    relabel = list(range(n))
    rng.shuffle(relabel)
    base = Oracle(HiddenOrder(tuple(ranks)), spec)
    mapped = Oracle(HiddenOrder(tuple(ranks[relabel.index(e)] for e in range(n))), spec)
    for combo in itertools.combinations(range(n), 3):
        image = [relabel[e] for e in combo]
        assert {relabel[e] for e in base.query(combo)} == mapped.query(image)


@pytest.mark.parametrize("spec,n", [(ScaleSpec(3, (2,)), 7), (ScaleSpec(5, (2, 4)), 11)])
def test_extremes_never_reported_and_middle_always_is(spec, n):
    order = HiddenOrder.from_seed(n, 3)
    oracle = Oracle(order, spec)
    seen = set()
    for combo in itertools.combinations(range(n), spec.k):
        seen |= oracle.query(combo)
    by_rank = order.by_rank
    extremes = set(by_rank[:spec.s_size]) | set(by_rank[n - spec.l_size:] if spec.l_size else [])
    assert seen == set(range(n)) - extremes


def test_symmetric_reversal_invariance():
    spec = ScaleSpec(3, (2,))
    order = HiddenOrder.from_seed(6, 11)
    fwd = Oracle(order, spec)
    rev = Oracle(order.reversed_(), spec)
    for combo in itertools.combinations(range(6), 3):
        assert fwd.query(combo) == rev.query(combo)


class TestEquivalence:
    def test_exact_match(self):
        spec = ScaleSpec(4, (2,))
        truth = HiddenOrder.identity(6)
        res = SortResult((1, 2, 3), frozenset({0}), frozenset({4, 5}), RESOLVED, 0)
        assert equivalent_up_to_ambiguity(res, truth, spec)

    def test_reflection_allowed_when_symmetric(self):
        spec = ScaleSpec(3, (2,))
        truth = HiddenOrder.identity(5)
        res = SortResult((3, 2, 1), frozenset({4}), frozenset({0}),
                         REFLECTION_AMBIGUOUS, 0)
        assert equivalent_up_to_ambiguity(res, truth, spec)

    def test_wrong_order_rejected(self):
        spec = ScaleSpec(4, (2,))
        truth = HiddenOrder.identity(6)
        res = SortResult((2, 1, 3), frozenset({0}), frozenset({4, 5}), RESOLVED, 0)
        assert not equivalent_up_to_ambiguity(res, truth, spec)

    def test_reflection_rejected_for_asymmetric(self):
        spec = ScaleSpec(4, (2,))
        truth = HiddenOrder.identity(6)
        res = SortResult((3, 2, 1), frozenset({4, 5}), frozenset({0}), RESOLVED, 0)
        assert not equivalent_up_to_ambiguity(res, truth, spec)

    def test_prefix_run_block_is_unordered(self):
        # (5,{1,2}) on 12: L holds the top three, the bottom pair is a block.
        spec = ScaleSpec(5, (1, 2))
        truth = HiddenOrder.identity(12)
        res = SortResult((1, 0) + tuple(range(2, 9)), frozenset(), frozenset({9, 10, 11}),
                         RESOLVED, 0)
        assert equivalent_up_to_ambiguity(res, truth, spec)

    def test_prefix_run_rejects_swap_past_block(self):
        spec = ScaleSpec(5, (1, 2))
        truth = HiddenOrder.identity(12)
        res = SortResult((0, 2, 1) + tuple(range(3, 9)), frozenset(), frozenset({9, 10, 11}),
                         RESOLVED, 0)     # ranks 2 and 3 swapped
        assert not equivalent_up_to_ambiguity(res, truth, spec)

    def test_run_not_at_an_end_is_ordered(self):
        # (5,{2,3}): the run starts at 2, so S = {0} and ranks 2, 3 are ordered.
        spec = ScaleSpec(5, (2, 3))
        truth = HiddenOrder.identity(12)
        res = SortResult((2, 1) + tuple(range(3, 10)), frozenset({0}), frozenset({10, 11}),
                         RESOLVED, 0)     # ranks 2 and 3 swapped
        assert not equivalent_up_to_ambiguity(res, truth, spec)

    def test_suffix_run_block_is_unordered(self):
        spec = ScaleSpec(4, (3, 4))
        truth = HiddenOrder.identity(9)
        top_swapped = SortResult((2, 3, 4, 5, 6, 8, 7), frozenset({0, 1}), frozenset(),
                                 RESOLVED, 0)
        assert equivalent_up_to_ambiguity(top_swapped, truth, spec)
        below_block = SortResult((2, 3, 4, 6, 5, 7, 8), frozenset({0, 1}), frozenset(),
                                 RESOLVED, 0)
        assert not equivalent_up_to_ambiguity(below_block, truth, spec)

    def test_partition_mismatch_raises(self):
        spec = ScaleSpec(4, (2,))
        truth = HiddenOrder.identity(6)
        res = SortResult((1, 2), frozenset({0}), frozenset({4, 5}), RESOLVED, 0)
        with pytest.raises(PartitionError):
            equivalent_up_to_ambiguity(res, truth, spec)

