"""Core model tests: instruments, oracle evaluation, result equivalence."""

import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalesort import core
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
    outcome_of,
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

    def test_read_side(self):
        # Every valid instrument with k <= 9: only a singleton with 2t > k+1
        # and a suffix run k-j+1..k (j >= 2) are read as their mirrors, and a
        # read side reads as itself.
        mirrored = 0
        for k in range(2, 10):
            for s in range(1, k):
                for outputs in itertools.combinations(range(1, k + 1), s):
                    spec = ScaleSpec(k, outputs)
                    flip = (s == 1 and 2 * outputs[0] > k + 1
                            or s >= 2 and outputs == tuple(range(k - s + 1, k + 1)))
                    assert spec.read_side == (spec.mirrored() if flip else spec)
                    assert spec.read_side.read_side == spec.read_side
                    mirrored += flip
        # k // 2 singletons and k - 2 suffix runs for each k.
        assert mirrored == sum(k // 2 + k - 2 for k in range(2, 10))


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
        # elements at in-query ranks 2 and 6, whatever iterable carries it,
        # and each transcript entry holds the sorted query and outcome.
        oracle = Oracle(HiddenOrder.identity(8), ScaleSpec(7, (2, 6)))
        ids = [6, 0, 5, 1, 4, 2, 3]
        for query in (range(7), ids, tuple(ids), set(ids), iter(ids), (e for e in ids)):
            assert oracle.query(query) == {1, 5}
        assert list(oracle.transcript) == [(tuple(range(7)), (1, 5))] * 6

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
        # The checks run in a fixed order: size, then duplicates, then range.
        oracle = Oracle(HiddenOrder.identity(6), ScaleSpec(3, (2,)))
        oracle.query((0, 1, 2))
        rejected = [
            ((0, 1), QuerySizeError, r"exactly 3 elements, got 2"),
            ((17, 17), QuerySizeError, r"exactly 3 elements, got 2"),
            ((0, 1, 1), DuplicateElementError, r"duplicate"),
            ((17, 17, 0), DuplicateElementError, r"duplicate"),
            ((0, 1, 17), UnknownElementError, r"element id 17 outside \[0, 6\)"),
            ((0, 1, -1), UnknownElementError, r"element id -1 outside \[0, 6\)"),
            ((2, 6, 1), UnknownElementError, r"element id 6 outside \[0, 6\)"),
            ((-1, 3, 17), UnknownElementError, r"element id (-1|17) outside \[0, 6\)"),
        ]
        for query, error, message in rejected:
            with pytest.raises(error, match=message):
                oracle.query(query)
            assert oracle.query_count == len(oracle.transcript) == 1
        assert list(oracle.transcript) == [((0, 1, 2), (1,))]

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
        from scalesort.online import sort_online
        oracle = Oracle(HiddenOrder.identity(10), ScaleSpec(5, (2, 4)))
        with pytest.raises(PreconditionError):
            sort_online(oracle)                                      # s>1 sorting needs n > 2k


class TestTranscript:
    """Oracle.transcript is a read-only snapshot that behaves like a list of pairs."""

    @staticmethod
    def _oracle():
        oracle = Oracle(HiddenOrder.identity(8), ScaleSpec(5, (2, 4)))
        for query in ([7, 0, 3, 5, 1], [2, 4, 6, 1, 0], [0, 1, 2, 3, 4]):
            oracle.query(query)
        return oracle

    PAIRS = [((0, 1, 3, 5, 7), (1, 5)), ((0, 1, 2, 4, 6), (1, 4)), ((0, 1, 2, 3, 4), (1, 3))]

    def test_len_index_and_iteration(self):
        view = self._oracle().transcript
        assert len(view) == 3
        assert list(view) == self.PAIRS

    def test_view_is_a_snapshot(self):
        oracle = self._oracle()
        view = oracle.transcript
        oracle.query([3, 4, 5, 6, 7])
        assert list(view) == self.PAIRS and len(view) == 3
        assert list(oracle.transcript) == self.PAIRS + [((3, 4, 5, 6, 7), (4, 6))]
        assert oracle.query_count == 4

    @pytest.mark.parametrize("query,error", [
        ([0, 1, 2, 3], QuerySizeError),
        ([0, 1, 2, 3, 4, 5], QuerySizeError),
        ([0, 1, 2, 3, 3], DuplicateElementError),
        ([0, 1, 2, 3, 8], UnknownElementError),
        ([-1, 1, 2, 3, 4], UnknownElementError),
        ([0, 1, 2, 3, 4.5], TypeError),
    ])
    def test_rejected_query_writes_nothing(self, query, error):
        oracle = self._oracle()
        with pytest.raises(error):
            oracle.query(query)
        assert oracle.query_count == 3
        assert list(oracle.transcript) == self.PAIRS
        # A partial write would shift every later entry.
        oracle.query([3, 4, 5, 6, 7])
        assert list(oracle.transcript) == self.PAIRS + [((3, 4, 5, 6, 7), (4, 6))]

    def test_store_chunks_hold_whole_queries(self, monkeypatch):
        # A 5:2,4 query takes 7 one-byte ids at n = 8, so chunks of 14 or of
        # 20 bytes hold two queries each, never a part of one: 7 queries
        # fill three chunks and start a fourth.
        for chunk_bytes in (14, 20):
            monkeypatch.setattr(core, "STORE_CHUNK_BYTES", chunk_bytes)
            oracle = Oracle(HiddenOrder.identity(8), ScaleSpec(5, (2, 4)))
            rng = random.Random(chunk_bytes)
            expected = []
            for _ in range(7):
                query = rng.sample(range(8), 5)
                oracle.query(query)
                expected.append((tuple(sorted(query)),
                                 tuple(sorted(outcome_of(range(1, 9), (2, 4), query)))))
                view = oracle.transcript
                assert oracle.query_count == len(view) == len(expected)
                assert list(view) == expected
            assert len(oracle._chunks) == 4
            assert all(len(chunk) == 14 for chunk in oracle._chunks[:-1])
            oracle.query([3, 4, 5, 6, 7])
            assert list(view) == expected and len(view) == 7

    @pytest.mark.parametrize("n,itemsize", [(256, 1), (257, 2), (65536, 2), (65537, 4)])
    def test_store_width_follows_n(self, n, itemsize):
        # Ids are stored in the narrowest array type that holds n - 1, and
        # each chunk holds as many whole queries as fit in 64 KiB.
        spec = ScaleSpec(5, (2, 4))
        oracle = Oracle(HiddenOrder.identity(n), spec)
        rows = core.STORE_CHUNK_BYTES // (itemsize * 7)
        top = list(range(n - 5, n))
        for i in range(rows):
            oracle.query([i % (n - 5)] + top[1:])
        oracle.query(top)
        with pytest.raises(TypeError):
            oracle.query(top[:4] + [0.5])
        first, second = oracle._chunks
        assert first.itemsize == second.itemsize == itemsize
        assert len(first) == 7 * rows and len(second) == 7
        assert core.STORE_CHUNK_BYTES - 7 * itemsize < len(first) * itemsize <= (
            core.STORE_CHUNK_BYTES)
        view = oracle.transcript
        assert oracle.query_count == len(view) == rows + 1
        entries = list(view)
        assert entries[0] == ((0, n - 4, n - 3, n - 2, n - 1), (n - 4, n - 2))
        assert entries[-1] == (tuple(top), (n - 4, n - 2))

    def test_retained_memory_per_query(self):
        # One 4:2 online sort at n = 10**4 keeps 2 * (k + s) = 10 bytes per
        # query in its 2-byte store, plus at most one chunk of growth slack;
        # 4-byte ids kept 20, and a list of (tuple, tuple) pairs about 184.
        from scalesort.online import sort_online
        order = HiddenOrder.from_seed(10_000, 1)
        gc.collect()
        tracemalloc.start()
        try:
            oracle = Oracle(order, ScaleSpec(4, (2,)))
            sort_online(oracle)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        mine = snapshot.filter_traces([tracemalloc.Filter(True, core.__file__)])
        retained = sum(stat.size for stat in mine.statistics("filename"))
        assert oracle.query_count > 90_000
        assert retained <= 2 * 5 * oracle.query_count + core.STORE_CHUNK_BYTES


def _check_query_against_outcome_of(spec_text: str, n: int) -> Oracle:
    """400 seeded queries: each outcome is outcome_of's, and the transcript
    holds each query and outcome as sorted tuples."""
    spec = ScaleSpec.parse(spec_text)
    order = HiddenOrder.from_seed(n, 11)
    oracle = Oracle(order, spec)
    rng = random.Random(spec_text)
    expected = []
    for _ in range(400):
        query = rng.sample(range(n), spec.k)
        outcome = outcome_of(order.ranks, spec.outputs, query)
        assert oracle.query(query) == outcome
        expected.append((tuple(sorted(query)), tuple(sorted(outcome))))
    assert list(oracle.transcript) == expected
    assert oracle.query_count == len(expected)
    return oracle


# The specs whose online transcripts tests/test_online.py pins.
@pytest.mark.parametrize("spec_text", ["4:2", "4:3", "7:2,6", "5:1,2", "4:3,4", "6:2,5"])
def test_query_matches_outcome_of(spec_text):
    """Seeded differential check: Oracle.query against the bare outcome_of."""
    _check_query_against_outcome_of(spec_text, 3 * ScaleSpec.parse(spec_text).k)


@pytest.mark.parametrize("n,itemsize", [(300, 2), (70_000, 4)])
@pytest.mark.parametrize("spec_text", ["4:3", "7:2,6"])
def test_query_matches_outcome_of_at_every_id_width(spec_text, n, itemsize):
    """The same check on the 2-byte and the 4-byte store (n = 3k has 1-byte ids)."""
    oracle = _check_query_against_outcome_of(spec_text, n)
    assert oracle._chunks[0].itemsize == itemsize


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


def _producible(queries, s_set, middle, l_set, outputs):
    """Outcome sets each query can take over every reading with S and L permuted."""
    found = {q: set() for q in queries}
    for low in itertools.permutations(sorted(s_set)):
        for high in itertools.permutations(sorted(l_set)):
            ranks = {e: r for r, e in enumerate(low + tuple(middle) + high)}
            for q in queries:
                found[q].add(outcome_of(ranks, outputs, q))
    return found


# Empty S (3:1), empty L (4:4), both empty (4:1,4), symmetric (3:2),
# multi-output (5:2,4).  Segments two larger than the instrument's let
# tied segment keys reach an output position while a tied member stays out
# of the query; there only the check that the outcome lies inside its
# query tells the outsider apart.
@pytest.mark.parametrize("spec_text", ["3:1", "4:4", "4:1,4", "3:2", "5:2,4"])
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("grow", [0, 2])
def test_first_contradiction_matches_brute_force(spec_text, n, grow):
    spec = ScaleSpec.parse(spec_text)
    reading = HiddenOrder.from_seed(n, n + grow).by_rank
    s_size, l_size = spec.s_size + grow, spec.l_size + grow
    s_set, l_set = frozenset(reading[:s_size]), frozenset(reading[n - l_size:])
    middle = reading[s_size:n - l_size]
    queries = list(itertools.combinations(range(n), spec.k))
    producible = _producible(queries, s_set, middle, l_set, spec.outputs)
    for q in queries:
        candidates = [frozenset(o) for o in itertools.combinations(q, spec.s)]
        # One outcome swaps a member for an outsider, from the same segment
        # when the query leaves one out.
        real = min(producible[q], key=sorted)
        x = min(real)
        tied = s_set if x in s_set else l_set if x in l_set else frozenset()
        outsiders = sorted(tied - set(q)) or sorted(set(range(n)) - set(q))
        candidates.append(real - {x} | {outsiders[0]})
        for o in candidates:
            expected = o in producible[q]
            for entry in ((q, o), (tuple(sorted(q)), tuple(sorted(o)))):
                found = core.first_contradiction([entry], middle, s_set, l_set, spec.outputs)
                assert (found is None) == expected, (spec_text, q, sorted(o))


def test_first_contradiction_names_the_first_bad_entry():
    spec = ScaleSpec(4, (2,))
    middle, s_set, l_set = (1, 2, 3, 4), {0}, {5, 6}
    good = ((0, 1, 2, 3), (1,))
    wrong = ((1, 2, 3, 4), (3,))
    unknown = ((1, 2, 3, 9), (2,))
    assert core.first_contradiction([good], middle, s_set, l_set, spec.outputs) is None
    assert core.first_contradiction([good, wrong, unknown], middle, s_set, l_set,
                                    spec.outputs) == wrong
    # An id no hypothesis places, or a query too short to reach an output
    # position, contradicts it; no KeyError or IndexError escapes.
    assert core.first_contradiction([good, unknown], middle, s_set, l_set,
                                    spec.outputs) == unknown
    short = ((1,), (1,))
    assert core.first_contradiction([good, short], middle, s_set, l_set,
                                    spec.outputs) == short
    # Too few or too many outcome ids, a repeated one or an extra outsider
    # never match.
    for o in ((), (1, 2), (1, 1), (1, 5)):
        assert core.first_contradiction([((0, 1, 2, 3), o)], middle, s_set, l_set,
                                        spec.outputs) == ((0, 1, 2, 3), o)


@pytest.mark.parametrize("spec_text", ["4:2", "5:2,4"])
def test_first_contradiction_with_repeated_outcomes(spec_text):
    # Each wrong answer is an outcome object that already answered an
    # earlier query truly, so a check that remembers an outcome's verdict
    # misses it.  The same entries also arrive as fresh tuples or
    # frozensets, built one at a time so that freed ids get reused.
    spec = ScaleSpec.parse(spec_text)
    n = 10
    order = HiddenOrder.from_seed(n, 6)
    s_set, middle, l_set = core.true_partition(order, spec)
    shared: dict = {}
    truth = [(q, shared.setdefault(o, o))
             for q in itertools.combinations(range(n), spec.k)
             for o in [outcome_of(order.ranks, spec.outputs, q)]]

    def holds(q, o):
        return (len(o) == len(set(o)) == spec.s
                and frozenset(o) == outcome_of(order.ranks, spec.outputs, q))

    forms = {"shared": lambda q, o: (q, o), "tuple": lambda q, o: (q, tuple(sorted(o))),
             "frozenset": lambda q, o: (q, frozenset(o)),
             "mixed": lambda q, o: (q, tuple(sorted(o)) if q[0] % 2 else frozenset(o))}
    rng = random.Random(2)
    for _ in range(12):
        entries = list(truth)
        for j in sorted(rng.sample(range(len(entries) // 3, len(entries)), 2)):
            q = entries[j][0]
            earlier = [o for _, o in entries[:j] if not holds(q, o)]
            entries[j] = (q, rng.choice(earlier))
        first_bad = next(i for i, (q, o) in enumerate(entries) if not holds(q, o))
        assert any(o is entries[first_bad][1] for _, o in entries[:first_bad])
        for form in forms.values():
            found = core.first_contradiction((form(q, o) for q, o in entries), middle,
                                             s_set, l_set, spec.outputs)
            assert found == form(*entries[first_bad])
        assert core.first_contradiction(truth, middle, s_set, l_set, spec.outputs) is None


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

