"""Adaptive pipeline tests: elimination, splitting, tournament, multi-output."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalesort.core import (
    HiddenOrder,
    Oracle,
    PreconditionError,
    RESOLVED,
    REFLECTION_AMBIGUOUS,
    ScaleError,
    ScaleSpec,
    SortResult,
    UnsupportedScaleError,
    equivalent_up_to_ambiguity,
    true_partition,
)
from scalesort.online import (
    MultiSortStats,
    _first_pass,
    _min_finder,
    _ordered_by_extraction,
    _partition,
    multi_elimination_bound,
    multi_sort_with_stats,
    singleton_sort,
    sort_online,
)


def first_pass(oracle):
    """The shared first pass on the full universe, with its stage counts."""
    stats = MultiSortStats()
    small, large, labelled = _first_pass(oracle, oracle.spec, list(range(oracle.n)), stats)
    return small, large, labelled, stats


class TestEliminateCandidates:
    def test_singleton_example(self):
        # (4,{2}) identity on 7: each query discards its answer until the
        # three extremes (one small, two large) remain.
        oracle = Oracle(HiddenOrder.identity(7), ScaleSpec(4, (2,)))
        small, large, _, stats = first_pass(oracle)
        assert small | large == {0, 5, 6}
        assert (stats.initial_elimination, stats.refinement) == (4, 0)

    def test_multi_example_with_refinement(self):
        # (6,{2,4}) identity on 12: the initial loop stops at four survivors
        # {0,8,10,11}; one refinement round with donors {1,2,3} catches 8.
        oracle = Oracle(HiddenOrder.identity(12), ScaleSpec(6, (2, 4)))
        small, large, _, stats = first_pass(oracle)
        assert small | large == {0, 10, 11}
        assert (stats.initial_elimination, stats.refinement) == (4, 3)  # C(3,2) refinement

    def test_minimum_scale(self):
        oracle = Oracle(HiddenOrder.identity(5), ScaleSpec(3, (1,)))
        small, large, _, _ = first_pass(oracle)
        assert small | large == {3, 4}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_candidates_are_exactly_the_extremes(self, seed):
        spec = ScaleSpec(6, (2, 4))
        order = HiddenOrder.from_seed(14, seed)
        oracle = Oracle(order, spec)
        small, large, _, _ = first_pass(oracle)
        s_true, _, l_true = true_partition(order, spec)
        assert small | large == set(s_true) | set(l_true)


class TestPartitionSL:
    def test_asymmetric_labeled(self):
        oracle = Oracle(HiddenOrder.identity(10), ScaleSpec(4, (2,)))
        small, large, labelled, stats = first_pass(oracle)
        assert small | large == {0, 8, 9}
        assert stats.partition == 3  # one query per candidate
        assert (small, large, labelled) == (frozenset({0}), frozenset({8, 9}), True)

    def test_symmetric_unknown(self):
        oracle = Oracle(HiddenOrder.identity(8), ScaleSpec(3, (2,)))
        small, large, labelled, _ = first_pass(oracle)
        assert {small, large} == {frozenset({0}), frozenset({7})}
        assert not labelled

    def test_multi_outcome_shapes(self):
        # (6,{2,4}) identity on 12: the small candidate is answered with
        # reference slots {1,3}, large candidates with {2,4}.
        oracle = Oracle(HiddenOrder.identity(12), ScaleSpec(6, (2, 4)))
        small, large, labelled, _ = first_pass(oracle)
        reference = sorted(set(range(12)) - small - large)[:5]
        assert reference == [1, 2, 3, 4, 5]
        assert _partition(oracle, oracle.spec, list(range(12)), small | large) == (
            small, large, labelled)
        assert small == frozenset({0})
        assert large == frozenset({10, 11})
        assert labelled


class TestTournament:
    def test_first_pass_query_count(self):
        # (3,{1}) identity on 11: nine middle elements in three blocks plus
        # one level-two block: four queries surface the first minimum, and
        # two more re-evaluate its chain before it is yielded.
        oracle = Oracle(HiddenOrder.identity(11), ScaleSpec(3, (1,)))
        found = []

        def find_min(block):
            out = oracle.query(list(block) + [9, 10][:3 - len(block)])
            found.append(next(iter(out)))
            return found[-1]

        assert next(_ordered_by_extraction(list(range(9)), 3, find_min)) == 0
        assert found == [0, 3, 6, 0, 1, 1]
        assert oracle.query_count == 6

    def test_singleton_element_costs_nothing(self):
        oracle = Oracle(HiddenOrder.identity(8), ScaleSpec(4, (2,)))
        find_min = _min_finder(oracle, [0], [6, 7], oracle.spec.k_prime)
        assert list(_ordered_by_extraction([3], oracle.spec.k_prime, find_min)) == [3]
        assert oracle.query_count == 0

    def test_stage_bound_and_order(self):
        spec = ScaleSpec(4, (2,))
        oracle = Oracle(HiddenOrder.identity(30), spec)
        find_min = _min_finder(oracle, [0], [28, 29], spec.k_prime)
        middle = list(range(1, 28))
        assert list(_ordered_by_extraction(middle, spec.k_prime, find_min)) == middle
        assert oracle.query_count <= 2 * 3 * 27  # depth 3 over 27 items

    def test_branching_below_two_is_refused(self):
        # Rows of one-item groups never shrink, so the hierarchy would grow forever.
        with pytest.raises(PreconditionError, match="branching >= 2"):
            list(_ordered_by_extraction([0, 1, 2], 1, min))

    def test_extraction_locality(self):
        # 27 items under branching 3: building the hierarchy costs 9 + 3 + 1
        # queries; each extraction then re-queries at most one block per row.
        spec = ScaleSpec(3, (1,))
        oracle = Oracle(HiddenOrder.identity(29), spec)
        find_min_calls = []
        inner = _min_finder(oracle, [], [27, 28], 3)

        def find_min(block):
            find_min_calls.append(1)
            return inner(block)

        ordered = _ordered_by_extraction(list(range(27)), 3, find_min)
        assert next(ordered) == 0
        assert len(find_min_calls) == 13 + 3
        for expected in range(1, 27):
            before = len(find_min_calls)
            assert next(ordered) == expected
            assert len(find_min_calls) - before <= 3


class TestSingletonPipeline:
    @pytest.mark.parametrize("k,t,n", [(4, 2, 9), (4, 3, 9), (2, 1, 6), (2, 2, 6),
                                       (5, 2, 12), (5, 5, 12), (3, 2, 9)])
    def test_seeded_equivalence(self, k, t, n):
        spec = ScaleSpec(k, (t,))
        for seed in range(8):
            order = HiddenOrder.from_seed(n, seed)
            oracle = Oracle(order, spec)
            res = singleton_sort(oracle)
            assert equivalent_up_to_ambiguity(res, order, spec)
            assert res.queries_used == oracle.query_count

    def test_symmetric_gets_reflection_flag(self):
        spec = ScaleSpec(3, (2,))
        oracle = Oracle(HiddenOrder.from_seed(10, 2), spec)
        assert singleton_sort(oracle).orientation == REFLECTION_AMBIGUOUS

    def test_rejects_multi(self):
        oracle = Oracle(HiddenOrder.identity(12), ScaleSpec(5, (2, 4)))
        with pytest.raises(UnsupportedScaleError):
            singleton_sort(oracle)


class TestMultiPipeline:
    def test_end_to_end_identity(self):
        spec = ScaleSpec(6, (2, 4))
        oracle = Oracle(HiddenOrder.identity(20), spec)
        res = sort_online(oracle)
        assert res.middle == tuple(range(1, 18))
        assert res.s_set == {0} and res.l_set == {18, 19}
        assert res.orientation == RESOLVED

    def test_prefix_rounds_trace(self):
        # ts - 1 = 3 and layers of size t1 - 1 = 1: three peeling rounds.
        spec = ScaleSpec(6, (2, 4))
        oracle = Oracle(HiddenOrder.identity(20), spec)
        _, stats = multi_sort_with_stats(oracle)
        assert stats.rounds == 3

    def test_symmetric_reflection(self):
        spec = ScaleSpec(5, (2, 4))
        for seed in range(6):
            order = HiddenOrder.from_seed(20, seed)
            oracle = Oracle(order, spec)
            res = sort_online(oracle)
            assert res.orientation == REFLECTION_AMBIGUOUS
            assert equivalent_up_to_ambiguity(res, order, spec)

    def test_reinsertion_when_layer_does_not_divide(self):
        # (7,{3,6}): layers of two, prefix of five: the last round re-inserts
        # one previously removed element.
        spec = ScaleSpec(7, (3, 6))
        for seed in range(6):
            order = HiddenOrder.from_seed(18, seed)
            oracle = Oracle(order, spec)
            res, stats = multi_sort_with_stats(oracle)
            assert stats.rounds == 3
            assert equivalent_up_to_ambiguity(res, order, spec)

    def test_direction_check_path(self):
        # (6,{2,3,5}) is asymmetric with equal segment sizes, so the split
        # stage cannot label; one closing query pins the direction.
        spec = ScaleSpec(6, (2, 3, 5))
        for seed in range(10):
            order = HiddenOrder.from_seed(16, seed)
            oracle = Oracle(order, spec)
            res = sort_online(oracle)
            assert res.orientation == RESOLVED
            assert equivalent_up_to_ambiguity(res, order, spec)

    def test_per_stage_counts(self):
        spec = ScaleSpec(6, (2, 5))
        for seed in range(6):
            n = 21
            oracle = Oracle(HiddenOrder.from_seed(n, seed), spec)
            _, stats = multi_sort_with_stats(oracle)
            assert stats.initial_elimination <= multi_elimination_bound(n, spec)
            # exactly one query per extreme element
            assert stats.partition == spec.s_size + spec.l_size == 2
            assert stats.refinement <= (2 * spec.k) ** (spec.k + 1)

    @pytest.mark.parametrize("spec_text,n,bound", [
        ("7:2,6", 10_000, 4_998), ("6:2,5", 21, 9), ("4:2,3", 9, 4)])
    def test_elimination_bound_is_exact(self, spec_text, n, bound):
        # ceil((n - (k - s)) / s); the pipeline tests only check <= it.
        assert multi_elimination_bound(n, ScaleSpec.parse(spec_text)) == bound

    def test_suffix_run_mirrors(self):
        # (4,{3,4}) reports the top two: handled through the mirrored
        # prefix-run path; the top pair itself is unorderable.
        spec = ScaleSpec(4, (3, 4))
        order = HiddenOrder.identity(12)
        oracle = Oracle(order, spec)
        res = sort_online(oracle)
        assert res.s_set == {0, 1} and res.l_set == frozenset()
        assert res.middle == tuple(range(2, 12))

    def test_unsupported_shapes(self):
        with pytest.raises(UnsupportedScaleError):
            sort_online(Oracle(HiddenOrder.identity(11), ScaleSpec(5, (1, 3))))
        with pytest.raises(UnsupportedScaleError):
            sort_online(Oracle(HiddenOrder.identity(9), ScaleSpec(4, (1, 2, 4))))
        # Position k without a consecutive suffix.
        with pytest.raises(UnsupportedScaleError):
            sort_online(Oracle(HiddenOrder.identity(11), ScaleSpec(5, (3, 5))))
        with pytest.raises(UnsupportedScaleError):
            sort_online(Oracle(HiddenOrder.identity(11), ScaleSpec(5, (2, 4, 5))))


class TestPrefixRunInstrument:
    """(5,{1,2}) reports its two smallest: the two globally smallest elements
    appear in every outcome that includes them, so their mutual order is
    invisible to any algorithm; everything else is recovered exactly."""

    def test_block_is_unorderable_but_rest_is_exact(self):
        spec = ScaleSpec(5, (1, 2))
        for seed in range(20):
            order = HiddenOrder.from_seed(12, seed)
            oracle = Oracle(order, spec)
            res = sort_online(oracle)
            _, mid_true, l_true = true_partition(order, spec)
            assert res.l_set == l_true
            assert set(res.middle[:2]) == set(mid_true[:2])
            assert res.middle[2:] == mid_true[2:]
            assert res.middle[:2] == tuple(sorted(res.middle[:2]))  # label order

    def test_identity_happens_to_match(self):
        spec = ScaleSpec(5, (1, 2))
        order = HiddenOrder.identity(20)
        oracle = Oracle(order, spec)
        res = sort_online(oracle)
        assert equivalent_up_to_ambiguity(res, order, spec)


# (seed, sha256 of the transcript, sha256 of the result) of one online sort at
# n = 2,000, pinned when the elimination still re-sorted its pool per query.
PINNED = {
    "4:2": (1, "d6840ad5e5e5faf0d468bc3a51cee8964408850f0988787b796a4b9e2e5f23c1",
               "0e799aaf5aaaa0aabe83bac00a048d7a02b65c2c44d8d516b3cc634db3809b89"),
    "4:3": (2, "c23894bdbe1babd52e8b4df7892e1f68ce3e69d08587f442c2113691379daf8a",
               "d8e6f6d3acf90a1c38169acefd239def2b3308882a6abe681ad9225dbc268b2f"),
    "7:2,6": (3, "748f1aca51a56e3cc4f01b0f8c6abb46c22d34369573c55b0c04cea3d4314bb3",
                 "2b3ed307e598c52edc6cb838a7e68979d634f3aa17ebb9b588febe9852ac1853"),
    "5:1,2": (4, "7adc06c8a203b543742100ce02cc1265735a2608d94283777bf52b9c3099f686",
                 "5299152167028d74f1557e6811fc78fb8839f680bf60f43a134628579857a090"),
    "4:3,4": (5, "33cd4d724010c557d15ad6a5bfc5e4f0887331143d002d7f9d5bcf9aa1440f8a",
                 "79a5dc5efcde1e94b45b04406321990ed1f58f1fd3c619cae0ccb00f3f0b5ced"),
    "6:2,5": (6, "06c18211217af32629d24c0c052144424e10b31f99af608e9074e27daff59dfa",
                 "c36ba62dc7ba056303fc42bd5ca7b324857e43e39cecee5357c923fce64a9962"),
    # The two below were pinned before the block hierarchy became a generator.
    # A knockout whose queries hold three remnant members (t1 = 3).
    "8:3,7": (7, "eca584c78c239c3594e5a01a248b07b8397009def10844c40410eae4af365af3",
                 "db8a00ae9ee7163836fdb352542e6fa1f3ca6a4bda11c317f71bf412693661e0"),
    # Asymmetric with equal segment sizes: the closing direction check runs.
    "6:2,3,5": (8, "ddc449da36d0fa582056ebde93ea53998d7a91c9914c517b38bc44287ef06efd",
                   "a1271b6ab936d1c5036ec4d28b46425b79c78c5e32277ef57ff0f3edb1ae9608"),
}


@pytest.mark.parametrize("spec_text", PINNED)
def test_online_transcripts_are_pinned(spec_text):
    # The query sequence is the paper's cost measure: a speed-up must issue
    # exactly the queries, and return exactly the result, pinned here.
    seed, transcript_sha, result_sha = PINNED[spec_text]
    oracle = Oracle(HiddenOrder.from_seed(2000, seed), ScaleSpec.parse(spec_text))
    res = sort_online(oracle)
    digest = lambda value: hashlib.sha256(repr(value).encode()).hexdigest()
    assert digest(list(oracle.transcript)) == transcript_sha
    assert digest((res.middle, sorted(res.s_set), sorted(res.l_set), res.orientation,
                   res.queries_used)) == result_sha


# (initial_elimination, refinement, partition, rounds, extra) of the same
# multi-output sorts, pinned when each stage still kept its own counter.
PINNED_STAGES = {
    "7:2,6": (998, 45, 2, 5, 0),
    "5:1,2": (999, 0, 3, 1, 665),
    "4:3,4": (999, 0, 2, 1, 998),
    "6:2,5": (998, 13, 2, 4, 0),
    "8:3,7": (997, 48, 3, 3, 0),
    "6:2,3,5": (666, 10, 2, 4, 0),
}


@pytest.mark.parametrize("spec_text", PINNED_STAGES)
def test_online_stage_counts_are_pinned(spec_text):
    oracle = Oracle(HiddenOrder.from_seed(2000, PINNED[spec_text][0]), ScaleSpec.parse(spec_text))
    _, stats = multi_sort_with_stats(oracle)
    assert (stats.initial_elimination, stats.refinement, stats.partition, stats.rounds,
            stats.extra) == PINNED_STAGES[spec_text]


def _sweep_cases():
    """Singletons k = 2..7 at every t and n = k+1..2k+4, then every
    multi-output position set with k = 3..7 at n = 2k+3."""
    for k in range(2, 8):
        for t in range(1, k + 1):
            for n in range(k + 1, 2 * k + 5):
                yield ScaleSpec(k, (t,)), n
    for k in range(3, 8):
        for s in range(2, k):
            for outputs in itertools.combinations(range(1, k + 1), s):
                yield ScaleSpec(k, outputs), 2 * k + 3


# sha256 over repr((transcript, result or error class name)) of 920 small
# online sorts, pinned while singletons still had a pipeline of their own.
PINNED_SWEEP = "826bc2a6757cf8ba3bcc09b65bf0eefeb3e87a526646ab35f577ddc07d633fcb"


def test_small_sweep_is_pinned():
    # Every shape, every size from the small-pool fallback up, both
    # orientations and every error path: one digest over all of them.
    digest = hashlib.sha256()
    count = 0
    for spec, n in _sweep_cases():
        for seed in (0, 1):
            oracle = Oracle(HiddenOrder.from_seed(n, seed), spec)
            try:
                res = sort_online(oracle)
            except ScaleError as exc:
                res = type(exc).__name__
            digest.update(repr((list(oracle.transcript), res)).encode())
            count += 1
    assert count == 920
    assert digest.hexdigest() == PINNED_SWEEP


def _mirrored_cases():
    """Every shape with k <= 7 read as its mirror: singletons with 2t > k+1
    at n = k+1..2k+4, suffix runs k-j+1..k at n = 2k+1 and 2k+3."""
    for k in range(2, 8):
        for t in range((k + 1) // 2 + 1, k + 1):
            for n in range(k + 1, 2 * k + 5):
                yield ScaleSpec(k, (t,)), n
        for j in range(2, k):
            for n in (2 * k + 1, 2 * k + 3):
                yield ScaleSpec(k, tuple(range(k - j + 1, k + 1))), n


def _sort_or_error(oracle):
    try:
        return sort_online(oracle)
    except ScaleError as exc:
        return type(exc).__name__


def test_mirroring_is_only_a_relabelling():
    # An instrument read against the reversed order is its mirror, so the
    # mirror sorting the reversed order must ask the same queries and find
    # the mirror image of the same result, its top end block in label order.
    count = 0
    for spec, n in _mirrored_cases():
        for seed in range(3):
            order = HiddenOrder.from_seed(n, seed)
            oracle = Oracle(order, spec)
            mirror = Oracle(order.reversed_(), spec.mirrored())
            res, expected = _sort_or_error(oracle), _sort_or_error(mirror)
            assert list(oracle.transcript) == list(mirror.transcript), (spec.text, n, seed)
            if isinstance(expected, SortResult):
                middle = expected.middle[::-1]
                cut = len(middle) - spec.top_block_size
                expected = SortResult(middle[:cut] + tuple(sorted(middle[cut:])), expected.l_set,
                                      expected.s_set, expected.orientation, expected.queries_used)
            assert res == expected, (spec.text, n, seed)
            count += 1
    assert count == 420


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6), st.data())
def test_singleton_bound_holds_on_every_trial(k, seed, data):
    t = data.draw(st.integers(1, k))
    n = data.draw(st.integers(max(k + 1, 2 * k - 2), 60))
    spec = ScaleSpec(k, (t,))
    order = HiddenOrder.from_seed(n, seed)
    oracle = Oracle(order, spec)
    res = singleton_sort(oracle)
    from scalesort.harness import online_singleton_bound
    assert res.queries_used <= online_singleton_bound(n, spec)
    assert equivalent_up_to_ambiguity(res, order, spec)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 7), st.integers(0, 10**6), st.data())
def test_multi_equivalence_on_random_instruments(k, seed, data):
    # Random multi-output instruments away from the degenerate ends.
    s = data.draw(st.integers(2, k - 2))
    positions = data.draw(st.permutations(range(2, k)).map(
        lambda p: tuple(sorted(p[:s]))))
    spec = ScaleSpec(k, positions)
    n = data.draw(st.integers(2 * k + 1, 2 * k + 12))
    order = HiddenOrder.from_seed(n, seed)
    oracle = Oracle(order, spec)
    res = sort_online(oracle)
    assert equivalent_up_to_ambiguity(res, order, spec)


def _reference_extraction(items, branching, find_min):
    """Reference for `_ordered_by_extraction`: the same hierarchy kept as flat
    rows of cached minima, emptied entries holding None, and a helper that
    filters and settles each group."""

    def resolve(group):
        if None in group:
            group = [v for v in group if v is not None]
        if len(group) > 1:
            return find_min(group)
        return group[0] if group else None

    blocks = [items[i:i + branching] for i in range(0, len(items), branching)]
    home = {e: i for i, block in enumerate(blocks) for e in block}
    rows = [[resolve(block) for block in blocks]]
    while len(rows[-1]) > 1:
        below = rows[-1]
        rows.append([resolve(below[i:i + branching]) for i in range(0, len(below), branching)])
    for _ in items:
        value = rows[-1][0]
        idx = home[value]
        group = blocks[idx]
        group.remove(value)
        for row in rows:
            row[idx] = resolve(group)
            idx //= branching
            lo = idx * branching
            group = row[lo:lo + branching]
        yield value


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.integers(0, 80).flatmap(
    lambda size: st.tuples(st.permutations(range(size)), st.permutations(range(size)))))
def test_extraction_asks_what_the_reference_asks(branching, labels_and_ranks):
    # Same yields and the same find_min groups, as sets, in the same order
    # relative to each other and to the yields.
    items, ranks = labels_and_ranks
    logs = []
    for extract in (_reference_extraction, _ordered_by_extraction):
        log = []

        def find_min(group):
            log.append(frozenset(group))
            assert len(log[-1]) == len(group) >= 2
            return min(group, key=ranks.__getitem__)

        for value in extract(list(items), branching, find_min):
            log.append(value)
        logs.append(log)
    assert logs[0] == logs[1]
    assert [v for v in logs[1] if type(v) is int] == sorted(items, key=ranks.__getitem__)
