"""Harness tests: consistency oracle, experiment reports, bench determinism."""

import itertools
import json

import pytest

from scalesort.core import (
    RESOLVED,
    REFLECTION_AMBIGUOUS,
    HiddenOrder,
    Oracle,
    PreconditionError,
    ScaleSpec,
    SortResult,
    equivalent_up_to_ambiguity,
    true_partition,
)
from scalesort.harness import (
    OFFLINE,
    ambiguity_class,
    algorithm_bound,
    bench_sweep,
    ceil_log,
    consistent_permutations,
    online_singleton_bound,
    rows_to_csv,
    run_algorithm,
    run_experiment,
    verify_information_maximality,
)


class TestConsistentPermutations:
    def test_empty_transcript(self):
        report = consistent_permutations([], 4, ScaleSpec(3, (2,)))
        assert len(report.consistent_orders) == 24

    def test_symmetric_full_information(self):
        # All C(5,3) answers of a (3,{2}) instrument pin the order up to
        # reflection (the one-element segments swap along): two survivors.
        spec = ScaleSpec(3, (2,))
        oracle = Oracle(HiddenOrder.identity(5), spec)
        for combo in itertools.combinations(range(5), 3):
            oracle.query(combo)
        report = consistent_permutations(oracle.transcript, 5, spec)
        assert len(report.consistent_orders) == 2
        assert set(report.consistent_orders) == ambiguity_class(HiddenOrder.identity(5), spec)

    def test_asymmetric_full_information(self):
        # (4,{2}) on 6: 1! * 2! free segment permutations remain.
        spec = ScaleSpec(4, (2,))
        oracle = Oracle(HiddenOrder.identity(6), spec)
        for combo in itertools.combinations(range(6), 4):
            oracle.query(combo)
        report = consistent_permutations(oracle.transcript, 6, spec)
        assert len(report.consistent_orders) == 2
        assert set(report.consistent_orders) == ambiguity_class(HiddenOrder.identity(6), spec)

    def test_size_cap(self):
        with pytest.raises(PreconditionError):
            consistent_permutations([], 10, ScaleSpec(3, (2,)))

    @pytest.mark.parametrize("spec,n", [
        (ScaleSpec(4, (2,)), 8),
        (ScaleSpec(3, (2,)), 7),
        (ScaleSpec(5, (2,)), 8),
    ])
    def test_count_floor_and_parity(self, spec, n):
        # The extreme-segment permutations are always free, so any transcript
        # keeps at least (t1-1)!*(k-ts)! orders; symmetric instruments add the
        # reflected readings, making the count even for middles of >= 2.
        from math import factorial
        order = HiddenOrder.from_seed(n, 4)
        oracle = Oracle(order, spec)
        import itertools as it
        for combo in it.combinations(range(n), spec.k):
            oracle.query(combo)
        report = consistent_permutations(oracle.transcript, n, spec)
        floor = factorial(spec.s_size) * factorial(spec.l_size)
        assert len(report.consistent_orders) >= floor
        if spec.is_symmetric:
            assert len(report.consistent_orders) % 2 == 0


class TestAmbiguityClass:
    def test_counts(self):
        spec = ScaleSpec(4, (2,))
        truth = HiddenOrder.identity(7)
        cls = ambiguity_class(truth, spec)
        assert len(cls) == 2  # 1! * 2!, no reflection
        sym = ScaleSpec(3, (2,))
        assert len(ambiguity_class(truth, sym)) == 2  # 1! * 1! * 2 readings

    def test_contains_truth(self):
        truth = HiddenOrder.from_seed(7, 3)
        assert truth.ranks in ambiguity_class(truth, ScaleSpec(4, (2,)))


def _reading(ranks, spec):
    """The SortResult an algorithm would return if `ranks` were the truth."""
    s_set, middle, l_set = true_partition(HiddenOrder(ranks), spec)
    orientation = REFLECTION_AMBIGUOUS if spec.is_symmetric else RESOLVED
    return SortResult(middle, s_set, l_set, orientation, 0)


@pytest.mark.parametrize("text,n", [
    ("3:1,2", 7), ("4:1,2", 9), ("4:1,2,3", 9), ("4:3,4", 9), ("4:2,3,4", 9),
    ("5:1,2", 8), ("5:1,2", 9),
])
def test_end_block_class_is_exact(text, n):
    # Complete information: every C(n, k) answer.  The orders consistent
    # with it are exactly the ambiguity class, so the end block of a
    # reported run 1..j or k-j+1..k is as unorderable as S and L and
    # nothing else is.
    spec = ScaleSpec.parse(text)
    truth = HiddenOrder.from_seed(n, 6)
    oracle = Oracle(truth, spec)
    for combo in itertools.combinations(range(n), spec.k):
        oracle.query(combo)
    report = consistent_permutations(oracle.transcript, n, spec)
    cls = ambiguity_class(truth, spec)
    assert set(report.consistent_orders) == cls
    # The equivalence relation draws the same line: it accepts the reading
    # of every order in the class and rejects every adjacent swap outside it.
    for ranks in cls:
        assert equivalent_up_to_ambiguity(_reading(ranks, spec), truth, spec)
    for r in range(1, n):
        swapped = tuple(r + 1 if x == r else r if x == r + 1 else x for x in truth.ranks)
        assert equivalent_up_to_ambiguity(_reading(swapped, spec), truth, spec) == (
            swapped in cls)


@pytest.mark.parametrize("text,n", [
    ("3:1,2", 7), ("3:1,2", 8), ("3:1,2", 9),
    ("3:2,3", 7), ("3:2,3", 8), ("3:2,3", 9),
    ("4:1,2", 9), ("4:3,4", 9), ("4:1,2,3", 9),
])
def test_end_block_pipeline_is_information_maximal(text, n):
    # The multi-output pipeline claims exactly what its transcript supports.
    assert verify_information_maximality(ScaleSpec.parse(text), n, "online", seed=n)


class TestBounds:
    def test_ceil_log(self):
        assert ceil_log(3, 9) == 2
        assert ceil_log(3, 10) == 3
        assert ceil_log(2, 2) == 1
        assert ceil_log(2, 1) == 1

    def test_online_bound_shape(self):
        # n + 2 * d * n' with d the grid depth over n' = n - (k-1).
        spec = ScaleSpec(4, (2,))
        assert online_singleton_bound(30, spec) == 30 + 2 * 3 * 27

    def test_algorithm_bounds(self):
        spec = ScaleSpec(3, (2,))
        assert algorithm_bound("offline_adjacency", 10, spec) == 108
        assert algorithm_bound("offline_recursive", 10, spec) == 109
        assert algorithm_bound("online", 10, spec) == online_singleton_bound(10, spec)
        assert algorithm_bound("online", 20, ScaleSpec(5, (2, 4))) is None
        # The plans of the offline table bound its sorts exactly.
        for algorithm in (f"offline_{name}" for name in OFFLINE):
            oracle = Oracle(HiddenOrder.from_seed(10, 4), spec)
            used = run_algorithm(oracle, algorithm).queries_used
            assert algorithm_bound(algorithm, 10, spec) == used


class TestRunExperiment:
    def test_online_bound_and_correctness(self):
        spec = ScaleSpec(4, (2,))
        report, _ = run_experiment(spec, 30, "online", seed=7)
        assert report.correct and report.bound_satisfied
        assert report.queries_used <= 30 + 2 * 3 * 27

    def test_offline_exact_counts(self):
        report, _ = run_experiment(ScaleSpec(3, (2,)), 10, "offline_adjacency", seed=0)
        assert report.queries_used == 108
        report, _ = run_experiment(ScaleSpec(4, (2,)), 12, "offline_recursive", seed=0)
        assert report.queries_used == 661

    def test_explicit_order(self):
        spec = ScaleSpec(3, (2,))
        order = HiddenOrder((3, 1, 2, 5, 4, 6, 7))
        report, _ = run_experiment(spec, 7, "online", order=order)
        assert report.correct

    def test_requires_one_source(self):
        with pytest.raises(PreconditionError):
            run_experiment(ScaleSpec(3, (2,)), 7, "online")
        with pytest.raises(PreconditionError):
            run_experiment(ScaleSpec(3, (2,)), 7, "online", seed=1,
                           order=HiddenOrder.identity(7))

    def test_report_json_stable_without_timing(self):
        report, _ = run_experiment(ScaleSpec(3, (2,)), 9, "online", seed=3)
        again, _ = run_experiment(ScaleSpec(3, (2,)), 9, "online", seed=3)
        assert report.to_json() == again.to_json()
        assert json.loads(report.to_json())["wall_time_ms"] is None


class TestBenchSweep:
    def test_rows_and_ratio(self):
        rows = bench_sweep(ScaleSpec(4, (2,)), [20, 40], 2, ["online"])
        assert len(rows) == 4
        for row in rows:
            assert row["correct"]
            assert 0 < row["ratio"] <= 1
        # A one-shot iterator of algorithms serves every (n, trial) as well.
        assert bench_sweep(ScaleSpec(4, (2,)), [20, 40], 2, iter(["online"])) == rows

    def test_offline_rows_compare_to_lower_bound(self):
        rows = bench_sweep(ScaleSpec(3, (2,)), [10], 1, ["offline_adjacency"])
        (row,) = rows
        assert row["queries_used"] == 108
        assert row["bound"] == 15
        assert row["ratio"] == pytest.approx(7.2)
        assert row["ok"]  # judged against its plan size, not the lower bound

    def test_empty_n_list(self):
        rows = bench_sweep(ScaleSpec(4, (2,)), [], 3, ["online"])
        assert rows == []
        assert rows_to_csv(rows).splitlines() == [
            "spec,n,seed,algorithm,queries_used,bound,ratio,correct,millis"]

    def test_byte_identical_reruns(self):
        a = rows_to_csv(bench_sweep(ScaleSpec(3, (2,)), [8, 10], 2,
                                    ["online", "offline_adjacency"]))
        b = rows_to_csv(bench_sweep(ScaleSpec(3, (2,)), [8, 10], 2,
                                    ["online", "offline_adjacency"]))
        assert a == b

    def test_growth_ratio_stays_bounded(self):
        # Stage-three dominates: queries / (n' * log_k'(n')) stays near 2.
        from scalesort.harness import ceil_log
        spec = ScaleSpec(4, (2,))
        for n in (20, 40, 80):
            report, _ = run_experiment(spec, n, "online", seed=1)
            n_prime = n - 3
            d = ceil_log(3, n_prime)
            assert report.queries_used / (n_prime * d) <= 3


def test_information_maximality_spot():
    assert verify_information_maximality(ScaleSpec(3, (2,)), 7, "online", seed=2)
    assert verify_information_maximality(ScaleSpec(4, (2,)), 8, "offline_adjacency", seed=2)


def test_small_universe_middle_gap_class():
    # A (7,{2,6}) instrument on 8 elements never reports ranks 1, 4, 5, 8;
    # the two adjacent unreported middle ranks are mutually unorderable and
    # the instrument is symmetric, so even complete information leaves
    # 2 (gap swap) * 2 (reflection) orders, beyond the plain segment class.
    spec = ScaleSpec(7, (2, 6))
    oracle = Oracle(HiddenOrder.identity(8), spec)
    for combo in itertools.combinations(range(8), 7):
        oracle.query(combo)
    report = consistent_permutations(oracle.transcript, 8, spec)
    assert len(report.consistent_orders) == 4
    assert set(report.consistent_orders) != ambiguity_class(HiddenOrder.identity(8), spec)
    swapped = list(HiddenOrder.identity(8).ranks)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert tuple(swapped) in report.consistent_orders
    assert HiddenOrder.identity(8).reversed_().ranks in report.consistent_orders


def test_grid_depth_matches_ceiling_log():
    # The singleton bound's d: no extraction after the first re-evaluates
    # more than one group per row of the hierarchy, ceil_log(k', n') rows.
    # Every group asked about holds 2 to branching distinct items, never an
    # emptied entry, also in the tail where most entries are emptied.
    from scalesort.online import _ordered_by_extraction
    for branching in (2, 3, 4):
        for size in range(1, 41):
            calls = []

            def find_min(group):
                assert 2 <= len(group) <= branching
                assert len(set(group)) == len(group) and set(group) <= set(range(size))
                calls.append(1)
                return min(group)

            ordered = _ordered_by_extraction(list(range(size)), branching, find_min)
            assert next(ordered) == 0
            costs = []
            for expected in range(1, size):
                before = len(calls)
                assert next(ordered) == expected
                costs.append(len(calls) - before)
            assert max(costs, default=0) <= ceil_log(branching, max(size, 2))


def test_bench_recursive_row():
    rows = bench_sweep(ScaleSpec(4, (2,)), [12], 1, ["offline_recursive"])
    (row,) = rows
    assert row["queries_used"] == 661
    assert row["bound"] == 55  # ceil(C(12,3) / C(4,3))
    assert row["correct"]
