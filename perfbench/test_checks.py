"""The benchmark's checks accept right outputs and reject wrong ones.

Run with:  python3 -m pytest perfbench/test_checks.py
Every right output here is computed by brute force from the instrument
alone; every wrong one is a right one with a single defect.
"""

import itertools

import pytest

import checks


def ranks_of(by_rank):
    """Rank array of the order listing element ids smallest first."""
    ranks = [0] * len(by_rank)
    for r, e in enumerate(by_rank, 1):
        ranks[e] = r
    return tuple(ranks)


RANKS = ranks_of([3, 0, 7, 5, 1, 8, 2, 6, 4, 9])   # n = 10


def right_result(k, outputs, ranks=RANKS):
    s, mid, l = checks.truth(ranks, k, outputs)
    orientation = (checks.REFLECTION_AMBIGUOUS if checks.is_symmetric(k, outputs)
                   else checks.RESOLVED)
    return list(mid), s, l, orientation


@pytest.mark.parametrize("k,outputs", [(4, (2,)), (4, (3,)), (3, (2,)), (7, (2, 6)),
                                       (5, (1, 2)), (4, (2, 3))])
def test_sort_check_accepts_truth_and_rejects_adjacent_swap(k, outputs):
    mid, s, l, orientation = right_result(k, outputs)
    checks.check_sort(mid, s, l, orientation, RANKS, k, outputs)
    low, high = checks.end_blocks(k, outputs)
    i = low  # first pair the answers can order
    swapped = mid[:i] + [mid[i + 1], mid[i]] + mid[i + 2:]
    with pytest.raises(checks.CheckError):
        checks.check_sort(swapped, s, l, orientation, RANKS, k, outputs)


def test_sort_check_allowances():
    # The bottom end block of 5:1,2 is a set.
    mid, s, l, orientation = right_result(5, (1, 2))
    checks.check_sort([mid[1], mid[0]] + mid[2:], s, l, orientation, RANKS, 5, (1, 2))
    # A symmetric instrument may return the reflected reading, segments swapped.
    mid, s, l, orientation = right_result(3, (2,))
    checks.check_sort(mid[::-1], l, s, orientation, RANKS, 3, (2,))
    # An asymmetric one may not, and must call itself resolved.
    mid, s, l, orientation = right_result(4, (2,))
    with pytest.raises(checks.CheckError):
        checks.check_sort(mid[::-1], l, s, orientation, RANKS, 4, (2,))
    with pytest.raises(checks.CheckError):
        checks.check_sort(mid, s, l, checks.REFLECTION_AMBIGUOUS, RANKS, 4, (2,))
    # A misplaced segment member is wrong.
    with pytest.raises(checks.CheckError):
        checks.check_sort(mid[1:] + [min(l)], s | {mid[0]}, l - {min(l)}, orientation,
                          RANKS, 4, (2,))


def test_plan_sizes_match_enumeration():
    # Adjacency: three fans of every query holding a reference set of rho ids.
    n, k, rho = 9, 4, 1
    plan = [ref + free for i in range(3) for ref in [tuple(range(i * rho, (i + 1) * rho))]
            for free in itertools.combinations([e for e in range(n) if e not in ref], k - rho)]
    assert checks.adjacency_plan_size(n, k, (2,)) == len(plan)
    # Recursive: the closure of the (k+t-2)-superset plus one fan per (t-1)-subset.
    n, k, t = 16, 5, 2
    superset = tuple(range(k + t - 2))
    plan = list(itertools.combinations(superset, k))
    for ref in itertools.combinations(superset, t - 1):
        rest = [e for e in range(n) if e not in ref]
        plan += [ref + free for free in itertools.combinations(rest, k - t + 1)]
    assert checks.recursive_plan_size(n, k, t) == len(plan) == 6826
    assert len({frozenset(q) for q in plan}) == 3906
    assert checks.adjacency_plan_size(60, 4, (2,)) == 97527
    assert checks.recursive_plan_size(30, 5, 2) == 118756
    assert checks.recursive_plan_size(30, 5, 4) == 118756     # read from the nearer end


def test_plan_check_rejects_a_plan_one_query_short():
    plan = [list(q) for q in itertools.combinations(range(8), 4)]
    checks.check_plan(plan, 70, 8, 4)
    with pytest.raises(checks.CheckError):
        checks.check_plan(plan[:-1], 70, 8, 4)
    with pytest.raises(checks.CheckError):
        checks.check_plan(plan[:-1] + [[0, 1, 2, 2]], 70, 8, 4)


def test_online_bound():
    # 4:2 at n = 10^4: k' = 3, n' = 9997, d = 9.
    assert checks.online_singleton_bound(10_000, 4, 2) == 10_000 + 2 * 9 * 9997
    assert checks.online_singleton_bound(10_000, 4, 3) == checks.online_singleton_bound(10_000, 4, 2)
    checks.check_online_singleton(94_336, 10_000, 4, 2)
    with pytest.raises(checks.CheckError):
        checks.check_online_singleton(10_000 + 2 * 9 * 9997 + 1, 10_000, 4, 2)
    checks.check_multi_stages(3, 2, 20, 7, (2, 6))
    with pytest.raises(checks.CheckError):
        checks.check_multi_stages(9, 2, 20, 7, (2, 6))   # allowance ceil((20-5)/2) = 8
    with pytest.raises(checks.CheckError):
        checks.check_multi_stages(3, 3, 20, 7, (2, 6))


def test_answer_check_rejects_a_wrong_deduced_answer():
    k, outputs = 4, (2,)
    queries = list(itertools.combinations(range(10), k))
    answers = [checks.evaluate(RANKS, outputs, q) for q in queries]
    checks.check_answers(zip(queries, answers), RANKS, outputs)
    wrong = list(answers)
    wrong[17] = frozenset({next(e for e in queries[17] if e not in answers[17])})
    with pytest.raises(checks.CheckError):
        checks.check_answers(zip(queries, wrong), RANKS, outputs)


@pytest.mark.parametrize("k,outputs", [(3, (2,)), (3, (1,)), (3, (1, 2))])
def test_certified_set_check_rejects_a_missing_order(k, outputs):
    n = 2 * k + 1
    ranks = ranks_of([4, 1, 6, 0, 3, 5, 2][:n])
    transcript = [(q, checks.evaluate(ranks, outputs, q))
                  for q in itertools.combinations(range(n), k)]
    consistent = [p for p in itertools.permutations(range(1, n + 1))
                  if all(checks.evaluate(p, outputs, q) == out for q, out in transcript)]
    assert len(consistent) == checks.ambiguity_class_size(n, k, outputs)
    checks.check_certified(consistent, ranks, k, outputs, transcript)
    for missing in (consistent.index(ranks), (consistent.index(ranks) + 1) % len(consistent)):
        with pytest.raises(checks.CheckError):
            checks.check_certified(consistent[:missing] + consistent[missing + 1:], ranks, k,
                                   outputs, transcript)


def test_digest_lines_are_sorted_ids_in_query_order():
    a = [((2, 0, 1), (1,)), ((0, 1, 3), (1,))]
    assert list(checks.transcript_lines(a)) == [b"0 1 2|1\n", b"0 1 3|1\n"]
