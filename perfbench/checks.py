"""Correctness checks made apart from the program.

Everything here is derived from the hidden rank array and the instrument's
arity and reported positions alone; nothing imports scalesort.  A check
returns None when the output is right and raises CheckError naming the
first thing that is wrong.

An instrument is given as (k, outputs): k elements per query, outputs the
1-based rank positions t1 < ... < ts it reports.  A rank array maps element
id -> rank, 1 = smallest.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterable, Sequence

RESOLVED = "resolved"
REFLECTION_AMBIGUOUS = "reflection_ambiguous"


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def evaluate(ranks: Sequence[int], outputs: Sequence[int], query: Iterable[int]) -> frozenset[int]:
    """The instrument: sort the query by hidden rank and take the reported positions."""
    ordered = sorted(query, key=ranks.__getitem__)
    return frozenset(ordered[t - 1] for t in outputs)


def is_symmetric(k: int, outputs: Sequence[int]) -> bool:
    return set(outputs) == {k + 1 - t for t in outputs}


def end_blocks(k: int, outputs: Sequence[int]) -> tuple[int, int]:
    """Sizes of the unorderable end blocks: a reported run 1..j or k-j+1..k with j >= 2."""
    reported = set(outputs)
    low = 0
    while low + 1 in reported:
        low += 1
    high = 0
    while k - high in reported:
        high += 1
    return (low if low >= 2 else 0), (high if high >= 2 else 0)


def truth(ranks: Sequence[int], k: int, outputs: Sequence[int]
          ) -> tuple[frozenset[int], tuple[int, ...], frozenset[int]]:
    """(S, middle ascending, L): S the t1-1 smallest, L the k-ts largest."""
    n = len(ranks)
    by_rank = sorted(range(n), key=ranks.__getitem__)
    s_size, l_size = outputs[0] - 1, k - outputs[-1]
    return (frozenset(by_rank[:s_size]), tuple(by_rank[s_size:n - l_size]),
            frozenset(by_rank[n - l_size:]))


def _determinable(middle: Sequence[int], low: int, high: int) -> tuple:
    """The part of a middle sequence the answers can fix: end blocks as sets."""
    cut = len(middle) - high
    return frozenset(middle[:low]), tuple(middle[low:cut]), frozenset(middle[cut:])


def check_sort(middle: Sequence[int], s_set: Iterable[int], l_set: Iterable[int],
               orientation: str, ranks: Sequence[int], k: int, outputs: Sequence[int]) -> None:
    """A sort result must carry exactly what the instrument lets the answers fix.

    S and L are unordered sets; the end blocks of middle are sets; the rest of
    middle is exact.  A symmetric instrument cannot tell an order from its
    reflection, so its result must say reflection_ambiguous and may be in
    either reading; an asymmetric one must say resolved and match directly.
    """
    n = len(ranks)
    middle = tuple(middle)
    s_set, l_set = frozenset(s_set), frozenset(l_set)
    parts = list(middle) + sorted(s_set) + sorted(l_set)
    if sorted(parts) != list(range(n)):
        raise CheckError("result does not partition the elements 0..n-1")
    symmetric = is_symmetric(k, outputs)
    expected = REFLECTION_AMBIGUOUS if symmetric else RESOLVED
    if orientation != expected:
        raise CheckError(f"orientation {orientation!r}, expected {expected!r}")
    s_true, mid_true, l_true = truth(ranks, k, outputs)
    low, high = end_blocks(k, outputs)
    want = _determinable(mid_true, low, high)
    if s_set == s_true and l_set == l_true and _determinable(middle, low, high) == want:
        return
    if (symmetric and s_set == l_true and l_set == s_true
            and _determinable(middle[::-1], low, high) == want):
        return
    raise CheckError("sorted order disagrees with the hidden order")


def ceil_log(base: int, x: int) -> int:
    d, power = 1, base
    while power < x:
        power *= base
        d += 1
    return d


def _small_side(k: int, t: int) -> int:
    """A singleton (k, t) instrument read from its nearer end: min(t, k+1-t)."""
    return min(t, k + 1 - t)


def online_singleton_bound(n: int, k: int, t: int) -> int:
    """n + 2*d*n' with n' = n-(k-1), k' = k-t+1 (t from the nearer end), d = ceil(log_k' n')."""
    k_prime = k - _small_side(k, t) + 1
    n_prime = n - (k - 1)
    return n + 2 * ceil_log(k_prime, max(n_prime, 2)) * n_prime


def check_online_singleton(queries: int, n: int, k: int, t: int) -> None:
    bound = online_singleton_bound(n, k, t)
    if queries > bound:
        raise CheckError(f"online {k}:{t} at n={n} used {queries} queries > n + 2dn' = {bound}")


def check_multi_stages(initial_elimination: int, partition: int, n: int, k: int,
                       outputs: Sequence[int]) -> None:
    """Stage bounds of the multi-output pipeline (README table, acceptance criterion 3)."""
    s = len(outputs)
    allowance = -(-(n - (k - s)) // s)
    if initial_elimination > allowance:
        raise CheckError(f"initial elimination used {initial_elimination} > {allowance} queries")
    split = (outputs[0] - 1) + (k - outputs[-1])
    if partition != split:
        raise CheckError(f"segment split used {partition} queries, expected |S u L| = {split}")


def adjacency_plan_size(n: int, k: int, outputs: Sequence[int]) -> int:
    """3*C(n-rho, k-rho), rho = ts-1 (t from the nearer end for a singleton); C(n,k) if rho = 0."""
    rho = (_small_side(k, outputs[0]) if len(outputs) == 1 else outputs[-1]) - 1
    return comb(n, k) if rho == 0 else 3 * comb(n - rho, k - rho)


def recursive_plan_size(n: int, k: int, t: int) -> int:
    """C(k+t-2, k) + C(k+t-2, t-1)*C(n-t+1, k-t+1), t from the nearer end; C(n,k) if t = 1."""
    t = _small_side(k, t)
    if t == 1:
        return comb(n, k)
    return comb(k + t - 2, k) + comb(k + t - 2, t - 1) * comb(n - t + 1, k - t + 1)


def check_plan(queries: Sequence[Sequence[int]], expected_size: int, n: int, k: int) -> None:
    """A plan is exactly expected_size queries, each of k distinct ids in 0..n-1."""
    if len(queries) != expected_size:
        raise CheckError(f"plan has {len(queries)} queries, closed form gives {expected_size}")
    for q in queries:
        if len(set(q)) != k or not all(0 <= e < n for e in q):
            raise CheckError(f"plan query {list(q)} is not {k} distinct ids in 0..{n - 1}")


def check_answers(answers: Iterable[tuple[Iterable[int], Iterable[int]]],
                  ranks: Sequence[int], outputs: Sequence[int]) -> None:
    """Every (query, answer) pair must equal the benchmark's own evaluation."""
    for q, out in answers:
        if frozenset(out) != evaluate(ranks, outputs, q):
            raise CheckError(f"answer {sorted(out)} to {sorted(q)} disagrees with the instrument")


def ambiguity_class_size(n: int, k: int, outputs: Sequence[int]) -> int:
    """Orders no query sequence can tell from the hidden one.

    S, L and the two end blocks permute freely, and a symmetric instrument
    adds every reflected reading.  Valid for n > 2k and an instrument that
    does not report all k positions.
    """
    low, high = end_blocks(k, outputs)
    size = (factorial(outputs[0] - 1) * factorial(k - outputs[-1])
            * factorial(low) * factorial(high))
    return 2 * size if is_symmetric(k, outputs) else size


def check_certified(orders: Iterable[Sequence[int]], ranks: Sequence[int], k: int,
                    outputs: Sequence[int],
                    transcript: Sequence[tuple[Sequence[int], Sequence[int]]]) -> None:
    """A certified consistent set holds the hidden order, has the class's size,
    and each member reproduces every recorded answer."""
    found = {tuple(o) for o in orders}
    if tuple(ranks) not in found:
        raise CheckError("the certified set misses the hidden order")
    want = ambiguity_class_size(len(ranks), k, outputs)
    if len(found) != want:
        raise CheckError(f"certified set has {len(found)} orders, ambiguity class has {want}")
    for member in found:
        check_answers(transcript, member, outputs)


def transcript_lines(entries: Iterable[tuple[Sequence[int], Sequence[int]]]) -> Iterable[bytes]:
    """One line per recorded query: 'q1 q2 ...|o1 o2 ...', ids ascending."""
    for q, out in entries:
        yield (" ".join(map(str, sorted(q))) + "|" + " ".join(map(str, sorted(out))) + "\n").encode()

