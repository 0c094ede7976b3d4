"""Adaptive sorting strategies.

Every pipeline opens with the same first pass (`_first_pass`): eliminate
everything that ever gets answered, so that what remains is S union L,
then split that remainder into S and L with one fixed reference query per
candidate, oriented by segment size when the sizes differ.  The staged
pipeline then grows a prefix S' of the first ts - 1 elements by re-running
the first pass on the shrinking set, extracts the rest through a k'-ary
block hierarchy of reduced (k', 1) queries that always include S', and
orders the leftover prefix elements by a max knockout padded by known-large
elements.  A singleton (k, t) instrument is its s = 1 case, where S' is S.
Instruments reporting a run of positions 1..j identify the unorderable end
block by keep-elimination instead of growing a prefix.  `_sort` hands every
stage `spec.read_side` (k-j+1..k reads as 1..j) and mirrors such a result back.

All choices the method leaves open ("pick a k-set", "pick an arbitrary
set") resolve to lowest-label selection, so transcripts are reproducible.
Each trial is strictly sequential; every query depends on earlier answers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import (
    PreconditionError,
    QueryPlan,
    RESOLVED,
    REFLECTION_AMBIGUOUS,
    InconsistentAnswersError,
    ScaleSpec,
    SortResult,
    UnsupportedScaleError,
    answer_plan,
    mirror_result,
)
from . import offline_adjacency


@dataclass
class MultiSortStats:
    """Per-stage query counts of the first pass plus pipeline shape."""

    initial_elimination: int = 0
    refinement: int = 0
    partition: int = 0
    rounds: int = 1
    extra: int = 0


def _staged(stats: MultiSortStats | None, field: str, stage, oracle, *args):
    """Run stage(oracle, *args) and add the queries it asked to `stats.field`."""
    start = oracle.query_count
    value = stage(oracle, *args)
    if stats is not None:
        setattr(stats, field, getattr(stats, field) + oracle.query_count - start)
    return value


def _lowest_k_sweep(oracle, k: int, pool: Iterable[int], universe: Iterable[int], target: int,
                    keep_answered: bool) -> set[int]:
    """Shrink `pool` to `target` members by querying its k lowest-labeled members.

    Each query leaves in the pool its answered members (keep-elimination)
    or its unanswered ones; once fewer than k are left, it is topped up with
    the lowest-labeled elements of `universe` outside the pool.  A query
    that leaves the pool unchanged contradicts every order: a topped-up one
    holds the whole pool, which is above its target, so it has at most s - 1
    fillers when eliminating (target k - s) and more than s members when
    keeping (target j = s).  Invariant: the pool is `head` plus
    `pending[nxt:]`; the set `head` holds the survivors of the previous
    query, the lowest-labeled members left, and `pending[nxt:]` the
    untouched tail, so the pool is sorted only once.  The oracle sorts each
    query, so `head` is asked as it is.
    """
    pending = sorted(pool)
    head = set(pending[:k])
    nxt = len(head)
    stop = len(pending) - target  # the pool is above its target while nxt - len(head) < stop
    survivors = set.intersection if keep_answered else set.difference
    query = oracle.query
    while nxt - len(head) < stop:
        q = head
        if len(head) < k:
            q = sorted(head) + sorted(set(universe) - head)[:k - len(head)]
        kept = survivors(head, query(q))
        if len(kept) == len(head):
            shown = sorted(q) if q is head else q  # the sorted pool, then any fillers
            raise InconsistentAnswersError(f"query {shown} of k pool members left the pool unchanged")
        top_up = pending[nxt:nxt + k - len(kept)]
        kept.update(top_up)
        head = kept
        nxt += len(top_up)
    return head.union(pending[nxt:])


def _refine(oracle, spec: ScaleSpec, universe: list[int], candidates: set[int]) -> set[int]:
    """Discard the impostors an elimination sweep leaves for non-consecutive outputs.

    Each round takes the 2a-1 lowest-labeled discarded elements (a = k minus
    the survivor count) and runs every a-subset of them alongside the
    survivors, discarding any survivor that gets answered, until
    k - 1 - (ts - t1) candidates are left.
    """
    k = spec.k
    final_target = k - 1 - (spec.outputs[-1] - spec.outputs[0])
    while len(candidates) > final_target:
        a = k - len(candidates)
        donors = sorted(set(universe) - candidates)
        if len(donors) < 2 * a - 1:
            raise PreconditionError(
                f"need {2 * a - 1} discarded elements for refinement, have {len(donors)}")
        donors = donors[:2 * a - 1]
        base = sorted(candidates)
        hit: set[int] = set()
        for combo in itertools.combinations(donors, a):
            out = oracle.query(base + list(combo))
            hit |= out & candidates
        if not hit:
            raise InconsistentAnswersError(
                "refinement made no progress; extreme-segment identification failed")
        candidates = candidates - hit
    return candidates


def _partition(oracle, spec: ScaleSpec, universe: list[int],
               candidates: set[int]) -> tuple[frozenset[int], frozenset[int], bool]:
    """Split S union L into (small, large, labelled).

    Each candidate is queried with one fixed reference set of k-1 discarded
    elements; candidates from the same segment produce identical outcomes.
    When the segment sizes differ, the group whose size is t1 - 1 is the
    small one; equal sizes leave the labelling unknown (labelled False) and
    the groups in order of their lowest label.
    """
    k = spec.k
    reference = sorted(set(universe) - candidates)[:k - 1]
    groups: dict[frozenset[int], set[int]] = {}
    for c in sorted(candidates):
        out = oracle.query([c] + reference)
        groups.setdefault(out, set()).add(c)
    if len(groups) > 2:
        raise InconsistentAnswersError(
            "more than two outcome shapes while splitting the extreme segments")
    parts = sorted((frozenset(g) for g in groups.values()), key=min)
    while len(parts) < 2:
        parts.append(frozenset())
    a, b = parts
    if spec.s_size == spec.l_size:
        return a, b, False
    if sorted((len(a), len(b))) != sorted((spec.s_size, spec.l_size)):
        raise InconsistentAnswersError("segment group sizes do not match the instrument")
    return (a, b, True) if len(a) == spec.s_size else (b, a, True)


def _first_pass(oracle, spec: ScaleSpec, universe: list[int],
                stats: MultiSortStats | None = None) -> tuple[frozenset[int], frozenset[int], bool]:
    """Identify the extreme segments of `universe`: (small, large, labelled).

    The elimination sweep queries the k lowest-labeled surviving candidates
    (topped up with already-discarded low-label elements when fewer than k
    remain) and discards everything answered until k - s candidates survive;
    refinement removes the impostors left for non-consecutive outputs; the
    split orients the two groups.  `stats`, if given, receives the query
    count of each of the three stages.
    """
    candidates = _staged(stats, "initial_elimination", _lowest_k_sweep, oracle, spec.k,
                         universe, universe, spec.k - spec.s, False)
    candidates = _staged(stats, "refinement", _refine, oracle, spec, universe, candidates)
    return _staged(stats, "partition", _partition, oracle, spec, universe, candidates)


def _ordered_by_extraction(items: list[int], branching: int, find_min):
    """Yield `items`, distinct ids, from smallest to largest through a
    `branching`-ary block hierarchy.

    Level 0 is the items in blocks of at most `branching`; each higher level
    groups the minima of `branching` consecutive groups of the level below,
    up to a single top group, and a root above it holds the top minimum.  A
    group with at most one live value resolves without a query.  After each
    extraction only the chain of the minimum just taken is re-evaluated: its
    block is read again without it, and in each group above, the new minimum
    of the group below takes the place of the one taken, or the taken one
    just leaves when that group is empty.  Every other cached minimum stays
    valid.  The blocks are slots of one list, a taken item's slot holding
    None, so that level 0 keeps no list per block.
    """
    if branching < 2:
        raise PreconditionError(f"extraction needs branching >= 2, got {branching}")
    if not items:
        return
    live = list(items)
    slot = [0] * (max(items) + 1)  # slot[e]: the index of id e in live; a quarter of a dict
    for i, e in enumerate(items):
        slot[e] = i
    groups = [live[i:i + branching] for i in range(0, len(live), branching)]
    levels = []  # the groups of each level above 0, the last one the root
    while True:
        minima = [find_min(group) if len(group) > 1 else group[0] for group in groups]
        groups = [minima[i:i + branching] for i in range(0, len(minima), branching)]
        levels.append(groups)
        if len(minima) == 1:
            break
    (low,) = minima
    for _ in items:
        value = low
        idx = slot[value]
        live[idx] = None
        idx //= branching
        lo = idx * branching
        group = [v for v in live[lo:lo + branching] if v is not None]
        for groups in levels:
            if len(group) > 1:
                low = find_min(group)
            else:
                low = group[0] if group else None
            idx //= branching
            group = groups[idx]
            if low is None:
                group.remove(value)
            else:
                group[group.index(value)] = low
        yield value


def _min_finder(oracle, prefix: list[int], pad_pool: list[int], branching: int):
    """Query closure returning the minimum of a block of at most `branching` elements.

    Each query is block + prefix + pads; the prefix occupies the bottom of
    the instrument and the pads are known larger than any block element, so
    exactly one answered element lies outside the prefix: the block minimum.
    The oracle sorts a query's ids, so the prefix-plus-pads tail of each
    block size is built once.
    """
    fill_set = frozenset(prefix)
    pads = sorted(pad_pool)
    # tails[size] completes a block of `size`; None where the pads run short.
    tails = [prefix + pads[:branching - size] if branching - size <= len(pads) else None
             for size in range(branching + 1)]
    query = oracle.query

    def find_min(block: list[int]) -> int:
        tail = tails[len(block)]
        if tail is None:
            raise PreconditionError("pad pool exhausted while sizing a query")
        extra = query(block + tail) - fill_set
        if len(extra) == 1:
            (value,) = extra
            if value in block:
                return value
        raise InconsistentAnswersError("reduced instrument did not isolate one block element")

    return find_min


def singleton_sort(oracle) -> SortResult:
    """Full adaptive pipeline for a (k, t) instrument: the s = 1 case of `_staged_sort`."""
    if oracle.spec.s != 1:
        raise UnsupportedScaleError("singleton_sort requires a single output position")
    return _sort(oracle, MultiSortStats())


def _sort(oracle, stats: MultiSortStats) -> SortResult:
    """Run the prefix-run, small-pool or staged pipeline of `oracle.spec.read_side`,
    and mirror the result back once when that reading is mirrored."""
    spec = oracle.spec
    side = spec.read_side
    if side.bottom_block_size == side.s:
        result = _prefix_run_sort(oracle, side, stats)
    elif oracle.n < 2 * side.k - 2:
        # No k-1 reference set exists: ask every query, rebuild by adjacency.
        plan = QueryPlan.exhaustive(oracle.n, side)
        result = offline_adjacency.solve_from_results(plan, answer_plan(oracle, plan))
    else:
        result = _staged_sort(oracle, side, stats)
    return result if side == spec else mirror_result(result, spec)


def multi_elimination_bound(n: int, spec: ScaleSpec) -> int:
    """Query allowance of the initial elimination loop: ceil((n - (k - s)) / s)."""
    return -(-(n - (spec.k - spec.s)) // spec.s)


def _staged_sort(oracle, spec: ScaleSpec, stats: MultiSortStats) -> SortResult:
    """The pipeline for every shape but an end-block run; `stats` gets its stage counts.

    A singleton runs no prefix round, knockout or direction probe: its S' is
    S, and an unlabelled singleton is symmetric.  `_sort` has read the shape,
    so only the probe's answer mirrors here.
    """
    n, k = oracle.n, spec.k
    t1, ts = spec.outputs[0], spec.outputs[-1]
    s_size = spec.s_size
    universe = list(range(n))
    start = oracle.query_count

    s_first, l_set, labelled = _first_pass(oracle, spec, universe, stats)

    # Build S', the first ts - 1 elements, peeling one small segment per
    # round; the final round re-inserts previously removed elements when
    # fewer than s_size fresh ones are needed.
    sprime: set[int] = set(s_first)
    need = ts - 1
    while len(sprime) < need:
        stats.rounds += 1
        remaining = need - len(sprime)
        reinserted: set[int] = set()
        if remaining < s_size:
            reinserted = set(sorted(sprime)[:s_size - remaining])
        working = sorted(set(universe) - (sprime - reinserted))
        layer, other, _ = _first_pass(oracle, spec, working)
        if not labelled and layer == l_set:
            layer, other = other, layer
        if not labelled and other != l_set:
            raise InconsistentAnswersError(
                "large segment did not reappear while peeling prefix layers")
        if len(layer) != s_size or (reinserted and not reinserted <= layer):
            raise InconsistentAnswersError("prefix round produced an unexpected layer")
        sprime |= layer

    # Reduce to a (k', 1) instrument: every query includes S'; pads from L.
    middle_rest = sorted(set(universe) - sprime - l_set)
    find_min = _min_finder(oracle, sorted(sprime), sorted(l_set), spec.k_prime)
    middle = list(_ordered_by_extraction(middle_rest, spec.k_prime, find_min))

    # Sort S' minus S by repeated max knockouts, each maximum going to the
    # front of the middle: each query holds the champion and t1 - 1
    # challengers, known-small pads from S when a batch runs short, and
    # k - t1 known-large pads on top.
    extra_from_mid = (k - t1) - len(l_set)
    if extra_from_mid > len(middle):
        raise PreconditionError("not enough sorted elements to pad the max instrument")
    pads_large = sorted(l_set) + middle[len(middle) - extra_from_mid:]
    pads_large_set = set(pads_large)
    small_pool = sorted(s_first)
    remnant = sorted(sprime - s_first)
    while remnant:
        champ = remnant[0]
        for i in range(1, len(remnant), t1 - 1):
            group = [champ] + remnant[i:i + t1 - 1]
            top = oracle.query(group + small_pool[:t1 - len(group)] + pads_large) - pads_large_set
            if len(top) != 1:
                raise InconsistentAnswersError("max instrument did not isolate one element")
            (champ,) = top
        remnant.remove(champ)
        middle.insert(0, champ)

    orientation = REFLECTION_AMBIGUOUS if not labelled and spec.is_symmetric else RESOLVED
    flip = False
    if not labelled and not spec.is_symmetric:
        # One check query over known middle elements pins the direction.
        if len(middle) < k:
            raise PreconditionError("middle too small for the direction check")
        probe = middle[:k]
        actual = oracle.query(probe)
        flip = actual != frozenset(probe[t - 1] for t in spec.outputs)
        if flip and actual != frozenset(probe[k - t] for t in spec.outputs):
            raise InconsistentAnswersError("direction check matched neither reading")
    result = SortResult(tuple(middle), s_first, l_set, orientation, oracle.query_count - start)
    return mirror_result(result, spec) if flip else result


def _prefix_run_sort(oracle, spec: ScaleSpec, stats: MultiSortStats) -> SortResult:
    """Pipeline for instruments reporting exactly positions 1..j (j < k).

    The j globally smallest elements all appear in every outcome of a query
    containing any of them, so no permutation among them is observable; they
    are identified as a set by keep-elimination and returned in label order,
    which is the most the answers determine.  The rest is sorted through the
    reduced instrument with j - 1 of the block members as the fixed prefix.
    """
    j = spec.outputs[-1]
    universe = list(range(oracle.n))
    start = oracle.query_count

    _, l_set, labelled = _first_pass(oracle, spec, universe, stats)
    if not labelled:
        raise InconsistentAnswersError("prefix instrument must label its segments by size")

    # Keep-elimination: survivors of "am I always among the answers?" are
    # exactly the j smallest elements of the working set.
    working = set(universe) - l_set
    block = _staged(stats, "extra", _lowest_k_sweep, oracle, spec.k, working, universe, j, True)

    prefix = sorted(block)[:j - 1]
    rest = sorted(working - block)
    find_min = _min_finder(oracle, prefix, sorted(l_set), spec.k_prime)
    middle = tuple(sorted(block)) + tuple(_ordered_by_extraction(rest, spec.k_prime, find_min))
    return SortResult(middle, frozenset(), l_set, RESOLVED,
                      oracle.query_count - start)


def multi_sort_with_stats(oracle) -> tuple[SortResult, MultiSortStats]:
    spec = oracle.spec
    if spec.s < 2:
        raise UnsupportedScaleError("multi_sort_with_stats requires at least two output positions")
    if oracle.n <= 2 * spec.k:
        raise PreconditionError(
            f"multi-output sorting needs n > 2k (n={oracle.n}, k={spec.k}); below that "
            "an indistinguishable middle segment can exist")
    side = spec.read_side
    if side.bottom_block_size != side.s and (spec.outputs[0] == 1 or spec.outputs[-1] == spec.k):
        raise UnsupportedScaleError(
            "instruments reporting position 1 or k are supported only for a"
            " consecutive run of positions ending there")
    stats = MultiSortStats()
    return _sort(oracle, stats), stats


def sort_online(oracle) -> SortResult:
    """Dispatch to the singleton or multi-output pipeline."""
    return singleton_sort(oracle) if oracle.spec.s == 1 else multi_sort_with_stats(oracle)[0]
