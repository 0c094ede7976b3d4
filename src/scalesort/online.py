"""Adaptive sorting strategies.

Every pipeline opens with the same first pass (`_first_pass`): eliminate
everything that ever gets answered, so that what remains is S union L,
then split that remainder into S and L with one fixed reference query per
candidate, oriented by segment size when the sizes differ.  Singleton
instruments then repeatedly extract minima of the rest through a k'-ary
block hierarchy whose queries always pre-fill the bottom of the instrument
with S.  Multi-output instruments grow a prefix S' of the first ts - 1
elements by re-running the first pass on the shrinking set, reduce to a
(k', 1) instrument by always including S', and finish the leftover prefix
elements with a max-extraction instrument padded by known-large elements;
instruments reporting a run of positions 1..j (or k-j+1..k) identify the
unorderable end block by keep-elimination instead of growing a prefix.

All choices the method leaves open ("pick a k-set", "pick an arbitrary
set") resolve to lowest-label selection, so transcripts are reproducible.
Each trial is strictly sequential; every query depends on earlier answers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import (
    MirroredOracle,
    PreconditionError,
    RESOLVED,
    REFLECTION_AMBIGUOUS,
    InconsistentAnswersError,
    ScaleError,
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


def _lowest_k_sweep(oracle, pool: Iterable[int], universe: Iterable[int], target: int,
                    keep_answered: bool) -> set[int]:
    """Shrink `pool` to `target` members by querying its k lowest-labeled members.

    Each query leaves in the pool its answered members (keep-elimination)
    or its unanswered ones; once fewer than k are left, it is topped up with
    the lowest-labeled elements of `universe` outside the pool.  A topped-up
    query that changes nothing ends the sweep; a full one contradicts every
    order.  Invariant: the pool is `head` plus `pending[nxt:]`; `head` holds
    the survivors of the previous query, the lowest-labeled members left,
    and `pending[nxt:]` the untouched tail, so the pool is sorted only once.
    """
    k = oracle.spec.k
    pending = sorted(pool)
    head = pending[:k]
    nxt = len(head)
    while len(head) + len(pending) - nxt > target:
        q = head
        if len(head) < k:
            fillers = sorted(set(universe) - set(head))[:k - len(head)]
            if len(head) + len(fillers) < k:
                raise PreconditionError("not enough discarded elements to fill a query")
            q = head + fillers
        out = oracle.query(q)
        kept = [e for e in head if (e in out) == keep_answered]
        if len(kept) == len(head):
            if len(head) == k:
                raise InconsistentAnswersError(
                    f"query {q} of k pool members left the pool unchanged")
            break
        top_up = pending[nxt:nxt + k - len(kept)]
        head = kept + top_up
        nxt += len(top_up)
    return set(head).union(pending[nxt:])


def _refine(oracle, universe: list[int], candidates: set[int]) -> set[int]:
    """Discard the impostors an elimination sweep leaves for non-consecutive outputs.

    Each round takes the 2a-1 lowest-labeled discarded elements (a = k minus
    the survivor count) and runs every a-subset of them alongside the
    survivors, discarding any survivor that gets answered, until
    k - 1 - (ts - t1) candidates are left.
    """
    spec = oracle.spec
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


def _partition(oracle, universe: list[int],
               candidates: set[int]) -> tuple[frozenset[int], frozenset[int], bool]:
    """Split S union L into (small, large, labelled).

    Each candidate is queried with one fixed reference set of k-1 discarded
    elements; candidates from the same segment produce identical outcomes.
    When the segment sizes differ, the group whose size is t1 - 1 is the
    small one; equal sizes leave the labelling unknown (labelled False) and
    the groups in order of their lowest label.
    """
    spec = oracle.spec
    k = spec.k
    reference = sorted(set(universe) - candidates)[:k - 1]
    if len(reference) < k - 1:
        raise PreconditionError("fewer than k-1 discarded elements available as reference")
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


def _first_pass(oracle, universe: list[int],
                stats: MultiSortStats | None = None) -> tuple[frozenset[int], frozenset[int], bool]:
    """Identify the extreme segments of `universe`: (small, large, labelled).

    The elimination sweep queries the k lowest-labeled surviving candidates
    (topped up with already-discarded low-label elements when fewer than k
    remain) and discards everything answered until k - s candidates survive;
    refinement removes the impostors left for non-consecutive outputs; the
    split orients the two groups.  `stats`, if given, receives the query
    count of each of the three stages.
    """
    spec = oracle.spec
    if len(universe) <= spec.k:
        raise PreconditionError("universe too small to identify the extreme segments")
    candidates = _staged(stats, "initial_elimination", _lowest_k_sweep, oracle,
                         universe, universe, spec.k - spec.s, False)
    candidates = _staged(stats, "refinement", _refine, oracle, universe, candidates)
    return _staged(stats, "partition", _partition, oracle, universe, candidates)


class LevelGrid:
    """k'-ary block hierarchy over a fixed item list with cached block minima.

    Level 1 chunks the items into blocks of at most `branching`; each higher
    level chunks the blocks below it, up to a single top block at depth d.
    Blocks holding a single live value resolve without a query.  After the
    overall minimum is removed, only the blocks along its chain are
    re-evaluated; all other cached minima stay valid.
    """

    def __init__(self, items: list[int], branching: int, find_min):
        if branching < 1:
            raise ScaleError("branching must be positive")
        self.branching = branching
        self.find_min = find_min
        self.blocks: list[list[int]] = [list(items[i:i + branching])
                                        for i in range(0, len(items), branching)]
        sizes = [len(self.blocks)]
        while sizes[-1] > 1:
            sizes.append(-(-sizes[-1] // branching))
        self.depth = len(sizes)
        self.loc = {e: i for i, b in enumerate(self.blocks) for e in b}
        first: list[int | None] = [self._block_min(b) for b in self.blocks]
        self.mins: list[list[int | None]] = [first]
        for size in sizes[1:]:
            row: list[int | None] = []
            for g in range(size):
                children = self.mins[-1][g * branching:(g + 1) * branching]
                row.append(self._group_min(children))
            self.mins.append(row)

    def _block_min(self, block: list[int]) -> int | None:
        if not block:
            return None
        if len(block) == 1:
            return block[0]
        return self.find_min(block)

    def _group_min(self, children: list[int | None]) -> int | None:
        live = [c for c in children if c is not None]
        if not live:
            return None
        if len(live) == 1:
            return live[0]
        return self.find_min(live)

    def top(self) -> int | None:
        return self.mins[-1][0]

    def extract(self) -> int:
        """Remove and return the current overall minimum, re-querying only its chain."""
        value = self.top()
        if value is None:
            raise ScaleError("grid exhausted")
        idx = self.loc[value]
        self.blocks[idx].remove(value)
        self.mins[0][idx] = self._block_min(self.blocks[idx])
        for level in range(1, self.depth):
            idx //= self.branching
            children = self.mins[level - 1][idx * self.branching:(idx + 1) * self.branching]
            self.mins[level][idx] = self._group_min(children)
        return value


def _ordered_by_extraction(items: list[int], branching: int, find_min) -> list[int]:
    if not items:
        return []
    if len(items) == 1:
        return list(items)
    grid = LevelGrid(items, branching, find_min)
    return [grid.extract() for _ in range(len(items))]


def _min_finder(oracle, prefix: list[int], pad_pool: list[int], branching: int):
    """Query closure returning the minimum of a block of at most `branching` elements.

    Each query is prefix + block + pads; the prefix occupies the bottom of
    the instrument and the pads are known larger than any block element, so
    exactly one answered element lies outside the prefix: the block minimum.
    """
    fill = list(prefix)
    fill_set = frozenset(fill)
    pads = sorted(pad_pool)

    def find_min(block: list[int]) -> int:
        need = branching - len(block)
        if need > len(pads):
            raise PreconditionError("pad pool exhausted while sizing a query")
        out = oracle.query(fill + list(block) + pads[:need])
        extra = out - fill_set
        if len(extra) != 1 or extra.isdisjoint(block):
            raise InconsistentAnswersError("reduced instrument did not isolate one block element")
        return next(iter(extra))

    return find_min


def _small_pool_sort(oracle) -> SortResult:
    """Exhaustive fallback for n < 2k - 2, where no k-1 reference set exists.

    Every possible query is evaluated and the order is reconstructed from
    the complete answer table by adjacency elimination.
    """
    plan = offline_adjacency.QueryPlan.exhaustive(oracle.n, oracle.spec)
    return offline_adjacency.solve_from_results(plan, answer_plan(oracle, plan))


def singleton_sort(oracle) -> SortResult:
    """Full adaptive pipeline for a (k, t) instrument."""
    spec = oracle.spec
    if spec.s != 1:
        raise UnsupportedScaleError("singleton_sort requires a single output position")
    t, k = spec.outputs[0], spec.k
    if t - 1 > k - t:
        return mirror_result(singleton_sort(MirroredOracle(oracle)))
    n = oracle.n
    start = oracle.query_count
    if n < 2 * k - 2:
        return _small_pool_sort(oracle)
    universe = list(range(n))
    s_set, l_set, labelled = _first_pass(oracle, universe)
    find_min = _min_finder(oracle, sorted(s_set), sorted(l_set), spec.k_prime)
    middle = _ordered_by_extraction(sorted(set(universe) - s_set - l_set), spec.k_prime, find_min)
    return SortResult(tuple(middle), s_set, l_set,
                      RESOLVED if labelled else REFLECTION_AMBIGUOUS, oracle.query_count - start)


def multi_elimination_bound(n: int, spec: ScaleSpec) -> int:
    """Query allowance of the initial elimination loop: ceil((n - (k - s)) / s)."""
    return -(-(n - (spec.k - spec.s)) // spec.s)


def _staged_multi_sort(oracle, stats: MultiSortStats) -> SortResult:
    spec = oracle.spec
    n, k = oracle.n, spec.k
    t1, ts = spec.outputs[0], spec.outputs[-1]
    s_size = spec.s_size
    universe = list(range(n))
    start = oracle.query_count

    s_first, l_set, labelled = _first_pass(oracle, universe, stats)

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
        layer, other, _ = _first_pass(oracle, working)
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
    ordered_rest = _ordered_by_extraction(middle_rest, spec.k_prime, find_min)

    # Sort S' minus S with a max-extraction instrument: k - t1 known-large
    # pads on top, known-small pads from S when a batch runs short.
    remnant = sorted(sprime - s_first)
    extra_from_mid = (k - t1) - len(l_set)
    if extra_from_mid > len(ordered_rest):
        raise PreconditionError("not enough sorted elements to pad the max instrument")
    pads_large = sorted(l_set) + ordered_rest[len(ordered_rest) - extra_from_mid:]
    pads_large_set = set(pads_large)
    small_pool = sorted(s_first)
    remnant_desc: list[int] = []
    remaining_set = set(remnant)
    while remaining_set:
        if len(remaining_set) == 1:
            remnant_desc.append(remaining_set.pop())
            break
        items = sorted(remaining_set)
        champ: int | None = None
        i = 0
        while i < len(items) or champ is None:
            take = t1 - (1 if champ is not None else 0)
            group = ([champ] if champ is not None else []) + items[i:i + take]
            i += take
            if len(group) == 1:
                champ = group[0]
                continue
            pads_small = small_pool[:t1 - len(group)]
            out = oracle.query(group + pads_small + pads_large)
            top = out - pads_large_set
            if len(top) != 1:
                raise InconsistentAnswersError("max instrument did not isolate one element")
            champ = next(iter(top))
        remnant_desc.append(champ)
        remaining_set.remove(champ)
    middle_full = list(reversed(remnant_desc)) + ordered_rest

    s_set, l_out = s_first, l_set
    orientation = RESOLVED
    if not labelled:
        if spec.is_symmetric:
            orientation = REFLECTION_AMBIGUOUS
        else:
            # One check query over known middle elements pins the direction.
            if len(middle_full) < k:
                raise PreconditionError("middle too small for the direction check")
            probe = middle_full[:k]
            predicted = frozenset(probe[t - 1] for t in spec.outputs)
            actual = oracle.query(probe)
            if actual != predicted:
                reversed_pred = frozenset(probe[k - t] for t in spec.outputs)
                if actual != reversed_pred:
                    raise InconsistentAnswersError("direction check matched neither reading")
                middle_full.reverse()
                s_set, l_out = l_out, s_set
    return SortResult(tuple(middle_full), s_set, l_out, orientation,
                      oracle.query_count - start)


def _prefix_run_sort(oracle, stats: MultiSortStats) -> SortResult:
    """Pipeline for instruments reporting exactly positions 1..j (j < k).

    The j globally smallest elements all appear in every outcome of a query
    containing any of them, so no permutation among them is observable; they
    are identified as a set by keep-elimination and returned in label order,
    which is the most the answers determine.  The rest is sorted through the
    reduced instrument with j - 1 of the block members as the fixed prefix.
    """
    spec = oracle.spec
    j = spec.outputs[-1]
    universe = list(range(oracle.n))
    start = oracle.query_count

    _, l_set, labelled = _first_pass(oracle, universe, stats)
    if not labelled:
        raise InconsistentAnswersError("prefix instrument must label its segments by size")

    # Keep-elimination: survivors of "am I always among the answers?" are
    # exactly the j smallest elements of the working set.
    working = set(universe) - l_set
    block = _staged(stats, "extra", _lowest_k_sweep, oracle, working, universe, j, True)

    prefix = sorted(block)[:j - 1]
    rest = sorted(working - block)
    find_min = _min_finder(oracle, prefix, sorted(l_set), spec.k_prime)
    ordered_rest = _ordered_by_extraction(rest, spec.k_prime, find_min)
    middle = tuple(sorted(block)) + tuple(ordered_rest)
    return SortResult(middle, frozenset(), l_set, RESOLVED,
                      oracle.query_count - start)


def multi_sort_with_stats(oracle) -> tuple[SortResult, MultiSortStats]:
    spec = oracle.spec
    if spec.s < 2:
        raise UnsupportedScaleError("multi_sort requires at least two output positions")
    if oracle.n <= 2 * spec.k:
        raise PreconditionError(
            f"multi-output sorting needs n > 2k (n={oracle.n}, k={spec.k}); below that "
            "an indistinguishable middle segment can exist")
    t1, ts, k = spec.outputs[0], spec.outputs[-1], spec.k
    stats = MultiSortStats()
    if t1 == 1:
        if spec.outputs == tuple(range(1, ts + 1)) and ts < k:
            return _prefix_run_sort(oracle, stats), stats
        raise UnsupportedScaleError(
            "instruments reporting position 1 are supported only for a"
            " consecutive prefix of positions")
    if ts == k:
        mirrored = MirroredOracle(oracle)
        mspec = mirrored.spec
        if mspec.outputs == tuple(range(1, mspec.outputs[-1] + 1)) and mspec.outputs[-1] < k:
            res = mirror_result(_prefix_run_sort(mirrored, stats))
            # The unorderable top block comes back reversed; restore the
            # label-order presentation used on the prefix side.
            j = mspec.outputs[-1]
            middle = res.middle[:-j] + tuple(sorted(res.middle[-j:]))
            return SortResult(middle, res.s_set, res.l_set, res.orientation,
                              res.queries_used), stats
        raise UnsupportedScaleError(
            "instruments reporting position k are supported only for a"
            " consecutive suffix of positions")
    return _staged_multi_sort(oracle, stats), stats


def multi_sort(oracle) -> SortResult:
    """Full adaptive pipeline for a (k, t1, ..., ts) instrument with s >= 2."""
    result, _ = multi_sort_with_stats(oracle)
    return result


def sort_online(oracle) -> SortResult:
    """Dispatch to the singleton or multi-output pipeline."""
    return singleton_sort(oracle) if oracle.spec.s == 1 else multi_sort(oracle)
