"""Non-adaptive sorting by deduction from a reference superset.

The plan fixes the k+t-2 lowest-labeled elements as a superset, requests all
queries inside it (the closure) and, for every (t-1)-subset of it, every
query containing that subset.  The closure pins down the superset's middle
t-1 elements, which become an internally ordered reference chain; the answer
to any other query is then deduced by substituting a reference element for
each query member in turn and classifying the response multiplicities.  An
online pass replayed against the deduction engine recovers the full order
without further physical queries.

When the substitute is never answered, the target's response multiplicity
lies in one of two integer windows, one for a substitute below the target
and one for a substitute above it; a query resolves when exactly one
candidate survives across substitutes.  The one genuinely ambiguous
signature (k = 2t, substitute above everything) leaves the target and one
neighbor as candidates; `_pair_order_tiebreak` settles it by looking up a
recorded query that holds both, whose answered candidate is the neighbor.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import comb, lgamma, log
from typing import AbstractSet, Iterable, Mapping

from .core import (
    Fan,
    PreconditionError,
    InconsistentAnswersError,
    QueryPlan,
    ScaleError,
    ScaleSpec,
    SortResult,
    UnsupportedScaleError,
    answer_plan,
    check_universe,
    first_contradiction,
    rank_keys,
)
from . import offline_adjacency, online


class DeductionError(ScaleError):
    """No admissible reading of the probe answers identifies the target."""


def offline_lower_bound(n: int, k: int, t: int) -> int:
    """Least possible size of any one-shot plan: ceil(C(n, k-t+1) / C(k, k-t+1)).

    t is normalized to min(t, k+1-t) first; a plan missing some
    (k-t+1)-set could not split the orderings that hide it at the top.
    A bound with more decimal digits than the interpreter converts to text
    (sys.get_int_max_str_digits(), 0 for no limit) is refused, before any
    big-integer work where a float estimate already shows it too long.
    """
    if not 1 <= t <= k <= n:
        raise PreconditionError(f"need 1 <= t <= k <= n, got t={t} k={k} n={n}")
    r = k - min(t, k + 1 - t) + 1
    limit = sys.get_int_max_str_digits()
    if not limit or _log10_ratio_floor(n, k, r) < limit:
        # C(n, r) / C(k, r) = C(n, d) / C(n - r, d) with d = n - k: the
        # binomials from the smaller of r and d are the cheaper.
        d = n - k
        num, den = (comb(n, r), comb(k, r)) if r <= d else (comb(n, d), comb(n - r, d))
        value = -(-num // den)
        if not limit or value < 10 ** limit:
            return value
    raise ScaleError(f"the lower bound has more than {limit} digits, the most this"
                     " interpreter converts to text (PYTHONINTMAXSTRDIGITS raises it)")


def _log10_ratio_floor(n: int, k: int, r: int) -> float:
    """A lower bound on log10(C(n, r) / C(k, r)) for 1 <= r <= k <= n."""
    if n < 2 ** 53:  # exact as floats; the margin is far above lgamma's rounding
        nats = lgamma(n + 1) - lgamma(n - r + 1) - lgamma(k + 1) + lgamma(k - r + 1)
        return (nats - 1e-13 * n * log(n + 1) - 1e-9) / log(10)
    # Each of the r factors (n - i) / (k - i) of the ratio is at least n / k.
    return r * (log(n) - log(k) - 1e-14 * log(n)) / log(10)


def find_ordered_pair(results: Mapping[frozenset[int], frozenset[int]],
                      spec: ScaleSpec) -> tuple[int, int]:
    """From the k+1 answers over a (k+1)-set, name two elements with known order.

    Only the t-th and (t+1)-th of the pool can be answered; they occur
    k+1-t and t times respectively, which tells them apart whenever the
    instrument is asymmetric.  Returns (smaller, larger).
    """
    if spec.s != 1:
        raise UnsupportedScaleError("ordered-pair extraction needs a singleton instrument")
    k, t = spec.k, spec.outputs[0]
    if len(results) != k + 1:
        raise PreconditionError(f"expected {k + 1} answers, got {len(results)}")
    counts: Counter[int] = Counter()
    for out in results.values():
        if len(out) != 1:
            raise InconsistentAnswersError("non-singleton answer in pair extraction")
        counts[next(iter(out))] += 1
    if len(counts) != 2:
        raise InconsistentAnswersError(
            f"expected exactly two distinct answers, got {len(counts)}")
    (va, ca), (vb, cb) = counts.items()
    if ca == cb:
        raise UnsupportedScaleError(
            "equal answer multiplicities; a symmetric instrument cannot order the pair")
    if sorted((ca, cb)) != sorted((k + 1 - t, t)):
        raise InconsistentAnswersError(
            f"answer multiplicities {sorted((ca, cb))} do not match ({k + 1 - t}, {t})")
    return (va, vb) if ca == k + 1 - t else (vb, va)


@dataclass(frozen=True)
class KnowledgeBase:
    """Physically answered queries plus the deduction context.

    chain is the internally ordered reference sequence; below/above hold
    elements known smaller/larger than every chain member; free_pool holds
    reference-superset members with no established relations (still usable
    as substitutes, since substitution needs their fans, not their rank).
    Everything but the `deduced` memo is fixed once the base is built, so
    each placed element's position and the substitute order are computed
    once, here, and the union of the recorded queries on first use.
    """

    spec: ScaleSpec
    known: dict[frozenset[int], frozenset[int]]
    chain: tuple[int, ...]
    below: tuple[int, ...] = ()
    above: tuple[int, ...] = ()
    free_pool: tuple[int, ...] = ()
    deduced: dict[frozenset[int], frozenset[int]] = field(default_factory=dict)
    substitutes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _position: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "substitutes",
                           self.chain + self.above + self.below + self.free_pool)
        object.__setattr__(self, "_position", rank_keys(self.chain, self.below, self.above))

    @cached_property
    def universe(self) -> frozenset[int]:
        """Every id of a recorded query; only the pair-order tie-break reads it."""
        return frozenset().union(*self.known)

    def lookup(self, q: frozenset[int]) -> frozenset[int] | None:
        hit = self.known.get(q)
        if hit is None:
            hit = self.deduced.get(q)
        return hit


_NO_CANDIDATES: tuple[frozenset[int], frozenset[int]] = (frozenset(), frozenset())


def _interpret_absent(counts: Mapping[int, int], k: int, t: int, m: int,
                      beta: int) -> tuple[AbstractSet[int], AbstractSet[int]]:
    """Candidate targets when the substitute itself was never answered.

    Below the target (zone 1), the substitute leaves c >= beta placed members
    below the target, which answers t - 1 - c times, c <= min(m, t - 2); above
    it (zone 4), with j <= beta placed members at or below the target, it
    answers k - t - m + j times.  A value is a candidate when its multiplicity
    lies in either window (the k - m probes fix the other value's); the true
    zone's window holds the target's, so the target is in every nonempty
    candidate set.  One value gives none, and builds nothing.
    """
    if len(counts) != 2:
        return _NO_CANDIDATES
    lo_below, hi_below = max(t - 1 - m, 1), t - beta
    lo_above, hi_above = max(k - t - m, 1), k - t - m + beta + 1
    cands: set[int] = set()
    zones: set[int] = set()
    for x, cx in counts.items():
        if lo_below <= cx < hi_below:
            cands.add(x)
            zones.add(1)
        if lo_above <= cx < hi_above:
            cands.add(x)
            zones.add(4)
    return cands, zones


def _pair_order_tiebreak(kb: KnowledgeBase, cands: set[int],
                         pool: list[int], pool_above: bool) -> int | None:
    """Settle a two-candidate tie once every pool member clears both.

    In a stuck state the candidates are the target and one neighbor, and
    the zone certifies the pool sits entirely above (or entirely below)
    both.  A recorded query holding both candidates, enough pool members on
    the certified side, and arbitrary fillers can answer inside the pair
    only at the candidate adjacent to the fillers' side: the other one has
    too many query members beyond it.  The answered candidate is therefore
    the neighbor and the remaining one is the target.  Some filler choice
    must work, because the answered neighbor is itself an answerable
    element with enough elements on the needed side.
    """
    spec = kb.spec
    k, t = spec.k, spec.outputs[0]
    pool_take = k - t if pool_above else t - 1
    filler_take = t - 2 if pool_above else k - t - 1
    if len(pool) < pool_take:
        return None
    chosen_pool = sorted(pool)[:pool_take]
    fillers = sorted(kb.universe - cands - set(chosen_pool))
    base = sorted(cands) + chosen_pool
    for combo in itertools.combinations(fillers, filler_take):
        out = kb.lookup(frozenset(base + list(combo)))
        if out is None or len(out) != 1:
            continue
        answered = next(iter(out))
        if answered in cands:
            return next(iter(cands - {answered}))
    return None


def _deduce(kb: KnowledgeBase, q: frozenset[int], busy: set[frozenset[int]]) -> frozenset[int]:
    spec = kb.spec
    k, t = spec.k, spec.outputs[0]
    known, deduced = kb.known.get, kb.deduced
    # The run's candidates, the zones certified and the substitutes that
    # certified them; built once a window first admits a candidate.
    accum: set[int] | None = None
    zone_mix: set[int] | None = None
    subs: list[int] | None = None
    position = kb._position
    placed = [(p, position.get(p)) for p in sorted(q)]
    for w in kb.substitutes:
        if w in q:
            continue
        # Members placed apart from w count towards m (and beta when below
        # it); the unplaced and those in w's own unordered family are swapped out.
        pw = position.get(w)
        beta = m = 0
        victims: list[int] = []
        for p, pp in placed:
            if pw is None or pp is None or pp == pw:
                victims.append(p)
            else:
                m += 1
                beta += pp < pw
        qw = q | {w}
        responses: dict[int, int] = {}
        failed = False
        for e in victims:
            probe = qw - {e}
            out = known(probe)
            if out is None:
                out = deduced.get(probe)
            if out is None:
                # busy holds the deductions under way above this one, not q:
                # a probe holds w, which q lacks, so it is never q itself.
                if probe in busy:
                    failed = True
                    break
                try:
                    out = _deduce(kb, probe, busy | {q})
                except DeductionError:
                    failed = True
                    break
                deduced[probe] = out
            if len(out) != 1:
                raise InconsistentAnswersError("deduction requires singleton answers")
            (v,) = out
            responses[v] = responses.get(v, 0) + 1
        if failed:
            continue
        if w in responses:
            others = [v for v in responses if v != w]
            if len(others) == 1:
                return frozenset(others)
            if len(others) > 1:
                raise InconsistentAnswersError(
                    "substitute answered alongside two other values")
            continue  # every probe answered the substitute: no information
        cands, zones = _interpret_absent(responses, k, t, m, beta)
        if len(cands) == 1:
            return frozenset(cands)
        if cands:
            if zone_mix is None:
                zone_mix, subs = set(), []
            zone_mix |= zones
            subs.append(w)
            accum = cands if accum is None else accum & cands
            if len(accum) == 1:
                return frozenset(accum)
    if accum and len(accum) == 2 and len(zone_mix) == 1:
        # Every run certified the same zone, so the substitutes all clear
        # both candidates on one known side; a direct pair query settles it.
        settled = _pair_order_tiebreak(kb, accum, subs, 4 in zone_mix)
        if settled is not None:
            return frozenset((settled,))
    raise DeductionError(f"cannot deduce the answer for query {sorted(q)}")


def deduce_query(kb: KnowledgeBase, q: Iterable[int]) -> frozenset[int]:
    """Answer an arbitrary query from recorded answers alone (memoized)."""
    spec = kb.spec
    if spec.s != 1:
        raise UnsupportedScaleError("deduction is implemented for singleton instruments")
    if spec.outputs[0] < 2:
        raise UnsupportedScaleError("a minimum instrument leaves nothing to deduce from")
    qs = frozenset(q)
    if len(qs) != spec.k:
        raise PreconditionError(f"query must contain {spec.k} distinct elements")
    hit = kb.lookup(qs)
    if hit is not None:
        return hit
    out = _deduce(kb, qs, set())
    kb.deduced[qs] = out
    return out


@dataclass(frozen=True)
class RecursivePlan(QueryPlan):
    """The superset closure, then one fan per (t-1)-subset of the superset.

    The first fan, with an empty reference, is the closure: every k-subset
    of the superset.  spec is the physical instrument; the fans are those
    of its `read_side`.
    """

    superset: tuple[int, ...]

    @property
    def closure_queries(self) -> list[tuple[int, ...]]:
        return list(self.fans[0].free_sets())

    def iter_fan_queries(self):
        """Yields (reference, query) pairs; overlapping fans repeat queries."""
        for fan in self.fans[1:]:
            ref = tuple(sorted(fan.reference))
            for free in fan.free_sets():
                yield ref, ref + free

    @property
    def physical_size(self) -> int:
        return self.size


def plan_size_formula(n: int, k: int, t: int) -> int:
    return comb(k + t - 2, k) + comb(k + t - 2, t - 1) * comb(n - t + 1, k - t + 1)


def recursive_plan(n: int, spec: ScaleSpec) -> RecursivePlan:
    """The one-shot plan of a singleton instrument.

    The fans are those of `spec.read_side`.  A minimum instrument (t = 1)
    has no reference chain to order: its superset and closure are empty and
    its one other fan, with an empty reference, is every one of the C(n, k)
    queries.
    """
    if spec.s != 1:
        raise UnsupportedScaleError("the recursive plan requires a singleton instrument")
    k, t = spec.k, spec.read_side.outputs[0]
    superset = tuple(range(k + t - 2)) if t > 1 else ()
    if n <= 2 * k:
        raise PreconditionError(f"the recursive plan needs n > 2k, got n={n} k={k}")
    check_universe(n)
    fans = [Fan(frozenset(), superset, k)]
    for ref in itertools.combinations(superset, t - 1):
        fans.append(Fan(frozenset(ref), tuple(e for e in range(n) if e not in ref), k - t + 1))
    return RecursivePlan(n, spec, tuple(fans), superset)


def build_recursive_plan(n: int, k: int, t: int) -> RecursivePlan:
    """recursive_plan of the (k, t) instrument."""
    return recursive_plan(n, ScaleSpec(k, (t,)))


def order_superset(closure_results: Mapping[frozenset[int], frozenset[int]],
                   superset: Iterable[int], spec: ScaleSpec
                   ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Order the superset's middle from the closure answers.

    The superset is the ids 0..m-1, as in every plan, and spec its
    `read_side`.  Returns the middle sequence (the chain; canonical reading
    for a symmetric instrument), the sets known below and above it, and
    the members left unplaced (the free pool).  With t <= 2 the closure is
    at most the superset itself: its answer is the whole chain and every
    other member is free.  Otherwise the closure is the exhaustive plan
    over the superset, which the adjacency solve orders completely.
    """
    members = sorted(superset)
    refusal = "no superset ordering matches the closure answers"
    if spec.outputs[0] <= 2:
        chain: tuple[int, ...] = ()
        for q, out in closure_results.items():
            if len(out) != 1 or not out <= q:
                raise InconsistentAnswersError(refusal)
            chain = tuple(out)
        return chain, (), (), tuple(e for e in members if e not in chain)
    try:
        res = offline_adjacency.solve_from_results(QueryPlan.exhaustive(len(members), spec),
                                                   closure_results)
    except InconsistentAnswersError as exc:
        raise InconsistentAnswersError(f"{refusal}: {exc}") from exc
    return res.middle, tuple(sorted(res.s_set)), tuple(sorted(res.l_set)), ()


class ReplayOracle:
    """Oracle-shaped adapter that answers from a knowledge base.

    Used to rerun the adaptive algorithm after a one-shot plan: lookups and
    deductions replace physical queries, so nothing here counts toward the
    plan size.
    """

    def __init__(self, spec: ScaleSpec, n: int, kb: KnowledgeBase):
        self._spec = spec
        self._n = n
        self._kb = kb
        self._count = 0

    @property
    def spec(self) -> ScaleSpec:
        return self._spec

    @property
    def n(self) -> int:
        return self._n

    @property
    def query_count(self) -> int:
        return self._count

    def query(self, elements: Iterable[int]) -> frozenset[int]:
        qs = frozenset(elements)
        out = self._kb.lookup(qs) or deduce_query(self._kb, qs)
        self._count += 1
        return out


def solve_from_results(plan: RecursivePlan,
                       results: Mapping[frozenset[int], frozenset[int]]) -> SortResult:
    """Order the superset from the closure answers, then replay the adaptive
    algorithm against deduction from every answer.

    Every plan query must be answered: deduction could stand in for a
    missing fan answer, but queries_used counts physical plan entries
    (overlapping fans resubmit their shared queries).  The superset and the
    deduction read the plan's `read_side`; the replay, like every online
    sort, mirrors itself back to the physical instrument.  The solved order
    is returned only if it agrees with every answer.
    """
    spec = plan.spec.read_side
    k, t = spec.k, spec.outputs[0]
    # The plan's distinct queries are exactly the k-subsets of range(n) with
    # at least t - 1 superset members, so counting the answered ones is
    # enough; only a shortfall pays for rebuilding the plan to name one.
    # Only a query with an id not seen before is compared with n.
    superset = frozenset(plan.superset)
    n, m = plan.n, len(superset)
    distinct = sum(comb(m, j) * comb(n - m, k - j) for j in range(t - 1, k + 1))
    answered = 0
    seen: set[int] = set()  # the ids already found in [0, n)
    for q in results:
        if (len(q) == k and len(q & superset) >= t - 1
                and (q <= seen or min(q) >= 0 and max(q) < n)):
            seen |= q
            answered += 1
    if answered < distinct:
        for q in plan.queries():
            if q not in results:
                raise InconsistentAnswersError(f"missing answer for plan query {sorted(q)}")
    closure = {q: results[q] for q in map(frozenset, plan.closure_queries)}
    chain, below, above, free = order_superset(closure, plan.superset, spec)
    kb = KnowledgeBase(spec, results, chain, below, above, free)
    res = online.singleton_sort(ReplayOracle(plan.spec, plan.n, kb))
    # Deduction trusts every answer it reads, so a corrupted answer can steer
    # the replay to an order that contradicts it or another answer.
    bad = first_contradiction(results.items(), res.middle, res.s_set, res.l_set,
                              plan.spec.outputs)
    if bad is not None:
        q, o = bad
        raise InconsistentAnswersError(
            f"the solved order contradicts the answer {sorted(o)} to query {sorted(q)}")
    return replace(res, queries_used=plan.size)


def recursive_sort(oracle) -> SortResult:
    """One-shot plan, deduction, and an adaptive replay over the answers."""
    plan = recursive_plan(oracle.n, oracle.spec)
    return solve_from_results(plan, answer_plan(oracle, plan))
