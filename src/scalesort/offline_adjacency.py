"""Non-adaptive sorting by adjacency elimination.

One batch of queries is fixed up front: three fans, each consisting of every
k-query containing a fixed reference set of size rho = ts - 1 of
`ScaleSpec.read_side` (rho sets only completeness, never the rule).  From
the answers, candidate neighbor pairs are eliminated by the replacement
rule: if a query answered x and the same query with x swapped for y did not
answer y, then x and y cannot be adjacent.  The surviving graph on the
elements that ever appear in an outcome is the adjacency path of the
recoverable middle, which rebuilds the order up to reflection; one
consistency sweep against the recorded answers then pins the direction and
the extreme segments.

Plan generation and elimination are pure functions of their inputs; fans may
be processed in any order (elimination is monotone), and the result is the
same.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import replace
from math import comb
from typing import Collection, Iterable, Mapping

from .core import (
    RESOLVED,
    REFLECTION_AMBIGUOUS,
    InconsistentAnswersError,
    Fan,
    Oracle,
    PreconditionError,
    QueryPlan,
    ScaleSpec,
    SortResult,
    UnsupportedScaleError,
    answer_plan,
    check_universe,
    first_contradiction,
)


def plan_size_formula(n: int, spec: ScaleSpec) -> int:
    """Exact query count of the adjacency plan: 3*C(n-rho, k-rho), or C(n,k) if rho=0."""
    rho = spec.read_side.outputs[-1] - 1
    if rho == 0:
        return comb(n, spec.k)
    return 3 * comb(n - rho, spec.k - rho)


def build_adjacency_plan(n: int, spec: ScaleSpec) -> QueryPlan:
    """Three disjoint lowest-label reference sets of size rho, each with its full fan.

    With rho = 0 (a plain minimum or maximum scale) the plan degenerates to
    all C(n, k) queries under a single empty reference set.  Instruments
    reporting a run of positions 1..j or k-j+1..k (j >= 2) are refused: the
    answers never order that end block, so the surviving graph is never a
    path and the rebuild could not finish.
    """
    if spec.bottom_block_size or spec.top_block_size:
        raise UnsupportedScaleError(
            f"adjacency plan cannot sort {spec.text}: no answer orders its end block of "
            f"{spec.bottom_block_size or spec.top_block_size}, so the surviving graph is"
            " never a path")
    check_universe(n)
    k = spec.k
    rho = spec.read_side.outputs[-1] - 1
    if rho == 0:
        if n < k + 1:
            raise PreconditionError(f"need n >= k+1 (n={n}, k={k})")
        return QueryPlan.exhaustive(n, spec)
    if n < 3 * rho + (k - rho) + 1:
        raise PreconditionError(
            f"n={n} too small for three disjoint reference sets of size {rho}")
    ids = tuple(range(n))
    fans = tuple(Fan(frozenset(ids[i * rho:(i + 1) * rho]),
                     ids[:i * rho] + ids[(i + 1) * rho:], k - rho) for i in range(3))
    return QueryPlan(n, spec, fans)


class AdjacencyMap:
    """Candidate-neighbor sets over a support; symmetric by construction."""

    def __init__(self, support: Iterable[int]):
        self.support = frozenset(support)
        self.neighbors: dict[int, set[int]] = {
            e: set(self.support) - {e} for e in self.support}

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.neighbors.get(a, ())

    def is_path(self) -> bool:
        return bool(self.support) and len(self.walk()) == len(self.support)

    def walk(self) -> list[int]:
        """Path sequence starting from the lowest-labeled endpoint.

        The walk stops short, or returns [] at a vertex with two onward
        neighbors, so it covers the support only when the graph is one path.
        """
        if len(self.support) == 1:
            return list(self.support)
        ends = sorted(e for e in self.support if len(self.neighbors[e]) == 1)
        if not ends:
            return []
        seq = [ends[0]]
        prev = None
        while True:
            nxt = [e for e in self.neighbors[seq[-1]] if e != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return []
            prev = seq[-1]
            seq.append(nxt[0])
        return seq


def eliminate_nonadjacent(plan: QueryPlan,
                          results: Mapping[frozenset[int], frozenset[int]]) -> AdjacencyMap:
    """Apply the replacement rule over every sibling pair of every fan.

    Siblings are queries of one fan whose free parts differ in a single
    element u -> v; if u was answered and v was not answered in the sibling,
    the edge {u, v} is deleted.  A truly adjacent pair can never be deleted:
    whenever u holds an output position with v absent, v holds the same
    position in the sibling.  Each plan query is read once: each answered
    member u of its free part joins the group of its core, the free part
    without u.  The other siblings of a core are unanswered, so each group
    member loses the fan's rest outside core and group, as bits of its
    lost-neighbour mask.  An edge survives if neither end lost it.
    """
    outcomes: set[frozenset[int]] = set()
    lost = [0] * plan.n
    for fan in plan.fans:
        ref = fan.reference
        groups: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
        for free in fan.free_sets():
            q = ref | frozenset(free)
            out = results.get(q)
            if out is None:
                raise InconsistentAnswersError(f"missing answer for plan query {sorted(q)}")
            outcomes.add(out)
            for u in out:
                if u in q and u not in ref:
                    i = free.index(u)
                    groups[free[:i] + free[i + 1:]].append(u)
        rest = sum(1 << e for e in fan.rest)
        for core, group in groups.items():
            unanswered = rest - sum(1 << e for e in core) - sum(1 << a for a in group)
            for a in group:
                lost[a] |= unanswered
    adj = AdjacencyMap(set().union(*outcomes))
    for a in adj.support.intersection(range(len(lost))):
        for b in adj.support.intersection(range(lost[a].bit_length())):
            if lost[a] >> b & 1:
                adj.neighbors[a].discard(b)
                adj.neighbors[b].discard(a)
    return adj


def rebuild_order(adj: AdjacencyMap,
                  transcript: Collection[tuple[Collection[int], tuple[int, ...] | frozenset[int]]],
                  spec: ScaleSpec) -> SortResult:
    """Walk the adjacency path, then pin direction and segments against the answers.

    Every (orientation, segment split) hypothesis is checked against the full
    transcript; exactly one must survive for an asymmetric instrument, and
    exactly the two reflected readings for a symmetric one.
    """
    if not adj.is_path():
        raise InconsistentAnswersError(
            "surviving adjacency graph is not a path; plan insufficient or n too small")
    seq = adj.walk()
    universe: set[int] = set()
    for q, _ in transcript:
        universe.update(q)
    outside = sorted(universe - adj.support)
    if len(outside) != spec.s_size + spec.l_size:
        raise InconsistentAnswersError(
            f"{len(outside)} elements never answered; expected {spec.s_size + spec.l_size}")

    consistent: list[tuple[tuple[int, ...], frozenset[int], frozenset[int]]] = []
    for middle in (tuple(seq), tuple(reversed(seq))):
        for s_pick in itertools.combinations(outside, spec.s_size):
            s_set = frozenset(s_pick)
            l_set = frozenset(outside) - s_set
            if first_contradiction(transcript, middle, s_set, l_set, spec.outputs) is None:
                consistent.append((middle, s_set, l_set))
    if not consistent:
        raise InconsistentAnswersError("no ordering hypothesis matches the recorded answers")
    if len(consistent) == 1:
        middle, s_set, l_set = consistent[0]
        return SortResult(middle, s_set, l_set, RESOLVED, 0)
    if len(consistent) == 2 and spec.is_symmetric:
        a, b = consistent
        if a[0] == tuple(reversed(b[0])) and a[1] == b[2] and a[2] == b[1]:
            middle, s_set, l_set = a if a[0] <= b[0] else b
            return SortResult(middle, s_set, l_set, REFLECTION_AMBIGUOUS, 0)
    raise InconsistentAnswersError(
        f"{len(consistent)} orderings match the answers; ambiguity beyond reflection")


def solve_from_results(plan: QueryPlan,
                       results: Mapping[frozenset[int], frozenset[int]]) -> SortResult:
    """Eliminate, then rebuild the order from the answers to every plan query."""
    adj = eliminate_nonadjacent(plan, results)
    return replace(rebuild_order(adj, results.items(), plan.spec), queries_used=plan.size)


def adjacency_sort(oracle: Oracle) -> SortResult:
    """Full offline pipeline: plan, answer, eliminate, rebuild."""
    plan = build_adjacency_plan(oracle.n, oracle.spec)
    return solve_from_results(plan, answer_plan(oracle, plan))
