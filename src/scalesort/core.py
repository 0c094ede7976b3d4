"""Scale instruments, hidden orders, the simulated oracle, and result equivalence.

A *scale* takes k distinct elements and reports, as an unordered set, the
elements sitting at fixed rank positions t1 < ... < ts within the queried
set.  Elements are opaque integer labels 0..n-1; the hidden order assigns
each label a rank in 1..n (1 = smallest).  Because the bottom t1-1 and top
k-ts elements of the whole set can never appear in any outcome, their
internal order is not recoverable; we call these the small segment (S) and
the large segment (L).  An instrument whose reported positions include the
run 1..j (j >= 2) reports every one of the j globally smallest elements
whenever it is queried, so their mutual order is not recoverable either:
they form the bottom end block.  A run k-j+1..k likewise makes the j
largest elements the top end block.  A symmetric instrument (output
positions invariant under i -> k+1-i) additionally cannot tell an ordering
from its reflection.  With n > 2k, brute force over every complete answer
set (k <= 4, n = 2k+1) finds no other ambiguity.

The Oracle is single-writer: each evaluation appends its sorted query ids
and then its sorted outcome ids to a store of arrays kept in chunks of
whole queries, k + s ids per query, and the query count is the store's
length over k + s; so one oracle must not be shared by concurrent
queriers.  Its ids take 1 byte for n <= 256, 2 for n <= 65,536 and a C
int above, so `check_universe` refuses every n above 2**31 before
anything is built by n.
Value types (ScaleSpec, HiddenOrder, SortResult) are immutable.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, islice
from math import comb
from operator import getitem, itemgetter
from typing import Collection, Iterable, Iterator

RESOLVED = "resolved"
REFLECTION_AMBIGUOUS = "reflection_ambiguous"

# Bytes per Oracle store chunk, whatever the width of its ids.
STORE_CHUNK_BYTES = 1 << 16


class ScaleError(ValueError):
    """Base class for all domain errors."""


class QuerySizeError(ScaleError):
    """Query does not contain exactly k elements."""


class DuplicateElementError(ScaleError):
    """Query contains a repeated element id."""


class UnknownElementError(ScaleError):
    """Query references an id outside [0, n)."""


class PartitionError(ScaleError):
    """A result does not partition the element universe as required."""


class UnsupportedScaleError(ScaleError):
    """The requested operation is not defined for this instrument shape."""


class PreconditionError(ScaleError):
    """Structural precondition violated (n too small, pool exhausted, ...)."""


class InconsistentAnswersError(ScaleError):
    """Recorded answers contradict every admissible interpretation."""


def check_universe(n: int) -> None:
    if n > 2**31:
        raise PreconditionError(f"n={n} is above 2**31, the largest n whose ids are C ints")


@dataclass(frozen=True)
class ScaleSpec:
    """A (k, t1, ..., ts) instrument: arity k, output rank positions `outputs`."""

    k: int
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.k < 2:
            raise ScaleError("arity k must be at least 2")
        if not self.outputs:
            raise ScaleError("at least one output position required")
        if list(self.outputs) != sorted(set(self.outputs)):
            raise ScaleError("output positions must be strictly increasing")
        if self.outputs[0] < 1 or self.outputs[-1] > self.k:
            raise ScaleError("output positions must lie in [1, k]")
        if len(self.outputs) == self.k:
            raise ScaleError("an instrument reporting all k positions answers every query"
                             " with the query itself, which determines no order")

    @property
    def s(self) -> int:
        return len(self.outputs)

    @property
    def s_size(self) -> int:
        """Size of the small segment S: t1 - 1."""
        return self.outputs[0] - 1

    @property
    def l_size(self) -> int:
        """Size of the large segment L: k - ts."""
        return self.k - self.outputs[-1]

    @property
    def bottom_block_size(self) -> int:
        """Size of the unorderable bottom end block: j for a reported run 1..j, j >= 2, else 0."""
        j = 0
        while j < self.s and self.outputs[j] == j + 1:
            j += 1
        return j if j >= 2 else 0

    @property
    def top_block_size(self) -> int:
        """Size of the unorderable top end block: j for a reported run k-j+1..k, j >= 2, else 0."""
        return self.mirrored().bottom_block_size

    @property
    def is_symmetric(self) -> bool:
        return set(self.outputs) == {self.k + 1 - t for t in self.outputs}

    @property
    def k_prime(self) -> int:
        """Reduced arity once the first ts - 1 slots are pre-filled: k - (ts - 1)."""
        return self.k - (self.outputs[-1] - 1)

    def mirrored(self) -> "ScaleSpec":
        """The same physical instrument read against the reversed order."""
        return ScaleSpec(self.k, tuple(sorted(self.k + 1 - t for t in self.outputs)))

    @property
    def read_side(self) -> "ScaleSpec":
        """The instrument as every algorithm reads it: a singleton with 2t > k+1 as
        (k; k+1-t), a suffix run k-j+1..k as the run 1..j, any other shape as itself."""
        t1, k, s = self.outputs[0], self.k, self.s
        if s == 1 and 2 * t1 > k + 1 or s > 1 and t1 == k - s + 1:
            return self.mirrored()
        return self

    @classmethod
    def parse(cls, text: str) -> "ScaleSpec":
        """Parse the text form "k:t1,t2,..." (e.g. "7:2,6")."""
        try:
            head, _, tail = text.partition(":")
            k = int(head)
            outputs = tuple(int(p) for p in tail.split(","))
        except (TypeError, ValueError) as exc:
            raise ScaleError(f"cannot parse scale spec {text!r}") from exc
        return cls(k, outputs)

    @property
    def text(self) -> str:
        return f"{self.k}:{','.join(str(t) for t in self.outputs)}"


@dataclass(frozen=True)
class HiddenOrder:
    """A fixed but unknown total order: ranks[eid] = rank of element eid, 1-based."""

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(self.ranks))
        n = len(self.ranks)
        if sorted(self.ranks) != list(range(1, n + 1)):
            raise ScaleError("ranks must be a bijection onto 1..n")

    @property
    def n(self) -> int:
        return len(self.ranks)

    @property
    def by_rank(self) -> tuple[int, ...]:
        """Element ids sorted from smallest to largest."""
        return tuple(sorted(range(self.n), key=self.ranks.__getitem__))

    def reversed_(self) -> "HiddenOrder":
        n = self.n
        return HiddenOrder(tuple(n + 1 - r for r in self.ranks))

    @classmethod
    def identity(cls, n: int) -> "HiddenOrder":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_seed(cls, n: int, seed: int) -> "HiddenOrder":
        """Deterministic order: Mersenne Twister seeded with `seed`, Fisher-Yates shuffle."""
        if n < 0:
            raise PreconditionError(f"n must be non-negative, got n={n}")
        check_universe(n)
        ranks = list(range(1, n + 1))
        random.Random(seed).shuffle(ranks)
        return cls(tuple(ranks))


def outcome_of(ranks: Sequence[int], outputs: Sequence[int], query: Iterable[int]) -> frozenset[int]:
    """Outcome of one query under an explicit rank array. Pure; no validation."""
    ordered = sorted(query, key=ranks.__getitem__)
    return frozenset(ordered[t - 1] for t in outputs)


class Transcript:
    """Read-only (query, outcome) pairs of sorted id tuples over an oracle's store.

    A snapshot: it covers the queries recorded when it was taken, and later
    queries do not change it.  It has a length and iterates like the list
    of pairs it stands for.
    """

    __slots__ = ("_chunks", "_k", "_width", "_len")

    def __init__(self, chunks: list[array], k: int, s: int, count: int):
        """`chunks` hold the store whose first `count` queries this covers."""
        self._chunks = chunks
        self._k = k
        self._width = k + s
        self._len = count

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        k = self._k
        ids = islice(chain.from_iterable(self._chunks), self._len * self._width)
        for row in zip(*[ids] * self._width):
            yield row[:k], row[k:]


class Oracle:
    """Simulated instrument over a hidden order.

    Every evaluation is recorded in an array store: the k sorted query
    ids, then the s sorted outcome ids, in the narrowest array type that
    holds n - 1: "B" up to n = 256, "H" up to 65,536, else "i".
    query_count is the store's length over k + s, so query accounting
    cannot be bypassed by callers that only see outcomes, and a query
    rejected by validation writes nothing.  Repeating a query returns the
    same value but is counted again.

    An evaluation sorts the ids twice, by label and then by rank, and picks
    the outcome with one C call, an itemgetter of the output positions (a
    one-item slice for a singleton, so the pick is always a sequence).  The
    rank key is partial(getitem, ranks): it keys a sort faster than the
    method-wrapper ranks.__getitem__ and, unlike a list of the ranks,
    keeps no per-oracle copy.

    The store is a list of chunks of at most STORE_CHUNK_BYTES bytes,
    whole queries each, rather than one array: one array of several MiB
    would be regrown by realloc, which copies it or not depending on the
    allocator's history, so the peak memory of a long sort would change by
    MiBs from one run to the next.  Chunks stay small and are never regrown
    once full.
    """

    def __init__(self, order: HiddenOrder, spec: ScaleSpec):
        n = order.n
        # Evaluation only needs a proper universe; the multi-output sorting
        # pipeline additionally requires n > 2k and checks that itself (with
        # n <= 2k a multi-output instrument can leave an indistinguishable
        # middle segment, but its individual queries are still well defined).
        if n < spec.k + 1:
            raise PreconditionError(f"need n >= k+1 (n={n}, k={spec.k})")
        self._n = n
        self._k = spec.k
        self._spec = spec
        self._rank = partial(getitem, order.ranks)
        t1 = spec.outputs[0]
        self._pick = (itemgetter(*(t - 1 for t in spec.outputs)) if spec.s > 1
                      else itemgetter(slice(t1 - 1, t1)))
        self._width = spec.k + spec.s
        self._typecode = "B" if n <= 1 << 8 else "H" if n <= 1 << 16 else "i"
        row_bytes = array(self._typecode).itemsize * self._width
        self._rows = max(1, STORE_CHUNK_BYTES // row_bytes)  # queries per chunk
        self._chunks: list[array] = []
        self._next_chunk()

    def _next_chunk(self) -> None:
        chunk = array(self._typecode)
        self._chunks.append(chunk)
        self._record = chunk.fromlist
        self._room = self._rows

    @property
    def spec(self) -> ScaleSpec:
        return self._spec

    @property
    def n(self) -> int:
        return self._n

    @property
    def query_count(self) -> int:
        return (len(self._chunks) - 1) * self._rows + len(self._chunks[-1]) // self._width

    @property
    def transcript(self) -> Transcript:
        """Recorded (query, outcome) pairs as sorted id tuples, as of now."""
        return Transcript(self._chunks[:], self._spec.k, self._spec.s, self.query_count)

    def query(self, elements: Iterable[int]) -> frozenset[int]:
        ids = list(elements)
        k = self._k
        if len(ids) != k:
            raise QuerySizeError(f"query must contain exactly {k} elements, got {len(ids)}")
        if len(set(ids)) != k:
            raise DuplicateElementError("query contains duplicate element ids")
        ids.sort()
        n = self._n
        if ids[0] < 0 or ids[-1] >= n:
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise UnknownElementError(f"element id {bad} outside [0, {n})")
        # fromlist writes all k ids or, on a non-integer id, none; past it
        # the ids are ints in [0, n) and nothing below can fail.
        record = self._record
        record(ids)
        ids.sort(key=self._rank)
        out = self._pick(ids)
        record(sorted(out))
        self._room -= 1
        if not self._room:
            self._next_chunk()
        return frozenset(out)


@dataclass(frozen=True)
class Fan:
    """All k-queries containing one fixed reference set.

    Each query is the reference plus one `width`-subset of `rest`; the free
    parts are generated on demand, as sorted tuples in lexicographic order.
    """

    reference: frozenset[int]
    rest: tuple[int, ...]
    width: int

    def free_sets(self) -> Iterator[tuple[int, ...]]:
        return combinations(self.rest, self.width)


@dataclass(frozen=True)
class QueryPlan:
    """A one-shot batch of fans, issued fan by fan; overlapping fans repeat queries."""

    n: int
    spec: ScaleSpec
    fans: tuple[Fan, ...]

    @property
    def size(self) -> int:
        return sum(comb(len(fan.rest), fan.width) for fan in self.fans)

    def queries(self) -> Iterator[frozenset[int]]:
        """Every plan query, fan by fan, in issue order."""
        for fan in self.fans:
            ref = fan.reference
            for free in fan.free_sets():
                # A union of two sets sizes its table once: 472 B for five ids, not 728.
                yield ref | frozenset(free)

    @classmethod
    def exhaustive(cls, n: int, spec: ScaleSpec) -> "QueryPlan":
        """All C(n, k) queries under a single empty reference set."""
        return cls(n, spec, (Fan(frozenset(), tuple(range(n)), spec.k),))


def answer_plan(oracle, plan) -> dict[frozenset[int], frozenset[int]]:
    """Submit every query of a one-shot plan, in plan order; returns the answer
    map, in which equal outcomes share one set."""
    answers: dict[frozenset[int], frozenset[int]] = {}
    outcomes: dict[frozenset[int], frozenset[int]] = {}
    for q in plan.queries():
        outcome = oracle.query(q)
        answers[q] = outcomes.setdefault(outcome, outcome)
    return answers


@dataclass(frozen=True)
class SortResult:
    """Recovered ordering: middle sequence plus unordered extreme segments.

    middle lists X minus (S union L) from smallest to largest, except that
    its first spec.bottom_block_size and last spec.top_block_size entries
    are the unorderable end blocks, listed in label order; s_set and
    l_set are the unordered small/large segments; orientation records
    whether the direction was pinned down or is known only up to global
    reflection (possible only for symmetric instruments, in which case a
    reflected reading also swaps s_set with l_set).
    """

    middle: tuple[int, ...]
    s_set: frozenset[int]
    l_set: frozenset[int]
    orientation: str
    queries_used: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "middle", tuple(self.middle))
        object.__setattr__(self, "s_set", frozenset(self.s_set))
        object.__setattr__(self, "l_set", frozenset(self.l_set))
        if self.orientation not in (RESOLVED, REFLECTION_AMBIGUOUS):
            raise ScaleError(f"unknown orientation {self.orientation!r}")


def mirror_result(result: SortResult, spec: ScaleSpec) -> SortResult:
    """Translate a result computed against `spec.mirrored()` back to `spec`; the
    top end block comes back reversed and is listed in label order again."""
    middle = result.middle[::-1]
    cut = len(middle) - spec.top_block_size
    return SortResult(middle[:cut] + tuple(sorted(middle[cut:])), result.l_set, result.s_set,
                      result.orientation, result.queries_used)


def rank_keys(middle: Sequence[int], below: Iterable[int], above: Iterable[int]) -> dict[int, int]:
    """Key of each placed element: -1 below, its index in middle, len(middle) above.

    Members of below or of above tie; middle wins over below, below over above.
    """
    key = dict.fromkeys(above, len(middle))
    key.update(dict.fromkeys(below, -1))
    key.update(zip(middle, range(len(middle))))
    return key


def first_contradiction(entries: Iterable[tuple[Collection[int], tuple[int, ...] | frozenset[int]]],
                        middle: Sequence[int], s_set: Iterable[int], l_set: Iterable[int],
                        outputs: Sequence[int]) -> tuple | None:
    """The first (query, outcome) entry this (order, segment) hypothesis cannot produce, or None.

    Each element gets its `rank_keys` key with S below and L above middle,
    so segment members tie, and an entry holds iff the query's sorted keys
    at the output positions are the outcome's sorted keys and the outcome
    is len(outputs) distinct ids of the query.  An id with no key, or a
    query too short to reach an output position, contradicts the hypothesis.
    """
    rank = rank_keys(middle, s_set, l_set).__getitem__
    s = len(outputs)
    at_outputs = itemgetter(*(t - 1 for t in outputs))
    lowest = itemgetter(*range(s))
    wanted: dict = {}
    try:
        for q, o in entries:
            if o not in wanted:  # each distinct outcome's keys and ids, None if not s distinct ids
                ids = frozenset(o)
                wanted[o] = ((lowest(sorted(map(rank, ids))), ids)
                             if len(o) == len(ids) == s else (None, None))
            keys, ids = wanted[o]
            if keys is None or at_outputs(sorted(map(rank, q))) != keys or not ids.issubset(q):
                return q, o
    except (KeyError, IndexError):
        return q, o
    return None


def true_partition(truth: HiddenOrder, spec: ScaleSpec) -> tuple[frozenset[int], tuple[int, ...], frozenset[int]]:
    """(S, middle ascending, L) of the hidden order under this instrument."""
    by_rank = truth.by_rank
    n = truth.n
    s_true = frozenset(by_rank[:spec.s_size])
    l_true = frozenset(by_rank[n - spec.l_size:]) if spec.l_size else frozenset()
    mid_true = by_rank[spec.s_size:n - spec.l_size]
    return s_true, mid_true, l_true


def _middle_key(middle: Sequence[int], spec: ScaleSpec) -> tuple:
    """middle with its end blocks as sets: the part of it the answers can determine."""
    cut = len(middle) - spec.top_block_size
    lo = spec.bottom_block_size
    return frozenset(middle[:lo]), tuple(middle[lo:cut]), frozenset(middle[cut:])


def equivalent_up_to_ambiguity(result: SortResult, truth: HiddenOrder, spec: ScaleSpec) -> bool:
    """Does `result` carry exactly the recoverable part of `truth`?

    True iff s_set/l_set are the true extreme segments and middle matches the
    true order of the rest exactly, except that the end blocks at either end
    of middle need only hold the right elements; a reflection_ambiguous
    result for a symmetric instrument may instead match the reflected
    reading (middle reversed, s_set and l_set swapped).
    """
    n = truth.n
    claimed = set(result.middle) | result.s_set | result.l_set
    if len(result.middle) + len(result.s_set) + len(result.l_set) != n or claimed != set(range(n)):
        raise PartitionError("result does not partition the element universe")
    s_true, mid_true, l_true = true_partition(truth, spec)
    key_true = _middle_key(mid_true, spec)
    if (result.s_set == s_true and result.l_set == l_true
            and _middle_key(result.middle, spec) == key_true):
        return True
    if result.orientation == REFLECTION_AMBIGUOUS and spec.is_symmetric:
        if (result.s_set == l_true and result.l_set == s_true
                and _middle_key(result.middle[::-1], spec) == key_true):
            return True
    return False

