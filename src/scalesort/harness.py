"""Brute-force consistency oracle, experiment runner, and benchmark sweeps.

The consistency oracle enumerates every hidden order of a small universe and
counts those reproducing a transcript; comparing that set with the
theoretical ambiguity class (free permutations inside each extreme segment
and inside each end block of a reported run 1..j or k-j+1..k, plus global
reflection for symmetric instruments) certifies that an algorithm extracted
neither more nor less than its queries support.

Experiments are reproducible: hidden orders come from a seeded Mersenne
Twister with a Fisher-Yates shuffle, and reports serialize with sorted keys
and fixed number formatting so identical seeds give byte-identical output.
Timing is reported only on request, since wall time would break that.
Independent trials may run concurrently (one oracle each); rows are sorted
on (spec, n, seed, algorithm) before serialization.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    HiddenOrder,
    Oracle,
    PreconditionError,
    ScaleSpec,
    SortResult,
    equivalent_up_to_ambiguity,
    outcome_of,
)
from . import offline_adjacency, offline_recursive, online

# Each algorithm by name, in report order.
ALGORITHMS = {
    "online": online.sort_online,
    "offline_adjacency": offline_adjacency.adjacency_sort,
    "offline_recursive": offline_recursive.recursive_sort,
}

# Largest universe the n! consistency enumeration accepts.
MAX_CONSISTENCY_N = 9
# Smallest universe `scalesort verify` can certify: k + 1 for its smallest arity, k = 3.
MIN_VERIFY_N = 4


@dataclass(frozen=True)
class ConsistencyReport:
    consistent_orders: tuple[tuple[int, ...], ...]


def consistent_permutations(transcript: Sequence[tuple[Sequence[int], Sequence[int]]],
                            n: int, spec: ScaleSpec) -> ConsistencyReport:
    """Enumerate all n! hidden orders consistent with a transcript (n <= MAX_CONSISTENCY_N)."""
    if n > MAX_CONSISTENCY_N:
        raise PreconditionError(
            f"consistency enumeration is limited to n <= {MAX_CONSISTENCY_N}")
    entries = [(tuple(q), frozenset(o)) for q, o in
               dict.fromkeys((tuple(q), tuple(o)) for q, o in transcript)]
    consistent: list[tuple[int, ...]] = []
    outputs = spec.outputs
    for perm in itertools.permutations(range(1, n + 1)):
        ok = True
        for q, out in entries:
            if outcome_of(perm, outputs, q) != out:
                ok = False
                break
        if ok:
            consistent.append(perm)
    return ConsistencyReport(tuple(consistent))


def ambiguity_class(truth: HiddenOrder, spec: ScaleSpec) -> set[tuple[int, ...]]:
    """Rank arrays indistinguishable from `truth` by any query sequence.

    The holders of each free rank range permute among themselves: the
    extreme segments S and L and the end blocks of a reported run 1..j or
    k-j+1..k (see ScaleSpec.bottom_block_size).  For a symmetric instrument
    the globally reversed readings are included too.
    With n <= 2k a multi-output instrument can leave further middle
    elements unorderable, which this class does not include.
    """
    n = truth.n
    low = spec.s_size + spec.bottom_block_size
    high = n - spec.l_size - spec.top_block_size
    free = (range(1, spec.s_size + 1), range(spec.s_size + 1, low + 1),
            range(high + 1, n - spec.l_size + 1), range(n - spec.l_size + 1, n + 1))
    out: set[tuple[int, ...]] = set()
    for base in (truth, truth.reversed_()) if spec.is_symmetric else (truth,):
        by_rank = base.by_rank
        holders = [[by_rank[r - 1] for r in block] for block in free]
        for perms in itertools.product(*(itertools.permutations(block) for block in free)):
            ranks = list(base.ranks)
            for ids, perm in zip(holders, perms):
                for eid, r in zip(ids, perm):
                    ranks[eid] = r
            out.add(tuple(ranks))
    return out


def ceil_log(base: int, x: int) -> int:
    """Smallest d >= 1 with base**d >= x (exact integer arithmetic)."""
    if base < 2:
        raise PreconditionError("logarithm base must be at least 2")
    d, power = 1, base
    while power < x:
        power *= base
        d += 1
    return d


def online_singleton_bound(n: int, spec: ScaleSpec) -> int:
    """Adaptive query allowance for a singleton instrument: n + 2*d*n'."""
    k = spec.k
    t = spec.outputs[0]
    t_eff = min(t, k + 1 - t)
    k_prime = k - t_eff + 1
    n_prime = n - (k - 1)
    d = ceil_log(k_prime, max(n_prime, 2))
    return n + 2 * d * n_prime


def algorithm_bound(algorithm: str, n: int, spec: ScaleSpec) -> int | None:
    if algorithm == "online":
        return online_singleton_bound(n, spec) if spec.s == 1 else None
    if algorithm == "offline_adjacency":
        return offline_adjacency.plan_size_formula(n, spec)
    if algorithm == "offline_recursive":
        return offline_recursive.recursive_plan(n, spec).physical_size
    raise PreconditionError(f"unknown algorithm {algorithm!r}")


@dataclass(frozen=True)
class ExperimentReport:
    spec: ScaleSpec
    n: int
    seed: int | None
    algorithm: str
    queries_used: int
    bound: int | None
    bound_satisfied: bool
    correct: bool | None
    orientation: str
    wall_time_ms: float

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "spec": self.spec.text,
            "n": self.n,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "queries_used": self.queries_used,
            "bound": self.bound,
            "bound_satisfied": self.bound_satisfied,
            "correct": self.correct,
            "orientation": self.orientation,
            "wall_time_ms": round(self.wall_time_ms, 3) if include_timing else None,
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2)


def run_algorithm(oracle: Oracle, algorithm: str) -> SortResult:
    if algorithm not in ALGORITHMS:
        raise PreconditionError(f"unknown algorithm {algorithm!r}")
    return ALGORITHMS[algorithm](oracle)


def run_experiment(spec: ScaleSpec, n: int, algorithm: str,
                   seed: int | None = None,
                   order: HiddenOrder | None = None) -> tuple[ExperimentReport, SortResult]:
    """One trial: build the oracle, run the algorithm, check result and bound."""
    if (seed is None) == (order is None):
        raise PreconditionError("provide exactly one of seed or explicit order")
    if order is None:
        order = HiddenOrder.from_seed(n, seed)
    if order.n != n:
        raise PreconditionError(f"explicit order length {order.n} does not match n={n}")
    oracle = Oracle(order, spec)
    t0 = time.perf_counter()
    result = run_algorithm(oracle, algorithm)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    correct = equivalent_up_to_ambiguity(result, order, spec)
    bound = algorithm_bound(algorithm, n, spec)
    bound_ok = bound is None or result.queries_used <= bound
    report = ExperimentReport(spec, n, seed, algorithm, result.queries_used,
                              bound, bound_ok, correct, result.orientation, elapsed_ms)
    return report, result


CSV_COLUMNS = ("spec", "n", "seed", "algorithm", "queries_used", "bound",
               "ratio", "correct", "millis")


def bench_row_bound(algorithm: str, n: int, spec: ScaleSpec) -> int | None:
    """Comparison bound of a bench row: the adaptive allowance for online
    rows, the information lower bound for offline rows (their plan size is
    asserted exactly elsewhere; the interesting figure is the gap to the
    least any one-shot plan could use)."""
    if algorithm == "online":
        return algorithm_bound("online", n, spec)
    if spec.s == 1:
        return offline_recursive.offline_lower_bound(n, spec.k, spec.outputs[0])
    return None


def bench_sweep(spec: ScaleSpec, n_list: Sequence[int], trials: int,
                algorithms: Iterable[str], base_seed: int = 0,
                include_timing: bool = False) -> list[dict]:
    """One row per (n, trial, algorithm), sorted for deterministic output."""
    rows = []
    for n in n_list:
        for trial in range(trials):
            seed = base_seed + trial
            for algorithm in algorithms:
                report, _ = run_experiment(spec, n, algorithm, seed=seed)
                bound = bench_row_bound(algorithm, n, spec)
                ratio = report.queries_used / bound if bound else None
                rows.append({
                    "spec": spec.text,
                    "n": n,
                    "seed": seed,
                    "algorithm": algorithm,
                    "queries_used": report.queries_used,
                    "bound": bound,
                    "ratio": ratio,
                    "correct": report.correct,
                    "millis": report.wall_time_ms if include_timing else None,
                })
    rows.sort(key=lambda r: (r["spec"], r["n"], r["seed"], r["algorithm"]))
    return rows


def rows_to_csv(rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            value = row.get(col)
            if value is None:
                cells.append("")
            elif col == "ratio":
                cells.append(f"{value:.6f}")
            elif col == "millis":
                cells.append(f"{value:.3f}")
            elif isinstance(value, bool):
                cells.append("true" if value else "false")
            else:
                cells.append(str(value))
        writer.writerow(cells)
    return buf.getvalue()


def verify_information_maximality(spec: ScaleSpec, n: int, algorithm: str, seed: int) -> bool:
    """Run one trial and check the transcript supports exactly the claimed class.

    The consistent set of the recorded transcript must coincide with the
    theoretical ambiguity class of the hidden order: the algorithm claimed
    neither more than its queries support nor less than they determine.
    """
    order = HiddenOrder.from_seed(n, seed)
    oracle = Oracle(order, spec)
    run_algorithm(oracle, algorithm)
    report = consistent_permutations(oracle.transcript, n, spec)
    return set(report.consistent_orders) == ambiguity_class(order, spec)
