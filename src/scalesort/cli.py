"""Command-line interface.

Subcommands:
  sort-online   run the adaptive algorithm against a simulated oracle
  sort-offline  run an offline algorithm (adjacency or recursive) end to end
  plan          export an offline query plan as JSON
  solve         reconstruct an ordering from an externally answered plan
  verify        exhaustive information-maximality sweep on small universes
  lower-bound   offline lower-bound calculator
  bench         query-count sweep emitting CSV

Reports are JSON on stdout with sorted keys; exit status is nonzero on any
correctness or bound violation.  Pass --timing to include wall-clock times
(which makes output non-reproducible byte for byte).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys

from .core import HiddenOrder, PreconditionError, ScaleError, ScaleSpec, UnsupportedScaleError
from . import harness, offline_recursive


def _read_json(path: str, what: str):
    """Parse a JSON input file; a missing, unreadable or non-JSON file is a ScaleError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScaleError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ScaleError(f"{what} is not JSON: {exc}") from exc


def _write_text(path: str, text: str, what: str) -> None:
    """Write an output file; a directory or a missing parent directory is a ScaleError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScaleError(f"cannot write {what} {path}: {exc.strerror}") from exc


def _check_output(path: str, what: str) -> None:
    """Refuse, before any work, an output path that is a directory or whose
    parent is not one, with the message `_write_text` would give after it."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise ScaleError(f"cannot write {what} {path}: {exc.strerror}") from exc


def _load_order(path: str) -> HiddenOrder:
    ranks = _read_json(path, "order file")
    if not isinstance(ranks, list) or not all(type(r) is int for r in ranks):
        raise ScaleError("order file must hold a JSON list of integer ranks")
    return HiddenOrder(tuple(ranks))


def _order_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", required=True, help='instrument, e.g. "7:2,6"')
    parser.add_argument("--n", type=int, required=True, help="universe size")
    group = parser.add_mutually_exclusive_group()
    # A string default, unlike 0 itself, still lets "--seed 0" conflict with --order.
    group.add_argument("--seed", type=int, default="0", help="seeded hidden order")
    group.add_argument("--order", default=None,
                       help="JSON file with an explicit rank array")


def _resolve_order(args) -> tuple[int | None, HiddenOrder | None]:
    if args.order is not None:
        return None, _load_order(args.order)
    return args.seed, None


def _cmd_sort(args) -> int:
    spec = ScaleSpec.parse(args.scale)
    seed, order = _resolve_order(args)
    algorithm = f"offline_{args.algo}" if args.algo else "online"
    report, _ = harness.run_experiment(spec, args.n, algorithm, seed=seed, order=order)
    print(report.to_json(include_timing=args.timing))
    return 0 if report.bound_satisfied and report.correct else 1


def _cmd_plan(args) -> int:
    spec = ScaleSpec.parse(args.scale)
    build, _, _ = harness.OFFLINE[args.algo]
    if args.out:
        _check_output(args.out, "plan file")
    # The queries of QueryPlan.queries, in its order, each sorted from its
    # reference and free ids without building a set.
    queries = []
    for fan in build(args.n, spec).fans:
        ref = tuple(fan.reference)
        queries.extend(sorted(ref + free) for free in fan.free_sets())
    doc = {"algo": args.algo, "spec": spec.text, "n": args.n, "queries": queries}
    payload = json.dumps(doc, sort_keys=True)
    if args.out:
        _write_text(args.out, payload + "\n", "plan file")
    else:
        print(payload)
    return 0


_INT = frozenset({int})


def _load_results(path: str) -> tuple[str, ScaleSpec, int, dict[frozenset[int], frozenset[int]]]:
    """Read and check a results file: algo, spec, n and the answered queries.

    A query may be listed more than once, as overlapping recursive fans
    list it, but only ever with the same outcome.  Each record is released
    once read, and equal outcomes share one set.
    """
    doc = _read_json(path, "results file")
    if not isinstance(doc, dict):
        raise ScaleError("results file must hold a JSON object")
    algo, text, n, entries = (doc.get(key) for key in ("algo", "spec", "n", "results"))
    del doc  # drops the echoed plan queries, which are never read
    if algo not in harness.OFFLINE:
        raise ScaleError(f"unknown algo {algo!r}; expected one of {sorted(harness.OFFLINE)}")
    if not isinstance(text, str):
        raise ScaleError('spec must be a string such as "4:2"')
    spec = ScaleSpec.parse(text)
    if type(n) is not int:
        raise ScaleError("n must be an integer")
    if not isinstance(entries, list):
        raise ScaleError("results must be a list of {query, outcome} records")
    answers: dict[frozenset[int], frozenset[int]] = {}
    outcomes: dict[frozenset[int], frozenset[int]] = {}
    seen: set[int] = set()  # the ids already found in [0, n)
    for i, entry in enumerate(entries):
        entries[i] = None
        try:
            q_list, o_list = entry["query"], entry["outcome"]
            query, outcome = frozenset(q_list), frozenset(o_list)
        except (KeyError, TypeError) as exc:
            raise ScaleError(f"results[{i}] needs 'query' and 'outcome' lists") from exc
        # A JSON 1.0 or true equals the id 1, so each id's type is checked
        # first; only a query with an id not seen before is compared with n.
        if (len(query) != spec.k or not _INT.issuperset(map(type, q_list))
                or not query <= seen and (min(query) < 0 or max(query) >= n)):
            raise ScaleError(f"results[{i}]: query must hold {spec.k} distinct ids in [0, {n})")
        seen |= query
        if (len(outcome) != spec.s or not outcome <= query
                or not _INT.issuperset(map(type, o_list))):
            raise ScaleError(f"results[{i}]: outcome must be {spec.s} ids of its query")
        outcome = outcomes.setdefault(outcome, outcome)
        # The key is a copy, which sizes its table once: 472 B for five ids,
        # against 728 for `query`, grown id by id.
        previous = answers.setdefault(query.union(), outcome)
        if previous is not outcome:
            raise ScaleError(f"results[{i}]: query {sorted(query)} was already answered"
                             f" {sorted(previous)}, not {sorted(outcome)}")
    # Every plan query holds k ids and every plan covers all n of them.
    if n > spec.k * len(answers):
        raise ScaleError(f"{len(answers)} distinct answered queries of {spec.k} ids cannot"
                         f" cover n={n} ids; the file is missing answers")
    return algo, spec, n, answers


def _cmd_solve(args) -> int:
    algo, spec, n, answers = _load_results(args.results)
    build, solve, _ = harness.OFFLINE[algo]
    result = solve(build(n, spec), answers)
    out = {
        "spec": spec.text,
        "n": n,
        "algorithm": f"offline_{algo}",
        "middle": list(result.middle),
        "small_segment": sorted(result.s_set),
        "large_segment": sorted(result.l_set),
        "orientation": result.orientation,
        "queries_used": result.queries_used,
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def _cmd_verify(args) -> int:
    if not args.exhaustive:
        raise ScaleError("nothing to do: pass --exhaustive")
    if args.max_n > harness.MAX_CONSISTENCY_N:
        raise ScaleError(f"--max-n {args.max_n} is above {harness.MAX_CONSISTENCY_N}, the"
                         " largest n the brute-force certifier enumerates")
    if args.max_n < harness.MIN_VERIFY_N:
        raise ScaleError(f"--max-n {args.max_n} is below {harness.MIN_VERIFY_N}, the"
                         " smallest n the sweep over k = 3 and 4 can certify")
    failures = 0
    checks = 0
    for k in (3, 4):
        for t in range(1, k + 1):
            spec = ScaleSpec(k, (t,))
            for n in range(k + 1, args.max_n + 1):
                for algorithm in harness.ALGORITHMS:
                    try:
                        ok = harness.verify_information_maximality(
                            spec, n, algorithm, seed=args.seed)
                        status = "ok" if ok else "FAIL"
                    except (PreconditionError, UnsupportedScaleError):
                        continue  # configuration below this algorithm's floor
                    except ScaleError as exc:
                        ok = False
                        status = f"FAIL ({type(exc).__name__}: {exc})"
                    checks += 1
                    print(f"{spec.text} n={n} {algorithm}: {status}")
                    if not ok:
                        failures += 1
    print(json.dumps({"checks": checks, "failures": failures}, sort_keys=True))
    return 0 if failures == 0 and checks > 0 else 1


def _cmd_lower_bound(args) -> int:
    spec = ScaleSpec.parse(args.scale)
    if spec.s != 1:
        raise ScaleError("lower-bound applies to singleton instruments")
    value = offline_recursive.offline_lower_bound(args.n, spec.k, spec.outputs[0])
    print(json.dumps({"spec": spec.text, "n": args.n, "lower_bound": value},
                     sort_keys=True))
    return 0


def _cmd_bench(args) -> int:
    spec = ScaleSpec.parse(args.scale)
    try:
        n_list = [int(x) for x in args.n_list.split(",")] if args.n_list else []
    except ValueError as exc:
        raise ScaleError(
            f"--n-list must be comma-separated integers, got {args.n_list!r}") from exc
    if not n_list:
        raise ScaleError("--n-list must name at least one size")
    if args.trials < 1:
        raise ScaleError(f"--trials must be at least 1, got {args.trials}")
    algorithms = args.algorithms.split(",") if args.algorithms else ["online"]
    for algorithm in algorithms:
        harness.check_algorithm(algorithm)
    if args.csv:
        _check_output(args.csv, "CSV file")
    rows = harness.bench_sweep(spec, n_list, args.trials, algorithms,
                               base_seed=args.seed,
                               include_timing=args.timing)
    csv_text = harness.rows_to_csv(rows)
    if args.csv:
        _write_text(args.csv, csv_text, "CSV file")
    else:
        sys.stdout.write(csv_text)
    return 0 if all(r["ok"] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalesort",
        description="sorting with rank-selection scales: algorithms and harness")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock times in reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sort-online", help="run the adaptive algorithm")
    _order_args(p)
    p.set_defaults(func=_cmd_sort, algo=None)

    p = sub.add_parser("sort-offline", help="run an offline algorithm")
    p.add_argument("--algo", choices=tuple(harness.OFFLINE), required=True)
    _order_args(p)
    p.set_defaults(func=_cmd_sort)

    p = sub.add_parser("plan", help="export an offline query plan")
    p.add_argument("--algo", choices=tuple(harness.OFFLINE), required=True)
    p.add_argument("--scale", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("solve", help="reconstruct from an answered plan")
    p.add_argument("--results", required=True, help="JSON file with answers")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="exhaustive information-maximality sweep")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lower-bound", help="offline lower-bound calculator")
    p.add_argument("--scale", required=True, help='singleton instrument "k:t"')
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("bench", help="query-count sweep (CSV)")
    p.add_argument("--scale", required=True)
    p.add_argument("--n-list", required=True, help="comma-separated sizes")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--algorithms", default="online",
                   help="comma-separated subset of: online,offline_adjacency,offline_recursive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: ran out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
