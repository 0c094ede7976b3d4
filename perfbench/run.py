"""scalesort benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports scalesort from ./src).
The process started here imports nothing from the program.  It starts the
workload in a fresh worker process, so peak memory belongs to the workload
alone, and, untraced, first starts SETUP_PROBES more workers that only set
up, because set-up time (interpreter, import, inputs) is measured per
process and reported as the median.

A worker sets up, then runs whole rounds of the workload's operations for
about --seconds, checking every output.  Times are rescaled to a reference
speed by samples of a fixed loop (tracing.py); the plain wall time per round
is printed too.  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it first runs one untraced round,
then traced rounds, and reports the per-layer metrics, the tracing overhead,
and writes its spans to perfbench/out/.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("online-large", "offline-plans", "certify-small")
SETUP_PROBES = 6
DEADLINE_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0-ns", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- worker -----------------------------------------------------------------

def worker(args: argparse.Namespace) -> int:
    # Set-up is rescaled as the recorder rescales operations (tracing.py), by
    # a reference sample at each end of it; the first sample is not counted.
    import tracing
    before = time.monotonic_ns()
    ref_first = tracing.reference_ns()
    ref_cost = time.monotonic_ns() - before
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import scalesort
    if not os.path.abspath(scalesort.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"scalesort imported from {scalesort.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as workdir:
        load = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_ns = time.monotonic_ns() - args.t0_ns - ref_cost
        setup_s = setup_ns / 1e9 * tracing.REF_NOMINAL_NS * 2 / (ref_first + tracing.reference_ns())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workloads, load, args)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def measure(workloads, load, args: argparse.Namespace) -> dict:
    rounds = []
    baseline = None
    verified: set[str] = set()
    if args.trace:
        baseline = workloads.Round(False, verified)
        load.run_round(baseline)
        baseline.rec.close()
    # Whole rounds, at least one; none that would end, at the mean round
    # time so far, past --seconds.
    start = time.perf_counter()
    while True:
        r = workloads.Round(bool(args.trace), verified)
        load.run_round(r)
        r.rec.close()
        if not args.trace:
            r.op_digests.clear()  # only the traced run compares them
        rounds.append(r)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > args.seconds:
            break

    every = rounds + ([baseline] if baseline else [])
    errors = [e for r in every for e in r.errors]
    digests = {r.hasher.hexdigest() for r in every}
    if len(digests) != 1:
        errors.append(f"rounds issued different transcripts: {sorted(digests)}")
    if baseline and any(r.op_digests != baseline.op_digests for r in rounds):
        errors.append("traced operations issued other transcripts than the untraced ones")
    if len({r.queries for r in every}) != 1:
        errors.append("rounds issued different numbers of queries")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")
    run_s = statistics.median(r.rec.normalized_ns / 1e9 for r in rounds)
    wall_s = statistics.median(r.rec.timed_ns / 1e9 for r in rounds)
    print(f"rounds {len(rounds)}, operations per round {rounds[0].rec.attempted}")
    print(f"wall seconds per round (median, not rescaled) {wall_s}")
    print(f"transcript_sha256 {args.workload} {digests.pop()}")

    if args.trace:
        per_round = [workloads.layer_metrics(r) for r in rounds]
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        values["core.transcript_mib"] = workloads.transcript_mib(load)
        values["trace.run_s"] = run_s
        values["trace.overhead_s"] = run_s - baseline.rec.normalized_ns / 1e9
        metrics = {name: (values[name], unit) for name, unit in per_layer_units().items()}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        rounds[-1].rec.write(path)
        print(f"spans of the last traced round: {os.path.relpath(path, ROOT)}")
    else:
        metrics = {
            "run_s": (run_s, "s"),
            "queries": (rounds[0].queries, "count"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    return {
        "correct": not errors,
        "attempted": sum(r.rec.attempted for r in every),
        "failed": sum(r.rec.failed for r in every),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics and their units, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


# -- orchestrator -----------------------------------------------------------

def spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    """Run one worker; relay its report lines and return its last line, parsed."""
    argv = [sys.executable, os.path.abspath(__file__), "--worker",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if not os.path.isfile(os.path.join(ROOT, "src", "scalesort", "__init__.py")):
        print(f"no scalesort sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [spawn(args, deadline, True)["setup_s"]
                                        for _ in range(SETUP_PROBES)]
        result = spawn(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result.pop("setup_s"))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, setup_samples_s=setups), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
