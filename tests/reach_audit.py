"""Report the package's statement lines that no CLI input runs.

Runs `scalesort.cli.main` in-process over a fixed argv corpus under
`sys.settrace`, then prints, per module, the function-body lines that hold
bytecode but never ran.  Standard library only; pytest does not collect it.
Run it from the repository root:

    PYTHONPATH=src python tests/reach_audit.py
"""

import contextlib
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

import scalesort
from scalesort import cli
from scalesort.core import HiddenOrder, Oracle, ScaleSpec

PACKAGE = Path(scalesort.__file__).resolve().parent
MULTI = ["5:2,4", "6:2,4", "6:2,5", "7:2,6", "5:1,2", "6:2,3,5", "7:3,6"]
REFUSALS = """sort-online --scale 10:2,9 --n 21|sort-online --scale 5:2,4 --n 10
sort-offline --algo adjacency --scale 5:2,4 --n 12|plan --algo adjacency --scale 3:2 --n 2
plan --algo adjacency --scale 3:1 --n 2
plan --algo recursive --scale 4:2,3 --n 12
verify|verify --exhaustive --max-n 3|verify --exhaustive --max-n 10
lower-bound --scale 4:2,3 --n 10|lower-bound --scale 4:2 --n 3
bench --scale 3:2 --n-list 8,x|bench --scale 3:2 --n-list 8 --trials 0
bench --scale 3:2 --n-list 8 --algorithms online,foo"""
ANSWERED = {"algo": "adjacency", "spec": "3:2", "n": 9}
BAD_RESULTS = ["not json", [], {"algo": "bogus"}, {**ANSWERED, "spec": 3},
               {**ANSWERED, "n": "9"}, ANSWERED, {**ANSWERED, "results": [[0, 1, 2]]}] + [
    {**ANSWERED, "algo": algo, "n": n, "results": [{"query": q, "outcome": o} for q, o in records]}
    for algo, n, records in [
        ("adjacency", 9, [([0, 1, 9], [1])]), ("adjacency", 9, [([0, 1, 2], [3])]),
        ("adjacency", 99, [([0, 1, 2], [1]), ([0, 1, 2], [2])]),
        ("recursive", 99, [([0, 1, 2], [1])]),
        ("adjacency", 6, [([0, 1, 2], [1]), ([3, 4, 5], [4])]),
        ("recursive", 9, [([0, 1, 2], [1]), ([0, 1, 3], [1]), ([0, 2, 3], [2])])]]


def corpus(tmp: Path):
    """Every subcommand, the acceptance instruments at small n, and the refusals."""
    for k in (2, 3, 4, 5):
        for t in range(1, k + 1):
            for n in sorted({k + 1, 2 * k - 2, 2 * k + 1, 12} - {k}):
                yield ["sort-online", "--scale", f"{k}:{t}", "--n", str(n)]
            for algo, n in (("adjacency", "9"), ("recursive", "20")):
                for seed in "012":
                    yield ["sort-offline", "--algo", algo, "--scale", f"{k}:{t}", "--n", n,
                           "--seed", seed]
    for text in MULTI:
        n = 2 * int(text.split(":")[0]) + 1
        yield from (["sort-online", "--scale", text, "--n", str(m)] for m in (n, 20))
        yield ["sort-offline", "--algo", "adjacency", "--scale", text, "--n", str(n)]
    for scale, n in [("3:2", "-1"), ("3:2", "3"), ("3:2", str(2**31 + 1)), ("1:1", "6"),
                     ("3:", "6"), ("3:2,1", "6"), ("3:4", "6"), ("3:1,2,3", "6"), ("5:1,3", "11")]:
        yield ["sort-online", "--scale", scale, "--n", n]
    for name, text in [("good", "[3, 1, 6, 2, 5, 4]"), ("short", "[1, 2, 3, 4, 5]"),
                       ("text", "ranks"), ("floats", "[1.0]"), ("repeat", "[1, 1, 2, 3, 4, 5]"),
                       ("missing", None)]:
        if text is not None:
            (tmp / f"{name}.json").write_text(text)
        yield ["sort-online", "--scale", "3:2", "--n", "6", "--order", f"{tmp}/{name}.json"]
    yield from (line.split() for line in REFUSALS.replace("\n", "|").split("|"))
    yield ["verify", "--exhaustive", "--max-n", "5"]
    yield ["lower-bound", "--scale", "4:2", "--n", "10"]
    yield ["sort-offline", "--algo", "recursive", "--scale", "8:4", "--n", "17"]
    # Bounds past the printable digits: one the float estimate refuses, one the exact check.
    yield ["lower-bound", "--scale", "10000:1", "--n", "20000"]
    yield ["lower-bound", "--scale", "3:2", "--n", str(3 * 10**2150)]
    yield ["--timing", "bench", "--scale", "3:2", "--n-list", "8,10", "--csv", f"{tmp}/b.csv",
           "--algorithms", "online,offline_adjacency,offline_recursive"]
    yield ["bench", "--scale", "3:2", "--n-list", ""]
    # Output paths that cannot be written: a directory, a missing parent and a
    # file as parent, refused before the work, and a name too long, refused by the write.
    yield ["plan", "--algo", "adjacency", "--scale", "3:2", "--n", "8", "--out", str(tmp)]
    yield ["bench", "--scale", "3:2", "--n-list", "8", "--csv", f"{tmp}/missing/b.csv"]
    yield ["bench", "--scale", "3:2", "--n-list", "8", "--csv", f"{tmp}/good.json/b.csv"]
    yield ["bench", "--scale", "3:2", "--n-list", "8", "--csv", f"{tmp}/{'x' * 300}.csv"]
    yield ["bench", "--scale", "5:2,4", "--n-list", "20", "--algorithms", "offline_adjacency"]
    for algo in cli.harness.OFFLINE:  # a plan on stdout, then to a file answered and solved
        yield ["plan", "--algo", algo, "--scale", "4:2", "--n", "9"]
        yield ["plan", "--algo", algo, "--scale", "4:2", "--n", "9", "--out", f"{tmp}/plan.json"]
        doc = json.loads((tmp / "plan.json").read_text())
        oracle = Oracle(HiddenOrder.from_seed(9, 3), ScaleSpec(4, (2,)))
        answers = [sorted(oracle.query(q)) for q in doc["queries"]]
        for corrupt in (None, 0, -1):  # no answer, the first or the last moves in its query
            doc["results"] = [{"query": q, "outcome": o} for q, o in zip(doc["queries"], answers)]
            if corrupt is not None:
                entry = doc["results"][corrupt]
                entry["outcome"] = [min(set(entry["query"]) - set(entry["outcome"]))]
            (tmp / "results.json").write_text(json.dumps(doc))
            yield ["solve", "--results", f"{tmp}/results.json"]
    for doc in BAD_RESULTS:
        (tmp / "bad.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
        yield ["solve", "--results", f"{tmp}/bad.json"]


def statement_lines(path: Path) -> set[int]:
    """Lines holding bytecode of a function body; module and class bodies run at import."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines |= {line for *_, line in code.co_lines() if line} - {code.co_firstlineno}
    return lines


def main() -> None:
    ran: set[tuple[str, int]] = set()

    def local(frame, event, _):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, _):
        return local if frame.f_code.co_filename.startswith(str(PACKAGE)) else None

    with tempfile.TemporaryDirectory() as name, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in corpus(Path(name)):
            sys.settrace(tracer)
            try:
                cli.main(argv)
            finally:
                sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        unrun = sorted(line for line in statement_lines(path) if (str(path), line) not in ran)
        print(f"{path.name}: {len(unrun)} unrun lines")
        for line in unrun:
            print(f"  {line:4d}  {source[line - 1].strip()}")


if __name__ == "__main__":
    main()
