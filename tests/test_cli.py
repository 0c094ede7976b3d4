"""CLI surface tests: subcommands, two-phase plan/solve, exit codes."""

import csv
import hashlib
import io
import itertools
import json
import re
import sys
import time
import tracemalloc

import pytest

from scalesort import harness, online
from scalesort.cli import _load_results, main
from scalesort.core import HiddenOrder, InconsistentAnswersError, Oracle, ScaleSpec, answer_plan
from scalesort.offline_adjacency import adjacency_sort
from scalesort.offline_recursive import recursive_plan, recursive_sort

SORTS = {"adjacency": adjacency_sort, "recursive": recursive_sort}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sort_online_report(capsys):
    code, out, _ = run_cli(capsys, "sort-online", "--scale", "4:2", "--n", "30", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["correct"] is True
    assert doc["bound_satisfied"] is True
    assert doc["queries_used"] <= doc["bound"]
    assert doc["wall_time_ms"] is None


def test_sort_online_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, "sort-online", "--scale", "3:2", "--n", "9", "--seed", "3")
    _, second, _ = run_cli(capsys, "sort-online", "--scale", "3:2", "--n", "9", "--seed", "3")
    assert first == second


def _report(spec_text, n, seed, correct, orientation, queries_used):
    return ('{\n  "algorithm": "online",\n  "bound": null,\n  "bound_satisfied": true,\n'
            f'  "correct": {correct},\n  "n": {n},\n  "orientation": "{orientation}",\n'
            f'  "queries_used": {queries_used},\n  "seed": {seed},\n'
            f'  "spec": "{spec_text}",\n  "wall_time_ms": null\n}}\n')


@pytest.mark.parametrize("spec_text,n,seed,orientation,queries_used", [
    ("5:1,2", 20, 5, "resolved", 42),    # bottom pair unorderable
    ("4:3,4", 12, 1, "resolved", 23),    # top pair unorderable
    ("5:2,4", 20, 5, "reflection_ambiguous", 84),
    ("6:2,5", 20, 3, "reflection_ambiguous", 129),
])
def test_sort_online_multi_output_reports(capsys, spec_text, n, seed, orientation,
                                          queries_used):
    # A result whose end block comes back in label order is correct, and
    # the reports keep their exact bytes and query counts.
    code, out, _ = run_cli(capsys, "sort-online", "--scale", spec_text,
                           "--n", str(n), "--seed", str(seed))
    assert code == 0
    assert out == _report(spec_text, n, seed, "true", orientation, queries_used)


def test_sort_offline_exact_count(capsys):
    code, out, _ = run_cli(capsys, "sort-offline", "--algo", "adjacency",
                           "--scale", "3:2", "--n", "10", "--seed", "1")
    assert code == 0
    assert json.loads(out)["queries_used"] == 108


def test_sort_offline_recursive(capsys):
    code, out, _ = run_cli(capsys, "sort-offline", "--algo", "recursive",
                           "--scale", "4:2", "--n", "12", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["queries_used"] == 661 and doc["correct"] is True


def test_explicit_order_file(tmp_path, capsys):
    path = tmp_path / "order.json"
    path.write_text(json.dumps(list(HiddenOrder.from_seed(9, 5).ranks)))
    code, out, _ = run_cli(capsys, "sort-online", "--scale", "3:2", "--n", "9",
                           "--order", str(path))
    assert code == 0
    assert json.loads(out)["correct"] is True


@pytest.mark.parametrize("seed", ["0", "5"])
def test_seed_and_order_conflict(tmp_path, capsys, seed):
    # --seed defaults to 0, yet naming it next to --order is still refused.
    path = tmp_path / "order.json"
    path.write_text(json.dumps(list(HiddenOrder.from_seed(9, 5).ranks)))
    with pytest.raises(SystemExit) as exc:
        main(["sort-online", "--scale", "3:2", "--n", "9", "--seed", seed, "--order", str(path)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("algo,spec_text,n", [
    ("adjacency", "4:2", 11),
    ("recursive", "4:2", 11),
    ("recursive", "4:3", 11),   # mirrored form: same plan, reversed reading
    ("recursive", "4:1", 9),    # minimum instrument: every query, no chain
    ("recursive", "4:4", 9),    # mirrored minimum instrument
    ("adjacency", "3:1", 9),    # rho = 0: every query under an empty reference
    ("recursive", "5:2", 12),   # the benchmark's recursive shape: five fans of width 4
])
def test_plan_then_solve_round_trip(tmp_path, capsys, algo, spec_text, n):
    plan_path = tmp_path / "plan.json"
    code, _, _ = run_cli(capsys, "plan", "--algo", algo, "--scale", spec_text,
                         "--n", str(n), "--out", str(plan_path))
    assert code == 0
    plan_doc = json.loads(plan_path.read_text())

    # Answer the plan externally (here: a lab oracle) and solve from the file.
    spec = ScaleSpec.parse(spec_text)
    order = HiddenOrder.from_seed(n, 2)
    oracle = Oracle(order, spec)
    results = [{"query": q, "outcome": sorted(oracle.query(q))}
               for q in plan_doc["queries"]]
    results_path = tmp_path / "results.json"
    results_path.write_text(json.dumps({
        "algo": algo, "spec": spec_text, "n": n, "results": results}))
    code, out, _ = run_cli(capsys, "solve", "--results", str(results_path))
    assert code == 0
    doc = json.loads(out)
    ranked = order.by_rank
    assert doc["middle"] == list(ranked[spec.s_size:n - spec.l_size])
    assert doc["small_segment"] == sorted(ranked[:spec.s_size])
    assert doc["queries_used"] == len(plan_doc["queries"])

    # The library sorts through the same plan and the same solve.
    in_process = Oracle(order, spec)
    res = SORTS[algo](in_process)
    assert plan_doc["queries"] == [list(q) for q, _ in in_process.transcript]
    assert doc["middle"] == list(res.middle)
    assert doc["small_segment"] == sorted(res.s_set)
    assert doc["large_segment"] == sorted(res.l_set)
    assert doc["orientation"] == res.orientation
    assert doc["queries_used"] == res.queries_used


@pytest.mark.parametrize("algo,spec_text,n,digest", [
    ("adjacency", "4:2", 20, "25c682e4a20cc90c1bd4f736861ffe45c269aca4e150b7f8d51861cd869de3a5"),
    ("recursive", "5:2", 14, "7b07a07707377460f9c42ea50c08e4f8e1675b8da84f5827bc8b384902305e37"),
    ("recursive", "5:4", 14, "297f3b81231853d8aa2fe1bc82cbd942bc088b7343859559631008ccffe09aa2"),
    ("adjacency", "5:4", 16, "560613385b98983469eeed7cf850526926176fedcad35b46c043567e5f8564f7"),
])
def test_plan_stdout_is_pinned(capsys, algo, spec_text, n, digest):
    # sha256 of the exported plan document, byte for byte: the query lists,
    # their order and the JSON layout.
    code, out, _ = run_cli(capsys, "plan", "--algo", algo, "--scale", spec_text, "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_solve_rejects_inconsistent_answers(tmp_path, capsys):
    # One outcome of an answered 4:2 plan names another element of its
    # query; the replay's extraction then meets a query answered by a pad.
    spec, n = ScaleSpec(4, (2,)), 9
    plan_path = tmp_path / "plan.json"
    run_cli(capsys, "plan", "--algo", "recursive", "--scale", "4:2", "--n", str(n),
            "--out", str(plan_path))
    oracle = Oracle(HiddenOrder.from_seed(n, 5), spec)
    results = [{"query": q, "outcome": [4] if q == [1, 3, 4, 8] else sorted(oracle.query(q))}
               for q in json.loads(plan_path.read_text())["queries"]]
    results_path = tmp_path / "results.json"
    results_path.write_text(json.dumps({
        "algo": "recursive", "spec": "4:2", "n": n, "results": results}))
    code, out, err = run_cli(capsys, "solve", "--results", str(results_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_solve_refuses_an_order_that_contradicts_an_answer(tmp_path, capsys):
    # One outcome of an answered 4:2 plan names another element of its
    # query; the replay reads past it to an order that the corrupted answer
    # itself contradicts.
    spec, n = ScaleSpec(4, (2,)), 9
    plan_path = tmp_path / "plan.json"
    run_cli(capsys, "plan", "--algo", "recursive", "--scale", "4:2", "--n", str(n),
            "--out", str(plan_path))
    oracle = Oracle(HiddenOrder.from_seed(n, 0), spec)
    results = [{"query": q, "outcome": [1] if q == [0, 1, 2, 4] else sorted(oracle.query(q))}
               for q in json.loads(plan_path.read_text())["queries"]]
    results_path = tmp_path / "results.json"
    results_path.write_text(json.dumps({
        "algo": "recursive", "spec": "4:2", "n": n, "results": results}))
    code, out, err = run_cli(capsys, "solve", "--results", str(results_path))
    assert code == 2 and out == ""
    assert "answer [1] to query [0, 1, 2, 4]" in err


def test_solve_rejects_missing_fan_answer(tmp_path, capsys):
    # Every record of one fan query of an answered recursive plan is dropped.
    spec, n = ScaleSpec(4, (2,)), 11
    plan_path = tmp_path / "plan.json"
    run_cli(capsys, "plan", "--algo", "recursive", "--scale", "4:2", "--n", str(n),
            "--out", str(plan_path))
    oracle = Oracle(HiddenOrder.from_seed(n, 2), spec)
    results = [{"query": q, "outcome": sorted(oracle.query(q))}
               for q in json.loads(plan_path.read_text())["queries"] if q != [0, 2, 5, 6]]
    results_path = tmp_path / "results.json"
    results_path.write_text(json.dumps({
        "algo": "recursive", "spec": "4:2", "n": n, "results": results}))
    code, out, err = run_cli(capsys, "solve", "--results", str(results_path))
    assert code == 2 and out == ""
    assert err == "error: missing answer for plan query [0, 2, 5, 6]\n"


def test_solve_rejects_two_outcomes_for_one_query(tmp_path, capsys):
    # [0, 1, 2, 3] is the closure query of the 4:2 plan at n = 11 and
    # recurs in every fan; its first record names another of its members.
    spec, n = ScaleSpec(4, (2,)), 11
    plan_path = tmp_path / "plan.json"
    run_cli(capsys, "plan", "--algo", "recursive", "--scale", "4:2", "--n", str(n),
            "--out", str(plan_path))
    oracle = Oracle(HiddenOrder.from_seed(n, 2), spec)
    results = [{"query": q, "outcome": sorted(oracle.query(q))}
               for q in json.loads(plan_path.read_text())["queries"]]
    assert results[0]["query"] == [0, 1, 2, 3]
    assert sum(r["query"] == [0, 1, 2, 3] for r in results) > 1
    truth = results[0]["outcome"]
    results[0]["outcome"] = [min({0, 1, 2, 3} - set(truth))]
    results_path = tmp_path / "results.json"
    results_path.write_text(json.dumps({
        "algo": "recursive", "spec": "4:2", "n": n, "results": results}))
    code, out, err = run_cli(capsys, "solve", "--results", str(results_path))
    assert code == 2 and out == ""
    assert "query [0, 1, 2, 3]" in err
    assert str(results[0]["outcome"]) in err and str(truth) in err


@pytest.mark.parametrize("argv", [
    ("sort-offline", "--algo", "adjacency", "--scale", "3:1,2", "--n", "30"),
    ("plan", "--algo", "adjacency", "--scale", "4:3,4", "--n", "13"),
])
def test_adjacency_refuses_end_block_instruments(capsys, argv):
    # The answers never order the end block, so no plan size could help.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: adjacency plan cannot sort ")
    assert "end block of 2" in err


def test_recursive_sort_orders_a_superset_of_ten(capsys):
    # 8:4 plans 240,285 queries around a superset of 10 ids, more than the
    # certifier enumerates.
    code, out, err = run_cli(capsys, "sort-offline", "--algo", "recursive", "--scale", "8:4",
                             "--n", "17", "--seed", "0")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["correct"] and report["queries_used"] == report["bound"] == 240285


@pytest.mark.parametrize("n", [-1, 2, 3])
def test_adjacency_plan_of_a_minimum_scale_needs_k_plus_one_ids(capsys, tmp_path, n):
    # 3:1 plans every 3-subset; below four ids that is no query or one
    # query, from which no solve can order the ids.
    path = tmp_path / "plan.json"
    code, out, err = run_cli(capsys, "plan", "--algo", "adjacency", "--scale", "3:1",
                             "--n", str(n), "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"error: need n >= k+1 (n={n}, k=3)\n"
    assert not path.exists()


@pytest.mark.parametrize("argv,content,message", [
    (("sort-online", "--scale", "3:2", "--n", "9", "--order", "{path}"), "not json",
     "order file is not JSON"),
    (("sort-online", "--scale", "3:2", "--n", "3", "--order", "{path}"), '[1, 2, "x"]',
     "list of integer ranks"),
    (("sort-online", "--scale", "3:2", "--n", "9", "--order", "{missing}"), None,
     "cannot read order file"),
    (("solve", "--results", "{missing}"), None, "cannot read results file"),
    (("bench", "--scale", "3:2", "--n-list", "8,x"), None, "--n-list must be"),
    (("bench", "--scale", "4:2", "--n-list", "20", "--trials", "0"), None,
     "--trials must be at least 1, got 0"),
    (("bench", "--scale", "4:2", "--n-list", "20", "--trials", "-1"), None,
     "--trials must be at least 1, got -1"),
    (("bench", "--scale", "4:2", "--n-list", ""), None, "--n-list must name at least one"),
    (("verify", "--exhaustive", "--max-n", "3"), None, "--max-n 3 is below 4"),
    (("sort-online", "--scale", "4:2", "--n", "-1"), None, "n=-1"),
    (("sort-offline", "--algo", "adjacency", "--scale", "4:2", "--n", "-1"), None, "n=-1"),
    (("verify",), None, "nothing to do: pass --exhaustive"),
    (("lower-bound", "--scale", "4:2,3", "--n", "10"), None,
     "lower-bound applies to singleton instruments"),
    (("sort-online", "--scale", "3:2", "--n", "6", "--order", "{path}"), "[1, 2, 3, 4, 5]",
     "explicit order length 5 does not match n=6"),
    (("bench", "--scale", "3:2", "--n-list", "8", "--algorithms", "online,foo"), None,
     "unknown algorithm 'foo'"),
    (("plan", "--algo", "recursive", "--scale", "4:2,3", "--n", "12"), None,
     "the recursive plan requires a singleton instrument"),
    # Above n > 2k, but refinement of the wide 10:2,9 needs more discarded
    # elements than n = 21 leaves (README "Query-count contracts").
    (("sort-online", "--scale", "10:2,9", "--n", "21"), None,
     "need 13 discarded elements for refinement, have 12"),
])
def test_malformed_inputs_are_clean_errors(tmp_path, capsys, argv, content, message):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    argv = [a.format(path=path, missing=tmp_path / "missing.json") for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.fixture
def default_digit_limit():
    """Python's default limit of 4,300 digits on int-to-text conversion,
    whatever PYTHONINTMAXSTRDIGITS sets for the test run."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.usefixtures("default_digit_limit")
@pytest.mark.parametrize("argv", [
    # 6,019 digits, 6,000 digits, and about 600,000 digits, whose
    # computation alone takes over half a minute: refused from the estimate.
    ("--scale", "10000:1", "--n", "20000"),
    ("--scale", "3:2", "--n", "1" + "0" * 3000),
    ("--scale", "1000000:1", "--n", "2000000"),
    # 4,301 digits: one past the limit, found by the exact check.
    ("--scale", "3:2", "--n", "3" + "0" * 2150),
])
def test_lower_bound_refuses_bounds_too_long_to_print(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lower-bound", *argv)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "more than 4300 digits" in err


@pytest.mark.usefixtures("default_digit_limit")
def test_lower_bound_of_a_short_quotient_of_huge_binomials_is_quick(capsys):
    # ceil(C(n, r) / C(k, r)) with r = 500,001 and n = k + 1 = 10**6 + 1:
    # both binomials have about 300,000 digits, but C(n, 1) / C(n - r, 1)
    # is the same quotient.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "lower-bound", "--scale", "1000000:500000",
                             "--n", "1000001")
    assert time.perf_counter() - start < 5
    assert code == 0 and err == ""
    assert json.loads(out)["lower_bound"] == 3


_ANSWERED = {"algo": "adjacency", "spec": "3:2", "n": 9,
             "results": [{"query": [0, 1, 2], "outcome": [1]}]}


@pytest.mark.parametrize("doc,message", [
    ("not json", "not JSON"),
    ([], "JSON object"),
    ({**_ANSWERED, "results": None}, "results must be a list"),
    ({k: v for k, v in _ANSWERED.items() if k != "results"}, "results must be a list"),
    ({**_ANSWERED, "algo": "bogus"}, "unknown algo"),
    ({**_ANSWERED, "spec": 32}, "spec must be a string"),
    ({**_ANSWERED, "spec": "3"}, "cannot parse scale spec"),
    ({**_ANSWERED, "n": "9"}, "n must be an integer"),
    ({**_ANSWERED, "results": [[0, 1, 2]]}, "results[0] needs"),
    ({**_ANSWERED, "results": [{"query": [0, 1, 2]}]}, "results[0] needs"),
    ({**_ANSWERED, "results": [{"query": 7, "outcome": [1]}]}, "results[0] needs"),
    ({**_ANSWERED, "results": [{"query": [0, 1, 1], "outcome": [1]}]}, "query must hold"),
    ({**_ANSWERED, "results": [{"query": [0, 1, 9], "outcome": [1]}]}, "query must hold"),
    ({**_ANSWERED, "results": [{"query": ["0", "1", "2"], "outcome": [1]}]}, "query must hold"),
    ({**_ANSWERED, "results": [{"query": [0, 1, 2], "outcome": [3]}]}, "outcome must be"),
    ({**_ANSWERED, "results": [{"query": [0, 1, 2], "outcome": [0, 1]}]}, "outcome must be"),
    # 1.0 and true compare equal to the id 1, so only their type tells them apart.
    ({**_ANSWERED, "results": [{"query": [0.0, 1.0, 2.0], "outcome": [1.0]}]}, "query must hold"),
    ({**_ANSWERED, "results": [{"query": [0, True, 2], "outcome": [2]}]}, "query must hold"),
    ({**_ANSWERED, "results": [{"query": [0, 1, 2], "outcome": [1.0]}]}, "outcome must be"),
    ({**_ANSWERED, "results": [{"query": [0, 1, 2], "outcome": [True]}]}, "outcome must be"),
])
def test_solve_rejects_malformed_results(tmp_path, capsys, doc, message):
    path = tmp_path / "results.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", "--results", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("algo,n,records,message", [
    ("adjacency", 10**9, 1, "1 distinct answered queries of 4 ids cannot cover n=1000000000"),
    ("recursive", 10**9, 1, "1 distinct answered queries of 4 ids cannot cover n=1000000000"),
    # 750 queries can cover 3,000 ids, so the solve starts; it must name the
    # first plan query the file lacks without listing the plan's 1.3e10.
    ("adjacency", 3000, 750, "missing answer for plan query [0, 1, 2, 753]"),
])
def test_solve_refuses_an_n_beyond_its_answers(tmp_path, capped_python, algo, n, records,
                                               message):
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"algo": algo, "spec": "4:2", "n": n, "results": [
        {"query": [0, 1, 2, j], "outcome": [1]} for j in range(3, 3 + records)]}))
    proc = capped_python("-m", "scalesort", "solve", "--results", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


# Every command that builds by n, each argv ending where n goes.
_BY_N = pytest.mark.parametrize("argv", [
    ("sort-online", "--scale", "3:2", "--n"),
    ("sort-offline", "--algo", "adjacency", "--scale", "3:2", "--n"),
    ("sort-offline", "--algo", "recursive", "--scale", "3:2", "--n"),
    ("plan", "--algo", "adjacency", "--scale", "3:2", "--n"),
    ("plan", "--algo", "recursive", "--scale", "3:2", "--n"),
    ("bench", "--scale", "3:2", "--n-list"),
], ids=lambda argv: "-".join(a for a in argv if not a.startswith("-") and ":" not in a))


@pytest.mark.parametrize("n", [2**31 + 1, 10**20])
@_BY_N
def test_an_n_beyond_the_id_range_is_refused(capped_python, argv, n):
    # Ids are C ints, so n above 2**31 is refused before anything is built by n.
    proc = capped_python("-m", "scalesort", *argv, str(n))
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0] == (
        f"error: n={n} is above 2**31, the largest n whose ids are C ints")


@_BY_N
def test_an_n_beyond_memory_is_a_clean_error(capped_python, argv):
    # 2e9 ids are C ints, but the order or the plan they need does not fit
    # in the capped address space: one error line instead of a traceback.
    proc = capped_python("-m", "scalesort", *argv, str(2 * 10**9))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: ran out of memory\n"


def test_results_loader_peaks_near_the_parse_and_shares_outcomes(tmp_path, capsys):
    # An answered recursive 5:2 plan at n = 16: 6,826 records of 3,906
    # distinct queries.  Reading every record before releasing any holds
    # the parsed document and the finished answers at once (about 960 B a
    # record under CPython 3.11).  Released record by record, the document
    # shrinks as the answers grow, and the peak stays near the larger of
    # the two (about 520 B a record).
    spec, n = ScaleSpec(5, (2,)), 16
    plan_path = tmp_path / "plan.json"
    run_cli(capsys, "plan", "--algo", "recursive", "--scale", "5:2", "--n", str(n),
            "--out", str(plan_path))
    order = HiddenOrder.from_seed(n, 4)
    oracle = Oracle(order, spec)
    results = [{"query": q, "outcome": sorted(oracle.query(q))}
               for q in json.loads(plan_path.read_text())["queries"]]
    results_path = tmp_path / "results.json"
    results_path.write_text(json.dumps({
        "algo": "recursive", "spec": "5:2", "n": n, "results": results}))
    del results

    tracemalloc.start()
    try:
        with open(results_path) as fh:
            json.load(fh)
        _, parse_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        *_, answers = _load_results(str(results_path))
        answers_size, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert load_peak < 0.75 * (parse_peak + answers_size)

    in_process = answer_plan(Oracle(order, spec), recursive_plan(n, spec))
    assert in_process == answers
    # Loaded keys are sized like the plan's own: 472 B for five ids, not 728.
    assert {sys.getsizeof(q) for q in answers} == {sys.getsizeof(q) for q in in_process}
    for got in (answers, in_process):
        assert len({id(o) for o in got.values()}) == len(set(got.values())) <= n


@pytest.mark.usefixtures("default_digit_limit")
def test_lower_bound(capsys):
    code, out, _ = run_cli(capsys, "lower-bound", "--scale", "3:2", "--n", "10")
    assert code == 0
    assert json.loads(out)["lower_bound"] == 15
    # ceil(C(n, 2) / 3) at n = 10**2150 has 4,300 digits, the default limit.
    n = 10**2150
    code, out, _ = run_cli(capsys, "lower-bound", "--scale", "3:2", "--n", str(n))
    assert code == 0
    value = json.loads(out)["lower_bound"]
    assert value == -(-n * (n - 1) // 6) and len(str(value)) == 4300


def test_bench_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code, _, _ = run_cli(capsys, "bench", "--scale", "3:2", "--n-list", "8,10",
                         "--trials", "2", "--algorithms", "online,offline_adjacency",
                         "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "spec,n,seed,algorithm,queries_used,bound,ratio,correct,millis"
    assert len(lines) == 1 + 2 * 2 * 2
    assert all(line.endswith(",") for line in lines[1:])  # millis empty by default


@pytest.mark.parametrize("argv,what", [
    (("plan", "--algo", "adjacency", "--scale", "3:2", "--n", "8", "--out"), "plan file"),
    (("bench", "--scale", "3:2", "--n-list", "8", "--csv"), "CSV file"),
])
@pytest.mark.parametrize("target,reason", [
    ("", "Is a directory"), ("missing/out", "No such file or directory"),
    # A name too long for the file system passes the check made before the
    # work, so the write itself refuses it.
    pytest.param("x" * 300, "File name too long", id="name-too-long")])
def test_unwritable_output_is_a_clean_error(tmp_path, capsys, argv, what, target, reason):
    path = tmp_path / target
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {what} {path}: {reason}\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv,error", [
    ("bench --scale 4:2 --n-list 50 --algorithms online,bogus", "unknown algorithm 'bogus'"),
    ("bench --scale 4:2 --n-list 50 --csv {tmp}", "cannot write CSV file {tmp}: Is a directory"),
    ("bench --scale 4:2 --n-list 50 --csv {tmp}/missing/x.csv",
     "cannot write CSV file {tmp}/missing/x.csv: No such file or directory"),
    ("bench --scale 4:2 --n-list 50 --csv {tmp}/file/x.csv",
     "cannot write CSV file {tmp}/file/x.csv: Not a directory"),
    ("plan --algo adjacency --scale 4:2 --n 50 --out {tmp}",
     "cannot write plan file {tmp}: Is a directory"),
    ("plan --algo recursive --scale 4:2 --n 50 --out {tmp}/missing/x.json",
     "cannot write plan file {tmp}/missing/x.json: No such file or directory"),
], ids=["unknown-algorithm", "csv-directory", "csv-missing-parent", "csv-file-parent",
        "plan-directory", "plan-missing-parent"])
def test_bad_bench_and_plan_arguments_are_refused_before_the_work(tmp_path, capsys, monkeypatch,
                                                                   argv, error):
    # Neither a sort nor a plan build may start before the refusal.
    def no_work(*args, **kwargs):
        raise AssertionError("the work started before the refusal")

    monkeypatch.setattr(harness, "run_experiment", no_work)
    for name, (_, solve, sort) in list(harness.OFFLINE.items()):
        monkeypatch.setitem(harness.OFFLINE, name, (no_work, solve, sort))
    (tmp_path / "file").write_text("")
    code, out, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 2 and out == ""
    assert err == f"error: {error.format(tmp=tmp_path)}\n"


def test_a_bench_that_fails_late_keeps_the_csv_file(tmp_path, capsys):
    # The CSV is written after the sweep, so a sweep refused at its second
    # size leaves an existing file as it was.
    path = tmp_path / "old.csv"
    path.write_text("kept\n")
    code, out, err = run_cli(capsys, "bench", "--scale", "4:2", "--n-list", "12,3",
                             "--csv", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert path.read_text() == "kept\n"


def test_bench_csv_with_timing(capsys):
    code, out, _ = run_cli(capsys, "--timing", "bench", "--scale", "3:2", "--n-list", "8,10",
                           "--trials", "2", "--algorithms", "online,offline_adjacency")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2 * 2 * 2
    assert all(re.fullmatch(r"\d+\.\d{3}", row["millis"]) for row in rows)


def test_bench_csv_quotes_multi_output_spec(capsys):
    code, out, _ = run_cli(capsys, "bench", "--scale", "5:2,4", "--n-list", "12")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["spec"] == "5:2,4"
    assert (rows[0]["n"], rows[0]["seed"], rows[0]["algorithm"]) == ("12", "0", "online")


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "--max-n", "5")
    assert code == 0
    assert '"failures": 0' in out


def test_verify_stdout_is_pinned(capsys):
    # sha256 of every line of the certifier's sweep over k = 3 and 4 up to
    # n = 7: which checks run, in what order, and each verdict.
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "--max-n", "7")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"checks": 45, "failures": 0}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "71b2a3f4c846937cabf2ec536a8722823021775c481a634d9a418193721895e5")


def test_verify_counts_algorithm_faults(capsys, monkeypatch):
    # Only the floor errors skip a check; any other ScaleError is a failure
    # that names its instrument, n and algorithm.
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "--max-n", "5")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"checks": 16, "failures": 0}

    def broken_min_finder(*args):
        def find_min(block):
            raise InconsistentAnswersError("reduced instrument did not isolate one block element")
        return find_min

    monkeypatch.setattr(online, "_min_finder", broken_min_finder)
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "--max-n", "5")
    assert code == 1
    *lines, summary = out.splitlines()
    failed = [line for line in lines if "FAIL (InconsistentAnswersError" in line]
    assert failed and json.loads(summary)["failures"] == len(failed)
    assert any(line.startswith("3:2 n=4 online: FAIL") for line in failed)


def test_verify_refuses_a_max_n_beyond_the_certifier(capsys):
    code, out, err = run_cli(capsys, "verify", "--exhaustive", "--max-n", "10")
    assert code == 2 and out == ""
    assert "--max-n 10" in err


def test_bad_scale_is_a_clean_error(capsys):
    code, _, err = run_cli(capsys, "sort-online", "--scale", "3:9", "--n", "9", "--seed", "0")
    assert code == 2
    assert "error:" in err
