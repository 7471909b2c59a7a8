"""Self-tests of the end-to-end benchmark.

Run with ``python -m pytest benchmarks/e2e -q``; the tier-1 suite does
not collect them.  The smoke tests run every workload once at a reduced
size and skip the golden digests.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = run.load_spec()


# -- spans and self time ---------------------------------------------------------


def test_self_time_subtracts_children_and_span_cost():
    # Names 0, 1, 2: span 0 [0, 100] holds span 1 [10, 40] (which holds
    # span 2 [20, 30]) and span 3 [50, 60], another call of name 1.
    ids = [0, 1, 2, 1]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 60]
    parents = [-1, 0, 1, 0]
    self_ns, calls = spans.self_times(ids, starts, ends, parents, 2.0)
    assert self_ns == {0: 100 - 30 - 10 - 2 * 2, 1: (30 - 10 - 2) + 10, 2: 10}
    assert calls == {0: 1, 1: 2, 2: 1}


def test_nested_span_of_same_layer_adds_time_but_not_a_call():
    # pick -> pick_with_horizon, both wrapped as one layer.
    self_ns, calls = spans.self_times([0, 0], [0, 5], [20, 15], [-1, 0], 0.0)
    assert self_ns == {0: 20}
    assert calls == {0: 1}


def test_recorder_nests_spans_and_survives_exceptions_and_growth():
    rec = spans.SpanRecorder(capacity=2)

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    leaf_w = rec.wrap(leaf, "leaf")

    def outer(xs):
        return [leaf_w(x) for x in xs]

    outer_w = rec.wrap(outer, "outer")
    assert outer_w([1, 2, 3]) == [1, 2, 3]
    with pytest.raises(ValueError):
        leaf_w(-1)
    assert rec.n == 5 and rec.capacity >= 5 and rec.top == -1
    names, starts, ends, parents = (list(c[:rec.n]) for c in rec.columns)
    assert [rec.names[i] for i in names] == ["outer", "leaf", "leaf", "leaf",
                                             "leaf"]
    assert parents == [-1, 0, 0, 0, -1]
    assert all(s <= e for s, e in zip(starts, ends))
    assert starts[0] <= starts[1] and ends[3] <= ends[0]


def test_dump_and_load_round_trip(tmp_path):
    rec = spans.SpanRecorder(capacity=4)
    rec.wrap(lambda: None, "x")()
    rec.dump(tmp_path / "s", {"wrapped": 1})
    meta, columns = spans.load(tmp_path / "s")
    assert meta["names"] == ["x"] and meta["n"] == 1 and meta["wrapped"] == 1
    assert [list(c) for c in columns][3] == [-1]


def test_calibrated_span_cost_is_small_and_positive():
    cost = spans.calibrate(rounds=2000, repeats=2)
    assert 0 <= cost < 100_000


# -- statistics -------------------------------------------------------------------


def test_summary_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert run.summarize(values) == {
        "value": statistics.median(values), "n": 6, "q1": q1, "q3": q3,
    }
    assert run.summarize([7.0]) == {"value": 7.0, "n": 1, "q1": 7.0,
                                    "q3": 7.0}


# -- iteration checks and failure accounting -----------------------------------------


def outcome(**changes) -> run.Outcome:
    base = dict(returncode=0, timed_out=False, wall_s=1.0, setup_s=0.1,
                cpu_s=1.0, peak_rss_mb=30.0, stdout="")
    base.update(changes)
    return run.Outcome(**base)


def reproduce_product(simulated: int, digest=None) -> run.Product:
    jobs = [{"key": f"k{i}", "instructions": 10} for i in range(3)]
    return run.Product(digest=digest or {"figure4.txt": "aa"},
                       manifest={"engine": {"simulations": simulated},
                                 "jobs": jobs})


COLD = run.WORKLOADS["reproduce-cold"]
WARM = run.WORKLOADS["reproduce-warm"]
MCF = run.WORKLOADS["sim-mcf-frfcfs"]


def test_clean_iterations_pass():
    expect = run.Expect(digest={"figure4.txt": "aa"})
    assert run.iteration_problems(COLD, outcome(), reproduce_product(3),
                                  expect) == []
    assert run.iteration_problems(WARM, outcome(), reproduce_product(0),
                                  expect) == []
    table = run.Product(digest="d", table={"reads": 7, "writes": 3,
                                           "instructions": 40})
    assert run.iteration_problems(
        MCF, outcome(), table,
        run.Expect(digest="d", requests=10, instructions=40)) == []


@pytest.mark.parametrize("case, workload, out, product, expect, match", [
    ("non-zero exit", COLD, outcome(returncode=1), reproduce_product(3),
     run.Expect(), "exit code 1"),
    ("timeout", MCF, outcome(returncode=-9, timed_out=True), run.Product(),
     run.Expect(), "timed out"),
    ("digest mismatch", COLD, outcome(),
     reproduce_product(3, {"figure4.txt": "bb"}),
     run.Expect(digest={"figure4.txt": "aa"}), "figure4.txt"),
    ("table mismatch", MCF, outcome(),
     run.Product(digest="x", table={"reads": 1, "writes": 0,
                                    "instructions": 1}),
     run.Expect(digest="y"), "summary table"),
    ("warm run simulated", WARM, outcome(), reproduce_product(2),
     run.Expect(), "warm run simulated 2"),
    ("cold run hit a cache", COLD, outcome(), reproduce_product(1),
     run.Expect(), "cold run simulated 1 of 3"),
    ("leaked segment", COLD, outcome(leaked=["repro-trace-1-ab-0"]),
     reproduce_product(3), run.Expect(), "leaked shared memory"),
    ("stray process", COLD, outcome(stray=1), reproduce_product(3),
     run.Expect(), "left running"),
    ("no stamp", MCF, outcome(setup_s=None), run.Product(), run.Expect(),
     "stamp"),
    ("wrong request count", MCF, outcome(),
     run.Product(digest="d", table={"reads": 5, "writes": 4,
                                    "instructions": 40}),
     run.Expect(requests=10), "requests"),
])
def test_failed_iterations_are_detected(case, workload, out, product, expect,
                                        match):
    problems = run.iteration_problems(workload, out, product, expect)
    assert any(match in p for p in problems), (case, problems)


def test_failed_ratio_counts_failed_over_attempted():
    bench = run.Bench(COLD, None, 0.0, False)
    bench.expect = run.Expect(digest={"figure4.txt": "aa"})
    assert bench.check(outcome(), reproduce_product(3)) == []
    assert bench.check(outcome(returncode=2), reproduce_product(3))
    assert bench.check(outcome(leaked=["s"]), reproduce_product(3))
    assert bench.check(outcome(), reproduce_product(3, {"x": "y"}))
    assert (bench.failed, bench.attempted) == (3, 4)


def test_other_seeds_are_checked_against_the_first_iteration():
    bench = run.Bench(MCF, 5, 0.0, False)
    table = {"reads": 1, "writes": 1, "instructions": 3}
    assert bench.check(outcome(), run.Product(digest="d1", table=table)) == []
    assert bench.check(outcome(), run.Product(digest="d2", table=table))


# -- the bound check and the pairs rule ----------------------------------------------


WALL = next(m for m in SPEC["end_to_end"] if m["name"] == "wall_s")
RATE = next(m for m in SPEC["end_to_end"]
            if m["name"] == "sim_instructions_per_s")


def test_change_within_bound_is_ok_and_beyond_is_a_regression():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    row = compare.judge("w", WALL, parent, [v * 1.05 for v in parent])
    assert row.verdict == "ok"
    row = compare.judge("w", WALL, parent, [v * 1.3 for v in parent])
    assert row.verdict == "regression"
    row = compare.judge("w", RATE, parent, [v * 0.7 for v in parent])
    assert row.verdict == "regression"


def test_wide_spread_is_unresolved_unless_the_change_dominates():
    parent = [1.0, 1.5, 0.7, 1.3, 0.8, 1.1]
    row = compare.judge("w", WALL, parent, [1.05, 1.4, 0.75, 1.2, 0.9, 1.0])
    assert row.verdict == "unresolved"
    row = compare.judge("w", WALL, parent, [0.5, 0.6, 0.55, 0.52, 0.58, 0.6])
    assert row.verdict == "ok"


def test_pairs_rule_claims_a_gain_only_with_nine_in_ten_wins():
    parent = [1.0 + 0.01 * (i % 3) for i in range(10)]
    faster = [v * 0.8 for v in parent]
    assert compare.judge("w", WALL, parent, faster).verdict == "improved"
    two_losses = faster[:8] + [1.5, 1.5]
    row = compare.judge("w", WALL, parent, two_losses)
    assert (row.wins, row.pairs) == (8, 10) and row.verdict != "improved"
    assert compare.judge("w", WALL, parent[:9], faster[:9]).verdict != \
        "improved"


def test_compare_exits_nonzero_on_regression(tmp_path):
    def log(path, factor, correct=True):
        with open(path, "w") as handle:
            for i in range(3):
                metrics = {m["name"]: {"value": (1 + i / 100) * factor,
                                       "unit": m["unit"]}
                           for m in SPEC["end_to_end"]}
                handle.write(json.dumps({"workload": "sim-mcf-frfcfs",
                                         "trace": 0, "correct": correct,
                                         "metrics": metrics}) + "\n")
    log(tmp_path / "a", 1.0)
    log(tmp_path / "b", 1.0)
    log(tmp_path / "c", 1.5)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1


# -- the benchmark definition ---------------------------------------------------------


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(SPEC["per_layer"]) <= 128


def test_every_per_layer_metric_is_produced():
    meta = {"names": ["cpu.tick"], "n": 1}
    columns = ([0], [0], [10], [-1])
    values = run.layer_values(outcome(), run.Product(), meta, columns, 0.0,
                              0.5)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(values)
    assert values["cpu.tick.calls"] == 1


# -- smoke: every workload once, reduced size, no goldens -------------------------------


@pytest.mark.parametrize("name, trace", [
    ("reproduce-cold", False),
    ("reproduce-warm", True),
    ("sim-mcf-frfcfs", False),
    ("sim-lbm-palp", True),
])
def test_smoke(name, trace, tmp_path):
    bench = run.Bench(run.WORKLOADS[name], None, 0.0, trace,
                      reproduce_requests=300, sim_requests=1500,
                      use_golden=False)
    bench.results = tmp_path
    record = bench.run()
    assert record["correct"], record["problems"]
    assert record["failed"] == 0
    assert record["attempted"] == 1 + trace
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        value = record["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
    if trace:
        values = {k: v["value"] for k, v in record["metrics"].items()}
        self_total = sum(v for k, v in values.items()
                         if k.endswith(".self_s"))
        assert values["residual_s"] + self_total == pytest.approx(
            values["trace.wall_s"])
        assert (tmp_path / "spans.jsonl").exists()
    else:
        assert all(v["value"] > 0 for v in record["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    bench_dir = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench_dir,
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__",
                                                  ".pytest_cache"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "sim-mcf-frfcfs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
