"""CLI commands: argument plumbing and exit codes."""

import pytest

from repro.cli import CONFIG_BUILDERS, build_config, main
from repro.workloads import read_trace


class TestList:
    def test_lists_configs_and_profiles(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fgnvm-8x2" in out
        assert "mcf" in out
        assert "mpki" in out


class TestRun:
    def test_run_benchmark(self, capsys):
        code = main([
            "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "300",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fgnvm-8x2 on sphinx3" in out
        assert "ipc" in out

    def test_run_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "t.trace"
        assert main([
            "trace-gen", "--profile", "sphinx3", "--count", "200",
            "--output", str(trace_path),
        ]) == 0
        assert main([
            "run", "--config", "baseline", "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "baseline-nvm" in out

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--config", "bogus"])

    def test_build_config_covers_every_name(self):
        for name in CONFIG_BUILDERS:
            assert build_config(name).name


class TestPolicyFlag:
    def test_list_shows_policies(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "palp" in out
        assert "rbla" in out
        assert "salp-8" in out

    def test_run_with_policy_renames_config(self, capsys):
        assert main([
            "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "300", "--policy", "palp",
        ]) == 0
        assert "fgnvm-8x2+palp" in capsys.readouterr().out

    def test_unknown_policy_lists_roster(self):
        with pytest.raises(SystemExit, match="palp"):
            main([
                "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
                "--requests", "300", "--policy", "bogus",
            ])

    def test_incompatible_policy_rejected(self):
        # PALP needs reads-under-write; the baseline bank forbids them.
        with pytest.raises(SystemExit, match="reads proceed under"):
            main([
                "run", "--config", "baseline", "--benchmark", "sphinx3",
                "--requests", "300", "--policy", "palp",
            ])

    def test_sweep_with_policy(self, capsys):
        assert main([
            "sweep", "--path", "org.subarray_groups", "--values",
            "2", "4", "--benchmark", "sphinx3", "--requests", "300",
            "--policy", "rbla",
        ]) == 0
        assert "org.subarray_groups=2" in capsys.readouterr().out

    def test_figure_policies_command(self, capsys):
        assert main([
            "figure-policies", "--benchmarks", "mcf", "--requests",
            "400",
        ]) == 0
        out = capsys.readouterr().out
        assert "Policy zoo" in out
        assert "salp" in out
        assert "gmean" in out


class TestTables:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Row latches" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "tWP" in capsys.readouterr().out


class TestFigures:
    def test_figure4_small(self, capsys):
        code = main([
            "figure4", "--benchmarks", "mcf", "--requests", "600",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "gmean" in out

    def test_figure5_small(self, capsys):
        code = main([
            "figure5", "--benchmarks", "mcf", "--requests", "600",
        ])
        assert code == 0
        assert "8x32-perfect" in capsys.readouterr().out


class TestTraceGen:
    def test_native_roundtrips(self, tmp_path):
        path = tmp_path / "mcf.trace"
        assert main([
            "trace-gen", "--profile", "mcf", "--count", "150",
            "--output", str(path),
        ]) == 0
        assert len(read_trace(path)) == 150

    def test_nvmain_format(self, tmp_path):
        path = tmp_path / "mcf.nvt"
        assert main([
            "trace-gen", "--profile", "mcf", "--count", "50",
            "--output", str(path), "--format", "nvmain",
        ]) == 0
        first = path.read_text().splitlines()[0].split()
        assert len(first) == 5

    def test_missing_output_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace-gen", "--profile", "mcf"])


class TestCompareAndSweep:
    def test_compare_prints_table(self, capsys):
        assert main([
            "compare", "--configs", "baseline", "fgnvm-8x2",
            "--benchmark", "sphinx3", "--requests", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "speedup_vs_first" in out
        assert "fgnvm-8x2" in out

    def test_sweep_prints_points(self, capsys):
        assert main([
            "sweep", "--path", "cpu.rob_entries", "--values", "64", "128",
            "--benchmark", "sphinx3", "--requests", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "cpu.rob_entries=64" in out

    def test_sweep_parses_bool_values(self, capsys):
        assert main([
            "sweep", "--path", "controller.close_page",
            "--values", "false", "true",
            "--benchmark", "sphinx3", "--requests", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "controller.close_page=True" in out

    def test_figure3_command(self, capsys):
        assert main(["figure3"]) == 0
        assert "Partial-Activation" in capsys.readouterr().out


class TestReproduce:
    def test_reproduce_writes_every_artifact(self, tmp_path, capsys):
        code = main([
            "reproduce", "--out", str(tmp_path / "repro"),
            "--benchmarks", "sphinx3", "--requests", "600",
        ])
        assert code == 0
        produced = {p.name for p in (tmp_path / "repro").iterdir()}
        assert {
            "table1.txt", "table2.txt", "figure3.txt", "figure4.txt",
            "figure5.txt", "headline.txt", "table1.csv", "figure4.csv",
            "figure5.csv", "MANIFEST.txt",
        } <= produced
        out = capsys.readouterr().out
        assert "ok" in out


class TestEngineValidation:
    def test_negative_workers_rejected_cleanly(self, capsys):
        with pytest.raises(SystemExit, match="--workers must be >= 0"):
            main([
                "run", "--benchmark", "sphinx3", "--requests", "300",
                "--workers", "-2",
            ])

    def test_unwritable_cache_dir_rejected_cleanly(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        with pytest.raises(SystemExit, match="not a writable directory"):
            main([
                "run", "--benchmark", "sphinx3", "--requests", "300",
                "--cache-dir", str(blocker),
            ])

    def test_bad_retries_rejected(self):
        with pytest.raises(SystemExit, match="--retries"):
            main([
                "run", "--benchmark", "sphinx3", "--requests", "300",
                "--retries", "0",
            ])

    def test_bad_job_timeout_rejected(self):
        with pytest.raises(SystemExit, match="--job-timeout"):
            main([
                "run", "--benchmark", "sphinx3", "--requests", "300",
                "--job-timeout", "-1",
            ])

    def test_resume_without_cache_dir_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit, match="persistent cache"):
            main([
                "run", "--benchmark", "sphinx3", "--requests", "300",
                "--resume",
            ])

    def test_run_with_cache_writes_manifest_and_journal(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        assert main([
            "run", "--benchmark", "sphinx3", "--requests", "300",
            "--cache-dir", str(cache_dir),
        ]) == 0
        assert (cache_dir / "run-manifest.json").exists()
        assert (cache_dir / "sweep-journal.jsonl").exists()
        err = capsys.readouterr().err
        assert "run manifest" in err

    def test_env_cache_dir_reports_like_the_flag(
        self, tmp_path, capsys, monkeypatch
    ):
        cache_dir = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main([
            "run", "--benchmark", "sphinx3", "--requests", "300",
        ]) == 0
        assert (cache_dir / "run-manifest.json").exists()
        assert (cache_dir / "sweep-journal.jsonl").exists()
        err = capsys.readouterr().err
        assert "engine: 1 simulation(s)" in err
        assert f"run manifest: {cache_dir / 'run-manifest.json'}" in err

    def test_resume_run_simulates_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = [
            "run", "--benchmark", "sphinx3", "--requests", "300",
            "--cache-dir", str(cache_dir),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "0 simulation(s)" in captured.err


class TestChaos:
    def test_chaos_round_trip_is_bit_identical(self, tmp_path, capsys):
        code = main([
            "chaos", "--jobs", "4", "--workers", "1",
            "--benchmark", "sphinx3", "--requests", "300",
            "--crashes", "1", "--transients", "1", "--corrupt", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault plan (seed 0), 3 fault(s)" in out
        assert "bit-identical" in out
        assert (tmp_path / "cache" / "run-manifest.json").exists()

    def test_chaos_validates_fault_budget(self):
        with pytest.raises(SystemExit, match="cannot place"):
            main([
                "chaos", "--jobs", "1", "--crashes", "5",
                "--requests", "300",
            ])

    def test_chaos_rejects_zero_jobs(self):
        with pytest.raises(SystemExit, match="--jobs"):
            main(["chaos", "--jobs", "0", "--requests", "300"])


class TestInstrumentation:
    def test_emit_trace_jsonl(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main([
            "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "300", "--emit-trace", str(path),
        ]) == 0
        from repro.obs import read_events_jsonl

        events = read_events_jsonl(path)
        assert events
        assert any(e.kind == "issue" for e in events)
        assert any(e.kind == "run_end" for e in events)

    def test_emit_trace_chrome_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main([
            "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "300", "--emit-trace", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
        lanes = {
            e["args"]["name"] for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(name.startswith("SAG") for name in lanes)

    def test_emit_metrics(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main([
            "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "300", "--emit-metrics", str(path),
        ]) == 0
        metrics = json.loads(path.read_text())
        run = metrics["runs"]["sphinx3"]
        assert run["totals"]["reads"] > 0
        assert run["tiles"]

    def test_instrumented_summary_matches_plain_run(self, tmp_path, capsys):
        args = [
            "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "300",
        ]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(
            args + ["--emit-trace", str(tmp_path / "t.jsonl")]
        ) == 0
        probed = capsys.readouterr().out
        assert plain == probed

    def test_inspect_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        assert main([
            "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "300", "--emit-trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-tile occupancy" in out
        assert "multi-activation" in out

    def test_inspect_with_timeline(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        main([
            "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "300", "--emit-trace", str(trace),
        ])
        capsys.readouterr()
        assert main(["inspect", str(trace), "--timeline", "40"]) == 0
        out = capsys.readouterr().out
        assert "cy/column" in out

    def test_inspect_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("definitely not json\n")
        with pytest.raises(SystemExit):
            main(["inspect", str(path)])

    def test_inspect_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "events.jsonl"
        main([
            "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "300", "--emit-trace", str(trace),
        ])
        capsys.readouterr()
        assert main(["inspect", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] > 0
        # Machine-readable mirror of the human report's sections.
        assert payload["tiles"]
        assert "multi_activation_cycles" in payload
        assert payload["totals"]["reads"] > 0

    @pytest.mark.parametrize(
        "flag", ["--emit-trace", "--emit-metrics", "--trace-out"],
    )
    def test_missing_destination_fails_before_simulating(
            self, flag, tmp_path, monkeypatch, capsys):
        import repro.sim.experiment

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking destinations")

        # `run` imports the simulator entry point when it runs.
        monkeypatch.setattr(repro.sim.experiment, "run_benchmark",
                            no_simulation)
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--config", "fgnvm-8x2", "--requests", "300",
                flag, str(tmp_path / "absent" / "out.json"),
            ])
        assert str(exc.value) == (
            f"error: {flag} directory does not exist: {tmp_path / 'absent'}"
        )


class TestTracing:
    RUN = [
        "run", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
        "--requests", "300",
    ]

    def test_trace_sample_prints_blame(self, capsys):
        assert main(self.RUN + ["--trace-sample", "2"]) == 0
        out = capsys.readouterr().out
        assert "latency blame" in out
        assert "service" in out
        assert "p95+ tail" in out

    def test_trace_out_writes_span_events(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        assert main(self.RUN + ["--trace-out", str(path)]) == 0
        from repro.obs import read_events_jsonl

        events = read_events_jsonl(path)
        assert any(e.kind == "span" for e in events)
        assert any(e.kind == "blame" for e in events)

    def test_traced_summary_matches_plain_run(self, capsys):
        """Tracing is pure observation end-to-end through the CLI."""
        assert main(self.RUN) == 0
        plain = capsys.readouterr().out
        assert main(self.RUN + ["--trace-sample", "1"]) == 0
        traced = capsys.readouterr().out
        assert traced.startswith(plain.rstrip("\n"))

    def test_trace_sample_rejects_non_positive(self):
        with pytest.raises(SystemExit, match="--trace-sample must be >= 1"):
            main(self.RUN + ["--trace-sample", "0"])

    def test_trace_out_rejects_missing_directory(self, tmp_path):
        with pytest.raises(SystemExit, match="directory does not exist"):
            main(self.RUN + [
                "--trace-out", str(tmp_path / "absent" / "spans.jsonl"),
            ])

    def test_inspect_blame_renders_decomposition(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        assert main(self.RUN + [
            "--trace-sample", "2", "--trace-out", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", str(path), "--blame"]) == 0
        out = capsys.readouterr().out
        assert "latency blame" in out
        assert "service" in out

    def test_inspect_hints_at_blame_without_flag(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(self.RUN + [
            "--trace-sample", "2", "--emit-trace", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "request spans:" in out
        assert "--blame for the full decomposition" in out

    def test_inspect_blame_without_spans_explains(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(self.RUN + ["--emit-trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(path), "--blame"]) == 0
        out = capsys.readouterr().out
        assert "no request spans in this trace" in out

    def test_inspect_json_carries_blame_report(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        assert main(self.RUN + [
            "--trace-sample", "2", "--emit-trace", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blame"]["spans"] > 0
        assert payload["blame"]["unattributed_cycles"] == 0
        assert payload["event_kinds"]["span"] == payload["blame"]["spans"]


class TestBlameCommand:
    def test_blame_prints_decomposition(self, capsys):
        assert main([
            "blame", "--benchmarks", "mcf", "--requests", "400",
            "--sample", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Latency blame" in out
        assert "conflict-blame share" in out
        for series in ("baseline", "fgnvm", "palp", "salp"):
            assert series in out

    def test_blame_out_archives_artifacts(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "artifacts"
        assert main([
            "blame", "--benchmarks", "mcf", "--requests", "400",
            "--sample", "2", "--out", str(out_dir),
        ]) == 0
        report = json.loads((out_dir / "blame-report.json").read_text())
        assert set(report["reports"]["mcf"]) == {
            "baseline", "fgnvm", "palp", "salp",
        }
        manifest = json.loads((out_dir / "run-manifest.json").read_text())
        assert manifest["schema"] == "repro-run-manifest-v1"
        assert len(manifest["jobs"]) == 4
        assert manifest["blame"]["mcf/fgnvm"]["spans"] > 0
        assert all(job["config_digest"] for job in manifest["jobs"])
        from repro.obs import read_events_jsonl

        spans = read_events_jsonl(out_dir / "spans-mcf-fgnvm.jsonl")
        assert any(e.kind == "span" for e in spans)

    def test_blame_rejects_bad_sample(self):
        with pytest.raises(SystemExit, match="--sample must be >= 1"):
            main(["blame", "--sample", "0"])

    def test_blame_rejects_missing_out_parent(self, tmp_path):
        with pytest.raises(SystemExit, match="parent directory"):
            main([
                "blame", "--requests", "200",
                "--out", str(tmp_path / "a" / "b" / "c"),
            ])

    def test_figure_blame_command(self, capsys):
        assert main([
            "figure-blame", "--benchmarks", "mcf", "--requests", "400",
            "--sample", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Latency blame" in out
        assert "organisations" in out


class TestProfile:
    def test_profile_prints_phase_table(self, capsys):
        assert main([
            "profile", "--config", "fgnvm-8x2", "--benchmark", "sphinx3",
            "--requests", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "controller.tick" in out
        assert "self %" in out
        assert "cycles/s" in out

    def test_profile_summary_matches_plain_run(self, capsys):
        args = ["--config", "fgnvm-8x2", "--benchmark", "sphinx3",
                "--requests", "300"]
        assert main(["run"] + args) == 0
        plain = capsys.readouterr().out
        assert main(["profile"] + args) == 0
        profiled = capsys.readouterr().out
        # Profiling is pure observation: the summary table `run` prints
        # re-appears verbatim inside the profile report.
        table = [line for line in plain.splitlines()
                 if line and not line.endswith(":")]
        assert len(table) > 5
        assert set(table) <= set(profiled.splitlines())

    def test_emit_pstats(self, tmp_path, capsys):
        import pstats

        path = tmp_path / "run.pstats"
        assert main([
            "profile", "--benchmark", "sphinx3", "--requests", "300",
            "--emit-pstats", str(path),
        ]) == 0
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0

    def test_profile_rejects_bad_requests(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--requests", "0"])
        assert excinfo.value.code == 2
        assert "--requests" in capsys.readouterr().err


class TestRequestsValidation:
    """Every ``--requests`` is a positive count, checked while parsing."""

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["figure4"],
        ["figure5"],
        ["compare"],
        ["sweep", "--path", "org.column_divisions", "--values", "2"],
        ["figure-policies"],
        ["figure-degradation"],
        ["blame"],
        ["figure-blame"],
        ["headline"],
        ["reproduce"],
        ["chaos"],
        ["profile"],
        ["perf", "record"],
    ], ids=lambda argv: argv[0] if argv[0] != "perf" else "perf-record")
    @pytest.mark.parametrize("value", ["0", "-1", "many"])
    def test_non_positive_requests_is_a_usage_error(self, argv, value,
                                                    capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--requests", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --requests:" in err
        assert "usage:" in err


class TestUnknownBenchmark:
    @pytest.mark.parametrize("argv", [
        ["run", "--benchmark", "nosuch"],
        ["profile", "--benchmark", "nosuch"],
        ["perf", "record", "--benchmarks", "nosuch", "--repeats", "1"],
    ])
    def test_unknown_benchmark_is_a_clean_error(self, argv, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--requests", "50"]
                 + (["--out", str(tmp_path / "l.json")]
                    if argv[0] == "perf" else []))
        message = excinfo.value.code
        assert message.startswith("error: unknown benchmark 'nosuch'; known: ")
        assert "mcf" in message


class TestPerf:
    RECORD = [
        "perf", "record", "--configs", "fgnvm-8x2", "--benchmarks",
        "sphinx3", "--requests", "300", "--repeats", "2",
    ]

    def test_record_then_self_compare_passes(self, tmp_path, capsys):
        ledger = tmp_path / "BENCH_PERF.json"
        assert main(self.RECORD + ["--out", str(ledger)]) == 0
        assert ledger.exists()
        assert main([
            "perf", "compare", str(ledger), str(ledger),
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_compare_flags_injected_regression(self, tmp_path, capsys):
        import json

        baseline = tmp_path / "old.json"
        assert main(self.RECORD + ["--out", str(baseline)]) == 0
        # Inject a synthetic 4x slowdown into a copy of the ledger.
        data = json.loads(baseline.read_text())
        for entry in data["entries"]:
            entry["samples_wall_s"] = [
                s * 4 for s in entry["samples_wall_s"]
            ]
        slowed = tmp_path / "new.json"
        slowed.write_text(json.dumps(data))
        assert main(["perf", "compare", str(baseline), str(slowed)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "regression" in out

    def test_record_with_phases_embeds_breakdown(self, tmp_path):
        import json

        ledger = tmp_path / "l.json"
        assert main(self.RECORD + ["--phases", "--out", str(ledger)]) == 0
        data = json.loads(ledger.read_text())
        assert data["entries"][0]["phases"]
        assert "controller.tick" in data["entries"][0]["phases"]

    def test_compare_missing_baseline_passes_with_notice(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "new.json"
        assert main(self.RECORD + ["--out", str(ledger)]) == 0
        assert main([
            "perf", "compare", str(tmp_path / "absent.json"), str(ledger),
        ]) == 0
        assert "no baseline ledger" in capsys.readouterr().out

    def test_compare_rejects_malformed_new_ledger(self, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text('{"schema": "repro-bench-perf-v1", "entries": []}')
        new.write_text("{broken")
        with pytest.raises(SystemExit):
            main(["perf", "compare", str(old), str(new)])

    def test_record_rejects_bad_repeats(self):
        with pytest.raises(SystemExit, match="--repeats"):
            main(["perf", "record", "--repeats", "0"])


class TestTelemetryCli:
    RUN = [
        "compare", "--configs", "baseline", "fgnvm-8x2",
        "--benchmark", "sphinx3", "--requests", "300",
        "--epoch-cycles", "500", "--workers", "2",
    ]

    def sweep(self, tmp_path, capsys, extra=()):
        cache = tmp_path / "cache"
        code = main(self.RUN + ["--cache-dir", str(cache),
                                "--telemetry"] + list(extra))
        assert code == 0
        err = capsys.readouterr().err
        return cache, err

    def test_run_with_telemetry_writes_spool(self, tmp_path, capsys):
        cache, err = self.sweep(tmp_path, capsys)
        spool = cache / "telemetry.jsonl"
        assert spool.exists()
        assert "telemetry:" in err
        assert "0 dropped" in err
        # Every spool line is a schema-valid frame.
        import json

        from repro.obs.stream import validate_frame

        lines = spool.read_text().splitlines()
        assert lines
        for line in lines:
            assert validate_frame(json.loads(line)) == []

    def test_watch_once_json_snapshot(self, tmp_path, capsys):
        import json

        from repro.obs.hub import SNAPSHOT_SCHEMA

        cache, _ = self.sweep(tmp_path, capsys)
        assert main(["watch", str(cache), "--once", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["dropped_frames"] == 0
        assert len(snap["jobs"]) >= 2
        assert all(j["state"] == "done" for j in snap["jobs"])

    def test_watch_once_dashboard(self, tmp_path, capsys):
        cache, _ = self.sweep(tmp_path, capsys)
        assert main(["watch", str(cache / "telemetry.jsonl"),
                     "--once"]) == 0
        out = capsys.readouterr().out
        assert "jobs" in out
        assert "dropped frames 0" in out

    def test_watch_replay_missing_spool_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="telemetry"):
            main(["watch", str(tmp_path / "absent.jsonl"), "--once"])

    def test_inspect_engine_report(self, tmp_path, capsys):
        cache, _ = self.sweep(tmp_path, capsys)
        assert main(["inspect", "--engine", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "fleet:" in out
        assert "telemetry:" in out

    def test_inspect_engine_json(self, tmp_path, capsys):
        import json

        cache, _ = self.sweep(tmp_path, capsys)
        assert main(["inspect", "--engine", str(cache), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["telemetry"]["dropped_frames"] == 0
        assert summary["telemetry"]["jobs_streamed"] >= 2

    def test_inspect_autodetects_spool(self, tmp_path, capsys):
        cache, _ = self.sweep(tmp_path, capsys)
        assert main(["inspect", str(cache / "telemetry.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "dropped frames" in out

    def test_drift_envelope_without_telemetry_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--telemetry"):
            main(self.RUN + ["--drift-envelope",
                             str(tmp_path / "envelopes.json")])

    def impossible_envelope(self, tmp_path):
        """Envelopes no real sphinx3 run fits: every epoch drifts."""
        from repro.obs.drift import DriftEnvelope, write_envelopes

        path = tmp_path / "envelopes.json"
        write_envelopes(path, [
            DriftEnvelope(config=config, benchmark="sphinx3",
                          ipc_min=50.0, ipc_max=60.0, rel_tol=0.0)
            for config in ("baseline-nvm", "fgnvm-8x2")
        ])
        return path

    def test_drift_envelope_flags_findings(self, tmp_path, capsys):
        import json

        cache, err = self.sweep(
            tmp_path, capsys,
            extra=["--drift-envelope",
                   str(self.impossible_envelope(tmp_path))],
        )
        assert "DRIFT ipc_low" in err
        manifest = json.loads((cache / "run-manifest.json").read_text())
        assert manifest["telemetry"]["drift"]["by_kind"]["ipc_low"] >= 1

    def test_replay_shows_recorded_drift_findings(self, tmp_path, capsys):
        import json

        envelope_path = self.impossible_envelope(tmp_path)
        cache, err = self.sweep(
            tmp_path, capsys,
            extra=["--drift-envelope", str(envelope_path)],
        )
        live = json.loads(
            (cache / "run-manifest.json").read_text()
        )["telemetry"]["drift"]
        assert live["by_kind"]["ipc_low"] >= 1
        assert err.count("DRIFT ipc_low") == len(live["findings"])

        # Replayed without an envelope: the spool's drift frames alone
        # rebuild the same findings.
        assert main(["watch", str(cache), "--once", "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)["drift"]
        assert replayed["by_kind"] == live["by_kind"]
        assert replayed["findings"] == live["findings"]

        # Replayed with the envelope: re-detected findings are the
        # recorded ones, not a second copy.
        assert main(["watch", str(cache), "--once", "--json",
                     "--drift-envelope", str(envelope_path)]) == 0
        rearmed = json.loads(capsys.readouterr().out)["drift"]
        assert rearmed["by_kind"] == live["by_kind"]

        assert main(["inspect", str(cache / "telemetry.jsonl")]) == 0
        out = capsys.readouterr().out
        assert f"DRIFT ({len(live['findings'])} finding(s)):" in out
        assert "ipc_low" in out

    def test_progress_renders_from_hub(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(self.RUN + ["--cache-dir", str(cache), "--telemetry",
                                "--progress"]) == 0
        err = capsys.readouterr().err
        # The last --progress line prints the engine frame the hub
        # folded last, so its done/total are what `repro watch` reads.
        import json
        import re

        last = re.findall(r"\[\s*(\d+)/(\d+)\s", err)[-1]
        assert main(["watch", str(cache), "--once", "--json"]) == 0
        fleet = json.loads(capsys.readouterr().out)["fleet"]
        assert fleet["jobs_total"] > 0
        assert tuple(map(int, last)) == (fleet["jobs_done"],
                                         fleet["jobs_total"])
