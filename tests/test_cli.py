"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    assert rc == 0
    return out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_migrate_command_small(capsys):
    out = run_cli(capsys, "migrate", "--app", "LU.C", "--nprocs", "8",
                  "--nodes", "2", "--source", "node1")
    assert "Migration node1 -> spare0" in out
    assert "Job Stall" in out
    assert "phase timeline" in out
    assert "data migrated" in out


def test_migrate_memory_restart(capsys):
    out = run_cli(capsys, "migrate", "--app", "LU.C", "--nprocs", "8",
                  "--nodes", "2", "--source", "node1",
                  "--restart-mode", "memory")
    assert "memory" in out


def test_scale_command(capsys):
    out = run_cli(capsys, "scale", "--ppn", "1", "2")
    assert "1 ranks/node" in out
    assert "2 ranks/node" in out


def test_interval_command(capsys):
    out = run_cli(capsys, "interval", "--coverage", "0.0", "0.9",
                  "--work-days", "1")
    assert "coverage 0%" in out
    assert "coverage 90%" in out
    assert "efficiency" in out


def test_compare_command_small(capsys):
    out = run_cli(capsys, "compare", "--app", "LU.C", "--nprocs", "8",
                  "--nodes", "2")
    assert "CR(ext3)" in out
    assert "speedup over CR(ext3)" in out
    assert "speedup over CR(pvfs)" in out


def test_report_from_trace_file(capsys, tmp_path):
    path = tmp_path / "trace.jsonl"
    run_cli(capsys, "migrate", "--app", "LU.C", "--nprocs", "8",
            "--nodes", "2", "--source", "node1", "--no-manifest",
            "--trace-out", str(path))
    out = run_cli(capsys, "report", "--from-run", str(path),
                  "--runs-dir", str(tmp_path))
    assert f"Run report — {path}" in out
    assert "## Phase waterfall" in out
    assert "Dominant component:" in out
    assert "blcr.restart" in out
    assert "phase:Restart" in out


def test_bench_command_clean_and_regressing(capsys, tmp_path):
    import json

    from benchmarks.harness import BENCH_SCHEMA_VERSION

    base = tmp_path / "baselines.json"
    out = run_cli(capsys, "bench", "--only", "fig6", "--out-dir",
                  str(tmp_path), "--baselines", str(base),
                  "--update-baselines")
    assert "updated baselines" in out
    assert (tmp_path / "BENCH_fig6.json").exists()
    # Clean rerun against the fresh baselines exits 0...
    out = run_cli(capsys, "bench", "--only", "fig6", "--out-dir",
                  str(tmp_path), "--baselines", str(base))
    assert "within tolerance" in out
    # ...and a tampered baseline makes the same run exit 1.
    doc = json.loads(base.read_text())
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    key = next(iter(doc["benches"]["fig6"]))
    doc["benches"]["fig6"][key] *= 2
    base.write_text(json.dumps(doc))
    rc = main(["bench", "--only", "fig6", "--out-dir", str(tmp_path),
               "--baselines", str(base)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSIONS" in out
    assert "drifted" in out


def test_bench_unknown_name_is_one_line_error(capsys, tmp_path):
    from benchmarks.harness import BENCHES

    rc = main(["bench", "--only", "fig4", "bogus", "--out-dir",
               str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.strip() == (f"error: unknown benches ['bogus']; "
                           f"available: {sorted(BENCHES)}")
    assert not list(tmp_path.iterdir())


def test_bench_only_help_lists_every_bench(capsys):
    from benchmarks.harness import BENCHES

    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    out = capsys.readouterr().out
    for name in BENCHES:
        assert name in out, name


def test_bad_app_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["migrate", "--app", "FT.C"])


def test_compare_memory_restart_mode(capsys):
    out = run_cli(capsys, "compare", "--app", "LU.C", "--nprocs", "8",
                  "--nodes", "2", "--restart-mode", "memory")
    assert "restart=memory" in out
    assert "speedup over CR(ext3)" in out


def test_migrate_trace_out_exports_jsonl(capsys, tmp_path):
    import json

    path = tmp_path / "trace.jsonl"
    out = run_cli(capsys, "migrate", "--app", "LU.C", "--nprocs", "8",
                  "--nodes", "2", "--source", "node1",
                  "--restart-mode", "memory", "--trace-out", str(path))
    assert f"wrote {path}" in out
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows and all("kind" in r for r in rows)
    assert any(r["kind"] == "pipeline.run.start" for r in rows)


TRACE_FILE_COMMANDS = pytest.mark.parametrize(
    "command", [["report", "--from-run"], ["sanitize", "--from-jsonl"]],
    ids=["report", "sanitize"])


@TRACE_FILE_COMMANDS
def test_missing_trace_file_is_one_line_error(capsys, command):
    rc = main([*command, "/no/such/trace.jsonl"])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.strip() == "error: trace file not found: /no/such/trace.jsonl"
    assert "Traceback" not in out


@TRACE_FILE_COMMANDS
def test_empty_trace_file_is_one_line_error(capsys, tmp_path, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main([*command, str(empty)])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.strip() == f"error: trace file is empty: {empty}"


def test_bench_parser_accepts_restart_mode():
    args = build_parser().parse_args(["bench", "--restart-mode", "memory"])
    assert args.restart_mode == "memory"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "--restart-mode", "tape"])


# -- run registry and reports ------------------------------------------------

SMALL = ("--app", "LU.C", "--nprocs", "8", "--nodes", "2")


def _run_ids(capsys, runs_dir):
    out = run_cli(capsys, "runs", "list", "--runs-dir", str(runs_dir))
    return [line.split()[0] for line in out.splitlines()[1:]]


def test_migrate_records_a_manifest(capsys, tmp_path):
    out = run_cli(capsys, "migrate", *SMALL, "--source", "node1",
                  "--runs-dir", str(tmp_path))
    assert "recorded run" in out
    ids = _run_ids(capsys, tmp_path)
    assert len(ids) == 1 and "-migrate-" in ids[0]
    show = run_cli(capsys, "runs", "show", ids[0],
                   "--runs-dir", str(tmp_path))
    import json
    doc = json.loads(show)
    assert doc["command"] == "migrate"
    assert doc["results"]["phases"]["Restart"] > 0
    assert doc["config"]["restart_mode"] == "file"


def test_no_manifest_flag_skips_recording(capsys, tmp_path):
    out = run_cli(capsys, "migrate", *SMALL, "--source", "node1",
                  "--runs-dir", str(tmp_path), "--no-manifest")
    assert "recorded run" not in out
    out = run_cli(capsys, "runs", "list", "--runs-dir", str(tmp_path))
    assert "no runs recorded" in out


def test_runs_diff_shows_restart_delta_without_rerunning(capsys, tmp_path):
    run_cli(capsys, "migrate", *SMALL, "--source", "node1",
            "--restart-mode", "file", "--runs-dir", str(tmp_path))
    run_cli(capsys, "migrate", *SMALL, "--source", "node1",
            "--restart-mode", "memory", "--runs-dir", str(tmp_path))
    ids = _run_ids(capsys, tmp_path)
    assert len(ids) == 2
    out = run_cli(capsys, "runs", "diff", *ids, "--runs-dir", str(tmp_path))
    assert "restart_mode: file -> memory" in out
    assert "phases.Restart:" in out
    assert "%" in out


def test_runs_show_and_diff_argument_validation(capsys, tmp_path):
    rc = main(["runs", "show", "--runs-dir", str(tmp_path)])
    assert rc == 2
    assert "exactly one RUN_ID" in capsys.readouterr().out
    rc = main(["runs", "diff", "only-one", "--runs-dir", str(tmp_path)])
    assert rc == 2
    rc = main(["runs", "show", "no-such-run", "--runs-dir", str(tmp_path)])
    out = capsys.readouterr()  # drain the diff error too
    assert rc == 2


def test_report_command_live_renders_sections(capsys, tmp_path):
    out = run_cli(capsys, "report", *SMALL, "--source", "node1",
                  "--runs-dir", str(tmp_path))
    for section in ("## Phase waterfall", "## Critical-path blame",
                    "## Telemetry time-series", "## Metrics summary"):
        assert section in out, section
    # At least four sampled series render as sparkline rows.
    assert out.count("| `kernel.") >= 4
    # The blame names the file-mode restart as the cycle's owner.
    assert "Dominant component:" in out
    assert "blcr.restart" in out
    assert "phase:Restart" in out


def test_report_run_dir_keeps_chrome_trace(capsys, tmp_path):
    import json

    from repro.analysis import read_jsonl
    from repro.obs import load_manifest, trace_artifact

    run_cli(capsys, "report", *SMALL, "--source", "node1",
            "--runs-dir", str(tmp_path))
    (run_id,) = _run_ids(capsys, tmp_path)
    trace_json = tmp_path / run_id / "trace.json"
    manifest = load_manifest(run_id, str(tmp_path))
    assert str(trace_json) in manifest.artifacts
    assert trace_artifact(manifest) == str(tmp_path / run_id
                                           / "trace.jsonl.gz")
    rows = list(read_jsonl(trace_artifact(manifest)))
    assert rows and all(r.kind for r in rows)
    events = json.load(open(trace_json))["traceEvents"]
    assert {"X", "C", "M"} <= {e["ph"] for e in events}
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    assert starts, "expected flow start (s) events"
    s_ids = sorted(e["id"] for e in starts)
    assert s_ids == sorted(e["id"] for e in finishes), "unpaired flows"
    assert len(s_ids) == len(set(s_ids)), "duplicate flow ids"
    edges = {e["name"] for e in starts}
    assert {"rdma.pull", "reassembly", "image.ready"} <= edges, edges


def test_report_writes_markdown_html_and_openmetrics(capsys, tmp_path):
    from repro.analysis import parse_openmetrics

    md = tmp_path / "report.md"
    html = tmp_path / "report.html"
    om = tmp_path / "metrics.om"
    out = run_cli(capsys, "report", *SMALL, "--source", "node1",
                  "--runs-dir", str(tmp_path / "runs"),
                  "--out", str(md), "--html", str(html),
                  "--openmetrics", str(om))
    # With --out the report goes to the file, stdout gets only notes.
    assert f"wrote {md}" in out and "## Phase waterfall" not in out
    assert "## Phase waterfall" in md.read_text()
    assert html.read_text().startswith("<!DOCTYPE html>")
    families = parse_openmetrics(om.read_text())
    assert any(name.startswith("telemetry_kernel_") for name in families)
    assert families["pool_pull_bytes_total"][0][1] > 0


def test_report_from_run_rerenders_archived_trace(capsys, tmp_path):
    run_cli(capsys, "report", *SMALL, "--source", "node1",
            "--runs-dir", str(tmp_path))
    (run_id,) = _run_ids(capsys, tmp_path)
    out = run_cli(capsys, "report", "--from-run", run_id,
                  "--runs-dir", str(tmp_path))
    assert f"Run report — {run_id}" in out
    assert "## Phase waterfall" in out
    assert "## Telemetry time-series" in out


def test_report_from_run_rejects_openmetrics(capsys, tmp_path):
    rc = main(["report", "--from-run", "whatever",
               "--runs-dir", str(tmp_path),
               "--openmetrics", str(tmp_path / "x.om")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "needs a live run" in out


def test_report_from_unknown_run_is_one_line_error(capsys, tmp_path):
    rc = main(["report", "--from-run", "no-such-run",
               "--runs-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith("error: 'no-such-run' is neither a trace file")
    assert "Traceback" not in out


@pytest.mark.parametrize("argv,fragment", [
    (["migrate", "--trace-out", "/no/such/dir/t.jsonl"],
     "--trace-out directory does not exist"),
    (["report", "--out", "/no/such/dir/r.md"],
     "--out directory does not exist"),
    (["report", "--html", "/no/such/dir/r.html"],
     "--html directory does not exist"),
    (["report", "--openmetrics", "/no/such/dir/m.om"],
     "--openmetrics directory does not exist"),
    (["bench", "--profile-out", "/no/such/dir/p.pstats"],
     "--profile-out directory does not exist"),
])
def test_unwritable_output_paths_fail_fast_with_exit_2(capsys, argv,
                                                       fragment):
    rc = main(argv + list(SMALL) if argv[0] != "bench" else argv)
    out = capsys.readouterr().out
    assert rc == 2
    assert fragment in out
    assert out.strip().startswith("error:")
    assert "Traceback" not in out


def test_output_path_that_is_a_directory_fails_fast(capsys, tmp_path):
    rc = main(["report", *SMALL, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "path is a directory" in out


def test_bench_out_dir_that_is_a_file_fails_fast(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["bench", "--only", "fig4", "--out-dir", str(blocker)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "path is a file, not a directory" in out


# -- differential trace analysis (repro explain) -----------------------------


def _two_traced_runs(capsys, tmp_path):
    """Record one file-mode and one memory-mode migration with traces."""
    run_cli(capsys, "migrate", *SMALL, "--source", "node1",
            "--restart-mode", "file", "--runs-dir", str(tmp_path),
            "--trace-out", str(tmp_path / "file.jsonl.gz"))
    run_cli(capsys, "migrate", *SMALL, "--source", "node1",
            "--restart-mode", "memory", "--runs-dir", str(tmp_path),
            "--trace-out", str(tmp_path / "mem.jsonl"))
    return _run_ids(capsys, tmp_path)


def test_explain_from_trace_files_mixed_gzip(capsys, tmp_path):
    _two_traced_runs(capsys, tmp_path)
    out = run_cli(capsys, "explain", str(tmp_path / "file.jsonl.gz"),
                  str(tmp_path / "mem.jsonl"))
    assert "## Differential trace analysis" in out
    assert "dominant delta component: blcr.restart" in out
    assert "### Critical-path blame shifts" in out
    assert "`blcr.restart`" in out


def test_explain_from_run_ids(capsys, tmp_path):
    id_a, id_b = _two_traced_runs(capsys, tmp_path)
    out = run_cli(capsys, "explain", id_a, id_b,
                  "--runs-dir", str(tmp_path))
    assert f"run A: `{id_a}`" in out
    assert f"run B: `{id_b}`" in out
    assert "dominant delta component: blcr.restart" in out


def test_explain_writes_out_file(capsys, tmp_path):
    _two_traced_runs(capsys, tmp_path)
    dest = tmp_path / "explain.md"
    out = run_cli(capsys, "explain", str(tmp_path / "file.jsonl.gz"),
                  str(tmp_path / "mem.jsonl"), "--out", str(dest))
    assert f"wrote {dest}" in out
    assert "dominant delta component" in dest.read_text()


def test_explain_unknown_source_is_one_line_error(capsys, tmp_path):
    rc = main(["explain", "nope-a", "nope-b",
               "--runs-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith("error: 'nope-a' is neither a trace file")
    assert "Traceback" not in out


def test_explain_run_without_trace_artifact_errors(capsys, tmp_path):
    run_cli(capsys, "migrate", *SMALL, "--source", "node1",
            "--runs-dir", str(tmp_path))  # no --trace-out
    (run_id,) = _run_ids(capsys, tmp_path)
    rc = main(["explain", run_id, run_id, "--runs-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "no archived trace artifact" in out


def test_runs_diff_appends_trace_explanation(capsys, tmp_path):
    ids = _two_traced_runs(capsys, tmp_path)
    out = run_cli(capsys, "runs", "diff", *ids, "--runs-dir", str(tmp_path))
    assert "restart_mode: file -> memory" in out      # scalar diff intact
    assert "## Differential trace analysis" in out    # plus the explainer
    assert "dominant delta component: blcr.restart" in out


def test_runs_diff_without_traces_skips_explanation(capsys, tmp_path):
    run_cli(capsys, "migrate", *SMALL, "--source", "node1",
            "--restart-mode", "file", "--runs-dir", str(tmp_path))
    run_cli(capsys, "migrate", *SMALL, "--source", "node1",
            "--restart-mode", "memory", "--runs-dir", str(tmp_path))
    ids = _run_ids(capsys, tmp_path)
    out = run_cli(capsys, "runs", "diff", *ids, "--runs-dir", str(tmp_path))
    assert "restart_mode: file -> memory" in out
    assert "Differential trace analysis" not in out


def test_report_archives_gzip_trace_and_from_run_reads_it(capsys, tmp_path):
    run_cli(capsys, "report", *SMALL, "--source", "node1",
            "--runs-dir", str(tmp_path))
    (run_id,) = _run_ids(capsys, tmp_path)
    archived = tmp_path / run_id / "trace.jsonl.gz"
    assert archived.exists()
    assert archived.read_bytes()[:2] == b"\x1f\x8b"
    out = run_cli(capsys, "report", "--from-run", run_id,
                  "--runs-dir", str(tmp_path))
    assert "## Phase waterfall" in out


def test_report_from_run_includes_explain_artifacts(capsys, tmp_path):
    import json

    run_cli(capsys, "report", *SMALL, "--source", "node1",
            "--runs-dir", str(tmp_path))
    (run_id,) = _run_ids(capsys, tmp_path)
    explain = tmp_path / "EXPLAIN_fig4.md"
    explain.write_text("dominant delta component: blcr.restart\n")
    manifest_path = tmp_path / run_id / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["artifacts"].append(str(explain))
    manifest_path.write_text(json.dumps(doc))
    out = run_cli(capsys, "report", "--from-run", run_id,
                  "--runs-dir", str(tmp_path))
    assert "## Regression explanation — fig4" in out
    assert "dominant delta component: blcr.restart" in out


def test_progress_heartbeat_goes_to_stderr(capsys, tmp_path):
    rc = main(["report", *SMALL, "--source", "node1", "--progress",
               "--runs-dir", str(tmp_path),
               "--out", str(tmp_path / "r.md")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "done in" in captured.err
    assert "[report" in captured.err
    # stdout stays clean for the artifact notes.
    assert "done in" not in captured.out
