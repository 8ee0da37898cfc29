"""Determinism: the same seed replays the same trace, byte for byte.

The Fig. 4 migration must replay identically run after run in one
interpreter (the process-global id counters are rewound first, see
:func:`repro.scenario.reset_global_counters`), and attaching the
telemetry probe must not perturb it.  The cluster-scale scenario must
replay its counters and JSONL run to run for every partition count,
including the cross-partition paths: spare requests hopping by mail and
a spare restart landing in a different partition than the failure.
"""

import json

import pytest

from repro.scenario import Scenario, reset_global_counters
from repro.simulate import Tracer


def _trace_jsonl(telemetry=False):
    reset_global_counters()
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=64, n_compute=8, n_spare=1,
                        iterations=40, seed=0, trace=tracer)
    if telemetry:
        from repro.simulate import TelemetryProbe
        sc.sim.attach_probe(TelemetryProbe())
    report = sc.run_migration("node3", at=5.0)
    lines = "\n".join(json.dumps(rec.as_dict(), sort_keys=True)
                      for rec in tracer.records)
    return report.total_seconds, lines


def test_fig4_trace_is_identical_run_to_run():
    """Two back-to-back Fig. 4 LU.C migrations replay the same trace."""
    ref_total, ref_lines = _trace_jsonl()
    total, lines = _trace_jsonl()
    assert total == ref_total
    if lines != ref_lines:
        got = lines.splitlines()
        want = ref_lines.splitlines()
        for i, (a, b) in enumerate(zip(got, want)):
            assert a == b, f"trace diverges at record {i}"
        assert len(got) == len(want)
    assert lines == ref_lines


def test_trace_is_identical_with_telemetry_enabled():
    """The telemetry probe is pure observation: stripping its own records
    recovers the probe-less trace exactly."""
    ref_total, ref_lines = _trace_jsonl()
    total, lines = _trace_jsonl(telemetry=True)
    assert total == ref_total
    kept = "\n".join(line for line in lines.splitlines()
                     if '"kind": "telemetry.sample"' not in line)
    assert kept == ref_lines
    assert len(kept) < len(lines), "probe must actually have sampled"


def _cluster_trace_jsonl(shards):
    """One seeded cluster-scale run -> (results dict, trace JSONL)."""
    from repro.cluster import ClusterScale

    reset_global_counters()
    tracer = Tracer()
    cs = ClusterScale(n_nodes=256, n_jobs=16, shards=shards, seed=0,
                      trace=tracer)
    results = cs.run()
    lines = "\n".join(json.dumps(rec.as_dict(), sort_keys=True)
                      for rec in tracer.records)
    return results, lines


@pytest.mark.parametrize("shards", [1, 4])
def test_cluster_trace_is_stable_across_runs(shards):
    """Back-to-back cluster runs replay identically: same counters, same
    trace bytes."""
    res_a, lines_a = _cluster_trace_jsonl(shards)
    res_b, lines_b = _cluster_trace_jsonl(shards)
    assert res_a == res_b
    assert lines_a == lines_b
    assert res_a["jobs_completed"] == 16
    assert res_a["failures"] > 0
    if shards > 1:
        # The stability claim must cover the cross-partition mail: at
        # least one spare restart granted by a different partition than
        # the one that lost the node.
        assert res_a["remote_restarts"] > 0
        assert res_a["mail_delivered"] > 0


def test_cluster_partition_counts_agree_on_failure_schedule():
    """Partitioning changes where spares come from, not the failures: the
    per-job RNG streams draw identically, so 1- and 4-partition runs see
    the same failures and finish the same jobs."""
    res_1, _ = _cluster_trace_jsonl(1)
    res_4, _ = _cluster_trace_jsonl(4)
    assert res_1["failures"] == res_4["failures"]
    assert res_1["jobs_completed"] == res_4["jobs_completed"] == 16
    assert res_1["checkpoints"] == res_4["checkpoints"]
