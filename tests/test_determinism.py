"""Cross-implementation determinism: one scenario, two kernel axes.

The heap and calendar schedulers must produce *byte-identical* traces —
same seed, same JSONL, down to the last bit of every float.  This is the
contract that makes the alternative implementations safe to swap: any
divergence, however small, fails here before it can silently skew a
benchmark.

The second axis is the shard count.  ``shards=1`` is the compatibility
path: ``Scenario.build`` runs the paper testbed on a single
``EventShard`` and must replay the pre-refactor Fig. 4 trace
byte-for-byte (the fig4 matrix below *is* that check — every run goes
through ``ShardedSimulator(shards=1)``).  ``shards>1`` cannot promise
byte-equality *against* the single-shard trace (mailbox crossings pay
the lookahead), so its contract is run-to-run stability: the same
seed replays the same JSONL and the same counters on every run, under
both schedulers, in a scenario that exercises the two
cross-shard paths — FTB alarms bridged between backplanes and a spare
restart landing in a different shard than the failure.
"""

import json
from itertools import count

import pytest

import repro.blcr.image as blcr_image
import repro.cluster.osproc as osproc
import repro.core.buffer_manager as buffer_manager
import repro.ftb.events as ftb_events
import repro.mpi.transport as transport
import repro.network.qp as qp
from repro.scenario import Scenario
from repro.simulate import Tracer


def _reset_global_counters(monkeypatch):
    """Rewind the process-global allocation counters (QP numbers, image
    ids, PIDs, ...) so back-to-back runs in one interpreter label their
    objects identically.  The ids are allocation bookkeeping, not
    simulation state — but they appear in trace fields, so byte-exact
    comparison needs them pinned."""
    monkeypatch.setattr(qp.QueuePair, "_ids", count())
    monkeypatch.setattr(ftb_events, "_seq", count())
    monkeypatch.setattr(blcr_image, "_image_ids", count(start=1))
    monkeypatch.setattr(transport, "_wr_ids", count())
    monkeypatch.setattr(osproc, "_pids", count(start=1000))
    monkeypatch.setattr(buffer_manager, "_chunk_seq", count())


def _trace_jsonl(scheduler, monkeypatch, telemetry=False):
    _reset_global_counters(monkeypatch)
    tracer = Tracer()
    sc = Scenario.build(app="LU.C", nprocs=64, n_compute=8, n_spare=1,
                        iterations=40, seed=0, trace=tracer,
                        scheduler=scheduler)
    if telemetry:
        from repro.simulate import TelemetryProbe
        sc.sim.attach_probe(TelemetryProbe())
    report = sc.run_migration("node3", at=5.0)
    lines = "\n".join(json.dumps(rec.as_dict(), sort_keys=True)
                      for rec in tracer.records)
    return report.total_seconds, lines


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
def test_fig4_trace_is_identical_across_kernel_configs(scheduler,
                                                       monkeypatch):
    """Every scheduler replays the Fig. 4 LU.C migration to the same
    byte-exact trace as the reference config."""
    ref_total, ref_lines = _trace_jsonl("heap", monkeypatch)
    total, lines = _trace_jsonl(scheduler, monkeypatch)
    assert total == ref_total
    if lines != ref_lines:
        got = lines.splitlines()
        want = ref_lines.splitlines()
        for i, (a, b) in enumerate(zip(got, want)):
            assert a == b, f"trace diverges at record {i}"
        assert len(got) == len(want)
    assert lines == ref_lines


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
def test_trace_is_identical_with_telemetry_enabled(scheduler, monkeypatch):
    """The telemetry probe is pure observation: with it attached the
    matrix still replays byte-identically, and stripping its own records
    recovers the probe-less trace exactly."""
    ref_total, ref_lines = _trace_jsonl("heap", monkeypatch)
    total, lines = _trace_jsonl(scheduler, monkeypatch, telemetry=True)
    assert total == ref_total
    kept = "\n".join(line for line in lines.splitlines()
                     if '"kind": "telemetry.sample"' not in line)
    assert kept == ref_lines
    assert len(kept) < len(lines), "probe must actually have sampled"


def _cluster_trace_jsonl(scheduler, shards, monkeypatch):
    """One seeded cluster-scale run -> (results dict, trace JSONL)."""
    from repro.cluster import ClusterScale

    _reset_global_counters(monkeypatch)
    tracer = Tracer()
    cs = ClusterScale(n_nodes=256, n_jobs=16, shards=shards, seed=0,
                      trace=tracer, scheduler=scheduler)
    results = cs.run()
    lines = "\n".join(json.dumps(rec.as_dict(), sort_keys=True)
                      for rec in tracer.records)
    return results, lines


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
@pytest.mark.parametrize("shards", [1, 4])
def test_cluster_trace_is_stable_across_runs(scheduler, shards,
                                             monkeypatch):
    """Back-to-back sharded cluster runs replay identically: same
    counters, same trace bytes — on every cell of the matrix."""
    res_a, lines_a = _cluster_trace_jsonl(scheduler, shards, monkeypatch)
    res_b, lines_b = _cluster_trace_jsonl(scheduler, shards, monkeypatch)
    assert res_a == res_b
    assert lines_a == lines_b
    assert res_a["jobs_completed"] == 16
    assert res_a["failures"] > 0
    if shards > 1:
        # The stability claim must cover the cross-shard machinery:
        # FTB alarms bridged between per-shard backplanes, and at least
        # one spare restart granted by a different shard than the one
        # that lost the node.
        assert res_a["ftb_crossings"] > 0
        assert res_a["remote_restarts"] > 0
        assert res_a["mail_delivered"] > 0


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
def test_cluster_shard_counts_agree_on_failure_schedule(scheduler,
                                                        monkeypatch):
    """Sharding changes event-loop mechanics, not the modelled cluster:
    the per-job RNG streams draw identically, so 1-shard and 4-shard
    runs see the same failures and finish the same jobs."""
    res_1, _ = _cluster_trace_jsonl(scheduler, 1, monkeypatch)
    res_4, _ = _cluster_trace_jsonl(scheduler, 4, monkeypatch)
    assert res_1["failures"] == res_4["failures"]
    assert res_1["jobs_completed"] == res_4["jobs_completed"] == 16
    assert res_1["checkpoints"] == res_4["checkpoints"]
