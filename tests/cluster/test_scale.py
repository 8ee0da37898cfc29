"""Cluster-scale scenario: racks, partitions, spares, and the failure loop.

The heavy determinism claims live in ``tests/test_determinism.py``;
here the model itself is checked — jobs finish under failures, the
spare-borrow ring crosses partitions, cross-partition mail arrives one
``inter_rack_latency`` after it is sent, counters stay internally
consistent, and every record a partitioned run emits validates against
the schema.
"""

import pytest

from repro.cluster import ClusterScale
from repro.simulate import Tracer
from repro.simulate.schema import layers_covered, validate_trace


def test_shards_cannot_exceed_racks():
    with pytest.raises(ValueError, match="exceeds the rack count"):
        ClusterScale(n_nodes=64, n_jobs=2, shards=4, nodes_per_rack=32)
    with pytest.raises(ValueError, match="at least one full rack"):
        ClusterScale(n_nodes=16, n_jobs=1, nodes_per_rack=32)


@pytest.mark.parametrize("latency", [0.0, -1e-6])
def test_cross_partition_mail_needs_positive_latency(latency):
    with pytest.raises(ValueError, match="inter_rack_latency"):
        ClusterScale(n_nodes=128, n_jobs=2, shards=2,
                     inter_rack_latency=latency)
    # One partition sends no mail, so the latency is never used.
    ClusterScale(n_nodes=128, n_jobs=2, shards=1,
                 inter_rack_latency=latency)


def test_single_partition_run_completes_all_jobs():
    cs = ClusterScale(n_nodes=128, n_jobs=8, shards=1, seed=0)
    res = cs.run()
    assert res["jobs_completed"] == 8
    assert res["failures"] > 0
    assert res["checkpoints"] > 0
    assert res["makespan"] > 0
    # One partition: no spare request ever leaves it.
    assert res["mail_delivered"] == 0
    assert res["spare_requests"] == 0


def test_partitioned_run_exercises_the_cross_partition_paths():
    cs = ClusterScale(n_nodes=256, n_jobs=16, shards=4, seed=0)
    res = cs.run()
    assert res["jobs_completed"] == 16
    assert res["mail_delivered"] > 0
    # One backplane spans every rack head: the job manager hears every
    # alarm...
    assert res["ftb_alarms_at_jm"] == res["failures"] > 0
    # ...and at least one spare is granted across the ring, with its
    # restart record landing in the granting partition.
    assert res["remote_grants"] > 0
    assert res["remote_restarts"] == res["migrations_remote"] > 0
    # Both recovery styles occurred (a reactive failure that lands a
    # spare counts a rollback *and* a migration, so the counters
    # overlap rather than partitioning the failures).
    assert 0 < res["rollbacks"] <= res["failures"]
    assert res["migrations_local"] + res["migrations_remote"] > 0


def test_run_is_once_only():
    cs = ClusterScale(n_nodes=128, n_jobs=4, shards=1, seed=0)
    cs.run()
    with pytest.raises(RuntimeError, match="already"):
        cs.run()


def test_partitioned_trace_validates_and_covers_its_layers():
    tracer = Tracer()
    cs = ClusterScale(n_nodes=128, n_jobs=8, shards=4, nodes_per_rack=16,
                      seed=0, trace=tracer)
    cs.run()
    assert validate_trace(tracer.records) == []
    covered = layers_covered(tracer.records)
    assert {"cluster", "ftb", "network"} <= covered


def test_mail_arrives_one_inter_rack_latency_after_it_was_sent():
    tracer = Tracer()
    cs = ClusterScale(n_nodes=256, n_jobs=16, shards=4, seed=0,
                      inter_rack_latency=2e-3, trace=tracer)
    res = cs.run()
    mail = tracer.of_kind("cluster.mail")
    assert len(mail) == res["mail_delivered"] > 0
    for rec in mail:
        assert rec.time == rec.get("sent") + 2e-3
        assert rec.get("src") != rec.get("dst")
        assert 0 <= rec.get("dst") < 4
    topics = {rec.get("topic") for rec in mail}
    assert {"spare.request", "spare.grant", "spare.restart"} <= topics


def test_no_spares_still_completes_via_repair_wait():
    # No provisioned spares: early failures must ride out the repair
    # (or be denied by the ring); only repaired nodes ever re-enter the
    # pool.  Jobs still finish.
    cs = ClusterScale(n_nodes=128, n_jobs=4, shards=2, nodes_per_rack=32,
                      spares_per_rack=0, seed=0, repair_time=120.0)
    res = cs.run()
    assert res["jobs_completed"] == 4
    if res["failures"]:
        assert res["spare_denials"] > 0
