"""Tests for the Scenario builder and the calibrated parameter tables."""

import pytest

from repro import DEFAULT_TESTBED, MB, NPB_TABLE, Scenario
from repro.params import NPBParams
from repro.params import Testbed as _Testbed  # alias: avoid pytest collection


# ----------------------------------------------------------------- params
def test_npb_table_has_the_three_evaluation_apps():
    assert set(NPB_TABLE) == {"LU.C", "BT.C", "SP.C"}


def test_image_model_matches_table1_exactly():
    # image(n) = resident + app_memory/n, fitted so 64-rank totals are
    # Table I's numbers to the decimal.
    for app, total_mb in (("LU.C", 1363.2), ("BT.C", 2470.4),
                          ("SP.C", 2425.6)):
        params = NPB_TABLE[app]
        assert 64 * params.image_bytes(64) == pytest.approx(total_mb * MB)


def test_testbed_shape_matches_paper():
    tb = DEFAULT_TESTBED
    assert tb.cores_per_node == 8            # two quad-core Xeons
    assert tb.pvfs.n_servers == 4            # four PVFS servers
    assert tb.pvfs.stripe_size == 1 * MB     # 1 MB stripes
    assert tb.migration.buffer_pool_size == 10 * MB
    assert tb.migration.chunk_size == 1 * MB
    assert tb.ib.link_bandwidth > tb.gige.link_bandwidth * 5


def test_params_are_frozen():
    with pytest.raises(Exception):
        DEFAULT_TESTBED.ib.link_bandwidth = 1.0
    with pytest.raises(Exception):
        NPB_TABLE["LU.C"].iterations = 1


# --------------------------------------------------------------- scenario
def test_scenario_build_defaults():
    sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                        iterations=4)
    assert sc.job.nprocs == 8
    assert len(sc.cluster.compute) == 2
    assert sc.framework.transport == "rdma"
    assert sc.cluster.pvfs is None
    # C/R threads were spawned, one per rank.
    assert len(sc.framework._cr_threads) == 8


def test_scenario_run_to_completion():
    sc = Scenario.build(app="LU.C", nprocs=4, n_compute=2, n_spare=0,
                        iterations=3)
    t = sc.run_to_completion()
    assert t == pytest.approx(3 * sc.app.iteration_seconds, rel=0.2)


def test_scenario_with_pvfs():
    sc = Scenario.build(app="LU.C", nprocs=4, n_compute=2, n_spare=0,
                        iterations=2, with_pvfs=True)
    assert sc.cluster.pvfs is not None
    assert sc.cr_strategy("pvfs").destination == "pvfs"


def test_run_cr_cycle_matches_a_hand_written_driver():
    def build():
        return Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                              iterations=40, with_pvfs=True)

    sc = build()
    strategy = sc.cr_strategy("pvfs")

    def drive(sim):
        yield sim.timeout(5.0)
        ckpt = yield from strategy.checkpoint()
        restart = yield from strategy.restart()
        return ckpt, restart

    expected = sc.sim.run(until=sc.sim.spawn(drive(sc.sim)))
    cycled = build()
    assert cycled.run_cr_cycle("pvfs") == expected
    assert expected[0].n_ranks == expected[1].n_ranks == 8
    assert cycled.sim.events_processed == sc.sim.events_processed
    assert cycled.sim.now == sc.sim.now


def test_scenario_deterministic_across_seeds():
    def run(seed):
        sc = Scenario.build(app="LU.C", nprocs=8, n_compute=2, n_spare=1,
                            iterations=6, seed=seed)
        report = sc.run_migration("node1", at=0.5)
        return report.total_seconds

    assert run(7) == run(7)  # identical seeds -> identical timings


def test_scenario_start_app_false():
    sc = Scenario.build(app="LU.C", nprocs=4, n_compute=2, n_spare=0,
                        iterations=2, start_app=False)
    assert all(rk.main_proc is None for rk in sc.job.ranks)
    sc.job.start(sc.app.rank_main)
    sc.sim.run(until=sc.job.completion())
