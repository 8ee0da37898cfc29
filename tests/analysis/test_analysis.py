"""Tests for metric extraction and report rendering."""

import pytest

from repro.analysis import (
    cr_cycle_breakdown,
    data_movement,
    fmt_seconds,
    migration_cycle_breakdown,
    migration_phase_breakdown,
    render_stacked,
    render_table,
    speedup,
)
from repro.core.protocol import (
    CheckpointReport,
    MigrationPhase,
    MigrationReport,
    RestartReport,
)


def sample_migration():
    report = MigrationReport(source="node3", target="spare0", reason="user",
                             transport="rdma", restart_mode="file",
                             started_at=5.0, ranks_migrated=[24, 25])
    report.phase_seconds = {
        MigrationPhase.STALL: 0.03,
        MigrationPhase.MIGRATION: 0.4,
        MigrationPhase.RESTART: 4.4,
        MigrationPhase.RESUME: 1.3,
    }
    report.bytes_migrated = 170.4e6
    return report


def test_phase_breakdown_row():
    row = migration_phase_breakdown(sample_migration())
    assert row["Job Stall"] == 0.03
    assert row["Total"] == pytest.approx(6.13)


def test_migration_cycle_breakdown_uses_shared_labels():
    row = migration_cycle_breakdown(sample_migration())
    assert row["Checkpoint(Migration)"] == 0.4
    assert row["Restart"] == 4.4
    assert row["Total"] == pytest.approx(6.13)


def test_cr_cycle_breakdown():
    ckpt = CheckpointReport(destination="pvfs", started_at=0.0,
                            stall_seconds=0.03, checkpoint_seconds=16.3,
                            resume_seconds=1.3, bytes_written=1363.2e6)
    res = RestartReport(destination="pvfs", restart_seconds=10.2)
    row = cr_cycle_breakdown(ckpt, res)
    assert row["Total"] == pytest.approx(27.83)
    row_no_restart = cr_cycle_breakdown(ckpt, None)
    assert row_no_restart["Restart"] == 0.0


def test_speedup():
    assert speedup(28.3, 6.3) == pytest.approx(4.49, rel=0.01)
    with pytest.raises(ValueError):
        speedup(1.0, 0.0)


def test_data_movement():
    ckpt = CheckpointReport(destination="ext3", started_at=0,
                            bytes_written=1363.2e6)
    out = data_movement(sample_migration(), ckpt)
    assert out["Job Migration (MB)"] == pytest.approx(170.4)
    assert out["CR (MB)"] == pytest.approx(1363.2)


def test_fmt_seconds():
    assert fmt_seconds(0.05) == "50 ms"
    assert fmt_seconds(6.3) == "6.30 s"


def test_render_table_alignment_and_missing_cells():
    out = render_table("T", {"a": {"x": 1.0, "y": 2.0}, "b": {"x": 3.0}})
    lines = out.splitlines()
    assert lines[0].startswith("== T")
    assert "x" in lines[1] and "y" in lines[1]
    assert "-" in lines[-1]  # missing cell placeholder
    assert render_table("empty", {}).endswith("(no data)")


def test_render_stacked_bars_scale():
    out = render_stacked("S", {
        "small": {"p": 1.0},
        "big": {"p": 4.0},
    }, width=40)
    lines = out.splitlines()
    small_bar = lines[1].split("|")[1]
    big_bar = lines[2].split("|")[1]
    assert big_bar.count("#") > 3 * small_bar.count("#")
    assert "legend:" in lines[-1]
    assert render_stacked("empty", {}).endswith("(no data)")


def test_migration_report_repr_and_phase_access():
    r = sample_migration()
    assert "node3->spare0" in repr(r)
    assert r.phase(MigrationPhase.RESUME) == 1.3
    assert r.phase(MigrationPhase.STALL) == 0.03


def test_fluid_engine_stats_surface():
    from repro.analysis import fluid_engine_stats
    from repro.network.fluid import FluidNetwork, Link
    from repro.simulate import Simulator

    sim = Simulator()
    net = FluidNetwork(sim)
    l1, l2 = Link("l1", 100.0), Link("l2", 100.0)
    net.transfer([l1], 500.0)
    net.transfer([l2], 500.0)
    sim.run(until=sim.now)
    row = fluid_engine_stats(net)
    assert row["recomputes"] == 2
    assert row["flows_visited"] == 2  # scoped: each recompute saw 1 flow
    assert row["active_flows"] == 2.0
    assert row["active_components"] == 2.0
    assert row["peak_component_size"] == 1
    sim.run()
    row = fluid_engine_stats(net)
    assert row["active_flows"] == 0.0
    assert row["visits_per_recompute"] <= 1.0
