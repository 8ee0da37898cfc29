"""Ablation — prolonging job-wide checkpoint intervals (Sec. VI future work).

The paper's closing claim: proactive migration can "benefit the existing
Checkpoint/Restart strategy by prolonging the interval between full
job-wide checkpoints".  This bench quantifies it end to end:

1. measure the real per-operation costs *in the simulator* — one full
   CR(PVFS) checkpoint, one restart, one migration — for LU.C.64;
2. feed them to the Young/Daly renewal model and the Monte-Carlo policy
   simulator from :mod:`repro.analysis.availability`;
3. sweep prediction coverage and report the stretched optimal interval and
   the wall-clock efficiency gain over CR-only.
"""

import numpy as np
import pytest

from repro import Scenario
from repro.analysis import daly_interval, effective_mtbf, render_table, simulate_policy

MTBF_S = 6 * 3600.0          # one node failure every 6 h of job time
WORK_S = 7 * 24 * 3600.0     # a week-long job
COVERAGES = [0.0, 0.3, 0.6, 0.9]


@pytest.fixture(scope="module")
def measured_costs():
    """Per-operation costs from the actual simulated testbed (LU.C.64)."""
    mig_sc = Scenario.build(app="LU.C", nprocs=64, iterations=40,
                            with_pvfs=True)
    migration = mig_sc.run_migration("node3", at=5.0)

    cr_sc = Scenario.build(app="LU.C", nprocs=64, iterations=40,
                           with_pvfs=True)
    ckpt, restart = cr_sc.run_cr_cycle("pvfs", at=5.0)
    return {
        "checkpoint": ckpt.total_seconds,
        "restart": restart.restart_seconds,
        "migration": migration.total_seconds,
    }


def test_bench_interval_extension(benchmark, measured_costs):
    benchmark.pedantic(lambda: measured_costs, rounds=1, iterations=1)

    delta = measured_costs["checkpoint"]
    restart = measured_costs["restart"]
    mig = measured_costs["migration"]
    print(f"\nMeasured costs (LU.C.64, PVFS): checkpoint {delta:.1f} s, "
          f"restart {restart:.1f} s, migration {mig:.1f} s")

    rows = {}
    outcomes = {}
    for cov in COVERAGES:
        tau = daly_interval(delta, effective_mtbf(MTBF_S, cov))
        out = simulate_policy(
            WORK_S, delta, restart, MTBF_S, cov, mig,
            policy="cr+migration" if cov > 0 else "cr-only",
            rng=np.random.default_rng(42))
        outcomes[cov] = out
        rows[f"coverage {int(cov * 100)}%"] = {
            "Daly interval (min)": tau / 60.0,
            "checkpoints": float(out.n_checkpoints),
            "rollbacks": float(out.n_rollbacks),
            "migrations": float(out.n_migrations),
            "efficiency %": 100.0 * out.efficiency,
        }
    print(render_table(
        "Ablation — checkpoint-interval extension via proactive migration "
        "(week-long LU.C.64 job, MTBF 6 h)", rows, unit="mixed", digits=1))

    # The optimal interval stretches monotonically with coverage.
    taus = [daly_interval(delta, effective_mtbf(MTBF_S, c)) for c in COVERAGES]
    assert taus == sorted(taus)
    assert taus[-1] > 2.5 * taus[0]  # 90% coverage: >2.5x longer intervals

    # Efficiency improves and rollbacks collapse at high coverage.
    assert outcomes[0.9].efficiency > outcomes[0.0].efficiency
    assert outcomes[0.9].n_rollbacks < outcomes[0.0].n_rollbacks
    assert outcomes[0.9].n_checkpoints < outcomes[0.0].n_checkpoints
