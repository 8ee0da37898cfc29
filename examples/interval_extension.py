#!/usr/bin/env python3
"""Prolonging checkpoint intervals with proactive migration (Sec. VI).

The paper's closing direction: use the migration framework "to benefit the
existing Checkpoint/Restart strategy by prolonging the interval between
full job-wide checkpoints."  This example quantifies it end to end:

1. measures, in the simulator, the real cost of a full CR(PVFS)
   checkpoint, a restart, and one migration for LU.C.64;
2. computes Young/Daly-optimal checkpoint intervals as failure-prediction
   coverage rises (every predicted failure becomes a cheap migration, so
   the rollback MTBF stretches);
3. Monte-Carlos a week-long job under each policy and reports efficiency.

Run:  python examples/interval_extension.py
"""

import numpy as np

from repro import Scenario
from repro.analysis import (
    daly_interval,
    effective_mtbf,
    render_table,
    simulate_policy,
)

MTBF_HOURS = 6.0
WORK_DAYS = 7.0


def measure_costs():
    print("Measuring per-operation costs on the simulated testbed "
          "(LU.C.64, CR to PVFS)...")
    mig_sc = Scenario.build(app="LU.C", nprocs=64, iterations=40,
                            with_pvfs=True)
    migration = mig_sc.run_migration("node3", at=5.0)

    cr_sc = Scenario.build(app="LU.C", nprocs=64, iterations=40,
                           with_pvfs=True)
    ckpt, restart = cr_sc.run_cr_cycle("pvfs", at=5.0)
    return ckpt.total_seconds, restart.restart_seconds, migration.total_seconds


def main() -> None:
    delta, restart, mig = measure_costs()
    print(f"  checkpoint {delta:.1f} s | restart {restart:.1f} s | "
          f"migration {mig:.1f} s\n")

    mtbf = MTBF_HOURS * 3600.0
    rows = {}
    for cov in (0.0, 0.3, 0.6, 0.9):
        tau = daly_interval(delta, effective_mtbf(mtbf, cov))
        out = simulate_policy(WORK_DAYS * 86400.0, delta, restart, mtbf,
                              cov, mig,
                              policy="cr+migration" if cov else "cr-only",
                              rng=np.random.default_rng(42))
        rows[f"prediction coverage {int(cov * 100):3d}%"] = {
            "Daly interval (min)": tau / 60.0,
            "checkpoints": float(out.n_checkpoints),
            "rollbacks": float(out.n_rollbacks),
            "migrations": float(out.n_migrations),
            "efficiency %": 100 * out.efficiency,
        }
    print(render_table(
        f"Week-long LU.C.64 job, node MTBF {MTBF_HOURS:g} h "
        f"(costs measured above)", rows, unit="mixed", digits=1))
    base = rows["prediction coverage   0%"]["efficiency %"]
    best = rows["prediction coverage  90%"]["efficiency %"]
    saved_hours = (best - base) / 100 * WORK_DAYS * 24
    print(f"\nAt 90% coverage the job checkpoints "
          f"{rows['prediction coverage   0%']['checkpoints'] / rows['prediction coverage  90%']['checkpoints']:.1f}x "
          f"less often and recovers ~{saved_hours:.1f} machine-hours per week.")


if __name__ == "__main__":
    main()
