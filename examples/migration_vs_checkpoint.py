#!/usr/bin/env python3
"""Job Migration vs Checkpoint/Restart — the paper's Figure 7 head-to-head.

For one application (default BT.C x 64), measures the cost of handling a
node failure three ways:

* the proposed RDMA-based Job Migration (move 8 ranks to the spare);
* full-job Checkpoint/Restart to node-local ext3;
* full-job Checkpoint/Restart to shared PVFS (4 servers, 1 MB stripes).

Prints the per-phase stacks and the speedup headline (the paper reports
4.49x for LU.C.64 against CR-to-PVFS).

Run:  python examples/migration_vs_checkpoint.py [APP]   (APP in LU.C BT.C SP.C)
"""

import sys

from repro import Scenario
from repro.analysis import (
    cr_cycle_breakdown,
    migration_cycle_breakdown,
    render_stacked,
    render_table,
    speedup,
)


def run_migration(app: str):
    sc = Scenario.build(app=app, nprocs=64, n_compute=8, n_spare=1,
                        iterations=40)
    return sc.run_migration("node3", at=5.0)


def run_cr(app: str, destination: str):
    sc = Scenario.build(app=app, nprocs=64, n_compute=8, n_spare=1,
                        iterations=40, with_pvfs=True)
    return sc.run_cr_cycle(destination, at=5.0)


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "BT.C"
    print(f"Handling one node failure for {app}.64 on 8 nodes + 1 spare\n")

    mig = run_migration(app)
    ckpt_ext3, res_ext3 = run_cr(app, "ext3")
    ckpt_pvfs, res_pvfs = run_cr(app, "pvfs")

    rows = {
        "Migration": migration_cycle_breakdown(mig),
        "CR(ext3)": cr_cycle_breakdown(ckpt_ext3, res_ext3),
        "CR(PVFS)": cr_cycle_breakdown(ckpt_pvfs, res_pvfs),
    }
    print(render_table(f"Failure handling cost, {app}.64 (cf. Figure 7)", rows))
    print()
    print(render_stacked(f"{app}.64 — stacked phases", {
        k: {kk: vv for kk, vv in v.items() if kk != "Total"}
        for k, v in rows.items()}))

    print(f"\nData moved (cf. Table I): migration "
          f"{mig.bytes_migrated / 1e6:.1f} MB vs CR "
          f"{ckpt_pvfs.bytes_written / 1e6:.1f} MB")
    cr_ext3 = rows["CR(ext3)"]["Total"]
    cr_pvfs = rows["CR(PVFS)"]["Total"]
    print(f"Speedup over CR(ext3): {speedup(cr_ext3, mig.total_seconds):.2f}x")
    print(f"Speedup over CR(PVFS): {speedup(cr_pvfs, mig.total_seconds):.2f}x "
          f"(paper: 4.49x for LU.C.64)")


if __name__ == "__main__":
    main()
