"""Self-check: re-measure the headline quantities and diff against the paper.

``python -m repro validate`` runs a condensed version of the evaluation
(one LU.C.64 migration, one CR cycle to each storage target, the Table I
byte accounting) and prints a PASS/FAIL row per claim with the tolerance it
was checked at.  Useful after touching any calibrated constant — it answers
"did I break the reproduction?" in about a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .core.protocol import MigrationPhase
from .scenario import Scenario

__all__ = ["Check", "run_validation", "render_validation"]


@dataclass(frozen=True)
class Check:
    """One validated claim."""

    name: str
    measured: float
    expected: float
    rel_tol: float
    unit: str = "s"

    @property
    def passed(self) -> bool:
        lo = self.expected / (1 + self.rel_tol)
        hi = self.expected * (1 + self.rel_tol)
        return lo <= self.measured <= hi

    @property
    def deviation_pct(self) -> float:
        return 100.0 * (self.measured - self.expected) / self.expected


def _measure() -> Tuple:
    mig_sc = Scenario.build(app="LU.C", nprocs=64, iterations=40,
                            with_pvfs=True)
    migration = mig_sc.run_migration("node3", at=5.0)

    cycles = {}
    for dest in ("ext3", "pvfs"):
        sc = Scenario.build(app="LU.C", nprocs=64, iterations=40,
                            with_pvfs=True)
        cycles[dest] = sc.run_cr_cycle(dest, at=5.0)
    return migration, cycles


def run_validation() -> List[Check]:
    """Run the condensed evaluation; returns the checks in report order."""
    migration, cycles = _measure()
    ckpt_e, res_e = cycles["ext3"]
    ckpt_p, res_p = cycles["pvfs"]
    cycle_e = ckpt_e.total_seconds + res_e.restart_seconds
    cycle_p = ckpt_p.total_seconds + res_p.restart_seconds

    return [
        Check("migration total (Fig.4 LU)", migration.total_seconds,
              6.3, rel_tol=0.25),
        Check("phase 2 / RDMA migration",
              migration.phase(MigrationPhase.MIGRATION), 0.4, rel_tol=0.5),
        Check("phase 1 / job stall (<=0.1s band)",
              migration.phase(MigrationPhase.STALL), 0.04, rel_tol=1.5),
        Check("data migrated (Table I LU)", migration.bytes_migrated / 1e6,
              170.4, rel_tol=0.001, unit="MB"),
        Check("CR data dumped (Table I LU)", ckpt_e.bytes_written / 1e6,
              1363.2, rel_tol=0.001, unit="MB"),
        Check("CR(ext3) checkpoint", ckpt_e.checkpoint_seconds,
              6.4, rel_tol=0.30),
        Check("CR(pvfs) checkpoint", ckpt_p.checkpoint_seconds,
              16.3, rel_tol=0.35),
        Check("CR(ext3) full cycle", cycle_e, 12.9, rel_tol=0.30),
        Check("CR(pvfs) full cycle", cycle_p, 28.3, rel_tol=0.30),
        Check("speedup vs CR(pvfs)", cycle_p / migration.total_seconds,
              4.49, rel_tol=0.30, unit="x"),
        Check("speedup vs CR(ext3)", cycle_e / migration.total_seconds,
              2.03, rel_tol=0.30, unit="x"),
    ]


def render_validation(checks: List[Check]) -> str:
    name_w = max(len(c.name) for c in checks)
    out = ["== calibration self-check vs paper (CLUSTER 2010) =="]
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        out.append(
            f"[{mark}] {c.name.ljust(name_w)}  measured {c.measured:9.2f} "
            f"{c.unit:<2} | paper {c.expected:9.2f} {c.unit:<2} | "
            f"dev {c.deviation_pct:+6.1f}% (tol ±{c.rel_tol * 100:.0f}%)")
    n_fail = sum(not c.passed for c in checks)
    out.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(out)
