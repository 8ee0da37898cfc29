"""Drive the bench scenarios under the sanitizer.

One :func:`sanitize_scenario` call replays a named bench workload —
``fig4`` (phase breakdown migrations), ``fig6`` (ranks/node sweep),
``fig7`` (migration vs CR) — with a live :class:`TraceChecker` attached
to the tracer, runs the application to completion, and folds in the
end-of-run :func:`live_checks`.  Each sub-run gets a fresh checker so
per-entity state (rkeys, chunk seqs, span ids) cannot bleed between
independent simulations.

A named fault from :mod:`~repro.sanitize.faults` can be injected into
every sub-run; the checker is attached *first* so it observes records in
true emission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..scenario import Scenario
from ..simulate.trace import Tracer
from .checker import TraceChecker, live_checks
from .faults import make_injector
from .invariants import Violation

__all__ = ["RunResult", "SanitizeResult", "sanitize_scenario",
           "check_jsonl", "SCENARIOS"]


@dataclass
class RunResult:
    """One simulation run under the checker."""

    name: str
    n_records: int
    violations: List[Violation] = field(default_factory=list)


@dataclass
class SanitizeResult:
    """All runs of one scenario."""

    scenario: str
    runs: List[RunResult] = field(default_factory=list)

    @property
    def violations(self) -> List[Violation]:
        return [v for run in self.runs for v in run.violations]

    @property
    def n_records(self) -> int:
        return sum(run.n_records for run in self.runs)

    @property
    def clean(self) -> bool:
        return not self.violations


def _checked_run(name: str, drive: Callable[[Scenario], None],
                 build: Callable[[Tracer], Scenario],
                 fault: Optional[str]) -> RunResult:
    tracer = Tracer()
    checker = TraceChecker()
    checker.attach(tracer)          # before the injector: true record order
    if fault is not None:
        make_injector(fault).attach(tracer)
    sc = build(tracer)
    drive(sc)
    sc.run_to_completion()
    violations = checker.finish()
    violations.extend(live_checks(sc.sim, sc.cluster, sc.backplane))
    return RunResult(name, len(tracer), violations)


def _migration_run(app: str, nprocs: int = 64, source: str = "node3",
                   seed: int = 0, restart_mode: str = "file"):
    def build(tracer: Tracer) -> Scenario:
        return Scenario.build(app=app, nprocs=nprocs, n_compute=8, n_spare=1,
                              iterations=40, seed=seed, trace=tracer,
                              restart_mode=restart_mode)

    def drive(sc: Scenario) -> None:
        sc.run_migration(source, at=5.0)

    return build, drive


def _cr_run(app: str, dest: str, seed: int = 0):
    def build(tracer: Tracer) -> Scenario:
        return Scenario.build(app=app, nprocs=64, n_compute=8, n_spare=1,
                              iterations=40, seed=seed, with_pvfs=True,
                              trace=tracer)

    def drive(sc: Scenario) -> None:
        sc.run_cr_cycle(dest, at=5.0)

    return build, drive


def _fig4_runs(seed: int) -> List[Tuple[str, tuple]]:
    return [(f"fig4/{app}", _migration_run(app, seed=seed))
            for app in ("LU.C", "BT.C", "SP.C")]


def _fig6_runs(seed: int) -> List[Tuple[str, tuple]]:
    return [(f"fig6/ppn{ppn}",
             _migration_run("LU.C", nprocs=8 * ppn, seed=seed))
            for ppn in (1, 2, 4, 8)]


def _fig7_runs(seed: int) -> List[Tuple[str, tuple]]:
    runs: List[Tuple[str, tuple]] = []
    for app in ("LU.C", "BT.C"):
        runs.append((f"fig7/{app}/migration", _migration_run(app, seed=seed)))
        for dest in ("ext3", "pvfs"):
            runs.append((f"fig7/{app}/cr-{dest}", _cr_run(app, dest, seed)))
    return runs


def _pipeline_runs(seed: int) -> List[Tuple[str, tuple]]:
    """File-barrier vs pipelined memory restart on the fig4 workload."""
    return [(f"pipeline/{mode}",
             _migration_run("LU.C", seed=seed, restart_mode=mode))
            for mode in ("file", "memory")]


#: scenario name -> builder of [(run name, (build, drive))].
SCENARIOS: Dict[str, Callable[[int], List[Tuple[str, tuple]]]] = {
    "fig4": _fig4_runs,
    "fig6": _fig6_runs,
    "fig7": _fig7_runs,
    "pipeline": _pipeline_runs,
}


def sanitize_scenario(name: str, seed: int = 0,
                      fault: Optional[str] = None) -> SanitizeResult:
    """Run one named bench scenario under the sanitizer."""
    try:
        runs = SCENARIOS[name](seed)
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    result = SanitizeResult(name)
    for run_name, (build, drive) in runs:
        result.runs.append(_checked_run(run_name, drive, build, fault))
    return result


def check_jsonl(path: str) -> SanitizeResult:
    """Offline replay of an exported ``trace.jsonl`` (no live checks)."""
    from ..analysis import read_jsonl

    tracer = read_jsonl(path)
    violations = TraceChecker.check_trace(tracer)
    result = SanitizeResult(f"jsonl:{path}")
    result.runs.append(RunResult(path, len(tracer), violations))
    return result
