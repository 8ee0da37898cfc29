"""Benchmark runner: time one workload end to end, or layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload cr_pvfs_lu64 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

One invocation runs one workload in this (fresh) process, so
``peak_rss_mb`` is that workload's own.  The process re-executes itself
once with ``PYTHONHASHSEED`` fixed: string hashing then lays out the
program's dicts and sets the same way in every run, instead of moving a
run's median by up to 10% at random.  The scenario is built and run
repeatedly until ``--seconds`` is spent (at least ``MIN_REPS`` times);
every run's simulated outputs are checked outside the timed region.

``--trace 0`` reports the end-to-end metrics, with the host times scaled
to a reference host speed (see :func:`host_probe`).  ``--trace 1`` runs
each repetition twice, untraced and with the outside-in span recorder of
``spans.py`` installed (at least ``MIN_PAIRS`` pairs, the order
alternating from pair to pair), checks that both give the same simulated
outputs, and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is the JSON result.
``--workload all`` runs every workload in its own subprocess and prints
its lines, each prefixed with the workload's name.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Optional

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Repetitions run even when ``--seconds`` is already spent.
MIN_REPS = 2
#: Traced/untraced pairs run even when ``--seconds`` is already spent,
#: so that ``bench.span_overhead`` is a median of several pairs.
MIN_PAIRS = 5
#: The string-hash seed every measuring process runs with.
HASH_SEED = "0"
#: Iterations of the host-speed probe's loop (about 3 ms), and how many
#: times it runs between two repetitions.
PROBE_LOOPS = 30_000
PROBE_SAMPLES = 5
#: The probe's time on the reference host: ``wall_s`` and ``setup_s``
#: are host seconds scaled to a host on which the probe takes this long.
PROBE_REF_MS = 2.5
#: How much the program's time moves with the probe's, on a log scale:
#: the tight probe loop slows down more than the program when the host
#: is contended.  Fitted over seven sets of runs, the elasticity of a
#: run's median to its probe ranged 0.4-1.2, with a median of 0.64.
PROBE_ELASTICITY = 0.6

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("simulate.events", "count"), ("simulate.cancelled", "count"),
    ("simulate.run_calls", "count"), ("simulate.self_s", "s"),
    ("simulate.us_per_event", "us"),
    ("network.fluid.transfers", "count"), ("network.fluid.recomputes", "count"),
    ("network.fluid.flows_visited", "count"),
    ("network.fluid.recomputes_per_transfer", "ratio"),
    ("network.fluid.peak_component", "count"), ("network.fluid.self_s", "s"),
    ("network.qp.posts", "count"), ("network.qp.self_s", "s"),
    ("mpi.messages", "count"), ("mpi.self_s", "s"),
    ("blcr.checkpoints", "count"), ("blcr.restarts", "count"),
    ("blcr.self_s", "s"), ("blcr.snapshot_s", "s"),
    ("storage.writes", "count"), ("storage.reads", "count"),
    ("storage.bytes_written", "bytes"), ("storage.self_s", "s"),
    ("core.chunks", "count"), ("core.self_s", "s"),
    ("pipeline.chunks_pulled", "count"), ("pipeline.self_s", "s"),
    ("ftb.deliveries", "count"), ("ftb.self_s", "s"),
    ("launch.restarts", "count"), ("launch.self_s", "s"),
    ("cluster.failures", "count"), ("cluster.migrations", "count"),
    ("trace.records", "count"), ("trace.self_s", "s"),
    ("analysis.critical_path_s", "s"),
    ("mem.live_segment_mb", "MB"), ("mem.rss_per_live", "ratio"),
    ("bench.span_overhead", "ratio"),
)

#: Host times vary run to run: report their median over the traced runs.
#: Counts repeat exactly: report the first traced run's.
_TIMED_UNITS = ("s", "us")


class Sample(NamedTuple):
    """One scenario run: timings, simulated outputs, failed checks."""

    setup_s: Optional[List[float]]
    wall_s: Optional[float]
    outputs: Optional[Dict[str, Any]]
    problems: List[str]
    layers: Optional[Dict[str, float]]


def machine() -> Dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    page = os.sysconf("SC_PAGE_SIZE")
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0],
            "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * page / 2**20),
            "mem_free_mb": round(os.sysconf("SC_AVPHYS_PAGES") * page / 2**20)}


def host_probe() -> float:
    """Milliseconds a fixed loop takes: the host's speed at the moment.

    The probe runs ``PROBE_SAMPLES`` times before the first scenario run
    and after each one, and the median of each batch is kept.  On a
    shared host the speed of the program and of the probe drift together
    (by up to 30% between runs minutes apart), so each scenario run's
    times are scaled by ``PROBE_REF_MS`` over the mean of the two batches
    around it, raised to ``PROBE_ELASTICITY``.  The probe does not touch
    the program, so a change to the program moves the scaled times as
    much as the raw ones.
    """
    t0 = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return 1e3 * (perf_counter() - t0)


def _probe_batch() -> float:
    return statistics.median(host_probe() for _ in range(PROBE_SAMPLES))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(clock, counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (``bench.*`` and
    ``mem.rss_per_live`` are filled in over the whole process later)."""
    calls, self_s = clock.calls, clock.self_s
    sims = clock.instances("repro.simulate.core:Simulator.run")
    nets = clock.instances("repro.network.fluid:FluidNetwork.transfer")
    pipes = clock.instances("repro.pipeline.pipeline:MigrationPipeline.open")
    events = sum(s.events_processed for s in sims)
    transfers = calls.get("network.fluid.transfers", 0)
    recomputes = sum(n.stats.recomputes for n in nets)
    kernel_s = self_s.get("simulate", 0.0)
    out = {
        "simulate.events": events,
        "simulate.cancelled": sum(s.events_cancelled for s in sims),
        "simulate.self_s": kernel_s,
        "simulate.us_per_event": 1e6 * kernel_s / events if events else 0.0,
        "network.fluid.recomputes": recomputes,
        "network.fluid.flows_visited": sum(n.stats.flows_visited
                                           for n in nets),
        "network.fluid.recomputes_per_transfer": (
            recomputes / transfers if transfers else 0.0),
        "network.fluid.peak_component": max(
            (n.stats.peak_component_size for n in nets), default=0),
        "blcr.self_s": self_s.get("blcr", 0.0) + self_s.get("blcr.snapshot",
                                                            0.0),
        "blcr.snapshot_s": self_s.get("blcr.snapshot", 0.0),
        "storage.bytes_written": calls.get("storage.writes.bytes", 0),
        "pipeline.chunks_pulled": sum(p.chunks_pulled for p in pipes),
        "analysis.critical_path_s": self_s.get("analysis", 0.0),
    }
    for name, unit in PER_LAYER:
        if name in out or name in counts or name.startswith("bench."):
            continue
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            out[name] = calls.get(name, 0)
    out.update(counts)
    return out


def run_once(wl, seed: int, rep: int, traced: bool) -> Sample:
    """Build, prepare, run and check one scenario; raises on errors."""
    inputs = wl.inputs(seed, rep)
    clock = spans.LayerClock() if traced else None
    uninstall = None
    if clock is not None:
        uninstall, missing = spans.install(clock)
        for target in missing:
            print(f"perfbench: entry point {target} not found, not timed",
                  file=sys.stderr)
    try:
        # Builds before the last are only timed; the last one runs.
        setups = []
        for _ in range(wl.builds_per_rep):
            t0 = perf_counter()
            state = wl.build(inputs)
            setups.append(perf_counter() - t0)
        wl.prepare(state)
        # Every run starts from the same collector state, with the
        # discarded builds freed.
        gc.collect()
        if clock is not None:
            clock.reset()
        t2 = perf_counter()
        result = wl.run(state)
        t3 = perf_counter()
    finally:
        if uninstall is not None:
            uninstall()
    outputs = wl.outputs(state, result)
    problems = wl.check(state, outputs)
    layers = None
    if clock is not None:
        layers = layer_metrics(clock, wl.layer_counts(state, outputs))
    return Sample(setups, t3 - t2, outputs, problems, layers)


def run_guarded(wl, seed: int, rep: int, traced: bool) -> Sample:
    try:
        sample = run_once(wl, seed, rep, traced)
    except Exception as exc:  # a raising scenario is a failed run
        sample = Sample(None, None, None, [f"{type(exc).__name__}: {exc}"],
                        None)
    # A finished scenario is only freed by the cycle collector; collect
    # before the next build so runs do not stack their memory.
    gc.collect()
    return sample


def measure(wl, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    start = perf_counter()
    plain: List[Sample] = []
    traced: List[Sample] = []
    # The host's speed around each run, relative to the reference.
    speed: Dict[bool, List[float]] = {False: [], True: []}
    rep_times: List[float] = []
    probes = [_probe_batch()]

    def timed_run(rep: int, is_traced: bool) -> Sample:
        sample = run_guarded(wl, seed, rep, traced=is_traced)
        probes.append(_probe_batch())
        speed[is_traced].append((2 * PROBE_REF_MS / sum(probes[-2:]))
                                ** PROBE_ELASTICITY)
        return sample

    min_reps = MIN_PAIRS if trace else MIN_REPS
    rep = 0
    while True:
        t_rep = perf_counter()
        if trace:
            # Alternate which run of a pair goes first, so that a drift
            # of the host's speed does not bias the pairs' ratios.
            traced_first = rep % 2 == 1
            if traced_first:
                sample = timed_run(rep, True)
            plain.append(timed_run(rep, False))
            if not traced_first:
                sample = timed_run(rep, True)
            if (sample.outputs is not None and plain[-1].outputs is not None
                    and sample.outputs != plain[-1].outputs):
                sample.problems.append("traced outputs differ from untraced")
            traced.append(sample)
        else:
            plain.append(timed_run(rep, False))
        for sample in (plain[-1], *traced[-1:]):
            for problem in sample.problems:
                print(f"perfbench: {wl.name} rep {rep}: {problem}",
                      file=sys.stderr)
        rep += 1
        rep_times.append(perf_counter() - t_rep)
        elapsed = perf_counter() - start
        if rep >= min_reps and elapsed + statistics.median(rep_times) > seconds:
            break
    return {"plain": plain, "traced": traced, "inputs": wl.inputs(seed, 0),
            "probe_ms": statistics.median(probes), "speed": speed}


def _median(values: List[float]) -> float:
    if not values:
        raise RuntimeError("every run raised; nothing to take a median of")
    return statistics.median(values)


def summarize(wl, runs: Dict[str, Any], trace: bool):
    """Return (human-readable lines, result dict)."""
    plain: List[Sample] = runs["plain"]
    traced: List[Sample] = runs["traced"]
    samples = plain + traced
    attempted = len(samples)
    failed = sum(1 for s in samples if s.problems)
    lines = [f"inputs        {json.dumps(runs['inputs'])}"]
    # Runs that failed a check still timed their work; runs that raised
    # did not.
    ok = [(s, f) for s, f in zip(plain, runs["speed"][False])
          if s.wall_s is not None]
    raw_walls = [s.wall_s for s, _ in ok]
    walls = [s.wall_s * f for s, f in ok]
    # The process's first build pays one-off lazy initialisation; it is
    # excluded from setup_s when a later build exists.
    setups = [(t, t * f) for s, f in ok for t in s.setup_s]
    setups = setups[1:] if len(setups) > 1 else setups
    raw_setups = [raw for raw, _ in setups]
    setups = [scaled for _, scaled in setups]
    rss = peak_rss_mb()
    if not trace:
        values = {"wall_s": _median(walls), "setup_s": _median(setups),
                  "peak_rss_mb": rss}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        lines += [
            f"wall_s        {values['wall_s']:.4f} s  median of "
            f"{len(walls)} runs at the reference host speed (as measured: "
            f"{statistics.median(raw_walls):.4f} s); run only, checks "
            f"excluded",
            f"setup_s       {values['setup_s']:.4f} s  median of "
            f"{len(setups)} builds at the reference host speed (as "
            f"measured: {statistics.median(raw_setups):.4f} s); the "
            f"process's first build excluded",
            f"peak_rss_mb   {rss:.1f} MB  high-water RSS of this process"]
    else:
        speed = runs["speed"]
        pairs = zip(plain, traced, speed[False], speed[True])
        good = [(p, t, p.wall_s * fp, t.wall_s * ft) for p, t, fp, ft in pairs
                if p.wall_s is not None and t.wall_s is not None]
        if not good:
            raise RuntimeError("every traced run raised")
        first = good[0][1].layers
        values = {}
        for name, unit in PER_LAYER:
            if name in first:
                values[name] = (_median([t.layers[name] for _, t, *_ in good])
                                if unit in _TIMED_UNITS else first[name])
        live = values["mem.live_segment_mb"]
        values["mem.rss_per_live"] = rss / live if live else 0.0
        # Each run of a pair is scaled by the probes around it, so that
        # the host's drift between the two runs cancels.
        values["bench.span_overhead"] = _median(
            [traced_s / plain_s for _, _, plain_s, traced_s in good]) - 1
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        traced_wall = _median([t.wall_s for _, t, *_ in good])
        lines.append(f"traced runs   {len(good)} paired with untraced runs "
                     f"of the same inputs; counts from the first, times "
                     f"are medians; traced wall {traced_wall:.4f} s")
        for name, unit in PER_LAYER:
            if name.startswith(wl.bypasses):
                share = "  (layer not entered by this workload)"
            elif unit == "s":
                share = f"  {values[name] / traced_wall:6.1%} of traced wall"
            else:
                share = ""
            lines.append(f"{name:40s} {values[name]:<12.6g} {unit}{share}")
        # blcr.snapshot_s is part of blcr.self_s.
        layers_s = sum(values[name] for name, unit in PER_LAYER
                       if unit == "s" and name != "blcr.snapshot_s")
        lines.append(f"{'outside every span':40s} "
                     f"{traced_wall - layers_s:<12.6g} s  "
                     f"{1 - layers_s / traced_wall:6.1%} of traced wall")
    lines.append(f"failed_frac   {failed / attempted:.4g}  ({failed} of "
                 f"{attempted} runs raised or failed a check)")
    heads = [wl.headline(s.outputs) for s in samples if s.outputs]
    if wl.paper is not None and heads:
        label, paper = wl.paper
        sim = heads[0]
        lines.append(f"paper_rel_err {abs(sim / paper - 1):.4f}  simulated "
                     f"{sim:.6f} vs paper {paper} ({label})")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def run_all(args) -> int:
    """Run every workload in its own process; print one line each."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        for line in out[:-1]:
            print(f"{name}: {line}")
        if not json.loads(out[-1])["correct"]:
            status = 1
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    runs = measure(wl, args.seed, args.seconds, bool(args.trace))
    lines, result = summarize(wl, runs, bool(args.trace))
    print(f"perfbench     {wl.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"machine       {json.dumps(machine())}")
    print(f"host probe    {runs['probe_ms']:.3f} ms  median of a fixed loop "
          f"timed between repetitions ({PROBE_REF_MS:g} ms on the reference "
          f"host)")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
