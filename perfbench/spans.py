"""Outside-in span recorder: host time per layer, from the benchmark's side.

The program under test is not modified.  :func:`install` replaces the
public entry points listed in :data:`ENTRY_POINTS` with timed wrappers and
returns a function that puts the originals back.  Every wrapped call is a
span on one :class:`LayerClock` stack, so a layer's *self* time is the
host time inside its spans minus the time inside spans nested in them.

Generator functions (``MPIRank.send``, ``LocalFS.write``, ...) run as
simulated processes: their body executes in slices between yields, so the
wrapper times each resumption separately rather than the wall interval
from creation to return, which would mostly be simulated waiting.  The
wrapper passes through sent values, thrown-in exceptions, ``close()`` and
the return value, and carries the inner generator's ``__name__`` and
``__qualname__``: the kernel names processes after them.

What no public entry point covers (kernel dispatch, fluid completion
callbacks, and the bodies of private processes such as
``QueuePair._do_rdma``, ``FTBAgent._run``, the NPB rank programs and the
ClusterScale job bodies) is charged to the ``simulate`` layer, whose
entry point is ``Simulator.run``.

Only entry points the planned kernel collapse and solver rewrite keep are
listed; ``ShardedSimulator``, ``EventShard``, the calendar queue and the
vector solver are never wrapped.  An entry point that no longer exists is
skipped and reported by :func:`install`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Entry(NamedTuple):
    """One wrapped entry point.

    ``target`` is ``"module:Owner.attr"`` or ``"module:function"``.
    ``counter`` names the call count this entry adds to; ``collect`` keeps
    the receiver (``self``) so public counters can be read off it after the
    run; ``nbytes_at`` is the positional index (``self`` = 0) of a byte
    count to sum under ``counter`` + ``".bytes"``.
    """

    layer: str
    target: str
    counter: Optional[str] = None
    collect: bool = False
    nbytes_at: Optional[int] = None


def _entries(layer: str, module: str, owner: str, attrs: str,
             **kw: Any) -> List[Entry]:
    prefix = f"{module}:{owner}." if owner else f"{module}:"
    return [Entry(layer, prefix + attr, **kw) for attr in attrs.split()]


ENTRY_POINTS: Tuple[Entry, ...] = (
    # simulate (kernel): one span per run() call; the window loop of a
    # sharded kernel calls run() once per shard per window.
    Entry("simulate", "repro.simulate.core:Simulator.run",
          "simulate.run_calls", collect=True),
    # network.fluid: starting a flow syncs, merges and refills its component.
    Entry("network.fluid", "repro.network.fluid:FluidNetwork.transfer",
          "network.fluid.transfers", collect=True),
    # network.qp: InfiniBand verbs, adapters and fabric.
    *_entries("network.qp", "repro.network.qp", "QueuePair",
              "post_send post_recv post_rdma_read post_rdma_write",
              counter="network.qp.posts"),
    *_entries("network.qp", "repro.network.qp", "QueuePair", "connect destroy"),
    *_entries("network.qp", "repro.network.qp", "CompletionQueue",
              "push poll poll_where"),
    *_entries("network.qp", "repro.network.infiniband", "HCA",
              "register_mr deregister_mr"),
    *_entries("network.qp", "repro.network.infiniband", "IBFabric", "move"),
    # mpi: point-to-point, collectives, channels, the C/R drain protocol.
    Entry("mpi", "repro.mpi.rank:MPIRank.send", "mpi.messages"),
    *_entries("mpi", "repro.mpi.rank", "MPIRank",
              "recv isend irecv compute barrier bcast allreduce reduce gather"),
    *_entries("mpi", "repro.mpi.rank", "CRController",
              "suspend_and_drain reestablish"),
    *_entries("mpi", "repro.mpi.transport", "Channel", "establish send"),
    *_entries("mpi", "repro.mpi.transport", "ChannelManager", "get_channel"),
    # blcr: capture, the copy-on-snapshot of live memory, and restart.
    Entry("blcr", "repro.blcr.checkpoint:CheckpointEngine.checkpoint",
          "blcr.checkpoints"),
    Entry("blcr.snapshot", "repro.blcr.image:CheckpointImage.snapshot"),
    *_entries("blcr", "repro.blcr.image", "CheckpointImage",
              "merge materialize slice"),
    *_entries("blcr", "repro.blcr.restart", "RestartEngine",
              "restart_from_file restart_from_chain restart_from_memory",
              counter="blcr.restarts"),
    *_entries("blcr", "repro.blcr.checkpoint", "FileSink", "write finalize"),
    *_entries("blcr", "repro.blcr.checkpoint", "MemorySink", "write finalize"),
    # storage: local ext3 and PVFS file APIs, page cache, disks.
    *_entries("storage", "repro.storage.filesystem", "LocalFS", "write",
              counter="storage.writes", nbytes_at=2),
    *_entries("storage", "repro.storage.pvfs", "PVFS", "write",
              counter="storage.writes", nbytes_at=2),
    *_entries("storage", "repro.storage.filesystem", "LocalFS", "read",
              counter="storage.reads"),
    *_entries("storage", "repro.storage.pvfs", "PVFS", "read",
              counter="storage.reads"),
    *_entries("storage", "repro.storage.filesystem", "LocalFS",
              "create open fsync close"),
    *_entries("storage", "repro.storage.pvfs", "PVFS",
              "create open fsync close"),
    *_entries("storage", "repro.storage.buffer_cache", "BufferCache",
              "write flush"),
    *_entries("storage", "repro.storage.disk", "Disk",
              "write_stream read_stream sync"),
    # core: the migration framework, buffer manager and the C/R baseline.
    *_entries("core", "repro.core.framework", "JobMigrationFramework",
              "migrate stall_all resume_all"),
    Entry("core", "repro.core.buffer_manager:AggregatingSink.write",
          "core.chunks"),
    *_entries("core", "repro.core.buffer_manager", "AggregatingSink",
              "finalize"),
    *_entries("core", "repro.core.buffer_manager", "RDMAMigrationSession",
              "setup teardown"),
    *_entries("core", "repro.core.checkpoint_restart",
              "CheckpointRestartStrategy", "checkpoint restart"),
    # pipeline: the staged Phase-2/3 data path and its reassembly sinks.
    Entry("pipeline", "repro.pipeline.pipeline:MigrationPipeline.open",
          collect=True),
    *_entries("pipeline", "repro.pipeline.pipeline", "MigrationPipeline",
              "start transfer restart close"),
    *_entries("pipeline", "repro.pipeline.stages", "FileReassemblySink",
              "write finish"),
    *_entries("pipeline", "repro.pipeline.stages", "MemoryReassemblySink",
              "write finish"),
    # ftb: publish, agent hand-off, subscription delivery.
    Entry("ftb", "repro.ftb.agent:Subscription.deliver", "ftb.deliveries"),
    *_entries("ftb", "repro.ftb.agent", "FTBAgent", "submit"),
    *_entries("ftb", "repro.ftb.client", "FTBClient",
              "publish publish_nowait subscribe"),
    # launch: node launch agents and the job manager.
    Entry("launch", "repro.launch.nla:NodeLaunchAgent.restart_one",
          "launch.restarts"),
    *_entries("launch", "repro.launch.nla", "NodeLaunchAgent",
              "launch_processes restart_processes"),
    *_entries("launch", "repro.launch.job_manager", "JobManager",
              "startup pmi_exchange repair_tree"),
    # simulate.trace: the recorder the program writes spans into.
    Entry("trace", "repro.simulate.trace:Tracer.record", "trace.records"),
    *_entries("trace", "repro.simulate.trace", "Tracer",
              "span link current_span"),
    *_entries("trace", "repro.simulate.trace", "Span",
              "__enter__ __exit__ annotate"),
    # analysis: critical-path blame, called through the package namespace.
    *_entries("analysis", "repro.analysis", "",
              "build_span_dag critical_path dominant_component"),
    *_entries("analysis", "repro.analysis.critical_path", "CriticalPath",
              "blame"),
)


class LayerClock:
    """A stack of open spans accumulating self time per layer.

    One instance serves one run; :meth:`reset` clears what was recorded.
    A single stack serves every simulated process: the kernel is single
    threaded and runs one process slice at a time, so spans nest
    strictly.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.seen: Dict[str, Dict[int, Any]] = {}
        self._stack: List[list] = []

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError(f"reset() with {len(self._stack)} open spans")
        self.self_s.clear()
        self.calls.clear()
        self.seen.clear()

    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def leave(self) -> None:
        layer, start, child = self._stack.pop()
        span = perf_counter() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + span - child
        if self._stack:
            self._stack[-1][2] += span

    def count(self, key: str, n: float = 1) -> None:
        self.calls[key] = self.calls.get(key, 0) + n

    def instances(self, target: str) -> List[Any]:
        """Receivers collected by an entry with ``collect=True``."""
        return list(self.seen.get(target, {}).values())


def _drive(gen, layer: str, clock: LayerClock):
    """Run ``gen`` to completion, timing each resumption as one span."""
    enter, leave = clock.enter, clock.leave
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        enter(layer)
        try:
            item = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            leave()
        error = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # re-thrown into gen on the next turn
            value, error = None, exc


def _wrap(fn: Callable, entry: Entry, clock: LayerClock) -> Callable:
    layer, counter, nbytes_at = entry.layer, entry.counter, entry.nbytes_at

    def note(args: tuple, kwargs: dict) -> None:
        if counter is not None:
            clock.count(counter)
            if nbytes_at is not None:
                nbytes = (args[nbytes_at] if len(args) > nbytes_at
                          else kwargs["nbytes"])
                clock.count(counter + ".bytes", nbytes)
        if entry.collect:
            clock.seen.setdefault(entry.target, {})[id(args[0])] = args[0]

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def timed_gen(*args, **kwargs):
            note(args, kwargs)
            gen = fn(*args, **kwargs)
            timed = _drive(gen, layer, clock)
            timed.__name__ = gen.__name__
            timed.__qualname__ = gen.__qualname__
            return timed
        return timed_gen

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        note(args, kwargs)
        clock.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            clock.leave()
    return timed


def _resolve(target: str) -> Tuple[Any, str]:
    module, _, qual = target.partition(":")
    owner: Any = importlib.import_module(module)
    *path, attr = qual.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


def install(clock: LayerClock) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every entry of :data:`ENTRY_POINTS` around ``clock``.

    Returns ``(uninstall, missing)``: calling ``uninstall()`` restores every
    original attribute; ``missing`` lists targets that do not exist.
    """
    restore: List[Tuple[Any, str, Any]] = []
    missing: List[str] = []
    for entry in ENTRY_POINTS:
        try:
            owner, attr = _resolve(entry.target)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            missing.append(entry.target)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(_wrap(raw.__func__, entry, clock))
        else:
            wrapped = _wrap(raw, entry, clock)
        restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)

    return uninstall, missing
