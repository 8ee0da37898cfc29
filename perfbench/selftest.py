"""Self-test of the benchmark's span recorder, checks and metric list.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.simulate.core import Simulator  # noqa: E402


class Boom(Exception):
    pass


def _gen_fn(log):
    """A process body exercising send, throw and return."""
    try:
        got = yield "first"
        log.append(("sent", got))
        try:
            yield "second"
        except Boom:
            log.append("caught")
        yield "third"
        return "done"
    finally:
        log.append("finally")


def _wrapped(fn, layer="layer", clock=None):
    clock = clock or spans.LayerClock()
    entry = spans.Entry(layer, "selftest:fn", counter="calls")
    return spans._wrap(fn, entry, clock), clock


class DriveTest(unittest.TestCase):
    def test_send_throw_and_return_pass_through(self):
        log = []
        fn, clock = _wrapped(_gen_fn)
        gen = fn(log)
        self.assertEqual(next(gen), "first")
        self.assertEqual(gen.send(42), "second")
        self.assertEqual(gen.throw(Boom()), "third")
        with self.assertRaises(StopIteration) as stop:
            next(gen)
        self.assertEqual(stop.exception.value, "done")
        self.assertEqual(log, [("sent", 42), "caught", "finally"])
        self.assertEqual(clock.calls["calls"], 1)
        self.assertIn("layer", clock.self_s)

    def test_uncaught_throw_propagates(self):
        log = []
        gen = _wrapped(_gen_fn)[0](log)
        next(gen)
        with self.assertRaises(Boom):
            gen.throw(Boom())
        self.assertEqual(log, ["finally"])

    def test_close_reaches_inner_generator(self):
        log = []
        gen = _wrapped(_gen_fn)[0](log)
        next(gen)
        gen.close()
        self.assertEqual(log, ["finally"])

    def test_yield_from_delegation(self):
        log = []
        fn = _wrapped(_gen_fn)[0]

        def outer():
            result = yield from fn(log)
            return result

        gen = outer()
        next(gen)
        gen.send(1)
        gen.throw(Boom())
        with self.assertRaises(StopIteration) as stop:
            next(gen)
        self.assertEqual(stop.exception.value, "done")

    def test_names_carry_over_to_processes(self):
        def worker(sim):
            yield sim.timeout(1.0)
            return 7

        fn = _wrapped(worker)[0]
        sim = Simulator()
        proc = sim.spawn(fn(sim))
        self.assertEqual(proc.name, "worker")
        self.assertEqual(sim.run(until=proc), 7)
        self.assertEqual(fn.__name__, "worker")
        self.assertEqual(fn(sim).__qualname__, worker.__qualname__)


class ClockTest(unittest.TestCase):
    def test_nested_time_is_subtracted(self):
        clock = spans.LayerClock()

        def busy(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass

        inner = _wrapped(lambda: busy(0.02), "inner", clock)[0]
        outer = _wrapped(lambda: (busy(0.01), inner()), "outer", clock)[0]
        outer()
        self.assertAlmostEqual(clock.self_s["inner"], 0.02, delta=0.005)
        self.assertAlmostEqual(clock.self_s["outer"], 0.01, delta=0.005)

    def test_reset_refuses_open_spans(self):
        clock = spans.LayerClock()
        clock.enter("x")
        with self.assertRaises(RuntimeError):
            clock.reset()


class InstallTest(unittest.TestCase):
    def test_every_entry_point_exists_and_is_restored(self):
        before = {e.target: spans.inspect.getattr_static(*spans._resolve(
            e.target)) for e in spans.ENTRY_POINTS}
        uninstall, missing = spans.install(spans.LayerClock())
        try:
            self.assertEqual(missing, [])
            unwrapped = [t for t, raw in before.items()
                         if spans.inspect.getattr_static(*spans._resolve(t))
                         is raw]
            self.assertEqual(unwrapped, [])
        finally:
            uninstall()
        after = {t: spans.inspect.getattr_static(*spans._resolve(t))
                 for t in before}
        self.assertTrue(all(after[t] is before[t] for t in before))


class _WrongResult(workloads.MigrateTraced):
    """The traced migration with a wrong simulated result injected."""

    def outputs(self, state, result):
        out = super().outputs(state, result)
        out["phases"]["Restart"] += 0.5
        return out


class ChecksTest(unittest.TestCase):
    def test_traced_run_matches_untraced_and_passes(self):
        wl = workloads.WORKLOADS["migrate_lu64_traced"]
        plain = run.run_guarded(wl, 0, 0, traced=False)
        traced = run.run_guarded(wl, 0, 0, traced=True)
        self.assertEqual(plain.problems, [])
        self.assertEqual(traced.problems, [])
        self.assertEqual(plain.outputs, traced.outputs)
        self.assertEqual(traced.layers["blcr.restarts"], 8)
        # A layer the workload enters reads above 0; one it bypasses, 0.
        for name in traced.layers:
            self.assertEqual(traced.layers[name] > 0,
                             not name.startswith(wl.bypasses), name)

    def test_injected_wrong_result_counts_as_failure(self):
        runs = run.measure(_WrongResult(), seed=0, seconds=0, trace=False)
        _, result = run.summarize(_WrongResult(), runs, trace=False)
        self.assertEqual(result["attempted"], run.MIN_REPS)
        self.assertEqual(result["failed"], run.MIN_REPS)
        self.assertFalse(result["correct"])
        problems = runs["plain"][0].problems
        self.assertTrue(any("phases sum" in p for p in problems), problems)
        self.assertTrue(any("fig4 pin" in p for p in problems), problems)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_and_workload_lists_match_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
