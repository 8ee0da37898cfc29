"""Tests for the fluid max-min fair bandwidth engine."""

import pytest

from repro.simulate import Simulator
from repro.network.fluid import FluidNetwork, Link, stream_efficiency


def make(sim=None):
    sim = sim or Simulator()
    return sim, FluidNetwork(sim)


def test_single_flow_full_bandwidth():
    sim, net = make()
    link = Link("l", capacity=100.0)
    done = net.transfer([link], 1000.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0, rel=1e-6)


def test_latency_added_after_drain():
    sim, net = make()
    link = Link("l", capacity=100.0)
    done = net.transfer([link], 1000.0, latency=2.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(12.0, rel=1e-6)


def test_zero_byte_transfer_is_latency_only():
    sim, net = make()
    link = Link("l", capacity=100.0)
    done = net.transfer([link], 0.0, latency=0.5)
    sim.run(until=done)
    assert sim.now == pytest.approx(0.5)


def test_two_equal_flows_share_fairly():
    sim, net = make()
    link = Link("l", capacity=100.0)
    d1 = net.transfer([link], 1000.0)
    d2 = net.transfer([link], 1000.0)
    sim.run(until=sim.all_of([d1, d2]))
    # Each gets 50 B/s -> both finish at t=20.
    assert sim.now == pytest.approx(20.0, rel=1e-6)


def test_short_flow_finishes_then_long_flow_speeds_up():
    sim, net = make()
    link = Link("l", capacity=100.0)
    short = net.transfer([link], 500.0)
    long = net.transfer([link], 1500.0)
    t_short = sim.run(until=short) or sim.now
    assert sim.now == pytest.approx(10.0, rel=1e-6)  # 500 at 50 B/s
    sim.run(until=long)
    # long had 1000 left at t=10, then gets full 100 B/s -> +10 s.
    assert sim.now == pytest.approx(20.0, rel=1e-6)


def test_late_joiner_slows_existing_flow():
    sim, net = make()
    link = Link("l", capacity=100.0)
    results = {}

    def starter(sim):
        d1 = net.transfer([link], 1000.0)
        yield d1
        results["first"] = sim.now

    def joiner(sim):
        yield sim.timeout(5.0)
        d2 = net.transfer([link], 1000.0)
        yield d2
        results["second"] = sim.now

    sim.spawn(starter(sim))
    sim.spawn(joiner(sim))
    sim.run()
    # First flow: 500 B in [0,5] at 100 B/s, then 500 B at 50 B/s -> t=15.
    assert results["first"] == pytest.approx(15.0, rel=1e-6)
    # Second: 500 B by t=15, remaining 500 at 100 B/s -> t=20.
    assert results["second"] == pytest.approx(20.0, rel=1e-6)


def test_multi_link_path_bottleneck():
    sim, net = make()
    fast = Link("fast", capacity=1000.0)
    slow = Link("slow", capacity=10.0)
    done = net.transfer([fast, slow], 100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(10.0, rel=1e-6)


def test_max_min_fairness_with_bottleneck_and_free_flow():
    """Two flows share link A; one also crosses tight link B.

    Max-min: flow2 is capped at 10 by B; flow1 then gets the A residual 90.
    """
    sim, net = make()
    a = Link("a", capacity=100.0)
    b = Link("b", capacity=10.0)
    f1 = net.transfer([a], 900.0)
    f2 = net.transfer([a, b], 100.0)
    sim.run(until=sim.all_of([f1, f2]))
    assert sim.now == pytest.approx(10.0, rel=1e-6)  # both finish together here


def test_water_filling_rates_snapshot():
    sim, net = make()
    a = Link("a", capacity=100.0)
    b = Link("b", capacity=10.0)
    net.transfer([a], 1e9)
    net.transfer([a, b], 1e9)
    sim.run(until=sim.now)  # settle: the refill runs before the clock moves
    flows = sorted(net._flows, key=lambda f: len(f.path))
    assert flows[0].rate == pytest.approx(90.0, rel=1e-6)
    assert flows[1].rate == pytest.approx(10.0, rel=1e-6)


def test_disjoint_flows_do_not_interact():
    sim, net = make()
    l1, l2 = Link("l1", 100.0), Link("l2", 100.0)
    d1 = net.transfer([l1], 1000.0)
    d2 = net.transfer([l2], 1000.0)
    sim.run(until=sim.all_of([d1, d2]))
    assert sim.now == pytest.approx(10.0, rel=1e-6)


def test_bytes_accounting_on_links():
    sim, net = make()
    link = Link("l", capacity=100.0)
    d1 = net.transfer([link], 300.0)
    d2 = net.transfer([link], 700.0)
    sim.run(until=sim.all_of([d1, d2]))
    assert link.bytes_carried == pytest.approx(1000.0, rel=1e-6)


def test_efficiency_curve_degrades_capacity():
    sim, net = make()
    # 50% efficiency at 2 streams.
    link = Link("l", capacity=100.0,
                efficiency=stream_efficiency(per_stream=0.5, floor=0.1))
    d1 = net.transfer([link], 500.0)
    d2 = net.transfer([link], 500.0)
    sim.run(until=sim.all_of([d1, d2]))
    # Effective capacity 50 shared by 2 -> 25 B/s each -> 20 s.
    assert sim.now == pytest.approx(20.0, rel=1e-6)


def test_stream_efficiency_floor():
    curve = stream_efficiency(per_stream=0.1, floor=0.4)
    assert curve(1) == 1.0
    assert curve(2) == pytest.approx(0.9)
    assert curve(100) == pytest.approx(0.4)


def test_invalid_inputs():
    sim, net = make()
    link = Link("l", 100.0)
    with pytest.raises(ValueError):
        Link("bad", 0.0)
    with pytest.raises(ValueError):
        net.transfer([link], -1.0)
    with pytest.raises(ValueError):
        net.transfer([], 10.0)


def test_transfer_event_value_is_flow():
    sim, net = make()
    link = Link("l", 100.0)
    done = net.transfer([link], 100.0, label="probe")
    flow = sim.run(until=done)
    assert flow.label == "probe"
    assert flow.remaining == 0.0


def test_many_concurrent_flows_conservation():
    sim, net = make()
    link = Link("l", capacity=123.0)
    sizes = [10.0 * (i + 1) for i in range(20)]
    events = [net.transfer([link], s) for s in sizes]
    sim.run(until=sim.all_of(events))
    assert link.bytes_carried == pytest.approx(sum(sizes), rel=1e-6)
    assert net.active_flows == 0


# -- component scoping ------------------------------------------------------

def test_disjoint_flows_form_separate_components():
    sim, net = make()
    l1, l2 = Link("l1", 100.0), Link("l2", 100.0)
    net.transfer([l1], 1000.0)
    net.transfer([l2], 1000.0)
    assert net.active_components == 2
    sim.run()
    assert net.active_components == 0
    assert l1.component is None and l2.component is None


def test_shared_link_merges_components():
    sim, net = make()
    a, b, shared = Link("a", 100.0), Link("b", 100.0), Link("s", 50.0)
    net.transfer([a], 1000.0)
    net.transfer([b], 1000.0)
    assert net.active_components == 2
    # A third flow bridging both private links fuses everything.
    net.transfer([a, shared, b], 1000.0)
    assert net.active_components == 1
    assert net.stats.merges == 1
    sim.run()
    assert net.active_components == 0


def test_component_splits_when_bridge_flow_finishes():
    sim, net = make()
    a, b = Link("a", 100.0), Link("b", 100.0)
    net.transfer([a], 10_000.0)
    net.transfer([b], 10_000.0)
    bridge = net.transfer([a, b], 10.0)  # finishes almost immediately
    assert net.active_components == 1
    sim.run(until=bridge)  # completion guard has already re-partitioned
    assert net.active_components == 2
    assert net.stats.splits >= 1
    sim.run()


def test_disjoint_recomputes_do_not_visit_other_components():
    """Work scoping: events in one component never walk the other's flows."""
    sim, net = make()
    l1, l2 = Link("l1", 100.0), Link("l2", 100.0)
    for _ in range(8):
        net.transfer([l1], 1000.0)
    sim.run(until=sim.now)
    baseline = net.stats.flows_visited
    net.transfer([l2], 1000.0)
    sim.run(until=sim.now)
    # The new flow's recompute visited exactly itself, not the 8 others.
    assert net.stats.flows_visited == baseline + 1
    assert net.stats.peak_component_size == 8
    sim.run()
    # And every recompute visited fewer flows than a global engine would.
    assert net.stats.flows_visited < net.stats.global_flows_equiv


def test_stats_visits_per_recompute():
    sim, net = make()
    assert net.stats.visits_per_recompute() == 0.0
    link = Link("l", 100.0)
    net.transfer([link], 100.0)
    net.transfer([link], 100.0)
    assert net.stats.recomputes == 0  # nothing filled until the kernel settles
    sim.run(until=sim.now)
    # Two same-instant transfers: one recompute over both flows.
    assert net.stats.recomputes == 1
    assert net.stats.flows_visited == 2
    assert net.stats.visits_per_recompute() == 2.0
    d = net.stats.as_dict()
    assert d["recomputes"] == 1 and d["peak_component_size"] == 2
    sim.run()


def test_idle_link_component_pointer_cleared_when_flows_finish():
    """A link whose flows all completed must not glue later transfers to a
    still-running component it no longer belongs to."""
    sim, net = make()
    a, b = Link("a", 100.0), Link("b", 100.0)
    short = net.transfer([a, b], 10.0)
    net.transfer([b], 100_000.0)
    sim.run(until=short)  # guard fired: a goes idle, b keeps its flow
    assert a.component is None
    net.transfer([a], 1000.0)
    # a's new flow is independent of b's long-running one.
    assert net.active_components == 2
    sim.run()


def test_recompute_trace_records_component_size():
    from repro.simulate.trace import Tracer

    sim = Simulator(trace=Tracer())
    net = FluidNetwork(sim)
    link = Link("l", 100.0)
    net.transfer([link], 100.0)
    net.transfer([link], 100.0)
    sim.run(until=sim.now)
    recs = sim.trace.of_kind("fluid.recompute")
    assert len(recs) == 1
    assert recs[0]["flows"] == 2 and recs[0]["links"] == 1
    sim.run()


# -- utilization ------------------------------------------------------------

def test_utilization_uses_effective_capacity():
    """A seek-thrashed disk at its efficiency floor is *saturated*: the
    allocation equals the degraded capacity, so utilization must read 1.0
    (dividing by raw capacity under-reported it as the floor value)."""
    sim, net = make()
    link = Link("l", capacity=100.0,
                efficiency=stream_efficiency(per_stream=0.3, floor=0.4))
    net.transfer([link], 1000.0)
    net.transfer([link], 1000.0)
    net.transfer([link], 1000.0)
    sim.run(until=sim.now)
    # 3 streams -> effective capacity 40, fully allocated.
    assert sum(f.rate for f in link.flows) == pytest.approx(40.0)
    assert link.utilization == pytest.approx(1.0)
    sim.run()


def test_utilization_without_efficiency_curve():
    sim, net = make()
    link = Link("l", capacity=100.0)
    net.transfer([link], 1000.0)
    sim.run(until=sim.now)
    assert link.utilization == pytest.approx(1.0)
    sim.run()
    assert link.utilization == 0.0


# -- coalesced recompute ----------------------------------------------------

def test_same_instant_transfers_cost_one_fill():
    """64 transfers into one component at one instant: exactly one
    progressive fill, and its rates equal a global fill over all flows."""
    from tests.network.test_network_properties import reference_global_rates

    sim, net = make()
    server = Link("pvfs.disk", 400.0,
                  efficiency=stream_efficiency(per_stream=0.01, floor=0.5))
    hcas = [Link(f"node{i}.hca", 10.0 + i) for i in range(8)]
    for i in range(64):
        net.transfer([hcas[i % 8], server], 1000.0 * (1 + i % 5))
    sim.run(until=sim.now)
    assert net.stats.recomputes == 1
    assert net.stats.flows_visited == 64
    assert net.active_components == 1
    expected = reference_global_rates(net._flows)
    for flow, rate in expected.items():
        assert flow.rate == pytest.approx(rate, rel=1e-9), flow.label
    sim.run()
    assert net.active_flows == 0


def test_run_until_settles_dirty_components_before_returning():
    sim, net = make()
    link = Link("l", 100.0)
    net.transfer([link], 1000.0)
    net.transfer([link], 1000.0)
    sim.timeout(100.0)  # the head lies past ``until``, so run() stops on it
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert net.stats.recomputes == 1
    assert sorted(f.rate for f in link.flows) == [50.0, 50.0]
    # Settled at t=0, so the flows drained at 50 B/s from the start.
    done = net.transfer([link], 1000.0)
    sim.run(until=done)
    assert net.stats.recomputes == 3  # the join at t=3, two finish at t=28.5
    assert sim.now == pytest.approx(30.0, rel=1e-9)


def test_step_settles_dirty_components_before_advancing():
    sim, net = make()
    link = Link("l", 100.0)
    net.transfer([link], 1000.0)
    net.transfer([link], 1000.0)
    sim.timeout(1.0)
    sim.step()  # the refill runs before the clock leaves t=0
    assert sim.now == 1.0
    assert net.stats.recomputes == 1
    assert sorted(f.rate for f in link.flows) == [50.0, 50.0]
    # With only the guard left, step() refills nothing more and pops it.
    sim.step()
    assert sim.now == pytest.approx(20.0, rel=1e-9)
    assert net.stats.recomputes == 1


def test_completion_then_transfer_at_same_instant_cost_one_fill():
    """A flow finishing at t frees bandwidth that a transfer started at t
    takes up: the component is refilled once, not once per change."""
    sim, net = make()
    link = Link("l", 100.0)
    short = net.transfer([link], 500.0)
    net.transfer([link], 5000.0)

    def follow_on(sim):
        yield short
        net.transfer([link], 500.0)

    sim.spawn(follow_on(sim))
    sim.run(until=sim.now)
    assert net.stats.recomputes == 1
    sim.run(until=10.0)  # short finishes at 500 B / 50 B/s
    assert short.processed
    assert net.stats.recomputes == 2
    assert net.stats.flows_visited == 2 + 2
    assert sorted(f.rate for f in link.flows) == [50.0, 50.0]
    sim.run()
    assert net.active_flows == 0
