"""Property-based tests for the fluid bandwidth engine (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fluid import FluidNetwork, Link
from repro.simulate import Simulator


@given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e6,
                                allow_nan=False), min_size=1, max_size=15),
       capacity=st.floats(min_value=10.0, max_value=1e5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_conservation_single_link(sizes, capacity):
    """Bytes in == bytes out, and total time >= sum(bytes)/capacity."""
    sim = Simulator()
    net = FluidNetwork(sim)
    link = Link("l", capacity)
    events = [net.transfer([link], s) for s in sizes]
    sim.run(until=sim.all_of(events))
    assert link.bytes_carried == pytest.approx(sum(sizes), rel=1e-6)
    assert sim.now >= sum(sizes) / capacity * (1 - 1e-9)
    assert net.active_flows == 0


@given(n_flows=st.integers(min_value=2, max_value=10),
       capacity=st.floats(min_value=100.0, max_value=1e4, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_equal_flows_finish_together(n_flows, capacity):
    """Max-min fairness: identical flows on one link share equally, so they
    complete at the same instant: n * size / capacity."""
    sim = Simulator()
    net = FluidNetwork(sim)
    link = Link("l", capacity)
    size = 1000.0
    done_times = []
    events = [net.transfer([link], size) for _ in range(n_flows)]

    def waiter(sim, ev):
        yield ev
        done_times.append(sim.now)

    for ev in events:
        sim.spawn(waiter(sim, ev))
    sim.run()
    expected = n_flows * size / capacity
    for t in done_times:
        assert t == pytest.approx(expected, rel=1e-6)


@given(caps=st.lists(st.floats(min_value=10.0, max_value=1000.0,
                               allow_nan=False), min_size=2, max_size=5))
@settings(max_examples=30, deadline=None)
def test_path_bottleneck_is_min_capacity(caps):
    sim = Simulator()
    net = FluidNetwork(sim)
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    done = net.transfer(links, 5000.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(5000.0 / min(caps), rel=1e-6)


def reference_global_rates(flows):
    """The pre-component engine: progressive filling over the *entire*
    population at once.  Ground truth the scoped engine must reproduce."""
    rates = {f: 0.0 for f in flows}
    links = {}
    unfrozen_on = {}
    for f in flows:
        for link in f.path:
            if link not in links:
                links[link] = link.effective_capacity()
                unfrozen_on[link] = 0
            unfrozen_on[link] += 1
    unfrozen = set(flows)
    while unfrozen:
        inc = min(links[l] / unfrozen_on[l] for l in links if unfrozen_on[l] > 0)
        for f in unfrozen:
            rates[f] += inc
        saturated = []
        for l in links:
            n = unfrozen_on[l]
            if n > 0:
                links[l] -= inc * n
                if links[l] <= 1e-9 * l.capacity + 1e-9:
                    saturated.append(l)
        if not saturated:
            break
        frozen = {f for l in saturated for f in l.flows if f in unfrozen}
        unfrozen -= frozen
        for f in frozen:
            for link in f.path:
                unfrozen_on[link] -= 1
    return rates


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_component_scoped_rates_match_global_fill(seed):
    """The max-min allocation decomposes over connected components: for any
    random population, and after every completion, the scoped engine's
    rates must equal a global progressive fill over all flows at once."""
    import numpy as np

    rng = np.random.default_rng(seed)
    sim = Simulator()
    net = FluidNetwork(sim)
    # Three islands of links plus occasional cross-island paths, so the
    # population has both disjoint components and merge-inducing flows.
    islands = [[Link(f"i{k}.l{i}", float(rng.uniform(50, 500)))
                for i in range(3)] for k in range(3)]
    flat = [l for isl in islands for l in isl]
    for _ in range(14):
        if rng.uniform() < 0.8:
            isl = islands[rng.integers(3)]
            idx = sorted(rng.choice(3, size=rng.integers(1, 3), replace=False))
            path = [isl[i] for i in idx]
        else:
            idx = sorted(rng.choice(9, size=2, replace=False))
            path = [flat[i] for i in idx]
        net.transfer(path, float(rng.uniform(100, 10_000)))
    sim.run(until=sim.now)  # settle the same-instant refills
    # Check every settled instant as completions shrink and split the
    # population: each component is connected, and its rates still equal
    # the global fill.
    while net.active_flows:
        for comp in net._components:
            assert len(FluidNetwork._partition(comp)) == 1
        expected = reference_global_rates(net._flows)
        for flow, rate in expected.items():
            assert flow.rate == pytest.approx(rate, rel=1e-9), flow.label
        sim.run(until=sim.peek())
    sim.run()
    assert net.active_components == 0


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_rates_never_exceed_capacity(seed):
    """Snapshot property: mid-simulation, every link's allocated rate sum
    stays within its effective capacity."""
    import numpy as np

    rng = np.random.default_rng(seed)
    sim = Simulator()
    net = FluidNetwork(sim)
    links = [Link(f"l{i}", float(rng.uniform(50, 500))) for i in range(4)]
    for _ in range(12):
        path = [links[i] for i in sorted(
            rng.choice(4, size=rng.integers(1, 4), replace=False))]
        net.transfer(path, float(rng.uniform(100, 10_000)))
    # Inspect the allocation right after setup has settled.
    sim.run(until=sim.now)
    for link in links:
        allocated = sum(f.rate for f in link.flows)
        assert allocated <= link.effective_capacity() * (1 + 1e-9)
    sim.run()
    for link in links:
        assert not link.flows
