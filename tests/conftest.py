"""Shared fixtures for the GridRM test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.agents.host_model import HostSpec, SimulatedHost
from repro.simnet.clock import VirtualClock
from repro.simnet.network import Network
from repro.testbed import build_site

# Tier-1 must give the same answer on every run: Hypothesis draws the
# same examples each time (derandomize) and keeps no example database,
# so a run neither turns red on a fresh draw nor writes to the tree.
# max_examples and deadline keep their defaults; per-test @settings
# still override them.  A falsifying example found this way is committed
# as an explicit @example next to its property.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def network(clock: VirtualClock) -> Network:
    net = Network(clock, seed=1234)
    net.add_host("gateway", site="default")
    return net


@pytest.fixture
def host(network: Network) -> SimulatedHost:
    """One simulated host named 'n0' in the default site."""
    network.add_host("n0", site="default")
    return SimulatedHost(HostSpec.generate("n0", "default", 42), network.clock)


@pytest.fixture
def hosts(network: Network) -> list[SimulatedHost]:
    """Four simulated hosts n0..n3 in the default site."""
    out = []
    for i in range(4):
        name = f"n{i}"
        if not network.has_host(name):
            network.add_host(name, site="default")
        out.append(SimulatedHost(HostSpec.generate(name, "default", 42), network.clock))
    return out


@pytest.fixture
def site():
    """A complete single site with SNMP + Ganglia agents, warmed up."""
    clock = VirtualClock()
    network = Network(clock, seed=7)
    s = build_site(network, name="site-t", n_hosts=3, agents=("snmp", "ganglia"), seed=7)
    clock.advance(30)
    return s


@pytest.fixture
def full_site():
    """A site running every agent kind, warmed up."""
    clock = VirtualClock()
    network = Network(clock, seed=9)
    s = build_site(
        network,
        name="site-f",
        n_hosts=3,
        agents=("snmp", "ganglia", "nws", "netlogger", "scms", "sql"),
        seed=9,
    )
    clock.advance(60)
    return s
