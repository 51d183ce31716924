"""Shared fixtures: a pair of directly-linked hosts, a full path, and a
study cache directory of the session's own."""

import pytest

from repro import units
from repro.experiments import runner
from repro.experiments.cache import CACHE_DIR_ENV
from repro.netsim.addressing import IPAddress, Subnet
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.topology import build_path_topology


class HostPair:
    """Two hosts joined by one fast link, with routing set up."""

    def __init__(self, sim, bandwidth_bps=units.mbps(100),
                 propagation_delay=0.001, mtu=None):
        self.sim = sim
        self.left = Host(sim, "left", IPAddress.parse("10.0.0.1"), mtu=mtu)
        self.right = Host(sim, "right", IPAddress.parse("10.0.0.2"), mtu=mtu)
        self.link = Link(sim, self.left, self.right,
                         bandwidth_bps=bandwidth_bps,
                         propagation_delay=propagation_delay)
        self.left.routing.set_default(self.right)
        self.right.routing.set_default(self.left)


@pytest.fixture(scope="session", autouse=True)
def study_cache_dir(tmp_path_factory):
    """Every study the suite stores goes under pytest's temp directory,
    never into the user's ``~/.cache/repro-study/``.  Set in
    ``os.environ`` so CLI subprocesses inherit it; a test that points
    the cache elsewhere with ``monkeypatch.setenv`` still may."""
    directory = tmp_path_factory.mktemp("study-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(directory))
        yield directory


@pytest.fixture
def pool_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, for tests that need
    ``jobs=2`` to fork a real pool: an explicit ``jobs`` is clamped to
    the usable CPUs (``runner.resolve_jobs``)."""
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)


@pytest.fixture
def sim():
    return Simulator(seed=1234)


@pytest.fixture
def host_pair(sim):
    return HostPair(sim)


@pytest.fixture
def path(sim):
    return build_path_topology(sim, hop_count=17, rtt=0.040)
