"""Shared fixture builders for the test suite.

All helpers build tiny deterministic networks in SI units. Speeds are chosen
so free-flow times come out as round numbers of whole simulation steps.
"""
from __future__ import annotations

import gc

import pytest

from tollsim.network import Clock, Link, Network, Node


def line_network(length=1000.0, lanes=1, speed=20.0, in_zone=False):
    """A -> B single-link network."""
    return Network(
        [Node("A", is_centroid=True), Node("B", is_centroid=True)],
        [Link("AB", "A", "B", length, lanes, speed, in_pricing_zone=in_zone)],
    )


def two_link_network(l1=1000.0, l2=1000.0, speed=20.0, zone=()):
    """A -> M -> B chain of two links."""
    return Network(
        [Node("A", is_centroid=True), Node("M"), Node("B", is_centroid=True)],
        [Link("AM", "A", "M", l1, 1, speed, in_pricing_zone="AM" in zone),
         Link("MB", "M", "B", l2, 1, speed, in_pricing_zone="MB" in zone)],
    )


def parallel_network(short_len=5000.0, long_len=7000.0, speed=50.0 / 3.0,
                     short_lanes=1, long_lanes=2, zone_short=False):
    """Two parallel routes O -> D: a short link S and a long link L."""
    return Network(
        [Node("O", is_centroid=True), Node("D", is_centroid=True)],
        [Link("S", "O", "D", short_len, short_lanes, speed,
              in_pricing_zone=zone_short),
         Link("L", "O", "D", long_len, long_lanes, speed)],
    )


def links_from(network, node):
    """The links leaving `node`, in id order, read from the search index."""
    return [network.link_order[i]
            for i, _ in network.out_adj[network.node_index[node]]]


@pytest.fixture
def clock_20min():
    return Clock(step_s=1, interval_s=300, horizon_s=1200)


@pytest.fixture
def clock_1h():
    return Clock(step_s=1, interval_s=300, horizon_s=3600)


@pytest.fixture
def refcount_only():
    """Cyclic garbage collection off for the test, so an object is freed
    only once nothing refers to it: a weak reference then dies exactly when
    the code drops its last reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
