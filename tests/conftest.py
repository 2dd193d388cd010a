"""Shared fixture builders for the test suite.

All helpers build tiny deterministic networks in SI units. Speeds are chosen
so free-flow times come out as round numbers of whole simulation steps.
"""
from __future__ import annotations

import gc
from itertools import groupby
from typing import NamedTuple

import pytest

from tollsim.loading import VehicleRuns
from tollsim.network import Clock, Link, Network, Node, Path


class Plan(NamedTuple):
    """One vehicle: its class, path, departure interval and departure time."""
    vehicle_class: int
    path: Path
    interval: int
    departure_time: float


def runs_of_one(plans) -> VehicleRuns:
    """The loader's input for vehicles given one by one: each plan a run of
    one, which departs at exactly its `departure_time`, fractional or not."""
    return VehicleRuns([(*plan, 1) for plan in plans])


def spec_plans(runs: VehicleRuns, interval_s: int) -> list:
    """The vehicles of `runs` as plans, run by run, by the stated rule: the
    j-th of a run `(vehicle_class, path, interval, start, n)` departs at
    `start + (j * interval_s) // n` seconds."""
    return [Plan(cls, path, tau, float(start + (j * interval_s) // n))
            for cls, path, tau, start, n in runs.runs for j in range(n)]


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


def queue_runs(flags) -> list:
    """Per-step standing-queue flags as a loading keeps them: the maximal
    runs of flagged steps, a flat list `[start, end, start, end, ...]` of
    step bounds in step order. Equal runs mean equal flags at every step."""
    runs, step = [], 0
    for flag, steps in groupby(flags):
        n = len(list(steps))
        if flag:
            runs += (step, step + n)
        step += n
    return runs


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
