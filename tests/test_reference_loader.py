"""A reference loader: the rules of `load_vehicles` stated once, naively,
and checked against it to the bit.

`reference_load` expands each run to its vehicles by the stated rule, the
j-th of n departing `start + (j * interval_s) // n` seconds after second
`start`, and walks every step of the clock. At each interval start it
re-blends every link's FD from the mix that entered the link during the last
interval. It then visits every link queue in id order, then every origin's
queue in origin order, and moves head vehicles while they are ready, the
queue's server is free and the next link admits them. A link's receiving
credit is refreshed at a step's first attempt to enter it: the credit left
is carried up to one vehicle, `rate * dt` at the current vehicle count is
added per step since the last refresh, and the credit is capped at
`1 + rate * dt`; an untouched link holds one vehicle of credit. A link ends
a step with a standing queue if it holds a vehicle and either its server is
busy past the step or its head is ready; the loading reports those flags as
runs of steps. Link statistics are replayed from the vehicle trajectories.
There is no calendar, no rate memo and no shared idle state, so the
production loader's shortcuts are checked by a loop that has none of them.
"""
import math
from collections import Counter, deque
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from tollsim import equilibrium
from tollsim.demand import SO, UE, split_demand
from tollsim.equilibrium import SolverConfig, solve_mixed_equilibrium
from tollsim.fd import blended_reaction_time, lane_capacity
from tollsim.loading import (GridlockError, LinkIntervalState, LoadingResult,
                             VehicleRecord, discretize_assignments, load_vehicles)
from tollsim.network import Clock
from tollsim.nguyen import build_nguyen

from conftest import Plan, queue_runs, runs_of_one, spec_plans
from test_golden import (grid_merge_plans, long_feeder_network, long_feeder_plans,
                         merge_bottleneck_network, shared_origin_network,
                         shared_origin_plans, spillback_plans, two_lane_merge_network,
                         two_lane_merge_plans, uniform_grid)
from test_loader_properties import (NET, PATHS, fractional_plan_lists, on_both_steps,
                                    replayed_statistics)

_EPS = 1e-9


class _Queue:
    """A link's vehicles (or an origin's, with `link` None) in FIFO order,
    its server, its receiving credit and its FD blend per interval."""

    def __init__(self, link=None, step_s=1):
        self.link = link
        self.vehicles = deque()
        self.next_free = -math.inf      # an origin has no server
        self.credit, self.credit_step = 1.0, -1
        self.enter_hv = self.enter_cav = 0
        self.cav, self.reaction, self.headway = [], [], None
        if link is not None:
            self.ff_steps = max(1, math.ceil(link.free_flow_time / step_s - _EPS))

    def reblend(self, tau):
        entered = self.enter_hv + self.enter_cav
        if tau == 0:
            frac = 0.0
        else:
            frac = self.enter_cav / entered if entered else self.cav[-1]
        a = self.link
        reaction = blended_reaction_time(frac) * a.reaction_time_factor
        self.cav.append(frac)
        self.reaction.append(reaction)
        self.headway = 1.0 / (lane_capacity(a.speed_limit, a.effective_vehicle_length,
                                            reaction) * a.lanes)
        self.enter_hv = self.enter_cav = 0

    def admits(self, step, dt):
        """Refresh the credit at the step's first attempt; whether one more
        vehicle may enter."""
        a, n = self.link, len(self.vehicles)
        if self.credit_step != step:
            rate = (1.0 - a.effective_vehicle_length * (n / (a.lanes * a.length))) \
                / self.reaction[-1]
            rate_dt = (rate if rate > 0.0 else 0.0) * a.lanes * dt
            self.credit = min(min(self.credit, 1.0) + rate_dt * (step - self.credit_step),
                              1.0 + rate_dt)
            self.credit_step = step
        return self.credit >= 1.0 - _EPS and n + 1 <= a.storage + _EPS


def reference_load(network, runs, clock) -> LoadingResult:
    """Load the vehicles of `runs` by the rules above, with vehicle records
    and standing-queue flags, reported as runs. Raises GridlockError if the
    horizon ends first."""
    dt, n_steps, i_s = float(clock.step_s), clock.n_steps, clock.interval_s
    plans = sorted(spec_plans(runs, i_s),
                   key=lambda p: (p.departure_time, p.vehicle_class, p.path.origin,
                                  p.path.destination, p.path.link_ids))
    links = {a.id: _Queue(a, clock.step_s)
             for a in sorted(network.link_list, key=lambda a: a.id)}
    origins = {}
    for vid, p in enumerate(plans):
        origins.setdefault(p.path.origin, _Queue()).vehicles.append(vid)
    queues = [*links.values(), *(origins[o] for o in sorted(origins))]
    routes = [[links[lid] for lid in p.path.link_ids] + [None] for p in plans]
    at = [0] * len(plans)      # index into the route of the next link
    ready = []                 # first step the vehicle may leave its queue
    for p in plans:
        s = 0
        while p.departure_time > s * dt + _EPS:
            s += 1
        ready.append(s)
    entries = [[] for _ in plans]
    exits = [math.nan] * len(plans)
    flags = {lid: bytearray(n_steps) for lid in links}

    for step in range(n_steps):
        t = step * dt
        if step * clock.step_s % i_s == 0:
            for q in links.values():
                q.reblend(step * clock.step_s // i_s)
        for q in queues:
            while q.vehicles:
                vid = q.vehicles[0]
                nxt = routes[vid][at[vid]]
                if (ready[vid] > step or q.next_free > t + dt - _EPS
                        or (nxt is not None and not nxt.admits(step, dt))):
                    break
                q.vehicles.popleft()
                if q.link is not None:
                    q.next_free = max(q.next_free, t) + q.headway
                if nxt is None:
                    exits[vid] = t
                    continue
                nxt.credit -= 1.0
                nxt.vehicles.append(vid)
                at[vid] += 1
                entries[vid].append(t)
                ready[vid] = step + nxt.ff_steps
                if plans[vid].vehicle_class == SO:
                    nxt.enter_cav += 1
                else:
                    nxt.enter_hv += 1
        for lid, q in links.items():
            if q.vehicles and (q.next_free > t + dt - _EPS or ready[q.vehicles[0]] <= step):
                flags[lid][step] = 1

    if any(q.vehicles for q in queues):
        raise GridlockError(
            {lid: len(q.vehicles) for lid, q in links.items() if q.vehicles},
            dict(Counter((p.path.origin, p.path.destination)
                         for p, e in zip(plans, exits) if math.isnan(e))))
    vehicles = [VehicleRecord(vid, p.vehicle_class, p.path, p.interval, p.departure_time,
                              entries[vid], exits[vid]) for vid, p in enumerate(plans)]
    replay = replayed_statistics(SimpleNamespace(states=links, vehicles=vehicles,
                                                 clock=clock))
    states, means = {}, {}
    for lid, q in links.items():
        a, ff = q.link, q.ff_steps * dt
        states[lid] = [LinkIntervalState(
            density=veh_s / i_s / (a.lanes * a.length) * 1000.0,
            flow=n_out / i_s / a.lanes * 3600.0,
            travel_time=max(tt_sum / n_in if n_in else ff, ff), free_flow_time=ff,
            cav_fraction=q.cav[j], reaction_time=q.reaction[j])
            for j, (n_in, _, tt_sum, n_out, veh_s) in enumerate(replay[lid])]
        means.update({(lid, j): entry_sum / n_in
                      for j, (n_in, entry_sum, *_) in enumerate(replay[lid]) if n_in})
    tstt = sum(e - p.departure_time for e, p in zip(exits, plans)) / 3600.0
    return LoadingResult(network, clock, states, vehicles,
                         {lid: queue_runs(f) for lid, f in flags.items()},
                         means, len(plans), tstt)


def report(res, records=True, clearance=True) -> tuple:
    """What a loading reports, as one made with `records` and `clearance`
    would report it."""
    return (res.states, res._entry_means, res._queue_runs if clearance else None,
            res.vehicles if records else (), res.vehicles_entered, res.vehicles_exited,
            res.tstt_veh_h)


def assert_matches_reference(network, runs, clock):
    """`load_vehicles`, with and without records and clearance, reports what
    the reference loading does, or strands the same vehicles. Returns the
    reference loading, or None where it strands vehicles."""
    try:
        ref = reference_load(network, runs, clock)
    except GridlockError as err:
        stranded = (err.stranded_by_link, err.stranded_by_od)
        ref = None
    for records, clearance in product((True, False), repeat=2):
        if ref is None:
            with pytest.raises(GridlockError) as err:
                load_vehicles(network, runs, clock, records=records, clearance=clearance)
            assert (err.value.stranded_by_link, err.value.stranded_by_od) == stranded
        else:
            res = load_vehicles(network, runs, clock, records=records, clearance=clearance)
            assert report(res) == report(ref, records, clearance)
    return ref


# On the 1800 s horizons the plans run to completion; the 240 s one strands
# the vehicles of about a third of them.
@pytest.mark.parametrize("clock", [
    Clock(step_s=s, interval_s=i_s, horizon_s=h)
    for s in (1, 2) for i_s, h in ((20, 1800), (60, 1800), (60, 240))],
    ids=lambda c: f"step{c.step_s}-int{c.interval_s}-hor{c.horizon_s}")
@settings(max_examples=40, deadline=None)
@given(fractional_plan_lists)
def test_random_plans_match_the_reference(clock, plans):
    assert_matches_reference(NET, runs_of_one(plans), clock)


def naive_clearance_delay(flags, t, step_s) -> float:
    """Seconds after time t until the first step from t's (or from 0) that
    is not flagged, scanned step by step."""
    clear = max(0, int(t // step_s))
    while clear < len(flags) and flags[clear]:
        clear += 1
    return max(0.0, clear * step_s - t)


@on_both_steps
@settings(max_examples=20, deadline=None)
@given(fractional_plan_lists)
def test_queue_runs_are_maximal_and_read_as_flags(clock, plans):
    # Each link's runs are strictly increasing bounds in [0, n_steps], so
    # every run is non-empty and no two touch; they are the reference's, and
    # the clearance delay read from them at every step and half-step is the
    # one a scan over the flags they expand to gives.
    n_steps, step_s = clock.n_steps, clock.step_s
    vehicles = runs_of_one(plans)
    expected = reference_load(NET, vehicles, clock)._queue_runs
    times = [(s + off) * step_s for s in range(-1, n_steps + 1) for off in (0.0, 0.5)]
    for records, clearance in product((True, False), repeat=2):
        res = load_vehicles(NET, vehicles, clock, records=records, clearance=clearance)
        if not clearance:
            assert res._queue_runs is None
            continue
        assert res._queue_runs == expected
        for lid, runs in res._queue_runs.items():
            assert len(runs) % 2 == 0
            assert all(a < b for a, b in zip(runs, runs[1:])), lid
            assert not runs or (runs[0] >= 0 and runs[-1] <= n_steps), lid
            flags = bytearray(n_steps)
            for start, end in zip(runs[::2], runs[1::2]):
                flags[start:end] = b"\x01" * (end - start)
            assert [res.queue_clearance_delay(lid, t) for t in times] \
                == [naive_clearance_delay(flags, t, step_s) for t in times], lid


def spaced_plans():
    """Vehicles 8 s apart through the MN bottleneck: each enters MN while it
    is empty and its server still serves the vehicle before."""
    return [Plan(UE, PATHS[0], 8 * j // 60, 8.0 * j) for j in range(20)]


@pytest.mark.parametrize("network, plans, clock", [
    (lambda: NET, spaced_plans, Clock(1, 60, 1800)),
    (merge_bottleneck_network, spillback_plans, Clock(1, 300, 1800)),
    (shared_origin_network, shared_origin_plans, Clock(1, 300, 1800)),
    (two_lane_merge_network, two_lane_merge_plans, Clock(2, 120, 1800)),
    (long_feeder_network, long_feeder_plans, Clock(1, 60, 1200)),
    (uniform_grid, grid_merge_plans, Clock(1, 120, 1200)),
], ids=["spaced", "spillback", "shared-origin", "two-second-step", "interval-boundary",
        "grid-merge"])
def test_fixtures_match_the_reference(network, plans, clock):
    assert assert_matches_reference(network(), runs_of_one(plans()), clock) is not None


def test_stranded_vehicles_match_the_reference():
    # The spillback fixture's queues are still standing when a 5-minute
    # horizon ends.
    assert assert_matches_reference(merge_bottleneck_network(),
                                    runs_of_one(spillback_plans()), Clock(1, 60, 300)) is None


def test_solver_loadings_match_the_reference(monkeypatch):
    # The path flows of a Nguyen solve at 50% SO, loaded as the solver does.
    captured = []
    equilibrium_load = equilibrium.load_network

    def load_network(network, groups, clock, **options):
        captured.append((network, discretize_assignments(groups, clock), clock))
        return equilibrium_load(network, groups, clock, **options)

    monkeypatch.setattr(equilibrium, "load_network", load_network)
    network, totals, clock = build_nguyen()
    solve_mixed_equilibrium(network, split_demand(totals, 0.5), clock,
                            SolverConfig(max_iterations=3))
    assert len(captured) == 3
    for network, runs, clock in captured:
        assert_matches_reference(network, runs, clock)
