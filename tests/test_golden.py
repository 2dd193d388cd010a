"""Golden digests: the loader, the time-dependent search and the bi-level
loop must reproduce, bit for bit, the results the reference implementation
produced.

Each digest is the SHA-256 of a canonical `repr` dump. The digests were
captured once from the straightforward step-by-step loader and one-to-one
search (the tie-heavy grid one from the memoised one-to-all search that
pushed every relaxation and looked each interval up through the clock; the
shared-origin one from the event-driven loader that still served
origins in a loop of their own, the two-second-step one from the loader that
kept blocked heads in a retry list of their own, the interval-boundary one
from the loader that updated per-link interval statistics on every move,
the bi-level one from the outer loop that solved every schedule, charging or
not, the mixed-solve one from the solver that rebuilt per-class (OD,
interval) dicts of flows, costs, least costs and demands every iteration)
and are never regenerated: a mismatch means an optimisation or refactor
changed results.

The file digests are SHA-256s of the bytes `tollsim nguyen`, the toll
schedule writers and a scenario run write, captured from the writers that
each opened and formatted their own files, before they shared one JSON and
one CSV writer (the run without the 0% ratio from the run that priced the
ratios only after every untolled solve, and solved the 0% run last).
"""
import hashlib
import os
from collections import Counter
from dataclasses import astuple

import pytest

from tollsim.cli import main
from tollsim.demand import SO, UE, NoiseConfig, split_demand
from tollsim.equilibrium import SolverConfig, solve_mixed_equilibrium
from tollsim.loading import load_vehicles
from tollsim.network import Clock, Link, Network, Node, Path
from tollsim.nguyen import build_nguyen
from tollsim.pricing import TollSchedule, bilevel_solve
from tollsim.routing import (SO_COST, UE_COST, CostSkims, UnreachableError,
                             td_shortest_path)

from tollsim.scenario import Scenario, run_scenario

from conftest import Plan, runs_of_one
from test_pricing import charging_and_free_case
from test_workbench import write_fixture_scenario

SPILLBACK_DIGEST = "8607c7b73799ab719ce439fedf508453289e5e6dc61c452709036e4c92e0648b"
NGUYEN_LOADING_DIGEST = "8e706bc842eabba0525f93813a072e18c4a949410bd253dd2d3f3bedd4be8d9f"
NGUYEN_SEARCH_DIGEST = "576795e8c9ce9994cfa6d59061896321d69fde337ae7b6c5a3b718f0e3e6b6be"
SHARED_ORIGIN_DIGEST = "4e6d28190fa8838e61bd47f07ad990a30a1531e1841bae7c425cb246efebcc70"
BILEVEL_DIGEST = "98242dbc5bf40bf8afa461a6d636ac13746b5612479a23e813b188634c5ed4b6"
TWO_SECOND_STEP_DIGEST = "2e21954f04046f1a9330a8465e2ee306dd6cee91fe087df5e4cd0e573cfb381c"
MIXED_SOLVE_DIGEST = "aeb2844b82a528e2a2317d7d5eb4adc6d39a4d4bb6d691be0fbf0ed7d5b30173"
GRID_SEARCH_DIGEST = "6ed33c5ce2183ba531496572903a48ccaaffe3098a0b9bd7af66c4d6f53fa0d9"
INTERVAL_BOUNDARY_DIGEST = "f10657224636bca83238d3540694f31e2b358092ca5ab499b9dc2a32f7fba7d4"

# SHA-256 of the bytes of written files, per file name.
NGUYEN_FILE_DIGESTS = {
    "nguyen_demand.json":
        "65df7a40e9bcb578ade5c0fa96dbf0e29a77a8e3f86d109b21a6c07b94a51fcd",
    "nguyen_network.json":
        "b20c63daab6ffc51314b0f1e78642ef96a28e1aef3ed5564e508f9e06042754f",
    "scenario.json":
        "423443fd4d03a67d87fb64c67b63ef5bc5d58515d5b659fe01864fbbf1e85820",
}
NGUYEN_TOLLED_FILE_DIGESTS = {
    "nguyen_demand.json":
        "65df7a40e9bcb578ade5c0fa96dbf0e29a77a8e3f86d109b21a6c07b94a51fcd",
    "nguyen_network.json":
        "91fe8912bd8a0456f2a4ee198ccae2b00cc1e39b63952777231c27acabf2c7f3",
    "scenario.json":
        "5c008cbed52e60830456b627f99df7e5a598fc978869fdf213b8d48ca5988be7",
}
SCHEDULE_CSV_DIGESTS = {
    "omega.csv":
        "bb7c2869b36c58b7309aabb44db327afc4571ada07906d11ba3fb50d589a46ef",
    "toll.csv":
        "b6c0998af3aea1d22d8cecbee70fb4aaf06fa52e50b091e2f90215dd8dbd3ba5",
}
RUN_FILE_DIGESTS = {
    "controller_r000.csv":
        "4d4fb5aacc16d6d6ea8a8957c668daae39c19e82deabb1a2f76d7c51af760b79",
    "controller_r100.csv":
        "3a62a25e6d318a3679f521f4fecc945acf86b4d19fd56fafe0345324d8fea02e",
    "demand.json":
        "2aa8df0e71910c40c585665eca28e1b8980d392f4f87c2f1a13feb298e29f7ce",
    "iters_r000.csv":
        "03abc46613d2a6649e9f206f0ba67f8d3735855747efc0cb9da21150cec5da0f",
    "iters_r100.csv":
        "c6e4af5ecbeed3b3c9d70855d848d74e26df3b7cd2fd0c399254bd0b0e56a9e5",
    "kcr.json":
        "ae3bd155c3a7915fdb21e577d5cef6d8a7bf04d83a24bfd3ae169526497067fe",
    "manifest.json":
        "ee7008395f2965edce71f95e5547a6c404256fb512bbb513e2171d6332f90dd8",
    "metrics.csv":
        "977ddb846203a6f0cb41b3bc33b4f19f334137f767691ea7a8423d6b41851540",
    "net.json":
        "4a5699c1fee462c70484d3abd41a41a22db4c5820cebe6b212f6fa2ff13f1a4f",
    "nfd_network_r000.csv":
        "c489f5e625cf3035b5b46f711c93cd387298212c016411ad3c2fe1b65b8565cb",
    "nfd_network_r100.csv":
        "757fea03b2fc5f709b2ce6200e6351b704f4320e8d20cc8ecc45af1ac3538356",
    "nfd_r000.csv":
        "a100bc2728f91317f084d4758c10568e1855260e1c851631edec49b85197d471",
    "nfd_r100.csv":
        "9be763f2dae25321ab844bfd75d422b6207c96d81f7651fcbb8cff865cd579ff",
    "nfd_tolled_r000.csv":
        "a100bc2728f91317f084d4758c10568e1855260e1c851631edec49b85197d471",
    "nfd_tolled_r100.csv":
        "9be763f2dae25321ab844bfd75d422b6207c96d81f7651fcbb8cff865cd579ff",
    "omega_r000.csv":
        "ba5fbac889e250fc55c200a1cff513c889f2994140c4c01f8469ba911924e29b",
    "omega_r100.csv":
        "ba5fbac889e250fc55c200a1cff513c889f2994140c4c01f8469ba911924e29b",
    "scenario.json":
        "4e2e9041b1130850ddbcf183d2856ae200521c34dc8b2d7e6c364686eb4e9595",
    "toll_r000.csv":
        "7567560f9129cfbe40bf59a1a747cdc942a8467a1843d9a40d13732bf7fb533a",
    "toll_r100.csv":
        "7567560f9129cfbe40bf59a1a747cdc942a8467a1843d9a40d13732bf7fb533a",
    "trajectories_r000.csv":
        "32bd01d965be084fea86852a5dc12b77b7ffe7050fb6ac5c2ae07428530d1d45",
    "trajectories_r100.csv":
        "fcf7484cb06ffee00c36bab14477a73ccb56b7057fc2d44feae505e0ba89e90d",
}

# The same run without the 0% ratio in the sweep, so its k_cr comes from a
# solve of its own.
RUN_WITHOUT_ZERO_FILE_DIGESTS = {
    "controller_r050.csv":
        "8e9a0bfd662980aaa6482bf29df118e3be96a2fe16eba1bd39f8982a4a5a549e",
    "controller_r100.csv":
        "3a62a25e6d318a3679f521f4fecc945acf86b4d19fd56fafe0345324d8fea02e",
    "demand.json":
        "2aa8df0e71910c40c585665eca28e1b8980d392f4f87c2f1a13feb298e29f7ce",
    "iters_r050.csv":
        "a0c22e5fde61cce3478d1998f503eab3832ab1a4ea71b94eb8236dd2aa84052e",
    "iters_r100.csv":
        "c6e4af5ecbeed3b3c9d70855d848d74e26df3b7cd2fd0c399254bd0b0e56a9e5",
    "kcr.json":
        "ae3bd155c3a7915fdb21e577d5cef6d8a7bf04d83a24bfd3ae169526497067fe",
    "manifest.json":
        "a350b50e663dee77a9c78d8e061d52b88fe98eec3a4c0b476a053351b238d00d",
    "metrics.csv":
        "72406dc4670a17b8afa96e6a9d4a201509cf34a25d4a517bf290a0d0c75b10c6",
    "net.json":
        "4a5699c1fee462c70484d3abd41a41a22db4c5820cebe6b212f6fa2ff13f1a4f",
    "nfd_network_r050.csv":
        "7b49836c6c0c381ba52df99b9389f6309124df4c122abb36e3029a5cb7edadb0",
    "nfd_network_r100.csv":
        "757fea03b2fc5f709b2ce6200e6351b704f4320e8d20cc8ecc45af1ac3538356",
    "nfd_r050.csv":
        "8547ac3cd201d362c6ebe541901dd4696b30ec24ce34b6e3fc5bc5e24bc28bf6",
    "nfd_r100.csv":
        "9be763f2dae25321ab844bfd75d422b6207c96d81f7651fcbb8cff865cd579ff",
    "nfd_tolled_r050.csv":
        "8547ac3cd201d362c6ebe541901dd4696b30ec24ce34b6e3fc5bc5e24bc28bf6",
    "nfd_tolled_r100.csv":
        "9be763f2dae25321ab844bfd75d422b6207c96d81f7651fcbb8cff865cd579ff",
    "omega_r050.csv":
        "ba5fbac889e250fc55c200a1cff513c889f2994140c4c01f8469ba911924e29b",
    "omega_r100.csv":
        "ba5fbac889e250fc55c200a1cff513c889f2994140c4c01f8469ba911924e29b",
    "scenario.json":
        "d0bf14fa0b984da9b4a56ac75e163607c28cf6703205e958b02ecf9940b1f607",
    "toll_r050.csv":
        "7567560f9129cfbe40bf59a1a747cdc942a8467a1843d9a40d13732bf7fb533a",
    "toll_r100.csv":
        "7567560f9129cfbe40bf59a1a747cdc942a8467a1843d9a40d13732bf7fb533a",
    "trajectories_r050.csv":
        "ac8c294d0d3a7d595b650129fc79ea7301b24d755d85e70c705447dd6d71ca7b",
    "trajectories_r100.csv":
        "fcf7484cb06ffee00c36bab14477a73ccb56b7057fc2d44feae505e0ba89e90d",
}


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


# The `LinkIntervalState` fields, in the order the pinned digests hash them.
STATE_FIELDS = ("density", "flow", "travel_time", "free_flow_time",
                "cav_fraction", "reaction_time")


def loading_dump(res) -> tuple:
    """States rows, entry means, per-vehicle trajectories and the queue
    clearance delay at every step (and mid-step) of every link."""
    clock = res.clock
    states = tuple((lid, tuple(tuple(getattr(st, f) for f in STATE_FIELDS)
                               for st in res.states[lid]))
                   for lid in sorted(res.states))
    means = tuple(sorted(res._entry_means.items()))
    vehicles = tuple((v.vehicle_id, v.vehicle_class, v.path.link_ids, v.interval,
                      v.departure_time, tuple(v.link_entries), v.exit_time)
                     for v in res.vehicles)
    clearance = tuple(
        (lid, tuple(res.queue_clearance_delay(lid, s * clock.step_s + off)
                    for s in range(clock.n_steps + 1) for off in (0.0, 0.5)))
        for lid in sorted(res.states))
    return states, means, vehicles, clearance


def merge_bottleneck_network():
    """Two feeders A->M and C->M merge into a short low-capacity link M->B.

    M->B stores 20 vehicles and discharges at about 0.3 veh/s with human
    drivers, so its queue spills back onto both feeders.
    """
    v = 20.0
    return Network(
        [Node("A", True), Node("C", True), Node("M"), Node("B", True)],
        [Link("AM", "A", "M", 1000.0, 1, v),
         Link("CM", "C", "M", 600.0, 2, v),
         Link("MB", "M", "B", 140.0, 1, v, reaction_time_factor=2.0)])


def spillback_plans():
    via_a = Path(("AM", "MB"), "A", "B")
    via_c = Path(("CM", "MB"), "C", "B")
    plans = []
    for i in range(240):
        cls = SO if i % 3 == 0 else UE
        plans.append(Plan(cls, via_a, i // 300, float(i)))
        if i % 2 == 0:
            plans.append(Plan(UE if i % 4 else SO, via_c, i // 300,
                              float(i) + 0.5))
    return plans


def shared_origin_network():
    """Origin A feeds a free link A->E and a short link A->M that ends in the
    M->B bottleneck. M->B's queue spills back over A->M to the origin, so
    vehicles bound for A->E wait at A behind a head that cannot enter A->M.
    """
    v = 20.0
    return Network(
        [Node("A", True), Node("M"), Node("B", True), Node("E", True)],
        [Link("AE", "A", "E", 500.0, 1, v),
         Link("AM", "A", "M", 200.0, 1, v),
         Link("MB", "M", "B", 140.0, 1, v, reaction_time_factor=2.0)])


def shared_origin_plans():
    via_m = Path(("AM", "MB"), "A", "B")
    direct = Path(("AE",), "A", "E")
    plans = []
    for i in range(200):
        plans.append(Plan(SO if i % 3 == 0 else UE, via_m, i // 300, float(i)))
        if i % 2 == 0:
            plans.append(Plan(UE if i % 4 else SO, direct, i // 300,
                              float(i) + 0.5))
    return plans


def two_lane_merge_network():
    """A two-lane feeder A->M and a one-lane feeder C->M merge into the M->B
    bottleneck, whose queue spills back over both feeders."""
    v = 20.0
    return Network(
        [Node("A", True), Node("C", True), Node("M"), Node("B", True)],
        [Link("AM", "A", "M", 600.0, 2, v),
         Link("CM", "C", "M", 400.0, 1, v),
         Link("MB", "M", "B", 140.0, 1, v, reaction_time_factor=2.0)])


def two_lane_merge_plans():
    """Human-driven pairs departing A every 1.5 s and an automated vehicle
    from C half a second after every third A departure, off the 2 s step
    grid. A->M's lower id serves it first at the merge, so the mix entering
    M->B, and with it M->B's blended reaction time, shifts between intervals
    while both feeders queue."""
    via_a = Path(("AM", "MB"), "A", "B")
    via_c = Path(("CM", "MB"), "C", "B")
    plans = []
    for i in range(150):
        t = 1.5 * (i // 2)
        plans.append(Plan(UE, via_a, 0, t))
        if i % 3 == 0:
            plans.append(Plan(SO, via_c, 0, t + 0.5))
    return plans


def heads_blocked_across_boundaries(res, feeder: str, downstream: str) -> list:
    """Interval boundaries b at which `downstream`'s reaction time changes
    while `feeder`'s head is held by it: the head was ready a step before b,
    the feeder's server was free then (its last exit came earlier and its
    headway is below a step), and the head left at b or later."""
    clock = res.clock
    ff = res.states[feeder][0].free_flow_time
    trips = sorted((v.link_entries[1], v.link_entries[0] + ff)
                   for v in res.vehicles if v.path.link_ids[0] == feeder)
    rows = res.states[downstream]
    out = []
    for k in range(1, clock.n_intervals):
        b = k * clock.interval_s
        before = [t_out for t_out, _ready in trips if t_out < b]
        after = [(t_out, ready) for t_out, ready in trips if t_out >= b]
        if (rows[k - 1].reaction_time != rows[k].reaction_time and before
                and after and after[0][1] <= b - clock.step_s
                and before[-1] < b - clock.step_s):
            out.append(b)
    return out


def long_feeder_network():
    """A 130 s feeder A->M and a 20 s feeder C->M merge into the M->B
    bottleneck; on a 60 s interval clock a free-running A->M vehicle is on
    the link across two interval boundaries."""
    v = 20.0
    return Network(
        [Node("A", True), Node("C", True), Node("M"), Node("B", True)],
        [Link("AM", "A", "M", 2600.0, 1, v),
         Link("CM", "C", "M", 400.0, 1, v),
         Link("MB", "M", "B", 140.0, 1, v, reaction_time_factor=2.0)])


def long_feeder_plans():
    """A departs every 5 s for 200 s, C every 3 s from 160 s; both stop
    early, so the feeders go on emptying in intervals nothing enters."""
    via_a = Path(("AM", "MB"), "A", "B")
    via_c = Path(("CM", "MB"), "C", "B")
    plans = [Plan(SO if i % 3 == 0 else UE, via_a, i // 12, 5.0 * i)
             for i in range(40)]
    plans += [Plan(UE if i % 2 else SO, via_c, 2 + i // 20, 160.0 + 3.0 * i)
              for i in range(30)]
    return plans


def uniform_grid(n=4, length=400.0, speed=20.0):
    """An n x n grid of centroids joined by equal two-way links (20 s free
    flow each), so every OD pair off a row or column has several least-cost
    paths wherever the links run free."""
    def name(r, c):
        return f"n{r}{c}"
    nodes = [Node(name(r, c), True) for r in range(n) for c in range(n)]
    links = []
    for r in range(n):
        for c in range(n):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < n and c + dc < n:
                    a, b = name(r, c), name(r + dr, c + dc)
                    links.append(Link(a + b, a, b, length, 1, speed))
                    links.append(Link(b + a, b, a, length, 1, speed))
    return Network(nodes, links)


def grid_merge_plans():
    """Two streams merge into n11->n12 and queue back over both feeders;
    a third crosses the n01->n11 feeder an interval later."""
    into_east = Path(("n01n11", "n11n12", "n12n13"), "n01", "n13")
    into_south = Path(("n10n11", "n11n12", "n12n22"), "n10", "n22")
    crossing = Path(("n00n01", "n01n11", "n11n21"), "n00", "n21")
    plans = []
    for i in range(300):
        plans.append(Plan(SO if i % 3 == 0 else UE, into_east, i // 240, i * 0.8))
        plans.append(Plan(UE if i % 2 else SO, into_south, i // 240,
                          i * 0.8 + 0.4))
        if i % 2 == 0:
            plans.append(Plan(UE, crossing, 1 + i // 240, 120.0 + i * 0.8))
    return plans


def search_dump(network, skims, n_intervals) -> list:
    """Every (origin, destination, interval, kind) search: the path's link ids
    and cost, or None where the destination is unreachable."""
    nodes = sorted(network.nodes)
    out = []
    for o in nodes:
        for d in nodes:
            for tau in range(n_intervals):
                for kind in (UE_COST, SO_COST):
                    try:
                        path, cost = td_shortest_path(skims, o, d, tau, kind)
                    except UnreachableError:
                        out.append((o, d, tau, kind, None))
                    else:
                        out.append((o, d, tau, kind, path.link_ids, cost))
    return out


def first_nguyen_loading():
    network, totals, clock = build_nguyen()
    demand = split_demand(totals, 0.4)
    eq = solve_mixed_equilibrium(network, demand, clock,
                                 SolverConfig(max_iterations=1))
    return network, eq.loading


def test_spillback_loading_digest():
    clock = Clock(step_s=1, interval_s=300, horizon_s=1800)
    res = load_vehicles(merge_bottleneck_network(), runs_of_one(spillback_plans()), clock)
    assert max(st.travel_time - st.free_flow_time
               for st in res.states["AM"]) > 60.0    # the queue spilled back
    assert digest(loading_dump(res)) == SPILLBACK_DIGEST


def test_shared_origin_loading_digest():
    clock = Clock(step_s=1, interval_s=300, horizon_s=1800)
    res = load_vehicles(shared_origin_network(), runs_of_one(shared_origin_plans()), clock)
    waits = [v.link_entries[0] - v.departure_time for v in res.vehicles
             if v.path.link_ids == ("AE",)]
    assert max(waits) > 60.0        # free-link vehicles queued at the origin
    assert digest(loading_dump(res)) == SHARED_ORIGIN_DIGEST


def test_two_second_step_loading_digest():
    clock = Clock(step_s=2, interval_s=120, horizon_s=1800)
    res = load_vehicles(two_lane_merge_network(), runs_of_one(two_lane_merge_plans()), clock)
    entries = Counter(v.link_entries[0] for v in res.vehicles
                      if v.path.link_ids[0] == "AM")
    assert max(entries.values()) >= 2    # the two-lane link admits a pair a step
    assert heads_blocked_across_boundaries(res, "AM", "MB")
    assert digest(loading_dump(res)) == TWO_SECOND_STEP_DIGEST


def test_interval_boundary_loading_digest():
    clock = Clock(step_s=1, interval_s=60, horizon_s=1200)
    res = load_vehicles(long_feeder_network(), runs_of_one(long_feeder_plans()), clock)
    trips = [(lid, t_in, t_out) for v in res.vehicles
             for lid, t_in, t_out in zip(v.path.link_ids, v.link_entries,
                                         v.link_entries[1:] + [v.exit_time])]
    i_s = clock.interval_s
    assert any(t_in % i_s == 0 and t_in > 0 for _lid, t_in, _t_out in trips)
    assert any(t_out % i_s == 0 for _lid, _t_in, t_out in trips)
    # On the link across two or more boundaries ...
    assert any((t_out - 1) // i_s - t_in // i_s >= 2 for _lid, t_in, t_out in trips)
    # ... and intervals with exits but no entries.
    entered = {(lid, t_in // i_s) for lid, t_in, _t_out in trips}
    assert any((lid, t_out // i_s) not in entered for lid, _t_in, t_out in trips)
    assert digest(loading_dump(res)) == INTERVAL_BOUNDARY_DIGEST


def test_first_nguyen_loading_digest():
    _network, res = first_nguyen_loading()
    assert digest(loading_dump(res)) == NGUYEN_LOADING_DIGEST


def test_nguyen_search_digest():
    network, res = first_nguyen_loading()
    out = search_dump(network, CostSkims.from_loading(res), res.clock.n_intervals)
    assert any(r[-1] is None for r in out) and any(r[-1] is not None for r in out)
    assert digest(out) == NGUYEN_SEARCH_DIGEST


def test_grid_search_digest():
    network = uniform_grid()
    clock = Clock(step_s=1, interval_s=120, horizon_s=1200)
    res = load_vehicles(network, runs_of_one(grid_merge_plans()), clock)
    out = search_dump(network, CostSkims.from_loading(res), clock.n_intervals)
    costs = {}
    for o, d, _tau, kind, *found in out:
        costs.setdefault((o, d, kind), set()).add(found[-1])
    # The merge makes costs depend on the departure interval ...
    assert any(len(seen) > 1 for seen in costs.values())
    # ... while free-running links tie: n00->n11 has two 40 s paths.
    assert ("n00", "n11", 9, UE_COST, ("n00n01", "n01n11"), 40.0) in out
    assert digest(out) == GRID_SEARCH_DIGEST


def test_bilevel_digest(clock_1h):
    network, demand, solver, toll, k_cr = charging_and_free_case()
    untolled = solve_mixed_equilibrium(network, demand, clock_1h, solver)
    res = bilevel_solve(network, demand, clock_1h, toll, solver, k_cr, untolled)
    alphas = [r.mean_alpha for r in res.log]
    assert 0.0 in alphas[1:] and max(alphas) > 0.0   # free and tolled outers
    dump = (tuple(astuple(r) for r in res.log),
            tuple(sorted(res.schedule.alpha.items())),
            tuple(sorted(res.schedule.omega.items())),
            loading_dump(res.equilibrium.loading))
    assert digest(dump) == BILEVEL_DIGEST


def test_mixed_solve_digest():
    network, totals, clock = build_nguyen()
    demand = split_demand(totals, 0.4, NoiseConfig(seed=1, beta_max=0.2))
    eq = solve_mixed_equilibrium(
        network, demand, clock,
        SolverConfig(max_iterations=6, gap_tolerance=1e-12, gamma=2.0))
    assert len(eq.log) == 6 and not eq.converged
    assert any(len(ps.paths) > 1 for ps in eq.path_sets.values())
    dump = (tuple(astuple(r)[:-1] for r in eq.log),     # all but wall_time_s
            tuple((key, tuple(p.link_ids for p in ps.paths),
                   tuple(sorted(ps.proportions.items())))
                  for key, ps in sorted(eq.path_sets.items())),
            loading_dump(eq.loading))
    assert digest(dump) == MIXED_SOLVE_DIGEST


def file_digests(directory) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("tolled", [False, True], ids=["plain", "tolled"])
def test_nguyen_file_bytes(tmp_path, tolled):
    assert main(["nguyen", "--out", str(tmp_path)] + ["--tolled"] * tolled) == 0
    assert file_digests(tmp_path) == (NGUYEN_TOLLED_FILE_DIGESTS if tolled
                                      else NGUYEN_FILE_DIGESTS)


def test_schedule_csv_bytes(tmp_path):
    schedule = TollSchedule(alpha={2: 1.0 / 3.0, 0: 0.1 + 0.2, 1: 2.0},
                            omega={("MD", 1): 2.0 / 3.0, ("AM", 0): 0.5,
                                   ("AM", 1): 0.0, ("MD", 0): 1e-12})
    schedule.write_alpha_csv(str(tmp_path / "toll.csv"))
    schedule.write_omega_csv(str(tmp_path / "omega.csv"))
    assert file_digests(tmp_path) == SCHEDULE_CSV_DIGESTS


def tolled_run_file_digests(tmp_path, so_ratios) -> dict:
    """Every file of a tolled run with trajectories."""
    path = write_fixture_scenario(tmp_path / "in", toll=True, so_ratios=so_ratios,
                                  demand_total=400.0, horizon=3600, seed=3,
                                  beta=0.1)
    run_scenario(Scenario.load(path), str(tmp_path / "out"),
                 write_trajectories=True)
    return file_digests(tmp_path / "in") | file_digests(tmp_path / "out")


def test_run_file_bytes(tmp_path):
    """A two-ratio run whose swept 0% ratio gives k_cr."""
    assert tolled_run_file_digests(tmp_path, (0.0, 1.0)) == RUN_FILE_DIGESTS


def test_run_file_bytes_without_the_zero_ratio(tmp_path):
    """A two-ratio run whose k_cr comes from an unswept 0% run."""
    assert tolled_run_file_digests(tmp_path, (0.5, 1.0)) \
        == RUN_WITHOUT_ZERO_FILE_DIGESTS
