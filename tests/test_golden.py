"""Golden digests: the loader and the time-dependent search must reproduce,
bit for bit, the results the reference implementation produced.

Each digest is the SHA-256 of a canonical `repr` dump. The digests were
captured once from the straightforward step-by-step loader and one-to-one
search and are never regenerated: a mismatch means an optimisation changed
results.
"""
import hashlib
from dataclasses import astuple

from tollsim.demand import SO, UE, split_demand
from tollsim.equilibrium import SolverConfig, solve_mixed_equilibrium
from tollsim.loading import VehiclePlan, load_vehicles
from tollsim.network import Clock, Link, Network, Node, Path
from tollsim.nguyen import build_nguyen
from tollsim.routing import (SO_COST, UE_COST, CostSkims, UnreachableError,
                             td_shortest_path)

SPILLBACK_DIGEST = "8607c7b73799ab719ce439fedf508453289e5e6dc61c452709036e4c92e0648b"
NGUYEN_LOADING_DIGEST = "8e706bc842eabba0525f93813a072e18c4a949410bd253dd2d3f3bedd4be8d9f"
NGUYEN_SEARCH_DIGEST = "576795e8c9ce9994cfa6d59061896321d69fde337ae7b6c5a3b718f0e3e6b6be"


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def loading_dump(res) -> tuple:
    """States rows, entry means, per-vehicle trajectories and the queue
    clearance delay at every step (and mid-step) of every link."""
    clock = res.clock
    states = tuple((lid, tuple(astuple(st) for st in res.states[lid]))
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
        plans.append(VehiclePlan(cls, via_a, i // 300, float(i)))
        if i % 2 == 0:
            plans.append(VehiclePlan(UE if i % 4 else SO, via_c, i // 300,
                                     float(i) + 0.5))
    return plans


def first_nguyen_loading():
    network, totals, clock = build_nguyen()
    demand = split_demand(totals, 0.4)
    eq = solve_mixed_equilibrium(network, demand, clock,
                                 SolverConfig(max_iterations=1))
    return network, eq.loading


def test_spillback_loading_digest():
    clock = Clock(step_s=1, interval_s=300, horizon_s=1800)
    res = load_vehicles(merge_bottleneck_network(), spillback_plans(), clock)
    assert max(st.travel_time - st.free_flow_time
               for st in res.states["AM"]) > 60.0    # the queue spilled back
    assert digest(loading_dump(res)) == SPILLBACK_DIGEST


def test_first_nguyen_loading_digest():
    _network, res = first_nguyen_loading()
    assert digest(loading_dump(res)) == NGUYEN_LOADING_DIGEST


def test_nguyen_search_digest():
    network, res = first_nguyen_loading()
    skims = CostSkims.from_loading(res)
    nodes = sorted(network.nodes)
    out = []
    for o in nodes:
        for d in nodes:
            for tau in range(res.clock.n_intervals):
                for kind in (UE_COST, SO_COST):
                    try:
                        path, cost = td_shortest_path(network, skims, o, d, tau, kind)
                    except UnreachableError:
                        out.append((o, d, tau, kind, None))
                    else:
                        out.append((o, d, tau, kind, path.link_ids, cost))
    assert any(r[-1] is None for r in out) and any(r[-1] is not None for r in out)
    assert digest(out) == NGUYEN_SEARCH_DIGEST
