"""Property tests of loader invariants on random plans over a small network
with a merge, a diverge and a spillback bottleneck: vehicle conservation,
FIFO order per link, storage bounds, independence from plan order, link
statistics that replay exactly from the vehicle trajectories, loadings
without vehicle records or without clearance data that equal one with them,
loadings that do not depend on earlier loadings of the same network, each
on a 1 s and a 2 s simulation step, and discretized runs that load as their
vehicles do, each a run of one, in (departure, class, origin, destination,
link ids, input order) order."""
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from tollsim.demand import SO, UE
from tollsim.loading import GridlockError, discretize_assignments, load_vehicles
from tollsim.network import Clock, Link, Network, Node, Path

from conftest import Plan, runs_of_one, spec_plans
from test_golden import loading_dump

on_both_steps = pytest.mark.parametrize(
    "clock", [Clock(step_s=s, interval_s=60, horizon_s=1800) for s in (1, 2)],
    ids=lambda c: f"step{c.step_s}")
# Intervals shorter than most traversals, so vehicles sit on links across
# interval boundaries.
short_intervals = pytest.mark.parametrize(
    "clock", [Clock(step_s=s, interval_s=20, horizon_s=1800) for s in (1, 2)],
    ids=lambda c: f"step{c.step_s}")


def merge_diverge_network():
    """A and C feed M; M->N is a 20-vehicle, ~0.3 veh/s bottleneck that
    spills back; N splits to B and E, and M->E bypasses the bottleneck."""
    v = 20.0
    return Network(
        [Node("A", True), Node("C", True), Node("M"), Node("N"),
         Node("B", True), Node("E", True)],
        [Link("AM", "A", "M", 600.0, 1, v),
         Link("CM", "C", "M", 400.0, 2, v),
         Link("MN", "M", "N", 140.0, 1, v, reaction_time_factor=2.0),
         Link("NB", "N", "B", 300.0, 1, v),
         Link("NE", "N", "E", 200.0, 1, v),
         Link("ME", "M", "E", 500.0, 1, v)])


NET = merge_diverge_network()
PATHS = [Path(("AM", "MN", "NB"), "A", "B"),
         Path(("AM", "MN", "NE"), "A", "E"),
         Path(("AM", "ME"), "A", "E"),
         Path(("CM", "MN", "NB"), "C", "B"),
         Path(("CM", "ME"), "C", "E")]


def burst(cls, path_idx, start, n, gap):
    """n vehicles on one path, departing every gap/2 s from start/2 s."""
    return [Plan(cls, PATHS[path_idx], (start + j * gap) // 120,
                 (start + j * gap) / 2.0) for j in range(n)]


plan_lists = st.lists(
    st.builds(burst, st.sampled_from([UE, SO]), st.integers(0, len(PATHS) - 1),
              st.integers(0, 239), st.integers(1, 40), st.integers(1, 4)),
    max_size=6).map(lambda bursts: [p for b in bursts for p in b])


def shifted(plans, offsets):
    """The plans with departures delayed by `offsets` in turn, some by a
    fraction of a second."""
    return [p._replace(departure_time=p.departure_time + offsets[k % len(offsets)])
            for k, p in enumerate(plans)]


fractional_plan_lists = st.builds(
    shifted, plan_lists,
    st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.7]), min_size=1, max_size=5))


def link_traversals(res):
    """link id -> [(entry time, exit time)] over all vehicles."""
    out = {lid: [] for lid in res.states}
    for v in res.vehicles:
        exits = v.link_entries[1:] + [v.exit_time]
        for lid, t_in, t_out in zip(v.path.link_ids, v.link_entries, exits):
            out[lid].append((t_in, t_out))
    return out


def replayed_statistics(res) -> dict:
    """link id -> per interval [entries, entry-time sum, travel-time sum of
    those entries, exits, vehicle-seconds on the link], replayed vehicle by
    vehicle with each traversal's vehicle-seconds split at interval
    boundaries."""
    i_s = res.clock.interval_s
    out = {}
    for lid, trips in link_traversals(res).items():
        rows = [[0, 0.0, 0.0, 0, 0.0] for _ in range(res.clock.n_intervals)]
        for t_in, t_out in trips:
            first, last = int(t_in // i_s), int(t_out // i_s)
            rows[first][0] += 1
            rows[first][1] += t_in
            rows[first][2] += t_out - t_in
            rows[last][3] += 1
            start = t_in
            for j in range(first, last):
                rows[j][4] += (j + 1) * i_s - start
                start = (j + 1) * i_s
            rows[last][4] += t_out - start
        out[lid] = rows
    return out


@short_intervals
@settings(max_examples=40, deadline=None)
@given(plan_lists)
def test_link_statistics_replay_exactly(clock, plans):
    res = load_vehicles(NET, runs_of_one(plans), clock)
    i_s = clock.interval_s
    for lid, rows in replayed_statistics(res).items():
        link = NET.links[lid]
        for j, (n_in, entry_sum, tt_sum, n_out, veh_s) in enumerate(rows):
            st = res.states[lid][j]
            ff = st.free_flow_time
            assert st.density == veh_s / i_s / (link.lanes * link.length) * 1000.0
            assert st.flow == n_out / i_s / link.lanes * 3600.0
            assert st.travel_time == max(tt_sum / n_in if n_in else ff, ff)
            assert res._entry_means.get((lid, j)) == (entry_sum / n_in if n_in else None)


@on_both_steps
@settings(max_examples=40, deadline=None)
@given(plan_lists)
def test_vehicles_are_conserved(clock, plans):
    res = load_vehicles(NET, runs_of_one(plans), clock)
    assert res.vehicles_entered == res.vehicles_exited == len(plans)
    for v in res.vehicles:
        assert len(v.link_entries) == len(v.path.link_ids)


@on_both_steps
@settings(max_examples=40, deadline=None)
@given(plan_lists)
def test_links_are_fifo(clock, plans):
    res = load_vehicles(NET, runs_of_one(plans), clock)
    for lid, trips in link_traversals(res).items():
        exits = [t_out for _t_in, t_out in sorted(trips)]
        assert exits == sorted(exits), lid


@on_both_steps
@settings(max_examples=40, deadline=None)
@given(plan_lists)
def test_on_link_count_never_exceeds_storage(clock, plans):
    res = load_vehicles(NET, runs_of_one(plans), clock)
    for lid, trips in link_traversals(res).items():
        delta: dict[float, int] = {}
        for t_in, t_out in trips:
            delta[t_in] = delta.get(t_in, 0) + 1
            delta[t_out] = delta.get(t_out, 0) - 1
        count = 0
        for t in sorted(delta):
            count += delta[t]
            assert count <= NET.links[lid].storage + 1e-9, (lid, t)


@on_both_steps
@settings(max_examples=40, deadline=None)
@given(plan_lists, st.randoms(use_true_random=False))
def test_result_independent_of_plan_order(clock, plans, rng):
    shuffled = list(plans)
    rng.shuffle(shuffled)
    assert loading_dump(load_vehicles(NET, runs_of_one(shuffled), clock)) \
        == loading_dump(load_vehicles(NET, runs_of_one(plans), clock))


@on_both_steps
@settings(max_examples=40, deadline=None)
@given(fractional_plan_lists)
def test_records_change_nothing_else(clock, plans):
    full = load_vehicles(NET, runs_of_one(plans), clock)
    bare = load_vehicles(NET, runs_of_one(plans), clock, records=False)
    assert len(full.vehicles) == len(plans) and bare.vehicles == ()
    assert bare.states == full.states
    assert bare._entry_means == full._entry_means
    assert bare._queue_runs == full._queue_runs
    for lid in NET.links:
        for i in range(clock.n_intervals):
            assert bare.marginal_time(lid, i) == full.marginal_time(lid, i)
    assert bare.tstt_veh_h == full.tstt_veh_h
    assert bare.vehicles_entered == full.vehicles_entered == len(plans)
    assert bare.vehicles_exited == full.vehicles_exited == len(plans)
    assert full.tstt_veh_h == sum(v.travel_time for v in full.vehicles) / 3600.0


@on_both_steps
@settings(max_examples=40, deadline=None)
@given(fractional_plan_lists)
def test_clearance_changes_nothing_else(clock, plans):
    full = load_vehicles(NET, runs_of_one(plans), clock)
    bare = load_vehicles(NET, runs_of_one(plans), clock, clearance=False)
    assert full.clearance and not bare.clearance
    assert bare.states == full.states
    assert bare._entry_means == full._entry_means
    assert bare.vehicles == full.vehicles and len(bare.vehicles) == len(plans)
    assert bare.tstt_veh_h == full.tstt_veh_h
    assert bare.vehicles_entered == full.vehicles_entered == len(plans)
    assert bare.vehicles_exited == full.vehicles_exited == len(plans)
    for read in (lambda: bare.queue_clearance_delay("MN", 0.0),
                 lambda: bare.marginal_time("MN", 0),
                 lambda: bare.path_marginal_time(PATHS[0], 0)):
        with pytest.raises(ValueError, match=r"clearance=True"):
            read()


def outcome(res) -> tuple:
    """Everything a loading reports: `loading_dump` where it kept clearance
    data, else its states and vehicles; and its counts and TSTT."""
    dump = loading_dump(res) if res.clearance else (res.states, res.vehicles)
    return dump, res.vehicles_entered, res.vehicles_exited, res.tstt_veh_h


@on_both_steps
@pytest.mark.parametrize("records", [True, False], ids=["records", "bare"])
@pytest.mark.parametrize("clearance", [True, False], ids=["clearance", "no-clearance"])
@settings(max_examples=25, deadline=None)
@given(plan_lists, plan_lists)
def test_loading_independent_of_earlier_loadings(clock, records, clearance,
                                                 first, second):
    # A network keeps only the paths it has validated from one loading to
    # the next; no loader state may carry over.
    net = merge_diverge_network()
    options = {"records": records, "clearance": clearance}
    load_vehicles(net, runs_of_one(first), clock, **options)
    again = load_vehicles(net, runs_of_one(second), clock, **options)
    fresh = load_vehicles(merge_diverge_network(), runs_of_one(second), clock, **options)
    assert outcome(again) == outcome(fresh)


ODS = sorted({(p.origin, p.destination) for p in PATHS})


@st.composite
def loader_groups(draw):
    """Loader groups over PATHS: each one OD pair's class, interval (0-2)
    and 1-3 of its paths, some fresh copies of a path, with flows whole,
    half-way, fractional or zero. Sometimes one group comes twice, so two
    groups share one key."""
    groups = []
    for _ in range(draw(st.integers(0, 6))):
        od = draw(st.sampled_from(ODS))
        of_od = [p for p in PATHS if (p.origin, p.destination) == od]
        paths = [draw(st.sampled_from(of_od)) for _ in range(draw(st.integers(1, 3)))]
        paths = [Path(p.link_ids, p.origin, p.destination) if draw(st.booleans()) else p
                 for p in paths]
        flows = [draw(st.sampled_from([0.0, 0.5, 2.0, 2.5]) | st.floats(0.0, 30.0))
                 for _ in paths]
        groups.append((draw(st.sampled_from([UE, SO])), draw(st.integers(0, 2)),
                       paths, flows))
    if groups and draw(st.booleans()):
        groups.append(draw(st.sampled_from(groups)))
    return groups


def loaded(runs, clock, **options) -> tuple:
    """`outcome` of the loading, or the stranded counts it raised."""
    try:
        return outcome(load_vehicles(NET, runs, clock, **options))
    except GridlockError as err:
        return err.stranded, err.stranded_by_link, err.stranded_by_od


def in_loading_order(plans) -> list:
    return sorted(plans, key=lambda p: (p.departure_time, p.vehicle_class, p.path.origin,
                                        p.path.destination, p.path.link_ids))


# The 240 s horizon strands the vehicles of many cases.
@pytest.mark.parametrize("clock", [Clock(step_s=s, interval_s=60, horizon_s=h)
                                   for s, h in ((1, 1800), (2, 1800), (1, 240))],
                         ids=lambda c: f"step{c.step_s}-hor{c.horizon_s}")
@settings(max_examples=40, deadline=None)
@given(loader_groups(), st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.7]),
                                 min_size=1, max_size=5))
def test_runs_load_as_their_vehicles(clock, groups, offsets):
    # A run of n loads as its n vehicles, expanded by the spec rule, each a
    # run of one.
    runs = discretize_assignments(groups, clock)
    plans = spec_plans(runs, clock.interval_s)
    assert len(runs) == len(plans)
    for records, clearance in product((True, False), repeat=2):
        assert loaded(runs, clock, records=records, clearance=clearance) \
            == loaded(runs_of_one(plans), clock, records=records, clearance=clearance)
    # Each plan labelled with its input position: vehicle ids follow the
    # sorted plans, ties in input order, at whole and fractional seconds.
    for listed in (plans, shifted(plans, offsets)):
        labelled = [p._replace(interval=k) for k, p in enumerate(listed)]
        try:
            res = load_vehicles(NET, runs_of_one(labelled), clock)
        except GridlockError:
            continue
        assert [v.interval for v in res.vehicles] \
            == [p.interval for p in in_loading_order(labelled)]
