"""Property tests of loader invariants on random plans over a small network
with a merge, a diverge and a spillback bottleneck: vehicle conservation,
FIFO order per link, storage bounds and independence from plan order."""
from hypothesis import given, settings, strategies as st

from tollsim.demand import SO, UE
from tollsim.loading import VehiclePlan, load_vehicles
from tollsim.network import Clock, Link, Network, Node, Path

from test_golden import loading_dump

CLOCK = Clock(step_s=1, interval_s=60, horizon_s=1800)


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
    return [VehiclePlan(cls, PATHS[path_idx], (start + j * gap) // 120,
                        (start + j * gap) / 2.0) for j in range(n)]


plan_lists = st.lists(
    st.builds(burst, st.sampled_from([UE, SO]), st.integers(0, len(PATHS) - 1),
              st.integers(0, 239), st.integers(1, 40), st.integers(1, 4)),
    max_size=6).map(lambda bursts: [p for b in bursts for p in b])


def link_traversals(res):
    """link id -> [(entry time, exit time)] over all vehicles."""
    out = {lid: [] for lid in res.states}
    for v in res.vehicles:
        exits = v.link_entries[1:] + [v.exit_time]
        for lid, t_in, t_out in zip(v.path.link_ids, v.link_entries, exits):
            out[lid].append((t_in, t_out))
    return out


@settings(max_examples=40, deadline=None)
@given(plan_lists)
def test_vehicles_are_conserved(plans):
    res = load_vehicles(NET, plans, CLOCK)
    assert res.vehicles_entered == res.vehicles_exited == len(plans)
    for v in res.vehicles:
        assert len(v.link_entries) == len(v.path.link_ids)


@settings(max_examples=40, deadline=None)
@given(plan_lists)
def test_links_are_fifo(plans):
    res = load_vehicles(NET, plans, CLOCK)
    for lid, trips in link_traversals(res).items():
        exits = [t_out for _t_in, t_out in sorted(trips)]
        assert exits == sorted(exits), lid


@settings(max_examples=40, deadline=None)
@given(plan_lists)
def test_on_link_count_never_exceeds_storage(plans):
    res = load_vehicles(NET, plans, CLOCK)
    for lid, trips in link_traversals(res).items():
        delta: dict[float, int] = {}
        for t_in, t_out in trips:
            delta[t_in] = delta.get(t_in, 0) + 1
            delta[t_out] = delta.get(t_out, 0) - 1
        count = 0
        for t in sorted(delta):
            count += delta[t]
            assert count <= NET.links[lid].storage + 1e-9, (lid, t)


@settings(max_examples=40, deadline=None)
@given(plan_lists, st.randoms(use_true_random=False))
def test_result_independent_of_plan_order(plans, rng):
    shuffled = list(plans)
    rng.shuffle(shuffled)
    assert loading_dump(load_vehicles(NET, shuffled, CLOCK)) \
        == loading_dump(load_vehicles(NET, plans, CLOCK))
