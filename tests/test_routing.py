"""Time-dependent shortest paths and bounded path sets."""
import pytest
from hypothesis import given, strategies as st

from tollsim.network import Clock, Link, Network, Node, Path
from tollsim.routing import (CAP_UE, CostSkims, PathSet, SO_COST, UE_COST,
                             UnreachableError, distance_shortest_path,
                             td_shortest_path)

from conftest import line_network, parallel_network, two_link_network


def make_skims(clock, tt, ue=None, so=None):
    """Skims from {(link_id, interval): seconds} dicts (ue/so default to tt)."""
    return CostSkims(clock, tt, dict(ue or tt), dict(so or tt))


def const_skims(net, clock, tt_by_link, ue=None, so=None):
    """Interval-constant skims from {link_id: seconds} dicts."""
    def expand(per_link):
        return {(lid, tau): per_link[lid]
                for lid in net.links for tau in range(clock.n_intervals)}
    return make_skims(clock, expand(tt_by_link),
                      expand(ue) if ue else None,
                      expand(so) if so else None)


class TestShortestPath:
    def test_picks_faster_of_two_parallel_routes(self, clock_20min):
        net = parallel_network()  # S: 300 s free flow, L: 420 s
        skims = const_skims(net, clock_20min, {"S": 300.0, "L": 420.0})
        path, cost = td_shortest_path(net, skims, "O", "D", 0)
        assert path.link_ids == ("S",)
        assert cost == 300.0

    def test_departure_interval_flips_the_choice(self, clock_20min):
        net = parallel_network()
        tt = {("S", 0): 500.0, ("L", 0): 420.0,
              ("S", 1): 300.0, ("L", 1): 420.0}
        for tau in (2, 3):
            tt[("S", tau)] = 300.0
            tt[("L", tau)] = 420.0
        skims = make_skims(clock_20min, tt)
        assert td_shortest_path(net, skims, "O", "D", 0)[0].link_ids == ("L",)
        assert td_shortest_path(net, skims, "O", "D", 1)[0].link_ids == ("S",)

    def test_costs_read_at_arrival_interval(self, clock_20min):
        # First link's travel time decides which interval prices the second.
        net = two_link_network()
        base = {("MB", 0): 50.0, ("MB", 1): 999.0,
                ("MB", 2): 999.0, ("MB", 3): 999.0}
        early = make_skims(clock_20min, {("AM", t): 280.0 for t in range(4)} | base)
        late = make_skims(clock_20min, {("AM", t): 320.0 for t in range(4)} | base)
        assert td_shortest_path(net, early, "A", "B", 0)[1] == 280.0 + 50.0
        assert td_shortest_path(net, late, "A", "B", 0)[1] == 320.0 + 999.0
        assert early.path_cost(Path(("AM", "MB"), "A", "B"), 0, UE_COST) == 330.0

    def test_unreachable_raises(self, clock_20min):
        net = line_network()
        skims = const_skims(net, clock_20min, {"AB": 50.0})
        with pytest.raises(UnreachableError):
            td_shortest_path(net, skims, "B", "A", 0)

    def test_lexicographic_tie_break(self, clock_20min):
        net = Network(
            [Node("O", True), Node("X"), Node("Y"), Node("D", True)],
            [Link("a1", "O", "X", 1000.0, 1, 20.0),
             Link("a2", "X", "D", 1000.0, 1, 20.0),
             Link("b1", "O", "Y", 1000.0, 1, 20.0),
             Link("b2", "Y", "D", 1000.0, 1, 20.0)])
        skims = const_skims(net, clock_20min,
                            {"a1": 50.0, "a2": 50.0, "b1": 50.0, "b2": 50.0})
        path, _ = td_shortest_path(net, skims, "O", "D", 0)
        assert path.link_ids == ("a1", "a2")

    def test_returned_cost_matches_path_cost(self, clock_20min):
        net = parallel_network()
        tt = {("S", t): 300.0 + 10.0 * t for t in range(4)}
        tt |= {("L", t): 420.0 for t in range(4)}
        skims = make_skims(clock_20min, tt)
        path, cost = td_shortest_path(net, skims, "O", "D", 1)
        assert cost == skims.path_cost(path, 1, UE_COST)

    def test_least_marginal_route_can_differ_from_least_time(self, clock_20min):
        net = parallel_network()
        skims = const_skims(net, clock_20min,
                            tt_by_link={"S": 300.0, "L": 420.0},
                            so={"S": 900.0, "L": 420.0})
        assert td_shortest_path(net, skims, "O", "D", 0)[0].link_ids == ("S",)
        assert td_shortest_path(net, skims, "O", "D", 0, SO_COST)[0].link_ids \
            == ("L",)
        assert skims.path_cost(Path(("S",), "O", "D"), 0, SO_COST) == 900.0


class TestStaticShortestPath:
    def test_picks_shortest_by_length(self):
        net = Network(
            [Node("A", True), Node("B"), Node("C"), Node("D", True)],
            [Link("AB", "A", "B", 100.0, 1, 10.0),
             Link("BD", "B", "D", 100.0, 1, 10.0),
             Link("AC", "A", "C", 150.0, 1, 10.0),
             Link("CD", "C", "D", 10.0, 1, 10.0)])
        assert distance_shortest_path(net, "A", "D").link_ids == ("AC", "CD")

    def test_unreachable_raises(self):
        with pytest.raises(UnreachableError):
            distance_shortest_path(line_network(), "B", "A")


def path_named(*lids):
    return Path(tuple(lids), "O", "D")


class TestPathSet:
    def test_first_insert_takes_full_proportion(self):
        ps = PathSet("O", "D", CAP_UE, (0, 1))
        ps.insert(path_named("S"))
        assert ps.proportions[0] == [1.0]
        assert ps.proportions[1] == [1.0]

    def test_duplicate_insert_is_noop(self):
        ps = PathSet("O", "D", CAP_UE, (0,))
        ps.insert(path_named("S"))
        ps.insert(path_named("L"))
        ps.proportions[0] = [0.7, 0.3]
        idx = ps.insert(path_named("L"))
        assert idx == 1
        assert ps.proportions[0] == [0.7, 0.3]

    def test_new_path_enters_at_zero(self):
        ps = PathSet("O", "D", CAP_UE, (0,))
        ps.insert(path_named("S"))
        ps.insert(path_named("L"))
        assert ps.proportions[0] == [1.0, 0.0]

    def test_eviction_renormalizes_survivors(self):
        ps = PathSet("O", "D", 3, (0,))
        for lids in ("a", "b", "c"):
            ps.insert(path_named(lids))
        ps.proportions[0] = [0.5, 0.3, 0.2]
        ps.insert(path_named("d"))
        assert [p.link_ids for p in ps.paths] \
            == [("a",), ("b",), ("d",)]
        assert ps.proportions[0] == pytest.approx([0.625, 0.375, 0.0])

    def test_eviction_uses_mean_across_intervals(self):
        ps = PathSet("O", "D", 2, (0, 1))
        ps.insert(path_named("a"))
        ps.insert(path_named("b"))
        # "a" dominates interval 0 but "b" has the larger mean share.
        ps.proportions[0] = [0.6, 0.4]
        ps.proportions[1] = [0.1, 0.9]
        ps.insert(path_named("c"))
        assert [p.link_ids for p in ps.paths] == [("b",), ("c",)]

    def test_eviction_tie_removes_oldest(self):
        ps = PathSet("O", "D", 2, (0,))
        ps.insert(path_named("a"))
        ps.insert(path_named("b"))
        ps.proportions[0] = [0.5, 0.5]
        ps.insert(path_named("c"))
        assert [p.link_ids for p in ps.paths] == [("b",), ("c",)]

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            PathSet("O", "D", 0, (0,))

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=25))
    def test_proportions_always_sum_to_one(self, inserts):
        ps = PathSet("O", "D", 3, (0, 1))
        for i in inserts:
            ps.insert(path_named(f"p{i}"))
            for vec in ps.proportions.values():
                assert abs(sum(vec) - 1.0) <= 1e-9
            assert len(ps.paths) <= 3
