"""Time-dependent shortest paths and bounded path sets."""
import heapq
import math

import pytest
from hypothesis import given, settings, strategies as st

from tollsim.demand import SO, UE
from tollsim.loading import LoadingResult, load_vehicles
from tollsim.network import Clock, Link, Network, Node, Path
from tollsim.pricing import TollSchedule
from tollsim.routing import (CAP_UE, CostSkims, PathSet, SO_COST, UE_COST,
                             UnreachableError, distance_paths, td_shortest_path)

from conftest import (Plan, line_network, links_from, parallel_network, runs_of_one,
                      two_link_network)
from test_golden import uniform_grid


def columns(network, rows):
    """{link_id: [value per interval]} rows as per-interval columns in
    `network.link_order` order, the layout `CostSkims` holds."""
    n_int = len(next(iter(rows.values())))
    return [[rows[a.id][tau] for a in network.link_order] for tau in range(n_int)]


def make_skims(net, clock, tt, ue=None, so=None):
    """Skims from {(link_id, interval): seconds} dicts (ue/so default to tt)."""
    def cols(cells):
        rows = {}
        for (lid, tau), value in sorted(cells.items()):
            assert tau == len(rows.setdefault(lid, []))
            rows[lid].append(value)
        return columns(net, rows)
    return CostSkims(net, clock, cols(tt), cols(ue or tt), cols(so or tt))


def const_skims(net, clock, tt_by_link, ue=None, so=None):
    """Interval-constant skims from {link_id: seconds} dicts."""
    def expand(per_link):
        return {(lid, tau): per_link[lid]
                for lid in net.links for tau in range(clock.n_intervals)}
    return make_skims(net, clock, expand(tt_by_link),
                      expand(ue) if ue else None,
                      expand(so) if so else None)


class TestShortestPath:
    def test_picks_faster_of_two_parallel_routes(self, clock_20min):
        net = parallel_network()  # S: 300 s free flow, L: 420 s
        skims = const_skims(net, clock_20min, {"S": 300.0, "L": 420.0})
        path, cost = td_shortest_path(skims, "O", "D", 0, UE_COST)
        assert path.link_ids == ("S",)
        assert cost == 300.0

    def test_departure_interval_flips_the_choice(self, clock_20min):
        net = parallel_network()
        tt = {("S", 0): 500.0, ("L", 0): 420.0,
              ("S", 1): 300.0, ("L", 1): 420.0}
        for tau in (2, 3):
            tt[("S", tau)] = 300.0
            tt[("L", tau)] = 420.0
        skims = make_skims(net, clock_20min, tt)
        assert td_shortest_path(skims, "O", "D", 0, UE_COST)[0].link_ids == ("L",)
        assert td_shortest_path(skims, "O", "D", 1, UE_COST)[0].link_ids == ("S",)

    def test_costs_read_at_arrival_interval(self, clock_20min):
        # First link's travel time decides which interval prices the second.
        net = two_link_network()
        base = {("MB", 0): 50.0, ("MB", 1): 999.0,
                ("MB", 2): 999.0, ("MB", 3): 999.0}
        early = make_skims(net, clock_20min, {("AM", t): 280.0 for t in range(4)} | base)
        late = make_skims(net, clock_20min, {("AM", t): 320.0 for t in range(4)} | base)
        assert td_shortest_path(early, "A", "B", 0, UE_COST)[1] == 280.0 + 50.0
        assert td_shortest_path(late, "A", "B", 0, UE_COST)[1] == 320.0 + 999.0
        assert early.path_cost(Path(("AM", "MB"), "A", "B"), 0, UE_COST) == 330.0

    def test_arrival_past_horizon_priced_at_last_interval(self, clock_20min):
        # Leaving at 900 s, the probe reaches M at 1900 s, past the 1200 s
        # horizon, so MB is read at the last interval (3) by both pricers.
        net = two_link_network()
        tt = {("AM", t): 1000.0 for t in range(4)}
        tt |= {("MB", t): 10.0 * (t + 1) for t in range(4)}
        skims = make_skims(net, clock_20min, tt)
        path = Path(("AM", "MB"), "A", "B")
        assert skims.path_cost(path, 3, UE_COST) == 1040.0
        assert td_shortest_path(skims, "A", "B", 3, UE_COST) == (path, 1040.0)

    def test_unreachable_raises(self, clock_20min):
        net = line_network()
        skims = const_skims(net, clock_20min, {"AB": 50.0})
        with pytest.raises(UnreachableError):
            td_shortest_path(skims, "B", "A", 0, UE_COST)

    def test_lexicographic_tie_break(self, clock_20min):
        net = Network(
            [Node("O", True), Node("X"), Node("Y"), Node("D", True)],
            [Link("a1", "O", "X", 1000.0, 1, 20.0),
             Link("a2", "X", "D", 1000.0, 1, 20.0),
             Link("b1", "O", "Y", 1000.0, 1, 20.0),
             Link("b2", "Y", "D", 1000.0, 1, 20.0)])
        skims = const_skims(net, clock_20min,
                            {"a1": 50.0, "a2": 50.0, "b1": 50.0, "b2": 50.0})
        path, _ = td_shortest_path(skims, "O", "D", 0, UE_COST)
        assert path.link_ids == ("a1", "a2")

    def test_returned_cost_matches_path_cost(self, clock_20min):
        net = parallel_network()
        tt = {("S", t): 300.0 + 10.0 * t for t in range(4)}
        tt |= {("L", t): 420.0 for t in range(4)}
        skims = make_skims(net, clock_20min, tt)
        path, cost = td_shortest_path(skims, "O", "D", 1, UE_COST)
        assert cost == skims.path_cost(path, 1, UE_COST)

    @pytest.mark.parametrize("interval", [-1, 4, 5])
    def test_departure_interval_outside_clock_rejected(self, clock_20min, interval):
        # S is dearer than L only in the last interval, which a departure at
        # -1 used to read through negative indexing: ('L',) at 420 s.
        net = parallel_network()
        tt = {("S", t): 300.0 for t in range(3)} | {("S", 3): 900.0}
        tt |= {("L", t): 420.0 for t in range(4)}
        skims = make_skims(net, clock_20min, tt)
        assert td_shortest_path(skims, "O", "D", 0, UE_COST) == (Path(("S",), "O", "D"), 300.0)
        assert td_shortest_path(skims, "O", "D", 3, UE_COST) == (Path(("L",), "O", "D"), 420.0)
        for kind in (UE_COST, SO_COST):
            with pytest.raises(ValueError, match=f"departure interval {interval} outside"):
                td_shortest_path(skims, "O", "D", interval, kind)
            with pytest.raises(ValueError, match=f"departure interval {interval} outside"):
                skims.path_cost(Path(("S",), "O", "D"), interval, kind)

    def test_least_marginal_route_can_differ_from_least_time(self, clock_20min):
        net = parallel_network()
        skims = const_skims(net, clock_20min,
                            tt_by_link={"S": 300.0, "L": 420.0},
                            so={"S": 900.0, "L": 420.0})
        assert td_shortest_path(skims, "O", "D", 0, UE_COST)[0].link_ids == ("S",)
        assert td_shortest_path(skims, "O", "D", 0, SO_COST)[0].link_ids \
            == ("L",)
        assert skims.path_cost(Path(("S",), "O", "D"), 0, SO_COST) == 900.0


class TestSkimsFromLoading:
    @pytest.fixture
    def marginal_calls(self, monkeypatch):
        calls = []
        marginal_time = LoadingResult.marginal_time

        def counting(result, link_id, interval):
            calls.append((link_id, interval))
            return marginal_time(result, link_id, interval)

        monkeypatch.setattr(LoadingResult, "marginal_time", counting)
        return calls

    def loading(self, clock, clearance):
        plans = [Plan(UE, Path(("AM", "MB"), "A", "B"), 0, float(i))
                 for i in range(20)]
        return load_vehicles(two_link_network(), runs_of_one(plans), clock, clearance=clearance)

    def test_so_costs_only_from_a_loading_with_clearance(self, clock_20min,
                                                         marginal_calls):
        path = Path(("AM", "MB"), "A", "B")
        full = CostSkims.from_loading(self.loading(clock_20min, True))
        assert len(marginal_calls) == 2 * clock_20min.n_intervals
        marginal_calls.clear()
        bare = CostSkims.from_loading(self.loading(clock_20min, False))
        assert marginal_calls == []
        assert bare.path_cost(path, 0, UE_COST) == full.path_cost(path, 0, UE_COST)
        assert td_shortest_path(bare, "A", "B", 0, UE_COST) \
            == td_shortest_path(full, "A", "B", 0, UE_COST)
        with pytest.raises(ValueError, match="no SO costs"):
            bare.path_cost(path, 0, SO_COST)
        with pytest.raises(ValueError, match="no SO costs"):
            td_shortest_path(bare, "A", "B", 0, SO_COST)



    def test_tolled_columns_match_a_naive_sum_on_every_simple_path(self):
        # Three zone links and two outside them. The links take 50 s or more
        # at free flow on a 60 s interval, and the A-B-C-D stream queues, so
        # arrivals cross interval ends and travel times vary by interval.
        net = Network(
            [Node("A", True), Node("B"), Node("C"), Node("D", True)],
            [Link("AB", "A", "B", 1000.0, 1, 20.0, in_pricing_zone=True),
             Link("BC", "B", "C", 1000.0, 1, 20.0, in_pricing_zone=True),
             Link("CD", "C", "D", 1000.0, 1, 20.0, in_pricing_zone=True),
             Link("AC", "A", "C", 3000.0, 1, 20.0),
             Link("BD", "B", "D", 2000.0, 1, 20.0)])
        clock = Clock(step_s=1, interval_s=60, horizon_s=900)
        stream = Path(("AB", "BC", "CD"), "A", "D")
        side = Path(("AC", "CD"), "A", "D")
        plans = [Plan(SO if i % 3 == 0 else UE, stream, i // 60, float(i))
                 for i in range(150)]
        plans += [Plan(UE, side, i // 20, float(3 * i)) for i in range(40)]
        res = load_vehicles(net, runs_of_one(plans), clock)
        schedule = TollSchedule(alpha={0: 0.5, 1: 1.0, 2: 2.0, 4: 0.3},
                                omega={("AB", 1): 0.5, ("CD", 2): 1.0, ("CD", 3): 0.25})
        skims = CostSkims.from_loading(res, schedule, 15.0)

        def naive(path, tau, kind):
            """The path's cost, and the interval its last link is read at."""
            t = tau * clock.interval_s
            total = 0.0
            for lid in path.link_ids:
                k = clock.interval_of(t)
                link, st = net.links[lid], res.states[lid][k]
                if kind == SO_COST:
                    total += res.marginal_time(lid, k)
                elif link.in_pricing_zone:
                    total += st.travel_time + schedule.link_toll(link, k) / 15.0 * 3600.0
                else:
                    total += st.travel_time
                t += st.travel_time
            return total, k

        def simple_paths(origin, node, ids, seen):
            for link in links_from(net, node):
                if link.to_node not in seen:
                    lids = ids + (link.id,)
                    yield Path(lids, origin, link.to_node)
                    yield from simple_paths(origin, link.to_node, lids,
                                            seen | {link.to_node})

        paths = [p for n in sorted(net.nodes) for p in simple_paths(n, n, (), {n})]
        assert len(paths) == 10
        free = CostSkims.from_loading(res)
        tolled = crossed = 0
        for path in paths:
            for tau in range(clock.n_intervals):
                for kind in (UE_COST, SO_COST):
                    assert skims.path_cost(path, tau, kind) == naive(path, tau, kind)[0]
                tolled += skims.path_cost(path, tau, UE_COST) \
                    > free.path_cost(path, tau, UE_COST)
                crossed += naive(path, tau, UE_COST)[1] > tau
        # Tolls raise some UE costs, some links are read past the departure
        # interval, and the stream queues.
        assert tolled > 0 and crossed > 0
        assert any(st.travel_time > st.free_flow_time for st in res.states["AB"])


def oracle_tree(network, costs, tt, clock, origin, departure_interval):
    """Reference search: labels {node: (cost, link ids)} of every node
    reachable from `origin`, settled in (cost, link ids) order with the link
    ids carried on every heap entry. A relaxation is pushed only if it beats
    the least entry pushed for its node so far."""
    heap = [(0.0, (), origin, float(departure_interval * clock.interval_s))]
    pushed = {}
    tree = {}
    while heap:
        cost, lex, node, t = heapq.heappop(heap)
        if node in tree:
            continue
        tree[node] = (cost, lex)
        tau = clock.interval_of(t)
        for link in links_from(network, node):
            if link.to_node in tree:
                continue
            entry = (cost + costs[link.id][tau], lex + (link.id,), link.to_node,
                     t + tt[link.id][tau])
            best = pushed.get(link.to_node)
            if best is None or entry < best:
                pushed[link.to_node] = entry
                heapq.heappush(heap, entry)
    return tree


def oracle_distance_path(network, origin, destination):
    """Reference static search by link length: link ids, or None."""
    heap = [(0.0, (), origin)]
    settled = set()
    while heap:
        dist, lex, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            return lex or None
        for link in links_from(network, node):
            if link.to_node not in settled:
                heapq.heappush(heap, (dist + link.length, lex + (link.id,), link.to_node))
    return None


# Link ids whose string order differs from their order of creation.
LINK_IDS = ("b", "a10", "a", "B", "a2", "ab", "b0", "a1", "c", "ba", "A", "b1")


@st.composite
def search_cases(draw, times=st.integers(1, 25)):
    """A small random network, multi-interval skims and the skims' rows. All
    costs, times and lengths are whole numbers, so exact ties happen. Travel
    times are drawn from `times`."""
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 6)))]
    n_int = draw(st.integers(1, 3))
    clock = Clock(step_s=1, interval_s=10, horizon_s=10 * n_int)
    ids = draw(st.lists(st.sampled_from(LINK_IDS), unique=True, min_size=1))
    links = [Link(lid, draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)),
                  float(draw(st.integers(1, 3))), 1, 10.0) for lid in ids]

    def rows(values):
        return {lid: [float(draw(values)) for _ in range(n_int)] for lid in ids}

    cheap = st.integers(1, 3)
    tt, costs = rows(times), {UE_COST: rows(cheap), SO_COST: rows(cheap)}
    network = Network([Node(nid) for nid in nodes], links)
    skims = CostSkims(network, clock, columns(network, tt),
                      columns(network, costs[UE_COST]), columns(network, costs[SO_COST]))
    return network, clock, tt, costs, skims


class TestSearchOracle:
    @settings(max_examples=200, deadline=None)
    @given(search_cases())
    def test_labels_and_distance_paths_match_the_oracle(self, case):
        network, clock, tt, costs, skims = case
        nodes = sorted(network.nodes)
        for o in nodes:
            for tau in range(clock.n_intervals):
                for kind in (UE_COST, SO_COST):
                    tree = oracle_tree(network, costs[kind], tt, clock, o, tau)
                    for d in nodes:
                        label = tree.get(d, (None, ()))
                        if label[1]:
                            assert td_shortest_path(skims, o, d, tau, kind) \
                                == (Path(label[1], o, d), label[0])
                        else:
                            with pytest.raises(UnreachableError):
                                td_shortest_path(skims, o, d, tau, kind)
            reachable = []
            for d in nodes:
                lex = oracle_distance_path(network, o, d)
                if lex:
                    assert distance_paths(network, o, [d]) == [Path(lex, o, d)]
                    reachable.append(Path(lex, o, d))
                else:
                    with pytest.raises(UnreachableError):
                        distance_paths(network, o, [d])
                    with pytest.raises(UnreachableError, match=repr(d)):
                        distance_paths(network, o, [p.destination for p in reachable] + [d])
            assert distance_paths(network, o, [p.destination for p in reachable]) == reachable
            for unknown in ((o, "nowhere"), ("nowhere", o)):
                with pytest.raises(UnreachableError):
                    td_shortest_path(skims, *unknown, 0, UE_COST)
                with pytest.raises(UnreachableError):
                    distance_paths(network, unknown[0], [unknown[1]])


def naive_path_cost(clock, costs, tt, link_ids, departure_interval):
    """Reference path cost: each link read at `Clock.interval_of` its arrival."""
    t = departure_interval * clock.interval_s
    total = 0.0
    for lid in link_ids:
        tau = clock.interval_of(t)
        total += costs[lid][tau]
        t += tt[lid][tau]
    return total


class TestPathCostOracle:
    # Travel times in multiples of half the 10 s interval: arrivals land
    # exactly on interval ends, and a few links carry them past the horizon.
    @settings(max_examples=200, deadline=None)
    @given(search_cases(times=st.sampled_from([5, 10, 15, 20, 30])), st.data())
    def test_path_cost_matches_the_naive_sum_and_the_tree(self, case, data):
        network, clock, tt, costs, skims = case
        ids = sorted(tt)
        for tau in range(clock.n_intervals):
            for kind in (UE_COST, SO_COST):
                lids = tuple(data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                                max_size=6)))
                assert skims.path_cost(Path(lids, "o", "d"), tau, kind) \
                    == naive_path_cost(clock, costs[kind], tt, lids, tau)
                for o in sorted(network.nodes):
                    for d in sorted(network.nodes):
                        try:
                            path, cost = td_shortest_path(skims, o, d, tau, kind)
                        except UnreachableError:
                            continue
                        assert cost == skims.path_cost(path, tau, kind) \
                            == naive_path_cost(clock, costs[kind], tt, path.link_ids, tau)


class TestSearchPrecondition:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_skims_reject_entries_that_are_not_finite_and_positive(
            self, clock_20min, bad, row):
        net = two_link_network()
        rows = [{"AM": [5.0] * 4, "MB": [5.0] * 4} for _ in range(3)]
        rows[row]["MB"][2] = bad
        with pytest.raises(ValueError, match="link 'MB' .* in interval 2"):
            CostSkims(net, clock_20min, *(columns(net, r) for r in rows))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_distance_search_rejects_lengths_that_are_not_finite_and_positive(
            self, bad):
        net = two_link_network(l2=bad)
        for _ in range(2):      # on every call, not only the first
            with pytest.raises(ValueError, match=r"\['MB'\] have lengths that are not"):
                distance_paths(net, "A", ["B"])

    def test_overflowing_costs_leave_nodes_unreachable(self, clock_20min):
        # Finite entries whose sum overflows tie at infinity with a node not
        # yet reached; that tie must not relabel it.
        net = two_link_network()
        skims = const_skims(net, clock_20min, {"AM": 1e308, "MB": 1e308})
        with pytest.raises(UnreachableError):
            td_shortest_path(skims, "A", "B", 0, UE_COST)


class TestStaticShortestPath:
    def test_picks_shortest_by_length(self):
        net = Network(
            [Node("A", True), Node("B"), Node("C"), Node("D", True)],
            [Link("AB", "A", "B", 100.0, 1, 10.0),
             Link("BD", "B", "D", 100.0, 1, 10.0),
             Link("AC", "A", "C", 150.0, 1, 10.0),
             Link("CD", "C", "D", 10.0, 1, 10.0)])
        assert distance_paths(net, "A", ["D"]) == [Path(("AC", "CD"), "A", "D")]

    def test_unreachable_raises(self):
        with pytest.raises(UnreachableError):
            distance_paths(line_network(), "B", ["A"])

    def test_one_search_per_origin_gives_every_grid_pair_its_path(self):
        # Equal link lengths: most pairs have many shortest paths, so the
        # link-id tie-break decides each one.
        net = uniform_grid(8)
        nodes = sorted(net.nodes)
        for o in nodes:
            others = [d for d in nodes if d != o]
            assert distance_paths(net, o, others) \
                == [Path(oracle_distance_path(net, o, d), o, d) for d in others]


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

    def test_eviction_without_intervals_removes_oldest(self):
        ps = PathSet("O", "D", 1, ())
        ps.insert(path_named("a"))
        assert ps.insert(path_named("b")) == 0
        assert [p.link_ids for p in ps.paths] == [("b",)]

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
