"""Mesoscopic loader: free flow, bottleneck oracle, conservation, FIFO,
determinism, discretization, marginal times, adaptive FD blending."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from tollsim.demand import SO, UE
from tollsim.loading import (GridlockError, VehiclePlan, discretize_assignments,
                             load_network, load_vehicles)
from tollsim.network import Clock, InvalidPathError, Path

from conftest import line_network, parallel_network, two_link_network
from test_golden import loading_dump

AB = Path(("AB",), "A", "B")


def stream(n, rate_s=1.0, cls=UE, path=AB, interval_s=300):
    """n vehicles departing every 1/rate_s seconds from t=0."""
    return [VehiclePlan(cls, path, int(i / rate_s) // interval_s, i / rate_s)
            for i in range(n)]


class TestFreeFlow:
    def test_single_vehicle_travels_at_free_flow(self, clock_20min):
        net = line_network(length=1000.0, speed=20.0)
        res = load_vehicles(net, [VehiclePlan(UE, AB, 0, 0.0)], clock_20min)
        assert res.vehicles[0].travel_time == pytest.approx(50.0)

    def test_two_link_chain_free_flow(self, clock_20min):
        net = two_link_network(l1=600.0, l2=400.0, speed=20.0)
        p = Path(("AM", "MB"), "A", "B")
        res = load_vehicles(net, [VehiclePlan(UE, p, 0, 0.0)], clock_20min)
        assert res.vehicles[0].travel_time == pytest.approx(50.0)

    def test_travel_time_never_below_free_flow(self, clock_20min):
        net = line_network()
        res = load_vehicles(net, stream(100), clock_20min)
        ff = net.links["AB"].free_flow_time
        for states in res.states.values():
            for st in states:
                assert st.travel_time >= ff - 1e-9


class TestBottleneckOracle:
    def test_per_vehicle_delays_match_point_queue(self, clock_20min):
        # 1 veh/s into a server of capacity V/(V*R+L) = 20/37 veh/s.
        net = line_network(length=1000.0, speed=20.0)
        res = load_vehicles(net, stream(120), clock_20min)
        cap = 20.0 / 37.0
        step = clock_20min.step_s
        for i, v in enumerate(sorted(res.vehicles,
                                     key=lambda v: v.departure_time)):
            oracle = max(0.0, i * (1.0 / cap - 1.0))
            assert abs((v.travel_time - 50.0) - oracle) <= step + 1e-9

    def test_last_vehicle_delay_formula(self, clock_20min):
        # delay of the last of D*T vehicles = T*(D - q_max)/q_max.
        net = line_network(length=1000.0, speed=20.0)
        D, T = 1.0, 120.0
        res = load_vehicles(net, stream(int(D * T), rate_s=D), clock_20min)
        cap = 20.0 / 37.0
        expected = (T - 1.0 / D) * (D - cap) / cap  # last departure at T - 1/D
        last = max(res.vehicles, key=lambda v: v.departure_time)
        assert abs((last.travel_time - 50.0) - expected) <= 2.0

    def test_conservation(self, clock_20min):
        net = line_network()
        res = load_vehicles(net, stream(120), clock_20min)
        assert res.vehicles_entered == res.vehicles_exited == 120

    def test_fifo_exit_order_matches_entry_order(self, clock_20min):
        net = line_network()
        res = load_vehicles(net, stream(80), clock_20min)
        ordered = sorted(res.vehicles, key=lambda v: v.departure_time)
        exits = [v.exit_time for v in ordered]
        assert exits == sorted(exits)

    def test_determinism(self, clock_20min):
        net = line_network()
        one = load_vehicles(net, stream(100), clock_20min)
        two = load_vehicles(net, stream(100), clock_20min)
        assert [(v.vehicle_id, v.exit_time) for v in one.vehicles] \
            == [(v.vehicle_id, v.exit_time) for v in two.vehicles]
        assert one.states == two.states


class TestGridlock:
    def test_unfinished_vehicles_raise_with_count(self):
        # 120 departures in 120 s through a 0.54 veh/s server: 38 leave,
        # 29 are still on AB and 53 never left the origin.
        net = line_network(length=1000.0, speed=20.0)
        clock = Clock(step_s=1, interval_s=60, horizon_s=120)
        with pytest.raises(GridlockError) as err:
            load_vehicles(net, stream(120, interval_s=60), clock)
        assert err.value.stranded == 82
        assert err.value.stranded_by_link == {"AB": 29}
        assert err.value.stranded_by_od == {("A", "B"): 82}
        assert "links AB (29)" in str(err.value)
        assert "OD pairs A->B (82)" in str(err.value)


class TestPlanValidation:
    @pytest.mark.parametrize("departure", [float("nan"), float("inf")])
    def test_non_finite_departure_rejected(self, clock_20min, departure):
        with pytest.raises(ValueError, match="finite"):
            load_vehicles(line_network(), [VehiclePlan(UE, AB, 0, departure)],
                          clock_20min)
        # Among finite departures, too: the offender sorts anywhere.
        plans = [VehiclePlan(UE, AB, 0, 10.0), VehiclePlan(SO, AB, 0, departure),
                 VehiclePlan(UE, AB, 0, 20.0), VehiclePlan(UE, AB, 0, 5.0)]
        with pytest.raises(ValueError,
                           match=f"departure time must be finite, got {departure}"):
            load_vehicles(line_network(), plans, clock_20min)

    @pytest.mark.parametrize("departure", [-50.0, 1200.0, 1500.0])
    def test_departure_outside_horizon_rejected(self, clock_20min, departure):
        with pytest.raises(ValueError, match=f"departure time {departure} s"):
            load_vehicles(line_network(length=500.0, speed=15.0),
                          [VehiclePlan(UE, AB, 0, departure)], clock_20min)

    def test_departure_after_last_step_start_rejected(self):
        # On a 2 s clock the last step starts at 1798 s; a 1799 s departure
        # would reach no step and strand its vehicle.
        clock = Clock(step_s=2, interval_s=300, horizon_s=1800)
        net = line_network(length=20.0)
        res = load_vehicles(net, [VehiclePlan(UE, AB, 5, 1796.0)], clock)
        assert res.vehicles[0].exit_time == 1798.0
        with pytest.raises(ValueError, match="departure time 1799.0 s"):
            load_vehicles(net, [VehiclePlan(UE, AB, 5, 1799.0)], clock)

    def test_equal_paths_load_as_one_shared_path(self, clock_1h):
        # Vehicles that tie on departure, class and path value keep their
        # input order whether or not they share one path object. The
        # interval label is not part of the sort, so it shows that order.
        net = parallel_network()
        s, l = Path(("S",), "O", "D"), Path(("L",), "O", "D")
        s2, l2 = Path(("S",), "O", "D"), Path(("L",), "O", "D")
        shared = [VehiclePlan(UE, l, 2, 60.0), VehiclePlan(UE, s, 1, 0.0),
                  VehiclePlan(UE, l, 0, 60.0), VehiclePlan(UE, s, 0, 0.0),
                  VehiclePlan(SO, s, 3, 0.0), VehiclePlan(UE, s, 2, 0.0)]
        copies = [VehiclePlan(UE, l2, 2, 60.0), VehiclePlan(UE, s2, 1, 0.0),
                  VehiclePlan(UE, l, 0, 60.0), VehiclePlan(UE, s, 0, 0.0),
                  VehiclePlan(SO, s2, 3, 0.0), VehiclePlan(UE, s2, 2, 0.0)]
        one = load_vehicles(net, shared, clock_1h)
        assert [v.interval for v in one.vehicles] == [1, 0, 2, 3, 2, 0]
        assert loading_dump(load_vehicles(net, copies, clock_1h)) == loading_dump(one)

    def test_invalid_path_rejected_even_when_shared(self, clock_20min):
        bad = Path(("AB",), "B", "A")
        plans = [VehiclePlan(UE, AB, 0, 0.0), VehiclePlan(UE, bad, 0, 1.0),
                 VehiclePlan(UE, bad, 0, 2.0)]
        with pytest.raises(InvalidPathError):
            load_vehicles(line_network(), plans, clock_20min)

    def test_each_path_value_validated_once_per_network(self, clock_20min,
                                                        monkeypatch):
        checked = []
        validate = Path.validate
        monkeypatch.setattr(Path, "validate",
                            lambda path, net: checked.append(path) or validate(path, net))
        net = line_network()
        bad = Path(("AB",), "B", "A")
        for _ in range(2):
            load_vehicles(net, [VehiclePlan(UE, Path(("AB",), "A", "B"), 0, 0.0)],
                          clock_20min)
            with pytest.raises(InvalidPathError):
                load_vehicles(net, [VehiclePlan(UE, bad, 0, 0.0)], clock_20min)
        assert checked == [AB, bad, bad]
        load_vehicles(line_network(), [VehiclePlan(UE, AB, 0, 0.0)], clock_20min)
        assert checked == [AB, bad, bad, AB]


class TestDiscretization:
    def test_total_rounding(self, clock_20min):
        plans = discretize_assignments([(UE, 0, [AB], [10.4])], clock_20min)
        assert len(plans) == 10

    def test_largest_remainder_share(self, clock_20min):
        p2 = Path(("AB2",), "A", "B")
        plans = discretize_assignments([(UE, 0, [AB, p2], [2.25, 0.75])],
                                       clock_20min)
        by_path = {}
        for pl in plans:
            by_path[pl.path.link_ids] = by_path.get(pl.path.link_ids, 0) + 1
        assert by_path == {("AB",): 2, ("AB2",): 1}

    def test_departures_spread_uniformly(self, clock_20min):
        plans = discretize_assignments([(UE, 1, [AB], [3.0])], clock_20min)
        assert sorted(p.departure_time for p in plans) == [300.0, 400.0, 500.0]

    def test_plans_are_vehicle_plans_at_exact_seconds(self, clock_20min):
        # Seven vehicles in a 5 s interval share departure seconds.
        crowded = discretize_assignments([(SO, 1, [AB], [7.0])],
                                         Clock(step_s=1, interval_s=5, horizon_s=20))
        ab2 = Path(("AB2",), "A", "B")
        # Two paths, listed out of link-id order, with 1 and 2 vehicles.
        shared = discretize_assignments([(UE, 2, [ab2, AB], [2.25, 0.75])],
                                        clock_20min)
        for plans in (crowded, shared):
            assert all(type(p) is VehiclePlan for p in plans)
        # `len()` counts vehicles, and iteration yields them in group,
        # link-id and departure order, the same on every pass.
        assert len(crowded) == 7 and len(shared) == 3
        assert list(shared) == list(shared)
        assert [p.departure_time for p in crowded] == [5.0, 5.0, 6.0, 7.0, 7.0, 8.0, 9.0]
        assert {(p.vehicle_class, p.path, p.interval) for p in crowded} == {(SO, AB, 1)}
        assert [(p.vehicle_class, p.path, p.interval, p.departure_time)
                for p in shared] == [(UE, AB, 2, 600.0), (UE, ab2, 2, 600.0),
                                     (UE, ab2, 2, 750.0)]
        assert list(shared)[2] == VehiclePlan(UE, ab2, 2, 750.0)

    def test_negative_flow_rejected(self, clock_20min):
        # NaN would otherwise be dropped silently (it is neither > 0 nor
        # < 0) and inf would overflow the rounding.
        ab2 = Path(("AB2",), "A", "B")
        for flow in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and non-negative"):
                discretize_assignments([(UE, 0, [AB], [flow])], clock_20min)
            with pytest.raises(ValueError, match="finite and non-negative"):
                discretize_assignments([(UE, 0, [AB, ab2], [2.0, flow])], clock_20min)

    @pytest.mark.parametrize("interval", [-1, 4])
    def test_interval_outside_clock_rejected(self, clock_20min, interval):
        # At -1 the vehicles would depart before t = 0; at n_intervals they
        # would depart at the horizon and be reported as a gridlock.
        with pytest.raises(ValueError, match=f"departure interval {interval} outside"):
            discretize_assignments([(UE, interval, [AB], [3.0])], clock_20min)

    def test_load_network_runs_discretized_flows(self, clock_20min):
        net = line_network()
        res = load_network(net, [(UE, 0, [AB], [25.0])], clock_20min)
        assert res.vehicles_entered == 25

    def test_zero_flow_path_gets_no_vehicle(self, clock_20min):
        p2 = Path(("AB2",), "A", "B")
        plans = discretize_assignments([(UE, 0, [AB, p2], [0.0, 2.6])],
                                       clock_20min)
        assert [p.path for p in plans] == [p2, p2, p2]

    def test_mixed_od_group_rejected(self, clock_20min):
        ba = Path(("BA",), "B", "A")
        with pytest.raises(ValueError, match="share one OD pair"):
            discretize_assignments([(UE, 0, [AB, ba], [1.0, 1.0])], clock_20min)

    def test_group_and_path_order_do_not_change_loading(self, clock_1h):
        # Equal remainders (2.5 + 2.5 of 5) make the tie order matter.
        net = parallel_network()
        s, l = Path(("S",), "O", "D"), Path(("L",), "O", "D")
        groups = [(UE, 0, [s, l], [2.5, 2.5]), (SO, 0, [s, l], [1.2, 3.7]),
                  (UE, 1, [s, l], [4.4, 0.0]), (SO, 2, [l], [6.0])]
        flipped = [(cls, tau, paths[::-1], flows[::-1])
                   for cls, tau, paths, flows in reversed(groups)]
        one = load_network(net, groups, clock_1h)
        two = load_network(net, flipped, clock_1h)

        def rows(res):
            return [(v.vehicle_id, v.vehicle_class, v.path.link_ids, v.interval,
                     v.departure_time, v.link_entries, v.exit_time)
                    for v in res.vehicles]
        assert rows(one) == rows(two)
        assert len(rows(one)) == 5 + 5 + 4 + 6
        assert one.states == two.states


def spec_discretize(groups, clock):
    """The reference rounding: every group, one path or several, goes through
    the OD set, the link-id sort and largest-remainder rounding."""
    plans = []
    interval_s = clock.interval_s
    for cls, tau, paths, flows in groups:
        if tau not in range(clock.n_intervals):
            raise ValueError(f"departure interval {tau} outside the clock's horizon")
        ods = {(p.origin, p.destination) for p in paths}
        if len(ods) > 1:
            raise ValueError(f"a group's paths must share one OD pair, got {sorted(ods)}")
        if not all(0.0 <= f < math.inf for f in flows):
            raise ValueError("path flows must be finite and non-negative")
        members = sorted([(p, f) for p, f in zip(paths, flows, strict=True) if f > 0],
                         key=lambda m: m[0].link_ids)
        total = sum(f for _, f in members)
        n_total = int(math.floor(total + 0.5))
        if n_total == 0:
            continue
        quotas = [f * n_total / total for _, f in members]
        counts = [int(math.floor(q)) for q in quotas]
        remainder = n_total - sum(counts)
        order = sorted(range(len(members)),
                       key=lambda i: (-(quotas[i] - counts[i]), i))
        for i in order[:remainder]:
            counts[i] += 1
        start = tau * interval_s
        for (path, _), n in zip(members, counts):
            for j in range(n):
                plans.append(VehiclePlan(cls, path, tau,
                                         float(start + (j * interval_s) // n)))
    return plans


# Whole, half-way (rounding ties) and fractional flows, and zero.
FLOWS = st.one_of(st.just(0.0), st.integers(0, 9).map(float),
                  st.integers(0, 9).map(lambda k: k + 0.5),
                  st.floats(0.0, 9.0, allow_nan=False))


@st.composite
def discretize_cases(draw):
    """A clock and groups of 1-5 paths of one OD pair each. Paths are fresh
    objects drawn from a few link-id sequences, so equal link ids in
    distinct `Path`s occur, and so do repeated (class, OD, interval) keys."""
    n_int = draw(st.integers(1, 3))
    interval_s = draw(st.sampled_from([5, 300]))
    clock = Clock(step_s=1, interval_s=interval_s, horizon_s=interval_s * n_int)
    groups = []
    for _ in range(draw(st.integers(0, 6))):
        od = draw(st.sampled_from([("A", "B"), ("A", "C")]))
        lids = st.sampled_from([("x",), ("y",), ("x", "z"), ("b",), ("a", "b")])
        paths = [Path(draw(lids), *od) for _ in range(draw(st.integers(1, 5)))]
        groups.append((draw(st.sampled_from([UE, SO])), draw(st.integers(0, n_int - 1)),
                       paths, [draw(FLOWS) for _ in paths]))
    if groups and draw(st.booleans()):
        groups.append(draw(st.sampled_from(groups)))     # the same key twice
    return clock, groups


def outcome(discretize, groups, clock):
    """The plans as a list, their count, each path's identity beside it, or
    the ValueError message."""
    try:
        plans = discretize(groups, clock)
    except ValueError as exc:
        return str(exc)
    return list(plans), len(plans), [id(p.path) for p in plans]


class TestDiscretizationOracle:
    @settings(max_examples=300, deadline=None)
    @given(discretize_cases())
    def test_plans_match_the_spec(self, case):
        clock, groups = case
        assert outcome(discretize_assignments, groups, clock) \
            == outcome(spec_discretize, groups, clock)

    @settings(max_examples=300, deadline=None)
    @given(discretize_cases(), st.data())
    def test_bad_groups_raise_as_the_spec_does(self, case, data):
        clock, groups = case
        if not groups:
            groups = [(UE, 0, [AB], [1.0])]
        k = data.draw(st.integers(0, len(groups) - 1))
        cls, tau, paths, flows = groups[k]
        paths, flows = list(paths), list(flows)
        for fault in data.draw(st.lists(st.sampled_from(
                ["od", "negative", "nan", "early", "late"]), min_size=1, max_size=3)):
            i = data.draw(st.integers(0, len(paths) - 1))
            if fault == "od":
                paths.append(Path(("w",), "B", "A"))
                flows.append(data.draw(FLOWS))
            elif fault == "negative":
                flows[i] = -data.draw(st.floats(1e-9, 9.0))
            elif fault == "nan":
                flows[i] = math.nan
            else:
                tau = -1 if fault == "early" else clock.n_intervals
        groups = groups[:k] + [(cls, tau, paths, flows)] + groups[k + 1:]
        expected = outcome(spec_discretize, groups, clock)
        assert isinstance(expected, str)
        assert outcome(discretize_assignments, groups, clock) == expected


class TestMarginalTime:
    def test_uncongested_marginal_equals_travel_time(self, clock_20min):
        net = line_network(length=1000.0, speed=20.0)
        plans = [VehiclePlan(UE, AB, 0, 30.0 * i) for i in range(5)]
        res = load_vehicles(net, plans, clock_20min)
        # With no queue, the only externality is at most one residual
        # server-headway step.
        assert res.marginal_time("AB", 0) == pytest.approx(
            res.states["AB"][0].travel_time, abs=clock_20min.step_s)

    def test_marginal_at_least_travel_time(self, clock_20min):
        net = line_network()
        res = load_vehicles(net, stream(120), clock_20min)
        for tau in range(clock_20min.n_intervals):
            assert (res.marginal_time("AB", tau)
                    >= res.states["AB"][tau].travel_time - 1e-9)

    def test_bottleneck_marginal_is_tt_plus_clearance(self, clock_20min):
        net = line_network(length=1000.0, speed=20.0)
        res = load_vehicles(net, stream(120), clock_20min)
        last_exit = max(v.exit_time for v in res.vehicles)
        # The skim probes the queue at the exit of a vehicle entering at the
        # interval's mean entry time; the queue then stands until last_exit.
        tt = res.states["AB"][0].travel_time
        mean_entry = sum(v.link_entries[0] for v in res.vehicles) / len(res.vehicles)
        exit_time = mean_entry + tt
        expected = tt + (last_exit - exit_time)
        got = res.marginal_time("AB", 0)
        assert abs(got - expected) <= 2.0 * clock_20min.step_s

    def test_path_marginal_matches_plus_one_vehicle_resimulation(self,
                                                                 clock_20min):
        net = line_network(length=1000.0, speed=20.0)
        plans = stream(120)
        base = load_vehicles(net, plans, clock_20min)
        probe = VehiclePlan(UE, AB, 0, 0.0)
        plus = load_vehicles(net, plans + [probe], clock_20min)
        brute = (plus.tstt_veh_h - base.tstt_veh_h) * 3600.0
        local = base.path_marginal_time(AB, 0)
        assert abs(local - brute) / brute <= 0.20

    @pytest.mark.parametrize("tau", [-1, 4], ids=["before", "past"])
    def test_interval_outside_the_clock_is_rejected(self, clock_20min, tau):
        # A negative interval would read the last interval's state.
        res = load_vehicles(line_network(), stream(120), clock_20min)
        assert clock_20min.n_intervals == 4
        for read in (lambda: res.marginal_time("AB", tau),
                     lambda: res.path_marginal_time(AB, tau)):
            with pytest.raises(ValueError,
                               match=rf"departure interval {tau} outside the clock's horizon"):
                read()

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_clearance_time_is_rejected(self, clock_20min, t):
        res = load_vehicles(line_network(), stream(120), clock_20min)
        with pytest.raises(ValueError, match=r"time t must be finite, got"):
            res.queue_clearance_delay("AB", t)


class TestAdaptiveFd:
    def test_first_interval_uses_hv_reaction(self, clock_20min):
        net = line_network()
        res = load_vehicles(net, stream(10, cls=SO), clock_20min)
        assert res.states["AB"][0].reaction_time == pytest.approx(1.5)

    def test_next_interval_blends_previous_entering_mix(self, clock_20min):
        net = line_network()
        # All-CAV entries during interval 0 -> interval 1 runs at R_cav.
        res = load_vehicles(net, stream(200, cls=SO), clock_20min)
        assert res.states["AB"][0].cav_fraction == 0.0
        assert res.states["AB"][1].cav_fraction == pytest.approx(1.0)
        assert res.states["AB"][1].reaction_time == pytest.approx(1.0)

    def test_cav_stream_discharges_faster_than_hv(self, clock_20min):
        net = line_network(length=1000.0, speed=50.0 / 3.0)
        hv = load_vehicles(net, stream(400, rate_s=2.0, cls=UE), clock_20min)
        cav = load_vehicles(net, stream(400, rate_s=2.0, cls=SO), clock_20min)
        # Saturated interval 1 flows approach each class's capacity.
        q_hv = hv.states["AB"][1].flow
        q_cav = cav.states["AB"][1].flow
        assert q_cav > q_hv
        assert q_cav / q_hv == pytest.approx(2535.2 / 1875.0, rel=0.10)

    def test_empty_interval_carries_previous_blend(self, clock_20min):
        net = line_network()
        res = load_vehicles(net, stream(10, cls=SO), clock_20min)
        # Interval 2 has no entries; blend from interval 1 carries forward.
        assert res.states["AB"][2].reaction_time \
            == res.states["AB"][1].reaction_time
