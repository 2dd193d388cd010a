"""Mesoscopic loader: free flow, bottleneck oracle, conservation, FIFO,
determinism, discretization, marginal times, adaptive FD blending."""
import pytest

from tollsim.demand import SO, UE
from tollsim.loading import (GridlockError, PathAssignment, VehiclePlan,
                             discretize_assignments, load_network,
                             load_vehicles)
from tollsim.network import Clock, InvalidPathError, Path

from conftest import line_network, two_link_network

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

    def test_invalid_path_rejected_even_when_shared(self, clock_20min):
        bad = Path(("AB",), "B", "A")
        plans = [VehiclePlan(UE, AB, 0, 0.0), VehiclePlan(UE, bad, 0, 1.0),
                 VehiclePlan(UE, bad, 0, 2.0)]
        with pytest.raises(InvalidPathError):
            load_vehicles(line_network(), plans, clock_20min)


class TestDiscretization:
    def test_total_rounding(self, clock_20min):
        plans = discretize_assignments(
            [PathAssignment(UE, AB, 0, 10.4)], clock_20min)
        assert len(plans) == 10

    def test_largest_remainder_share(self, clock_20min):
        p2 = Path(("AB2",), "A", "B")
        plans = discretize_assignments(
            [PathAssignment(UE, AB, 0, 2.25), PathAssignment(UE, p2, 0, 0.75)],
            clock_20min)
        by_path = {}
        for pl in plans:
            by_path[pl.path.link_ids] = by_path.get(pl.path.link_ids, 0) + 1
        assert by_path == {("AB",): 2, ("AB2",): 1}

    def test_departures_spread_uniformly(self, clock_20min):
        plans = discretize_assignments(
            [PathAssignment(UE, AB, 1, 3.0)], clock_20min)
        assert sorted(p.departure_time for p in plans) == [300.0, 400.0, 500.0]

    def test_negative_flow_rejected(self, clock_20min):
        with pytest.raises(ValueError):
            discretize_assignments([PathAssignment(UE, AB, 0, -1.0)],
                                   clock_20min)

    def test_load_network_runs_discretized_flows(self, clock_20min):
        net = line_network()
        res = load_network(net, [PathAssignment(UE, AB, 0, 25.0)], clock_20min)
        assert res.vehicles_entered == 25


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
