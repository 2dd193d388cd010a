"""Run metrics: TSTT, hysteresis-loop area, zone times and toll accounting."""
import math

import pytest

from tollsim.analysis import (class_zone_summary, hysteresis_area,
                              vehicle_toll, vehicle_zone_time)
from tollsim.demand import SO, UE
from tollsim.loading import VehiclePlan, load_vehicles
from tollsim.network import Path
from tollsim.pricing import NFDPoint, TollSchedule

from conftest import line_network, two_link_network

AB = Path(("AB",), "A", "B")


class TestTstt:
    def test_single_free_flow_vehicle(self, clock_20min):
        net = line_network(length=1000.0, speed=20.0)
        res = load_vehicles(net, [VehiclePlan(UE, AB, 0, 0.0)], clock_20min)
        assert res.tstt_veh_h == pytest.approx(50.0 / 3600.0, rel=1e-12)

    def test_linear_in_uncongested_vehicle_count(self, clock_20min):
        net = line_network(length=1000.0, speed=20.0)
        plans = [VehiclePlan(UE, AB, 0, 30.0 * i) for i in range(8)]
        res = load_vehicles(net, plans, clock_20min)
        assert res.tstt_veh_h == pytest.approx(8 * 50.0 / 3600.0, rel=1e-9)

    def test_triangular_queue_delay_oracle(self, clock_20min):
        # D veh/s for T seconds into capacity q = D/rho adds a delay triangle
        # of area D*T^2*(rho - 1)/2 on top of the free-flow time.
        net = line_network(length=1000.0, speed=20.0)
        D, T = 1.0, 120.0
        q_cap = 20.0 / 37.0
        rho = D / q_cap
        plans = [VehiclePlan(UE, AB, 0, float(i)) for i in range(int(D * T))]
        res = load_vehicles(net, plans, clock_20min)
        expected = (D * T * 50.0 + D * T * T * (rho - 1.0) / 2.0) / 3600.0
        assert res.tstt_veh_h == pytest.approx(expected, rel=0.05)


def pts(values):
    return [NFDPoint(i, k, q) for i, (k, q) in enumerate(values)]


class TestHysteresisArea:
    SQUARE = [(10.0, 400.0), (20.0, 400.0), (20.0, 500.0), (10.0, 500.0)]

    def test_square_loop_area(self):
        assert hysteresis_area(pts(self.SQUARE)) == pytest.approx(1000.0,
                                                                  rel=1e-12)

    def test_retraced_curve_has_zero_area(self):
        line = [(5.0, 100.0), (10.0, 200.0), (15.0, 300.0),
                (10.0, 200.0), (5.0, 100.0)]
        assert hysteresis_area(pts(line)) == pytest.approx(0.0, abs=1e-9)

    def test_orientation_insensitive(self):
        fwd = hysteresis_area(pts(self.SQUARE))
        rev = hysteresis_area(pts(list(reversed(self.SQUARE))))
        assert fwd == rev

    def test_translation_invariant(self):
        shifted = [(k + 100.0, q + 9000.0) for k, q in self.SQUARE]
        assert hysteresis_area(pts(shifted)) == pytest.approx(1000.0, rel=1e-9)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            hysteresis_area(pts(self.SQUARE[:2]))


class TestZoneAccounting:
    def zone_net(self):
        return two_link_network(l1=1000.0, l2=500.0, zone=("MB",))

    def test_zone_time_is_time_on_zone_links_only(self, clock_20min):
        net = self.zone_net()
        p = Path(("AM", "MB"), "A", "B")
        res = load_vehicles(net, [VehiclePlan(UE, p, 0, 0.0)], clock_20min)
        v = res.vehicles[0]
        assert vehicle_zone_time(v, net) == pytest.approx(25.0, abs=1.0)
        assert vehicle_zone_time(v, net) < v.travel_time

    def test_vehicle_outside_zone_pays_and_spends_nothing(self, clock_20min):
        net = two_link_network(l1=1000.0, l2=500.0, zone=())
        p = Path(("AM", "MB"), "A", "B")
        res = load_vehicles(net, [VehiclePlan(UE, p, 0, 0.0)], clock_20min)
        sched = TollSchedule(alpha={0: 5.0})
        assert vehicle_zone_time(res.vehicles[0], net) == 0.0
        assert vehicle_toll(res.vehicles[0], net, sched, clock_20min) == 0.0

    def test_ue_vehicle_pays_distance_toll_so_is_exempt(self, clock_20min):
        net = self.zone_net()
        p = Path(("AM", "MB"), "A", "B")
        res = load_vehicles(net, [VehiclePlan(UE, p, 0, 0.0),
                                  VehiclePlan(SO, p, 0, 10.0)], clock_20min)
        sched = TollSchedule(alpha={0: 0.48})  # 0.48 $/km * 0.5 km = $0.24
        ue_veh = next(v for v in res.vehicles if v.vehicle_class == UE)
        so_veh = next(v for v in res.vehicles if v.vehicle_class == SO)
        toll = vehicle_toll(ue_veh, net, sched, clock_20min)
        assert toll == pytest.approx(0.24, rel=1e-12)
        # At 15 $/h VOT that toll is worth 0.96 minutes of travel time.
        assert toll * 60.0 / 15.0 == pytest.approx(0.96, rel=1e-12)
        assert vehicle_toll(so_veh, net, sched, clock_20min) == 0.0

    def test_toll_read_at_link_entry_interval(self, clock_20min):
        net = self.zone_net()
        p = Path(("AM", "MB"), "A", "B")
        # Departure late in interval 0; the zone link is entered in interval 1.
        res = load_vehicles(net, [VehiclePlan(UE, p, 0, 280.0)], clock_20min)
        sched = TollSchedule(alpha={0: 1.0, 1: 2.0})
        assert vehicle_toll(res.vehicles[0], net, sched, clock_20min) \
            == pytest.approx(2.0 * 0.5, rel=1e-12)


class TestClassZoneSummary:
    def test_summary_fields(self, clock_20min):
        net = two_link_network(l1=1000.0, l2=500.0, zone=("MB",))
        p = Path(("AM", "MB"), "A", "B")
        plans = [VehiclePlan(UE, p, 0, 10.0 * i) for i in range(5)] \
            + [VehiclePlan(SO, p, 0, 5.0 + 10.0 * i) for i in range(5)]
        res = load_vehicles(net, plans, clock_20min)
        sched = TollSchedule(alpha={tau: 1.0 for tau in range(4)})
        m = class_zone_summary(res, net, toll_schedule=sched)
        assert m.tstt_veh_h == pytest.approx(res.tstt_veh_h)
        assert m.ue_zone_tt_min == pytest.approx(25.0 / 60.0, rel=0.10)
        assert m.so_zone_tt_min == pytest.approx(25.0 / 60.0, rel=0.10)
        assert m.mean_toll_usd == pytest.approx(0.5, rel=1e-9)
        assert m.bc_ratio is None  # no baseline supplied
        assert m.zone_k_mean >= 0.0
        assert not math.isnan(m.hysteresis_area)

    def test_no_toll_schedule_means_zero_mean_toll(self, clock_20min):
        net = two_link_network(l1=1000.0, l2=500.0, zone=("MB",))
        p = Path(("AM", "MB"), "A", "B")
        res = load_vehicles(net, [VehiclePlan(UE, p, 0, 0.0)], clock_20min)
        m = class_zone_summary(res, net)
        assert m.mean_toll_usd == 0.0
        assert m.so_zone_tt_min is None  # no SO vehicles in the run
