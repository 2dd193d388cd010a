"""Distance tolling, NFD aggregation, critical-density estimation, the PI
controller and the bi-level outer loop."""
import pytest
from hypothesis import given, strategies as st

from tollsim.demand import UE, split_demand
from tollsim.equilibrium import SolverConfig, StepSchedule, solve_mixed_equilibrium
from tollsim.loading import VehiclePlan, load_vehicles
from tollsim.network import Link, Network, Node, Path
from tollsim.pricing import (CriticalDensityEstimate, NFDPoint, PIState,
                             TollConfig, TollSchedule, bilevel_solve,
                             congestion_weight, estimate_critical_density,
                             nfd_point, nfd_series, pi_update)
from tollsim.routing import SO_COST, UE_COST, CostSkims

from conftest import two_link_network


class TestCongestionWeight:
    def test_relative_delay(self):
        assert congestion_weight(60.0, 50.0) == pytest.approx(0.2)

    def test_free_flow_clamps_to_zero(self):
        assert congestion_weight(40.0, 50.0) == 0.0

    def test_upper_clamp(self):
        assert congestion_weight(200.0, 50.0, omega_max=1.0) == 1.0
        assert congestion_weight(200.0, 50.0, omega_max=0.5) == 0.5

    def test_bad_free_flow_time_rejected(self):
        with pytest.raises(ValueError):
            congestion_weight(60.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=1.0, max_value=1e4))
    def test_always_within_bounds(self, tt, t0):
        assert 0.0 <= congestion_weight(tt, t0) <= 1.0


def path_toll(schedule, path, net, interval=0):
    """The solver's per-link toll summed over a path entered in `interval`."""
    return sum(schedule.link_toll(net.links[lid], interval)
               for lid in path.link_ids)


class TestPathToll:
    def zone_net(self):
        return two_link_network(l1=400.0, l2=600.0, zone=("AM", "MB"))

    def test_weighted_fixture_sixty_cents(self):
        # 0.5 $/km * (1.5 * 0.4 km + 1.0 * 0.6 km) = 0.60 $
        net = self.zone_net()
        p = Path(("AM", "MB"), "A", "B")
        schedule = TollSchedule(alpha={0: 0.5},
                                omega={("AM", 0): 0.5, ("MB", 0): 0.0})
        assert path_toll(schedule, p, net) == pytest.approx(0.60, rel=1e-12)

    def test_zero_weights_reduce_to_flat_distance_toll(self):
        net = self.zone_net()
        p = Path(("AM", "MB"), "A", "B")
        assert path_toll(TollSchedule(alpha={0: 0.5}), p, net) \
            == pytest.approx(0.5 * 1.0, rel=1e-12)

    def test_non_zone_links_free(self):
        net = two_link_network(l1=400.0, l2=600.0, zone=("MB",))
        p = Path(("AM", "MB"), "A", "B")
        assert path_toll(TollSchedule(alpha={0: 1.0}), p, net) \
            == pytest.approx(0.6, rel=1e-12)

    def test_monotone_in_rate_and_weights(self):
        net = self.zone_net()
        p = Path(("AM", "MB"), "A", "B")
        half = path_toll(TollSchedule(alpha={0: 0.5}), p, net)
        assert half < path_toll(TollSchedule(alpha={0: 1.0}), p, net)
        assert half < path_toll(TollSchedule(alpha={0: 0.5},
                                             omega={("AM", 0): 0.5}), p, net)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            TollSchedule(alpha={0: -0.1})

    @pytest.mark.parametrize("field,rates", [
        ("alpha", {0: float("nan")}), ("alpha", {0: float("inf")}),
        ("omega", {("AM", 0): -0.5}), ("omega", {("AM", 0): float("nan")}),
        ("omega", {("AM", 0): float("inf")})])
    def test_non_finite_or_negative_rates_rejected(self, field, rates):
        with pytest.raises(ValueError, match=field):
            TollSchedule(**{field: rates})


def one_vehicle_loading(net, clock):
    """A free-flow loading of A->M->B: AM takes 50 s, MB 25 s in every interval."""
    p = Path(("AM", "MB"), "A", "B")
    return load_vehicles(net, [VehiclePlan(UE, p, 0, 0.0)], clock)


def queued_loading(net, clock):
    """150 vehicles at 1 veh/s queue behind AM's ~0.54 veh/s capacity."""
    p = Path(("AM", "MB"), "A", "B")
    return load_vehicles(net, [VehiclePlan(UE, p, 0, float(i)) for i in range(150)],
                         clock)


class TestGeneralizedCost:
    def test_ue_cost_adds_toll_as_time(self, clock_20min):
        # $1.50 at 15 $/h VOT is 360 s of equivalent delay.
        net = two_link_network(l1=1000.0, l2=500.0, zone=("AM", "MB"))
        res = one_vehicle_loading(net, clock_20min)
        schedule = TollSchedule(alpha={0: 1.0})  # 1.0 $/km * 1.5 km = $1.50
        p = Path(("AM", "MB"), "A", "B")
        base = CostSkims.from_loading(res).path_cost(p, 0, UE_COST)
        tolled = CostSkims.from_loading(res, schedule).path_cost(p, 0, UE_COST)
        assert base == 75.0
        assert tolled - base == pytest.approx(360.0, rel=1e-12)

    def test_so_cost_is_bit_identical_under_any_toll(self, clock_20min):
        net = two_link_network(l1=1000.0, l2=500.0, zone=("AM", "MB"))
        res = queued_loading(net, clock_20min)
        p = Path(("AM", "MB"), "A", "B")
        free = CostSkims.from_loading(res).path_cost(p, 0, SO_COST)
        assert free > 75.0   # the queue shows in the marginal time
        for alpha in (0.5, 5.0, 50.0):
            tolled = CostSkims.from_loading(
                res, TollSchedule(alpha={0: alpha})).path_cost(p, 0, SO_COST)
            assert tolled == free  # exact, not approximate

    def test_schedule_window_only_prices_listed_intervals(self, clock_20min):
        net = two_link_network(l1=1000.0, l2=500.0, zone=("AM", "MB"))
        res = one_vehicle_loading(net, clock_20min)
        skims = CostSkims.from_loading(res, TollSchedule(alpha={0: 1.0}))
        p = Path(("AM", "MB"), "A", "B")
        assert skims.path_cost(p, 1, UE_COST) == 75.0


class TestTollScheduleIO:
    def test_alpha_csv_round_trip(self, tmp_path):
        sched = TollSchedule(alpha={0: 0.15, 1: 1.25, 4: 0.0})
        f = tmp_path / "alpha.csv"
        sched.write_alpha_csv(f)
        again = TollSchedule.read_alpha_csv(f)
        assert again.alpha == sched.alpha

    def test_omega_csv_written_sorted(self, tmp_path):
        sched = TollSchedule(omega={("b", 1): 0.5, ("a", 0): 0.25})
        f = tmp_path / "omega.csv"
        sched.write_omega_csv(f)
        lines = f.read_text().splitlines()
        assert lines[0] == "link_id,interval_index,omega"
        assert lines[1].startswith("a,0,")

    def test_read_alpha_csv_rejects_bad_rate(self, tmp_path):
        f = tmp_path / "alpha.csv"
        f.write_text("interval_index,alpha_per_km\n0,0.5\n1,-2\n")
        with pytest.raises(ValueError, match="alpha"):
            TollSchedule.read_alpha_csv(f)


class TestNfd:
    def test_lane_length_weighted_fixture(self):
        class St:
            def __init__(self, k, q):
                self.density, self.flow = k, q

        links = [Link("a", "x", "y", 1000.0, 1, 10.0),
                 Link("b", "y", "z", 500.0, 2, 10.0)]
        states = {"a": St(10.0, 600.0), "b": St(14.0, 900.0)}
        k, q = nfd_point(states, links)
        assert k == pytest.approx(12.0, rel=1e-12)
        assert q == pytest.approx(750.0, rel=1e-12)

    def test_single_link_passthrough(self):
        class St:
            density, flow = 8.0, 400.0

        links = [Link("a", "x", "y", 1000.0, 3, 10.0)]
        assert nfd_point({"a": St()}, links) == (8.0, 400.0)

    def test_empty_link_set_rejected(self):
        with pytest.raises(ValueError):
            nfd_point({}, [])


def pts(values):
    return [NFDPoint(i, k, q) for i, (k, q) in enumerate(values)]


class TestCriticalDensity:
    def test_density_at_peak_flow_during_loading(self):
        est = estimate_critical_density(
            pts([(5.0, 100.0), (10.0, 300.0), (20.0, 250.0), (8.0, 120.0)]))
        assert est == CriticalDensityEstimate(10.0, 1, False)

    def test_monotone_series_is_low_confidence(self):
        est = estimate_critical_density(
            pts([(5.0, 100.0), (10.0, 300.0), (20.0, 400.0)]))
        assert est.k_cr == 20.0
        assert est.interval == 2
        assert est.low_confidence

    def test_flow_tie_resolves_to_earlier_interval(self):
        est = estimate_critical_density(
            pts([(5.0, 300.0), (10.0, 300.0), (20.0, 250.0), (8.0, 0.0)]))
        assert est.interval == 0
        assert est.k_cr == 5.0

    def test_recovery_phase_ignored(self):
        # The big post-peak flow at low density must not be picked up.
        est = estimate_critical_density(
            pts([(5.0, 100.0), (20.0, 250.0), (6.0, 900.0)]))
        assert est.k_cr == 20.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            estimate_critical_density([])


class TestPiController:
    def test_later_iteration_fixture(self):
        # 0.2 + 0.1*(18 - 20) + 0.05*(18 - 15) = 0.15 $/km.
        state = PIState(k_cr=15.0, p_gain=0.1, i_gain=0.05, alpha_max=5.0,
                        prev_alpha=0.2, prev_k=20.0, iteration=1)
        alpha, nxt = pi_update(state, 18.0)
        assert alpha == pytest.approx(0.15, rel=1e-12)
        assert nxt.prev_alpha == alpha
        assert nxt.prev_k == 18.0
        assert nxt.iteration == 2

    def test_first_iteration_uses_integral_term_only(self):
        state = PIState(k_cr=15.0, p_gain=0.1, i_gain=0.05, alpha_max=5.0)
        alpha, _ = pi_update(state, 25.0)
        assert alpha == pytest.approx(0.05 * 10.0, rel=1e-12)

    def test_clamped_to_zero_and_cap(self):
        state = PIState(k_cr=15.0, p_gain=0.1, i_gain=0.05, alpha_max=1.0)
        low, state = pi_update(state, 5.0)       # below setpoint
        assert low == 0.0
        high, _ = pi_update(state, 500.0)
        assert high == 1.0

    def test_bad_setpoint_rejected(self):
        with pytest.raises(ValueError):
            PIState(k_cr=0.0, p_gain=0.1, i_gain=0.05, alpha_max=5.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=20))
    def test_output_always_within_clamp(self, densities):
        state = PIState(k_cr=15.0, p_gain=0.1, i_gain=0.05, alpha_max=2.0)
        for k in densities:
            alpha, state = pi_update(state, k)
            assert 0.0 <= alpha <= 2.0

    def test_raises_toll_when_density_above_setpoint(self):
        state = PIState(k_cr=15.0, p_gain=0.1, i_gain=0.05, alpha_max=5.0,
                        prev_alpha=1.0, prev_k=20.0, iteration=3)
        alpha, _ = pi_update(state, 20.0)
        assert alpha > 1.0

    def test_converges_on_linear_plant(self):
        # Plant: density 20 - 4*alpha, setpoint 15 (reached at alpha = 1.25).
        k0, k_cr, slope = 20.0, 15.0, 4.0
        cfg = TollConfig()
        state = PIState(k_cr=k_cr, p_gain=cfg.p_gain, i_gain=cfg.i_gain,
                        alpha_max=cfg.alpha_max)
        alpha = 0.0
        for _ in range(30):
            k = k0 - slope * alpha
            alpha, state = pi_update(state, k)
        k = k0 - slope * alpha
        assert abs(k - k_cr) / k_cr < 0.05
        assert alpha == pytest.approx((k0 - k_cr) / slope, rel=0.10)


def tolled_pair_network():
    """The two-route fixture with the short route's bottleneck tolled."""
    v = 50.0 / 3.0
    return Network(
        [Node("O", True), Node("M"), Node("D", True)],
        [Link("OM", "O", "M", 2000.0, 3, v),
         Link("MD", "M", "D", 3000.0, 1, v, in_pricing_zone=True),
         Link("OD", "O", "D", 7000.0, 2, v)])


class TestTollingShiftsFlow:
    def test_fixed_toll_moves_ue_flow_off_the_zone(self, clock_1h):
        net = tolled_pair_network()
        demand = split_demand({("O", "D", 0): 400.0}, 0.0)
        cfg = SolverConfig(max_iterations=60, gap_tolerance=0.005,
                           schedule=StepSchedule(2.0))
        free = solve_mixed_equilibrium(net, demand, clock_1h, cfg)
        schedule = TollSchedule(alpha={tau: 2.0 for tau in range(12)})
        tolled = solve_mixed_equilibrium(net, demand, clock_1h, cfg,
                                         toll_schedule=schedule)

        def zone_vehicles(res):
            return sum(1 for veh in res.loading.vehicles
                       if "MD" in veh.path.link_ids)

        assert zone_vehicles(tolled) < zone_vehicles(free)

    def test_so_class_ignores_the_toll(self, clock_1h):
        net = tolled_pair_network()
        demand = split_demand({("O", "D", 0): 400.0}, 1.0)
        cfg = SolverConfig(max_iterations=40, gap_tolerance=0.005,
                           schedule=StepSchedule(2.0))
        free = solve_mixed_equilibrium(net, demand, clock_1h, cfg)
        schedule = TollSchedule(alpha={tau: 5.0 for tau in range(12)})
        tolled = solve_mixed_equilibrium(net, demand, clock_1h, cfg,
                                         toll_schedule=schedule)
        free_exits = [(v.vehicle_id, v.exit_time) for v in free.loading.vehicles]
        tolled_exits = [(v.vehicle_id, v.exit_time)
                        for v in tolled.loading.vehicles]
        assert free_exits == tolled_exits


class TestBilevel:
    def test_empty_zone_rejected(self, clock_1h):
        from conftest import parallel_network
        net = parallel_network()
        demand = split_demand({("O", "D", 0): 10.0}, 0.0)
        with pytest.raises(ValueError, match="zone"):
            bilevel_solve(net, demand, clock_1h, TollConfig(),
                          SolverConfig(), k_cr=15.0)

    def test_zero_demand_keeps_toll_at_zero(self, clock_1h):
        net = tolled_pair_network()
        demand = split_demand({}, 0.0)
        cfg = TollConfig(window=(0, 1), outer_cap=8)
        res = bilevel_solve(net, demand, clock_1h, cfg, SolverConfig(),
                            k_cr=10.0)
        assert res.objective == pytest.approx(20.0)  # |0 - 10| per interval
        assert all(res.schedule.alpha_at(tau) == 0.0 for tau in (0, 1))

    def test_controller_tracks_down_zone_density(self, clock_1h):
        net = tolled_pair_network()
        demand = split_demand({("O", "D", 0): 400.0}, 0.0)
        solver = SolverConfig(max_iterations=60, gap_tolerance=0.005,
                              schedule=StepSchedule(2.0))
        base = solve_mixed_equilibrium(net, demand, clock_1h, solver)
        series = nfd_series(base.loading, net, ["MD"])
        est = estimate_critical_density(series)
        cfg = TollConfig(p_gain=0.02, i_gain=0.01, window=(0, 1, 2),
                         outer_cap=10)
        res = bilevel_solve(net, demand, clock_1h, cfg, solver, est.k_cr)
        base_obj = res.log[0].objective  # first outer pass runs untolled
        assert res.objective <= base_obj
        assert res.k_cr == est.k_cr
        assert [r.outer_iteration for r in res.log] \
            == list(range(1, len(res.log) + 1))
