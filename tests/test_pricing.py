"""Distance tolling, NFD aggregation, critical-density estimation, the PI
controller and the bi-level outer loop."""
import csv
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from tollsim.demand import UE, split_demand
from tollsim.equilibrium import SolverConfig, solve_mixed_equilibrium
from tollsim.loading import load_vehicles
from tollsim.network import Link, Network, Node, Path
from tollsim import pricing
from tollsim.pricing import (CriticalDensityEstimate, NFDPoint, TollConfig,
                             TollSchedule, bilevel_solve, congestion_weight,
                             estimate_critical_density, nfd_series, pi_update)
from tollsim.routing import SO_COST, UE_COST, CostSkims

from conftest import Plan, runs_of_one, two_link_network


class TestCongestionWeight:
    def test_relative_delay(self):
        assert congestion_weight(60.0, 50.0, omega_max=1.0) == pytest.approx(0.2)

    def test_free_flow_clamps_to_zero(self):
        assert congestion_weight(40.0, 50.0, omega_max=1.0) == 0.0

    def test_upper_clamp(self):
        assert congestion_weight(200.0, 50.0, omega_max=1.0) == 1.0
        assert congestion_weight(200.0, 50.0, omega_max=0.5) == 0.5

    def test_bad_free_flow_time_rejected(self):
        with pytest.raises(ValueError):
            congestion_weight(60.0, 0.0, omega_max=1.0)

    @given(st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=1.0, max_value=1e4))
    def test_always_within_bounds(self, tt, t0):
        assert 0.0 <= congestion_weight(tt, t0, omega_max=1.0) <= 1.0


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
    return load_vehicles(net, runs_of_one([Plan(UE, p, 0, 0.0)]), clock)


def queued_loading(net, clock):
    """150 vehicles at 1 veh/s queue behind AM's ~0.54 veh/s capacity."""
    p = Path(("AM", "MB"), "A", "B")
    return load_vehicles(net, runs_of_one([Plan(UE, p, 0, float(i)) for i in range(150)]),
                         clock)


class TestGeneralizedCost:
    def test_ue_cost_adds_toll_as_time(self, clock_20min):
        # $1.50 at 15 $/h VOT is 360 s of equivalent delay.
        net = two_link_network(l1=1000.0, l2=500.0, zone=("AM", "MB"))
        res = one_vehicle_loading(net, clock_20min)
        schedule = TollSchedule(alpha={0: 1.0})  # 1.0 $/km * 1.5 km = $1.50
        p = Path(("AM", "MB"), "A", "B")
        base = CostSkims.from_loading(res).path_cost(p, 0, UE_COST)
        tolled = CostSkims.from_loading(res, schedule, 15.0).path_cost(p, 0, UE_COST)
        assert base == 75.0
        assert tolled - base == pytest.approx(360.0, rel=1e-12)

    def test_tolled_skims_need_the_value_of_time(self, clock_20min):
        res = one_vehicle_loading(two_link_network(zone=("AM",)), clock_20min)
        with pytest.raises(ValueError, match="value of time"):
            CostSkims.from_loading(res, TollSchedule(alpha={0: 1.0}))

    def test_so_cost_is_bit_identical_under_any_toll(self, clock_20min):
        net = two_link_network(l1=1000.0, l2=500.0, zone=("AM", "MB"))
        res = queued_loading(net, clock_20min)
        p = Path(("AM", "MB"), "A", "B")
        free = CostSkims.from_loading(res).path_cost(p, 0, SO_COST)
        assert free > 75.0   # the queue shows in the marginal time
        for alpha in (0.5, 5.0, 50.0):
            tolled = CostSkims.from_loading(
                res, TollSchedule(alpha={0: alpha}), 15.0).path_cost(p, 0, SO_COST)
            assert tolled == free  # exact, not approximate

    def test_schedule_window_only_prices_listed_intervals(self, clock_20min):
        net = two_link_network(l1=1000.0, l2=500.0, zone=("AM", "MB"))
        res = one_vehicle_loading(net, clock_20min)
        skims = CostSkims.from_loading(res, TollSchedule(alpha={0: 1.0}), 15.0)
        p = Path(("AM", "MB"), "A", "B")
        assert skims.path_cost(p, 1, UE_COST) == 75.0


class TestTollScheduleIO:
    def test_alpha_csv_round_trip(self, tmp_path):
        sched = TollSchedule(alpha={0: 0.15, 1: 1.25, 4: 0.0})
        f = tmp_path / "alpha.csv"
        sched.write_alpha_csv(f)
        with open(f, newline="", encoding="utf-8") as fh:
            again = {int(row["interval_index"]): float(row["alpha_per_km"])
                     for row in csv.DictReader(fh)}
        assert again == sched.alpha

    def test_omega_csv_written_sorted(self, tmp_path):
        sched = TollSchedule(omega={("b", 1): 0.5, ("a", 0): 0.25})
        f = tmp_path / "omega.csv"
        sched.write_omega_csv(f)
        lines = f.read_text().splitlines()
        assert lines[0] == "link_id,interval_index,omega"
        assert lines[1].startswith("a,0,")


class TestNfd:
    @staticmethod
    def series(links, rows, link_ids=None):
        """`nfd_series` over a loading whose link `a` has (density, flow)
        `rows[a][tau]` in interval tau."""
        states = {lid: [SimpleNamespace(density=k, flow=q) for k, q in kq]
                  for lid, kq in rows.items()}
        n = len(next(iter(rows.values()), ()))
        nodes = {end for a in links for end in (a.from_node, a.to_node)}
        result = SimpleNamespace(states=states, clock=SimpleNamespace(n_intervals=n),
                                 network=Network([Node(v) for v in sorted(nodes)], links))
        return nfd_series(result, link_ids)

    def test_lane_length_weighted_fixture(self):
        links = [Link("a", "x", "y", 1000.0, 1, 10.0),
                 Link("b", "y", "z", 500.0, 2, 10.0)]
        rows = {"a": [(10.0, 600.0), (0.0, 0.0)], "b": [(14.0, 900.0), (6.0, 300.0)]}
        first, second = self.series(links, rows)
        assert (first.interval, second.interval) == (0, 1)
        assert first.density == pytest.approx(12.0, rel=1e-12)
        assert first.flow == pytest.approx(750.0, rel=1e-12)
        assert (second.density, second.flow) == (3.0, 150.0)
        assert self.series(links, rows, ["b"]) == [NFDPoint(0, 14.0, 900.0),
                                                    NFDPoint(1, 6.0, 300.0)]

    def test_single_link_passthrough(self):
        links = [Link("a", "x", "y", 1000.0, 3, 10.0)]
        assert self.series(links, {"a": [(8.0, 400.0)]}) == [NFDPoint(0, 8.0, 400.0)]

    def test_empty_link_set_rejected(self):
        links = [Link("a", "x", "y", 1000.0, 1, 10.0)]
        with pytest.raises(ValueError, match="empty link set"):
            self.series(links, {"a": [(8.0, 400.0)]}, [])


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


PI_CONFIG = TollConfig(p_gain=0.1, i_gain=0.05, alpha_max=5.0)


class TestPiController:
    def test_later_iteration_fixture(self):
        # 0.2 + 0.1*(18 - 20) + 0.05*(18 - 15) = 0.15 $/km.
        alpha = pi_update(PI_CONFIG, 15.0, 18.0, last=(0.2, 20.0))
        assert alpha == pytest.approx(0.15, rel=1e-12)

    def test_first_iteration_uses_integral_term_only(self):
        alpha = pi_update(PI_CONFIG, 15.0, 25.0)
        assert alpha == pytest.approx(0.05 * 10.0, rel=1e-12)

    def test_first_iteration_keeps_the_sign_of_zero(self):
        # 0 * (10 - 15) is -0.0, which toll_r*.csv prints as -0; a velocity
        # step from (0.0, 10.0) would print 0 instead.
        alpha = pi_update(TollConfig(i_gain=0.0), 15.0, 10.0)
        assert math.copysign(1.0, alpha) == -1.0

    def test_clamped_to_zero_and_cap(self):
        cfg = replace(PI_CONFIG, alpha_max=1.0)
        low = pi_update(cfg, 15.0, 5.0)       # below setpoint
        assert low == 0.0
        high = pi_update(cfg, 15.0, 500.0, last=(low, 5.0))
        assert high == 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=20))
    def test_output_always_within_clamp(self, densities):
        cfg = replace(PI_CONFIG, alpha_max=2.0)
        last = None
        for k in densities:
            alpha = pi_update(cfg, 15.0, k, last)
            assert 0.0 <= alpha <= 2.0
            last = (alpha, k)

    def test_raises_toll_when_density_above_setpoint(self):
        alpha = pi_update(PI_CONFIG, 15.0, 20.0, last=(1.0, 20.0))
        assert alpha > 1.0

    def test_converges_on_linear_plant(self):
        # Plant: density 20 - 4*alpha, setpoint 15 (reached at alpha = 1.25).
        k0, k_cr, slope = 20.0, 15.0, 4.0
        cfg = TollConfig()
        alpha, last = 0.0, None
        for _ in range(30):
            k = k0 - slope * alpha
            alpha = pi_update(cfg, k_cr, k, last)
            last = (alpha, k)
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


def charging_and_free_case():
    """A mixed-class bi-level run on the two-route fixture whose outer
    iterations 2, 4 and 5 charge a toll and 1 and 3 charge nothing."""
    demand = split_demand({("O", "D", 0): 400.0, ("O", "D", 1): 200.0}, 0.2)
    solver = SolverConfig(max_iterations=8, gap_tolerance=0.005, gamma=2.0)
    return (tolled_pair_network(), demand, solver,
            TollConfig(window=(0, 1, 2), outer_cap=5), 4.0)


class TestTollingShiftsFlow:
    def test_fixed_toll_moves_ue_flow_off_the_zone(self, clock_1h):
        net = tolled_pair_network()
        demand = split_demand({("O", "D", 0): 400.0}, 0.0)
        cfg = SolverConfig(max_iterations=60, gap_tolerance=0.005, gamma=2.0)
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
        cfg = SolverConfig(max_iterations=40, gap_tolerance=0.005, gamma=2.0)
        free = solve_mixed_equilibrium(net, demand, clock_1h, cfg)
        schedule = TollSchedule(alpha={tau: 5.0 for tau in range(12)})
        tolled = solve_mixed_equilibrium(net, demand, clock_1h, cfg,
                                         toll_schedule=schedule)
        free_exits = [(v.vehicle_id, v.exit_time) for v in free.loading.vehicles]
        tolled_exits = [(v.vehicle_id, v.exit_time)
                        for v in tolled.loading.vehicles]
        assert free_exits == tolled_exits


class TestTollConfig:
    @pytest.mark.parametrize("cap", [0, -1])
    def test_outer_cap_below_one_rejected(self, cap):
        # Would end bilevel_solve with no best result to return.
        with pytest.raises(ValueError, match="outer_cap"):
            TollConfig(outer_cap=cap)

    def test_empty_window_rejected(self):
        # Would divide by zero when averaging the zone density.
        with pytest.raises(ValueError, match="window is empty"):
            TollConfig(window=())

    def test_repeated_window_interval_rejected(self):
        # Would count interval 0 twice in the objective and PI-step it twice.
        with pytest.raises(ValueError, match="repeats an interval"):
            TollConfig(window=(0, 0, 1))

    @pytest.mark.parametrize("name", ["p_gain", "i_gain"])
    def test_negative_gain_rejected(self, name):
        # A negative gain would lower the toll as the zone fills up.
        with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
            TollConfig(**{name: -0.5})

    @pytest.mark.parametrize("tol", [-0.01, 1.0, 2.0])
    def test_improvement_tol_outside_unit_interval_rejected(self, tol):
        # From 1 up, every fourth outer iteration would count as a stall.
        with pytest.raises(ValueError, match="improvement_tol"):
            TollConfig(improvement_tol=tol)

    def test_zero_gains_and_tolerance_accepted(self):
        TollConfig(p_gain=0.0, i_gain=0.0, improvement_tol=0.0)

    def test_tolled_intervals_default_to_the_whole_clock(self, clock_1h):
        assert TollConfig().tolled_intervals(clock_1h) == tuple(range(12))
        assert TollConfig(window=(3, 1)).tolled_intervals(clock_1h) == (3, 1)


def count_solves(monkeypatch) -> list:
    """Record the toll schedule of every solve `bilevel_solve` makes."""
    schedules = []

    def solve(*args, toll_schedule=None, **kwargs):
        schedules.append(toll_schedule)
        return solve_mixed_equilibrium(*args, toll_schedule=toll_schedule, **kwargs)

    monkeypatch.setattr(pricing, "solve_mixed_equilibrium", solve)
    return schedules


class TestBilevel:
    @pytest.mark.parametrize("window", [(0, 12), (-1,)])
    def test_window_outside_clock_rejected(self, clock_1h, window):
        # Checked before the first solve, not after the whole outer loop.
        net = tolled_pair_network()
        demand = split_demand({("O", "D", 0): 10.0}, 0.0)
        untolled = solve_mixed_equilibrium(net, demand, clock_1h)
        with pytest.raises(ValueError, match="reaches outside"):
            bilevel_solve(net, demand, clock_1h, TollConfig(window=window),
                          SolverConfig(), 15.0, untolled)

    @pytest.mark.parametrize("k_cr", [0.0, -1.0, math.nan, math.inf])
    def test_bad_setpoint_rejected(self, clock_1h, k_cr):
        net = tolled_pair_network()
        demand = split_demand({("O", "D", 0): 10.0}, 0.0)
        untolled = solve_mixed_equilibrium(net, demand, clock_1h)
        with pytest.raises(ValueError, match="critical density"):
            bilevel_solve(net, demand, clock_1h, TollConfig(),
                          SolverConfig(), k_cr, untolled)

    def test_each_step_remembers_the_last_rate_and_density(self, clock_1h):
        # With one tolled interval the log's means are that interval's rate
        # and density, so every rate is the PI step from the logged ones.
        net, demand, solver, cfg, k_cr = charging_and_free_case()
        cfg = replace(cfg, window=(0,))
        untolled = solve_mixed_equilibrium(net, demand, clock_1h, solver)
        log = bilevel_solve(net, demand, clock_1h, cfg, solver, k_cr, untolled).log
        assert len(log) >= 3
        last = None
        for prev, rec in zip(log, log[1:]):
            assert rec.mean_alpha == pi_update(cfg, k_cr, prev.mean_zone_density, last)
            last = (rec.mean_alpha, prev.mean_zone_density)

    def test_empty_zone_rejected(self, clock_1h):
        from conftest import parallel_network
        net = parallel_network()
        demand = split_demand({("O", "D", 0): 10.0}, 0.0)
        untolled = solve_mixed_equilibrium(net, demand, clock_1h)
        with pytest.raises(ValueError, match="zone"):
            bilevel_solve(net, demand, clock_1h, TollConfig(),
                          SolverConfig(), 15.0, untolled)

    def test_zero_demand_keeps_toll_at_zero(self, clock_1h, monkeypatch):
        net = tolled_pair_network()
        demand = split_demand({}, 0.0)
        cfg = TollConfig(window=(0, 1), outer_cap=8)
        untolled = solve_mixed_equilibrium(net, demand, clock_1h)
        solves = count_solves(monkeypatch)
        res = bilevel_solve(net, demand, clock_1h, cfg, SolverConfig(), 10.0,
                            untolled)
        assert res.objective == pytest.approx(20.0)  # |0 - 10| per interval
        assert all(res.schedule.alpha.get(tau, 0.0) == 0.0 for tau in (0, 1))
        assert solves == []          # no schedule charges, so nothing is re-solved

    def test_solves_only_schedules_that_charge(self, clock_1h, monkeypatch):
        net, demand, solver, cfg, k_cr = charging_and_free_case()
        untolled = solve_mixed_equilibrium(net, demand, clock_1h, solver)
        solves = count_solves(monkeypatch)
        res = bilevel_solve(net, demand, clock_1h, cfg, solver, k_cr, untolled)
        charged = [r.outer_iteration for r in res.log if r.mean_alpha > 0]
        assert charged == [2, 4, 5]
        assert len(solves) == len(charged)
        assert all(any(s.alpha.values()) for s in solves)

    def test_each_charging_solve_runs_with_only_the_best_one_alive(
            self, clock_1h, monkeypatch, refcount_only):
        # Outer 4 is the best; outer 5's solve, worse, must be gone when
        # outer 6's starts.
        net, demand, solver, cfg, k_cr = charging_and_free_case()
        untolled = solve_mixed_equilibrium(net, demand, clock_1h, solver)
        results = []

        def solve(*args, **kwargs):
            assert sum(ref() is not None for ref in results) <= 1
            result = solve_mixed_equilibrium(*args, **kwargs)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(pricing, "solve_mixed_equilibrium", solve)
        res = bilevel_solve(net, demand, clock_1h, replace(cfg, outer_cap=6),
                            solver, k_cr, untolled)
        assert [r.outer_iteration for r in res.log if r.mean_alpha > 0] \
            == [2, 4, 5, 6]
        assert [ref() for ref in results] == [None, res.equilibrium, None, None]

    def test_controller_tracks_down_zone_density(self, clock_1h):
        net = tolled_pair_network()
        demand = split_demand({("O", "D", 0): 400.0}, 0.0)
        solver = SolverConfig(max_iterations=60, gap_tolerance=0.005, gamma=2.0)
        base = solve_mixed_equilibrium(net, demand, clock_1h, solver)
        series = nfd_series(base.loading, ["MD"])
        est = estimate_critical_density(series)
        cfg = TollConfig(p_gain=0.02, i_gain=0.01, window=(0, 1, 2),
                         outer_cap=10)
        res = bilevel_solve(net, demand, clock_1h, cfg, solver, est.k_cr, base)
        base_obj = res.log[0].objective  # first outer pass runs untolled
        assert res.objective <= base_obj
        assert [r.outer_iteration for r in res.log] \
            == list(range(1, len(res.log) + 1))
