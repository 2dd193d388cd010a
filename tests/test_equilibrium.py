"""Successive-averages solver: step sizes, proportion updates, relative gaps,
and a hand-solved two-route equilibrium."""
import pytest
from hypothesis import given, strategies as st

from tollsim import equilibrium
from tollsim.demand import SO, UE, split_demand
from tollsim.equilibrium import (SolverConfig, StepSchedule, UndefinedGapError,
                                 path_flows, relative_gap,
                                 solve_mixed_equilibrium, step_size,
                                 update_proportions)
from tollsim.network import Clock, Link, Network, Node
from tollsim.routing import UE_COST, CostSkims


def bottleneck_pair_network():
    """Two routes O->D: a short feeder+bottleneck chain and a long bypass.

    Short route: 2000 m three-lane feeder then a 3000 m one-lane bottleneck
    (300 s free flow, 0.5208 veh/s capacity). Long route: 7000 m, two lanes
    (420 s free flow, uncongested at the demands used here).
    """
    v = 50.0 / 3.0
    return Network(
        [Node("O", True), Node("M"), Node("D", True)],
        [Link("OM", "O", "M", 2000.0, 3, v),
         Link("MD", "M", "D", 3000.0, 1, v),
         Link("OD", "O", "D", 7000.0, 2, v)])


class TestStepSize:
    def test_gamma_zero_is_msa(self):
        for n in range(1, 101):
            assert step_size(n, StepSchedule(0.0)) \
                == pytest.approx(1.0 / n, rel=1e-12)

    def test_gamma_one_closed_form(self):
        for n in range(1, 101):
            assert step_size(n, StepSchedule(1.0)) \
                == pytest.approx(2.0 / (n + 2), rel=1e-12)
        assert step_size(3, StepSchedule(1.0)) == pytest.approx(0.4, rel=1e-12)

    def test_gamma_two_closed_form(self):
        for n in range(1, 101):
            assert step_size(n, StepSchedule(2.0)) \
                == pytest.approx(6.0 * n / ((n + 1) * (2 * n + 1)), rel=1e-12)

    def test_first_step_is_one_for_generic_schedules(self):
        for g in (0.0, 0.5, 2.0):
            assert step_size(1, StepSchedule(g)) == 1.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            step_size(0, StepSchedule())
        with pytest.raises(ValueError):
            StepSchedule(-1.0)

    def test_higher_gamma_weights_recent_iterations_more(self):
        for n in (5, 20, 80):
            assert step_size(n, StepSchedule(2.0)) \
                > step_size(n, StepSchedule(0.0))


class TestProportionUpdate:
    def test_theta_zero_keeps_current(self):
        assert update_proportions([0.7, 0.3], [1.0, 0.0], 0.0) == [0.7, 0.3]

    def test_theta_one_jumps_to_auxiliary(self):
        assert update_proportions([0.7, 0.3], [0.0, 1.0], 1.0) == [0.0, 1.0]

    def test_convex_blend(self):
        got = update_proportions([0.5, 0.5], [1.0, 0.0], 0.4)
        assert got == pytest.approx([0.7, 0.3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            update_proportions([1.0], [0.5, 0.5], 0.5)

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                    max_size=30))
    def test_msa_telescopes_to_arithmetic_mean(self, picks):
        # With theta_n = 1/n the result is the mean of the AON indicators.
        props = None
        for n, pick in enumerate(picks, start=1):
            y = [1.0 if i == pick else 0.0 for i in range(3)]
            props = y if props is None else update_proportions(
                props, y, step_size(n, StepSchedule(0.0)))
        for i in range(3):
            want = sum(1 for p in picks if p == i) / len(picks)
            assert props[i] == pytest.approx(want, abs=1e-9)

    def test_path_flows(self):
        assert path_flows([0.25, 0.75], 40.0) == [10.0, 30.0]


class TestRelativeGaps:
    def test_ue_fixture_eight_percent(self):
        # 4 vehicles pay 2 s over the 10 s minimum on 10 vehicles of demand.
        gap = relative_gap(
            flows={("D", 0): [6.0, 4.0]},
            costs={("D", 0): [10.0, 12.0]},
            least={("D", 0): 10.0},
            demands={("D", 0): 10.0})
        assert gap == pytest.approx(0.08, rel=1e-12)

    def test_so_fixture_ten_percent(self):
        gap = relative_gap(
            flows={("D", 0): [5.0, 5.0]},
            costs={("D", 0): [20.0, 24.0]},
            least={("D", 0): 20.0},
            demands={("D", 0): 10.0})
        assert gap == pytest.approx(0.10, rel=1e-12)

    def test_gap_zero_iff_all_flow_on_least_cost_paths(self):
        on_best = relative_gap({("D", 0): [10.0, 0.0]},
                               {("D", 0): [10.0, 12.0]},
                               {("D", 0): 10.0}, {("D", 0): 10.0})
        assert on_best == 0.0
        off_best = relative_gap({("D", 0): [9.0, 1.0]},
                                {("D", 0): [10.0, 12.0]},
                                {("D", 0): 10.0}, {("D", 0): 10.0})
        assert off_best > 0.0

    def test_zero_denominator_with_flows_raises(self):
        with pytest.raises(UndefinedGapError):
            relative_gap({("D", 0): [5.0]}, {("D", 0): [1.0]},
                         {("D", 0): 0.0}, {("D", 0): 10.0})

    def test_empty_inputs_give_zero(self):
        assert relative_gap({}, {}, {}, {}) == 0.0

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_gap_invariant_under_demand_scaling(self, c):
        kwargs = dict(costs={("D", 0): [10.0, 12.0]},
                      least={("D", 0): 10.0})
        base = relative_gap(flows={("D", 0): [6.0, 4.0]},
                            demands={("D", 0): 10.0}, **kwargs)
        scaled = relative_gap(flows={("D", 0): [6.0 * c, 4.0 * c]},
                              demands={("D", 0): 10.0 * c}, **kwargs)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_gap_grows_with_misassigned_flow(self):
        def gap(f):
            return relative_gap({("D", 0): [10.0 - f, f]},
                                {("D", 0): [10.0, 12.0]},
                                {("D", 0): 10.0}, {("D", 0): 10.0})
        gaps = [gap(f) for f in (0.0, 2.0, 5.0, 10.0)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))


class TestSolver:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(gap_tolerance=0.0)

    def test_zero_demand_converges_immediately(self, clock_1h):
        net = bottleneck_pair_network()
        res = solve_mixed_equilibrium(net, split_demand({}, 0.0),
                                      clock_1h)
        assert res.converged
        assert res.loading.tstt_veh_h == 0.0

    def test_two_route_ue_matches_hand_solution(self, clock_1h):
        # 400 vehicles in one interval. The short route (300 s) queues at a
        # 0.5208 veh/s bottleneck; times equalize with the 420 s bypass when
        # the mean queueing delay is 120 s, i.e. at 540 * 0.5208 = 281 vehicles
        # on the short route.
        net = bottleneck_pair_network()
        demand = split_demand({("O", "D", 0): 400.0}, 0.0)
        cfg = SolverConfig(max_iterations=100, gap_tolerance=0.005,
                           schedule=StepSchedule(2.0))
        res = solve_mixed_equilibrium(net, demand, clock_1h, cfg)
        assert res.converged
        ps = res.path_sets[("O", "D", UE)]
        short_flow = sum(
            400.0 * p for path, p in zip(ps.paths, ps.proportions[0])
            if path.link_ids != ("OD",))
        assert short_flow == pytest.approx(281.25, rel=0.10)
        skims = CostSkims.from_loading(res.loading)   # untolled: UE cost = time
        times = [skims.path_cost(path, 0, UE_COST) for path in ps.paths
                 if ps.proportions[0][ps.index_of(path)] > 0.01]
        assert max(times) / min(times) < 1.05

    def test_all_so_assignment_beats_all_ue_on_total_time(self, clock_1h):
        net = bottleneck_pair_network()
        totals = {("O", "D", 0): 400.0}
        cfg = SolverConfig(max_iterations=100, gap_tolerance=0.005,
                           schedule=StepSchedule(2.0))
        ue = solve_mixed_equilibrium(
            net, split_demand(totals, 0.0), clock_1h, cfg)
        so = solve_mixed_equilibrium(
            net, split_demand(totals, 1.0), clock_1h, cfg)
        assert so.loading.tstt_veh_h <= ue.loading.tstt_veh_h * 1.01

    def test_mixed_run_assigns_both_classes(self, clock_1h):
        net = bottleneck_pair_network()
        demand = split_demand({("O", "D", 0): 400.0}, 0.4)
        cfg = SolverConfig(max_iterations=40, gap_tolerance=0.01,
                           schedule=StepSchedule(2.0))
        res = solve_mixed_equilibrium(net, demand, clock_1h, cfg)
        assert ("O", "D", UE) in res.path_sets
        assert ("O", "D", SO) in res.path_sets
        classes = {v.vehicle_class for v in res.loading.vehicles}
        assert classes == {UE, SO}
        assert res.loading.vehicles_entered == 400

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_gap_raises(self, clock_1h, monkeypatch, bad):
        monkeypatch.setattr(equilibrium, "relative_gap", lambda *args: bad)
        net = bottleneck_pair_network()
        demand = split_demand({("O", "D", 0): 40.0}, 0.0)
        with pytest.raises(ArithmeticError, match="non-finite"):
            solve_mixed_equilibrium(net, demand, clock_1h,
                                    SolverConfig(max_iterations=3))

    def test_iteration_log_is_complete_and_ordered(self, clock_1h):
        net = bottleneck_pair_network()
        demand = split_demand({("O", "D", 0): 400.0}, 0.0)
        cfg = SolverConfig(max_iterations=10, gap_tolerance=1e-12,
                           schedule=StepSchedule(2.0))
        res = solve_mixed_equilibrium(net, demand, clock_1h, cfg)
        assert not res.converged
        assert [r.iteration for r in res.log] == list(range(1, 11))
        assert all(r.rgap >= 0.0 for r in res.log)
        assert all(r.rgap == (r.r1gap + r.r2gap) / 2.0 for r in res.log)
