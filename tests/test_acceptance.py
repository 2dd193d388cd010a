"""Acceptance suite: twelve binding criteria, one reported line each.

Each test prints exactly one `AC<n> PASS/FAIL` line (bypassing pytest's
capture) and then asserts, so the verdicts are visible in any run log.
"""
import json
import time

import pytest

from tollsim.demand import NoiseConfig, SO, UE, split_demand
from tollsim.equilibrium import (SolverConfig, StepSchedule, relative_gap,
                                 solve_mixed_equilibrium, step_size)
from tollsim.fd import FDParams, fd_capacity
from tollsim.loading import VehiclePlan, load_vehicles
from tollsim.network import Path
from tollsim.nguyen import (TOLL_I_GAIN, TOLL_OUTER_CAP, TOLL_P_GAIN,
                            TOLL_WINDOW, ZONE_LINKS, build_nguyen)
from tollsim.pricing import (PIState, TollConfig, TollSchedule, bilevel_solve,
                             estimate_critical_density, nfd_series, pi_update)
from tollsim.routing import SO_COST, UE_COST, CostSkims, td_shortest_path
from tollsim.analysis import hysteresis_area
from tollsim.scenario import Scenario, run_scenario

from conftest import line_network, two_link_network
from test_equilibrium import bottleneck_pair_network
from test_workbench import write_fixture_scenario

V60 = 50.0 / 3.0

NGUYEN_SOLVER = SolverConfig(max_iterations=100, gap_tolerance=0.01,
                             schedule=StepSchedule(2.0))


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(ac: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with _CAPTURE.disabled():
        print(f"AC{ac} {verdict}: {description}{suffix}", flush=True)
    assert ok, f"AC{ac} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def nguyen_sweep():
    """Converged equilibria on the bundled network for SO ratios 0..1."""
    network, totals, clock = build_nguyen()
    runs = {}
    t0 = time.perf_counter()
    for ratio in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        demand = split_demand(totals, ratio)
        runs[ratio] = solve_mixed_equilibrium(network, demand, clock,
                                              NGUYEN_SOLVER)
    return runs, time.perf_counter() - t0


def test_ac01_step_size_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 101):
        for gamma, want in ((0.0, 1.0 / n), (1.0, 2.0 / (n + 2)),
                            (2.0, 6.0 * n / ((n + 1) * (2 * n + 1)))):
            got = step_size(n, StepSchedule(gamma))
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    report(1, "step sizes match the three closed forms for n=1..100",
           worst <= 1e-12 and elapsed < 1.0,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_ac02_fd_closed_form_and_simulated_saturation(clock_20min):
    t0 = time.perf_counter()
    errs = []
    for r, want in ((1.5, 1875.0), (1.0, 180000.0 / 71.0)):
        k_crit, q_max = fd_capacity(FDParams(V60, 7.0, r))
        errs.append(abs(q_max * 3600.0 - want) / want)
        errs.append(abs(k_crit - 1.0 / (V60 * r + 7.0)) * (V60 * r + 7.0))
    closed_ok = max(errs) <= 1e-12

    caps = [fd_capacity(FDParams(V60, 7.0, r))[1]
            for r in (0.8, 1.0, 1.2, 1.5, 2.0)]
    monotone_ok = all(a > b for a, b in zip(caps, caps[1:]))

    # Saturate a single link with more demand than it can discharge and
    # compare the busiest interval's exit flow against the analytic capacity.
    net = line_network(length=1000.0, speed=V60)
    sim_ok = True
    details = []
    for cls, want in ((UE, 1875.0), (SO, 180000.0 / 71.0)):
        plans = [VehiclePlan(cls, Path(("AB",), "A", "B"), int(i / 2.0) // 300,
                             i / 2.0) for i in range(400)]
        res = load_vehicles(net, plans, clock_20min)
        q_sim = max(st.flow for st in res.states["AB"])
        rel = abs(q_sim - want) / want
        details.append(f"{q_sim:.0f}/{want:.0f}")
        sim_ok = sim_ok and rel <= 0.10
    elapsed = time.perf_counter() - t0
    report(2, "FD capacity closed forms exact and simulated saturation "
              "within 10%",
           closed_ok and monotone_ok and sim_ok and elapsed < 10.0,
           f"sim veh/h {', '.join(details)}, {elapsed:.2f}s")


def test_ac03_loader_matches_point_queue_oracle(clock_20min):
    t0 = time.perf_counter()
    net = line_network(length=1000.0, speed=20.0)
    path = Path(("AB",), "A", "B")
    plans = [VehiclePlan(UE, path, 0, float(i)) for i in range(120)]
    res = load_vehicles(net, plans, clock_20min)
    cap = 20.0 / 37.0
    step = clock_20min.step_s
    worst = 0.0
    for i, v in enumerate(sorted(res.vehicles, key=lambda v: v.departure_time)):
        oracle = max(0.0, i * (1.0 / cap - 1.0))
        worst = max(worst, abs((v.travel_time - 50.0) - oracle))
    conserved = res.vehicles_entered == res.vehicles_exited == 120
    elapsed = time.perf_counter() - t0
    report(3, "per-vehicle bottleneck delays within one step of the "
              "point-queue oracle; conservation exact",
           worst <= step + 1e-9 and conserved and elapsed < 10.0,
           f"worst error {worst:.2f}s, {elapsed:.2f}s")


def test_ac04_marginal_time_against_resimulation(clock_1h):
    t0 = time.perf_counter()
    net = bottleneck_pair_network()
    short = Path(("OM", "MD"), "O", "D")
    bypass = Path(("OD",), "O", "D")
    plans = ([VehiclePlan(UE, short, 0, i * 300.0 / 280) for i in range(280)]
             + [VehiclePlan(UE, bypass, 0, i * 300.0 / 120)
                for i in range(120)])
    base = load_vehicles(net, plans, clock_1h)
    ok = True
    details = []
    for probe_path in (short, bypass):
        plus = load_vehicles(net, plans + [VehiclePlan(UE, probe_path, 0, 0.0)],
                             clock_1h)
        brute = (plus.tstt_veh_h - base.tstt_veh_h) * 3600.0
        local = base.path_marginal_time(probe_path, 0)
        rel = abs(local - brute) / brute
        details.append(f"{'|'.join(probe_path.link_ids)}: {rel * 100:.1f}%")
        ok = ok and rel <= 0.20
    elapsed = time.perf_counter() - t0
    report(4, "path marginal times within 20% of +1-vehicle re-simulation",
           ok and elapsed < 30.0, f"{'; '.join(details)}, {elapsed:.2f}s")


def test_ac05_relative_gap_hand_fixtures():
    # The solver's gap: UE over generalized travel times, SO over marginal times.
    ue = relative_gap(flows={("D", 0): [6.0, 4.0]},
                      costs={("D", 0): [10.0, 12.0]},
                      least={("D", 0): 10.0}, demands={("D", 0): 10.0})
    so = relative_gap(flows={("D", 0): [5.0, 5.0]},
                      costs={("D", 0): [20.0, 24.0]},
                      least={("D", 0): 20.0}, demands={("D", 0): 10.0})
    on_best = relative_gap(flows={("D", 0): [10.0, 0.0]},
                           costs={("D", 0): [10.0, 12.0]},
                           least={("D", 0): 10.0}, demands={("D", 0): 10.0})
    mean_ok = (ue + so) / 2.0 == pytest.approx(0.09, rel=1e-12)
    report(5, "gap hand fixtures 0.08 / 0.10 exact; zero on minimal paths; "
              "mean gap exact",
           abs(ue - 0.08) <= 1e-12 * 0.08 and abs(so - 0.10) <= 1e-12 * 0.10
           and on_best == 0.0 and mean_ok,
           f"ue={ue:.12f} so={so:.12f}")


@pytest.mark.slow
def test_ac06_nguyen_convergence_and_schedule_trend(nguyen_sweep):
    runs, sweep_s = nguyen_sweep
    t0 = time.perf_counter()
    ue_run = runs[0.0]
    conv_ok = ue_run.converged and len(ue_run.log) <= 100

    # Trend: force 100 iterations on three noisy demand draws and compare the
    # late-phase (iterations 41-100) mean gap of the two schedules.
    network, totals, clock = build_nguyen()
    forced = SolverConfig(max_iterations=100, gap_tolerance=1e-12,
                          schedule=StepSchedule(2.0))
    forced_msa = SolverConfig(max_iterations=100, gap_tolerance=1e-12,
                              schedule=StepSchedule(0.0))
    trend_ok = True
    tails = []
    for seed in (1, 2, 3):
        demand = split_demand(totals, 0.0,
                              NoiseConfig(seed=seed, beta_max=0.2))
        mswa = solve_mixed_equilibrium(network, demand, clock, forced)
        msa = solve_mixed_equilibrium(network, demand, clock, forced_msa)

        def tail(run):
            gaps = [r.rgap for r in run.log if r.iteration > 40]
            return sum(gaps) / len(gaps)

        t_mswa, t_msa = tail(mswa), tail(msa)
        tails.append(f"seed {seed}: {t_mswa:.3f} vs {t_msa:.3f}")
        trend_ok = trend_ok and t_mswa <= t_msa
    elapsed = time.perf_counter() - t0 + sweep_s
    report(6, "all-UE run converges within 100 iterations; late-phase gap "
              "of the weighted schedule beats plain averaging on 3 seeds",
           conv_ok and trend_ok and elapsed < 300.0,
           f"converged in {len(ue_run.log)} iters; {'; '.join(tails)}; "
           f"{elapsed:.0f}s")


@pytest.mark.slow
def test_ac07_tstt_non_increasing_in_so_ratio(nguyen_sweep):
    runs, sweep_s = nguyen_sweep
    ratios = sorted(runs)
    tstts = [runs[r].loading.tstt_veh_h for r in ratios]
    monotone_ok = all(b <= a * 1.01 for a, b in zip(tstts, tstts[1:]))
    strict_ok = tstts[-1] < tstts[0]
    report(7, "TSTT non-increasing (within 1%) along the SO-ratio sweep, "
              "strictly lower at 100% SO",
           monotone_ok and strict_ok and sweep_s < 900.0,
           "TSTT " + " -> ".join(f"{x:.1f}" for x in tstts)
           + f", sweep {sweep_s:.0f}s")


def test_ac08_so_costs_invariant_to_tolls(clock_1h, clock_20min):
    # Cost level: the solver's skims of one congested loading, built under
    # any toll schedule, give bit-identical SO path costs and SO searches,
    # while the same tolls do raise the UE cost.
    from test_pricing import queued_loading, tolled_pair_network
    net = two_link_network(l1=1000.0, l2=500.0, zone=("AM", "MB"))
    p = Path(("AM", "MB"), "A", "B")
    res = queued_loading(net, clock_20min)
    free = CostSkims.from_loading(res)
    free_cost = free.path_cost(p, 0, SO_COST)
    free_best = td_shortest_path(net, free, "A", "B", 0, SO_COST)
    cost_ok = True
    for a in (0.5, 2.0, 5.0):
        tolled_skims = CostSkims.from_loading(res, TollSchedule(alpha={0: a}))
        cost_ok = (cost_ok
                   and tolled_skims.path_cost(p, 0, SO_COST) == free_cost
                   and td_shortest_path(net, tolled_skims, "A", "B", 0,
                                        SO_COST) == free_best
                   and tolled_skims.path_cost(p, 0, UE_COST)
                   > free.path_cost(p, 0, UE_COST))

    # System level: an all-SO equilibrium is bit-identical under a stiff toll.
    net2 = tolled_pair_network()
    demand = split_demand({("O", "D", 0): 400.0}, 1.0)
    cfg = SolverConfig(max_iterations=40, gap_tolerance=0.005,
                       schedule=StepSchedule(2.0))
    free = solve_mixed_equilibrium(net2, demand, clock_1h, cfg)
    tolled = solve_mixed_equilibrium(
        net2, demand, clock_1h, cfg,
        toll_schedule=TollSchedule(alpha={t: 5.0 for t in range(12)}))
    run_ok = ([(v.vehicle_id, tuple(v.path.link_ids), v.exit_time)
               for v in free.loading.vehicles]
              == [(v.vehicle_id, tuple(v.path.link_ids), v.exit_time)
                  for v in tolled.loading.vehicles])
    report(8, "SO choices and costs bit-identical across toll schedules",
           cost_ok and run_ok)


def test_ac09_distance_toll_reduction_and_fixture():
    net = two_link_network(l1=400.0, l2=600.0, zone=("AM", "MB"))
    p = Path(("AM", "MB"), "A", "B")

    def path_toll(schedule):
        # The solver's per-link toll, summed over the path entered at t = 0.
        return sum(schedule.link_toll(net.links[lid], 0) for lid in p.link_ids)

    flat = path_toll(TollSchedule(alpha={0: 0.5}))
    flat_ok = abs(flat - 0.5 * 1.0) <= 1e-12
    weighted = path_toll(TollSchedule(alpha={0: 0.5},
                                      omega={("AM", 0): 0.5, ("MB", 0): 0.0}))
    fixture_ok = abs(weighted - 0.60) <= 1e-12 * 0.60
    report(9, "zero-weight toll reduces to rate x zone distance; weighted "
              "fixture equals $0.60",
           flat_ok and fixture_ok,
           f"flat={flat:.4f} weighted={weighted:.12f}")


def test_ac10_pi_controller_fixture_and_synthetic_plant():
    t0 = time.perf_counter()
    state = PIState(k_cr=15.0, p_gain=0.1, i_gain=0.05, alpha_max=5.0,
                    prev_alpha=0.2, prev_k=20.0, iteration=1)
    alpha, _ = pi_update(state, 18.0)
    fixture_ok = abs(alpha - 0.15) <= 1e-12 * 0.15

    cfg = TollConfig()
    state = PIState(k_cr=15.0, p_gain=cfg.p_gain, i_gain=cfg.i_gain,
                    alpha_max=cfg.alpha_max)
    a, hit, clamped_ok = 0.0, None, True
    for it in range(1, 31):
        k = 20.0 - 4.0 * a
        a, state = pi_update(state, k)
        clamped_ok = clamped_ok and 0.0 <= a <= cfg.alpha_max
        if hit is None and abs((20.0 - 4.0 * a) - 15.0) / 15.0 < 0.05:
            hit = it
    elapsed = time.perf_counter() - t0
    report(10, "PI hand fixture 0.15 $/km exact; synthetic plant settles "
               "within 5% of setpoint inside 30 iterations",
           fixture_ok and hit is not None and clamped_ok and elapsed < 5.0,
           f"alpha={alpha:.12f}, setpoint hit at iter {hit}, {elapsed:.2f}s")


@pytest.mark.slow
def test_ac11_bilevel_reduces_zone_density_and_hysteresis(nguyen_sweep):
    runs, _ = nguyen_sweep
    t0 = time.perf_counter()
    network, totals, clock = build_nguyen(with_zone=True)
    demand = split_demand(totals, 0.0)

    base = runs[0.0]  # zone flags do not affect an untolled loading
    base_series = nfd_series(base.loading, network, ZONE_LINKS)
    est = estimate_critical_density(base_series)
    toll_cfg = TollConfig(p_gain=TOLL_P_GAIN, i_gain=TOLL_I_GAIN,
                          window=TOLL_WINDOW, outer_cap=TOLL_OUTER_CAP)
    res = bilevel_solve(network, demand, clock, toll_cfg, NGUYEN_SOLVER,
                        est.k_cr)
    tolled_series = nfd_series(res.equilibrium.loading, network, ZONE_LINKS)

    def window_mean(series):
        dens = {p.interval: p.density for p in series}
        return sum(dens[tau] for tau in TOLL_WINDOW) / len(TOLL_WINDOW)

    base_k, tolled_k = window_mean(base_series), window_mean(tolled_series)
    base_h, tolled_h = hysteresis_area(base_series), hysteresis_area(tolled_series)
    elapsed = time.perf_counter() - t0
    report(11, "closed-loop tolling strictly lowers zone window density and "
               "does not grow the hysteresis loop",
           tolled_k < base_k and tolled_h <= base_h and elapsed < 1200.0,
           f"density {base_k:.2f}->{tolled_k:.2f} veh/km, hysteresis "
           f"{base_h:.0f}->{tolled_h:.0f}, {elapsed:.0f}s")


def test_ac12_sweep_outputs_byte_identical(tmp_path):
    path = write_fixture_scenario(tmp_path / "in", so_ratios=(0.0, 0.5),
                                  seed=7, beta=0.2)
    scenario = Scenario.load(path)
    m1 = run_scenario(scenario, str(tmp_path / "a"))
    m2 = run_scenario(scenario, str(tmp_path / "b"))
    with open(tmp_path / "a" / "manifest.json", encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    report(12, "repeated sweep runs produce byte-identical CSV outputs",
           m1["files"] == m2["files"] and len(files) >= 7,
           f"{len(files)} files compared")
