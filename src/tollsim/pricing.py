"""Spatially differentiated distance tolling, NFD aggregation, the PI toll
controller and the bi-level outer loop.

Tolls apply per pricing-zone link as alpha * (1 + omega) * length, where
alpha ($/km) is set per tolling interval by a discrete PI controller tracking
the zone's critical density, and omega in [0, omega_max] reflects each link's
relative delay. SO-class vehicles are exempt: their costs never see tolls.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

from .demand import ClassDemand
from .equilibrium import SolverConfig, solve_mixed_equilibrium
from .fd import ClassReactionTimes
from .network import Clock, Link, Network


@dataclass(frozen=True)
class TollConfig:
    vot_per_hour: float = 15.0       # $/h
    alpha_max: float = 5.0           # $/km
    p_gain: float = 0.05             # $/km per veh/km
    i_gain: float = 0.025            # $/km per veh/km
    omega_max: float = 1.0
    window: tuple | None = None      # tolled intervals; None = all
    outer_cap: int = 25
    improvement_tol: float = 0.01    # relative objective improvement

    def __post_init__(self):
        if not 0.0 < self.vot_per_hour < math.inf:
            raise ValueError("vot_per_hour must be finite and positive")
        if not 0.0 < self.alpha_max < math.inf:
            raise ValueError("alpha_max must be finite and positive")
        if not 0.0 <= self.omega_max < math.inf:
            raise ValueError("omega_max must be finite and non-negative")
        for name in ("p_gain", "i_gain", "improvement_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class TollSchedule:
    """Per-interval toll rate ($/km) and per-(link, interval) congestion weights."""

    alpha: dict = field(default_factory=dict)   # interval -> $/km
    omega: dict = field(default_factory=dict)   # (link_id, interval) -> weight

    def __post_init__(self):
        for name, rates in (("alpha", self.alpha), ("omega", self.omega)):
            for key, value in rates.items():
                if not 0.0 <= value < math.inf:
                    raise ValueError(f"toll {name} at {key!r} must be finite "
                                     f"and non-negative, got {value!r}")

    def alpha_at(self, interval: int) -> float:
        return self.alpha.get(interval, 0.0)

    def link_toll(self, link: Link, interval: int) -> float:
        """Dollars charged for traversing a zone link entered in `interval`."""
        if not link.in_pricing_zone:
            return 0.0
        return (self.alpha_at(interval)
                * (1.0 + self.omega.get((link.id, interval), 0.0))
                * link.length / 1000.0)

    def write_alpha_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["interval_index", "alpha_per_km"])
            for tau in sorted(self.alpha):
                w.writerow([tau, f"{self.alpha[tau]:.10g}"])

    def write_omega_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["link_id", "interval_index", "omega"])
            for (lid, tau) in sorted(self.omega):
                w.writerow([lid, tau, f"{self.omega[(lid, tau)]:.10g}"])

    @staticmethod
    def read_alpha_csv(path) -> "TollSchedule":
        alpha = {}
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                alpha[int(row["interval_index"])] = float(row["alpha_per_km"])
        return TollSchedule(alpha=alpha)


def congestion_weight(travel_time: float, free_flow_time: float,
                      omega_max: float = 1.0) -> float:
    """Relative delay (tt - t0)/t0 clamped to [0, omega_max]."""
    if free_flow_time <= 0:
        raise ValueError("free-flow time must be positive")
    return min(max((travel_time - free_flow_time) / free_flow_time, 0.0), omega_max)


@dataclass(frozen=True)
class NFDPoint:
    interval: int
    density: float   # veh/km, lane-length weighted
    flow: float      # veh/h, lane-length weighted


def nfd_point(link_states, links) -> tuple[float, float]:
    """Lane-length weighted (density, flow) over a link set.

    `link_states` maps link id -> object with .density and .flow;
    `links` is the iterable of Link objects to aggregate.
    """
    links = list(links)
    if not links:
        raise ValueError("empty link set")
    weight = 0.0
    ksum = 0.0
    qsum = 0.0
    for a in links:
        w = a.length * a.lanes
        st = link_states[a.id]
        weight += w
        ksum += st.density * w
        qsum += st.flow * w
    return ksum / weight, qsum / weight


def nfd_series(result, network: Network, link_ids=None) -> list[NFDPoint]:
    """Per-interval NFD trajectory over the given links (default: whole network)."""
    if link_ids is None:
        links = network.link_list
    else:
        links = [network.links[lid] for lid in sorted(link_ids)]
    series = []
    for tau in range(result.clock.n_intervals):
        states = {a.id: result.states[a.id][tau] for a in links}
        k, q = nfd_point(states, links)
        series.append(NFDPoint(tau, k, q))
    return series


@dataclass(frozen=True)
class CriticalDensityEstimate:
    k_cr: float
    interval: int
    low_confidence: bool


def estimate_critical_density(series) -> CriticalDensityEstimate:
    """Density at maximum flow during the loading phase of a no-toll NFD.

    The loading phase runs up to (and including) the peak-density interval;
    ties resolve to the earlier interval. If the flow peak coincides with the
    density peak the series never bent over, so the estimate is flagged
    low-confidence.
    """
    series = list(series)
    if not series:
        raise ValueError("empty NFD series")
    peak_k = max(range(len(series)), key=lambda i: (series[i].density, -i))
    loading = series[:peak_k + 1]
    best = max(range(len(loading)), key=lambda i: (loading[i].flow, -i))
    return CriticalDensityEstimate(loading[best].density, loading[best].interval,
                                   low_confidence=(best == peak_k))


@dataclass(frozen=True)
class PIState:
    """Controller memory for one tolling interval."""
    k_cr: float
    p_gain: float
    i_gain: float
    alpha_max: float
    prev_alpha: float = 0.0
    prev_k: float = math.nan
    iteration: int = 0

    def __post_init__(self):
        if self.k_cr <= 0:
            raise ValueError("critical density must be positive")


def pi_update(state: PIState, k_bar: float) -> tuple[float, PIState]:
    """One discrete PI step; returns the clamped toll rate and the next state."""
    if state.iteration == 0:
        raw = state.i_gain * (k_bar - state.k_cr)
    else:
        raw = (state.prev_alpha
               + state.p_gain * (k_bar - state.prev_k)
               + state.i_gain * (k_bar - state.k_cr))
    alpha = min(max(raw, 0.0), state.alpha_max)
    return alpha, replace(state, prev_alpha=alpha, prev_k=k_bar,
                          iteration=state.iteration + 1)


@dataclass(frozen=True)
class ControllerRecord:
    outer_iteration: int
    objective: float          # sum over tolled window of |K - K_cr|
    mean_alpha: float
    mean_zone_density: float
    inner_gap: float
    tstt_veh_h: float


@dataclass
class BilevelResult:
    schedule: TollSchedule
    equilibrium: object
    log: list
    objective: float
    k_cr: float


def bilevel_solve(network: Network, demand: ClassDemand, clock: Clock,
                  toll_config: TollConfig, solver_config: SolverConfig,
                  k_cr: float,
                  reaction_times: ClassReactionTimes = ClassReactionTimes()
                  ) -> BilevelResult:
    """NFD-tracking outer loop: equilibrate under the current schedule, then
    PI-update the per-interval toll rates from the zone density, until the
    density-tracking objective stalls, all rates pin at the cap, or the outer
    iteration cap is reached. Returns the best schedule seen.
    """
    zone_ids = sorted(network.zone_link_ids)
    if not zone_ids:
        raise ValueError("pricing zone is empty")
    window = (tuple(toll_config.window) if toll_config.window is not None
              else tuple(range(clock.n_intervals)))
    pi_states = {tau: PIState(k_cr, toll_config.p_gain, toll_config.i_gain,
                              toll_config.alpha_max) for tau in window}
    schedule = TollSchedule()
    best = None
    objectives = []
    log = []
    for outer in range(1, toll_config.outer_cap + 1):
        eq = solve_mixed_equilibrium(network, demand, clock, solver_config,
                                     toll_schedule=schedule,
                                     reaction_times=reaction_times)
        series = nfd_series(eq.loading, network, zone_ids)
        dens = {pt.interval: pt.density for pt in series}
        objective = sum(abs(dens[tau] - k_cr) for tau in window)
        mean_alpha = (sum(schedule.alpha_at(tau) for tau in window)
                      / len(window)) if window else 0.0
        mean_dens = sum(dens[tau] for tau in window) / len(window)
        log.append(ControllerRecord(outer, objective, mean_alpha, mean_dens,
                                    eq.final_gap, eq.loading.tstt_veh_h))
        if best is None or objective < best.objective:
            best = BilevelResult(schedule, eq, log, objective, k_cr)
        objectives.append(objective)
        if len(objectives) >= 4:
            stalled = all(
                objectives[-i - 1] >= objectives[-i - 2]
                * (1.0 - toll_config.improvement_tol)
                for i in range(3))
            if stalled:
                break
        if window and all(abs(schedule.alpha_at(tau) - toll_config.alpha_max)
                          < 1e-12 for tau in window):
            break
        new_alpha = {}
        for tau in window:
            alpha, pi_states[tau] = pi_update(pi_states[tau], dens[tau])
            new_alpha[tau] = alpha
        new_omega = {}
        for lid in zone_ids:
            for tau in range(clock.n_intervals):
                st = eq.loading.states[lid][tau]
                new_omega[(lid, tau)] = congestion_weight(
                    st.travel_time, st.free_flow_time, toll_config.omega_max)
        schedule = TollSchedule(alpha=new_alpha, omega=new_omega)

    best.log = log
    return best
