"""Spatially differentiated distance tolling, NFD aggregation, the PI toll
controller and the bi-level outer loop.

Tolls apply per pricing-zone link as alpha * (1 + omega) * length, where
alpha ($/km) is set per tolling interval by a discrete PI controller tracking
the zone's critical density, and omega in [0, omega_max] reflects each link's
relative delay. SO-class vehicles are exempt: their costs never see tolls.

The controller keeps no state: `pi_update` maps the config, the setpoint, an
interval's zone density and its last (rate, density) to the next rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .demand import ClassDemand
from .equilibrium import EquilibriumResult, SolverConfig, solve_mixed_equilibrium
from .network import Clock, Link, Network, write_csv


@dataclass(frozen=True)
class TollConfig:
    alpha_max: float = 5.0           # $/km
    p_gain: float = 0.05             # $/km per veh/km
    i_gain: float = 0.025            # $/km per veh/km
    omega_max: float = 1.0
    window: tuple | None = None      # tolled intervals; None = all
    outer_cap: int = 25
    improvement_tol: float = 0.01    # relative objective improvement

    def __post_init__(self):
        if not 0.0 < self.alpha_max < math.inf:
            raise ValueError("alpha_max must be finite and positive")
        if not 0.0 <= self.omega_max < math.inf:
            raise ValueError("omega_max must be finite and non-negative")
        for name in ("p_gain", "i_gain"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0.0 <= self.improvement_tol < 1.0:
            raise ValueError("improvement_tol must be finite and in [0, 1)")
        if self.outer_cap < 1:
            raise ValueError("outer_cap must be at least 1")
        if self.window is not None and not self.window:
            raise ValueError("toll window is empty; omit it to toll every interval")
        if self.window is not None and len(set(self.window)) < len(self.window):
            raise ValueError(f"toll window {list(self.window)} repeats an interval")

    def tolled_intervals(self, clock: Clock) -> tuple:
        """The window, or every interval; each must lie within the clock."""
        intervals = range(clock.n_intervals)
        if any(tau not in intervals for tau in self.window or ()):
            raise ValueError(f"toll window {list(self.window)} reaches outside "
                             f"the clock's {clock.n_intervals} intervals")
        return tuple(intervals if self.window is None else self.window)


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

    def link_toll(self, link: Link, interval: int) -> float:
        """Dollars charged for traversing a zone link entered in `interval`."""
        if not link.in_pricing_zone:
            return 0.0
        return (self.alpha.get(interval, 0.0)
                * (1.0 + self.omega.get((link.id, interval), 0.0))
                * link.length / 1000.0)

    def write_alpha_csv(self, path) -> None:
        write_csv(path, ["interval_index", "alpha_per_km"], sorted(self.alpha.items()))

    def write_omega_csv(self, path) -> None:
        write_csv(path, ["link_id", "interval_index", "omega"],
                  [(lid, tau, w) for (lid, tau), w in sorted(self.omega.items())])


def congestion_weight(travel_time: float, free_flow_time: float,
                      omega_max: float) -> float:
    """Relative delay (tt - t0)/t0 clamped to [0, omega_max]."""
    if free_flow_time <= 0:
        raise ValueError("free-flow time must be positive")
    return min(max((travel_time - free_flow_time) / free_flow_time, 0.0), omega_max)


@dataclass(frozen=True)
class NFDPoint:
    interval: int
    density: float   # veh/km, lane-length weighted
    flow: float      # veh/h, lane-length weighted


def nfd_series(result, link_ids=None) -> list[NFDPoint]:
    """Per-interval NFD trajectory of a loading over the given links of its
    network (default: all of them): density and flow, each weighted by the
    links' lane-lengths."""
    network = result.network
    if link_ids is None:
        links = network.link_list
    else:
        links = [network.links[lid] for lid in sorted(link_ids)]
    if not links:
        raise ValueError("empty link set")
    rows = [(result.states[a.id], a.length * a.lanes) for a in links]
    weight = 0.0
    for _, w in rows:
        weight += w
    series = []
    for tau in range(result.clock.n_intervals):
        ksum = qsum = 0.0
        for states, w in rows:
            st = states[tau]
            ksum += st.density * w
            qsum += st.flow * w
        series.append(NFDPoint(tau, ksum / weight, qsum / weight))
    return series


@dataclass(frozen=True)
class CriticalDensityEstimate:
    k_cr: float
    interval: int
    low_confidence: bool


def check_critical_density(k_cr: float) -> None:
    """ValueError unless the controller's setpoint `k_cr` is finite and positive."""
    if not 0.0 < k_cr < math.inf:
        raise ValueError(f"critical density must be finite and positive, got {k_cr!r}")


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


def pi_update(config: TollConfig, k_cr: float, k_bar: float,
              last: tuple[float, float] | None = None) -> float:
    """One discrete PI step from zone density `k_bar` toward setpoint `k_cr`:
    the toll rate clamped to [0, alpha_max]. `last` is the interval's previous
    (rate, density); without one the step has only the integral term."""
    if last is None:
        raw = config.i_gain * (k_bar - k_cr)
    else:
        prev_alpha, prev_k = last
        raw = (prev_alpha + config.p_gain * (k_bar - prev_k)
               + config.i_gain * (k_bar - k_cr))
    return min(max(raw, 0.0), config.alpha_max)


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


def bilevel_solve(network: Network, demand: ClassDemand, clock: Clock,
                  toll_config: TollConfig, solver_config: SolverConfig,
                  k_cr: float, untolled: EquilibriumResult) -> BilevelResult:
    """NFD-tracking outer loop: equilibrate under the current schedule, then
    PI-update the per-interval toll rates from the zone density, until the
    density-tracking objective stalls, all rates pin at the cap, or the outer
    iteration cap is reached. Returns the best schedule seen.

    `untolled` is the no-toll equilibrium of `demand`. A schedule with no
    positive rate charges nothing, whatever its weights, so the outer
    iterations under one (the first among them) reuse it instead of solving.
    """
    check_critical_density(k_cr)
    zone_ids = sorted(network.zone_link_ids)
    if not zone_ids:
        raise ValueError("pricing zone is empty")
    window = toll_config.tolled_intervals(clock)
    schedule = TollSchedule()
    prev_dens = None   # zone densities at the last PI step; None before the first
    best = None
    log = []
    for outer in range(1, toll_config.outer_cap + 1):
        eq = (solve_mixed_equilibrium(network, demand, clock, solver_config,
                                      toll_schedule=schedule)
              if any(schedule.alpha.values()) else untolled)
        series = nfd_series(eq.loading, zone_ids)
        dens = {pt.interval: pt.density for pt in series}
        objective = sum(abs(dens[tau] - k_cr) for tau in window)
        mean_alpha = sum(schedule.alpha.get(tau, 0.0) for tau in window) / len(window)
        mean_dens = sum(dens[tau] for tau in window) / len(window)
        log.append(ControllerRecord(outer, objective, mean_alpha, mean_dens,
                                    eq.final_gap, eq.loading.tstt_veh_h))
        if best is None or objective < best.objective:
            best = BilevelResult(schedule, eq, log, objective)
        if len(log) >= 4:
            stalled = all(
                log[-i - 1].objective >= log[-i - 2].objective
                * (1.0 - toll_config.improvement_tol)
                for i in range(3))
            if stalled:
                break
        if all(abs(schedule.alpha.get(tau, 0.0) - toll_config.alpha_max) < 1e-12
               for tau in window):
            break
        new_alpha = {tau: pi_update(toll_config, k_cr, dens[tau],
                                    None if prev_dens is None
                                    else (schedule.alpha[tau], prev_dens[tau]))
                     for tau in window}
        prev_dens = dens
        new_omega = {}
        for lid in zone_ids:
            for tau in range(clock.n_intervals):
                st = eq.loading.states[lid][tau]
                new_omega[(lid, tau)] = congestion_weight(
                    st.travel_time, st.free_flow_time, toll_config.omega_max)
        schedule = TollSchedule(alpha=new_alpha, omega=new_omega)
        del eq   # the next solve runs with only `best`'s alive

    return best
