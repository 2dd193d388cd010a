"""Mixed UE/SO equilibrium solver: AON direction finding, MSA/MSWA averaging
and dual relative gaps.

Each iteration loads the current class path flows, searches time-dependent
best paths per class (shortest generalized cost for UE, least marginal time
for SO), blends the all-or-nothing proportions with a successive-averages
step and evaluates the two relative gaps plus their mean.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .demand import SO, UE, ClassDemand
from .fd import ClassReactionTimes
from .loading import PathAssignment, load_network
from .network import Clock, Network
from .routing import (CAP_SO, CAP_UE, SO_COST, UE_COST, CostSkims, PathSet,
                      distance_shortest_path, td_shortest_path)


class UndefinedGapError(ArithmeticError):
    """The relative-gap denominator is zero while flows are present."""


@dataclass(frozen=True)
class StepSchedule:
    """MSWA step-size schedule; gamma = 0 is plain MSA."""
    gamma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and non-negative")


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 100
    gap_tolerance: float = 0.01
    schedule: StepSchedule = StepSchedule()
    vot_per_hour: float = 15.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.gap_tolerance < math.inf:
            raise ValueError("gap_tolerance must be finite and positive")
        if not 0.0 < self.vot_per_hour < math.inf:
            raise ValueError("vot_per_hour must be finite and positive")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    r1gap: float
    r2gap: float
    rgap: float
    tstt_veh_h: float
    wall_time_s: float


@dataclass
class EquilibriumResult:
    path_sets: dict            # (origin, destination, class) -> PathSet
    loading: object            # LoadingResult of the final flows
    log: list = field(default_factory=list)
    converged: bool = False

    @property
    def final_gap(self) -> float:
        return self.log[-1].rgap if self.log else 0.0


def step_size(n: int, schedule: StepSchedule) -> float:
    """MSWA step theta_n = n^gamma / sum_{j=1..n} j^gamma.

    gamma = 1 uses the fixed closed form 2/(n+2); the other schedules use the
    generic ratio (1/n at gamma = 0, 6n/((n+1)(2n+1)) at gamma = 2).
    """
    if n < 1:
        raise ValueError("iteration index must be >= 1")
    g = schedule.gamma
    if g == 1.0:
        return 2.0 / (n + 2)
    return n ** g / sum(j ** g for j in range(1, n + 1))


def update_proportions(current, auxiliary, theta: float):
    """Convex step from the current proportions toward the AON ones."""
    if len(current) != len(auxiliary):
        raise ValueError("proportion vectors cover different path sets")
    return [p + theta * (y - p) for p, y in zip(current, auxiliary)]


def path_flows(proportions, demand: float):
    """Per-path flows for one (OD, interval, class)."""
    return [p * demand for p in proportions]


def relative_gap(flows, costs, least, demands) -> float:
    """Relative gap sum f*(c - least) / sum q*least over (OD, interval) keys.

    `flows`/`costs`: dict[key] -> sequence per path (UE: generalized travel
    times, SO: marginal times); `least`/`demands`: dict[key] -> scalar.
    """
    num = 0.0
    den = 0.0
    any_flow = False
    for key, key_flows in flows.items():
        best = least[key]
        for f, c in zip(key_flows, costs[key]):
            if f > 0:
                any_flow = True
            num += f * (c - best)
        den += demands[key] * best
    if den == 0.0:
        if any_flow:
            raise UndefinedGapError("zero gap denominator with positive flows")
        return 0.0
    return num / den


_COST_KIND = {UE: UE_COST, SO: SO_COST}
_CAPS = {UE: CAP_UE, SO: CAP_SO}


def solve_mixed_equilibrium(network: Network, demand: ClassDemand, clock: Clock,
                            config: SolverConfig = SolverConfig(),
                            toll_schedule=None,
                            reaction_times: ClassReactionTimes = ClassReactionTimes()
                            ) -> EquilibriumResult:
    """Run the iterative mixed-equilibrium assignment until the mean relative
    gap stays at or below the tolerance for two consecutive iterations, or the
    iteration cap is reached. Returns the full iteration log either way.
    """
    t0 = time.perf_counter()
    class_q = {UE: demand.q1, SO: demand.q2}

    # (od, class) -> intervals with positive demand for that class.
    demand_keys: dict[tuple[str, str, int], list[int]] = {}
    for (o, d, tau), (q1, q2) in sorted(demand.entries.items()):
        if q1 > 0:
            demand_keys.setdefault((o, d, UE), []).append(tau)
        if q2 > 0:
            demand_keys.setdefault((o, d, SO), []).append(tau)

    path_sets: dict[tuple[str, str, int], PathSet] = {}
    for (o, d, cls), taus in demand_keys.items():
        ps = PathSet(o, d, _CAPS[cls], tuple(taus))
        ps.insert(distance_shortest_path(network, o, d))
        path_sets[(o, d, cls)] = ps

    result = None
    log: list[IterationRecord] = []
    converged = False
    hits = 0
    for it in range(1, config.max_iterations + 1):
        assignments = []
        for (o, d, cls), ps in path_sets.items():
            for tau in ps.intervals:
                q = class_q[cls](o, d, tau)
                for path, flow in zip(ps.paths, path_flows(ps.proportions[tau], q)):
                    if flow > 0:
                        assignments.append(PathAssignment(cls, path, tau, flow))
        result = load_network(network, assignments, clock, reaction_times)
        skims = CostSkims.from_loading(result, toll_schedule, config.vot_per_hour)

        theta = step_size(it, config.schedule)
        gap_inputs = {UE: ({}, {}, {}), SO: ({}, {}, {})}
        aon: dict[tuple, object] = {}
        # Pass 1: costs, gaps and AON searches over the untouched path sets.
        for (o, d, cls), ps in path_sets.items():
            kind = _COST_KIND[cls]
            flows_d, costs_d, least_d = gap_inputs[cls]
            for tau in ps.intervals:
                q = class_q[cls](o, d, tau)
                best_path, best_cost = td_shortest_path(
                    network, skims, o, d, tau, kind)
                costs = [skims.path_cost(p, tau, kind) for p in ps.paths]
                flows_d[(o, d, tau)] = path_flows(ps.proportions[tau], q)
                costs_d[(o, d, tau)] = costs
                least_d[(o, d, tau)] = min(min(costs), best_cost)
                aon[(o, d, cls, tau)] = best_path
        # Pass 2: path-set updates and MSWA proportion blending.
        for (o, d, cls), ps in path_sets.items():
            for tau in ps.intervals:
                best_idx = ps.insert(aon[(o, d, cls, tau)])
                y = [1.0 if i == best_idx else 0.0 for i in range(len(ps.paths))]
                ps.proportions[tau] = update_proportions(
                    ps.proportions[tau], y, theta)

        gaps = {}
        for cls in (UE, SO):
            flows_d, costs_d, least_d = gap_inputs[cls]
            demands = {(o, d, tau): class_q[cls](o, d, tau)
                       for (o, d, tau) in flows_d}
            gaps[cls] = (relative_gap(flows_d, costs_d, least_d, demands)
                         if flows_d else 0.0)
        rgap = (gaps[UE] + gaps[SO]) / 2.0
        if not math.isfinite(rgap):
            raise ArithmeticError("non-finite relative gap")
        log.append(IterationRecord(it, gaps[UE], gaps[SO], rgap,
                                   result.tstt_veh_h,
                                   time.perf_counter() - t0))
        hits = hits + 1 if rgap <= config.gap_tolerance else 0
        if hits >= 2:
            converged = True
            break

    if result is None:  # zero demand: one empty loading for a consistent result
        result = load_network(network, [], clock, reaction_times)
        log.append(IterationRecord(1, 0.0, 0.0, 0.0, 0.0,
                                   time.perf_counter() - t0))
        converged = True

    return EquilibriumResult(path_sets, result, log, converged)
