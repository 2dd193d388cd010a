"""Mixed UE/SO equilibrium solver: AON direction finding, MSA/MSWA averaging
and dual relative gaps.

The solver builds one list of demand rows, (path set, class, interval,
demand) per positive class demand; each OD pair's path sets, one per class,
start from its distance-shortest path, read off one distance search per
origin. Each iteration walks the rows: it loads the rows' path flows (each
row is one loader group, `(class, interval, paths, flows)`), searches
time-dependent best paths (shortest generalized cost for UE, least marginal
time for SO), prices every row's paths for the two relative gaps and their
mean, then blends the all-or-nothing proportions with a successive-averages
step (MSWA exponent `SolverConfig.gamma`, 0 is plain MSA).

A solve holds one loading at a time. Past the path sets and the log, an
iteration keeps nothing for the next: its loading, unless it can end the
solve, goes once its skims are built, and the skims with their search
trees, the gap rows and the AON paths go before the next loading runs. The
returned loading is the last one, with per-vehicle records and clearance
data.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .demand import SO, UE, ClassDemand
from .loading import load_network
from .network import Clock, Network
from .routing import (CAP_SO, CAP_UE, SO_COST, UE_COST, CostSkims, PathSet,
                      distance_paths, td_shortest_path)
from .routing import distance_shortest_path  # noqa: F401  (traced here by bench/run.py)


class UndefinedGapError(ArithmeticError):
    """The relative-gap denominator is zero while flows are present."""


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 100
    gap_tolerance: float = 0.01
    gamma: float = 0.0           # MSWA step-size exponent; 0 is plain MSA
    vot_per_hour: float = 15.0   # $/h; converts tolls to time

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.gap_tolerance < math.inf:
            raise ValueError("gap_tolerance must be finite and positive")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and non-negative")
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


def step_size(n: int, gamma: float) -> float:
    """MSWA step theta_n = n^gamma / sum_{j=1..n} j^gamma.

    gamma = 1 uses the fixed closed form 2/(n+2); the other schedules use the
    generic ratio (1/n at gamma = 0, 6n/((n+1)(2n+1)) at gamma = 2).
    """
    if n < 1:
        raise ValueError("iteration index must be >= 1")
    if gamma == 1.0:
        return 2.0 / (n + 2)
    return n ** gamma / sum(j ** gamma for j in range(1, n + 1))


def update_proportions(current, auxiliary, theta: float):
    """Convex step from the current proportions toward the AON ones."""
    if len(current) != len(auxiliary):
        raise ValueError("proportion vectors cover different path sets")
    return [p + theta * (y - p) for p, y in zip(current, auxiliary)]


def relative_gap(rows) -> float:
    """Relative gap sum f*(c - least) / sum q*least over demand rows.

    Each row is (flows, costs, least, demand) for one (OD, interval): per-path
    flows and costs (UE: generalized travel times, SO: marginal times), the
    least cost and the demand.
    """
    num = 0.0
    den = 0.0
    any_flow = False
    for flows, costs, best, q in rows:
        for f, c in zip(flows, costs):
            if f > 0:
                any_flow = True
            num += f * (c - best)
        den += q * best
    if den == 0.0:
        if any_flow:
            raise UndefinedGapError("zero gap denominator with positive flows")
        return 0.0
    return num / den


_COST_KIND = {UE: UE_COST, SO: SO_COST}
_CAPS = {UE: CAP_UE, SO: CAP_SO}


def solve_mixed_equilibrium(network: Network, demand: ClassDemand, clock: Clock,
                            config: SolverConfig = SolverConfig(),
                            toll_schedule=None) -> EquilibriumResult:
    """Run the iterative mixed-equilibrium assignment until the mean relative
    gap stays at or below the tolerance for two consecutive iterations, or the
    iteration cap is reached. Returns the full iteration log either way.
    Only the loadings that can end the solve keep per-vehicle records, so
    the returned `loading.vehicles` is always complete. Without SO demand no
    row routes on marginal time, so only those same loadings keep the
    clearance data, and the returned loading always has it too. Each
    loading runs with no earlier loading of the solve alive.
    """
    t0 = time.perf_counter()
    # (od, class) -> {interval: demand} over the positive class demands.
    od_demand: dict[tuple[str, str, int], dict[int, float]] = {}
    for (o, d, tau), qs in sorted(demand.entries.items()):
        for cls, q in zip((UE, SO), qs):
            if q > 0:
                od_demand.setdefault((o, d, cls), {})[tau] = q

    # (origin, destination) -> distance path, both classes' first path, from
    # one distance search per origin; the searches are not kept.
    destinations: dict[str, dict[str, None]] = {}
    for o, d, _ in od_demand:
        destinations.setdefault(o, {})[d] = None
    first_paths = {(o, d): path for o, ds in destinations.items()
                   for d, path in zip(ds, distance_paths(network, o, ds))}
    path_sets: dict[tuple[str, str, int], PathSet] = {}
    rows = []           # (path set, class, interval, demand), path-set order
    for (o, d, cls), by_tau in od_demand.items():
        ps = PathSet(o, d, _CAPS[cls], tuple(by_tau))
        ps.insert(first_paths[o, d])
        path_sets[(o, d, cls)] = ps
        rows += [(ps, cls, tau, q) for tau, q in by_tau.items()]
    routes_so = any(cls == SO for _, cls, _, _ in rows)

    log: list[IterationRecord] = []
    hits = 0
    for it in range(1, config.max_iterations + 1):
        flows = [[p * q for p in ps.proportions[tau]] for ps, _, tau, q in rows]
        groups = [(cls, tau, ps.paths, fs) for (ps, cls, tau, _), fs in zip(rows, flows)]
        # The loop stops only at the cap or once `hits` reaches 2, so only a
        # loading made at the cap or after one hit can become the result's;
        # the others skip the per-vehicle records and, unless a row routes on
        # the SO cost, the clearance data.
        final = it == config.max_iterations or hits == 1
        loading = load_network(network, groups, clock, records=final,
                               clearance=routes_so or final)
        skims = CostSkims.from_loading(loading, toll_schedule, config.vot_per_hour)
        tstt = loading.tstt_veh_h
        if not final:
            loading = None      # nothing reads it past its skims

        # AON searches and path costs over the untouched path sets.
        gap_rows = {UE: [], SO: []}
        aon = []
        for (ps, cls, tau, q), fs in zip(rows, flows):
            kind = _COST_KIND[cls]
            best_path, best_cost = td_shortest_path(
                skims, ps.origin, ps.destination, tau, kind)
            costs = [best_cost if p.link_ids == best_path.link_ids
                     else skims.path_cost(p, tau, kind) for p in ps.paths]
            gap_rows[cls].append((fs, costs, min(min(costs), best_cost), q))
            aon.append(best_path)
        r1gap, r2gap = relative_gap(gap_rows[UE]), relative_gap(gap_rows[SO])
        # Path-set updates and MSWA proportion blending.
        theta = step_size(it, config.gamma)
        for (ps, _, tau, _), best_path in zip(rows, aon):
            best_idx = ps.insert(best_path)
            y = [1.0 if i == best_idx else 0.0 for i in range(len(ps.paths))]
            ps.proportions[tau] = update_proportions(
                ps.proportions[tau], y, theta)

        rgap = (r1gap + r2gap) / 2.0
        if not math.isfinite(rgap):
            raise ArithmeticError("non-finite relative gap")
        log.append(IterationRecord(it, r1gap, r2gap, rgap, tstt,
                                   time.perf_counter() - t0))
        hits = hits + 1 if rgap <= config.gap_tolerance else 0
        converged = hits >= 2
        if converged or it == config.max_iterations:
            break
        # The next loading reads none of this iteration's objects, so it
        # runs with none of them alive.
        del loading, skims, gap_rows, aon

    return EquilibriumResult(path_sets, loading, log, converged)
