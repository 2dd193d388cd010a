"""Time-dependent least-cost path search and bounded path-set management.

`CostSkims` is the one source of path costs: one network's travel times and
two cost kinds, UE_COST (travel time plus the toll converted to seconds at
the value of time) and SO_COST (the loading's link marginal time, never
tolled), each held once as per-interval columns indexed by position in
`network.link_order`, and summed alike by `path_cost` and the search below.

Link costs are read at the interval of arrival at each link, clamped to the
last interval past the horizon; arrival times propagate along travel-time
skims, so `path_cost` steps its interval forward as they pass interval
ends. A departure interval outside the clock raises ValueError. One
label-setting search runs on the network's link and node indices, always to
every node; a cost tie goes to the lexicographically smallest link-id
sequence, so searches are fully deterministic. Each (origin, departure
interval, cost kind) is searched once, and the tree is kept on the skims it
was built from; a path query walks that tree back from its destination. The
distance search runs it on link lengths, once per origin.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .network import Clock, Network, Path

UE_COST = "ue"
SO_COST = "so"

CAP_UE = 3
CAP_SO = 5


class UnreachableError(ValueError):
    def __init__(self, origin, destination):
        super().__init__(f"destination {destination!r} unreachable from {origin!r}")


class CostSkims:
    """One network's travel times and UE and SO generalized costs, each a
    list of per-interval columns with one value per link in
    `network.link_order`: link `lid`'s value in interval `tau` is
    `skim[tau][network.link_index[lid]]`. Times past the horizon read the
    last interval, as `Clock.interval_of` clamps them. `so_cost` is None on
    skims built from a loading made with `clearance=False`; an SO path cost
    or search on them raises ValueError. Every entry must be finite and
    positive, as the search needs."""

    def __init__(self, network: Network, clock: Clock, travel_time, ue_cost, so_cost):
        for what, skim in (("travel time", travel_time), ("UE cost", ue_cost),
                           ("SO cost", so_cost or ())):
            for tau, column in enumerate(skim):
                for a, value in zip(network.link_order, column):
                    if not 0.0 < value < math.inf:
                        raise ValueError(f"link {a.id!r} has {what} {value!r} in interval "
                                         f"{tau}; path searches need finite positive costs")
        self.network = network
        self.clock = clock
        self._tt = travel_time
        self._costs = {UE_COST: ue_cost, SO_COST: so_cost}
        self._trees: dict[tuple, tuple] = {}     # (origin, interval, kind) -> tree

    def _columns(self, kind: str) -> list:
        costs = self._costs[kind]
        if costs is None:
            raise ValueError("these skims have no SO costs: build them from "
                             "a loading made with clearance=True")
        return costs

    @classmethod
    def from_loading(cls, result, toll_schedule=None, vot_per_hour=None):
        """Build skims from a loading, on its network; tolls enter the UE
        cost in seconds at the value of time `vot_per_hour` ($/h), which a
        tolled build must pass. Untolled, the UE columns are the travel-time
        columns. SO columns (link marginal times) are built only from a
        loading that kept its clearance data (`result.clearance`)."""
        if toll_schedule is not None and vot_per_hour is None:
            raise ValueError("tolled skims need the value of time")
        links = result.network.link_order
        rows = [result.states[a.id] for a in links]
        taus = range(result.clock.n_intervals)
        tt = [[row[tau].travel_time for row in rows] for tau in taus]
        ue = tt if toll_schedule is None else [
            [t + toll_schedule.link_toll(a, tau) / vot_per_hour * 3600.0
             if a.in_pricing_zone else t for a, t in zip(links, column)]
            for tau, column in zip(taus, tt)]
        so = ([[result.marginal_time(a.id, tau) for a in links] for tau in taus]
              if result.clearance else None)
        return cls(result.network, result.clock, tt, ue, so)

    def path_cost(self, path: Path, departure_interval: int, kind: str) -> float:
        """Sum of per-link costs with arrival-interval lookups along the path.
        Raises ValueError for a departure interval outside the clock."""
        costs = self._columns(kind)
        tt = self._tt
        index = self.network.link_index
        interval_s = self.clock.interval_s
        last = self.clock.n_intervals - 1
        self.clock.check_interval(departure_interval)
        # Arrival times only grow, so the interval advances while t has
        # reached its end: for t >= 0, t >= (tau + 1) * interval_s exactly
        # when int(t // interval_s) > tau.
        tau = departure_interval
        t = tau * interval_s
        end = t + interval_s
        total = 0.0
        for lid in path.link_ids:
            while t >= end and tau < last:
                tau += 1
                end += interval_s
            li = index[lid]
            total += costs[tau][li]
            t += tt[tau][li]
        return total


def _search(network: Network, origin: int, t0: float, costs, tt, interval_s,
            last: int) -> tuple[list, list, list]:
    """Label-setting search from node index `origin` at time `t0` to every
    node, over per-interval columns of link costs and times read at the
    arrival interval, clamped to `last`: per-node least cost, parent link
    and parent node (-1 at the origin and unreached nodes). A cost tie goes
    to the smaller link ids. That gives each node the label a search ordered
    on (cost, link ids) settles only if every link cost is positive: a
    zero-cost link could settle a node before an equal-cost, smaller label
    reaches it."""
    n = len(network.node_index)
    cost, plink, pnode = [math.inf] * n, [-1] * n, [-1] * n
    arrival, done = [0.0] * n, [False] * n
    adj = network.out_adj
    heappush, heappop = heapq.heappush, heapq.heappop
    cost[origin], arrival[origin] = 0.0, t0
    heap = [(0.0, origin)]
    while heap:
        c, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        t = arrival[u]
        tau = int(t // interval_s)
        if tau > last:
            tau = last
        col, tt_col = costs[tau], tt[tau]
        for li, v in adj[u]:
            if done[v]:
                continue
            cv = c + col[li]
            cw = cost[v]
            if cv < cw:
                heappush(heap, (cv, v))
            elif cv > cw or plink[v] < 0:    # worse, or both infinite
                continue
            else:
                # Walk both paths back to the last node they share; the links
                # they take from it differ and decide. Costs rise along a
                # path, so the dearer node is not on the other's path.
                a, la, b, lb = u, li, pnode[v], plink[v]
                while a != b:
                    if cost[a] < cost[b]:
                        b, lb = pnode[b], plink[b]
                    else:
                        a, la = pnode[a], plink[a]
                if la > lb:
                    continue
            cost[v], plink[v], pnode[v] = cv, li, u
            arrival[v] = t + tt_col[li]
    return cost, plink, pnode


def _path(network: Network, tree, origin: str, destination: str) -> tuple[Path, float]:
    """The tree's path to `destination` and its cost; UnreachableError if none."""
    cost, plink, pnode = tree
    v = network.node_index.get(destination)
    if v is None or plink[v] < 0:
        raise UnreachableError(origin, destination)
    least, ids, order = cost[v], [], network.link_order
    while (li := plink[v]) >= 0:
        ids.append(order[li].id)
        v = pnode[v]
    return Path(tuple(ids[::-1]), origin, destination), least


def td_shortest_path(network: Network, skims: CostSkims, origin: str,
                     destination: str, departure_interval: int,
                     cost_kind: str = UE_COST) -> tuple[Path, float]:
    """Least-cost acyclic path for a departure at the start of the interval,
    and its cost, summed as `path_cost` sums it. `network` must be the one
    the skims were built on, else ValueError."""
    if network is not skims.network:
        raise ValueError("these skims were built on another network")
    key = (origin, departure_interval, cost_kind)
    tree = skims._trees.get(key)
    if tree is None:
        skims.clock.check_interval(departure_interval)
        o = network.node_index.get(origin)
        if o is None:
            raise UnreachableError(origin, destination)
        interval_s = skims.clock.interval_s
        tree = skims._trees[key] = _search(
            network, o, float(departure_interval * interval_s),
            skims._columns(cost_kind), skims._tt, interval_s, skims.clock.n_intervals - 1)
    return _path(network, tree, origin, destination)


def distance_shortest_path(network: Network, origin: str, destination: str) -> Path:
    """Static shortest path by link length: `distance_paths` to one
    destination."""
    return distance_paths(network, origin, [destination])[0]


def distance_paths(network: Network, origin: str, destinations) -> list[Path]:
    """Static shortest paths by link length from `origin` to each
    destination in turn, read off one search to every node. Raises
    ValueError unless every link length is finite and positive, and
    UnreachableError at the first destination without a path."""
    if network.bad_length_ids:
        raise ValueError(f"links {list(network.bad_length_ids)} have lengths "
                         "that are not finite and positive")
    o = network.node_index.get(origin)
    if o is None:
        raise UnreachableError(origin, next(iter(destinations), None))
    lengths = (network.length_column,)
    tree = _search(network, o, 0.0, lengths, lengths, 1, 0)
    return [_path(network, tree, origin, d)[0] for d in destinations]


@dataclass
class PathSet:
    """Bounded path collection for one (OD, class) with per-interval proportions."""

    origin: str
    destination: str
    cap: int
    intervals: tuple[int, ...]
    paths: list = field(default_factory=list)
    proportions: dict = field(default_factory=dict)   # interval -> list[float]

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("path-set cap must be at least 1")
        for tau in self.intervals:
            self.proportions.setdefault(tau, [])

    def insert(self, path: Path) -> int:
        """Insert a path honoring the cap; returns its index.

        A duplicate leaves the set unchanged. At cap, the path with the
        smallest mean proportion (ties: oldest) is evicted and the survivors
        are renormalized; the new path starts at proportion 0, or at 1 in an
        interval whose proportions sum to 0 (as in an empty set).
        """
        for i, p in enumerate(self.paths):
            if p.link_ids == path.link_ids:
                return i
        if len(self.paths) >= self.cap:
            means = [sum(col) for col in zip(*self.proportions.values())]
            evict = means.index(min(means)) if means else 0
            del self.paths[evict]
            for tau, vec in self.proportions.items():
                vec.pop(evict)
                rest = sum(vec)
                if rest > 0:
                    self.proportions[tau] = [v / rest for v in vec]
                elif vec:
                    self.proportions[tau] = [1.0 / len(vec)] * len(vec)
        self.paths.append(path)
        for tau, vec in self.proportions.items():
            if len(vec) < len(self.paths):
                vec.append(0.0 if sum(vec) > 0 else 1.0)
        return len(self.paths) - 1
