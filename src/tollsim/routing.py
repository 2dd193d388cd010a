"""Time-dependent least-cost path search and bounded path-set management.

`CostSkims` is the one source of path costs: per-link rows, one value per
interval, of travel times plus two cost kinds, UE_COST (travel time plus the
toll converted to seconds at the value of time) and SO_COST (the loading's
link marginal time, never tolled), summed alike by `path_cost` and the
search below.

Link costs are read at the interval of arrival at each link, clamped to the
last interval past the horizon; arrival times propagate along travel-time
skims. Ties are broken by the lexicographically smallest link-id sequence so
searches are fully deterministic.

A label-setting search from one origin settles nodes in the same order
whatever the destination, so each (origin, departure interval, cost kind)
is searched once, to every node, and the tree is kept on the skims it was
built from; a path query is a lookup into that tree. The search pushes a
relaxation only if it beats every entry already pushed for its node, which
leaves each settled label, tie-breaks included, as a full search finds it.
"""
from __future__ import annotations

import heapq
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
    """Per-link rows of travel times and UE and SO generalized costs.

    Each of the three skims maps a link id to a list with one value per
    assignment interval, so a lookup is `row[tau]`. Times past the horizon
    read the last interval, as `Clock.interval_of` clamps them. `so_cost`
    is None on skims without SO rows, those built from a loading made with
    `clearance=False`; an SO path cost or search on them raises ValueError.
    """

    def __init__(self, clock: Clock, travel_time, ue_cost, so_cost):
        self.clock = clock
        self._tt = travel_time
        self._costs = {UE_COST: ue_cost, SO_COST: so_cost}
        # (network, origin, interval, kind) -> {node: (cost, link ids)}
        self._trees: dict[tuple, dict] = {}

    def _rows(self, kind: str) -> dict:
        costs = self._costs[kind]
        if costs is None:
            raise ValueError("these skims have no SO cost rows: build them from "
                             "a loading made with clearance=True")
        return costs

    @classmethod
    def from_loading(cls, result, toll_schedule=None, vot_per_hour=None):
        """Build skims from a loading; tolls enter the UE cost in seconds at
        the value of time `vot_per_hour` ($/h), which a tolled build must pass.
        SO rows (link marginal times) are built only from a loading that kept
        its clearance data (`result.clearance`)."""
        if toll_schedule is not None and vot_per_hour is None:
            raise ValueError("tolled skims need the value of time")
        tt = {}
        ue = {}
        so = {} if result.clearance else None
        for lid, rows in result.states.items():
            link = result.network.links[lid]
            tt[lid] = [st.travel_time for st in rows]
            if so is not None:
                so[lid] = [result.marginal_time(lid, tau) for tau in range(len(rows))]
            if toll_schedule is not None and link.in_pricing_zone:
                ue[lid] = [st.travel_time
                           + toll_schedule.link_toll(link, tau) / vot_per_hour * 3600.0
                           for tau, st in enumerate(rows)]
            else:
                ue[lid] = tt[lid]
        return cls(result.clock, tt, ue, so)

    def path_cost(self, path: Path, departure_interval: int, kind: str) -> float:
        """Sum of per-link costs with arrival-interval lookups along the path."""
        costs = self._rows(kind)
        tt = self._tt
        interval_s = self.clock.interval_s
        last = self.clock.n_intervals - 1
        t = departure_interval * interval_s
        total = 0.0
        for lid in path.link_ids:
            tau = int(t // interval_s)
            if tau > last:
                tau = last
            total += costs[lid][tau]
            t += tt[lid][tau]
        return total


def _search_tree(network: Network, skims: CostSkims, origin: str,
                 departure_interval: int, cost_kind: str) -> dict:
    """Least-cost labels {node: (cost, link ids)} of every node reachable
    from `origin` for a departure at the start of the interval.

    A relaxation is pushed only if its (cost, link ids) beats the least pair
    pushed for that node so far. Link ids name one path, so no two entries
    for a node tie on both, and a dominated entry would only have popped
    after that node was settled: every label is the one an unpruned search
    settles.
    """
    costs = skims._rows(cost_kind)
    tt = skims._tt
    interval_s = skims.clock.interval_s
    last = skims.clock.n_intervals - 1
    out_links = network.out_links
    heappush, heappop = heapq.heappush, heapq.heappop
    heap = [(0.0, (), origin, float(departure_interval * interval_s))]
    pushed: dict[str, tuple] = {}
    tree: dict[str, tuple] = {}
    while heap:
        cost, lex, node, t = heappop(heap)
        if node in tree:
            continue
        tree[node] = (cost, lex)
        tau = int(t // interval_s)
        if tau > last:
            tau = last
        for link in out_links.get(node, ()):
            head = link.to_node
            if head in tree:
                continue
            lid = link.id
            entry = (cost + costs[lid][tau], lex + (lid,), head, t + tt[lid][tau])
            best = pushed.get(head)
            if best is not None and best <= entry:
                continue
            pushed[head] = entry
            heappush(heap, entry)
    return tree


def td_shortest_path(network: Network, skims: CostSkims, origin: str,
                     destination: str, departure_interval: int,
                     cost_kind: str = UE_COST) -> tuple[Path, float]:
    """Least-cost acyclic path for a departure at the start of the interval."""
    key = (network, origin, departure_interval, cost_kind)
    tree = skims._trees.get(key)
    if tree is None:
        tree = skims._trees[key] = _search_tree(network, skims, origin,
                                                departure_interval, cost_kind)
    label = tree.get(destination)
    if label is None or not label[1]:
        raise UnreachableError(origin, destination)
    cost, lex = label
    return Path(lex, origin, destination), cost


def distance_shortest_path(network: Network, origin: str, destination: str) -> Path:
    """Static shortest path by link length (used for initialization)."""
    heap = [(0.0, (), origin)]
    settled: set[str] = set()
    while heap:
        dist, lex, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            if not lex:
                raise UnreachableError(origin, destination)
            return Path(lex, origin, destination)
        for link in network.out_links.get(node, ()):
            if link.to_node in settled:
                continue
            heapq.heappush(heap, (dist + link.length, lex + (link.id,), link.to_node))
    raise UnreachableError(origin, destination)


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

    def index_of(self, path: Path):
        for i, p in enumerate(self.paths):
            if p.link_ids == path.link_ids:
                return i
        return None

    def insert(self, path: Path) -> int:
        """Insert a path honoring the cap; returns its index.

        A duplicate leaves the set unchanged. At cap, the path with the
        smallest mean proportion (ties: oldest) is evicted and the survivors
        are renormalized; the new path starts at proportion 0, or at 1 in an
        interval whose proportions sum to 0 (as in an empty set).
        """
        idx = self.index_of(path)
        if idx is not None:
            return idx
        if len(self.paths) >= self.cap:
            means = [sum(self.proportions[tau][i] for tau in self.proportions)
                     for i in range(len(self.paths))]
            evict = min(range(len(self.paths)), key=lambda i: (means[i], i))
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
