"""Road network primitives: nodes, links, paths, pricing zone and the clock.

All quantities are SI (meters, seconds) unless a field name says otherwise.
Networks, paths and clocks are immutable after construction and safe to
share between concurrent readers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass


class InvalidPathError(ValueError):
    """A link sequence is not a contiguous, acyclic path."""


@dataclass(frozen=True)
class Node:
    id: str
    is_centroid: bool = False


@dataclass(frozen=True)
class Link:
    id: str
    from_node: str
    to_node: str
    length: float              # m
    lanes: int
    speed_limit: float         # m/s
    effective_vehicle_length: float = 7.0   # m, vehicle length + clearance
    reaction_time_factor: float = 1.0
    in_pricing_zone: bool = False

    @property
    def free_flow_time(self) -> float:
        return self.length / self.speed_limit

    @property
    def storage(self) -> float:
        """Maximum number of vehicles the link can hold at jam density."""
        return self.lanes * self.length / self.effective_vehicle_length


class Network:
    """Directed road network with an optional pricing-zone link subset."""

    def __init__(self, nodes, links):
        self.node_list = list(nodes)
        self.link_list = list(links)
        self.nodes = {n.id: n for n in self.node_list}
        self.links = {a.id: a for a in self.link_list}
        out: dict[str, list[Link]] = {nid: [] for nid in self.nodes}
        for a in self.link_list:
            out.setdefault(a.from_node, []).append(a)
        self.out_links = {nid: tuple(sorted(v, key=lambda a: a.id))
                          for nid, v in out.items()}

    @property
    def zone_link_ids(self) -> frozenset[str]:
        return frozenset(a.id for a in self.link_list if a.in_pricing_zone)

    @property
    def centroid_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.node_list if n.is_centroid)


def validate_network(network: Network) -> list[str]:
    """Return a list of invariant violations; empty iff the network is sound.

    Purely diagnostic: never raises, idempotent.
    """
    violations = []
    seen_nodes: set[str] = set()
    for n in network.node_list:
        if n.id in seen_nodes:
            violations.append(f"duplicate node id {n.id!r}")
        seen_nodes.add(n.id)
    seen_links: set[str] = set()
    touched: set[str] = set()
    for a in network.link_list:
        if a.id in seen_links:
            violations.append(f"duplicate link id {a.id!r}")
        seen_links.add(a.id)
        for end in (a.from_node, a.to_node):
            if end not in network.nodes:
                violations.append(f"link {a.id!r} references missing node {end!r}")
            else:
                touched.add(end)
        if not a.length > 0:
            violations.append(f"link {a.id!r} has non-positive length")
        if a.lanes < 1:
            violations.append(f"link {a.id!r} has lanes < 1")
        if not a.speed_limit > 0:
            violations.append(f"link {a.id!r} has non-positive speed limit")
        if not a.effective_vehicle_length > 0:
            violations.append(f"link {a.id!r} has non-positive effective vehicle length")
        if not a.reaction_time_factor > 0:
            violations.append(f"link {a.id!r} has non-positive reaction time factor")
    for n in network.node_list:
        if n.is_centroid and n.id not in touched:
            violations.append(f"centroid {n.id!r} is not connected to any link")
    return violations


@dataclass(frozen=True)
class Path:
    """An ordered, contiguous, acyclic sequence of links between centroids."""

    link_ids: tuple[str, ...]
    origin: str
    destination: str

    def validate(self, network: Network) -> None:
        if not self.link_ids:
            raise InvalidPathError("path has no links")
        prev = None
        visited = []
        for lid in self.link_ids:
            a = network.links.get(lid)
            if a is None:
                raise InvalidPathError(f"path references unknown link {lid!r}")
            if prev is None:
                if a.from_node != self.origin:
                    raise InvalidPathError(
                        f"path origin {self.origin!r} does not match first link tail {a.from_node!r}")
                visited.append(a.from_node)
            elif a.from_node != prev:
                raise InvalidPathError(
                    f"discontinuity at link {lid!r}: expected tail {prev!r}, got {a.from_node!r}")
            if a.to_node in visited:
                raise InvalidPathError(f"path revisits node {a.to_node!r}")
            visited.append(a.to_node)
            prev = a.to_node
        if prev != self.destination:
            raise InvalidPathError(
                f"path destination {self.destination!r} does not match last link head {prev!r}")


@dataclass(frozen=True)
class Clock:
    """Simulation step / assignment interval / horizon bookkeeping (seconds)."""

    step_s: int = 1
    interval_s: int = 300
    horizon_s: int = 3600

    def __post_init__(self):
        if self.step_s <= 0 or self.interval_s <= 0 or self.horizon_s <= 0:
            raise ValueError("clock durations must be positive")
        if self.interval_s % self.step_s != 0:
            raise ValueError("assignment interval must be a multiple of the simulation step")
        if self.horizon_s % self.interval_s != 0:
            raise ValueError("horizon must be a multiple of the assignment interval")

    @property
    def n_steps(self) -> int:
        return self.horizon_s // self.step_s

    @property
    def n_intervals(self) -> int:
        return self.horizon_s // self.interval_s

    def interval_of(self, t: float) -> int:
        """Assignment interval containing time t, clamped to the horizon."""
        if t < 0:
            return 0
        return min(int(t // self.interval_s), self.n_intervals - 1)


_LINK_REQUIRED = ("id", "from_node", "to_node", "length", "lanes", "speed_limit")
_LINK_OPTIONAL = ("effective_vehicle_length", "reaction_time_factor")
_NODE_REQUIRED = ("id",)
_NODE_OPTIONAL = ("is_centroid",)


def _check_fields(record: dict, required, optional, kind: str) -> None:
    unknown = set(record) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown {kind} fields: {sorted(unknown)}")
    missing = set(required) - set(record)
    if missing:
        raise ValueError(f"missing {kind} fields: {sorted(missing)}")


def network_from_dict(obj: dict) -> Network:
    """Build a Network from the JSON document structure."""
    unknown = set(obj) - {"nodes", "links", "pricing_zone"}
    if unknown:
        raise ValueError(f"unknown network fields: {sorted(unknown)}")
    missing = {"nodes", "links"} - set(obj)
    if missing:
        raise ValueError(f"missing network fields: {sorted(missing)}")
    nodes = []
    for rec in obj.get("nodes", []):
        _check_fields(rec, _NODE_REQUIRED, _NODE_OPTIONAL, "node")
        nodes.append(Node(id=str(rec["id"]), is_centroid=bool(rec.get("is_centroid", False))))
    zone = set(str(x) for x in obj.get("pricing_zone", []))
    links = []
    for rec in obj.get("links", []):
        _check_fields(rec, _LINK_REQUIRED, _LINK_OPTIONAL, "link")
        links.append(Link(
            id=str(rec["id"]),
            from_node=str(rec["from_node"]),
            to_node=str(rec["to_node"]),
            length=float(rec["length"]),
            lanes=int(rec["lanes"]),
            speed_limit=float(rec["speed_limit"]),
            effective_vehicle_length=float(rec.get("effective_vehicle_length", 7.0)),
            reaction_time_factor=float(rec.get("reaction_time_factor", 1.0)),
            in_pricing_zone=str(rec["id"]) in zone,
        ))
    known = {a.id for a in links}
    stray = zone - known
    if stray:
        raise ValueError(f"pricing_zone references unknown links: {sorted(stray)}")
    return Network(nodes, links)


def network_to_dict(network: Network) -> dict:
    return {
        "nodes": [{"id": n.id, "is_centroid": n.is_centroid} for n in network.node_list],
        "links": [{
            "id": a.id, "from_node": a.from_node, "to_node": a.to_node,
            "length": a.length, "lanes": a.lanes, "speed_limit": a.speed_limit,
            "effective_vehicle_length": a.effective_vehicle_length,
            "reaction_time_factor": a.reaction_time_factor,
        } for a in network.link_list],
        "pricing_zone": sorted(network.zone_link_ids),
    }


def load_network_file(path) -> Network:
    with open(path, encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))


def save_network_file(network: Network, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(network), fh, indent=2, sort_keys=True)
        fh.write("\n")
