"""Road network primitives: nodes, links, paths, pricing zone and the clock,
and the typed JSON reader and the JSON/CSV writers every tollsim file uses.

All quantities are SI (meters, seconds) unless a field name says otherwise.
Paths, clocks and a network's nodes and links are immutable; a network only
adds to `valid_paths`, the paths `load_vehicles` has validated against it.
All are safe to share between concurrent readers.

A network file is {"nodes": [...], "links": [...], "pricing_zone": [...]}.
Its node and link objects are read by `read_fields`: their keys are the
fields of `Node` and `Link` (less `in_pricing_zone`, which is set by the
`pricing_zone` list of link ids), a field without a default is required,
and each value must be a JSON value of the field's type.
"""
from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import MISSING, dataclass, fields


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
        # Link and node indices; links in id order, so index order is id order.
        self.link_order = sorted(self.links.values(), key=lambda a: a.id)
        self.link_index = {a.id: i for i, a in enumerate(self.link_order)}
        ends = (e for a in self.link_order for e in (a.from_node, a.to_node))
        self.node_index = {nid: i for i, nid in enumerate(dict.fromkeys([*self.nodes, *ends]))}
        self.out_adj = [[] for _ in self.node_index]
        for i, a in enumerate(self.link_order):
            self.out_adj[self.node_index[a.from_node]].append((i, self.node_index[a.to_node]))
        self.out_links = {nid: tuple(self.link_order[i] for i, _ in self.out_adj[k])
                          for nid, k in self.node_index.items()}
        # The distance search's link lengths by index, and the ids of the
        # links whose lengths it cannot use.
        self.length_column = tuple(a.length for a in self.link_order)
        self.bad_length_ids = tuple(a.id for a in self.link_order
                                    if not 0.0 < a.length < math.inf)
        self.valid_paths: set[Path] = set()

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
        if a.lanes < 1:
            violations.append(f"link {a.id!r} has lanes < 1")
        for name in ("length", "speed_limit", "effective_vehicle_length",
                     "reaction_time_factor"):
            value = getattr(a, name)
            if not 0.0 < value < math.inf:
                violations.append(f"link {a.id!r} {name} must be finite and "
                                  f"positive, got {value!r}")
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

    @functools.cached_property
    def _intervals(self) -> range:
        return range(self.n_intervals)

    def check_interval(self, tau: int) -> None:
        """ValueError unless `tau` is one of the clock's intervals; a negative
        one would index the last interval's values."""
        if tau not in self._intervals:
            raise ValueError(f"departure interval {tau} outside the clock's horizon")


def check_fields(record, required, optional, kind: str) -> None:
    if not isinstance(record, dict):
        raise ValueError(f"{kind} must be an object, got {type(record).__name__}")
    unknown = record.keys() - (*required, *optional)
    if unknown:
        raise ValueError(f"unknown {kind} fields: {sorted(unknown)}")
    missing = set(required) - record.keys()
    if missing:
        raise ValueError(f"missing {kind} fields: {sorted(missing)}")


def parse_number(value, what: str) -> float:
    """`value` as a float; anything but a JSON number (null, a boolean, a
    string, a list or an object) is rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def parse_finite(value, what: str) -> float:
    number = parse_number(value, what)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {number!r}")
    return number


def parse_int(value, what: str) -> int:
    """`value` as an int; a non-integral number is rejected, not truncated."""
    if type(value) is int:
        return value
    if not parse_number(value, what).is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def parse_str(value, what: str) -> str:
    """`value` if it is a JSON string: an id `null` or `5` is rejected, not
    read as "None" or "5"."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def parse_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be a boolean, got {value!r}")
    return value


def parse_intervals(value, what: str) -> tuple | None:
    """A list of interval indices as a tuple, or null as None."""
    if value is None:
        return None
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list or null, got {value!r}")
    return tuple(parse_int(tau, f"{what} entry") for tau in value)


# Field type (as annotated) -> the parser of its JSON value.
_PARSERS = {"str": parse_str, "bool": parse_bool, "int": parse_int,
            "float": parse_finite, "tuple | None": parse_intervals}


@functools.cache
def _schema(cls, omit: tuple = ()) -> tuple[dict, tuple]:
    """({key: parser} in field order, required keys) of dataclass `cls`,
    one key per field but `omit`; built once per class."""
    parsers = {f.name: _PARSERS[f.type] for f in fields(cls) if f.name not in omit}
    required = tuple(f.name for f in fields(cls) if f.name in parsers
                     and f.default is MISSING and f.default_factory is MISSING)
    return parsers, required


def read_fields(cls, record, kind: str, omit: tuple = ()) -> dict:
    """The keyword arguments of a `cls` read from the JSON object `record`.

    The allowed keys are the fields of `cls` but `omit`, and those without
    a default are required. The field type picks the parser: `str` and
    `bool` values must be JSON strings and booleans, `int` ones integral
    numbers, `float` ones finite numbers. Errors name `kind`, and the
    record's `id` once it has been read.
    """
    parsers, required = _schema(cls, omit)
    check_fields(record, required, parsers, kind)
    kwargs = {}
    what = kind
    for key, parse in parsers.items():
        if key in record:
            kwargs[key] = parse(record[key], f"{what} {key}")
            if key == "id":
                what = f"{kind} {kwargs['id']!r}"
    return kwargs


def _record(obj, omit: tuple = ()) -> dict:
    """The JSON object `read_fields` reads back into `obj`."""
    return {key: getattr(obj, key) for key in _schema(type(obj), omit)[0]}


_ZONE_FLAG = ("in_pricing_zone",)


def network_from_dict(obj: dict) -> Network:
    """Build a Network from the JSON document structure."""
    check_fields(obj, ("nodes", "links"), ("pricing_zone",), "network")
    for key in ("nodes", "links", "pricing_zone"):
        if not isinstance(obj.get(key, []), list):
            raise ValueError(f"network {key} must be a list, got {obj[key]!r}")
    nodes = [Node(**read_fields(Node, rec, "node")) for rec in obj["nodes"]]
    zone = {parse_str(lid, "pricing_zone entry") for lid in obj.get("pricing_zone", [])}
    links = []
    for rec in obj["links"]:
        kwargs = read_fields(Link, rec, "link", _ZONE_FLAG)
        links.append(Link(**kwargs, in_pricing_zone=kwargs["id"] in zone))
    stray = zone - {a.id for a in links}
    if stray:
        raise ValueError(f"pricing_zone references unknown links: {sorted(stray)}")
    return Network(nodes, links)


def network_to_dict(network: Network) -> dict:
    return {
        "nodes": [_record(n) for n in network.node_list],
        "links": [_record(a, _ZONE_FLAG) for a in network.link_list],
        "pricing_zone": sorted(network.zone_link_ids),
    }


def write_json(path, obj, indent=2) -> None:
    """`obj` as JSON with sorted keys and a final newline. The text is
    built before the file is opened, so a value that cannot be serialized
    leaves an existing file as it was."""
    text = json.dumps(obj, indent=indent, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """A header row, then one row per item of `rows`; floats are written
    with 10 significant digits and None as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.10g}" if isinstance(x, float) else x for x in row])


def load_network_file(path) -> Network:
    with open(path, encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))


def save_network_file(network: Network, path) -> None:
    write_json(path, network_to_dict(network))
