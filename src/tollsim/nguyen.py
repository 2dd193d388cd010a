"""The bundled 13-node / 19-link Nguyen-Dupuis benchmark network.

Four OD pairs (1->2, 1->3, 4->2, 4->3) with 25 simple routes in total.
Lengths and lane counts are repository defaults calibrated once so that the
all-UE scenario is congested but converges; demand is a symmetric triangular
pulse over the first three of twelve 5-minute assignment intervals, the rest
being empty so the network fully clears.
"""
from __future__ import annotations

from .network import Clock, Link, Network, Node

_V = 50.0 / 3.0   # 60 km/h in m/s

# (from, to, length m, lanes). The four origin feeders are two-lane so the
# binding bottlenecks sit on the central links rather than at the entries.
_LINKS = [
    (1, 5, 700, 2),
    (1, 12, 900, 2),
    (4, 5, 900, 2),
    (4, 9, 1500, 2),
    (5, 6, 600, 2),
    (5, 9, 900, 1),
    (6, 7, 400, 2),
    (6, 10, 1300, 1),
    (7, 8, 800, 1),
    (7, 11, 1100, 1),
    (8, 2, 1200, 1),
    (9, 10, 1000, 1),
    (9, 13, 900, 1),
    (10, 11, 300, 2),
    (11, 2, 900, 1),
    (11, 3, 700, 1),
    (12, 6, 500, 1),
    (12, 8, 1400, 1),
    (13, 3, 1100, 1),
]

OD_PAIRS = [("1", "2"), ("1", "3"), ("4", "2"), ("4", "3")]

# Central links forming the default pricing zone of the tolled variant.
ZONE_LINKS = ["5-6", "6-7", "6-10", "9-10", "10-11", "7-11"]

# Demand pulse per OD over the loaded intervals (vehicles per 5-min interval).
# Calibrated once and frozen: heavy enough that the central zone saturates and
# its NFD bends over, light enough that the network empties by the horizon and
# the all-UE assignment still converges.
DEFAULT_PULSE = (123.0, 246.0, 123.0)

# Tolled-variant defaults, calibrated with the pulse above: the assignment
# intervals carrying traffic, and PI gains gentle enough that the toll does
# not swing the zone density across the setpoint each outer iteration.
TOLL_WINDOW = (0, 1, 2, 3, 4)
TOLL_P_GAIN = 0.01
TOLL_I_GAIN = 0.005
TOLL_OUTER_CAP = 12


def build_nguyen(with_zone: bool = False):
    """Return (network, demand totals, clock) for the bundled scenario."""
    centroids = {"1", "2", "3", "4"}
    nodes = [Node(str(i), is_centroid=str(i) in centroids) for i in range(1, 14)]
    zone = set(ZONE_LINKS) if with_zone else set()
    links = [Link(id=f"{u}-{v}", from_node=str(u), to_node=str(v),
                  length=float(length), lanes=lanes, speed_limit=_V,
                  in_pricing_zone=f"{u}-{v}" in zone)
             for (u, v, length, lanes) in _LINKS]
    network = Network(nodes, links)
    clock = Clock(step_s=1, interval_s=300, horizon_s=3600)
    demand = {(o, d, tau): q for (o, d) in OD_PAIRS
              for tau, q in enumerate(DEFAULT_PULSE)}
    return network, demand, clock
