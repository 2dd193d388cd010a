"""Seeded generator of the `grid_od` workload inputs.

A SIZE x SIZE grid of two-way 400 m links (60 km/h); the middle row and column
are two-lane arterials, every other link has one lane. All border nodes are
centroids. The seed picks which border-to-border OD pairs carry a light
three-interval pulse. Only the public `tollsim.network` and `tollsim.demand`
builders and savers are used, so the files are what a user would write.
"""
from __future__ import annotations

import json
import os
import random

from tollsim.demand import save_demand_file
from tollsim.network import Link, Network, Node, save_network_file

SIZE = 8
LINK_M = 400.0
SPEED = 50.0 / 3.0             # 60 km/h in m/s
N_OD = 240
PULSE = (3.0, 6.0, 3.0)        # vehicles per OD in intervals 0, 1, 2
SO_RATIO = 0.4
NOISE_BETA_MAX = 0.2
# With the bundled 0.01 tolerance the solve stops after 7 to 13 iterations
# depending on the seed, which spreads wall time by 40% across seeds. A
# tolerance no whole-vehicle loading reaches makes every seed run exactly
# ITERATIONS iterations, so a run's work does not depend on its seed.
ITERATIONS = 10
GAP_TOLERANCE = 1e-6


def node_id(row: int, col: int) -> str:
    return str(row * SIZE + col + 1)


def border_nodes() -> list[str]:
    return sorted((node_id(r, c) for r in range(SIZE) for c in range(SIZE)
                   if r in (0, SIZE - 1) or c in (0, SIZE - 1)), key=int)


def build_grid() -> Network:
    """The grid network; independent of the seed."""
    mid = SIZE // 2
    border = set(border_nodes())
    nodes = [Node(node_id(r, c), is_centroid=node_id(r, c) in border)
             for r in range(SIZE) for c in range(SIZE)]
    links = []
    for r in range(SIZE):
        for c in range(SIZE):
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 >= SIZE or c2 >= SIZE:
                    continue
                lanes = 2 if (dr == 0 and r == mid) or (dc == 0 and c == mid) else 1
                a, b = node_id(r, c), node_id(r2, c2)
                for u, v in ((a, b), (b, a)):
                    links.append(Link(id=f"{u}-{v}", from_node=u, to_node=v,
                                      length=LINK_M, lanes=lanes, speed_limit=SPEED))
    return Network(nodes, links)


def od_pairs(seed: int) -> list[tuple[str, str]]:
    """N_OD distinct ordered border pairs drawn from a generator keyed on the seed."""
    border = border_nodes()
    pairs = [(o, d) for o in border for d in border if o != d]
    rng = random.Random(f"grid_od|{seed}")
    return sorted(rng.sample(pairs, N_OD))


def grid_demand(seed: int) -> dict:
    return {(o, d, tau): q for (o, d) in od_pairs(seed)
            for tau, q in enumerate(PULSE)}


def write_grid_scenario(out_dir: str, seed: int,
                        max_iterations: int = ITERATIONS) -> str:
    """Write network, demand and scenario JSON; returns the scenario path."""
    os.makedirs(out_dir, exist_ok=True)
    save_network_file(build_grid(), os.path.join(out_dir, "grid_network.json"))
    save_demand_file(grid_demand(seed), os.path.join(out_dir, "grid_demand.json"))
    scenario = {
        "scenario_id": "grid_od",
        "network": "grid_network.json",
        "demand": "grid_demand.json",
        "clock": {"step_s": 1, "interval_s": 300, "horizon_s": 3600},
        "solver": {"max_iterations": max_iterations,
                   "gap_tolerance": GAP_TOLERANCE, "gamma": 2.0},
        "so_ratios": [SO_RATIO],
        "noise_beta_max": NOISE_BETA_MAX,
        "seed": seed,
    }
    path = os.path.join(out_dir, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
