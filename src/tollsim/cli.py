"""Batch command-line interface.

Subcommands: validate, equilibrate, nfd, price, sweep, nguyen. All outputs
are UTF-8 CSV with header rows; scenario files are JSON. Exit status is
nonzero exactly when a stage fails.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from .demand import save_demand_file
from .network import save_network_file
from .nguyen import (TOLL_I_GAIN, TOLL_OUTER_CAP, TOLL_P_GAIN, TOLL_WINDOW,
                     ZONE_LINKS, build_nguyen)
from .pricing import NFDPoint, estimate_critical_density
from .scenario import Scenario, StageError, run_scenario, validate_scenario


def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--step-seconds", type=int, default=None,
                   help="override the simulation step")


def _load_scenario(args) -> Scenario:
    scenario = Scenario.load(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    if args.step_seconds is not None:
        clock = dataclasses.replace(scenario.clock, step_s=args.step_seconds)
        scenario = dataclasses.replace(scenario, clock=clock)
    return scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tollsim",
                                     description="Mixed UE/SO routing and "
                                                 "NFD-based pricing laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema and network checks")
    p.add_argument("scenario")
    _add_common(p)

    p = sub.add_parser("equilibrate", help="no-toll equilibrium run")
    p.add_argument("scenario")
    p.add_argument("--so-ratio", type=float, default=None)
    p.add_argument("--out", default="out")
    p.add_argument("--trajectories", action="store_true")
    _add_common(p)

    p = sub.add_parser("nfd", help="critical-density estimate from a run dir")
    p.add_argument("run_dir")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--zone", action="store_true", default=True)
    group.add_argument("--network", dest="zone", action="store_false")
    _add_common(p)

    p = sub.add_parser("price", help="full bi-level pricing run")
    p.add_argument("scenario")
    p.add_argument("--out", default="out")
    _add_common(p)

    p = sub.add_parser("sweep", help="SO-ratio sweep report")
    p.add_argument("scenario")
    p.add_argument("--ratios", required=True,
                   help="comma-separated SO ratios, e.g. 0,0.2,0.4")
    p.add_argument("--out", default="out")
    _add_common(p)

    p = sub.add_parser("nguyen", help="emit the bundled Nguyen scenario files")
    p.add_argument("--out", required=True)
    p.add_argument("--tolled", action="store_true",
                   help="include the central pricing zone and toll config")
    _add_common(p)

    return parser


def _cmd_validate(args) -> int:
    try:
        scenario = _load_scenario(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    problems = validate_scenario(scenario)
    for p in problems:
        print(p, file=sys.stderr)
    if not problems:
        print("ok")
    return 1 if problems else 0


def _cmd_equilibrate(args) -> int:
    scenario = _load_scenario(args)
    if args.so_ratio is not None:
        scenario = dataclasses.replace(scenario, so_ratios=(args.so_ratio,))
    scenario = dataclasses.replace(scenario, toll=None)
    run_scenario(scenario, args.out, write_trajectories=args.trajectories)
    print(f"wrote {args.out}/metrics.csv")
    return 0


def _cmd_nfd(args) -> int:
    name = None
    for candidate in sorted(os.listdir(args.run_dir)):
        if args.zone and candidate.startswith("nfd_r"):
            name = candidate
            break
        if not args.zone and candidate.startswith("nfd_network_r"):
            name = candidate
            break
    if name is None:
        print("no NFD series found in run dir", file=sys.stderr)
        return 1
    series = []
    with open(os.path.join(args.run_dir, name), newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            series.append(NFDPoint(int(row["interval_index"]),
                                   float(row["density_veh_km"]),
                                   float(row["flow_veh_h"])))
    est = estimate_critical_density(series)
    print(f"source={name} k_cr={est.k_cr:.6g} veh/km interval={est.interval} "
          f"low_confidence={est.low_confidence}")
    return 0


def _cmd_price(args) -> int:
    scenario = _load_scenario(args)
    if scenario.toll is None:
        print("scenario has no toll configuration", file=sys.stderr)
        return 1
    run_scenario(scenario, args.out)
    print(f"wrote {args.out}/metrics.csv")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    ratios = tuple(float(x) for x in args.ratios.split(","))
    scenario = dataclasses.replace(scenario, so_ratios=ratios)
    run_scenario(scenario, args.out)
    print(f"wrote {args.out}/metrics.csv")
    return 0


def _cmd_nguyen(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    network, demand, clock = build_nguyen(with_zone=args.tolled)
    save_network_file(network, os.path.join(args.out, "nguyen_network.json"))
    save_demand_file(demand, os.path.join(args.out, "nguyen_demand.json"))
    scenario = {
        "scenario_id": "nguyen",
        "network": "nguyen_network.json",
        "demand": "nguyen_demand.json",
        "clock": {"step_s": clock.step_s, "interval_s": clock.interval_s,
                  "horizon_s": clock.horizon_s},
        "solver": {"max_iterations": 100, "gap_tolerance": 0.01, "gamma": 2.0},
        "so_ratios": [0.0, 1.0],
        "seed": args.seed if args.seed is not None else 0,
    }
    if args.tolled:
        scenario["toll"] = {"alpha_max": 5.0, "p_gain": TOLL_P_GAIN,
                            "i_gain": TOLL_I_GAIN, "outer_cap": TOLL_OUTER_CAP,
                            "window": list(TOLL_WINDOW)}
        scenario["so_ratios"] = [0.0]
    with open(os.path.join(args.out, "scenario.json"), "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}/scenario.json (zone: {ZONE_LINKS if args.tolled else 'none'})")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "equilibrate": _cmd_equilibrate,
    "nfd": _cmd_nfd,
    "price": _cmd_price,
    "sweep": _cmd_sweep,
    "nguyen": _cmd_nguyen,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
