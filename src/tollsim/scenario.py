"""Scenario definition, deterministic experiment orchestration and reporting.

A scenario JSON references a network and a demand file, fixes the clock,
solver and (optionally) toll configuration, and lists the SO-ratio sweep.
All randomness flows from the single scenario seed through the counter-based
demand-split generator; repeated runs are byte-identical.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field, fields

from . import __version__
from .analysis import class_zone_summary
from .demand import NoiseConfig, load_demand_file, split_demand
from .equilibrium import SolverConfig, solve_mixed_equilibrium
from .network import (Clock, load_network_file, parse_int, parse_number,
                      validate_network)
from .pricing import (TollConfig, bilevel_solve, estimate_critical_density,
                      nfd_series)


class StageError(RuntimeError):
    """A scenario stage failed; carries the stage name for CLI reporting."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


_SCENARIO_FIELDS = {"network", "demand", "clock", "solver", "toll",
                    "so_ratios", "noise_beta_max", "seed", "scenario_id"}


def _config(obj: dict, name: str, cls):
    """The nested object `name` of the scenario as a `cls`, keyed by its
    fields. An absent key keeps the field's default; a value must be a JSON
    number, parsed as an int where that default is one and as a float
    otherwise, except the toll window: a list of interval indices, or null
    for every interval."""
    section = obj.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"scenario {name} must be an object, got {section!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(section) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {name} fields: {sorted(unknown)}")
    kwargs = {}
    for key, value in section.items():
        what = f"{name} {key}"
        if key == "window":
            if value is not None and not isinstance(value, list):
                raise ValueError(f"{what} must be a list or null, got {value!r}")
            kwargs[key] = (None if value is None else
                           tuple(parse_int(tau, "toll window entry") for tau in value))
        elif isinstance(defaults[key], int):
            kwargs[key] = parse_int(value, what)
        else:
            kwargs[key] = parse_number(value, what)
    return cls(**kwargs)


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    network_path: str
    demand_path: str
    clock: Clock
    solver: SolverConfig
    toll: TollConfig | None
    so_ratios: tuple
    noise_beta_max: float
    seed: int
    raw: dict = field(compare=False, default_factory=dict)

    def __post_init__(self):
        # Each ratio names its output files by its whole-percent tag.
        tags = {}
        for r in self.so_ratios:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"so_ratio {r} outside [0, 1]")
            tag = _ratio_tag(r)
            if tag in tags:
                raise ValueError(f"so_ratios {tags[tag]} and {r} share the "
                                 f"output tag r{tag}")
            tags[tag] = r

    @staticmethod
    def from_dict(obj: dict, base_dir: str = ".") -> "Scenario":
        unknown = set(obj) - _SCENARIO_FIELDS
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        for key in ("network", "demand"):
            if not isinstance(obj.get(key), str):
                raise ValueError(f"scenario {key} must be a file name, "
                                 f"got {obj.get(key)!r}")
        clock = _config(obj, "clock", Clock)
        solver = _config(obj, "solver", SolverConfig)
        toll = None
        if obj.get("toll") is not None:
            toll = _config(obj, "toll", TollConfig)
            toll.tolled_intervals(clock)     # the window lies inside the clock
        ratios = obj.get("so_ratios", [0.0])
        if not isinstance(ratios, list):
            raise ValueError(f"scenario so_ratios must be a list, got {ratios!r}")
        beta = parse_number(obj.get("noise_beta_max", 0.0), "noise_beta_max")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"noise_beta_max must be finite and in [0, 1], got {beta}")
        return Scenario(
            scenario_id=str(obj.get("scenario_id", "scenario")),
            network_path=os.path.join(base_dir, obj["network"]),
            demand_path=os.path.join(base_dir, obj["demand"]),
            clock=clock, solver=solver, toll=toll,
            so_ratios=tuple(parse_number(r, "so_ratios entry") for r in ratios),
            noise_beta_max=beta,
            seed=parse_int(obj.get("seed", 0), "seed"),
            raw=dict(obj))

    @staticmethod
    def load(path: str) -> "Scenario":
        with open(path, encoding="utf-8") as fh:
            return Scenario.from_dict(json.load(fh), os.path.dirname(path) or ".")

    def content_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def validate_scenario(scenario: Scenario) -> list[str]:
    """Schema plus referenced-file checks; returns violations."""
    problems = []
    if not os.path.exists(scenario.network_path):
        problems.append(f"network file missing: {scenario.network_path}")
    else:
        try:
            network = load_network_file(scenario.network_path)
            problems.extend(validate_network(network))
        except ValueError as exc:
            problems.append(f"network file invalid: {exc}")
    if not os.path.exists(scenario.demand_path):
        problems.append(f"demand file missing: {scenario.demand_path}")
    else:
        try:
            totals, _overrides = load_demand_file(scenario.demand_path)
        except (ValueError, KeyError) as exc:
            problems.append(f"demand file invalid: {exc}")
        else:
            problems.extend(_demand_outside_clock(totals, scenario.clock))
    return problems


def _demand_outside_clock(totals, clock: Clock) -> list[str]:
    """One line per demand key whose departure interval the clock lacks."""
    n = clock.n_intervals
    return [f"demand {o}->{d} at interval {tau} outside the clock's {n} intervals"
            for (o, d, tau) in sorted(totals) if tau not in range(n)]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def write_iteration_log(log, path):
    # wall_time_s is left blank: outputs must be byte-identical across runs.
    _write_csv(path, ["iter", "r1gap", "r2gap", "rgap", "tstt_veh_h", "wall_time_s"],
               [(r.iteration, r.r1gap, r.r2gap, r.rgap, r.tstt_veh_h, None)
                for r in log])


def write_nfd_csv(series, path):
    _write_csv(path, ["interval_index", "density_veh_km", "flow_veh_h"],
               [(p.interval, p.density, p.flow) for p in series])


def write_trajectories_csv(result, path):
    _write_csv(path, ["vehicle_id", "class", "departure_interval", "path_id",
                      "departure_time_s", "exit_time_s"],
               [(v.vehicle_id, v.vehicle_class, v.interval,
                 "|".join(v.path.link_ids), v.departure_time, v.exit_time)
                for v in result.vehicles])


def _ratio_tag(ratio: float) -> str:
    return f"{int(round(ratio * 100)):03d}"


def run_scenario(scenario: Scenario, out_dir: str,
                 write_trajectories: bool = False) -> dict:
    """Execute the sweep (and bi-level pricing if configured); returns the
    run manifest. Every output file lands in `out_dir`.
    """
    os.makedirs(out_dir, exist_ok=True)
    outputs = []

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc

    network = stage("network", load_network_file, scenario.network_path)
    problems = validate_network(network)
    if problems:
        raise StageError("network", ValueError("; ".join(problems)))
    totals, overrides = stage("demand", load_demand_file, scenario.demand_path)
    problems = _demand_outside_clock(totals, scenario.clock)
    if problems:
        raise StageError("demand", ValueError("; ".join(problems)))
    noise = (NoiseConfig(seed=scenario.seed, beta_max=scenario.noise_beta_max)
             if scenario.noise_beta_max > 0 else None)
    zone = sorted(network.zone_link_ids)
    nfd_links = zone if zone else None

    runs = {}   # ratio -> (split demand, its untolled equilibrium)

    def untolled(ratio):
        if ratio not in runs:
            demand = stage("demand", split_demand, totals, ratio, noise, overrides)
            runs[ratio] = demand, stage("equilibrium", solve_mixed_equilibrium, network,
                                        demand, scenario.clock, scenario.solver)
        return runs[ratio]

    metrics_rows = []
    for ratio in scenario.so_ratios:
        tag = _ratio_tag(ratio)
        _demand, eq = untolled(ratio)
        write_iteration_log(eq.log, os.path.join(out_dir, f"iters_r{tag}.csv"))
        outputs.append(f"iters_r{tag}.csv")
        series = nfd_series(eq.loading, network, nfd_links)
        write_nfd_csv(series, os.path.join(out_dir, f"nfd_r{tag}.csv"))
        outputs.append(f"nfd_r{tag}.csv")
        net_series = nfd_series(eq.loading, network, None)
        write_nfd_csv(net_series, os.path.join(out_dir, f"nfd_network_r{tag}.csv"))
        outputs.append(f"nfd_network_r{tag}.csv")
        if write_trajectories:
            write_trajectories_csv(eq.loading,
                                   os.path.join(out_dir, f"trajectories_r{tag}.csv"))
            outputs.append(f"trajectories_r{tag}.csv")
        m = class_zone_summary(eq.loading, network, series,
                               vot_per_hour=scenario.solver.vot_per_hour)
        metrics_rows.append((scenario.scenario_id, ratio, 0, m))

    if scenario.toll is not None:
        if not zone:
            raise StageError("pricing", ValueError("pricing zone is empty"))
        _demand, base_eq = untolled(0.0)
        base_series = nfd_series(base_eq.loading, network, zone)
        est = stage("pricing", estimate_critical_density, base_series)
        with open(os.path.join(out_dir, "kcr.json"), "w", encoding="utf-8") as fh:
            json.dump({"k_cr_veh_km": est.k_cr, "interval": est.interval,
                       "low_confidence": est.low_confidence}, fh, sort_keys=True)
            fh.write("\n")
        outputs.append("kcr.json")
        for ratio in scenario.so_ratios:
            tag = _ratio_tag(ratio)
            demand, base = untolled(ratio)
            bl = stage("pricing", bilevel_solve, network, demand, scenario.clock,
                       scenario.toll, scenario.solver, est.k_cr, base)
            bl.schedule.write_alpha_csv(os.path.join(out_dir, f"toll_r{tag}.csv"))
            bl.schedule.write_omega_csv(os.path.join(out_dir, f"omega_r{tag}.csv"))
            outputs += [f"toll_r{tag}.csv", f"omega_r{tag}.csv"]
            _write_csv(os.path.join(out_dir, f"controller_r{tag}.csv"),
                       ["outer_iter", "objective", "mean_alpha",
                        "mean_zone_density", "inner_gap", "tstt_veh_h"],
                       [(r.outer_iteration, r.objective, r.mean_alpha,
                         r.mean_zone_density, r.inner_gap, r.tstt_veh_h)
                        for r in bl.log])
            outputs.append(f"controller_r{tag}.csv")
            tolled_series = nfd_series(bl.equilibrium.loading, network, zone)
            write_nfd_csv(tolled_series,
                          os.path.join(out_dir, f"nfd_tolled_r{tag}.csv"))
            outputs.append(f"nfd_tolled_r{tag}.csv")
            m = class_zone_summary(bl.equilibrium.loading, network, tolled_series,
                                   toll_schedule=bl.schedule,
                                   vot_per_hour=scenario.solver.vot_per_hour,
                                   baseline=base.loading)
            metrics_rows.append((scenario.scenario_id, ratio, 1, m))

    _write_csv(os.path.join(out_dir, "metrics.csv"),
               ["scenario_id", "so_ratio", "tolled", "tstt_veh_h", "zone_k_mean",
                "ue_zone_tt_min", "so_zone_tt_min", "mean_toll_usd", "bc_ratio",
                "hysteresis_area"],
               [(sid, ratio, tolled, m.tstt_veh_h, m.zone_k_mean, m.ue_zone_tt_min,
                 m.so_zone_tt_min, m.mean_toll_usd, m.bc_ratio, m.hysteresis_area)
                for (sid, ratio, tolled, m) in metrics_rows])
    outputs.append("metrics.csv")

    manifest = {
        "scenario_hash": scenario.content_hash(),
        "tool_version": __version__,
        "seed": scenario.seed,
        "files": {name: _sha256(os.path.join(out_dir, name))
                  for name in sorted(outputs)},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
