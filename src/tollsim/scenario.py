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
from dataclasses import dataclass, field

from . import __version__
from .analysis import class_zone_summary
from .demand import NoiseConfig, load_demand_file, split_demand
from .equilibrium import SolverConfig, StepSchedule, solve_mixed_equilibrium
from .network import Clock, load_network_file, validate_network
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
_CLOCK_FIELDS = {"step_s", "interval_s", "horizon_s"}
_SOLVER_FIELDS = {"max_iterations", "gap_tolerance", "gamma", "vot_per_hour"}
_TOLL_FIELDS = {"vot_per_hour", "alpha_max", "p_gain", "i_gain", "omega_max",
                "window", "outer_cap", "improvement_tol"}


def _section(obj: dict, name: str, fields: set) -> dict:
    """The nested object `name` of the scenario, with no unknown keys."""
    section = obj.get(name) or {}
    unknown = set(section) - fields
    if unknown:
        raise ValueError(f"unknown {name} fields: {sorted(unknown)}")
    return section


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

    @staticmethod
    def from_dict(obj: dict, base_dir: str = ".") -> "Scenario":
        unknown = set(obj) - _SCENARIO_FIELDS
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        clock_cfg = _section(obj, "clock", _CLOCK_FIELDS)
        clock = Clock(step_s=int(clock_cfg.get("step_s", 1)),
                      interval_s=int(clock_cfg.get("interval_s", 300)),
                      horizon_s=int(clock_cfg.get("horizon_s", 3600)))
        s = _section(obj, "solver", _SOLVER_FIELDS)
        solver = SolverConfig(
            max_iterations=int(s.get("max_iterations", 100)),
            gap_tolerance=float(s.get("gap_tolerance", 0.01)),
            schedule=StepSchedule(gamma=float(s.get("gamma", 0.0))),
            vot_per_hour=float(s.get("vot_per_hour", 15.0)))
        toll = None
        if obj.get("toll") is not None:
            t = _section(obj, "toll", _TOLL_FIELDS)
            toll = TollConfig(
                vot_per_hour=float(t.get("vot_per_hour", solver.vot_per_hour)),
                alpha_max=float(t.get("alpha_max", 5.0)),
                p_gain=float(t.get("p_gain", 0.05)),
                i_gain=float(t.get("i_gain", 0.025)),
                omega_max=float(t.get("omega_max", 1.0)),
                window=tuple(t["window"]) if t.get("window") is not None else None,
                outer_cap=int(t.get("outer_cap", 25)),
                improvement_tol=float(t.get("improvement_tol", 0.01)))
        ratios = tuple(float(r) for r in obj.get("so_ratios", [0.0]))
        for r in ratios:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"so_ratio {r} outside [0, 1]")
        beta = float(obj.get("noise_beta_max", 0.0))
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"noise_beta_max must be finite and in [0, 1], got {beta}")
        return Scenario(
            scenario_id=str(obj.get("scenario_id", "scenario")),
            network_path=os.path.join(base_dir, obj["network"]),
            demand_path=os.path.join(base_dir, obj["demand"]),
            clock=clock, solver=solver, toll=toll, so_ratios=ratios,
            noise_beta_max=beta,
            seed=int(obj.get("seed", 0)),
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
            load_demand_file(scenario.demand_path)
        except (ValueError, KeyError) as exc:
            problems.append(f"demand file invalid: {exc}")
    return problems


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
                      "entry_time_s", "exit_time_s"],
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
    noise = (NoiseConfig(seed=scenario.seed, beta_max=scenario.noise_beta_max)
             if scenario.noise_beta_max > 0 else None)
    zone = sorted(network.zone_link_ids)
    nfd_links = zone if zone else None

    metrics_rows = []
    runs = {}
    for ratio in scenario.so_ratios:
        tag = _ratio_tag(ratio)
        demand = stage("demand", split_demand, totals, ratio, noise, overrides)
        eq = stage("equilibrium", solve_mixed_equilibrium,
                   network, demand, scenario.clock, scenario.solver)
        runs[ratio] = eq
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
        m = class_zone_summary(eq.loading, network,
                               vot_per_hour=scenario.solver.vot_per_hour, nfd=series)
        metrics_rows.append((scenario.scenario_id, ratio, 0, m))

    if scenario.toll is not None:
        if not zone:
            raise StageError("pricing", ValueError("pricing zone is empty"))
        base_demand = stage("demand", split_demand, totals, 0.0, noise, overrides)
        base_eq = runs.get(0.0) or stage(
            "equilibrium", solve_mixed_equilibrium,
            network, base_demand, scenario.clock, scenario.solver)
        base_series = nfd_series(base_eq.loading, network, zone)
        est = stage("pricing", estimate_critical_density, base_series)
        with open(os.path.join(out_dir, "kcr.json"), "w", encoding="utf-8") as fh:
            json.dump({"k_cr_veh_km": est.k_cr, "interval": est.interval,
                       "low_confidence": est.low_confidence}, fh, sort_keys=True)
            fh.write("\n")
        outputs.append("kcr.json")
        for ratio in scenario.so_ratios:
            tag = _ratio_tag(ratio)
            demand = stage("demand", split_demand, totals, ratio, noise, overrides)
            bl = stage("pricing", bilevel_solve, network, demand, scenario.clock,
                       scenario.toll, scenario.solver, est.k_cr)
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
            m = class_zone_summary(bl.equilibrium.loading, network,
                                   toll_schedule=bl.schedule,
                                   vot_per_hour=scenario.toll.vot_per_hour,
                                   baseline=runs[ratio].loading,
                                   nfd=tolled_series)
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
