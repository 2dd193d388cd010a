"""Scenario definition, deterministic experiment orchestration and reporting.

A scenario JSON references a network and a demand file, fixes the clock,
solver and (optionally) toll configuration, and lists the SO-ratio sweep.
The `clock`, `solver` and `toll` sections are read by `network.read_fields`,
so their keys and value types are the fields of `Clock`, `SolverConfig` and
`TollConfig`. `validate_scenario` and `run_scenario` read and check the
network and demand files through one `_load_inputs`, and a run writes every
output through one `emit` that records it in `manifest.json`. All randomness
flows from the single scenario seed through the counter-based demand-split
generator; repeated runs are byte-identical.

A run is one pass over the ratios. With a toll section it first solves the
all-UE (0%) run for the pricing zone's critical density, which must be
finite and positive; then each ratio is split, solved and written, and with
a toll section priced and written too, before the next starts. A ratio's
solve begins with no other ratio's alive: only the 0% run waits, until a
swept 0.0 ratio reuses it.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from . import __version__
from .analysis import class_zone_summary
from .demand import NoiseConfig, load_demand_file, split_demand
from .equilibrium import SolverConfig, solve_mixed_equilibrium
from .network import (Clock, check_fields, load_network_file, parse_int,
                      parse_number, parse_str, read_fields, validate_network,
                      write_csv as _write_csv, write_json)
from .pricing import (TollConfig, bilevel_solve, check_critical_density,
                      estimate_critical_density, nfd_series)


class StageError(RuntimeError):
    """A scenario stage failed; carries the stage name for CLI reporting."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


_SCENARIO_FIELDS = {"network", "demand", "clock", "solver", "toll",
                    "so_ratios", "noise_beta_max", "seed", "scenario_id"}


def _config(obj: dict, name: str, cls):
    """The nested object `name` of the scenario as a `cls`; an absent key
    keeps the field's default."""
    section = obj.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"scenario {name} must be an object, got {section!r}")
    return cls(**read_fields(cls, section, name))


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
        if not self.so_ratios:
            raise ValueError("scenario so_ratios must be non-empty")
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
        check_fields(obj, (), _SCENARIO_FIELDS, "scenario")
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
            scenario_id=parse_str(obj.get("scenario_id", "scenario"), "scenario_id"),
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


def _unroutable(network, totals) -> list[str]:
    """A message per demand pair on a node the network lacks, or whose
    destination no path reaches: one reachability walk per origin."""
    index, reached, problems = network.node_index, {}, []
    for o, d in sorted({(o, d) for o, d, _ in totals}):
        missing = [n for n in (o, d) if n not in index]
        if not missing and o not in reached:
            reached[o] = seen = {index[o]}
            stack = [index[o]]
            while stack:
                new = {v for _, v in network.out_adj[stack.pop()]} - seen
                seen |= new
                stack += new
        if missing:
            problems.append(f"demand {o}->{d}: node {missing[0]!r} is not in the network")
        elif index[d] not in reached[o]:
            problems.append(f"demand {o}->{d}: destination unreachable from origin")
    return problems


def _load_inputs(scenario: Scenario):
    """(network, (totals, overrides), problems), a file that failed to load
    being None; `problems` lists (stage, message) pairs, network first and
    an empty pricing zone of a tolled scenario last."""
    problems = []

    def load(stage, loader, path):
        try:
            return loader(path)
        except FileNotFoundError:
            problems.append((stage, f"{stage} file missing: {path}"))
        except (OSError, ValueError) as exc:
            problems.append((stage, f"{stage} file invalid: {exc}"))
        return None

    network = load("network", load_network_file, scenario.network_path)
    if network is not None:
        problems += [("network", p) for p in validate_network(network)]
    demand = load("demand", load_demand_file, scenario.demand_path)
    if demand is not None:
        n = scenario.clock.n_intervals
        problems += [("demand", f"demand {o}->{d} at interval {tau} outside "
                                f"the clock's {n} intervals")
                     for (o, d, tau) in sorted(demand[0]) if tau not in range(n)]
        if network is not None:
            problems += [("demand", p) for p in _unroutable(network, demand[0])]
    if scenario.toll is not None and network is not None and not network.zone_link_ids:
        problems.append(("pricing", "pricing zone is empty"))
    return network, demand, problems


def validate_scenario(scenario: Scenario) -> list[str]:
    """Every problem with the scenario's network and demand files, unroutable
    demand pairs included, and an empty pricing zone under a toll section."""
    return [message for _stage, message in _load_inputs(scenario)[2]]


def _nfd_table(series):
    return (["interval_index", "density_veh_km", "flow_veh_h"],
            [(p.interval, p.density, p.flow) for p in series])


def _ratio_tag(ratio: float) -> str:
    return f"{int(round(ratio * 100)):03d}"


def run_scenario(scenario: Scenario, out_dir: str,
                 write_trajectories: bool = False) -> dict:
    """Execute the sweep (and bi-level pricing if configured); returns the
    run manifest. Every output file lands in `out_dir`, which is created
    only once the network and demand files pass their input check.
    """
    network, demand, problems = _load_inputs(scenario)
    if problems:
        first = problems[0][0]
        raise StageError(first, ValueError("; ".join(
            message for stage, message in problems if stage == first)))
    os.makedirs(out_dir, exist_ok=True)
    totals, overrides = demand
    outputs = []

    def emit(name, write, *args):
        write(os.path.join(out_dir, name), *args)
        outputs.append(name)

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise StageError(name, exc) from exc

    noise = (NoiseConfig(seed=scenario.seed, beta_max=scenario.noise_beta_max)
             if scenario.noise_beta_max > 0 else None)
    zone = sorted(network.zone_link_ids)

    def solved(ratio):
        demand = stage("demand", split_demand, totals, ratio, noise, overrides)
        return demand, stage("equilibrium", solve_mixed_equilibrium, network,
                             demand, scenario.clock, scenario.solver)

    zero = []   # the 0% run, while a swept 0.0 ratio is still to reuse it
    if scenario.toll is not None:
        zero.append(solved(0.0))
        est = stage("pricing", estimate_critical_density,
                    nfd_series(zero[0][1].loading, zone))
        stage("pricing", check_critical_density, est.k_cr)
        emit("kcr.json", write_json,
             {"k_cr_veh_km": est.k_cr, "interval": est.interval,
              "low_confidence": est.low_confidence}, None)
        if 0.0 not in scenario.so_ratios:
            zero.clear()

    untolled_rows, tolled_rows = [], []
    for ratio in scenario.so_ratios:
        tag = _ratio_tag(ratio)
        demand, eq = zero.pop() if ratio == 0.0 and zero else solved(ratio)
        # wall_time_s is left blank: outputs must be byte-identical across runs.
        emit(f"iters_r{tag}.csv", _write_csv,
             ["iter", "r1gap", "r2gap", "rgap", "tstt_veh_h", "wall_time_s"],
             [(r.iteration, r.r1gap, r.r2gap, r.rgap, r.tstt_veh_h, None)
              for r in eq.log])
        series = nfd_series(eq.loading, zone or None)
        emit(f"nfd_r{tag}.csv", _write_csv, *_nfd_table(series))
        emit(f"nfd_network_r{tag}.csv", _write_csv,
             *_nfd_table(nfd_series(eq.loading)))
        if write_trajectories:
            emit(f"trajectories_r{tag}.csv", _write_csv,
                 ["vehicle_id", "class", "departure_interval", "path_id",
                  "departure_time_s", "exit_time_s"],
                 [(v.vehicle_id, v.vehicle_class, v.interval,
                   "|".join(v.path.link_ids), v.departure_time, v.exit_time)
                  for v in eq.loading.vehicles])
        m = class_zone_summary(eq.loading, series,
                               vot_per_hour=scenario.solver.vot_per_hour)
        untolled_rows.append((scenario.scenario_id, ratio, 0, m))
        if scenario.toll is not None:
            bl = stage("pricing", bilevel_solve, network, demand, scenario.clock,
                       scenario.toll, scenario.solver, est.k_cr, eq)
            emit(f"toll_r{tag}.csv", bl.schedule.write_alpha_csv)
            emit(f"omega_r{tag}.csv", bl.schedule.write_omega_csv)
            emit(f"controller_r{tag}.csv", _write_csv,
                 ["outer_iter", "objective", "mean_alpha",
                  "mean_zone_density", "inner_gap", "tstt_veh_h"],
                 [(r.outer_iteration, r.objective, r.mean_alpha,
                   r.mean_zone_density, r.inner_gap, r.tstt_veh_h)
                  for r in bl.log])
            tolled_series = nfd_series(bl.equilibrium.loading, zone)
            emit(f"nfd_tolled_r{tag}.csv", _write_csv, *_nfd_table(tolled_series))
            m = class_zone_summary(bl.equilibrium.loading, tolled_series,
                                   toll_schedule=bl.schedule,
                                   vot_per_hour=scenario.solver.vot_per_hour,
                                   baseline=eq.loading)
            tolled_rows.append((scenario.scenario_id, ratio, 1, m))
            del bl
        # The next ratio's solve runs with this one gone.
        del demand, eq

    emit("metrics.csv", _write_csv,
         ["scenario_id", "so_ratio", "tolled", "tstt_veh_h", "zone_k_mean",
          "ue_zone_tt_min", "so_zone_tt_min", "mean_toll_usd", "bc_ratio",
          "hysteresis_area"],
         [(sid, ratio, tolled, m.tstt_veh_h, m.zone_k_mean, m.ue_zone_tt_min,
           m.so_zone_tt_min, m.mean_toll_usd, m.bc_ratio, m.hysteresis_area)
          for (sid, ratio, tolled, m) in untolled_rows + tolled_rows])

    manifest = {
        "scenario_hash": scenario.content_hash(),
        "tool_version": __version__,
        "seed": scenario.seed,
        "files": {name: _sha256(os.path.join(out_dir, name))
                  for name in sorted(outputs)},
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
