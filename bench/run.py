"""tollsim benchmark: three workloads through the public CLI, in-process.

    python3 bench/run.py --workload nguyen_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; tollsim is imported from `src/`.

* `nguyen_sweep`: bundled Nguyen scenario, noisy split (beta_max 0.2) keyed
  on the seed, `tollsim sweep --ratios 0,0.5,1.0`, SWEEP_ITERATIONS
  iterations per ratio (the noise keeps every solve from converging).
* `nguyen_price`: the scenario `tollsim nguyen --tolled` emits, noiseless,
  with the outer loop capped at PRICE_OUTER_CAP, then `tollsim price`. The
  seed does not change it.
* `grid_od`: the generated 8x8 grid of `gridgen.py`, 240 border OD pairs
  picked by the seed, `tollsim sweep --ratios 0.4` (gridgen.ITERATIONS
  iterations).

A run repeats one identical invocation, on the same inputs, until
`--seconds` have passed, at least once. Before every invocation, and once
more after the last, it sets up afresh (a fresh import of tollsim, writing
the inputs, loading and validating the scenario), at least once and as often
as keeps set-ups at SETUP_SHARE of the run, so set-ups spread over the whole
run.

The host these numbers come from shares its cores and caches: the same code
runs up to 1.8x slower for anything from a fraction of a second to minutes.
So every time is rescaled to a reference host speed measured next to it
(see `calib.py`): a calibration slice runs before every set-up and twice in
every inner iteration, and its time is taken out of the iteration's. The
run reports, rescaled:

* `wall_s`, the median over the invocations (CLI entry to manifest written);
* `iter_ms` and `iter_ms_p90`, the median and p90 over all inner iterations;
* `setup_s`, the median over the set-ups;

and `peak_rss_mb`, the process's peak resident memory. The log lines before
the result give the measured times and the median slice as well.

With `--trace 1` the run sets up once, makes one untraced and one traced
invocation, reports the per-layer metrics of the traced one (see
`spans.py`) and writes the spans to `.bench_work/traces/`.

Every solve is checked: finite gaps, and a final loading whose entered and
exited vehicle counts equal the discretised demand (per loading, when
traced). Every invocation must exit 0 and write the same `manifest.json`
as the run's first one; the digest is compared with `reference.json`.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, counting solves.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import calib
from spans import Tracer, layer_self_times, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

SETUP_SHARE = 0.1               # of a run's time, spent in set-ups
SWEEP_ITERATIONS = 10           # per SO ratio
PRICE_OUTER_CAP = 4             # outer 1 and 4 repeat the untolled base solve
NOISE_BETA_MAX = 0.2
ATTRIBUTION_TOLERANCE = 0.05

END_TO_END = {
    "wall_s": "s",
    "iter_ms": "ms",
    "iter_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "loading.load_s": "s",
    "loading.discretize_s": "s",
    "loading.calls": "count",
    "loading.vehicles": "count",
    "loading.veh_per_s": "veh/s",
    "loading.marginal_s": "s",
    "loading.active_step_frac": "fraction",
    "loading.congested_frac": "fraction",
    "loading.share": "fraction",
    "network.path_validations": "count",
    "network.validate_s": "s",
    "fd.blend_calls": "count",
    "demand.split_s": "s",
    "routing.skims_s": "s",
    "routing.search_calls": "count",
    "routing.search_s": "s",
    "routing.search_us": "us",
    "routing.path_cost_calls": "count",
    "routing.path_cost_s": "s",
    "routing.insert_calls": "count",
    "routing.new_path_frac": "fraction",
    "routing.evictions": "count",
    "routing.share": "fraction",
    "equilibrium.solves": "count",
    "equilibrium.iters": "count",
    "equilibrium.converged_frac": "fraction",
    "equilibrium.self_s": "s",
    "equilibrium.share": "fraction",
    "equilibrium.final_rgap": "1",
    "pricing.outer_iters": "count",
    "pricing.inner_iters_per_outer": "count",
    "pricing.repeat_solves": "count",
    "pricing.self_s": "s",
    "pricing.tracking_error": "veh/km",
    "analysis.summary_s": "s",
    "scenario.io_s": "s",
    "scenario.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "trace.attributed_frac": "fraction",
}


class SetupError(RuntimeError):
    """The workload's inputs could not be produced or do not validate."""


# --------------------------------------------------------------------------
# Workloads: each writes its inputs into `dest` and returns (scenario path,
# CLI arguments without --out). `cap`, when given, replaces the iteration cap
# and the outer cap, to shrink the run for smoke tests.

def _quiet(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _edit_scenario(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_nguyen_sweep(cli, dest, seed, cap):
    if _quiet(cli, ["nguyen", "--out", dest, "--seed", str(seed)]) != 0:
        raise SetupError("tollsim nguyen failed")
    path = os.path.join(dest, "scenario.json")

    def edit(doc):
        doc["noise_beta_max"] = NOISE_BETA_MAX
        doc["solver"]["max_iterations"] = cap or SWEEP_ITERATIONS
    _edit_scenario(path, edit)
    return path, ["sweep", path, "--ratios", "0,0.5,1.0"]


def _emit_nguyen_price(cli, dest, seed, cap):
    if _quiet(cli, ["nguyen", "--out", dest, "--tolled"]) != 0:
        raise SetupError("tollsim nguyen --tolled failed")
    path = os.path.join(dest, "scenario.json")

    def edit(doc):
        doc["toll"]["outer_cap"] = cap or PRICE_OUTER_CAP
        if cap:
            doc["solver"]["max_iterations"] = cap
    _edit_scenario(path, edit)
    return path, ["price", path]


def _emit_grid_od(cli, dest, seed, cap):
    import gridgen
    kwargs = {"max_iterations": cap} if cap else {}
    path = gridgen.write_grid_scenario(dest, seed, **kwargs)
    return path, ["sweep", path, "--ratios", str(gridgen.SO_RATIO)]


WORKLOADS = {
    "nguyen_sweep": _emit_nguyen_sweep,
    "nguyen_price": _emit_nguyen_price,
    "grid_od": _emit_grid_od,
}


def fresh_import():
    """Import tollsim (and the grid generator) as a new process would."""
    for name in [m for m in sys.modules
                 if m in ("tollsim", "gridgen") or m.startswith("tollsim.")]:
        del sys.modules[name]
    return importlib.import_module("tollsim.cli")


def set_up(workload, seed, dest, cap):
    """One timed set-up; returns (seconds, CLI arguments without --out)."""
    t0 = time.perf_counter()
    cli = fresh_import()
    path, argv = WORKLOADS[workload](cli, dest, seed, cap)
    from tollsim.scenario import Scenario, validate_scenario
    problems = validate_scenario(Scenario.load(path))
    seconds = time.perf_counter() - t0
    if problems:
        raise SetupError("; ".join(problems))
    return seconds, argv


# --------------------------------------------------------------------------
# Per-solve checks, installed on both names through which solves are called.

class SolveLog:
    """Wraps `solve_mixed_equilibrium` at its call sites and checks results."""

    def __init__(self, modules):
        self.link_toll = modules["pricing"].TollSchedule.link_toll
        self.attempted = 0
        self.failed = 0
        self.iter_s: list[float] = []
        self.final_gaps: list[float] = []
        self.iterations = 0
        self.converged = 0
        self.outer_solves = 0
        self.outer_iterations = 0
        self.repeat_solves = 0
        self.loading_failures = 0     # set by the traced loading check
        self._solved: set = set()

    def install(self, patcher, modules) -> None:
        patcher.patch(modules["scenario"], "solve_mixed_equilibrium",
                      lambda fn: self._wrap(fn, outer=False))
        patcher.patch(modules["pricing"], "solve_mixed_equilibrium",
                      lambda fn: self._wrap(fn, outer=True))

    def _toll_vector(self, network, clock, schedule) -> tuple:
        zone = [network.links[lid] for lid in sorted(network.zone_link_ids)]
        if schedule is None:
            return (0.0,) * (len(zone) * clock.n_intervals)
        return tuple(self.link_toll(schedule, link, tau)
                     for link in zone for tau in range(clock.n_intervals))

    def _wrap(self, fn, outer: bool):
        def solve(network, demand, clock, *args, **kwargs):
            schedule = kwargs.get("toll_schedule", args[1] if len(args) > 1 else None)
            key = (tuple(sorted(demand.entries.items())),
                   self._toll_vector(network, clock, schedule))
            if key in self._solved:
                self.repeat_solves += 1
            self._solved.add(key)
            self.attempted += 1
            bad_loadings = self.loading_failures
            try:
                result = fn(network, demand, clock, *args, **kwargs)
            except BaseException:
                self.failed += 1
                raise
            if not self._ok(demand, result) or self.loading_failures != bad_loadings:
                self.failed += 1
            prev = 0.0
            for rec in result.log:
                self.iter_s.append(rec.wall_time_s - prev)
                prev = rec.wall_time_s
            self.final_gaps.append(result.final_gap)
            self.iterations += len(result.log)
            self.converged += bool(result.converged)
            if outer:
                self.outer_solves += 1
                self.outer_iterations += len(result.log)
            return result
        return solve

    @staticmethod
    def _ok(demand, result) -> bool:
        if not all(math.isfinite(x) for r in result.log
                   for x in (r.r1gap, r.r2gap, r.rgap)):
            return False
        expected = sum(math.floor(q + 0.5) for pair in demand.entries.values()
                       for q in pair if q > 0)
        loading = result.loading
        return loading.vehicles_entered == loading.vehicles_exited == expected


# --------------------------------------------------------------------------
# Tracing: which function is wrapped at which name, and the layer counters.

class LayerCounters:
    def __init__(self, solve_log: SolveLog):
        self.solve_log = solve_log
        self.vehicles = 0
        self.active_fracs: list[float] = []
        self.congested_cells = 0
        self.cells = 0
        self.new_paths = 0
        self.evictions = 0

    def after_loading(self, args, kwargs, result) -> None:
        plans, clock = args[1], args[2]
        n = len(plans)
        self.vehicles += n
        if not result.vehicles_entered == result.vehicles_exited == n:
            self.solve_log.loading_failures += 1
        last_exit = max((v.exit_time for v in result.vehicles), default=0.0)
        self.active_fracs.append(last_exit / clock.step_s / clock.n_steps)
        for rows in result.states.values():
            self.cells += len(rows)
            self.congested_cells += sum(1 for st in rows
                                        if st.travel_time > st.free_flow_time)

    def counting_insert(self, insert):
        def wrapper(path_set, path):
            before = len(path_set.paths)
            idx = insert(path_set, path)
            if path_set.paths[idx] is path:
                self.new_paths += 1
                self.evictions += before >= path_set.cap
            return idx
        return wrapper


def install_tracer(tracer, counters: LayerCounters, m) -> None:
    def span(owner, attr, name, after=None):
        tracer.patch(owner, attr, lambda fn: tracer.span(name, fn, after))

    def leaf(owner, attr, name):
        tracer.patch(owner, attr, lambda fn: tracer.leaf(name, fn))

    span(m["cli"], "run_scenario", "scenario.run_scenario")
    span(m["scenario"], "solve_mixed_equilibrium", "equilibrium.solve")
    span(m["pricing"], "solve_mixed_equilibrium", "equilibrium.solve")
    span(m["scenario"], "bilevel_solve", "pricing.bilevel_solve")
    span(m["scenario"], "class_zone_summary", "analysis.summary")
    span(m["equilibrium"], "load_network", "loading.load_network")
    span(m["loading"], "load_vehicles", "loading.load_vehicles",
         after=counters.after_loading)
    span(m["routing"].CostSkims, "from_loading", "routing.skims")
    leaf(m["loading"], "discretize_assignments", "loading.discretize")
    leaf(m["loading"].LoadingResult, "marginal_time", "loading.marginal_time")
    leaf(m["network"].Path, "validate", "network.path_validate")
    leaf(m["loading"], "blended_reaction_time", "fd.blend")
    leaf(m["equilibrium"], "td_shortest_path", "routing.search")
    leaf(m["equilibrium"], "distance_shortest_path", "routing.distance_path")
    leaf(m["routing"].CostSkims, "path_cost", "routing.path_cost")
    tracer.patch(m["routing"].PathSet, "insert",
                 lambda fn: tracer.leaf("routing.insert", counters.counting_insert(fn)))
    leaf(m["pricing"].TollSchedule, "link_toll", "pricing.link_toll")
    leaf(m["pricing"].TollSchedule, "write_alpha_csv", "scenario.io")
    leaf(m["pricing"].TollSchedule, "write_omega_csv", "scenario.io")
    leaf(m["pricing"], "nfd_series", "pricing.nfd_series")
    leaf(m["scenario"], "nfd_series", "pricing.nfd_series")
    leaf(m["scenario"], "estimate_critical_density", "pricing.estimate_kcr")
    leaf(m["scenario"], "split_demand", "demand.split")
    leaf(m["scenario"], "load_demand_file", "demand.load_file")
    leaf(m["scenario"], "load_network_file", "network.load_file")
    leaf(m["scenario"], "validate_network", "network.validate_network")
    leaf(m["scenario"], "_write_csv", "scenario.io")
    leaf(m["scenario"], "_sha256", "scenario.io")


def tollsim_modules() -> dict:
    return {name: importlib.import_module(f"tollsim.{name}")
            for name in ("cli", "scenario", "pricing", "equilibrium",
                         "loading", "routing", "network")}


# --------------------------------------------------------------------------
# Running and measuring.

@dataclass
class Invocation:
    wall: float
    rc: int
    manifest: bytes | None
    out_dir: str


def invoke(cli, argv, out_dir, root_span=None) -> Invocation:
    """One CLI invocation; `root_span` wraps `cli.main` when tracing."""
    main = cli.main if root_span is None else root_span(cli.main)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv + ["--out", out_dir])
    except Exception:  # the run goes on; this invocation counts as failed
        traceback.print_exc()
        rc = 1
    wall = time.perf_counter() - t0
    manifest = None
    with contextlib.suppress(OSError):
        with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
            manifest = fh.read()
    return Invocation(wall, rc, manifest, out_dir)


def bytes_written(out_dir) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def tracking_error(out_dir) -> float:
    """Best outer objective over the controller logs (0 without pricing)."""
    best = None
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("controller_r"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            for row in rows:
                obj = float(row.split(",")[1])
                best = obj if best is None else min(best, obj)
    return 0.0 if best is None else best


def reference_digest(workload, seed):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    except OSError:
        return None
    return ref.get("manifest_sha256", {}).get(workload, {}).get(str(seed))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def measure(workload, seed, seconds, trace, cap=None, log=print) -> dict:
    """Run one benchmark run and return the result object."""
    run_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return _measure(workload, seed, seconds, trace, cap, log, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, cap, log, run_dir) -> dict:
    in_dir = os.path.join(run_dir, "in")
    if trace:
        _took, argv = set_up(workload, seed, in_dir, cap)
        return _measure_traced(workload, seed, cap, tollsim_modules(), argv,
                               run_dir, log)

    raw_setup: list[float] = []
    setup_slices: list[float] = []
    runs: list[Invocation] = []
    walls: list[float] = []
    iter_s: list[float] = []
    slices: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()

    def set_ups(ahead: float):
        """Set up at least once, and until set-ups fill SETUP_SHARE of the
        run up to `ahead` seconds from now."""
        while True:
            shutil.rmtree(in_dir, ignore_errors=True)
            gc.collect()    # garbage of the last set-up or invocation
            setup_slices.append(calib.slice_s())
            took, argv = set_up(workload, seed, in_dir, cap)
            raw_setup.append(took)
            if sum(raw_setup) >= SETUP_SHARE * (time.perf_counter() - start + ahead):
                return argv

    while True:
        # The next invocation is expected to take as long as the last one.
        argv = set_ups(runs[-1].wall if runs else 0.0)
        # Set-up imported tollsim afresh: check solves on the new modules.
        modules = tollsim_modules()
        solves = SolveLog(modules)
        calibrator = calib.Calibrator()
        patcher = Tracer()
        solves.install(patcher, modules)
        calibrator.install(patcher, modules)
        gc.collect()
        try:
            inv = invoke(modules["cli"], argv, os.path.join(run_dir, f"out{len(runs)}"))
        finally:
            patcher.restore()
        runs.append(inv)
        attempted += solves.attempted
        failed += solves.failed
        ok = inv.rc == 0 and inv.manifest is not None and inv.manifest == runs[0].manifest
        if not ok and solves.failed == 0:
            failed += 1
        if ok and solves.failed == 0:
            wall, iters = calib.rescale_invocation(inv.wall, solves.iter_s,
                                                   calibrator.slices)
            walls.append(wall)
            iter_s.extend(iters)
            slices.extend(calibrator.slices)
        shutil.rmtree(inv.out_dir, ignore_errors=True)
        if time.perf_counter() - start >= seconds:
            break
    set_ups(0.0)

    _report_digest(workload, seed, runs[0].manifest, cap, log)
    setup_s = calib.rescale(raw_setup, setup_slices)
    iter_ms = [x * 1000.0 for x in iter_s]
    metrics = {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "iter_ms": statistics.median(iter_ms) if iter_ms else 0.0,
        "iter_ms_p90": (statistics.quantiles(iter_ms, n=10)[8]
                        if len(iter_ms) > 1 else (iter_ms or [0.0])[0]),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": f"median of {len(walls)} invocations",
        "iter_ms": f"median of {len(iter_ms)} inner iterations",
        "iter_ms_p90": f"p90 of the same {len(iter_ms)}",
        "setup_s": f"median of {len(setup_s)} set-ups",
        "peak_rss_mb": "process peak",
    }
    log(f"measured: invocations {' '.join(f'{r.wall:.3f}' for r in runs)} s; "
        f"set-up median {statistics.median(raw_setup):.4f} s")
    if slices:
        log(f"calibration: median slice {statistics.median(slices) * 1000:.3f} ms "
            f"over {len(slices)} slices, reference {calib.REFERENCE_S * 1000:g} ms")
    for name, unit in END_TO_END.items():
        log(f"{name:<12} {metrics[name]:>12.6g} {unit:<3} ({notes[name]})")
    log(f"solves attempted {attempted}, failed {failed}")
    return _result(failed == 0, attempted, failed, metrics, END_TO_END)


def _measure_traced(workload, seed, cap, modules, argv, run_dir, log):
    cli = modules["cli"]
    untraced_log = SolveLog(modules)
    patcher = Tracer()
    untraced_log.install(patcher, modules)
    try:
        plain = invoke(cli, argv, os.path.join(run_dir, "plain"))
    finally:
        patcher.restore()

    solves = SolveLog(modules)
    counters = LayerCounters(solves)
    tracer = Tracer()
    install_tracer(tracer, counters, modules)
    solves.install(tracer, modules)
    try:
        traced = invoke(cli, argv, os.path.join(run_dir, "traced"),
                        root_span=lambda fn: tracer.span("cli.main", fn))
    finally:
        tracer.restore()

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    trace_path = os.path.join(WORK, "traces", f"{workload}-{seed}.jsonl")
    tracer.write_jsonl(trace_path)

    st = self_times(tracer.spans, tracer.leaves)
    layers = layer_self_times(tracer.spans, tracer.leaves)
    counts: dict[str, int] = {}
    for name, *_ in tracer.spans:
        counts[name] = counts.get(name, 0) + 1
    for (_parent, name), (n, _total) in tracer.leaves.items():
        counts[name] = counts.get(name, 0) + n
    wall = traced.wall
    program = sum(v for k, v in layers.items() if k != "bench")
    attributed = program / wall

    manifests_ok = (plain.rc == 0 and traced.rc == 0 and plain.manifest is not None
                    and plain.manifest == traced.manifest)
    attempted = untraced_log.attempted + solves.attempted
    failed = untraced_log.failed + solves.failed
    if not manifests_ok and failed == 0:
        failed = 1
    attribution_ok = abs(attributed - 1.0) <= ATTRIBUTION_TOLERANCE
    _report_digest(workload, seed, traced.manifest, cap, log)
    log(f"manifest traced == untraced: {manifests_ok}")
    log(f"trace: {len(tracer.spans)} spans, {len(tracer.leaves)} leaf groups "
        f"-> {os.path.relpath(trace_path, ROOT)}")
    log(f"attribution: layer self times sum to {attributed:.4f} of traced wall "
        f"({'ok' if attribution_ok else 'OUTSIDE'} +-{ATTRIBUTION_TOLERANCE})")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        log(f"  {layer:<12} {seconds:10.4f} s  {seconds / wall:7.2%}")

    load_s = st.get("loading.load_vehicles", 0.0)
    search_calls = counts.get("routing.search", 0)
    metrics = {
        "loading.load_s": load_s,
        "loading.discretize_s": st.get("loading.discretize", 0.0),
        "loading.calls": counts.get("loading.load_vehicles", 0),
        "loading.vehicles": counters.vehicles,
        "loading.veh_per_s": _ratio(counters.vehicles, load_s),
        "loading.marginal_s": st.get("loading.marginal_time", 0.0),
        "loading.active_step_frac": _ratio(sum(counters.active_fracs),
                                           len(counters.active_fracs)),
        "loading.congested_frac": _ratio(counters.congested_cells, counters.cells),
        "loading.share": layers.get("loading", 0.0) / wall,
        "network.path_validations": counts.get("network.path_validate", 0),
        "network.validate_s": st.get("network.path_validate", 0.0),
        "fd.blend_calls": counts.get("fd.blend", 0),
        "demand.split_s": st.get("demand.split", 0.0),
        "routing.skims_s": st.get("routing.skims", 0.0),
        "routing.search_calls": search_calls,
        "routing.search_s": st.get("routing.search", 0.0),
        "routing.search_us": _ratio(st.get("routing.search", 0.0), search_calls) * 1e6,
        "routing.path_cost_calls": counts.get("routing.path_cost", 0),
        "routing.path_cost_s": st.get("routing.path_cost", 0.0),
        "routing.insert_calls": counts.get("routing.insert", 0),
        "routing.new_path_frac": _ratio(counters.new_paths,
                                        counts.get("routing.insert", 0)),
        "routing.evictions": counters.evictions,
        "routing.share": layers.get("routing", 0.0) / wall,
        "equilibrium.solves": solves.attempted,
        "equilibrium.iters": solves.iterations,
        "equilibrium.converged_frac": _ratio(solves.converged, solves.attempted),
        "equilibrium.self_s": layers.get("equilibrium", 0.0),
        "equilibrium.share": layers.get("equilibrium", 0.0) / wall,
        "equilibrium.final_rgap": max(solves.final_gaps, default=0.0),
        "pricing.outer_iters": solves.outer_solves,
        "pricing.inner_iters_per_outer": _ratio(solves.outer_iterations,
                                                solves.outer_solves),
        "pricing.repeat_solves": solves.repeat_solves,
        "pricing.self_s": layers.get("pricing", 0.0),
        "pricing.tracking_error": tracking_error(traced.out_dir),
        "analysis.summary_s": layers.get("analysis", 0.0),
        "scenario.io_s": st.get("scenario.io", 0.0),
        "scenario.bytes_written": bytes_written(traced.out_dir),
        "trace.overhead_s": traced.wall - plain.wall,
        "trace.attributed_frac": attributed,
    }
    for name, unit in PER_LAYER.items():
        log(f"{name:<30} {metrics[name]:>14.6g} {unit}")
    log(f"solves attempted {attempted}, failed {failed}")
    correct = failed == 0 and manifests_ok and attribution_ok
    return _result(correct, attempted, failed, metrics, PER_LAYER)


def _report_digest(workload, seed, manifest, cap, log) -> None:
    if manifest is None:
        log("manifest: none written")
        return
    digest = hashlib.sha256(manifest).hexdigest()
    ref = None if cap else reference_digest(workload, seed)
    status = ("no reference for this seed" if ref is None
              else "matches reference" if ref == digest else "DIFFERS from reference")
    log(f"manifest sha256 {digest} ({status})")


def _result(correct, attempted, failed, metrics, units) -> dict:
    return {"correct": bool(correct), "attempted": max(1, attempted, failed),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "tollsim")):
        print(f"tollsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
