"""Tests of the benchmark itself: metric names, self-time arithmetic, the
host-speed rescaling, the grid generator and a smallest-size run of every
workload.

    python3 -m pytest -q bench/tests
"""
import json
import math
import os
import re
import sys
from collections import deque

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import calib  # noqa: E402
import gridgen  # noqa: E402
import run  # noqa: E402
from spans import (NestedLeafError, Tracer, layer_self_times,  # noqa: E402
                   self_times)

from tollsim.network import validate_network  # noqa: E402
from tollsim.scenario import Scenario, validate_scenario  # noqa: E402

# The grammar BENCHMARK.json names and units must follow.
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class TestMetricNames:
    def test_names_and_units_follow_the_grammar(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                assert NAME.fullmatch(name), name
                assert UNIT.fullmatch(unit), unit

    def test_grammar_rejects_other_characters(self):
        for bad in ("wall s", "iter/ms", ".share", "x" * 65, "", "gap%"):
            assert not NAME.fullmatch(bad), bad

    def test_benchmark_json_declares_what_the_run_reports(self):
        doc = benchmark_json()
        assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
        assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        assert len(names) == len(set(names))

    def test_layer_map_places_every_per_layer_metric_once(self):
        with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
            layer_map = json.load(fh)["layer_map"]
        placed = [m for group in layer_map.values() for m in group["metrics"]]
        assert sorted(placed) == sorted(run.PER_LAYER)
        for layer, group in layer_map.items():
            assert all(m.startswith(layer + ".") for m in group["metrics"])
            assert set(group["moves"]) <= set(run.END_TO_END)


class TestSelfTimes:
    # root [0, 10] -> a [1, 4] -> b [2, 3]; leaves: 3 calls (0.5 s) under a,
    # one call (1 s) under root.
    SPANS = [("cli.main", 0.0, 10.0, -1),
             ("loading.load", 1.0, 4.0, 0),
             ("routing.skims", 2.0, 3.0, 1)]
    LEAVES = {(1, "network.validate"): (3, 0.5),
              (0, "scenario.io"): (1, 1.0)}

    def test_span_minus_children(self):
        st = self_times(self.SPANS, self.LEAVES)
        assert st == pytest.approx({"cli.main": 6.0, "loading.load": 1.5,
                                    "routing.skims": 1.0,
                                    "network.validate": 0.5, "scenario.io": 1.0})

    def test_layers_partition_the_root_span(self):
        layers = layer_self_times(self.SPANS, self.LEAVES)
        assert set(layers) == {"cli", "loading", "routing", "network", "scenario"}
        assert sum(layers.values()) == pytest.approx(10.0)

    def test_same_name_accumulates(self):
        spans = [("a.x", 0.0, 4.0, -1), ("b.y", 0.0, 1.0, 0), ("b.y", 2.0, 3.0, 0)]
        assert self_times(spans, {}) == pytest.approx({"a.x": 2.0, "b.y": 2.0})

    def test_tracer_records_nested_calls(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        leaf = tracer.leaf("network.leaf", lambda: None)
        inner = tracer.span("loading.inner", lambda: [leaf(), leaf()])
        outer = tracer.span("cli.outer", lambda: inner())
        outer()
        assert [s[0] for s in tracer.spans] == ["cli.outer", "loading.inner"]
        assert tracer.spans[1][3] == 0
        assert tracer.leaves[(1, "network.leaf")][0] == 2
        st = self_times(tracer.spans, tracer.leaves)
        root = tracer.spans[0][2] - tracer.spans[0][1]
        assert sum(st.values()) == pytest.approx(root)
        assert all(v >= 0 for v in st.values())

    def test_nested_leaves_are_refused(self):
        tracer = Tracer()
        inner = tracer.leaf("a.inner", lambda: None)
        outer = tracer.leaf("a.outer", lambda: inner())
        with pytest.raises(NestedLeafError):
            outer()

    def test_patch_and_restore(self):
        class Owner:
            def method(self):
                return 1

            @classmethod
            def build(cls):
                return cls

        original = Owner.__dict__["method"]
        tracer = Tracer()
        tracer.patch(Owner, "method", lambda fn: tracer.leaf("x.method", fn))
        tracer.patch(Owner, "build", lambda fn: tracer.span("x.build", fn))
        assert Owner().method() == 1 and Owner.build() is Owner
        tracer.restore()
        assert Owner.__dict__["method"] is original
        assert isinstance(Owner.__dict__["build"], classmethod)


class TestCalibration:
    REF = calib.REFERENCE_S

    def test_rescale_by_local_speed(self):
        # A host twice as slow as the reference halves the times.
        assert calib.rescale([1.0, 2.0], [self.REF, self.REF]) == pytest.approx([1.0, 2.0])
        assert calib.rescale([1.0, 2.0], [2 * self.REF] * 2) == pytest.approx([0.5, 1.0])

    def test_local_speed_ignores_one_outlier(self):
        slices = [self.REF] * 5
        slices[2] = 10 * self.REF     # e.g. a collection inside one slice
        assert calib.rescale([1.0] * 5, slices) == pytest.approx([1.0] * 5)

    def test_rescale_invocation_takes_slices_out(self):
        s = 2 * self.REF              # every slice reads a host at half speed
        # Two iterations of 1 s of program time each, plus their two slices,
        # and 0.5 s outside the iterations.
        iter_s = [1.0 + 2 * s, 1.0 + 2 * s]
        wall, iters = calib.rescale_invocation(sum(iter_s) + 0.5, iter_s, [s] * 4)
        assert iters == pytest.approx([0.5, 0.5])
        assert wall == pytest.approx(1.25)

    def test_rescale_invocation_needs_every_slice(self):
        with pytest.raises(ValueError):
            calib.rescale_invocation(1.0, [0.5, 0.5], [self.REF] * 3)

    def test_calibrator_slices_once_per_hooked_call(self):
        class Skims:
            @classmethod
            def from_loading(cls, x):
                return x

        class Equilibrium:
            @staticmethod
            def load_network(x):
                return x

        modules = {"equilibrium": Equilibrium, "routing": type("R", (), {"CostSkims": Skims})}
        tracer = Tracer()
        calibrator = calib.Calibrator()
        calibrator.install(tracer, modules)
        assert Equilibrium.load_network(3) == 3 and Skims.from_loading(4) == 4
        tracer.restore()
        Equilibrium.load_network(5)
        assert len(calibrator.slices) == calib.Calibrator.PER_ITERATION
        assert all(x > 0 for x in calibrator.slices)


def _reachable(network, origin):
    seen = {origin}
    todo = deque([origin])
    while todo:
        node = todo.popleft()
        for link in network.out_links.get(node, ()):
            if link.to_node not in seen:
                seen.add(link.to_node)
                todo.append(link.to_node)
    return seen


class TestGridGenerator:
    def test_shape_and_validity(self):
        net = gridgen.build_grid()
        assert validate_network(net) == []
        assert len(net.nodes) == 64
        assert len(net.link_list) == 224
        assert all(a.length == 400.0 for a in net.link_list)
        assert len(net.centroid_ids) == 28
        two_lane = [a for a in net.link_list if a.lanes == 2]
        assert len(two_lane) == 2 * 2 * 7    # middle row and column, both ways

    def test_deterministic_per_seed_and_different_across_seeds(self):
        assert gridgen.od_pairs(1) == gridgen.od_pairs(1)
        assert gridgen.grid_demand(5) == gridgen.grid_demand(5)
        assert gridgen.od_pairs(1) != gridgen.od_pairs(2)

    @pytest.mark.parametrize("seed", [1, 2, 1001])
    def test_pairs_are_distinct_border_pairs_and_reachable(self, seed):
        net = gridgen.build_grid()
        border = set(gridgen.border_nodes())
        pairs = gridgen.od_pairs(seed)
        assert len(pairs) == len(set(pairs)) == gridgen.N_OD
        for o, d in pairs:
            assert o != d and o in border and d in border
            assert d in _reachable(net, o)

    def test_written_scenario_validates(self, tmp_path):
        path = gridgen.write_grid_scenario(str(tmp_path), 3)
        scenario = Scenario.load(path)
        assert validate_scenario(scenario) == []
        assert scenario.seed == 3
        assert scenario.so_ratios == (gridgen.SO_RATIO,)


class TestSmokeRuns:
    @pytest.mark.parametrize("trace", [0, 1])
    @pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
    def test_smallest_run(self, workload, trace):
        result = run.measure(workload, 2, 1, trace, cap=2, log=lambda *a: None)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = run.PER_LAYER if trace else run.END_TO_END
        assert set(result["metrics"]) == set(units)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert math.isfinite(metric["value"]), name
        json.dumps(result)

    def test_missing_sources_exit_nonzero_without_result(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
        rc = run.main(["--workload", "grid_od", "--seed", "1", "--seconds", "1"])
        assert rc != 0
        assert capsys.readouterr().out == ""
