"""Bundled benchmark network, scenario orchestration and the CLI."""
import csv
import dataclasses
import json
import os
import subprocess
import sys
import weakref

import pytest

from tollsim.cli import main
from tollsim.network import (Clock, Link, Network, Node, load_network_file,
                             save_network_file, validate_network)
from tollsim.demand import save_demand_file, split_demand
from tollsim.equilibrium import SolverConfig, solve_mixed_equilibrium
from tollsim.nguyen import DEFAULT_PULSE, OD_PAIRS, ZONE_LINKS, build_nguyen
from tollsim.pricing import TollConfig
import tollsim
from tollsim import scenario
from tollsim.scenario import (Scenario, StageError, run_scenario,
                              validate_scenario)

from conftest import links_from
from test_pricing import tolled_pair_network


def count_simple_routes(network):
    """Exhaustive simple-route enumeration across the bundled OD pairs."""
    def count(node, dest, visited):
        if node == dest:
            return 1
        return sum(count(link.to_node, dest, visited | {link.to_node})
                   for link in links_from(network, node)
                   if link.to_node not in visited)

    return sum(count(o, d, {o}) for (o, d) in OD_PAIRS)


class TestBundledNetwork:
    def test_shape(self):
        network, demand, clock = build_nguyen()
        assert len(network.link_list) == 19
        assert len(network.nodes) == 13
        assert validate_network(network) == []
        assert clock.n_intervals == 12

    def test_twenty_five_simple_routes(self):
        network, _, _ = build_nguyen()
        assert count_simple_routes(network) == 25

    def test_demand_is_a_three_interval_pulse(self):
        _, demand, _ = build_nguyen()
        assert {tau for (_, _, tau) in demand} == {0, 1, 2}
        for (o, d) in OD_PAIRS:
            assert demand[(o, d, 1)] == 2 * demand[(o, d, 0)]
            assert demand[(o, d, 0)] == demand[(o, d, 2)]
        assert sum(demand.values()) == len(OD_PAIRS) * sum(DEFAULT_PULSE)

    def test_zone_links_only_in_tolled_variant(self):
        plain, _, _ = build_nguyen()
        tolled, _, _ = build_nguyen(with_zone=True)
        assert plain.zone_link_ids == frozenset()
        assert tolled.zone_link_ids == frozenset(ZONE_LINKS)


def write_fixture_scenario(base, *, toll=False, horizon=1800, demand_total=250.0,
                           so_ratios=(0.0,), seed=0, beta=0.0):
    """A small two-route scenario on disk; returns the scenario path."""
    os.makedirs(base, exist_ok=True)
    save_network_file(tolled_pair_network(), os.path.join(base, "net.json"))
    save_demand_file({("O", "D", 0): demand_total},
                     os.path.join(base, "demand.json"))
    doc = {
        "scenario_id": "fixture",
        "network": "net.json",
        "demand": "demand.json",
        "clock": {"step_s": 1, "interval_s": 300, "horizon_s": horizon},
        "solver": {"max_iterations": 40, "gap_tolerance": 0.01, "gamma": 2.0},
        "so_ratios": list(so_ratios),
        "noise_beta_max": beta,
        "seed": seed,
    }
    if toll:
        doc["toll"] = {"p_gain": 0.02, "i_gain": 0.01, "outer_cap": 4,
                       "window": [0, 1, 2]}
    path = os.path.join(base, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


class TestScenarioParsing:
    def test_defaults_and_round_trip(self, tmp_path):
        path = write_fixture_scenario(tmp_path)
        sc = Scenario.load(path)
        assert sc.scenario_id == "fixture"
        assert sc.clock.horizon_s == 1800
        assert sc.solver.gamma == 2.0
        assert sc.toll is None
        assert sc.so_ratios == (0.0,)
        assert validate_scenario(sc) == []

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({"network": "n", "demand": "d", "mode": "x"})

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError, match="so_ratio"):
            Scenario.from_dict({"network": "n", "demand": "d",
                                "so_ratios": [1.5]})

    @pytest.mark.parametrize("ratios", [[0.0, 0.004], [0.5, 0.5]])
    def test_ratios_sharing_an_output_tag_rejected(self, ratios):
        # Both would write iters_r000.csv (iters_r050.csv): one overwrites.
        with pytest.raises(ValueError, match=f"so_ratios {ratios[0]} and {ratios[1]}"):
            Scenario.from_dict({"network": "n", "demand": "d",
                                "so_ratios": ratios})

    @pytest.mark.parametrize("ratios", [0.5, "0.5", {"r": 0.5}])
    def test_so_ratios_must_be_a_list(self, ratios):
        with pytest.raises(ValueError, match="so_ratios must be a list"):
            Scenario.from_dict({"network": "n", "demand": "d",
                                "so_ratios": ratios})

    @pytest.mark.parametrize("doc,match", [
        # These raised TypeError tracebacks ...
        ({"so_ratios": [None]}, "so_ratios entry must be a number"),
        ({"solver": {"gamma": [2]}}, "solver gamma must be a number"),
        ({"noise_beta_max": None}, "noise_beta_max must be a number"),
        ({"clock": {"step_s": None}}, "clock step_s must be a number"),
        ({"toll": {"window": 3}}, "toll window must be a list or null"),
        ({"network": 5}, "scenario network must be a file name"),
        # ... and these were coerced silently.
        ({"solver": {"gamma": "0.5"}}, "solver gamma must be a number"),
        ({"so_ratios": ["0.5"]}, "so_ratios entry must be a number"),
        ({"seed": True}, "seed must be a number"),
        # Used to write "None" (or "7") as the scenario_id in metrics.csv.
        ({"scenario_id": None}, "scenario_id must be a string"),
        ({"scenario_id": 7}, "scenario_id must be a string"),
        # Used to run the untolled k_cr solve and write a header-only metrics.csv.
        ({"so_ratios": []}, "so_ratios must be non-empty"),
    ])
    def test_wrong_json_type_rejected(self, doc, match):
        with pytest.raises(ValueError, match=match):
            Scenario.from_dict({"network": "n", "demand": "d", **doc})

    @pytest.mark.parametrize("doc", [[], ["network", "demand"], "net.json"])
    def test_scenario_must_be_an_object(self, doc):
        with pytest.raises(ValueError, match="scenario must be an object"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("section,value", [
        ("toll", False), ("toll", 0), ("toll", []),   # used to price at defaults
        ("clock", []), ("clock", None), ("clock", 5),
        ("solver", False), ("solver", "fast")])
    def test_section_must_be_an_object(self, section, value):
        with pytest.raises(ValueError, match=f"scenario {section} must be an object"):
            Scenario.from_dict({"network": "n", "demand": "d", section: value})

    @pytest.mark.parametrize("section", ["solver", "clock", "toll"])
    def test_unknown_nested_field_rejected(self, section):
        # A misspelt key must not fall back to a default (plain MSA here).
        doc = {"network": "n", "demand": "d", "solver": {}, "clock": {},
               "toll": {}}
        doc[section]["gama"] = 2
        with pytest.raises(ValueError, match=f"unknown {section} fields"):
            Scenario.from_dict(doc)

    def test_sections_are_their_dataclasses(self):
        # Empty sections give the defaults; every field is a key.
        classes = {"clock": Clock, "solver": SolverConfig, "toll": TollConfig}
        empty = Scenario.from_dict({"network": "n", "demand": "d",
                                    **{name: {} for name in classes}})
        full = Scenario.from_dict({"network": "n", "demand": "d", **{
            name: {f.name: f.default for f in dataclasses.fields(cls)}
            for name, cls in classes.items()}})
        for sc in (empty, full):
            assert (sc.clock, sc.solver, sc.toll) \
                == (Clock(), SolverConfig(), TollConfig())

    def test_toll_value_of_time_rejected(self):
        # Tolls are priced at the solver's value of time only.
        with pytest.raises(ValueError, match="unknown toll fields"):
            Scenario.from_dict({"network": "n", "demand": "d",
                                "toll": {"vot_per_hour": 15.0}})

    @pytest.mark.parametrize("section,key,value", [
        ("solver", "gap_tolerance", float("nan")),   # would never converge
        (None, "noise_beta_max", float("nan")),      # would turn noise off
        ("solver", "gamma", float("inf")),
        ("solver", "vot_per_hour", float("inf")),    # would zero every toll
        ("toll", "alpha_max", float("inf")),
        ("toll", "omega_max", float("nan")),
        ("toll", "p_gain", float("nan")),
        ("toll", "i_gain", float("inf")),
        ("toll", "improvement_tol", float("nan")),
        ("toll", "p_gain", -0.5),                    # would reverse the controller
        ("toll", "improvement_tol", 1.0),            # would stall every run
        (None, "noise_beta_max", 1.5),               # else fails at run time
    ])
    def test_non_finite_number_rejected(self, section, key, value):
        doc = {"network": "n", "demand": "d", "toll": {}}
        (doc.setdefault(section, {}) if section else doc)[key] = value
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("section,key,value", [
        ("clock", "step_s", 1.5),
        ("clock", "interval_s", 300.9),
        ("clock", "horizon_s", 3600.5),
        ("solver", "max_iterations", 2.7),
        ("toll", "outer_cap", 2.5),
        (None, "seed", 1.5),
    ])
    def test_fractional_integer_field_rejected(self, section, key, value):
        # int() used to truncate these silently.
        doc = {"network": "n", "demand": "d", "toll": {}}
        (doc.setdefault(section, {}) if section else doc)[key] = value
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("window,match", [
        ([0, 99], "reaches outside"), ([-1], "reaches outside"),
        ([], "window is empty"), ([0.5], "window entry must be an integer")])
    def test_bad_toll_window_rejected(self, window, match):
        # Used to fail only in the pricing stage, after the whole sweep.
        with pytest.raises(ValueError, match=match):
            Scenario.from_dict({"network": "n", "demand": "d",
                                "clock": {"horizon_s": 1800},
                                "toll": {"window": window}})

    def test_validate_reports_demand_outside_the_clock(self, tmp_path):
        path = write_fixture_scenario(tmp_path)
        save_demand_file({("O", "D", -1): 5.0, ("O", "D", 0): 5.0,
                          ("O", "D", 6): 5.0}, os.path.join(tmp_path, "demand.json"))
        assert validate_scenario(Scenario.load(path)) == [
            "demand O->D at interval -1 outside the clock's 6 intervals",
            "demand O->D at interval 6 outside the clock's 6 intervals"]

    def test_content_hash_is_stable(self, tmp_path):
        path = write_fixture_scenario(tmp_path)
        assert Scenario.load(path).content_hash() \
            == Scenario.load(path).content_hash()

    def test_validate_reports_missing_files(self, tmp_path):
        sc = Scenario.from_dict({"network": "no-net.json",
                                 "demand": "no-demand.json"}, str(tmp_path))
        problems = validate_scenario(sc)
        assert len(problems) == 2
        assert any("network" in p for p in problems)
        assert any("demand" in p for p in problems)


class TestRunScenario:
    def test_sweep_outputs_and_manifest(self, tmp_path):
        path = write_fixture_scenario(tmp_path / "in", so_ratios=(0.0, 1.0))
        out = tmp_path / "out"
        manifest = run_scenario(Scenario.load(path), str(out))
        for name in ("iters_r000.csv", "iters_r100.csv", "nfd_r000.csv",
                     "nfd_network_r000.csv", "metrics.csv", "manifest.json"):
            assert (out / name).exists()
        assert set(manifest["files"]) >= {"iters_r000.csv", "metrics.csv"}
        with open(out / "metrics.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("scenario_id,so_ratio,tolled")
        assert len(lines) == 3  # header + two sweep rows

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        path = write_fixture_scenario(tmp_path / "in", seed=7, beta=0.2)
        m1 = run_scenario(Scenario.load(path), str(tmp_path / "a"))
        m2 = run_scenario(Scenario.load(path), str(tmp_path / "b"))
        assert m1["files"] == m2["files"]

    def test_tolled_run_writes_controller_outputs(self, tmp_path):
        path = write_fixture_scenario(tmp_path / "in", toll=True,
                                      demand_total=400.0, horizon=3600)
        out = tmp_path / "out"
        run_scenario(Scenario.load(path), str(out))
        for name in ("kcr.json", "toll_r000.csv", "omega_r000.csv",
                     "controller_r000.csv", "nfd_tolled_r000.csv"):
            assert (out / name).exists()
        with open(out / "kcr.json", encoding="utf-8") as fh:
            kcr = json.load(fh)
        assert kcr["k_cr_veh_km"] > 0.0

    def test_tolled_run_splits_and_solves_each_ratio_once(self, tmp_path,
                                                          monkeypatch):
        # 0.0 is not swept here but gives k_cr first; 0.5 is swept and priced.
        splits, solves = [], []

        def split(totals, ratio, *args):
            splits.append(ratio)
            return split_demand(totals, ratio, *args)

        def solve(network, demand, *args):
            solves.append(demand)
            return solve_mixed_equilibrium(network, demand, *args)

        monkeypatch.setattr(scenario, "split_demand", split)
        monkeypatch.setattr(scenario, "solve_mixed_equilibrium", solve)
        path = write_fixture_scenario(tmp_path / "in", toll=True, so_ratios=(0.5,),
                                      demand_total=400.0, horizon=3600)
        run_scenario(Scenario.load(path), str(tmp_path / "out"))
        assert splits == [0.0, 0.5]
        assert len(solves) == 2

    @pytest.mark.parametrize("toll, so_ratios, zero_waits", [
        (False, (0.5, 1.0), False),
        (True, (0.5, 1.0), False),
        (True, (0.5, 0.0), True),
    ], ids=["untolled", "tolled", "tolled-zero-swept-last"])
    def test_a_ratio_solve_starts_with_no_other_ratio_alive(
            self, tmp_path, monkeypatch, refcount_only, toll, so_ratios, zero_waits):
        # Each solve starts with every earlier one gone, but for the 0% run
        # k_cr came from while a swept 0.0 ratio is still to reuse it. The
        # fixture's toll never charges, so each ratio's pricing result holds
        # its untolled solve: it must be gone too.
        results = []

        def solve(*args):
            alive = [ref() is not None for ref in results]
            assert alive == [zero_waits and i == 0 for i in range(len(results))]
            result = solve_mixed_equilibrium(*args)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(scenario, "solve_mixed_equilibrium", solve)
        path = write_fixture_scenario(tmp_path / "in", toll=toll, so_ratios=so_ratios,
                                      demand_total=400.0, horizon=3600)
        run_scenario(Scenario.load(path), str(tmp_path / "out"))
        # One solve per ratio, and the 0% run's when 0.0 is not swept.
        assert len(results) == len(so_ratios) + (toll and 0.0 not in so_ratios)

    def test_tolled_scenario_without_a_zone_fails_its_input_check(
            self, tmp_path, capsys):
        path = write_fixture_scenario(tmp_path / "in", toll=True, so_ratios=(0.5,))
        with open(tmp_path / "in" / "net.json", encoding="utf-8") as fh:
            doc = _edited(json.load(fh), ("pricing_zone",), _DROP)
        with open(tmp_path / "in" / "net.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        sc = Scenario.load(path)
        assert validate_scenario(sc) == ["pricing zone is empty"]
        with pytest.raises(StageError) as err:
            run_scenario(sc, str(tmp_path / "out"))
        assert err.value.stage == "pricing"
        assert str(err.value) == "stage 'pricing' failed: pricing zone is empty"
        assert not (tmp_path / "out").exists()
        assert main(["validate", path]) == 1
        assert capsys.readouterr().err == "pricing zone is empty\n"

    def test_unroutable_demand_pairs_fail_the_input_check(self, tmp_path, capsys):
        # These used to pass `validate`; a run then failed in the equilibrium
        # stage, after creating out/.
        path = write_fixture_scenario(tmp_path / "in")
        save_demand_file({("O", "D", 0): 250.0, ("Z", "D", 0): 5.0, ("D", "O", 1): 5.0,
                          ("O", "M", 0): 0.0, ("M", "Y", 1): 0.0},
                         str(tmp_path / "in" / "demand.json"))
        problems = ["demand D->O: destination unreachable from origin",
                    "demand M->Y: node 'Y' is not in the network",
                    "demand Z->D: node 'Z' is not in the network"]
        sc = Scenario.load(path)
        assert validate_scenario(sc) == problems
        with pytest.raises(StageError) as err:
            run_scenario(sc, str(tmp_path / "out"))
        assert err.value.stage == "demand"
        assert str(err.value) == f"stage 'demand' failed: {'; '.join(problems)}"
        assert not (tmp_path / "out").exists()
        assert main(["validate", path]) == 1
        assert capsys.readouterr().err == "".join(p + "\n" for p in problems)

    def test_a_zero_critical_density_fails_before_any_ratio_is_solved(
            self, tmp_path, monkeypatch):
        # The zone is a link no demand uses, so the 0% run leaves it empty
        # and k_cr is 0. That used to fail inside `bilevel_solve`, after
        # kcr.json and the first ratio's solve and files were written.
        solves = []

        def solve(*args):
            solves.append(args)
            return solve_mixed_equilibrium(*args)

        monkeypatch.setattr(scenario, "solve_mixed_equilibrium", solve)
        path = write_fixture_scenario(tmp_path / "in", toll=True, so_ratios=(0.5, 1.0))
        links = [dataclasses.replace(a, in_pricing_zone=False)
                 for a in tolled_pair_network().link_list]
        network = Network([Node("O", True), Node("M"), Node("D", True)],
                          links + [Link("DM", "D", "M", 1000.0, 1, 20.0,
                                        in_pricing_zone=True)])
        save_network_file(network, str(tmp_path / "in" / "net.json"))
        sc = Scenario.load(path)
        assert validate_scenario(sc) == []
        with pytest.raises(StageError) as err:
            run_scenario(sc, str(tmp_path / "out"))
        assert err.value.stage == "pricing"
        assert "critical density must be finite and positive, got 0.0" in str(err.value)
        assert len(solves) == 1
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("record", [
        {"origin": "O", "destination": "O", "interval_index": 0, "total": 5},
        # Used to fail in the equilibrium stage, after the path searches.
        {"origin": "O", "destination": "D", "interval_index": 99, "total": 5},
    ], ids=["origin-is-destination", "interval-outside-clock"])
    def test_invalid_demand_file_fails_in_demand_stage(self, tmp_path, record):
        path = write_fixture_scenario(tmp_path)
        with open(tmp_path / "demand.json", "w", encoding="utf-8") as fh:
            json.dump([record], fh)
        with pytest.raises(StageError) as err:
            run_scenario(Scenario.load(path), str(tmp_path / "out"))
        assert err.value.stage == "demand"

    def test_invalid_network_fails_in_network_stage(self, tmp_path):
        path = write_fixture_scenario(tmp_path)
        with open(tmp_path / "net.json", "w", encoding="utf-8") as fh:
            fh.write("{}")
        with pytest.raises(StageError) as err:
            run_scenario(Scenario.load(path), str(tmp_path / "out"))
        assert err.value.stage == "network"


_DROP = object()

# (file, keys to the edited value, new value or _DROP, stage, message).
_MALFORMED_INPUTS = [
    # These raised TypeError tracebacks in `tollsim validate` ...
    ("net.json", ("links", 0, "length"), None, "network",
     "link 'OM' length must be a number, got None"),
    ("net.json", ("links", 1), 5, "network",
     "link must be an object, got int"),
    ("net.json", ("nodes",), {"O": True}, "network",
     "network nodes must be a list, got {'O': True}"),
    # ... these were coerced silently ...
    ("net.json", ("links", 0, "length"), "700", "network",
     "link 'OM' length must be a number, got '700'"),
    ("net.json", ("links", 0, "speed_limit"), True, "network",
     "link 'OM' speed_limit must be a number, got True"),
    ("net.json", ("nodes", 0, "is_centroid"), "false", "network",
     "node 'O' is_centroid must be a boolean, got 'false'"),
    ("net.json", ("pricing_zone",), "MD", "network",
     "network pricing_zone must be a list, got 'MD'"),
    ("demand.json", (0, "total"), "5", "demand",
     "demand total at ('O', 'D', 0) must be a number, got '5'"),
    ("demand.json", (0, "total"), True, "demand",
     "demand total at ('O', 'D', 0) must be a number, got True"),
    ("demand.json", (0, "so_ratio"), "0.5", "demand",
     "so_ratio at ('O', 'D', 0) must be a number, got '0.5'"),
    # ... these raised a bare KeyError or listed a key's characters ...
    ("demand.json", (0, "total"), _DROP, "demand",
     "missing demand fields: ['total']"),
    ("demand.json", (0, "origin"), _DROP, "demand",
     "missing demand fields: ['origin']"),
    ("demand.json", (), {"origin": "O", "destination": "D", "interval_index": 0,
                         "total": 5.0}, "demand",
     "demand must be a list of objects, got dict"),
    # ... ids, endpoints and zone entries were coerced with str() ...
    ("net.json", ("nodes", 0, "id"), None, "network",
     "node id must be a string, got None"),
    ("net.json", ("links", 0, "id"), 5, "network",
     "link id must be a string, got 5"),
    ("net.json", ("links", 0, "from_node"), None, "network",
     "link 'OM' from_node must be a string, got None"),
    ("net.json", ("pricing_zone", 0), 5, "network",
     "pricing_zone entry must be a string, got 5"),
    ("demand.json", (0, "origin"), None, "demand",
     "demand origin must be a string, got None"),
    ("demand.json", (0, "destination"), 5, "demand",
     "demand destination must be a string, got 5"),
    # ... and these messages are kept.
    ("net.json", ("links", 0, "length"), float("inf"), "network",
     "link 'OM' length must be finite, got inf"),
    ("net.json", ("links", 0, "lanes"), 1.5, "network",
     "link 'OM' lanes must be an integer, got 1.5"),
]


def _edited(doc, keys, value):
    if not keys:
        return value
    target = doc
    for key in keys[:-1]:
        target = target[key]
    if value is _DROP:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return doc


class TestMalformedInputs:
    @pytest.mark.parametrize("name,keys,value,stage,message", _MALFORMED_INPUTS,
                             ids=[c[-1] for c in _MALFORMED_INPUTS])
    def test_validate_run_and_cli_report_alike(self, tmp_path, capsys, name, keys,
                                               value, stage, message):
        path = write_fixture_scenario(tmp_path)
        with open(tmp_path / name, encoding="utf-8") as fh:
            doc = _edited(json.load(fh), keys, value)
        with open(tmp_path / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        problem = f"{stage} file invalid: {message}"
        sc = Scenario.load(path)
        assert validate_scenario(sc) == [problem]
        with pytest.raises(StageError) as err:
            run_scenario(sc, str(tmp_path / "out"))
        assert err.value.stage == stage
        assert str(err.value) == f"stage {stage!r} failed: {problem}"
        assert main(["validate", path]) == 1
        assert capsys.readouterr().err == problem + "\n"


class TestCli:
    def test_nguyen_emits_loadable_scenario(self, tmp_path):
        out = tmp_path / "nguyen"
        assert main(["nguyen", "--out", str(out)]) == 0
        sc = Scenario.load(str(out / "scenario.json"))
        assert validate_scenario(sc) == []
        net = load_network_file(str(out / "nguyen_network.json"))
        assert len(net.link_list) == 19

    def test_nguyen_tolled_includes_zone_and_controller(self, tmp_path):
        out = tmp_path / "nguyen"
        assert main(["nguyen", "--out", str(out), "--tolled"]) == 0
        sc = Scenario.load(str(out / "scenario.json"))
        assert sc.toll is not None
        net = load_network_file(str(out / "nguyen_network.json"))
        assert net.zone_link_ids == frozenset(ZONE_LINKS)

    def test_validate_ok(self, tmp_path, capsys):
        path = write_fixture_scenario(tmp_path)
        assert main(["validate", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_missing_file_fails(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_validate_wrong_json_type_is_one_line_error(self, tmp_path, capsys):
        path = write_fixture_scenario(tmp_path, beta=None)
        assert main(["validate", path]) == 1
        assert capsys.readouterr().err == \
            "error: noise_beta_max must be a number, got None\n"

    def test_equilibrate_writes_metrics(self, tmp_path):
        path = write_fixture_scenario(tmp_path / "in")
        out = tmp_path / "out"
        assert main(["equilibrate", path, "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()

    def test_equilibrate_writes_the_final_trajectories(self, tmp_path,
                                                       monkeypatch):
        solves = []

        def solve(*args):
            solves.append(solve_mixed_equilibrium(*args))
            return solves[-1]

        monkeypatch.setattr(scenario, "solve_mixed_equilibrium", solve)
        src = tmp_path / "nguyen"
        assert main(["nguyen", "--out", str(src)]) == 0
        with open(src / "scenario.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["solver"]["max_iterations"] = 3
        with open(src / "scenario.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = tmp_path / "out"
        assert main(["equilibrate", str(src / "scenario.json"), "--so-ratio",
                     "0.4", "--out", str(out), "--trajectories"]) == 0
        [eq] = solves
        with open(out / "trajectories_r040.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        vehicles = eq.loading.vehicles
        assert len(rows) == len(vehicles) == eq.loading.vehicles_entered > 0
        assert [(float(r["departure_time_s"]), float(r["exit_time_s"]))
                for r in rows] == [(v.departure_time, v.exit_time)
                                   for v in vehicles]

    def test_sweep_bytes_do_not_depend_on_hash_seed(self, tmp_path):
        # The byte-identical promise must hold across interpreters, whose
        # str hashes, and so set iteration orders, differ by PYTHONHASHSEED.
        src = tmp_path / "nguyen"
        assert main(["nguyen", "--out", str(src), "--seed", "5"]) == 0
        with open(src / "scenario.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        # Three iterations: at two, a leak into the order of tied vehicles
        # on different paths did not reach the outputs.
        doc["solver"]["max_iterations"] = 3
        doc["noise_beta_max"] = 0.2
        with open(src / "scenario.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        pkg_root = os.path.dirname(os.path.dirname(tollsim.__file__))
        manifests = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"out{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pkg_root)
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from tollsim.cli import main; sys.exit(main(sys.argv[1:]))",
                 "sweep", str(src / "scenario.json"), "--ratios", "0,0.5",
                 "--out", str(out)],
                env=env, check=True, capture_output=True)
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_price_without_toll_config_fails(self, tmp_path):
        path = write_fixture_scenario(tmp_path)
        assert main(["price", path, "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("ratios", ["0,0.004", "0,1.5"])
    def test_sweep_rejects_bad_ratios_before_writing(self, tmp_path, capsys, ratios):
        # 0.004 shares ratio 0's file tag; 1.5 used to fail after solving 0.
        path = write_fixture_scenario(tmp_path / "in")
        out = tmp_path / "out"
        assert main(["sweep", path, "--ratios", ratios, "--out", str(out)]) == 1
        assert "so_ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_and_nfd_report(self, tmp_path, capsys):
        path = write_fixture_scenario(tmp_path / "in")
        out = tmp_path / "out"
        assert main(["sweep", path, "--ratios", "0,1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["nfd", str(out)]) == 0
        report = capsys.readouterr().out
        assert report.startswith("source=nfd_r") and "k_cr=" in report
        assert main(["nfd", str(out), "--network"]) == 0
        assert capsys.readouterr().out.startswith("source=nfd_network_r")

    @pytest.mark.parametrize("command, option", [
        ("nfd", ["--zone"]),
        ("nfd", ["--seed", "1"]),
        ("nfd", ["--step-seconds", "2"]),
        ("nguyen", ["--step-seconds", "2"]),
        ("validate", ["--seed", "1"]),
        ("validate", ["--step-seconds", "2"]),
        ("equilibrate", ["--step-seconds", "2"]),
        ("price", ["--step-seconds", "2"]),
        ("sweep", ["--ratios", "0", "--step-seconds", "2"]),
    ])
    def test_removed_options_are_gone(self, tmp_path, command, option):
        target = ["--out", str(tmp_path)] if command == "nguyen" else [str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main([command, *target, *option])
        assert exc.value.code == 2

    def test_seed_override_changes_noisy_outputs(self, tmp_path):
        path = write_fixture_scenario(tmp_path / "in", beta=0.2,
                                      so_ratios=(0.5,))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["equilibrate", path, "--out", str(a), "--seed", "1"]) == 0
        assert main(["equilibrate", path, "--out", str(b), "--seed", "3"]) == 0
        assert (a / "metrics.csv").read_bytes() \
            != (b / "metrics.csv").read_bytes()
