"""Bundled benchmark network, scenario orchestration and the CLI."""
import json
import os

import pytest

from tollsim.cli import main
from tollsim.network import (load_network_file, save_network_file,
                             validate_network)
from tollsim.demand import save_demand_file
from tollsim.nguyen import DEFAULT_PULSE, OD_PAIRS, ZONE_LINKS, build_nguyen
from tollsim.scenario import (Scenario, StageError, run_scenario,
                              validate_scenario)

from test_pricing import tolled_pair_network


def count_simple_routes(network):
    """Exhaustive simple-route enumeration across the bundled OD pairs."""
    def count(node, dest, visited):
        if node == dest:
            return 1
        return sum(count(link.to_node, dest, visited | {link.to_node})
                   for link in network.out_links.get(node, ())
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
        assert sc.solver.schedule.gamma == 2.0
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

    @pytest.mark.parametrize("section", ["solver", "clock", "toll"])
    def test_unknown_nested_field_rejected(self, section):
        # A misspelt key must not fall back to a default (plain MSA here).
        doc = {"network": "n", "demand": "d", "solver": {}, "clock": {},
               "toll": {}}
        doc[section]["gama"] = 2
        with pytest.raises(ValueError, match=f"unknown {section} fields"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("section,key,value", [
        ("solver", "gap_tolerance", float("nan")),   # would never converge
        (None, "noise_beta_max", float("nan")),      # would turn noise off
        ("toll", "vot_per_hour", float("inf")),      # would zero every toll
        ("solver", "gamma", float("inf")),
        ("solver", "vot_per_hour", float("inf")),
        ("toll", "alpha_max", float("inf")),
        ("toll", "omega_max", float("nan")),
        ("toll", "p_gain", float("nan")),
        ("toll", "i_gain", float("inf")),
        ("toll", "improvement_tol", float("nan")),
        (None, "noise_beta_max", 1.5),               # else fails at run time
    ])
    def test_non_finite_number_rejected(self, section, key, value):
        doc = {"network": "n", "demand": "d", "toll": {}}
        (doc.setdefault(section, {}) if section else doc)[key] = value
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            Scenario.from_dict(doc)

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

    def test_invalid_demand_file_fails_in_demand_stage(self, tmp_path):
        path = write_fixture_scenario(tmp_path)
        with open(tmp_path / "demand.json", "w", encoding="utf-8") as fh:
            json.dump([{"origin": "O", "destination": "O",
                        "interval_index": 0, "total": 5}], fh)
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

    def test_equilibrate_writes_metrics(self, tmp_path):
        path = write_fixture_scenario(tmp_path / "in")
        out = tmp_path / "out"
        assert main(["equilibrate", path, "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()

    def test_price_without_toll_config_fails(self, tmp_path):
        path = write_fixture_scenario(tmp_path)
        assert main(["price", path, "--out", str(tmp_path / "out")]) == 1

    def test_sweep_and_nfd_report(self, tmp_path, capsys):
        path = write_fixture_scenario(tmp_path / "in")
        out = tmp_path / "out"
        assert main(["sweep", path, "--ratios", "0,1", "--out", str(out)]) == 0
        assert main(["nfd", str(out)]) == 0
        assert "k_cr=" in capsys.readouterr().out

    def test_seed_override_changes_noisy_outputs(self, tmp_path):
        path = write_fixture_scenario(tmp_path / "in", beta=0.2,
                                      so_ratios=(0.5,))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["equilibrate", path, "--out", str(a), "--seed", "1"]) == 0
        assert main(["equilibrate", path, "--out", str(b), "--seed", "3"]) == 0
        assert (a / "metrics.csv").read_bytes() \
            != (b / "metrics.csv").read_bytes()
