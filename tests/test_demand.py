"""Demand splitting: uniform, noisy counter-based, file parsing."""
import json
import math

import pytest
from hypothesis import given, strategies as st

from tollsim.demand import (ClassDemand, NoiseConfig, demand_from_records,
                            load_demand_file, save_demand_file, split_demand)
from tollsim.equilibrium import SolverConfig, solve_mixed_equilibrium
from tollsim.nguyen import build_nguyen

from test_golden import digest, loading_dump

KEY = ("o", "d", 0)


class TestUniformSplit:
    def test_ratio_zero_is_all_ue(self):
        d = split_demand({KEY: 100.0}, 0.0)
        assert d.entries[KEY] == (100.0, 0.0)

    def test_ratio_one_is_all_so(self):
        d = split_demand({KEY: 100.0}, 1.0)
        assert d.entries[KEY] == (0.0, 100.0)

    def test_forty_percent(self):
        d = split_demand({KEY: 100.0}, 0.4)
        q1, q2 = d.entries[KEY]
        assert q1 == pytest.approx(60.0)
        assert q2 == pytest.approx(40.0)

    def test_out_of_range_ratio_rejected(self):
        with pytest.raises(ValueError):
            split_demand({KEY: 1.0}, 1.5)

    @given(st.floats(min_value=0.0, max_value=1e6),
           st.floats(min_value=0.0, max_value=1.0))
    def test_split_conserves_total(self, q, r):
        q1, q2 = split_demand({KEY: q}, r).entries[KEY]
        assert q1 + q2 == pytest.approx(q, rel=1e-12, abs=1e-12)
        assert q1 >= 0.0 and q2 >= 0.0


class TestNoisySplit:
    def test_zero_beta_equals_uniform(self):
        totals = {("a", "b", 0): 50.0, ("a", "b", 1): 70.0}
        noisy = split_demand(totals, 0.3, NoiseConfig(seed=7, beta_max=0.0))
        plain = split_demand(totals, 0.3)
        assert noisy.entries == plain.entries

    @given(st.integers(min_value=0, max_value=10_000))
    def test_noise_bounded_by_beta_support(self, seed):
        d = split_demand({KEY: 100.0}, 0.5,
                         NoiseConfig(seed=seed, beta_max=0.2))
        assert abs(d.entries[KEY][1] - 50.0) <= 20.0 + 1e-9

    def test_ratio_one_clamps_to_total(self):
        for seed in range(20):
            d = split_demand({KEY: 100.0}, 1.0,
                             NoiseConfig(seed=seed, beta_max=0.2))
            q1, q2 = d.entries[KEY]
            assert q2 <= 100.0
            assert q1 + q2 == 100.0

    @given(st.integers(min_value=0, max_value=1000),
           st.floats(min_value=0.0, max_value=1000.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_conservation_and_bounds(self, seed, q, r):
        q1, q2 = split_demand({KEY: q}, r, NoiseConfig(seed=seed)).entries[KEY]
        assert q1 + q2 == pytest.approx(q, rel=1e-12, abs=1e-12)
        assert 0.0 <= q2 <= q

    def test_same_seed_is_bit_identical(self):
        totals = {("a", "b", t): 10.0 * (t + 1) for t in range(5)}
        one = split_demand(totals, 0.5, NoiseConfig(seed=42))
        two = split_demand(totals, 0.5, NoiseConfig(seed=42))
        assert one.entries == two.entries

    def test_entries_independent_of_dict_order(self):
        totals = {("a", "b", 0): 50.0, ("c", "d", 0): 60.0}
        reordered = {("c", "d", 0): 60.0, ("a", "b", 0): 50.0}
        cfg = NoiseConfig(seed=3)
        assert (split_demand(totals, 0.5, cfg).entries
                == split_demand(reordered, 0.5, cfg).entries)

    def test_subset_draws_match_full_draws(self):
        totals = {("a", "b", 0): 50.0, ("c", "d", 0): 60.0}
        cfg = NoiseConfig(seed=3)
        full = split_demand(totals, 0.5, cfg)
        solo = split_demand({("a", "b", 0): 50.0}, 0.5, cfg)
        assert full.entries[("a", "b", 0)] == solo.entries[("a", "b", 0)]

    def test_bad_beta_max_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(seed=0, beta_max=1.5)


class TestDemandRecords:
    def test_parse_and_override(self):
        totals, overrides = demand_from_records([
            {"origin": "a", "destination": "b", "interval_index": 0,
             "total": 100.0},
            {"origin": "a", "destination": "b", "interval_index": 1,
             "total": 50.0, "so_ratio": 0.8},
        ])
        assert totals == {("a", "b", 0): 100.0, ("a", "b", 1): 50.0}
        assert overrides == {("a", "b", 1): 0.8}

    def test_duplicate_records_accumulate(self):
        totals, _ = demand_from_records([
            {"origin": "a", "destination": "b", "interval_index": 0, "total": 10},
            {"origin": "a", "destination": "b", "interval_index": 0, "total": 5},
        ])
        assert totals[("a", "b", 0)] == 15.0

    def test_duplicates_with_equal_overrides_accumulate(self):
        totals, overrides = demand_from_records([
            {"origin": "a", "destination": "b", "interval_index": 0,
             "total": 10, "so_ratio": 0.2},
            {"origin": "a", "destination": "b", "interval_index": 0,
             "total": 5, "so_ratio": 0.2},
        ])
        assert totals == {("a", "b", 0): 15.0}
        assert overrides == {("a", "b", 0): 0.2}

    @pytest.mark.parametrize("first,second", [(0.2, None), (None, 0.2),
                                              (0.2, 0.5)])
    def test_duplicates_with_conflicting_overrides_rejected(self, first, second):
        # One SO share applies to the summed total, so 100 vehicles at 0.2
        # plus 100 at the scenario's 0.9 cannot be split as asked.
        records = [{"origin": "a", "destination": "b", "interval_index": 0,
                    "total": 100.0} for _ in range(2)]
        for rec, ratio in zip(records, (first, second)):
            if ratio is not None:
                rec["so_ratio"] = ratio
        with pytest.raises(ValueError, match=r"\('a', 'b', 0\).*so_ratio"):
            demand_from_records(records)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown demand fields"):
            demand_from_records([{"origin": "a", "destination": "b",
                                  "interval_index": 0, "total": 1, "mode": "car"}])

    def test_origin_equals_destination_rejected(self):
        with pytest.raises(ValueError, match="origin equals destination"):
            demand_from_records([{"origin": "a", "destination": "a",
                                  "interval_index": 0, "total": 1}])

    def test_fractional_interval_rejected(self):
        with pytest.raises(ValueError, match="interval_index must be an integer"):
            demand_from_records([{"origin": "a", "destination": "b",
                                  "interval_index": 1.9, "total": 1}])

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError, match="negative demand"):
            demand_from_records([{"origin": "a", "destination": "b",
                                  "interval_index": 0, "total": -1}])

    def test_file_round_trip(self, tmp_path):
        totals = {("a", "b", 0): 100.0, ("c", "d", 2): 7.5}
        overrides = {("c", "d", 2): 0.9}
        path = tmp_path / "demand.json"
        save_demand_file(totals, path, overrides)
        t2, o2 = load_demand_file(path)
        assert t2 == totals and o2 == overrides

    def test_split_demand_honors_overrides(self):
        totals = {("a", "b", 0): 100.0, ("a", "b", 1): 100.0}
        d = split_demand(totals, 0.2, overrides={("a", "b", 1): 0.9})
        assert d.entries[("a", "b", 0)][1] == pytest.approx(20.0)
        assert d.entries[("a", "b", 1)][1] == pytest.approx(90.0)

    @pytest.mark.parametrize("total", [float("nan"), float("inf")])
    def test_non_finite_total_rejected(self, total):
        with pytest.raises(ValueError, match="non-finite demand"):
            demand_from_records([{"origin": "a", "destination": "b",
                                  "interval_index": 0, "total": total}])

    @pytest.mark.parametrize("q", [(float("nan"), 1.0), (1.0, float("inf")),
                                   (-math.inf, 0.0)])
    def test_non_finite_class_demand_rejected(self, q):
        # A NaN entry would otherwise vanish from the solve (q > 0 is false).
        with pytest.raises(ValueError, match=r"non-finite class demand at \('o', 'd', 0\)"):
            ClassDemand({("a", "b", 0): (1.0, 1.0), KEY: q})

    @pytest.mark.parametrize("ratio", [1.7, -0.1, float("nan")])
    def test_override_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(ValueError, match="so_ratio"):
            demand_from_records([{"origin": "a", "destination": "b",
                                  "interval_index": 0, "total": 10.0,
                                  "so_ratio": ratio}])

    @pytest.mark.parametrize("noise", [None, NoiseConfig(seed=1)])
    def test_split_rejects_override_outside_unit_interval(self, noise):
        # Rejected with and without noise, never clamped.
        with pytest.raises(ValueError, match="outside"):
            split_demand({KEY: 10.0}, 0.5, noise, overrides={KEY: 1.7})


def test_split_and_solve_independent_of_demand_dict_order():
    network, totals, clock = build_nguyen()
    keys = sorted(totals)
    overrides = {keys[0]: 0.9, keys[5]: 0.1, keys[-1]: 0.5}
    noise = NoiseConfig(seed=5, beta_max=0.2)

    def run(totals, overrides):
        demand = split_demand(totals, 0.4, noise, overrides)
        eq = solve_mixed_equilibrium(network, demand, clock,
                                     SolverConfig(max_iterations=2))
        return demand.entries, digest(loading_dump(eq.loading))

    permuted = run(dict(reversed(list(totals.items()))),
                   dict(reversed(list(overrides.items()))))
    assert run(totals, overrides) == permuted
