"""Network primitives: validation, paths, zone distance, clock, JSON I/O."""
import json

import pytest
from hypothesis import given, strategies as st

from tollsim.network import (Clock, InvalidPathError, Link, Network, Node,
                             Path, network_from_dict, network_to_dict,
                             validate_network)
from tollsim.pricing import TollSchedule

from conftest import line_network, two_link_network


def test_well_formed_network_has_no_violations():
    assert validate_network(line_network()) == []


def test_zero_lane_link_yields_one_violation_naming_the_link():
    net = Network([Node("A"), Node("B")],
                  [Link("AB", "A", "B", 100.0, 0, 10.0)])
    violations = validate_network(net)
    assert len(violations) == 1
    assert "AB" in violations[0]


def test_zone_link_with_missing_endpoints_yields_two_violations():
    net = Network([Node("A")],
                  [Link("XY", "X", "Y", 100.0, 1, 10.0, in_pricing_zone=True)])
    violations = [v for v in validate_network(net) if "XY" in v]
    assert len(violations) == 2


def test_duplicate_ids_detected():
    net = Network([Node("A"), Node("A"), Node("B")],
                  [Link("AB", "A", "B", 100.0, 1, 10.0),
                   Link("AB", "A", "B", 200.0, 1, 10.0)])
    violations = validate_network(net)
    assert any("duplicate node" in v for v in violations)
    assert any("duplicate link" in v for v in violations)


def test_disconnected_centroid_detected():
    net = Network([Node("A", True), Node("B", True), Node("C", True)],
                  [Link("AB", "A", "B", 100.0, 1, 10.0)])
    assert any("centroid 'C'" in v for v in validate_network(net))


def test_validate_is_idempotent():
    net = line_network()
    assert validate_network(net) == validate_network(net)


class TestPathValidation:
    def test_valid_chain(self):
        net = two_link_network()
        Path(("AM", "MB"), "A", "B").validate(net)

    def test_discontinuity_names_first_bad_link(self):
        net = Network([Node("A"), Node("B"), Node("C"), Node("D")],
                      [Link("AB", "A", "B", 100.0, 1, 10.0),
                       Link("CD", "C", "D", 100.0, 1, 10.0)])
        with pytest.raises(InvalidPathError, match="CD"):
            Path(("AB", "CD"), "A", "D").validate(net)

    def test_cycle_rejected(self):
        net = Network([Node("A"), Node("B")],
                      [Link("AB", "A", "B", 100.0, 1, 10.0),
                       Link("BA", "B", "A", 100.0, 1, 10.0),
                       Link("AB2", "A", "B", 200.0, 1, 10.0)])
        with pytest.raises(InvalidPathError, match="revisits"):
            Path(("AB", "BA", "AB2"), "A", "B").validate(net)

    def test_unknown_link_rejected(self):
        with pytest.raises(InvalidPathError, match="unknown link"):
            Path(("nope",), "A", "B").validate(line_network())

    def test_empty_path_rejected(self):
        with pytest.raises(InvalidPathError):
            Path((), "A", "B").validate(line_network())

    def test_endpoint_mismatch_rejected(self):
        net = line_network()
        with pytest.raises(InvalidPathError, match="origin"):
            Path(("AB",), "B", "A").validate(net)
        with pytest.raises(InvalidPathError, match="destination"):
            Path(("AB",), "A", "C").validate(net)


def zone_km(path, net):
    """Zone distance as the toll charges it: the path's toll at 1 $/km."""
    schedule = TollSchedule(alpha={0: 1.0})
    return sum(schedule.link_toll(net.links[lid], 0) for lid in path.link_ids)


def length_km(path, net):
    return sum(net.links[lid].length for lid in path.link_ids) / 1000.0


class TestZoneDistance:
    def test_path_outside_zone_is_zero(self):
        net = two_link_network()
        assert zone_km(Path(("AM", "MB"), "A", "B"), net) == 0.0

    def test_hand_sum_400_plus_600(self):
        net = two_link_network(l1=400.0, l2=600.0, zone=("AM", "MB"))
        assert zone_km(Path(("AM", "MB"), "A", "B"), net) == 1.0

    def test_whole_network_tolled_equals_path_length(self):
        net = two_link_network(l1=1300.0, l2=1000.0, zone=("AM", "MB"))
        p = Path(("AM", "MB"), "A", "B")
        assert zone_km(p, net) == length_km(p, net) == 2.3

    @given(st.lists(st.booleans(), min_size=1, max_size=6),
           st.lists(st.floats(min_value=1.0, max_value=5000.0),
                    min_size=6, max_size=6))
    def test_zone_distance_bounded_by_path_length(self, zone_flags, lengths):
        n = len(zone_flags)
        nodes = [Node(f"n{i}", is_centroid=i in (0, n)) for i in range(n + 1)]
        links = [Link(f"l{i}", f"n{i}", f"n{i+1}", lengths[i], 1, 10.0,
                      in_pricing_zone=zone_flags[i]) for i in range(n)]
        net = Network(nodes, links)
        p = Path(tuple(f"l{i}" for i in range(n)), "n0", f"n{n}")
        assert zone_km(p, net) <= length_km(p, net) + 1e-12

    def test_additive_under_concatenation(self):
        net = two_link_network(l1=400.0, l2=600.0, zone=("AM", "MB"))
        whole = zone_km(Path(("AM", "MB"), "A", "B"), net)
        first = zone_km(Path(("AM",), "A", "M"), net)
        second = zone_km(Path(("MB",), "M", "B"), net)
        assert whole == first + second


class TestClock:
    def test_counts(self):
        c = Clock(step_s=1, interval_s=300, horizon_s=3600)
        assert c.n_steps == 3600
        assert c.n_intervals == 12

    def test_interval_must_be_multiple_of_step(self):
        with pytest.raises(ValueError):
            Clock(step_s=7, interval_s=300, horizon_s=3600)

    def test_horizon_must_be_multiple_of_interval(self):
        with pytest.raises(ValueError):
            Clock(step_s=1, interval_s=300, horizon_s=3601)

    def test_interval_of_clamps(self):
        c = Clock(step_s=1, interval_s=300, horizon_s=1200)
        assert c.interval_of(-5.0) == 0
        assert c.interval_of(0.0) == 0
        assert c.interval_of(299.9) == 0
        assert c.interval_of(300.0) == 1
        assert c.interval_of(99999.0) == 3


class TestNetworkFile:
    def doc(self):
        return {
            "nodes": [{"id": "A", "is_centroid": True}, {"id": "B"}],
            "links": [{"id": "AB", "from_node": "A", "to_node": "B",
                       "length": 500.0, "lanes": 2, "speed_limit": 15.0}],
            "pricing_zone": ["AB"],
        }

    def test_round_trip(self):
        net = network_from_dict(self.doc())
        again = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
        assert again.links["AB"].length == 500.0
        assert again.zone_link_ids == frozenset({"AB"})

    def test_unknown_top_level_field_rejected(self):
        doc = self.doc()
        doc["extra"] = 1
        with pytest.raises(ValueError, match="unknown network fields"):
            network_from_dict(doc)

    def test_unknown_link_field_rejected(self):
        doc = self.doc()
        doc["links"][0]["capacity"] = 99
        with pytest.raises(ValueError, match="unknown link fields"):
            network_from_dict(doc)

    def test_missing_required_link_field_rejected(self):
        doc = self.doc()
        del doc["links"][0]["length"]
        with pytest.raises(ValueError, match="missing link fields"):
            network_from_dict(doc)

    def test_zone_referencing_unknown_link_rejected(self):
        doc = self.doc()
        doc["pricing_zone"] = ["nope"]
        with pytest.raises(ValueError, match="pricing_zone"):
            network_from_dict(doc)
