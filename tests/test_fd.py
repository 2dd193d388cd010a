"""Triangular fundamental diagram closed forms and reaction-time blending."""
import pytest
from hypothesis import given, strategies as st

from tollsim.fd import R_CAV, R_HV, blended_reaction_time, lane_capacity

V60 = 50.0 / 3.0  # 60 km/h in m/s


def triangular_flow(k, speed, veh_length, reaction_time):
    """The FD q(k) = min(V*k, (1 - L*k)/R), veh/s/lane at k veh/m/lane."""
    return min(speed * k, (1.0 - veh_length * k) / reaction_time)


class TestFdFlow:
    def test_capacity_point_60kmh_hv(self):
        # critical density 1/(V*R+L) = 1/32 veh/m; flow V/32 = 1875 veh/h.
        q = triangular_flow(1.0 / 32.0, V60, 7.0, 1.5)
        assert q == pytest.approx(V60 / 32.0, rel=1e-12)
        assert lane_capacity(V60, 7.0, 1.5) == pytest.approx(q, rel=1e-12)
        assert q * 3600.0 == pytest.approx(1875.0, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0 / 7.0))
    def test_flow_never_exceeds_capacity(self, k):
        q_max = lane_capacity(V60, 7.0, 1.5)
        q = triangular_flow(k, V60, 7.0, 1.5)
        assert q <= q_max + 1e-12
        if abs(k - q_max / V60) > 1e-9:
            assert q < q_max


class TestFdCapacity:
    def test_closed_form_hv(self):
        q_max = lane_capacity(V60, 7.0, 1.5)
        assert q_max / V60 == pytest.approx(1.0 / (V60 * 1.5 + 7.0), rel=1e-12)
        assert q_max * 3600.0 == pytest.approx(1875.0, rel=1e-12)

    def test_closed_form_cav(self):
        q_max = lane_capacity(V60, 7.0, 1.0)
        assert q_max == pytest.approx(V60 / (V60 + 7.0), rel=1e-12)
        # 50/71 veh/s = 2535.2 veh/h
        assert q_max * 3600.0 == pytest.approx(180000.0 / 71.0, rel=1e-12)

    def test_capacity_strictly_decreasing_in_reaction_time(self):
        qs = [lane_capacity(V60, 7.0, r) for r in (0.8, 1.0, 1.2, 1.5, 2.0)]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_halving_r_raises_capacity_and_critical_density(self):
        lo = lane_capacity(V60, 7.0, 0.75)
        hi = lane_capacity(V60, 7.0, 1.5)
        assert lo > hi
        assert lo / V60 > hi / V60


class TestBlendedReaction:
    def test_all_hv(self):
        assert blended_reaction_time(0.0) == 1.5

    def test_all_cav(self):
        assert blended_reaction_time(1.0) == 1.0

    def test_even_mix(self):
        assert blended_reaction_time(0.5) == 1.25

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError):
            blended_reaction_time(-0.1)
        with pytest.raises(ValueError):
            blended_reaction_time(1.1)

    def test_cav_reacts_no_slower_than_hv(self):
        assert 0 < R_CAV <= R_HV
