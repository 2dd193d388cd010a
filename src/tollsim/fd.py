"""Triangular link fundamental diagram and CAV/HV reaction-time blending.

The flow-density relation is q(k) = min(V*k, (1 - L*k)/R) per lane, with
free-flow speed V (m/s), effective vehicle length L (m) and reaction time
R (s). Flow is zero at k = 0 and at jam density 1/L, and maximal at the
intersection of the two branches.

Reaction times are fixed per class: 1.5 s for HVs and 1.0 s for CAVs. A
link's R blends them by the CAV fraction of its entering traffic.
"""
from __future__ import annotations

R_HV = 1.5    # s, human-driven vehicle reaction time
R_CAV = 1.0   # s, connected automated vehicle reaction time


def lane_capacity(speed: float, veh_length: float, reaction_time: float) -> float:
    """Capacity V / (V*R + L), veh/s/lane, where the FD's two branches meet."""
    return speed / (speed * reaction_time + veh_length)


def blended_reaction_time(cav_fraction: float) -> float:
    """Average reaction time for a link given the entering CAV fraction."""
    if not 0.0 <= cav_fraction <= 1.0:
        raise ValueError("cav_fraction must lie in [0, 1]")
    return cav_fraction * R_CAV + (1.0 - cav_fraction) * R_HV
