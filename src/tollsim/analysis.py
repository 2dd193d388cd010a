"""Derived run metrics: NFD hysteresis-loop area, per-class pricing-zone travel
time, toll accounting and benefit/cost summaries. TSTT is the loading's own
`tstt_veh_h`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .demand import SO, UE
from .network import Network


def hysteresis_area(series) -> float:
    """Absolute shoelace area of the closed density-flow trajectory.

    Units: (veh/km) * (veh/h). Orientation-insensitive; a retraced curve has
    zero area.
    """
    pts = [(p.density, p.flow) for p in series]
    if len(pts) < 3:
        raise ValueError("NFD series needs at least 3 points")
    s = 0.0
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2.0


def vehicle_zone_time(vehicle, network: Network) -> float:
    """Seconds spent on pricing-zone links; 0 if the vehicle avoids the zone.
    A link's exit is the next link's entry, or the network exit."""
    entries = vehicle.link_entries
    exits = entries[1:] + [vehicle.exit_time]
    return sum((t_out - t_in for lid, t_in, t_out in zip(vehicle.path.link_ids,
                                                         entries, exits)
                if network.links[lid].in_pricing_zone), 0.0)


def vehicle_toll(vehicle, network: Network, toll_schedule, clock) -> float:
    """Dollars charged to a UE vehicle along its zone links (0 for SO)."""
    if vehicle.vehicle_class == SO:
        return 0.0
    total = 0.0
    for lid, t_in in zip(vehicle.path.link_ids, vehicle.link_entries):
        link = network.links[lid]
        if link.in_pricing_zone:
            total += toll_schedule.link_toll(link, clock.interval_of(t_in))
    return total


@dataclass(frozen=True)
class ScenarioMetrics:
    tstt_veh_h: float
    zone_k_mean: float            # veh/km over the run
    ue_zone_tt_min: float | None  # mean minutes in zone per crossing UE vehicle
    so_zone_tt_min: float | None
    mean_toll_usd: float          # per tolled UE vehicle crossing the zone
    bc_ratio: float | None        # zone-time saving (min) per toll minute
    hysteresis_area: float


def class_zone_summary(result, nfd, *, vot_per_hour: float,
                       toll_schedule=None, baseline=None) -> ScenarioMetrics:
    """Table-style summary of one run, on its loading's network.

    `nfd` is the run's pricing-zone NFD series (the whole network's when
    there is no zone). `baseline` is the matching no-toll LoadingResult; the
    benefit/cost ratio is the UE in-zone travel-time reduction against it,
    divided by the mean toll converted to minutes at the given VOT. Defined
    only when a toll was actually paid.
    """
    network = result.network
    zone = network.zone_link_ids
    clock = result.clock

    def mean_zone_tt(res, cls):
        times = [vehicle_zone_time(v, network) for v in res.vehicles
                 if v.vehicle_class == cls
                 and any(lid in zone for lid in v.path.link_ids)]
        if not times:
            return None
        return sum(times) / len(times) / 60.0

    ue_tt = mean_zone_tt(result, UE)
    so_tt = mean_zone_tt(result, SO)

    mean_toll = 0.0
    if toll_schedule is not None:
        tolls = [vehicle_toll(v, network, toll_schedule, clock)
                 for v in result.vehicles
                 if v.vehicle_class == UE
                 and any(lid in zone for lid in v.path.link_ids)]
        if tolls:
            mean_toll = sum(tolls) / len(tolls)

    bc = None
    if mean_toll > 0 and baseline is not None and ue_tt is not None:
        base_tt = mean_zone_tt(baseline, UE)
        if base_tt is not None:
            toll_min = mean_toll * 60.0 / vot_per_hour
            bc = (base_tt - ue_tt) / toll_min

    zone_k = sum(p.density for p in nfd) / len(nfd)
    try:
        hyst = hysteresis_area(nfd)
    except ValueError:
        hyst = math.nan

    return ScenarioMetrics(
        tstt_veh_h=result.tstt_veh_h,
        zone_k_mean=zone_k,
        ue_zone_tt_min=ue_tt,
        so_zone_tt_min=so_tt,
        mean_toll_usd=mean_toll,
        bc_ratio=bc,
        hysteresis_area=hyst,
    )
