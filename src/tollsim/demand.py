"""Time-dependent OD demand and its split into UE (class 1) and SO (class 2).

Demand is indexed by (origin, destination, assignment interval) and may be
fractional; the loader discretizes to whole vehicles. `split_demand` is the
one UE/SO split: a global SO ratio, optional per-entry overrides and
optional noise, counter-based on (seed, origin, destination, interval) so
results do not depend on iteration order. Demand records are checked when
they are parsed: totals finite and non-negative, overrides in [0, 1].
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

UE = 1
SO = 2


@dataclass(frozen=True)
class NoiseConfig:
    seed: int = 0
    beta_max: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.beta_max <= 1.0:
            raise ValueError("beta_max must lie in [0, 1]")


class ClassDemand:
    """Per (OD, interval) vehicle counts for the UE and SO classes."""

    def __init__(self, entries: dict[tuple[str, str, int], tuple[float, float]]):
        for key, (q1, q2) in entries.items():
            if q1 < 0 or q2 < 0:
                raise ValueError(f"negative class demand at {key}")
        self.entries = dict(entries)

    def q1(self, origin, destination, interval) -> float:
        return self.entries.get((origin, destination, interval), (0.0, 0.0))[0]

    def q2(self, origin, destination, interval) -> float:
        return self.entries.get((origin, destination, interval), (0.0, 0.0))[1]


_DEMAND_FIELDS = {"origin", "destination", "interval_index", "total", "so_ratio"}


def demand_from_records(records) -> tuple[dict[tuple[str, str, int], float],
                                          dict[tuple[str, str, int], float]]:
    """Parse demand records into totals and per-record SO-ratio overrides."""
    totals: dict[tuple[str, str, int], float] = {}
    overrides: dict[tuple[str, str, int], float] = {}
    for rec in records:
        unknown = set(rec) - _DEMAND_FIELDS
        if unknown:
            raise ValueError(f"unknown demand fields: {sorted(unknown)}")
        key = (str(rec["origin"]), str(rec["destination"]), int(rec["interval_index"]))
        if key[0] == key[1]:
            raise ValueError(f"demand origin equals destination: {key[0]!r}")
        total = float(rec["total"])
        if total < 0:
            raise ValueError(f"negative demand at {key}")
        if not math.isfinite(total):
            raise ValueError(f"non-finite demand at {key}: {total!r}")
        totals[key] = totals.get(key, 0.0) + total
        if rec.get("so_ratio") is not None:
            ratio = float(rec["so_ratio"])
            if not 0.0 <= ratio <= 1.0:
                raise ValueError(f"so_ratio {ratio!r} at {key} outside [0, 1]")
            overrides[key] = ratio
    return totals, overrides


def load_demand_file(path):
    with open(path, encoding="utf-8") as fh:
        return demand_from_records(json.load(fh))


def save_demand_file(totals, path, overrides=None) -> None:
    overrides = overrides or {}
    records = []
    for (o, d, tau) in sorted(totals):
        rec = {"origin": o, "destination": d, "interval_index": tau,
               "total": totals[(o, d, tau)]}
        if (o, d, tau) in overrides:
            rec["so_ratio"] = overrides[(o, d, tau)]
        records.append(rec)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")


def split_demand(totals, so_ratio, noise=None, overrides=None) -> ClassDemand:
    """Split each (OD, interval) total into UE and SO vehicles.

    An entry's SO share is its override if it has one, else `so_ratio`;
    q2 = clamp(share * q, 0, q). With noise (beta_max > 0) each entry draws
    beta ~ U(0, beta_max) then eps ~ U(-beta*q, beta*q) and
    q2 = clamp(share * q + eps, 0, q), from its own generator keyed on
    (seed, origin, destination, interval), so the split is bit-identical
    given the seed and independent of dict order.
    """
    overrides = overrides or {}
    for share in (so_ratio, *overrides.values()):
        if not 0.0 <= share <= 1.0:
            raise ValueError(f"SO share {share!r} outside [0, 1]")
    noisy = noise is not None and noise.beta_max > 0
    entries = {}
    for (o, d, tau), q in totals.items():
        q2 = overrides.get((o, d, tau), so_ratio) * q
        if noisy:
            rng = random.Random(f"{noise.seed}|{o}|{d}|{tau}")
            beta = rng.uniform(0.0, noise.beta_max)
            q2 += rng.uniform(-beta * q, beta * q)
        q2 = min(max(q2, 0.0), q)
        entries[(o, d, tau)] = (q - q2, q2)
    return ClassDemand(entries)
