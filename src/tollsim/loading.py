"""Discrete-time mesoscopic network loading on triangular fundamental diagrams.

Each link behaves as a FIFO pipe with a free-flow traversal delay followed by
a capacity server at its downstream end (point queue with finite storage):

* sending is limited to vehicles older than the link's free-flow time and to
  the FD capacity `fd.lane_capacity` times the lanes,
* receiving is limited by the congested FD branch (1 - L*k)/R * lanes and by
  the link's jam storage, so queues spill back,
* each link's FD reaction time is re-blended every assignment interval from
  the CAV/HV mix that entered the link during the previous interval; a link
  whose CAV fraction is unchanged keeps its reaction time and headway.

`load_network` takes path flows, one `(vehicle_class, interval, paths,
flows)` group per (class, OD, departure interval), as the solver holds them;
`discretize_assignments` rounds each group to whole vehicles. A group with
one positive flow gets that flow rounded, with no remainder to share; only
a group with several sums them in link-id order and shares the rounded
total by largest remainder. Each path's vehicles form one run, n vehicles
of one class spread uniformly over the interval from its first whole
second. `VehicleRuns` holds the runs and is the loader's one input; a run
of one departs at exactly its start, which may be fractional.

Set-up: vehicles load in (departure, class, origin, destination, link ids,
input order) order. `load_vehicles` sorts the runs on the middle of that
key once, and then stable-sorts the vehicles, laid out run by run, on their
departures alone. Each vehicle's route, ready step, CAV flag and origin
queue are gathered from its run's values, and so are its record, the TSTT
and the stranded counts.

The loader moves whole vehicles and is fully deterministic. Each origin is a
source queue of its vehicles in departure order, and one transfer loop moves
head vehicles off sources and links alike, onto their next link or out of
the network. It visits only the steps at which some queue's head may leave,
and then only those queues: links in id order, then sources in origin order.
A calendar maps each such step to the queues due then, and the loop walks
the clock's steps in order, skipping those without an entry. A queue's wake
step is its head's ready step or, while a link's server is busy, the step
the server frees up if that is later; a queue whose head is blocked
downstream is put under the next step and retries there. The loop stops
once the calendar is empty, when every queue is. Steps at or past the
horizon are never visited: the vehicles of queues due then end the loading
as a gridlock.

A link's receiving rate per step, `rate * dt`, depends only on the vehicles
on it and on its FD blend, and the blend changes only at an interval roll.
So each link memoizes it by vehicle count in a dict that `_roll_interval`
replaces with an empty one at every roll, and it is never read under another
blend. A miss evaluates the same expressions in the same order as a
recomputation, so a hit returns the identical float. The memo lives and dies
with one interval of one loading: the only state a network carries from one
loading to the next is `valid_paths`.

Every loading keeps each (link, interval)'s mean entry time. With
`clearance=True` (the default) it also keeps, per link, the maximal runs of
steps that end with a standing queue, a flat list `[start, end, ...]` in
step order: its server's busy steps whenever its wake step is set, and each
step its head is blocked downstream. These writes come in step order, so
each opens a run or extends the last; clearance delays bisect the runs.
Two marginal-time estimators read those delays: `marginal_time`, the
per-(link, interval) SO cost the routing skims sum, and
`path_marginal_time`, which advances its probe past each clearance and is
the one compared with +1-vehicle re-simulation; the solver does not route
on it yet. Only the SO cost reads
them, so a caller that routes no class on it may pass `clearance=False`: the
loader then keeps no runs, `queue_clearance_delay` and the two estimators
that read it raise ValueError, and nothing else changes.

Link statistics come from per-link entry and exit times, one append each
per move. Links are FIFO, so the k-th exit pairs with the k-th entry, and
after the loop a bisection at each interval end gives every (link, interval)
count, and differences of prefix sums every sum. Times are whole seconds,
so every partial sum is exact, and so is each difference. A link's idle
intervals (empty at the start, nothing entering) share one state object
while its FD blend stays the same. `records=False` skips the per-vehicle
entry logs and records, which only a solve's final loading needs; counts
and TSTT come from exits.

What a loading holds while it runs: its set-up's sort keys and id-to-path
map are released before the step loop, which then holds the
sorted runs, each vehicle's departure and run, the per-vehicle lists, the
link states and the calendar. The per-vehicle loop state is released before
the records are built.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .demand import SO
from .fd import blended_reaction_time, lane_capacity
from .network import Clock, Network, Path

_EPS = 1e-9


class GridlockError(RuntimeError):
    """The horizon ended with vehicles still in the network.

    `stranded` is the total; `stranded_by_link` counts the vehicles still
    on each link and `stranded_by_od` every unfinished vehicle (on a link or
    still waiting at its origin) per (origin, destination).
    """

    def __init__(self, stranded_by_link: dict, stranded_by_od: dict):
        stranded = sum(stranded_by_od.values())

        def top(counts, fmt):
            items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
            return ", ".join(f"{fmt(k)} ({n})" for k, n in items) or "none"

        super().__init__(
            f"network gridlock: {stranded} vehicles stranded at horizon end; "
            f"links {top(stranded_by_link, str)}; "
            f"OD pairs {top(stranded_by_od, lambda od: f'{od[0]}->{od[1]}')}")
        self.stranded = stranded
        self.stranded_by_link = stranded_by_link
        self.stranded_by_od = stranded_by_od


@dataclass(slots=True)
class VehicleRecord:
    vehicle_id: int
    vehicle_class: int
    path: Path
    interval: int
    departure_time: float
    link_entries: list
    exit_time: float

    @property
    def travel_time(self) -> float:
        return self.exit_time - self.departure_time


class LinkIntervalState(NamedTuple):
    density: float       # veh/km/lane, time average
    flow: float          # veh/h/lane, from link exits
    travel_time: float   # s, mean over vehicles entering during the interval
    free_flow_time: float  # s, rounded up to whole steps
    cav_fraction: float  # fraction of CAVs entering during the interval
    reaction_time: float  # s, blended value used by the FD


class VehicleRuns:
    """Whole-vehicle plans held as runs, as `discretize_assignments` makes
    them: the loader's input. A run `(vehicle_class, path, interval, start,
    n)` is n vehicles, the j-th departing at `start + (j * interval_s) // n`
    seconds on the loading clock, so `start` must be a whole second whenever
    n > 1; a run of one departs at `start`, which may be fractional. `len()`
    counts the vehicles."""

    __slots__ = ("runs", "_len")

    def __init__(self, runs: list):
        self.runs = runs
        self._len = sum(run[4] for run in runs)

    def __len__(self) -> int:
        return self._len


def discretize_assignments(groups, clock: Clock) -> VehicleRuns:
    """Turn fractional path flows into whole-vehicle departure plans.

    Each group `(vehicle_class, interval, paths, flows)` is one (class, OD,
    departure interval) demand: paths of one origin and destination and the
    flow on each. Its vehicle count is the rounded total of its positive
    flows, shared among those paths (in link-id order) by largest remainder,
    so a lone positive flow takes it all; each path's departures are spread
    uniformly over the interval, one run per path with a vehicle. Groups are
    rounded one by one, so two groups with the same key are rounded
    separately, not merged. Raises ValueError for a negative or non-finite
    flow, a group whose paths do not share one OD pair, or a departure
    interval outside the clock.
    """
    runs = []
    append = runs.append
    interval_s = clock.interval_s
    for cls, tau, paths, flows in groups:
        clock.check_interval(tau)
        if len(paths) > 1:
            o, d = paths[0].origin, paths[0].destination
            for p in paths:
                if p.origin != o or p.destination != d:
                    ods = sorted({(p.origin, p.destination) for p in paths})
                    raise ValueError(f"a group's paths must share one OD pair, got {ods}")
        if not all(0.0 <= f < math.inf for f in flows):
            raise ValueError("path flows must be finite and non-negative")
        members = [(p, f) for p, f in zip(paths, flows, strict=True) if f > 0]
        if len(members) == 1:
            # Largest remainder would give a lone member every vehicle.
            counts = [int(math.floor(members[0][1] + 0.5))]
        else:
            members.sort(key=lambda m: m[0].link_ids)
            total = sum(f for _, f in members)
            n_total = int(math.floor(total + 0.5))
            if n_total == 0:
                continue
            quotas = [f * n_total / total for _, f in members]
            counts = [int(math.floor(q)) for q in quotas]
            remainder = n_total - sum(counts)
            order = sorted(range(len(members)),
                           key=lambda i: (-(quotas[i] - counts[i]), i))
            for i in order[:remainder]:
                counts[i] += 1
        start = tau * interval_s
        for (path, _), n in zip(members, counts):
            if n:
                append((cls, path, tau, start, n))
    return VehicleRuns(runs)


class _LinkRT:
    """Mutable per-link simulation state."""

    __slots__ = ("link", "index", "ff_steps", "storage", "lanes", "lane_m",
                 "eff_length", "queue", "next_free", "recv_credit", "credit_step",
                 "rate_memo", "reaction", "headway", "enter_hv", "enter_cav",
                 "entry_times", "exit_times", "stat_cav", "stat_reaction", "queue_runs")

    def __init__(self, link, index, clock, n_intervals, clearance):
        self.link = link
        self.index = index       # position in link-id order
        self.ff_steps = max(1, math.ceil(link.free_flow_time / clock.step_s - _EPS))
        self.storage = link.storage + _EPS   # jam storage (veh), plus the tolerance
        self.lanes = link.lanes
        self.lane_m = link.lanes * link.length      # lane-metres
        self.eff_length = link.effective_vehicle_length
        self.queue = deque()     # vehicle indices, FIFO (head at queue[0])
        self.next_free = 0.0     # server availability time, s
        self.recv_credit = 1.0   # an untouched link admits a vehicle at once
        self.credit_step = -1    # last step the credit was refreshed at
        self.rate_memo = None    # vehicles on link -> rate * dt, for one interval
        self.reaction = None     # set at the first interval roll
        self.headway = None
        self.enter_hv = 0
        self.enter_cav = 0
        self.entry_times = []    # ascending; FIFO pairs them index by index
        self.exit_times = []
        self.stat_cav = [0.0] * n_intervals
        self.stat_reaction = [0.0] * n_intervals
        # standing-queue step runs [start, end, ...]; None without clearance
        self.queue_runs = [] if clearance else None


class _Source:
    """An origin's vehicles in departure order; no server, no statistics."""

    __slots__ = ("index", "queue")
    next_free = -math.inf        # never busy: only the head's departure waits

    def __init__(self, index, vehicle_ids):
        self.index = index       # after the links, in origin order
        self.queue = deque(vehicle_ids)


def _roll_interval(link_order, tau: int) -> None:
    """Re-blend every link's FD from the mix that entered it last interval.
    A link whose CAV fraction equals last interval's keeps its reaction time
    and headway: nothing else they depend on changes during a loading."""
    for rt in link_order:
        entered = rt.enter_hv + rt.enter_cav
        if tau == 0:
            frac = 0.0
        elif entered > 0:
            frac = rt.enter_cav / entered
        else:
            # Nothing entered last interval: keep the previous blend.
            frac = rt.stat_cav[tau - 1]
        if tau == 0 or frac != rt.stat_cav[tau - 1]:
            base = blended_reaction_time(frac)
            rt.reaction = base * rt.link.reaction_time_factor
            q_max = lane_capacity(rt.link.speed_limit, rt.eff_length, rt.reaction)
            rt.headway = 1.0 / (q_max * rt.lanes)
        rt.stat_cav[tau] = frac
        rt.stat_reaction[tau] = rt.reaction
        rt.rate_memo = {}
        rt.enter_hv = 0
        rt.enter_cav = 0


def _ready_steps(departures, dt: float, n_steps: int) -> list[int]:
    """For ascending departure times, the first step s >= 0 whose time s * dt
    has reached each. Raises ValueError for a non-finite departure, or one
    before 0 or after the last step's start, which no step would ever load."""
    last = (n_steps - 1) * dt
    # A finite sum means every departure is finite, and then the sorted
    # list's ends bound the rest; only a failed check scans for the offender.
    if departures and not (math.isfinite(sum(departures)) and departures[0] >= 0.0
                           and departures[-1] <= last + _EPS):
        for at in departures:
            if not math.isfinite(at):
                raise ValueError(f"departure time must be finite, got {at}")
            if not 0.0 <= at <= last + _EPS:
                raise ValueError(f"departure time {at} s outside [0, {last:g}] s, "
                                 "the start times of the clock's steps")
    steps = []
    s = 0
    for at in departures:
        while at > s * dt + _EPS:
            s += 1
        steps.append(s)
    return steps


class LoadingResult:
    """Immutable outcome of one network loading. `vehicles` is `()` without
    records; the counts and TSTT (veh-h) come from the loader's exit times,
    and a returned loading strands no vehicle, so all that entered exited.
    Mean entry times are always kept; `clearance` says whether the
    standing-queue runs that `queue_clearance_delay` reads were: per link,
    the maximal runs of steps that end with a standing queue, as a flat
    list `[start, end, start, end, ...]` of step bounds in step order."""

    def __init__(self, network, clock, states, vehicles, queue_runs,
                 entry_time_means, n_vehicles, tstt_veh_h):
        self.network = network
        self.clock = clock
        self.states = states                # link_id -> [LinkIntervalState per interval]
        self.vehicles = vehicles            # list[VehicleRecord], or ()
        self._queue_runs = queue_runs       # link_id -> [start, end, ...] step runs
        self._entry_means = entry_time_means  # (link_id, tau) -> mean entry time
        self.clearance = queue_runs is not None
        self.vehicles_entered = self.vehicles_exited = n_vehicles
        self.tstt_veh_h = tstt_veh_h

    def queue_clearance_delay(self, link_id: str, t: float) -> float:
        """Seconds after time t until the link's standing queue dissipates:
        until the end of the run that holds t's step (step 0 before time 0),
        if one does."""
        if not self.clearance:
            raise ValueError("this loading kept no queue clearance data; "
                             "load with clearance=True")
        if not math.isfinite(t):
            raise ValueError(f"queue clearance time t must be finite, got {t}")
        step_s = self.clock.step_s
        step = int(t // step_s)
        if step < 0:
            step = 0
        runs = self._queue_runs[link_id]
        i = bisect_right(runs, step)
        # An odd i means step is in the run [runs[i - 1], runs[i]).
        clear = runs[i] if i & 1 else step
        return max(0.0, clear * step_s - t)

    def marginal_time(self, link_id: str, interval: int) -> float:
        """Link marginal travel time for an entry in `interval`: its travel
        time plus the clearance of the queue standing when a vehicle that
        entered at the interval's mean entry time exits. This is the SO cost
        the routing skims carry. Raises ValueError for an interval outside
        the clock."""
        self.clock.check_interval(interval)
        st = self.states[link_id][interval]
        entry = self._entry_means.get((link_id, interval))
        if entry is None:
            entry = (interval + 0.5) * self.clock.interval_s
        return st.travel_time + self.queue_clearance_delay(link_id, entry + st.travel_time)

    def path_marginal_time(self, path: Path, interval: int) -> float:
        """Local-approximation path marginal time for a departure in `interval`.

        Each link contributes its travel time plus the dissipation time of the
        queue standing at the probe's exit. The probe's clock advances past
        that dissipation before the next link is read, so nested queues
        (an upstream queue held back by a downstream one) are not re-counted.
        Raises ValueError for an interval outside the clock.
        """
        self.clock.check_interval(interval)
        t = interval * self.clock.interval_s
        total = 0.0
        for lid in path.link_ids:
            tau = self.clock.interval_of(t)
            st = self.states[lid][tau]
            exit_t = t + st.travel_time
            clearance = self.queue_clearance_delay(lid, exit_t)
            total += st.travel_time + clearance
            t = exit_t + clearance
        return total


def load_vehicles(network: Network, runs: VehicleRuns, clock: Clock, *,
                  records: bool = True, clearance: bool = True) -> LoadingResult:
    """Simulate the vehicles of `runs`, as `discretize_assignments` makes
    them or as runs of one at any departure. See `load_network`."""
    runs = runs.runs
    paths = {id(run[1]): run[1] for run in runs}
    # Each distinct path is validated once per network.
    for path in paths.values():
        if path not in network.valid_paths:
            path.validate(network)
            network.valid_paths.add(path)
    # Vehicles load in the order (departure, class, origin, destination,
    # link ids, input order). The runs are sorted once on the middle of that
    # key, input order breaking ties as the sort is stable; the vehicles,
    # laid out run by run in that order and each run's in input order, are
    # then stable-sorted on their departure alone.
    keys = [(cls, path.origin, path.destination, path.link_ids)
            for cls, path, _, _, _ in runs]
    runs = [runs[r] for r in sorted(range(len(runs)), key=keys.__getitem__)]
    del keys
    interval_s = clock.interval_s
    departures = []
    run_of = []
    for r, (_, _, _, start, n) in enumerate(runs):
        if n == 1:
            # A run of one departs at its start, fractional or not.
            departures.append(float(start))
            run_of.append(r)
        else:
            # The j-th at start + (j * interval_s) // n seconds, which for a
            # whole start is (start * n + j * interval_s) // n: mapped over a
            # range, with no Python-level step per vehicle.
            departures += map(float, map(n.__rfloordiv__, range(
                start * n, (start + interval_s) * n, interval_s)))
            run_of += [r] * n
    order = sorted(range(len(departures)), key=departures.__getitem__)
    veh_dep = list(map(departures.__getitem__, order))
    veh_run = list(map(run_of.__getitem__, order))
    del departures, run_of, order
    n_veh = len(veh_run)

    n_int = clock.n_intervals
    n_steps = clock.n_steps
    dt = float(clock.step_s)
    link_order = [_LinkRT(a, i, clock, n_int, clearance)
                  for i, a in enumerate(network.link_order)]
    index = network.link_index
    routes = {key: (*(link_order[index[lid]] for lid in path.link_ids), None)
              for key, path in paths.items()}

    # Per-vehicle bookkeeping, indexed by vehicle id (position in departure
    # order) and gathered from per-run values: route (its links, then None
    # for the exit), position on it (-1 at the origin), first step it may
    # leave its queue (the departure step at the origin, entry step +
    # free-flow steps on a link), link entry times (kept only for records)
    # and network exit time.
    veh_route = list(map([routes[id(run[1])] for run in runs].__getitem__, veh_run))
    del paths, routes    # set-up only: the step loop reads veh_route
    veh_pos = [-1] * n_veh
    veh_ready = _ready_steps(veh_dep, dt, n_steps)
    veh_cav = list(map([run[0] == SO for run in runs].__getitem__, veh_run))
    veh_log = [[] for _ in range(n_veh)] if records else None
    veh_exit = [math.nan] * n_veh

    # Each origin's vehicles, in departure order; origins in name order.
    origins = {o: k for k, o in enumerate(sorted({run[1].origin for run in runs}))}
    by_origin = [[] for _ in origins]
    for vid, k in enumerate(map([origins[run[1].origin] for run in runs].__getitem__,
                                veh_run)):
        by_origin[k].append(vid)
    n_links = len(link_order)
    queues = link_order + [_Source(n_links + k, vids) for k, vids in enumerate(by_origin)]
    del by_origin

    # The calendar: step -> the queues due then; no other step changes
    # anything. Steps at or past the horizon are never visited: their queues'
    # vehicles end the loading as a gridlock. Sources are due at their first
    # departure.
    calendar: dict[int, list[int]] = {}
    for src in queues[n_links:]:
        calendar.setdefault(veh_ready[src.queue[0]], []).append(src.index)
    steps_per_interval = interval_s // clock.step_s
    one_vehicle = 1.0 - _EPS
    next_roll = 0
    tau = -1
    for step in range(n_steps):
        due = calendar.pop(step, None)
        if due is None:
            continue
        t = step * dt
        while step >= next_roll:
            tau += 1
            next_roll += steps_per_interval
            _roll_interval(link_order, tau)
        free_by = t + dt - _EPS

        # Head vehicles leave their queues, links in id order, then sources.
        if len(due) > 1:
            due.sort()
        for i in due:
            rt = queues[i]
            q = rt.queue
            next_free = rt.next_free
            while True:
                vid = q[0]
                ready = veh_ready[vid]
                if ready > step or next_free > free_by:
                    # Wake the queue at the first step its head may leave.
                    # Until then neither the head nor the server's next free
                    # time changes. A step ends with a standing queue while
                    # the server is still busy or the head is ready, and the
                    # head is ready before the wake step only if the server
                    # is still busy, so the busy steps are exactly the queued
                    # ones.
                    wake = ready
                    if next_free > free_by:
                        free = step + 1
                        while next_free > free * dt + dt - _EPS:
                            free += 1
                        if clearance:
                            # The busy steps [step, free), clamped to the
                            # horizon, open a run or extend the last.
                            end = free if free < n_steps else n_steps
                            queued = rt.queue_runs
                            if queued and queued[-1] >= step:
                                queued[-1] = end
                            else:
                                queued += (step, end)
                        if free > wake:
                            wake = free
                    due_then = calendar.get(wake)
                    if due_then is None:
                        calendar[wake] = [i]
                    else:
                        due_then.append(i)
                    break
                li = veh_pos[vid] + 1
                nrt = veh_route[vid][li]
                if nrt is not None:
                    nq = nrt.queue
                    n_down = len(nq)
                    credit = nrt.recv_credit
                    if nrt.credit_step != step:
                        # Receiving credit, regenerated from the current
                        # count. It regenerates across idle steps, but a
                        # single step never admits more than one step's rate
                        # plus one stored vehicle.
                        rate_dt = nrt.rate_memo.get(n_down)
                        if rate_dt is None:
                            k = n_down / nrt.lane_m                # veh/m/lane
                            rate = (1.0 - nrt.eff_length * k) / nrt.reaction
                            rate_dt = (rate if rate > 0.0 else 0.0) * nrt.lanes * dt
                            nrt.rate_memo[n_down] = rate_dt
                        # What the last refreshed step left, carried up to
                        # one vehicle.
                        credit = ((credit if credit <= 1.0 else 1.0)
                                  + rate_dt * (step - nrt.credit_step))
                        cap = 1.0 + rate_dt
                        if credit > cap:
                            credit = cap
                        nrt.credit_step = step
                    if not (credit >= one_vehicle and n_down + 1 <= nrt.storage):
                        # Blocked downstream: the head retries next step.
                        nrt.recv_credit = credit
                        if clearance and i < n_links:
                            queued = rt.queue_runs
                            if queued and queued[-1] >= step:
                                queued[-1] = step + 1
                            else:
                                queued += (step, step + 1)
                        due_then = calendar.get(step + 1)
                        if due_then is None:
                            calendar[step + 1] = [i]
                        else:
                            due_then.append(i)
                        break
                q.popleft()
                if i < n_links:
                    # A link exit: its server's headway and exit time.
                    rt.next_free = next_free = (next_free if next_free >= t else t) + rt.headway
                    rt.exit_times.append(t)
                if nrt is None:
                    veh_exit[vid] = t
                else:
                    veh_pos[vid] = li
                    nrt.recv_credit = credit - 1.0
                    nq.append(vid)
                    nrt.entry_times.append(t)
                    veh_ready[vid] = step + nrt.ff_steps
                    if records:
                        veh_log[vid].append(t)
                    if veh_cav[vid]:
                        nrt.enter_cav += 1
                    else:
                        nrt.enter_hv += 1
                    if not n_down:
                        # Entered while empty: its head is at least a free-flow
                        # step from ready, so a visit later in this step only
                        # sets its wake step and busy run.
                        due.append(nrt.index)
                if not q:
                    break
        if not calendar:
            break       # every queue is empty

    if any(rt.queue for rt in queues):
        by_link = {rt.link.id: len(rt.queue) for rt in link_order if rt.queue}
        ods = [(run[1].origin, run[1].destination) for run in runs]
        raise GridlockError(by_link, dict(Counter(
            ods[r] for r, exit_t in zip(veh_run, veh_exit) if math.isnan(exit_t))))
    # Nothing enters after the last exit: later intervals keep the last blend.
    while tau < n_int - 1:
        tau += 1
        _roll_interval(link_order, tau)

    # Per (link, interval [lo, hi)): entries ins[e0:e1], whose exits are
    # outs[e0:e1], and exits outs[x0:x1]; the vehicle-seconds on the link
    # integrate entries minus exits so far over [lo, hi). Slice sums come
    # from prefix sums: times are whole seconds (step_s is an int), so every
    # partial sum is exact and their differences equal the slice sums.
    states = {}
    entry_means = {}
    for rt in link_order:
        lid = rt.link.id
        ff = rt.ff_steps * dt
        ins, outs = rt.entry_times, rt.exit_times
        rt.entry_times = rt.exit_times = None
        in_cum = [0.0, *accumulate(ins)]
        out_cum = [0.0, *accumulate(outs)]
        n_in_all = len(ins)
        rows = []
        idle = None      # the last idle cell's state, shared under one blend
        e0 = x0 = 0
        for i in range(n_int):
            hi = (i + 1) * interval_s
            if e0 == x0 and (e0 == n_in_all or ins[e0] >= hi):
                # Idle: empty at the start, and nothing enters, so nothing
                # exits either.
                cav, reaction = rt.stat_cav[i], rt.stat_reaction[i]
                if (idle is None or idle.cav_fraction != cav
                        or idle.reaction_time != reaction):
                    idle = LinkIntervalState(0.0, 0.0, ff, ff, cav, reaction)
                rows.append(idle)
                continue
            e1 = bisect_left(ins, hi, e0)
            x1 = bisect_left(outs, hi, x0)
            n_in, n_out = e1 - e0, x1 - x0
            in_sum = in_cum[e1] - in_cum[e0]
            tt = (out_cum[e1] - out_cum[e0] - in_sum) / n_in if n_in else ff
            veh_s = ((e0 - x0) * interval_s + (n_in - n_out) * hi
                     - in_sum + (out_cum[x1] - out_cum[x0]))
            k = veh_s / interval_s / rt.lane_m * 1000.0       # veh/km/lane
            flow = n_out / interval_s / rt.lanes * 3600.0      # veh/h/lane
            rows.append(LinkIntervalState(k, flow, max(tt, ff), ff,
                                          rt.stat_cav[i], rt.stat_reaction[i]))
            if n_in:
                entry_means[(lid, i)] = in_sum / n_in
            e0, x0 = e1, x1
        states[lid] = rows

    # In vehicle order, so it equals the sum of the records' travel times.
    tstt = sum(map(operator.sub, veh_exit, veh_dep)) / 3600.0
    del veh_route, veh_pos, veh_ready, veh_cav     # loop state, before the records
    vehicles = [VehicleRecord(vid, *runs[r][:3], at, log, exit_t)
                for vid, (r, at, log, exit_t)
                in enumerate(zip(veh_run, veh_dep, veh_log, veh_exit))
                ] if records else ()
    queued = {rt.link.id: rt.queue_runs for rt in link_order} if clearance else None
    return LoadingResult(network, clock, states, vehicles, queued, entry_means,
                         n_veh, tstt)


def load_network(network: Network, groups, clock: Clock, *,
                 records: bool = True, clearance: bool = True) -> LoadingResult:
    """Load fractional path flows onto the network, one `(vehicle_class,
    interval, paths, flows)` group per (class, OD, departure interval); see
    `discretize_assignments`.

    `records=False` builds no `VehicleRecord`s (`vehicles` is `()`) and
    changes nothing else. `clearance=False` keeps no standing-queue runs,
    so `queue_clearance_delay`, `marginal_time` and `path_marginal_time`
    raise ValueError and the result's `clearance` is False; mean entry times
    are kept either way, and it too changes nothing else. Raises
    GridlockError if the horizon ends before the network empties.
    """
    runs = discretize_assignments(groups, clock)
    return load_vehicles(network, runs, clock, records=records, clearance=clearance)
