"""Discrete-time mesoscopic network loading on triangular fundamental diagrams.

Each link behaves as a FIFO pipe with a free-flow traversal delay followed by
a capacity server at its downstream end (point queue with finite storage):

* sending is limited to vehicles older than the link's free-flow time and to
  the FD capacity q_max * lanes,
* receiving is limited by the congested FD branch (1 - L*k)/R * lanes and by
  the link's jam storage, so queues spill back,
* each link's FD reaction time is re-blended every assignment interval from
  the CAV/HV mix that entered the link during the previous interval.

The loader moves whole vehicles and is fully deterministic. It is driven by
events: it visits only the steps at which a link's head vehicle may leave or
an origin has a departure due, and in such a step only those links and
origins, in id order. A link's wake step follows from its head vehicle's
ready step and its server's next free time; a link blocked downstream
retries on the next step. While the network is empty the loader jumps to the
next departure, and it stops once every vehicle has left. Per link it keeps
one byte per step flagging a standing queue, written whenever the link's
wake step is set; queue clearance delays are read from these flags.

Two marginal-time estimators read those delays: `marginal_time`, the
per-(link, interval) SO cost the routing skims sum, and `path_marginal_time`,
which advances its probe past each clearance and is the one compared with
+1-vehicle re-simulation; the solver does not route on it yet.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .demand import SO, UE
from .fd import ClassReactionTimes, blended_reaction_time
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


@dataclass(frozen=True)
class PathAssignment:
    """Fractional vehicle flow for one (class, path, departure interval)."""
    vehicle_class: int   # UE = 1, SO = 2
    path: Path
    interval: int
    flow: float


@dataclass(frozen=True)
class VehiclePlan:
    vehicle_class: int
    path: Path
    interval: int
    departure_time: float


@dataclass
class VehicleRecord:
    vehicle_id: int
    vehicle_class: int
    path: Path
    interval: int
    departure_time: float
    link_entries: list
    exit_time: float = math.nan

    @property
    def travel_time(self) -> float:
        return self.exit_time - self.departure_time


@dataclass(frozen=True)
class LinkIntervalState:
    density: float       # veh/km/lane, time average
    flow: float          # veh/h/lane, from link exits
    travel_time: float   # s, mean over vehicles entering during the interval
    free_flow_time: float  # s, rounded up to whole steps
    cav_fraction: float  # fraction of CAVs entering during the interval
    reaction_time: float  # s, blended value used by the FD


def discretize_assignments(assignments, clock: Clock) -> list[VehiclePlan]:
    """Turn fractional path flows into whole-vehicle departure plans.

    Per (class, OD, interval) the vehicle count is the rounded class total,
    shared among paths by largest remainder; each path group's departures are
    spread uniformly over the interval. Deterministic for a given input set.
    """
    groups: dict[tuple, list[PathAssignment]] = {}
    for asg in assignments:
        if asg.flow < 0:
            raise ValueError("path flows must be non-negative")
        key = (asg.vehicle_class, asg.path.origin, asg.path.destination, asg.interval)
        groups.setdefault(key, []).append(asg)

    plans: list[VehiclePlan] = []
    for key in sorted(groups):
        cls, _o, _d, tau = key
        members = sorted(groups[key], key=lambda a: a.path.link_ids)
        total = sum(a.flow for a in members)
        n_total = int(math.floor(total + 0.5))
        if n_total == 0:
            continue
        quotas = [a.flow * n_total / total for a in members]
        counts = [int(math.floor(q)) for q in quotas]
        remainder = n_total - sum(counts)
        order = sorted(range(len(members)),
                       key=lambda i: (-(quotas[i] - counts[i]), i))
        for i in order[:remainder]:
            counts[i] += 1
        start = tau * clock.interval_s
        for a, n in zip(members, counts):
            for j in range(n):
                dep = start + (j * clock.interval_s) // n
                plans.append(VehiclePlan(cls, a.path, tau, float(dep)))
    return plans


class _LinkRT:
    """Mutable per-link simulation state."""

    __slots__ = ("link", "index", "ff_steps", "storage", "queue", "next_free",
                 "recv_credit", "credit_step", "reaction", "headway",
                 "enter_hv", "enter_cav", "stat_entries", "stat_tt_sum",
                 "stat_entry_time_sum", "stat_exits", "stat_count_integral",
                 "stat_cav", "stat_reaction", "queue_flag")

    def __init__(self, link, index, clock, n_intervals):
        self.link = link
        self.index = index       # position in link-id order
        self.ff_steps = max(1, math.ceil(link.free_flow_time / clock.step_s - _EPS))
        self.storage = link.storage
        self.queue = deque()     # vehicle indices, FIFO (head at queue[0])
        self.next_free = 0.0     # server availability time, s
        self.recv_credit = 0.0
        self.credit_step = -1    # last step the credit was refreshed at
        self.reaction = None     # set at the first interval roll
        self.headway = None
        self.enter_hv = 0
        self.enter_cav = 0
        self.stat_entries = [0] * n_intervals
        self.stat_tt_sum = [0.0] * n_intervals
        self.stat_entry_time_sum = [0.0] * n_intervals
        self.stat_exits = [0] * n_intervals
        self.stat_count_integral = [0.0] * n_intervals
        self.stat_cav = [0.0] * n_intervals
        self.stat_reaction = [0.0] * n_intervals
        self.queue_flag = bytearray(clock.n_steps)  # 1 = standing queue in step

    def refresh_credit(self, step: int, dt: float) -> None:
        """Receiving credit at `step`, regenerated from the current count.

        Credit regenerates across idle steps but a single step never admits
        more than one step's rate plus one stored vehicle.
        """
        link = self.link
        k = len(self.queue) / (link.lanes * link.length)   # veh/m/lane
        rate = (1.0 - link.effective_vehicle_length * k) / self.reaction
        rate = (rate if rate > 0.0 else 0.0) * link.lanes
        if self.credit_step >= 0:
            # What the last refreshed step left, carried up to one vehicle.
            carry = self.recv_credit if self.recv_credit <= 1.0 else 1.0
            elapsed = step - self.credit_step
        else:
            carry = 1.0          # an empty link accepts a vehicle instantly
            elapsed = 1
        credit = carry + rate * dt * elapsed
        cap = 1.0 + rate * dt
        self.recv_credit = credit if credit <= cap else cap
        self.credit_step = step


def _roll_interval(link_order, tau: int, reaction_times: ClassReactionTimes) -> None:
    """Re-blend every link's FD from the mix that entered it last interval."""
    for rt in link_order:
        entered = rt.enter_hv + rt.enter_cav
        if tau == 0:
            frac = 0.0
        elif entered > 0:
            frac = rt.enter_cav / entered
        else:
            # Nothing entered last interval: keep the previous blend.
            frac = rt.stat_cav[tau - 1]
        base = blended_reaction_time(frac, reaction_times)
        rt.reaction = base * rt.link.reaction_time_factor
        q_max = rt.link.speed_limit / (
            rt.link.speed_limit * rt.reaction + rt.link.effective_vehicle_length)
        rt.headway = 1.0 / (q_max * rt.link.lanes)
        rt.stat_cav[tau] = frac
        rt.stat_reaction[tau] = rt.reaction
        rt.enter_hv = 0
        rt.enter_cav = 0


def _ready_step(at: float, dt: float, lo: int) -> int:
    """First step s >= lo whose time s * dt has reached departure time `at`."""
    if not math.isfinite(at):
        raise ValueError(f"departure time must be finite, got {at}")
    s = max(lo, int(at // dt) - 2)
    while at > s * dt + _EPS:
        s += 1
    return s


def _schedule(rt: _LinkRT, ready_step: int, step: int, dt: float,
              wakes: dict, events: list) -> None:
    """Set the link's wake step: the first step from `step` on at which its
    head vehicle (ready from `ready_step`) may exit. Also flag the steps
    until then that end with a standing queue.

    Until the wake step neither the head nor the server's next free time
    changes. A step ends with a standing queue while the server is still
    busy or the head is ready, and the head is ready before the wake step
    only if the server is still busy, so exactly the busy steps are flagged.
    """
    next_free = rt.next_free
    free = step
    while next_free > free * dt + dt - _EPS:
        free += 1
    if free > step:
        end = free if free < len(rt.queue_flag) else len(rt.queue_flag)
        rt.queue_flag[step:end] = b"\x01" * (end - step)
    wake = free if free >= ready_step else ready_step
    wakes.setdefault(wake, []).append(rt.index)
    heapq.heappush(events, wake)


class LoadingResult:
    """Immutable outcome of one network loading."""

    def __init__(self, network, clock, states, vehicles, queue_flags,
                 entry_time_means):
        self.network = network
        self.clock = clock
        self.states = states                # link_id -> [LinkIntervalState per interval]
        self.vehicles = vehicles            # list[VehicleRecord]
        self._queue_flags = queue_flags     # link_id -> bytearray, 1 per queued step
        self._entry_means = entry_time_means  # (link_id, tau) -> mean entry time

    @property
    def vehicles_entered(self) -> int:
        return len(self.vehicles)

    @property
    def vehicles_exited(self) -> int:
        return sum(1 for v in self.vehicles if not math.isnan(v.exit_time))

    @property
    def tstt_veh_h(self) -> float:
        """Total system travel time in vehicle-hours."""
        return sum(v.travel_time for v in self.vehicles) / 3600.0

    def queue_clearance_delay(self, link_id: str, t: float) -> float:
        """Seconds after time t until the link's standing queue dissipates."""
        flags = self._queue_flags[link_id]
        step = int(t // self.clock.step_s)
        if step < 0:
            step = 0
        if step >= len(flags):
            return 0.0
        clear = flags.find(0, step)     # first step without a standing queue
        if clear < 0:
            clear = len(flags)
        return max(0.0, clear * self.clock.step_s - t)

    def marginal_time(self, link_id: str, interval: int) -> float:
        """Link marginal travel time for an entry in `interval`: its travel
        time plus the clearance of the queue standing when a vehicle that
        entered at the interval's mean entry time exits. This is the SO cost
        the routing skims carry."""
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
        """
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


def load_vehicles(network: Network, plans, clock: Clock,
                  reaction_times: ClassReactionTimes = ClassReactionTimes()
                  ) -> LoadingResult:
    """Simulate an explicit list of vehicle plans. See `load_network`."""
    paths: dict[int, Path] = {}     # id -> path; each distinct object validated once
    for plan in plans:
        if id(plan.path) not in paths:
            plan.path.validate(network)
            paths[id(plan.path)] = plan.path

    order = sorted(range(len(plans)),
                   key=lambda i: (plans[i].departure_time, plans[i].vehicle_class,
                                  plans[i].path.origin, plans[i].path.destination,
                                  plans[i].path.link_ids, i))
    vehicles = [VehicleRecord(vid, plans[i].vehicle_class, plans[i].path,
                              plans[i].interval, plans[i].departure_time, [])
                for vid, i in enumerate(order)]

    n_int = clock.n_intervals
    n_steps = clock.n_steps
    dt = float(clock.step_s)
    interval_s = clock.interval_s
    link_order = [_LinkRT(network.links[lid], i, clock, n_int)
                  for i, lid in enumerate(sorted(network.links))]
    rts = {rt.link.id: rt for rt in link_order}
    routes = {key: tuple(rts[lid] for lid in path.link_ids)
              for key, path in paths.items()}

    # Per-vehicle bookkeeping: route, position on it, entry time and first
    # step it may exit the current link (entry step + free-flow steps).
    veh_route = [routes[id(v.path)] for v in vehicles]
    veh_pos = [0] * len(vehicles)
    veh_entry = [0.0] * len(vehicles)
    veh_ready = [0] * len(vehicles)
    veh_cav = [v.vehicle_class == SO for v in vehicles]
    veh_log = [v.link_entries for v in vehicles]

    # Origin buffers: FIFO of vehicle ids per origin node, sorted by departure;
    # `waiting` holds [step due, buffer, position] per origin, in origin order.
    buffers: dict[str, list[int]] = {}
    for v in vehicles:
        buffers.setdefault(v.path.origin, []).append(v.vehicle_id)
    waiting = [[_ready_step(vehicles[buffers[o][0]].departure_time, dt, 0),
                buffers[o], 0] for o in sorted(buffers)]

    # Heap of the steps at which a link or an origin is due (with repeats);
    # no other step changes anything.
    events = sorted(w[0] for w in waiting)
    wakes: dict[int, list[int]] = {}   # step -> indices of links due to exit
    blocked: list[int] = []            # links to retry next step
    steps_per_interval = interval_s // clock.step_s
    next_roll = 0
    exhausted = False
    in_network = 0
    tau = -1
    while events:
        step = heapq.heappop(events)
        while events and events[0] == step:
            heapq.heappop(events)
        if step >= n_steps:
            break
        t = step * dt
        while step >= next_roll:
            tau += 1
            next_roll += steps_per_interval
            _roll_interval(link_order, tau, reaction_times)
        departed_by = t + _EPS
        free_by = t + dt - _EPS

        # Link exits, in link-id order over the links due now.
        due = wakes.pop(step, None)
        if blocked:
            due = due + blocked if due else blocked
            blocked = []
        if due:
            due.sort()
            for i in due:
                rt = link_order[i]
                q = rt.queue
                while True:
                    vid = q[0]
                    if veh_ready[vid] > step or rt.next_free > free_by:
                        _schedule(rt, veh_ready[vid], step, dt, wakes, events)
                        break
                    route = veh_route[vid]
                    li = veh_pos[vid] + 1
                    if li < len(route):
                        nrt = route[li]
                        if nrt.credit_step != step:
                            nrt.refresh_credit(step, dt)
                        if not (nrt.recv_credit >= 1.0 - _EPS
                                and len(nrt.queue) + 1 <= nrt.storage + _EPS):
                            # Blocked downstream: the head waits, retry next step.
                            rt.queue_flag[step] = 1
                            blocked.append(i)
                            break
                    else:
                        nrt = None
                    q.popleft()
                    busy_until = rt.next_free
                    rt.next_free = (busy_until if busy_until >= t else t) + rt.headway
                    entry = veh_entry[vid]
                    entry_tau = int(entry // interval_s)   # entries lie in the horizon
                    rt.stat_tt_sum[entry_tau] += t - entry
                    rt.stat_exits[tau] += 1
                    # The vehicle was on the link at the end of the steps from
                    # its entry to the one before now: t - entry whole seconds,
                    # split at interval boundaries (exact, so order-free sums).
                    for j in range(entry_tau, tau):
                        boundary = (j + 1) * interval_s
                        rt.stat_count_integral[j] += boundary - entry
                        entry = boundary
                    rt.stat_count_integral[tau] += t - entry
                    if nrt is None:
                        vehicles[vid].exit_time = t
                        in_network -= 1
                    else:
                        veh_pos[vid] = li
                        nrt.recv_credit -= 1.0
                        nq = nrt.queue
                        nq.append(vid)
                        veh_entry[vid] = t
                        veh_ready[vid] = step + nrt.ff_steps
                        veh_log[vid].append(t)
                        if veh_cav[vid]:
                            nrt.enter_cav += 1
                        else:
                            nrt.enter_hv += 1
                        nrt.stat_entries[tau] += 1
                        nrt.stat_entry_time_sum[tau] += t
                        if len(nq) == 1:
                            _schedule(nrt, step + nrt.ff_steps, step, dt, wakes, events)
                    if not q:
                        break

        # Demand injection from origin buffers, in origin order.
        for w in waiting:
            if w[0] != step:
                continue
            buf, pos = w[1], w[2]
            while pos < len(buf):
                vid = buf[pos]
                departure = vehicles[vid].departure_time
                if departure > departed_by:
                    w[0] = _ready_step(departure, dt, step + 1)
                    break
                rt = veh_route[vid][0]
                if rt.credit_step != step:
                    rt.refresh_credit(step, dt)
                if not (rt.recv_credit >= 1.0 - _EPS
                        and len(rt.queue) + 1 <= rt.storage + _EPS):
                    w[0] = step + 1
                    break
                rt.recv_credit -= 1.0
                q = rt.queue
                q.append(vid)
                veh_entry[vid] = t
                veh_ready[vid] = step + rt.ff_steps
                veh_log[vid].append(t)
                if veh_cav[vid]:
                    rt.enter_cav += 1
                else:
                    rt.enter_hv += 1
                rt.stat_entries[tau] += 1
                rt.stat_entry_time_sum[tau] += t
                if len(q) == 1:
                    _schedule(rt, step + rt.ff_steps, step, dt, wakes, events)
                in_network += 1
                pos += 1
            w[2] = pos
            if pos < len(buf):
                heapq.heappush(events, w[0])
            else:
                exhausted = True
        if exhausted:
            waiting = [w for w in waiting if w[2] < len(w[1])]
            exhausted = False
        if blocked:
            heapq.heappush(events, step + 1)

    if in_network or waiting:
        by_link = {rt.link.id: len(rt.queue) for rt in link_order if rt.queue}
        by_od: dict[tuple[str, str], int] = {}
        for v in vehicles:
            if math.isnan(v.exit_time):
                od = (v.path.origin, v.path.destination)
                by_od[od] = by_od.get(od, 0) + 1
        raise GridlockError(by_link, by_od)
    # Nothing enters after the last exit: later intervals keep the last blend.
    while tau < n_int - 1:
        tau += 1
        _roll_interval(link_order, tau, reaction_times)

    states = {}
    entry_means = {}
    for rt in link_order:
        a = rt.link
        ff = rt.ff_steps * dt
        rows = []
        for i in range(n_int):
            n_in = rt.stat_entries[i]
            tt = rt.stat_tt_sum[i] / n_in if n_in else ff
            k = (rt.stat_count_integral[i] / clock.interval_s
                 / (a.lanes * a.length)) * 1000.0          # veh/km/lane
            flow = rt.stat_exits[i] / clock.interval_s / a.lanes * 3600.0  # veh/h/lane
            rows.append(LinkIntervalState(
                density=k, flow=flow, travel_time=max(tt, ff), free_flow_time=ff,
                cav_fraction=rt.stat_cav[i], reaction_time=rt.stat_reaction[i]))
            if n_in:
                entry_means[(a.id, i)] = rt.stat_entry_time_sum[i] / n_in
        states[a.id] = rows

    return LoadingResult(network, clock, states, vehicles,
                         {rt.link.id: rt.queue_flag for rt in link_order}, entry_means)


def load_network(network: Network, assignments, clock: Clock,
                 reaction_times: ClassReactionTimes = ClassReactionTimes()
                 ) -> LoadingResult:
    """Load fractional per-path class flows onto the network.

    Raises GridlockError if the horizon ends before the network empties.
    """
    plans = discretize_assignments(assignments, clock)
    return load_vehicles(network, plans, clock, reaction_times)
