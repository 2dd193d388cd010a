"""Host-speed calibration: times measured on a shared host, rescaled to a
reference speed.

The benchmark's host shares its cores and caches with other machines, and
the same code runs up to 1.8x slower for anything from a fraction of a second
to minutes. tollsim is object- and dict-heavy pure Python, so a fixed
bench-owned kernel of the same kind slows down with it: one `slice_s()` run
next to each timed piece gives the host's speed at that moment, and a time
multiplied by REFERENCE_S over the local slice time is the time the piece
would take on a host where the kernel takes REFERENCE_S. The kernel runs no
tollsim code, so a change to tollsim moves only the measured side.
"""
from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 0.003     # nominal kernel time: about its fastest on a 2-vCPU x86_64 VM
KERNEL_OPS = 2000


def kernel(ops: int = KERNEL_OPS) -> int:
    """Dict churn on random integer keys, with small lists, strings and tuples."""
    rng = random.Random(7)
    table: dict[int, list] = {}
    for i in range(ops):
        k = rng.randrange(200000)
        table[k] = [k, str(k), (k, i)]
        if i % 3 == 0:
            table.pop(rng.randrange(200000), None)
    return len(table)


def slice_s(clock=time.perf_counter) -> float:
    """Seconds one kernel run takes now."""
    t0 = clock()
    kernel()
    return clock() - t0


class Calibrator:
    """Runs a slice before the loading and before the skim build of every
    inner iteration (each is called once per iteration, and nowhere else),
    so each iteration has speed readings of its own."""

    PER_ITERATION = 2

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.slices: list[float] = []

    def install(self, patcher, modules) -> None:
        patcher.patch(modules["equilibrium"], "load_network", self._wrap)
        patcher.patch(modules["routing"].CostSkims, "from_loading", self._wrap)

    def _wrap(self, fn):
        def calibrated(*args, **kwargs):
            self.slices.append(slice_s(self.clock))
            return fn(*args, **kwargs)
        return calibrated


def local_speeds(groups: list[list[float]], window: int) -> list[float]:
    """For each group, the median slice over it and `window` groups each side."""
    return [statistics.median([s for g in groups[max(0, i - window):i + window + 1]
                               for s in g])
            for i in range(len(groups))]


def rescale(times: list[float], slices: list[float], window: int = 2) -> list[float]:
    """Each time rescaled by the speed around its own slice (slices[i] was
    taken just before times[i])."""
    speeds = local_speeds([[s] for s in slices], window)
    return [t * REFERENCE_S / speed for t, speed in zip(times, speeds)]


def rescale_invocation(wall: float, iter_s: list[float], slices: list[float],
                       per_iteration: int = Calibrator.PER_ITERATION):
    """Rescale one invocation; returns (wall, per-iteration seconds).

    `iter_s[i]` is iteration i's time as the solver logged it, which holds
    its `per_iteration` slices; they are taken out, and what is left is
    rescaled by the speed over the iteration and its two neighbours. The
    rest of the invocation (parsing, output, analysis) is rescaled by the
    invocation's median slice.
    """
    if len(slices) != per_iteration * len(iter_s):
        raise ValueError(f"{len(slices)} calibration slices for {len(iter_s)} iterations")
    groups = [slices[i * per_iteration:(i + 1) * per_iteration]
              for i in range(len(iter_s))]
    iters = [(t - sum(g)) * REFERENCE_S / speed
             for t, g, speed in zip(iter_s, groups, local_speeds(groups, 1))]
    rest = wall - sum(iter_s)
    scale = REFERENCE_S / statistics.median(slices) if slices else 1.0
    return sum(iters) + rest * scale, iters
