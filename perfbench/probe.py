"""Host-speed probe: turns wall-clock times into reference-host units.

The probe is a fixed piece of work of about 1 ms: a pure-Python loop of
integer arithmetic and deep copies of a small nested payload, then one
NumPy sort -- the interpreter, allocator and NumPy work the engines and
the service do.  (Integer arithmetic alone tracked the workloads poorly:
host slowdowns hit the allocation-heavy service code harder.)  A
reference host is defined as one on which the probe takes exactly
:data:`PROBE_REF_S`.  A time ``t`` measured while the probe took ``p``
becomes ``t * PROBE_REF_S / p``: on a host running at half speed both
``t`` and ``p`` double, and the normalised value stays put.

Probes run between operations, only while every serving process is idle.
:class:`IdleGuard` checks that for serving subprocesses by reading their
CPU time from ``/proc/<pid>/stat``; a probe during which a serving process
used CPU is thrown away and taken again, and a run where no clean probe
can be had fails.
"""

from __future__ import annotations

import copy
import os
import statistics
import time
from typing import List

import numpy as np

#: Probe duration on the reference host, in seconds.
PROBE_REF_S = 1e-3

_LOOP = 6000
_COPIES = 6
_PAYLOAD = {
    "rows": [{"a": 1.5, "b": [1, 2, 3], "c": "s" * 10} for _ in range(20)],
    "stats": {"k": 3.0},
}
_SORT_INPUT = np.random.default_rng(0).random(8192)


def probe_once() -> float:
    """Run the probe once; its wall-clock duration in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i & 7
    for _ in range(_COPIES):
        copy.deepcopy(_PAYLOAD)
    np.sort(_SORT_INPUT)
    return time.perf_counter() - start


class ProbeError(RuntimeError):
    """No probe could be taken while the serving processes were idle."""


def _cpu_ticks(pid: int) -> int:
    """User plus system CPU time of ``pid``, all threads, in clock ticks."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        stat = handle.read()
    # The command name (field 2) may contain spaces; fields after it are
    # space separated, utime and stime are fields 14 and 15.
    fields = stat[stat.rindex(b")") + 2 :].split()
    return int(fields[11]) + int(fields[12])


class IdleGuard:
    """Probes taken only while the serving processes ``pids`` are idle."""

    #: How long CPU time must stay unchanged before a process counts as idle.
    QUIET_S = 0.03
    #: Give up waiting for idleness (and fail the run) after this long.
    MAX_WAIT_S = 20.0
    #: Contaminated probes retaken per call before the run fails.
    MAX_RETRIES = 50

    def __init__(self, spread: bool = False) -> None:
        #: Serving processes that must stay idle while a probe runs.
        self.pids: List[int] = []
        #: Probe every CPU this process may run on and take the median of
        #: the per-CPU values.  For multi-process workloads: their work is
        #: spread over all CPUs, whose speeds differ (by 20% on a 2-CPU
        #: container); one unpinned probe tracked such a workload worse
        #: than no normalisation at all.
        self.spread = spread
        self.rejected = 0

    def _ticks(self) -> List[int]:
        return [_cpu_ticks(pid) for pid in self.pids]

    def wait_idle(self) -> None:
        if not self.pids:
            return
        deadline = time.monotonic() + self.MAX_WAIT_S
        before = self._ticks()
        while True:
            time.sleep(self.QUIET_S)
            after = self._ticks()
            if after == before:
                return
            if time.monotonic() > deadline:
                raise ProbeError(
                    f"serving processes {self.pids} never went idle "
                    f"within {self.MAX_WAIT_S} s"
                )
            before = after

    def probe(self, count: int = 1) -> float:
        """Median of ``count`` clean probes (per CPU when spread), in seconds."""
        self.wait_idle()
        if not self.spread:
            return self._clean_probes(count)
        cpus = sorted(os.sched_getaffinity(0))
        per_cpu = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(self._clean_probes(count))
        finally:
            os.sched_setaffinity(0, cpus)
        return statistics.median(per_cpu)

    def _clean_probes(self, count: int) -> float:
        values: List[float] = []
        retries = 0
        while len(values) < count:
            before = self._ticks()
            value = probe_once()
            if self._ticks() != before:
                self.rejected += 1
                retries += 1
                if retries > self.MAX_RETRIES:
                    raise ProbeError(
                        "serving processes used CPU during every probe"
                    )
                self.wait_idle()
                continue
            values.append(value)
        return statistics.median(values)

