"""Keeps every process the benchmark starts inside the benchmark's lifetime.

The serving subprocesses start process pools of their own (a forkserver,
its resource tracker, pool workers), and the traced run starts a
forkserver in this process.  Such helpers only notice their parent is
gone a moment after it exits, so a run that just stopped its direct
children could still leave them running behind it.

:func:`become_subreaper` makes this process the Linux child subreaper of
everything it starts: a descendant whose parent exits is re-parented here,
not to init.  :func:`stop_descendants` then stops this process's own pool
helpers, waits briefly for the rest to exit by themselves, terminates and
finally kills whatever is left, and reaps every one of them, so no process
the benchmark started outlives it.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import Dict, List

#: ``prctl`` option from ``<linux/prctl.h>``.
PR_SET_CHILD_SUBREAPER = 36

#: How long descendants get to exit by themselves, then after SIGTERM,
#: then after SIGKILL.
GRACE_S = (5.0, 5.0, 10.0)


def become_subreaper() -> None:
    """Re-parent orphaned descendants to this process instead of init."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def _parents() -> Dict[int, int]:
    """``{pid: parent pid}`` of every process in ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:  # exited while we looked
            continue
        # The command name (field 2) may contain spaces; ppid is field 4.
        parents[int(entry)] = int(stat[stat.rindex(b")") + 2 :].split()[1])
    return parents


def descendants(pid: int) -> List[int]:
    """Every live or unreaped process below ``pid``."""
    children: Dict[int, List[int]] = {}
    for child, parent in _parents().items():
        children.setdefault(parent, []).append(child)
    found, stack = [], list(children.get(pid, ()))
    while stack:
        child = stack.pop()
        found.append(child)
        stack.extend(children.get(child, ()))
    return found


def _reap() -> None:
    """Collect every child of this process that has exited."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_own_pool_helpers() -> None:
    """Close this process's forkserver and resource tracker the way
    multiprocessing itself does: by closing their pipes and waiting."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def stop_descendants() -> None:
    """End and reap every process this one started, directly or not.

    Raises :class:`RuntimeError` if one is still there after SIGKILL.
    """
    _stop_own_pool_helpers()
    me = os.getpid()
    for signum, grace in zip((None, signal.SIGTERM, signal.SIGKILL), GRACE_S):
        if signum is not None:
            for pid in descendants(me):
                try:
                    os.kill(pid, signum)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + grace
        while True:
            _reap()
            if not descendants(me):
                return
            if time.monotonic() >= deadline:
                break
            time.sleep(0.01)
    raise RuntimeError(f"processes {descendants(me)} outlived SIGKILL")
