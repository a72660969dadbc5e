"""Run the harness in a child process and leave no process behind.

``repro serve`` (and, in this process, ``api.rewrite_batch`` in a pool
mode or an in-process ``SharedMemoTier``) starts Python's
``multiprocessing.resource_tracker``. The tracker ends only when the
process that started it has ended, so that process cannot wait for it:
after a clean ``shutdown`` of the daemon the tracker is still there for
a moment, re-parented to init, and where init does not reap it stays
as a zombie.

So ``run.py`` runs twice. The outer process, this supervisor, marks
itself a *child subreaper* (``prctl(PR_SET_CHILD_SUBREAPER)``): every
descendant whose parent ends is re-parented here, not to init. It
starts the real run as its one child, passes its standard streams
through, and once that child has ended waits for every process that is
left, killing what has not ended within ``GRACE`` seconds. It returns
only when it has no child of any kind, on every path out: normal end,
a correctness failure, an exception in the harness, SIGTERM or ^C.
Standard library only.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

#: Set in the child's environment: "this is the real run".
WORKER_ENV = "REPRO_E2E_WORKER"
#: How long left-over processes get to end by themselves (they do so
#: within milliseconds: the tracker exits on end-of-file of its pipe).
GRACE = 10.0
_PR_SET_CHILD_SUBREAPER = 36


def is_worker() -> bool:
    return os.environ.get(WORKER_ENV) == "1"


def _become_subreaper() -> bool:
    """False where the platform has no prctl; orphans then go to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> list[int]:
    """Pids whose parent is this process, read from /proc."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _kill_children() -> None:
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def reap_all(grace: float) -> int:
    """Wait until this process has no child; returns how many it waited
    for. Children still running after ``grace`` seconds are killed, and
    so is whatever is re-parented here when they go."""
    deadline = time.monotonic() + grace
    reaped = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid:
            reaped += 1
            continue
        if time.monotonic() >= deadline:
            _kill_children()
        time.sleep(0.005)


def _terminated(signum, _frame):
    raise SystemExit(128 + signum)


def run(argv: list[str]) -> int:
    """Run ``python argv...`` as the worker; its exit code, once nothing
    it started is left."""
    _become_subreaper()
    signal.signal(signal.SIGTERM, _terminated)
    worker = subprocess.Popen(
        [sys.executable, *argv], env={**os.environ, WORKER_ENV: "1"}
    )
    grace = 0.0  # any way out but a normal end: kill at once
    try:
        code = worker.wait()
        grace = GRACE
    finally:
        if worker.returncode is None:
            worker.kill()
            worker.wait()
        reap_all(grace)
    return code if code >= 0 else 128 - code
