"""A real ``python -m repro serve`` subprocess, started and stopped.

The ~40 lines of start/stop choreography are copied rather than imported
from ``benchmarks/serving_smoke.py``: the harness touches nothing
outside its own directory and the public ``repro.*`` names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import api
from repro.errors import ReproError

SRC = Path(__file__).resolve().parents[2] / "src"
_SHM = Path("/dev/shm")


def shm_segments() -> set[str]:
    """Names under /dev/shm (empty where the platform has none)."""
    try:
        return set(os.listdir(_SHM))
    except OSError:
        return set()


class DaemonProcess:
    """One ``repro serve --schema F --port 0`` child and a client to it."""

    def __init__(self, schema_path: Path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--schema", str(schema_path), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            ready = json.loads(self.proc.stdout.readline())
            if ready.get("kind") != "serve-ready":
                raise RuntimeError(f"unexpected first line: {ready}")
            port = next(
                a[2] for a in ready["result"]["addresses"] if a[0] == "tcp"
            )
            self.client = api.connect(("127.0.0.1", int(port)), timeout=60.0)
        except BaseException:
            self._kill()
            raise

    def peak_rss_mb(self) -> float:
        """The child's high-water resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """``shutdown`` op, then wait; kill if it does not exit."""
        try:
            self.client.shutdown()
        except (ReproError, OSError):
            pass  # the kill fallback below covers a dead connection
        try:
            self.client.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self._kill()
        self.proc.stdout.close()

    def _kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
