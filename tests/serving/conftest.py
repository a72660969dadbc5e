"""Shared harness for daemon tests: a background event-loop thread."""

from __future__ import annotations

import asyncio
import contextlib
import threading

import pytest

from repro.engine.database import Database
from repro.serving import RewriteDaemon
from repro.workloads.random_queries import random_scenario


@contextlib.contextmanager
def running_daemon(catalog, *, unix_path=None, **kwargs):
    """Start a RewriteDaemon on a background thread; yields the daemon
    once its sockets are bound. Always shuts it down on exit."""
    daemon = RewriteDaemon(catalog, **kwargs)
    bound = threading.Event()
    failure: list[BaseException] = []

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(
                daemon.start(
                    host="127.0.0.1" if unix_path is None else None,
                    port=0,
                    unix_path=unix_path,
                )
            )
            bound.set()
            loop.run_until_complete(daemon.serve_forever())
        except BaseException as error:  # surface in the test thread
            failure.append(error)
            bound.set()
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert bound.wait(timeout=30), "daemon did not bind in time"
    if failure:
        raise failure[0]
    try:
        yield daemon
    finally:
        daemon.stop()
        thread.join(timeout=30)
        assert not thread.is_alive(), "daemon did not shut down"


def loaded_scenario():
    """One rewriting-rich random scenario with a loaded database."""
    sc = random_scenario(7)
    db = Database(sc.catalog)
    for name, rows in sc.instance.items():
        db.load(name, rows)
    return sc, db


@pytest.fixture
def scenario():
    """A fresh :func:`loaded_scenario` per test."""
    return loaded_scenario()
