"""Deterministic fault injection for resilience testing.

The chaos suite (``tests/test_failure_injection.py``) needs to kill worker
processes, stall shards past a deadline, and raise mid-shard — *inside*
worker processes, repeatably, without touching production code paths.  This
module provides exactly that: named **sites** in the execution layers call
:func:`inject` with their shard / push index, and the call is a no-op
unless the ``REPRO_FAULTS`` environment variable carries a plan.

Environment contract
--------------------

``REPRO_FAULTS``
    A JSON object mapping *site* → { *index* → action }.  An action is
    ``{"kind": "kill" | "raise" | "delay", "seconds": float,
    "times": int}`` (``seconds`` only for ``delay``; ``times`` defaults
    to 1).  Example::

        REPRO_FAULTS='{"shard": {"3": {"kind": "kill"}}}'

    kills the worker process the first time trial shard 3 starts.
``REPRO_FAULTS_DIR``
    A directory used to count firings across *processes* (workers inherit
    the environment, so without shared state a retried shard would be
    killed again forever).  Each firing claims a marker file atomically
    (``O_CREAT | O_EXCL``); once ``times`` markers exist the fault is
    spent.  Without the directory every matching call fires.

Why environment variables: worker processes are created by
``ProcessPoolExecutor`` under both ``fork`` and ``spawn``, and the
environment is the one channel that reaches them under either start method
with zero plumbing through task objects.  The production fast path is a
single ``os.environ`` membership test.

Sites currently instrumented:

* ``"shard"`` — a Monte-Carlo trial shard starting
  (:mod:`repro.parallel.runner`, both the pool workers and the serial
  in-process path); index = shard number.
* ``"advance"`` — a :class:`~repro.core.streaming.TemporalQuerySession`
  push, after pruning but before scoring; index = the snapshot ordinal
  being pushed.
* ``"queue_delay"`` — an :meth:`~repro.serve.Engine.submit` call, in the
  submitting thread, *before* admission control runs; index = the
  engine's submission ordinal.  A ``delay`` here burns the request's
  deadline the way a slow client or saturated accept loop would.
* ``"dispatcher"`` — the top of each engine dispatcher iteration, before
  any request is popped; index = a per-engine iteration counter that
  survives watchdog restarts.  ``raise`` kills the dispatcher thread
  (nothing queued is lost — the watchdog restarts it), ``delay`` hangs it
  for stall detection.  ``kill`` would take down the whole process —
  these two sites run in the serving process, not a worker.
* ``"executor_stall"`` — the top of each
  :meth:`~repro.parallel.ParallelExecutor.run` call, after the deadline
  clock starts; index = the executor's run ordinal.  A ``delay`` here
  deterministically converts the run into a deadline expiry, which is how
  the overload suite trips the engine's circuit breaker.

Tests should prefer the :func:`active` context manager, which installs a
plan plus a fresh marker directory and restores the environment on exit.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import signal
import tempfile
import time
from typing import Dict, Iterator, Optional

__all__ = ["InjectedFault", "inject", "active", "enabled"]

ENV_PLAN = "REPRO_FAULTS"
ENV_DIR = "REPRO_FAULTS_DIR"

_KINDS = ("kill", "raise", "delay")


class InjectedFault(RuntimeError):
    """The exception raised by a ``"raise"``-kind injected fault.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it stands in
    for an arbitrary third-party crash, so library code must not be able
    to catch it via its own hierarchy.
    """


# Cache the parsed plan keyed by the raw JSON string, so repeated inject()
# calls in a hot loop do not re-parse, while tests that swap the variable
# still see the new plan immediately.
_parsed: Dict[str, dict] = {}


def enabled() -> bool:
    """Whether a fault plan is installed in this process's environment."""
    return ENV_PLAN in os.environ


def _plan() -> Optional[dict]:
    raw = os.environ.get(ENV_PLAN)
    if not raw:
        return None
    plan = _parsed.get(raw)
    if plan is None:
        try:
            plan = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InjectedFault(f"unparsable {ENV_PLAN} value: {exc}") from exc
        if not isinstance(plan, dict):
            raise InjectedFault(f"{ENV_PLAN} must be a JSON object")
        _parsed.clear()  # only ever one live plan; don't accumulate
        _parsed[raw] = plan
    return plan


def _claim_firing(site: str, index: int, times: int) -> bool:
    """Atomically claim one of the fault's ``times`` firings.

    Marker files in ``REPRO_FAULTS_DIR`` are shared by every process of
    the run, so a fault that killed a worker once stays spent when the
    shard is retried in a fresh worker.  Returns ``False`` once spent.
    """
    directory = os.environ.get(ENV_DIR)
    if not directory:
        return True  # unbounded: no cross-process state available
    for firing in range(max(1, times)):
        marker = os.path.join(directory, f"{site}-{index}-{firing}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError as exc:
            if exc.errno == errno.EEXIST:
                continue
            raise
        os.close(fd)
        return True
    return False


def inject(site: str, index: int) -> None:
    """Fire the configured fault for ``(site, index)``, if any.

    The fast path — no ``REPRO_FAULTS`` in the environment — is a single
    dict lookup, so production call sites cost nothing measurable.
    """
    plan = _plan()
    if plan is None:
        return
    actions = plan.get(site)
    if not actions:
        return
    action = actions.get(str(int(index)))
    if action is None:
        return
    kind = action.get("kind")
    if kind not in _KINDS:
        raise InjectedFault(f"unknown fault kind {kind!r} at {site}[{index}]")
    if not _claim_firing(site, index, int(action.get("times", 1))):
        return
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        # SIGKILL is not deliverable to ourselves synchronously on every
        # platform; make sure the site never proceeds past a kill.
        time.sleep(60)  # pragma: no cover - unreachable after SIGKILL
        raise InjectedFault(f"kill at {site}[{index}] did not terminate")
    if kind == "delay":
        time.sleep(float(action.get("seconds", 1.0)))
        return
    raise InjectedFault(f"injected failure at {site}[{index}]")


def _reset_shared_pools() -> None:
    # The persistent default executors hold worker pools whose processes
    # read the fault-plan environment at pool creation (fork inherits it,
    # spawn re-reads it).  A pool that predates the plan would never see
    # it — and one that outlives the plan would keep firing it — so both
    # edges of active() drop the shared pools; the next query lazily
    # rebuilds them under the current environment.
    from repro.parallel.executor import reset_default_executors

    reset_default_executors()


@contextlib.contextmanager
def active(plan: dict, directory: Optional[str] = None) -> Iterator[str]:
    """Install ``plan`` (and a marker directory) for the duration of a test.

    Yields the marker directory so assertions can inspect which faults
    fired.  Restores both environment variables on exit; pools created
    *inside* the block inherit the plan under fork and spawn alike (the
    process-wide default executors are reset on entry and exit so no
    shared pool straddles the plan boundary).
    """
    saved = {key: os.environ.get(key) for key in (ENV_PLAN, ENV_DIR)}
    with contextlib.ExitStack() as stack:
        if directory is None:
            directory = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-faults-")
            )
        _reset_shared_pools()
        os.environ[ENV_PLAN] = json.dumps(plan)
        os.environ[ENV_DIR] = directory
        try:
            yield directory
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            _reset_shared_pools()
