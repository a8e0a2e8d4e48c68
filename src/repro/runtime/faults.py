"""Fault injection harness for crash-safety testing.

Long anonymization runs die in ways unit tests never exercise: the
process is killed between a checkpoint's temp write and its rename, an
exception fires exactly at a phase boundary, a write is torn mid-file.
This module plants named **fault points** at those spots so tests (and
the CI fault matrix) can make each failure happen on demand:

>>> from repro.runtime import faults
>>> faults.arm("checkpoint.phase:repair", "raise")   # fail at a boundary
>>> faults.arm("kanon.swap@40", "exit")              # die at 40th tick

Fault specs are ``name`` or ``name@N`` (trigger on the N-th hit,
1-based; default 1) with an action:

``raise``
    Raise :class:`InjectedFault` (a ``BaseException`` subclass, so
    ordinary ``except Exception`` recovery code cannot swallow it —
    exactly like a real SIGKILL would not be caught).
``exit``
    ``os._exit(73)`` — an honest process kill for subprocess tests.
``torn``
    For write fault points only: truncate the temp file to half its
    length before continuing, simulating a torn write that the
    checksum layer must then detect.

The environment variable ``REPRO_FAULTS`` arms points in spawned
processes, comma-separated: ``REPRO_FAULTS="atomic.replace=raise,
kanon.swap@3=exit"``.  With nothing armed, :func:`fault_point` is a
dict-truthiness check — effectively free on hot paths.
"""

from __future__ import annotations

import os
from pathlib import Path

#: Exit code used by the ``exit`` action; tests assert on it.
EXIT_CODE = 73

_ENV_VAR = "REPRO_FAULTS"

_ACTIONS = ("raise", "exit", "torn")


class InjectedFault(BaseException):
    """Raised by an armed ``raise`` fault point.

    Deliberately a ``BaseException``: injected crashes must tear through
    ``except Exception`` blocks the same way a kill signal would, so
    tests prove recovery works from the on-disk state alone.
    """

    def __init__(self, name: str) -> None:
        super().__init__(f"injected fault at {name!r}")
        self.name = name


class _Armed:
    __slots__ = ("action", "at", "hits")

    def __init__(self, action: str, at: int) -> None:
        self.action = action
        self.at = at
        self.hits = 0


#: name -> _Armed.  Module-level dict so `if not _armed:` is the entire
#: disarmed cost of a fault_point() call.
_armed: dict[str, _Armed] = {}


def parse_spec(spec: str) -> tuple[str, int, str]:
    """Parse ``"name@N=action"`` into ``(name, at, action)``."""
    target, sep, action = spec.partition("=")
    action = action.strip() if sep else "raise"
    if action not in _ACTIONS:
        raise ValueError(
            f"unknown fault action {action!r} in {spec!r}; "
            f"expected one of {_ACTIONS}"
        )
    name, sep, count = target.strip().partition("@")
    at = 1
    if sep:
        try:
            at = int(count)
        except ValueError:
            raise ValueError(f"bad hit count in fault spec {spec!r}") from None
        if at < 1:
            raise ValueError(f"fault hit count must be >= 1, got {spec!r}")
    if not name:
        raise ValueError(f"empty fault point name in spec {spec!r}")
    return name, at, action


def arm(name: str, action: str = "raise", *, at: int = 1) -> None:
    """Arm a fault point so its ``at``-th hit triggers ``action``."""
    if action not in _ACTIONS:
        raise ValueError(
            f"unknown fault action {action!r}; expected one of {_ACTIONS}"
        )
    if at < 1:
        raise ValueError(f"fault hit count must be >= 1, got {at}")
    _armed[name] = _Armed(action, at)


def arm_from_spec(specs: str) -> None:
    """Arm fault points from a comma-separated spec string."""
    for spec in specs.split(","):
        spec = spec.strip()
        if not spec:
            continue
        name, at, action = parse_spec(spec)
        arm(name, action, at=at)


def clear() -> None:
    """Disarm every fault point."""
    _armed.clear()


def armed() -> dict[str, str]:
    """Names of currently armed fault points (name -> ``action@at``)."""
    return {name: f"{a.action}@{a.at}" for name, a in _armed.items()}


def is_armed(name: str) -> bool:
    """Whether the fault point ``name`` is armed."""
    return name in _armed


def load_env() -> None:
    """Arm fault points from ``REPRO_FAULTS`` (call once at startup)."""
    specs = os.environ.get(_ENV_VAR, "")
    if specs:
        arm_from_spec(specs)


def fault_point(name: str, *, path: Path | None = None, tmp: Path | None = None) -> None:
    """Declare a crash-relevant execution point.

    No-op unless a test (or ``REPRO_FAULTS``) armed ``name``.  Write
    fault points pass ``tmp`` so the ``torn`` action can mangle the
    in-flight temp file.
    """
    if not _armed:
        return
    entry = _armed.get(name)
    if entry is None:
        return
    entry.hits += 1
    if entry.hits != entry.at:
        return
    del _armed[name]
    if entry.action == "raise":
        raise InjectedFault(name)
    if entry.action == "exit":
        os._exit(EXIT_CODE)
    if entry.action == "torn":
        if tmp is not None and tmp.exists():
            size = tmp.stat().st_size
            with open(tmp, "r+b") as handle:
                handle.truncate(size // 2)
        return


load_env()
