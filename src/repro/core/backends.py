"""The executors, by name: one table for every caller that picks one.

Each executor is a :class:`~repro.core.kernel.Kernel` subclass, and
:data:`EXECUTORS` is the one place that maps an executor's name to its
class.  A caller that needs to know how a backend behaves reads one of
the two facts its class declares, never its name:

``WALL_CLOCK``
    The run's clock is wall time.  Such a run takes ``timeout_s`` and
    can be launched (:meth:`~repro.core.automaton.AnytimeAutomaton.launch`),
    and its stages interleave as the OS schedules them, so a checker
    cannot hold its trace to one event order (``strict_order``).  Only
    the simulator runs in virtual time: it takes core shares
    (``total_cores``, ``schedule``, ``dynamic_shares``) and virtual
    deadlines instead.
``HOLDS_VALUES``
    The backend's buffers hold the values it publishes.  The process
    backend's hold shared-memory slab descriptors, so a checker cannot
    hash its published values (``hash_values``), and a stage that
    mutates a value or pokes a foreign buffer inside its worker never
    reaches the parent.

Modules are imported on first use, so naming the process backend forks
nothing and imports nothing until a run asks for it.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

__all__ = ["EXECUTORS", "executor_class", "executor_names"]

#: executor name -> (module under repro.core, its Kernel subclass)
EXECUTORS: dict[str, tuple[str, str]] = {
    "simulated": ("simexec", "SimulatedExecutor"),
    "threaded": ("executor", "ThreadedExecutor"),
    "process": ("procexec", "ProcessExecutor"),
}


def executor_class(name: str) -> Any:
    """The :class:`~repro.core.kernel.Kernel` subclass called ``name``.

    An unknown name raises a ``ValueError`` that lists the table.
    """
    try:
        module, cls = EXECUTORS[name]
    except KeyError:
        raise ValueError(f"unknown executor {name!r}; known: "
                         f"{', '.join(EXECUTORS)}") from None
    return getattr(import_module(f".{module}", __package__), cls)


def executor_names(**facts: bool) -> tuple[str, ...]:
    """The table's names, in its order, whose classes declare every
    fact given, e.g. ``executor_names(WALL_CLOCK=True)``."""
    return tuple(name for name in EXECUTORS
                 if all(getattr(executor_class(name), fact) == value
                        for fact, value in facts.items()))
