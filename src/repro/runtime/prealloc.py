"""Bounded instance pools (section 4.4.1).

"In the kernel we rely on preallocation to avoid dynamic allocation in code
paths that do not permit it (e.g., while holding mutexes). … we preallocate
a fixed-size memory block per thread, giving a deterministic memory
footprint, and report overflows so that we can adjust preallocation size on
the next run."

Python has no mutex-unsafe allocator, so what matters — and what this module
reproduces — is the *bounded, deterministic footprint with overflow
reporting*: an :class:`InstancePool` holds at most ``capacity`` instances;
insertions past the limit are dropped and counted, never silently grown.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from . import faultinject as _fi
from .faultinject import fault_site
from .instance import AutomatonInstance

_FP_INSERT = fault_site("prealloc.insert")

#: Matches libtesla's modest default; kernel configurations override it.
DEFAULT_CAPACITY = 128


class InstancePool:
    """A fixed-capacity container of automaton instances."""

    __slots__ = ("capacity", "_instances", "overflows", "high_water")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._instances: List[AutomatonInstance] = []
        #: Number of instances dropped because the pool was full.
        self.overflows = 0
        #: Largest simultaneous population — the number to size the next run.
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[AutomatonInstance]:
        return iter(self._instances)

    def add(self, instance: AutomatonInstance) -> bool:
        """Insert; returns False (and counts an overflow) when full."""
        if _fi._active is not None:
            _fi.fault_point(_FP_INSERT)
        if len(self._instances) >= self.capacity:
            self.overflows += 1
            return False
        self._instances.append(instance)
        if len(self._instances) > self.high_water:
            self.high_water = len(self._instances)
        return True

    def find(self, binding) -> Optional[AutomatonInstance]:
        """The instance with exactly this binding, if present."""
        for instance in self._instances:
            if instance.same_binding(binding):
                return instance
        return None

    def prune(self, predicate) -> List[AutomatonInstance]:
        """Remove and return every instance ``predicate`` selects.

        Used by deadline expiry (DESIGN §5.9): expired instances leave the
        pool immediately so the population numbers stay honest and a later
        cleanup does not double-report the same obligation.
        """
        kept: List[AutomatonInstance] = []
        removed: List[AutomatonInstance] = []
        for instance in self._instances:
            (removed if predicate(instance) else kept).append(instance)
        if removed:
            self._instances = kept
        return removed

    def expunge(self) -> List[AutomatonInstance]:
        """Remove and return every instance (the «cleanup» reset)."""
        out = self._instances
        self._instances = []
        return out

    def snapshot(self) -> List[AutomatonInstance]:
        return list(self._instances)

    def live(self) -> List[AutomatonInstance]:
        """The live instance list itself, NOT a copy.

        For the dispatch hot loop, which walks the population once per
        event: the transition engine accumulates clones in a side list and
        only :meth:`add`\\ s them after the walk, so the list never mutates
        under iteration.  Callers that might add or expunge mid-walk must
        use :meth:`snapshot`.
        """
        return self._instances

    def stats(self) -> dict:
        """The overflow-report-then-resize numbers (§4.4.1), one pool.

        Kept per class so preallocation can be resized where the pressure
        actually is rather than globally.
        """
        return {
            "capacity": self.capacity,
            "population": len(self._instances),
            "high_water": self.high_water,
            "overflows": self.overflows,
        }
