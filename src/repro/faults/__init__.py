"""Seeded fault injection and crash simulation (``repro.faults``).

The package owns the chaos-testing vocabulary: a seeded
:class:`~repro.faults.plan.FaultPlan` injects transient sqlite errors and
latency spikes at the storage seam, and
:class:`~repro.faults.plan.InjectedCrash` marks a simulated process death
at a mutation fault point.  See ``storage/sqlite_backend.py`` for the
one-transaction mutations that make those crashes recoverable.
"""

from .plan import FaultingConnection, FaultPlan, InjectedCrash, InjectedFault

__all__ = [
    "FaultPlan",
    "FaultingConnection",
    "InjectedCrash",
    "InjectedFault",
]
