"""Simulated time: the :class:`Clock` every bound function reads.

The event queue, random walks and workload engine that drove the paper's
experiments over this clock are examples in ``examples/section8/``.
"""

from repro.simulation.clock import Clock

__all__ = ["Clock"]
