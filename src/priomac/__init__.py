"""Single-hop sensor-cluster MAC simulator.

Compares a fragmentation-based CSMA protocol (emergency frames preempt
low-priority traffic in the inter-fragment gaps) against a TDMA protocol
with an emergency indication slot and fuzzy slot priorities, under the
same radio, traffic, and energy model.
"""

BACKEND = "pure"  # the one kernel implementation, recorded in run headers
__version__ = "0.1.0"
__all__ = ["BACKEND", "__version__"]
