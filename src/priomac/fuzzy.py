"""Slot-priority scoring for the TDMA scheduler.

The Mamdani core (``fuzzy_core``) lives in ``_pykernels`` next to the
event queue and the channel; this module adds the crisp emergency-bit
composition on top. An emergency claimant can never score below a
non-emergency one: the bit decides the half-interval and the fuzzy core
only ranks within it.
"""

from ._pykernels import fuzzy_core

__all__ = ["fuzzy_core", "priority_score"]


def priority_score(distance_n: float, energy_n: float, slots_n: float, emergency_bit: int) -> float:
    """0.5 + 0.5*core for emergency claimants, 0.5*core otherwise."""
    core = fuzzy_core(distance_n, energy_n, slots_n)
    if emergency_bit:
        return 0.5 + 0.5 * core
    return 0.5 * core
