"""Slot-priority scoring for the TDMA scheduler.

``fuzzy_core`` is the Mamdani inference over a claimant's normalized
distance, residual energy and slot count; ``priority_score`` adds the
crisp emergency-bit composition on top. An emergency claimant can never
score below a non-emergency one: the bit decides the half-interval and
the fuzzy core only ranks within it.
"""

__all__ = ["fuzzy_core", "priority_score"]


def priority_score(distance_n: float, energy_n: float, slots_n: float, emergency_bit: int) -> float:
    """0.5 + 0.5*core for emergency claimants, 0.5*core otherwise."""
    core = fuzzy_core(distance_n, energy_n, slots_n)
    if emergency_bit:
        return 0.5 + 0.5 * core
    return 0.5 * core


def _tri(x, a, b, c):
    # Triangular membership with degenerate edges: (a, a, c) peaks at a,
    # (a, c, c) peaks at c.
    if x <= a:
        return 1.0 if (x == a and a == b) else 0.0
    if x < b:
        return (x - a) / (b - a)
    if x == b:
        return 1.0
    if x < c:
        return (c - x) / (c - b)
    return 1.0 if (x == c and b == c) else 0.0


# Centroid memo: the centroid depends only on the three rule activations,
# so it is keyed on them and computed once per distinct triple. Cleared
# when full, which bounds its memory on long runs with drifting energy.
_CENTROIDS = {}
_CENTROID_CAP = 4096
# (x, m_lo, m_mid, m_hi) at each of the 1001 centroid samples; built on the
# first memo miss, so a process that never scores (frog only) never holds it.
_SAMPLES = None


def _samples():
    global _SAMPLES
    if _SAMPLES is None:
        _SAMPLES = []
        for i in range(1001):
            x = i / 1000.0
            _SAMPLES.append(
                (x, _tri(x, 0.0, 0.0, 0.5), _tri(x, 0.25, 0.5, 0.75), _tri(x, 0.5, 1.0, 1.0))
            )
    return _SAMPLES


def fuzzy_core(d, e, s):
    """Mamdani inference over normalized (distance, residual energy, slots).

    Input sets per axis: low (0,0,0.5), mid (0,0.5,1), high (0.5,1,1).
    Rules: HIGH if (d low and s high) or (e high and s high);
           MID if e mid or s mid;
           LOW if (e low and s low) or d high.
    Output sets low (0,0,0.5), mid (0.25,0.5,0.75), high (0.5,1,1);
    centroid defuzzification sampled at 1001 points on [0, 1].

    The centroid is memoised on the (low, mid, high) rule activations, up
    to 4096 triples before the memo is cleared. A miss runs the same
    sample loop in the same order, so a memoised score is bitwise the
    score the loop gives.
    """
    if not (0.0 <= d <= 1.0 and 0.0 <= e <= 1.0 and 0.0 <= s <= 1.0):
        raise ValueError("fuzzy inputs must lie in [0, 1]")

    d_lo = _tri(d, 0.0, 0.0, 0.5)
    d_hi = _tri(d, 0.5, 1.0, 1.0)
    e_lo = _tri(e, 0.0, 0.0, 0.5)
    e_mid = _tri(e, 0.0, 0.5, 1.0)
    e_hi = _tri(e, 0.5, 1.0, 1.0)
    s_lo = _tri(s, 0.0, 0.0, 0.5)
    s_mid = _tri(s, 0.0, 0.5, 1.0)
    s_hi = _tri(s, 0.5, 1.0, 1.0)

    act_hi = max(min(d_lo, s_hi), min(e_hi, s_hi))
    act_mid = max(e_mid, s_mid)
    act_lo = max(min(e_lo, s_lo), d_hi)

    key = (act_lo, act_mid, act_hi)
    centroid = _CENTROIDS.get(key)
    if centroid is not None:
        return centroid

    num = 0.0
    den = 0.0
    for x, m_lo, m_mid, m_hi in _samples():
        if m_lo > act_lo:
            m_lo = act_lo
        if m_mid > act_mid:
            m_mid = act_mid
        if m_hi > act_hi:
            m_hi = act_hi
        m = m_lo
        if m_mid > m:
            m = m_mid
        if m_hi > m:
            m = m_hi
        num += x * m
        den += m
    # no rule fired (isolated corner inputs): neutral score
    centroid = num / den if den != 0.0 else 0.5
    if len(_CENTROIDS) >= _CENTROID_CAP:
        _CENTROIDS.clear()
    _CENTROIDS[key] = centroid
    return centroid
