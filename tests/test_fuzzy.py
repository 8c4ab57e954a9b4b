"""Fuzzy slot-priority scoring against an independent Mamdani oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _mamdani_ref import reference_core
from priomac import _pykernels
from priomac.fuzzy import fuzzy_core, priority_score


def test_center_is_exactly_neutral():
    # Only the mid rule fires; the mid output set is symmetric about 0.5.
    assert fuzzy_core(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-9)


def test_rejects_out_of_range_inputs():
    for bad in ((-0.1, 0.5, 0.5), (0.5, 1.1, 0.5), (0.5, 0.5, 2.0)):
        with pytest.raises(ValueError):
            fuzzy_core(*bad)


def test_deterministic():
    assert fuzzy_core(0.3, 0.7, 0.2) == fuzzy_core(0.3, 0.7, 0.2)


def test_agrees_with_reference_on_random_inputs():
    rng = random.Random(11)
    for _ in range(1000):
        d, e, s = rng.random(), rng.random(), rng.random()
        want = reference_core(d, e, s)
        assert abs(fuzzy_core(d, e, s) - want) <= 1e-9


def test_agrees_with_reference_on_set_boundaries():
    pts = (0.0, 0.25, 0.5, 0.75, 1.0)
    for d in pts:
        for e in pts:
            for s in pts:
                assert abs(fuzzy_core(d, e, s) - reference_core(d, e, s)) <= 1e-9


def test_named_examples():
    assert abs(fuzzy_core(0.0, 1.0, 1.0) - reference_core(0.0, 1.0, 1.0)) <= 1e-9
    # far node, full battery, no queue: no rule fires at all -> neutral
    assert fuzzy_core(0.25, 1.0, 0.0) == 0.5


def test_priority_score_splits_the_range_on_the_emergency_bit():
    rng = random.Random(12)
    for _ in range(500):
        d, e, s = rng.random(), rng.random(), rng.random()
        lo = priority_score(d, e, s, 0)
        hi = priority_score(d, e, s, 1)
        assert 0.0 <= lo <= 0.5
        assert 0.5 <= hi <= 1.0
        assert hi == pytest.approx(lo + 0.5)


def test_emergency_never_outranked():
    rng = random.Random(13)
    for _ in range(2000):
        em = priority_score(rng.random(), rng.random(), rng.random(), 1)
        plain = priority_score(rng.random(), rng.random(), rng.random(), 0)
        assert em >= plain


def test_monotone_in_queue_pressure():
    # At full battery, more queued slots never lowers the score.
    scores = [fuzzy_core(0.5, 1.0, s / 20) for s in range(21)]
    assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))
    assert scores[-1] > scores[0]


# -- centroid memo ----------------------------------------------------------

MEMO_CAP = 4096


def unmemoised_core(d, e, s):
    """The Mamdani core as a plain 1001-step loop: no memo, no sample table."""
    tri = _pykernels._tri
    d_lo = tri(d, 0.0, 0.0, 0.5)
    d_hi = tri(d, 0.5, 1.0, 1.0)
    e_lo = tri(e, 0.0, 0.0, 0.5)
    e_mid = tri(e, 0.0, 0.5, 1.0)
    e_hi = tri(e, 0.5, 1.0, 1.0)
    s_lo = tri(s, 0.0, 0.0, 0.5)
    s_mid = tri(s, 0.0, 0.5, 1.0)
    s_hi = tri(s, 0.5, 1.0, 1.0)
    act_hi = max(min(d_lo, s_hi), min(e_hi, s_hi))
    act_mid = max(e_mid, s_mid)
    act_lo = max(min(e_lo, s_lo), d_hi)
    num = 0.0
    den = 0.0
    for i in range(1001):
        x = i / 1000.0
        m = min(tri(x, 0.0, 0.0, 0.5), act_lo)
        m = max(m, min(tri(x, 0.25, 0.5, 0.75), act_mid))
        m = max(m, min(tri(x, 0.5, 1.0, 1.0), act_hi))
        num += x * m
        den += m
    if den == 0.0:
        return 0.5
    return num / den


def fill_memo(n):
    """Empty the memo, then fill it with n entries that no input can hit.

    Activations are never negative, so these keys only take up room and
    bring the memo to the edge of its cap.
    """
    memo = _pykernels._CENTROIDS
    memo.clear()
    for i in range(n):
        memo[(-1.0, -1.0, float(i))] = -1.0
    return memo


@pytest.fixture
def empty_memo():
    _pykernels._CENTROIDS.clear()
    yield
    _pykernels._CENTROIDS.clear()


unit = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)) | st.floats(0.0, 1.0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=8),
    st.sampled_from((0, MEMO_CAP - 4, MEMO_CAP - 1, MEMO_CAP)),
)
def test_memoised_core_is_bitwise_the_plain_loop(inputs, prefill):
    memo = fill_memo(prefill)
    try:
        # Every triple twice: the first call may miss, the second must hit.
        for d, e, s in inputs + inputs:
            assert fuzzy_core(d, e, s).hex() == unmemoised_core(d, e, s).hex()
            assert len(memo) <= MEMO_CAP
    finally:
        memo.clear()


def test_memo_is_cleared_when_it_reaches_its_cap(empty_memo):
    memo = fill_memo(MEMO_CAP - 1)
    fuzzy_core(0.3, 0.7, 0.2)
    assert len(memo) == MEMO_CAP
    assert fuzzy_core(0.3, 0.7, 0.2) == unmemoised_core(0.3, 0.7, 0.2)  # a hit
    assert len(memo) == MEMO_CAP
    value = fuzzy_core(0.9, 0.1, 0.6)  # a miss on a full memo clears it first
    assert len(memo) == 1
    assert value.hex() == unmemoised_core(0.9, 0.1, 0.6).hex()


def test_memo_holds_one_entry_per_activation_triple(empty_memo):
    # Only the MID rule fires at these inputs, at the level residual energy
    # sets, so distance and the queue do not add entries.
    for d in (0.1, 0.2, 0.3):
        for s in (0.05, 0.1):
            fuzzy_core(d, 0.5, s)
    assert len(_pykernels._CENTROIDS) == 1
