"""Fuzzy slot-priority scoring against an independent Mamdani oracle."""

import random

import pytest

from _mamdani_ref import reference_core
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
