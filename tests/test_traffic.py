"""Population construction."""

import pytest

from priomac.traffic import build_population


def test_population_shape_and_bounds():
    nodes = build_population(20, 3, seed=1, area_m=50.0)
    assert [n.node_id for n in nodes] == list(range(1, 21))
    assert sum(n.emergency for n in nodes) == 3
    for n in nodes:
        assert 0.0 <= n.x <= 50.0 and 0.0 <= n.y <= 50.0
        assert 0 <= n.normal_phase_us < 10_000_000
        assert 0 <= n.emergency_phase_us < 120_000_000


def test_population_extremes():
    assert sum(n.emergency for n in build_population(20, 0, seed=1)) == 0
    assert sum(n.emergency for n in build_population(20, 20, seed=1)) == 20


def test_population_rejects_bad_counts():
    with pytest.raises(ValueError):
        build_population(0, 0, seed=1)
    with pytest.raises(ValueError):
        build_population(20, 21, seed=1)
    with pytest.raises(ValueError):
        build_population(20, -1, seed=1)


def test_population_deterministic_per_seed():
    assert build_population(20, 3, seed=4) == build_population(20, 3, seed=4)
    assert build_population(20, 3, seed=4) != build_population(20, 3, seed=5)


def test_detector_subsets_nest():
    # Growing n_emergency only adds detectors; it never reshuffles the
    # existing ones. This keeps runs comparable across the sweep axis.
    seen = set()
    for k in (3, 6, 9, 12, 15, 18):
        chosen = {n.node_id for n in build_population(20, k, seed=2) if n.emergency}
        assert seen <= chosen
        assert len(chosen) == k
        seen = chosen


def test_node_identity_stable_across_detector_count():
    # Positions and phases belong to the node, not to the sweep point.
    a = build_population(20, 3, seed=3)
    b = build_population(20, 18, seed=3)
    for na, nb in zip(a, b):
        assert (na.x, na.y) == (nb.x, nb.y)
        assert na.normal_phase_us == nb.normal_phase_us
        assert na.emergency_phase_us == nb.emergency_phase_us
