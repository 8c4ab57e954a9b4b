"""Population construction, and the packet exit both MACs share."""

import pytest
from test_fps import make_fps
from test_frog import make_mac

from priomac.engine import ProtocolBug
from priomac.traffic import EMERGENCY, NORMAL, NodeConfig, Packet, build_population


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


# -- packet exit -------------------------------------------------------------

@pytest.mark.parametrize("exit_name", ["_deliver", "_drop"])
@pytest.mark.parametrize("make", [make_mac, make_fps], ids=["frog", "fps"])
def test_a_packet_leaves_only_from_its_queue_head(make, exit_name):
    eng, mac, metrics, ledger = make([NodeConfig(1, 10.0, 10.0, True, 0, 0)], 10_000)
    eng.now = 5_000
    head = Packet(0, 1, NORMAL, 0, 34)
    second = Packet(1, 1, NORMAL, 0, 34)
    stray = Packet(2, 1, EMERGENCY, 0, 34)  # its class queue is empty
    for packet in (head, second):
        metrics.record_generated(packet)
    mac._nq[1].extend([head, second])
    before = metrics.summarize(ledger, 10_000, mac.queues)
    leave = getattr(mac, exit_name)
    for packet in (second, stray):
        with pytest.raises(ProtocolBug):
            leave(1, packet)
        assert list(mac._nq[1]) == [head, second] and not mac._emq[1]
        assert metrics.summarize(ledger, 10_000, mac.queues) == before
    leave(1, head)
    assert list(mac._nq[1]) == [second]
    after = metrics.summarize(ledger, 10_000, mac.queues)
    assert after != before
    # The head has left, so neither exit takes it a second time.
    for again in (mac._deliver, mac._drop):
        with pytest.raises(ProtocolBug):
            again(1, head)
        assert list(mac._nq[1]) == [second] and not mac._emq[1]
        assert metrics.summarize(ledger, 10_000, mac.queues) == after
