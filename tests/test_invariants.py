"""Invariants over generated configs: every accepted config runs, and closes.

Configs are drawn across both protocols, with the fps guard near one CCA
and short durations that are not frame multiples. A config the spec
refuses is skipped; one it accepts must run to its end without an
exception, conserve every packet and account for every node's time. Run
again with a trace, it must give the same report; an fps trace must also
account for every frame, built or skipped, keep its slots exclusive and
drop each packet at its retry budget (see _fps_frames). A frog trace must pass the frame checks of
_frog_frames, and a MAC that runs every exchange through events must give
the same trace line for line. Run once more untraced in the same
process, it must give the same report again.

Few generated frog configs corrupt a frame or drop a packet, so the same
checks also run on saturated frog configs, each of which must drop.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from priomac import harness
from priomac.config import SimConfig
from priomac.fps import FrameGeometry
from priomac.harness import run_once

from _fps_frames import (
    assert_drops_follow_the_budget,
    assert_frames_follow_the_queues,
    assert_slots_are_exclusive,
)
from _frog_frames import EventPathFrogMac, assert_frames_are_sound


@st.composite
def configs(draw, protocol):
    n_nodes = draw(st.integers(1, 10))
    cca_us = draw(st.sampled_from((1, 128, 300)))
    cfg = SimConfig(
        protocol=protocol,
        seed=draw(st.integers(1, 5)),
        n_nodes=n_nodes,
        n_emergency=draw(st.integers(0, n_nodes)),
        # Whole microseconds, so each span survives the trip through seconds.
        normal_interval_s=draw(st.integers(2_000, 1_000_000)) / 1e6,
        emergency_interval_s=draw(st.integers(2_000, 1_000_000)) / 1e6,
        cca_us=cca_us,
        fragment_size=draw(st.none() | st.integers(1, 34)) if protocol == "frog" else None,
        slots_per_frame=draw(st.integers(1, 20)),
        slot_guard_us=cca_us + draw(st.integers(-1, 2)),
        # frog has no ack losses; its acks fail only by collision.
        ack_loss_p=draw(st.sampled_from((0.0, 0.01, 0.3, 0.9))) if protocol == "fps" else 0.0,
        # Small budgets, so that packets are also dropped.
        frog_max_retries=draw(st.integers(0, 8)),
        fps_max_retry_frames=draw(st.integers(0, 50)),
    )
    # Up to 40 frames, ending anywhere strictly inside the last one.
    frame_len = FrameGeometry(cfg).frame_len
    frames = draw(st.integers(0, 40))
    duration_us = frames * frame_len + draw(st.integers(1, frame_len - 1))
    return dataclasses.replace(cfg, duration_s=duration_us / 1e6)


def assert_invariants(cfg):
    """Run cfg untraced and traced; check what every run must satisfy and
    return the report."""
    rep = run_once(cfg)
    for stats in rep.classes.values():
        assert stats.generated == stats.delivered + stats.dropped + stats.in_flight
        assert stats.in_flight >= 0
    for node, spans in rep.node_state_us.items():
        assert sum(spans) == cfg.duration_us, node
    rec = []
    assert run_once(cfg, trace=lambda *line: rec.append(line)) == rep
    if cfg.protocol == "fps":
        assert_frames_follow_the_queues(rec, FrameGeometry(cfg), cfg.duration_us)
        assert_slots_are_exclusive(rec)
        assert_drops_follow_the_budget(rec, cfg.fps_max_retry_frames)
    else:
        assert_frames_are_sound(rec, cfg.frog_max_retries)
        events = []
        with mock.patch.object(harness, "FrogMac", EventPathFrogMac):
            assert run_once(cfg, trace=lambda *line: events.append(line)) == rep
        assert rec == events
    # State kept between runs of one process, such as a memo, must not
    # leak into the next run.
    assert run_once(cfg) == rep
    return rep


@pytest.mark.parametrize("protocol", ["frog", "fps"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_accepted_config_runs_and_closes(protocol, data):
    cfg = data.draw(configs(protocol))
    try:
        cfg.validate()
    except ValueError:
        assume(False)
    assert_invariants(cfg)


@pytest.mark.parametrize("fragment_size", [2, 4])
@pytest.mark.parametrize("seed", [2, 3])
def test_saturated_frog_drops_and_still_closes(seed, fragment_size):
    # 60 senders at a 0.05 s interval with no retries: equal-time ties
    # corrupt frames, and each corrupted exchange drops its packet.
    cfg = SimConfig(
        protocol="frog", seed=seed, fragment_size=fragment_size, n_nodes=60,
        n_emergency=6, normal_interval_s=0.05, frog_max_retries=0, duration_s=5.0,
    )
    assert assert_invariants(cfg).dropped > 0
