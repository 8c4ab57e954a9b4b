"""Traces, `run --states` reports and sweep files pinned by SHA-256 digest.

The simulator's contract is its output: a refactor must leave every trace,
every `run --states` report and every sweep CSV/.dat byte for byte as it
was. The trace and sweep digests were taken before the end-handler and
single-packet-exit refactor of the engine and both MACs, and the
`run --states` digests before fps's baseline became a closed form of time.
The two fps trace digests were re-taken when traced fps runs began to
fast-forward like untraced ones: each frame that starts with nothing
queued lost its `eis`, `frame` and schedule `tx-start`/`tx-end` lines, and
each stretch of such frames gained one `skip` line. Every other line, and
every report, stayed as it was.
The frog traces at a 1 s interval, the 60-node saturated frog trace and
the 18-detector frog `run --states` digest were taken before frog began to
settle uncontended exchanges without events; the saturated trace (fs=2,
no retries) has drops, collisions and fragments that start inside another
sender's gap.
The two frog `run --states` digests that end mid-frame were taken before
frog's energy became a baseline plus clipped moves: at 39.879441 s node
5's fragment 5/5 is on the air, at 39.879665 s the sink's ack to node 5
is. Only a run cut by its end shows a clipped data or ack span.
A change that alters the model on purpose updates them here and
says in CHANGES.md which outputs changed and why.
"""

import hashlib

import pytest

from priomac.cli import main
from priomac.config import SimConfig
from priomac.harness import emit_trace, run_sweep

TRACE_BASE = dict(duration_s=40.0, n_emergency=6, seed=2)

TRACES = {
    "frog-fs2": (
        dict(protocol="frog", fragment_size=2),
        "d6abf389afb489228344b11c6ca8469f9f70dbce4acff589c0d1f7a7ba56bc25",
    ),
    "frog-fs8": (
        dict(protocol="frog", fragment_size=8),
        "322d00acc2dab0006ce2675b28b38f7fcc0a705865b31b6b84593a73f9655835",
    ),
    "frog-fs34": (
        dict(protocol="frog", fragment_size=34),
        "6f26c0758399b80ee58e4705eb55d95c4c1dd2235225e6098fc3d6c67ec2b0ec",
    ),
    "fps": (
        dict(protocol="fps"),
        "8d35840b79513845f0438e5638e7380d1d0029b47cd4f25217e6c9a538fd5e15",
    ),
    "fps-0.3s": (
        dict(protocol="fps", normal_interval_s=0.3),
        "cef99ccaf9beedac86d91b4982b057b8da1053e7be37262a0d57b1cb4a982bd8",
    ),
    "frog-fs2-18det-0.3s": (
        dict(protocol="frog", fragment_size=2, n_emergency=18, normal_interval_s=0.3),
        "bbcfa9f97bb7797fb2723d5eedf4c1ead27e93eaecc79a2323be792d0a1c6aaa",
    ),
    "frog-fs2-1s": (
        dict(protocol="frog", fragment_size=2, normal_interval_s=1.0),
        "4ba9e14f2150699aca8581c84a48a822f62768c502391695b44ea633f26b364d",
    ),
    "frog-fs8-1s": (
        dict(protocol="frog", fragment_size=8, normal_interval_s=1.0),
        "61c08192acc078a0ef907cfa98679dd53a4af764bcba37c0c989f4abbd008660",
    ),
    "frog-fs2-60n-0.05s-noretry": (
        dict(
            protocol="frog", fragment_size=2, n_nodes=60, normal_interval_s=0.05,
            frog_max_retries=0, duration_s=5.0,
        ),
        "7f1289d995c24541b92b74b1de1e37e289ed7acb89116b8cf5935161ac7ac420",
    ),
}

FIG5_CSV = "c7313f0258e62bd1db45d321654e376cfc44d664cc7e9d609a7d55b4169254ce"
FIG5_DAT = "6e00c4805f31d93443f795a2cd474d459104a117af2f8ea112c0aa7baf983d38"


# `run --states` reports, at 719 frames plus 2000 us: the run ends inside
# the last frame's schedule broadcast, so the cluster head's clipped TX span
# and every member's clipped baseline show in the per-node totals.
STATES_ARGS = ["--duration-s", "39.955392", "--n-emergency", "6", "--seed", "2"]
STATES = {
    "fps": (
        ["--protocol", "fps", *STATES_ARGS],
        "f1109a3fb18ea9e85809436e069256eddb021402df53116b98ee21c1fcc5170c",
    ),
    "frog": (
        ["--protocol", "frog", *STATES_ARGS],
        "908009b15b2d54b2616e3ffe1cfe02df617237e4488022b7a7fb841425031862",
    ),
    "frog-fs2-18det": (
        [
            "--protocol", "frog", "--fragment-size", "2", "--duration-s", "39.955392",
            "--n-emergency", "18", "--seed", "2",
        ],
        "50e3d393d699636dc1acb91af109570b8e20eea9828c3fed05c3da123a0afcc3",
    ),
    "frog-ends-in-data": (
        ["--protocol", "frog", "--n-emergency", "6", "--seed", "2", "--duration-s", "39.879441"],
        "34bc75508337f4bafeb0dfc1271341c140d719b1578f8cffefe99fba73a09065",
    ),
    "frog-ends-in-ack": (
        ["--protocol", "frog", "--n-emergency", "6", "--seed", "2", "--duration-s", "39.879665"],
        "242adb9c3933206b95bd31c21563e48e82e5b567d06534373ff96a0d32ae00dd",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_is_pinned(name, tmp_path):
    overrides, digest = TRACES[name]
    cfg = SimConfig(**{**TRACE_BASE, **overrides})
    path = tmp_path / "run.trace"
    emit_trace(cfg, str(path))
    assert sha256(path) == digest


def test_fig5_sweep_is_pinned(tmp_path):
    run_sweep(
        "fig5", SimConfig(duration_s=100.0), str(tmp_path), seeds=[1, 2]
    )
    assert sha256(tmp_path / "fig5.csv") == FIG5_CSV
    assert sha256(tmp_path / "fig5.dat") == FIG5_DAT


@pytest.mark.parametrize("name", sorted(STATES))
def test_run_states_is_pinned(name, capsys):
    args, digest = STATES[name]
    assert main(["run", "--states", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
