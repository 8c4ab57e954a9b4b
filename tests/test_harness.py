"""End-to-end runs, sweep outputs, trace files, and the command line."""

import contextlib
import csv
import dataclasses
import gc
import io
import math
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import priomac
from priomac import harness
from priomac.cli import main
from priomac.config import SimConfig, parse_config
from priomac.harness import emit_trace, run_once, run_sweep, sweep_points
from priomac.traffic import EMERGENCY, NORMAL, build_population


def small(protocol="frog", **kwargs):
    base = dict(protocol=protocol, duration_s=30.0, seed=1)
    base.update(kwargs)
    return SimConfig(**base)


# -- single runs -------------------------------------------------------------

def test_run_once_is_deterministic():
    for proto in ("frog", "fps"):
        cfg = small(proto)
        assert run_once(cfg) == run_once(cfg)


def test_generated_counts_match_the_arrival_arithmetic():
    # A flow arrives at exactly phase + k * interval, for every such time
    # <= duration; 300 s gives every detector two emergencies (phase < 120 s).
    for proto in ("frog", "fps"):
        for n_nodes, n_emergency, duration_s in ((3, 0, 100.0), (5, 3, 300.0)):
            cfg = small(proto, n_nodes=n_nodes, n_emergency=n_emergency, duration_s=duration_s)
            seen = []

            def trace(t, node, kind, detail):
                if kind == "arrival":
                    seen.append((node, detail.split()[0].removeprefix("class="), t))

            rep = run_once(cfg, trace=trace)
            want = []
            for n in build_population(n_nodes, n_emergency, seed=1):
                flows = [(NORMAL, n.normal_phase_us, cfg.normal_interval_us)]
                if n.emergency:
                    flows.append((EMERGENCY, n.emergency_phase_us, cfg.emergency_interval_us))
                for klass, phase, interval in flows:
                    want += [(n.node_id, klass, t) for t in range(phase, cfg.duration_us + 1, interval)]
            assert sorted(seen) == sorted(want), (proto, n_emergency)
            for klass in (NORMAL, EMERGENCY):
                assert rep.classes[klass].generated == sum(k == klass for _, k, _ in want)


@pytest.mark.parametrize("protocol", ["frog", "fps"])
def test_a_finished_run_is_freed_without_the_cyclic_gc(monkeypatch, protocol):
    engines = []

    class RecordedEngine(harness.Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(weakref.ref(self))

    monkeypatch.setattr(harness, "Engine", RecordedEngine)
    gc.disable()
    try:
        # Arrivals past the horizon stay queued and hold the MAC too.
        harness.run_once(small(protocol, duration_s=5.0))
        assert len(engines) == 1 and engines[0]() is None
    finally:
        gc.enable()


def test_no_detectors_means_no_emergency_traffic():
    for proto in ("frog", "fps"):
        rep = run_once(small(proto, n_emergency=0, duration_s=60.0))
        es = rep.classes[EMERGENCY]
        assert (es.generated, es.delivered, es.dropped) == (0, 0, 0)
        assert rep.classes[NORMAL].delivered > 0


def test_energy_closes_on_the_duration_for_both_protocols():
    for proto in ("frog", "fps"):
        cfg = small(proto, duration_s=45.0)
        rep = run_once(cfg)
        for node, spans in rep.node_state_us.items():
            assert sum(spans) == cfg.duration_us, (proto, node)


def test_conservation_in_reports():
    for proto in ("frog", "fps"):
        # 300 s: every detector's phase (< 120 s) falls inside the run.
        rep = run_once(small(proto, n_emergency=6, duration_s=300.0))
        for stats in rep.classes.values():
            assert stats.generated == stats.delivered + stats.dropped + stats.in_flight
            assert stats.in_flight >= 0
        em = rep.classes[EMERGENCY]
        counts = [count for count, _ in rep.emergency_by_src.values()]
        sums = [sum_us for _, sum_us in rep.emergency_by_src.values()]
        assert em.delivered > 0 and sum(counts) == em.delivered
        assert sum(sums) / sum(counts) == em.mean_us


# -- trace files -------------------------------------------------------------

def read_trace(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            t, node, kind, detail = line.rstrip("\n").split(" ", 3)
            out.append((int(t), int(node), kind, detail))
    return out


def test_trace_shows_every_fragment_of_a_packet(tmp_path):
    cfg = small("frog", n_nodes=1, n_emergency=0, duration_s=15.0)
    path = tmp_path / "frog.trace"
    rep = emit_trace(cfg, str(path))
    events = read_trace(str(path))
    # fragment_size defaults to 8: five fragments per 34-byte packet
    first_id = next(d for _, _, k, d in events if k == "arrival").split("id=")[1]
    frag_ends = [
        d for _, _, k, d in events
        if k == "tx-end" and f"id={first_id} " in d and "data-frag" in d
    ]
    assert len(frag_ends) == 5
    assert all(d.endswith("corrupted=0") for d in frag_ends)
    assert rep.classes[NORMAL].delivered == rep.classes[NORMAL].generated


def test_fps_transmissions_stay_inside_their_slots(tmp_path):
    cfg = small("fps", n_emergency=6, duration_s=20.0)
    path = tmp_path / "fps.trace"
    emit_trace(cfg, str(path))
    events = read_trace(str(path))

    frame_start = None
    slots = []
    checked = 0
    for t, node, kind, detail in events:
        if kind == "frame":
            fields = dict(
                p.split("=", 1)
                for p in detail.split(" ")
                if "=" in p and not p.startswith("slots")
            )
            frame_start = int(fields["start"])
            body = detail.split("slots=[", 1)[1].rstrip("]")
            slots = [s.split(":")[0] for s in body.split(",") if s]
        elif kind == "tx-start" and detail.startswith("kind=data-whole"):
            slot_i = int(detail.rsplit("slot=", 1)[1])
            assert frame_start is not None
            assert slots[slot_i] == str(node)
            assert t == frame_start + 3568 + slot_i * 2600
            checked += 1
    assert checked > 10


def test_trace_files_are_reproducible(tmp_path):
    cfg = small("fps", duration_s=25.0, seed=4)
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    emit_trace(cfg, str(a))
    emit_trace(cfg, str(b))
    assert a.read_bytes() == b.read_bytes()
    assert a.stat().st_size > 0


# -- sweeps -------------------------------------------------------------------

def test_sweep_points_cover_the_experiment_grids():
    fig4 = sweep_points("fig4")
    fig5 = sweep_points("fig5")
    assert len(fig4) == 5 * 6 + 6   # five fragment sizes plus the TDMA column
    assert len(fig5) == 6 + 6       # one fragment size per protocol
    assert {p for p, _, _ in fig4} == {"frog", "fps"}
    assert all(fs == 8 for p, fs, _ in fig5 if p == "frog")
    with pytest.raises(ValueError):
        sweep_points("fig6")


def test_sweep_outputs(tmp_path):
    base = SimConfig(duration_s=2.0)
    csv_path, dat_path = run_sweep("fig5", base, str(tmp_path), seeds=range(1, 3))
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == (6 + 6) * 2
    assert set(r["protocol"] for r in rows) == {"frog", "fps"}
    assert all(r["fragment_size"] == "" for r in rows if r["protocol"] == "fps")
    assert all(r["fragment_size"] == "8" for r in rows if r["protocol"] == "frog")
    # rows are sorted by (n_emergency, fragment_size, protocol, seed)
    keys = [(int(r["n_emergency"]), r["protocol"], int(r["seed"])) for r in rows]
    assert keys == sorted(keys)

    with open(dat_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# protocol n_emergency fragment_size runs")
    assert len(lines) == 1 + 12
    runs_col = [line.split()[3] for line in lines[1:]]
    assert set(runs_col) == {"2"}


def test_sequential_and_concurrent_sweeps_are_identical(tmp_path):
    base = SimConfig(duration_s=2.0)
    seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
    seq_dir.mkdir(), par_dir.mkdir()
    seq_csv, seq_dat = run_sweep("fig5", base, str(seq_dir), seeds=range(1, 3), jobs=1)
    par_csv, par_dat = run_sweep("fig5", base, str(par_dir), seeds=range(1, 3), jobs=2)
    with open(seq_csv, "rb") as a, open(par_csv, "rb") as b:
        assert a.read() == b.read()
    with open(seq_dat, "rb") as a, open(par_dat, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("cpus,workers", [(4, 3), (None, 1), (1, 1)])
def test_a_sweep_starts_no_more_workers_than_runs_or_cpus(monkeypatch, cpus, workers):
    # The pool is replaced by a recorder that maps in this process, so no
    # process starts whatever --jobs asks for. Three runs on four CPUs get
    # three workers; one CPU, or an unknown count, runs in this process.
    import concurrent.futures

    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    configs = [small(duration_s=1.0, seed=s) for s in (1, 2, 3)]
    rows = harness.run_rows(configs, jobs=10**6)
    assert pools == ([workers] if workers > 1 else [])
    assert rows == harness.run_rows(configs, jobs=1)


# -- command line --------------------------------------------------------------

def test_cli_run_reports(capsys):
    assert main(["run", "--duration-s", "5", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "protocol=frog seed=2 duration_s=5.0" in out
    assert "backend=" in out
    assert "NORMAL" in out and "EMERGENCY" in out


def test_cli_run_states_flag(capsys):
    assert main(["run", "--duration-s", "5", "--states"]) == 0
    out = capsys.readouterr().out
    assert "node=0" in out and "energy_uj=" in out


def test_cli_print_config_lists_every_field(capsys):
    assert main(["run", "--print-config"]) == 0
    out = capsys.readouterr().out
    for field in dataclasses.fields(SimConfig):
        assert f"{field.name} = " in out
    assert "fragment_size = none" in out


def test_cli_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "base.cfg"
    path.write_text("seed = 5\nduration_s = 4.0\n")
    assert main(["run", "--config", str(path), "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "seed=9" in out
    assert "duration_s=4.0" in out


def test_cli_trace_writes_the_file(tmp_path, capsys):
    out_file = tmp_path / "run.trace"
    assert main(["trace", "--duration-s", "5", "--out", str(out_file)]) == 0
    assert out_file.stat().st_size > 0
    assert str(out_file) in capsys.readouterr().out


def test_cli_sweep_writes_both_outputs(tmp_path, capsys):
    code = main([
        "sweep", "--experiment", "fig5", "--seeds", "1",
        "--out", str(tmp_path), "--duration-s", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert (tmp_path / "fig5.csv").exists()
    assert (tmp_path / "fig5.dat").exists()
    assert "fig5.csv" in out and "fig5.dat" in out


def test_cli_rejects_config_errors(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_knob = 1\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--protocol", "fps", "--fragment-size", "8"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--protocol", "fps", "--slots-per-frame", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert main(["run", "--duration-s", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert main(["run", "--protocol", "fps", "--area-m", "0", "--duration-s", "300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert main(["run", "--duration-s", "2", "--backoff-unit-us", "-10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    for name, flags in (
        ("p_tx_mw", ["--p-tx-mw", "nan"]),
        ("p_rx_mw", ["--p-rx-mw", "inf"]),
        ("initial_energy_j", ["--protocol", "fps", "--initial-energy-j", "nan"]),
        ("initial_energy_j", ["--protocol", "fps", "--initial-energy-j", "inf"]),
        ("header_bytes", ["--header-bytes", "-30"]),
        ("frog_max_retries", ["--frog-max-retries", "-1"]),
        ("fps_max_retry_frames", ["--fps-max-retry-frames", "-1"]),
        ("ack_bytes", ["--ack-bytes", "0"]),
        ("indication_bytes", ["--indication-bytes", "0"]),
        ("slot_guard_us", ["--protocol", "fps", "--slot-guard-us", "10"]),
        # guard == cca: the EIS ack would still be on the air at the schedule broadcast
        ("slot_guard_us",
         ["--protocol", "fps", "--slot-guard-us", "128", "--n-emergency", "18"]),
        ("seed", ["--seed", "banana"]),
        # argparse reads a lone "-inf" as an option, not as the flag's value
        ("--p-tx-mw", ["--p-tx-mw", "-inf"]),
    ):
        assert main(["run", *flags]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert name in err, err
    # A sweep needs at least one seed and one worker; nothing runs otherwise.
    for flag, value in (("--seeds", "0"), ("--seeds", "-3"), ("--jobs", "0"), ("--jobs", "-1")):
        argv = ["sweep", "--experiment", "fig5", "--out", str(tmp_path), flag, value]
        assert main(argv) == 2, (flag, value)
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert flag in err, err
    assert not list(tmp_path.glob("fig5.*"))


def out_of_spec(field):
    """Text values the spec must refuse for one field.

    The non-finite values, and one step past each bound the field declares.
    """
    values = ["nan", "inf", "-inf"]
    bounds = field.metadata
    whole = field.type != "float"
    if "ge" in bounds:
        lo = bounds["ge"]
        values.append(repr(lo - 1 if whole else math.nextafter(lo, -math.inf)))
    if "gt" in bounds:
        values.append(repr(bounds["gt"]))
    if "le" in bounds:
        hi = bounds["le"]
        values.append(repr(hi + 1 if whole else math.nextafter(hi, math.inf)))
    if "lt" in bounds:
        values.append(repr(bounds["lt"]))
    if bounds.get("us"):
        values.append("4e-07")  # 0.4 us rounds to 0
    return values


def field_and_bad_value():
    fields = st.sampled_from(dataclasses.fields(SimConfig))
    return fields.flatmap(lambda f: st.tuples(st.just(f.name), st.sampled_from(out_of_spec(f))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(field_and_bad_value())
def test_cli_refuses_every_out_of_spec_value_by_name(case):
    name, value = case
    err = io.StringIO()
    # `--flag=value`: argparse takes a lone "-inf" or "-5e-324" for an option.
    flag = "--" + name.replace("_", "-")
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", f"{flag}={value}"])
    assert code == 2, (name, value)
    lines = err.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert name in lines[0], lines


@pytest.mark.parametrize("flags,want", [
    ([], SimConfig()),
    (
        ["--protocol", "fps", "--seed", "7", "--normal-interval-s", "0.3",
         "--slot-guard-us", "500", "--ack-loss-p", "0.125", "--p-idle-mw", "2.5",
         "--area-m", "33.3", "--initial-energy-j", "0.1"],
        SimConfig(protocol="fps", seed=7, normal_interval_s=0.3, slot_guard_us=500,
                  ack_loss_p=0.125, p_idle_mw=2.5, area_m=33.3, initial_energy_j=0.1),
    ),
], ids=["defaults", "fps"])
def test_print_config_reads_back_through_config(tmp_path, capsys, flags, want):
    assert main(["run", "--print-config", *flags]) == 0
    path = tmp_path / "echo.cfg"
    path.write_text(capsys.readouterr().out)
    assert parse_config(str(path)) == want


def child_env(**extra):
    """The environment of a child process that imports priomac from the tree
    under test, however pytest found it: pytest's own `pythonpath` setting
    does not reach children."""
    src = os.path.dirname(os.path.dirname(priomac.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "priomac", "run", "--duration-s", "2"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert "backend=" in proc.stdout


@pytest.mark.parametrize("protocol", ["frog", "fps"])
def test_run_states_is_the_same_under_any_hash_seed(protocol):
    # Detectors, a loaded channel and lost acks, in two processes whose
    # string hashes differ.
    args = [
        sys.executable, "-m", "priomac", "run", "--states", "--protocol", protocol,
        "--n-emergency", "6", "--normal-interval-s", "0.5", "--emergency-interval-s", "2",
        "--ack-loss-p", "0.3", "--duration-s", "20",
    ]
    outs = [
        subprocess.run(
            args, capture_output=True, check=True, env=child_env(PYTHONHASHSEED=seed)
        ).stdout
        for seed in ("0", "1")
    ]
    assert b"class=EMERGENCY generated=0 " not in outs[0]
    assert b"node=20 " in outs[0]
    assert outs[0] == outs[1]
