"""Acceptance gate: the nine run-level properties the simulator must hold.

Each test covers one numbered criterion and prints a single PASS/FAIL
verdict line (visible with -s, or in the captured output on failure).
The two sweep fixtures run the real experiment grids at default scale,
so this module dominates the suite's runtime by design.

Each grid run happens once: criterion 2 reads the fig5 fixture's rows,
and the fig4 fixture runs only the points fig5 lacks. Only criterion 1
times a sweep, so only the fig5 runs are serial; the rest of fig4 uses up
to ``JOBS`` processes: a run's outputs do not depend on the process it runs
in (criterion 9).
"""

import csv
import os
import random
import statistics
import time
from dataclasses import astuple

import pytest

from _mamdani_ref import reference_core
from priomac.config import SimConfig
from priomac.engine import SINK, Engine, tx_duration_us
from priomac.frog import FrogMac, SinkReassembler, fragment
from priomac.fuzzy import fuzzy_core, priority_score
from priomac.harness import (
    EMERGENCY_COUNTS,
    FRAGMENT_SIZES,
    emit_trace,
    run_rows,
    run_sweep,
    sweep_configs,
    write_sweep,
)
from priomac.metrics import EnergyLedger, MetricsCollector
from priomac.traffic import EMERGENCY, NORMAL, NodeConfig, Packet, build_population

BASE = SimConfig()
SEEDS = range(1, 11)
JOBS = min(2, os.cpu_count() or 1)


def verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {tag}"
    if detail:
        line += f" - {detail}"
    print(line)
    return ok


def load_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = []
        for r in csv.DictReader(fh):
            rows.append(
                {
                    "protocol": r["protocol"],
                    "n_emergency": int(r["n_emergency"]),
                    "fragment_size": int(r["fragment_size"]) if r["fragment_size"] else None,
                    "seed": int(r["seed"]),
                    "em": float(r["mean_delay_emergency_us"]) if r["mean_delay_emergency_us"] else None,
                    "norm": float(r["mean_delay_normal_us"]) if r["mean_delay_normal_us"] else None,
                    "energy": float(r["energy_per_delivered_uj"]) if r["energy_per_delivered_uj"] else None,
                }
            )
    return rows


def load_dat(path):
    # protocol n_emergency fragment_size runs em_mean em_std norm_mean norm_std
    # all_mean all_std energy_mean energy_std
    agg = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            f = line.split()
            fs = None if f[2] == "-" else int(f[2])
            agg[(f[0], int(f[1]), fs)] = {
                "em": float(f[4]),
                "em_std": float(f[5]),
                "norm": float(f[6]),
                "energy": float(f[10]),
            }
    return agg


def fig4_rows(fig5_runs, base, seeds, jobs):
    """fig4's rows: fig5's runs over the same base and seeds, plus the rest."""
    done = {astuple(cfg) for cfg in sweep_configs("fig5", base, seeds)}
    rest = [cfg for cfg in sweep_configs("fig4", base, seeds) if astuple(cfg) not in done]
    return fig5_runs + run_rows(rest, jobs)


@pytest.fixture(scope="module")
def fig5(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig5")
    # A cold sweep at jobs=1, as run_sweep would run it.
    t0 = time.perf_counter()
    runs = run_rows(sweep_configs("fig5", BASE, SEEDS), jobs=1)
    csv_path, dat_path = write_sweep("fig5", runs, str(out))
    elapsed = time.perf_counter() - t0
    return {
        "runs": runs,
        "rows": load_csv(csv_path),
        "agg": load_dat(dat_path),
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def fig4(fig5, tmp_path_factory):
    out = tmp_path_factory.mktemp("fig4")
    rows = fig4_rows(fig5["runs"], BASE, SEEDS, JOBS)
    csv_path, dat_path = write_sweep("fig4", rows, str(out))
    return {"rows": load_csv(csv_path), "agg": load_dat(dat_path)}


def test_fig4_from_fig5_runs_equals_a_fresh_sweep(tmp_path):
    base, seeds = SimConfig(duration_s=20.0), range(1, 3)
    fig5_runs = run_rows(sweep_configs("fig5", base, seeds))
    merged = write_sweep("fig4", fig4_rows(fig5_runs, base, seeds, 1), str(tmp_path / "merged"))
    fresh = run_sweep("fig4", base, str(tmp_path / "fresh"), seeds=seeds)
    for a, b in zip(merged, fresh):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), os.path.basename(a)


# -- 1: delay ordering --------------------------------------------------------

def test_criterion_1_delay_ordering(fig5):
    em = {
        (r["protocol"], r["n_emergency"], r["seed"]): r["em"] for r in fig5["rows"]
    }
    violations = [
        (ne, seed)
        for ne in EMERGENCY_COUNTS
        for seed in SEEDS
        if not em[("frog", ne, seed)] < em[("fps", ne, seed)]
    ]
    in_budget = fig5["elapsed"] < 300.0
    ok = not violations and in_budget
    assert verdict(
        1,
        "delay ordering",
        ok,
        f"0 violations across {len(EMERGENCY_COUNTS) * len(SEEDS)} point/seed pairs, "
        f"sweep {fig5['elapsed']:.0f}s"
        if ok
        else f"violations={violations} elapsed={fig5['elapsed']:.0f}s",
    )


# -- 2: load trend -------------------------------------------------------------

def inversions(curve):
    out = []
    for i in range(1, len(curve)):
        prev, cur = curve[i - 1], curve[i]
        if cur < prev:
            out.append((i, prev, cur, (prev - cur) / prev))
    return out


def detectors(seed, n_emergency):
    """The detector ids of one sweep run, as run_once places them."""
    nodes = build_population(
        BASE.n_nodes, n_emergency, seed,
        area_m=BASE.area_m,
        normal_interval_us=BASE.normal_interval_us,
        emergency_interval_us=BASE.emergency_interval_us,
    )
    return {nc.node_id for nc in nodes if nc.emergency}


def cohort_curve(fig5, protocol):
    """Mean emergency delay of a fixed detector cohort at each n_emergency.

    The cohort of a seed is its detector set at the smallest n_emergency;
    detector sets nest, so those nodes are detectors at every point and the
    curve measures the load the added detectors bring, not which detectors
    happen to be averaged. Each run's mean over all its detectors must
    match the sweep's CSV row, which pins the per-source delays to the
    sweep's runs.
    """
    csv_em = {(r["protocol"], r["n_emergency"], r["seed"]): r["em"] for r in fig5["rows"]}
    by_src = {
        (r["n_emergency"], r["seed"]): r["emergency_by_src"]
        for r in fig5["runs"]
        if r["protocol"] == protocol
    }
    cohorts = {seed: detectors(seed, EMERGENCY_COUNTS[0]) for seed in SEEDS}
    per_point = {ne: [] for ne in EMERGENCY_COUNTS}
    for ne in EMERGENCY_COUNTS:
        for seed in SEEDS:
            tallies = by_src[(ne, seed)]
            run_detectors = detectors(seed, ne)
            assert cohorts[seed] <= run_detectors, (protocol, ne, seed)
            assert set(tallies) <= run_detectors, (protocol, ne, seed)
            count = sum(c for c, _ in tallies.values())
            run_mean = sum(s for _, s in tallies.values()) / count
            assert float(f"{run_mean:.3f}") == csv_em[(protocol, ne, seed)], (protocol, ne, seed)
            cohort = [tallies[src] for src in cohorts[seed] if src in tallies]
            per_point[ne].append(sum(s for _, s in cohort) / sum(c for c, _ in cohort))
    return [statistics.mean(per_point[ne]) for ne in EMERGENCY_COUNTS]


def test_criterion_2_load_trend(fig5):
    detail = []
    ok = True
    for proto in ("frog", "fps"):
        fs = 8 if proto == "frog" else None
        curve = cohort_curve(fig5, proto)
        inv = inversions(curve)
        proto_ok = len(inv) <= 1 and all(rel <= 0.05 for _, _, _, rel in inv)
        ok = ok and proto_ok
        sweep = [fig5["agg"][(proto, ne, fs)] for ne in EMERGENCY_COUNTS]
        print(f"  {proto} emergency delay over n_emergency={list(EMERGENCY_COUNTS)}:")
        print(f"    fixed cohort:  {[round(v, 1) for v in curve]}")
        print(f"    all detectors: {[round(a['em'], 1) for a in sweep]}")
        print(f"    (seed std)     {[round(a['em_std'], 1) for a in sweep]}")
        print(f"    cohort inversions: {[(i, round(rel * 100, 2)) for i, _, _, rel in inv]} (index, % drop)")
        detail.append(f"{proto}: {len(inv)} inversions")
    assert verdict(2, "load trend", ok, "; ".join(detail))


# -- 3: fragment-size sensitivity ------------------------------------------------

def test_criterion_3_fragment_size_sensitivity(fig4):
    agg = fig4["agg"]
    overhead_ok = all(
        agg[("frog", ne, 2)]["norm"] > agg[("frog", ne, 32)]["norm"]
        for ne in EMERGENCY_COUNTS
    )
    spreads = []
    for ne in EMERGENCY_COUNTS:
        ems = [agg[("frog", ne, fs)]["em"] for fs in FRAGMENT_SIZES]
        spreads.append((max(ems) - min(ems)) / min(ems))
    spread_ok = all(s <= 0.5 for s in spreads)
    ok = overhead_ok and spread_ok
    assert verdict(
        3,
        "fragment-size sensitivity",
        ok,
        f"normal fs2>fs32 at every point={overhead_ok}, "
        f"max emergency spread {max(spreads) * 100:.2f}% of min (limit 50%)",
    )


# -- 4: energy ordering ----------------------------------------------------------

def test_criterion_4_energy_ordering(fig5):
    agg = fig5["agg"]
    pairs = {
        ne: (agg[("frog", ne, 8)]["energy"], agg[("fps", ne, None)]["energy"])
        for ne in EMERGENCY_COUNTS
    }
    bad = {ne: p for ne, p in pairs.items() if not p[0] < p[1]}
    ok = not bad
    worst = max(pairs.values(), key=lambda p: p[0] / p[1])
    assert verdict(
        4,
        "energy ordering",
        ok,
        f"uJ/delivered frog<fps at all {len(pairs)} points; closest ratio "
        f"{worst[0]:.1f}/{worst[1]:.1f}"
        if ok
        else f"violated at {bad}",
    )


# -- 5: preemption guarantee -------------------------------------------------------

def preemption_trace(fs, seed):
    # Node 1 starts a fragmented packet at t=0; node 2's emergency arrives
    # after fragment 1's ack for every possible backoff draw, inside the
    # window where the gap guarantee must hand it the channel next.
    air0 = tx_duration_us(min(fs, 34) + 5)
    em_at = air0 + 2700
    nodes = [
        NodeConfig(1, 10.0, 10.0, False, 0, 0),
        NodeConfig(2, 20.0, 20.0, True, 40_000_000, em_at),
    ]
    rec = []
    eng = Engine(duration_us=60_000, trace=lambda t, n, k, d: rec.append((t, n, k, d)))
    metrics = MetricsCollector()
    cfg = SimConfig(seed=seed, fragment_size=fs)
    ledger = EnergyLedger([SINK, 1, 2], cfg.power_mw)
    mac = FrogMac(eng, nodes, metrics, ledger, cfg)
    mac.start()
    eng.run()
    return em_at, rec, metrics.summarize(ledger, 60_000, mac.queues)


def test_criterion_5_preemption_guarantee():
    worst_wait = 0
    for fs in FRAGMENT_SIZES:
        for seed in (1, 2, 3):
            em_at, rec, rep = preemption_trace(fs, seed)
            data_starts = [
                (t, n, d)
                for t, n, k, d in rec
                if k == "tx-start" and d.startswith("kind=data")
            ]
            after = [s for s in data_starts if s[0] > em_at]
            # the very next frame on the channel is the emergency, whole
            assert after[0][1] == 2, (fs, seed, after[:3])
            assert after[0][2].startswith("kind=data-whole"), (fs, seed)
            # and nothing from node 1 sneaks in before its ack completes
            em_end = next(
                t for t, n, k, d in rec
                if k == "tx-end" and n == 2 and d.startswith("kind=data-whole")
            )
            intruders = [s for s in after[1:] if s[0] < em_end + 352]
            assert not intruders, (fs, seed, intruders)
            assert rep.classes[EMERGENCY].delivered == 1
            worst_wait = max(worst_wait, after[0][0] - em_at)
    # contention never exceeds ifs_high + max backoff
    ok = worst_wait <= 192 + 3 * 160
    assert verdict(
        5,
        "preemption guarantee",
        ok,
        f"emergency seizes the next gap for fs in {FRAGMENT_SIZES}; "
        f"worst wait {worst_wait}us <= 672us",
    )


# -- 6: fragmentation oracle ---------------------------------------------------------

def test_criterion_6_fragmentation_round_trip():
    for size in range(1, 35):
        p = Packet(size, 1, NORMAL, 0, 34)
        frags = fragment(p, size)
        assert len(frags) == -(-34 // size)
        assert sum(f.payload_bytes for f in frags) == 34
        sink = SinkReassembler()
        order = list(frags)
        random.Random(size).shuffle(order)
        done = [sink.receive(f) for f in order]
        assert done.count(True) == 1 and done[-1] is True
        assert sink.is_complete(p.pid) and sink.payload_bytes(p.pid) == 34
    assert verdict(6, "fragmentation oracle", True, "round-trip for sizes 1..34")


# -- 7: fuzzy engine oracle -------------------------------------------------------------

def test_criterion_7_fuzzy_oracle():
    rng = random.Random(99)
    dominance_ok = all(
        priority_score(rng.random(), rng.random(), rng.random(), 1)
        >= priority_score(rng.random(), rng.random(), rng.random(), 0)
        for _ in range(10_000)
    )
    worst = max(
        abs(fuzzy_core(d, e, s) - reference_core(d, e, s))
        for d, e, s in ((rng.random(), rng.random(), rng.random()) for _ in range(1_000))
    )
    center = abs(fuzzy_core(0.5, 0.5, 0.5) - 0.5)
    ok = dominance_ok and worst <= 1e-9 and center <= 1e-9
    assert verdict(
        7,
        "fuzzy engine oracle",
        ok,
        f"10000 dominance pairs, dual-impl max err {worst:.2e}, center off by {center:.2e}",
    )


# -- 8: protocol safety ---------------------------------------------------------------

def frog_trace_is_safe(path, rep):
    clean_frags = {}   # pid -> set of fragment indices seen clean
    deliveries = arrivals = drops = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            t, node, kind, detail = line.rstrip("\n").split(" ", 3)
            if kind == "arrival":
                arrivals += 1
            elif kind == "drop":
                drops += 1
            elif kind == "tx-end" and "kind=data-frag" in detail:
                if detail.endswith("corrupted=0"):
                    pid = int(detail.split("id=")[1].split(" ")[0])
                    frag = detail.split("frag=")[1].split(" ")[0]
                    idx, count = frag.split("/")
                    clean_frags.setdefault(pid, (set(), int(count)))[0].add(int(idx))
            elif kind == "delivery":
                deliveries += 1
                pid = int(detail.split("id=")[1].split(" ")[0])
                if "class=NORMAL" in detail:
                    seen, count = clean_frags.get(pid, (set(), -1))
                    # every fragment reached the sink clean before delivery
                    if len(seen) != count:
                        return False, f"packet {pid} delivered from {len(seen)}/{count} clean fragments"
    if arrivals != rep.generated or deliveries != rep.delivered or drops != rep.dropped:
        return False, "trace and report disagree on packet counts"
    return True, f"{deliveries} deliveries, all built from clean fragments only"


def fps_trace_is_safe(path, rep):
    data_ends = corrupted = deliveries = arrivals = drops = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            t, node, kind, detail = line.rstrip("\n").split(" ", 3)
            if kind == "arrival":
                arrivals += 1
            elif kind == "drop":
                drops += 1
            elif kind == "delivery":
                deliveries += 1
            elif kind == "tx-end" and detail.startswith("kind=data-whole"):
                data_ends += 1
                if not detail.endswith("corrupted=0"):
                    corrupted += 1
    if corrupted:
        return False, f"{corrupted} of {data_ends} data slots collided"
    if arrivals != rep.generated or deliveries != rep.delivered or drops != rep.dropped:
        return False, "trace and report disagree on packet counts"
    return True, f"{data_ends} data slots, zero collisions"


def test_criterion_8_protocol_safety(tmp_path):
    details = []
    ok = True
    for proto, checker in (("frog", frog_trace_is_safe), ("fps", fps_trace_is_safe)):
        cfg = SimConfig(protocol=proto, n_emergency=18, seed=1)
        path = tmp_path / f"{proto}.trace"
        rep = emit_trace(cfg, str(path))
        for stats in rep.classes.values():
            assert stats.generated == stats.delivered + stats.dropped + stats.in_flight
            assert stats.in_flight >= 0
        good, note = checker(str(path), rep)
        ok = ok and good
        details.append(f"{proto}: {note}")
    assert verdict(8, "protocol safety", ok, "; ".join(details))


# -- 9: determinism ---------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    ok = True
    notes = []
    for proto in ("frog", "fps"):
        cfg = SimConfig(protocol=proto, n_emergency=9, seed=5, duration_s=500.0)
        a, b = tmp_path / f"{proto}-a.trace", tmp_path / f"{proto}-b.trace"
        emit_trace(cfg, str(a))
        emit_trace(cfg, str(b))
        same = a.read_bytes() == b.read_bytes()
        ok = ok and same
        notes.append(f"{proto} trace replay {'identical' if same else 'DIVERGED'}")

    base = SimConfig(duration_s=50.0)
    outputs = []
    for name, jobs in (("s1", 1), ("s2", 1), ("p2", 2)):
        d = tmp_path / name
        d.mkdir()
        csv_path, dat_path = run_sweep("fig5", base, str(d), seeds=range(1, 4), jobs=jobs)
        with open(csv_path, "rb") as fh:
            csv_bytes = fh.read()
        with open(dat_path, "rb") as fh:
            dat_bytes = fh.read()
        outputs.append((csv_bytes, dat_bytes))
    sweeps_same = outputs[0] == outputs[1] == outputs[2]
    ok = ok and sweeps_same
    notes.append(
        "sweep rerun and 2-process sweep byte-identical"
        if sweeps_same
        else "sweep outputs DIVERGED"
    )
    assert verdict(9, "determinism", ok, "; ".join(notes))
