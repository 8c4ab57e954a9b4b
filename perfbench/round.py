"""One round of a workload, in a fresh process; prints one JSON line.

    python3 perfbench/round.py <workload> <seed> <plain|profile> <out_dir>

The process parses the workload's config through ``config.parse_config``
and makes its simulation calls through ``harness.run_once`` or
``harness.run_sweep``, once. It reports when the first simulated event
was dispatched (time.monotonic, comparable with the parent's clock, so
the parent gets set-up time from process start), the simulated and wall
seconds of the calls, and its peak resident memory. Then it checks every
output; failed checks come back as messages.

``profile`` runs the same calls under cProfile and adds the per-layer
split. It then runs each simulation again with an event trace, and
checks delivery delays against their floors, a fixed sample of fuzzy
scores against the reference implementation, and the traced reports
against the untraced ones.

Imports before the first event are kept to what set-up needs.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import dataclasses  # noqa: E402
import functools  # noqa: E402

from workloads import WORKLOADS, seeds  # noqa: E402

import priomac.harness as harness  # noqa: E402
from priomac.config import parse_config  # noqa: E402

first_event = []
runs = []  # (config, report) of every simulation call, in call order


class TimedEngine(harness.Engine):
    def run(self):
        if not first_event:
            first_event.append(time.monotonic())
        super().run()


_run_once = harness.run_once


@functools.wraps(_run_once)
def recorded_run_once(cfg, trace=None):
    report = _run_once(cfg, trace)
    runs.append((cfg, report))
    return report


harness.Engine = TimedEngine
harness.run_once = recorded_run_once


def simulate(name: str, seed: int, out_dir: str):
    """The workload's calls; returns (simulated seconds, sweep paths or None)."""
    w = WORKLOADS[name]
    sim_seeds = seeds(name, seed)
    cfg = parse_config(overrides=dict(w["overrides"], duration_s=w["duration_s"], seed=sim_seeds[0]))
    if w["kind"] == "sweep":
        paths = harness.run_sweep(w["experiment"], cfg, out_dir, seeds=sim_seeds, jobs=1)
        return len(runs) * w["duration_s"], paths
    for s in sim_seeds:
        harness.run_once(dataclasses.replace(cfg, seed=s))
    return len(sim_seeds) * w["duration_s"], None


def digest(reports) -> str:
    import hashlib

    h = hashlib.sha256()
    for rep in reports:
        h.update(repr(rep).encode())
    return h.hexdigest()


def check_outputs(paths) -> list[str]:
    """Per-run checks on every report, and the sweep's files."""
    import checks
    from priomac.traffic import build_population

    failures = []
    for cfg, rep in runs:
        nodes = build_population(
            cfg.n_nodes, cfg.n_emergency, cfg.seed, area_m=cfg.area_m,
            normal_interval_us=cfg.normal_interval_us,
            emergency_interval_us=cfg.emergency_interval_us,
        )
        want = checks.expected_generated(cfg, nodes)
        failures += checks.check_report(rep, cfg.duration_us, want)
    if paths is not None:
        csv_rows = checks.read_csv(paths[0])
        dat_rows = checks.read_dat(paths[1])
        failures += checks.check_csv_rows(csv_rows, runs)
        failures += checks.check_dat_means(csv_rows, dat_rows)
        failures += checks.check_claim(dat_rows)
    return failures


def check_traced(reports) -> list[str]:
    """Re-run each call with an event trace and a fuzzy-score recorder."""
    import checks
    import priomac.fuzzy

    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from _mamdani_ref import reference_core

    samples = []
    fuzzy_core = priomac.fuzzy.fuzzy_core

    def recorded_fuzzy_core(d, e, s):
        value = fuzzy_core(d, e, s)
        samples.append((d, e, s, value))
        return value

    priomac.fuzzy.fuzzy_core = recorded_fuzzy_core
    failures = []
    traced = []
    try:
        for cfg, _rep in runs:
            delays = []

            def sink(_t, _node, kind, detail):
                if kind == "delivery":
                    fields = dict(f.split("=", 1) for f in detail.split())
                    delays.append((fields["class"], int(fields["delay"])))

            traced.append(_run_once(cfg, trace=sink))
            failures += checks.check_delays(delays, checks.delay_floors(cfg))
    finally:
        priomac.fuzzy.fuzzy_core = fuzzy_core
    if digest(traced) != digest(reports):
        failures.append("a traced run's report differs from the untraced run's")
    # A fixed sample: every k-th call in call order, at most 2000 of them.
    stride = max(1, len(samples) // 1000)
    failures += checks.check_fuzzy(samples[::stride], reference_core)
    return failures


def main(argv) -> int:
    name, seed, mode, out_dir = argv[1], int(argv[2]), argv[3], argv[4]
    profile = None
    if mode == "profile":
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
    t = time.perf_counter()
    sim_s, paths = simulate(name, seed, out_dir)
    wall_s = time.perf_counter() - t
    if profile is not None:
        profile.disable()

    import json
    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reports = [rep for _cfg, rep in runs]
    result = {
        "first_event": first_event[0],
        "sim_s": sim_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "calls": len(runs),
        "digest": digest(reports),
        "failures": check_outputs(paths),
    }
    if profile is not None:
        import layers

        split = layers.split(profile)
        split["engine.events_per_packet"] = split["engine.events"] / sum(r.generated for r in reports)
        result["layers"] = split
        result["failures"] += check_traced(reports)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
