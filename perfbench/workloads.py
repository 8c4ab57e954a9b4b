"""The four benchmark workloads: what each round simulates.

A round is the unit the benchmark repeats: one fresh process that parses
the workload's config through ``config.parse_config`` and runs its
simulation calls once. Every round of a run repeats the same calls with
the same seeds, so rounds can be compared with each other exactly.

This module is imported before the first simulated event of a round, so
it stays free of imports that would count against the measured set-up.
"""

WORKLOADS = {
    # Heaviest point of the fig4 sweep: every 34-byte normal packet becomes
    # 17 fragments of about 5 events each, so the event engine and frog's
    # handlers do nearly all the work; fuzzy scoring and the ledger idle.
    "frog-fine": {
        "kind": "run",
        "overrides": {"protocol": "frog", "fragment_size": 2, "n_emergency": 18},
        "duration_s": 400.0,
        "n_seeds": 2,
    },
    # The fps column of fig4/fig5: most frames are empty and fast-forwarded,
    # so the frame cycle and the energy ledger dominate. Two members whose
    # phases lie within one frame of each other share frames, and so call
    # the fuzzy scorer, for the whole run (a 10 s interval is within 0.03%
    # of 180 frames). Fuzzy scoring is about a quarter of the time and the
    # number of such pairs is the seed's, so a round averages 32 seeds.
    "fps-sparse": {
        "kind": "run",
        "overrides": {"protocol": "fps", "n_emergency": 18},
        "duration_s": 50.0,
        "n_seeds": 32,
    },
    # Every frame has claimants, so nothing is fast-forwarded and the fuzzy
    # slot scoring dominates: the opposite use of fps and the ledger. The
    # interval is 0.3 s, not 0.5 s: 0.5 s is within 0.02% of 9 frames, which
    # fixes each member's offset in the frame for the whole run, so the
    # number of fuzzy calls (and the rate) would depend on the seed.
    "fps-busy": {
        "kind": "run",
        "overrides": {"protocol": "fps", "n_emergency": 18, "normal_interval_s": 0.3},
        "duration_s": 15.0,
        "n_seeds": 1,
    },
    # The paper's comparison as users run it: run_sweep("fig5") with four
    # seeds (its fps points share fps-sparse's frame pairs) and a short
    # duration; the only workload through the harness's aggregation and
    # CSV/.dat output.
    "fig5-sweep": {
        "kind": "sweep",
        "experiment": "fig5",
        "overrides": {},
        "duration_s": 100.0,
        "n_seeds": 4,
    },
}


def seeds(name: str, seed: int) -> list[int]:
    """Simulation seeds of one round; disjoint for different benchmark seeds."""
    k = WORKLOADS[name]["n_seeds"]
    return list(range(seed * k, seed * k + k))


def calls_per_round(name: str) -> int:
    """Simulation calls (run_once invocations) in one round."""
    w = WORKLOADS[name]
    if w["kind"] == "sweep":
        from priomac.harness import sweep_points

        return len(sweep_points(w["experiment"])) * w["n_seeds"]
    return w["n_seeds"]
