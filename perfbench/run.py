"""priomac benchmark: simulated seconds per wall-second, set-up time and
peak memory on four workloads, plus a profiled per-layer round.

    python3 perfbench/run.py --workload frog-fine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run repeats whole rounds of the workload for --seconds, each round in a
fresh process (perfbench/round.py) that simulates the workload once, and
reports medians over rounds:

  sim_rate     simulated seconds per wall-second of the simulation calls
  setup_s      process start to the first dispatched event
  peak_rss_mb  peak resident memory of the round's process

Every round's outputs are checked, and every round must give the same
reports as the first. With --trace 1 the run also makes one profiled
round and prints the per-layer numbers instead, with the profiler's
overhead over the untraced rounds. The last line of standard output is
one JSON object: correct, attempted, failed and metrics. No installation
is needed: each round puts the checkout's src/ on its import path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, calls_per_round

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ROUND = os.path.join(HERE, "round.py")
OUT = os.path.join(HERE, "out")
ROUND_TIMEOUT_S = 60

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_round(workload: str, seed: int, mode: str) -> tuple[dict | None, float]:
    """One round in a fresh process: (its JSON result or None, start time)."""
    out_dir = os.path.join(OUT, f"{workload}-seed{seed}")
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, ROUND, workload, str(seed), mode, out_dir],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, t0
    return json.loads(lines[-1]), t0


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds for `seconds`, then (traced) one profiled round; the result line."""
    per_round = calls_per_round(workload)
    attempted = failed = 0
    failures: list[str] = []
    good = []  # results of the rounds whose process completed
    start = time.monotonic()
    while not attempted or time.monotonic() - start < seconds:
        res, t0 = run_round(workload, seed, "plain")
        attempted += per_round
        if res is None:
            failed += per_round
            continue
        if good and res["digest"] != good[0]["digest"]:
            res["failures"].append("a round's reports differ from the first round's")
        if res["failures"]:
            failed += per_round
            failures += res["failures"]
        res["setup_s"] = res["first_event"] - t0
        res["sim_rate"] = res["sim_s"] / res["wall_s"]
        good.append(res)
    rounds = attempted // per_round
    if not good:
        raise RuntimeError(f"{workload}: every round failed")
    metrics = {
        name: statistics.median(r[name] for r in good) for name in END_TO_END
    }
    units = END_TO_END
    if trace:
        prof, _t0 = run_round(workload, seed, "profile")
        attempted += per_round
        if prof is None:
            raise RuntimeError(f"{workload}: the profiled round failed")
        if prof["digest"] != good[0]["digest"]:
            prof["failures"].append("the profiled round's reports differ from the untraced rounds'")
        if prof["failures"]:
            failed += per_round
            failures += prof["failures"]
        wall_s = statistics.median(r["wall_s"] for r in good)
        metrics = dict(prof["layers"])
        metrics["engine.events_per_s"] = metrics["engine.events"] / wall_s
        metrics["trace.overhead"] = prof["wall_s"] / wall_s
        units = PER_LAYER
    for msg in failures[:10]:
        print(f"FAILED CHECK {workload}: {msg}", file=sys.stderr)
    if len(failures) > 10:
        print(f"FAILED CHECK {workload}: ... {len(failures)} failures in all", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "rounds": rounds,
        "samples": {name: [r[name] for r in good] for name in END_TO_END},
    }


def environment() -> dict:
    import priomac

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": sha,
        "backend": priomac.BACKEND,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "priomac", "__init__.py")):
        print(f"no priomac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env = environment()
    print("environment " + json.dumps(env))
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = {}
    for workload, trace in runs:
        res = bench(workload, args.seed, args.seconds, trace)
        results[f"{workload}-trace{int(trace)}"] = res
        print(f"{workload} ({'traced' if trace else 'untraced'}, {res['rounds']} rounds): "
              f"attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "results": results}, fh, indent=1)
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {},
    }
    for key, res in results.items():
        prefix = "" if len(results) == 1 else key + "."
        for name, m in res["metrics"].items():
            line["metrics"][prefix + name] = m
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
