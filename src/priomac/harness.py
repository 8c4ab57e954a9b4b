"""Single runs, trace capture, and the two stock experiment sweeps.

Sweep output is one CSV row per (point, seed) plus a whitespace-separated
plot-data file aggregating mean and stddev across seeds per point. Rows
sort by (n_emergency, fragment_size, protocol, seed) so concurrent and
sequential execution write byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import statistics

from .config import SimConfig
from .engine import SINK, Engine
from .fps import FpsMac
from .frog import FrogMac
from .metrics import EnergyLedger, MetricsCollector, RunReport
from .traffic import EMERGENCY, NORMAL, build_population

# Experiment presets. fig4 crosses fragment size with detector count for
# the fragmenting MAC (the TDMA MAC has no fragment axis, so it
# contributes one curve); fig5 fixes fragment size 8 and sweeps the
# number of emergency-capable nodes for both protocols.
FRAGMENT_SIZES = (2, 4, 8, 16, 32)
EMERGENCY_COUNTS = (3, 6, 9, 12, 15, 18)
EXPERIMENTS = ("fig4", "fig5")

CSV_COLUMNS = (
    "protocol",
    "n_emergency",
    "fragment_size",
    "seed",
    "mean_delay_emergency_us",
    "mean_delay_normal_us",
    "mean_delay_all_us",
    "delivered",
    "dropped",
    "energy_per_delivered_uj",
)


def run_once(cfg: SimConfig, trace=None) -> RunReport:
    cfg.validate()
    eng = Engine(cfg.duration_us, cfg.bitrate_bps, trace)
    nodes = build_population(
        cfg.n_nodes, cfg.n_emergency, cfg.seed,
        area_m=cfg.area_m,
        normal_interval_us=cfg.normal_interval_us,
        emergency_interval_us=cfg.emergency_interval_us,
    )
    metrics = MetricsCollector()
    ledger = EnergyLedger([SINK] + [nc.node_id for nc in nodes], cfg.power_mw)
    mac = FrogMac if cfg.protocol == "frog" else FpsMac
    proto = mac(eng, nodes, metrics, ledger, cfg)
    proto.start()
    eng.run()
    proto.finish()
    return metrics.summarize(ledger, cfg.duration_us, proto.queues)


def emit_trace(cfg: SimConfig, path: str) -> RunReport:
    """Run once and write the event trace, one `time node kind detail` per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        def sink(time_us, node, kind, detail):
            fh.write(f"{time_us} {node} {kind} {detail}\n")
        return run_once(cfg, trace=sink)


def sweep_points(experiment: str) -> list[tuple[str, int | None, int]]:
    """(protocol, fragment_size, n_emergency) tuples for one experiment id."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; pick one of {EXPERIMENTS}")
    points = []
    if experiment == "fig4":
        for fs in FRAGMENT_SIZES:
            for ne in EMERGENCY_COUNTS:
                points.append(("frog", fs, ne))
    else:
        for ne in EMERGENCY_COUNTS:
            points.append(("frog", 8, ne))
    for ne in EMERGENCY_COUNTS:
        points.append(("fps", None, ne))
    return points


def _run_row(cfg: SimConfig) -> dict:
    """One run as a sweep row: the CSV_COLUMNS cells, plus the report's
    per-source emergency delays under "emergency_by_src"."""
    report = run_once(cfg)
    em = report.classes[EMERGENCY]
    no = report.classes[NORMAL]
    return {
        "protocol": cfg.protocol,
        "n_emergency": cfg.n_emergency,
        "fragment_size": cfg.resolved_fragment_size() if cfg.protocol == "frog" else None,
        "seed": cfg.seed,
        "mean_delay_emergency_us": em.mean_us,
        "mean_delay_normal_us": no.mean_us,
        "mean_delay_all_us": report.mean_all_us,
        "delivered": report.delivered,
        "dropped": report.dropped,
        "energy_per_delivered_uj": report.energy_per_delivered_uj,
        "emergency_by_src": report.emergency_by_src,
    }


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _row_key(row: dict):
    return (
        row["n_emergency"],
        row["fragment_size"] or 0,
        row["protocol"],
        row["seed"],
    )


def _mean_std(values: list) -> tuple[float, float]:
    vals = [v for v in values if v is not None]
    if not vals:
        return math.nan, math.nan
    if len(vals) == 1:
        return vals[0], 0.0
    return statistics.mean(vals), statistics.stdev(vals)


def sweep_configs(experiment: str, base: SimConfig, seeds) -> list[SimConfig]:
    """One config per (point, seed) of an experiment preset, over `base`."""
    seeds = list(seeds)
    return [
        dataclasses.replace(
            base, protocol=protocol, fragment_size=fs, n_emergency=ne, seed=seed
        )
        for protocol, fs, ne in sweep_points(experiment)
        for seed in seeds
    ]


def run_rows(configs, jobs: int = 1) -> list[dict]:
    """One sweep row per config, in config order, over up to `jobs` processes.

    No more workers start than there are configs or CPUs; with one, the
    rows are computed in this process.
    """
    configs = list(configs)
    workers = min(jobs, len(configs), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it pulls in multiprocessing, which every other
        # process would pay for in start-up time and memory.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_row, configs, chunksize=1))
    return [_run_row(cfg) for cfg in configs]


def write_sweep(experiment: str, rows, out_dir: str) -> tuple[str, str]:
    """Write an experiment's rows as `<experiment>.csv` and `.dat` in out_dir.

    Rows may come in any order; returns (csv_path, plot_data_path).
    """
    rows = sorted(rows, key=_row_key)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{experiment}.csv")
    dat_path = os.path.join(out_dir, f"{experiment}.dat")

    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(row[c]) for c in CSV_COLUMNS])

    # Aggregate across seeds per (point, protocol), preserving row order.
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["n_emergency"], row["fragment_size"] or 0, row["protocol"])
        groups.setdefault(key, []).append(row)

    agg_cols = (
        "mean_delay_emergency_us",
        "mean_delay_normal_us",
        "mean_delay_all_us",
        "energy_per_delivered_uj",
    )
    with open(dat_path, "w", encoding="utf-8", newline="\n") as fh:
        header = ["protocol", "n_emergency", "fragment_size", "runs"]
        for col in agg_cols:
            header.append(f"{col}_mean")
            header.append(f"{col}_std")
        fh.write("# " + " ".join(header) + "\n")
        for key in sorted(groups):
            members = groups[key]
            first = members[0]
            fs = first["fragment_size"]
            cells = [
                first["protocol"],
                str(first["n_emergency"]),
                str(fs) if fs is not None else "-",
                str(len(members)),
            ]
            for col in agg_cols:
                m, s = _mean_std([row[col] for row in members])
                cells.append(f"{m:.3f}" if not math.isnan(m) else "nan")
                cells.append(f"{s:.3f}" if not math.isnan(s) else "nan")
            fh.write(" ".join(cells) + "\n")

    return csv_path, dat_path


def run_sweep(
    experiment: str,
    base: SimConfig,
    out_dir: str,
    seeds=None,
    jobs: int = 1,
) -> tuple[str, str]:
    """Run one experiment preset; returns (csv_path, plot_data_path)."""
    if seeds is None:
        seeds = range(1, 11)
    configs = sweep_configs(experiment, base, seeds)
    return write_sweep(experiment, run_rows(configs, jobs), out_dir)
