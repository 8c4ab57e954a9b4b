"""Checks of the simulator's outputs against properties it must have.

Every expected value here is worked out from the inputs, not read from a
saved copy of an earlier output: arrival counts from each node's phase and
interval, delay floors from airtime arithmetic, fuzzy scores from an
independent implementation, sweep aggregates from the sweep's own rows.

Each check returns a list of failure messages; an empty list means pass.
The functions take plain data (reports, node configs, parsed files) and
import nothing from the package, so the self-test can feed them broken
inputs directly.
"""

from __future__ import annotations

import csv
import math

EMERGENCY = "EMERGENCY"
NORMAL = "NORMAL"

# Columns the sweep's .dat file aggregates over seeds (mean and std each).
AGG_COLUMNS = (
    "mean_delay_emergency_us",
    "mean_delay_normal_us",
    "mean_delay_all_us",
    "energy_per_delivered_uj",
)
# CSV cells and .dat means are both printed with three decimals, so a mean
# of the printed cells may differ from the printed mean by one unit in the
# last place of each.
DAT_TOLERANCE = 1e-3 + 1e-9
FUZZY_TOLERANCE = 1e-9


def arrivals(phase_us: int, interval_us: int, duration_us: int) -> int:
    """Arrivals at phase + k*interval that fall inside [0, duration]."""
    if phase_us > duration_us:
        return 0
    return (duration_us - phase_us) // interval_us + 1


def expected_generated(cfg, nodes) -> dict[str, int]:
    """Packets each class must generate, from the population's phases."""
    d = cfg.duration_us
    normal = sum(arrivals(n.normal_phase_us, cfg.normal_interval_us, d) for n in nodes)
    emergency = sum(
        arrivals(n.emergency_phase_us, cfg.emergency_interval_us, d)
        for n in nodes
        if n.emergency
    )
    return {EMERGENCY: emergency, NORMAL: normal}


def check_report(report, duration_us: int, generated: dict[str, int]) -> list[str]:
    """Energy closure, arrival counts and packet conservation of one run."""
    out = []
    for node, spans in sorted(report.node_state_us.items()):
        if sum(spans) != duration_us:
            out.append(f"node {node}: state spans sum to {sum(spans)} us, not {duration_us}")
    for klass, want in generated.items():
        st = report.classes[klass]
        if st.generated != want:
            out.append(f"{klass}: generated {st.generated}, arrivals say {want}")
        if st.delivered + st.dropped > st.generated:
            out.append(
                f"{klass}: delivered {st.delivered} + dropped {st.dropped}"
                f" > generated {st.generated}"
            )
    totals = [sum(getattr(st, f) for st in report.classes.values())
              for f in ("generated", "delivered", "dropped")]
    if totals != [report.generated, report.delivered, report.dropped]:
        out.append(f"class totals {totals} disagree with the report's "
                   f"{[report.generated, report.delivered, report.dropped]}")
    return out


def airtime_us(nbytes: int, bitrate_bps: int) -> int:
    """bytes * 8 / bitrate, rounded up to a whole microsecond."""
    return -(-nbytes * 8 * 1_000_000 // bitrate_bps)


def delay_floors(cfg) -> dict[str, int]:
    """Least possible delay per class: the uncontended exchange, end to end.

    frog: an emergency packet waits the short IFS, goes out whole and is
    acked; a normal packet waits the long IFS, then each fragment goes out
    and is acked, with the fragment gap plus the long IFS between them.
    fps: a packet queued before a frame starts is sent in its first data
    slot, after the indication slot and the control period.
    """
    def air(nbytes: int) -> int:
        return airtime_us(nbytes, cfg.bitrate_bps)

    ack = air(cfg.ack_bytes)
    if cfg.protocol == "frog":
        fs = cfg.fragment_size if cfg.fragment_size is not None else min(8, cfg.payload_bytes)
        sizes = [fs] * (cfg.payload_bytes // fs)
        if cfg.payload_bytes % fs:
            sizes.append(cfg.payload_bytes % fs)
        normal = (
            cfg.ifs_low_us
            + sum(air(s + cfg.header_bytes) + ack for s in sizes)
            + (len(sizes) - 1) * (cfg.fragment_gap_us + cfg.ifs_low_us)
        )
        emergency = cfg.ifs_high_us + air(cfg.payload_bytes + cfg.header_bytes) + ack
        return {EMERGENCY: emergency, NORMAL: normal}
    eis = air(cfg.indication_bytes) + ack + cfg.slot_guard_us
    control = air(cfg.schedule_bytes) + cfg.slot_guard_us
    first_slot = air(cfg.payload_bytes + cfg.header_bytes) + ack
    floor = eis + control + first_slot
    return {EMERGENCY: floor, NORMAL: floor}


def check_delays(delays, floors: dict[str, int]) -> list[str]:
    """Every (class, delay_us) delivery is at or above its class floor."""
    out = []
    for klass, delay in delays:
        if delay < floors[klass]:
            out.append(f"{klass} delivery after {delay} us, below the {floors[klass]} us floor")
    return out


def check_fuzzy(samples, reference) -> list[str]:
    """Each (d, e, s, value) sample agrees with reference(d, e, s)."""
    out = []
    for d, e, s, value in samples:
        want = reference(d, e, s)
        if not abs(value - want) <= FUZZY_TOLERANCE:
            out.append(f"fuzzy_core({d!r}, {e!r}, {s!r}) = {value!r}, reference {want!r}")
    return out


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_dat(path: str) -> list[dict]:
    """The .dat file as dicts keyed by its '# ' header names."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("# "):
            raise ValueError(f"{path}: no '# ' header line")
        names = header[2:].split()
        return [dict(zip(names, line.split())) for line in fh if line.strip()]


def _key(protocol: str, n_emergency, fragment_size) -> tuple:
    fs = "" if fragment_size in (None, "", "-") else str(fragment_size)
    return (protocol, str(n_emergency), fs)


def check_dat_means(csv_rows: list[dict], dat_rows: list[dict]) -> list[str]:
    """Every .dat run count and mean equals what the CSV rows give."""
    groups: dict[tuple, list[dict]] = {}
    for row in csv_rows:
        groups.setdefault(_key(row["protocol"], row["n_emergency"], row["fragment_size"]), []).append(row)
    out = []
    if len(dat_rows) != len(groups):
        out.append(f".dat has {len(dat_rows)} points, the CSV {len(groups)}")
    for dat in dat_rows:
        key = _key(dat["protocol"], dat["n_emergency"], dat["fragment_size"])
        rows = groups.get(key)
        if rows is None:
            out.append(f".dat point {key} has no CSV rows")
            continue
        if int(dat["runs"]) != len(rows):
            out.append(f"{key}: .dat counts {dat['runs']} runs, the CSV {len(rows)}")
        for col in AGG_COLUMNS:
            cells = [float(r[col]) for r in rows if r[col] != ""]
            want = sum(cells) / len(cells) if cells else math.nan
            got = float(dat[f"{col}_mean"])
            if math.isnan(want) != math.isnan(got) or abs(got - want) > DAT_TOLERANCE:
                out.append(f"{key} {col}: .dat mean {got}, CSV rows give {want}")
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def check_csv_rows(csv_rows: list[dict], runs) -> list[str]:
    """Every CSV row equals the (config, report) of the run it stands for."""
    by_key = {(*_key(r["protocol"], r["n_emergency"], r["fragment_size"]), r["seed"]): r
              for r in csv_rows}
    out = []
    if len(by_key) != len(runs):
        out.append(f"CSV has {len(by_key)} rows for {len(runs)} runs")
    for cfg, rep in runs:
        fs = cfg.fragment_size if cfg.protocol == "frog" else None
        key = (*_key(cfg.protocol, cfg.n_emergency, fs), str(cfg.seed))
        row = by_key.get(key)
        if row is None:
            out.append(f"run {key} has no CSV row")
            continue
        want = {
            "mean_delay_emergency_us": _cell(rep.classes[EMERGENCY].mean_us),
            "mean_delay_normal_us": _cell(rep.classes[NORMAL].mean_us),
            "mean_delay_all_us": _cell(rep.mean_all_us),
            "delivered": _cell(rep.delivered),
            "dropped": _cell(rep.dropped),
            "energy_per_delivered_uj": _cell(rep.energy_per_delivered_uj),
        }
        for col, cell in want.items():
            if row[col] != cell:
                out.append(f"run {key} {col}: CSV {row[col]!r}, report {cell!r}")
    return out


def check_claim(dat_rows: list[dict]) -> list[str]:
    """The paper's claim: at every detector count, frog beats fps on
    mean emergency delay and on energy per delivered packet."""
    by_point: dict[str, dict[str, dict]] = {}
    for row in dat_rows:
        by_point.setdefault(row["n_emergency"], {})[row["protocol"]] = row
    out = []
    if not by_point:
        out.append("the sweep has no points")
    for ne, rows in sorted(by_point.items(), key=lambda kv: int(kv[0])):
        if set(rows) != {"frog", "fps"}:
            out.append(f"n_emergency={ne}: protocols {sorted(rows)}, want frog and fps")
            continue
        for col in ("mean_delay_emergency_us_mean", "energy_per_delivered_uj_mean"):
            frog, fps = float(rows["frog"][col]), float(rows["fps"][col])
            if not frog < fps:
                out.append(f"n_emergency={ne}: frog {col} {frog} is not below fps {fps}")
    return out
