"""Run configuration: defaults, file parsing, and validation.

Config files are flat `key = value` text, one setting per line, with `#`
comments. Keys match the SimConfig field names. Command-line flags (or
any overrides dict) win over file values, which win over defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

PROTOCOLS = ("frog", "fps")


@dataclass
class SimConfig:
    protocol: str = "frog"
    seed: int = 1
    duration_s: float = 5000.0
    n_nodes: int = 20
    n_emergency: int = 3
    area_m: float = 50.0
    payload_bytes: int = 34
    normal_interval_s: float = 10.0
    emergency_interval_s: float = 120.0
    bitrate_bps: int = 250_000
    cca_us: int = 128
    # fragmentation MAC
    fragment_size: int | None = None  # None = protocol default (8)
    header_bytes: int = 5
    ack_bytes: int = 11
    ifs_high_us: int = 192
    ifs_low_us: int = 1000
    fragment_gap_us: int = 800
    backoff_unit_us: int = 160
    backoff_slots_high: int = 4
    backoff_slots_low: int = 8
    frog_max_retries: int = 8
    ack_slack_us: int = 64
    # TDMA MAC
    slots_per_frame: int = 20
    slot_guard_us: int = 1000
    indication_bytes: int = 8
    schedule_bytes: int = 30
    eis_persistence: float = 0.5
    ack_loss_p: float = 0.01
    fps_max_retry_frames: int = 50
    # radio power draw
    p_tx_mw: float = 52.2
    p_rx_mw: float = 59.1
    p_idle_mw: float = 1.28
    p_sleep_mw: float = 0.02
    initial_energy_j: float = 50.0

    @property
    def duration_us(self) -> int:
        return int(round(self.duration_s * 1e6))

    @property
    def normal_interval_us(self) -> int:
        return int(round(self.normal_interval_s * 1e6))

    @property
    def emergency_interval_us(self) -> int:
        return int(round(self.emergency_interval_s * 1e6))

    def resolved_fragment_size(self) -> int:
        if self.fragment_size is not None:
            return self.fragment_size
        return min(8, self.payload_bytes)

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; pick one of {PROTOCOLS}")
        # The model runs in whole microseconds: a span must convert to a
        # finite count, and one that rounds to 0 us would run nothing
        # (duration) or draw from an empty range (intervals).
        for name in ("duration_s", "normal_interval_s", "emergency_interval_s"):
            if not math.isfinite(getattr(self, name) * 1e6):
                raise ValueError(f"{name} must be a finite number of seconds")
        if self.duration_us < 1:
            raise ValueError("duration_s must be at least 1 us")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        if not 0 <= self.n_emergency <= self.n_nodes:
            raise ValueError("n_emergency must lie in [0, n_nodes]")
        # fps scores distance over the area's diagonal, so it must be a length.
        if not (math.isfinite(self.area_m) and self.area_m > 0):
            raise ValueError("area_m must be a positive finite number of metres")
        if self.payload_bytes < 1:
            raise ValueError("payload_bytes must be at least 1")
        if self.bitrate_bps < 1:
            raise ValueError("bitrate_bps must be positive")
        if self.cca_us < 1:
            raise ValueError("cca_us must be positive")
        if self.normal_interval_us < 1 or self.emergency_interval_us < 1:
            raise ValueError("traffic intervals must be at least 1 us")
        if self.fragment_size is not None:
            if self.protocol == "fps":
                raise ValueError("fragment_size only applies to the frog protocol")
            if not 1 <= self.fragment_size <= self.payload_bytes:
                raise ValueError("fragment_size must lie in [1, payload_bytes]")
        if self.slots_per_frame < 1:
            raise ValueError("slots_per_frame must be at least 1")
        if not 0.0 < self.eis_persistence <= 1.0:
            raise ValueError("eis_persistence must lie in (0, 1]")
        if not 0.0 <= self.ack_loss_p < 1.0:
            raise ValueError("ack_loss_p must lie in [0, 1)")
        if self.initial_energy_j <= 0:
            raise ValueError("initial_energy_j must be positive")
        if min(self.p_tx_mw, self.p_rx_mw, self.p_idle_mw, self.p_sleep_mw) < 0:
            raise ValueError("power draws must be non-negative")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


def _opt_int(text: str):
    if text.lower() in ("none", ""):
        return None
    return int(text)


_CONVERTERS = {
    "protocol": str,
    "seed": int,
    "duration_s": float,
    "n_nodes": int,
    "n_emergency": int,
    "area_m": float,
    "payload_bytes": int,
    "normal_interval_s": float,
    "emergency_interval_s": float,
    "bitrate_bps": int,
    "cca_us": int,
    "fragment_size": _opt_int,
    "header_bytes": int,
    "ack_bytes": int,
    "ifs_high_us": int,
    "ifs_low_us": int,
    "fragment_gap_us": int,
    "backoff_unit_us": int,
    "backoff_slots_high": int,
    "backoff_slots_low": int,
    "frog_max_retries": int,
    "ack_slack_us": int,
    "slots_per_frame": int,
    "slot_guard_us": int,
    "indication_bytes": int,
    "schedule_bytes": int,
    "eis_persistence": float,
    "ack_loss_p": float,
    "fps_max_retry_frames": int,
    "p_tx_mw": float,
    "p_rx_mw": float,
    "p_idle_mw": float,
    "p_sleep_mw": float,
    "initial_energy_j": float,
}


def parse_config(path: str | None = None, overrides: dict | None = None) -> SimConfig:
    """Build a validated SimConfig from an optional file plus overrides."""
    cfg = SimConfig()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                conv = _CONVERTERS.get(key)
                if conv is None:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    setattr(cfg, key, conv(value))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    if overrides:
        for key, value in overrides.items():
            conv = _CONVERTERS.get(key)
            if conv is None:
                raise ValueError(f"unknown config key {key!r}")
            if value is None:
                continue
            setattr(cfg, key, conv(value) if isinstance(value, str) else value)
    cfg.validate()
    return cfg
