"""The one parameter spec: defaults, bounds, parsing and validation.

Every setting of a run is a SimConfig field, and its default is written
there and nowhere else. A field's bounds live in its metadata:

- ``ge`` / ``gt``: the least value allowed, inclusive / exclusive;
- ``le`` / ``lt``: the greatest value allowed, inclusive / exclusive;
- ``us``: a span in seconds that must come to a whole number of
  microseconds, at least 1 (the model runs in integer microseconds, and a
  span that rounds to 0 would run nothing or draw from an empty range).

Every float must be finite. One loop checks each field against its
bounds; the few rules that tie fields together follow it.

Config files are flat `key = value` text, one setting per line, with `#`
comments. Keys match the SimConfig field names, and values convert by
the field's annotation. Command-line flags (or any overrides dict) win
over file values, which win over defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

PROTOCOLS = ("frog", "fps")


def _spec(default, **bounds):
    return field(default=default, metadata=bounds)


@dataclass
class SimConfig:
    protocol: str = "frog"
    seed: int = 1
    duration_s: float = _spec(5000.0, us=True)
    n_nodes: int = _spec(20, ge=1)
    n_emergency: int = _spec(3, ge=0)
    # fps scores distance over the area's diagonal, so it must be a length.
    area_m: float = _spec(50.0, gt=0.0)
    payload_bytes: int = _spec(34, ge=1)
    normal_interval_s: float = _spec(10.0, us=True)
    emergency_interval_s: float = _spec(120.0, us=True)
    bitrate_bps: int = _spec(250_000, ge=1)  # 802.15.4-class radio
    cca_us: int = _spec(128, ge=1)
    # fragmentation MAC (frog). Spacings are waits, so none may be negative.
    fragment_size: int | None = _spec(None, ge=1)  # None = protocol default (8)
    header_bytes: int = _spec(5, ge=0)
    ack_bytes: int = _spec(11, ge=1)
    ifs_high_us: int = _spec(192, ge=0)
    ifs_low_us: int = _spec(1000, ge=0)
    fragment_gap_us: int = _spec(800, ge=0)
    backoff_unit_us: int = _spec(160, ge=0)
    # A backoff draws uniform {0..slots-1} units, from a range that must not be empty.
    backoff_slots_high: int = _spec(4, ge=1)
    backoff_slots_low: int = _spec(8, ge=1)
    frog_max_retries: int = _spec(8, ge=0)
    ack_slack_us: int = _spec(64, ge=0)  # grace past the expected ack end before a retry
    # TDMA MAC (fps)
    slots_per_frame: int = _spec(20, ge=1)
    slot_guard_us: int = _spec(1000, ge=0)
    indication_bytes: int = _spec(8, ge=1)
    schedule_bytes: int = _spec(30, ge=1)
    eis_persistence: float = _spec(0.5, gt=0.0, le=1.0)
    ack_loss_p: float = _spec(0.01, ge=0.0, lt=1.0)
    fps_max_retry_frames: int = _spec(50, ge=0)
    # radio power draw, CC2420-class figures
    p_tx_mw: float = _spec(52.2, ge=0.0)
    p_rx_mw: float = _spec(59.1, ge=0.0)
    p_idle_mw: float = _spec(1.28, ge=0.0)
    p_sleep_mw: float = _spec(0.02, ge=0.0)
    initial_energy_j: float = _spec(50.0, gt=0.0)

    @property
    def duration_us(self) -> int:
        return int(round(self.duration_s * 1e6))

    @property
    def normal_interval_us(self) -> int:
        return int(round(self.normal_interval_s * 1e6))

    @property
    def emergency_interval_us(self) -> int:
        return int(round(self.emergency_interval_s * 1e6))

    @property
    def power_mw(self) -> tuple[float, float, float, float]:
        """Draw per radio state, in the ledger's (TX, RX, IDLE, SLEEP) order."""
        return (self.p_tx_mw, self.p_rx_mw, self.p_idle_mw, self.p_sleep_mw)

    def resolved_fragment_size(self) -> int:
        if self.fragment_size is not None:
            return self.fragment_size
        return min(8, self.payload_bytes)

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; pick one of {PROTOCOLS}")
        for name, bounds in _BOUNDED:
            _check(name, getattr(self, name), bounds)
        if self.n_emergency > self.n_nodes:
            raise ValueError(
                f"n_emergency must be at most n_nodes ({self.n_nodes}), got {self.n_emergency}"
            )
        if self.fragment_size is not None:
            if self.protocol != "frog":
                raise ValueError("fragment_size only applies to the frog protocol")
            if self.fragment_size > self.payload_bytes:
                raise ValueError(
                    f"fragment_size must be at most payload_bytes ({self.payload_bytes}), "
                    f"got {self.fragment_size}"
                )
        if self.protocol == "frog":
            # The gap must outlast emergency contention and be outlasted by
            # low-priority sensing, so an emergency frame always wins it.
            worst_high = self.ifs_high_us + (self.backoff_slots_high - 1) * self.backoff_unit_us
            if worst_high >= self.fragment_gap_us:
                raise ValueError(
                    "emergency contention (ifs_high_us + (backoff_slots_high - 1) * "
                    f"backoff_unit_us = {worst_high} us) must finish inside "
                    f"fragment_gap_us ({self.fragment_gap_us} us)"
                )
            if self.ifs_low_us <= self.fragment_gap_us:
                raise ValueError(
                    "ifs_low_us must outlast fragment_gap_us, got "
                    f"{self.ifs_low_us} <= {self.fragment_gap_us}"
                )
        elif self.slot_guard_us <= self.cca_us:
            # The EIS ack ends slot_guard_us - cca_us before the schedule
            # broadcast, which must not start while the ack is on the air.
            raise ValueError(
                f"slot_guard_us must outlast one CCA (cca_us = {self.cca_us}), "
                f"got {self.slot_guard_us}"
            )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


_FIELDS = {f.name: f for f in dataclasses.fields(SimConfig)}
_BOUNDED = [(f.name, f.metadata) for f in _FIELDS.values() if f.metadata]


def _check(name: str, value, bounds) -> None:
    """Raise a ValueError naming the field when value breaks one of its bounds."""
    if value is None:
        return  # an optional field left to its protocol default
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if bounds.get("us"):
        us = value * 1e6
        if not math.isfinite(us):
            raise ValueError(f"{name} must be a finite number of microseconds, got {value!r} s")
        if round(us) < 1:
            raise ValueError(f"{name} must be at least 1 us, got {value!r} s")
    if "ge" in bounds and not value >= bounds["ge"]:
        raise ValueError(f"{name} must be at least {bounds['ge']}, got {value!r}")
    if "gt" in bounds and not value > bounds["gt"]:
        raise ValueError(f"{name} must be greater than {bounds['gt']}, got {value!r}")
    if "le" in bounds and not value <= bounds["le"]:
        raise ValueError(f"{name} must be at most {bounds['le']}, got {value!r}")
    if "lt" in bounds and not value < bounds["lt"]:
        raise ValueError(f"{name} must be less than {bounds['lt']}, got {value!r}")


def _opt_int(text: str):
    if text.lower() in ("none", ""):
        return None
    return int(text)


# Converters by annotation; a field's annotation is its type as a string.
_PARSERS = {"str": str, "int": int, "float": float, "int | None": _opt_int}


def _convert(key: str, text: str):
    """A field's value from its text form; the ValueError names the field."""
    f = _FIELDS.get(key)
    if f is None:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return _PARSERS[f.type](text)
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from exc


def parse_config(path: str | None = None, overrides: dict | None = None) -> SimConfig:
    """Build a validated SimConfig from an optional file plus overrides.

    String override values convert like file values; others are taken as
    they are. An override that is or reads as None (`none`) leaves the
    setting as the file or the default has it.
    """
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
                try:
                    setattr(cfg, key, _convert(key, value.strip()))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if overrides:
        for key, value in overrides.items():
            if isinstance(value, str):
                value = _convert(key, value)
            elif key not in _FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:
                setattr(cfg, key, value)
    cfg.validate()
    return cfg
