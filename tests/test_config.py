"""Run-configuration defaults, file parsing, and validation."""

import pytest

from priomac.config import SimConfig, parse_config


def test_defaults_match_the_experiment_baseline():
    cfg = SimConfig()
    assert cfg.protocol == "frog"
    assert cfg.seed == 1
    assert cfg.duration_s == 5000.0
    assert (cfg.n_nodes, cfg.n_emergency) == (20, 3)
    assert cfg.area_m == 50.0
    assert cfg.payload_bytes == 34
    assert (cfg.normal_interval_s, cfg.emergency_interval_s) == (10.0, 120.0)
    assert (cfg.bitrate_bps, cfg.cca_us) == (250_000, 128)
    assert cfg.fragment_size is None
    assert (cfg.ifs_high_us, cfg.ifs_low_us) == (192, 1000)
    assert (cfg.fragment_gap_us, cfg.backoff_unit_us) == (800, 160)
    assert (cfg.backoff_slots_high, cfg.backoff_slots_low) == (4, 8)
    assert (cfg.slots_per_frame, cfg.slot_guard_us) == (20, 1000)
    assert (cfg.eis_persistence, cfg.ack_loss_p) == (0.5, 0.01)
    assert (cfg.p_tx_mw, cfg.p_rx_mw, cfg.p_idle_mw, cfg.p_sleep_mw) == (
        52.2, 59.1, 1.28, 0.02
    )
    assert cfg.initial_energy_j == 50.0


def test_microsecond_conversions():
    cfg = SimConfig(duration_s=5000.0)
    assert cfg.duration_us == 5_000_000_000
    assert cfg.normal_interval_us == 10_000_000
    assert cfg.emergency_interval_us == 120_000_000


def test_fragment_size_resolution():
    assert SimConfig().resolved_fragment_size() == 8
    assert SimConfig(fragment_size=16).resolved_fragment_size() == 16
    assert SimConfig(payload_bytes=4).resolved_fragment_size() == 4


def test_fragment_size_is_a_frog_knob():
    cfg = SimConfig(protocol="fps", fragment_size=8)
    with pytest.raises(ValueError, match="frog"):
        cfg.validate()


def test_validate_rejects_bad_ranges():
    for kwargs in (
        {"protocol": "csma"},
        {"n_nodes": 0},
        {"n_emergency": 21},
        {"n_emergency": -1},
        {"payload_bytes": 0},
        {"duration_s": 0.0},
        {"eis_persistence": 0.0},
        {"eis_persistence": 1.5},
        {"ack_loss_p": 1.0},
        {"fragment_size": 0},
        {"fragment_size": 35},
        # the µs model: nothing may round to 0 us, and a frame needs a slot
        {"protocol": "fps", "slots_per_frame": 0},
        {"protocol": "fps", "slots_per_frame": -1},
        {"duration_s": 1e-9},
        {"normal_interval_s": 1e-7},
        {"emergency_interval_s": 4e-7},
        # ... and every span must be a finite number of microseconds
        {"duration_s": float("inf")},
        {"duration_s": float("-inf")},
        {"duration_s": float("nan")},
        {"duration_s": 1e308},  # finite seconds, but infinite microseconds
        {"normal_interval_s": float("inf")},
        {"emergency_interval_s": float("inf")},
        # the area is a length: fps divides distances by its diagonal
        {"area_m": 0.0},
        {"area_m": -5.0},
        {"area_m": float("inf")},
        {"area_m": float("nan")},
        {"protocol": "fps", "area_m": 0.0},
    ):
        with pytest.raises(ValueError):
            SimConfig(**kwargs).validate()
    # ... and each of these refusals names the setting at fault
    for name, kwargs in (
        ("p_tx_mw", {"p_tx_mw": float("nan")}),
        ("p_rx_mw", {"p_rx_mw": float("inf")}),
        ("initial_energy_j", {"protocol": "fps", "initial_energy_j": float("nan")}),
        ("initial_energy_j", {"protocol": "fps", "initial_energy_j": float("inf")}),
        ("header_bytes", {"header_bytes": -30}),
        ("frog_max_retries", {"frog_max_retries": -1}),
        ("fps_max_retry_frames", {"fps_max_retry_frames": -1}),
        ("ack_bytes", {"ack_bytes": 0}),
        ("indication_bytes", {"indication_bytes": 0}),
        ("slot_guard_us", {"protocol": "fps", "slot_guard_us": 10}),
        # guard == cca: the EIS ack would end as the schedule broadcast starts
        ("slot_guard_us", {"protocol": "fps", "slot_guard_us": 128}),
    ):
        with pytest.raises(ValueError, match=name):
            SimConfig(**kwargs).validate()


def test_defaults_validate():
    SimConfig().validate()
    SimConfig(protocol="fps").validate()


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
# experiment: light load
protocol = frog
seed = 5
duration_s = 100.0   # short
fragment_size = 16
n_emergency = 6
"""
    )
    cfg = parse_config(str(path))
    assert cfg.protocol == "frog"
    assert cfg.seed == 5
    assert cfg.duration_s == 100.0
    assert cfg.fragment_size == 16
    assert cfg.n_emergency == 6


def test_parse_config_none_literal_clears_fragment_size(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("fragment_size = none\n")
    assert parse_config(str(path)).fragment_size is None


def test_overrides_beat_the_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\nduration_s = 100.0\n")
    cfg = parse_config(str(path), overrides={"seed": 9})
    assert cfg.seed == 9
    assert cfg.duration_s == 100.0


def test_string_overrides_are_converted():
    cfg = parse_config(None, overrides={"seed": "7", "duration_s": "2.5"})
    assert cfg.seed == 7
    assert cfg.duration_s == 2.5


def test_unknown_key_is_named(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("frag_size = 8\n")
    with pytest.raises(ValueError, match="frag_size"):
        parse_config(str(path))


def test_bad_value_reports_the_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("protocol = frog\nseed = banana\n")
    with pytest.raises(ValueError, match="2"):
        parse_config(str(path))


def test_malformed_line_is_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError):
        parse_config(str(path))


def test_parsed_configs_are_validated(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("protocol = fps\nfragment_size = 8\n")
    with pytest.raises(ValueError):
        parse_config(str(path))


def test_to_dict_round_trips_every_field():
    cfg = SimConfig(seed=3, protocol="fps")
    d = cfg.to_dict()
    assert d["seed"] == 3
    assert d["protocol"] == "fps"
    assert SimConfig(**d) == cfg
