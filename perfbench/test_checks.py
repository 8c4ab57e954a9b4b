"""Self-test of the benchmark's output checks: each passes on real outputs
and rejects a deliberately broken copy of them.

    python3 -m pytest -q perfbench

Tier-1 collects only tests/, so this file is not part of it.
"""

import copy
import dataclasses
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import checks  # noqa: E402
from _mamdani_ref import reference_core  # noqa: E402
from priomac.config import SimConfig  # noqa: E402
from priomac.fuzzy import fuzzy_core  # noqa: E402
from priomac.harness import run_once, run_sweep, sweep_points  # noqa: E402
from priomac.traffic import build_population  # noqa: E402


def expected(cfg):
    nodes = build_population(
        cfg.n_nodes, cfg.n_emergency, cfg.seed, area_m=cfg.area_m,
        normal_interval_us=cfg.normal_interval_us,
        emergency_interval_us=cfg.emergency_interval_us,
    )
    return checks.expected_generated(cfg, nodes)


@pytest.fixture(scope="module", params=["frog", "fps"])
def run(request):
    cfg = SimConfig(protocol=request.param, n_emergency=6, duration_s=300.0, seed=3)
    return cfg, run_once(cfg)


def test_report_checks_pass_on_a_real_run(run):
    cfg, rep = run
    assert checks.check_report(rep, cfg.duration_us, expected(cfg)) == []


def test_one_microsecond_moved_between_two_nodes_is_rejected(run):
    cfg, rep = run
    bad = copy.deepcopy(rep)
    a, b = bad.node_state_us[1], bad.node_state_us[2]
    bad.node_state_us[1] = (a[0], a[1] - 1, a[2], a[3])
    bad.node_state_us[2] = (b[0], b[1] + 1, b[2], b[3])
    assert len(checks.check_report(bad, cfg.duration_us, expected(cfg))) == 2


def test_a_generated_count_off_the_arrival_arithmetic_is_rejected(run):
    cfg, rep = run
    want = expected(cfg)
    want[checks.NORMAL] += 1
    assert checks.check_report(rep, cfg.duration_us, want)


def test_more_delivered_than_generated_is_rejected(run):
    cfg, rep = run
    bad = copy.deepcopy(rep)
    stats = bad.classes[checks.EMERGENCY]
    stats.delivered = stats.generated - stats.dropped + 1
    bad.delivered += stats.delivered - rep.classes[checks.EMERGENCY].delivered
    assert checks.check_report(bad, cfg.duration_us, expected(cfg))


def test_delay_floors_follow_from_airtime():
    assert checks.delay_floors(SimConfig(protocol="frog", fragment_size=2)) == {
        checks.EMERGENCY: 1792, checks.NORMAL: 39592}
    assert checks.delay_floors(SimConfig(protocol="fps")) == {
        checks.EMERGENCY: 5168, checks.NORMAL: 5168}
    floors = checks.delay_floors(SimConfig(protocol="frog"))
    assert floors[checks.NORMAL] == 11848
    assert checks.check_delays([(checks.EMERGENCY, 1792)], floors) == []
    assert checks.check_delays([(checks.EMERGENCY, 1791)], floors)


def test_a_fuzzy_value_off_by_1e_6_is_rejected():
    points = [(0.1, 0.9, 0.05), (0.7, 0.3, 0.5), (0.0, 1.0, 1.0)]
    good = [(d, e, s, fuzzy_core(d, e, s)) for d, e, s in points]
    assert checks.check_fuzzy(good, reference_core) == []
    d, e, s, v = good[1]
    assert checks.check_fuzzy([(d, e, s, v + 1e-6)], reference_core)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    base = SimConfig(duration_s=200.0)
    seeds = [4, 5]
    csv_path, dat_path = run_sweep("fig5", base, str(tmp_path_factory.mktemp("fig5")), seeds=seeds)
    runs = []
    for protocol, fs, ne in sweep_points("fig5"):
        for seed in seeds:
            cfg = dataclasses.replace(base, protocol=protocol, fragment_size=fs,
                                      n_emergency=ne, seed=seed)
            runs.append((cfg, run_once(cfg)))
    return checks.read_csv(csv_path), checks.read_dat(dat_path), runs


def test_sweep_checks_pass_on_a_real_sweep(sweep):
    csv_rows, dat_rows, runs = sweep
    assert checks.check_csv_rows(csv_rows, runs) == []
    assert checks.check_dat_means(csv_rows, dat_rows) == []
    assert checks.check_claim(dat_rows) == []


def test_a_dat_mean_that_does_not_match_its_csv_rows_is_rejected(sweep):
    csv_rows, dat_rows, _runs = sweep
    bad = copy.deepcopy(dat_rows)
    cell = float(bad[3]["energy_per_delivered_uj_mean"])
    bad[3]["energy_per_delivered_uj_mean"] = f"{cell + 0.002:.3f}"
    assert len(checks.check_dat_means(csv_rows, bad)) == 1


def test_a_csv_cell_that_does_not_match_its_report_is_rejected(sweep):
    csv_rows, _dat_rows, runs = sweep
    bad = copy.deepcopy(csv_rows)
    bad[0]["delivered"] = str(int(bad[0]["delivered"]) + 1)
    assert len(checks.check_csv_rows(bad, runs)) == 1


def test_fps_beating_frog_at_one_point_is_rejected(sweep):
    _csv_rows, dat_rows, _runs = sweep
    bad = copy.deepcopy(dat_rows)
    rows = [r for r in bad if r["n_emergency"] == "9"]
    col = "mean_delay_emergency_us_mean"
    rows[0][col], rows[1][col] = rows[1][col], rows[0][col]
    assert len(checks.check_claim(bad)) == 1
