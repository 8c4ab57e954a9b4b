"""Command-line front end: single runs, experiment sweeps, trace capture."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import BACKEND
from .config import SimConfig, parse_config
from .harness import EXPERIMENTS, emit_trace, run_once, run_sweep
from .metrics import STATE_NAMES
from .traffic import CLASSES


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line the way main refuses a bad setting."""

    def error(self, message):
        raise ValueError(message)


def _at_least_one(text: str) -> int:
    """A count flag's value: a whole number, 1 or more."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return n


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key = value config file")
    p.add_argument(
        "--print-config", action="store_true",
        help="echo every effective setting and exit",
    )
    for field in dataclasses.fields(SimConfig):
        flag = "--" + field.name.replace("_", "-")
        # Raw text: parse_config converts and checks it, naming the field.
        p.add_argument(flag, dest=field.name, default=None, metavar="V")


def _effective_config(args) -> SimConfig:
    overrides = {}
    for field in dataclasses.fields(SimConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = value
    return parse_config(args.config, overrides)


def _print_config(cfg: SimConfig) -> None:
    for key, value in cfg.to_dict().items():
        print(f"{key} = {value if value is not None else 'none'}")


def _print_report(report) -> None:
    for klass in CLASSES:
        st = report.classes[klass]
        mean = f"{st.mean_us:.1f}" if st.mean_us is not None else "-"
        median = f"{st.median_us:.1f}" if st.median_us is not None else "-"
        p95 = f"{st.p95_us:.1f}" if st.p95_us is not None else "-"
        print(
            f"class={klass} generated={st.generated} delivered={st.delivered} "
            f"dropped={st.dropped} in_flight={st.in_flight} "
            f"mean_us={mean} median_us={median} p95_us={p95}"
        )
    epd = (
        f"{report.energy_per_delivered_uj:.3f}"
        if report.energy_per_delivered_uj is not None else "-"
    )
    print(
        f"total generated={report.generated} delivered={report.delivered} "
        f"dropped={report.dropped}"
    )
    print(
        f"energy total_uj={report.total_energy_uj:.3f} per_delivered_uj={epd}"
    )


def _cmd_run(args, cfg: SimConfig) -> int:
    report = run_once(cfg)
    print(f"protocol={cfg.protocol} seed={cfg.seed} duration_s={cfg.duration_s} backend={BACKEND}")
    _print_report(report)
    if args.states:
        for node in sorted(report.node_state_us):
            spans = report.node_state_us[node]
            parts = " ".join(f"{n}_us={v}" for n, v in zip(STATE_NAMES, spans))
            print(f"node={node} {parts} energy_uj={report.node_energy_uj[node]:.3f}")
    return 0


def _cmd_sweep(args, cfg: SimConfig) -> int:
    seeds = range(1, args.seeds + 1)
    csv_path, dat_path = run_sweep(
        args.experiment, cfg, args.out, seeds=seeds, jobs=args.jobs
    )
    print(csv_path)
    print(dat_path)
    return 0


def _cmd_trace(args, cfg: SimConfig) -> int:
    report = emit_trace(cfg, args.out)
    print(args.out)
    _print_report(report)
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="priomac",
        description="Discrete-event comparison of two priority-aware sensor MACs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation run")
    _add_config_flags(p_run)
    p_run.add_argument("--states", action="store_true",
                       help="also print per-node radio state and energy totals")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment preset")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p_sweep.add_argument("--seeds", type=_at_least_one, default=10, metavar="N",
                         help="number of seeds per point (1..N)")
    p_sweep.add_argument("--out", default=".", metavar="DIR")
    p_sweep.add_argument("--jobs", type=_at_least_one, default=1, metavar="N",
                         help="concurrent worker processes, at most one per CPU "
                              "and one per run (default 1: runs in this process)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_trace = sub.add_parser("trace", help="single run with a full event trace")
    _add_config_flags(p_trace)
    p_trace.add_argument("--out", required=True, metavar="FILE")
    p_trace.set_defaults(fn=_cmd_trace)

    try:
        args = parser.parse_args(argv)
        cfg = _effective_config(args)
        if args.print_config:
            _print_config(cfg)
            return 0
        return args.fn(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
