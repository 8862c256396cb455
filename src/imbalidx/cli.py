"""Command-line front end: the capture path and the ratio sweep.

`simulate` writes a capture and its label windows, `extract` turns a
capture into flow features, `experiment` runs the whole ratio sweep, and
`cell` runs one of the sweep's cells alone and prints its detail row.

Exit codes: 0 success, 1 usage problems, 2 data or processing errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path

from . import flows as fl
from . import packets as pk
from .experiment import ExperimentConfig, detail_csv, run_cell, run_experiment, write_report
from .metrics import MetricsReport
from .simulate import SimConfig, simulate
from .textio import config_from_json


class UsageError(Exception):
    """Bad invocation (missing files, contradictory flags); exits 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this project reserves 2 for data
    errors, so usage problems are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _input(path, what: str) -> Path:
    """path as a Path; UsageError (exit 1) unless it names a file."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _seed_arg(value: str) -> int:
    """A --seed value: plain ASCII digits below 2**64, the rule of every
    integer the package reads from outside."""
    if not (value.isascii() and value.isdigit() and int(value) < 2**64):
        raise argparse.ArgumentTypeError(f"seed must be ASCII digits below 2**64, got {value!r}")
    return int(value)


def cmd_simulate(args) -> int:
    cfg = config_from_json(SimConfig, _input(args.config, "config file").read_text())
    packets, rules = simulate(cfg, args.seed)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    pcap_path = prefix.with_name(prefix.name + ".pcap")
    labels_path = prefix.with_name(prefix.name + ".labels.csv")
    pk.write_pcap(packets, pcap_path)
    fl.write_label_csv(rules, labels_path)
    written = [str(pcap_path), str(labels_path)]
    if args.packets_csv:
        csv_path = prefix.with_name(prefix.name + ".packets.csv")
        pk.write_packet_csv(packets, csv_path)
        written.append(str(csv_path))
    print(f"{len(packets)} packets, {len(rules)} label windows -> " + ", ".join(written))
    return 0


def _read_capture(path) -> pk.PacketTable:
    """A packet CSV if the file starts with its header, else a pcap, whose
    reader names any magic it does not take."""
    p = _input(path, "capture")
    header = pk.CSV_HEADER.encode()
    with open(p, "rb") as f:
        is_csv = f.read(len(header)) == header
    return pk.read_packet_csv(p) if is_csv else pk.read_pcap(p)


def cmd_extract(args) -> int:
    packets = _read_capture(args.input)
    rules = fl.read_label_csv(_input(args.labels, "label file")) if args.labels else []
    feats = fl.features_from_packets(packets, rules)
    fl.write_features_csv(feats, args.out)
    print(f"{len(feats)} flows ({feats.n_attack} attack) -> {args.out}")
    return 0


def _experiment_config(path) -> ExperimentConfig:
    if not path:
        return ExperimentConfig()
    return config_from_json(ExperimentConfig, _input(path, "config file").read_text())


def cmd_cell(args) -> int:
    cfg = _experiment_config(args.config)
    print(detail_csv([run_cell(cfg, args.ratio, args.seed, args.smote)]), end="")
    return 0


def cmd_experiment(args) -> int:
    cfg = _experiment_config(args.config)
    start = time.perf_counter()
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    write_report(result, args.out)
    print(f"{len(result.cells)} cells in {elapsed:.1f}s -> {args.out}")
    widths = {f.name: max(8, len(f.name) + 1) for f in fields(MetricsReport)}
    print("ratio    smote " + " ".join(f"{n:>{w}}" for n, w in widths.items()))
    for row in result.summary:
        values = astuple(row.report)
        print(f"{row.ratio:<8g} {int(row.smote):<5d} "
              + " ".join(f"{v:{w}.4f}" for v, w in zip(values, widths.values())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="imbalidx",
        description=(
            "Flow-based intrusion detection experiments on simulated "
            "industrial polling traffic, across class-imbalance ratios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate traffic and label windows")
    p.add_argument("--config", required=True, help="SimConfig JSON path")
    p.add_argument("--seed", type=_seed_arg, required=True,
                   help="the seed the capture is drawn from")
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="output prefix; writes PREFIX.pcap and PREFIX.labels.csv")
    p.add_argument("--packets-csv", action="store_true",
                   help="also write PREFIX.packets.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("extract", help="flow features from a capture")
    p.add_argument("--in", dest="input", required=True,
                   help="pcap, or packet CSV (told apart by its header line)")
    p.add_argument("--labels", help="label window CSV; omit to label all Normal")
    p.add_argument("--out", required=True, help="feature CSV path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("cell", help="run one cell of the sweep; print its detail row")
    p.add_argument("--config", help="ExperimentConfig JSON (default: built-ins)")
    p.add_argument("--ratio", type=float, required=True,
                   help="attack share of the cell; must be one of the config's ratios")
    p.add_argument("--seed", type=_seed_arg, required=True,
                   help="the sweep seed whose pool and streams the cell draws from")
    p.add_argument("--smote", action="store_true",
                   help="the SMOTE cell; the ratio must be one of smote_ratios")
    p.set_defaults(func=cmd_cell)

    p = sub.add_parser("experiment", help="run the full ratio sweep")
    p.add_argument("--config", help="ExperimentConfig JSON (default: built-ins)")
    p.add_argument("--out", required=True,
                   help="detail CSV path; summary and manifest land next to it")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
