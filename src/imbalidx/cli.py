"""Command-line front end for the capture/train/evaluate pipeline.

Subcommands mirror the pipeline stages: simulate traffic, extract flow
features, build an imbalanced dataset, oversample it, train the
classifier, evaluate a model, or run the whole ratio sweep in one shot.

Exit codes: 0 success, 1 usage problems, 2 data or processing errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path
from typing import Tuple

import numpy as np

from . import dataset as ds
from . import flows as fl
from . import mlp
from . import packets as pk
from .smote import (
    minority_class,
    replay,
    smote,
    synthetic_count,
    write_provenance_csv,
)
from .experiment import (LAYER_SIZES, SMOTE_K, SMOTE_TARGET_RATIO, ExperimentConfig,
                         run_experiment, write_report)
from .metrics import MetricsReport, confusion
from .simulate import SimConfig, simulate
from .textio import ConfigInvalid, config_from_json, json_value, load_json


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
    n = int(value)
    if not 0 <= n < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return n


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
    p = _input(path, "capture")
    with open(p, "rb") as f:
        head = f.read(4)
    if head in (b"\xd4\xc3\xb2\xa1", b"\xa1\xb2\xc3\xd4"):
        return pk.read_pcap(p)
    return pk.read_packet_csv(p)


def cmd_extract(args) -> int:
    if not args.idle_timeout > 0:  # before reading the capture; NaN fails too
        raise ValueError(f"--idle-timeout must be > 0, got {args.idle_timeout}")
    packets = _read_capture(args.input)
    rules = fl.read_label_csv(_input(args.labels, "label file")) if args.labels else []
    feats = fl.features_from_packets(packets, rules, idle_timeout=args.idle_timeout)
    fl.write_features_csv(feats, args.out)
    print(f"{len(feats)} flows ({feats.n_attack} attack) -> {args.out}")
    return 0


def cmd_build(args) -> int:
    pool = fl.read_features_csv(_input(args.features, "feature file"))
    attacks = pool.x[pool.y == fl.ATTACK]
    normals = pool.x[pool.y == fl.NORMAL]
    n_attack = args.n_attack if args.n_attack is not None else len(attacks)
    data = ds.build_imbalanced(attacks, normals, n_attack, args.ratio, args.seed)
    ds.save_dataset(data, args.out, ratio=args.ratio, seed=args.seed)
    print(
        f"{data.n_attack} attack + {data.n_normal} normal rows "
        f"(ratio {args.ratio:g}) -> {args.out}"
    )
    return 0


def cmd_smote(args) -> int:
    data = fl.read_features_csv(_input(args.data, "dataset"))
    mino = minority_class(data.y)
    rows = np.flatnonzero(data.y == mino)
    if args.target_count is not None:
        target = args.target_count
    else:
        target = rows.size + synthetic_count(
            int(rows.size), len(data), args.target_ratio
        )
    # Neighbour geometry runs in z-scored space; synthetic rows are then
    # rebuilt in raw feature space from the provenance log.
    stats = ds.normalize_fit(data.x)
    z = ds.normalize_apply(data.x, stats)
    result = smote(z[rows], target, k=args.k, seed=args.seed)
    raw_synth = replay(data.x[rows], result)
    x_out = np.concatenate([data.x, raw_synth])
    y_out = np.concatenate(
        [data.y, np.full(result.n_synthetic, mino, dtype=np.int64)]
    )
    fl.write_features_csv(fl.LabeledDataset(x_out, y_out), args.out)
    if args.provenance:
        write_provenance_csv(result, args.provenance)
    print(
        f"{result.n_synthetic} synthetic rows (minority {rows.size} -> {target}) "
        f"-> {args.out}"
    )
    return 0


def check_layer_sizes(layer_sizes) -> None:
    """ConfigInvalid naming layer_sizes unless they describe a binary
    classifier whose input layer takes the FEATURE_NAMES features."""
    try:
        n_in, n_features = mlp.check_architecture(layer_sizes)[0], len(fl.FEATURE_NAMES)
        if n_in != n_features:
            raise mlp.BadArchitecture(f"input layer of {n_in}, not {n_features} features")
    except mlp.BadArchitecture as exc:
        raise ConfigInvalid(f"layer_sizes: {exc}") from None


def _train_options(args):
    layer_sizes = LAYER_SIZES
    cfg = mlp.TrainConfig()
    if args.config:
        obj = load_json(_input(args.config, "config file").read_text())
        if isinstance(obj, dict) and "layer_sizes" in obj:
            layer_sizes = json_value(Tuple[int, ...], obj.pop("layer_sizes"), "layer_sizes")
            check_layer_sizes(layer_sizes)
        cfg = config_from_json(mlp.TrainConfig, obj)
    return layer_sizes, cfg


def cmd_train(args) -> int:
    layer_sizes, cfg = _train_options(args)
    data = fl.read_features_csv(_input(args.data, "dataset"))
    stats = ds.normalize_fit(data.x)
    z = fl.LabeledDataset(ds.normalize_apply(data.x, stats), data.y)
    init_seed, shuffle_seed = (None, None) if args.seed is None else (
        np.random.SeedSequence([args.seed, stage]) for stage in (0, 1))
    model = mlp.init_model(layer_sizes, init_seed)
    _, history = mlp.train(model, z, cfg, shuffle_seed)
    mlp.save_model(model, args.out)
    ds.save_stats(stats, str(args.out) + ".stats.json")
    print(
        f"trained {list(layer_sizes)} for {cfg.epochs} epochs, "
        f"final loss {history[-1]:.6f} -> {args.out}"
    )
    return 0


def cmd_evaluate(args) -> int:
    model = mlp.load_model(_input(args.model, "model"))
    stats_path = Path(str(args.model) + ".stats.json")
    if not stats_path.is_file():
        raise ValueError(
            f"normalization stats not found at {stats_path}; "
            "evaluate needs the stats saved at training time"
        )
    stats = ds.load_stats(stats_path)
    data = fl.read_features_csv(_input(args.data, "dataset"))
    z = ds.normalize_apply(data.x, stats)
    preds = mlp.predict(model, z, args.threshold)
    report = MetricsReport.from_confusion(confusion(preds, data.y))
    text = report.to_json()
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


def cmd_experiment(args) -> int:
    if args.config:
        cfg = config_from_json(ExperimentConfig, _input(args.config, "config file").read_text())
    else:
        cfg = ExperimentConfig()
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
    p.add_argument("--seed", type=_seed_arg,
                   help="pins the capture; unseeded runs differ")
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="output prefix; writes PREFIX.pcap and PREFIX.labels.csv")
    p.add_argument("--packets-csv", action="store_true",
                   help="also write PREFIX.packets.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("extract", help="flow features from a capture")
    p.add_argument("--in", dest="input", required=True,
                   help="pcap or packet CSV (sniffed by magic bytes)")
    p.add_argument("--labels", help="label window CSV; omit to label all Normal")
    p.add_argument("--idle-timeout", type=float, default=fl.DEFAULT_IDLE_TIMEOUT,
                   help="flow cut after this many idle seconds, > 0 (default 5)")
    p.add_argument("--out", required=True, help="feature CSV path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("build", help="sample an imbalanced dataset from a pool")
    p.add_argument("--features", required=True, help="labeled feature CSV pool")
    p.add_argument("--ratio", type=float, required=True,
                   help="attack share of the total, in (0, 1]")
    p.add_argument("--n-attack", type=int,
                   help="attack rows to draw (default: all in the pool)")
    p.add_argument("--seed", type=_seed_arg)
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("smote", help="oversample the minority class of a dataset")
    p.add_argument("--data", required=True, help="dataset CSV (a training split)")
    p.add_argument("--target-ratio", type=float, default=SMOTE_TARGET_RATIO,
                   help="minority share after growth (default %(default)s)")
    p.add_argument("--target-count", type=int,
                   help="exact minority size after growth (overrides ratio)")
    p.add_argument("--k", type=int, default=SMOTE_K,
                   help="neighbours per base row; must be below the minority row count")
    p.add_argument("--seed", type=_seed_arg)
    p.add_argument("--provenance", help="also write base,neighbor,gap CSV here")
    p.add_argument("--out", required=True, help="augmented dataset CSV path")
    p.set_defaults(func=cmd_smote)

    p = sub.add_parser("train", help="fit the classifier on a dataset")
    p.add_argument("--data", required=True, help="training dataset CSV")
    p.add_argument("--config",
                   help="JSON with TrainConfig fields and optional layer_sizes")
    p.add_argument("--seed", type=_seed_arg,
                   help="drives both weight init and epoch shuffling")
    p.add_argument("--out", required=True,
                   help="model JSON path; stats saved at OUT.stats.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a model on a labeled dataset")
    p.add_argument("--model", required=True, help="model JSON from train")
    p.add_argument("--data", required=True, help="dataset CSV to score")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", help="also write the metrics JSON here")
    p.set_defaults(func=cmd_evaluate)

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
