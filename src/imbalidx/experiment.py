"""Ratio sweep: simulate once per seed, then build/train/evaluate per cell.

One simulated traffic pool per seed feeds every ratio, so the sweep's cost
is dominated by the largest ratio demand. Each (ratio, seed) cell builds
an imbalanced dataset, splits it 80/20 stratified, z-scores with training
stats, trains the classifier, and scores the held-out test split. For the
configured subset of ratios the training set is additionally
SMOTE-augmented and the cell is run again, so reports carry matched
with/without rows.

Every stage draws from its own seed derived from (seed, stage, cell), so
cells are independent and the whole sweep is reproducible byte for byte.

The report columns after the cell keys are the fields of MetricsReport,
in their order; this module names no metric itself.

Seeds run one at a time, in config order, so only one seed's pool and
feature matrix are alive at once. Cells do not: within a seed, each
(ratio, smote) cell is one task on a pool of forked worker processes, one
per usable CPU and at most one per cell. The pool's initializer hands each
worker the seed's feature matrices, copy-on-write, so the parent keeps no
sweep state. The largest training sets go first, and the report sorts the
cells, so no output byte depends on the worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dataset import (
    DegenerateSplit,
    LabeledDataset,
    build_imbalanced,
    normalize_apply,
    normalize_fit,
    required_normals,
    train_count,
)
from .dataset import split_train_test
from .flows import ATTACK, FEATURE_NAMES, features_from_packets, to_arrays, write_features_csv
from .metrics import MetricsReport, confusion
from .mlp import BadArchitecture, TrainConfig, check_architecture, init_model, predict, train
from .simulate import SimConfig, simulate
from .smote import augment_training_set, synthetic_count
from .textio import ConfigInvalid

# Stage tags for per-stage seed derivation.
_SIM, _BUILD, _SPLIT, _SMOTE, _INIT, _TRAIN = range(6)


@dataclass(frozen=True)
class ExperimentConfig:
    """The sweep grid plus every knob the cells need."""

    ratios: Tuple[float, ...] = (0.10, 0.01, 0.007, 0.003, 0.001)
    smote_ratios: Tuple[float, ...] = (0.007, 0.003, 0.001)
    seeds: Tuple[int, ...] = (0, 1, 2)
    n_attack: int = 1000
    train_frac: float = 0.8
    layer_sizes: Tuple[int, ...] = (23, 16, 8, 1)
    train: TrainConfig = TrainConfig()
    smote_k: int = 5
    smote_target_ratio: float = 0.10
    pool_margin: int = 1000
    sim: SimConfig = SimConfig()
    workdir: Optional[str] = None

    def __post_init__(self):
        if not self.ratios:
            raise ConfigInvalid("ratios must be non-empty")
        for r in self.ratios:
            if not 0.0 < r <= 1.0:
                raise ConfigInvalid(f"ratio {r} outside (0, 1]")
        for name in ("ratios", "smote_ratios"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigInvalid(f"{name} must be unique")
        missing = [r for r in self.smote_ratios if r not in self.ratios]
        if missing:
            raise ConfigInvalid(f"smote_ratios {missing} are not in ratios")
        if not self.seeds:
            raise ConfigInvalid("seeds must be non-empty")
        if any(s < 0 for s in self.seeds):
            raise ConfigInvalid("seeds must be non-negative")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigInvalid("seeds must be unique")
        if self.n_attack < 2:
            raise ConfigInvalid(f"n_attack must be >= 2, got {self.n_attack}")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigInvalid(f"train_frac must be in (0, 1), got {self.train_frac}")
        if not 0.0 < self.smote_target_ratio < 1.0:
            raise ConfigInvalid("smote_target_ratio must be in (0, 1)")
        if self.smote_k < 1:
            raise ConfigInvalid("smote_k must be >= 1")
        if self.pool_margin < 0:
            raise ConfigInvalid("pool_margin must be >= 0")
        check_layer_sizes(self.layer_sizes)
        # Every cell must run as asked: each ratio's split keeps both
        # classes on both sides, and SMOTE grows a minority attack class.
        for r in self.ratios:
            try:
                n_attack, n_normal = (train_count(n, self.train_frac) for n in
                                      (self.n_attack, required_normals(self.n_attack, r)))
            except DegenerateSplit as exc:
                raise ConfigInvalid(f"ratio {r}: {exc}") from None
            if r not in self.smote_ratios:
                continue
            if not r < min(self.smote_target_ratio, 0.5):
                raise ConfigInvalid(f"smote ratio {r} must be below smote_target_ratio "
                                    f"{self.smote_target_ratio} and 0.5")
            grown = synthetic_count(n_attack, n_attack + n_normal, self.smote_target_ratio)
            if n_attack < 2 or grown == 0:
                raise ConfigInvalid(f"smote ratio {r}: SMOTE needs at least 2 training attacks "
                                    f"and 1 new row, got {n_attack} and {grown}")
        # pool_sim sets these per seed, so any other value would be ignored.
        for name in ("n_normal_flows", "n_attack_flows"):
            default = getattr(SimConfig, name)
            if getattr(self.sim, name) != default:
                raise ConfigInvalid(
                    f"sim.{name} is derived by the sweep, so it must keep its default {default!r}"
                )
        self.pool_sim()  # the per-seed pool must be a valid SimConfig too

    def pool_sim(self) -> SimConfig:
        """The simulator config of every seed's pool: enough normal
        sessions for the smallest ratio plus pool_margin, and n_attack
        attack sessions. Its seed is an argument of simulate."""
        return replace(
            self.sim,
            n_normal_flows=required_normals(self.n_attack, min(self.ratios)) + self.pool_margin,
            n_attack_flows=self.n_attack,
        )


@dataclass(frozen=True)
class CellResult:
    ratio: float
    seed: int
    smote: bool
    report: MetricsReport


@dataclass(frozen=True)
class SummaryRow:
    """Median over seeds, one row per (ratio, smote) pair."""

    ratio: float
    smote: bool
    report: MetricsReport


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    cells: Tuple[CellResult, ...]
    summary: Tuple[SummaryRow, ...]


def check_layer_sizes(layer_sizes) -> None:
    """ConfigInvalid naming layer_sizes unless they describe a binary
    classifier whose input layer takes the FEATURE_NAMES features."""
    try:
        n_in = check_architecture(layer_sizes)[0]
        if n_in != len(FEATURE_NAMES):
            raise BadArchitecture(f"input layer of {n_in}, not {len(FEATURE_NAMES)} features")
    except BadArchitecture as exc:
        raise ConfigInvalid(f"layer_sizes: {exc}") from None


def derive_seed(seed: Optional[int], *path: int) -> Optional[int]:
    """The integer seed of one stage: the first 64-bit word of
    SeedSequence([seed, *path]), where path names the stage and cell. None
    stays None, so an unseeded run stays unseeded. The sweep seeds train
    with this int and every other stage with SeedSequence([seed, *path])
    itself."""
    if seed is None:
        return None
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


# A cell worker's seed rows, (attack_rows, normal_rows); unset in the parent.
_ROWS: Optional[Tuple[np.ndarray, np.ndarray]] = None


def _share_rows(attack_rows: np.ndarray, normal_rows: np.ndarray) -> None:
    """Cell pool initializer: keep the seed's rows for this worker's cells."""
    global _ROWS
    _ROWS = attack_rows, normal_rows


def _run_cell(cfg: ExperimentConfig, seed: int, r_idx: int, use_smote: bool) -> CellResult:
    """Build, split and normalize ratio r_idx's dataset from _ROWS,
    optionally SMOTE the training split, then train and score one model.
    Every draw comes from (seed, stage, cell), so a cell gives the same
    result in whichever process runs it; a plain cell and its SMOTE twin
    build the same dataset."""
    attack_rows, normal_rows = _ROWS
    ratio = cfg.ratios[r_idx]
    data = build_imbalanced(
        attack_rows, normal_rows, cfg.n_attack, ratio,
        np.random.SeedSequence([seed, _BUILD, r_idx]),
    )
    train_set, test_set = split_train_test(
        data, cfg.train_frac, np.random.SeedSequence([seed, _SPLIT, r_idx])
    )
    del data
    stats = normalize_fit(train_set.x)
    xtr = normalize_apply(train_set.x, stats)
    ytr = train_set.y
    xte = normalize_apply(test_set.x, stats)
    yte = test_set.y
    del train_set, test_set
    if use_smote:
        xtr, ytr, _ = augment_training_set(
            xtr, ytr,
            target_ratio=cfg.smote_target_ratio,
            k=cfg.smote_k,
            seed=np.random.SeedSequence([seed, _SMOTE, r_idx]),
        )
    model = init_model(
        cfg.layer_sizes,
        np.random.SeedSequence([seed, _INIT, r_idx, int(use_smote)]),
    )
    train(model, LabeledDataset(xtr, ytr), cfg.train,
          derive_seed(seed, _TRAIN, r_idx, int(use_smote)))
    preds = predict(model, xte)
    return CellResult(ratio, seed, use_smote, MetricsReport.from_confusion(confusion(preds, yte)))


def _run_seed(cfg: ExperimentConfig, seed: int) -> List[CellResult]:
    """Simulate one pool, then run every (ratio, smote) cell for this seed
    on a pool of forked workers. Cells come back in the order they finish."""
    # Imported here: `import imbalidx` loads this module, and most callers
    # never sweep.
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, as_completed, wait

    packets, rules = simulate(cfg.pool_sim(), np.random.SeedSequence([seed, _SIM]))
    feats = features_from_packets(packets, rules)
    del packets
    if cfg.workdir is not None:
        out = Path(cfg.workdir)
        out.mkdir(parents=True, exist_ok=True)
        write_features_csv(feats, out / f"features_seed{seed}.csv")
    x, y = to_arrays(feats)
    del feats
    attack_rows = x[y == ATTACK]
    normal_rows = x[y != ATTACK]
    del x, y

    # Largest training set first (smallest ratio, SMOTE before plain), so
    # the small cells fill in around the large ones.
    by_ratio = sorted(enumerate(cfg.ratios), key=lambda item: item[1])
    cells = [(r_idx, use_smote) for r_idx, ratio in by_ratio
             for use_smote in ((True, False) if ratio in cfg.smote_ratios else (False,))]
    workers = min(len(os.sched_getaffinity(0)), len(cells))
    results: List[CellResult] = []
    running = set()
    # fork, so that each worker inherits initargs copy-on-write; none is pickled.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_share_rows,
                             initargs=(attack_rows, normal_rows)) as pool:
        # A cell is submitted only when a worker is free, so none waits in
        # the pool's queue: after the first failure raises, no new cell
        # starts, and leaving the block waits only for those already running.
        for c in cells:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                results.extend(f.result() for f in done)
            running.add(pool.submit(_run_cell, cfg, seed, *c))
        results.extend(f.result() for f in as_completed(running))
    return results


def _sorted_cells(cfg: ExperimentConfig, cells: List[CellResult]) -> List[CellResult]:
    seed_pos = {s: i for i, s in enumerate(cfg.seeds)}
    return sorted(cells, key=lambda c: (-c.ratio, seed_pos[c.seed], c.smote))


def summarize(cells: List[CellResult]) -> List[SummaryRow]:
    """Median over seeds of every metric, one row per (ratio, smote) pair,
    in report order (ratio descending, plain before SMOTE)."""
    groups: Dict[Tuple[float, bool], List[tuple]] = {}
    for c in cells:
        groups.setdefault((c.ratio, c.smote), []).append(astuple(c.report))
    return [
        SummaryRow(r, s, MetricsReport(*np.median(groups[r, s], axis=0).tolist()))
        for r, s in sorted(groups, key=lambda k: (-k[0], k[1]))
    ]


def run_experiment(
    cfg: ExperimentConfig = ExperimentConfig(), threads: int = 1
) -> ExperimentResult:
    """Run the sweep, one seed at a time in config order, each seed's
    cells on its own worker processes, so calls from concurrent threads
    each keep their own rows; cells come back sorted by ratio desc, seed
    asc, smote asc. threads is accepted, and ignored, only because
    perfbench/worker.py passes it; it must be >= 1."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cells: List[CellResult] = []
    for seed in cfg.seeds:
        cells.extend(_run_seed(cfg, seed))
    cells = _sorted_cells(cfg, cells)
    return ExperimentResult(cfg, tuple(cells), tuple(summarize(cells)))


def _metric_fields(r: MetricsReport) -> str:
    return ",".join(f"{v:.6f}" for v in astuple(r))


def config_checksum(cfg: ExperimentConfig) -> str:
    text = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def write_report(result: ExperimentResult, report_path) -> Dict[str, str]:
    """Detail CSV at report_path, plus <stem>.summary.csv and
    <stem>.manifest.json next to it. Returns {filename: sha256}. The
    manifest carries no timestamps, so identical runs produce identical
    bytes throughout."""
    report_path = Path(report_path)
    report_path.parent.mkdir(parents=True, exist_ok=True)
    summary_path = report_path.with_name(report_path.stem + ".summary.csv")
    manifest_path = report_path.with_name(report_path.stem + ".manifest.json")
    names = ",".join(f.name for f in fields(MetricsReport))
    texts = {
        report_path: f"ratio,seed,smote,{names}\n" + "".join(
            f"{c.ratio:g},{c.seed},{int(c.smote)},{_metric_fields(c.report)}\n"
            for c in result.cells),
        summary_path: f"ratio,smote,{names}\n" + "".join(
            f"{r.ratio:g},{int(r.smote)},{_metric_fields(r.report)}\n"
            for r in result.summary),
    }
    hashes = {}
    for path, text in texts.items():
        data = text.encode()
        path.write_bytes(data)
        hashes[path.name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "config": asdict(result.config),
        "config_sha256": config_checksum(result.config),
        "outputs": hashes,
        "detail_rows": len(result.cells),
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")
    return hashes
