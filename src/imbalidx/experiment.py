"""Ratio sweep: simulate once per seed, then build/train/evaluate per cell.

One simulated traffic pool per seed feeds every ratio, so the sweep's cost
is dominated by the largest ratio demand. A seed's pool is one feature
matrix x with its labels y, and a cell's dataset is a list of row ids into
it. Each (ratio, seed) cell draws its dataset's ids at the imbalance ratio,
splits them 80/20 stratified, gathers each split once from x, z-scores
both in place with training stats, trains the classifier, and scores the
held-out test split. For the configured subset of ratios the training set
is additionally SMOTE-augmented and the cell is run again, so reports
carry matched with/without rows.

Every stage draws from default_rng(SeedSequence([seed, stage, *cell])),
so cells are independent and the whole sweep is reproducible byte for
byte.

The report columns after the cell keys are the fields of MetricsReport,
in their order; this module names no metric itself.

Seeds run one at a time, in config order, so only one seed's pool is
alive at once. Cells do not: within a seed, each (ratio, smote) cell is
one task on a pool of forked worker processes, one per usable CPU and at
most one per cell. The pool's initializer hands each worker the seed's
x and y, copy-on-write, so the parent keeps no sweep state. The largest
training sets go first, and the report sorts the cells, so no output byte
depends on the worker count.

run_cell runs one cell alone, in the calling process, through the same
_seed_rows and _run_cell, and detail_csv formats its row as write_report
does; so `imbalidx cell` prints the sweep's own detail row.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dataset import (
    DegenerateSplit,
    build_imbalanced,
    normalize_apply,
    normalize_fit,
    required_normals,
    split_train_test,
    train_count,
)
from .flows import (FEATURE_NAMES, LabeledDataset, features_from_packets, to_arrays,
                    write_features_csv)
from .metrics import MetricsReport, confusion
from .mlp import TrainConfig, init_model, predict, train
from .simulate import SimConfig, simulate
from .smote import augment_training_set, synthetic_count
from .textio import ConfigInvalid, check_fields

# Stage tags, the second word of every SeedSequence the sweep draws from.
_SIM, _BUILD, _SPLIT, _SMOTE, _INIT, _TRAIN = range(6)

# The method every cell shares: the training share of each class, the
# classifier's layers, SMOTE's neighbours (k as in Chawla et al. 2002) and
# target attack share, and the normal sessions a pool holds beyond need.
TRAIN_FRAC = 0.8
LAYER_SIZES = (len(FEATURE_NAMES), 16, 8, 1)
SMOTE_K = 5
SMOTE_TARGET_RATIO = 0.10
POOL_MARGIN = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    """The sweep grid; the method is the module constants above."""

    ratios: Tuple[float, ...] = (0.10, 0.01, 0.007, 0.003, 0.001)
    smote_ratios: Tuple[float, ...] = (0.007, 0.003, 0.001)
    seeds: Tuple[int, ...] = (0, 1, 2)
    n_attack: int = 1000
    train: TrainConfig = TrainConfig()
    workdir: Optional[str] = None

    def __post_init__(self):
        check_fields(self)
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
        if any(not 0 <= s < 2**64 for s in self.seeds):  # as --seed, for `cell`
            raise ConfigInvalid("seeds must be non-negative and below 2**64")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigInvalid("seeds must be unique")
        if self.n_attack < 2:
            raise ConfigInvalid(f"n_attack must be >= 2, got {self.n_attack}")
        # Every cell must run as asked: each ratio's split keeps both
        # classes on both sides, and SMOTE grows a minority attack class.
        for r in self.ratios:
            try:
                n_attack, n_normal = (train_count(n, TRAIN_FRAC) for n in
                                      (self.n_attack, required_normals(self.n_attack, r)))
            except DegenerateSplit as exc:
                raise ConfigInvalid(f"ratio {r}: {exc}") from None
            if r not in self.smote_ratios:
                continue
            if not r < SMOTE_TARGET_RATIO:
                raise ConfigInvalid(f"smote ratio {r} must be below SMOTE's target "
                                    f"attack share {SMOTE_TARGET_RATIO}")
            grown = synthetic_count(n_attack, n_attack + n_normal, SMOTE_TARGET_RATIO)
            if n_attack <= SMOTE_K or grown == 0:
                raise ConfigInvalid(f"smote ratio {r}: SMOTE needs over k={SMOTE_K} "
                                    f"training attacks and 1 new row, got {n_attack} and {grown}")

    def pool_sim(self) -> SimConfig:
        """The simulator config of every seed's pool: enough normal
        sessions for the smallest ratio plus POOL_MARGIN, and n_attack
        attack sessions. Its seed is an argument of simulate."""
        return SimConfig(required_normals(self.n_attack, min(self.ratios)) + POOL_MARGIN,
                         self.n_attack)


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


# A cell worker's seed pool, (x, y); unset in the parent.
_ROWS: Optional[Tuple[np.ndarray, np.ndarray]] = None


def _share_rows(x: np.ndarray, y: np.ndarray) -> None:
    """Cell pool initializer: keep the seed's pool for this worker's cells."""
    global _ROWS
    _ROWS = x, y


def _seed_rows(cfg: ExperimentConfig, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Simulate seed's pool and return its feature matrix x and labels y;
    with a workdir, its feature CSV is kept there too. ValueError unless
    the pool gave one flow per session and cfg.n_attack attack flows."""
    sim = cfg.pool_sim()
    packets, rules = simulate(sim, np.random.SeedSequence([seed, _SIM]))
    feats = features_from_packets(packets, rules)
    del packets
    sessions = sim.n_normal_flows + sim.n_attack_flows
    if len(feats) != sessions or feats.n_attack != cfg.n_attack:
        raise ValueError(f"seed {seed}: the pool gave {len(feats)} flows ({feats.n_attack} "
                         f"attack) for {sessions} sessions ({cfg.n_attack} attack)")
    if cfg.workdir is not None:
        out = Path(cfg.workdir)
        out.mkdir(parents=True, exist_ok=True)
        write_features_csv(feats, out / f"features_seed{seed}.csv")
    return to_arrays(feats)


def _run_cell(cfg: ExperimentConfig, seed: int, r_idx: int, use_smote: bool,
              x: np.ndarray, y: np.ndarray) -> CellResult:
    """Draw ratio r_idx's dataset as row ids into the seed's pool (x, y),
    split them, gather each split from x and z-score it in place,
    optionally SMOTE the training split, then train and score one model.
    Every draw comes from (seed, stage, cell), so a cell gives the same
    result in whichever process runs it; a plain cell and its SMOTE twin
    build the same dataset."""
    ratio = cfg.ratios[r_idx]
    rows = build_imbalanced(y, cfg.n_attack, ratio, np.random.SeedSequence([seed, _BUILD, r_idx]))
    train_rows, test_rows = (rows[pos] for pos in split_train_test(
        y[rows], TRAIN_FRAC, np.random.SeedSequence([seed, _SPLIT, r_idx])))
    xtr, ytr, xte, yte = x[train_rows], y[train_rows], x[test_rows], y[test_rows]
    # The ids are dead weight at the cell's peak, inside normalize_fit.
    del rows, train_rows, test_rows
    stats = normalize_fit(xtr)
    normalize_apply(xtr, stats)
    normalize_apply(xte, stats)
    if use_smote:
        xtr, ytr, _ = augment_training_set(
            xtr, ytr,
            target_ratio=SMOTE_TARGET_RATIO,
            k=SMOTE_K,
            seed=np.random.SeedSequence([seed, _SMOTE, r_idx]),
        )
    model = init_model(
        LAYER_SIZES,
        np.random.SeedSequence([seed, _INIT, r_idx, int(use_smote)]),
    )
    train(model, LabeledDataset(xtr, ytr), cfg.train,
          np.random.SeedSequence([seed, _TRAIN, r_idx, int(use_smote)]))
    preds = predict(model, xte)
    return CellResult(ratio, seed, use_smote, MetricsReport.from_confusion(confusion(preds, yte)))


def _pooled_cell(cfg: ExperimentConfig, seed: int, r_idx: int, use_smote: bool) -> CellResult:
    """A cell pool task: _run_cell on this worker's _ROWS."""
    return _run_cell(cfg, seed, r_idx, use_smote, *_ROWS)


def _run_seed(cfg: ExperimentConfig, seed: int) -> List[CellResult]:
    """Simulate one pool, then run every (ratio, smote) cell for this seed
    on a pool of forked workers. Cells come back in the order they finish."""
    # Imported here: every CLI start loads this module, and most commands
    # never sweep.
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, as_completed, wait

    x, y = _seed_rows(cfg, seed)

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
                             initargs=(x, y)) as pool:
        # A cell is submitted only when a worker is free, so none waits in
        # the pool's queue: after the first failure raises, no new cell
        # starts, and leaving the block waits only for those already running.
        for c in cells:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                results.extend(f.result() for f in done)
            running.add(pool.submit(_pooled_cell, cfg, seed, *c))
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


def run_cell(cfg: ExperimentConfig, ratio: float, seed: int, use_smote: bool) -> CellResult:
    """The sweep's (ratio, seed, smote) cell, run alone in this process on
    seed's pool, so it is the cell a sweep over seed writes. ConfigInvalid
    unless the grid holds the cell: the ratio's index in cfg.ratios is part
    of every seed path, and SMOTE is checked only for cfg.smote_ratios."""
    if ratio not in cfg.ratios:
        raise ConfigInvalid(f"ratio {ratio:g} is not in ratios {list(cfg.ratios)}")
    if use_smote and ratio not in cfg.smote_ratios:
        raise ConfigInvalid(f"ratio {ratio:g} is not in smote_ratios {list(cfg.smote_ratios)}")
    return _run_cell(cfg, seed, cfg.ratios.index(ratio), use_smote, *_seed_rows(cfg, seed))


_METRIC_NAMES = ",".join(f.name for f in fields(MetricsReport))


def _metric_fields(r: MetricsReport) -> str:
    return ",".join(f"{v:.6f}" for v in astuple(r))


def detail_csv(cells: Sequence[CellResult]) -> str:
    """The detail CSV: its header, then one row per cell, in order."""
    return f"ratio,seed,smote,{_METRIC_NAMES}\n" + "".join(
        f"{c.ratio:g},{c.seed},{int(c.smote)},{_metric_fields(c.report)}\n" for c in cells)


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
    texts = {
        report_path: detail_csv(result.cells),
        summary_path: f"ratio,smote,{_METRIC_NAMES}\n" + "".join(
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
