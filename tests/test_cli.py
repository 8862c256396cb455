"""Command-line interface: pipeline wiring, file outputs, exit codes."""

import concurrent.futures
import hashlib
import importlib.util
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import imbalidx
from imbalidx import dataset as ds
from imbalidx import experiment
from imbalidx import flows as fl
from imbalidx import mlp
from imbalidx.cli import main
from imbalidx.metrics import MetricsReport, confusion
from imbalidx.simulate import simulate
from imbalidx.smote import augment_training_set
from imbalidx.textio import config_from_json

SIM_JSON = json.dumps({"n_normal_flows": 60, "n_attack_flows": 12})


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every stage once; tests pick over the outputs."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "config": root / "sim.json",
        "pcap": root / "run.pcap",
        "labels": root / "run.labels.csv",
        "features": root / "features.csv",
        "dataset": root / "dataset.csv",
        "augmented": root / "augmented.csv",
        "provenance": root / "prov.csv",
        "train_cfg": root / "train.json",
        "model": root / "model.json",
        "metrics": root / "metrics.json",
    }
    paths["config"].write_text(SIM_JSON)
    paths["train_cfg"].write_text(
        json.dumps({"epochs": 25, "batch_size": 16, "layer_sizes": [23, 8, 1]})
    )
    steps = [
        ["simulate", "--config", str(paths["config"]), "--seed", "5",
         "--out", str(root / "run")],
        ["extract", "--in", str(paths["pcap"]), "--labels", str(paths["labels"]),
         "--idle-timeout", "60", "--out", str(paths["features"])],
        ["build", "--features", str(paths["features"]), "--ratio", "0.2",
         "--seed", "3", "--out", str(paths["dataset"])],
        ["smote", "--data", str(paths["dataset"]), "--target-count", "32",
         "--seed", "4", "--provenance", str(paths["provenance"]),
         "--out", str(paths["augmented"])],
        ["train", "--data", str(paths["augmented"]), "--config",
         str(paths["train_cfg"]), "--seed", "7", "--out", str(paths["model"])],
        ["evaluate", "--model", str(paths["model"]), "--data", str(paths["dataset"]),
         "--out", str(paths["metrics"])],
    ]
    for argv in steps:
        code = main(argv)
        assert code == 0, f"{argv[0]} exited {code}"
    return paths


def test_simulate_outputs(pipeline):
    assert pipeline["pcap"].is_file()
    assert pipeline["labels"].is_file()
    rules = fl.read_label_csv(pipeline["labels"])
    assert len(rules) == 12


def test_extract_outputs(pipeline):
    feats = fl.read_features_csv(pipeline["features"])
    assert len(feats) == 72
    assert feats.n_attack == 12


def test_build_outputs(pipeline):
    data = fl.read_features_csv(pipeline["dataset"])
    assert len(data) == 60
    assert data.n_attack == 12
    meta = json.loads(
        pipeline["dataset"].with_suffix(".csv.meta.json").read_text()
    )
    assert meta["ratio"] == 0.2
    assert meta["seed"] == 3


def test_smote_outputs(pipeline):
    before = fl.read_features_csv(pipeline["dataset"])
    after = fl.read_features_csv(pipeline["augmented"])
    assert len(after) == len(before) + 20  # minority 12 grown to 32
    assert after.n_attack == 32
    prov = pipeline["provenance"].read_text().splitlines()
    assert prov[0] == "base_idx,neighbor_idx,gap"
    assert len(prov) == 21


def test_train_outputs(pipeline):
    model = mlp.load_model(pipeline["model"])
    assert model.layer_sizes == [23, 8, 1]
    stats_path = pipeline["model"].with_name(pipeline["model"].name + ".stats.json")
    assert stats_path.is_file()


def test_evaluate_outputs(pipeline):
    report = json.loads(pipeline["metrics"].read_text())
    assert set(report) == {"accuracy", "far", "ur", "mcc", "sensitivity"}
    assert report["ur"] == pytest.approx(100.0 - report["sensitivity"])
    assert 0.0 <= report["accuracy"] <= 100.0


def test_simulate_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(SIM_JSON)
    for name in ("a", "b"):
        assert main(["simulate", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.pcap").read_bytes() == (tmp_path / "b.pcap").read_bytes()
    assert (tmp_path / "a.labels.csv").read_bytes() == \
        (tmp_path / "b.labels.csv").read_bytes()


def test_simulate_seed_flag_picks_the_capture(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(SIM_JSON)
    assert main(["simulate", "--config", str(cfg), "--seed", "5",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(cfg), "--seed", "99",
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.pcap").read_bytes() != (tmp_path / "b.pcap").read_bytes()


def test_packets_csv_flag(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"n_normal_flows": 4, "n_attack_flows": 0}))
    assert main(["simulate", "--config", str(cfg), "--seed", "1", "--packets-csv",
                 "--out", str(tmp_path / "run")]) == 0
    csv_path = tmp_path / "run.packets.csv"
    assert csv_path.is_file()
    from imbalidx.packets import read_packet_csv, read_pcap

    assert read_packet_csv(csv_path) == read_pcap(tmp_path / "run.pcap")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def _fresh_import(code):
    """stdout of code run in a fresh interpreter that imports this imbalidx."""
    env = dict(os.environ, PYTHONPATH=str(Path(imbalidx.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_import_leaves_the_process_pool_modules_unloaded():
    # _run_seed imports them when a sweep runs, so every CLI start skips
    # their import time; imbalidx.cli loads every other module.
    assert _fresh_import(
        "import sys, imbalidx.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    ) == "[]\n"


def test_bare_import_loads_no_submodule():
    # Names are imported from their modules; the package root holds only
    # __version__.
    assert _fresh_import(
        "import sys, imbalidx; "
        "print(imbalidx.__version__, sorted(m for m in sys.modules if m.startswith('imbalidx.')))"
    ) == "0.1.0 []\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["simulate", "--out", "x"],  # missing --config
        ["simulate", "--config", "c.json", "--out", "x", "--seed", "-1"],
        ["build", "--features", "f.csv", "--out", "x"],  # missing --ratio
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_missing_capture_exits_one(tmp_path, capsys):
    code = main(["extract", "--in", str(tmp_path / "nope.pcap"),
                 "--out", str(tmp_path / "f.csv")])
    assert code == 1


def test_bad_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text('{"n_normal_flow": 5}')
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_model_exits_one(tmp_path, capsys):
    code = main(["evaluate", "--model", str(tmp_path / "nope.json"),
                 "--data", str(tmp_path / "d.csv")])
    assert code == 1
    assert "model not found" in capsys.readouterr().err


def _run_cli(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(imbalidx.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "imbalidx.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize(
    "command,flag,others",
    [
        ("extract", "--labels", ["--in", "pcap"]),
        ("build", "--features", ["--ratio", "0.2"]),
        ("smote", "--data", []),
        ("train", "--data", []),
        ("evaluate", "--model", ["--data", "dataset"]),
        ("evaluate", "--data", ["--model", "model"]),
    ],
    ids=["extract-labels", "build-features", "smote-data", "train-data",
         "evaluate-model", "evaluate-data"],
)
def test_missing_input_file_exits_one(pipeline, tmp_path, command, flag, others):
    missing = tmp_path / "missing.csv"
    argv = [command, flag, str(missing), "--out", str(tmp_path / "out")]
    for name, key in zip(others[::2], others[1::2]):
        argv += [name, str(pipeline[key]) if key in pipeline else key]
    proc = _run_cli(argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert f"not found: {missing}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "stats",
    ['{"std": [1.0]}', "[1, 2]",
     json.dumps({"mean": [0.0] * 23, "std": [0.0] * 23})],
    ids=["no-mean", "array", "zero-std"],
)
def test_bad_stats_sidecar_exits_two(pipeline, tmp_path, stats):
    import shutil

    model = tmp_path / "model.json"
    shutil.copy(pipeline["model"], model)
    (tmp_path / "model.json.stats.json").write_text(stats)
    proc = _run_cli(["evaluate", "--model", str(model), "--data", str(pipeline["dataset"])])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "stats" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_malformed_model_exits_two(pipeline, tmp_path):
    model = tmp_path / "model.json"
    model.write_text("[1, 2]")
    proc = _run_cli(["evaluate", "--model", str(model), "--data", str(pipeline["dataset"])])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "JSON object" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_train_seed_flag_pins_the_model(pipeline, tmp_path):
    cfg = tmp_path / "train.json"
    cfg.write_text('{"epochs": 3, "batch_size": 16}')
    models = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in models:
        assert main(["train", "--data", str(pipeline["augmented"]), "--config", str(cfg),
                     "--seed", "3", "--out", str(out)]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()
    # Without --seed, init and shuffling are unseeded.
    for out in models:
        assert main(["train", "--data", str(pipeline["augmented"]), "--config", str(cfg),
                     "--out", str(out)]) == 0
    assert models[0].read_bytes() != models[1].read_bytes()


def test_missing_stats_sidecar_exits_two(pipeline, tmp_path, capsys):
    import shutil

    lone = tmp_path / "model.json"
    shutil.copy(pipeline["model"], lone)
    code = main(["evaluate", "--model", str(lone),
                 "--data", str(pipeline["dataset"])])
    assert code == 2
    assert "stats" in capsys.readouterr().err


def test_overdrawn_pool_exits_two(pipeline, tmp_path, capsys):
    code = main(["build", "--features", str(pipeline["features"]),
                 "--ratio", "0.001", "--seed", "0",
                 "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert "pool" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["12", "13"])
def test_smote_k_at_or_above_the_minority_count_exits_two(pipeline, tmp_path, capsys, k):
    # The dataset's minority class is its 12 attack rows.
    out = tmp_path / "augmented.csv"
    code = main(["smote", "--data", str(pipeline["dataset"]), "--target-count", "32",
                 "--k", k, "--seed", "4", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"k={k}" in err
    assert not out.exists()


def test_unknown_train_key_exits_two(pipeline, tmp_path, capsys):
    bad = tmp_path / "train.json"
    bad.write_text('{"epohcs": 3}')
    code = main(["train", "--data", str(pipeline["dataset"]),
                 "--config", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 2


def test_train_checks_its_config_before_the_data(pipeline, tmp_path, capsys):
    header, first, *rest = pipeline["dataset"].read_text().splitlines()
    bad_data = tmp_path / "bad.csv"
    bad_data.write_text("\n".join([header, "nan" + first[first.index(","):], *rest]) + "\n")
    good_cfg = tmp_path / "good.json"
    good_cfg.write_text('{"epochs": 1}')
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"epochs": "3"}')
    out = str(tmp_path / "m.json")
    assert main(["train", "--data", str(bad_data), "--config", str(good_cfg),
                 "--out", out]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert main(["train", "--data", str(bad_data), "--config", str(bad_cfg),
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epochs" in err


@pytest.mark.parametrize(
    "config,fragment",
    [
        ('{"layer_sizes": [23, 8, 2]}', "layer_sizes"),
        ('{"layer_sizes": [10, 1]}', "layer_sizes"),
        ('{"epochs": 3', "config is not valid JSON"),
    ],
)
def test_train_checks_layer_sizes_before_the_data(tmp_path, capsys, config, fragment):
    cfg = tmp_path / "train.json"
    cfg.write_text(config)
    assert main(["train", "--data", str(tmp_path / "missing.csv"), "--config", str(cfg),
                 "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err


@pytest.mark.parametrize("timeout", ["nan", "0", "-1"])
def test_extract_rejects_meaningless_idle_timeouts(pipeline, tmp_path, capsys, timeout):
    out = tmp_path / "features.csv"
    assert main(["extract", "--in", str(pipeline["pcap"]), "--idle-timeout", timeout,
                 "--out", str(out)]) == 2
    assert "--idle-timeout" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,config,key",
    [
        ("experiment", '{"n_attack": "5"}', "n_attack"),
        ("experiment", '{"ratios": 5}', "ratios"),
        ("experiment", '{"train": {"epochs": 2.5}}', "train.epochs"),
        ("experiment", '{"train": {"seed": 1}}', "train.seed"),  # seeds are call arguments
        ("experiment", '{"layer_sizes": [23, 8, 2]}', "layer_sizes"),
        ("train", '{"epochs": "3"}', "epochs"),
        ("train", '{"layer_sizes": 5}', "layer_sizes"),
        ("train", '{"threshold": 0.7}', "threshold"),  # evaluate --threshold sets it
        ("train", '{"seed": 5}', "seed"),
        ("simulate", '{"seed": 5}', "seed"),
        ("simulate", '{"attacker_addr": "010.0.0.66"}', "attacker_addr"),
        # Its SMOTE cell trains on 4 attacks, too few for smote_k 5.
        ("experiment", '{"n_attack": 5, "ratios": [0.1, 0.01], "smote_ratios": [0.01], '
                       '"seeds": [0]}', "smote_k"),
    ],
)
def test_wrongly_typed_config_exits_two(pipeline, tmp_path, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    if command == "train":
        argv += ["--data", str(pipeline["dataset"])]
    proc = _run_cli(argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


EXPERIMENT_JSON = json.dumps({
    "ratios": [0.5, 0.25],
    "smote_ratios": [0.25],
    "seeds": [0, 1],
    "n_attack": 40,
    "pool_margin": 20,
    "layer_sizes": [23, 8, 1],
    "train": {"epochs": 10, "batch_size": 32},
    "smote_target_ratio": 0.4,
})


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    cfg = root / "exp.json"
    cfg.write_text(EXPERIMENT_JSON)
    out = root / "report.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


def test_experiment_detail_rows(sweep):
    _, out = sweep
    lines = out.read_text().splitlines()
    assert lines[0] == "ratio,seed,smote,accuracy,far,ur,mcc,sensitivity"
    # 2 ratios x 2 seeds, plus the smote variant at one ratio.
    assert len(lines) == 1 + 6
    assert [l.split(",")[:3] for l in lines[1:]] == [
        ["0.5", "0", "0"], ["0.5", "1", "0"],
        ["0.25", "0", "0"], ["0.25", "0", "1"],
        ["0.25", "1", "0"], ["0.25", "1", "1"],
    ]


def test_experiment_summary_and_manifest(sweep):
    _, out = sweep
    summary = out.with_name("report.summary.csv").read_text().splitlines()
    assert summary[0] == "ratio,smote,accuracy,far,ur,mcc,sensitivity"
    assert [l.split(",")[:2] for l in summary[1:]] == [
        ["0.5", "0"], ["0.25", "0"], ["0.25", "1"],
    ]
    manifest = json.loads(out.with_name("report.manifest.json").read_text())
    assert manifest["detail_rows"] == 6
    assert set(manifest["outputs"]) == {"report.csv", "report.summary.csv"}
    assert manifest["config"]["n_attack"] == 40


def test_experiment_rerun_is_byte_identical(sweep, tmp_path, capsys):
    cfg, out = sweep
    redo = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(redo)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(rf"6 cells in \d+\.\ds -> {re.escape(str(redo))}", first)
    for name in ("report.csv", "report.summary.csv", "report.manifest.json"):
        assert redo.with_name(name).read_bytes() == out.with_name(name).read_bytes()


# At 200 attacks the test splits are large enough for the reports to show
# the training stream, so a stream that followed a thread or a worker would
# show too; the tests below check that it does.
EXPERIMENT_200 = {**json.loads(EXPERIMENT_JSON), "n_attack": 200}


def _report_bytes(result, path):
    experiment.write_report(result, path)
    return [path.with_name(n).read_bytes()
            for n in ("report.csv", "report.summary.csv", "report.manifest.json")]


def _reseed_train(monkeypatch):
    """Give every training stream's seed sequence one more word."""
    train = experiment.train
    monkeypatch.setattr(experiment, "train", lambda model, data, cfg, seed: train(
        model, data, cfg, np.random.SeedSequence([*seed.entropy, 1])))  # workers fork it


def test_seeds_run_one_at_a_time_in_config_order(tmp_path, monkeypatch):
    # Each seed is held open long enough for a concurrent seed to start;
    # even with threads=2, none may.
    exp = config_from_json(experiment.ExperimentConfig, EXPERIMENT_200)
    reference = _report_bytes(experiment.run_experiment(exp), tmp_path / "ref" / "report.csv")
    real_run_seed = experiment._run_seed
    guard = threading.Lock()
    in_flight = [0]
    peak = [0]
    order = []

    def counting_run_seed(cfg, seed):
        with guard:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
            order.append(seed)
        try:
            time.sleep(0.05)
            return real_run_seed(cfg, seed)
        finally:
            with guard:
                in_flight[0] -= 1

    monkeypatch.setattr(experiment, "_run_seed", counting_run_seed)
    result = experiment.run_experiment(exp, threads=2)
    assert peak[0] == 1
    assert order == list(exp.seeds)
    assert _report_bytes(result, tmp_path / "threads" / "report.csv") == reference

    _reseed_train(monkeypatch)
    reseeded = experiment.run_experiment(exp, threads=2)
    assert _report_bytes(reseeded, tmp_path / "reseeded" / "report.csv")[0] != reference[0]


def test_experiment_has_no_threads_flag(sweep, tmp_path, capsys):
    cfg, _ = sweep
    assert main(["experiment", "--config", str(cfg), "--threads", "2",
                 "--out", str(tmp_path / "report.csv")]) == 1
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_run_experiment_rejects_threads_below_one():
    with pytest.raises(ValueError, match="threads"):
        experiment.run_experiment(experiment.ExperimentConfig(), threads=0)


def test_report_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    # The pool takes one worker per usable CPU, so the affinity lookup sets
    # the count; the spy records what each seed's pool was given.
    exp = config_from_json(experiment.ExperimentConfig, EXPERIMENT_200)
    sizes = []

    class SizedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    def report_bytes(name):
        return _report_bytes(experiment.run_experiment(exp), tmp_path / name / "report.csv")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SizedPool)
    by_workers = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        by_workers.append(report_bytes(f"{len(cpus)}-workers"))
    assert by_workers[0] == by_workers[1]
    assert sizes == [1, 1, 2, 2]  # two seeds per run

    _reseed_train(monkeypatch)
    assert report_bytes("reseeded")[0] != by_workers[0][0]


def test_a_failing_cell_stops_the_sweep_and_leaves_no_worker(tmp_path, monkeypatch):
    # Twelve slow cells on two workers: the first failure reaches the
    # caller, and only the two cells already running by then ever start.
    exp = experiment.ExperimentConfig(
        ratios=(0.3, 0.25, 0.2, 0.15, 0.1, 0.05),
        smote_ratios=(0.3, 0.25, 0.2, 0.15, 0.1, 0.05),
        seeds=(0,), n_attack=40, pool_margin=20, layer_sizes=(23, 8, 1),
        train=mlp.TrainConfig(epochs=2, batch_size=32), smote_target_ratio=0.4,
    )
    started = tmp_path / "started"

    def diverging_train(*args, **kwargs):
        with open(started, "a") as f:  # one short O_APPEND write per cell
            f.write(f"{os.getpid()}\n")
        time.sleep(0.5)
        raise mlp.NonFiniteLoss("loss became nan")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(experiment, "train", diverging_train)  # workers fork it
    with pytest.raises(mlp.NonFiniteLoss, match="nan"):
        experiment.run_experiment(exp)
    assert multiprocessing.active_children() == []
    assert experiment._ROWS is None
    assert len(started.read_text().splitlines()) == 2


def test_two_sweeps_in_threads_keep_their_own_rows(monkeypatch):
    # Each pool's first submit waits until the other sweep has reached its
    # own, so both hold their seed's rows before either forks a worker.
    configs = [experiment.ExperimentConfig(
        ratios=(0.5, 0.25), smote_ratios=(0.25,), seeds=(seed,), n_attack=40,
        pool_margin=20, layer_sizes=(23, 8, 1),
        train=mlp.TrainConfig(epochs=5, batch_size=32), smote_target_ratio=0.4,
    ) for seed in (0, 7)]
    alone = [experiment.run_experiment(exp).cells for exp in configs]
    assert [c.report for c in alone[0]] != [c.report for c in alone[1]]
    both_forking = threading.Barrier(2, timeout=60)

    class MeetingPool(concurrent.futures.ProcessPoolExecutor):
        met = False

        def submit(self, *args, **kwargs):
            if not self.met:
                self.met = True
                both_forking.wait()
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", MeetingPool)
    results = [None, None]

    def sweep(i):
        try:
            results[i] = experiment.run_experiment(configs[i]).cells
        except Exception as exc:  # reported by the main thread below
            results[i] = exc

    threads = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert results == alone


def test_a_sweep_cell_draws_every_stage_from_seed_stage_and_cell(tmp_path, monkeypatch):
    # The recipe: stage k of a cell draws from SeedSequence([seed, k,
    # r_idx]), or ([seed, k, r_idx, smote]) for init and train, with the
    # stages numbered in pipeline order; the pool draws from [seed, 0].
    # Rebuild one SMOTE cell from it through the public stage functions.
    # This grid's test splits are too small for the metrics to show every
    # change of shuffle order, so the sweep's trained models are kept too,
    # named by a digest of their training rows.
    SIM, BUILD, SPLIT, SMOTE, INIT, TRAIN = range(6)
    exp = config_from_json(experiment.ExperimentConfig, EXPERIMENT_JSON)
    seed, r_idx = 1, 1
    assert exp.ratios[r_idx] in exp.smote_ratios

    def model_path(x):
        return tmp_path / f"{hashlib.sha256(x.tobytes()).hexdigest()}.json"

    def saving_train(model, train_set, *rest):
        out = mlp.train(model, train_set, *rest)
        mlp.save_model(model, model_path(train_set.x))  # workers fork it
        return out

    monkeypatch.setattr(experiment, "train", saving_train)
    cells = experiment.run_experiment(exp).cells

    def seeded(*path):
        return np.random.SeedSequence([seed, *path])

    x, y = fl.to_arrays(fl.features_from_packets(*simulate(exp.pool_sim(), seeded(SIM))))
    data = ds.build_imbalanced(x[y == fl.ATTACK], x[y != fl.ATTACK], exp.n_attack,
                               exp.ratios[r_idx], seeded(BUILD, r_idx))
    train_set, test_set = ds.split_train_test(data, exp.train_frac, seeded(SPLIT, r_idx))
    stats = ds.normalize_fit(train_set.x)
    xtr, ytr, _ = augment_training_set(
        ds.normalize_apply(train_set.x, stats), train_set.y,
        target_ratio=exp.smote_target_ratio, k=exp.smote_k, seed=seeded(SMOTE, r_idx))
    model = mlp.init_model(exp.layer_sizes, seeded(INIT, r_idx, 1))
    mlp.train(model, fl.LabeledDataset(xtr, ytr), exp.train, seeded(TRAIN, r_idx, 1))
    mlp.save_model(model, tmp_path / "by_hand.json")
    assert (tmp_path / "by_hand.json").read_bytes() == model_path(xtr).read_bytes()
    preds = mlp.predict(model, ds.normalize_apply(test_set.x, stats))
    by_hand = experiment.CellResult(exp.ratios[r_idx], seed, True,
                                    MetricsReport.from_confusion(confusion(preds, test_set.y)))
    assert by_hand in cells


def test_the_benchmark_tracer_still_finds_and_counts_the_sweep():
    # perfbench/spans.py patches names by string; a name deleted or renamed
    # here would break every traced benchmark run.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{attr}" for mod, attr, *_ in spans.PATCHES
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
    originals = (experiment.simulate, experiment.to_arrays, experiment.train)
    tracer = spans.Tracer("hooks")
    try:
        tracer.install()
        experiment.run_experiment(config_from_json(experiment.ExperimentConfig,
                                                   EXPERIMENT_JSON))
    finally:
        tracer.uninstall()
    assert (experiment.simulate, experiment.to_arrays, experiment.train) == originals
    spans.add_self_times(tracer.spans)
    metrics = spans.module_metrics(tracer.spans)
    assert metrics["simulate.packets"] > 0
    assert metrics["flows.per_session"] == 1.0


def test_experiment_workdir_keeps_each_seeds_features(sweep, tmp_path):
    _, out = sweep
    work = tmp_path / "work"
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({**json.loads(EXPERIMENT_JSON), "workdir": str(work)}))
    redo = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(redo)]) == 0
    exp = config_from_json(experiment.ExperimentConfig, cfg.read_text())
    for seed in exp.seeds:
        feats = fl.read_features_csv(work / f"features_seed{seed}.csv")
        assert len(feats) == exp.pool_sim().n_normal_flows + exp.n_attack
        assert feats.n_attack == exp.n_attack
    assert redo.read_bytes() == out.read_bytes()
    assert redo.with_name("report.summary.csv").read_bytes() == \
        out.with_name("report.summary.csv").read_bytes()


@pytest.mark.parametrize("n_seeds", [2, 3])
def test_summarize_takes_per_metric_medians_in_report_order(n_seeds):
    rng = np.random.default_rng(n_seeds)
    ratios = (0.01, 0.5, 0.1)  # not in report order
    cells = [
        experiment.CellResult(ratio, seed, smote, MetricsReport(*rng.uniform(-100, 100, 5)))
        for seed in range(n_seeds) for ratio in ratios for smote in (True, False)
    ]
    rows = experiment.summarize(cells)
    keys = sorted({(c.ratio, c.smote) for c in cells}, key=lambda k: (-k[0], k[1]))
    assert [(r.ratio, r.smote) for r in rows] == keys
    for row, (ratio, smote) in zip(rows, keys):
        group = [c.report for c in cells if (c.ratio, c.smote) == (ratio, smote)]
        assert len(group) == n_seeds
        for f in fields(MetricsReport):
            expected = float(np.median([getattr(g, f.name) for g in group]))
            assert getattr(row.report, f.name) == expected
