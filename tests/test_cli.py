"""Command-line interface: the capture path, the sweep and its cells,
file outputs, exit codes."""

import concurrent.futures
import hashlib
import importlib.util
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import feature_csv_oracle
import imbalidx
from conftest import assert_report_digests
from imbalidx import dataset as ds
from imbalidx import experiment
from imbalidx import flows as fl
from imbalidx import mlp
from imbalidx import packets as pk
from imbalidx.cli import build_parser, main
from imbalidx.metrics import MetricsReport, confusion
from imbalidx.simulate import simulate
from imbalidx.smote import augment_training_set
from imbalidx.textio import ConfigInvalid, config_from_json

SIM_JSON = json.dumps({"n_normal_flows": 60, "n_attack_flows": 12})


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """Run simulate and extract once; tests pick over the outputs."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "config": root / "sim.json",
        "pcap": root / "run.pcap",
        "labels": root / "run.labels.csv",
        "packets_csv": root / "run.packets.csv",
        "features": root / "features.csv",
        "csv_features": root / "csv_features.csv",
    }
    paths["config"].write_text(SIM_JSON)
    steps = [
        ["simulate", "--config", str(paths["config"]), "--seed", "5", "--packets-csv",
         "--out", str(root / "run")],
        ["extract", "--in", str(paths["pcap"]), "--labels", str(paths["labels"]),
         "--out", str(paths["features"])],
        ["extract", "--in", str(paths["packets_csv"]), "--labels", str(paths["labels"]),
         "--out", str(paths["csv_features"])],
    ]
    for argv in steps:
        code = main(argv)
        assert code == 0, f"{argv[0]} exited {code}"
    return paths


def test_simulate_outputs(capture):
    assert capture["pcap"].is_file()
    assert capture["labels"].is_file()
    rules = fl.read_label_csv(capture["labels"])
    assert len(rules) == 12


def test_extract_outputs(capture):
    rows = np.loadtxt(capture["features"], delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (72, len(fl.FEATURE_NAMES) + 1)
    assert np.count_nonzero(rows[:, -1] == fl.ATTACK) == 12
    # The packet CSV of the same capture is told apart by its header line.
    assert capture["csv_features"].read_bytes() == capture["features"].read_bytes()


def test_extract_writes_the_oracle_writers_bytes(capture, tmp_path):
    feats = fl.features_from_packets(pk.read_pcap(capture["pcap"]),
                                     fl.read_label_csv(capture["labels"]))
    feature_csv_oracle.write_features_csv(feats, tmp_path / "oracle.csv")
    assert capture["features"].read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize(
    "magic,name",
    [(bytes.fromhex("4d3cb2a1"), "A1B23C4D"),  # nanosecond pcap, little-endian
     (bytes.fromhex("0a0d0d0a"), "0A0D0D0A")],  # pcapng section header block
    ids=["pcap-ns", "pcapng"],
)
def test_extract_names_the_magic_of_a_capture_it_cannot_read(tmp_path, capsys, magic, name):
    capture = tmp_path / "capture"
    capture.write_bytes(magic + bytes(20))  # a whole 24-byte global header
    out = tmp_path / "features.csv"
    assert main(["extract", "--in", str(capture), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"magic 0x{name} is not a classic pcap" in err
    assert not out.exists()


def test_extract_creates_the_out_directory_once_its_inputs_are_read(capture, tmp_path):
    out = tmp_path / "c" / "d" / "f.csv"
    argv = ["extract", "--in", str(capture["pcap"]), "--out", str(out), "--labels"]
    assert main(argv + [str(tmp_path / "missing.csv")]) == 1
    assert not (tmp_path / "c").exists()
    assert main(argv + [str(capture["labels"])]) == 0
    assert out.read_bytes() == capture["features"].read_bytes()


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
    assert "{simulate,extract,cell,experiment}" in capsys.readouterr().out


def _fresh_import(code):
    """stdout of code run in a fresh interpreter that imports this imbalidx."""
    env = dict(os.environ, PYTHONPATH=str(Path(imbalidx.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_import_leaves_the_process_pool_modules_unloaded():
    # run_experiment imports them when a sweep runs, so every CLI start skips
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
        ["cell", "--seed", "0"],  # missing --ratio
        ["train", "--data", "d.csv", "--out", "m.json"],  # not a command
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["1_0", " 7", "+3", "\u0663"])  # the last an Arabic-Indic 3
@pytest.mark.parametrize("command", ["simulate", "cell"])
def test_seed_takes_ascii_digits_only(command, seed, tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text('{"n_normal_flows": 5, "n_attack_flows": 1}')
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")] \
        if command == "simulate" else ["cell", "--ratio", "0.1"]
    assert main([*argv, "--seed", seed]) == 1
    assert "argument --seed: seed must be ASCII digits" in capsys.readouterr().err


def test_simulate_needs_a_seed(tmp_path, capsys):
    # An unseeded capture could not be drawn again.
    cfg = tmp_path / "sim.json"
    cfg.write_text(SIM_JSON)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "the following arguments are required: --seed" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["sim.json"]


def test_a_sweep_takes_only_seeds_that_cell_takes(capsys):
    # So `imbalidx cell` can rerun every cell of every sweep: both stop
    # below 2**64.
    last = 2**64 - 1
    assert build_parser().parse_args(["cell", "--ratio", "0.1", "--seed", str(last)]).seed == last
    assert config_from_json(experiment.ExperimentConfig, f'{{"seeds": [{last}]}}').seeds == (last,)
    assert main(["cell", "--ratio", "0.1", "--seed", str(last + 1)]) == 1
    assert "below 2**64" in capsys.readouterr().err
    with pytest.raises(ConfigInvalid, match=r"below 2\*\*64"):
        config_from_json(experiment.ExperimentConfig, f'{{"seeds": [0, {last + 1}]}}')
    with pytest.raises(ConfigInvalid, match=r"below 2\*\*64"):
        experiment.ExperimentConfig(seeds=(last + 1,))


@pytest.mark.parametrize("command", ["build", "smote", "train", "evaluate"])
def test_the_stage_commands_are_gone(command, capsys):
    # `cell` runs one cell of the sweep by the sweep's own method instead.
    assert main([command, "--help"]) == 1
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--seed", "0",
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
    code = main(["simulate", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def _run_cli(argv, stdout=subprocess.PIPE, **env):
    env = dict(os.environ, PYTHONPATH=str(Path(imbalidx.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "imbalidx.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


@pytest.mark.parametrize(
    "command,flag,others",
    [
        ("extract", "--labels", ["--in", "pcap", "--out", "out"]),
        ("cell", "--config", ["--ratio", "0.5", "--seed", "0"]),
        ("experiment", "--config", ["--out", "out"]),
    ],
    ids=["extract-labels", "cell-config", "experiment-config"],
)
def test_missing_input_file_exits_one(capture, tmp_path, command, flag, others):
    missing = tmp_path / "missing.csv"
    paths = {"pcap": capture["pcap"], "out": tmp_path / "out"}
    proc = _run_cli([command, flag, str(missing), *(str(paths.get(v, v)) for v in others)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert f"not found: {missing}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,config,key",
    [
        ("experiment", '{"n_attack": "5"}', "n_attack"),
        ("experiment", '{"ratios": 5}', "ratios"),
        ("experiment", '{"train": {"epochs": 2.5}}', "train.epochs"),
        ("experiment", '{"train": {"seed": 1}}', "train.seed"),  # seeds are call arguments
        ("experiment", '{"layer_sizes": [23, 8, 2]}', "layer_sizes"),
        # The sweep's method is fixed: its old keys are unknown, even at the
        # values they had.
        ("experiment", '{"train_frac": 0.8}', "unknown config keys: train_frac"),
        ("experiment", '{"layer_sizes": [23, 16, 8, 1]}', "unknown config keys: layer_sizes"),
        ("experiment", '{"smote_k": 5}', "unknown config keys: smote_k"),
        ("experiment", '{"smote_target_ratio": 0.1}', "unknown config keys: smote_target_ratio"),
        ("experiment", '{"pool_margin": 1000}', "unknown config keys: pool_margin"),
        ("experiment", '{"train": {"learning_rate": 0.01}}',
         "unknown config keys: train.learning_rate"),
        ("experiment", '{"train": {"momentum": 0.9}}', "unknown config keys: train.momentum"),
        ("cell", '{"n_attack": "5"}', "n_attack"),
        ("cell", '{"train": {"epochs": 2.5}}', "train.epochs"),
        ("simulate", '{"seed": 5}', "seed"),
        # A repeated key, which plain JSON reading would take its last value of.
        ("simulate", '{"n_normal_flows": 5, "n_normal_flows": 7}',
         "repeats key 'n_normal_flows'"),
        ("experiment", '{"train": {"epochs": 2, "epochs": 3}}', "repeats key 'epochs'"),
        ("simulate", '{"attacker_addr": "010.0.0.66"}', "attacker_addr"),
        # Its SMOTE cell trains on 4 attacks, too few for SMOTE's k of 5.
        ("experiment", '{"n_attack": 5, "ratios": [0.1, 0.01], "smote_ratios": [0.01], '
                       '"seeds": [0]}', "over k=5 training attacks"),
    ],
)
def test_wrongly_typed_config_exits_two(tmp_path, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    argv = [command, "--config", str(cfg)]
    argv += ["--ratio", "0.5", "--seed", "0"] if command == "cell" else [
        "--out", str(tmp_path / "out.csv")]
    if command == "simulate":
        argv += ["--seed", "0"]
    proc = _run_cli(argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_the_sweep_classifier_takes_the_flow_features():
    assert mlp.check_architecture(experiment.LAYER_SIZES)[0] == len(fl.FEATURE_NAMES)


# SMOTE's ratio must sit below its 0.1 target share, so the SMOTE ratio is
# 0.05; each seed's pool is then 760 normals plus the 1,000-session margin.
EXPERIMENT_JSON = json.dumps({
    "ratios": [0.5, 0.05],
    "smote_ratios": [0.05],
    "seeds": [0, 1],
    "n_attack": 40,
    "train": {"epochs": 10, "batch_size": 32},
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
        ["0.05", "0", "0"], ["0.05", "0", "1"],
        ["0.05", "1", "0"], ["0.05", "1", "1"],
    ]


def test_experiment_summary_and_manifest(sweep):
    _, out = sweep
    summary = out.with_name("report.summary.csv").read_text().splitlines()
    assert summary[0] == "ratio,smote,accuracy,far,ur,mcc,sensitivity"
    assert [l.split(",")[:2] for l in summary[1:]] == [
        ["0.5", "0"], ["0.05", "0"], ["0.05", "1"],
    ]
    manifest = json.loads(out.with_name("report.manifest.json").read_text())
    assert manifest["detail_rows"] == 6
    assert set(manifest["outputs"]) == {"report.csv", "report.summary.csv"}
    assert manifest["config"]["n_attack"] == 40


def test_cell_prints_the_sweeps_own_detail_row(sweep, capsys):
    # Each of the grid's cells, a ratio past the first and the SMOTE cell
    # among them, run alone in this process: no pool, no rows left behind.
    cfg, out = sweep
    header, *rows = out.read_text().splitlines(keepends=True)
    assert len(rows) == 6
    for row in rows:
        ratio, seed, smote = row.split(",")[:3]
        argv = ["cell", "--config", str(cfg), "--ratio", ratio, "--seed", seed]
        assert main(argv + ["--smote"] * int(smote)) == 0
        assert capsys.readouterr().out == header + row
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "cell,fragment",
    [(["--ratio", "0.1"], "ratio 0.1 is not in ratios [0.5, 0.05]"),
     (["--ratio", "0.5", "--smote"], "ratio 0.5 is not in smote_ratios [0.05]")],
    ids=["ratio", "smote"],
)
def test_cell_refuses_a_cell_outside_the_grid(sweep, capsys, cell, fragment):
    # The ratio's index is part of every seed path, and only smote_ratios
    # are checked to be fit for SMOTE.
    cfg, _ = sweep
    assert main(["cell", "--config", str(cfg), "--seed", "0", *cell]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and fragment in captured.err
    assert captured.out == ""


@pytest.fixture
def rows_tempdir(tmp_path, monkeypatch):
    """A fresh, empty directory for tempfile, where a sweep keeps its row files."""
    path = tmp_path / "tempdir"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


def test_experiment_rerun_is_byte_identical(sweep, tmp_path, capsys, rows_tempdir, monkeypatch):
    # The second data stage sees the first seed's row files; none is left after.
    cfg, out = sweep
    redo = tmp_path / "report.csv"
    seen = []
    real_run_seed = experiment._run_seed

    def looking_run_seed(cfg, seed):
        seen.append(sorted(p.name for p in rows_tempdir.glob("*/*")))
        return real_run_seed(cfg, seed)

    monkeypatch.setattr(experiment, "_run_seed", looking_run_seed)
    assert main(["experiment", "--config", str(cfg), "--out", str(redo)]) == 0
    assert seen == [[], ["seed0.x.npy", "seed0.y.npy"]]
    assert list(rows_tempdir.iterdir()) == []
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
    # The data stages: each is held open long enough for a concurrent one
    # to start; even with threads=2, none may, and they run in config order.
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


@pytest.mark.parametrize("out,fragment", [
    (".", "--out is a directory"),
    ("report.csv/report.csv", "which is not a directory"),
    ("report.csv/deeper/report.csv", "which is not a directory"),
], ids=["directory", "under-a-file", "deep-under-a-file"])
def test_experiment_refuses_an_unwritable_out_before_the_sweep(tmp_path, monkeypatch, capsys,
                                                               out, fragment):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("imbalidx.cli.run_experiment", no_sweep)
    (tmp_path / "report.csv").write_text("")
    assert main(["experiment", "--out", str(tmp_path / out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out ") and fragment in captured.err
    assert captured.out == ""


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
    # the count; the spy records what each run's one pool was given.
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
    assert sizes == [1, 2]  # one pool per run

    _reseed_train(monkeypatch)
    assert report_bytes("reseeded")[0] != by_workers[0][0]


def _without_the_last_window(packets, rules):
    return packets, rules[:-1]


def _with_the_middle_sessions_split(packets, rules):
    # A 6 s gap, past the 5 s idle timeout, after the middle packet splits
    # each session that straddles it, and moves later attacks off their windows.
    cols = {c: getattr(packets, c) for c in pk.PacketTable.COLUMNS}
    cols["ts"] = np.where(np.arange(len(packets)) > len(packets) // 2, packets.ts + 6.0, packets.ts)
    return pk.PacketTable(**cols), rules


@pytest.mark.parametrize(
    "corrupt,broken",
    [(_without_the_last_window, lambda flows, attack: flows == 1800 and attack == 39),
     (_with_the_middle_sessions_split, lambda flows, attack: flows > 1800)],
    ids=["window-lost", "sessions-split"],
)
def test_a_pool_that_breaks_the_flow_contract_stops_the_sweep(tmp_path, monkeypatch, capsys,
                                                               rows_tempdir, corrupt, broken):
    # Each seed's pool is 1,760 normal and 40 attack sessions.
    real_simulate = experiment.simulate
    monkeypatch.setattr(experiment, "simulate", lambda *a: corrupt(*real_simulate(*a)))
    message = (r"seed 0: the pool gave (\d+) flows \((\d+) attack\) "
               r"for 1800 sessions \(40 attack\)")
    with pytest.raises(ValueError, match=message) as err:
        experiment.run_experiment(config_from_json(experiment.ExperimentConfig, EXPERIMENT_JSON))
    assert broken(*map(int, re.search(message, str(err.value)).groups()))
    assert multiprocessing.active_children() == []
    assert list(rows_tempdir.iterdir()) == []
    cfg = tmp_path / "exp.json"
    cfg.write_text(EXPERIMENT_JSON)
    assert main(["cell", "--config", str(cfg), "--ratio", "0.5", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert re.fullmatch(f"error: {message}\n", captured.err) and captured.out == ""


def test_a_failing_cell_stops_the_sweep_and_leaves_no_worker(tmp_path, monkeypatch,
                                                              rows_tempdir):
    # Twelve slow cells on two workers: the first failure reaches the
    # caller, and only the two cells already running by then ever start.
    exp = experiment.ExperimentConfig(
        ratios=(0.09, 0.08, 0.07, 0.06, 0.05, 0.04),
        smote_ratios=(0.09, 0.08, 0.07, 0.06, 0.05, 0.04),
        seeds=(0,), n_attack=40, train=mlp.TrainConfig(epochs=2, batch_size=32),
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
    assert list(rows_tempdir.iterdir()) == []
    assert len(started.read_text().splitlines()) == 2


def test_two_sweeps_in_threads_keep_their_own_rows(monkeypatch):
    # Each pool's first submit waits until the other sweep has reached its
    # own, so both hold their seed's rows before either forks a worker.
    configs = [experiment.ExperimentConfig(
        ratios=(0.5, 0.05), smote_ratios=(0.05,), seeds=(seed,), n_attack=40,
        train=mlp.TrainConfig(epochs=5, batch_size=32),
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
        return tmp_path / f"{hashlib.sha256(x.tobytes()).hexdigest()}.bin"

    def parameters(model):
        return b"".join(a.tobytes() for a in model.weights + model.biases)

    def saving_train(model, train_set, *rest):
        out = mlp.train(model, train_set, *rest)
        model_path(train_set.x).write_bytes(parameters(model))  # workers fork it
        return out

    monkeypatch.setattr(experiment, "train", saving_train)
    cells = experiment.run_experiment(exp).cells

    def seeded(*path):
        return np.random.SeedSequence([seed, *path])

    x, y = fl.to_arrays(fl.features_from_packets(*simulate(exp.pool_sim(), seeded(SIM))))
    rows = ds.build_imbalanced(y, exp.n_attack, exp.ratios[r_idx], seeded(BUILD, r_idx))
    train_pos, test_pos = ds.split_train_test(y[rows], experiment.TRAIN_FRAC,
                                              seeded(SPLIT, r_idx))
    train_rows, test_rows = rows[train_pos], rows[test_pos]
    stats = ds.normalize_fit(x[train_rows])
    xtr, ytr, _ = augment_training_set(
        ds.normalize_apply(x[train_rows], stats), y[train_rows],
        target_ratio=experiment.SMOTE_TARGET_RATIO, k=experiment.SMOTE_K,
        seed=seeded(SMOTE, r_idx))
    model = mlp.init_model(experiment.LAYER_SIZES, seeded(INIT, r_idx, 1))
    mlp.train(model, fl.LabeledDataset(xtr, ytr), exp.train, seeded(TRAIN, r_idx, 1))
    assert parameters(model) == model_path(xtr).read_bytes()
    preds = mlp.predict(model, ds.normalize_apply(x[test_rows], stats))
    by_hand = experiment.CellResult(exp.ratios[r_idx], seed, True,
                                    MetricsReport.from_confusion(confusion(preds, y[test_rows])))
    assert by_hand in cells


# README's quick.json grid, and the SHA-256 of its detail and summary CSVs
# as the sweep wrote them on numpy 2.4.6 with scipy-openblas 0.3.31. The
# pins see the data stage, the cell's build, split and z-scoring, SMOTE,
# training and the report's formatting at once: a change to any of them
# moves at least one digest. Re-seeding `train` moves two of the three
# detail rows, so the grid sees the training stream too.
QUICK_JSON = json.dumps({"ratios": [0.10, 0.01], "smote_ratios": [0.01], "seeds": [0],
                         "n_attack": 200})
QUICK_SHA256 = {
    "report.csv": "b9ba1fc1c3c9b2007a857701b25bb900d4a94a19dbe461bbb1287b3db068acba",
    "report.summary.csv": "c2d9739e123f1cfef0daa187cb724f76998f98a942e5470c70f0c8f111fae4f9",
}


def test_the_quick_grids_report_bytes_are_pinned(tmp_path, monkeypatch):
    exp = config_from_json(experiment.ExperimentConfig, QUICK_JSON)
    experiment.write_report(experiment.run_experiment(exp), tmp_path / "report.csv")
    assert_report_digests(tmp_path / "report.csv", QUICK_SHA256, "the quick grid's")

    _reseed_train(monkeypatch)
    reseeded = experiment.run_experiment(exp)
    assert experiment.detail_csv(reseeded.cells).encode() != \
        (tmp_path / "report.csv").read_bytes()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_is_not_an_error(tmp_path, unbuffered):
    # The reader of stdout is gone before the sweep prints: the reports are
    # written all the same, and that is success, in either buffering mode.
    cfg = tmp_path / "quick.json"
    cfg.write_text(QUICK_JSON)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_cli(["experiment", "--config", str(cfg), "--out", str(tmp_path / "r" / "r.csv")],
                        stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.name for p in (tmp_path / "r").iterdir()) == [
        "r.csv", "r.manifest.json", "r.summary.csv"]


# tracemalloc peaks in MiB above the memory held on entry, of the quick
# grid's largest cell (ratio 0.01: 20,000 rows of 23 float64 features,
# 3.51 MiB) run on its seed's pool. Measured: plain 6.54, SMOTE 7.22, that
# is 1.9 and 2.1 times the dataset, mostly the gathered splits plus the
# temporary of np.std in normalize_fit. Each bound is that plus about 15%.
# When build, split and z-scoring each made their own copy of the rows,
# both cells peaked at 9.34.
CELL_PEAK_MIB = {"plain": 7.5, "smote": 8.3}


def test_the_largest_cell_holds_its_dataset_about_twice():
    exp = config_from_json(experiment.ExperimentConfig, QUICK_JSON)
    pool = experiment._run_seed(exp, 0)
    r_idx = exp.ratios.index(min(exp.ratios))
    peaks = {}
    tracemalloc.start()
    try:
        for name in CELL_PEAK_MIB:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            experiment._run_cell(exp, 0, r_idx, name == "smote", *pool)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - held) / 2**20
    finally:
        tracemalloc.stop()
    assert all(peaks[name] < bound for name, bound in CELL_PEAK_MIB.items()), peaks


def _perfbench_module(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_still_finds_and_counts_the_sweep():
    # perfbench/spans.py patches names by string; a name deleted or renamed
    # here would break every traced benchmark run.
    spans = _perfbench_module("spans")
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


def test_the_benchmark_sweep_configs_still_build(tmp_path, monkeypatch):
    # perfbench/worker.py builds its ExperimentConfigs from keyword
    # arguments; a field it passes that is removed here would fail every
    # benchmark run at setup. worker.py imports spans.py by its bare name.
    monkeypatch.setitem(sys.modules, "spans", _perfbench_module("spans"))
    worker = _perfbench_module("worker")
    sweeps = {name: w for name, w in worker.WORKLOADS.items()
              if isinstance(w, worker.Experiment)}
    assert sweeps
    for name, workload in sweeps.items():
        workload.setup(0, tmp_path / name)
        assert isinstance(workload.cfg, experiment.ExperimentConfig)


def test_experiment_workdir_keeps_each_seeds_features(sweep, tmp_path):
    _, out = sweep
    work = tmp_path / "work"
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({**json.loads(EXPERIMENT_JSON), "workdir": str(work)}))
    redo = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(redo)]) == 0
    exp = config_from_json(experiment.ExperimentConfig, cfg.read_text())
    for seed in exp.seeds:
        rows = np.loadtxt(work / f"features_seed{seed}.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        assert len(rows) == exp.pool_sim().n_normal_flows + exp.n_attack
        assert np.count_nonzero(rows[:, -1] == fl.ATTACK) == exp.n_attack
        # The bytes are those of the reference writer for the seed's pool.
        packets, rules = simulate(exp.pool_sim(), np.random.SeedSequence([seed, experiment._SIM]))
        feature_csv_oracle.write_features_csv(fl.features_from_packets(packets, rules),
                                              tmp_path / "oracle.csv")
        assert (work / f"features_seed{seed}.csv").read_bytes() == \
            (tmp_path / "oracle.csv").read_bytes()
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
