"""One iteration of one benchmark workload, in a fresh interpreter.

run.py starts this script once per iteration, so each iteration pays its
own interpreter start and imports (reported as setup_s) and has its own
peak RSS. It writes one JSON result file and exits 0, or exits 3 if the
package cannot be imported or the workload cannot be set up:

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT RESULT_JSON [--trace] [--setup-only]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process. A failure of the workload itself (an exception or a failed
output check) is recorded in the result's `errors`, not in the exit code.
"""

import time  # first, so that setup_s covers every later import

import hashlib
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path

from spans import Tracer, add_self_times, module_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_FAILED = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_experiment(cfg, result, report_path):
    """One detail row per (ratio, seed, smote) cell, UR + sensitivity == 100
    exactly, every metric in range."""
    errors = []
    expected = {(r, s, False) for r in cfg.ratios for s in cfg.seeds}
    expected |= {(r, s, True) for r in cfg.smote_ratios for s in cfg.seeds}
    got = [(c.ratio, c.seed, c.smote) for c in result.cells]
    n_rows = len(Path(report_path).read_text().splitlines()) - 1
    if sorted(got) != sorted(expected) or n_rows != len(expected):
        errors.append(f"report has {n_rows} rows / {len(got)} cells, "
                      f"expected one per cell ({len(expected)})")
    for c in result.cells:
        r = c.report
        where = f"cell ratio={c.ratio:g} seed={c.seed} smote={int(c.smote)}"
        if r.sensitivity + r.ur != 100.0:
            errors.append(f"{where}: sensitivity + ur = {r.sensitivity + r.ur!r}")
        for name in ("accuracy", "far", "ur", "sensitivity"):
            if not 0.0 <= getattr(r, name) <= 100.0:
                errors.append(f"{where}: {name} = {getattr(r, name)!r} out of range")
        if not -100.0 <= r.mcc <= 100.0:
            errors.append(f"{where}: mcc = {r.mcc!r} out of range")
    return errors


class Experiment:
    """`run_experiment` plus `write_report`, as `imbalidx experiment` runs it."""

    def __init__(self, threads, n_seeds, epochs=20, **grid):
        self.threads = threads
        self.n_seeds = n_seeds
        self.epochs = epochs
        self.grid = grid

    def setup(self, seed, workdir):
        from imbalidx import experiment
        from imbalidx.mlp import TrainConfig

        self.experiment = experiment
        first = self.n_seeds * seed
        self.cfg = experiment.ExperimentConfig(
            seeds=tuple(range(first, first + self.n_seeds)),
            train=TrainConfig(epochs=self.epochs), **self.grid)
        self.report = workdir / "report.csv"

    def run(self):
        self.result = self.experiment.run_experiment(self.cfg, threads=self.threads)
        self.experiment.write_report(self.result, self.report)

    def check(self):
        return check_experiment(self.cfg, self.result, self.report)

    def digest(self):
        return sha256_file(self.report.with_name("report.manifest.json"))


class Capture:
    """`imbalidx simulate --packets-csv`, then `imbalidx extract` from the
    pcap and from the packet CSV, all through the in-process `cli.main`."""

    threads = 1

    def __init__(self, n_normal, n_attack):
        self.n_normal = n_normal
        self.n_attack = n_attack

    def setup(self, seed, workdir):
        from imbalidx import cli

        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        self.sim_json = workdir / "sim.json"
        self.sim_json.write_text(json.dumps(
            {"n_normal_flows": self.n_normal, "n_attack_flows": self.n_attack}))
        self.prefix = workdir / "capture"

    def run(self):
        p = str(self.prefix)
        calls = (
            ["simulate", "--config", str(self.sim_json), "--seed", str(self.seed),
             "--out", p, "--packets-csv"],
            ["extract", "--in", p + ".pcap", "--labels", p + ".labels.csv",
             "--out", str(self.workdir / "from_pcap.csv")],
            ["extract", "--in", p + ".packets.csv", "--labels", p + ".labels.csv",
             "--out", str(self.workdir / "from_csv.csv")],
        )
        for argv in calls:
            code = self.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"imbalidx {argv[0]} exited {code}")

    def check(self):
        """Both extractions agree byte for byte; one flow per session; the
        attack sessions, and only they, are labelled attack."""
        errors = []
        a = (self.workdir / "from_pcap.csv").read_bytes()
        b = (self.workdir / "from_csv.csv").read_bytes()
        if a != b:
            errors.append("feature CSVs from pcap and packet CSV differ")
        rows = a.decode().splitlines()[1:]
        sessions = self.n_normal + self.n_attack
        if len(rows) != sessions:
            errors.append(f"{len(rows)} flows from {sessions} sessions")
        n_attack = sum(1 for r in rows if r.endswith(",1"))
        if n_attack != self.n_attack:
            errors.append(f"{n_attack} flows labelled attack, expected {self.n_attack}")
        return errors

    def digest(self):
        return sha256_file(self.workdir / "from_pcap.csv")


# Sizes and reasons are documented in perfbench/README.md. The benchmark
# seed n drives experiment seeds (k*n .. k*n+k-1) or the simulator seed n.
WORKLOADS = {
    # The default grid at a tenth of its pool: about 101k normal flows per
    # seed, two seeds on two threads.
    "sweep": Experiment(threads=2, n_attack=100, n_seeds=2),
    # A small pool with a long training run, so the classifier dominates.
    "train": Experiment(threads=1, n_attack=1000, n_seeds=1,
                        ratios=(0.10, 0.05), smote_ratios=(0.05,), epochs=200),
    "capture": Capture(n_normal=50_000, n_attack=1_000),
}


def import_package():
    """Import imbalidx from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "imbalidx" / "__init__.py").is_file():
        raise ImportError(f"no imbalidx package under {src}")
    sys.path.insert(0, str(src))
    import imbalidx

    if Path(imbalidx.__file__).resolve().parent != (src / "imbalidx").resolve():
        raise ImportError(f"imbalidx imported from {imbalidx.__file__}, not {src}")


def provenance(blas_threads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def main(argv):
    name, seed, spawned_at, result_path = argv[:4]
    flags = set(argv[4:])
    seed = int(seed)
    workload = WORKLOADS[name]
    # Cap BLAS so that seed threads x BLAS threads <= nproc; OpenBLAS would
    # otherwise start one thread per CPU in every seed thread.
    nproc = len(os.sched_getaffinity(0))
    blas_threads = max(1, nproc // workload.threads)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas_threads)
    workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        import_package()
        workload.setup(seed, workdir)
    except (ImportError, OSError, ValueError):
        traceback.print_exc()
        shutil.rmtree(workdir, ignore_errors=True)
        return SETUP_FAILED
    setup_s = time.monotonic() - float(spawned_at)
    try:
        result = {"setup_s": setup_s, "provenance": provenance(blas_threads)}
        if "--setup-only" not in flags:
            result.update(run(workload, name, seed, "--trace" in flags))
        Path(result_path).write_text(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run(workload, name, seed, traced):
    """Time one workload run, then check its outputs."""
    tracer = None
    if traced:
        tracer = Tracer(f"{name}-{seed}-{os.getpid()}")
        tracer.install()
    errors = []
    start = time.perf_counter()
    try:
        workload.run()
    except Exception as exc:  # a failed run is counted, not fatal
        traceback.print_exc()
        errors.append(f"raised {exc!r}")
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    digest = None
    if not errors:
        try:
            errors = workload.check()
            digest = workload.digest()
        except OSError as exc:
            errors.append(f"output check could not read an output: {exc}")
    out = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": errors,
        "digest": digest,
    }
    if tracer is not None:
        add_self_times(tracer.spans)
        out["spans"] = tracer.spans
        out["metrics"] = module_metrics(tracer.spans)
        if not errors and out["metrics"]["flows.per_session"] != 1.0:
            errors.append(
                f"flows.per_session = {out['metrics']['flows.per_session']!r}, not 1.0")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
