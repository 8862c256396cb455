#!/usr/bin/env python3
"""The imbalidx benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a checkout that holds `src/imbalidx`; it
imports the package from that `src/`, never from an installed copy.
Workloads are `sweep`, `train` and `capture` (see perfbench/README.md).

Every iteration runs in a fresh `perfbench/worker.py` process, back to
back (a closed loop with one client), for about `--seconds`: another
iteration starts only if it would end less than half an iteration after.
Each iteration's outputs are checked; a run that raises or fails a check
counts as failed.

With `--trace 0` the run reports the end-to-end metrics: `wall_s` (median
wall time of one workload run), `peak_rss_mb` (median peak RSS of the
process that ran it) and `setup_s` (median time from process start until
the first timed call is ready, sampled once per iteration and in extra
setup-only processes). The error rate is `failed` / `attempted` in the
result line. With `--trace 1` iterations alternate untraced and traced,
and the run reports the per-module metrics of the traced ones (medians),
plus the tracing overhead as traced minus untraced `wall_s`.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
full record, spans included, goes to `.perfbench_out/`.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import worker

ROOT = worker.ROOT
OUT = ROOT / ".perfbench_out"
# Every run must end within this many seconds.
RUN_LIMIT_S = 170.0
# Setup-only processes per run, after one discarded warm-up.
SETUP_PROBES = 5
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Rates implied by the single-run 1M-flow baseline in ROADMAP.md (2 CPUs,
# Python 3.11, numpy 2.4): simulate 9.4 s for 8.03M packets; assemble,
# features and label 16.3 s for 1,001,000 flows; training 83 us per step.
BASELINE_RATES = {
    "simulate.us_per_packet": 9.4e6 / 8.03e6,
    "flows.us_per_flow": 16.3e6 / 1.001e6,
    "mlp.step_us": 83.0,
}
# What each workload's traced run must show, as (description, test on the
# per-module times).
PROFILES = {
    "sweep": ("simulate+flows is the largest share",
              lambda t: t["simulate"] + t["flows"] >= max(
                  v for k, v in t.items() if k not in ("simulate", "flows"))),
    "train": ("mlp is the largest share",
              lambda t: t["mlp"] == max(t.values())),
    "capture": ("packets spans nonzero, no mlp span",
                lambda t: t["packets"] > 0 and t["mlp"] == 0),
}


class SetupFailed(RuntimeError):
    """The worker could not import the package or set the workload up."""


def spawn(workload, seed, *flags, timeout):
    """Run one worker process and return its result dict."""
    result_path = OUT / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(Path(worker.__file__).resolve()),
           workload, str(seed), repr(spawned_at), str(result_path), *flags]
    try:
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = f"a timeout after {timeout:.0f} s"
    if code == worker.SETUP_FAILED or (code != 0 and "--setup-only" in flags):
        raise SetupFailed(f"worker for {workload} could not set up ({code})")
    if code != 0:
        return {"errors": [f"worker ended with {code}"]}
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def machine_record(probe, seed):
    meminfo = Path("/proc/meminfo").read_text().split()
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": int(meminfo[meminfo.index("MemTotal:") + 1]) // 1024,
        "cpu": cpu,
        **probe["provenance"],
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(worker.WORKLOADS) + ["all"],
                    help="`all` runs every workload in turn, one result line each")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "imbalidx" / "__init__.py").is_file():
        print(f"error: no imbalidx package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = worker.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        for name in names:
            bench(name, args.seed, args.seconds, args.trace)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def bench(workload, seed, seconds, trace):
    """Measure one workload for `seconds` and print its report."""
    t_start = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - t_start)

    probe = spawn(workload, seed, "--setup-only", timeout=left())
    setups = [spawn(workload, seed, "--setup-only", timeout=left())["setup_s"]
              for _ in range(SETUP_PROBES)]
    machine = machine_record(probe, seed)
    modes = ((), ("--trace",)) if trace else ((),)
    runs = []
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for flags in modes:
            r = spawn(workload, seed, *flags, timeout=left())
            r["traced"] = bool(flags)
            runs.append(r)
        now = time.monotonic()
        cycle = now - cycle_start
        if now - start + cycle / 2 > seconds or left() < 2 * cycle:
            break

    # A run fails if it raised, failed a check, or wrote a report that
    # differs from the first report of this invocation.
    digests = [r["digest"] for r in runs if r.get("digest")]
    for r in runs:
        if r.get("digest") and r["digest"] != digests[0]:
            r["errors"].append(f"report digest {r['digest']} differs from {digests[0]}")
    failed = sum(1 for r in runs if r["errors"])
    setups += [r["setup_s"] for r in runs if "setup_s" in r]

    print("machine: " + json.dumps(machine))
    print(f"workload {workload}, seed {seed}: "
          f"{len(runs)} runs in {time.monotonic() - start:.1f} s")
    print(f"report digest: {digests[0] if digests else None}")
    for r in runs:
        for e in r["errors"]:
            print(f"FAILED: {e}")

    def summary(name, values, unit):
        q1, med, q3 = quartiles(values)
        digits = 0 if unit in ("count", "bytes") else 4
        print(f"{name:<28} {med:14.{digits}f} {unit:<9}  "
              f"q1 {q1:.{digits}f}  q3 {q3:.{digits}f}  n={len(values)}")
        return med

    plain = [r for r in runs if not r["traced"] and "wall_s" in r]
    record = {"workload": workload, "seed": seed, "trace": trace,
              "machine": machine, "setup_s": setups, "runs": runs}
    metrics = {}
    if not trace:
        for name, unit in END_TO_END_UNITS.items():
            values = setups if name == "setup_s" else [r[name] for r in plain]
            if values:
                metrics[name] = {"value": summary(name, values, unit), "unit": unit}
    else:
        traced = [r for r in runs if r["traced"] and "metrics" in r]
        for name in traced[0]["metrics"] if traced else ():
            unit = spans.unit(name)
            value = summary(name, [r["metrics"][name] for r in traced], unit)
            metrics[name] = {"value": value, "unit": unit}
            if name in BASELINE_RATES:
                print(f"{'':<28} ROADMAP 1M-flow baseline {BASELINE_RATES[name]:.2f} {unit}")
        if traced and plain:
            traced_wall = summary("trace.wall_s", [r["wall_s"] for r in traced], "s")
            plain_wall = statistics.median(r["wall_s"] for r in plain)
            metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
            print(f"{'trace.overhead_s':<28} {traced_wall - plain_wall:14.4f} s"
                  f"  (traced minus untraced wall_s {plain_wall:.4f})")
            times = spans.module_times({k: v["value"] for k, v in metrics.items()})
            shares = ", ".join(f"{k} {v / traced_wall:.0%}" for k, v in times.items())
            what, test = PROFILES[workload]
            print(f"module share of traced wall: {shares}")
            print(f"profile ({what}): {'ok' if test(times) else 'NOT MET'}")
    print(f"{'error_rate':<28} {failed / len(runs):14.4f} ratio      "
          f"({failed} failed of {len(runs)} attempted)")
    out_path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    out_path.write_text(json.dumps(record, indent=1))
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
