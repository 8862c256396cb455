"""Spans and per-module metrics for the traced benchmark run.

Tracing lives entirely in the benchmark: `Tracer.install` swaps the public
functions that `imbalidx.experiment` and `imbalidx.cli` call (and the two
stages inside `flows.features_from_packets`) for wrappers that open a span
around each call, then `uninstall` puts the originals back. Nothing under
`src/` changes. `experiment` and `cli` import some functions by name, so a
function is patched in the module that looks it up, not only where it is
defined.

Each span records its name, start, end, parent span, run id, thread, the
calling thread's CPU time inside the span, the process's peak RSS when the
span ended, and counts taken from the call's arguments or result. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import math
import os
import resource
import threading
import time

# (module that looks the name up, attribute, span name, counter). A counter
# maps the call's bound arguments and result to counts stored on the span.
PATCHES = (
    ("imbalidx.experiment", "run_experiment", "experiment.run_experiment", None),
    # The only per-seed boundary: run_experiment looks `_run_seed` up at call
    # time, in the caller thread or in a pool thread.
    ("imbalidx.experiment", "_run_seed", "experiment.seed", None),
    ("imbalidx.experiment", "simulate", "simulate.simulate", "simulate"),
    ("imbalidx.cli", "simulate", "simulate.simulate", "simulate"),
    ("imbalidx.cli", "main", "cli.main", None),
    ("imbalidx.packets", "write_pcap", "packets.write_pcap", "write_pcap"),
    ("imbalidx.packets", "read_pcap", "packets.read_pcap", "records_out"),
    ("imbalidx.packets", "write_packet_csv", "packets.write_csv", "records_in"),
    ("imbalidx.packets", "read_packet_csv", "packets.read_csv", "records_out"),
    ("imbalidx.experiment", "features_from_packets", "flows.features_from_packets", "flows"),
    ("imbalidx.flows", "features_from_packets", "flows.features_from_packets", "flows"),
    ("imbalidx.flows", "assemble_flows", "flows.assemble_flows", None),
    ("imbalidx.flows", "label_flows", "flows.label_flows", None),
    ("imbalidx.experiment", "to_arrays", "flows.to_arrays", None),
    ("imbalidx.experiment", "write_features_csv", "flows.write_features_csv", None),
    ("imbalidx.flows", "write_features_csv", "flows.write_features_csv", None),
    ("imbalidx.experiment", "build_imbalanced", "dataset.build_imbalanced", "rows"),
    ("imbalidx.experiment", "split_train_test", "dataset.split_train_test", None),
    ("imbalidx.experiment", "normalize_fit", "dataset.normalize_fit", None),
    ("imbalidx.experiment", "normalize_apply", "dataset.normalize_apply", None),
    ("imbalidx.experiment", "augment_training_set", "smote.augment_training_set", "smote"),
    ("imbalidx.experiment", "train", "mlp.train", "train"),
    ("imbalidx.experiment", "predict", "mlp.predict", "predict"),
    ("imbalidx.experiment", "confusion", "metrics.confusion", "confusion"),
)


def _count(kind, args, result):
    if kind == "simulate":
        cfg = args["config"]
        return {"packets": len(result[0]),
                "sessions": cfg.n_normal_flows + cfg.n_attack_flows}
    if kind == "write_pcap":
        return {"records": len(args["packets"]),
                "bytes": os.path.getsize(args["path"])}
    if kind == "records_in":
        return {"records": len(args["packets"])}
    if kind == "records_out":
        return {"records": len(result)}
    if kind in ("flows", "rows"):
        return {kind: len(result)}
    if kind == "smote":
        return {"synthetic": result[2].n_synthetic}
    if kind == "train":
        cfg = args["config"]
        n = len(args["train_set"].x)
        return {"steps": cfg.epochs * math.ceil(n / cfg.batch_size)}
    if kind == "predict":
        return {"rows": len(args["x"])}
    if kind == "confusion":
        return {"rows": len(args["predictions"])}
    return {}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans for one run. Create it in the thread that drives the
    run; spans opened in other threads with no open span of their own take
    the driving thread's innermost open span as parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, counter, fn, sig, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
        counts = {}
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts = _count(counter, bound.arguments, result)
        # list.append is atomic, so pool threads need no lock here.
        self.spans.append({
            "id": span_id, "name": name, "parent": parent, "run": self.run_id,
            "thread": threading.current_thread().name,
            "start": start, "end": end, "cpu": cpu,
            "maxrss_mb": _maxrss_mb(), "counts": counts,
        })
        return result

    def install(self):
        for mod_name, attr, name, counter in PATCHES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, counter, fn))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name, counter, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            return self.call(name, counter, fn, sig, args, kwargs)

        return wrapper


def add_self_times(spans) -> None:
    """Set each span's `self` to its duration minus the part of its interval
    that its child spans cover (children in other threads included)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        s["self"] = (s["end"] - s["start"]) - covered


def module_metrics(spans) -> dict:
    """The per-module metrics of one traced workload run, from its spans
    (with self times set). Modules the workload never reaches read 0."""

    def of(name):
        return [s for s in spans if s["name"] == name]

    def dur(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def cpu(name):
        return sum(s["cpu"] for s in of(name))

    def self_time(name):
        return sum(s["self"] for s in of(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in of(name))

    def maxrss(*names):
        return max((s["maxrss_mb"] for n in names for s in of(n)), default=0.0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    sim_s = dur("simulate.simulate")
    packets = count("simulate.simulate", "packets")
    sessions = count("simulate.simulate", "sessions")
    feats_s = dur("flows.features_from_packets")
    n_flows = count("flows.features_from_packets", "flows")
    # Every extraction reads one whole simulated capture, so flows per
    # session is flows over (sessions x extractions per simulation).
    n_sims = len(of("simulate.simulate"))
    n_extracts = len(of("flows.features_from_packets"))
    train_s = dur("mlp.train")
    steps = count("mlp.train", "steps")
    seeds = of("experiment.seed")
    run_s = dur("experiment.run_experiment")
    return {
        "simulate.wall_s": sim_s,
        "simulate.cpu_s": cpu("simulate.simulate"),
        "simulate.packets": packets,
        "simulate.sessions": sessions,
        "simulate.us_per_packet": per(sim_s, packets, 1e6),
        "simulate.maxrss_mb": maxrss("simulate.simulate"),
        "packets.write_pcap_s": dur("packets.write_pcap"),
        "packets.read_pcap_s": dur("packets.read_pcap"),
        "packets.write_csv_s": dur("packets.write_csv"),
        "packets.read_csv_s": dur("packets.read_csv"),
        "packets.records": sum(count(n, "records") for n in (
            "packets.write_pcap", "packets.read_pcap",
            "packets.write_csv", "packets.read_csv")),
        "packets.pcap_bytes": count("packets.write_pcap", "bytes"),
        "flows.assemble_s": dur("flows.assemble_flows"),
        "flows.features_s": self_time("flows.features_from_packets"),
        "flows.label_s": dur("flows.label_flows"),
        "flows.to_arrays_s": dur("flows.to_arrays"),
        "flows.write_csv_s": dur("flows.write_features_csv"),
        "flows.cpu_s": sum(cpu(n) for n in (
            "flows.features_from_packets", "flows.to_arrays",
            "flows.write_features_csv")),
        "flows.count": n_flows,
        "flows.per_session": per(n_flows * n_sims, sessions * n_extracts),
        "flows.us_per_flow": per(feats_s, n_flows, 1e6),
        "flows.maxrss_mb": maxrss("flows.features_from_packets", "flows.to_arrays"),
        "dataset.build_s": dur("dataset.build_imbalanced"),
        "dataset.split_s": dur("dataset.split_train_test"),
        "dataset.normalize_s": dur("dataset.normalize_fit") + dur("dataset.normalize_apply"),
        "dataset.rows": count("dataset.build_imbalanced", "rows"),
        "smote.wall_s": dur("smote.augment_training_set"),
        "smote.synthetic_rows": count("smote.augment_training_set", "synthetic"),
        "mlp.train_s": train_s,
        "mlp.cpu_s": cpu("mlp.train"),
        "mlp.steps": steps,
        "mlp.step_us": per(train_s, steps, 1e6),
        "mlp.predict_s": dur("mlp.predict"),
        "mlp.rows_scored": count("mlp.predict", "rows"),
        "metrics.confusion_s": dur("metrics.confusion"),
        "metrics.rows": count("metrics.confusion", "rows"),
        "experiment.self_s": self_time("experiment.run_experiment") + self_time("experiment.seed"),
        "experiment.seed_overlap": per(sum(s["end"] - s["start"] for s in seeds), run_s),
        "experiment.seed_wait_s": sum(s["end"] - s["start"] - s["cpu"] for s in seeds),
        "cli.self_s": self_time("cli.main"),
    }


# Share of wall time per module in the traced run; used to check that each
# workload stresses the module it was chosen for.
MODULE_TIMES = {
    "simulate": ("simulate.wall_s",),
    "packets": ("packets.write_pcap_s", "packets.read_pcap_s",
                "packets.write_csv_s", "packets.read_csv_s"),
    "flows": ("flows.assemble_s", "flows.features_s", "flows.label_s",
              "flows.to_arrays_s", "flows.write_csv_s"),
    "dataset": ("dataset.build_s", "dataset.split_s", "dataset.normalize_s"),
    "smote": ("smote.wall_s",),
    "mlp": ("mlp.train_s", "mlp.predict_s"),
    "metrics": ("metrics.confusion_s",),
}


def module_times(metrics) -> dict:
    return {mod: sum(metrics[k] for k in keys) for mod, keys in MODULE_TIMES.items()}


def unit(name: str) -> str:
    """Unit of a per-module metric, from its name."""
    for suffix, u in (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"),
                      ("us_per_packet", "us/packet"), ("us_per_flow", "us/flow"),
                      ("step_us", "us/step"), ("per_session", "ratio"),
                      ("seed_overlap", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"
