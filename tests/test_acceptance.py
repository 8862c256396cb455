"""Acceptance suite.

Fast exact checks first: metric formulas against a high-precision oracle,
dataset construction demands, backprop against finite differences,
oversampling geometry against a brute-force neighbor search, and capture
round trips plus reader fuzzing. Then the expensive part, marked slow:
the default ratio sweep runs twice, once for the direction-of-effect
checks and once more to prove that a rerun writes the same bytes. The two
sweeps dominate the suite's runtime; `-m "not slow"` leaves them out.
"""

import decimal
import re
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from imbalidx.dataset import required_normals
from imbalidx.experiment import ExperimentConfig, run_experiment, write_report
from imbalidx.metrics import (
    ConfusionMatrix,
    accuracy,
    far,
    mcc,
    sensitivity,
    undetected_rate,
)
from imbalidx.mlp import gradient_check, init_model
from imbalidx.packets import (
    CSV_HEADER,
    BadMagic,
    PacketRecord,
    PacketTable,
    Protocol,
    Truncated,
    UnsupportedLinkType,
    read_packet_csv,
    read_pcap,
    write_packet_csv,
    write_pcap,
)
from imbalidx.smote import smote
from imbalidx.textio import ParseError


# --- 1. metric formulas agree with a 50-digit decimal oracle ---------------

def _oracle(cm):
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tp, tn, fp, fn = map(Decimal, (cm.tp, cm.tn, cm.fp, cm.fn))
        out = {"accuracy": 100 * (tp + tn) / (tp + tn + fp + fn)}
        out["far"] = 100 * fp / (fp + tn) if fp + tn else Decimal(0)
        out["sensitivity"] = 100 * tp / (tp + fn) if tp + fn else Decimal(0)
        out["ur"] = 100 - out["sensitivity"] if tp + fn else Decimal(0)
        d = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        out["mcc"] = 100 * (tp * tn - fp * fn) / d.sqrt() if d else Decimal(0)
        return out


def test_metric_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20260819)
    funcs = {
        "accuracy": accuracy, "far": far, "ur": undetected_rate,
        "mcc": mcc, "sensitivity": sensitivity,
    }
    # Every zero pattern except the empty matrix, then bulk random counts.
    cases = [
        tuple(0 if m & bit else 17 for bit in (8, 4, 2, 1))
        for m in range(15)
    ]
    while len(cases) < 1000:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 10**6 + 1, 4))
        if tp + tn + fp + fn:
            cases.append((tp, tn, fp, fn))
    for tp, tn, fp, fn in cases:
        cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
        want = _oracle(cm)
        for name, fn_ in funcs.items():
            got, ref = Decimal(fn_(cm)), want[name]
            if ref == 0:
                assert got == 0, f"{name}{cm} = {got}, oracle 0"
            else:
                assert abs(got - ref) <= Decimal("1e-9") * abs(ref), \
                    f"{name}{cm} = {got}, oracle {ref}"
        if tp + fn > 0:
            assert sensitivity(cm) + undetected_rate(cm) == 100.0
    assert time.monotonic() - start < 1.0


# --- 2. dataset construction demands exact normal counts -------------------

def test_normal_count_demands():
    start = time.monotonic()
    expected = {
        0.10: 90_000,
        0.01: 990_000,
        0.007: 1_418_572,
        0.003: 3_323_334,
        0.001: 9_990_000,
    }
    for ratio, want in expected.items():
        got = required_normals(10_000, ratio)
        assert abs(got - want) <= 1, f"ratio {ratio}: {got} vs {want}"
    assert time.monotonic() - start < 1.0


# --- 3. backprop gradients match finite differences ------------------------

def test_gradient_correctness():
    # Architectures at the pipeline's input width. Toy nets with a handful
    # of rectifier units are excluded on purpose: zero-initialized biases
    # mean a sample that silences the whole first layer pushes exact zeros
    # through every later pre-activation, parking the loss on the kink
    # where one-sided finite differences disagree with the analytic rule.
    start = time.monotonic()
    rng = np.random.default_rng(33)
    shapes = [[23, 16, 8, 1], [23, 8, 1], [23, 1]]
    for trial in range(20):
        sizes = shapes[trial % len(shapes)]
        model = init_model(sizes, seed=int(rng.integers(2**31)))
        n = int(rng.integers(1, 9))
        x = rng.normal(size=(n, sizes[0]))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        err = gradient_check(model, x, y, epsilon=1e-5)
        assert err < 1e-4, f"trial {trial} ({sizes}): {err}"
    assert time.monotonic() - start < 5.0


# --- 4. oversampling stays on logged segments toward true neighbors --------

def _neighbor_tie_set(minority, i, k):
    """Indices whose distance to row i is within the k-th smallest;
    distance ties at the boundary are all admitted."""
    d = np.sum((minority - minority[i]) ** 2, axis=1)
    d[i] = np.inf
    kth = np.sort(d)[k - 1]
    return set(np.flatnonzero(d <= kth).tolist())


def test_oversampling_geometry_and_neighbors():
    start = time.monotonic()
    rng = np.random.default_rng(44)
    for trial in range(50):
        m = int(rng.integers(6, 201))
        dim = int(rng.integers(2, 24))
        minority = rng.normal(size=(m, dim))
        target = m + int(rng.integers(1, 2 * m))
        result = smote(minority, target, k=5, seed=trial)
        assert result.synthetic.shape == (target - m, dim)
        base, nbr, gap = result.base_idx, result.neighbor_idx, result.gap
        assert np.all((0.0 <= gap) & (gap < 1.0))
        assert np.all(base != nbr)
        rebuilt = minority[base] + gap[:, None] * (minority[nbr] - minority[base])
        assert np.array_equal(rebuilt, result.synthetic)
        for b, j in zip(base.tolist(), nbr.tolist()):
            assert j in _neighbor_tie_set(minority, b, 5)
    assert time.monotonic() - start < 10.0


# --- 5. captures survive write/read and the readers survive garbage -------

def _random_packets(rng, n):
    protos = [Protocol.TCP, Protocol.UDP, Protocol.OTHER]
    out = []
    for _ in range(n):
        proto = protos[int(rng.integers(3))]
        us = int(rng.integers(0, (0xFFFFFFFF + 1) * 10**6))
        sport, dport = (0, 0) if proto is Protocol.OTHER else (
            int(rng.integers(1, 65536)), int(rng.integers(1, 65536)))
        lo = {Protocol.TCP: 40, Protocol.UDP: 28, Protocol.OTHER: 20}[proto]
        out.append(PacketRecord(
            timestamp=(us // 10**6) + (us % 10**6) / 1e6,
            src_addr=".".join(str(int(b)) for b in rng.integers(0, 256, 4)),
            dst_addr=".".join(str(int(b)) for b in rng.integers(0, 256, 4)),
            src_port=sport,
            dst_port=dport,
            protocol=proto,
            wire_len=int(rng.integers(lo, 3001)),
            is_retransmission=bool(rng.integers(2)),
        ))
    out.sort(key=lambda p: p.timestamp)
    return out


def test_capture_round_trips(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(55)
    for trial in range(40):
        packets = PacketTable.from_records(_random_packets(rng, int(rng.integers(0, 61))))
        pcap = tmp_path / f"t{trial}.pcap"
        csv = tmp_path / f"t{trial}.csv"
        write_pcap(packets, pcap)
        write_packet_csv(packets, csv)
        assert read_pcap(pcap) == packets
        assert read_packet_csv(csv) == packets
    assert time.monotonic() - start < 30.0


def test_fuzzed_reader_never_crashes(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(66)
    magic = b"\xd4\xc3\xb2\xa1"
    path = tmp_path / "fuzz.pcap"
    for trial in range(400):
        blob = rng.bytes(int(rng.integers(0, 401)))
        if trial % 2:
            blob = magic + blob
        path.write_bytes(blob)
        try:
            read_pcap(path)
        except (BadMagic, Truncated, UnsupportedLinkType):
            pass
    assert time.monotonic() - start < 30.0


def test_fuzzed_packet_csv_raises_only_parse_errors(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(77)
    pieces = [b"0.5,1.1.1.1,1,2.2.2.2,2,TCP,60,0", b",", b".", b"\n", b"\r", b"\xff",
              b"TCP", b"99999999999999999999"]
    path = tmp_path / "fuzz.csv"
    for trial in range(400):
        if trial % 2:
            blob = rng.bytes(int(rng.integers(0, 401)))
        else:  # random bytes among pieces of valid rows
            blob = b"".join(
                rng.bytes(int(rng.integers(0, 13))) if rng.integers(2)
                else pieces[rng.integers(len(pieces))]
                for _ in range(int(rng.integers(0, 31))))
        path.write_bytes(CSV_HEADER.encode() + b"\n" + blob)
        try:
            read_packet_csv(path)
        except ParseError as exc:
            assert exc.line >= 2
    assert time.monotonic() - start < 30.0


# --- 6-8. the default ratio sweep: trends and reproducibility --------------

SWEEP_BUDGET_SECONDS = 15 * 60


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    start = time.monotonic()
    result = run_experiment(ExperimentConfig())
    elapsed = time.monotonic() - start
    out = tmp_path_factory.mktemp("sweep") / "report.csv"
    write_report(result, out)
    return result, elapsed, out


def _median_row(result, ratio, smoted):
    for row in result.summary:
        if row.ratio == ratio and row.smote == smoted:
            return row.report
    raise AssertionError(f"no summary row for ratio={ratio} smote={smoted}")


@pytest.mark.slow
def test_imbalance_trend(sweep):
    result, elapsed, _ = sweep
    assert elapsed < SWEEP_BUDGET_SECONDS
    rich = _median_row(result, 0.10, False)
    starved = _median_row(result, 0.001, False)
    assert starved.ur > rich.ur
    assert rich.mcc > starved.mcc
    assert rich.sensitivity > starved.sensitivity


@pytest.mark.slow
def test_oversampling_benefit(sweep):
    result, _, _ = sweep
    plain = _median_row(result, 0.003, False)
    grown = _median_row(result, 0.003, True)
    assert grown.ur < plain.ur


# The sentence of README.md that quotes the default sweep's medians, with
# each quoted number captured as printed.
README_MEDIANS = re.compile(
    r"the sweep medians come out: undetected rate ([\d.]+)% at a 10% training ratio "
    r"vs ([\d.]+)% at 0\.1%, sensitivity ([\d.]+)% vs ([\d.]+)%, MCC ([\d.]+) vs "
    r"([\d.]+), and oversampling at 0\.3% cuts the undetected rate from ([\d.]+)% to "
    r"([\d.]+)%\.")


@pytest.mark.slow
def test_the_readme_quotes_the_sweep_medians(sweep):
    result, _, _ = sweep
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    quoted = README_MEDIANS.search(" ".join(readme.split()))
    assert quoted, "README.md no longer quotes the sweep medians in the expected sentence"
    rich, starved = _median_row(result, 0.10, False), _median_row(result, 0.001, False)
    plain, grown = _median_row(result, 0.003, False), _median_row(result, 0.003, True)
    measured = (rich.ur, starved.ur, rich.sensitivity, starved.sensitivity,
                rich.mcc, starved.mcc, plain.ur, grown.ur)
    # Each median printed with as many decimals as README gives it.
    printed = tuple(f"{m:.{len(q.partition('.')[2])}f}" for m, q in zip(measured, quoted.groups()))
    assert printed == quoted.groups()


@pytest.mark.slow
def test_rerun_is_byte_identical(sweep, tmp_path):
    _, _, first = sweep
    result = run_experiment(ExperimentConfig())
    again = tmp_path / "report.csv"
    write_report(result, again)
    for name in ("report.csv", "report.summary.csv", "report.manifest.json"):
        a = first.with_name(name).read_bytes()
        b = again.with_name(name).read_bytes()
        assert a == b, f"{name} differs between reruns"
