"""Bidirectional flow assembly and per-flow traffic features, on columns.

Packets sharing a canonical 5-tuple form one flow until an idle gap longer
than the timeout closes it. The endpoint that sent the flow's first packet
is the source for every directional feature. Assembly, features and
labelling all work on the columns of a PacketTable; the result is one
feature matrix row per flow, in flow creation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .packets import PacketTable, format_addr, parse_addr, parse_timestamp
from .textio import ParseError, csv_rows

NORMAL = 0
ATTACK = 1

DEFAULT_IDLE_TIMEOUT = 5.0


class UnorderedInput(ValueError):
    """Packet stream is not sorted by timestamp."""


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Packets grouped into flows by assemble_flows.

    Per-packet columns: `flow` (index of the packet's flow) and `forward`
    (sent by the flow's initiator). `order` lists packet indices grouped by
    flow, in time order within each flow. Per-flow columns, in creation
    order: initiator `src`/`sport`, responder `dst`/`dport`, and the times
    of the first and last packet, `start` and `end`.
    """

    packets: PacketTable
    order: np.ndarray
    flow: np.ndarray
    forward: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    sport: np.ndarray
    dport: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __len__(self) -> int:
        return self.start.shape[0]


def assemble_flows(
    packets: PacketTable, idle_timeout: float = DEFAULT_IDLE_TIMEOUT
) -> FlowTable:
    """Group a time-ordered packet table into flows.

    The canonical key is the smaller and the larger endpoint
    (address << 16 | port) plus the protocol, so a packet and its reverse
    share a key. A gap longer than idle_timeout between consecutive packets
    of one key closes the flow; the next packet opens a fresh one. Flows
    are numbered in creation order, the order of their first packets.
    ValueError unless idle_timeout > 0 (NaN included).
    """
    if not idle_timeout > 0:
        raise ValueError(f"idle_timeout must be > 0, got {idle_timeout!r}")
    ts = packets.ts
    behind = ts[1:] < ts[:-1]
    if behind.any():
        i = int(np.argmax(behind))
        raise UnorderedInput(
            f"packet at {ts[i + 1].item()} follows one at {ts[i].item()}"
        )
    src_ep = (packets.src.astype(np.uint64) << 16) | packets.sport
    dst_ep = (packets.dst.astype(np.uint64) << 16) | packets.dport
    lo = np.minimum(src_ep, dst_ep)
    hi = (np.maximum(src_ep, dst_ep) << 8) | packets.proto
    # lexsort is stable, so packets of one key stay in time order.
    order = np.lexsort((hi, lo))
    lo, hi, t = lo[order], hi[order], ts[order]

    new = np.ones(len(packets), dtype=bool)
    new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]) | (t[1:] - t[:-1] > idle_timeout)
    segment = np.cumsum(new) - 1
    heads = order[new]
    closes = np.empty_like(new)
    closes[:-1] = new[1:]
    closes[-1:] = True
    tails = order[closes]
    by_creation = np.argsort(heads)
    rank = np.empty_like(by_creation)
    rank[by_creation] = np.arange(by_creation.size)
    flow = np.empty(len(packets), dtype=np.int64)
    flow[order] = rank[segment]

    first, last = heads[by_creation], tails[by_creation]
    return FlowTable(
        packets=packets,
        order=order,
        flow=flow,
        forward=src_ep == src_ep[first][flow],
        src=packets.src[first],
        dst=packets.dst[first],
        sport=packets.sport[first],
        dport=packets.dport[first],
        start=ts[first],
        end=ts[last],
    )


FEATURE_NAMES = (
    "mean_dur",
    "sport",
    "dport",
    "spkts",
    "dpkts",
    "tpkts",
    "sbytes",
    "dbytes",
    "tbytes",
    "sload",
    "dload",
    "tload",
    "srate",
    "drate",
    "trate",
    "sloss",
    "dloss",
    "tloss",
    "ploss",
    "src_jitter",
    "dst_jitter",
    "s_intpkt",
    "d_intpkt",
)

FEATURE_CSV_HEADER = ",".join(FEATURE_NAMES) + ",label"

# Feature CSV prints these as bare integers when they hold whole numbers,
# everything else as 6-decimal floats.
_INT_FEATURES = frozenset(
    ("sport", "dport", "spkts", "dpkts", "tpkts", "sbytes", "dbytes", "tbytes")
)


def _gap_stats_ms(flows: FlowTable, direction: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per flow, mean and population stddev of the gaps between consecutive
    packets of one direction, in milliseconds; 0 with fewer than 2 packets.

    np.bincount adds its weights in index order, so each flow's sums are
    taken left to right in time order.
    """
    idx = flows.order[direction[flows.order]]
    owner, t = flows.flow[idx], flows.packets.ts[idx]
    same = owner[1:] == owner[:-1]
    gaps = (t[1:][same] - t[:-1][same]) * 1000.0
    owner = owner[1:][same]
    count = np.maximum(np.bincount(owner, minlength=len(flows)), 1)
    mean = np.bincount(owner, weights=gaps, minlength=len(flows)) / count
    dev = gaps - mean[owner]
    var = np.bincount(owner, weights=dev * dev, minlength=len(flows)) / count
    return mean, np.sqrt(var)


def feature_matrix(flows: FlowTable) -> np.ndarray:
    """The (n_flows, 23) feature matrix, columns in FEATURE_NAMES order.
    Zero-duration flows get zero rates and loads."""
    n = len(flows)
    fid, fwd, retx = flows.flow, flows.forward, flows.packets.retx
    wire_len = flows.packets.wire_len.astype(np.float64)
    tpkts = np.bincount(fid, minlength=n)
    spkts = np.bincount(fid[fwd], minlength=n)
    dpkts = tpkts - spkts
    sbytes = np.bincount(fid[fwd], weights=wire_len[fwd], minlength=n)
    dbytes = np.bincount(fid[~fwd], weights=wire_len[~fwd], minlength=n)
    tbytes = sbytes + dbytes
    sloss = np.bincount(fid[fwd & retx], minlength=n)
    dloss = np.bincount(fid[~fwd & retx], minlength=n)
    tloss = sloss + dloss
    dur = flows.end - flows.start
    moving = dur > 0

    def per_second(v):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(moving, v / dur, 0.0)

    s_intpkt, src_jitter = _gap_stats_ms(flows, fwd)
    d_intpkt, dst_jitter = _gap_stats_ms(flows, ~fwd)
    return np.column_stack([
        dur, flows.sport, flows.dport, spkts, dpkts, tpkts,
        sbytes, dbytes, tbytes,
        per_second(8.0 * sbytes), per_second(8.0 * dbytes), per_second(8.0 * tbytes),
        per_second(spkts), per_second(dpkts), per_second(tpkts),
        sloss, dloss, tloss, 100.0 * tloss / tpkts,
        src_jitter, dst_jitter, s_intpkt, d_intpkt,
    ])


class LabelRule(NamedTuple):
    """One attack window: flows between the two 32-bit IPv4 addresses, in
    either direction, are attacks during [start_time, end_time]."""

    src_addr: int
    dst_addr: int
    start_time: float
    end_time: float


LABEL_CSV_HEADER = "src_addr,dst_addr,start_time,end_time,label"


def write_label_csv(rules: Iterable[LabelRule], path) -> None:
    with open(path, "w", newline="") as f:
        f.write(LABEL_CSV_HEADER + "\n")
        for r in rules:
            f.write(f"{format_addr(r.src_addr)},{format_addr(r.dst_addr)},"
                    f"{r.start_time:.6f},{r.end_time:.6f},1\n")


def read_label_csv(path) -> List[LabelRule]:
    """The windows of a label CSV. ParseError names the first line with an
    address that is not a canonical dotted quad (see parse_addr), a time
    off the microsecond grid, a window that ends before it starts, or a
    label other than 1."""
    rules: List[LabelRule] = []
    for line_no, fields in csv_rows(path, LABEL_CSV_HEADER):
        src, dst, start_s, end_s, label_s = fields
        try:
            rule = LabelRule(parse_addr(src), parse_addr(dst),
                             parse_timestamp(start_s), parse_timestamp(end_s))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if rule.end_time < rule.start_time:
            raise ParseError(line_no, "window ends before it starts")
        if label_s != "1":
            raise ParseError(line_no, "label must be 1: every window is an attack window")
        rules.append(rule)
    return rules


def _pair_key(a, b) -> np.ndarray:
    """Unordered IPv4 address pair as one integer: min << 32 | max."""
    a, b = np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
    return (np.minimum(a, b) << 32) | np.maximum(a, b)


def label_flows(flows: FlowTable, rules: Sequence[LabelRule]) -> np.ndarray:
    """Per flow, ATTACK iff a rule names its address pair (in either
    order) and the rule's window overlaps the flow's [start, end], closed
    at both ends; NORMAL otherwise."""
    labels = np.full(len(flows), NORMAL, dtype=np.int64)
    if not rules:
        return labels
    a, b, w_start, w_end = (np.array(c) for c in zip(*rules))
    w_pair = _pair_key(a, b)
    by_pair = np.lexsort((w_start, w_pair))
    w_pair, w_start, w_end = w_pair[by_pair], w_start[by_pair], w_end[by_pair]
    pairs, w_first = np.unique(w_pair, return_index=True)
    w_bounds = np.append(w_first, w_pair.size)

    f_pair = _pair_key(flows.src, flows.dst)
    f_order = np.argsort(f_pair, kind="stable")
    f_sorted = f_pair[f_order]
    f_lo = np.searchsorted(f_sorted, pairs, side="left")
    f_hi = np.searchsorted(f_sorted, pairs, side="right")
    for k in range(pairs.size):
        starts = w_start[w_bounds[k]:w_bounds[k + 1]]
        max_end = np.maximum.accumulate(w_end[w_bounds[k]:w_bounds[k + 1]])
        sel = f_order[f_lo[k]:f_hi[k]]
        # Windows starting no later than the flow ends; the latest end
        # among them decides the overlap.
        n_before = np.searchsorted(starts, flows.end[sel], side="right")
        hit = (n_before > 0) & (max_end[np.maximum(n_before - 1, 0)] >= flows.start[sel])
        labels[sel[hit]] = ATTACK
    return labels


@dataclass
class LabeledDataset:
    """Feature matrix plus aligned 0/1 labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise ValueError(f"x must be 2-d, got shape {self.x.shape}")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError(
                f"y shape {self.y.shape} does not match {self.x.shape[0]} rows"
            )
        bad = set(np.unique(self.y)) - {NORMAL, ATTACK}
        if bad:
            raise ValueError(f"labels must be 0 or 1, found {sorted(bad)}")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_attack(self) -> int:
        return int(np.count_nonzero(self.y == ATTACK))


def features_from_packets(
    packets: PacketTable,
    rules: Sequence[LabelRule] = (),
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
) -> LabeledDataset:
    """assemble -> features -> label: one labelled row per flow, in flow
    creation order."""
    flows = assemble_flows(packets, idle_timeout)
    return LabeledDataset(feature_matrix(flows), label_flows(flows, rules))


# Rows formatted per % call, which bounds the writer's buffers.
_WRITE_CHUNK = 4096


def write_features_csv(data: LabeledDataset, path) -> None:
    """Feature CSV, for flow pools and built datasets alike: 6-decimal
    floats, count columns as bare integers when they hold whole numbers,
    label 0/1 last."""
    count_cols = [j for j, name in enumerate(FEATURE_NAMES) if name in _INT_FEATURES]
    bits = 1 << np.arange(len(count_cols))
    # A row's format depends on which of its count cells are whole: `%d`
    # prints a whole float as str(int(v)) does, and `%.6f` as f"{v:.6f}".
    formats = {}

    def row_format(pattern: int) -> str:
        cells = ["%.6f"] * len(FEATURE_NAMES)
        for bit, j in enumerate(count_cols):
            if pattern >> bit & 1:
                cells[j] = "%d"
        return ",".join(cells) + ",%d\n"

    with open(path, "w", newline="") as f:
        f.write(FEATURE_CSV_HEADER + "\n")
        for lo in range(0, len(data), _WRITE_CHUNK):
            x = data.x[lo:lo + _WRITE_CHUNK]
            c = x[:, count_cols]
            patterns = (np.isfinite(c) & (np.floor(c) == c)) @ bits
            fmt = "".join([formats.get(p) or formats.setdefault(p, row_format(p))
                           for p in patterns.tolist()])
            cells = np.column_stack([x, data.y[lo:lo + _WRITE_CHUNK]]).ravel()
            f.write(fmt % tuple(cells.tolist()))


def read_features_csv(path) -> LabeledDataset:
    """Read a feature CSV back as a float matrix and 0/1 labels. A feature
    is any finite float() text; the label is the text 0 or 1."""
    rows: List[List[float]] = []
    labels: List[int] = []
    for line_no, fields in csv_rows(path, FEATURE_CSV_HEADER):
        try:
            values = [float(v) for v in fields[:-1]]
        except ValueError:
            raise ParseError(line_no, f"bad numeric field in {','.join(fields)!r}") from None
        if not all(map(math.isfinite, values)):
            raise ParseError(line_no, f"non-finite feature in {','.join(fields)!r}")
        if fields[-1] not in ("0", "1"):
            raise ParseError(line_no, f"label must be 0 or 1, got {fields[-1]!r}")
        rows.append(values)
        labels.append(int(fields[-1]))
    x = np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))
    return LabeledDataset(x, np.array(labels, dtype=np.int64))


def to_arrays(data: LabeledDataset) -> Tuple[np.ndarray, np.ndarray]:
    """The (n, 23) float matrix and the (n,) label vector. It stays a
    function of its own, though it only unpacks, because the benchmark
    tracer times the sweep's array stage by patching this name."""
    return data.x, data.y
