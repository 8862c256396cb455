"""Bidirectional flow assembly and per-flow traffic features, on columns.

Packets sharing a canonical 5-tuple form one flow until an idle gap longer
than IDLE_TIMEOUT closes it. The endpoint that sent the flow's first packet
is the source for every directional feature. Assembly, features and
labelling all work on the columns of a PacketTable; the result is one
feature matrix row per flow, in flow creation order. Each per-packet
temporary is built in place where it can be and dropped once it is used,
so assembly and features hold few per-packet arrays at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .packets import PacketTable, format_addr, parse_addr, parse_timestamp
from .textio import ParseError, csv_rows, number_cells, write_csv

NORMAL = 0
ATTACK = 1

# Seconds of silence that close a flow: fixed, as it defines one sample.
IDLE_TIMEOUT = 5.0


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


def assemble_flows(packets: PacketTable) -> FlowTable:
    """Group a time-ordered packet table into flows.

    The canonical key is the smaller and the larger endpoint
    (address << 16 | port) plus the protocol, so a packet and its reverse
    share a key. A gap longer than IDLE_TIMEOUT between consecutive packets
    of one key closes the flow; the next packet opens a fresh one. Flows
    are numbered in creation order, the order of their first packets.

    Besides the packets and the result (`order` and `flow`, 8 bytes per
    packet each, and `forward`), it holds at most four 8-byte arrays per
    packet at once: the two keys, the sort order and one sorted key.
    """
    ts = packets.ts
    behind = ts[1:] < ts[:-1]
    if behind.any():
        i = int(np.argmax(behind))
        raise UnorderedInput(
            f"packet at {ts[i + 1].item()} follows one at {ts[i].item()}"
        )
    # Each endpoint packed as address << 16 | port; the larger one takes
    # the protocol in its low byte. Both keys are built in place.
    ep = packets.src.astype(np.uint64)
    ep <<= 16
    ep |= packets.sport
    hi = packets.dst.astype(np.uint64)
    hi <<= 16
    hi |= packets.dport
    lo = np.minimum(ep, hi)
    np.maximum(ep, hi, out=hi)
    del ep
    hi <<= 8
    hi |= packets.proto
    # lexsort is stable, so packets of one key stay in time order.
    order = np.lexsort((hi, lo))

    # A packet opens a flow when its key differs from the one before it in
    # key order, or when it follows that packet by more than IDLE_TIMEOUT.
    # Each sorted key is made, compared and dropped in turn.
    new = np.ones(len(packets), dtype=bool)
    key = lo[order]
    del lo
    new[1:] = key[1:] != key[:-1]
    key = hi[order]
    del hi
    new[1:] |= key[1:] != key[:-1]
    key = ts[order]
    new[1:] |= np.diff(key) > IDLE_TIMEOUT
    del key
    # Flows as runs of key order: where each starts, and its packet count.
    heads = np.flatnonzero(new)
    del new
    sizes = np.diff(heads, append=len(packets))
    by_creation = np.argsort(order[heads])
    rank = np.empty_like(by_creation)
    rank[by_creation] = np.arange(by_creation.size)
    flow = np.empty(len(packets), dtype=np.int64)
    flow[order] = np.repeat(rank, sizes)

    first = order[heads[by_creation]]
    last = order[(heads + sizes - 1)[by_creation]]
    src, sport = packets.src[first], packets.sport[first]
    # Sent by the initiator: the same address and port as its first packet.
    forward = src[flow] == packets.src
    forward &= sport[flow] == packets.sport
    return FlowTable(
        packets=packets,
        order=order,
        flow=flow,
        forward=forward,
        src=src,
        dst=packets.dst[first],
        sport=sport,
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
    owner = flows.flow[idx]
    same = owner[1:] == owner[:-1]
    owner = owner[1:][same]
    gaps = np.diff(flows.packets.ts[idx])[same]
    del idx, same
    gaps *= 1000.0
    count = np.maximum(np.bincount(owner, minlength=len(flows)), 1)
    mean = np.bincount(owner, weights=gaps, minlength=len(flows)) / count
    # The gaps become their squared deviations, in place.
    gaps -= mean[owner]
    gaps *= gaps
    var = np.bincount(owner, weights=gaps, minlength=len(flows)) / count
    return mean, np.sqrt(var)


def feature_matrix(flows: FlowTable) -> np.ndarray:
    """The (n_flows, 23) feature matrix, columns in FEATURE_NAMES order.
    Zero-duration flows get zero rates and loads.

    The per-packet reductions come first; the matrix is then filled one
    column at a time, each derived column made only as it is written.
    """
    n = len(flows)
    fid, fwd, retx = flows.flow, flows.forward, flows.packets.retx
    # bincount takes the uint32 lengths as float64 weights, exactly.
    wire_len = flows.packets.wire_len
    tpkts = np.bincount(fid, minlength=n)
    spkts = np.bincount(fid[fwd], minlength=n)
    dpkts = tpkts - spkts
    sbytes = np.bincount(fid[fwd], weights=wire_len[fwd], minlength=n)
    dbytes = np.bincount(fid[~fwd], weights=wire_len[~fwd], minlength=n)
    tbytes = sbytes + dbytes
    sloss = np.bincount(fid[fwd & retx], minlength=n)
    dloss = np.bincount(fid[~fwd & retx], minlength=n)
    tloss = sloss + dloss
    s_intpkt, src_jitter = _gap_stats_ms(flows, fwd)
    d_intpkt, dst_jitter = _gap_stats_ms(flows, ~fwd)
    dur = flows.end - flows.start
    moving = dur > 0

    def per_second(v):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(moving, v / dur, 0.0)

    def columns():
        yield from (dur, flows.sport, flows.dport, spkts, dpkts, tpkts,
                    sbytes, dbytes, tbytes)
        yield from (per_second(8.0 * v) for v in (sbytes, dbytes, tbytes))
        yield from (per_second(v) for v in (spkts, dpkts, tpkts))
        yield from (sloss, dloss, tloss, 100.0 * tloss / tpkts)
        yield from (src_jitter, dst_jitter, s_intpkt, d_intpkt)

    x = np.empty((n, len(FEATURE_NAMES)))
    for j, column in enumerate(columns()):
        x[:, j] = column
    return x


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
    packets: PacketTable, rules: Sequence[LabelRule] = ()
) -> LabeledDataset:
    """assemble -> features -> label: one labelled row per flow, in flow
    creation order."""
    flows = assemble_flows(packets)
    return LabeledDataset(feature_matrix(flows), label_flows(flows, rules))


# The separator after each feature cell and after the label.
_SEPARATORS = b"," * len(FEATURE_NAMES) + b"\n"
# Count columns, and the label, print as "%d" when whole.
_COUNT_CELLS = np.array([name in _INT_FEATURES for name in FEATURE_NAMES] + [True])


def write_features_csv(data: LabeledDataset, path) -> None:
    """Feature CSV of a flow pool: each cell as
    "%.6f" prints it, a count column as "%d" when it holds a whole number,
    and the label 0/1 last (see textio.number_cells)."""
    write_csv(path, FEATURE_CSV_HEADER, len(data), lambda rows: number_cells(
        np.column_stack([data.x[rows], data.y[rows]]), _COUNT_CELLS, _SEPARATORS))


def to_arrays(data: LabeledDataset) -> Tuple[np.ndarray, np.ndarray]:
    """The (n, 23) float matrix and the (n,) label vector. It stays a
    function of its own, though it only unpacks, because the benchmark
    tracer times the sweep's array stage by patching this name."""
    return data.x, data.y
