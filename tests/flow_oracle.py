"""Reference flow extraction for the tests: one packet at a time, with a
dict of open flows and one Python object per flow.

This is the object path that imbalidx.flows computes on columns. The
columnar code must reproduce its feature matrix and labels bit for bit, so
every sum here runs left to right in time order, the order np.bincount
adds in, and squares are taken as products.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from imbalidx.flows import ATTACK, FEATURE_NAMES, NORMAL, LabelRule
from imbalidx.packets import PacketRecord, PacketTable, Protocol, format_addr


def records(table: PacketTable) -> Iterator[PacketRecord]:
    """The rows of a packet table as PacketRecords, lazily."""
    cols = [getattr(table, c).tolist() for c in PacketTable.COLUMNS]
    names: Dict[int, str] = {}
    for ts, src, dst, sport, dport, proto, wire_len, retx in zip(*cols):
        for a in (src, dst):
            if a not in names:
                names[a] = format_addr(a)
        yield PacketRecord(ts, names[src], names[dst], sport, dport,
                           Protocol(proto), wire_len, retx)


@dataclass
class FlowRecord:
    """Accumulated per-direction state for one flow. fwd is the initiator
    direction."""

    initiator_addr: str
    initiator_port: int
    responder_addr: str
    responder_port: int
    fwd_times: List[float] = field(default_factory=list)
    bwd_times: List[float] = field(default_factory=list)
    fwd_bytes: int = 0
    bwd_bytes: int = 0
    fwd_loss: int = 0
    bwd_loss: int = 0
    start_time: float = 0.0
    end_time: float = 0.0


def _canonical(src, sport, dst, dport, proto):
    if (src, sport) <= (dst, dport):
        return (src, sport, dst, dport, proto)
    return (dst, dport, src, sport, proto)


def assemble_flows(packets: Iterable[PacketRecord], idle_timeout: float) -> List[FlowRecord]:
    """Flows in creation order; a gap longer than idle_timeout between
    packets of one 5-tuple closes a flow."""
    flows: List[FlowRecord] = []
    open_flows: Dict[tuple, FlowRecord] = {}
    last_ts = -math.inf
    for pkt in packets:
        if pkt.timestamp < last_ts:
            raise ValueError(f"packet at {pkt.timestamp} follows one at {last_ts}")
        last_ts = pkt.timestamp
        key = _canonical(pkt.src_addr, pkt.src_port, pkt.dst_addr, pkt.dst_port,
                         pkt.protocol)
        flow = open_flows.get(key)
        if flow is None or pkt.timestamp - flow.end_time > idle_timeout:
            flow = FlowRecord(pkt.src_addr, pkt.src_port, pkt.dst_addr, pkt.dst_port,
                              start_time=pkt.timestamp, end_time=pkt.timestamp)
            open_flows[key] = flow
            flows.append(flow)
        if pkt.src_addr == flow.initiator_addr and pkt.src_port == flow.initiator_port:
            flow.fwd_times.append(pkt.timestamp)
            flow.fwd_bytes += pkt.wire_len
            flow.fwd_loss += pkt.is_retransmission
        else:
            flow.bwd_times.append(pkt.timestamp)
            flow.bwd_bytes += pkt.wire_len
            flow.bwd_loss += pkt.is_retransmission
        flow.end_time = pkt.timestamp
    return flows


def _left_to_right_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def gap_stats_ms(times: Sequence[float]) -> Tuple[float, float]:
    """Mean and population stddev of consecutive gaps, in milliseconds."""
    n = len(times)
    if n < 2:
        return 0.0, 0.0
    gaps = [(times[i + 1] - times[i]) * 1000.0 for i in range(n - 1)]
    m = _left_to_right_sum(gaps) / len(gaps)
    var = _left_to_right_sum((g - m) * (g - m) for g in gaps) / len(gaps)
    return m, math.sqrt(var)


def compute_features(flow: FlowRecord) -> Dict[str, float]:
    """The 23 features of one flow. Zero-duration flows get zero rates."""
    dur = flow.end_time - flow.start_time
    spkts, dpkts = len(flow.fwd_times), len(flow.bwd_times)
    tpkts = spkts + dpkts
    sbytes, dbytes = flow.fwd_bytes, flow.bwd_bytes
    tbytes = sbytes + dbytes
    if dur > 0:
        sload, dload, tload = 8.0 * sbytes / dur, 8.0 * dbytes / dur, 8.0 * tbytes / dur
        srate, drate, trate = spkts / dur, dpkts / dur, tpkts / dur
    else:
        sload = dload = tload = srate = drate = trate = 0.0
    sloss, dloss = flow.fwd_loss, flow.bwd_loss
    tloss = sloss + dloss
    s_intpkt, src_jitter = gap_stats_ms(flow.fwd_times)
    d_intpkt, dst_jitter = gap_stats_ms(flow.bwd_times)
    return dict(
        mean_dur=dur, sport=flow.initiator_port, dport=flow.responder_port,
        spkts=spkts, dpkts=dpkts, tpkts=tpkts,
        sbytes=sbytes, dbytes=dbytes, tbytes=tbytes,
        sload=sload, dload=dload, tload=tload,
        srate=srate, drate=drate, trate=trate,
        sloss=sloss, dloss=dloss, tloss=tloss, ploss=100.0 * tloss / tpkts,
        src_jitter=src_jitter, dst_jitter=dst_jitter,
        s_intpkt=s_intpkt, d_intpkt=d_intpkt,
    )


def label_flows(flows: Sequence[FlowRecord], rules: Sequence[LabelRule]) -> List[int]:
    """ATTACK iff a rule names the flow's address pair and its window
    overlaps [start_time, end_time]."""
    by_pair: Dict[tuple, List[Tuple[float, float]]] = {}
    for r in rules:
        pair = tuple(sorted((format_addr(r.src_addr), format_addr(r.dst_addr))))
        by_pair.setdefault(pair, []).append((r.start_time, r.end_time))
    index = {}
    for pair, windows in by_pair.items():
        windows.sort()
        max_end, top = [], -math.inf
        for _, end in windows:
            top = max(top, end)
            max_end.append(top)
        index[pair] = ([w[0] for w in windows], max_end)
    labels = []
    for f in flows:
        entry = index.get(tuple(sorted((f.initiator_addr, f.responder_addr))))
        hit = False
        if entry is not None:
            hi = bisect_right(entry[0], f.end_time)
            hit = hi > 0 and entry[1][hi - 1] >= f.start_time
        labels.append(ATTACK if hit else NORMAL)
    return labels


def extract(packets: Iterable[PacketRecord], rules: Sequence[LabelRule],
            idle_timeout: float) -> Tuple[np.ndarray, np.ndarray]:
    """The reference feature matrix and labels of a packet stream."""
    flows = assemble_flows(packets, idle_timeout)
    x = np.empty((len(flows), len(FEATURE_NAMES)))
    for i, flow in enumerate(flows):
        feats = compute_features(flow)
        x[i] = [float(feats[name]) for name in FEATURE_NAMES]
    return x, np.array(label_flows(flows, rules), dtype=np.int64)
