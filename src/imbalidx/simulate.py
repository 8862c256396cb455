"""Deterministic generator of polling traffic with injected attacks.

The plant is fixed: the module constants below set every shape of its
traffic, and a SimConfig sets only how many sessions of each class to
simulate. Normal traffic models an HMI polling a PLC over TCP port 502:
short request/response sessions with a steady period, near-constant
packet sizes and almost no retransmissions. Attack traffic from a third
host mixes two kinds of flow. Bursts push uniformly random packet counts
(2-200) and sizes (60-1500 B) one way with exponential gaps and elevated
retransmission flags. Mimic sessions copy the polling shape but drift
away from it in period, jitter, packet length, response delay and
retransmission rate; the drift magnitude is a per-flow draw, so some
mimics sit deep inside the normal cloud and some far outside. The graded
overlap is declared simulator policy: with fully distinguishable attacks,
detection quality would not depend on the class ratio and the experiments
downstream would have nothing to show.

Every session stays inside flows.IDLE_TIMEOUT (5 s), so it is one flow.
With Gaussian draws taken as bounded at six standard deviations, no gap
inside a session exceeds SESSION_GAP_BOUND (2.81 s), and no response
follows its request by more than RESPONSE_GAP_BOUND (0.21 s). Normal
sessions reuse an ephemeral port every 64,512 sessions, 645 s apart,
long after the earlier session and its idle timeout have ended.

All randomness flows through one numpy Generator and every draw happens in
a fixed order, so a seed fully determines the output. Timestamps are
quantized to the microsecond grid the capture formats carry, and the
merged stream is sorted by time (stable, so ties keep generation order).
Each block keeps its ports and lengths in the table's dtypes (uint16,
uint32), and the merge concatenates and gathers one column at a time,
freeing each block's column as it goes.

Mimic flows reuse the normal cycle-count range on purpose; packet counts
alone must never give them away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .flows import LabelRule
from .packets import PacketTable, Protocol, grid_seconds, parse_addr, quantize_us
from .textio import ConfigInvalid, check_fields

# The plant's hosts, written into every capture and label file.
HMI = parse_addr("10.0.0.10")
PLC = parse_addr("10.0.0.20")
ATTACKER = parse_addr("10.0.0.66")
MODBUS_PORT = 502

_EPHEMERAL_BASE = 1024
_EPHEMERAL_SPAN = 65536 - 1024

# Normal session placement and polling shape.
BASE_TIME = 10.0
FLOW_STAGGER = 0.01
POLL_CYCLES = (3, 5)  # request/response cycles per session: 8 packets on average
POLL_PERIOD = 1.0
PERIOD_STDDEV = 0.02
CYCLE_JITTER = 0.01
REQUEST_LEN = (64, 68)
RESPONSE_LEN = (68, 72)
RESPONSE_DELAY = (0.003, 0.010)
NORMAL_RETX_PROB = 0.0005
# Attack mix: burst share and burst intensity ranges.
BURST_FRACTION = 0.3
ATTACK_PKTS = (2, 200)
ATTACK_LEN = (60, 1500)
ATTACK_GAP_SCALE = (0.02, 0.40)
ATTACK_RETX_PROB = 0.02
MAX_GAP = 2.0
# How far a fully drifted mimic strays from the polling profile.
MIMIC_PERIOD_SHIFT = 0.40
MIMIC_JITTER_BOOST = 9.0
MIMIC_LEN_SHIFT = 6
MIMIC_DELAY_BOOST = 20.0
MIMIC_RETX_MAX = 0.06
# Attack session placement.
ATTACK_START = 50.0
ATTACK_WINDOW_GAP = 5.5

# The longest response delay, a mimic's at full drift.
RESPONSE_GAP_BOUND = RESPONSE_DELAY[1] * (1 + MIMIC_DELAY_BOOST)
# The longest gap between consecutive packets of one session: the longest
# period (normal or mimic), plus 12 times the largest per-cycle jitter,
# plus the longest response delay; burst gaps are clipped at MAX_GAP.
SESSION_GAP_BOUND = max(
    max(POLL_PERIOD + 6 * PERIOD_STDDEV, POLL_PERIOD + MIMIC_PERIOD_SHIFT)
    + 12 * CYCLE_JITTER * (1 + MIMIC_JITTER_BOOST) + RESPONSE_GAP_BOUND,
    MAX_GAP)


@dataclass(frozen=True)
class SimConfig:
    """How many sessions of each class to simulate. Defaults give a
    small desk-size run."""

    n_normal_flows: int = 200
    n_attack_flows: int = 20

    def __post_init__(self):
        check_fields(self)
        if self.n_normal_flows < 0 or self.n_attack_flows < 0:
            raise ConfigInvalid("flow counts must be non-negative")


# Per-packet endpoint codes used while columns are still numpy arrays.
_HMI_TO_PLC = 0
_PLC_TO_HMI = 1
_ATK_TO_PLC = 2
_PLC_TO_ATK = 3


def _polling_columns(rng, n, t0, period, jitter_std, req_len, resp_len,
                     delay_mult, retx_prob, code_fwd, code_bwd):
    """Request/response packet columns for n polling sessions.

    Per-flow parameter arrays come from the caller; per-cycle noise is
    drawn here. Returns (times, code, flow_map, length, retx, counts) with
    packets grouped by flow in cycle order.
    """
    cycles = rng.integers(POLL_CYCLES[0], POLL_CYCLES[1] + 1, size=n)
    total_c = int(cycles.sum())
    flow_of_c = np.repeat(np.arange(n), cycles)
    first_c = np.concatenate([[0], np.cumsum(cycles)[:-1]])
    idx_c = np.arange(total_c) - np.repeat(first_c, cycles)
    base = t0[flow_of_c] + idx_c * period[flow_of_c]
    del idx_c
    base += rng.normal(0.0, 1.0, total_c) * jitter_std[flow_of_c]
    delay = rng.uniform(*RESPONSE_DELAY, total_c)
    delay *= delay_mult[flow_of_c]
    retx = rng.random(2 * total_c) < np.repeat(retx_prob, 2 * cycles)

    # Per-packet columns in their final dtypes; each per-cycle array goes
    # once it is used.
    times = np.empty(2 * total_c)
    times[0::2] = base
    np.add(base, delay, out=times[1::2])
    del base, delay
    code = np.empty(2 * total_c, dtype=np.uint8)
    code[0::2] = code_fwd
    code[1::2] = code_bwd
    length = np.empty(2 * total_c, dtype=np.uint32)
    length[0::2] = req_len[flow_of_c]
    length[1::2] = resp_len[flow_of_c]
    del flow_of_c
    flow_map = np.repeat(np.arange(n), 2 * cycles)
    return times, code, flow_map, length, retx, 2 * cycles


def _ephemeral_ports(n: int) -> np.ndarray:
    """The client ports of n sessions, in session order."""
    return (_EPHEMERAL_BASE + np.arange(n) % _EPHEMERAL_SPAN).astype(np.uint16)


def _normal_columns(rng: np.random.Generator, n: int):
    ports = _ephemeral_ports(n)
    t0 = BASE_TIME + FLOW_STAGGER * np.arange(n)
    period = np.clip(rng.normal(POLL_PERIOD, PERIOD_STDDEV, n), 0.05, None)
    req_len = rng.integers(REQUEST_LEN[0], REQUEST_LEN[1] + 1, size=n)
    resp_len = rng.integers(RESPONSE_LEN[0], RESPONSE_LEN[1] + 1, size=n)
    times, code, flow_of, length, retx, _ = _polling_columns(
        rng, n, t0, period,
        jitter_std=np.full(n, CYCLE_JITTER),
        req_len=req_len, resp_len=resp_len,
        delay_mult=np.ones(n),
        retx_prob=np.full(n, NORMAL_RETX_PROB),
        code_fwd=_HMI_TO_PLC, code_bwd=_PLC_TO_HMI,
    )
    return times, code, ports[flow_of], length, retx


def _mimic_columns(rng: np.random.Generator, n: int):
    """Polling look-alikes from the attacker. Returns packet columns with
    flow-local ids plus per-flow packet counts; times are relative."""
    drift = rng.random(n)
    period_sign = rng.integers(0, 2, size=n) * 2 - 1
    len_sign = rng.integers(0, 2, size=n) * 2 - 1
    period = POLL_PERIOD + period_sign * MIMIC_PERIOD_SHIFT * drift
    jitter_std = CYCLE_JITTER * (1.0 + MIMIC_JITTER_BOOST * drift)
    mid_req = (REQUEST_LEN[0] + REQUEST_LEN[1]) / 2.0
    mid_resp = (RESPONSE_LEN[0] + RESPONSE_LEN[1]) / 2.0
    req_len = np.rint(mid_req + len_sign * MIMIC_LEN_SHIFT * drift).astype(np.int64)
    resp_len = np.rint(mid_resp + len_sign * MIMIC_LEN_SHIFT * drift).astype(np.int64)
    return _polling_columns(
        rng, n, np.zeros(n), period,
        jitter_std=jitter_std,
        req_len=req_len, resp_len=resp_len,
        delay_mult=1.0 + MIMIC_DELAY_BOOST * drift,
        retx_prob=NORMAL_RETX_PROB + MIMIC_RETX_MAX * drift,
        code_fwd=_ATK_TO_PLC, code_bwd=_PLC_TO_ATK,
    )


def _burst_columns(rng: np.random.Generator, n: int):
    """One-directional bursts. Same column layout as mimics."""
    counts = rng.integers(ATTACK_PKTS[0], ATTACK_PKTS[1] + 1, size=n)
    total = int(counts.sum())
    flow_of = np.repeat(np.arange(n), counts)
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    scale = rng.uniform(*ATTACK_GAP_SCALE, n)
    gaps = rng.exponential(1.0, total) * scale[flow_of]
    np.clip(gaps, 1e-6, MAX_GAP, out=gaps)
    gaps[first] = 0.0
    cum = np.cumsum(gaps)
    times = cum - np.repeat(cum[first], counts)
    len_lo = rng.integers(ATTACK_LEN[0], ATTACK_LEN[1] + 1, size=n)
    len_hi = rng.integers(len_lo, ATTACK_LEN[1] + 1)
    length = rng.integers(len_lo[flow_of], len_hi[flow_of] + 1).astype(np.uint32)
    retx = rng.random(total) < ATTACK_RETX_PROB
    code = np.full(total, _ATK_TO_PLC, dtype=np.uint8)
    return times, code, flow_of, length, retx, counts


def simulate(config: SimConfig, seed=None) -> Tuple[PacketTable, List[LabelRule]]:
    """Generate the merged packet stream and one label window per attack
    session. Packets come back sorted by timestamp. seed is anything
    np.random.default_rng takes; an int, its SeedSequence and a fresh
    Generator from either give the same stream."""
    rng = np.random.default_rng(seed)
    # One block per source, each (times, endpoint code, ephemeral port,
    # length, retx); normal traffic first.
    n_n = config.n_normal_flows
    blocks = [list(_normal_columns(rng, n_n))] if n_n > 0 else []
    rules: List[LabelRule] = []
    n_a = config.n_attack_flows
    if n_a > 0:
        is_burst = rng.random(n_a) < BURST_FRACTION
        kinds = [(ids, make(rng, int(ids.size)))
                 for ids, make in ((np.flatnonzero(~is_burst), _mimic_columns),
                                   (np.flatnonzero(is_burst), _burst_columns))
                 if ids.size]
        # Each session's extent within its own block, by global session id.
        rel_min, span = np.empty(n_a), np.empty(n_a)
        for ids, (rel, *_, counts) in kinds:
            first = np.cumsum(counts) - counts
            rel_min[ids] = np.minimum.reduceat(rel, first)
            span[ids] = np.maximum.reduceat(rel, first) - rel_min[ids]
        between = ATTACK_WINDOW_GAP + rng.uniform(0.0, 2.0, n_a)
        start = ATTACK_START + np.concatenate(
            [[0.0], np.cumsum(span[:-1] + between[:-1])])
        eph_ports = _ephemeral_ports(n_a)
        for ids, (rel, code, local, length, retx, _) in kinds:
            flow_of = ids[local]
            abs_t = start[flow_of] + (rel - rel_min[flow_of])
            blocks.append([abs_t, code, eph_ports[flow_of], length, retx])
        # Label windows are the realized microsecond-grid extremes, so each
        # attack session overlaps exactly its own window. Float addition and
        # rounding are monotone, so those extremes are the grid times of
        # start and start + span, the session's first and last packet.
        lo, hi = (grid_seconds(*np.divmod(quantize_us(t), 1_000_000)).tolist()
                  for t in (start, start + span))
        rules = [LabelRule(ATTACKER, PLC, a, b) for a, b in zip(lo, hi)]

    if not blocks:
        return PacketTable.from_records([]), []

    def merged(i):
        """Column i of every block, concatenated; the blocks let go of it."""
        column = np.concatenate([b[i] for b in blocks])
        for b in blocks:
            b[i] = None
        return column

    # One stable time sort merges the blocks; normal packets win ties.
    # Attack sessions are placed in id order, at least ATTACK_WINDOW_GAP
    # apart, so packets of two attack sessions never tie; other ties are
    # within one session, which keeps its order.
    us = quantize_us(merged(0))
    order = np.argsort(us, kind="stable")
    us = us[order]
    sec, usec = np.divmod(us, 1_000_000)
    del us
    ts = grid_seconds(sec, usec)
    del sec, usec
    code, eph, length, retx = (merged(i)[order] for i in range(1, 5))
    # Indexed by endpoint code: _HMI_TO_PLC, _PLC_TO_HMI, _ATK_TO_PLC, _PLC_TO_ATK.
    src_of = np.array([HMI, PLC, ATTACKER, PLC], dtype=np.uint32)
    dst_of = np.array([PLC, HMI, PLC, ATTACKER], dtype=np.uint32)
    to_plc = (code == _HMI_TO_PLC) | (code == _ATK_TO_PLC)
    return PacketTable(
        ts=ts,
        src=src_of[code],
        dst=dst_of[code],
        sport=np.where(to_plc, eph, MODBUS_PORT),
        dport=np.where(to_plc, MODBUS_PORT, eph),
        proto=np.full(order.size, Protocol.TCP, dtype=np.uint8),
        wire_len=length,
        retx=retx,
    ), rules
