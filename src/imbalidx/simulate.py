"""Deterministic generator of polling traffic with injected attacks.

Normal traffic models an HMI polling a PLC over TCP port 502: short
request/response sessions with a steady period, near-constant packet sizes
and almost no retransmissions. Attack traffic from a third host mixes two
kinds of flow. Bursts push uniformly random packet counts (2-200) and
sizes (60-1500 B) one way with exponential gaps and elevated
retransmission flags. Mimic sessions copy the polling shape but drift away
from it in period, jitter, packet length, response delay and
retransmission rate; the drift magnitude is a per-flow draw, so some
mimics sit deep inside the normal cloud and some far outside. The graded
overlap is declared simulator policy: with fully distinguishable attacks,
detection quality would not depend on the class ratio and the experiments
downstream would have nothing to show.

All randomness flows through one numpy Generator and every draw happens in
a fixed order, so a seed fully determines the output. Timestamps are
quantized to the microsecond grid the capture formats carry, and the
merged stream is sorted by time (stable, so ties keep generation order).

Mimic flows reuse the normal cycle-count range on purpose; packet counts
alone must never give them away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .flows import DEFAULT_IDLE_TIMEOUT, LabelRule
from .packets import PacketTable, Protocol, grid_seconds, parse_addr, quantize_us
from .textio import ConfigInvalid, check_fields

_EPHEMERAL_BASE = 1024
_EPHEMERAL_SPAN = 65536 - 1024


@dataclass(frozen=True)
class SimConfig:
    """Traffic mix and shape knobs. Defaults give a small desk-size run.

    Configs are rejected unless every simulated session stays one flow
    under flows.DEFAULT_IDLE_TIMEOUT. With Gaussian draws taken as bounded
    at six standard deviations, the longest gap inside a polling session
    is at most the longest period (normal or mimic), plus 12 times the
    largest per-cycle jitter, plus the largest response delay; burst gaps
    are clipped at max_gap. Both must stay below the timeout. Normal
    sessions reuse an ephemeral port every 64,512 sessions, so with more
    sessions than that, 64,512 * flow_stagger must exceed the longest
    normal session plus the timeout, or two sessions merge.
    """

    n_normal_flows: int = 200
    n_attack_flows: int = 20
    hmi_addr: str = "10.0.0.10"
    plc_addr: str = "10.0.0.20"
    attacker_addr: str = "10.0.0.66"
    modbus_port: int = 502
    base_time: float = 10.0
    flow_stagger: float = 0.01
    # Normal polling shape.
    normal_pkts_per_flow: int = 8
    poll_period: float = 1.0
    period_stddev: float = 0.02
    cycle_jitter: float = 0.01
    request_len_lo: int = 64
    request_len_hi: int = 68
    response_len_lo: int = 68
    response_len_hi: int = 72
    response_delay_lo: float = 0.003
    response_delay_hi: float = 0.010
    normal_retx_prob: float = 0.0005
    # Attack mix: burst share and burst intensity ranges.
    burst_fraction: float = 0.3
    attack_pkts_min: int = 2
    attack_pkts_max: int = 200
    attack_len_lo: int = 60
    attack_len_hi: int = 1500
    attack_gap_scale_lo: float = 0.02
    attack_gap_scale_hi: float = 0.40
    attack_retx_prob: float = 0.02
    # How far a fully drifted mimic strays from the polling profile.
    mimic_period_shift: float = 0.40
    mimic_jitter_boost: float = 9.0
    mimic_len_shift: int = 6
    mimic_delay_boost: float = 20.0
    mimic_retx_max: float = 0.06
    # Attack session placement.
    attack_start: float = 50.0
    attack_window_gap: float = 5.5
    max_gap: float = 2.0

    def __post_init__(self):
        check_fields(self)
        if self.n_normal_flows < 0 or self.n_attack_flows < 0:
            raise ConfigInvalid("flow counts must be non-negative")
        addrs = {self.hmi_addr, self.plc_addr, self.attacker_addr}
        if len(addrs) != 3 or not all(addrs):
            raise ConfigInvalid("hmi, plc and attacker addresses must be distinct")
        for name in ("hmi_addr", "plc_addr", "attacker_addr"):
            try:
                parse_addr(getattr(self, name))
            except ValueError as exc:
                raise ConfigInvalid(f"{name}: {exc}") from None
        if not 0 < self.modbus_port <= 65535:
            raise ConfigInvalid(f"bad service port {self.modbus_port}")
        if self.base_time < 0 or self.attack_start < 0:
            raise ConfigInvalid("start times must be non-negative")
        if self.flow_stagger <= 0:
            raise ConfigInvalid("flow_stagger must be positive")
        if self.normal_pkts_per_flow < 2:
            raise ConfigInvalid("normal flows need at least one request/response")
        if self.poll_period <= 0 or self.period_stddev < 0 or self.cycle_jitter < 0:
            raise ConfigInvalid("polling timing parameters out of range")
        for lo, hi in (
            (self.request_len_lo, self.request_len_hi),
            (self.response_len_lo, self.response_len_hi),
            (self.attack_len_lo, self.attack_len_hi),
        ):
            if not 60 <= lo <= hi <= 65535:
                raise ConfigInvalid(f"length range [{lo}, {hi}] is invalid")
        if not 0 < self.response_delay_lo <= self.response_delay_hi:
            raise ConfigInvalid("response delay range is invalid")
        for p in (self.normal_retx_prob, self.attack_retx_prob, self.mimic_retx_max):
            if not 0.0 <= p <= 1.0:
                raise ConfigInvalid(f"probability {p} outside [0, 1]")
        if not 0.0 <= self.burst_fraction <= 1.0:
            raise ConfigInvalid("burst_fraction must be in [0, 1]")
        if not 1 <= self.attack_pkts_min <= self.attack_pkts_max:
            raise ConfigInvalid("attack packet range is empty or non-positive")
        if not 0 < self.attack_gap_scale_lo <= self.attack_gap_scale_hi:
            raise ConfigInvalid("attack gap scale range is invalid")
        if self.mimic_period_shift >= self.poll_period:
            raise ConfigInvalid("mimic_period_shift must stay below the period")
        if min(self.mimic_jitter_boost, self.mimic_delay_boost) < 0:
            raise ConfigInvalid("mimic boosts must be non-negative")
        if self.mimic_len_shift < 0:
            raise ConfigInvalid("mimic_len_shift must be non-negative")
        if self.attack_window_gap <= 0 or self.max_gap <= 0:
            raise ConfigInvalid("gaps must be positive")
        if self.session_gap_bound >= DEFAULT_IDLE_TIMEOUT:
            raise ConfigInvalid(
                f"polling timing (poll_period, period_stddev, cycle_jitter, "
                f"response_delay_hi, mimic_*) or max_gap allows a "
                f"{self.session_gap_bound:g} s gap inside a session, which reaches "
                f"the {DEFAULT_IDLE_TIMEOUT:g} s flow idle timeout and would split it")
        period = self.poll_period + 6 * self.period_stddev
        longest = ((self.poll_cycles_bounds[1] - 1) * period
                   + 12 * self.cycle_jitter + self.response_delay_hi)
        if (self.n_normal_flows > _EPHEMERAL_SPAN
                and _EPHEMERAL_SPAN * self.flow_stagger <= longest + DEFAULT_IDLE_TIMEOUT):
            raise ConfigInvalid(
                f"flow_stagger {self.flow_stagger:g} brings a normal session's port "
                f"round after {_EPHEMERAL_SPAN * self.flow_stagger:g} s, not more than "
                f"a session plus the flow idle timeout ({longest + DEFAULT_IDLE_TIMEOUT:g} s), "
                f"so two sessions would merge")

    @property
    def response_gap_bound(self) -> float:
        """The longest response delay: no response follows its request by
        more, so no gap in a session that ends at a response is longer."""
        return self.response_delay_hi * (1 + self.mimic_delay_boost)

    @property
    def session_gap_bound(self) -> float:
        """The longest gap between consecutive packets of one session, the
        bound the class docstring states."""
        period = self.poll_period + 6 * self.period_stddev
        polling = (max(period, self.poll_period + self.mimic_period_shift)
                   + 12 * self.cycle_jitter * (1 + self.mimic_jitter_boost)
                   + self.response_gap_bound)
        return max(polling, self.max_gap)

    @property
    def poll_cycles_bounds(self) -> Tuple[int, int]:
        """Cycle-count range giving normal_pkts_per_flow packets on average
        with low variance (each cycle is one request plus one response)."""
        center = max(1, round(self.normal_pkts_per_flow / 2))
        return max(1, center - 1), center + 1


# Per-packet endpoint codes used while columns are still numpy arrays.
_HMI_TO_PLC = 0
_PLC_TO_HMI = 1
_ATK_TO_PLC = 2
_PLC_TO_ATK = 3


def _polling_columns(cfg, rng, n, t0, period, jitter_std, req_len, resp_len,
                     delay_mult, retx_prob, code_fwd, code_bwd):
    """Request/response packet columns for n polling sessions.

    Per-flow parameter arrays come from the caller; per-cycle noise is
    drawn here. Returns (times, code, flow_map, length, retx, counts) with
    packets grouped by flow in cycle order.
    """
    c_lo, c_hi = cfg.poll_cycles_bounds
    cycles = rng.integers(c_lo, c_hi + 1, size=n)
    total_c = int(cycles.sum())
    flow_of_c = np.repeat(np.arange(n), cycles)
    first_c = np.concatenate([[0], np.cumsum(cycles)[:-1]])
    idx_c = np.arange(total_c) - np.repeat(first_c, cycles)
    base = t0[flow_of_c] + idx_c * period[flow_of_c]
    base = base + rng.normal(0.0, 1.0, total_c) * jitter_std[flow_of_c]
    delay = rng.uniform(cfg.response_delay_lo, cfg.response_delay_hi, total_c)
    delay = delay * delay_mult[flow_of_c]
    retx = rng.random(2 * total_c) < np.repeat(retx_prob[flow_of_c], 2)

    times = np.empty(2 * total_c)
    times[0::2] = base
    times[1::2] = base + delay
    code = np.empty(2 * total_c, dtype=np.uint8)
    code[0::2] = code_fwd
    code[1::2] = code_bwd
    length = np.empty(2 * total_c, dtype=np.int64)
    length[0::2] = req_len[flow_of_c]
    length[1::2] = resp_len[flow_of_c]
    flow_map = np.repeat(np.arange(n), 2 * cycles)
    return times, code, flow_map, length, retx, 2 * cycles


def _normal_columns(cfg: SimConfig, rng: np.random.Generator):
    n = cfg.n_normal_flows
    ports = _EPHEMERAL_BASE + np.arange(n) % _EPHEMERAL_SPAN
    t0 = cfg.base_time + cfg.flow_stagger * np.arange(n)
    period = np.clip(
        rng.normal(cfg.poll_period, cfg.period_stddev, n), 0.05, None
    )
    req_len = rng.integers(cfg.request_len_lo, cfg.request_len_hi + 1, size=n)
    resp_len = rng.integers(cfg.response_len_lo, cfg.response_len_hi + 1, size=n)
    times, code, flow_of, length, retx, _ = _polling_columns(
        cfg, rng, n, t0, period,
        jitter_std=np.full(n, cfg.cycle_jitter),
        req_len=req_len, resp_len=resp_len,
        delay_mult=np.ones(n),
        retx_prob=np.full(n, cfg.normal_retx_prob),
        code_fwd=_HMI_TO_PLC, code_bwd=_PLC_TO_HMI,
    )
    return times, code, ports[flow_of], length, retx


def _mimic_columns(cfg: SimConfig, rng: np.random.Generator, n: int):
    """Polling look-alikes from the attacker. Returns packet columns with
    flow-local ids plus per-flow packet counts; times are relative."""
    drift = rng.random(n)
    period_sign = rng.integers(0, 2, size=n) * 2 - 1
    len_sign = rng.integers(0, 2, size=n) * 2 - 1
    period = np.clip(
        cfg.poll_period + period_sign * cfg.mimic_period_shift * drift, 0.05, None
    )
    jitter_std = cfg.cycle_jitter * (1.0 + cfg.mimic_jitter_boost * drift)
    mid_req = (cfg.request_len_lo + cfg.request_len_hi) / 2.0
    mid_resp = (cfg.response_len_lo + cfg.response_len_hi) / 2.0
    req_len = np.clip(
        np.rint(mid_req + len_sign * cfg.mimic_len_shift * drift), 60, 65535
    ).astype(np.int64)
    resp_len = np.clip(
        np.rint(mid_resp + len_sign * cfg.mimic_len_shift * drift), 60, 65535
    ).astype(np.int64)
    return _polling_columns(
        cfg, rng, n, np.zeros(n), period,
        jitter_std=jitter_std,
        req_len=req_len, resp_len=resp_len,
        delay_mult=1.0 + cfg.mimic_delay_boost * drift,
        retx_prob=cfg.normal_retx_prob + cfg.mimic_retx_max * drift,
        code_fwd=_ATK_TO_PLC, code_bwd=_PLC_TO_ATK,
    )


def _burst_columns(cfg: SimConfig, rng: np.random.Generator, n: int):
    """One-directional bursts. Same column layout as mimics."""
    counts = rng.integers(cfg.attack_pkts_min, cfg.attack_pkts_max + 1, size=n)
    total = int(counts.sum())
    flow_of = np.repeat(np.arange(n), counts)
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    scale = rng.uniform(cfg.attack_gap_scale_lo, cfg.attack_gap_scale_hi, n)
    gaps = rng.exponential(1.0, total) * scale[flow_of]
    np.clip(gaps, 1e-6, cfg.max_gap, out=gaps)
    gaps[first] = 0.0
    cum = np.cumsum(gaps)
    times = cum - np.repeat(cum[first], counts)
    len_lo = rng.integers(cfg.attack_len_lo, cfg.attack_len_hi + 1, size=n)
    len_hi = rng.integers(len_lo, cfg.attack_len_hi + 1)
    length = rng.integers(len_lo[flow_of], len_hi[flow_of] + 1)
    retx = rng.random(total) < cfg.attack_retx_prob
    code = np.full(total, _ATK_TO_PLC, dtype=np.uint8)
    return times, code, flow_of, length, retx, counts


def simulate(config: SimConfig, seed=None) -> Tuple[PacketTable, List[LabelRule]]:
    """Generate the merged packet stream and one label window per attack
    session. Packets come back sorted by timestamp. seed is anything
    np.random.default_rng takes; an int, its SeedSequence and a fresh
    Generator from either give the same stream."""
    rng = np.random.default_rng(seed)
    cfg = config
    hmi, plc, atk = (parse_addr(a) for a in (cfg.hmi_addr, cfg.plc_addr, cfg.attacker_addr))
    # One block per source, each (times, endpoint code, ephemeral port,
    # length, retx); normal traffic first.
    blocks = [_normal_columns(cfg, rng)] if cfg.n_normal_flows > 0 else []
    rules: List[LabelRule] = []
    n_a = cfg.n_attack_flows
    if n_a > 0:
        is_burst = rng.random(n_a) < cfg.burst_fraction
        kinds = [(ids, make(cfg, rng, int(ids.size)))
                 for ids, make in ((np.flatnonzero(~is_burst), _mimic_columns),
                                   (np.flatnonzero(is_burst), _burst_columns))
                 if ids.size]
        # Each session's extent within its own block, by global session id.
        rel_min, span = np.empty(n_a), np.empty(n_a)
        for ids, (rel, *_, counts) in kinds:
            first = np.cumsum(counts) - counts
            rel_min[ids] = np.minimum.reduceat(rel, first)
            span[ids] = np.maximum.reduceat(rel, first) - rel_min[ids]
        between = cfg.attack_window_gap + rng.uniform(0.0, 2.0, n_a)
        start = cfg.attack_start + np.concatenate(
            [[0.0], np.cumsum(span[:-1] + between[:-1])])
        eph_ports = _EPHEMERAL_BASE + np.arange(n_a) % _EPHEMERAL_SPAN
        for ids, (rel, code, local, length, retx, _) in kinds:
            flow_of = ids[local]
            abs_t = start[flow_of] + (rel - rel_min[flow_of])
            blocks.append((abs_t, code, eph_ports[flow_of], length, retx))
        # Label windows are the realized microsecond-grid extremes, so each
        # attack session overlaps exactly its own window. Float addition and
        # rounding are monotone, so those extremes are the grid times of
        # start and start + span, the session's first and last packet.
        lo, hi = (grid_seconds(*np.divmod(quantize_us(t), 1_000_000)).tolist()
                  for t in (start, start + span))
        rules = [LabelRule(atk, plc, a, b) for a, b in zip(lo, hi)]

    if not blocks:
        return PacketTable.from_records([]), []

    # One stable time sort merges the blocks; normal packets win ties.
    # Attack sessions are placed in id order, attack_window_gap + U(0, 2)
    # apart, so packets of two sessions can only tie when the sessions are
    # less than 1 us apart (only then would mimics-before-bursts block order
    # show); other ties are within one session, which keeps its order.
    us = quantize_us(np.concatenate([b[0] for b in blocks]))
    order = np.argsort(us, kind="stable")
    ts = grid_seconds(*np.divmod(us[order], 1_000_000))
    del us
    code, eph, length, retx = (np.concatenate([b[i] for b in blocks])[order]
                               for i in range(1, 5))
    del blocks
    eph = eph.astype(np.uint16)
    # Indexed by endpoint code: _HMI_TO_PLC, _PLC_TO_HMI, _ATK_TO_PLC, _PLC_TO_ATK.
    src_of = np.array([hmi, plc, atk, plc], dtype=np.uint32)
    dst_of = np.array([plc, hmi, plc, atk], dtype=np.uint32)
    to_plc = (code == _HMI_TO_PLC) | (code == _ATK_TO_PLC)
    return PacketTable(
        ts=ts,
        src=src_of[code],
        dst=dst_of[code],
        sport=np.where(to_plc, eph, cfg.modbus_port),
        dport=np.where(to_plc, cfg.modbus_port, eph),
        proto=np.full(order.size, Protocol.TCP, dtype=np.uint8),
        wire_len=length.astype(np.uint32),
        retx=retx,
    ), rules
