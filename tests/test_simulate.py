"""Traffic generator: determinism, stream structure, label windows, and
the pipeline from synthetic packets to labeled flows."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from imbalidx.flows import (
    ATTACK,
    DEFAULT_IDLE_TIMEOUT,
    FEATURE_NAMES,
    assemble_flows,
    features_from_packets,
)
from imbalidx.packets import PacketTable, Protocol, parse_addr, quantize_timestamp
from imbalidx.experiment import ExperimentConfig
from imbalidx.mlp import TrainConfig
from imbalidx.simulate import ConfigInvalid, SimConfig, simulate
from imbalidx.textio import config_from_json

SMALL = SimConfig(n_normal_flows=30, n_attack_flows=6)


def test_same_seed_same_stream():
    p1, r1 = simulate(SMALL, 11)
    p2, r2 = simulate(SMALL, 11)
    assert p1 == p2
    assert r1 == r2


def test_different_seed_different_stream():
    p1, _ = simulate(SMALL, 11)
    p2, _ = simulate(SMALL, 12)
    assert p1 != p2


def test_int_seed_sequence_and_generator_seeds_agree():
    cfg = SimConfig(n_normal_flows=10, n_attack_flows=2)
    want = simulate(cfg, 42)
    assert simulate(cfg, np.random.SeedSequence(42)) == want
    assert simulate(cfg, np.random.default_rng(42)) == want


def test_timestamps_sorted_and_on_microsecond_grid():
    packets, _ = simulate(SMALL, 11)
    times = packets.ts.tolist()
    assert times == sorted(times)
    assert all(quantize_timestamp(t) == t for t in times)


def test_stream_shape_normal_only():
    cfg = SimConfig(n_normal_flows=25, n_attack_flows=0)
    packets, rules = simulate(cfg, 3)
    assert rules == []
    hmi, plc = parse_addr(cfg.hmi_addr), parse_addr(cfg.plc_addr)
    hosts = set(zip(packets.src.tolist(), packets.dst.tolist()))
    assert hosts <= {(hmi, plc), (plc, hmi)}
    assert np.all(packets.proto == Protocol.TCP)
    assert np.all((packets.sport == 502) | (packets.dport == 502))
    assert np.all((60 <= packets.wire_len) & (packets.wire_len <= 65535))


def test_empty_config_yields_empty_stream():
    packets, rules = simulate(SimConfig(n_normal_flows=0, n_attack_flows=0), 0)
    assert packets == PacketTable.from_records([]) and rules == []


@pytest.mark.parametrize(
    "n_normal,burst_fraction",
    [(20, 0.0), (20, 0.3), (20, 1.0), (0, 0.3)],
    ids=["mimics", "mixed", "bursts", "no-normals"],
)
def test_one_label_window_per_attack_session(n_normal, burst_fraction):
    cfg = SimConfig(n_normal_flows=n_normal, n_attack_flows=7,
                    burst_fraction=burst_fraction)
    packets, rules = simulate(cfg, 9)
    assert len(rules) == 7
    atk, plc = parse_addr(cfg.attacker_addr), parse_addr(cfg.plc_addr)
    for r in rules:
        assert (r.src_addr, r.dst_addr) == (atk, plc)
        assert r.start_time <= r.end_time
    # Sessions are placed in id order and spaced out, so the windows
    # increase in session order and never touch: one time sort merges them.
    assert all(a.end_time < b.start_time for a, b in zip(rules, rules[1:]))
    ts = packets.ts[(packets.src == atk) | (packets.dst == atk)]
    inside = ((ts[:, None] >= [r.start_time for r in rules])
              & (ts[:, None] <= [r.end_time for r in rules]))
    assert (inside.sum(axis=1) == 1).all()
    # Each window is the grid span of its session's packets, no wider.
    for j, r in enumerate(rules):
        assert (ts[inside[:, j]].min(), ts[inside[:, j]].max()) == (r.start_time, r.end_time)


def test_attack_packets_stay_inside_their_windows():
    cfg = SimConfig(n_normal_flows=0, n_attack_flows=5)
    packets, rules = simulate(cfg, 21)
    lo = min(r.start_time for r in rules)
    hi = max(r.end_time for r in rules)
    assert all(lo <= t <= hi for t in packets.ts.tolist())
    assert all(
        any(r.start_time <= t <= r.end_time for r in rules)
        for t in packets.ts.tolist()
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pipeline_labels_exactly_the_attack_sessions(seed):
    cfg = SimConfig(n_normal_flows=90, n_attack_flows=10)
    packets, rules = simulate(cfg, seed)
    feats = features_from_packets(packets, rules, idle_timeout=60.0)
    assert len(feats) == 100
    assert feats.n_attack == 10
    flows = assemble_flows(packets, idle_timeout=60.0)
    attacker = parse_addr(cfg.attacker_addr)
    on_attacker = (flows.src == attacker) | (flows.dst == attacker)
    assert np.array_equal(on_attacker, feats.y == ATTACK)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_attack_flows_are_statistically_noisier(seed):
    cfg = SimConfig(n_normal_flows=90, n_attack_flows=10)
    packets, rules = simulate(cfg, seed)
    feats = features_from_packets(packets, rules, idle_timeout=60.0)
    jitter = feats.x[:, FEATURE_NAMES.index("src_jitter")]
    assert jitter[feats.y == ATTACK].mean() > 2.0 * jitter[feats.y != ATTACK].mean()


def test_mimics_share_the_normal_packet_count_range():
    # With bursts disabled every attack session polls, so packet counts
    # cannot separate the classes.
    cfg = SimConfig(
        n_normal_flows=40, n_attack_flows=40, burst_fraction=0.0
    )
    packets, rules = simulate(cfg, 14)
    feats = features_from_packets(packets, rules, idle_timeout=60.0)
    tpkts = feats.x[:, FEATURE_NAMES.index("tpkts")]
    assert set(tpkts[feats.y == ATTACK]) <= set(tpkts[feats.y != ATTACK])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_normal_flows=-1),
        dict(n_attack_flows=-1),
        dict(plc_addr="10.0.0.10"),  # collides with the HMI
        dict(attacker_addr=""),
        dict(modbus_port=0),
        dict(modbus_port=70000),
        dict(flow_stagger=0.0),
        dict(normal_pkts_per_flow=1),
        dict(poll_period=0.0),
        dict(period_stddev=-0.1),
        dict(request_len_lo=40),
        dict(request_len_lo=70, request_len_hi=65),
        dict(response_delay_lo=0.0),
        dict(response_delay_lo=0.02, response_delay_hi=0.01),
        dict(normal_retx_prob=1.5),
        dict(burst_fraction=-0.2),
        dict(attack_pkts_min=0),
        dict(attack_pkts_min=50, attack_pkts_max=10),
        dict(attack_gap_scale_lo=0.0),
        dict(mimic_period_shift=1.0),  # as large as the period itself
        dict(mimic_len_shift=-1),
        dict(mimic_jitter_boost=-1.0),
        dict(attack_window_gap=0.0),
        dict(max_gap=0.0),
        dict(max_gap=5.0),  # a burst gap reaching the flow idle timeout
        dict(poll_period=6.0),  # longer than the idle timeout
        dict(cycle_jitter=0.05),  # mimic jitter alone spans 6 s
        dict(mimic_delay_boost=300.0),  # mimic responses up to 3 s late
        dict(attacker_addr="10.0.0.256"),  # not an IPv4 address
        dict(hmi_addr="hmi"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigInvalid):
        SimConfig(**kwargs)


def test_port_reuse_needs_a_wide_enough_stagger():
    # Normal sessions 64,512 apart share an ephemeral port; at this stagger
    # they start 6.45 s apart, which is within a session plus the timeout.
    with pytest.raises(ConfigInvalid, match="flow_stagger"):
        SimConfig(n_normal_flows=70_000, flow_stagger=0.0001)
    SimConfig(n_normal_flows=64_512, flow_stagger=0.0001)  # no port reused
    SimConfig(n_normal_flows=70_000)  # 645 s apart at the default stagger


def _share(lo=0.0):
    """A share of a budget SimConfig allows, sometimes within 1% of the bound."""
    return st.one_of(st.floats(lo, 0.99), st.floats(0.99, 0.9999))


@settings(max_examples=40, deadline=None)
@given(
    n_normal=st.integers(0, 30),
    n_attack=st.integers(0, 8),
    burst_fraction=st.floats(0.0, 1.0),
    poll_period=st.floats(0.2, 4.0),
    fill=_share(),
    shares=st.tuples(*[st.floats(0.0, 1.0)] * 3),
    stddev_frac=st.floats(0.0, 1.0),
    shift_frac=st.floats(0.0, 1.0),
    jitter_boost=st.floats(0.0, 10.0),
    max_gap_frac=_share(0.002),
    pkts=st.integers(2, 16),
    seed=st.integers(0, 2**16),
)
def test_accepted_configs_keep_one_flow_per_session(
    n_normal, n_attack, burst_fraction, poll_period, fill, shares, stddev_frac,
    shift_frac, jitter_boost, max_gap_frac, pkts, seed,
):
    # SimConfig bounds the in-session gap by the longest period (the period
    # spread or the mimic shift on top of poll_period), plus the cycle
    # jitter term, plus the response delay; each part takes a share of the
    # budget left under the idle timeout, so nearly every draw is accepted.
    delay_hi = SimConfig.response_delay_hi
    budget = fill * (DEFAULT_IDLE_TIMEOUT - poll_period - delay_hi)
    spread, jitter, delay = (budget * w / (sum(shares) or 1.0) for w in shares)
    try:
        cfg = SimConfig(
            n_normal_flows=n_normal, n_attack_flows=n_attack,
            burst_fraction=burst_fraction, poll_period=poll_period,
            period_stddev=stddev_frac * spread / 6,
            cycle_jitter=jitter / (12 * (1 + jitter_boost)),
            mimic_period_shift=min(shift_frac * spread, 0.9 * poll_period),
            mimic_jitter_boost=jitter_boost, mimic_delay_boost=delay / delay_hi,
            max_gap=max_gap_frac * DEFAULT_IDLE_TIMEOUT, normal_pkts_per_flow=pkts,
        )
    except ConfigInvalid:
        assume(False)
    packets, rules = simulate(cfg, seed)
    flows = assemble_flows(packets)
    assert len(flows) == n_normal + n_attack
    pair = {parse_addr(cfg.attacker_addr), parse_addr(cfg.plc_addr)}
    on_pair = np.array([{a, b} == pair for a, b in zip(flows.src.tolist(), flows.dst.tolist())],
                       dtype=bool)
    assert len(rules) == n_attack
    for r in rules:
        overlaps = on_pair & (flows.start <= r.end_time) & (flows.end >= r.start_time)
        assert np.count_nonzero(overlaps) == 1
    # Each session is one flow, so the gaps inside flows are the gaps inside
    # sessions. Checking them against SimConfig's bound directly catches a
    # simulator that outgrows it while staying under the timeout; the
    # response gaps are checked against their own term, because the whole
    # bound sits far above them unless that term dominates it.
    order = flows.order
    same = flows.flow[order][1:] == flows.flow[order][:-1]
    gaps = np.diff(packets.ts[order])[same]
    to_response = (packets.src[order] == parse_addr(cfg.plc_addr))[1:][same]
    grid = 1e-6  # two times, each rounded to the microsecond grid
    assert gaps.max(initial=0.0) <= cfg.session_gap_bound + grid
    assert gaps[to_response].max(initial=0.0) <= cfg.response_gap_bound + grid


def test_config_from_json_round_trip():
    cfg = config_from_json(
        SimConfig, json.dumps({"n_normal_flows": 5, "n_attack_flows": 1})
    )
    assert cfg.n_normal_flows == 5
    assert cfg.n_attack_flows == 1
    assert cfg.poll_period == SimConfig().poll_period


BAD_CONFIGS = [
    (cls, text)
    for cls in (SimConfig, TrainConfig, ExperimentConfig)
    for text in ("{not json", "[1, 2]", '{"n_normal_flow": 5}')  # misspelled key
] + [
    (SimConfig, '{"n_normal_flows": "lots"}'),
    (SimConfig, '{"modbus_port": -1}'),
    (SimConfig, '{"n_normal_flows": 5.5}'),  # float for an int
    (SimConfig, '{"seed": "1"}'),  # the seed is an argument of simulate
    (SimConfig, '{"poll_period": NaN}'),  # not finite
    (TrainConfig, '{"epochs": "3"}'),  # string for an int
    (TrainConfig, '{"batch_size": 5.5}'),
    (TrainConfig, '{"learning_rate": "0.1"}'),  # string for a float
    (ExperimentConfig, '{"n_attack": "5"}'),
    (ExperimentConfig, '{"n_attack": 50.5}'),
    (ExperimentConfig, '{"ratios": 5}'),  # scalar for a tuple
    (ExperimentConfig, '{"seeds": [0, 1.5]}'),  # float inside a tuple
    (ExperimentConfig, '{"train": null}'),
    (ExperimentConfig, '{"sim": null}'),
    (ExperimentConfig, '{"train": {"epohcs": 3}}'),  # unknown nested key
    (ExperimentConfig, '{"sim": {"n_normal_flow": 5}}'),
    (ExperimentConfig, '{"train": {"epochs": "3"}}'),
    (TrainConfig, '{"epochs": 0}'),  # out of range
    (ExperimentConfig, '{"n_attack": 1}'),
    (ExperimentConfig, '{"ratios": [0.5, 0.25, 0.5]}'),  # repeated ratio
    (ExperimentConfig, '{"ratios": [0.5, 0.25], "smote_ratios": [0.25, 0.25]}'),
    (ExperimentConfig, '{"workdir": 5}'),  # number for an Optional string
    (ExperimentConfig, '{"layer_sizes": [23, 8, 2]}'),  # two output units
    (ExperimentConfig, '{"layer_sizes": [10, 1]}'),  # not the 23 flow features
    # Cells that cannot run as asked: a split with an empty side, ...
    (ExperimentConfig, '{"n_attack": 2}'),  # both attacks would train
    (ExperimentConfig, '{"ratios": [0.999, 0.1], "smote_ratios": []}'),  # 1 normal
    # ... and SMOTE that would not grow the minority attack class.
    (ExperimentConfig, '{"ratios": [0.5, 0.1], "smote_ratios": [0.5]}'),  # at the target
    (ExperimentConfig, '{"ratios": [0.5, 0.1], "smote_ratios": [0.5], '
                       '"smote_target_ratio": 0.9}'),  # attacks are not the minority
    (ExperimentConfig, '{"n_attack": 3, "train_frac": 0.4}'),  # 1 training attack
    # Below the target, but 8 training attacks in 81 rows round to 0 new.
    (ExperimentConfig, '{"n_attack": 10, "ratios": [0.099], "smote_ratios": [0.099]}'),
]


# SimConfig cases keep the bare JSON text as their id.
@pytest.mark.parametrize(
    "cls,text", BAD_CONFIGS,
    ids=[t if c is SimConfig else f"{c.__name__}-{t}" for c, t in BAD_CONFIGS],
)
def test_config_from_json_rejects_bad_input(cls, text):
    with pytest.raises(ConfigInvalid):
        config_from_json(cls, text)
