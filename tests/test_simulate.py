"""Traffic generator: determinism, stream structure, label windows, and
the pipeline from synthetic packets to labeled flows."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbalidx.flows import (
    ATTACK,
    FEATURE_NAMES,
    IDLE_TIMEOUT,
    assemble_flows,
    features_from_packets,
)
from imbalidx.packets import PacketTable, Protocol, grid_seconds, quantize_us
from imbalidx.experiment import ExperimentConfig
from imbalidx.mlp import TrainConfig
from imbalidx import simulate as sim
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
    assert np.array_equal(grid_seconds(*np.divmod(quantize_us(packets.ts), 10**6)), times)


def stream_digest(packets, rules) -> str:
    """SHA-256 over every column's name, dtype and bytes, then the label
    windows' exact values."""
    h = hashlib.sha256()
    for name in PacketTable.COLUMNS:
        column = getattr(packets, name)
        h.update(f"{name}:{column.dtype.str}:".encode())
        h.update(column.tobytes())
    for r in rules:
        h.update(repr(tuple(r)).encode())
    return h.hexdigest()


# The simulator's exact output for a few configs. Any change to the draws,
# their order, the merge or a column's dtype changes one of these.
@pytest.mark.parametrize("n_normal,n_attack,seed,digest", [
    (200, 0, 5, "65024dd50a52888340aa77cd8f8fdbd9fe6c6582d50b6a3d0f4799c3aae629d9"),
    (20, 7, 9, "585dc4494753725e7700cad22cfc989ac3c0ffecfbb7271fc719c6e78c51d7db"),
    (0, 1, 3, "bafb7b44a231de21a799aa398ed08985ca1c6dc83ae1a9e98a33b773244f79a9"),
    (30, 1, 4, "eab932a15ef803412d8564c79c64fe3b85281f802642e8252a73914c9dfbb864"),
    (200, 20, 0, "d4c6cdff0418d6589d8fcaae9be05d1aa45d1950c26a1eb4bafc24d63994b9e9"),
], ids=["normal-only", "mimics-and-bursts", "one-burst", "one-mimic-among-normals",
        "default"])
def test_stream_bytes_are_pinned(n_normal, n_attack, seed, digest):
    assert stream_digest(*simulate(SimConfig(n_normal, n_attack), seed)) == digest


def test_stream_shape_normal_only():
    cfg = SimConfig(n_normal_flows=25, n_attack_flows=0)
    packets, rules = simulate(cfg, 3)
    assert rules == []
    hosts = set(zip(packets.src.tolist(), packets.dst.tolist()))
    assert hosts <= {(sim.HMI, sim.PLC), (sim.PLC, sim.HMI)}
    assert np.all(packets.proto == Protocol.TCP)
    assert np.all((packets.sport == sim.MODBUS_PORT) | (packets.dport == sim.MODBUS_PORT))
    assert np.all((60 <= packets.wire_len) & (packets.wire_len <= 65535))


def test_empty_config_yields_empty_stream():
    packets, rules = simulate(SimConfig(n_normal_flows=0, n_attack_flows=0), 0)
    assert packets == PacketTable.from_records([]) and rules == []


# Seeds picked so that one draw holds only mimics and one only bursts,
# which runs the branches of simulate that skip an empty attack kind.
@pytest.mark.parametrize(
    "n_normal,seed,kinds",
    [(20, 6, {"mimic"}), (20, 9, {"mimic", "burst"}), (20, 132, {"burst"}),
     (0, 9, {"mimic", "burst"})],
    ids=["mimics", "mixed", "bursts", "no-normals"],
)
def test_one_label_window_per_attack_session(n_normal, seed, kinds):
    packets, rules = simulate(SimConfig(n_normal_flows=n_normal, n_attack_flows=7), seed)
    assert len(rules) == 7
    atk, plc = sim.ATTACKER, sim.PLC
    for r in rules:
        assert (r.src_addr, r.dst_addr) == (atk, plc)
        assert r.start_time <= r.end_time
    # A mimic's PLC answers it; a burst goes one way only.
    answers = packets.ts[(packets.src == plc) & (packets.dst == atk)]
    assert {"mimic" if ((answers >= r.start_time) & (answers <= r.end_time)).any()
            else "burst" for r in rules} == kinds
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
    feats = features_from_packets(packets, rules)
    assert len(feats) == 100
    assert feats.n_attack == 10
    flows = assemble_flows(packets)
    on_attacker = (flows.src == sim.ATTACKER) | (flows.dst == sim.ATTACKER)
    assert np.array_equal(on_attacker, feats.y == ATTACK)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_attack_flows_are_statistically_noisier(seed):
    cfg = SimConfig(n_normal_flows=90, n_attack_flows=10)
    packets, rules = simulate(cfg, seed)
    feats = features_from_packets(packets, rules)
    jitter = feats.x[:, FEATURE_NAMES.index("src_jitter")]
    assert jitter[feats.y == ATTACK].mean() > 2.0 * jitter[feats.y != ATTACK].mean()


def test_mimics_share_the_normal_packet_count_range():
    # Mimic sessions poll, so packet counts cannot separate them from
    # normal ones. Bursts go one way only, so the attack flows with
    # packets back from the PLC are the mimics.
    cfg = SimConfig(n_normal_flows=40, n_attack_flows=40)
    packets, rules = simulate(cfg, 14)
    feats = features_from_packets(packets, rules)
    tpkts = feats.x[:, FEATURE_NAMES.index("tpkts")]
    answered = feats.x[:, FEATURE_NAMES.index("dpkts")] > 0
    mimic = (feats.y == ATTACK) & answered
    assert 0 < mimic.sum() < feats.n_attack  # bursts are left out
    assert set(tpkts[mimic]) <= set(tpkts[feats.y != ATTACK])


# Only the two session counts are settable. A negative count is invalid,
# and each former traffic-shape knob is an unknown key, whatever its value:
# the last nine give former defaults.
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_normal_flows=-1),
        dict(n_attack_flows=-1),
        dict(plc_addr="10.0.0.10"),
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
        dict(mimic_period_shift=1.0),
        dict(mimic_len_shift=-1),
        dict(mimic_jitter_boost=-1.0),
        dict(attack_window_gap=0.0),
        dict(max_gap=0.0),
        dict(max_gap=5.0),
        dict(poll_period=6.0),
        dict(cycle_jitter=0.05),
        dict(mimic_delay_boost=300.0),
        dict(attacker_addr="10.0.0.256"),
        dict(hmi_addr="hmi"),
        dict(attacker_addr=5),
        dict(attacker_addr=[10, 0, 0, 66]),
        dict(base_time=10.0),
        dict(response_len_lo=68),
        dict(response_len_hi=72),
        dict(attack_len_lo=60),
        dict(attack_len_hi=1500),
        dict(attack_gap_scale_hi=0.40),
        dict(attack_retx_prob=0.02),
        dict(mimic_retx_max=0.06),
        dict(attack_start=50.0),
    ],
)
def test_config_validation(kwargs):
    counts = set(kwargs) <= {"n_normal_flows", "n_attack_flows"}
    with pytest.raises(ConfigInvalid, match="non-negative" if counts else "^unknown config keys"):
        config_from_json(SimConfig, json.dumps(kwargs))


def test_session_gaps_stay_below_the_idle_timeout():
    assert sim.SESSION_GAP_BOUND < IDLE_TIMEOUT


def test_normal_ports_come_round_after_a_session_and_the_timeout():
    # Normal sessions 64,512 apart share an ephemeral port. The later one
    # must start after the earlier one has ended and timed out.
    longest = ((sim.POLL_CYCLES[1] - 1) * (sim.POLL_PERIOD + 6 * sim.PERIOD_STDDEV)
               + 12 * sim.CYCLE_JITTER + sim.RESPONSE_DELAY[1])
    assert sim._EPHEMERAL_SPAN * sim.FLOW_STAGGER > longest + IDLE_TIMEOUT
    packets, _ = simulate(SimConfig(n_normal_flows=70_000, n_attack_flows=0), 0)
    assert len(assemble_flows(packets)) == 70_000


@settings(max_examples=40, deadline=None)
@given(n_normal=st.integers(0, 30), n_attack=st.integers(0, 8), seed=st.integers(0, 2**16))
def test_accepted_configs_keep_one_flow_per_session(n_normal, n_attack, seed):
    packets, rules = simulate(SimConfig(n_normal_flows=n_normal, n_attack_flows=n_attack), seed)
    flows = assemble_flows(packets)
    assert len(flows) == n_normal + n_attack
    pair = {sim.ATTACKER, sim.PLC}
    on_pair = np.array([{a, b} == pair for a, b in zip(flows.src.tolist(), flows.dst.tolist())],
                       dtype=bool)
    assert len(rules) == n_attack
    for r in rules:
        overlaps = on_pair & (flows.start <= r.end_time) & (flows.end >= r.start_time)
        assert np.count_nonzero(overlaps) == 1
    # Each session is one flow, so the gaps inside flows are the gaps inside
    # sessions. Checking them against the simulator's bounds directly
    # catches a simulator that outgrows them while staying under the
    # timeout; the response gaps are checked against their own bound,
    # because the session bound sits far above them.
    order = flows.order
    same = flows.flow[order][1:] == flows.flow[order][:-1]
    gaps = np.diff(packets.ts[order])[same]
    to_response = (packets.src[order] == sim.PLC)[1:][same]
    grid = 1e-6  # two times, each rounded to the microsecond grid
    assert gaps.max(initial=0.0) <= sim.SESSION_GAP_BOUND + grid
    assert gaps[to_response].max(initial=0.0) <= sim.RESPONSE_GAP_BOUND + grid


def test_config_from_json_round_trip():
    cfg = config_from_json(
        SimConfig, json.dumps({"n_normal_flows": 5, "n_attack_flows": 1})
    )
    assert cfg == SimConfig(n_normal_flows=5, n_attack_flows=1)


# json.loads keeps the last value of a repeated key; a config refuses it.
@pytest.mark.parametrize("cls,text,key", [
    (SimConfig, '{"n_normal_flows": 5, "n_attack_flows": 1, "n_normal_flows": 7}',
     "n_normal_flows"),
    (ExperimentConfig, '{"train": {"epochs": 2, "batch_size": 8, "epochs": 3}}', "epochs"),
], ids=["top-level", "nested"])
def test_config_from_json_refuses_a_repeated_key(cls, text, key):
    with pytest.raises(ConfigInvalid, match=f"^config repeats key '{key}'$"):
        config_from_json(cls, text)


BAD_CONFIGS = [
    (cls, text)
    for cls in (SimConfig, TrainConfig, ExperimentConfig)
    for text in ("{not json", "[1, 2]", '{"n_normal_flow": 5}')  # misspelled key
] + [
    (SimConfig, '{"n_normal_flows": "lots"}'),
    (SimConfig, '{"modbus_port": -1}'),  # former knobs are unknown keys
    (SimConfig, '{"n_normal_flows": 5.5}'),  # float for an int
    (SimConfig, '{"seed": "1"}'),  # the seed is an argument of simulate
    (SimConfig, '{"poll_period": NaN}'),
    (SimConfig, '{"attacker_addr": "010.0.0.66"}'),
    (TrainConfig, '{"epochs": "3"}'),  # string for an int
    (TrainConfig, '{"batch_size": 5.5}'),
    # The step rule is fixed, so its old keys are unknown, with values good or bad.
    (TrainConfig, '{"learning_rate": "0.1"}'),
    (TrainConfig, '{"learning_rate": NaN}'),
    (TrainConfig, '{"momentum": 0.9}'),
    (ExperimentConfig, '{"n_attack": "5"}'),
    (ExperimentConfig, '{"n_attack": 50.5}'),
    (ExperimentConfig, '{"ratios": 5}'),  # scalar for a tuple
    (ExperimentConfig, '{"seeds": [0, 1.5]}'),  # float inside a tuple
    (ExperimentConfig, '{"ratios": ["0.1"]}'),  # string for a float
    (ExperimentConfig, '{"ratios": [NaN]}'),  # not finite
    (ExperimentConfig, '{"train": null}'),
    (ExperimentConfig, '{"sim": null}'),  # the simulated plant is fixed
    (ExperimentConfig, '{"train": {"epohcs": 3}}'),  # unknown nested key
    (ExperimentConfig, '{"sim": {"n_normal_flow": 5}}'),
    (ExperimentConfig, '{"train": {"epochs": "3"}}'),
    (TrainConfig, '{"epochs": 0}'),  # out of range
    (ExperimentConfig, '{"n_attack": 1}'),
    (ExperimentConfig, '{"ratios": [0.5, 0.25, 0.5]}'),  # repeated ratio
    (ExperimentConfig, '{"ratios": [0.5, 0.25], "smote_ratios": [0.25, 0.25]}'),
    (ExperimentConfig, '{"workdir": 5}'),  # number for an Optional string
    # The method is fixed, so its old keys are unknown, with values good or bad.
    (ExperimentConfig, '{"layer_sizes": [23, 8, 2]}'),  # two output units
    (ExperimentConfig, '{"layer_sizes": [10, 1]}'),  # not the 23 flow features
    (ExperimentConfig, '{"n_attack": 3, "train_frac": 0.4}'),  # 1 training attack
    (ExperimentConfig, '{"ratios": [0.5, 0.1], "smote_ratios": [0.5], '
                       '"smote_target_ratio": 0.9}'),  # attacks are not the minority
    # Cells that cannot run as asked: a split with an empty side, ...
    (ExperimentConfig, '{"n_attack": 2}'),  # both attacks would train
    (ExperimentConfig, '{"ratios": [0.999, 0.1], "smote_ratios": []}'),  # 1 normal
    # ... and SMOTE that would not grow the minority attack class.
    (ExperimentConfig, '{"ratios": [0.5, 0.1], "smote_ratios": [0.1]}'),  # at the target
    (ExperimentConfig, '{"ratios": [0.5, 0.1], "smote_ratios": [0.5]}'),  # above it
    # Below the target, but 8 training attacks in 81 rows round to 0 new.
    (ExperimentConfig, '{"n_attack": 10, "ratios": [0.099], "smote_ratios": [0.099]}'),
    # 4 training attacks: each has 3 neighbours, fewer than SMOTE's k of 5.
    (ExperimentConfig, '{"n_attack": 5, "ratios": [0.1, 0.01], "smote_ratios": [0.01], '
                       '"seeds": [0]}'),
]


# SimConfig cases keep the bare JSON text as their id.
@pytest.mark.parametrize(
    "cls,text", BAD_CONFIGS,
    ids=[t if c is SimConfig else f"{c.__name__}-{t}" for c, t in BAD_CONFIGS],
)
def test_config_from_json_rejects_bad_input(cls, text):
    with pytest.raises(ConfigInvalid):
        config_from_json(cls, text)


# Configs built in Python get the type checks config_from_json makes.
@pytest.mark.parametrize(
    "build,key",
    [
        (lambda: ExperimentConfig(n_attack=40.0), "n_attack"),
        (lambda: TrainConfig(epochs=2.5), "epochs"),
        (lambda: SimConfig(n_attack_flows=[1]), "n_attack_flows"),
        (lambda: ExperimentConfig(workdir=Path("x")), "workdir"),  # the report is JSON
        # JSON shapes that config_from_json would convert, not keep.
        (lambda: ExperimentConfig(train={"epochs": 2}), "train"),
        (lambda: ExperimentConfig(ratios=[0.1, 0.01], smote_ratios=[]), "ratios"),
    ],
    ids=["n_attack-float", "epochs-float", "n_attack_flows-list", "workdir-path",
         "train-dict", "ratios-list"],
)
def test_python_built_config_rejects_bad_types(build, key):
    with pytest.raises(ConfigInvalid, match=rf"^{key} "):
        build()
