"""Flow assembly and the 23 per-flow features, checked against hand
computations, an independent statistics-library oracle, and the
one-object-per-flow reference in flow_oracle.py."""

import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import feature_csv_oracle
import flow_oracle
from imbalidx import textio
from imbalidx.flows import (
    ATTACK,
    FEATURE_CSV_HEADER,
    FEATURE_NAMES,
    IDLE_TIMEOUT,
    NORMAL,
    LabeledDataset,
    LabelRule,
    UnorderedInput,
    assemble_flows,
    feature_matrix,
    features_from_packets,
    label_flows,
    read_label_csv,
    to_arrays,
    write_features_csv,
    write_label_csv,
    _INT_FEATURES,
)
from imbalidx.packets import PacketRecord, PacketTable, Protocol, parse_addr
from imbalidx.simulate import SimConfig, simulate
from imbalidx.textio import ParseError


def pkt(ts, src, dst, sport=5000, dport=502, n=100, proto=Protocol.TCP, retx=False):
    return PacketRecord(
        timestamp=ts,
        src_addr=src,
        dst_addr=dst,
        src_port=sport,
        dst_port=dport,
        protocol=proto,
        wire_len=n,
        is_retransmission=retx,
    )


def table(records):
    return PacketTable.from_records(records)


def window(a, b, start, end):
    """A label window between two dotted-quad addresses."""
    return LabelRule(parse_addr(a), parse_addr(b), start, end)


def features(records):
    """One {feature name: value} dict per flow."""
    x = feature_matrix(assemble_flows(table(records)))
    return [dict(zip(FEATURE_NAMES, row)) for row in x.tolist()]


A, B = "10.0.0.1", "10.0.0.2"


def four_packet_flow():
    return [
        pkt(0.000, A, B, n=100),
        pkt(0.100, B, A, sport=502, dport=5000, n=50),
        pkt(0.200, A, B, n=100),
        pkt(0.350, A, B, n=100),
    ]


def test_worked_four_packet_example():
    flows = features(four_packet_flow())
    assert len(flows) == 1
    f = flows[0]
    assert f["spkts"] == 3
    assert f["dpkts"] == 1
    assert f["tpkts"] == 4
    assert f["sbytes"] == 300
    assert f["dbytes"] == 50
    assert f["tbytes"] == 350
    assert f["mean_dur"] == pytest.approx(0.350, abs=1e-12)
    assert f["sload"] == pytest.approx(8 * 300 / 0.35, rel=1e-12)
    assert f["dload"] == pytest.approx(8 * 50 / 0.35, rel=1e-12)
    assert f["tload"] == pytest.approx(8 * 350 / 0.35, rel=1e-12)
    assert f["srate"] == pytest.approx(3 / 0.35, rel=1e-12)
    assert f["trate"] == pytest.approx(4 / 0.35, rel=1e-12)
    assert f["s_intpkt"] == pytest.approx(175.0, abs=1e-9)   # mean(200 ms, 150 ms)
    assert f["src_jitter"] == pytest.approx(25.0, abs=1e-9)  # popstddev(200, 150)
    assert f["dst_jitter"] == 0.0
    assert f["d_intpkt"] == 0.0
    assert f["sport"] == 5000
    assert f["dport"] == 502
    assert f["ploss"] == 0.0


def test_single_packet_flow_conventions():
    (f,) = features([pkt(3.5, A, B)])
    assert f["mean_dur"] == 0.0
    assert f["spkts"] == 1 and f["dpkts"] == 0
    assert f["sload"] == f["dload"] == f["tload"] == 0.0
    assert f["srate"] == f["drate"] == f["trate"] == 0.0
    assert f["src_jitter"] == f["dst_jitter"] == 0.0
    assert f["s_intpkt"] == f["d_intpkt"] == 0.0
    assert f["ploss"] == 0.0


def test_feature_vector_has_23_fields():
    assert len(FEATURE_NAMES) == 23
    x = feature_matrix(assemble_flows(table([pkt(0.0, A, B)])))
    assert x.shape == (1, 23)


def test_idle_timeout_splits_flows():
    assert IDLE_TIMEOUT == 5.0
    close = [pkt(0.0, A, B), pkt(0.1, A, B)]
    assert len(assemble_flows(table(close))) == 1
    far_apart = [pkt(0.0, A, B), pkt(10.0, A, B)]
    assert len(assemble_flows(table(far_apart))) == 2
    # The boundary gap does not split: strict inequality.
    edge = [pkt(0.0, A, B), pkt(5.0, A, B)]
    assert len(assemble_flows(table(edge))) == 1


def test_reverse_direction_joins_the_same_flow():
    flows = assemble_flows(
        table([pkt(0.0, A, B), pkt(0.1, B, A, sport=502, dport=5000)])
    )
    assert len(flows) == 1
    assert flows.src.tolist() == [parse_addr(A)]
    assert flows.forward.tolist() == [True, False]


def test_unordered_input_rejected():
    with pytest.raises(UnorderedInput):
        assemble_flows(table([pkt(1.0, A, B), pkt(0.5, A, B)]))


def test_retransmissions_become_loss_counts():
    (f,) = features(
        [
            pkt(0.0, A, B, retx=True),
            pkt(0.1, B, A, sport=502, dport=5000, retx=True),
            pkt(0.2, A, B, retx=True),
            pkt(0.3, A, B),
        ]
    )
    assert f["sloss"] == 2
    assert f["dloss"] == 1
    assert f["tloss"] == 3
    assert f["ploss"] == pytest.approx(100.0 * 3 / 4)


flow_packets = st.lists(
    st.tuples(
        st.integers(0, 2_000_000),        # microsecond timestamp
        st.booleans(),                    # direction: True = A->B
        st.integers(40, 1500),            # wire bytes
        st.booleans(),                    # retransmission
    ),
    min_size=1,
    max_size=30,
)


def build_packets(raw, a=A, b=B):
    out = []
    for us, forward, size, retx in sorted(raw):
        src, dst = (a, b) if forward else (b, a)
        sport, dport = (5000, 502) if forward else (502, 5000)
        out.append(
            pkt(us / 1e6, src, dst, sport=sport, dport=dport, n=size, retx=retx)
        )
    return out


@given(flow_packets)
@settings(max_examples=200)
def test_additivity_and_oracle(raw):
    packets = build_packets(raw)
    flows = assemble_flows(table(packets))
    x = feature_matrix(flows)
    for i, row in enumerate(x.tolist()):
        f = dict(zip(FEATURE_NAMES, row))
        assert f["tpkts"] == f["spkts"] + f["dpkts"]
        assert f["tbytes"] == f["sbytes"] + f["dbytes"]
        assert f["tloss"] == f["sloss"] + f["dloss"]
        assert f["ploss"] == pytest.approx(100.0 * f["tloss"] / f["tpkts"])
        # Independent recomputation of the directional statistics.
        fwd = [p.timestamp for p, mine, forward in
               zip(packets, flows.flow == i, flows.forward) if mine and forward]
        if len(fwd) >= 2:
            gaps = [(t2 - t1) * 1e3 for t1, t2 in zip(fwd, fwd[1:])]
            assert f["s_intpkt"] == pytest.approx(statistics.fmean(gaps), abs=1e-9)
            assert f["src_jitter"] == pytest.approx(statistics.pstdev(gaps), abs=1e-9)
        else:
            assert f["s_intpkt"] == 0.0 and f["src_jitter"] == 0.0
        dur = flows.end[i] - flows.start[i]
        if dur > 0:
            assert f["sload"] == pytest.approx(8 * f["sbytes"] / dur, rel=1e-12)
            assert f["trate"] == pytest.approx(f["tpkts"] / dur, rel=1e-12)
        else:
            assert f["sload"] == 0.0 and f["trate"] == 0.0


@given(flow_packets)
@settings(max_examples=100)
def test_direction_symmetry_at_the_flow_level(raw):
    # Swapping the two direction roles of an assembled flow must swap every
    # S* feature with its D* partner and leave the t* features untouched.
    flows = assemble_flows(table(build_packets(raw)))
    mirror = replace(
        flows, forward=~flows.forward,
        src=flows.dst, dst=flows.src, sport=flows.dport, dport=flows.sport,
    )
    for row_f, row_g in zip(feature_matrix(flows).tolist(),
                            feature_matrix(mirror).tolist()):
        f, g = dict(zip(FEATURE_NAMES, row_f)), dict(zip(FEATURE_NAMES, row_g))
        for name in ("tpkts", "tbytes", "tloss", "tload", "trate", "mean_dur", "ploss"):
            assert f[name] == g[name], name
        for s, d in (("spkts", "dpkts"), ("sbytes", "dbytes"), ("sloss", "dloss"),
                     ("sport", "dport"), ("sload", "dload"), ("srate", "drate"),
                     ("src_jitter", "dst_jitter"), ("s_intpkt", "d_intpkt")):
            assert (f[s], f[d]) == (g[d], g[s]), s


@given(flow_packets)
@settings(max_examples=100)
def test_endpoint_mirror_reanchors_the_initiator(raw):
    # Mirroring src/dst on every packet flips the first sender too, so the
    # initiator role follows the swap: directional feature values stay put
    # and only the port labels trade places.
    packets = build_packets(raw)
    mirrored = [
        pkt(
            p.timestamp, p.dst_addr, p.src_addr,
            sport=p.dst_port, dport=p.src_port,
            n=p.wire_len, retx=p.is_retransmission,
        )
        for p in packets
    ]
    orig = features(packets)
    swap = features(mirrored)
    assert len(orig) == len(swap)
    for f, g in zip(orig, swap):
        assert (f["sport"], f["dport"]) == (g["dport"], g["sport"])
        for name in ("spkts", "sbytes", "sloss", "tpkts", "tbytes", "tloss",
                     "src_jitter", "s_intpkt"):
            assert f[name] == g[name], name


@given(flow_packets, st.integers(1, 10**6))
@example(raw=[(400, False, 40, False), (467, False, 40, False)], shift=524288)
@settings(max_examples=100)
def test_time_shift_invariance(raw, shift):
    packets = build_packets(raw)
    shifted = [p._replace(timestamp=p.timestamp + shift) for p in packets]
    orig = feature_matrix(assemble_flows(table(packets)))
    moved = feature_matrix(assemble_flows(table(shifted)))
    assert orig.shape == moved.shape
    # Timestamps are rounded to the float64 grid at their magnitude, so a
    # time difference may be off by a few spacings of the shifted grid:
    # that much absolutely in the gap statistics (milliseconds), and that
    # much relative to the duration in the per-second rates and loads.
    err = 4 * float(np.spacing(max(p.timestamp for p in shifted)))
    dur = FEATURE_NAMES.index("mean_dur")
    for f, g in zip(orig.tolist(), moved.tolist()):
        rel = 1e-12 + (err / f[dur] if f[dur] > 0 else 0.0)
        for name, a, b in zip(FEATURE_NAMES, f, g):
            assert a == pytest.approx(b, rel=rel, abs=1000 * err), name


def test_labeling_by_window_overlap():
    flows = assemble_flows(table(four_packet_flow()))

    def label(rules):
        return label_flows(flows, rules).tolist()

    assert label([window(A, B, 0.0, 1.0)]) == [ATTACK]
    assert label([window(A, B, 5.0, 6.0)]) == [NORMAL]
    assert label([]) == [NORMAL]
    # Address order in the rule does not matter.
    assert label([window(B, A, 0.0, 1.0)]) == [ATTACK]
    # Touching windows count as overlap (closed intervals), at either edge.
    assert label([window(A, B, 0.35, 2.0)]) == [ATTACK]
    assert label([window(A, B, -1.0, 0.0)]) == [ATTACK]
    assert label([window(A, "10.9.9.9", 0.0, 1.0)]) == [NORMAL]


def test_label_csv_round_trip(tmp_path):
    rules = [
        window("10.0.0.66", "10.0.0.20", 50.0, 61.25),
        window("10.0.0.66", "10.0.0.20", 70.5, 80.0),
        # A grid time whose float is not the nearest to its 6-decimal text.
        window("10.0.0.66", "10.0.0.20", 1657 + 892201 / 1e6, 1700.0),
    ]
    path = tmp_path / "labels.csv"
    write_label_csv(rules, path)
    assert path.read_text().splitlines()[1] == "10.0.0.66,10.0.0.20,50.000000,61.250000,1"
    assert read_label_csv(path) == rules


@pytest.mark.parametrize(
    "row",
    [
        "1.1.1.1,2.2.2.2,1.0,0.5,1",     # window ends before it starts
        "1.1.1.1,2.2.2.2,0.0,1.0,2",     # label out of range
        "1.1.1.1,2.2.2.2,0.0,1.0,0",     # every window is an attack window
        "1.1.1.1,2.2.2.2,x,1.0,1",       # non-numeric
        "1.1.1.1,2.2.2.2,0.0,1.0",       # missing field
        "1.1.1.x,2.2.2.2,0.0,1.0,1",     # not an IPv4 address
        "1.1.1.1,2.2.2.2,nan,1.0,1",     # not a grid time
        "1.1.1.1,2.2.2.2,0.0,inf,1",
        "1.1.1.1,2.2.2.2,-0.5,1.0,1",
        "1.1.1.1,2.2.2.\udcff,0.0,1.0,1",  # a 0xff byte: not UTF-8 text
        # Addresses take only the canonical dotted quad.
        "1_0.0.0.66,2.2.2.2,0.0,1.0,1",
        " 10.0.0.66,2.2.2.2,0.0,1.0,1",
        "1.1.1.1,+10.0.0.66,0.0,1.0,1",
        "1.1.1.1,010.0.0.66,0.0,1.0,1",
        "10.0.0.\uff16\uff16,2.2.2.2,0.0,1.0,1",
    ],
)
def test_label_csv_rejects_bad_rows(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_bytes(("src_addr,dst_addr,start_time,end_time,label\n" + row + "\n")
                     .encode(errors="surrogateescape"))
    with pytest.raises(ParseError) as err:
        read_label_csv(path)
    assert err.value.line == 2


def test_features_csv_round_trip(tmp_path):
    packets = four_packet_flow() + [
        pkt(9.0, A, "10.0.0.7", sport=1100, dport=502, n=70, retx=True),
    ]
    feats = features_from_packets(table(packets), [window(A, B, 0.0, 1.0)])
    path = tmp_path / "features.csv"
    write_features_csv(feats, path)
    assert path.read_text().splitlines()[0] == FEATURE_CSV_HEADER
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert np.array_equal(back[:, -1], feats.y)
    assert back[:, -1].tolist() == [ATTACK, NORMAL]
    assert np.allclose(back[:, :-1], feats.x, rtol=0, atol=5e-7)
    counts = [FEATURE_NAMES.index(n) for n in ("sport", "spkts", "tbytes", "sloss")]
    assert np.array_equal(back[:, counts], feats.x[:, counts])


def test_features_csv_prints_each_cell_as_formatted_alone(tmp_path):
    # Enough rows to cross a write chunk; whole, fractional and special
    # values in every column.
    rng = np.random.default_rng(5)
    shape = (5000, len(FEATURE_NAMES))
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 22, size=shape)
    pick = rng.random(shape)
    x[pick < 0.3] = rng.integers(-10**6, 10**6, size=shape)[pick < 0.3]
    specials = np.array([-0.0, 0.0, 1e20, -1e20, 1e300, np.nan, np.inf, -np.inf, 0.5])
    x[pick > 0.8] = rng.choice(specials, size=shape)[pick > 0.8]
    y = rng.integers(0, 2, size=shape[0])
    path = tmp_path / "features.csv"
    write_features_csv(LabeledDataset(x, y), path)
    want = [FEATURE_CSV_HEADER] + [
        ",".join([str(int(v)) if name in _INT_FEATURES and v.is_integer() else f"{v:.6f}"
                  for v, name in zip(row, FEATURE_NAMES)] + [str(label)])
        for row, label in zip(x.tolist(), y.tolist())]
    assert path.read_text() == "\n".join(want) + "\n"


def _and_neighbours(v):
    return st.sampled_from([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


# Cells at the edges of the word writer's guard (see textio.number_cells).
feature_cells = st.one_of(
    st.floats(),  # NaN, infinities, signed zeros and subnormals included
    st.floats(0, 1e8),
    st.integers(-10**9, 10**9).map(float),  # whole, in any column
    # x * 10**6 exactly on a half (odd multiples of 1/128), or the double
    # nearest one ((k + 0.5) / 1e6), and their neighbours.
    st.integers(0, 2**35).map(lambda j: (2 * j + 1) / 128).flatmap(_and_neighbours),
    st.integers(0, 10**8).map(lambda k: (k + 0.5) / 1e6).flatmap(_and_neighbours),
    # Integer parts at 10**8 - 1 and 10**8; products near 1e14 and 2**52.
    st.sampled_from([10**8 - 1, 10**8, 1e8 - 5e-7, 1e8 - 1e-6, 2**52 / 1e6, 2**53 / 1e6])
    .flatmap(_and_neighbours),
    st.sampled_from([-0.0, -1.5, -(10**8), 1e300, -1e300]),
)


@given(st.lists(st.tuples(st.lists(feature_cells, min_size=23, max_size=23),
                          st.integers(0, 1)), max_size=8),
       st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_features_csv_matches_the_per_cell_oracle(tmp_path_factory, rows, chunk):
    x = np.array([r for r, _ in rows], dtype=np.float64).reshape(len(rows), 23)
    data = LabeledDataset(x, [label for _, label in rows])
    work = tmp_path_factory.mktemp("features")
    feature_csv_oracle.write_features_csv(data, work / "oracle.csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_WRITE_CHUNK", chunk)
        write_features_csv(data, work / "words.csv")
    assert (work / "words.csv").read_bytes() == (work / "oracle.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, textio._WRITE_CHUNK - 1, textio._WRITE_CHUNK,
                                    textio._WRITE_CHUNK + 1])
def test_features_csv_matches_the_oracle_across_chunks(tmp_path, n_rows):
    # Positive fractions, whole values in every column, fractions in the
    # count columns, ties and a few cells only Python prints.
    rng = np.random.default_rng(n_rows)
    shape = (n_rows, len(FEATURE_NAMES))
    x = rng.random(shape) * 10.0 ** rng.integers(-7, 9, size=shape)
    pick = rng.random(shape)
    x[pick < 0.3] = np.floor(x[pick < 0.3])
    x[pick > 0.95] = rng.integers(0, 2**20, size=shape)[pick > 0.95] / 128
    x[pick > 0.99] = rng.choice([-0.0, -2.0, np.nan, np.inf, 1e300], size=shape)[pick > 0.99]
    data = LabeledDataset(x, rng.integers(0, 2, size=n_rows))
    feature_csv_oracle.write_features_csv(data, tmp_path / "oracle.csv")
    write_features_csv(data, tmp_path / "words.csv")
    assert (tmp_path / "words.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_to_arrays_shape_and_dtype():
    x, y = to_arrays(features_from_packets(table(four_packet_flow())))
    assert x.shape == (1, 23)
    assert x.dtype == np.float64
    assert y.tolist() == [NORMAL]
    empty_x, empty_y = to_arrays(features_from_packets(table([])))
    assert empty_x.shape == (0, 23)
    assert empty_y.shape == (0,)


def test_extraction_pipeline_label_counts():
    packets = []
    for i in range(10):
        base = i * 20.0
        src = "10.0.0.66" if i < 3 else A
        packets.append(pkt(base, src, B, sport=2000 + i))
        packets.append(pkt(base + 0.05, B, src, sport=502, dport=2000 + i))
    rules = [window("10.0.0.66", B, 0.0, 45.0)]
    feats = features_from_packets(table(packets), rules)
    assert len(feats) == 10
    assert feats.y.tolist() == [ATTACK] * 3 + [NORMAL] * 7


def test_flow_key_is_direction_independent():
    # 10.0.0.9 sorts after 10.0.0.10 as text and before it as a number;
    # either way both directions must share one key.
    lo, hi = "10.0.0.9", "10.0.0.10"
    for a, b in ((lo, hi), (hi, lo)):
        flows = assemble_flows(table([
            pkt(0.0, a, b, sport=502, dport=502),
            pkt(0.1, b, a, sport=502, dport=502),
        ]))
        assert len(flows) == 1
        assert flows.forward.tolist() == [True, False]


@st.composite
def shared_endpoint_streams(draw):
    """Packets among two addresses and two ports, so endpoints often share
    an address or a port, and a packet may go from a host to itself."""
    addrs, ports = st.sampled_from((A, B)), st.sampled_from((502, 1024))
    stream, us = [], 0
    for _ in range(draw(st.integers(0, 12))):
        us += draw(st.sampled_from((0, 1, 400_000, 6_000_000)))
        proto = draw(st.sampled_from(list(Protocol)))
        sport, dport = (0, 0) if proto is Protocol.OTHER else (draw(ports), draw(ports))
        stream.append(PacketRecord(us / 1e6, draw(addrs), draw(addrs), sport, dport, proto, 60))
    return stream


@given(shared_endpoint_streams())
@example([])
@example([pkt(0.0, A, A, sport=502, dport=502)])
@example([pkt(0.0, A, A, sport=1024, dport=502), pkt(0.1, A, A, sport=502, dport=1024)])
@settings(max_examples=200, deadline=None)
def test_forward_is_the_packed_endpoint_rule(stream):
    # A packet is forward iff its (src << 16) | sport equals that of its
    # flow's first packet.
    packets = table(stream)
    flows = assemble_flows(packets)
    endpoint = [(a << 16) | p for a, p in zip(packets.src.tolist(), packets.sport.tolist())]
    initiator = {}
    for i, f in enumerate(flows.flow.tolist()):
        initiator.setdefault(f, endpoint[i])
    assert flows.forward.dtype == bool
    assert flows.forward.tolist() == [endpoint[i] == initiator[f]
                                      for i, f in enumerate(flows.flow.tolist())]


# --- the columnar path against the one-object-per-flow reference ----------

TIMEOUT_US = round(IDLE_TIMEOUT * 1e6)
# Gaps just below, at and above the idle timeout, plus equal timestamps.
STEPS_US = (0, 1, 250_000, TIMEOUT_US - 1, TIMEOUT_US, TIMEOUT_US + 1, 3 * TIMEOUT_US)
HOSTS = ("10.0.0.1", "10.0.0.2", "10.0.0.9", "10.0.0.10", "192.168.7.1")


def _grid(us):
    return (us // 10**6) + (us % 10**6) / 1e6


@st.composite
def conversations(draw):
    a, b = draw(st.lists(st.sampled_from(HOSTS), min_size=2, max_size=2))
    proto = draw(st.sampled_from(list(Protocol)))
    if proto is Protocol.OTHER:
        return a, b, 0, 0, proto
    ports = st.sampled_from((502, 1024, 1025))
    return a, b, draw(ports), draw(ports), proto


@st.composite
def labelled_streams(draw):
    convs = draw(st.lists(conversations(), min_size=1, max_size=4))
    us, stream = draw(st.integers(0, 3 * TIMEOUT_US)), []
    for _ in range(draw(st.integers(0, 40))):
        us += draw(st.one_of(st.sampled_from(STEPS_US), st.integers(0, 2 * TIMEOUT_US)))
        a, b, sport, dport, proto = draw(st.sampled_from(convs))
        if draw(st.booleans()):  # reverse direction
            a, b, sport, dport = b, a, dport, sport
        stream.append(PacketRecord(
            _grid(us), a, b, sport, dport, proto,
            draw(st.integers(40, 1500)), draw(st.booleans()),
        ))
    # Window edges sit on, or one microsecond off, packet times, so they
    # often touch a flow's first or last packet exactly.
    times = [round(p.timestamp * 1e6) for p in stream] or [0]
    edge = st.builds(lambda t, d: _grid(max(t + d, 0)),
                     st.sampled_from(times), st.sampled_from((-1, 0, 1)))
    rules = []
    for _ in range(draw(st.integers(0, 4))):
        a, b, *_ = draw(st.sampled_from(convs))
        start, end = sorted((draw(edge), draw(edge)))
        rules.append(window(a, b, start, end))
    return stream, rules


def assert_matches_oracle(packets: PacketTable, rules):
    got = features_from_packets(packets, rules)
    want_x, want_y = flow_oracle.extract(flow_oracle.records(packets), rules, IDLE_TIMEOUT)
    assert got.x.shape == want_x.shape
    assert got.x.tobytes() == want_x.tobytes()
    assert np.array_equal(got.y, want_y)


@given(labelled_streams())
@settings(max_examples=300, deadline=None)
def test_matches_oracle_on_random_streams(stream_and_rules):
    stream, rules = stream_and_rules
    assert_matches_oracle(table(stream), rules)


@pytest.fixture(scope="module")
def pool():
    """A 100k-session simulated pool at the default idle timeout."""
    cfg = SimConfig(n_normal_flows=99_000, n_attack_flows=1_000)
    packets, rules = simulate(cfg, 20261018)
    return cfg, packets, rules


def test_matches_oracle_on_simulated_pool(pool):
    _, packets, rules = pool
    assert_matches_oracle(packets, rules)


def test_flow_contract_on_simulated_pool(pool):
    # One session is one flow, exactly the attack sessions are labelled
    # attack, and each label window overlaps exactly one flow of its pair.
    cfg, packets, rules = pool
    flows = assemble_flows(packets)
    data = features_from_packets(packets, rules)
    assert len(flows) == len(data) == cfg.n_normal_flows + cfg.n_attack_flows
    assert data.n_attack == cfg.n_attack_flows == len(rules)
    for a, b, start, end in rules:
        same_pair = ((flows.src == a) & (flows.dst == b)) | ((flows.src == b) & (flows.dst == a))
        overlap = same_pair & (flows.start <= end) & (flows.end >= start)
        assert np.count_nonzero(overlap) == 1


# tracemalloc peaks in MiB above the memory held on entry, on the pool of
# 10,000 normal and 100 attack sessions (seed 0: 84,258 packets, 10,100
# flows). Measured: simulate 4.34, assemble_flows 2.73, feature_matrix 3.18;
# each bound is that plus about 15%. The stages' earlier versions, which
# held their per-packet temporaries all at once, peaked at 5.51, 6.57 and
# 4.05.
DATA_STAGE_PEAK_MIB = {"simulate": 5.0, "assemble_flows": 3.15, "feature_matrix": 3.65}


def test_data_stage_memory_stays_within_its_bounds():
    stages = (("simulate", lambda _: simulate(SimConfig(10_000, 100), 0)[0]),
              ("assemble_flows", assemble_flows),
              ("feature_matrix", feature_matrix))
    value, peaks = None, {}
    tracemalloc.start()
    try:
        for name, stage in stages:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            value = stage(value)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - held) / 2**20
    finally:
        tracemalloc.stop()
    assert value.shape == (10_100, len(FEATURE_NAMES))
    assert all(peaks[name] < bound for name, bound in DATA_STAGE_PEAK_MIB.items()), peaks
