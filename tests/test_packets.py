"""Capture I/O: byte-level pcap checks, round trips, and reader fuzzing.
The packet CSV reader is checked against the per-line reader in
packet_csv_oracle.py."""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import packet_csv_oracle
from imbalidx.packets import (
    CSV_HEADER,
    MIN_WIRE_LEN,
    BadMagic,
    PacketRecord,
    PacketTable,
    ParseError,
    Protocol,
    Truncated,
    UnsupportedLinkType,
    BadRow,
    format_addr,
    grid_seconds,
    parse_addr,
    quantize_timestamp,
    quantize_us,
    read_packet_csv,
    read_pcap,
    write_packet_csv,
    write_pcap,
)

GLOBAL_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)


octet = st.integers(0, 255)
addresses = st.builds(lambda a, b, c, d: f"{a}.{b}.{c}.{d}", octet, octet, octet, octet)
ports = st.integers(1, 65535)
# Timestamps snapped to the microsecond grid, spanning small offsets up to
# the top of the 32-bit pcap epoch.
timestamps = st.one_of(
    st.integers(0, 10**6).map(lambda us: us / 1e6),
    st.integers(0, 0xFFFFFFFF * 10**6 + 999_999).map(
        lambda us: (us // 10**6) + (us % 10**6) / 1e6
    ),
)


@st.composite
def packet_records(draw, addrs=addresses):
    proto = draw(st.sampled_from(list(Protocol)))
    if proto is Protocol.OTHER:
        sport = dport = 0
    else:
        sport, dport = draw(ports), draw(ports)
    return PacketRecord(
        timestamp=draw(timestamps),
        src_addr=draw(addrs),
        dst_addr=draw(addrs),
        src_port=sport,
        dst_port=dport,
        protocol=proto,
        wire_len=draw(st.integers(MIN_WIRE_LEN[proto], 3000)),
        is_retransmission=draw(st.booleans()),
    )


def table(records):
    return PacketTable.from_records(records)


def test_empty_pcap_is_just_the_global_header(tmp_path):
    path = tmp_path / "empty.pcap"
    write_pcap(table([]), path)
    assert path.read_bytes() == GLOBAL_HEADER
    assert read_pcap(path) == table([])


def test_single_tcp_packet_round_trip(tmp_path):
    pkt = PacketRecord(
        timestamp=1.25,
        src_addr="10.0.0.1",
        dst_addr="10.0.0.2",
        src_port=1234,
        dst_port=502,
        protocol=Protocol.TCP,
        wire_len=60,
        is_retransmission=True,
    )
    path = tmp_path / "one.pcap"
    write_pcap(table([pkt]), path)
    assert read_pcap(path) == table([pkt])


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(struct.pack("<I", 0xDEADBEEF) + GLOBAL_HEADER[4:])
    with pytest.raises(BadMagic):
        read_pcap(path)


def test_short_file_rejected(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(GLOBAL_HEADER[:10])
    with pytest.raises(BadMagic):
        read_pcap(path)


def test_non_ethernet_link_type_rejected(tmp_path):
    path = tmp_path / "linktype.pcap"
    path.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
    with pytest.raises(UnsupportedLinkType):
        read_pcap(path)


def test_truncated_record_rejected(tmp_path):
    path = tmp_path / "trunc.pcap"
    path.write_bytes(GLOBAL_HEADER + struct.pack("<IIII", 0, 0, 500, 500) + b"\x00" * 20)
    with pytest.raises(Truncated):
        read_pcap(path)


def test_byte_swapped_magic_accepted(tmp_path):
    pkt = PacketRecord(0.5, "1.2.3.4", "5.6.7.8", 80, 8080, Protocol.TCP, 64)
    le = tmp_path / "le.pcap"
    write_pcap(table([pkt]), le)
    body = le.read_bytes()
    # Swap every header field to big-endian by hand; frame bytes stay put.
    g = struct.unpack("<IHHiIII", body[:24])
    rec = struct.unpack("<IIII", body[24:40])
    be = struct.pack(">IHHiIII", *g) + struct.pack(">IIII", *rec) + body[40:]
    swapped = tmp_path / "be.pcap"
    swapped.write_bytes(be)
    assert read_pcap(swapped) == table([pkt])


def test_writer_rejects_corrupted_wire_len_before_writing(tmp_path):
    packets = table([PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 40)])
    packets.wire_len[0] = 12  # below the TCP minimum, bypassing construction checks
    path = tmp_path / "never.pcap"
    with pytest.raises(ValueError):
        write_pcap(packets, path)
    assert not path.exists()


def test_writer_rejects_timestamp_past_the_epoch_range(tmp_path):
    # 1e13 and 1e300 are past quantize_us's int64 range too.
    for t in (2.0**32, 2.0**33, 1e13, 1e300):
        pkt = PacketRecord(t, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 40)
        with pytest.raises(ValueError, match="epoch"):
            write_pcap(table([pkt]), tmp_path / "never.pcap")
        assert not (tmp_path / "never.pcap").exists()


def test_record_validation():
    good = PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 40)
    for bad in [
        PacketRecord(-1.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 40),
        PacketRecord(float("nan"), "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 40),
        PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 70000, 2, Protocol.TCP, 40),
        PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 39),
        PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.UDP, 27),
        PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 5, 0, Protocol.OTHER, 100),
        PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, 99, 100),  # unknown protocol
        PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 2**32),
    ]:
        with pytest.raises(BadRow) as err:
            table([good, good, bad])
        assert err.value.row == 2, bad


@given(st.integers(0, 2**32 - 1))
def test_every_address_round_trips(value):
    assert parse_addr(format_addr(value)) == value


# Dotted texts whose parts are octets or draws from digits, '.', sign,
# underscore, space and a full-width digit.
address_like = st.lists(
    st.one_of(octet.map(str), st.text("0123456789.+_ \uff16", max_size=4)),
    min_size=1, max_size=5,
).map(".".join)


@given(address_like)
@example("00.0.0.0")
@example("10.0.0.66")
def test_only_the_canonical_address_text_parses(text):
    try:
        value = parse_addr(text)
    except ValueError:
        return
    assert format_addr(value) == text


@pytest.mark.parametrize("value", [0x0A000042, b"\n\x00\x00B", None])
def test_parse_addr_takes_only_text(value):
    with pytest.raises(ValueError, match="dotted-quad"):
        parse_addr(value)


def test_quantize_timestamp():
    # The grid value is reconstructed as sec + usec/1e6, the exact
    # expression both readers use, so equality is against that form.
    assert quantize_timestamp(1.2345678) == 1 + 234568 / 1e6
    assert quantize_timestamp(0.0) == 0.0
    assert quantize_timestamp(3.0000004) == 3.0
    # Quantizing is idempotent on the grid.
    t = quantize_timestamp(977.123456)
    assert quantize_timestamp(t) == t


def test_quantize_us_is_the_nearest_microsecond():
    # Exact oracle: t's binary value times 1e6, rounded half to even.
    rng = np.random.default_rng(16)
    times = np.concatenate([rng.uniform(0, 2**32, 20_000), rng.uniform(0, 1e3, 20_000)])
    assert quantize_us(times).tolist() == [round(Fraction(t) * 10**6) for t in times.tolist()]
    us = np.concatenate([rng.integers(0, 2**32 * 10**6, 20_000),
                         [0, 1, 999_999, 10**6, 2**32 * 10**6 - 1]])
    assert np.array_equal(quantize_us(grid_seconds(*np.divmod(us, 10**6))), us)


def test_pcap_records_carry_quantize_us_seconds_and_microseconds(tmp_path):
    rng = np.random.default_rng(17)
    ts = np.concatenate([rng.uniform(0, 2**32 - 1, 300), rng.uniform(0, 10, 300)])
    n = ts.size
    path = tmp_path / "off_grid.pcap"
    write_pcap(PacketTable(ts, np.ones(n), np.full(n, 2), np.ones(n), np.full(n, 2),
                           np.full(n, Protocol.TCP), np.full(n, 40), np.zeros(n)), path)
    data = path.read_bytes()
    fields, at = [], len(GLOBAL_HEADER)
    while at < len(data):
        sec, usec, incl_len = struct.unpack_from("<III", data, at)
        fields.append((sec, usec))
        at += 16 + incl_len
    assert fields == [divmod(int(us), 10**6) for us in quantize_us(ts)]


@given(timestamps)
def test_quantize_is_idempotent(t):
    q = quantize_timestamp(t)
    assert quantize_timestamp(q) == q
    assert abs(q - t) <= 5e-7 + 1e-9 * max(t, 1.0)


@given(st.lists(packet_records(), max_size=40))
@settings(max_examples=150, deadline=None)
def test_pcap_round_trip(tmp_path_factory, pkts):
    path = tmp_path_factory.mktemp("rt") / "seq.pcap"
    write_pcap(table(pkts), path)
    assert read_pcap(path) == table(pkts)


@given(st.lists(packet_records(), max_size=40))
@settings(max_examples=150, deadline=None)
def test_csv_round_trip(tmp_path_factory, pkts):
    path = tmp_path_factory.mktemp("rt") / "seq.csv"
    write_packet_csv(table(pkts), path)
    assert read_packet_csv(path) == table(pkts)


def test_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_packet_csv(table([]), path)
    assert path.read_text() == CSV_HEADER + "\n"
    assert read_packet_csv(path) == table([])


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time,stuff\n")
    with pytest.raises(ParseError) as err:
        read_packet_csv(path)
    assert err.value.line == 1


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("1.0,1.1.1.1,70000,2.2.2.2,2,TCP,60,0", "out of range"),
        ("1.0,1.1.1.1,1,2.2.2.2,2,ICMP,60,0", "protocol"),
        ("1.0,1.1.1.1,1,2.2.2.2,2,TCP,60,2", "is_retransmission"),
        ("1.0,1.1.1.1,1,2.2.2.2,2,TCP,60", "8 fields"),
        ("x,1.1.1.1,1,2.2.2.2,2,TCP,60,0", "timestamp"),
        ("1.0,1.1.1,1,2.2.2.2,2,TCP,60,0", "src_addr"),
        ("-1.0,1.1.1.1,1,2.2.2.2,2,TCP,60,0", "timestamp"),
        ("1.0,1.1.1.1,1,2.2.2.2,2,TCP,39,0", "below minimum"),
        ("1.0,1.1.1.1,1,2.2.2.2,99999999999999999999,TCP,60,0", "out of range"),
        # Only digits, then '.' and 1-6 digits: no sign, underscore or exponent.
        ("-0.5,1.1.1.1,1,2.2.2.2,2,TCP,60,0", "timestamp"),
        ("1.-5,1.1.1.1,1,2.2.2.2,2,TCP,60,0", "timestamp"),
        ("1.+5,1.1.1.1,1,2.2.2.2,2,TCP,60,0", "timestamp"),
        ("1_0.5,1.1.1.1,1,2.2.2.2,2,TCP,60,0", "timestamp"),
        pytest.param("9" * 400 + ",1.1.1.1,1,2.2.2.2,2,TCP,60,0", "timestamp",
                     id="float-overflow-timestamp"),
        # Integers are ASCII digits only, though int() takes more.
        ("1.0,1.1.1.1, +7,2.2.2.2,2,TCP,60,0", "must be integers"),
        ("1.0,1.1.1.1,1,2.2.2.2,5_0,TCP,60,0", "must be integers"),
        ("1.0,1.1.1.1,1,2.2.2.2,2,TCP,\u0666\u0660,0", "must be integers"),
        ("1.0,1.1.1.1,-1,2.2.2.2,2,TCP,60,0", "must be integers"),
        # Addresses take only the canonical dotted quad.
        ("1.0,1_0.0.0.66,1,2.2.2.2,2,TCP,60,0", "src_addr"),
        ("1.0, 10.0.0.66,1,2.2.2.2,2,TCP,60,0", "src_addr"),
        ("1.0,1.1.1.1,1,+10.0.0.66,2,TCP,60,0", "dst_addr"),
        ("1.0,1.1.1.1,1,010.0.0.66,2,TCP,60,0", "dst_addr"),
        ("1.0,10.0.0.\uff16\uff16,1,2.2.2.2,2,TCP,60,0", "src_addr"),
    ],
)
def test_csv_bad_rows_carry_line_numbers(tmp_path, row, fragment):
    path = tmp_path / "bad.csv"
    # A good first row and a blank line: the bad row sits on line 4.
    good = "0.5,1.1.1.1,1,2.2.2.2,2,TCP,60,0"
    path.write_text(CSV_HEADER + "\n" + good + "\n\n" + row + "\n")
    with pytest.raises(ParseError) as err:
        read_packet_csv(path)
    assert err.value.line == 4
    assert fragment in str(err.value)


def test_csv_rejects_non_utf8_bytes_at_their_line(tmp_path):
    path = tmp_path / "bad.csv"
    good = b"0.5,1.1.1.1,1,2.2.2.2,2,TCP,60,0"
    for row, fragment in [(b"1.0,1.1.1.\xff,1,2.2.2.2,2,TCP,60,0", "src_addr"),
                          (b"\xff1.0,1.1.1.1,1,2.2.2.2,2,TCP,60,0", "timestamp")]:
        path.write_bytes(CSV_HEADER.encode() + b"\n" + good + b"\n\n" + row + b"\n")
        with pytest.raises(ParseError) as err:
            read_packet_csv(path)
        assert err.value.line == 4
        assert fragment in str(err.value)


INT_FIELDS = (2, 4, 6)  # src_port, dst_port, wire_len


def narrowed(row: str) -> str:
    """The row with every integer field that int() accepts but that is not
    ASCII digits replaced by 'x', which both readers reject alike."""
    fields = row.split(",")
    if len(fields) != len(PacketTable.COLUMNS):
        return row
    for j in INT_FIELDS:
        text = fields[j]
        if not (text.isascii() and text.isdigit()):
            try:
                int(text)
            except ValueError:
                continue
            fields[j] = "x"
    return ",".join(fields)


@st.composite
def mutated_field(draw, text):
    kind = draw(st.sampled_from(
        ["sign", "space or NUL", "underscore", "non-ascii digit", "empty", "long"]))
    pos = draw(st.integers(0, len(text)))
    if kind == "sign":
        return draw(st.sampled_from("+-")) + text
    if kind == "space or NUL":
        return draw(st.sampled_from([" " + text, text + " ", " " + text + " ", text + "\0"]))
    if kind == "underscore":
        return text[:pos] + "_" + text[pos:]
    if kind == "non-ascii digit":
        # Arabic-Indic and fullwidth digits pass int(); superscript two
        # passes isdigit() but not int().
        return text[:pos] + draw(st.sampled_from("\u0663\uff15\u00b2")) + text[pos + 1:]
    if kind == "empty":
        return ""
    return draw(st.sampled_from(["0" * 19 + text, "9" * 19, "9" * 25, "1" * 400]))


@st.composite
def mutated_csv(draw):
    """Rows in write_packet_csv's format, then mutated: fields changed,
    commas added or dropped, blank lines added, and each line ended by LF,
    CRLF or a lone CR."""
    # Addresses repeat, as in a real capture, so distinct texts share rows.
    pool = draw(st.lists(addresses, min_size=1, max_size=3))
    addrs = st.one_of(st.sampled_from(pool), addresses)
    pkts = draw(st.lists(packet_records(addrs), min_size=1, max_size=6))
    rows = [f"{r.timestamp:.6f},{r.src_addr},{r.src_port},{r.dst_addr},{r.dst_port},"
            f"{r.protocol.name},{r.wire_len},{int(r.is_retransmission)}" for r in pkts]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["field", "field", "add comma", "drop comma", "blank"]))
        if kind == "field":
            fields = rows[i].split(",")
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(mutated_field(fields[j]))
            rows[i] = ",".join(fields)
        elif kind == "add comma":
            pos = draw(st.integers(0, len(rows[i])))
            rows[i] = rows[i][:pos] + "," + rows[i][pos:]
        elif kind == "drop comma" and "," in rows[i]:
            pos = draw(st.sampled_from([k for k, c in enumerate(rows[i]) if c == ","]))
            rows[i] = rows[i][:pos] + rows[i][pos + 1:]
        else:
            rows.insert(i, "")
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(rows) + 1, max_size=len(rows) + 1))
    return rows, endings


def csv_text(rows, endings):
    return "".join(line + end for line, end in zip([CSV_HEADER] + rows, endings))


def outcome(read, path):
    """The table read, or the line and message of its ParseError."""
    try:
        return read(path)
    except ParseError as exc:
        return exc.line, str(exc)


@given(mutated_csv())
# Texts that differ only past their 15th byte or in a trailing NUL.
@example((["0.5,1.2.3.4,1,5.6.7.8,2,TCP,60,0", "0.75,1.2.3.4\0,1,5.6.7.8,2,TCP,60,0"],
          ["\n"] * 3))
@example((["0.5,001.002.003.004,1,001.002.003.0041,2,TCP,60,0",
           "0.75,001.002.003.0042,1,001.002.003.004,2,TCP,60,0"], ["\n"] * 3))
@settings(max_examples=400, deadline=None)
def test_csv_reader_matches_the_per_line_oracle(tmp_path_factory, case):
    rows, endings = case
    work = tmp_path_factory.mktemp("oracle")
    path, reference = work / "mutated.csv", work / "narrowed.csv"
    path.write_bytes(csv_text(rows, endings).encode())
    reference.write_bytes(csv_text([narrowed(r) for r in rows], endings).encode())
    # Equal wherever no integer field uses a spelling the column reader
    # narrowed; on those it must act as if the field were not an integer.
    assert outcome(read_packet_csv, path) == outcome(packet_csv_oracle.read_packet_csv, reference)


@pytest.mark.parametrize("read", [read_packet_csv, packet_csv_oracle.read_packet_csv],
                         ids=["columns", "oracle"])
def test_csv_line_endings_share_line_numbers(tmp_path, read):
    rows = ["0.5,1.1.1.1,1,2.2.2.2,2,TCP,60,0", "", "1.25,3.3.3.3,7,4.4.4.4,502,UDP,28,1",
            "", "", "2.0,5.5.5.5,0,6.6.6.6,0,OTHER,20,0"]
    bad = rows + ["3.0,5.5.5.5,1,6.6.6.6,2,TCP,60,7"]
    tables, errors = [], []
    for end in ("\n", "\r\n", "\r"):
        path = tmp_path / "endings.csv"
        path.write_bytes(end.join([CSV_HEADER] + rows + [""]).encode())
        tables.append(read(path))
        path.write_bytes(end.join([CSV_HEADER] + bad).encode())
        with pytest.raises(ParseError) as err:
            read(path)
        errors.append((err.value.line, str(err.value)))
    assert len(tables[0]) == 3
    assert tables[1] == tables[0] and tables[2] == tables[0]
    assert errors == [(8, errors[0][1])] * 3


@given(st.binary(max_size=400))
@settings(max_examples=300, deadline=None)
def test_fuzzed_bytes_never_crash_the_reader(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "bytes.pcap"
    path.write_bytes(blob)
    try:
        read_pcap(path)
    except (BadMagic, Truncated, UnsupportedLinkType):
        pass


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_fuzzed_record_bytes_never_crash_the_reader(tmp_path_factory, blob):
    # Force a valid global header so the fuzz lands on the record parser.
    path = tmp_path_factory.mktemp("fuzz") / "records.pcap"
    path.write_bytes(GLOBAL_HEADER + blob)
    try:
        read_pcap(path)
    except (BadMagic, Truncated, UnsupportedLinkType):
        pass
