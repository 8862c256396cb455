"""Capture I/O: byte-level pcap checks, round trips, and reader fuzzing.
The packet CSV codec is checked against the per-line codec in
packet_csv_oracle.py. The codecs work a block of bytes or rows at a time,
so the tests also run them with blocks shrunk until records, lines and
CRLF pairs cross block boundaries."""

import contextlib
import io
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import packet_csv_oracle
from imbalidx import packets, textio
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
    quantize_us,
    read_packet_csv,
    read_pcap,
    write_packet_csv,
    write_pcap,
)
from imbalidx.simulate import SimConfig, simulate

GLOBAL_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)

# Read block sizes in bytes, small enough for lines and records to cross
# block boundaries. The pcap reader takes at least one record prefix (94
# bytes) at a time, so most pcap records are longer than its block.
SMALL_BLOCKS = (1, 13, 150)


@contextlib.contextmanager
def small_blocks(read_block, write_chunk=None):
    """The codecs with their read blocks (and write chunks, in rows)
    shrunk; None keeps the default."""
    with pytest.MonkeyPatch.context() as mp:
        if read_block is not None:
            mp.setattr(packets, "_READ_BLOCK", read_block)
            mp.setattr(textio, "_READ_BLOCK", read_block)
        if write_chunk is not None:
            mp.setattr(packets, "_WRITE_CHUNK", write_chunk)
            mp.setattr(textio, "_WRITE_CHUNK", write_chunk)
        yield


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


def test_writer_names_a_bad_row_past_the_first_chunk(tmp_path):
    packets = table([PacketRecord(float(i), "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 40)
                     for i in range(10)])
    packets.wire_len[7] = 12  # in the third chunk of three rows
    path = tmp_path / "never.pcap"
    with small_blocks(None, write_chunk=3), pytest.raises(BadRow) as err:
        write_pcap(packets, path)
    assert err.value.row == 7
    assert "below minimum 40 for TCP" in str(err.value)
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
    for bad, message in [
        (PacketRecord(-1.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 40), "timestamp"),
        (PacketRecord(float("nan"), "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 40), "timestamp"),
        (PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 70000, 2, Protocol.TCP, 40),
         "src_port out of range: 70000"),
        (PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 39),
         "wire_len 39 below minimum 40 for TCP"),
        (PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.UDP, 27),
         "wire_len 27 below minimum 28 for UDP"),
        (PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 5, 0, Protocol.OTHER, 100),
         "OTHER records must have zero ports"),
        (PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, 99, 100), "unknown protocol number 99"),
        (PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 2**32),
         "exceeds the pcap field range"),
        # Several rules broken: the first rule names the row.
        (PacketRecord(-1.0, "1.1.1.1", "2.2.2.2", 1, 70000, 99, 2**32), "timestamp"),
        (PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 70000, Protocol.OTHER, 2**32),
         "dst_port out of range: 70000"),
    ]:
        # A later row that breaks an earlier rule does not name the table.
        late = PacketRecord(-2.0, "1.1.1.1", "2.2.2.2", 1, 2, Protocol.TCP, 40)
        with pytest.raises(BadRow, match=message) as err:
            table([good, good, bad, late])
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
    # A time snaps to the microsecond grid by quantize_us, and its grid
    # value is rebuilt by grid_seconds as sec + usec/1e6, the exact
    # expression both readers use, so equality is against that form.
    assert quantize_us(1.2345678) == 1_234_568
    assert grid_seconds(*divmod(quantize_us(1.2345678), 10**6)) == 1 + 234568 / 1e6
    assert quantize_us(0.0) == 0
    assert quantize_us(3.0000004) == 3_000_000
    # Quantizing is idempotent on the grid.
    t = grid_seconds(*divmod(quantize_us(977.123456), 10**6))
    assert quantize_us(t) == 977_123_456


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
    us = quantize_us(t)
    q = grid_seconds(*divmod(us, 10**6))
    assert quantize_us(q) == us
    assert abs(q - t) <= 5e-7 + 1e-9 * max(t, 1.0)


@given(st.lists(packet_records(), max_size=40))
@settings(max_examples=150, deadline=None)
def test_pcap_round_trip(tmp_path_factory, pkts):
    path = tmp_path_factory.mktemp("rt") / "seq.pcap"
    write_pcap(table(pkts), path)
    assert read_pcap(path) == table(pkts)
    data = path.read_bytes()
    for block in SMALL_BLOCKS:
        with small_blocks(block, write_chunk=3):
            write_pcap(table(pkts), path)
            assert path.read_bytes() == data
            assert read_pcap(path) == table(pkts)


@given(st.lists(packet_records(), max_size=40))
@settings(max_examples=150, deadline=None)
def test_csv_round_trip(tmp_path_factory, pkts):
    path = tmp_path_factory.mktemp("rt") / "seq.csv"
    write_packet_csv(table(pkts), path)
    assert read_packet_csv(path) == table(pkts)


@pytest.mark.parametrize("write,read", [(write_pcap, read_pcap),
                                        (write_packet_csv, read_packet_csv)],
                         ids=["pcap", "csv"])
def test_a_negative_zero_timestamp_round_trips(tmp_path, write, read):
    # PacketTable accepts -0.0 (it is >= 0); both formats carry it as 0.
    packets_ = PacketTable([-0.0, 1.5], [1, 1], [2, 2], [10, 10], [502, 502],
                           [Protocol.TCP.value] * 2, [60, 60], [False, False])
    path = tmp_path / "zero"
    write(packets_, path)
    back = read(path)
    assert back == packets_
    assert not np.signbit(back.ts).any()


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
    for block in (None, *SMALL_BLOCKS):
        with small_blocks(block), pytest.raises(ParseError) as err:
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
    expected = outcome(packet_csv_oracle.read_packet_csv, reference)
    for block in (None, *SMALL_BLOCKS):
        with small_blocks(block):
            assert outcome(read_packet_csv, path) == expected


@pytest.mark.parametrize("read", [read_packet_csv, packet_csv_oracle.read_packet_csv],
                         ids=["columns", "oracle"])
def test_csv_line_endings_share_line_numbers(tmp_path, read):
    rows = ["0.5,1.1.1.1,1,2.2.2.2,2,TCP,60,0", "", "1.25,3.3.3.3,7,4.4.4.4,502,UDP,28,1",
            "", "", "2.0,5.5.5.5,0,6.6.6.6,0,OTHER,20,0"]
    bad = rows + ["3.0,5.5.5.5,1,6.6.6.6,2,TCP,60,7"]
    tables, errors = [], []
    for end in ("\n", "\r\n", "\r"):
        for block in (None, *SMALL_BLOCKS):
            with small_blocks(block):
                path = tmp_path / "endings.csv"
                path.write_bytes(end.join([CSV_HEADER] + rows + [""]).encode())
                tables.append(read(path))
                path.write_bytes(end.join([CSV_HEADER] + bad).encode())
                with pytest.raises(ParseError) as err:
                    read(path)
                errors.append((err.value.line, str(err.value)))
    assert len(tables[0]) == 3
    assert all(t == tables[0] for t in tables)
    assert errors == [(8, errors[0][1])] * len(errors)


def pcap_outcome(path):
    """The table read, or the type and message of the reader's error; any
    other exception fails the test."""
    try:
        return read_pcap(path)
    except (BadMagic, Truncated, UnsupportedLinkType) as exc:
        return type(exc), str(exc)


def assert_blocks_agree(path):
    """read_pcap gives the same outcome at every small block size as at the
    default one."""
    expected = pcap_outcome(path)
    for block in SMALL_BLOCKS:
        with small_blocks(block):
            assert pcap_outcome(path) == expected


@given(st.binary(max_size=400))
@settings(max_examples=300, deadline=None)
def test_fuzzed_bytes_never_crash_the_reader(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "bytes.pcap"
    path.write_bytes(blob)
    assert_blocks_agree(path)


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_fuzzed_record_bytes_never_crash_the_reader(tmp_path_factory, blob):
    # Force a valid global header so the fuzz lands on the record parser.
    path = tmp_path_factory.mktemp("fuzz") / "records.pcap"
    path.write_bytes(GLOBAL_HEADER + blob)
    assert_blocks_agree(path)


def test_line_blocks_end_after_a_line_ending():
    # LF, CRLF and lone CR endings, blank lines, and a line longer than
    # most of the block sizes below.
    data = b"ab\r\ncd\n\r\nef\rgh\r\r\n" + b"x" * 40 + b"\r\nij\r"
    longest = 42
    for size in range(1, len(data) + 2):
        with small_blocks(size):
            blocks = list(textio._line_blocks(io.BytesIO(data)))
        assert b"".join(blocks) == data
        for block, after in zip(blocks, blocks[1:]):
            assert block[-1:] in (b"\n", b"\r")
            assert not (block.endswith(b"\r") and after.startswith(b"\n"))
            assert len(block) <= size + longest
    assert list(textio._line_blocks(io.BytesIO(b""))) == [b""]


def test_every_block_size_reads_the_same_csv(tmp_path):
    # Every split point of the file is a block boundary at some size, so
    # each line and each CRLF pair crosses one.
    rows = [b"0.5,1.1.1.1,1,2.2.2.2,2,TCP,60,0", b"", b"1.25,3.3.3.3,7,4.4.4.4,502,UDP,28,1",
            b"2.0,5.5.5.5,0,6.6.6.6,0,OTHER,20,0", b"", b"3.000001,1.1.1.1,65535,2.2.2.2,1,TCP,40,1"]
    ends = [b"\r\n", b"\n", b"\r", b"\r\n", b"\n", b"\r", b"\r\n"]
    good = b"".join(line + end for line, end in zip([CSV_HEADER.encode()] + rows, ends))
    bad = good + b"3.5,1.1.1.1,1,2.2.2.2,2,TCP,60,0,9\r\n4.0,1.1.1.1,1,2.2.2.2,2,TCP,60,7\n"
    for name, data in (("good.csv", good), ("bad.csv", bad)):
        path = tmp_path / name
        path.write_bytes(data)
        expected = outcome(read_packet_csv, path)
        assert expected == outcome(packet_csv_oracle.read_packet_csv, path)
        for size in range(1, len(data) + 2):
            with small_blocks(size):
                assert outcome(read_packet_csv, path) == expected, size
    assert len(read_packet_csv(tmp_path / "good.csv")) == 4
    assert outcome(read_packet_csv, tmp_path / "bad.csv")[0] == 8


def test_a_later_parse_error_wins_over_an_earlier_table_rule(tmp_path):
    # Line 2 parses but breaks a PacketTable rule, which is reported only
    # once the whole file has parsed; by then a later block's bad line has
    # raised. An out-of-int64 value is reported before any other rule, at
    # its own line, as for the whole file at once.
    good = "0.5,1.1.1.1,1,2.2.2.2,2,TCP,60,0"
    early = "1.0,1.1.1.1,70000,2.2.2.2,2,TCP,60,0"
    cases = [
        (good + "\n", "x,1.1.1.1,1,2.2.2.2,2,TCP,60,0", 43, "bad timestamp"),
        (good + "\n", "1.0,1.1.1.1,1,2.2.2.2,2,TCP," + "9" * 25 + ",0", 43, "wire_len out of range"),
        ("\n", good, 2, "src_port out of range: 70000"),
    ]
    for filler, last, line, fragment in cases:
        path = tmp_path / "late.csv"
        path.write_text(CSV_HEADER + "\n" + early + "\n" + filler * 40 + last + "\n")
        expected = outcome(packet_csv_oracle.read_packet_csv, path)
        assert expected[0] == line and fragment in expected[1]
        for block in (None, 64, 200):
            with small_blocks(block):
                assert outcome(read_packet_csv, path) == expected


def test_every_block_size_reads_the_same_pcap(tmp_path):
    # Records of 50 to 3,016 bytes in both byte orders, whole and cut inside
    # a record header, a short record and a long one. The sizes step through
    # many record offsets, so records cross block boundaries, and the long
    # records are longer than most of the blocks.
    protos = [Protocol.TCP, Protocol.UDP, Protocol.OTHER] * 5
    wire = [40, 3000, 0, 60, 28, 700, 41, 1500, 90, 3000, 64, 20, 45, 300, 2000]
    recs = [PacketRecord(float(i), "10.0.0.1", "10.0.0.2", (1000 + i) * (p != Protocol.OTHER),
                         502 * (p != Protocol.OTHER), p, w, bool(i % 2))
            for i, (p, w) in enumerate(zip(protos, wire))]
    path = tmp_path / "mixed.pcap"
    write_pcap(table(recs), path)
    le = path.read_bytes()
    be, starts = bytearray(struct.pack(">IHHiIII", *struct.unpack("<IHHiIII", le[:24]))), [24]
    while starts[-1] < len(le):
        header = struct.unpack_from("<IIII", le, starts[-1])
        be += struct.pack(">IIII", *header) + le[starts[-1] + 16:starts[-1] + 16 + header[2]]
        starts.append(starts[-1] + 16 + header[2])
    cuts = [starts[3] + 8, starts[3] + 40, starts[9] + 500, len(le) - 1]
    for data in [le, bytes(be)] + [le[:cut] for cut in cuts]:
        path.write_bytes(data)
        expected = pcap_outcome(path)
        for size in [*range(94, 400, 3), 1000, 3100]:
            with small_blocks(size):
                assert pcap_outcome(path) == expected, size
    path.write_bytes(le)
    assert pcap_outcome(path) == table(recs)
    for cut, message in zip(cuts, ["record header cut short", "claims 60 bytes, 24 remain",
                                   "claims 3000 bytes, 484 remain", "claims 2000 bytes, 1999"]):
        path.write_bytes(le[:cut])
        assert pcap_outcome(path)[0] is Truncated
        assert message in pcap_outcome(path)[1]


# Times the column writer formats by digits (grid times below 2**32 s) and
# every kind it hands to f"{t:.6f}": off-grid times, neighbours of half
# microseconds, -0.0, and times at or past 2**32 s.
def half_microsecond(us, steps):
    t = (us + 0.5) / 1e6
    for _ in range(abs(steps)):
        t = np.nextafter(t, np.inf if steps > 0 else -np.inf)
    return float(t)


writer_times = st.one_of(
    timestamps,
    st.floats(0, 2.0**32, allow_nan=False),
    st.builds(half_microsecond, st.integers(0, 10**7) | st.integers(0, 2**32 * 10**6),
              st.integers(-3, 3)),
    st.floats(2.0**32, 1e300),
    st.sampled_from([0.0, -0.0, 2.0**32, 2.0**32 - 1, 4294967295.999999, 4294967295.9999995,
                     1e-7, 5e-7, 0.9999995]),
)


@st.composite
def writer_rows(draw):
    proto = draw(st.sampled_from(list(Protocol)))
    port = st.sampled_from([0, 65535]) | st.integers(0, 65535)
    sport, dport = (0, 0) if proto is Protocol.OTHER else (draw(port), draw(port))
    wire_len = draw(st.sampled_from([MIN_WIRE_LEN[proto], 2**32 - 1])
                    | st.integers(MIN_WIRE_LEN[proto], 2**32 - 1))
    addr = st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1)
    return (draw(writer_times), draw(addr), draw(addr), sport, dport, proto, wire_len,
            draw(st.booleans()))


@given(st.lists(writer_rows(), max_size=30), st.sampled_from([None, 1, 4]))
@settings(max_examples=300, deadline=None)
def test_csv_writer_matches_the_per_row_oracle(tmp_path_factory, rows, chunk):
    cols = list(zip(*rows)) if rows else [()] * len(PacketTable.COLUMNS)
    packets_ = PacketTable(*cols)
    work = tmp_path_factory.mktemp("writer")
    packet_csv_oracle.write_packet_csv(packets_, work / "oracle.csv")
    with small_blocks(None, write_chunk=chunk):
        write_packet_csv(packets_, work / "columns.csv")
    assert (work / "columns.csv").read_bytes() == (work / "oracle.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, textio._WRITE_CHUNK - 1, textio._WRITE_CHUNK,
                                    textio._WRITE_CHUNK + 1])
def test_csv_writer_matches_the_oracle_across_chunks(tmp_path, n_rows):
    # Cells the digit words print, but in the first and last row of each
    # chunk a time and a wire_len from 1e8, which Python prints, and the
    # widest address; -0.0 times next to those rows.
    chunk = textio._WRITE_CHUNK
    rng = np.random.default_rng(n_rows)
    proto = rng.choice([p.value for p in Protocol], n_rows)
    ports = rng.integers(0, 65536, (2, n_rows)) * (proto != Protocol.OTHER)
    ts = grid_seconds(rng.integers(0, 10**7, n_rows), rng.integers(0, 10**6, n_rows))
    wire_len = rng.integers(40, 10**6, n_rows)
    addrs = rng.integers(0, 2**32, (2, n_rows))
    row = np.arange(n_rows)
    edges = np.flatnonzero((row % chunk == 0) | (row % chunk == chunk - 1) | (row == n_rows - 1))
    ts[edges] = grid_seconds(rng.integers(10**8, 2**32, edges.size),
                             rng.integers(0, 10**6, edges.size))
    wire_len[edges] = rng.integers(10**8, 2**32, edges.size)
    addrs[:, edges] = 2**32 - 1
    near = np.setdiff1d(np.concatenate([edges - 1, edges + 1]), edges)
    ts[near[(near >= 0) & (near < n_rows)]] = -0.0
    packets_ = PacketTable(ts, *addrs, *ports, proto, wire_len, rng.random(n_rows) < 0.5)
    packet_csv_oracle.write_packet_csv(packets_, tmp_path / "oracle.csv")
    write_packet_csv(packets_, tmp_path / "columns.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.fixture(scope="module")
def pinned_capture(tmp_path_factory):
    """The simulated capture of 5,000 normal and 100 attack sessions (seed
    0, 43,650 packets), written in both formats."""
    packets_, _ = simulate(SimConfig(5000, 100), 0)
    work = tmp_path_factory.mktemp("pinned")
    write_pcap(packets_, work / "in.pcap")
    write_packet_csv(packets_, work / "in.csv")
    return packets_, work


# tracemalloc peaks in MiB at 64 KiB read blocks and the default write
# chunks. Measured: write_pcap 2.52, write_packet_csv 0.65, read_pcap 1.65,
# read_packet_csv 2.47; the whole-file codecs peaked at 19.5, 6.44, 15.75
# and 10.16. The table is 1.08 MiB, the pcap 6.08 MiB, the CSV 2.01 MiB.
CODEC_PEAK_MIB = {"write_pcap": 6, "write_packet_csv": 2, "read_pcap": 4.5,
                  "read_packet_csv": 6}


@pytest.mark.parametrize("codec", list(CODEC_PEAK_MIB))
def test_codec_memory_stays_within_a_block_and_the_table(pinned_capture, tmp_path, codec):
    packets_, work = pinned_capture
    calls = {
        "write_pcap": lambda: write_pcap(packets_, tmp_path / "out.pcap"),
        "write_packet_csv": lambda: write_packet_csv(packets_, tmp_path / "out.csv"),
        "read_pcap": lambda: read_pcap(work / "in.pcap"),
        "read_packet_csv": lambda: read_packet_csv(work / "in.csv"),
    }
    with small_blocks(1 << 16):
        tracemalloc.start()
        try:
            result = calls[codec]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result is None or result == packets_
    assert peak < CODEC_PEAK_MIB[codec] * 2**20, peak / 2**20
