"""Packet capture I/O: classic pcap files and a flat CSV interchange format.

A capture in memory is a PacketTable: one numpy column per field, one row
per frame. Addresses are IPv4 as 32-bit integers and the protocol column
holds IANA protocol numbers.

Only classic pcap is handled (24-byte global header, magic 0xA1B2C3D4 in
either byte order, microsecond timestamps, Ethernet link type). Written
frames are minimal Ethernet+IPv4+TCP/UDP constructions padded out to the
record's wire length; the retransmission marker rides in the reserved bit
of the IPv4 flags field so a capture round-trips every field.
"""

from __future__ import annotations

import ipaddress
import os
import struct
from enum import IntEnum
from typing import BinaryIO, Iterable, List, NamedTuple

import numpy as np

from .textio import CsvFields, ParseError, csv_fields


class Protocol(IntEnum):
    """Transport protocol, valued by its IANA protocol number. OTHER uses
    253, the number reserved for experimentation."""

    TCP = 6
    UDP = 17
    OTHER = 253


class BadMagic(ValueError):
    """File does not start with a classic pcap magic number."""


class Truncated(ValueError):
    """A header or record claims more bytes than the file holds."""


class UnsupportedLinkType(ValueError):
    """Capture uses a link type other than Ethernet."""


class BadRow(ValueError):
    """A packet table row breaks a field rule; `row` is its 0-based index."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


# Minimum wire lengths accepted per protocol (IP + transport headers).
MIN_WIRE_LEN = {Protocol.TCP: 40, Protocol.UDP: 28, Protocol.OTHER: 0}

PCAP_MAGIC_LE = 0xA1B2C3D4
_ETH_HDR = 14
_IP_HDR = 20
_MAX_U32 = 0xFFFFFFFF


def parse_addr(text: str) -> int:
    """Dotted-quad IPv4 address to its 32-bit integer value. Only the
    canonical spelling that format_addr writes is accepted: four ASCII
    decimal octets 0-255, with no leading zero, sign, space or underscore,
    so each address has one text."""
    try:
        if isinstance(text, str):  # the stdlib also takes ints and bytes
            return int(ipaddress.IPv4Address(text))
    except ValueError:
        pass
    raise ValueError(f"not a dotted-quad IPv4 address: {text!r}")


def format_addr(value: int) -> str:
    """32-bit integer IPv4 address to dotted-quad text."""
    return f"{value >> 24}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


class PacketRecord(NamedTuple):
    """One frame as plain values: the row form of a PacketTable, for
    building small captures by hand. PacketTable checks the fields."""

    timestamp: float
    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    protocol: Protocol
    wire_len: int
    is_retransmission: bool = False


def _int_column(values, name: str) -> np.ndarray:
    """An integer array as given, anything else converted to int64."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        row = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
        raise BadRow(row, f"{name} out of range: {values[row]!r}") from None


def _check_rows(ts, src, dst, sport, dport, proto, wire_len) -> None:
    """Raise BadRow for the first row that breaks a field rule."""
    known = np.isin(proto, list(Protocol))
    too_short = np.zeros(len(ts), dtype=bool)
    for p, min_len in MIN_WIRE_LEN.items():
        too_short |= (proto == p) & (wire_len < min_len)
    rules = (
        (~(np.isfinite(ts) & (ts >= 0)),
         lambda i: f"timestamp must be finite and >= 0, got {ts[i].item()!r}"),
        ((src < 0) | (src > _MAX_U32), lambda i: f"src_addr out of range: {src[i]}"),
        ((dst < 0) | (dst > _MAX_U32), lambda i: f"dst_addr out of range: {dst[i]}"),
        ((sport < 0) | (sport > 65535), lambda i: f"src_port out of range: {sport[i]}"),
        ((dport < 0) | (dport > 65535), lambda i: f"dst_port out of range: {dport[i]}"),
        (~known, lambda i: f"unknown protocol number {proto[i]}"),
        (too_short,
         lambda i: f"wire_len {wire_len[i]} below minimum "
                   f"{MIN_WIRE_LEN[Protocol(proto[i])]} for {Protocol(proto[i]).name}"),
        (wire_len > _MAX_U32,
         lambda i: f"wire_len {wire_len[i]} exceeds the pcap field range"),
        # OTHER frames carry no transport header, so ports cannot survive a
        # pcap round trip; forbid them up front.
        ((proto == Protocol.OTHER) & ((sport != 0) | (dport != 0)),
         lambda i: "OTHER records must have zero ports"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(msg for mask, msg in rules if mask[i])
        raise BadRow(i, message(i))


class PacketTable:
    """A capture as columns: `ts` (float64 seconds), `src`/`dst` (uint32
    IPv4), `sport`/`dport` (uint16), `proto` (uint8 IANA number),
    `wire_len` (uint32) and `retx` (bool, retransmission flag).

    The constructor checks every row (finite non-negative timestamps, ports
    in range, wire length at least the protocol's headers, zero ports for
    OTHER) and raises BadRow for the first row that fails.
    """

    COLUMNS = ("ts", "src", "dst", "sport", "dport", "proto", "wire_len", "retx")
    __slots__ = COLUMNS

    def __init__(self, ts, src, dst, sport, dport, proto, wire_len, retx):
        ts = np.asarray(ts, dtype=np.float64)
        ints = {name: _int_column(v, name) for name, v in (
            ("src_addr", src), ("dst_addr", dst), ("src_port", sport),
            ("dst_port", dport), ("protocol", proto), ("wire_len", wire_len))}
        retx = np.asarray(retx, dtype=bool)
        n = ts.shape[0]
        if ts.ndim != 1 or retx.shape != (n,) or any(v.shape != (n,) for v in ints.values()):
            raise ValueError("packet columns must be 1-d and of equal length")
        _check_rows(ts, *ints.values())
        self.ts = ts
        self.src = ints["src_addr"].astype(np.uint32, copy=False)
        self.dst = ints["dst_addr"].astype(np.uint32, copy=False)
        self.sport = ints["src_port"].astype(np.uint16, copy=False)
        self.dport = ints["dst_port"].astype(np.uint16, copy=False)
        self.proto = ints["protocol"].astype(np.uint8, copy=False)
        self.wire_len = ints["wire_len"].astype(np.uint32, copy=False)
        self.retx = retx

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> "PacketTable":
        rows = [tuple(r) for r in records]
        cols = list(zip(*rows)) if rows else [()] * len(cls.COLUMNS)
        src = [parse_addr(a) for a in cols[1]]
        dst = [parse_addr(a) for a in cols[2]]
        return cls(cols[0], src, dst, *cols[3:])

    def __len__(self) -> int:
        return self.ts.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PacketTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c))
                   for c in self.COLUMNS)

    __hash__ = None

    def __repr__(self) -> str:
        return f"PacketTable({len(self)} packets)"


def grid_seconds(sec, usec):
    """Float seconds of whole seconds plus microseconds (numbers or
    arrays). Every reader and the simulator rebuild timestamps with this
    one rule, so a grid time survives any write and read exactly."""
    return sec + usec / 1e6


def quantize_us(t):
    """Seconds t (a number or an array) as int64 microseconds: whole
    seconds by floor, then rint((t - sec) * 1e6), so a fraction that rounds
    up to 1e6 carries into the next second. The subtraction and the sum are
    exact below 2**53 us (about 285 years), so this is the nearest
    microsecond, ties to even, except within 2**-34 us of a half, where the
    product with 1e6 can round onto the half. The simulator and the pcap
    writer both round with it. Raises FloatingPointError for NaN, infinity
    or |t| beyond about 9.2e12."""
    with np.errstate(invalid="raise"):
        sec = np.floor(t)
        us = np.rint((t - sec) * 1e6)
        sec *= 1e6
        us += sec
        return us.astype(np.int64)


def quantize_timestamp(t: float) -> float:
    """Snap a timestamp to the microsecond grid pcap and CSV can represent,
    by quantize_us's rule."""
    return float(grid_seconds(*divmod(quantize_us(t), 1_000_000)))


def parse_timestamp(text: str) -> float:
    """Grid seconds from text: ASCII digits, optionally followed by '.' and
    1-6 digits; no sign, exponent, underscore or space. Raises ValueError
    for anything else."""
    whole, dot, frac = text.partition(".")
    if not (text.isascii() and whole.isdigit() and len(frac) <= 6
            and (frac.isdigit() or not dot)):
        raise ValueError(f"bad timestamp {text!r}")
    try:
        return grid_seconds(int(whole), int(frac.ljust(6, "0")) if dot else 0)
    except (OverflowError, ValueError):  # beyond a float, or int()'s digit limit
        raise ValueError(f"timestamp {text!r} out of range") from None


_ETH = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01" + b"\x08\x00"
# Record header (little-endian) plus Ethernet and IPv4 headers, then the
# transport header of each protocol; written frames cannot shrink below
# this stack even when the claimed wire length is smaller (orig_len still
# records the wire length).
_BASE_FIELDS = [
    ("sec", "<u4"), ("usec", "<u4"), ("incl_len", "<u4"), ("orig_len", "<u4"),
    ("eth", "V14"), ("ver_ihl", "u1"), ("tos", "u1"), ("ip_len", ">u2"),
    ("ip_id", ">u2"), ("flags_frag", ">u2"), ("ttl", "u1"), ("proto", "u1"),
    ("checksum", ">u2"), ("src", ">u4"), ("dst", ">u4"),
]
_HEADER_DTYPE = {
    Protocol.TCP: np.dtype(_BASE_FIELDS + [
        ("sport", ">u2"), ("dport", ">u2"), ("seq", ">u4"), ("ack", ">u4"),
        ("offset", "u1"), ("tcp_flags", "u1"), ("window", ">u2"),
        ("l4_checksum", ">u2"), ("urgent", ">u2")]),
    Protocol.UDP: np.dtype(_BASE_FIELDS + [
        ("sport", ">u2"), ("dport", ">u2"), ("udp_len", ">u2"),
        ("l4_checksum", ">u2")]),
    Protocol.OTHER: np.dtype(_BASE_FIELDS),
}


def _ip_checksum(words) -> np.ndarray:
    """Ones' complement checksum of IPv4 headers given as 16-bit word
    columns (checksum field zero)."""
    total = sum(np.asarray(w, dtype=np.uint64) for w in words)
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _records(packets: PacketTable, rows: slice) -> np.ndarray:
    """The pcap records (header and frame) of a slice of rows, back to
    back, as a uint8 array."""
    proto = packets.proto[rows]
    wire_len = packets.wire_len[rows]
    src, dst = packets.src[rows], packets.dst[rows]
    header_len = np.select(
        [proto == Protocol.TCP, proto == Protocol.UDP],
        [_HEADER_DTYPE[Protocol.TCP].itemsize, _HEADER_DTYPE[Protocol.UDP].itemsize],
        _HEADER_DTYPE[Protocol.OTHER].itemsize)
    frame_len = np.maximum(header_len - 16, wire_len.astype(np.int64))
    ip_len = np.minimum(frame_len - _ETH_HDR, 0xFFFF)
    flags_frag = np.where(packets.retx[rows], 0x8000, 0)
    sec, usec = np.divmod(quantize_us(packets.ts[rows]), 1_000_000)
    checksum = _ip_checksum([
        0x4500, ip_len, flags_frag, (64 << 8) | proto.astype(np.uint64),
        src >> 16, src & 0xFFFF, dst >> 16, dst & 0xFFFF])

    ends = np.cumsum(16 + frame_len)
    starts = ends - (16 + frame_len)
    out = np.zeros(int(ends[-1]) if len(ends) else 0, dtype=np.uint8)
    for p, dtype in _HEADER_DTYPE.items():
        sel = np.flatnonzero(proto == p)
        if sel.size == 0:
            continue
        hdr = np.zeros(sel.size, dtype=dtype)
        for name, col in (("sec", sec), ("usec", usec), ("incl_len", frame_len),
                          ("orig_len", wire_len), ("ip_len", ip_len),
                          ("flags_frag", flags_frag), ("checksum", checksum),
                          ("src", src), ("dst", dst)):
            hdr[name] = col[sel]
        hdr["eth"] = np.void(_ETH)
        hdr["ver_ihl"], hdr["ttl"], hdr["proto"] = 0x45, 64, p
        if p is not Protocol.OTHER:
            hdr["sport"] = packets.sport[rows][sel]
            hdr["dport"] = packets.dport[rows][sel]
        if p is Protocol.TCP:
            hdr["offset"], hdr["tcp_flags"], hdr["window"] = 0x50, 0x18, 8192
        elif p is Protocol.UDP:
            hdr["udp_len"] = np.minimum(frame_len[sel] - _ETH_HDR - _IP_HDR, 0xFFFF)
        # The output alternates runs of other bytes and these headers; mark
        # the header runs, then fill them in order.
        at = starts[sel]
        runs = np.empty(2 * sel.size + 1, dtype=np.int64)
        runs[0:-1:2] = np.diff(at, prepend=-dtype.itemsize) - dtype.itemsize
        runs[1::2] = dtype.itemsize
        runs[-1] = out.size - at[-1] - dtype.itemsize
        covered = np.repeat(np.arange(runs.size) % 2 == 1, runs)
        out[covered] = hdr.view(np.uint8)
    return out


# Rows encoded per write, which bounds the writers' buffers.
_WRITE_CHUNK = 1 << 12


def write_pcap(packets: PacketTable, path) -> None:
    """Write a packet table to a little-endian classic pcap file.

    Each timestamp is written as quantize_us rounds it, so times on the
    microsecond grid round trip exactly (see quantize_timestamp). The table
    is checked before any bytes go out, so a bad row, or a time past the
    pcap's 32-bit seconds field, never leaves a partially written file
    behind.
    """
    _check_rows(packets.ts, packets.src, packets.dst, packets.sport,
                packets.dport, packets.proto, packets.wire_len)
    # Capped first, so that no time past the epoch can overflow quantize_us.
    if len(packets) and quantize_us(min(packets.ts.max(), 2.0**32)) // 1_000_000 > _MAX_U32:
        raise ValueError(
            f"timestamp {packets.ts.max()} exceeds the pcap epoch range")
    with open(path, "wb") as f:
        f.write(struct.pack("<IHHiIII", PCAP_MAGIC_LE, 2, 4, 0, 0, 65535, 1))
        for lo in range(0, len(packets), _WRITE_CHUNK):
            f.write(_records(packets, slice(lo, lo + _WRITE_CHUNK)))


# Enough of each frame to decode: Ethernet, the longest IPv4 header, ports.
_PREFIX = _ETH_HDR + 60 + 4


def _big_endian(cols: np.ndarray) -> np.ndarray:
    value = np.zeros(cols.shape[0], dtype=np.int64)
    for j in range(cols.shape[1]):
        value = (value << 8) | cols[:, j]
    return value


def _decode_frames(frames: np.ndarray, incl_len: np.ndarray, wire_len: np.ndarray):
    """Best-effort decode of frame prefixes, one per row; anything that is
    not clean IPv4 TCP/UDP is OTHER. Returns src, dst, sport, dport, proto
    and retx columns."""
    ihl = (frames[:, 14] & 0x0F).astype(np.int64) * 4
    ip = ((incl_len >= _ETH_HDR + _IP_HDR) & (frames[:, 12] == 0x08)
          & (frames[:, 13] == 0x00) & (frames[:, 14] >> 4 == 4)
          & (ihl >= 20) & (incl_len >= _ETH_HDR + ihl))
    l4 = _ETH_HDR + ihl
    has_ports = ip & (incl_len >= l4 + 4)
    tcp = has_ports & (frames[:, 23] == 6) & (wire_len >= MIN_WIRE_LEN[Protocol.TCP])
    udp = has_ports & (frames[:, 23] == 17) & (wire_len >= MIN_WIRE_LEN[Protocol.UDP])
    ports = np.take_along_axis(frames, l4[:, None] + np.arange(4), axis=1)
    return (
        _big_endian(frames[:, 26:30]) * ip,
        _big_endian(frames[:, 30:34]) * ip,
        _big_endian(ports[:, :2]) * (tcp | udp),
        _big_endian(ports[:, 2:]) * (tcp | udp),
        np.select([tcp, udp], [Protocol.TCP, Protocol.UDP], Protocol.OTHER),
        ip & (frames[:, 20] & 0x80 != 0),
    )


# Bytes of records read and decoded at a time. A record longer than this is
# decoded from its first bytes and the rest of it is skipped.
_READ_BLOCK = 1 << 20


def _decode_block(buf: np.ndarray, starts: List[int], fmt: str) -> PacketTable:
    """Decode the records that start at `starts` in `buf`."""
    # Each record's header and frame prefix as one row. Bytes past a short
    # frame belong to the next record (or padding); the decoder checks the
    # frame length before it trusts any byte.
    rows = np.lib.stride_tricks.sliding_window_view(buf, 16 + _PREFIX)[starts]
    hdr = np.ascontiguousarray(rows[:, :16]).view(np.dtype([
        ("sec", fmt + "u4"), ("usec", fmt + "u4"),
        ("incl_len", fmt + "u4"), ("orig_len", fmt + "u4")]))[:, 0]
    wire_len = hdr["orig_len"].astype(np.int64)
    src, dst, sport, dport, proto, retx = _decode_frames(
        rows[:, 16:], hdr["incl_len"].astype(np.int64), wire_len)
    ts = grid_seconds(hdr["sec"], hdr["usec"])
    return PacketTable(ts, src, dst, sport, dport, proto, wire_len, retx)


def _read_records(f: BinaryIO, fmt: str) -> PacketTable:
    """Walk the record headers one block at a time, decoding each block's
    whole records at once; a record cut by the block's end starts the next
    block."""
    width = 16 + _PREFIX
    block = max(_READ_BLOCK, width)  # holds the prefix of a longer record
    size = os.fstat(f.fileno()).st_size - f.tell()
    # The padding past a block keeps every row's window inside the buffer.
    buf = np.zeros(block + width, dtype=np.uint8)
    incl_field = struct.Struct(fmt + "I")
    parts = []
    done = 0  # file bytes (past the global header) before buf[0]
    have = 0  # bytes of buf that hold the file from there
    while True:
        have += f.readinto(memoryview(buf)[have:block])
        buf[have:have + width] = 0
        at_end = have < block
        starts: List[int] = []
        pos = 0
        while pos + 16 <= have:
            (incl_len,) = incl_field.unpack_from(buf, pos + 8)
            if pos + 16 + incl_len > have:
                break
            starts.append(pos)
            pos += 16 + incl_len
        if pos == 0 and not at_end:
            # A record longer than the block: decode its prefix, skip the rest.
            if done + 16 + incl_len > size:
                raise Truncated(f"record claims {incl_len} bytes, {size - done - 16} remain")
            f.seek(16 + incl_len - have, os.SEEK_CUR)
            starts, pos = [0], 16 + incl_len
        part = _decode_block(buf, starts, fmt)
        parts.append(tuple(getattr(part, c) for c in PacketTable.COLUMNS))
        if at_end:
            break
        # Carry the cut record to the front of the buffer.
        keep = max(have - pos, 0)
        buf[:keep] = buf[pos:have]
        done += pos
        have = keep
    if pos + 16 <= have:
        raise Truncated(f"record claims {incl_len} bytes, {have - pos - 16} remain")
    if pos < have:
        raise Truncated("record header cut short")
    return _joined(parts)


def read_pcap(path) -> PacketTable:
    """Read a classic pcap file into a packet table, in file order. The
    path must name a regular file: its size sets how much is read.

    Raises BadMagic, UnsupportedLinkType, or Truncated; never anything else,
    no matter what bytes the file holds.
    """
    with open(path, "rb") as f:
        hdr = f.read(24)
        if len(hdr) < 24:
            raise BadMagic("file shorter than a pcap global header")
        (magic,) = struct.unpack("<I", hdr[:4])
        if magic == PCAP_MAGIC_LE:
            fmt = "<"
        else:
            (magic_be,) = struct.unpack(">I", hdr[:4])
            if magic_be == PCAP_MAGIC_LE:
                fmt = ">"
            else:
                raise BadMagic(f"magic 0x{magic:08X} is not a classic pcap file")
        _, _, _, _, _, linktype = struct.unpack(fmt + "HHiIII", hdr[4:])
        if linktype != 1:
            raise UnsupportedLinkType(f"link type {linktype}, only Ethernet (1) is handled")
        return _read_records(f, fmt)


CSV_HEADER = "timestamp,src_addr,src_port,dst_addr,dst_port,protocol,wire_len,is_retransmission"


def _digit_text(values: np.ndarray, width: int):
    """Decimal digits of non-negative integers below 10**width, one row per
    value, right-aligned in `width` bytes, and the mask of the bytes that
    are the number's own (no leading zeros, but at least one digit)."""
    rest = values.astype(np.uint64)
    text = np.empty((rest.size, width), dtype=np.uint8)
    for k in range(width - 1, -1, -1):
        text[:, k] = rest % 10
        rest //= 10
    text += ord("0")
    n_digits = np.searchsorted(_POW10[1:width].astype(np.uint64), values, side="right") + 1
    return text, np.arange(width) >= width - n_digits[:, None]


def _table_text(codes: np.ndarray, names: List[bytes]):
    """names[code] per row, left-aligned in the longest name's width, and
    the mask of each row's own bytes."""
    width = max(map(len, names), default=0)
    table = np.array(names, dtype=f"S{max(width, 1)}").view(np.uint8).reshape(len(names), -1)
    lengths = np.array([len(n) for n in names], dtype=np.int64)
    return table[codes, :width], np.arange(width) < lengths[codes][:, None]


def _lookup_text(col: np.ndarray, name):
    """name(value) per row, formatting each distinct value once."""
    uniq, inverse = np.unique(col, return_inverse=True)
    return _table_text(inverse, [name(v).encode() for v in uniq.tolist()])


# A timestamp below 2**32 s is a 1-10 digit second and 6 microsecond digits.
_SEC_DIGITS = 10


def _timestamp_text(ts: np.ndarray):
    """f"{t:.6f}" per row. For a grid time t below 2**32 s that is
    f"{sec}.{usec:06d}" with (sec, usec) as quantize_us splits it: the
    float sum sec + usec/1e6 is within half a microsecond of the decimal,
    so rounding it to 6 places gives those digits back. Every other time
    is formatted by itself."""
    sec = np.zeros(ts.shape, dtype=np.int64)
    usec = np.zeros(ts.shape, dtype=np.int64)
    grid = np.zeros(ts.shape, dtype=bool)
    # -0.0 passes t >= 0 but prints its sign; NaN fails both tests.
    near = np.flatnonzero(~np.signbit(ts) & (ts < 2.0**32))
    sec[near], usec[near] = np.divmod(quantize_us(ts[near]), 1_000_000)
    grid[near] = grid_seconds(sec[near], usec[near]) == ts[near]
    sec_text, sec_keep = _digit_text(sec, _SEC_DIGITS)
    usec_text, _ = _digit_text(usec, 6)
    dot = np.full((ts.size, 1), ord("."), dtype=np.uint8)
    text = np.hstack([sec_text, dot, usec_text])
    keep = np.hstack([sec_keep, np.ones((ts.size, 7), dtype=bool)]) & grid[:, None]
    # Each other row's own text, and none on grid rows.
    other = np.flatnonzero(~grid)
    codes = np.zeros(ts.size, dtype=np.int64)
    codes[other] = np.arange(1, other.size + 1)
    own, own_keep = _table_text(codes, [b""] + [f"{t:.6f}".encode() for t in ts[other].tolist()])
    return np.hstack([own, text]), np.hstack([own_keep, keep])


def _csv_chunk(packets: PacketTable, rows: slice) -> bytes:
    """The packet CSV lines of a slice of rows. Each field is a byte matrix
    with a mask of the bytes each row keeps; the masked bytes of the fields
    side by side, read row by row, are the lines."""
    proto_names = {p.value: p.name for p in Protocol}
    fields = [
        _timestamp_text(packets.ts[rows]),
        _lookup_text(packets.src[rows], format_addr),
        _digit_text(packets.sport[rows], 5),
        _lookup_text(packets.dst[rows], format_addr),
        _digit_text(packets.dport[rows], 5),
        _lookup_text(packets.proto[rows], proto_names.__getitem__),
        _digit_text(packets.wire_len[rows], 10),
        _digit_text(packets.retx[rows].view(np.uint8), 1),
    ]
    n = len(fields[0][0])
    parts, masks = [], []
    for j, (text, keep) in enumerate(fields):
        end = b"\n" if j == len(fields) - 1 else b","
        parts += [text, np.full((n, 1), end[0], dtype=np.uint8)]
        masks += [keep, np.ones((n, 1), dtype=bool)]
    return np.hstack(parts)[np.hstack(masks)].tobytes()


def write_packet_csv(packets: PacketTable, path) -> None:
    """Write a packet table as CSV (header CSV_HEADER): one line per row,
    the timestamp as f"{t:.6f}", addresses dotted-quad, the protocol by
    name and the retransmission flag as 0 or 1."""
    with open(path, "wb") as f:
        f.write(CSV_HEADER.encode() + b"\n")
        for lo in range(0, len(packets), _WRITE_CHUNK):
            f.write(_csv_chunk(packets, slice(lo, lo + _WRITE_CHUNK)))


# Digit strings up to this long always fit an int64; longer ones are
# parsed one by one.
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)
# Keeps the first k bytes of a little-endian 8-byte word, for k = 0..8.
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _text(data: bytes, start, end) -> str:
    return data[start:end].decode(errors="backslashreplace")


def _digits(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Each field's value as an ASCII digit string, and a mask of the fields
    that are one of 1 to _MAX_DIGITS digits. Digits are read right-aligned:
    the byte k places before a field's end carries 10**k."""
    length = ends - starts
    ok = (length >= 1) & (length <= _MAX_DIGITS)
    value = np.zeros(length.shape, dtype=np.int64)
    for k in range(min(int(length.max(initial=0)), _MAX_DIGITS)):
        # Bytes before the field are masked off. An index before a block's
        # start wraps to its end: a row holds 7 commas and the buffer 16
        # spare bytes, so it stays in the buffer.
        digit = buf[ends - 1 - k] - np.uint8(ord("0"))  # wraps below '0'
        digit[k >= length] = 0
        ok &= digit <= 9
        value += digit * _POW10[k]
    return value, ok


def _timestamps(data: bytes, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """parse_timestamp of each field, and a mask of the fields it accepts."""
    length = ends - starts
    # The fraction follows a '.' among a field's final 7 bytes; with two,
    # either choice leaves a '.' that fails the digit checks.
    frac_len = np.full(length.shape, -1)
    for k in range(7):
        frac_len[(k < length) & (buf[ends - 1 - k] == ord("."))] = k
    has_frac = frac_len >= 0
    whole_end = np.where(has_frac, ends - 1 - frac_len, ends)
    sec, ok = _digits(buf, starts, whole_end)
    frac, frac_ok = _digits(buf, whole_end + 1, ends)
    ok &= frac_ok | ~has_frac
    ts = grid_seconds(sec, np.where(has_frac, frac * 10 ** (6 - frac_len), 0))
    for i in np.flatnonzero(whole_end - starts > _MAX_DIGITS).tolist():
        try:
            ts[i], ok[i] = parse_timestamp(_text(data, starts[i], ends[i])), True
        except ValueError:
            pass
    return ts, ok


def _uints(data: bytes, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Each field's value as an ASCII digit string, and a mask of the fields
    that are one. The values are an int64 array, or a list of Python ints
    when a field has more than _MAX_DIGITS digits, so that PacketTable
    reports a value beyond int64 as out of range."""
    value, ok = _digits(buf, starts, ends)
    long = np.flatnonzero(ends - starts > _MAX_DIGITS)
    if long.size == 0:
        return value, ok
    value = value.tolist()
    for i in long.tolist():
        raw = data[starts[i]:ends[i]]
        try:
            value[i], ok[i] = int(raw), raw.isdigit()
        except ValueError:  # not an integer, or beyond int()'s digit limit
            pass
    return value, ok


def _matches(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, word: bytes):
    """Mask of the fields that are exactly `word`."""
    hit = ends - starts == len(word)
    for k, byte in enumerate(word):
        hit &= buf[starts + k] == byte
    return hit


def _rank(values: np.ndarray) -> np.ndarray:
    """Index of each value among the distinct values, in sorted order."""
    return np.searchsorted(np.unique(values), values)


def _addresses(data: bytes, starts: np.ndarray, ends: np.ndarray, parsed: dict):
    """parse_addr of each field, -1 where it raises ValueError. It runs once
    per distinct text, with `parsed` (text to value) kept across calls.
    `data` must hold 16 bytes past the last field."""
    length = ends - starts
    # A text of up to 15 bytes is keyed by the two 8-byte words at its
    # start, with the bytes past its end masked off and its length in the
    # top byte. Longer texts share length 16 and a key per first 15 bytes;
    # no canonical address is that long, so each such key reads -1.
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    n = np.minimum(length, 15)
    n_lo = np.minimum(n, 8)
    lo = words[starts] & _BYTE_MASKS[n_lo]
    hi = (words[starts + 8] & _BYTE_MASKS[n - n_lo]
          | np.minimum(length, 16).astype(np.uint64) << np.uint64(56))
    lo, hi = _rank(lo), _rank(hi)
    key = _rank(lo * (hi.max(initial=0) + 1) + hi)
    row_of = np.zeros(key.max(initial=-1) + 1, dtype=np.int64)
    row_of[key] = np.arange(key.size)  # some row holding each distinct text

    def parse(i):
        raw = data[starts[i]:ends[i]]
        if raw not in parsed:
            try:
                parsed[raw] = parse_addr(raw.decode(errors="backslashreplace"))
            except ValueError:
                parsed[raw] = -1
        return parsed[raw]

    return np.array([parse(i) for i in row_of.tolist()], dtype=np.int64)[key]


def _narrow(values, dtype):
    """Parsed integers as `dtype` when every one fits, else as they are: the
    table built from the joined blocks sees the same numbers either way."""
    if isinstance(values, np.ndarray) and values.max(initial=0) <= np.iinfo(dtype).max:
        return values.astype(dtype)
    return values


def _join(blocks):
    """One column from its blocks: an array, or a list of Python ints when
    a block holds one, so that PacketTable reports a value beyond int64."""
    if any(isinstance(b, list) for b in blocks):
        return [v for b in blocks for v in (b if isinstance(b, list) else b.tolist())]
    return np.concatenate(blocks)


def _joined(blocks: List[tuple]) -> PacketTable:
    """The table of per-block columns (tuples in PacketTable order), which
    are let go one column at a time as they are joined."""
    columns = list(zip(*blocks))
    blocks.clear()
    return PacketTable(*(_join(columns.pop(0)) for _ in PacketTable.COLUMNS))


def _parse_block(rows: CsvFields):
    """The packet columns of one block of rows, in PacketTable order; the
    first bad line raises ParseError."""
    # 16 spare bytes let the gathers below read past any field's end; the
    # unpadded bytes are let go.
    rows = rows._replace(data=rows.data + bytes(16))
    data = rows.data
    buf = np.frombuffer(data, dtype=np.uint8)
    # Columns in CSV order: timestamp, src_addr, src_port, dst_addr,
    # dst_port, protocol, wire_len, is_retransmission.
    ts, ts_ok = _timestamps(data, buf, *rows.field(0))
    parsed: dict = {}
    src = _addresses(data, *rows.field(1), parsed)
    sport, sport_ok = _uints(data, buf, *rows.field(2))
    dst = _addresses(data, *rows.field(3), parsed)
    dport, dport_ok = _uints(data, buf, *rows.field(4))
    proto = np.zeros(len(rows.lines), dtype=np.uint8)
    for p in Protocol:
        proto[_matches(buf, *rows.field(5), p.name.encode())] = p
    wire_len, wlen_ok = _uints(data, buf, *rows.field(6))
    retx = _matches(buf, *rows.field(7), b"1")
    retx_ok = retx | _matches(buf, *rows.field(7), b"0")

    def text(j, i):
        starts, ends = rows.field(j)
        return _text(data, starts[i], ends[i])

    def timestamp_error(i):
        try:
            parse_timestamp(text(0, i))
        except ValueError as exc:
            return str(exc)

    checks = (
        (ts_ok, timestamp_error),
        (proto != 0, lambda i: f"unknown protocol {text(5, i)!r}"),
        (sport_ok & dport_ok & wlen_ok, lambda i: "ports and wire_len must be integers"),
        (retx_ok, lambda i: f"is_retransmission must be 0 or 1, got {text(7, i)!r}"),
        (src >= 0, lambda i: f"bad src_addr {text(1, i)!r}"),
        (dst >= 0, lambda i: f"bad dst_addr {text(3, i)!r}"),
    )
    bad = ~np.logical_and.reduce([ok for ok, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(msg for ok, msg in checks if not ok[i])
        raise ParseError(int(rows.lines[i]), message(i))
    if rows.error is not None:
        raise rows.error
    return (ts, src.astype(np.uint32), dst.astype(np.uint32), _narrow(sport, np.uint16),
            _narrow(dport, np.uint16), proto, _narrow(wire_len, np.uint32), retx)


def read_packet_csv(path) -> PacketTable:
    """Read a packet CSV (header CSV_HEADER) into a packet table, in file
    order, parsing each column of a block of lines whole.

    A timestamp is ASCII digits, optionally followed by '.' and 1-6
    digits; ports and wire_len are ASCII digits; the protocol is a
    Protocol name; is_retransmission is 0 or 1; addresses are read by
    parse_addr. The first bad line raises ParseError with the message of
    its first bad field, checked in that order with src_addr before
    dst_addr. A row whose fields parse but that breaks a PacketTable rule
    raises ParseError at its line once the whole file has parsed.
    """
    blocks = [_parse_block(rows) for rows in csv_fields(path, CSV_HEADER)]
    try:
        return _joined(blocks)
    except BadRow as exc:
        # Only an error needs line numbers, so they are split out again.
        lines = np.concatenate([rows.lines for rows in csv_fields(path, CSV_HEADER)])
        raise ParseError(int(lines[exc.row]), str(exc)) from None
