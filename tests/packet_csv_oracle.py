"""Reference packet CSV codec: one text line at a time, one Python value
per field, the form `packets.read_packet_csv` and `write_packet_csv` had
before they worked on whole columns.

The column reader must agree with read_packet_csv here: the same table
where this accepts, the same line and message where this raises
ParseError. The only inputs where they may differ are integer fields that
`int()` accepts but that are not plain ASCII digits (signs, spaces,
underscores, non-ASCII digits), which the column reader rejects, and
non-UTF-8 bytes, where this raises UnicodeDecodeError without a line.

The column writer must write the same bytes as write_packet_csv here.
Both write a -0.0 timestamp as 0.000000, the text of the grid time 0.
"""

from typing import List

import numpy as np

from imbalidx.packets import (
    CSV_HEADER,
    BadRow,
    PacketTable,
    Protocol,
    format_addr,
    parse_addr,
    parse_timestamp,
)
from imbalidx.textio import ParseError


def csv_rows(path, header: str):
    """(line number, fields) per non-blank row, reading the file in text
    mode with universal newlines."""
    n_fields = header.count(",") + 1
    with open(path, "r", newline="") as f:
        if f.readline().rstrip("\r\n") != header:
            raise ParseError(1, f"expected header {header!r}")
        for line_no, raw in enumerate(f, start=2):
            raw = raw.rstrip("\r\n")
            if not raw:
                continue
            fields = raw.split(",")
            if len(fields) != n_fields:
                raise ParseError(line_no, f"expected {n_fields} fields, got {len(fields)}")
            yield line_no, fields


def read_packet_csv(path) -> PacketTable:
    protocols = {p.name: p.value for p in Protocol}
    addrs: dict = {}
    cols: List[list] = [[] for _ in PacketTable.COLUMNS]
    ts, src, dst, sport, dport, proto, wire_len, retx = cols
    lines: List[int] = []
    for line_no, fields in csv_rows(path, CSV_HEADER):
        ts_s, src_s, sport_s, dst_s, dport_s, proto_s, wlen_s, retx_s = fields
        try:
            ts.append(parse_timestamp(ts_s))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if proto_s not in protocols:
            raise ParseError(line_no, f"unknown protocol {proto_s!r}")
        proto.append(protocols[proto_s])
        try:
            sport.append(int(sport_s))
            dport.append(int(dport_s))
            wire_len.append(int(wlen_s))
        except ValueError:
            raise ParseError(line_no, "ports and wire_len must be integers") from None
        if retx_s not in ("0", "1"):
            raise ParseError(line_no, f"is_retransmission must be 0 or 1, got {retx_s!r}")
        retx.append(retx_s == "1")
        for name, text, col in (("src_addr", src_s, src), ("dst_addr", dst_s, dst)):
            value = addrs.get(text)
            if value is None:
                try:
                    value = addrs[text] = parse_addr(text)
                except ValueError:
                    raise ParseError(line_no, f"bad {name} {text!r}") from None
            col.append(value)
        lines.append(line_no)
    try:
        return PacketTable(*cols)
    except BadRow as exc:
        raise ParseError(lines[exc.row], str(exc)) from None


def write_packet_csv(packets: PacketTable, path) -> None:
    proto_names = {p.value: p.name for p in Protocol}
    rows = zip(
        packets.ts.tolist(), packets.src.tolist(), packets.sport.tolist(),
        packets.dst.tolist(), packets.dport.tolist(),
        [proto_names[p] for p in packets.proto.tolist()],
        packets.wire_len.tolist(), packets.retx.view(np.uint8).tolist(),
    )
    with open(path, "w", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for ts, src, sport, dst, dport, proto, wire_len, retx in rows:
            if ts == 0:
                ts = 0.0  # -0.0 too, which the reader would refuse for its sign
            f.write(f"{ts:.6f},{format_addr(src)},{sport},{format_addr(dst)},{dport},"
                    f"{proto},{wire_len},{retx}\n")
