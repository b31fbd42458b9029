"""Packet trace capture — GQ's two-pronged recording strategy (§5.6).

The gateway records each subfarm's activity from the inmate network's
perspective (internal RFC 1918 addresses: cheap anonymity for data
sharing) and, separately, everything crossing the upstream interface
as seen outside GQ.  :class:`PacketTrace` is the in-memory store both
analysis and reporting read from; :func:`write_pcap` emits genuine
libpcap files for interoperability.

Evidence is stored as values, not objects.  Each captured frame
becomes one flat tuple of atomic fields (timestamp, capture point,
address ints, header fields, payload ``bytes``), which CPython stops
tracking at its first young collection: a trace of a million frames
costs its bytes and nothing in any later full collection.  Reading a
trace rebuilds :class:`TraceRecord` objects one at a time; packet
serialization is a pure function of those fields, so a rebuilt
frame's ``to_bytes()`` is byte-identical to the captured one's.
"""

from __future__ import annotations

import struct
from collections import deque
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Optional, Union

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.flow import FiveTuple
from repro.net.packet import (EthernetFrame, IPv4Packet, PROTO_TCP,
                              PROTO_UDP, TCPSegment, UDPDatagram)

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1

# Flat record layouts, told apart by length.  Every one starts with
# (timestamp, point, src MAC, dst MAC, vlan, ethertype); IPv4 frames
# go on with (src IP, dst IP, proto, ttl, ident), then TCP's (sport,
# dport, seq, ack, flags, window) or UDP's (sport, dport); the payload
# bytes always come last.  Any other IPv4 payload makes 12 fields.
_FLAT_NON_IP = 7
_FLAT_UDP = 14
_FLAT_TCP = 18


def _snapshot(payload) -> bytes:
    return payload if type(payload) is bytes else bytes(payload)


def _flatten(timestamp: float, frame: EthernetFrame, point: str) -> tuple:
    """One captured frame as a tuple of atomic values (see the layouts
    above).  Dispatches on payload type exactly as ``to_bytes`` does."""
    ip = frame.payload
    if not isinstance(ip, IPv4Packet):
        return (timestamp, point, frame.src.value, frame.dst.value,
                frame.vlan, frame.ethertype, _snapshot(ip))
    transport = ip.payload
    if isinstance(transport, TCPSegment):
        return (timestamp, point, frame.src.value, frame.dst.value,
                frame.vlan, frame.ethertype,
                ip.src.value, ip.dst.value, ip.proto, ip.ttl, ip.ident,
                transport.sport, transport.dport, transport.seq,
                transport.ack, transport.flags, transport.window,
                _snapshot(transport.payload))
    if isinstance(transport, UDPDatagram):
        return (timestamp, point, frame.src.value, frame.dst.value,
                frame.vlan, frame.ethertype,
                ip.src.value, ip.dst.value, ip.proto, ip.ttl, ip.ident,
                transport.sport, transport.dport,
                _snapshot(transport.payload))
    return (timestamp, point, frame.src.value, frame.dst.value,
            frame.vlan, frame.ethertype,
            ip.src.value, ip.dst.value, ip.proto, ip.ttl, ip.ident,
            _snapshot(transport))


def _rebuild(flat: tuple) -> "TraceRecord":
    """The :class:`TraceRecord` a flat tuple was made from: equal
    fields, byte-identical ``to_bytes()``."""
    size = len(flat)
    if size == _FLAT_NON_IP:
        payload = flat[6]
    else:
        if size == _FLAT_TCP:
            transport = TCPSegment(flat[11], flat[12], flat[13], flat[14],
                                   flat[15], flat[16], flat[17])
        elif size == _FLAT_UDP:
            transport = UDPDatagram(flat[11], flat[12], flat[13])
        else:
            transport = flat[11]
        payload = IPv4Packet.wrap(IPv4Address(flat[6]), IPv4Address(flat[7]),
                                  transport, flat[8], flat[9], flat[10])
    frame = EthernetFrame.wrap(MacAddress(flat[2]), MacAddress(flat[3]),
                               payload, flat[4], flat[5])
    return TraceRecord(flat[0], frame, flat[1])


class TraceRecord:
    """One captured frame with its capture timestamp and point."""

    __slots__ = ("timestamp", "frame", "point")

    def __init__(self, timestamp: float, frame: EthernetFrame, point: str) -> None:
        self.timestamp = timestamp
        self.frame = frame
        self.point = point

    @property
    def ip(self) -> Optional[IPv4Packet]:
        payload = self.frame.payload
        return payload if isinstance(payload, IPv4Packet) else None

    @property
    def five_tuple(self) -> Optional[FiveTuple]:
        ip = self.ip
        if ip is None or ip.proto not in (PROTO_TCP, PROTO_UDP):
            return None
        try:
            return FiveTuple.from_packet(ip)
        except ValueError:
            return None

    def __repr__(self) -> str:
        return f"<TraceRecord t={self.timestamp:.6f} {self.point} {self.frame!r}>"


class TraceRecords:
    """Read-only view of a trace's stored records, oldest first.

    ``len()`` is O(1).  Iteration and indexing (negative indices too)
    rebuild one :class:`TraceRecord` per item as it is reached, so
    walking a large trace never holds more than one rebuilt record at
    a time; a slice returns a list.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "PacketTrace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace._store)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_rebuild, self._trace._store)

    def __reversed__(self) -> Iterator[TraceRecord]:
        return map(_rebuild, reversed(self._trace._store))

    def __getitem__(self, index: Union[int, slice]):
        store = self._trace._store
        if isinstance(index, slice):
            start, stop, step = index.indices(len(store))
            if step > 0:
                chosen = islice(store, start, stop, step)
            else:
                chosen = (store[i] for i in range(start, stop, step))
            return [_rebuild(flat) for flat in chosen]
        return _rebuild(store[index])


class PacketTrace:
    """A capture buffer with query helpers and live observers.

    Two consumption models, mirroring §5.6/§6.5 practice:

    * *Post-hoc*: ``records`` is a read-only, lazily rebuilt view of
      the stored frames for querying and pcap export.  The store is a
      ring: ``max_records`` bounds it (the oldest frame rotates out in
      O(1) per capture, counted in ``rotated_out``) so day-scale runs
      do not hold every packet in memory.  It may be set after
      construction; shrinking drops, and counts, the oldest frames.
    * *Streaming*: observers registered via :meth:`subscribe` see every
      record as it is captured, holding the live frame — how the
      Bro-style analyzers process multi-day activity without retaining
      the packets.
    """

    def __init__(self, name: str = "trace",
                 max_records: Optional[int] = None) -> None:
        self.name = name
        self._store: deque = deque(maxlen=max_records)
        self.rotated_out = 0
        self._observers: List[Callable[[TraceRecord], None]] = []

    @property
    def records(self) -> TraceRecords:
        return TraceRecords(self)

    @property
    def max_records(self) -> Optional[int]:
        return self._store.maxlen

    @max_records.setter
    def max_records(self, value: Optional[int]) -> None:
        store = deque(self._store, maxlen=value)
        self.rotated_out += len(self._store) - len(store)
        self._store = store

    def subscribe(self, observer: Callable[[TraceRecord], None]) -> None:
        """Register a live observer; it sees each record at capture."""
        self._observers.append(observer)

    def capture(self, timestamp: float, frame: EthernetFrame,
                point: str = "") -> None:
        """Record a value snapshot of the frame; observers get a
        record holding the frame itself."""
        if self._observers:
            record = TraceRecord(timestamp, frame, point)
            for observer in self._observers:
                observer(record)
        store = self._store
        if len(store) == store.maxlen:
            self.rotated_out += 1
        store.append(_flatten(timestamp, frame, point))

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(
        self,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
        point: Optional[str] = None,
        vlan: Optional[int] = None,
        proto: Optional[int] = None,
        dport: Optional[int] = None,
    ) -> List[TraceRecord]:
        """Filter records by capture point, VLAN tag, proto, dst port.

        The field filters read the stored tuples; only frames that pass
        them are rebuilt (and offered to ``predicate``)."""
        out = []
        for flat in self._store:
            if point is not None and flat[1] != point:
                continue
            if vlan is not None and flat[4] != vlan:
                continue
            if proto is not None and (len(flat) == _FLAT_NON_IP
                                      or flat[8] != proto):
                continue
            if dport is not None and (len(flat) not in (_FLAT_TCP, _FLAT_UDP)
                                      or flat[12] != dport):
                continue
            record = _rebuild(flat)
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def flows(self) -> List[FiveTuple]:
        """Distinct originator-oriented five-tuples, first-seen order.

        A flow's originator is whoever sent the first packet we saw;
        for TCP that is the SYN sender.
        """
        seen = {}
        for record in self.records:
            key = record.five_tuple
            if key is None:
                continue
            if key in seen or key.reversed() in seen:
                continue
            seen[key] = True
        return list(seen)

    def tcp_payload(self, flow: FiveTuple, direction: str = "orig") -> bytes:
        """Concatenated TCP payload bytes for one direction of a flow.

        Duplicate segments (same sequence number) are ignored so NAT'd
        captures of retransmissions do not double bytes.
        """
        seen = set()
        chunks = []
        for record in self.records:
            ip = record.ip
            if ip is None or ip.proto != PROTO_TCP:
                continue
            match = flow.matches_packet(ip)
            if match is None or match.value != direction:
                continue
            segment = ip.tcp
            if not segment.payload or segment.seq in seen:
                continue
            seen.add(segment.seq)
            chunks.append((segment.seq, segment.payload))
        chunks.sort(key=lambda pair: pair[0])
        return b"".join(payload for _seq, payload in chunks)


def write_pcap(path: str, records: Iterable[TraceRecord],
               snaplen: int = 65535) -> int:
    """Write records as a classic libpcap file; returns frames written.

    Frames longer than ``snaplen`` are snapped: ``incl_len`` records
    the bytes actually stored, ``orig_len`` the wire length, exactly
    as libpcap specifies.
    """
    if snaplen <= 0:
        raise ValueError("snaplen must be positive")
    count = 0
    with open(path, "wb") as handle:
        handle.write(
            struct.pack(
                "!IHHiIII",
                PCAP_MAGIC, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET,
            )
        )
        for record in records:
            data = record.frame.to_bytes()
            seconds = int(record.timestamp)
            micros = int(round((record.timestamp - seconds) * 1_000_000))
            if micros >= 1_000_000:
                # Sub-microsecond timestamps round up past the second
                # boundary (e.g. t = 3.9999999); carry, never emit an
                # out-of-range microseconds field.
                seconds += micros // 1_000_000
                micros %= 1_000_000
            incl = data[:snaplen]
            handle.write(struct.pack("!IIII", seconds, micros,
                                     len(incl), len(data)))
            handle.write(incl)
            count += 1
    return count


def read_pcap(path: str) -> List[TraceRecord]:
    """Read a classic libpcap file written by :func:`write_pcap`.

    Snapped records (``incl_len < orig_len``) whose remaining bytes no
    longer parse as a frame are skipped; a record body shorter than
    its own ``incl_len`` means the file itself is truncated and is an
    error.
    """
    records = []
    with open(path, "rb") as handle:
        header = handle.read(24)
        if len(header) < 24:
            raise ValueError("truncated pcap header")
        (magic,) = struct.unpack("!I", header[:4])
        if magic != PCAP_MAGIC:
            raise ValueError("not a pcap file (or unsupported byte order)")
        while True:
            record_header = handle.read(16)
            if not record_header:
                break
            if len(record_header) < 16:
                raise ValueError("truncated pcap record header")
            seconds, micros, caplen, origlen = struct.unpack(
                "!IIII", record_header)
            data = handle.read(caplen)
            if len(data) < caplen:
                raise ValueError("truncated pcap record")
            try:
                frame = EthernetFrame.from_bytes(data)
            except Exception:
                if caplen < origlen:
                    continue  # snapped beyond parseability
                raise
            records.append(TraceRecord(seconds + micros / 1_000_000, frame, "pcap"))
    return records
