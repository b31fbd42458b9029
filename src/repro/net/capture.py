"""Packet trace capture — GQ's two-pronged recording strategy (§5.6).

The gateway records each subfarm's activity from the inmate network's
perspective (internal RFC 1918 addresses: cheap anonymity for data
sharing) and, separately, everything crossing the upstream interface
as seen outside GQ.  :class:`PacketTrace` is the in-memory store both
analysis and reporting read from; :func:`write_pcap` emits genuine
libpcap files for interoperability.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Iterator, List, Optional

from repro.net.flow import FiveTuple
from repro.net.packet import EthernetFrame, IPv4Packet, PROTO_TCP, PROTO_UDP

PCAP_MAGIC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1


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


class PacketTrace:
    """A capture buffer with query helpers and live observers.

    Two consumption models, mirroring §5.6/§6.5 practice:

    * *Post-hoc*: ``records`` holds captured frames for querying and
      pcap export.  ``max_records`` bounds the buffer (oldest frames
      rotate out, counted in ``rotated_out``) so day-scale runs do not
      hold every packet in memory.
    * *Streaming*: observers registered via :meth:`subscribe` see every
      record as it is captured — how the Bro-style analyzers process
      multi-day activity without retaining the packets.
    """

    def __init__(self, name: str = "trace",
                 max_records: Optional[int] = None) -> None:
        self.name = name
        self.max_records = max_records
        self.records: List[TraceRecord] = []
        self.rotated_out = 0
        self._observers: List[Callable[[TraceRecord], None]] = []

    def subscribe(self, observer: Callable[[TraceRecord], None]) -> None:
        """Register a live observer; it sees each record at capture."""
        self._observers.append(observer)

    def capture(self, timestamp: float, frame: EthernetFrame,
                point: str = "") -> None:
        """Record the frame itself.  Packets are immutable (see
        repro.net.packet), so the reference is the evidence: later
        rewrites build new headers and never reach a captured frame."""
        record = TraceRecord(timestamp, frame, point)
        for observer in self._observers:
            observer(record)
        self.records.append(record)
        if self.max_records is not None and len(self.records) > self.max_records:
            overflow = len(self.records) - self.max_records
            del self.records[:overflow]
            self.rotated_out += overflow

    def __len__(self) -> int:
        return len(self.records)

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
        """Filter records by capture point, VLAN tag, proto, dst port."""
        out = []
        for record in self.records:
            if point is not None and record.point != point:
                continue
            if vlan is not None and record.frame.vlan != vlan:
                continue
            ip = record.ip
            if proto is not None and (ip is None or ip.proto != proto):
                continue
            if dport is not None:
                if ip is None:
                    continue
                if ip.proto == PROTO_TCP and ip.tcp.dport != dport:
                    continue
                if ip.proto == PROTO_UDP and ip.udp.dport != dport:
                    continue
                if ip.proto not in (PROTO_TCP, PROTO_UDP):
                    continue
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
