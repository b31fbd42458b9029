"""The capture store: flat value records, the lazy ``records`` view and
the bounded ring (repro.net.capture)."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import AllowAll
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.arp import ETHERTYPE_ARP
from repro.net.capture import PacketTrace, TraceRecord, _flatten, _rebuild
from repro.net.packet import (
    ETHERTYPE_IPV4,
    SYN,
    EthernetFrame,
    IPv4Packet,
    TCPSegment,
    UDPDatagram,
)
from repro.services.dhcp import DhcpClient
from tests.test_evidence_integrity import fields

macs = st.integers(min_value=0, max_value=0xFFFFFFFFFFFF).map(MacAddress)
ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
ports = st.integers(min_value=0, max_value=65535)
words = st.integers(min_value=0, max_value=0xFFFFFFFF)
octets = st.integers(min_value=0, max_value=255)
tags = st.none() | st.integers(min_value=1, max_value=4094)
# Payloads arrive as bytes or as other buffers; the store snapshots both.
payloads = st.binary(max_size=64) | st.binary(max_size=64).map(bytearray)

tcp = st.builds(TCPSegment, ports, ports, words, words, octets, ports,
                payloads)
udp = st.builds(UDPDatagram, ports, ports, payloads)


@st.composite
def ipv4_packets(draw):
    transport = draw(tcp | udp | payloads)
    proto = (None if isinstance(transport, (TCPSegment, UDPDatagram))
             else draw(st.sampled_from([1, 47, 50, 132])))
    return IPv4Packet(draw(ips), draw(ips), transport, proto,
                      draw(octets), draw(ports))


@st.composite
def frames(draw):
    if draw(st.booleans()):
        payload, ethertype = draw(ipv4_packets()), ETHERTYPE_IPV4
    else:
        payload, ethertype = draw(payloads), ETHERTYPE_ARP
    return EthernetFrame(draw(macs), draw(macs), payload, draw(tags),
                         ethertype)


ATOMIC = (int, float, str, bytes, type(None))


class TestFlattenRebuild:
    @settings(max_examples=200)
    @given(frames(), st.floats(min_value=0, max_value=1e6),
           st.sampled_from(["inmate", "upstream-out", ""]))
    def test_round_trip_keeps_fields_and_wire_bytes(self, frame, timestamp,
                                                    point):
        flat = _flatten(timestamp, frame, point)
        assert all(type(value) in ATOMIC for value in flat)
        record = _rebuild(flat)
        assert (record.timestamp, record.point) == (timestamp, point)
        assert fields(record.frame) == fields(frame)
        assert record.frame.to_bytes() == frame.to_bytes()

    def test_snapshot_does_not_follow_a_mutable_payload(self):
        body = bytearray(b"before")
        frame = EthernetFrame(MacAddress(1), MacAddress(2), body,
                              ethertype=ETHERTYPE_ARP)
        trace = PacketTrace()
        trace.capture(0.0, frame)
        body[:] = b"after!"
        assert trace.records[0].frame.payload == b"before"

    def test_observers_get_the_live_frame(self):
        trace = PacketTrace()
        seen = []
        trace.subscribe(seen.append)
        original = syn_frame(0)
        trace.capture(1.0, original, point="inmate")
        assert isinstance(seen[0], TraceRecord)
        assert seen[0].frame is original


def syn_frame(index: int) -> EthernetFrame:
    return EthernetFrame(
        MacAddress(0x02_00_00_00_00_01), MacAddress(0x02_00_00_00_00_02),
        IPv4Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                   TCPSegment(1000 + index, 80, flags=SYN)),
        vlan=5)


def filled(count: int, max_records=None) -> PacketTrace:
    trace = PacketTrace(max_records=max_records)
    for index in range(count):
        trace.capture(float(index), syn_frame(index))
    return trace


def stamps(records) -> list:
    return [record.timestamp for record in records]


class TestRing:
    def test_bound_given_at_construction(self):
        trace = filled(25, max_records=10)
        assert trace.max_records == 10
        assert len(trace.records) == len(trace) == 10
        assert trace.rotated_out == 15
        assert stamps(trace.records) == [float(i) for i in range(15, 25)]
        assert trace.records[-1].timestamp == 24.0
        assert trace.records[-10].timestamp == 15.0
        assert stamps(trace.records[2:4]) == [17.0, 18.0]
        assert stamps(trace.records[::-4]) == [24.0, 20.0, 16.0]
        assert stamps(reversed(trace.records)) == [
            float(i) for i in range(24, 14, -1)]
        with pytest.raises(IndexError):
            trace.records[10]

    def test_bound_set_afterwards_shrinks_and_counts(self):
        trace = filled(20)
        assert trace.max_records is None and trace.rotated_out == 0
        trace.max_records = 8
        assert len(trace) == 8
        assert trace.rotated_out == 12
        assert stamps(trace.records) == [float(i) for i in range(12, 20)]
        for index in range(20, 25):
            trace.capture(float(index), syn_frame(index))
        assert trace.rotated_out == 17
        assert stamps(trace.records) == [float(i) for i in range(17, 25)]

    def test_growing_or_lifting_the_bound_drops_nothing(self):
        trace = filled(6, max_records=4)
        trace.max_records = 100
        trace.max_records = None
        for index in range(6, 10):
            trace.capture(float(index), syn_frame(index))
        assert trace.rotated_out == 2
        assert stamps(trace.records) == [float(i) for i in range(2, 10)]

    def test_records_view_is_read_only(self):
        trace = filled(3)
        with pytest.raises(AttributeError):
            trace.records = []
        with pytest.raises(TypeError):
            trace.records[0] = None


TARGET_IP = "203.0.113.80"


def ping_pong_farm() -> Farm:
    """One inmate echoing 64-byte chunks with an outside server: about
    260 captured frames per virtual second once it is running."""

    def image(host):
        def configured(h):
            def start():
                conn = h.tcp.connect(IPv4Address(TARGET_IP), 80)
                conn.on_established = lambda c: c.send(b"x" * 64)
                conn.on_data = lambda c, data: c.send(data)

            h.sim.schedule(1.0, start)

        DhcpClient(host, on_configured=configured).start()

    def echo(conn):
        conn.on_data = lambda c, data: c.send(data)

    farm = Farm(FarmConfig(seed=3))
    farm.add_external_host("echo", TARGET_IP).tcp.listen(80, echo)
    sub = farm.create_subfarm("store")
    sub.set_default_policy(AllowAll())
    sub.create_inmate(image_factory=image)
    return farm


PACKET_KINDS = (EthernetFrame, IPv4Packet, TCPSegment, TraceRecord)


def held_records(farm: Farm) -> int:
    return (sum(len(sub.router.trace) for sub in farm.subfarms.values())
            + len(farm.gateway.upstream_trace))


def live_packet_objects() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, PACKET_KINDS))


class TestEvidenceIsInvisibleToTheCollector:
    def test_live_packet_objects_do_not_grow_with_the_trace(self):
        farm = ping_pong_farm()
        farm.run(until=70)
        early_records, early_live = held_records(farm), live_packet_objects()
        farm.run(until=130)
        records, live = held_records(farm), live_packet_objects()
        assert records > 10_000
        assert records - early_records > 5_000
        # Each frame used to be four tracked objects; now what is live
        # is in-flight state only, the same early and late.
        assert live - early_live <= 16
        assert live < 100
