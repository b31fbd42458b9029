"""Evidence integrity: captured frames are never rewritten after capture.

Packets are immutable (repro.net.packet), so a trace record holds the
captured frame itself rather than a copy.  These tests enforce that
contract end to end: an observer on every trace snapshots each record's
fields and a cache-free serialization at capture time, and after the
run every record must still carry exactly those fields and bytes —
both through a fresh serialization and through the frame's own
(possibly cached) ``to_bytes``.  A rewrite site that mutated a packet
instead of building a new header would corrupt earlier records here.
"""

from __future__ import annotations

import pytest

from repro.core.policy import AllowAll, ContainmentPolicy, ReflectAll
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.capture import PacketTrace
from repro.net.http import HttpResponse
from repro.net.packet import (
    ACK,
    PROTO_TCP,
    PROTO_UDP,
    PSH,
    EthernetFrame,
    IPv4Packet,
    TCPSegment,
    UDPDatagram,
)
from repro.services.dhcp import DhcpClient

from tests.test_containment_end_to_end import (
    EXTERNAL_WEB_IP,
    http_fetch_image,
    http_server,
)

IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")
MAC_A = MacAddress("02:00:00:00:00:0a")
MAC_B = MacAddress("02:00:00:00:00:0b")
OUTSIDER_IP = IPv4Address("198.51.100.200")
UDP_ECHO_PORT = 9999


def fields(frame: EthernetFrame) -> tuple:
    """Every header field of every layer, plus the payload bytes."""
    out = (frame.src, frame.dst, frame.vlan, frame.ethertype)
    ip = frame.payload
    if not isinstance(ip, IPv4Packet):
        return out + (bytes(ip),)
    out += (ip.src, ip.dst, ip.proto, ip.ttl, ip.ident)
    transport = ip.payload
    if isinstance(transport, TCPSegment):
        return out + (transport.sport, transport.dport, transport.seq,
                      transport.ack, transport.flags, transport.window,
                      transport.payload)
    if isinstance(transport, UDPDatagram):
        return out + (transport.sport, transport.dport, transport.payload)
    return out + (bytes(transport),)


def fresh_wire(frame: EthernetFrame) -> bytes:
    """Serialize ``frame`` through newly built objects, so no cached
    wire image of the captured ones takes part."""
    ip = frame.payload
    if isinstance(ip, IPv4Packet):
        transport = ip.payload
        if isinstance(transport, TCPSegment):
            transport = TCPSegment(transport.sport, transport.dport,
                                   transport.seq, transport.ack,
                                   transport.flags, transport.window,
                                   transport.payload)
        elif isinstance(transport, UDPDatagram):
            transport = UDPDatagram(transport.sport, transport.dport,
                                    transport.payload)
        ip = IPv4Packet(ip.src, ip.dst, transport, ip.proto, ip.ttl,
                        ip.ident)
    return EthernetFrame(frame.src, frame.dst, ip, frame.vlan,
                         frame.ethertype).to_bytes()


@pytest.fixture
def evidence(monkeypatch):
    """Subscribe a snapshotting observer to every trace built while the
    test runs; yields the list of (record, fields, wire) snapshots."""
    snapshots = []
    original_init = PacketTrace.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.subscribe(lambda record: snapshots.append(
            (record, fields(record.frame), fresh_wire(record.frame))))

    monkeypatch.setattr(PacketTrace, "__init__", init)
    return snapshots


def assert_untouched(snapshots) -> None:
    assert snapshots, "no frames were captured"
    for record, captured_fields, captured_wire in snapshots:
        assert fields(record.frame) == captured_fields, record
        assert fresh_wire(record.frame) == captured_wire, record
        assert record.frame.to_bytes() == captured_wire, record


def listener_image(port: int, udp_peer: IPv4Address):
    """An inmate that boots via DHCP, echoes whatever it is sent on TCP
    ``port`` — the target of unsolicited inbound flows — and sends a
    few UDP datagrams from one port to ``udp_peer``."""

    def image(host):
        def configured(h):
            def on_accept(conn):
                conn.on_data = lambda c, data: c.send(data)
                conn.on_remote_close = lambda c: c.close()

            h.tcp.listen(port, on_accept)
            for index in range(3):
                h.sim.schedule(5.0 + index, h.udp.sendto, b"ping" * 20,
                               udp_peer, UDP_ECHO_PORT, 5000)

        DhcpClient(host, on_configured=configured).start()

    return image


class Passthrough(ContainmentPolicy):
    """REWRITE with the default transparent proxy: the containment
    server opens the onward nonce leg to the real target."""

    def decide(self, ctx):
        return self.rewrite(ctx)


def slow_path_farm(fastpath: bool):
    """One subfarm whose traffic reaches every slow-path rewrite site:
    REFLECT and REWRITE (nonce leg out and back), a service host's
    recursive DNS lookup (service-NAT outbound and its return), and an
    outside host opening a flow to an inmate's global address
    (unsolicited inbound).  With the fast path off, established flows
    also relay through the slow path's per-packet rewrites."""
    from repro.net.dns import StubResolverClient
    from repro.world.builder import ExternalWorld

    farm = Farm(FarmConfig(seed=17))
    sub = farm.create_subfarm("evidence")
    sub.router.fastpath_enabled = fastpath
    sub.add_catchall_sink()
    world = ExternalWorld(farm)
    world.dns.add_a("cnc.example", IPv4Address("198.51.100.77"))
    http_server(farm.add_external_host("webserver", EXTERNAL_WEB_IP),
                body=HttpResponse(200, body=b"x" * 3000).to_bytes())

    reflect_image, _ = http_fetch_image()
    sub.create_inmate(image_factory=reflect_image, policy=ReflectAll())
    rewrite_image, rewrite_results = http_fetch_image(delay=2.0)
    sub.create_inmate(image_factory=rewrite_image, policy=Passthrough())
    listener = sub.create_inmate(
        image_factory=listener_image(8080, OUTSIDER_IP), policy=AllowAll())

    probe = sub.add_service_host("probe")
    resolved = []
    client = StubResolverClient(probe, sub.dns_ip)
    farm.sim.schedule(40.0, client.resolve, "cnc.example", resolved.append)

    outsider = farm.add_external_host("outsider", str(OUTSIDER_IP))
    echoed = []
    outsider.udp.bind(UDP_ECHO_PORT, lambda host, packet, datagram:
                      host.udp.sendto(datagram.payload, packet.src,
                                      datagram.sport, UDP_ECHO_PORT))

    def knock():
        conn = outsider.tcp.connect(sub.nat.global_for(listener.vlan), 8080)
        conn.on_established = lambda c: c.send(b"knock" * 100)
        conn.on_data = lambda c, data: echoed.append(data)

    farm.sim.schedule(60.0, knock, label="knock")
    farm.run(until=120)
    return farm, sub, rewrite_results, resolved, echoed


def outsider_udp_echoes(farm) -> int:
    return len(farm.gateway.upstream_trace.select(
        point="upstream-in", proto=PROTO_UDP, dport=5000))


class TestCapturedRecordsMatchCaptureTime:
    def test_golden_seed_farm(self, evidence):
        from repro.obs.__main__ import golden_farm

        golden_farm()
        assert_untouched(evidence)

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_slow_path_rewrite_sites(self, evidence, fastpath):
        farm, sub, rewrite_results, resolved, echoed = slow_path_farm(
            fastpath)
        # The scenario really reached each rewrite site.
        verdicts = sub.containment_server.verdict_counts
        assert verdicts.get("REFLECT", 0) >= 1
        assert verdicts.get("REWRITE", 0) >= 1
        assert any(not isinstance(r, str) and r.status == 200
                   for r in rewrite_results), "nonce leg never completed"
        assert resolved and resolved[0], "service-NAT reply never arrived"
        assert sub.router._service_nat, "no service-originated outbound"
        assert b"".join(echoed) == b"knock" * 100, "inbound not relayed"
        assert outsider_udp_echoes(farm) == 3, "UDP flow not relayed"
        assert any(not record.inmate_is_originator
                   for record in sub.router.flows())
        assert_untouched(evidence)


class TestDerivedPacketsStartClean:
    """``rebind``/``wrap`` outputs never inherit a stale wire image."""

    def test_tcp_rebind(self):
        segment = TCPSegment(1000, 80, seq=5, ack=6, flags=ACK | PSH,
                             payload=b"body")
        segment.to_bytes(IP_A, IP_B)  # populate the cache
        assert segment._wire is not None
        out = segment.rebind(2000, 81, 7, 8)
        assert out._wire is None
        expected = TCPSegment(2000, 81, 7, 8, ACK | PSH, payload=b"body")
        assert out.to_bytes(IP_A, IP_B) == expected.to_bytes(IP_A, IP_B)
        # The source keeps its own, still valid, image.
        assert segment.to_bytes(IP_A, IP_B) == TCPSegment(
            1000, 80, 5, 6, ACK | PSH, payload=b"body").to_bytes(IP_A, IP_B)

    def test_udp_rebind(self):
        datagram = UDPDatagram(53, 4000, b"answer")
        datagram.to_bytes(IP_A, IP_B)
        out = datagram.rebind(5353, 4001)
        assert out._wire is None
        assert out.to_bytes(IP_A, IP_B) == UDPDatagram(
            5353, 4001, b"answer").to_bytes(IP_A, IP_B)

    def test_ipv4_wrap_reserializes_under_new_addresses(self):
        segment = TCPSegment(1000, 80, seq=5, flags=ACK, payload=b"x")
        IPv4Packet(IP_A, IP_B, segment).to_bytes()  # cache under (A, B)
        moved = IPv4Packet.wrap(IP_B, IP_A, segment, PROTO_TCP, ttl=9,
                                ident=3)
        assert moved.to_bytes() == IPv4Packet(
            IP_B, IP_A, TCPSegment(1000, 80, seq=5, flags=ACK, payload=b"x"),
            ttl=9, ident=3).to_bytes()

    def test_ethernet_wrap_retags_without_touching_the_original(self):
        packet = IPv4Packet(IP_A, IP_B, UDPDatagram(1, 2, b"p"))
        tagged = EthernetFrame(MAC_A, MAC_B, packet, vlan=7)
        wire = tagged.to_bytes()
        untagged = EthernetFrame.wrap(MAC_A, MAC_B, packet, None)
        assert untagged.payload is packet
        assert untagged.to_bytes() == EthernetFrame(
            MAC_A, MAC_B, IPv4Packet(IP_A, IP_B, UDPDatagram(1, 2, b"p")),
        ).to_bytes()
        assert tagged.vlan == 7 and tagged.to_bytes() == wire
        assert packet.proto == PROTO_UDP
