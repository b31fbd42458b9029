"""TCP endpoint state machine.

A deliberately honest TCP: real 32-bit sequence numbers over a byte
stream, a proper three-way handshake, FIN/RST teardown, and an
in-order reassembly buffer.  What it omits — retransmission,
congestion control, window management — the simulated links make
unnecessary (they are reliable and in-order), and none of it matters
to containment semantics.

The realism that *does* matter is the sequence space: GQ's gateway
injects shim messages into live connections by synthesizing segments
and offsetting every subsequent sequence/acknowledgement number
(paper Figure 5).  Endpoints here will genuinely desynchronize and
stall if the gateway's bumping arithmetic is wrong, which is exactly
the property the tests lean on.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.addresses import IPv4Address
from repro.net.packet import (ACK, FIN, IPv4Packet, PROTO_TCP, PSH, RST, SYN,
                              TCPSegment)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.host import Host

MSS = 1460

SEQ_MOD = 1 << 32


def seq_add(a: int, b: int) -> int:
    """Modular 32-bit sequence addition."""
    return (a + b) % SEQ_MOD


def seq_sub(a: int, b: int) -> int:
    """Modular 32-bit sequence subtraction."""
    return (a - b) % SEQ_MOD


def seq_shift_many(values, delta: int) -> List[int]:
    """Shift a column of sequence numbers by ``delta`` mod 2^32.

    The batched datapath's vectorized form of :func:`seq_add`: one
    residue reduction for the whole column, then a single-comprehension
    mask per element (struct-of-arrays translation of a flow entry's
    seq/ack delta over a run of packets).
    """
    shift = delta % SEQ_MOD
    if not shift:
        return list(values)
    return [(value + shift) & 0xFFFFFFFF for value in values]


def seq_lt(a: int, b: int) -> bool:
    """True if a < b in modular sequence space."""
    return 0 < seq_sub(b, a) < (SEQ_MOD // 2)

def seq_le(a: int, b: int) -> bool:
    """True if a <= b in modular sequence space."""
    return a == b or seq_lt(a, b)


class TcpState(enum.Enum):
    """The RFC 793 connection states this stack implements."""

    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"
    CLOSING = "closing"
    TIME_WAIT = "time-wait"


class TcpConnection:
    """One endpoint of a TCP connection.

    Applications interact through :meth:`send`, :meth:`close`,
    :meth:`abort` and the callback slots ``on_established``,
    ``on_data``, ``on_remote_close``, ``on_closed``, ``on_reset`` and
    ``on_fail``.  Callbacks receive the connection as sole argument
    except ``on_data``, which receives ``(conn, data)``.
    """

    def __init__(
        self,
        host: "Host",
        local_ip: IPv4Address,
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
    ) -> None:
        self.host = host
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port

        self.state = TcpState.CLOSED
        self.iss = 0           # initial send sequence
        self.snd_nxt = 0       # next sequence to send
        self.rcv_nxt = 0       # next sequence expected
        self.irs = 0           # initial receive sequence

        self._send_buffer = bytearray()
        self._fin_pending = False
        self._fin_sent = False
        self._reassembly: Dict[int, bytes] = {}

        self.bytes_sent = 0
        self.bytes_received = 0
        self.opened_at: Optional[float] = None
        self.established_at: Optional[float] = None
        self.closed_at: Optional[float] = None

        # Application callbacks.
        self.on_established: Optional[Callable[["TcpConnection"], None]] = None
        self.on_data: Optional[Callable[["TcpConnection", bytes], None]] = None
        self.on_remote_close: Optional[Callable[["TcpConnection"], None]] = None
        self.on_closed: Optional[Callable[["TcpConnection"], None]] = None
        self.on_reset: Optional[Callable[["TcpConnection"], None]] = None
        self.on_fail: Optional[Callable[["TcpConnection"], None]] = None

        # Opaque slot for applications to hang per-connection state on.
        self.app: object = None

    # ------------------------------------------------------------------
    @property
    def key(self) -> Tuple[IPv4Address, int, IPv4Address, int]:
        return (self.local_ip, self.local_port, self.remote_ip, self.remote_port)

    @property
    def is_open(self) -> bool:
        return self.state in (
            TcpState.ESTABLISHED,
            TcpState.CLOSE_WAIT,
        )

    @property
    def fully_closed(self) -> bool:
        return self.state in (TcpState.CLOSED, TcpState.TIME_WAIT)

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------
    def send(self, data: bytes) -> None:
        """Queue application bytes for transmission."""
        if self.state == TcpState.CLOSED and self.opened_at is None:
            # Connection not yet opened (SYN deferred a tick, or server
            # accept callback running before the SYN is processed):
            # queue the bytes; they flush at establishment.
            self._send_buffer.extend(data)
            return
        if self.state not in (
            TcpState.ESTABLISHED,
            TcpState.CLOSE_WAIT,
            TcpState.SYN_SENT,
            TcpState.SYN_RCVD,
        ):
            raise RuntimeError(f"cannot send in state {self.state}")
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("cannot send after close()")
        self._send_buffer.extend(data)
        if self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            self._flush()

    def close(self) -> None:
        """Half-close: flush pending data then send FIN."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        if self._fin_pending or self._fin_sent:
            return
        self._fin_pending = True
        if self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            self._flush()

    def abort(self) -> None:
        """Send RST and drop to CLOSED immediately."""
        if self.state not in (TcpState.CLOSED, TcpState.LISTEN):
            self._emit(flags=RST | ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
        self._enter_closed(notify_reset=False)

    # ------------------------------------------------------------------
    # Stack-internal API
    # ------------------------------------------------------------------
    def open_active(self) -> None:
        """Begin the three-way handshake (client side)."""
        self.iss = self.host.tcp.pick_isn()
        self.snd_nxt = seq_add(self.iss, 1)
        self.state = TcpState.SYN_SENT
        self.opened_at = self.host.sim.now
        self._emit(flags=SYN, seq=self.iss, ack=0)

    def segment_arrived(self, segment: TCPSegment) -> None:
        """The stack demultiplexed a segment to this connection."""
        if self.state == TcpState.SYN_SENT:
            self._handle_syn_sent(segment)
            return
        if self.state == TcpState.CLOSED:
            return

        if segment.rst:
            self._enter_closed(notify_reset=True)
            return

        if segment.syn and self.state == TcpState.SYN_RCVD:
            # Retransmitted SYN from peer: re-ack.
            self._emit(flags=SYN | ACK, seq=self.iss, ack=self.rcv_nxt)
            return

        if self.state == TcpState.SYN_RCVD and segment.has_ack:
            if segment.ack == self.snd_nxt:
                self._enter_established()
            # fall through to process any piggybacked payload

        self._process_payload(segment)
        self._process_ack_side_effects(segment)

        if segment.fin:
            self._handle_fin(segment)

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def _handle_syn_sent(self, segment: TCPSegment) -> None:
        if segment.rst:
            self.state = TcpState.CLOSED
            if self.on_fail:
                self.on_fail(self)
            self.host.tcp.forget(self)
            return
        if segment.syn and segment.has_ack and segment.ack == self.snd_nxt:
            self.irs = segment.seq
            self.rcv_nxt = seq_add(segment.seq, 1)
            self._emit(flags=ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
            self._enter_established()
            if segment.payload:
                self._process_payload(segment)

    def handle_passive_syn(self, segment: TCPSegment) -> None:
        """Server side: respond to an incoming SYN."""
        self.irs = segment.seq
        self.rcv_nxt = seq_add(segment.seq, 1)
        self.iss = self.host.tcp.pick_isn()
        self.snd_nxt = seq_add(self.iss, 1)
        self.state = TcpState.SYN_RCVD
        self.opened_at = self.host.sim.now
        self._emit(flags=SYN | ACK, seq=self.iss, ack=self.rcv_nxt)

    def _enter_established(self) -> None:
        self.state = TcpState.ESTABLISHED
        self.established_at = self.host.sim.now
        if self.on_established:
            self.on_established(self)
        self._flush()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _process_payload(self, segment: TCPSegment) -> None:
        if not segment.payload:
            return
        seg_seq = segment.seq
        payload = segment.payload
        # Trim any already-received prefix.
        if seq_lt(seg_seq, self.rcv_nxt):
            overlap = seq_sub(self.rcv_nxt, seg_seq)
            if overlap >= len(payload):
                self._send_ack()
                return
            payload = payload[overlap:]
            seg_seq = self.rcv_nxt
        if seg_seq != self.rcv_nxt:
            # Out of order: buffer for later.
            self._reassembly[seg_seq] = payload
            self._send_ack()
            return
        self._deliver(payload)
        # Drain any contiguous buffered segments.
        while self.rcv_nxt in self._reassembly:
            self._deliver(self._reassembly.pop(self.rcv_nxt))
        self._send_ack()

    def _deliver(self, payload: bytes) -> None:
        self.rcv_nxt = seq_add(self.rcv_nxt, len(payload))
        self.bytes_received += len(payload)
        if self.on_data:
            self.on_data(self, payload)

    def _process_ack_side_effects(self, segment: TCPSegment) -> None:
        if not segment.has_ack:
            return
        if self.state == TcpState.FIN_WAIT_1 and segment.ack == self.snd_nxt:
            self.state = TcpState.FIN_WAIT_2
        elif self.state == TcpState.CLOSING and segment.ack == self.snd_nxt:
            self._enter_time_wait()
        elif self.state == TcpState.LAST_ACK and segment.ack == self.snd_nxt:
            self._enter_closed(notify_reset=False)

    def _handle_fin(self, segment: TCPSegment) -> None:
        fin_seq = seq_add(segment.seq, len(segment.payload))
        if fin_seq != self.rcv_nxt:
            return  # FIN for data we have not seen; ignore (no retransmit model)
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)
        self._send_ack()
        if self.state in (TcpState.ESTABLISHED, TcpState.SYN_RCVD):
            self.state = TcpState.CLOSE_WAIT
            if self.on_remote_close:
                self.on_remote_close(self)
        elif self.state == TcpState.FIN_WAIT_1:
            self.state = TcpState.CLOSING
        elif self.state == TcpState.FIN_WAIT_2:
            self._enter_time_wait()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        while self._send_buffer:
            chunk = bytes(self._send_buffer[:MSS])
            del self._send_buffer[:MSS]
            flags = ACK | PSH
            fin_here = self._fin_pending and not self._send_buffer
            if fin_here:
                flags |= FIN
                self._fin_pending = False
                self._fin_sent = True
            self._emit(flags=flags, seq=self.snd_nxt, ack=self.rcv_nxt, payload=chunk)
            self.snd_nxt = seq_add(self.snd_nxt, len(chunk) + (1 if fin_here else 0))
            self.bytes_sent += len(chunk)
            if fin_here:
                self._after_fin_sent()
        if self._fin_pending:
            self._fin_pending = False
            self._fin_sent = True
            self._emit(flags=FIN | ACK, seq=self.snd_nxt, ack=self.rcv_nxt)
            self.snd_nxt = seq_add(self.snd_nxt, 1)
            self._after_fin_sent()

    def _after_fin_sent(self) -> None:
        if self.state == TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state == TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK

    def _send_ack(self) -> None:
        self._emit(flags=ACK, seq=self.snd_nxt, ack=self.rcv_nxt)

    def _emit(self, flags: int, seq: int, ack: int, payload: bytes = b"") -> None:
        segment = TCPSegment(
            sport=self.local_port,
            dport=self.remote_port,
            seq=seq,
            ack=ack,
            flags=flags,
            payload=payload,
        )
        self.host.send_ip(IPv4Packet.wrap(self.local_ip, self.remote_ip,
                                          segment, PROTO_TCP))

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self.closed_at = self.host.sim.now
        if self.on_closed:
            self.on_closed(self)
        # 2*MSL would hold the tuple; a short linger suffices here.
        self.host.sim.schedule(1.0, self._expire_time_wait, label="time-wait")

    def _expire_time_wait(self) -> None:
        if self.state == TcpState.TIME_WAIT:
            self.state = TcpState.CLOSED
            self.host.tcp.forget(self)

    def _enter_closed(self, notify_reset: bool) -> None:
        was_open = self.state not in (TcpState.CLOSED,)
        self.state = TcpState.CLOSED
        self.closed_at = self.host.sim.now
        if notify_reset and self.on_reset:
            self.on_reset(self)
        elif was_open and not notify_reset and self.on_closed:
            self.on_closed(self)
        self.host.tcp.forget(self)

    def __repr__(self) -> str:
        return (
            f"<TcpConnection {self.local_ip}:{self.local_port}->"
            f"{self.remote_ip}:{self.remote_port} {self.state.value}>"
        )


class TcpListener:
    """A passive socket: accepts SYNs on a port."""

    def __init__(
        self,
        port: int,
        on_accept: Callable[[TcpConnection], None],
    ) -> None:
        self.port = port
        self.on_accept = on_accept
        self.accepted = 0


class TcpStack:
    """Per-host TCP: demultiplexing, listeners, ephemeral ports."""

    EPHEMERAL_BASE = 1024

    def __init__(self, host: "Host") -> None:
        self.host = host
        self._connections: Dict[
            Tuple[IPv4Address, int, IPv4Address, int], TcpConnection
        ] = {}
        self._listeners: Dict[int, TcpListener] = {}
        self._any_listener: Optional[TcpListener] = None
        self._next_ephemeral = self.EPHEMERAL_BASE
        self.resets_sent = 0

    # ------------------------------------------------------------------
    def pick_isn(self) -> int:
        """Random ISN from the host's deterministic RNG stream."""
        return self.host.rng.randrange(1 << 32)

    def allocate_port(self) -> int:
        for _ in range(64512):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 65535:
                self._next_ephemeral = self.EPHEMERAL_BASE
            if port not in self._listeners and not any(
                key[1] == port for key in self._connections
            ):
                return port
        raise RuntimeError("ephemeral port space exhausted")

    # ------------------------------------------------------------------
    def listen(
        self, port: int, on_accept: Callable[[TcpConnection], None]
    ) -> TcpListener:
        if port in self._listeners:
            raise RuntimeError(f"port {port} already listening")
        listener = TcpListener(port, on_accept)
        self._listeners[port] = listener
        return listener

    def listen_any(
        self, on_accept: Callable[[TcpConnection], None]
    ) -> TcpListener:
        """Wildcard listener: accept SYNs on *any* port without a more
        specific listener.  Catch-all sink servers rely on this."""
        listener = TcpListener(-1, on_accept)
        self._any_listener = listener
        return listener

    def unlisten(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(
        self,
        remote_ip: IPv4Address,
        remote_port: int,
        local_port: Optional[int] = None,
    ) -> TcpConnection:
        if self.host.ip is None:
            raise RuntimeError(f"host {self.host.name} has no IP address yet")
        local_port = local_port if local_port is not None else self.allocate_port()
        conn = TcpConnection(
            self.host, self.host.ip, local_port, IPv4Address(remote_ip), remote_port
        )
        self._connections[conn.key] = conn
        # Defer the SYN one scheduler tick so callers can set callbacks first.
        self.host.sim.schedule(0.0, conn.open_active, label="tcp-connect")
        return conn

    def forget(self, conn: TcpConnection) -> None:
        self._connections.pop(conn.key, None)

    def connection_count(self) -> int:
        return len(self._connections)

    def connections(self) -> List[TcpConnection]:
        return list(self._connections.values())

    # ------------------------------------------------------------------
    def packet_arrived(self, packet: IPv4Packet) -> None:
        segment = packet.tcp
        key = (packet.dst, segment.dport, packet.src, segment.sport)
        conn = self._connections.get(key)
        if conn is not None:
            # A pure SYN with a new ISN on an established tuple is a
            # new incarnation (the peer was reverted/rebooted and is
            # reusing its ports): retire the stale connection and let
            # the listener take the SYN.
            if (segment.syn and not segment.has_ack
                    and conn.state not in (TcpState.SYN_SENT,
                                           TcpState.SYN_RCVD)
                    and segment.seq != conn.irs):
                conn._enter_closed(notify_reset=True)
            else:
                conn.segment_arrived(segment)
                return
        if segment.syn and not segment.has_ack:
            listener = self._listeners.get(segment.dport) or self._any_listener
            if listener is not None:
                conn = TcpConnection(
                    self.host, packet.dst, segment.dport, packet.src, segment.sport
                )
                self._connections[conn.key] = conn
                listener.accepted += 1
                listener.on_accept(conn)
                conn.handle_passive_syn(segment)
                return
        if not segment.rst:
            self._send_reset(packet)

    def _send_reset(self, packet: IPv4Packet) -> None:
        """RFC-style RST for segments to nonexistent endpoints."""
        segment = packet.tcp
        self.resets_sent += 1
        if segment.has_ack:
            reply = TCPSegment(
                sport=segment.dport, dport=segment.sport,
                seq=segment.ack, ack=0, flags=RST,
            )
        else:
            reply = TCPSegment(
                sport=segment.dport, dport=segment.sport,
                seq=0, ack=seq_add(segment.seq, segment.seq_len), flags=RST | ACK,
            )
        self.host.send_ip(IPv4Packet(packet.dst, packet.src, reply))
