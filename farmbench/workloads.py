"""The three whole-farm workloads, built from the farm's public API.

Each workload function takes a seed and a :class:`Probe` and returns an
:class:`Outcome`.  The probe is how the benchmark sees the farm from
outside: it hooks ``Farm.run`` to timestamp the end of set-up and to
get hold of the farm object, so nothing under ``src/`` needs to know it
is being measured.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

from repro.core.policy import AllowAll
from repro.experiments.figure7 import run_figure7
from repro.experiments.scalability import WEB_IP, flowgen_image
from repro.farm import Farm, FarmConfig
from repro.net.addresses import IPv4Address
from repro.net.http import HttpParser, HttpResponse
from repro.services.dhcp import DhcpClient

ECHO_IP = "203.0.113.80"
ECHO_PORT = 80

# stream: 8 inmates ping-pong 512-byte chunks until STREAM_ROUNDS are
# done.  Streams start after DHCP (about 32 s) and each completes about
# 16 rounds per virtual second, so they stay busy until about 325 s of
# STREAM_DURATION and every round completes before it ends.
STREAM_INMATES = 8
STREAM_CHUNK = 512
STREAM_ROUNDS = 4800
STREAM_DURATION = 360.0

# gateway_load: the paper's §6.7 operating point (experiments/scalability).
GATEWAY_SUBFARMS = 6
GATEWAY_INMATES_PER = 12
GATEWAY_FLOW_INTERVAL = 5.0
GATEWAY_DURATION = 300.0
# A flow opened this close to the end has no time to be answered; it
# is not counted as attempted.
GATEWAY_GRACE = 5.0
HTTP_RESPONSE = HttpResponse(200, body=b"pong").to_bytes()

DEFAULT_SEEDS = {"stream": 11, "gateway_load": 6, "botfarm": 7}


class Probe:
    """Watches one workload run from outside through ``Farm.run``.

    ``first_run`` is the host time of the first ``Farm.run`` call;
    ``on_first_run`` is called right after it is taken, before the
    farm runs (the traced run opens its root span there).

    With ``between`` set, each ``Farm.run(until=...)`` call is carried
    out as ``chunks`` consecutive runs to equal slices of virtual time,
    and ``between`` is called in each gap.  The simulator fires the
    same events in the same order either way; the gaps let the
    benchmark read the calibration kernel every few tens of
    milliseconds of farm time instead of only around the whole run.
    """

    def __init__(self, on_first_run=None, between=None,
                 chunks: int = 1) -> None:
        self.on_first_run = on_first_run
        self.between = between
        self.chunks = chunks
        self.first_run = None
        self.farm = None

    def __enter__(self) -> "Probe":
        self._original = original = Farm.run
        probe = self

        def run(farm, until, max_events=None):
            if probe.first_run is None:
                probe.farm = farm
                probe.first_run = perf_counter()
                if probe.on_first_run is not None:
                    probe.on_first_run()
            if probe.between is None or max_events is not None:
                return original(farm, until, max_events)
            begin = farm.sim.now
            for index in range(1, probe.chunks):
                original(farm, begin + (until - begin) * index / probe.chunks)
                probe.between()
            return original(farm, until)

        Farm.run = run
        return self

    def __exit__(self, *exc) -> None:
        Farm.run = self._original


class Outcome:
    """What a workload returns: its operation counts plus any extra
    output (beyond router and trace state) that the digest covers."""

    def __init__(self, attempted: int, completed: int,
                 extra: str = "") -> None:
        self.attempted = attempted
        self.completed = completed
        self.extra = extra


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
def _stream_image(rounds: int, done: list):
    def image(host):
        def configured(h):
            def start():
                conn = h.tcp.connect(IPv4Address(ECHO_IP), ECHO_PORT)
                count = [0]

                def on_data(c, data):
                    count[0] += 1
                    done[0] += 1
                    if count[0] >= rounds:
                        c.close()
                    else:
                        c.send(b"x" * STREAM_CHUNK)

                conn.on_established = lambda c: c.send(b"x" * STREAM_CHUNK)
                conn.on_data = on_data

            h.sim.schedule(1.0, start, label="stream-start")

        DhcpClient(host, on_configured=configured).start()

    return image


def _echo_server(host) -> None:
    def on_accept(conn):
        conn.on_data = lambda c, data: c.send(data)
        conn.on_remote_close = lambda c: c.close()

    host.tcp.listen(ECHO_PORT, on_accept)


def stream(seed: int, probe: Probe) -> Outcome:
    farm = Farm(FarmConfig(seed=seed, telemetry=True))
    _echo_server(farm.add_external_host("echo", ECHO_IP))
    sub = farm.create_subfarm("bench")
    sub.set_default_policy(AllowAll())
    done = [0]
    for _ in range(STREAM_INMATES):
        sub.create_inmate(image_factory=_stream_image(STREAM_ROUNDS, done))
    farm.run(until=STREAM_DURATION)
    return Outcome(STREAM_INMATES * STREAM_ROUNDS, done[0])


# ----------------------------------------------------------------------
# gateway_load
# ----------------------------------------------------------------------
def _web_server(host) -> None:
    def on_accept(conn):
        parser = HttpParser("request")

        def on_data(c, data):
            for _request in parser.feed(data):
                c.send(HTTP_RESPONSE)

        conn.on_data = on_data
        conn.on_remote_close = lambda c: c.close()

    host.tcp.listen(80, on_accept)


def _counted(image, opened: list):
    """``image`` with every connection its host opens recorded, so
    answered flows can be counted at the end."""

    def counted(host):
        tcp = host.tcp
        connect = tcp.connect

        def recording_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)
            opened.append((host.sim.now, conn))
            return conn

        tcp.connect = recording_connect
        image(host)

    return counted


def gateway_load(seed: int, probe: Probe) -> Outcome:
    farm = Farm(FarmConfig(seed=seed, telemetry=True, journal=True))
    _web_server(farm.add_external_host("webserver", WEB_IP))
    opened = []
    for index in range(GATEWAY_SUBFARMS):
        sub = farm.create_subfarm(f"subfarm-{index}")
        sub.set_default_policy(AllowAll())
        for _ in range(GATEWAY_INMATES_PER):
            sub.create_inmate(image_factory=_counted(
                flowgen_image(GATEWAY_FLOW_INTERVAL), opened))
    farm.run(until=GATEWAY_DURATION)
    due = [conn for opened_at, conn in opened
           if opened_at <= GATEWAY_DURATION - GATEWAY_GRACE]
    answered = sum(1 for conn in due
                   if conn.bytes_received >= len(HTTP_RESPONSE))
    return Outcome(len(due), answered)


# ----------------------------------------------------------------------
# botfarm
# ----------------------------------------------------------------------
def botfarm(seed: int, probe: Probe) -> Outcome:
    """``run_figure7`` as shipped.  An operation is one SMTP flow the
    containment server reflected; it completes when the SMTP sink saw
    the session (accepted or deliberately dropped)."""
    result = run_figure7(seed=seed)
    extra = json.dumps({"report": result.rendered,
                        "verdicts": result.verdict_totals,
                        "smtp": [result.smtp_sessions,
                                 result.smtp_data_transfers]},
                       sort_keys=True)
    return Outcome(result.verdict_totals.get("REFLECT", 0),
                   result.smtp_sessions, extra)


WORKLOADS = {"stream": stream, "gateway_load": gateway_load,
             "botfarm": botfarm}


# ----------------------------------------------------------------------
# Reading the farm after a run
# ----------------------------------------------------------------------
def routers(farm):
    return [farm.subfarms[name].router for name in sorted(farm.subfarms)]


def servers(farm):
    found = []
    for name in sorted(farm.subfarms):
        sub = farm.subfarms[name]
        found.append(sub.containment_server)
        found.extend(sub.extra_containment_servers)
    return found


def output_digest(farm, outcome: Outcome) -> str:
    """sha256 over router counters, the flow logs, upstream trace bytes
    and the workload's own extra output."""
    digest = hashlib.sha256()
    for router in routers(farm):
        digest.update(json.dumps(router.counters, sort_keys=True).encode())
        for entry in router.flow_log:
            digest.update(
                f"{entry.timestamp:.9f}|{entry.vlan}|{entry.verdict}"
                f"|{entry.orig}|{entry.policy}".encode())
    for record in farm.gateway.upstream_trace.records:
        digest.update(record.frame.to_bytes())
    digest.update(outcome.extra.encode())
    return digest.hexdigest()


def relayed_packets(farm) -> int:
    return sum(router.counters["packets_relayed"] for router in routers(farm))


def farm_counts(farm) -> dict:
    """Work counts and held state, read through public accessors."""
    stats = [router.flowtable.stats() for router in routers(farm)]
    hits = sum(s["hits"] for s in stats)
    misses = sum(s["misses"] for s in stats)
    journal = farm.journal.snapshot()
    return {
        "sim.events": farm.sim.events_processed,
        "gateway.slow_path_frac": misses / (hits + misses)
        if hits + misses else 0.0,
        "gateway.flows_created": sum(r.counters["flows_created"]
                                     for r in routers(farm)),
        "core.verdicts": sum(len(r.flow_log) for r in routers(farm)),
        "obs.journal_events": journal["recorded"],
        "held.router_flows": sum(len(r.flows()) for r in routers(farm)),
        "held.flowtable_entries": sum(s["occupancy"] for s in stats),
        "held.cs_verdict_log": sum(len(s.verdict_log)
                                   for s in servers(farm)),
        "held.trace_records": sum(len(r.trace.records)
                                  for r in routers(farm))
        + len(farm.gateway.upstream_trace.records),
        "held.journal_events": len(journal["events"]),
    }
