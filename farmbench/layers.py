"""Per-layer span ledger for the traced run.

The ledger wraps public entry points of the farm's layers from outside
(class attributes and module functions are swapped for timing wrappers
before the farm is built, and restored afterwards) and aggregates spans
in memory: per boundary function a call count, total time and self
time, per phase (``setup``: workload start to the first ``Farm.run``;
``run``: first ``Farm.run`` to workload return).  Self time is a span's
duration minus the spans nested inside it, so the layers' self times
plus the root's own self time (booked to ``other``) add up to the root
exactly.  Garbage-collector pauses are nested spans of their own, taken
from ``gc.callbacks``.

Every callback handed to ``Simulator.schedule``/``schedule_at`` becomes
a span too, booked to the layer of the module that defines it, and so
does every application callback handed to a TCP connection or listener
or bound to a UDP port.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import pkgutil
import sys
from enum import Enum
from functools import partial
from time import perf_counter

LAYERS = ("sim", "net.link", "net.host", "net.packet", "net.capture",
          "gateway", "core", "policies", "services", "malware", "inmates",
          "world", "obs", "reporting", "gc", "other")

# Layers that do work while a farm is being built (``repro.farm`` itself
# is ``other``).
SETUP_LAYERS = ("core", "gateway", "inmates", "obs", "services", "world",
                "other")

# Module prefix -> layer; the longest matching prefix wins.  The
# protocol codecs and endpoint stacks under repro.net (tcp, http, smtp,
# dns, ...) are the hosts' layer; links, switches and the simulated
# Internet router are the link layer.
_MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.net.link", "net.link"),
    ("repro.net.router", "net.link"),
    ("repro.net.packet", "net.packet"),
    ("repro.net.addresses", "net.packet"),
    ("repro.net.wirebatch", "net.packet"),
    ("repro.net.capture", "net.capture"),
    ("repro.net", "net.host"),
    ("repro.gateway", "gateway"),
    ("repro.core", "core"),
    ("repro.policies", "policies"),
    ("repro.baselines", "policies"),
    ("repro.services", "services"),
    ("repro.malware", "malware"),
    ("repro.inmates", "inmates"),
    ("repro.world", "world"),
    ("repro.obs", "obs"),
    ("repro.reporting", "reporting"),
)

# Packages whose every public class method and module function is an
# entry point of its layer.
_PACKAGE_LAYERS = (
    ("repro.services", "services"),
    ("repro.malware", "malware"),
    ("repro.inmates", "inmates"),
    ("repro.world", "world"),
    ("repro.reporting", "reporting"),
)

SETUP, RUN = 0, 1


def layer_of(module: str) -> str:
    best, layer = -1, "other"
    for prefix, name in _MODULE_LAYERS:
        if ((module == prefix or module.startswith(prefix + "."))
                and len(prefix) > best):
            best, layer = len(prefix), name
    return layer


class Boundary:
    """Aggregated spans of one boundary function, per phase:
    ``[calls, total seconds, self seconds]``."""

    __slots__ = ("name", "layer", "phases")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.phases = ([0, 0.0, 0.0], [0, 0.0, 0.0])


class Ledger:
    """Span stack plus per-boundary aggregates (see module docstring)."""

    def __init__(self) -> None:
        # Each open span is [start, time covered by child spans].  The
        # stack is empty outside a workload, which disables recording.
        self.stack = []
        self.phase = SETUP
        self.boundaries = {}
        self.roots = [0.0, 0.0]
        self.root_self = [0.0, 0.0]
        self.hidden_time = [0.0, 0.0]
        self.gc_collections = [0, 0, 0]
        self.peak_pending = 0
        self._gc = self.boundary("gc:pause", "gc")
        self._gc_open = False
        # (owner, name, original) to restore; None: delete the attribute.
        self._undo = []
        self._callback_stats = {}

    def boundary(self, name: str, layer: str) -> Boundary:
        found = self.boundaries.get(name)
        if found is None:
            found = self.boundaries[name] = Boundary(name, layer)
        return found

    # ------------------------------------------------------------------
    # Roots
    # ------------------------------------------------------------------
    def begin_setup(self) -> None:
        self.phase = SETUP
        self.stack.append([perf_counter(), 0.0])

    def begin_run(self) -> None:
        """Close the set-up root and open the run root; called at the
        first ``Farm.run``, where no other span may be open."""
        if len(self.stack) != 1:
            raise RuntimeError("spans still open at the first Farm.run")
        self._close_root()
        self.phase = RUN
        self.stack.append([perf_counter(), 0.0])

    def end_run(self) -> None:
        if len(self.stack) != 1:
            raise RuntimeError("spans still open at workload return")
        self._close_root()

    def _close_root(self) -> None:
        start, child = self.stack.pop()
        total = perf_counter() - start
        self.roots[self.phase] += total - self.hidden_time[self.phase]
        self.root_self[self.phase] += total - child

    def hidden(self, fn) -> None:
        """Call ``fn`` (the benchmark's own work between run slices,
        where only the root is open) and leave its time out of the
        root."""
        started = perf_counter()
        fn()
        spent = perf_counter() - started
        self.stack[-1][1] += spent
        self.hidden_time[self.phase] += spent

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, fn, stat: Boundary):
        """``fn`` wrapped so each call is a span booked to ``stat``."""
        stack = self.stack
        ledger = self

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf_counter() - frame[0]
                stack.pop()
                stack[-1][1] += total
                record = stat.phases[ledger.phase]
                record[0] += 1
                record[1] += total
                record[2] += total - frame[1]

        traced.__ledger_stat__ = stat
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__module__ = getattr(fn, "__module__", None)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        stack = self.stack
        if phase == "start":
            if stack:
                stack.append([perf_counter(), 0.0])
                self._gc_open = True
            return
        if not self._gc_open:
            return
        self._gc_open = False
        start, child = stack.pop()
        total = perf_counter() - start
        stack[-1][1] += total
        record = self._gc.phases[self.phase]
        record[0] += 1
        record[1] += total
        record[2] += total - child
        if self.phase == RUN:
            self.gc_collections[info["generation"]] += 1

    def _callback_span(self, callback, kind: str = "event"):
        """``callback`` as a span booked to the layer of the module
        that defines it (left alone when it already is a span)."""
        target = getattr(callback, "__func__", callback)
        if hasattr(target, "__ledger_stat__"):
            return callback
        return self.span(callback, self._callback_stat(callback, kind))

    def _callback_stat(self, callback, kind: str) -> Boundary:
        fn = callback.func if isinstance(callback, partial) else callback
        fn = getattr(fn, "__func__", fn)  # bound method
        key = (kind, getattr(fn, "__code__", None) or type(fn))
        stat = self._callback_stats.get(key)
        if stat is None:
            module = getattr(fn, "__module__", None) or ""
            name = getattr(fn, "__qualname__", type(fn).__name__)
            stat = self._callback_stats[key] = self.boundary(
                f"{kind}:{module}:{name}", layer_of(module))
        return stat

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_method(self, cls, name: str, layer: str) -> None:
        raw = cls.__dict__[name]
        stat = self.boundary(f"{cls.__module__}:{cls.__qualname__}.{name}",
                             layer)
        if isinstance(raw, classmethod):
            value = classmethod(self.span(raw.__func__, stat))
        elif isinstance(raw, staticmethod):
            value = staticmethod(self.span(raw.__func__, stat))
        else:
            value = self.span(raw, stat)
        self._patch(cls, name, value)

    def _wrap_function(self, module, name: str, layer: str) -> None:
        """Wrap a module function and rebind every ``repro`` module's
        reference to it (``from x import f`` copies the reference)."""
        original = getattr(module, name)
        traced = self.span(original, self.boundary(
            f"{module.__name__}:{name}", layer))
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and other.__dict__.get(name) is original):
                self._patch(other, name, traced)

    def install(self) -> None:
        wrapped = set()
        for layer, cls, names in _boundary_classes():
            for name in names:
                if (cls, name) not in wrapped:
                    wrapped.add((cls, name))
                    self._wrap_method(cls, name, layer)
        for layer, module, name in _boundary_functions():
            self._wrap_function(module, name, layer)
        self._install_scheduler()
        self._install_app_callbacks()
        gc.callbacks.append(self._on_gc)

    def _install_scheduler(self) -> None:
        from repro.sim.engine import Simulator

        ledger = self
        stack = self.stack
        spanned = self._callback_span

        def spanning(plain):
            def schedule(sim, when, callback, *args, label=""):
                if stack:
                    callback = spanned(callback)
                event = plain(sim, when, callback, *args, label=label)
                if sim.pending > ledger.peak_pending:
                    ledger.peak_pending = sim.pending
                return event

            return schedule

        for name in ("schedule", "schedule_at"):
            self._patch(Simulator, name, spanning(Simulator.__dict__[name]))

    def _install_app_callbacks(self) -> None:
        """Application callbacks handed to the endpoint stacks (TCP
        connection and listener slots, UDP port handlers) become spans
        of the layer that defines them, so an SMTP sink's or a
        spambot's work is not booked to the TCP stack that calls it."""
        from repro.net.host import UdpStack
        from repro.net.tcp import TcpConnection, TcpListener

        ledger = self

        class Slot:
            def __init__(self, name: str) -> None:
                self.name = name

            def __get__(self, obj, owner=None):
                if obj is None:
                    return self
                return obj.__dict__[self.name]

            def __set__(self, obj, value) -> None:
                if value is not None and ledger.stack:
                    value = ledger._callback_span(value, "app")
                obj.__dict__[self.name] = value

        for cls, names in ((TcpConnection, ("on_established", "on_data",
                                            "on_remote_close", "on_closed",
                                            "on_reset", "on_fail")),
                           (TcpListener, ("on_accept",))):
            for name in names:
                self._undo.append((cls, name, None))
                setattr(cls, name, Slot(name))

        for name in ("bind", "bind_any"):
            plain = UdpStack.__dict__[name]

            def bind(stack, *args, _plain=plain):
                *head, handler = args
                if ledger.stack:
                    handler = ledger._callback_span(handler, "app")
                return _plain(stack, *head, handler)

            self._patch(UdpStack, name, bind)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, name, value = self._undo.pop()
            if value is None:
                delattr(owner, name)
            else:
                setattr(owner, name, value)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_totals(self, phase: int) -> dict:
        """``{layer: [calls, self seconds]}``, root self time in
        ``other``."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for stat in self.boundaries.values():
            calls, _total, own = stat.phases[phase]
            totals[stat.layer][0] += calls
            totals[stat.layer][1] += own
        totals["other"][1] += self.root_self[phase]
        return totals

    def calls(self, name: str) -> int:
        stat = self.boundaries.get(name)
        return stat.phases[RUN][0] if stat else 0

    def dump(self) -> list:
        """Every boundary with run-phase and set-up-phase aggregates,
        most run self time first."""
        rows = []
        for stat in self.boundaries.values():
            setup, run = stat.phases
            if setup[0] or run[0]:
                rows.append({"name": stat.name, "layer": stat.layer,
                             "run": run, "setup": setup})
        rows.sort(key=lambda row: -row["run"][2])
        return rows


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _public(cls) -> tuple:
    return tuple(
        name for name, value in cls.__dict__.items()
        if not name.startswith("_")
        and (inspect.isfunction(value)
             or isinstance(value, (classmethod, staticmethod))))


def _import_all(package_name: str) -> list:
    package = importlib.import_module(package_name)
    modules = [package]
    for info in pkgutil.walk_packages(package.__path__, package_name + "."):
        if not info.name.endswith("__main__"):
            modules.append(importlib.import_module(info.name))
    return modules


def _own_classes(module) -> list:
    return [value for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == module.__name__
            and not issubclass(value, (BaseException, Enum))]


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _boundary_classes():
    from repro.core.policy import ContainmentPolicy
    from repro.core.server import ContainmentServer
    from repro.core.shim import RequestShim, ResponseShim
    from repro.gateway.gateway import Gateway
    from repro.gateway.router import SubfarmRouter
    from repro.gateway.safety import SafetyFilter
    from repro.net.capture import PacketTrace
    from repro.net.host import Host
    from repro.net.link import Link, Port
    from repro.net.packet import (EthernetFrame, IPv4Packet, TCPSegment,
                                  UDPDatagram)
    from repro.net.tcp import TcpStack
    from repro.obs.journal import Journal
    from repro.obs.telemetry import Telemetry
    from repro.sim.engine import Simulator

    yield "sim", Simulator, ("run",)
    yield "net.link", Link, ("transmit",)
    yield "net.link", Port, ("deliver",)
    yield "net.host", Host, ("receive_frame",)
    yield "net.host", TcpStack, ("packet_arrived",)
    yield "net.packet", EthernetFrame, ("copy", "to_bytes")
    yield "net.packet", IPv4Packet, ("copy", "to_bytes")
    yield "net.packet", TCPSegment, ("to_bytes",)
    yield "net.packet", UDPDatagram, ("to_bytes",)
    yield "net.capture", PacketTrace, ("capture",)
    yield "gateway", Gateway, ("receive_frame",)
    yield "gateway", SubfarmRouter, ("inmate_frame", "service_frame",
                                     "upstream_packet")
    yield "gateway", SafetyFilter, ("admit",)
    yield "core", ContainmentServer, _public(ContainmentServer)
    yield "core", RequestShim, _public(RequestShim)
    yield "core", ResponseShim, _public(ResponseShim)
    yield "obs", Journal, ("record", "sample", "snapshot")
    yield "obs", Telemetry, ("span", "point", "publish")

    for package in ("repro.policies", "repro.baselines"):
        _import_all(package)
    packages = [(layer, _import_all(package))
                for package, layer in _PACKAGE_LAYERS]
    for cls in _subclasses(ContainmentPolicy):
        names = tuple(name for name in ("decide", "decide_content")
                      if name in cls.__dict__)
        if names:
            yield "policies", cls, names

    for layer, modules in packages:
        for module in modules:
            for cls in _own_classes(module):
                names = _public(cls)
                if names:
                    yield layer, cls, names


def _boundary_functions():
    import repro.obs.export as export

    yield "obs", export, "snapshot"
    for package, layer in _PACKAGE_LAYERS:
        for module in _import_all(package):
            for name, value in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    yield layer, module, name


def unit_of(metric: str) -> str:
    if metric.endswith(("_share", "_frac")):
        return "share"
    if metric.endswith(("_ratio", "_per_relayed")):
        return "ratio"
    if metric.endswith("_per_vsec"):
        return "1/vs"
    return "count"
