"""Layer-resolved span ledger, installed from outside the package.

:func:`install` wraps the program's public entry points so that every
call across a layer boundary becomes a span:

* **kernel dispatch** — every callback handed to ``Simulator.schedule``,
  ``schedule_at``, ``schedule_many`` or ``schedule_pooled`` is wrapped,
  so each dispatched event is a span attributed to the layer of the
  object (or module) that defines the callback;
* **cross-layer calls** — grid submit/cancel, WMS submit/cancel, site
  enqueue/cancel/background feed, the middleware and health entry
  points and ``TaskPool.settle`` (with the pool's construction and
  readout) are wrapped as child spans;
* ``Simulator.run_until`` is a span of its own, so the kernel's loop
  overhead lands on ``events``.

A span's self time is its duration minus the part its child spans
cover; over a measured window the layers' self times plus the
unattributed remainder add up to the window exactly.  A call from an
object into itself (``super()`` chains, a fair-share ``cancel_many``
looping over ``cancel``) stays inside the caller's span.

:func:`install_shard_probe` wraps the parent's ``Connection.send`` /
``recv`` for the sharded workload, counting epochs, bytes and the time
the parent spends blocked on its workers.

Wrappers must be installed before any grid is built or restored: layers
cache bound methods, and snapshots pickle scheduled callbacks — which is
also why the dispatch wrapper is a module-level class and the active
ledger a module-level slot rather than a closure.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from functools import partial, wraps

perf = time.perf_counter

#: module -> layer; anything else is "other" (unattributed)
LAYER_OF_MODULE = {
    "repro.gridsim.events": "events",
    "repro.gridsim.wms": "wms",
    "repro.gridsim.federation": "wms",
    "repro.gridsim.site": "site",
    "repro.gridsim.fairshare": "fairshare",
    "repro.gridsim.grid": "grid",
    "repro.population.soa": "soa",
    "repro.gridsim.client": "client",
    "repro.population.driver": "client",
    "repro.gridsim.middleware": "middleware",
    "repro.gridsim.health": "health",
    "repro.gridsim.weather": "weather",
    "repro.gridsim.outages": "weather",
    "repro.gridsim.background": "background",
    "repro.population.shard": "shard",
}

LAYERS = (
    "events", "wms", "site", "fairshare", "grid", "soa", "client",
    "middleware", "health", "weather", "background", "shard",
)

#: the ledger wrappers report into (None: wrappers pass straight through)
_active: "Ledger | None" = None


class Ledger:
    """Self times and call counts of one measured window."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Start a fresh window (spans open across the reset keep running)."""
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.cancel_attempts: Counter = Counter()
        self.cancel_hits: Counter = Counter()
        self.heap_peak = 0
        #: span stack: [child time, owner object]; the root frame
        #: collects the top-level spans of the window
        self.stack: list[list] = [[0.0, None]]
        self.t0 = perf()
        self.wall = 0.0

    def close(self) -> float:
        """End the window; the uncovered remainder becomes ``other``."""
        self.wall = perf() - self.t0
        self.self_s["other"] += self.wall - self.stack[0][0]
        return self.wall

    def enter(self, owner=None) -> list:
        frame = [0.0, owner]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, layer: str, t0: float) -> None:
        dt = perf() - t0
        stack = self.stack
        stack.pop()
        stack[-1][0] += dt
        self.self_s[layer] += dt - frame[0]


def activate(ledger: "Ledger | None") -> None:
    """Route every installed wrapper into ``ledger`` (None: off)."""
    global _active
    _active = ledger


_LAYER_OF_TYPE: dict[type, str] = {}


def layer_of_type(cls: type) -> str:
    layer = _LAYER_OF_TYPE.get(cls)
    if layer is None:
        layer = _LAYER_OF_TYPE[cls] = LAYER_OF_MODULE.get(cls.__module__, "other")
    return layer


def classify(callback) -> tuple[str, str]:
    """``(layer, name)`` of a kernel callback.

    Bound methods are attributed by the class of their instance, so a
    fair-share site's inherited wake lands on ``fairshare``.
    """
    f = callback
    while type(f) is partial:
        f = f.func
    owner = getattr(f, "__self__", None)
    name = getattr(f, "__name__", type(f).__name__)
    if owner is not None and not isinstance(owner, type):
        return layer_of_type(type(owner)), name
    module = getattr(f, "__module__", None) or type(f).__module__
    return LAYER_OF_MODULE.get(module, "other"), name


class Dispatch:
    """A kernel callback wrapped as a span (picklable with snapshots)."""

    __slots__ = ("fn", "layer", "name")

    def __init__(self, fn, layer: str, name: str) -> None:
        self.fn = fn
        self.layer = layer
        self.name = name

    def __reduce__(self):
        return (Dispatch, (self.fn, self.layer, self.name))

    def __call__(self):
        led = _active
        if led is None:
            return self.fn()
        t0 = perf()
        frame = led.enter()
        try:
            return self.fn()
        finally:
            led.leave(frame, self.layer, t0)
            led.calls[self.layer, self.name] += 1


def _wrap_callback(callback):
    if type(callback) is Dispatch:
        return callback
    layer, name = classify(callback)
    return Dispatch(callback, layer, name)


def _note_heap(sim) -> None:
    led = _active
    if led is not None:
        n = sim.pending
        if n > led.heap_peak:
            led.heap_peak = n


def _patch_kernel(Simulator) -> None:
    schedule = Simulator.schedule
    schedule_at = Simulator.schedule_at
    schedule_many = Simulator.schedule_many
    schedule_pooled = Simulator.schedule_pooled
    run_until = Simulator.run_until

    @wraps(schedule)
    def w_schedule(self, delay, callback):
        ev = schedule(self, delay, _wrap_callback(callback))
        _note_heap(self)
        return ev

    @wraps(schedule_at)
    def w_schedule_at(self, t, callback):
        ev = schedule_at(self, t, _wrap_callback(callback))
        _note_heap(self)
        return ev

    @wraps(schedule_many)
    def w_schedule_many(self, times, callbacks):
        evs = schedule_many(self, times, [_wrap_callback(c) for c in callbacks])
        _note_heap(self)
        return evs

    @wraps(schedule_pooled)
    def w_schedule_pooled(self, delay, callback):
        return schedule_pooled(self, delay, _wrap_callback(callback))

    @wraps(run_until)
    def w_run_until(self, t_end):
        led = _active
        if led is None:
            return run_until(self, t_end)
        t0 = perf()
        frame = led.enter(self)
        try:
            return run_until(self, t_end)
        finally:
            led.leave(frame, "events", t0)

    Simulator.schedule = w_schedule
    Simulator.schedule_at = w_schedule_at
    Simulator.schedule_many = w_schedule_many
    Simulator.schedule_pooled = w_schedule_pooled
    Simulator.run_until = w_run_until


def _wrap_method(cls, name: str, cancel: str | None = None) -> None:
    orig = cls.__dict__[name]

    @wraps(orig)
    def wrapper(self, *args, **kwargs):
        led = _active
        if led is None:
            return orig(self, *args, **kwargs)
        if led.stack[-1][1] is self:
            # a call from the object into itself: the caller's span
            return orig(self, *args, **kwargs)
        layer = layer_of_type(type(self))
        t0 = perf()
        frame = led.enter(self)
        try:
            out = orig(self, *args, **kwargs)
        finally:
            led.leave(frame, layer, t0)
        led.calls[layer, name] += 1
        if cancel == "one":
            led.cancel_attempts[layer] += 1
            led.cancel_hits[layer] += bool(out)
        elif cancel == "many":
            led.cancel_attempts[layer] += len(args[0])
            led.cancel_hits[layer] += out
        return out

    setattr(cls, name, wrapper)


def _patch_methods(cls, names, cancel=None) -> None:
    for name in names:
        if name in cls.__dict__:
            _wrap_method(cls, name, cancel)


def install() -> None:
    """Wrap the kernel and the cross-layer entry points.

    Call once per process, before any grid is built or restored.  The
    wrappers record nothing until a ledger is :func:`activate`-d.
    """
    from repro.gridsim import fairshare, grid, health, middleware, site, wms
    from repro.gridsim.events import Simulator
    from repro.population.soa import TaskPool

    _patch_kernel(Simulator)
    _patch_methods(
        grid.GridSimulator,
        ("submit", "submit_many", "cancel", "cancel_many", "report_failed"),
    )
    for cls in (wms.WorkloadManager, wms.BatchedWorkloadManager):
        _patch_methods(cls, ("submit", "submit_many", "cancel_matching"))
    site_classes = (
        site.ComputingElement,
        site.VectorComputingElement,
        fairshare._PerJobBatchOps,
        fairshare.FairShareComputingElement,
        fairshare.FairShareVectorComputingElement,
    )
    for cls in site_classes:
        _patch_methods(cls, ("enqueue", "enqueue_many", "feed_background"))
        _patch_methods(cls, ("cancel",), cancel="one")
        _patch_methods(cls, ("cancel_many",), cancel="many")
    _patch_methods(middleware.MiddlewareDomain, ("submit",))
    _patch_methods(health.HealthService, ("observe_success", "observe_failure"))
    _patch_methods(TaskPool, ("__init__", "settle", "fleet_results"))


class ShardProbe:
    """Parent-side view of the shard fabric (one sharded run)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.first_send: float | None = None
        self.runs_sent = 0
        self.conns: set[int] = set()
        self.send_s = 0.0
        self.recv_s = 0.0
        self.bytes_out = 0
        self.bytes_in = 0
        #: hook run in the *workers* before each message they send
        #: (fault injection for the harness's own tests)
        self.child_hook = None


def install_shard_probe(timed: bool) -> ShardProbe:
    """Watch the parent's pipe traffic to its shard workers.

    Always records the instant of the first ``run`` message (the first
    launch of a sharded day, which ends set-up).  With ``timed`` it also
    times every send/recv and counts the bytes crossing the pipes.
    Workers inherit the wrappers through ``fork``; there they only run
    :attr:`ShardProbe.child_hook`.
    """
    from multiprocessing.connection import Connection

    probe = ShardProbe()
    send = Connection.send
    recv = Connection.recv
    send_bytes = Connection._send_bytes
    recv_bytes = Connection._recv_bytes

    @wraps(send)
    def w_send(self, obj):
        if os.getpid() != probe.pid:
            if probe.child_hook is not None:
                probe.child_hook(obj)
            return send(self, obj)
        if type(obj) is tuple and obj and obj[0] == "run":
            if probe.first_send is None:
                probe.first_send = perf()
            probe.runs_sent += 1
            probe.conns.add(id(self))
        if not timed:
            return send(self, obj)
        t0 = perf()
        try:
            return send(self, obj)
        finally:
            probe.send_s += perf() - t0

    @wraps(recv)
    def w_recv(self):
        if not timed or os.getpid() != probe.pid:
            return recv(self)
        t0 = perf()
        try:
            return recv(self)
        finally:
            probe.recv_s += perf() - t0

    @wraps(send_bytes)
    def w_send_bytes(self, buf):
        if os.getpid() == probe.pid:
            probe.bytes_out += len(buf)
        return send_bytes(self, buf)

    @wraps(recv_bytes)
    def w_recv_bytes(self, maxsize=None):
        out = recv_bytes(self, maxsize)
        if os.getpid() == probe.pid:
            probe.bytes_in += out.getbuffer().nbytes
        return out

    Connection.send = w_send
    Connection.recv = w_recv
    if timed:
        Connection._send_bytes = w_send_bytes
        Connection._recv_bytes = w_recv_bytes
    return probe
