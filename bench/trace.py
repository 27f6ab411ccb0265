"""Wall-clock spans recorded from outside the program.

The program under ``src/repro`` is not edited.  :class:`Tracer` replaces the
public functions named in :data:`TARGETS` -- in every module namespace and on
every class that holds them -- with thin wrappers that record one span per
call, keeps the spans in memory, and puts every original back on
:meth:`Tracer.uninstall`.  A span is ``(target index, start ns, end ns,
parent span index, value)``, listed in start order; ``value`` is whatever the
target's ``measure`` callback read at the boundary (bytes framed, faces
rasterized, ...), so ratios are counted where the work happens.

Layer names are module paths under ``repro``.  A layer's self time is its
spans' duration minus the part their child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import resource
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

#: layer of the per-op root spans opened by the harness itself
HARNESS = "harness"
#: in a span's value slot: nothing was counted / the value is in a side table
_NO_VALUE = -(2 ** 62)
_OBJECT = _NO_VALUE + 1


@dataclass(frozen=True)
class Target:
    """One wrapped call: where it lives and what to count at its boundary."""

    layer: str
    module: str
    #: class name inside ``module``; "" for a module-level function
    cls: str
    attr: str
    #: ``measure(args, kwargs, result)`` -> the span's value
    measure: Callable | None = None
    #: the value is an integer (or a bool), which is cheapest to keep
    integer: bool = True
    #: also record page-fault and CPU deltas across the span
    rusage: bool = False
    #: wrap every subclass that overrides ``attr`` as well
    subclasses: bool = False

    @property
    def name(self) -> str:
        owner = f"{self.cls}." if self.cls else ""
        return f"{self.module.removeprefix('repro.')}.{owner}{self.attr}"


def _result_len(args, kwargs, result):
    return len(result)


def _first_arg_len(args, kwargs, result):
    return len(args[0])


def _method_arg_len(args, kwargs, result):
    return len(args[1])


def _raster_stats(args, kwargs, result):
    return (result.faces_in, result.faces_rasterized, result.fragments)


def _point_stats(args, kwargs, result):
    return (result.points_in, result.points_drawn, result.fragments)


def _framebuffer_bytes(args, kwargs, result):
    width = kwargs["width"] if "width" in kwargs else args[1]
    height = kwargs["height"] if "height" in kwargs else args[2]
    return width * height * 7          # uint8 RGB + float32 depth


def _encoded_sizes(args, kwargs, result):
    return (result.raw_nbytes, result.nbytes)


def _send_bytes(args, kwargs, result):
    return kwargs["nbytes"] if "nbytes" in kwargs else args[3]


def _queue_length(args, kwargs, result):
    return len(args[0]._queue)


def _truthy(args, kwargs, result):
    return bool(result)


def _not_none(args, kwargs, result):
    return result is not None


def _outcome(args, kwargs, result):
    return result.outcome


def _marshal_bytes(args, kwargs, result):
    return result.nbytes


def _targets() -> list[Target]:
    t: list[Target] = []

    def fn(layer, module, attr, **kw):
        t.append(Target(layer, f"repro.{module}", "", attr, **kw))

    def method(layer, module, cls, attr, **kw):
        t.append(Target(layer, f"repro.{module}", cls, attr, **kw))

    fn("render.rasterizer", "render.rasterizer", "rasterize_mesh",
       measure=_raster_stats, integer=False, rusage=True)
    fn("render.rasterizer", "render.points", "rasterize_points",
       measure=_point_stats, integer=False, rusage=True)

    for attr in ("render_view", "render_tile", "create_render_session"):
        method("services.render_service", "services.render_service",
               "RenderService", attr)

    fn("render.compositor", "render.compositor", "depth_composite")
    fn("render.compositor", "render.compositor", "assemble_tiles")
    method("render.compositor", "render.compositor", "FrameSynchronizer",
           "submit")
    method("render.compositor", "render.compositor", "FrameSynchronizer",
           "take_frame")
    method("render.framebuffer", "render.framebuffer", "FrameBuffer",
           "__init__", measure=_framebuffer_bytes)
    for attr in ("extract", "paste", "copy"):
        method("render.framebuffer", "render.framebuffer", "FrameBuffer",
               attr)

    method("compression", "compression.base", "Codec", "encode",
           measure=_encoded_sizes, integer=False, subclasses=True)
    method("compression", "compression.base", "Codec", "decode",
           subclasses=True)

    for attr in ("render_tiled", "render_composite", "connect",
                 "place_dataset"):
        method("core.session", "core.session", "CollaborativeSession", attr)

    method("network.clock", "network.clock", "Simulator", "step",
           measure=_truthy)
    method("network.clock", "network.clock", "Simulator", "schedule")
    method("network.clock", "network.clock", "Simulator", "schedule_at",
           measure=_queue_length)

    method("network.simnet", "network.simnet", "Network", "send",
           measure=_send_bytes)
    method("network.simnet", "network.simnet", "Network", "transfer_time")
    method("network.simnet", "network.simnet", "Network", "multicast_times")

    queue = ("farm.queue_service", "farm.queue_service", "FrameQueueService")
    method(*queue, "submit")
    method(*queue, "lease", measure=_not_none)
    method(*queue, "complete", measure=_truthy)
    method(*queue, "requeue_expired")
    method(*queue, "audit")

    # _pull/_ship/_deliver are the event callbacks through which the
    # simulator enters the controller between dispatch ticks; without them
    # the controller's steady-state cost would read as clock self time
    for attr in ("dispatch", "prewarm", "_pull", "_ship", "_deliver"):
        method("farm.controller", "farm.controller", "RenderFarmController",
               attr)

    for attr in ("frame_message", "frame_telemetry", "frame_reject",
                 "frame_farm_lease", "frame_farm_result"):
        fn("services.protocol", "services.protocol", attr,
           measure=_result_len)
    for attr in ("unframe_message", "unframe_telemetry", "unframe_reject",
                 "unframe_farm_lease", "unframe_farm_result"):
        fn("services.protocol", "services.protocol", attr,
           measure=_first_arg_len)

    fn("services.soap", "services.soap", "soap_encode", measure=_result_len)
    fn("services.soap", "services.soap", "soap_decode",
       measure=_first_arg_len)

    fn("network.marshalling", "network.marshalling", "encode_value",
       measure=_result_len)
    fn("network.marshalling", "network.marshalling", "decode_value",
       measure=_first_arg_len)
    for cls in ("BinaryMarshaller", "IntrospectionMarshaller"):
        method("network.marshalling", "network.marshalling", cls, "marshal",
               measure=_marshal_bytes)
        method("network.marshalling", "network.marshalling", cls,
               "demarshal", measure=_method_arg_len)

    for attr in ("create_session", "subscribe", "unsubscribe",
                 "publish_update"):
        method("services.data_service", "services.data_service",
               "DataService", attr)

    grid = ("core.grid", "core.grid", "SessionGridManager")
    method(*grid, "request_session", measure=_outcome, integer=False)
    for attr in ("pump", "release_session", "shed", "restore"):
        method(*grid, attr)

    # _ingest is where a delivered scrape re-enters the monitor from a
    # simulator event (rules, SLOs, tail history)
    for attr in ("scrape_one", "observe_grid", "snapshot", "_ingest"):
        method("services.monitor", "services.monitor", "MonitorService",
               attr)
    method("obs.telemetry", "obs.telemetry", "ServiceTelemetry",
           "scrape_frame", measure=_result_len)
    fn("obs.telemetry", "obs.telemetry", "flatten_metrics")
    method("obs.metrics", "obs.metrics", "MetricsRegistry", "snapshot")
    return t


TARGETS: list[Target] = _targets()
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))


class Tracer:
    """Records spans for :data:`TARGETS`; see the module docstring.

    While recording, a finished call appends four integers (target, start,
    end, value) to a flat array and nothing else: no object the garbage
    collector tracks is kept per span, so tracing does not make the program's
    collections more frequent.  :attr:`spans` rebuilds the parents afterwards
    from how the intervals nest.
    """

    def __init__(self, targets: list[Target] | None = None) -> None:
        self.targets = list(TARGETS if targets is None else targets)
        #: index of the pseudo-target that names per-op root spans
        self.root_target = len(self.targets)
        self._raw = array("q")
        #: raw span number -> value, for the few values that are not integers
        self._objects: dict[int, object] = {}
        self._op_start = 0
        self._spans: list[tuple] | None = None
        #: (owner object, attribute, original, wrapper) for every patch made
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans ----------------------------------------------------------------------

    def begin_op(self) -> None:
        """Open the root span of the next op (or slice)."""
        self._op_start = time.perf_counter_ns()

    def end_op(self, op: int) -> None:
        self._raw.extend((self.root_target, self._op_start,
                          time.perf_counter_ns(), op))

    @property
    def spans(self) -> list[tuple]:
        """``(target, start, end, parent, value)`` in start order."""
        if self._spans is None or len(self._spans) != len(self._raw) // 4:
            raw = self._raw
            objects = self._objects
            rows = []
            for i in range(0, len(raw), 4):
                value = raw[i + 3]
                if value == _NO_VALUE:
                    value = None
                elif value == _OBJECT:
                    value = objects[i // 4]
                rows.append((raw[i], raw[i + 1], raw[i + 2], value))
            self._spans = nest(rows)
        return self._spans

    def _wrap(self, tid: int, target: Target, original):
        raw = self._raw
        extend = raw.extend
        objects = self._objects
        clock = time.perf_counter_ns
        measure = target.measure

        if target.rusage:
            getrusage = resource.getrusage
            who = resource.RUSAGE_SELF

            def wrapper(*args, **kwargs):
                before = getrusage(who)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    extend((tid, start, clock(), _NO_VALUE))
                    raise
                end = clock()
                after = getrusage(who)
                objects[len(raw) // 4] = measure(args, kwargs, result) + (
                    after.ru_minflt - before.ru_minflt,
                    after.ru_utime - before.ru_utime,
                    after.ru_stime - before.ru_stime)
                extend((tid, start, end, _OBJECT))
                return result
        elif measure is not None and target.integer:
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    extend((tid, start, clock(), _NO_VALUE))
                    raise
                extend((tid, start, clock(), measure(args, kwargs, result)))
                return result
        elif measure is not None:
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    extend((tid, start, clock(), _NO_VALUE))
                    raise
                end = clock()
                objects[len(raw) // 4] = measure(args, kwargs, result)
                extend((tid, start, end, _OBJECT))
                return result
        else:
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    extend((tid, start, clock(), _NO_VALUE))

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", target.attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    # -- patching -------------------------------------------------------------------

    def install(self) -> None:
        """Patch every target; importing its module first if need be."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for tid, target in enumerate(self.targets):
            module = importlib.import_module(target.module)
            if target.cls:
                root = getattr(module, target.cls)
                classes = [root]
                if target.subclasses:
                    classes = _class_tree(root)
                for cls in classes:
                    if target.attr in vars(cls):
                        original = vars(cls)[target.attr]
                        self._patch(cls, target.attr, original,
                                    self._wrap(tid, target, original))
            else:
                original = getattr(module, target.attr)
                wrapper = self._wrap(tid, target, original)
                for holder in _repro_modules():
                    for attr, held in list(vars(holder).items()):
                        if held is original:
                            self._patch(holder, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        """Put every original back, wherever a wrapper has travelled."""
        by_wrapper = {id(w): o for _, _, o, w in self._patches}
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        # a module first imported while tracing copied wrappers by name;
        # the patch list keeps every wrapper alive, so ids are unambiguous
        for holder in _repro_modules():
            for attr, held in list(vars(holder).items()):
                if id(held) in by_wrapper:
                    setattr(holder, attr, by_wrapper[id(held)])
        self._patches.clear()

    def patched(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _, _ in self._patches]

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- export ---------------------------------------------------------------------

    def target_name(self, tid: int) -> str:
        return "op" if tid == self.root_target else self.targets[tid].name

    def target_layer(self, tid: int) -> str:
        return HARNESS if tid == self.root_target else self.targets[tid].layer

    def export(self) -> list[dict]:
        """The ``spans.json`` rows (schema in bench/README.md)."""
        ops = op_of(self.spans, self.root_target)
        rows = []
        for (tid, start, end, parent, value), op in zip(self.spans, ops):
            row = {"name": self.target_name(tid),
                   "layer": self.target_layer(tid),
                   "start": start, "end": end, "parent": parent, "op": op}
            if value is not None and tid != self.root_target:
                row["value"] = value
            rows.append(row)
        return rows


def _class_tree(root: type) -> list[type]:
    out, todo = [], [root]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


# -- arithmetic on finished spans ---------------------------------------------------


def nest(rows: list[tuple]) -> list[tuple]:
    """Spans in start order with their parents, from ``(target, start, end,
    value)`` rows in any order.

    Calls are synchronous, so a span's parent is the innermost span whose
    interval contains it.  Sorted by start (the longer first on a tie), the
    spans not yet ended when the next one starts are its ancestors.
    """
    rows = sorted(rows, key=lambda r: (r[1], -r[2]))
    spans: list[tuple] = []
    open_spans: list[int] = []
    for tid, start, end, value in rows:
        while open_spans and spans[open_spans[-1]][2] <= start:
            open_spans.pop()
        spans.append((tid, start, end, open_spans[-1] if open_spans else -1,
                      value))
        open_spans.append(len(spans) - 1)
    return spans


def self_times(spans: list[tuple]) -> list[int]:
    """Per-span self time: duration minus the time its children cover.

    Calls are synchronous, so children nest inside their parent and never
    overlap each other; the part of a span its children cover is the sum of
    their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def op_of(spans: list[tuple], root_target: int) -> list[int]:
    """The op id each span belongs to; -1 for set-up spans outside any op."""
    ops: list[int] = []
    for tid, _, _, parent, value in spans:
        if tid == root_target:
            ops.append(value)
        else:
            ops.append(ops[parent] if parent >= 0 else -1)
    return ops


@dataclass
class Totals:
    """What one target (or layer) added up to over a set of spans."""

    calls: int = 0
    self_ns: int = 0
    dur_ns: int = 0
    #: spans whose parent is outside the target's layer
    outer_calls: int = 0
    outer_dur_ns: int = 0


class SpanTable:
    """Totals per target and per layer, split into measured and set-up."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        spans = tracer.spans
        self.spans = spans
        own = self_times(spans)
        ops = self.ops = op_of(spans, tracer.root_target)
        n_targets = len(tracer.targets) + 1
        layers = [tracer.target_layer(t) for t in range(n_targets)]
        self.measured = [Totals() for _ in range(n_targets)]
        self.setup = [Totals() for _ in range(n_targets)]
        #: span indexes of measured spans, per target
        self.index: list[list[int]] = [[] for _ in range(n_targets)]
        for i in range(len(spans)):
            tid, start, end, parent, _ = spans[i]
            in_op = ops[i] >= 0
            totals = (self.measured if in_op else self.setup)[tid]
            totals.calls += 1
            totals.self_ns += own[i]
            totals.dur_ns += end - start
            if parent < 0 or layers[spans[parent][0]] != layers[tid]:
                totals.outer_calls += 1
                totals.outer_dur_ns += end - start
            if in_op:
                self.index[tid].append(i)
        self.n_measured = sum(t.calls for t in self.measured)

    def _tids(self, layer: str | None = None, attrs=()) -> list[int]:
        out = []
        for tid, target in enumerate(self.tracer.targets):
            if layer is not None and target.layer != layer:
                continue
            if attrs and target.attr not in attrs:
                continue
            out.append(tid)
        return out

    def total(self, layer: str | None = None, attrs=(),
              phase: str = "measured") -> Totals:
        """Sum over the targets of ``layer`` named in ``attrs`` (all if
        empty); ``phase`` is "measured", "setup" or "all"."""
        out = Totals()
        tables = {"measured": (self.measured,), "setup": (self.setup,),
                  "all": (self.measured, self.setup)}[phase]
        for tid in self._tids(layer, attrs):
            for table in tables:
                t = table[tid]
                out.calls += t.calls
                out.self_ns += t.self_ns
                out.dur_ns += t.dur_ns
                out.outer_calls += t.outer_calls
                out.outer_dur_ns += t.outer_dur_ns
        return out

    def root(self) -> Totals:
        return self.measured[self.tracer.root_target]

    def values(self, layer: str, attrs=(), outer_only: bool = False) -> list:
        """Values of the measured spans of the named targets."""
        spans = self.spans
        targets = self.tracer.targets
        out = []
        for tid in self._tids(layer, attrs):
            for i in self.index[tid]:
                parent = spans[i][3]
                if outer_only and parent >= 0:
                    ptid = spans[parent][0]
                    if (ptid < len(targets)
                            and targets[ptid].layer == layer):
                        continue
                if spans[i][4] is not None:   # None: the call raised
                    out.append(spans[i][4])
        return out

    def layer_self_ns(self) -> dict[str, int]:
        out = {layer: self.total(layer).self_ns for layer in LAYERS}
        out[HARNESS] = self.root().self_ns
        return out


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(table: SpanTable, ops: int, wall_ns: int,
                  scene_faces: int) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json the spans alone determine.

    ``ops`` and ``wall_ns`` are the traced round's measured ops and wall
    time; ``scene_faces`` is the triangle count of the scene being drawn (0
    when the workload draws none).  The harness adds ``import.wall_ms``,
    ``trace.overhead_pct`` and ``farm.queue_service.tail_growth``, which
    spans do not hold.
    """
    m: dict[str, float] = {}
    total = table.total

    def per_op_ms(layer):
        return _div(total(layer).self_ns, ops) / 1e6

    def per_call_us(layer, attrs, field="self_ns"):
        t = total(layer, attrs)
        return _div(getattr(t, field), t.calls) / 1e3

    def all_phase_ms(layer, attrs):
        t = total(layer, attrs, phase="all")
        return _div(t.dur_ns, t.calls) / 1e6

    # -- render ---------------------------------------------------------------------
    layer = "render.rasterizer"
    raster = total(layer)
    stats = table.values(layer)
    faces_in = sum(v[0] for v in stats)
    faces_out = sum(v[1] for v in stats)
    fragments = sum(v[2] for v in stats)
    user = sum(v[4] for v in stats)
    system = sum(v[5] for v in stats)
    m[f"{layer}.self_ms_per_op"] = per_op_ms(layer)
    m[f"{layer}.calls_per_op"] = _div(raster.calls, ops)
    m[f"{layer}.faces_in_per_op"] = _div(faces_in, ops)
    m[f"{layer}.faces_rasterized_per_op"] = _div(faces_out, ops)
    m[f"{layer}.fragments_per_op"] = _div(fragments, ops)
    m[f"{layer}.ns_per_face_in"] = _div(raster.self_ns, faces_in)
    m[f"{layer}.ns_per_fragment"] = _div(raster.self_ns, fragments)
    m[f"{layer}.visible_face_ratio"] = _div(faces_out, faces_in)
    m[f"{layer}.minor_faults_per_op"] = _div(sum(v[3] for v in stats), ops)
    m[f"{layer}.sys_cpu_pct"] = 100.0 * _div(system, user + system)

    layer = "services.render_service"
    m[f"{layer}.self_ms_per_op"] = per_op_ms(layer)
    m[f"{layer}.tile_redundancy"] = _div(faces_in, ops * scene_faces)
    m[f"{layer}.bootstrap_ms"] = all_phase_ms(
        layer, ("create_render_session",))

    layer = "render.compositor"
    m[f"{layer}.self_ms_per_op"] = per_op_ms(layer)
    m[f"{layer}.calls_per_op"] = _div(total(layer).calls, ops)
    layer = "render.framebuffer"
    m[f"{layer}.self_ms_per_op"] = per_op_ms(layer)
    m[f"{layer}.bytes_alloc_per_op"] = _div(
        sum(table.values(layer, ("__init__",))), ops)

    layer = "compression"
    encode = total(layer, ("encode",))
    decode = total(layer, ("decode",))
    sizes = table.values(layer, ("encode",), outer_only=True)
    m[f"{layer}.encode_ms_per_call"] = _div(encode.outer_dur_ns,
                                            encode.outer_calls) / 1e6
    m[f"{layer}.decode_ms_per_call"] = _div(decode.outer_dur_ns,
                                            decode.outer_calls) / 1e6
    m[f"{layer}.ratio"] = _div(sum(v[0] for v in sizes),
                               sum(v[1] for v in sizes))

    layer = "core.session"
    m[f"{layer}.self_ms_per_op"] = per_op_ms(layer)
    m[f"{layer}.connect_ms"] = all_phase_ms(layer, ("connect",))

    # -- simulated network ----------------------------------------------------------
    layer = "network.clock"
    events = sum(1 for v in table.values(layer, ("step",)) if v)
    pending = table.values(layer, ("schedule_at",))
    m[f"{layer}.events_per_op"] = _div(events, ops)
    m[f"{layer}.self_us_per_event"] = _div(total(layer).self_ns,
                                           events) / 1e3
    m[f"{layer}.events_per_wall_s"] = _div(events, wall_ns / 1e9)
    m[f"{layer}.pending_max"] = float(max(pending, default=0))

    layer = "network.simnet"
    net = total(layer)
    m[f"{layer}.calls_per_op"] = _div(net.calls, ops)
    m[f"{layer}.self_us_per_call"] = _div(net.self_ns, net.calls) / 1e3
    m[f"{layer}.bytes_moved_per_op"] = _div(
        sum(table.values(layer, ("send",))), ops)

    # -- farm -----------------------------------------------------------------------
    layer = "farm.queue_service"
    leases = sum(1 for v in table.values(layer, ("lease",)) if v)
    completes = sum(1 for v in table.values(layer, ("complete",)) if v)
    m[f"{layer}.lease_self_us"] = per_call_us(layer, ("lease",))
    m[f"{layer}.complete_self_us"] = per_call_us(layer, ("complete",))
    m[f"{layer}.submit_ms"] = all_phase_ms(layer, ("submit",))
    m[f"{layer}.completes_per_lease"] = _div(completes, leases)

    layer = "farm.controller"
    m[f"{layer}.dispatch_self_us_per_op"] = _div(total(layer).self_ns,
                                                 ops) / 1e3
    m[f"{layer}.prewarm_ms"] = all_phase_ms(layer, ("prewarm",))

    # -- wire formats ---------------------------------------------------------------
    layer = "services.protocol"
    framers = tuple(t.attr for t in TARGETS
                    if t.layer == layer and t.attr.startswith("frame_"))
    unframers = tuple(t.attr for t in TARGETS
                      if t.layer == layer and t.attr.startswith("unframe_"))
    m[f"{layer}.frame_us_per_call"] = per_call_us(layer, framers)
    m[f"{layer}.unframe_us_per_call"] = per_call_us(layer, unframers)
    m[f"{layer}.calls_per_op"] = _div(total(layer).calls, ops)
    m[f"{layer}.bytes_per_op"] = _div(
        sum(table.values(layer, outer_only=True)), ops)

    layer = "services.soap"
    m[f"{layer}.encode_us_per_call"] = per_call_us(layer, ("soap_encode",))
    m[f"{layer}.decode_us_per_call"] = per_call_us(layer, ("soap_decode",))
    m[f"{layer}.calls_per_op"] = _div(total(layer).calls, ops)
    m[f"{layer}.bytes_per_op"] = _div(sum(table.values(layer)), ops)

    layer = "network.marshalling"
    enc = total(layer, ("encode_value", "marshal"))
    dec = total(layer, ("decode_value", "demarshal"))
    m[f"{layer}.encode_us_per_call"] = _div(enc.outer_dur_ns,
                                            enc.outer_calls) / 1e3
    m[f"{layer}.decode_us_per_call"] = _div(dec.outer_dur_ns,
                                            dec.outer_calls) / 1e3
    m[f"{layer}.bytes_per_op"] = _div(
        sum(table.values(layer, outer_only=True)), ops)

    # -- services -------------------------------------------------------------------
    layer = "services.data_service"
    m[f"{layer}.subscribe_self_ms"] = per_call_us(
        layer, ("subscribe",)) / 1e3
    m[f"{layer}.calls_per_op"] = _div(total(layer).calls, ops)

    layer = "core.grid"
    outcomes = table.values(layer, ("request_session",))
    m[f"{layer}.request_self_us"] = per_call_us(layer, ("request_session",))
    m[f"{layer}.pump_self_us"] = per_call_us(layer, ("pump",))
    m[f"{layer}.release_self_us"] = per_call_us(layer, ("release_session",))
    for outcome in ("admit", "queue", "reject"):
        m[f"{layer}.{outcome}_ratio"] = _div(
            sum(1 for v in outcomes if v == outcome), len(outcomes))

    layer = "services.monitor"
    scrapes = total(layer, ("scrape_one",)).calls
    m[f"{layer}.scrapes_per_op"] = _div(scrapes, ops)
    m[f"{layer}.self_us_per_scrape"] = _div(total(layer).self_ns,
                                            scrapes) / 1e3
    m[f"{layer}.bytes_per_scrape"] = _div(
        sum(table.values("obs.telemetry", ("scrape_frame",))), scrapes)
    m["obs.telemetry.self_us_per_scrape"] = _div(
        total("obs.telemetry").self_ns, scrapes) / 1e3
    m["obs.metrics.snapshot_us"] = per_call_us("obs.metrics", ("snapshot",))

    m["trace.untraced_pct"] = 100.0 * _div(table.root().self_ns, wall_ns)
    m["trace.spans"] = float(table.n_measured)
    return m


def exact_counts(table: SpanTable, units: list[tuple[int, int]]
                 ) -> list[dict[str, list]]:
    """Calls and summed values per target, for each unit ``(first op, op
    after its last)``.

    These repeat exactly for one seed (timings and page faults do not, and
    are left out), so two runs of the same unit must agree on them.
    """
    unit_of_op: dict[int, int] = {}
    for k, (first, last) in enumerate(units):
        unit_of_op.update(dict.fromkeys(range(first, last), k))
    values: list[dict[int, list]] = [{} for _ in units]
    for (tid, _, _, _, value), op in zip(table.spans, table.ops):
        k = unit_of_op.get(op)
        if k is not None and tid != table.tracer.root_target:
            values[k].setdefault(tid, []).append(value)
    out = []
    for unit in values:
        counts: dict[str, list] = {}
        for tid in sorted(unit):
            seen = [v for v in unit[tid] if v is not None]
            entry: list = [len(unit[tid])]
            if seen and isinstance(seen[0], tuple):
                entry += [sum(col) for col in zip(*(v[:3] for v in seen))]
            elif seen and isinstance(seen[0], str):
                entry += [f"{k}={seen.count(k)}" for k in sorted(set(seen))]
            elif seen:
                entry.append(sum(seen))
            counts[table.tracer.targets[tid].name] = entry
        out.append(counts)
    return out
