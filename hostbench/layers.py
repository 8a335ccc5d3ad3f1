"""Host-time accounting per simulator layer, measured from outside.

Nothing here edits :mod:`repro`.  The benchmark measures each layer by
wrapping the layer's boundary functions at class (or module) level,
*before* any ``Machine`` is built: compiled protocol dispatch and
``Processor._guarded`` bind methods at construction, so a wrapper put in
afterwards would be bypassed.

Two instruments live here:

- :class:`SetupClock` (untraced and traced runs): host seconds from
  ``Machine(...)`` construction to the machine's first simulated event,
  and the switch that stops a machine there, so set-up can be repeated
  without simulating.
- :class:`Tracer` (traced runs only): exclusive ("self") host time per
  layer.  Every boundary crossing charges the time since the previous
  crossing to the layer that was running, so the layers' self times plus
  ``other`` (time outside every layer) add up to the traced interval
  exactly.  Spans are aggregated as they close; only a bounded window of
  raw spans is kept, so tracing millions of calls costs no memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Layer name -> boundary functions, as ``(module, owner, names)``:
#: ``owner`` is a class name in ``module``, or ``None`` for module-level
#: functions.  ``workload`` is resolved per subclass (see
#: :func:`_workload_classes`); the home engine's compiled handler is an
#: instance attribute and is wrapped per instance (see
#: :meth:`Tracer.install`).
Boundary = Tuple[str, Optional[str], Tuple[str, ...]]

BOUNDARIES: Dict[str, Tuple[Boundary, ...]] = {
    "engine": (
        ("repro.sim.engine", "Simulator", ("run", "at", "after")),
    ),
    "processor": (
        ("repro.machine.processor", "Processor",
         ("_step", "post_trap", "barrier_release")),
    ),
    "workload": (
        ("repro.workloads.base", "Workload", ("setup", "thread")),
    ),
    "cache_ctrl": (
        ("repro.core.cache_ctrl", "CacheController",
         ("try_hit", "start_miss", "start_ifetch_miss", "handle",
          "check_in")),
    ),
    "cache": (
        ("repro.cache.cache", "DirectMappedCache",
         ("lookup", "probe", "fill", "invalidate", "downgrade")),
    ),
    "fabric": (
        ("repro.network.fabric", "Fabric", ("send", "_receive", "_deliver")),
    ),
    "node": (
        ("repro.machine.node", "Node", ("receive", "send_protocol")),
    ),
    "home": (
        ("repro.core.protocol.engine", "HomeProtocolEngine", ("handle",)),
    ),
    "software": (
        ("repro.core.software.interface", "CoherenceInterface",
         ("run_handler", "transmit", "transmit_invalidations")),
        ("repro.core.software.handlers", "ProtocolSoftware",
         ("on_read_overflow", "on_write_extended", "on_write_broadcast",
          "on_ack_software", "on_ack_sequential", "on_last_ack")),
    ),
    "sync": (
        ("repro.machine.sync", "LockManager",
         ("handle", "acquire", "release")),
        ("repro.machine.sync", "ReductionManager", ("handle", "contribute")),
        ("repro.machine.barrier", "BarrierManager", ("handle", "arrive")),
    ),
    "obs": (
        ("repro.obs.spans", "SpanCollector",
         ("_on_stall", "_on_handler", "_on_trap", "_on_message",
          "_on_transition")),
        ("repro.obs.attribution", "AttributionReport", ("build",)),
        ("repro.obs.attribution", None, ("attribution_dict",)),
    ),
    "exec": (
        ("repro.exec.pool", "JobRunner", ("run",)),
        ("repro.exec.cache", "ResultCache", ("get", "put")),
    ),
    "reportgen": (
        ("repro.analysis.reportgen", None,
         ("render_experiments_md", "analyze_doc")),
    ),
    "machine_build": (
        ("repro.machine.machine", "Machine", ("__init__",)),
    ),
}

LAYERS: Tuple[str, ...] = tuple(BOUNDARIES)

#: Callbacks (event bodies, handler completions) are closures defined
#: inside a layer's module; they run from the engine's loop, so they are
#: charged to the layer of the module that defined them.  First matching
#: prefix wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "engine"),
    ("repro.machine.processor", "processor"),
    ("repro.workloads", "workload"),
    ("repro.core.cache_ctrl", "cache_ctrl"),
    ("repro.cache", "cache"),
    ("repro.network", "fabric"),
    ("repro.machine.node", "node"),
    ("repro.core.protocol", "home"),
    ("repro.core.software", "software"),
    ("repro.machine.sync", "sync"),
    ("repro.machine.barrier", "sync"),
    ("repro.obs", "obs"),
    ("repro.exec", "exec"),
    ("repro.analysis.reportgen", "reportgen"),
)

OTHER = "other"


class BoundaryMissing(LookupError):
    """A boundary function named in :data:`BOUNDARIES` no longer exists.

    Raised instead of silently tracing nothing, which would read as a
    layer that costs 0 s.
    """


class FirstEvent(Exception):
    """Raised at a machine's first simulated event by a set-up-only
    round (:attr:`SetupClock.stop_at_first_event`)."""


def resolve(layer: str) -> List[Tuple[object, str, Callable]]:
    """``(owner, name, function)`` for every boundary of ``layer``.

    Raises :class:`BoundaryMissing` if a module, class or function is
    gone, so a renamed boundary fails the traced run loudly.
    """
    found = []
    for module_name, owner_name, names in BOUNDARIES[layer]:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise BoundaryMissing(
                f"{layer}: module {module_name} is gone") from exc
        owner = module if owner_name is None else getattr(
            module, owner_name, None)
        if owner is None:
            raise BoundaryMissing(
                f"{layer}: {module_name}.{owner_name} is gone")
        for name in names:
            fn = vars(owner).get(name)
            if fn is None:
                where = owner_name or module_name
                raise BoundaryMissing(f"{layer}: {where}.{name} is gone")
            found.append((owner, name, fn))
    return found


def _workload_classes() -> List[type]:
    """Every concrete :class:`~repro.workloads.base.Workload` subclass
    that defines ``setup`` or ``thread`` itself."""
    import repro.workloads  # noqa: F401 - registers every subclass
    from repro.workloads.base import Workload

    out: List[type] = []
    todo = list(Workload.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "setup" in vars(cls) or "thread" in vars(cls):
            out.append(cls)
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))


def _takes_callbacks(fn: Callable) -> bool:
    """Whether any parameter of ``fn`` is annotated as a ``Callable``."""
    try:
        parameters = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return False
    return any("Callable" in str(p.annotation) for p in parameters)


def _patch(owner: object, name: str, new: object,
           undo: List[Tuple[object, str, object]]) -> None:
    undo.append((owner, name, vars(owner)[name]))
    setattr(owner, name, new)


def _restore(undo: List[Tuple[object, str, object]]) -> None:
    for owner, name, old in reversed(undo):
        setattr(owner, name, old)
    undo.clear()


class SetupClock:
    """Host seconds from ``Machine(...)`` to each machine's first event.

    Summed over every machine built while installed.  With
    :attr:`stop_at_first_event` set, the first event raises
    :class:`FirstEvent` instead of simulating: a set-up-only round runs
    the program's own construction, workload set-up and thread creation
    and nothing else.
    """

    def __init__(self) -> None:
        self.total = 0.0
        self.stop_at_first_event = False
        self._built_at: Optional[float] = None
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        from repro.machine.machine import Machine
        from repro.sim.engine import Simulator

        machine_init = Machine.__init__
        sim_run = Simulator.run
        clock = time.perf_counter

        @functools.wraps(machine_init)
        def timed_init(machine, *args, **kwargs):
            self._built_at = clock()
            machine_init(machine, *args, **kwargs)

        @functools.wraps(sim_run)
        def timed_run(sim, *args, **kwargs):
            if self._built_at is not None:
                self.total += clock() - self._built_at
                self._built_at = None
            if self.stop_at_first_event:
                raise FirstEvent()
            return sim_run(sim, *args, **kwargs)

        _patch(Machine, "__init__", timed_init, self._undo)
        _patch(Simulator, "run", timed_run, self._undo)

    def uninstall(self) -> None:
        _restore(self._undo)


class Tracer:
    """Exclusive host time and entry counts per layer.

    After :meth:`stop`, :attr:`self_s` maps each layer (and ``other``)
    to its self time and :attr:`calls` maps each layer to its entries
    from a different layer (same-layer re-entry, e.g. ``after`` calling
    ``at``, is not a new call).  :attr:`recent` holds the first
    ``window`` raw spans of the interval as ``(layer, parent layer,
    start, end)``, times relative to :meth:`start`.
    """

    def __init__(self, window: int = 4096) -> None:
        self.names: Tuple[str, ...] = LAYERS + (OTHER,)
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.recent: List[Tuple[str, str, float, float]] = []
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._module_layer: Dict[Optional[str], Optional[int]] = {}
        self._undo: List[Tuple[object, str, object]] = []
        self._self = [0.0] * len(self.names)
        self._calls = [0] * len(self.names)
        self._spans: List[Tuple[int, int, float, float]] = []
        self._stack: List[Tuple[int, float]] = []
        #: [current layer id, time of the last crossing, interval start]
        self._state = [self._ids[OTHER], 0.0, 0.0]
        self.enter, self.leave = self._hooks(window)

    def _hooks(self, window: int):
        """The two functions every wrapper calls, closed over plain
        lists: attribute lookups per call would double the overhead."""
        clock = time.perf_counter
        self_s, calls = self._self, self._calls
        spans, stack, state = self._spans, self._stack, self._state

        def enter(layer: int) -> None:
            now = clock()
            current = state[0]
            self_s[current] += now - state[1]
            stack.append((current, now))
            if layer != current:
                calls[layer] += 1
            state[0] = layer
            state[1] = now

        def leave() -> None:
            now = clock()
            current = state[0]
            self_s[current] += now - state[1]
            parent, started = stack.pop()
            if len(spans) < window:
                spans.append((current, parent, started, now))
            state[0] = parent
            state[1] = now

        return enter, leave

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin a traced interval; earlier totals are discarded."""
        for i in range(len(self.names)):
            self._self[i] = 0.0
            self._calls[i] = 0
        self._spans.clear()
        self._stack.clear()
        now = time.perf_counter()
        self._state[:] = [self._ids[OTHER], now, now]

    def stop(self) -> float:
        """End the traced interval; returns its length in seconds."""
        now = time.perf_counter()
        current, mark, started = self._state
        self._self[current] += now - mark
        self._state[1] = now
        names = self.names
        self.self_s = dict(zip(names, self._self))
        self.calls = {name: n for name, n in zip(names, self._calls)
                      if name != OTHER}
        self.recent = [(names[layer], names[parent], begin - started,
                        end - started)
                       for layer, parent, begin, end in self._spans]
        return now - started

    def layer_of_module(self, module: Optional[str]) -> Optional[int]:
        """Id of the layer a module belongs to, or ``None``."""
        try:
            return self._module_layer[module]
        except KeyError:
            layer = None
            for prefix, name in MODULE_LAYERS:
                if module is not None and (module == prefix or
                                           module.startswith(prefix + ".")):
                    layer = self._ids[name]
                    break
            self._module_layer[module] = layer
            return layer

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _charged(self, fn: Callable, name: str) -> Callable:
        """``fn``, charged to layer ``name`` while it runs.

        Arguments annotated as callables (event bodies, handler
        completions) are closures that run later from the engine's
        loop; they are re-charged to the layer whose module defined
        them, so their work is not billed to whoever calls them.
        """
        enter, leave = self.enter, self.leave
        layer = self._ids[name]

        if not _takes_callbacks(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()

            return traced

        tag = self._tag

        @functools.wraps(fn)
        def traced_with_callbacks(*args, **kwargs):
            enter(layer)
            try:
                return fn(*map(tag, args), **kwargs)
            finally:
                leave()

        return traced_with_callbacks

    def _tag(self, value):
        if type(value) is not types.FunctionType:
            return value
        layer = self.layer_of_module(value.__module__)
        if layer is None:
            return value
        enter, leave = self.enter, self.leave

        def callback(*args, **kwargs):
            enter(layer)
            try:
                return value(*args, **kwargs)
            finally:
                leave()

        return callback

    def _traced_thread(self, it: Iterator) -> Iterator:
        enter, leave = self.enter, self.leave
        layer = self._ids["workload"]

        class TracedThread:
            __slots__ = ()

            def __iter__(self):
                return self

            def __next__(self):
                enter(layer)
                try:
                    return next(it)
                finally:
                    leave()

        return TracedThread()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's boundary functions.

        Call before building any ``Machine`` whose layers should be
        traced.  Raises :class:`BoundaryMissing` (and installs nothing)
        if any boundary function is gone.
        """
        resolved = {layer: resolve(layer) for layer in LAYERS}
        undo = self._undo
        try:
            for layer, boundaries in resolved.items():
                if layer == "workload":
                    continue
                for owner, name, raw in boundaries:
                    if isinstance(raw, classmethod):
                        new = classmethod(self._charged(raw.__func__, layer))
                    else:
                        new = self._charged(raw, layer)
                    _patch(owner, name, new, undo)
            self._install_workloads(undo)
            self._install_home_instances(undo)
        except BaseException:
            _restore(undo)
            raise

    def _install_workloads(self, undo) -> None:
        traced_thread = self._traced_thread
        for cls in _workload_classes():
            if "setup" in vars(cls):
                _patch(cls, "setup",
                       self._charged(vars(cls)["setup"], "workload"), undo)
            if "thread" in vars(cls):
                make = vars(cls)["thread"]

                @functools.wraps(make)
                def thread(workload, machine, node_id, _make=make):
                    return traced_thread(_make(workload, machine, node_id))

                _patch(cls, "thread", thread, undo)

    def _install_home_instances(self, undo) -> None:
        """Compiled dispatch shadows ``HomeProtocolEngine.handle`` with a
        per-instance closure (swapped again by ``obs_attached``); wrap
        that closure whenever it is set."""
        from repro.core.protocol.engine import HomeProtocolEngine

        charged = self._charged

        def wrap_instance(engine) -> None:
            handle = vars(engine).get("handle")
            if handle is not None:
                engine.handle = charged(handle, "home")

        for name in ("__init__", "obs_attached"):
            original = vars(HomeProtocolEngine)[name]

            @functools.wraps(original)
            def hooked(engine, *args, _original=original, **kwargs):
                _original(engine, *args, **kwargs)
                wrap_instance(engine)

            _patch(HomeProtocolEngine, name, hooked, undo)

    def uninstall(self) -> None:
        _restore(self._undo)
