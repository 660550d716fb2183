"""Per-layer tracing for the traced benchmark run.

Wrappers installed from here, around the public function at each layer
boundary of the gateway, record one span per call: name, start and end
(wall nanoseconds), parent span and op id.  Spans stay in memory and
are written out when the run ends; self time is computed afterwards
from the span tree.  Work counters (rows translated, pushes, cache hits,
...) are recorded at the same boundaries.

Nothing here changes the program: :meth:`Recorder.install` swaps the
wrappers in with ``setattr`` and :meth:`Recorder.uninstall` puts the
original functions back, so a run can alternate traced and untraced
blocks of ops.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

from repro.agents.host_model import SimulatedHost
from repro.core.cache import CacheController
from repro.core import cache as cache_module
from repro.core.connection_manager import ConnectionManager
from repro.core.dispatch import FanoutDispatcher
from repro.core.gateway import Gateway
from repro.core.history import HistoryStore
from repro.core.plans import PlanCache
from repro.core.request_manager import RequestManager
from repro.drivers.base import GridRmStatement
from repro.glue.mapping import SchemaMapping
from repro.gma.global_layer import GlobalLayer
from repro.gma.streams import StreamHub
from repro.obs.trace import Tracer
from repro.simnet.network import Network
from repro.sql import parser as parser_module
from repro.sql.plan import BoundPlan
from repro.storage.engine import HistoryEngine
from repro.storage.simdisk import SimDisk

_now = time.perf_counter_ns

#: span name -> (layer, substrate?).  The layer names are the repo's
#: package/module names; ``agents`` and ``simnet`` are the simulated
#: substrate and are reported on their own line, not as system layers.
SPAN_LAYERS: dict[str, tuple[str, bool]] = {
    "gateway.query": ("core.gateway", False),
    "request.execute": ("core.request_manager", False),
    "sql.parse": ("sql", False),
    "sql.normalise": ("sql", False),
    "sql.plan_exec": ("sql", False),
    "plans.get": ("core.plans", False),
    "cache.lookup": ("core.cache", False),
    "cache.store": ("core.cache", False),
    "dispatch.run": ("core.dispatch", False),
    "dispatch.flight": ("core.dispatch", False),
    "dispatch.join": ("core.dispatch", False),
    "conn.acquire": ("core.connection_manager", False),
    "conn.release": ("core.connection_manager", False),
    "driver.execute": ("drivers", False),
    "glue.translate": ("glue", False),
    "history.record": ("core.history", False),
    "history.query": ("core.history", False),
    "storage.append": ("storage", False),
    "storage.fsync": ("storage", False),
    "gma.remote": ("gma", False),
    "streams.publish": ("gma.streams", False),
    "obs.span": ("obs", False),
    "agents.snapshot": ("agents", True),
    "simnet.request": ("simnet", True),
    "simnet.send": ("simnet", True),
    # The benchmark's own root span per op: time no wrapped layer
    # claimed (benchmark loop, virtual-clock scheduling, unwrapped
    # helpers such as the consumer's datagram decode).
    "op": ("unattributed", False),
}

_NAMES = list(SPAN_LAYERS)
_INDEX = {name: i for i, name in enumerate(_NAMES)}


class Recorder:
    """Span store + counters + the wrappers that feed them."""

    def __init__(self, network: Network) -> None:
        self.network = network
        #: One column per span field (name index, start and end ns,
        #: parent span index, op id); arrays, so the spans add no work
        #: to the garbage collector.  ``end`` is set when the call returns.
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        #: Span index -> inclusive bytes sent on the simulated network
        #: (only for the spans that need it: gateway.query, gma.remote).
        self.span_bytes: dict[int, int] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self.counting = False
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._build_patches()

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        stack = self._stack
        idx = len(self.name)
        self.name.append(_INDEX[name])
        self.parent.append(stack[-1] if stack else -1)
        self.op_of.append(self.op)
        self.end.append(0)
        self.start.append(_now())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        # Exceptions unwind LIFO through the wrappers' finally blocks.
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        if self.counting:
            self.counters[name] += n

    def _bytes(self) -> int:
        return int(self.network.stats.bytes_sent)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _timed(
        self, name: str, fn: Callable, on_result=None, *, pre=None, wire=False
    ):
        """Wrap ``fn`` in a span.  ``on_result(args, kwargs, result,
        state)`` records the boundary's work counters after the call;
        ``state`` is what ``pre(args)`` returned before it."""
        rec = self

        def wrapper(*args, **kwargs):
            state = pre(args) if pre is not None else None
            idx = rec.open(name)
            before = rec._bytes() if wire else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
                if wire:
                    rec.span_bytes[idx] = rec._bytes() - before
            if rec.counting:
                rec.counters[name + ".calls"] += 1
                if on_result is not None:
                    on_result(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_cm(self, enter_name: str, exit_name: str, fn: Callable):
        """Wrap a context-manager factory: time the acquire (call +
        ``__enter__``) and release (``__exit__``), not the ``with`` body,
        whose work belongs to the caller."""
        rec = self

        class _Timed:
            __slots__ = ("_args", "_kwargs", "_cm")

            def __init__(self, args, kwargs):
                self._args = args
                self._kwargs = kwargs

            def __enter__(self):
                idx = rec.open(enter_name)
                try:
                    self._cm = fn(*self._args, **self._kwargs)
                    return self._cm.__enter__()
                finally:
                    rec.close(idx)
                    rec.count(enter_name + ".calls")

            def __exit__(self, *exc):
                idx = rec.open(exit_name)
                try:
                    return self._cm.__exit__(*exc)
                finally:
                    rec.close(idx)

        def wrapper(*args, **kwargs):
            return _Timed(args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _build_patches(self) -> None:
        count = self.count

        def plans_get(args, kwargs, entry, hits_before):
            count("plans.get.hits", args[0].hits - hits_before)

        def cache_lookup(args, kwargs, result, _):
            count("cache.lookup.hits", result is not None)

        def dispatch_join(args, kwargs, flight, _):
            count("dispatch.singleflight_joins", flight is not None)

        def glue_rows(args, kwargs, rows, _):
            count("glue.rows_translated", len(rows))

        def history_rows(args, kwargs, n, _):
            count("history.rows_recorded", n)

        def storage_rows(args, kwargs, lsn, wal_bytes_before):
            rows = args[2] if len(args) > 2 else kwargs["rows"]
            count("storage.rows_appended", len(rows))
            count("storage.wal_bytes", wal_bytes(args) - wal_bytes_before)

        def pushes(args, kwargs, n, plan_execs_before):
            count("streams.pushes", n)
            count(
                "streams.plan_execs",
                self.counters["sql.plan_exec.calls"] - plan_execs_before,
            )

        def history_query(args, kwargs, result, _):
            store: HistoryStore = args[0]
            plan = kwargs.get("plan")
            sql = args[1] if len(args) > 1 else kwargs["sql"]
            group = (
                plan.select.table if plan is not None
                else _ORIGINAL_PARSE(sql).table
            )
            table = store.db.table(store.schema.group(group).name)
            count("history.rows_scanned", len(table.rows))
            count("history.rows_returned", len(result.rows))

        def plan_hits(args):
            return args[0].hits

        def plan_execs(args):
            return self.counters["sql.plan_exec.calls"]

        def wal_bytes(args):
            return int(args[0].registry.counter("wal.bytes").value)

        # (owner, attribute, span name, counter hook, pre-call state,
        #  record wire bytes)
        plain = [
            (Gateway, "query", "gateway.query", None, None, True),
            (RequestManager, "execute", "request.execute", None, None, False),
            (BoundPlan, "execute", "sql.plan_exec", None, None, False),
            (PlanCache, "get", "plans.get", plans_get, plan_hits, False),
            (CacheController, "lookup", "cache.lookup", cache_lookup, None, False),
            (CacheController, "store", "cache.store", None, None, False),
            (FanoutDispatcher, "run", "dispatch.run", None, None, False),
            (FanoutDispatcher, "run_flight", "dispatch.flight", None, None, False),
            (FanoutDispatcher, "join_flight", "dispatch.join", dispatch_join, None,
             False),
            (GridRmStatement, "execute_query", "driver.execute", None, None, False),
            (SchemaMapping, "translate_rows", "glue.translate", glue_rows, None,
             False),
            (HistoryStore, "record", "history.record", history_rows, None, False),
            (HistoryStore, "query", "history.query", history_query, None, False),
            (HistoryEngine, "append_rows", "storage.append", storage_rows,
             wal_bytes, False),
            (SimDisk, "fsync", "storage.fsync", None, None, False),
            (GlobalLayer, "query_remote", "gma.remote", None, None, True),
            (StreamHub, "publish", "streams.publish", pushes, plan_execs, False),
            (SimulatedHost, "snapshot", "agents.snapshot", None, None, False),
            (Network, "request", "simnet.request", None, None, False),
            (Network, "send", "simnet.send", None, None, False),
        ]
        for owner, attr, name, hook, pre, wire in plain:
            fn = owner.__dict__[attr]
            wrapped = self._timed(name, fn, hook, pre=pre, wire=wire)
            self._patches.append((owner, attr, fn, wrapped))
        for attr in ("span", "start_trace"):
            fn = Tracer.__dict__[attr]
            self._patches.append(
                (Tracer, attr, fn, self._timed_cm("obs.span", "obs.span", fn))
            )
        fn = ConnectionManager.__dict__["connection"]
        self._patches.append(
            (
                ConnectionManager,
                "connection",
                fn,
                self._timed_cm("conn.acquire", "conn.release", fn),
            )
        )
        # Functions imported by name are patched where their callers
        # bind them: every loaded repro module holding the original.
        for original, name in (
            (_ORIGINAL_PARSE, "sql.parse"),
            (_ORIGINAL_NORMALISE, "sql.normalise"),
        ):
            wrapped = self._timed(name, original)
            for mod_name, module in sorted(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapped))

    def install(self) -> None:
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapped in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_ns(self, factor: list[float]) -> dict[str, float]:
        """Per span name: total self time in ns, each span scaled by
        ``factor[op]``, its op's machine-speed factor.

        A span's self time is its duration minus the durations of its
        direct children; calls nest synchronously (the simulation runs
        on one thread), so children never overlap each other.
        """
        duration = [e - s for s, e in zip(self.start, self.end)]
        child_ns = [0] * len(duration)
        for parent, d in zip(self.parent, duration):
            if parent >= 0:
                child_ns[parent] += d
        totals: dict[str, float] = defaultdict(float)
        for name, d, c, op in zip(self.name, duration, child_ns, self.op_of):
            totals[_NAMES[name]] += (d - c) * factor[op]
        return dict(totals)

    def remote_wire_bytes(self, ops: set[int]) -> tuple[int, int]:
        """GMA wire bytes over the ``gma.remote`` spans of ``ops``,
        excluding the traffic of the remote gateway's nested
        ``Gateway.query`` (its own agent polls); returns
        ``(bytes, remote_calls)``."""
        remote = _INDEX["gma.remote"]
        query = _INDEX["gateway.query"]
        name, parent = self.name, self.parent
        nested: dict[int, int] = defaultdict(int)
        for i, kind in enumerate(name):
            if kind != query:
                continue
            # The nearest enclosing query or remote span decides.
            p = parent[i]
            while p >= 0 and name[p] not in (remote, query):
                p = parent[p]
            if p >= 0 and name[p] == remote:
                nested[p] += self.span_bytes.get(i, 0)
        total = calls = 0
        for i, kind in enumerate(name):
            if kind == remote and self.op_of[i] in ops:
                total += self.span_bytes.get(i, 0) - nested[i]
                calls += 1
        return total, calls

    def write(self, path: str) -> None:
        """Write every span as ``op,span,parent,name,start_ns,end_ns``."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op,span,parent,name,start_ns,end_ns\n")
            rows = zip(self.op_of, self.parent, self.name, self.start, self.end)
            for i, (op, parent, name, start, end) in enumerate(rows):
                out.write(f"{op},{i},{parent},{_NAMES[name]},{start},{end}\n")


_ORIGINAL_PARSE = parser_module.parse_select
_ORIGINAL_NORMALISE = cache_module.normalise_sql
