"""Span tracing installed from outside the engine.

The engine has no span instrumentation of its own (ROADMAP aim 4), so the
benchmark wraps the public entry points of each layer on the live objects
(instance attributes), on classes whose instances are created per call
(``CallbackSession``, statement cursors) and on the two module-level frame
functions.  ``Tracer.uninstall()`` restores every attribute.

A span is written out as ``{name, start, end, parent, stmt, thread}``:
``parent`` is the index of the enclosing span on the same thread (-1 for a
root) and ``stmt`` the client statement ordinal the runner set.  A span's *self time* is its duration minus
the durations of its direct children; per-name totals are accumulated when a
span closes, so a run needs no post-processing.  Spans themselves are kept
only while ``keep_spans`` is set (the first traced round), which bounds the
size of ``results/<workload>.trace.json``.

Inside a cartridge routine every nested engine call counts as callback SQL
(``core.callbacks.*``), not as ``sql.pipeline``/``sql.executor``: the budget
then shows what the ODCI path costs as a whole, which is what a change to the
scan seam would move.
"""

import threading
import time

now = time.perf_counter

#: routines whose call counts and inclusive seconds are reported by name
ODCI_ROUTINES = (
    "ODCIIndexStart", "ODCIIndexFetch", "ODCIIndexClose",
    "ODCIIndexInsertBatch", "ODCIIndexUpdateBatch", "ODCIIndexDeleteBatch",
    "ODCIIndexCreate", "ODCIStatsSelectivity", "ODCIStatsIndexCost")


class _ThreadState:
    """One thread's open-span stack and closed-span totals."""

    def __init__(self, thread_name):
        self.thread_name = thread_name
        self.stack = []          # [name, start, child_seconds]
        self.totals = {}         # name -> [self_s, inclusive_s, count]
        self.spans = []          # (name, start, end, depth, stmt)
        self.cartridge_depth = 0
        self.callback_depth = 0
        self.stmt = -1


class Tracer:
    """Collects spans from wrapped callables; off until ``on`` is set."""

    def __init__(self):
        self.on = False
        self.keep_spans = False
        self.resolve_calls = 0
        self._local = threading.local()
        self._states = []
        self._latch = threading.Lock()
        self._patches = []       # (owner, attribute, had_own, original)

    # -- span bookkeeping --------------------------------------------------

    def state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(
                threading.current_thread().name)
            with self._latch:
                self._states.append(st)
        return st

    def push(self, st, name):
        st.stack.append([name, now(), 0.0])

    def pop(self, st):
        end = now()
        name, start, child = st.stack.pop()
        duration = end - start
        total = st.totals.get(name)
        if total is None:
            total = st.totals[name] = [0.0, 0.0, 0]
        total[0] += duration - child
        total[1] += duration
        total[2] += 1
        if st.stack:
            st.stack[-1][2] += duration
        if self.keep_spans:
            # the parent is still open: it gets its index when it closes,
            # so children record the parent's *depth* and are re-linked in
            # spans_for_dump()
            st.spans.append((name, start, end, len(st.stack), st.stmt))

    def statement(self, ordinal):
        """Root span of one client statement (a context manager)."""
        return _Statement(self, ordinal)

    def wrap(self, fn, name):
        """``fn`` inside a span called ``name``.

        ``name`` may be a function of the thread's state that returns the
        span's name, or None to run ``fn`` without a span of its own.
        """
        tracer = self
        choose = name if callable(name) else None

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            st = tracer.state()
            span = choose(st) if choose else name
            if span is None:
                return fn(*args, **kwargs)
            tracer.push(st, span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop(st)
        return traced

    # -- results -----------------------------------------------------------

    def totals(self):
        """name -> {"self_s", "inclusive_s", "count"} over all threads."""
        out = {}
        with self._latch:
            states = list(self._states)
        for st in states:
            for name, (self_s, inclusive_s, count) in st.totals.items():
                agg = out.setdefault(
                    name, {"self_s": 0.0, "inclusive_s": 0.0, "count": 0})
                agg["self_s"] += self_s
                agg["inclusive_s"] += inclusive_s
                agg["count"] += count
        return out

    def spans_for_dump(self):
        """Kept spans as dicts with parent *indexes* (per thread)."""
        out = []
        with self._latch:
            states = list(self._states)
        for st in states:
            base = len(out)
            # spans close children-first; a span's parent is the next span
            # to close at depth-1
            pending = {}         # depth -> indexes waiting for that parent
            for i, (name, start, end, depth, stmt) in enumerate(st.spans):
                out.append({"name": name, "start": start, "end": end,
                            "parent": -1, "stmt": stmt,
                            "thread": st.thread_name})
                for child in pending.pop(depth + 1, ()):
                    out[child]["parent"] = base + i
                if depth:
                    pending.setdefault(depth, []).append(base + i)
        return out

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attribute, make):
        """Replace ``owner.attribute`` with ``make(original)``."""
        had_own = attribute in vars(owner)
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, had_own,
                              vars(owner).get(attribute)))
        setattr(owner, attribute, make(original))

    def uninstall(self):
        for owner, attribute, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches = []

    # -- what gets wrapped -------------------------------------------------

    def install_client(self):
        """DB-API surface and client-side frames (benchmark process)."""
        from repro import dbapi
        from repro.server import protocol
        for method in ("execute", "executemany", "fetchone", "fetchmany",
                       "fetchall", "close"):
            self.patch(dbapi.Cursor, method,
                       lambda fn: self.wrap(fn, "dbapi.client"))
        for cls in (dbapi.Connection, dbapi.NetworkConnection):
            self.patch(cls, "commit",
                       lambda fn: self.wrap(fn, "dbapi.client"))
        # NetworkConnection imports these from the module on every round
        # trip, so the module attribute is what it calls
        for fn_name in ("send_frame", "recv_frame"):
            self.patch(protocol, fn_name,
                       lambda fn: self.wrap(fn, "server.protocol.frame"))

    def install_engine(self, engine):
        """Layer entry points of one engine (any process)."""
        from repro.core.callbacks import CallbackSession
        from repro.sql.cursor import Cursor
        from repro.txn.mvcc import VersionStore
        self.patch(engine, "connect", self._wrap_connect)
        dispatcher = engine.dispatcher
        self.patch(dispatcher, "call", self._wrap_dispatch_call)
        self.patch(dispatcher, "call_batch",
                   lambda fn: self.wrap(fn, "sql.dml.maintenance_flush"))
        for method in ("execute", "query", "query_one", "insert_row",
                       "insert_rows", "direct_load"):
            self.patch(CallbackSession, method,
                       lambda fn: self._wrap_callback(
                           fn, "core.callbacks.sql"))
        for method in ("fetch_row", "fetch_value"):
            self.patch(CallbackSession, method,
                       lambda fn: self._wrap_callback(
                           fn, "core.callbacks.fetch_row"))
        for method in ("fetchone", "fetchmany", "fetchall", "close"):
            self.patch(Cursor, method,
                       lambda fn: self.wrap(fn, _cursor_span))
        self.patch(VersionStore, "resolve", self._wrap_resolve)
        if engine.durability is not None:
            self.patch(engine.durability, "commit",
                       lambda fn: self.wrap(fn, "storage.wal.commit"))
            self.patch(engine.durability, "checkpoint",
                       lambda fn: self.wrap(
                           fn, "storage.durability.checkpoint"))

    def install_session(self, session):
        """Pipeline stages of one session (its pipeline object is its own)."""
        pipeline = session.pipeline
        for method, stage in (("parse", "parse"), ("bind", "bind"),
                              ("plan", "plan"), ("execute", "execute"),
                              ("executemany", "execute")):
            self.patch(pipeline, method,
                       lambda fn, stage=stage: self.wrap(
                           fn, _unless_in_cartridge("sql.pipeline." + stage)))

    def install_server(self):
        """Request handling in the server process.

        A request is handled between the return of ``recv_frame`` and the
        call of ``send_frame`` on the connection's thread; both are module
        attributes of ``repro.server.server``.  The blocking part of
        ``recv_frame`` is idle time, so frames are not timed here: the
        client charges a round trip minus this span to the wire.
        """
        from repro.server import server as server_module
        tracer = self

        def recv_then_open(fn):
            def recv_frame(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.on:
                    tracer.push(tracer.state(), "server.server.handle")
                return result
            return recv_frame

        def close_then_send(fn):
            def send_frame(*args, **kwargs):
                st = tracer.state()
                if st.stack and st.stack[-1][0] == "server.server.handle":
                    tracer.pop(st)
                return fn(*args, **kwargs)
            return send_frame

        self.patch(server_module, "recv_frame", recv_then_open)
        self.patch(server_module, "send_frame", close_then_send)

    # -- wrappers with extra rules -----------------------------------------

    def _wrap_connect(self, fn):
        def connect(*args, **kwargs):
            session = fn(*args, **kwargs)
            self.install_session(session)
            return session
        return connect

    def _wrap_callback(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            st = tracer.state()
            if st.callback_depth:
                return fn(*args, **kwargs)   # query() -> execute()
            st.callback_depth += 1
            tracer.push(st, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop(st)
                st.callback_depth -= 1
        return traced

    def _wrap_resolve(self, fn):
        tracer = self

        def resolve(*args):
            if tracer.on:
                tracer.resolve_calls += 1   # a diagnostic: races tolerated
            return fn(*args)
        return resolve

    def _wrap_dispatch_call(self, call):
        tracer = self

        def traced_call(routine, fn, *args, **kwargs):
            if not tracer.on:
                return call(routine, fn, *args, **kwargs)
            st = tracer.state()
            cartridge = "cartridges." + _cartridge_of(fn)

            def routine_body(*routine_args):
                # callback_depth is reset so SQL run by a routine that was
                # itself reached from callback SQL is still counted
                outer_callback, st.callback_depth = st.callback_depth, 0
                st.cartridge_depth += 1
                tracer.push(st, cartridge)
                try:
                    return fn(*routine_args)
                finally:
                    tracer.pop(st)
                    st.cartridge_depth -= 1
                    st.callback_depth = outer_callback

            tracer.push(st, "core.dispatch." + routine)
            try:
                return call(routine, routine_body, *args, **kwargs)
            finally:
                tracer.pop(st)
        return traced_call


class _Statement:
    def __init__(self, tracer, ordinal):
        self.tracer = tracer
        self.ordinal = ordinal

    def __enter__(self):
        tracer = self.tracer
        if tracer.on:
            st = tracer.state()
            st.stmt = self.ordinal
            tracer.push(st, "bench.statement")
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self.tracer
        if tracer.on:
            st = tracer.state()
            if st.stack and st.stack[-1][0] == "bench.statement":
                tracer.pop(st)
        return False


def _unless_in_cartridge(name):
    """Inside a cartridge routine the call is part of the callback span."""
    return lambda st: None if st.cartridge_depth else name


def _cursor_span(st):
    """A statement cursor's fetch: the executor's time, unless a cartridge
    is draining a callback cursor row by row."""
    if st.callback_depth:
        return None
    return ("core.callbacks.sql_fetch" if st.cartridge_depth
            else "sql.executor.run")


def _cartridge_of(fn):
    """'text' for a routine defined in repro.cartridges.text.*, else the
    defining module's last component (a user-defined indextype)."""
    module = getattr(getattr(fn, "__self__", fn), "__module__", "") or ""
    parts = module.split(".")
    if len(parts) >= 3 and parts[:2] == ["repro", "cartridges"]:
        return parts[2]
    return parts[-1] or "unknown"
