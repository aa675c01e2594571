"""The network server: real client processes in front of one engine.

One :class:`Server` owns (or borrows) a shared
:class:`~repro.sql.engine.Engine` and serves it over TCP with the
framed protocol in :mod:`repro.server.protocol`.  The shape mirrors
the engine's own concurrency model: a thread-per-connection accept
loop where every connection gets its own
:class:`~repro.sql.session.Session` (the per-connection state of
DESIGN.md §8), while the catalog, buffer cache, plan cache, lock
manager, MVCC manager, and WAL stay shared.  What PR 6/7 built for
threads — lock-free snapshot SELECTs, group-commit durability — is
exactly what concurrent client *processes* exercise through this
module.

Lifecycle guarantees:

* **bounded session pool** — at most ``max_sessions`` concurrent
  connections; the (``max_sessions`` + 1)-th is answered with a typed
  error frame and closed, never queued invisibly;
* **idle timeout** — a connection that sends nothing for
  ``idle_timeout`` seconds is told so (typed error frame, best
  effort), its transaction rolled back, its session torn down;
* **statement timeout** — ``statement_timeout`` rides the dispatcher's
  existing per-routine wall-clock budgets
  (:attr:`~repro.core.dispatch.CallbackDispatcher.default_timeout`):
  every ODCI callback a statement runs is individually bounded, so a
  runaway domain-index scan fails with
  :class:`~repro.errors.CallbackTimeoutError` instead of pinning a
  server thread forever (pure built-in SQL is not preemptible — see
  docs/SERVER.md);
* **graceful drain** — :meth:`Server.shutdown` refuses new accepts,
  lets every in-flight statement finish and send its response, then
  closes sessions (rolling back open transactions, firing
  ``ODCIIndexClose`` for abandoned scans) and finally calls
  ``Engine.close()`` (WAL flush + checkpoint) when the server owns the
  engine.

Statistics are exposed through the ``user_server_stats`` dictionary
view of the served engine, so monitoring rides the same SQL surface as
everything else.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import errors as _errors
from repro.metrics import Histogram, Keyed, Metrics, histogram
from repro.server.protocol import (
    MAGIC, MAX_FRAME, PROTOCOL_VERSION, ConnectionClosed, ProtocolError,
    encode_error, recv_frame, send_frame)
from repro.sql.engine import Engine

__all__ = ["Server", "ServerStats", "serve"]


def _is_flag(value: Any) -> bool:
    return isinstance(value, bool)


def _is_timeout(value: Any) -> bool:
    # NaN fails the comparison; inf (wait forever) passes
    return (isinstance(value, (int, float))
            and not isinstance(value, bool) and value >= 0)


def _is_batch_size(value: Any) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool)
            and value > 0)


#: session settings a client may set in the handshake, each with the
#: test its value must pass (``setattr`` on the session follows, so a
#: wrong type would otherwise surface statements later, untyped).
#: ``snapshot_reads`` is not one: reads take no table locks, so a
#: session reading current mode would see uncommitted rows
SESSION_SETTINGS = {
    "lock_timeout": _is_timeout,
    "skip_unusable_indexes": _is_flag,
    "fetch_batch_size": _is_batch_size,
}

#: latency histogram bucket upper bounds, in milliseconds
_LATENCY_MS = (0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class OpStats(Metrics):
    """One wire operation's requests and their latency histogram."""

    requests: int = 0
    latency_histogram: Histogram = histogram(
        [ms / 1000.0 for ms in _LATENCY_MS],
        [f"<={ms}ms" for ms in _LATENCY_MS] + [f">{_LATENCY_MS[-1]}ms"])


@dataclass
class ServerStats(Metrics):
    """Counters + per-operation latency histogram for one server.

    All mutation happens under one latch, and so does ``snapshot()``,
    so ``user_server_stats`` (one row per op) and the ``stats`` wire op
    publish a consistent picture.  ``connections`` counts rejected ones.
    """

    ops: Keyed = field(default_factory=lambda: Keyed(OpStats, "op"))
    connections: int = 0
    rejected: int = 0
    active_sessions: int = 0
    sessions_peak: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    total_requests: int = 0
    errors: int = 0
    idle_timeouts: int = 0
    handshake_failures: int = 0

    def __post_init__(self) -> None:
        self._latch = threading.Lock()

    def connection_opened(self) -> None:
        with self._latch:
            self.connections += 1
            self.active_sessions += 1
            self.sessions_peak = max(self.sessions_peak,
                                     self.active_sessions)

    def connection_closed(self) -> None:
        with self._latch:
            self.active_sessions -= 1

    def connection_rejected(self) -> None:
        with self._latch:
            self.connections += 1
            self.rejected += 1

    def traffic(self, bytes_in: int = 0, bytes_out: int = 0) -> None:
        with self._latch:
            self.bytes_in += bytes_in
            self.bytes_out += bytes_out

    def observe(self, op: str, seconds: float, error: bool = False) -> None:
        with self._latch:
            self.total_requests += 1
            if error:
                self.errors += 1
            record = self.ops[op]
            record.requests += 1
            record.latency_histogram.add(seconds)

    def idle_timeout(self) -> None:
        with self._latch:
            self.idle_timeouts += 1

    def handshake_failed(self) -> None:
        with self._latch:
            self.handshake_failures += 1


class _Handler:
    """One connected client: a socket, a session, a cursor registry."""

    def __init__(self, server: "Server", sock: socket.socket,
                 addr: Tuple[str, int]):
        self.server = server
        self.sock = sock
        self.addr = addr
        self.session: Any = None
        self.cursors: Dict[int, Any] = {}
        self._next_cursor = 1
        #: held while a request is being processed *and* its response
        #: sent — shutdown() acquires it to let in-flight work finish
        self.busy = threading.Lock()
        self.stopping = False
        self.thread = threading.Thread(
            target=self.run, name=f"repro-server-{addr[0]}:{addr[1]}",
            daemon=True)

    # -- plumbing ----------------------------------------------------------

    def _send(self, op: str, payload: Optional[Dict[str, Any]] = None) -> None:
        sent = send_frame(self.sock, op, payload,
                          max_frame=self.server.max_frame)
        self.server.stats.traffic(bytes_out=sent)

    def _send_error(self, exc: BaseException) -> None:
        from repro.dbapi import _map_error
        if isinstance(exc, ProtocolError):
            dbapi_name = "InterfaceError"
        elif isinstance(exc, _errors.DatabaseError):
            dbapi_name = type(_map_error(exc)).__name__
        else:
            dbapi_name = "InternalError"
        self._send("error", encode_error(exc, dbapi_name))

    def _best_effort_error(self, exc: BaseException) -> None:
        try:
            self._send_error(exc)
        except OSError:
            pass

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        server = self.server
        try:
            if not self._handshake():
                return
            self._loop()
        except (ConnectionClosed, OSError):
            pass  # client went away; teardown below reclaims everything
        except ProtocolError as exc:
            self._best_effort_error(exc)
        finally:
            self._teardown()
            server.stats.connection_closed()
            server._release(self)

    def _handshake(self) -> bool:
        server = self.server
        self.sock.settimeout(server.handshake_timeout)
        try:
            op, payload, nbytes = recv_frame(self.sock, server.max_frame)
        except socket.timeout:
            server.stats.handshake_failed()
            return False
        server.stats.traffic(bytes_in=nbytes)
        try:
            if op != "hello":
                raise ProtocolError(
                    f"expected hello frame, got {op!r}")
            if payload.get("magic") != MAGIC:
                raise ProtocolError("not a repro client (bad magic)")
            version = payload.get("version")
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: client speaks "
                    f"{version!r}, server speaks {PROTOCOL_VERSION}")
            settings = payload.get("settings") or {}
            if not isinstance(settings, dict):
                raise ProtocolError("session settings must be a mapping")
            unknown = sorted(settings.keys() - SESSION_SETTINGS.keys(), key=str)
            if unknown:
                raise ProtocolError(
                    f"unknown session setting(s): {unknown}")
            for name, value in settings.items():
                if not SESSION_SETTINGS[name](value):
                    raise ProtocolError(
                        f"invalid value for session setting {name}: "
                        f"{value!r}")
        except ProtocolError as exc:
            server.stats.handshake_failed()
            self._best_effort_error(exc)
            return False
        self.session = server.engine.connect(
            str(payload.get("user", "main")))
        for name, value in settings.items():
            setattr(self.session, name, value)
        self._send("welcome", {
            "version": PROTOCOL_VERSION,
            "session_id": self.session.session_id,
            "server": "repro",
        })
        return True

    def _loop(self) -> None:
        server = self.server
        while not self.stopping:
            self.sock.settimeout(server.idle_timeout)
            try:
                op, payload, nbytes = recv_frame(self.sock,
                                                 server.max_frame)
            except socket.timeout:
                server.stats.idle_timeout()
                self._best_effort_error(_errors.TransactionError(
                    f"session idle for more than "
                    f"{server.idle_timeout}s; transaction rolled back "
                    "and connection closed"))
                return
            with self.busy:
                if self.stopping:
                    return
                server.stats.traffic(bytes_in=nbytes)
                if server._draining and op not in (
                        "commit", "rollback", "close"):
                    self._best_effort_error(_errors.TransactionError(
                        "server is shutting down; no new statements "
                        "accepted"))
                    return
                start = time.perf_counter()
                error: Optional[BaseException] = None
                closing = False
                try:
                    closing, reply_op, reply = self._dispatch(op, payload)
                except _errors.DatabaseError as exc:
                    # statement-level failure: report and keep serving
                    error = exc
                except Exception as exc:  # noqa: BLE001 - server bug
                    error = exc
                # observe *before* responding so a stats read racing the
                # client's next move never misses an answered request
                server.stats.observe(op, time.perf_counter() - start,
                                     error=error is not None)
                if error is not None:
                    self._send_error(error)
                else:
                    self._send(reply_op, reply)
                if closing:
                    return

    # -- request dispatch --------------------------------------------------

    def _dispatch(self, op: str,
                  payload: Dict[str, Any]) -> Tuple[bool, str,
                                                    Dict[str, Any]]:
        """Handle one request; returns (connection done, reply op,
        reply payload).  The caller records stats and sends the reply."""
        session = self.session
        if op == "execute":
            self._begin_if_needed()
            cursor = session.execute(payload.get("sql", ""),
                                     payload.get("binds"))
            return False, "result", self._describe(cursor)
        if op == "executemany":
            self._begin_if_needed()
            cursor = session.executemany(payload.get("sql", ""),
                                         payload.get("binds_seq") or [])
            return False, "result", self._describe(cursor)
        if op == "fetch":
            return False, "rows", self._fetch(payload)
        if op == "close_cursor":
            cursor = self.cursors.pop(payload.get("cursor"), None)
            if cursor is not None:
                cursor.close()
            return False, "ok", {}
        if op == "commit":
            session.commit()
            return False, "ok", {}
        if op == "rollback":
            session.rollback()
            return False, "ok", {}
        if op == "stats":
            return False, "ok", {"stats": dict(self.server.stats.snapshot(),
                                               address=self.server.address)}
        if op == "close":
            return True, "ok", {}
        raise ProtocolError(f"unknown operation {op!r}")

    def _begin_if_needed(self) -> None:
        # same implicit-transaction rule as the in-process driver: the
        # first statement of a connection (or after commit/rollback)
        # begins one; DDL still autocommits inside the engine
        if not self.session.in_transaction:
            self.session.begin()

    def _describe(self, cursor: Any) -> Dict[str, Any]:
        if cursor.description is None:
            cursor.close()
            return {"cursor": None, "description": None,
                    "rowcount": cursor.rowcount}
        cursor_id = self._next_cursor
        self._next_cursor += 1
        self.cursors[cursor_id] = cursor
        return {"cursor": cursor_id,
                "description": list(cursor.description),
                "rowcount": cursor.rowcount}

    def _fetch(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        cursor_id = payload.get("cursor")
        n = int(payload.get("n", 1))
        cursor = self.cursors.get(cursor_id)
        if cursor is None:
            raise ProtocolError(f"unknown or closed cursor {cursor_id!r}")
        rows = cursor.fetchmany(n) if n > 0 else cursor.fetchall()
        done = len(rows) < n or n <= 0
        if done:
            cursor.close()
            self.cursors.pop(cursor_id, None)
        return {"rows": rows, "done": done}

    # -- teardown ----------------------------------------------------------

    def _teardown(self) -> None:
        """Reclaim everything the connection held, best effort.

        Cursors abandoned mid-fetch get their ``ODCIIndexClose`` and
        give their workspace handles back; the open transaction rolls
        back; the session detaches.  Ordering matters: cursors first
        (scan state may pin the transaction's snapshot), then the
        session (which rolls back and closes anything it still
        tracks).
        """
        for cursor in list(self.cursors.values()):
            try:
                cursor.close()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        self.cursors.clear()
        if self.session is not None:
            try:
                self.session.close()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
            self.session = None
        try:
            self.sock.close()
        except OSError:
            pass


class Server:
    """TCP front end for one shared engine.

    ``Server()`` with no engine creates a private in-memory
    :class:`~repro.sql.engine.Engine` (pass ``data_dir=`` for a durable
    one) and closes it on shutdown; pass ``engine=`` to serve an engine
    the caller owns — e.g. one that test or bench code also drives
    in-process for cross-validation.

    Usable as a context manager::

        with Server(port=0) as server:
            conn = dbapi.connect(server.url)
    """

    def __init__(self, engine: Optional[Engine] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_sessions: int = 32,
                 idle_timeout: Optional[float] = None,
                 statement_timeout: Optional[float] = None,
                 handshake_timeout: float = 10.0,
                 max_frame: int = MAX_FRAME,
                 backlog: int = 64,
                 data_dir: Optional[str] = None,
                 **engine_options: Any):
        if engine is not None and (data_dir is not None or engine_options):
            raise ValueError(
                "engine options are only valid when the server creates "
                "its own engine")
        self._owns_engine = engine is None
        if engine is None:
            engine = Engine(data_dir=data_dir, **engine_options)
        self.engine = engine
        self.host = host
        self.port = port
        self.max_sessions = max_sessions
        self.idle_timeout = idle_timeout
        self.statement_timeout = statement_timeout
        self.handshake_timeout = handshake_timeout
        self.max_frame = max_frame
        self.backlog = backlog
        self.stats = ServerStats()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._handlers: List[_Handler] = []
        self._handlers_latch = threading.Lock()
        self._draining = False
        self._started = False
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Server":
        """Bind, listen, and start accepting in a background thread."""
        if self._started:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.backlog)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        #: publish statistics through the engine's dictionary views
        self.engine.server_stats = self.stats
        if (self.statement_timeout is not None
                and self.engine.dispatcher.default_timeout is None):
            # ride the dispatcher's existing wall-clock budgets: every
            # ODCI callback of every statement is individually bounded
            self.engine.dispatcher.default_timeout = self.statement_timeout
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept",
            daemon=True)
        self._started = True
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolved after :meth:`start`)."""
        return (self.host, self.port)

    @property
    def url(self) -> str:
        """The DSN clients connect with: ``repro://host:port``."""
        return f"repro://{self.host}:{self.port}"

    def shutdown(self, drain_timeout: float = 30.0) -> None:
        """Graceful drain: finish in-flight statements, then stop.

        New accepts are refused immediately; each connected client's
        current statement (if any) completes and its response is sent;
        then connections close, sessions tear down (open transactions
        roll back, abandoned scans fire ``ODCIIndexClose``), and — when
        the server owns its engine — ``Engine.close()`` runs last so a
        durable engine flushes its WAL and checkpoints.
        """
        if not self._started or self._stopped:
            return
        self._draining = True
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() before close(): closing alone does not wake a
            # thread blocked in accept() on Linux, shutting down does
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=drain_timeout)
        deadline = time.monotonic() + drain_timeout
        with self._handlers_latch:
            handlers = list(self._handlers)
        for handler in handlers:
            # waits for the in-flight statement (and its response)
            acquired = handler.busy.acquire(
                timeout=max(0.0, deadline - time.monotonic()))
            try:
                handler.stopping = True
                try:
                    handler.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            finally:
                if acquired:
                    handler.busy.release()
        for handler in handlers:
            handler.thread.join(
                timeout=max(0.1, deadline - time.monotonic()))
        if self._owns_engine:
            self.engine.close()
        self._stopped = True

    close = shutdown

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    # -- accept loop -------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None and not self._draining:
            try:
                sock, addr = listener.accept()
            except OSError:
                break  # listener closed: drain began
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._handlers_latch:
                active = len(self._handlers)
            if self._draining or active >= self.max_sessions:
                self.stats.connection_rejected()
                reason = ("server is shutting down" if self._draining
                          else f"session pool exhausted "
                               f"({self.max_sessions} sessions)")
                try:
                    send_frame(sock, "error", encode_error(
                        _errors.TransactionError(reason),
                        "OperationalError"))
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            handler = _Handler(self, sock, addr)
            with self._handlers_latch:
                self._handlers.append(handler)
            self.stats.connection_opened()
            handler.thread.start()

    def _release(self, handler: _Handler) -> None:
        with self._handlers_latch:
            try:
                self._handlers.remove(handler)
            except ValueError:
                pass


def serve(engine: Optional[Engine] = None, host: str = "127.0.0.1",
          port: int = 0, **options: Any) -> Server:
    """Create and start a :class:`Server`; returns it running."""
    return Server(engine=engine, host=host, port=port, **options).start()
