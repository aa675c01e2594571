"""Network server benchmark: wire overhead, throughput, streaming.

Measures what serving the engine over TCP costs relative to driving it
in-process, all over loopback:

* **round-trip** — single-client point-SELECT statements/s, in-process
  connection vs ``repro://`` network connection (the per-statement
  protocol overhead: one frame out, one result frame, one fetch, one
  done);
* **concurrent clients** — N threads each with its own network
  connection running the same point-SELECT load against one server
  (thread-per-connection scaling; sessions share the engine's MVCC
  snapshots so reads never block);
* **streaming fetch** — one large SELECT drained with
  ``arraysize``-sized FETCH batches, rows/s across the wire for small
  and large batch sizes (the knob ``Cursor.arraysize`` gives clients).

Emits ``BENCH_server.json`` at the repo root.  Run directly::

    python benchmarks/bench_server.py            # record JSON + table
    python benchmarks/bench_server.py --smoke --check   # CI perf gate

``--check`` holds the acceptance floors (``GATES``: single-client
network statements/s and streamed rows/s on loopback) and compares
against the committed baseline (``BASELINE``).
"""

import os
import sys
import threading
import time

if __name__ == "__main__":  # runnable without PYTHONPATH=src
    sys.path.insert(0, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", "src"))

from repro import dbapi
from repro.bench.harness import (
    Baseline, BenchScript, Gate, ReportTable, assert_gates)
from repro.server import Server
from repro.sql.engine import Engine

N_TABLE_ROWS = 500
CONCURRENT_CLIENTS = (1, 4, 8)


def _seed_engine(n_rows):
    engine = Engine(lock_timeout=30.0)
    setup = engine.connect()
    setup.execute("CREATE TABLE kv (id INTEGER, val VARCHAR2(40))")
    setup.executemany("INSERT INTO kv VALUES (:1, :2)",
                      [[i, f"value-{i % 17}"] for i in range(n_rows)])
    setup.execute("CREATE INDEX kv_id ON kv(id)")
    setup.commit()
    return engine


def _point_select_load(conn, n_ops, n_rows):
    cur = conn.cursor()
    start = time.perf_counter()
    for i in range(n_ops):
        cur.execute("SELECT val FROM kv WHERE id = ?",
                    ((i * 37) % n_rows,))
        cur.fetchall()
    return time.perf_counter() - start


def bench_roundtrip(n_ops, n_rows):
    """Point-SELECT statements/s: in-process vs over the wire."""
    engine = _seed_engine(n_rows)
    try:
        local = dbapi.connect(engine)
        local_s = _point_select_load(local, n_ops, n_rows)
        local.close()
        with Server(engine=engine) as server:
            remote = dbapi.connect(server.url, timeout=30.0)
            remote_s = _point_select_load(remote, n_ops, n_rows)
            remote.close()
        return {
            "ops": n_ops,
            "inprocess_ops_per_s": round(n_ops / local_s, 1),
            "network_ops_per_s": round(n_ops / remote_s, 1),
            "wire_overhead_x": round(remote_s / max(local_s, 1e-9), 2),
        }
    finally:
        engine.close()


def bench_concurrent(n_ops_per_client, n_rows):
    """Total network statements/s with N independent client threads."""
    out = {}
    for n_clients in CONCURRENT_CLIENTS:
        engine = _seed_engine(n_rows)
        try:
            with Server(engine=engine,
                        max_sessions=n_clients + 2) as server:
                conns = [dbapi.connect(server.url, timeout=30.0)
                         for __ in range(n_clients)]
                errors = []

                def load(conn):
                    try:
                        _point_select_load(conn, n_ops_per_client, n_rows)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [threading.Thread(target=load, args=(c,))
                           for c in conns]
                start = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                elapsed = time.perf_counter() - start
                for conn in conns:
                    conn.close()
                if errors:
                    raise errors[0]
                total = n_clients * n_ops_per_client
                out[str(n_clients)] = {
                    "total_ops": total,
                    "elapsed_s": round(elapsed, 4),
                    "ops_per_s": round(total / elapsed, 1),
                }
        finally:
            engine.close()
    return out


def bench_streaming(n_rows):
    """Rows/s drained from one big SELECT, by client arraysize."""
    engine = _seed_engine(n_rows)
    out = {"rows": n_rows, "by_arraysize": {}}
    try:
        with Server(engine=engine) as server:
            conn = dbapi.connect(server.url, timeout=30.0)
            for arraysize in (1, 32, 256):
                cur = conn.cursor()
                cur.arraysize = arraysize
                start = time.perf_counter()
                cur.execute("SELECT id, val FROM kv")
                count = 0
                while True:
                    batch = cur.fetchmany()
                    if not batch:
                        break
                    count += len(batch)
                elapsed = time.perf_counter() - start
                assert count == n_rows
                out["by_arraysize"][str(arraysize)] = {
                    "elapsed_s": round(elapsed, 4),
                    "rows_per_s": round(count / elapsed, 1),
                }
            conn.close()
    finally:
        engine.close()
    return out


def run_benchmarks(smoke=False):
    n_ops = 150 if smoke else 1500
    n_rows = 200 if smoke else N_TABLE_ROWS
    stream_rows = 2000 if smoke else 10_000
    return {
        "meta": {"ops": n_ops, "table_rows": n_rows,
                 "stream_rows": stream_rows,
                 "concurrent_clients": list(CONCURRENT_CLIENTS),
                 "smoke": smoke},
        "cases": {
            "roundtrip": bench_roundtrip(n_ops, n_rows),
            "concurrent": bench_concurrent(max(n_ops // 4, 25), n_rows),
            "streaming": bench_streaming(stream_rows),
        },
    }


def render_table(results):
    cases = results["cases"]
    meta = results["meta"]
    table = ReportTable(
        f"server — wire overhead and throughput ({meta['ops']} point "
        f"SELECTs, {meta['stream_rows']} streamed rows, loopback)",
        ["case", "in-process", "network", "ratio"])
    rt = cases["roundtrip"]
    table.add_row("point SELECT ops/s", rt["inprocess_ops_per_s"],
                  rt["network_ops_per_s"],
                  f"{rt['wire_overhead_x']}x wire cost")
    for n in meta["concurrent_clients"]:
        row = cases["concurrent"][str(n)]
        table.add_row(f"{n} network client(s) total ops/s", "",
                      row["ops_per_s"], "")
    for arraysize, row in cases["streaming"]["by_arraysize"].items():
        table.add_row(f"stream rows/s (arraysize={arraysize})", "",
                      row["rows_per_s"], "")
    return table


GATES = (
    # a single network client on loopback must push at least this many
    # point SELECTs per second.  Deliberately generous — loopback round
    # trips run thousands/s; the gate catches accidental per-request
    # disasters (sleeping, reconnecting, re-pickling the world), not
    # honest machine-speed variance.
    Gate("roundtrip.network_ops_per_s", ">=", 150.0),
    # rows/s through arraysize-batched FETCH frames, best arraysize
    Gate("streaming.best_rows_per_s", ">=", 10_000.0,
         read=lambda cases: max(
             row["rows_per_s"]
             for row in cases["streaming"]["by_arraysize"].values())),
)
#: regression tolerance for --check: throughput may not drop below
#: this fraction of the committed baseline (network benches are noisy)
CHECK_TOLERANCE = 0.5
BASELINE = Baseline(("roundtrip.network_ops_per_s",), CHECK_TOLERANCE)
BENCH = BenchScript(__file__, run_benchmarks, render_table, GATES, BASELINE)


def test_server_benchmark():
    """Smoke-size run: results must hold the pytest side of ``GATES``."""
    assert_gates(GATES, run_benchmarks(smoke=True))


if __name__ == "__main__":
    sys.exit(BENCH.main())
