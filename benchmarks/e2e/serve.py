"""Server child process for the wire workloads.

``python serve.py DATA_DIR TRACE OPTIONS CARTRIDGE...`` starts a
:class:`repro.server.Server` over a durable engine (default knobs: group
commit on, real fsync, no fsync delay; OPTIONS is a JSON object of the engine
options the workload sets otherwise), prints one JSON line with its URL
and then obeys one-word commands on stdin, answering each with one JSON
line on stdout:

``trace_on`` / ``spans_off`` / ``trace_off``  switch the tracer (installed at
start when TRACE is 1, so that switching needs no access to live sessions);
``stats``  engine counters, peak RSS and the tracer's totals and kept spans;
``quit``   graceful shutdown (WAL flush + checkpoint), then exit.

The parent kills the process instead of sending ``quit`` when the workload
ends with a crash.
"""

import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

from repro.server import Server  # noqa: E402

import enginestats  # noqa: E402
from trace import Tracer  # noqa: E402


def main(argv):
    data_dir, trace = argv[0], argv[1] == "1"
    server = Server(data_dir=data_dir, **json.loads(argv[2]))
    engine = server.engine
    tracer = Tracer()
    if trace:
        tracer.install_engine(engine)
        tracer.install_server()
    session = engine.connect()
    enginestats.install_cartridges(session, argv[3:])
    session.close()
    server.start()
    reply({"url": server.url})
    for line in sys.stdin:
        command = line.strip()
        if command == "trace_on":
            tracer.on = tracer.keep_spans = True
            reply({})
        elif command == "spans_off":
            tracer.keep_spans = False
            reply({})
        elif command == "trace_off":
            tracer.on = False
            reply({})
        elif command == "stats":
            reply({"engine": enginestats.snapshot(engine, tracer),
                   "rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "chain_len_mean": enginestats.chain_len_mean(engine),
                   "totals": tracer.totals(),
                   "spans": tracer.spans_for_dump()})
        elif command == "quit":
            break
    tracer.uninstall()
    server.shutdown()
    reply({})
    return 0


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
