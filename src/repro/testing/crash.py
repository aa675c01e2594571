"""Kill-at-random-point crash-recovery harness.

The durability proof is empirical: run a seeded mixed-DML workload in a
subprocess, SIGKILL it at a scheduled storage event, reopen the data
directory, run restart recovery, and check the ACID ledger:

* **Durability** — every transaction the child *acked* (it wrote the
  tag to ``acked.log`` and fsynced it only after ``commit()`` returned)
  is fully present after recovery.
* **Atomicity** — every other attempted transaction is all-or-nothing:
  either every row it wrote survives or none does.  Losers killed
  mid-flight must leave no partial effects.  Some transactions end in
  ROLLBACK, and some roll back to a savepoint before they commit: what
  a rollback undid must stay undone after recovery, which replays the
  compensation records the rollback logged.  Some transactions load a
  few pages of rows into ``h`` and a few keys into the IOT ``kv``, each
  with one ``executemany`` (above ``h``'s high-water mark, between the
  other loads' keys); some of those loads are rolled back to a savepoint.
* **Consistency** — shared counters equal the number of recovered
  transactions that incremented them; native-index lookups agree with
  full scans; a transaction-snapshot read agrees with a current read.
* **Idempotence** — with some seeds the harness SIGKILLs the *recovery
  run itself* (at a ``recovery.redo``/``recovery.undo`` event) and then
  recovers again; the final state must still satisfy all of the above.

Everything is derived deterministically from one integer seed: the
workload plan, the kill point, and the re-kill decision.  A failing
seed therefore replays exactly::

    PYTHONPATH=src python -m repro.testing.crash --seed 1234 -v

and a sweep runs ``--seeds N``.  The scheduled kill arrives via the
engine's ``durability_event_hook`` — ``os.kill(os.getpid(), SIGKILL)``
from whatever thread trips the counter, which is as close to pulling
the plug as a process can get (the OS keeps completed writes, nothing
else).  Device-level lies (torn writes, short fsyncs) are the province
of :class:`~repro.testing.faults.StorageFaultPlan`, not this harness.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

ACKED_FILE = "acked.log"
SETUP_TAG = "SETUP"

#: events a workload kill can target, with the nth-occurrence range the
#: seed draws from (small nth → early crash, large → late or clean run)
KILL_KINDS: List[Tuple[str, int]] = [
    ("wal.append", 260),
    ("wal.fsync", 90),
    ("page.flush", 40),
    ("checkpoint.begin", 8),
]
#: events a recovery re-kill can target
RECOVERY_KILL_KINDS: List[Tuple[str, int]] = [
    ("recovery.redo", 12),
    ("recovery.undo", 6),
]

COUNTER_KEYS = 8
KV_BASE = 10_000
#: how a transaction undoes changes before it ends, weighted:
#: ``rollback`` ends it in ROLLBACK; ``savepoint`` makes extra changes
#: after a SAVEPOINT and rolls back to it before the commit
UNDO_WEIGHTS: Dict[Optional[str], int] = {"rollback": 15, "savepoint": 20,
                                          None: 65}
#: whether a transaction also loads rows into ``h`` with one
#: ``executemany``, weighted: ``keep`` commits with the transaction,
#: ``savepoint`` is rolled back to a SAVEPOINT taken before it
LOAD_WEIGHTS: Dict[Optional[str], int] = {"keep": 25, "savepoint": 15,
                                          None: 60}
#: ``n`` of a load's first row; a load is 250–400 rows of ``h``, at
#: least two of its pages
LOAD_BASE = 1000


@dataclass
class TxnPlan:
    """One transaction of the workload, derived purely from the seed."""

    index: int
    tag: str
    rows: List[Tuple[int, int]]          # (n, v) inserts into h
    update_n: Optional[int]              # own row updated: v -> v + 1000
    delete_n: Optional[int]              # own row deleted afterwards
    counters: List[int] = field(default_factory=list)
    undo: Optional[str] = None           # an UNDO_WEIGHTS key
    load: Optional[str] = None           # a LOAD_WEIGHTS key
    load_rows: int = 0

    @property
    def kv_key(self) -> int:
        return KV_BASE + self.index

    def loaded(self) -> List[Tuple[int, int]]:
        """The (n, v) rows the transaction's load inserts into h."""
        return [(n, (n * 7 + self.index) % 1000)
                for n in range(LOAD_BASE, LOAD_BASE + self.load_rows)]

    def loaded_kv(self) -> List[int]:
        """The kv keys (payload: the plan's index) its load inserts:
        ``40 000 + 100 j + index``, between every other plan's keys."""
        return [40_000 + 100 * j + self.index
                for j in range(4)] if self.load else []

    def expected_h_rows(self) -> Dict[int, int]:
        """Final (n -> v) content of h for this txn, if it committed."""
        out = dict(self.rows)
        if self.load == "keep":
            out.update(self.loaded())
        if self.update_n is not None:
            out[self.update_n] += 1000
        if self.delete_n is not None:
            del out[self.delete_n]
        return out


def plan_workload(seed: int, txns: int = 40) -> List[TxnPlan]:
    """The deterministic transaction mix for one seed (pure function)."""
    rng = random.Random(seed)
    # rollbacks draw from their own stream, so a seed's row, update,
    # delete and counter choices do not depend on them
    undo_rng = random.Random(seed * 6007 + 3)
    load_rng = random.Random(seed * 4481 + 11)
    plans = []
    for i in range(txns):
        nrows = rng.randint(1, 5)
        rows = [(n, rng.randint(0, 999)) for n in range(nrows)]
        update_n = rng.randrange(nrows) if rng.random() < 0.5 else None
        delete_n = None
        if nrows >= 2 and rng.random() < 0.3:
            candidates = [n for n, __ in rows if n != update_n]
            if candidates:
                delete_n = rng.choice(candidates)
        counters = sorted(rng.sample(range(COUNTER_KEYS),
                                     rng.randint(0, 2)))
        undo = undo_rng.choices(list(UNDO_WEIGHTS),
                                list(UNDO_WEIGHTS.values()))[0]
        load = load_rng.choices(list(LOAD_WEIGHTS),
                                list(LOAD_WEIGHTS.values()))[0]
        plans.append(TxnPlan(index=i, tag=f"t{i:03d}", rows=rows,
                             update_n=update_n, delete_n=delete_n,
                             counters=counters, undo=undo, load=load,
                             load_rows=load_rng.randint(250, 400)
                             if load else 0))
    return plans


def kill_spec(seed: int) -> Tuple[str, int]:
    """(event kind, nth occurrence) at which the child SIGKILLs itself."""
    rng = random.Random(seed * 7919 + 13)
    kind, span = rng.choice(KILL_KINDS)
    return kind, rng.randint(1, span)


def recovery_kill_spec(seed: int) -> Optional[Tuple[str, int]]:
    """Whether (and where) to SIGKILL the recovery run itself."""
    rng = random.Random(seed * 104729 + 41)
    if rng.random() < 0.5:
        return None
    kind, span = rng.choice(RECOVERY_KILL_KINDS)
    return kind, rng.randint(1, span)


def checkpoint_interval(seed: int) -> int:
    """Commits between auto-checkpoints (small → checkpoints mid-sweep)."""
    return random.Random(seed * 31 + 7).randint(4, 12)


class _Killer:
    """Counts durability events; SIGKILLs the process at the nth match."""

    def __init__(self, kind: str, nth: int):
        self.kind = kind
        self.nth = nth
        self._count = 0
        self._latch = threading.Lock()

    def __call__(self, event: str) -> None:
        if event != self.kind:
            return
        with self._latch:
            self._count += 1
            fire = self._count == self.nth
        if fire:
            os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# child: run the workload, die on schedule
# ----------------------------------------------------------------------

def _ack(fd: int, tag: str) -> None:
    """Durably record that a commit was acknowledged to the 'client'."""
    os.write(fd, (tag + "\n").encode())
    os.fsync(fd)


def run_child(data_dir: str, seed: int, kind: str, nth: int) -> None:
    from repro.sql.engine import Engine

    ack_fd = os.open(os.path.join(data_dir, ACKED_FILE),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    engine = Engine(data_dir=data_dir,
                    wal_checkpoint_interval=checkpoint_interval(seed),
                    durability_event_hook=_Killer(kind, nth))
    db = engine.connect()
    db.execute("CREATE TABLE h (tag VARCHAR2(10), n NUMBER, v NUMBER)")
    db.execute("CREATE INDEX h_tag ON h (tag)")
    db.execute("CREATE TABLE kv (a NUMBER, b NUMBER, "
               "PRIMARY KEY (a)) ORGANIZATION INDEX")
    db.execute("CREATE TABLE counters (id NUMBER, n NUMBER, "
               "PRIMARY KEY (id)) ORGANIZATION INDEX")
    db.begin()
    for c in range(COUNTER_KEYS):
        db.execute(f"INSERT INTO counters VALUES ({c}, 0)")
    db.commit()
    _ack(ack_fd, SETUP_TAG)

    plans = plan_workload(seed)
    workers = 2
    errors: List[BaseException] = []

    def run_plans(worker: int) -> None:
        session = engine.connect(user="main")
        try:
            for plan in plans[worker::workers]:
                session.begin()
                for n, v in plan.rows:
                    session.execute("INSERT INTO h VALUES "
                                    f"('{plan.tag}', {n}, {v})")
                if plan.update_n is not None:
                    session.execute("UPDATE h SET v = v + 1000 WHERE "
                                    f"tag = '{plan.tag}' "
                                    f"AND n = {plan.update_n}")
                if plan.delete_n is not None:
                    session.execute(f"DELETE FROM h WHERE "
                                    f"tag = '{plan.tag}' "
                                    f"AND n = {plan.delete_n}")
                if plan.load == "savepoint":
                    session.execute("SAVEPOINT load")
                if plan.load:
                    session.executemany(
                        "INSERT INTO h VALUES (:1, :2, :3)",
                        [[plan.tag, n, v] for n, v in plan.loaded()])
                    session.executemany(
                        "INSERT INTO kv VALUES (:1, :2)",
                        [[a, plan.index] for a in plan.loaded_kv()])
                if plan.load == "savepoint":
                    session.execute("ROLLBACK TO SAVEPOINT load")
                session.execute(f"INSERT INTO kv VALUES "
                                f"({plan.kv_key}, {plan.index})")
                for c in plan.counters:
                    session.execute("UPDATE counters SET n = n + 1 "
                                    f"WHERE id = {c}")
                if plan.undo == "rollback":
                    session.rollback()
                    continue
                if plan.undo == "savepoint":
                    # every table touched here is already locked by this
                    # transaction, so the extra changes wait on no one
                    session.execute("SAVEPOINT extra")
                    session.execute("INSERT INTO h VALUES "
                                    f"('{plan.tag}', 99, 0)")
                    session.execute("UPDATE h SET v = -1 WHERE "
                                    f"tag = '{plan.tag}'")
                    session.execute(f"DELETE FROM h WHERE "
                                    f"tag = '{plan.tag}' AND n = 0")
                    session.execute(f"UPDATE kv SET b = -1 WHERE "
                                    f"a = {plan.kv_key}")
                    # a key change: the IOT deletes and re-inserts
                    session.execute(f"UPDATE kv SET a = a + {KV_BASE} "
                                    f"WHERE a = {plan.kv_key}")
                    session.execute("ROLLBACK TO SAVEPOINT extra")
                session.commit()
                _ack(ack_fd, plan.tag)
        except BaseException as exc:  # surfaced by the parent as failure
            errors.append(exc)

    threads = [threading.Thread(target=run_plans, args=(w,), daemon=True)
               for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    db.close()
    engine.close()


def run_recover_child(data_dir: str, kind: str, nth: int) -> None:
    """Reopen with a kill scheduled inside recovery itself."""
    from repro.sql.engine import Engine
    Engine(data_dir=data_dir,
           durability_event_hook=_Killer(kind, nth)).close()


# ----------------------------------------------------------------------
# parent: orchestrate, recover, verify
# ----------------------------------------------------------------------

class CrashVerifyError(AssertionError):
    pass


def _child_env() -> Dict[str, str]:
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _read_acked(data_dir: str) -> List[str]:
    path = os.path.join(data_dir, ACKED_FILE)
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [line.strip() for line in fh if line.strip()]


def verify(data_dir: str, seed: int, acked: List[str]) -> Dict[str, Any]:
    """Reopen the directory, recover, and check the ACID ledger."""
    from repro.sql.engine import Engine

    plans = plan_workload(seed)
    by_tag = {p.tag: p for p in plans}
    engine = Engine(data_dir=data_dir)
    db = engine.connect()
    try:
        stats = engine.recovery_stats
        tables = {r[0] for r in
                  db.execute("SELECT table_name FROM user_tables")
                  .fetchall()}
        if not {"h", "kv", "counters"} <= tables:
            # killed before setup became durable; nothing may be acked
            if acked:
                raise CrashVerifyError(
                    f"seed {seed}: acked {acked} but schema absent")
            return {"recovered": 0, "acked": 0,
                    "stats": stats.snapshot() if stats else None}

        kv = dict(db.execute("SELECT a, b FROM kv").fetchall())
        h_rows = db.execute("SELECT tag, n, v FROM h").fetchall()
        h_by_tag: Dict[str, Dict[int, int]] = {}
        for tag, n, v in h_rows:
            h_by_tag.setdefault(tag, {})[n] = v
        recovered = {p.tag for p in plans if p.kv_key in kv}
        strays = sorted(set(kv) - {p.kv_key for p in plans}
                        - {a for p in plans for a in p.loaded_kv()})
        if strays:
            raise CrashVerifyError(
                f"seed {seed}: kv keys {strays} belong to no plan (a "
                f"rolled-back key move survived)")
        # a committed plan that kept its load into kv has all its keys
        for plan in plans:
            got = {a: kv[a] for a in plan.loaded_kv() if a in kv}
            if got != (dict.fromkeys(plan.loaded_kv(), plan.index) if (
                    plan.tag in recovered and plan.load == "keep") else {}):
                raise CrashVerifyError(f"seed {seed}: txn {plan.tag} "
                                       f"holds loaded kv keys {got}")
        for plan in plans:
            if plan.undo == "rollback" and plan.tag in recovered:
                raise CrashVerifyError(
                    f"seed {seed}: rolled-back txn {plan.tag} survived")

        # durability: every acked transaction survived
        for tag in acked:
            if tag != SETUP_TAG and tag not in recovered:
                raise CrashVerifyError(
                    f"seed {seed}: acked txn {tag} lost after recovery")

        # atomicity: recovered txns are complete, others invisible
        for plan in plans:
            expected = plan.expected_h_rows()
            got = h_by_tag.get(plan.tag, {})
            if plan.tag in recovered:
                if got != expected:
                    raise CrashVerifyError(
                        f"seed {seed}: txn {plan.tag} partial: "
                        f"expected {expected}, got {got}")
                if kv[plan.kv_key] != plan.index:
                    raise CrashVerifyError(
                        f"seed {seed}: txn {plan.tag} kv payload "
                        f"{kv[plan.kv_key]} != {plan.index}")
            elif got:
                raise CrashVerifyError(
                    f"seed {seed}: loser {plan.tag} left rows {got}")

        # consistency: counters count exactly the recovered incrementers
        counters = dict(
            db.execute("SELECT id, n FROM counters").fetchall())
        for c in range(COUNTER_KEYS):
            expect = sum(1 for p in plans
                         if p.tag in recovered and c in p.counters)
            if counters.get(c, 0) != expect:
                raise CrashVerifyError(
                    f"seed {seed}: counter {c} = {counters.get(c)}, "
                    f"expected {expect}")

        # native-index parity: rebuilt h_tag agrees with the full scan
        for tag in sorted(recovered)[:5]:
            via_index = db.execute(
                f"SELECT n, v FROM h WHERE tag = '{tag}'").fetchall()
            if dict(via_index) != h_by_tag.get(tag, {}):
                raise CrashVerifyError(
                    f"seed {seed}: index lookup for {tag} disagrees "
                    f"with scan: {via_index} vs {h_by_tag.get(tag)}")

        # MVCC parity: a transaction snapshot sees the recovered state
        db.begin()
        snap_count = db.execute("SELECT COUNT(*) FROM h").fetchall()[0][0]
        db.commit()
        if snap_count != len(h_rows):
            raise CrashVerifyError(
                f"seed {seed}: snapshot count {snap_count} != "
                f"current {len(h_rows)}")

        # index health: nothing may recover as IN_PROGRESS
        states = db.execute(
            "SELECT index_name, index_type FROM user_indexes").fetchall()
        if not any(name == "h_tag" for name, __ in states):
            raise CrashVerifyError(f"seed {seed}: index h_tag lost")

        acked_txns = [t for t in acked if t != SETUP_TAG]
        return {"recovered": len(recovered), "acked": len(acked_txns),
                "stats": stats.snapshot() if stats else None}
    finally:
        db.close()
        engine.close()


def run_seed(seed: int, verbose: bool = False,
             keep_dir: bool = False) -> Dict[str, Any]:
    """One full crash/recover/verify cycle for a seed."""
    data_dir = tempfile.mkdtemp(prefix=f"crash-seed{seed}-")
    kind, nth = kill_spec(seed)
    cmd = [sys.executable, "-m", "repro.testing.crash", "--child",
           "--dir", data_dir, "--seed", str(seed),
           "--kill", f"{kind}:{nth}"]
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True,
                          text=True, timeout=300)
    killed = proc.returncode == -signal.SIGKILL
    if proc.returncode != 0 and not killed:
        raise CrashVerifyError(
            f"seed {seed}: child failed rc={proc.returncode}\n"
            f"{proc.stdout}\n{proc.stderr}")

    rekilled = False
    if killed:
        rekill = recovery_kill_spec(seed)
        if rekill is not None:
            cmd = [sys.executable, "-m", "repro.testing.crash",
                   "--child", "--recover", "--dir", data_dir,
                   "--kill", f"{rekill[0]}:{rekill[1]}"]
            proc2 = subprocess.run(cmd, env=_child_env(),
                                   capture_output=True, text=True,
                                   timeout=300)
            rekilled = proc2.returncode == -signal.SIGKILL
            if proc2.returncode != 0 and not rekilled:
                raise CrashVerifyError(
                    f"seed {seed}: recovery child failed "
                    f"rc={proc2.returncode}\n{proc2.stdout}\n"
                    f"{proc2.stderr}")

    acked = _read_acked(data_dir)
    try:
        result = verify(data_dir, seed, acked)
    except Exception:
        if not keep_dir:
            import shutil
            shutil.rmtree(data_dir, ignore_errors=True)
        raise
    result.update({"seed": seed, "killed": killed, "kill": (kind, nth),
                   "rekilled": rekilled})
    if verbose:
        print(f"seed {seed}: kill={kind}:{nth} killed={killed} "
              f"rekilled={rekilled} acked={result['acked']} "
              f"recovered={result['recovered']}")
    import shutil
    if keep_dir:
        print(f"seed {seed}: data dir kept at {data_dir}")
    else:
        shutil.rmtree(data_dir, ignore_errors=True)
    return result


def sweep(seeds: int, start: int = 0, verbose: bool = False) -> int:
    killed = clean = 0
    for seed in range(start, start + seeds):
        result = run_seed(seed, verbose=verbose)
        if result["killed"]:
            killed += 1
        else:
            clean += 1
    print(f"crash sweep: {seeds} seeds, {killed} killed mid-run, "
          f"{clean} ran to completion, 0 failures")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--recover", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    parser.add_argument("--kill", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=None,
                        help="run one seed (replay a failure)")
    parser.add_argument("--seeds", type=int, default=200,
                        help="sweep this many seeds (default 200)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed of the sweep")
    parser.add_argument("--keep-dir", action="store_true",
                        help="keep the data dir of a --seed run")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.child:
        kind, nth = args.kill.split(":")
        if args.recover:
            run_recover_child(args.dir, kind, int(nth))
        else:
            run_child(args.dir, args.seed, kind, int(nth))
        return 0
    if args.seed is not None:
        result = run_seed(args.seed, verbose=True, keep_dir=args.keep_dir)
        print(f"seed {args.seed} OK: {result}")
        return 0
    return sweep(args.seeds, start=args.start, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
