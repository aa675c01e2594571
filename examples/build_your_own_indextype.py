"""Build your own indextype: the cartridge-developer walkthrough of §2.2.

Implements a *soundex* indexing scheme from scratch on the public API —
an index that finds names that sound alike — following the paper's four
steps:

1. functional implementation of the operator,
2. CREATE OPERATOR,
3. the ODCIIndex implementation type,
4. CREATE INDEXTYPE (+ optional ASSOCIATE STATISTICS).

Run:  python examples/build_your_own_indextype.py
"""

from repro import (
    FetchResult, IndexCost, IndexMethods, PrecomputedScan, StatsMethods,
    dbapi)
from repro.types.values import is_null


# --- the domain algorithm ---------------------------------------------------

def soundex(name: str) -> str:
    """Classic 4-character soundex code."""
    codes = {"b": "1", "f": "1", "p": "1", "v": "1",
             "c": "2", "g": "2", "j": "2", "k": "2", "q": "2",
             "s": "2", "x": "2", "z": "2",
             "d": "3", "t": "3", "l": "4", "m": "5", "n": "5", "r": "6"}
    name = "".join(ch for ch in name.lower() if ch.isalpha())
    if not name:
        return "0000"
    out = name[0].upper()
    previous = codes.get(name[0], "")
    for ch in name[1:]:
        code = codes.get(ch, "")
        if code and code != previous:
            out += code
        previous = code
    return (out + "000")[:4]


# --- step 1: functional implementation --------------------------------------

def sounds_like(value, probe) -> int:
    """Operator fallback: evaluated per row when no index is used."""
    if is_null(value) or is_null(probe):
        return 0
    return 1 if soundex(str(value)) == soundex(str(probe)) else 0


# --- step 3: the ODCIIndex implementation type -------------------------------

class SoundexIndexMethods(IndexMethods):
    """Stores (soundex code, rowid) pairs in an IOT via server callbacks."""

    def _table(self, ia):
        return f"{ia.index_name.lower()}_codes"

    def index_create(self, ia, parameters, env):
        env.callback.execute(
            f"CREATE TABLE {self._table(ia)} (code VARCHAR2(4), rid ROWID,"
            " PRIMARY KEY (code, rid)) ORGANIZATION INDEX")
        column = ia.column_names[0]
        rows = env.callback.query(
            f"SELECT rowid, {column} FROM {ia.table_name}")
        entries = [[soundex(str(value)), rid] for rid, value in rows
                   if not is_null(value)]
        if entries:
            env.callback.insert_rows(self._table(ia), entries)

    def index_drop(self, ia, env):
        env.callback.execute(f"DROP TABLE {self._table(ia)}")

    def index_insert(self, ia, rowid, new_values, env):
        if not is_null(new_values[0]):
            env.callback.insert_row(
                self._table(ia), [soundex(str(new_values[0])), rowid])

    def index_delete(self, ia, rowid, old_values, env):
        # the old value says which entry the row has: delete that key,
        # never scan the index table by rowid
        if not is_null(old_values[0]):
            env.callback.delete_rows(
                self._table(ia), [(soundex(str(old_values[0])), rowid)])

    def index_start(self, ia, op_info, query_info, env):
        code = soundex(str(op_info.operator_args[0]))
        rows = env.callback.query(
            f"SELECT rid FROM {self._table(ia)} WHERE code = :1", [code])
        return PrecomputedScan(sorted(r[0] for r in rows))

    def index_fetch(self, context, nrows, env):
        batch = context.next_batch(nrows)
        return FetchResult(rowids=batch, done=len(batch) < nrows)

    def index_close(self, context, env):
        context.close()


class SoundexStatsMethods(StatsMethods):
    """Optional: tell the optimizer how selective Sounds_Like is."""

    def selectivity(self, pred_info, args, env):
        return 0.01  # a soundex bucket is tiny

    def index_cost(self, ia, pred_info, selectivity, args, env):
        return IndexCost(io_cost=2.0, cpu_cost=0.5)


def main() -> None:
    conn = dbapi.connect()    # in-memory; any DSN works the same
    db = conn.session         # registrations use the native session

    # steps 1-4 — the same DDL a cartridge ships to customers
    db.create_function("SoundsLikeFunc", sounds_like, cost=0.05)
    db.register_methods("SoundexIndexMethods", SoundexIndexMethods)
    db.register_stats_type("SoundexStatsMethods", SoundexStatsMethods)
    db.execute("CREATE OPERATOR Sounds_Like "
               "BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER "
               "USING SoundsLikeFunc")
    db.execute("CREATE INDEXTYPE SoundexIndexType "
               "FOR Sounds_Like(VARCHAR2, VARCHAR2) "
               "USING SoundexIndexMethods")
    db.execute("ASSOCIATE STATISTICS WITH INDEXTYPES SoundexIndexType "
               "USING SoundexStatsMethods")

    # the end-user experience — a directory large enough that the
    # optimizer prefers the soundex index over a full scan
    db.execute("CREATE TABLE customers (cid INTEGER, name VARCHAR2(60))")
    base_names = ["Smith", "Smyth", "Schmidt", "Jones", "Johnson",
                  "Jonson", "Robert", "Rupert", "Washington", "Lee",
                  "Garcia", "Miller", "Davis", "Wilson", "Anderson",
                  "Thomas", "Taylor", "Moore", "Jackson", "Martin"]
    rows = [[cid, f"{base_names[cid % len(base_names)]}{cid // 20}"]
            for cid in range(2000)]
    rows[:10] = [[i, n] for i, n in enumerate(base_names[:10])]
    db.insert_rows("customers", rows)
    db.execute("CREATE INDEX customers_sdx ON customers(name)"
               " INDEXTYPE IS SoundexIndexType")

    for probe in ("Smith", "Jonsen", "Rupard"):
        sql = f"SELECT name FROM customers WHERE Sounds_Like(name, '{probe}')"
        print(f"\nwho sounds like {probe!r}?")
        for line in db.explain(sql):
            print("   " + line)
        for (name,) in db.execute(sql):
            print("   ->", name)


if __name__ == "__main__":
    main()
