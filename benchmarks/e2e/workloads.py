"""The five workloads: seeded data, seeded operation rounds, oracles.

Everything here is the benchmark's own — no generator is imported from
``repro`` — so a later change under ``src/`` cannot shift the load.  A
workload is built from ``(seed, scale)`` alone: the same seed gives the same
tables and the same operations.

A workload's timed pass is a sequence of *rounds*.  Every round has the same
number of statements of every class (only their order and their arguments are
drawn from the seed), so a round is a fixed amount of work and rounds are
comparable with each other and between two commits.  ``round_ops`` applies
each DML statement it emits to a Python model of the tables; the model gives
the expected rows of sampled reads and the expected final table state.
"""

import itertools
import random
from collections import namedtuple

#: one client statement.  ``mode``: all | first | stream (reads),
#: dml | many | ddl (writes).  ``check``: None, ("rows", sorted rows),
#: ("rowcount", n) or ("shadow", the same query against the index-free copy).
#: ``arg`` is the fetch array size of a stream read.
Op = namedtuple("Op", "cls sql params mode commit check arg",
                defaults=(False, None, None))

READ_MODES = ("all", "first", "stream")

WORLD = 1000.0
_SYLLABLES = ["ba", "co", "di", "fu", "ge", "hi", "jo", "ka", "lu", "me",
              "ni", "po", "ra", "se", "ti", "vu", "we", "xi", "yo", "za"]
_SIGNATURE_COMPONENTS = (12, 16, 8, 8)
VIR_WEIGHTS = "globalcolor=0.25,localcolor=0.25,texture=0.25,structure=0.25"
VIR_THRESHOLD = 5


def scaled(n, scale, floor=1):
    return max(floor, int(n * scale))


# ----------------------------------------------------------------------
# data generators
# ----------------------------------------------------------------------

def word(index):
    """A pronounceable word, unique per index below 8000."""
    a, rest = index % 20, index // 20
    b, c = rest % 20, rest // 20
    return _SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c % 20]


class ZipfVocabulary:
    """Words whose rank-r frequency is proportional to 1/r."""

    def __init__(self, size):
        self.words = [word(i) for i in range(size)]
        self._cumulative = list(itertools.accumulate(
            1.0 / (rank + 1) for rank in range(size)))

    def text(self, rng, n_words):
        return " ".join(rng.choices(self.words,
                                    cum_weights=self._cumulative, k=n_words))

    def ranked(self, u, low, high):
        """The word at fraction ``u`` of the ranks [low, high), clipped to
        the size."""
        high = min(high, len(self.words))
        low = min(low, high - 1)
        return self.words[low + int(u * (high - low))]


def rect(rng, min_side, max_side, u=None):
    """A rectangle in the world.  With ``u`` (a query window) the sides are
    taken from it, not drawn: see ``mixed_round``."""
    if u is None:
        width = rng.uniform(min_side, max_side)
        height = rng.uniform(min_side, max_side)
    else:
        width = min_side + (max_side - min_side) * u
        height = min_side + (max_side - min_side) * (u * 7 % 1)
    x = rng.uniform(0, WORLD - width)
    y = rng.uniform(0, WORLD - height)
    return (x, y, x + width, y + height)


def rects_interact(a, b):
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def signature(rng, spread=0.12):
    """An image signature: each component varies around its own level."""
    values = []
    for length in _SIGNATURE_COMPONENTS:
        level = rng.random()
        values.extend(min(1.0, max(0.0, level + rng.uniform(-spread, spread)))
                      for _ in range(length))
    return tuple(values)


def near_signature(rng, centre, amount=0.04):
    return tuple(min(1.0, max(0.0, v + rng.uniform(-amount, amount)))
                 for v in centre)


def molecule(rng):
    """A SMILES-subset chain with branches and C=C double bonds."""
    n_atoms = rng.randint(5, 14)
    parts = []
    previous = ""
    for i in range(n_atoms):
        atom = rng.choice("CCCCNO")
        if previous == "C" and atom == "C" and rng.random() < 0.12:
            parts.append("=")
        parts.append(atom)
        if atom == "C" and 0 < i < n_atoms - 1 and rng.random() < 0.15:
            parts.append("(" + rng.choice("CNO") + ")")
        previous = atom
    return "".join(parts)


def user_bytes(params):
    """Bytes of bound values, as a client would count its own data."""
    total = 0
    for value in params or ():
        if isinstance(value, str):
            total += len(value)
        elif isinstance(value, (list, tuple)):
            total += user_bytes(value)
        else:
            total += 8
    return total


def mixed_round(rng, counts, k):
    """``(class, j, u)`` triples, each class ``counts[cls]`` times with
    j = 0..n-1, in seeded order.

    ``u`` in [0, 1) is for the argument that decides a statement's cost (a
    word's rank, a filter's selectivity, a window's sides).  It is stratified, not drawn: the
    j-th of a class's n statements gets the j-th n-th of the range, shifted
    by the golden ratio from round to round, so every round and every seed
    covers the range evenly and rounds stay comparable.  For the same reason
    callers pick the statements that fetch one row (j % 10 == 0) and those
    compared with the oracle (j % 10 == 1) by ``j``, per class.
    """
    triples = [(cls, j, ((j + 0.5) / n + k * 0.6180339887) % 1.0)
               for cls, n in counts for j in range(n)]
    rng.shuffle(triples)
    return triples


def load(cur, sql, rows, chunk=2000):
    for start in range(0, len(rows), chunk):
        cur.executemany(sql, rows[start:start + chunk])


def compare(cur, sql, params, expected):
    """1 when the query's sorted rows differ from ``expected``."""
    cur.execute(sql, params)
    return int(sorted(cur.fetchall()) != expected)


# ----------------------------------------------------------------------
# base class
# ----------------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    wire = False
    cartridges = ()
    #: the pass ends with SIGKILL of the server and a reopen of its data
    #: directory; the workload then has ``lost_acked_writes(cur)``
    ends_with_crash = False
    #: session attributes set before set-up (in-process workloads)
    session_settings = {}
    #: engine options of the server child (wire workloads)
    server_options = {}
    #: (class, statements per round) at scale 1
    mix = ()

    def __init__(self, seed, scale):
        self.seed = seed
        self.counts = [(cls, scaled(n, min(1.0, scale * 4)))
                       for cls, n in self.mix]

    def rng(self, *purpose):
        return random.Random("/".join(map(str, (self.name, self.seed)
                                          + purpose)))

    def sizes(self):
        raise NotImplementedError

    def setup(self, conn):
        raise NotImplementedError

    def round_ops(self, k):
        raise NotImplementedError

    def verify(self, cur, deferred):
        """(checks made, mismatches) against the final table state.

        ``deferred`` holds ``(op, sorted rows)`` of the sampled reads whose
        check is a functional recompute (``("shadow", template)``).
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# the four cartridges' tables (domain_read, domain_write)
# ----------------------------------------------------------------------

DOMAIN_TABLES = {
    "docs": ("CREATE TABLE {t} (id INTEGER, body VARCHAR2(2000))",
             "INSERT INTO {t} VALUES (?, ?)"),
    "shapes": ("CREATE TABLE {t} (id INTEGER, shape SDO_GEOMETRY)",
               "INSERT INTO {t} VALUES (?, sdo_rect(?, ?, ?, ?))"),
    "photos": ("CREATE TABLE {t} (id INTEGER, img IMAGE_T)",
               "INSERT INTO {t} VALUES (?, image_t(?, 640, 480))"),
    "mols": ("CREATE TABLE {t} (id INTEGER, mol VARCHAR2(256))",
             "INSERT INTO {t} VALUES (?, ?)"),
}
DOMAIN_INDEXES = {
    "docs": "CREATE INDEX docs_tidx ON docs(body) INDEXTYPE IS TextIndexType",
    "shapes": "CREATE INDEX shapes_sidx ON shapes(shape)"
              " INDEXTYPE IS SpatialIndexType",
    "photos": "CREATE INDEX photos_vidx ON photos(img)"
              " INDEXTYPE IS VirIndexType",
    "mols": "CREATE INDEX mols_cidx ON mols(mol) INDEXTYPE IS ChemIndexType"
            " PARAMETERS (':Storage LOB')",
}
CONTAINS = "SELECT id FROM {t} WHERE Contains(body, ?)"
SDO_RELATE = ("SELECT id FROM {t} WHERE Sdo_Relate(shape,"
              " sdo_rect(?, ?, ?, ?), 'mask=ANYINTERACT')")
VIR_SIMILAR = "SELECT id FROM {t} WHERE VIRSimilar(img.signature, ?, ?, ?)"
CHEM_SIMILAR = "SELECT id FROM {t} WHERE Chem_Similar(mol, ?, 0.6)"
CHEM_MATCH = "SELECT id FROM {t} WHERE Chem_Match(mol, ?)"
TEMPLATE_TABLE = {CONTAINS: "docs", SDO_RELATE: "shapes",
                  VIR_SIMILAR: "photos", CHEM_SIMILAR: "mols",
                  CHEM_MATCH: "mols"}


class DomainWorkload(Workload):
    """Schema, data and models shared by domain_read and domain_write."""

    cartridges = ("text", "spatial", "vir", "chemistry")
    N_DOCS, N_SHAPES, N_PHOTOS, N_MOLS = 1000, 1000, 1500, 300
    VOCABULARY, WORDS_PER_DOC, CLUSTERS = 2000, 40, 40

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        rng = self.rng("data")
        self.vocabulary = ZipfVocabulary(self.VOCABULARY)
        self.centres = [signature(rng) for _ in range(self.CLUSTERS)]
        # the models: id -> value, kept in step with every emitted DML
        self.docs = {i: self.vocabulary.text(rng, self.WORDS_PER_DOC)
                     for i in range(scaled(self.N_DOCS, scale, 20))}
        self.shapes = {i: rect(rng, 5, 40)
                       for i in range(scaled(self.N_SHAPES, scale, 20))}
        self.photos = {i: near_signature(rng, self.centres[i % self.CLUSTERS])
                       for i in range(scaled(self.N_PHOTOS, scale, 20))}
        self.mols = {i: molecule(rng)
                     for i in range(scaled(self.N_MOLS, scale, 20))}

    def sizes(self):
        return {"docs": len(self.docs), "shapes": len(self.shapes),
                "photos": len(self.photos), "mols": len(self.mols),
                "vocabulary": self.VOCABULARY,
                "words_per_doc": self.WORDS_PER_DOC}

    def table_row(self, table, row_id):
        """The bind values of one row's INSERT."""
        value = getattr(self, table)[row_id]
        return [row_id, *value] if table == "shapes" else [row_id, value]

    def setup(self, conn):
        cur = conn.cursor()
        for table, (create, insert) in DOMAIN_TABLES.items():
            cur.execute(create.format(t=table))
            load(cur, insert.format(t=table),
                 [self.table_row(table, i) for i in getattr(self, table)])
            cur.execute(f"CREATE INDEX {table}_id ON {table}(id)")
            cur.execute(DOMAIN_INDEXES[table])
        conn.commit()

    # -- query arguments ---------------------------------------------------

    def contains_term(self, u, cls):
        pick = self.vocabulary.ranked
        if cls == "contains_common":      # about 55% of the documents
            return pick(u, 4, 10)
        if cls == "contains_mid":         # about 5%
            return pick(u, 80, 120)
        if cls == "contains_rare":        # about 0.3%
            return pick(u, 1500, 2000)
        return pick(u, 4, 12) + " AND " + pick(u * 7 % 1, 12, 30)

    def docs_containing(self, query):
        terms = set(query.split(" AND "))
        return sorted((i,) for i, body in self.docs.items()
                      if terms.issubset(body.split()))

    def shapes_interacting(self, window):
        return sorted((i,) for i, r in self.shapes.items()
                      if rects_interact(r, window))

    # -- index-free copies for the functional recompute --------------------

    def make_shadows(self, cur):
        for table, (create, _) in DOMAIN_TABLES.items():
            cur.execute(create.format(t=table + "_s"))
            cur.execute(f"INSERT INTO {table}_s SELECT * FROM {table}")

    def functional_rows(self, cur, template, params):
        """The query evaluated without an index, on the copy."""
        cur.execute(template.format(t=TEMPLATE_TABLE[template] + "_s"),
                    params)
        return sorted(cur.fetchall())


class DomainRead(DomainWorkload):
    name = "domain_read"
    why = ("Read-only queries through all four cartridges' domain indexes in "
           "process (1000 docs, 1000 rects, 1500 signatures, 300 molecules): "
           "the ODCI scan path works; wire, WAL and vector kernels idle.")
    mix = (("contains_common", 6), ("contains_mid", 18),
           ("contains_rare", 18), ("contains_and", 6), ("sdo_window", 30),
           ("vir_similar", 18), ("chem_similar", 12), ("chem_match", 12))

    def round_ops(self, k):
        rng = self.rng("round", k)
        ops = []
        for cls, j, u in mixed_round(rng, self.counts, k):
            # every tenth query of a class reads one row and closes; the
            # one after it is compared with the oracle
            mode = "first" if j % 10 == 0 else "all"
            checked = j % 10 == 1
            check = None
            if cls.startswith("contains"):
                template, params = CONTAINS, [self.contains_term(u, cls)]
                if checked:
                    check = ("rows", self.docs_containing(params[0]))
            elif cls == "sdo_window":
                template, params = SDO_RELATE, list(rect(rng, 30, 90, u))
                if checked:
                    check = ("rows", self.shapes_interacting(params))
            else:
                if cls == "vir_similar":
                    template = VIR_SIMILAR
                    params = [near_signature(rng, rng.choice(self.centres)),
                              VIR_WEIGHTS, VIR_THRESHOLD]
                else:
                    template = CHEM_SIMILAR if cls == "chem_similar" \
                        else CHEM_MATCH
                    params = [self.mols[rng.randrange(len(self.mols))]]
                if checked:
                    check = ("shadow", template)
            ops.append(Op(cls, template.format(t=TEMPLATE_TABLE[template]),
                          params, mode, check=check))
        return ops

    def verify(self, cur, deferred):
        self.make_shadows(cur)
        mismatches = sum(
            rows != self.functional_rows(cur, op.check[1], op.params)
            for op, rows in deferred)
        return 0, mismatches    # the checks were counted when sampled


class DomainWrite(DomainWorkload):
    name = "domain_write"
    why = ("Single-row and array DML plus index rebuilds on the same four "
           "indexed tables in process: ODCI maintenance and build, so a "
           "change that buys reads by taxing writes shows here.")
    #: per table
    mix = (("insert", 3), ("update", 3), ("delete", 3))
    BATCH = 40
    _UPDATE = {
        "docs": "UPDATE docs SET body = ? WHERE id = ?",
        "shapes": "UPDATE shapes SET shape = sdo_rect(?, ?, ?, ?)"
                  " WHERE id = ?",
        "photos": "UPDATE photos SET img = image_t(?, 640, 480)"
                  " WHERE id = ?",
        "mols": "UPDATE mols SET mol = ? WHERE id = ?",
    }

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.batch = scaled(self.BATCH, scale, 5)
        self.next_id = 1_000_000

    def sizes(self):
        return dict(super().sizes(), executemany_rows=self.batch)

    def new_value(self, rng, table):
        if table == "docs":
            return self.vocabulary.text(rng, self.WORDS_PER_DOC)
        if table == "shapes":
            return rect(rng, 5, 40)
        if table == "photos":
            return near_signature(rng, rng.choice(self.centres))
        return molecule(rng)

    def round_ops(self, k):
        rng = self.rng("round", k)
        ops = []
        # the order is drawn first and the statements made in that order,
        # so the model sees each row's DML as the engine will
        for (kind, table), _, _ in mixed_round(
                rng, [((kind, table), n) for kind, n in self.counts
                      for table in DOMAIN_TABLES], k):
            model = getattr(self, table)
            cls = f"{kind}_{table}"
            if kind == "insert":
                row_id, self.next_id = self.next_id, self.next_id + 1
                model[row_id] = self.new_value(rng, table)
                ops.append(Op(cls, DOMAIN_TABLES[table][1].format(t=table),
                              self.table_row(table, row_id), "dml", True,
                              ("rowcount", 1)))
                continue
            row_id = rng.choice(list(model))
            if kind == "update":
                model[row_id] = self.new_value(rng, table)
                row = self.table_row(table, row_id)
                ops.append(Op(cls, self._UPDATE[table], row[1:] + row[:1],
                              "dml", True, ("rowcount", 1)))
            else:
                del model[row_id]
                ops.append(Op(cls, f"DELETE FROM {table} WHERE id = ?",
                              [row_id], "dml", True, ("rowcount", 1)))
        # array DML.  Spatial: one executemany and one statement deleting
        # the batch again.  Text: the executemany only — deleting a document
        # costs a scan of the postings table (see README, anomaly ledger), so
        # the batch stays and the table grows by about 1% a round
        for table, size in (("shapes", self.batch), ("docs", self.batch // 4)):
            low, self.next_id = self.next_id, self.next_id + size
            model = getattr(self, table)
            for row_id in range(low, low + size):
                model[row_id] = self.new_value(rng, table)
            ops.append(Op(f"executemany_{table}",
                          DOMAIN_TABLES[table][1].format(t=table),
                          [self.table_row(table, row_id)
                           for row_id in range(low, low + size)],
                          "many", True, ("rowcount", size)))
            if table == "shapes":
                for row_id in range(low, low + size):
                    del model[row_id]
                ops.append(Op("delete_batch_shapes",
                              "DELETE FROM shapes WHERE id BETWEEN ? AND ?",
                              [low, low + size - 1], "dml", True,
                              ("rowcount", size)))
        # bulk build: ODCIIndexCreate over the live table
        for table, index in (("docs", "docs_tidx"), ("shapes", "shapes_sidx")):
            ops.append(Op(f"drop_index_{table}", f"DROP INDEX {index}",
                          None, "ddl"))
            ops.append(Op(f"create_index_{table}", DOMAIN_INDEXES[table],
                          None, "ddl"))
        return ops

    def verify(self, cur, deferred):
        rng = self.rng("verify")
        checks = mismatches = 0
        for table, column in (("docs", "body"), ("mols", "mol"),
                              ("shapes", None), ("photos", None)):
            model = getattr(self, table)
            if column:
                expected = sorted(model.items())
                sql = f"SELECT id, {column} FROM {table}"
            else:
                expected = sorted((i,) for i in model)
                sql = f"SELECT id FROM {table}"
            mismatches += compare(cur, sql, None, expected)
            checks += 1
        self.make_shadows(cur)
        for _ in range(5):
            term = self.contains_term(rng.random(), "contains_mid")
            window = rect(rng, 30, 90)
            mismatches += compare(cur, CONTAINS.format(t="docs"), [term],
                                  self.docs_containing(term))
            mismatches += compare(cur, SDO_RELATE.format(t="shapes"),
                                  list(window),
                                  self.shapes_interacting(window))
            some_mol = rng.choice(list(self.mols.values()))
            some_photo = rng.choice(list(self.photos.values()))
            for template, params in (
                    (CONTAINS, [term]), (SDO_RELATE, list(window)),
                    (VIR_SIMILAR, [some_photo, VIR_WEIGHTS, VIR_THRESHOLD]),
                    (CHEM_SIMILAR, [some_mol]), (CHEM_MATCH, [some_mol])):
                mismatches += compare(
                    cur, template.format(t=TEMPLATE_TABLE[template]), params,
                    self.functional_rows(cur, template, params))
            checks += 7
        return checks, mismatches


# ----------------------------------------------------------------------
# relational_scan
# ----------------------------------------------------------------------

class RelationalScan(Workload):
    name = "relational_scan"
    why = ("Scans, folds, sorts, B-tree probes and an indexed join over a "
           "40k-row heap in process: executor, vector kernels and planner "
           "work, ODCI does none; the no-change control for ODCI work.")
    mix = (("filter_count", 2), ("group_by", 1), ("like_order", 2),
           ("btree_range", 6), ("btree_point", 15), ("nl_join", 4))
    N_FACTS, N_DIMS, GROUPS, TAGS = 40000, 200, 50, 1000
    # The one knob that is not the default (oltp_wire sets it too).  With
    # morsel parallelism on (the default: dop 8 on this 2-core box) the same
    # full scans run 1.3 to 1.5 times slower and the quartiles of one
    # statement's latency lie 40% to 80% of its median apart, against 5% to
    # 9% serial (README, anomaly ledger).  A control that noisy cannot show
    # "no change".
    session_settings = {"parallel_execution": False}

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        rng = self.rng("data")
        n = scaled(self.N_FACTS, scale, 500)
        self.dims = [[i, f"dim-{i:03d}"] for i in range(self.N_DIMS)]
        self.facts = [[i, rng.randrange(self.GROUPS), rng.randrange(100000),
                       f"tag{rng.randrange(self.TAGS):03d}",
                       rng.randrange(self.N_DIMS)] for i in range(n)]
        self.span = max(2, n // 500)       # 0.2% of the ids

    def sizes(self):
        return {"facts": len(self.facts), "dims": len(self.dims),
                "range_rows": self.span}

    def setup(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE TABLE facts (id INTEGER, grp INTEGER,"
                    " amount INTEGER, tag VARCHAR2(16), dim_id INTEGER)")
        cur.execute("CREATE TABLE dims (id INTEGER, name VARCHAR2(20))")
        load(cur, "INSERT INTO facts VALUES (?, ?, ?, ?, ?)", self.facts,
             chunk=10000)
        load(cur, "INSERT INTO dims VALUES (?, ?)", self.dims)
        cur.execute("CREATE INDEX facts_id ON facts(id)")
        cur.execute("CREATE INDEX dims_id ON dims(id)")
        conn.commit()

    def round_ops(self, k):
        rng = self.rng("round", k)
        facts, n = self.facts, len(self.facts)
        ops = []
        for cls, j, u in mixed_round(rng, self.counts, k):
            # ``checked and ...`` computes the model's rows for the sampled
            # tenth only
            checked = j % 10 == 1
            if cls == "filter_count":
                limit, grp = 5000 + int(u * 15000), rng.randrange(50)
                sql = ("SELECT COUNT(*) FROM facts"
                       " WHERE amount < ? AND grp <> ?")
                params = [limit, grp]
                rows = checked and [(sum(1 for f in facts if f[2] < limit
                                         and f[1] != grp),)]
            elif cls == "group_by":
                limit = 50000 + int(u * 50000)
                sql = ("SELECT grp, COUNT(*), SUM(amount) FROM facts"
                       " WHERE amount < ? GROUP BY grp")
                params = [limit]
                rows = checked and self.fold_by_group(limit)
            elif cls == "like_order":
                prefix = f"tag{rng.randrange(100):02d}"
                sql = ("SELECT id, tag FROM facts WHERE tag LIKE ?"
                       " ORDER BY id")
                params = [prefix + "%"]
                rows = checked and [(f[0], f[3]) for f in facts
                                    if f[3].startswith(prefix)]
            elif cls == "btree_point":
                key = rng.randrange(n)
                sql = "SELECT amount, tag FROM facts WHERE id = ?"
                params = [key]
                rows = [(facts[key][2], facts[key][3])]
            else:
                low = rng.randrange(n - self.span)
                high = low + self.span - 1
                params = [low, high]
                if cls == "btree_range":
                    sql = ("SELECT id, amount FROM facts"
                           " WHERE id BETWEEN ? AND ?")
                    rows = checked and [(f[0], f[2])
                                        for f in facts[low:high + 1]]
                else:
                    sql = ("SELECT f.id, d.name FROM facts f, dims d"
                           " WHERE f.id BETWEEN ? AND ? AND d.id = f.dim_id")
                    rows = checked and [(f[0], self.dims[f[4]][1])
                                        for f in facts[low:high + 1]]
            ops.append(Op(cls, sql, params, "all",
                          check=("rows", sorted(rows)) if checked else None))
        return ops

    def fold_by_group(self, limit):
        fold = {}
        for _, grp, amount, _, _ in self.facts:
            if amount < limit:
                count, total = fold.get(grp, (0, 0))
                fold[grp] = (count + 1, total + amount)
        return [(grp, count, total) for grp, (count, total) in fold.items()]

    def verify(self, cur, deferred):
        return 0, 0    # read-only


# ----------------------------------------------------------------------
# oltp_wire
# ----------------------------------------------------------------------

class OltpWire(Workload):
    name = "oltp_wire"
    why = ("Point reads, one-row commits and 2000-row streaming fetches of "
           "a 20k-row B-tree table over repro:// to a durable engine: "
           "framing, plan-cache hits, locks and the WAL; no cartridge runs.")
    wire = True
    ends_with_crash = True
    # As on relational_scan, and for its reason: the stream reads are full
    # scans (BETWEEN with binds does not use the B-tree), nine tenths of a
    # round's time, and with the default morsel parallelism (a pool of 8
    # workers in a server that has one CPU) throughput over eight runs lay
    # 298 to 383 statements/s, quartiles 15% apart; serial, 383 to 388 with
    # one run at 311, quartiles 0.8% apart.
    server_options = {"parallel_execution": False}
    mix = (("point_select", 120), ("update", 40), ("insert", 20),
           ("stream_a32", 10), ("stream_a256", 10))
    N_ROWS, STREAM_ROWS = 20000, 2000
    PAD = "p" * 40

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.n_rows = scaled(self.N_ROWS, scale, 400)
        self.stream_rows = scaled(self.STREAM_ROWS, scale, 40)
        self.kv = {i: 0 for i in range(self.n_rows)}   # id -> val: the
        self.next_id = 10_000_000                      # ledger of writes

    def sizes(self):
        return {"kv": self.n_rows, "stream_rows": self.stream_rows}

    def setup(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE TABLE kv (id INTEGER, val INTEGER,"
                    " pad VARCHAR2(64))")
        load(cur, "INSERT INTO kv VALUES (?, ?, ?)",
             [[i, 0, self.PAD] for i in range(self.n_rows)])
        cur.execute("CREATE INDEX kv_id ON kv(id)")
        conn.commit()

    def round_ops(self, k):
        rng = self.rng("round", k)
        ops = []
        for cls, j, _ in mixed_round(rng, self.counts, k):
            if cls == "point_select":
                key = rng.randrange(self.n_rows)
                ops.append(Op(cls, "SELECT val FROM kv WHERE id = ?", [key],
                              "all", check=("rows", [(self.kv[key],)])))
            elif cls == "update":
                key = rng.randrange(self.n_rows)
                value = self.kv[key] = rng.randrange(1, 1_000_000)
                ops.append(Op(cls, "UPDATE kv SET val = ? WHERE id = ?",
                              [value, key], "dml", True, ("rowcount", 1)))
            elif cls == "insert":
                # new ids lie above the loaded range, so a stream read of
                # that range always returns stream_rows rows
                key, self.next_id = self.next_id, self.next_id + 1
                value = self.kv[key] = rng.randrange(1, 1_000_000)
                ops.append(Op(cls, "INSERT INTO kv VALUES (?, ?, ?)",
                              [key, value, self.PAD], "dml", True,
                              ("rowcount", 1)))
            else:
                low = rng.randrange(self.n_rows - self.stream_rows + 1)
                high = low + self.stream_rows - 1
                check = None
                if j % 10 == 1:
                    check = ("rows", [(i, self.kv[i], self.PAD)
                                      for i in range(low, high + 1)])
                ops.append(Op(cls, "SELECT id, val, pad FROM kv"
                                   " WHERE id BETWEEN ? AND ?", [low, high],
                              "stream", check=check,
                              arg=int(cls.rsplit("a", 1)[1])))
        return ops

    def verify(self, cur, deferred):
        return 1, compare(cur, "SELECT id, val FROM kv", None,
                          sorted(self.kv.items()))

    def lost_acked_writes(self, cur):
        """Ledger entries the reopened engine does not hold."""
        cur.execute("SELECT id, val FROM kv")
        return len(set(self.kv.items()) - set(cur.fetchall()))


# ----------------------------------------------------------------------
# mixed_wire
# ----------------------------------------------------------------------

class MixedWire(Workload):
    name = "mixed_wire"
    why = ("DML plus text, spatial and B-tree reads on one 2000-row table "
           "over repro:// to a durable engine: every layer contributes, so "
           "a layer's share of a whole statement is read here.")
    wire = True
    cartridges = ("text", "spatial")
    mix = (("insert", 15), ("update_note", 9), ("delete", 3),
           ("contains", 12), ("sdo_window", 12), ("point_select", 9))
    N_ROWS, VOCABULARY, WORDS_PER_NOTE = 2000, 500, 8
    _CONTAINS = "SELECT id FROM items WHERE Contains(note, ?)"
    _SDO = ("SELECT id FROM items WHERE Sdo_Relate(shape,"
            " sdo_rect(?, ?, ?, ?), 'mask=ANYINTERACT')")

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        rng = self.rng("data")
        self.vocabulary = ZipfVocabulary(self.VOCABULARY)
        # id -> [val, note, rect]
        self.items = {i: [rng.randrange(1000), self.note(rng),
                          rect(rng, 5, 40)]
                      for i in range(scaled(self.N_ROWS, scale, 40))}
        self.next_id = 1_000_000

    def note(self, rng):
        return self.vocabulary.text(rng, self.WORDS_PER_NOTE)

    def sizes(self):
        return {"items": len(self.items), "vocabulary": self.VOCABULARY,
                "words_per_note": self.WORDS_PER_NOTE}

    def setup(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE TABLE items (id INTEGER, val INTEGER,"
                    " note VARCHAR2(200), shape SDO_GEOMETRY)")
        load(cur, "INSERT INTO items VALUES (?, ?, ?, sdo_rect(?, ?, ?, ?))",
             [[i, v, note, *r] for i, (v, note, r) in self.items.items()])
        cur.execute("CREATE INDEX items_id ON items(id)")
        cur.execute("CREATE INDEX items_tidx ON items(note)"
                    " INDEXTYPE IS TextIndexType")
        cur.execute("CREATE INDEX items_sidx ON items(shape)"
                    " INDEXTYPE IS SpatialIndexType")
        conn.commit()

    def containing(self, term):
        return sorted((i,) for i, item in self.items.items()
                      if term in item[1].split())

    def interacting(self, window):
        return sorted((i,) for i, item in self.items.items()
                      if rects_interact(item[2], window))

    def round_ops(self, k):
        rng = self.rng("round", k)
        items = self.items
        ops = []
        for cls, j, u in mixed_round(rng, self.counts, k):
            checked = j % 10 == 1
            if cls == "insert":
                row_id, self.next_id = self.next_id, self.next_id + 1
                item = items[row_id] = [rng.randrange(1000), self.note(rng),
                                        rect(rng, 5, 40)]
                ops.append(Op(cls, "INSERT INTO items VALUES"
                                   " (?, ?, ?, sdo_rect(?, ?, ?, ?))",
                              [row_id, item[0], item[1], *item[2]], "dml",
                              True, ("rowcount", 1)))
            elif cls == "update_note":
                row_id = rng.choice(list(items))
                items[row_id][1] = self.note(rng)
                ops.append(Op(cls, "UPDATE items SET note = ? WHERE id = ?",
                              [items[row_id][1], row_id], "dml", True,
                              ("rowcount", 1)))
            elif cls == "delete":
                row_id = rng.choice(list(items))
                del items[row_id]
                ops.append(Op(cls, "DELETE FROM items WHERE id = ?",
                              [row_id], "dml", True, ("rowcount", 1)))
            elif cls == "contains":
                term = self.vocabulary.ranked(u, 10, 60)
                ops.append(Op(cls, self._CONTAINS, [term],
                              "first" if j % 10 == 0 else "all",
                              check=("rows", self.containing(term))
                              if checked else None))
            elif cls == "sdo_window":
                window = rect(rng, 30, 90, u)
                ops.append(Op(cls, self._SDO, list(window),
                              "first" if j % 10 == 0 else "all",
                              check=("rows", self.interacting(window))
                              if checked else None))
            else:
                row_id = rng.choice(list(items))
                ops.append(Op(cls, "SELECT val, note FROM items"
                                   " WHERE id = ?", [row_id], "all",
                              check=("rows", [tuple(items[row_id][:2])])))
        return ops

    def verify(self, cur, deferred):
        rng = self.rng("verify")
        mismatches = compare(cur, "SELECT id, val, note FROM items", None,
                             sorted((i, v, n) for i, (v, n, _)
                                    in self.items.items()))
        for _ in range(5):
            term = self.vocabulary.ranked(rng.random(), 10, 60)
            window = rect(rng, 30, 90)
            mismatches += compare(cur, self._CONTAINS, [term],
                                  self.containing(term))
            mismatches += compare(cur, self._SDO, list(window),
                                  self.interacting(window))
        return 11, mismatches


WORKLOADS = {cls.name: cls for cls in (DomainRead, DomainWrite,
                                       RelationalScan, OltpWire, MixedWire)}
