"""ChemIndexType: fingerprint index stored in a LOB or an external file.

PARAMETERS select the store (§3.2.4's two deployments)::

    CREATE INDEX mol_idx ON molecules(mol)
    INDEXTYPE IS ChemIndexType PARAMETERS (':Storage LOB');   -- in-database
    ... PARAMETERS (':Storage FILE');                         -- external

Both run the identical :class:`FingerprintIndexFile` code — only the
handle factory differs.  With ``FILE`` storage the index is outside the
transaction boundary (§5's gap): :func:`protect_external_index`
registers the database-event handlers the paper proposes, rebuilding the
external index after a rollback and compacting it on commit.

Operators: ``Chem_Match`` (full structure), ``Chem_Tautomer``,
``Chem_Substructure`` (fingerprint screen + subgraph-isomorphism
verification), ``Chem_Similar`` (Tanimoto threshold; ancillary
``Chem_Score`` exposes the similarity).
"""

from __future__ import annotations

import threading
import hashlib
from itertools import zip_longest
from typing import Any, Callable, List, Optional, Sequence

from repro.cartridges.chemistry.fingerprint import (
    fingerprint, screen_passes, tanimoto)
from repro.cartridges.chemistry.molecule import (
    Molecule, certificate, parse_smiles, tautomer_key)
from repro.cartridges.chemistry.search import full_match, substructure_match
from repro.cartridges.chemistry.storage import FingerprintIndexFile, Record
from repro.core.odci import (
    IndexMethods, IndexTable, ODCIEnv, ODCIIndexInfo, ODCIPredInfo,
    ODCIQueryInfo, base_table_rows)
from repro.core.scan_context import PrecomputedScan
from repro.core.stats import IndexCost, StatsMethods
from repro.errors import ODCIError
from repro.txn.events import DatabaseEvent
from repro.types.values import is_null

#: Per-call optimizer cost of the functional chemistry operators.
FUNCTIONAL_COST = 0.6


def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.md5(text.encode()).digest()[:8], "big")


def certificate_hash(molecule: Molecule) -> int:
    """64-bit full-structure hash stored in index records."""
    return _hash64(certificate(molecule))


def tautomer_hash(molecule: Molecule) -> int:
    """64-bit tautomer-key hash stored in index records."""
    return _hash64(tautomer_key(molecule))


# ---------------------------------------------------------------------------
# functional implementations
# ---------------------------------------------------------------------------

def chem_match(mol_text: Any, query_text: Any) -> int:
    """Functional Chem_Match: exact structure equality."""
    if is_null(mol_text) or is_null(query_text):
        return 0
    return 1 if full_match(parse_smiles(str(mol_text)),
                           parse_smiles(str(query_text))) else 0


def chem_tautomer(mol_text: Any, query_text: Any) -> int:
    """Functional Chem_Tautomer: skeleton-certificate equality."""
    if is_null(mol_text) or is_null(query_text):
        return 0
    return 1 if tautomer_key(parse_smiles(str(mol_text))) \
        == tautomer_key(parse_smiles(str(query_text))) else 0


def chem_substructure(mol_text: Any, query_text: Any) -> int:
    """Functional Chem_Substructure: subgraph isomorphism."""
    if is_null(mol_text) or is_null(query_text):
        return 0
    return 1 if substructure_match(parse_smiles(str(query_text)),
                                   parse_smiles(str(mol_text))) else 0


def chem_similar(mol_text: Any, query_text: Any, threshold: Any) -> float:
    """Functional Chem_Similar: Tanimoto >= threshold; returns the score."""
    if is_null(mol_text) or is_null(query_text) or is_null(threshold):
        return 0
    score = tanimoto(fingerprint(parse_smiles(str(mol_text))),
                     fingerprint(parse_smiles(str(query_text))))
    return round(score, 6) if score >= float(threshold) else 0


# ---------------------------------------------------------------------------
# the indextype implementation
# ---------------------------------------------------------------------------

#: Where the index's fingerprint file is: ``storage`` (LOB or FILE)
#: and the LOB's ``lob_id`` or the file's name.
_META = IndexTable("meta", "key VARCHAR2(32), value VARCHAR2(256)")


def _storage(parameters: str) -> str:
    """The store ``:Storage LOB|FILE`` names: the last one given, LOB
    when none is."""
    tokens = parameters.split()
    pairs = zip_longest(tokens[::2], tokens[1::2], fillvalue="")
    for keyword, kind in pairs:
        if keyword.lower() != ":storage" \
                or kind.upper() not in ("LOB", "FILE"):
            raise ODCIError("ChemIndexMethods", "expected :Storage LOB or"
                            f" :Storage FILE, got {keyword} {kind}".rstrip())
    return tokens[-1].upper() if tokens else "LOB"


class ChemIndexMethods(IndexMethods):
    """ODCIIndex routines of ChemIndexType."""

    #: 2: certificates stop refining at colour refinement's fixpoint, so
    #: every stored ``cert_hash`` / ``taut_hash`` differs from version 1's.
    format_version = 2

    index_tables = (_META,)

    def __init__(self):
        self._factory: Optional[Callable[[], Any]] = None
        # shared across sessions; keeps the lazily-resolved storage
        # factory consistent (SQL runs outside the latch)
        self._latch = threading.Lock()

    # -- storage plumbing --------------------------------------------------

    def _index_file(self, ia: ODCIIndexInfo,
                    env: ODCIEnv) -> FingerprintIndexFile:
        with self._latch:
            factory = self._factory
        if factory is None:
            meta = {key: value for key, value in env.callback.query(
                f"SELECT key, value FROM {_META.name(ia)}")}
            kind = meta.get("storage")
            if kind == "LOB":
                lob_id = int(meta["lob_id"])
                lobs = env.lobs
                factory = lambda: lobs.open(lob_id)  # noqa: E731
            elif kind == "FILE":
                name = meta["file"]
                files = env.files
                factory = lambda: files.open(name)  # noqa: E731
            else:
                raise ODCIError("ChemIndexMethods",
                                f"index {ia.index_name} has no storage meta")
            with self._latch:
                if self._factory is None:
                    self._factory = factory
                factory = self._factory
        return FingerprintIndexFile(factory)

    @staticmethod
    def _record_for(rowid: Any, molecule: Molecule) -> Record:
        return Record(rowid=rowid,
                      cert_hash=certificate_hash(molecule),
                      taut_hash=tautomer_hash(molecule),
                      fingerprint=fingerprint(molecule))

    # -- definition ----------------------------------------------------------

    def parse_parameters(self, parameters: str, current: str) -> str:
        return f":Storage {_storage(f'{current} {parameters}')}"

    def index_create(self, ia: ODCIIndexInfo, parameters: str,
                     env: ODCIEnv) -> None:
        base = env.callback.query_one(
            "SELECT iot FROM user_tables WHERE LOWER(table_name) = :1",
            [ia.table_name.lower()])
        if base is not None and base[0]:
            raise ODCIError(
                "ChemIndexMethods",
                f"{ia.table_name} is an index-organized table: the "
                "fingerprint file packs each rowid as a fixed-width "
                "(segment, page, slot), and an IOT row's rowid is its key")
        super().index_create(ia, parameters, env)

    def index_load(self, ia: ODCIIndexInfo, rows: List[Any],
                   env: ODCIEnv) -> None:
        """Make the store ``:Storage`` names and record it in the meta
        table, then append every row's record to the new file."""
        kind = _storage(ia.parameters)
        meta = _META.name(ia)
        insert = f"INSERT INTO {meta} VALUES (:1, :2)"
        env.callback.execute(insert, ["storage", kind])
        if kind == "LOB":
            locator = env.lobs.create()
            env.callback.execute(insert, ["lob_id", str(locator.lob_id)])
            lobs = env.lobs
            factory = lambda: lobs.open(locator.lob_id)  # noqa: E731
        else:
            name = f"{ia.index_name.lower()}.cfp"
            env.files.open(name, create=True)
            env.callback.execute(insert, ["file", name])
            files = env.files
            factory = lambda: files.open(name)  # noqa: E731
        with self._latch:
            self._factory = factory
        FingerprintIndexFile(factory).initialize()
        super().index_load(ia, rows, env)

    def rebuild(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        """Re-derive the whole index from the base table.

        Used by the rollback event handler for FILE storage (§5) and
        available to applications as a recovery tool.
        """
        self.index_truncate(ia, env)
        # the default load step: the store already exists
        super().index_load(ia, base_table_rows(ia, env), env)

    def index_drop(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        meta = {key: value for key, value in env.callback.query(
            f"SELECT key, value FROM {_META.name(ia)}")}
        if meta.get("storage") == "LOB" and "lob_id" in meta:
            env.lobs.delete(int(meta["lob_id"]))
        elif meta.get("storage") == "FILE" and "file" in meta:
            if env.files.exists(meta["file"]):
                env.files.delete(meta["file"])
        super().index_drop(ia, env)
        with self._latch:
            self._factory = None

    def index_truncate(self, ia: ODCIIndexInfo, env: ODCIEnv) -> None:
        self._index_file(ia, env).initialize()

    # -- array maintenance --------------------------------------------------

    def index_insert_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Fingerprint every molecule, then OR the records in one append."""
        records: List[Record] = []
        for rowid, new_values in entries:
            text = new_values[0]
            if is_null(text):
                continue
            records.append(self._record_for(rowid, parse_smiles(str(text))))
        if records:
            self._index_file(ia, env).append_many(records)

    def index_delete_batch(self, ia: ODCIIndexInfo, entries: Sequence[Any],
                           env: ODCIEnv) -> None:
        """Tombstone every row that has a record.  A NULL molecule never
        got one, and a tombstone cancels one of its rowid's records
        wherever it lies in the file, so it would hide the next."""
        rowids = [rowid for rowid, old_values in entries
                  if not is_null(old_values[0])]
        if rowids:
            self._index_file(ia, env).tombstone(rowids)

    # -- scans -----------------------------------------------------------------------

    def index_start(self, ia: ODCIIndexInfo, op_info: ODCIPredInfo,
                    query_info: ODCIQueryInfo, env: ODCIEnv) -> Any:
        operator = op_info.operator_name.lower().split(".")[-1]
        index_file = self._index_file(ia, env)
        want_aux = False
        if operator == "chem_match":
            results = self._exact_scan(ia, env, index_file, op_info,
                                       tautomer=False)
        elif operator == "chem_tautomer":
            results = self._exact_scan(ia, env, index_file, op_info,
                                       tautomer=True)
        elif operator == "chem_substructure":
            results = self._substructure_scan(ia, env, index_file, op_info)
        elif operator == "chem_similar":
            results = self._similarity_scan(index_file, op_info, query_info)
            want_aux = query_info.ancillary_label is not None
        else:
            raise ODCIError("ODCIIndexStart",
                            f"ChemIndexType cannot evaluate {operator!r}")
        return env.workspace.allocate(PrecomputedScan(results, want_aux))

    def _query_molecule(self, op_info: ODCIPredInfo) -> Molecule:
        if not op_info.operator_args:
            raise ODCIError("ODCIIndexStart", "missing query argument")
        return parse_smiles(str(op_info.operator_args[0]))

    def _exact_scan(self, ia: ODCIIndexInfo, env: ODCIEnv,
                    index_file: FingerprintIndexFile,
                    op_info: ODCIPredInfo, tautomer: bool) -> List[Any]:
        """Hash probe, then each candidate's certificate (or tautomer key)
        against the query's, computed once per scan."""
        query = self._query_molecule(op_info)
        if tautomer:
            query_key = tautomer_key(query)
            candidates = index_file.find_by_tautomer(_hash64(query_key))
        else:
            query_key = certificate(query)
            candidates = index_file.find_by_cert(_hash64(query_key))
        env.stats.bump("chem_hash_candidates", len(candidates))
        column = ia.column_names[0]
        matches: List[Any] = []
        for record in candidates:
            text = env.callback.fetch_value(ia.table_name, record.rowid,
                                            column)
            if is_null(text):
                continue
            molecule = parse_smiles(str(text))
            env.stats.bump("chem_exact_tests")
            if tautomer:
                ok = tautomer_key(molecule) == query_key
            else:
                ok = full_match(molecule, query, query_key)
            if ok:
                matches.append(record.rowid)
        return sorted(matches)

    def _substructure_scan(self, ia: ODCIIndexInfo, env: ODCIEnv,
                           index_file: FingerprintIndexFile,
                           op_info: ODCIPredInfo) -> List[Any]:
        query = self._query_molecule(op_info)
        query_fp = fingerprint(query)
        screened = [(seg, page, slot)
                    for seg, page, slot, fp in index_file.fingerprints()
                    if screen_passes(query_fp, fp)]
        env.stats.bump("chem_screen_candidates", len(screened))
        column = ia.column_names[0]
        matches: List[Any] = []
        for rowid in screened:
            text = env.callback.fetch_value(ia.table_name, rowid, column)
            if is_null(text):
                continue
            env.stats.bump("chem_exact_tests")
            if substructure_match(query, parse_smiles(str(text))):
                matches.append(rowid)
        return sorted(matches)

    def _similarity_scan(self, index_file: FingerprintIndexFile,
                         op_info: ODCIPredInfo,
                         query_info: ODCIQueryInfo) -> List[Any]:
        query = self._query_molecule(op_info)
        if len(op_info.operator_args) < 2:
            raise ODCIError("ODCIIndexStart",
                            "Chem_Similar needs (query, threshold)")
        threshold = float(op_info.operator_args[1])
        query_fp = fingerprint(query)
        scored = []
        for seg, page, slot, fp in index_file.fingerprints():
            score = tanimoto(fp, query_fp)
            if score >= threshold:
                scored.append(((seg, page, slot), round(score, 6)))
        scored.sort()
        if query_info.ancillary_label is not None:
            return scored
        return [rowid for rowid, __ in scored]


class ChemStatsMethods(StatsMethods):
    """ODCIStats routines for ChemIndexType."""

    def selectivity(self, pred_info: ODCIPredInfo, args: Sequence[Any],
                    env: ODCIEnv) -> Optional[float]:
        operator = pred_info.operator_name.lower().split(".")[-1]
        if operator in ("chem_match", "chem_tautomer"):
            return 0.002
        if operator == "chem_substructure":
            return 0.05
        if operator == "chem_similar":
            threshold = args[2] if len(args) >= 3 else None
            if isinstance(threshold, (int, float)):
                return min(1.0, max(0.001, (1.0 - float(threshold)) ** 2))
            return 0.05
        return None

    def index_cost(self, ia: ODCIIndexInfo, pred_info: ODCIPredInfo,
                   selectivity: float, args: Sequence[Any],
                   env: ODCIEnv) -> Optional[IndexCost]:
        return IndexCost(io_cost=2.0,
                         cpu_cost=selectivity * 100 * FUNCTIONAL_COST)


def install(db) -> None:
    """Register the chemistry cartridge."""
    if db.catalog.has_indextype("ChemIndexType"):
        return
    db.create_function("ChemMatchFunc", chem_match, cost=FUNCTIONAL_COST)
    db.create_function("ChemTautomerFunc", chem_tautomer,
                       cost=FUNCTIONAL_COST)
    db.create_function("ChemSubstructureFunc", chem_substructure,
                       cost=FUNCTIONAL_COST * 2)
    db.create_function("ChemSimilarFunc", chem_similar,
                       cost=FUNCTIONAL_COST)
    db.register_methods("ChemIndexMethods", ChemIndexMethods)
    db.register_stats_type("ChemStatsMethods", ChemStatsMethods)
    db.execute("CREATE OPERATOR Chem_Match "
               "BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER "
               "USING ChemMatchFunc")
    db.execute("CREATE OPERATOR Chem_Tautomer "
               "BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER "
               "USING ChemTautomerFunc")
    db.execute("CREATE OPERATOR Chem_Substructure "
               "BINDING (VARCHAR2, VARCHAR2) RETURN NUMBER "
               "USING ChemSubstructureFunc")
    db.execute("CREATE OPERATOR Chem_Similar "
               "BINDING (VARCHAR2, VARCHAR2, NUMBER) RETURN NUMBER "
               "USING ChemSimilarFunc")
    db.execute("CREATE OPERATOR Chem_Score ANCILLARY TO Chem_Similar")
    db.execute("CREATE INDEXTYPE ChemIndexType FOR "
               "Chem_Match(VARCHAR2, VARCHAR2), "
               "Chem_Tautomer(VARCHAR2, VARCHAR2), "
               "Chem_Substructure(VARCHAR2, VARCHAR2), "
               "Chem_Similar(VARCHAR2, VARCHAR2, NUMBER) "
               "USING ChemIndexMethods")
    db.execute("ASSOCIATE STATISTICS WITH INDEXTYPES ChemIndexType "
               "USING ChemStatsMethods")


def protect_external_index(db, index_name: str) -> None:
    """Register §5's database-event handlers for a FILE-stored index.

    ROLLBACK rebuilds the external index from the (already rolled back)
    base table; COMMIT compacts away tombstones.  Without this, a
    rollback leaves the external index reflecting undone changes.
    """
    from repro.core.callbacks import CallbackPhase

    def _index():
        index = db.catalog.get_index(index_name)
        if index.domain is None:
            raise ODCIError("protect_external_index",
                            f"{index_name} is not a domain index")
        return index

    def on_rollback() -> None:
        index = _index()
        env = db.make_env(CallbackPhase.DEFINITION, index.domain)
        env.trace(f"event:rollback->rebuild({index_name})")
        index.domain.methods.rebuild(index.domain.index_info(), env)

    def on_commit() -> None:
        index = _index()
        env = db.make_env(CallbackPhase.DEFINITION, index.domain)
        methods = index.domain.methods
        methods._index_file(index.domain.index_info(), env).compact()

    db.events.register(DatabaseEvent.ROLLBACK, f"chem:{index_name.lower()}",
                       on_rollback)
    db.events.register(DatabaseEvent.COMMIT, f"chem:{index_name.lower()}",
                       on_commit)
