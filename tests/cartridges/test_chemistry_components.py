"""Chemistry components: molecule model, fingerprints, search, index file."""

import random

import pytest

from repro.cartridges.chemistry import (
    FingerprintIndexFile, Record, certificate, fingerprint, full_match,
    nearest_neighbors, parse_smiles, path_strings, random_molecule,
    random_substructure, similarity, substructure_match, tanimoto,
    tautomer_key, to_smiles)
from repro.cartridges.chemistry.fingerprint import (
    fingerprint_bytes, fingerprint_from_bytes, screen_passes)
from repro.errors import ExecutionError, StorageError
from repro.storage.buffer import BufferCache, IOStats


class TestSmilesParser:
    def test_linear_chain(self):
        mol = parse_smiles("CCO")
        assert mol.atoms == ("C", "C", "O")
        assert mol.bond_count == 2

    def test_bond_orders(self):
        mol = parse_smiles("C=C#N")
        orders = sorted(order for __, __, order in mol.bonds)
        assert orders == [2, 3]

    def test_branches(self):
        mol = parse_smiles("CC(C)(C)O")
        # central carbon bonded to three carbons and... count degrees
        adjacency = mol.neighbors()
        degrees = sorted(len(a) for a in adjacency)
        assert max(degrees) == 4

    def test_ring_closure(self):
        benzene_like = parse_smiles("C1CCCCC1")
        assert benzene_like.bond_count == 6
        adjacency = benzene_like.neighbors()
        assert all(len(a) == 2 for a in adjacency)

    def test_two_letter_elements(self):
        mol = parse_smiles("ClCBr")
        assert mol.atoms == ("Cl", "C", "Br")

    def test_ring_with_double_bond(self):
        mol = parse_smiles("C1=CC=CC=C1")
        assert mol.bond_count == 6
        assert sorted(order for __, __, order in mol.bonds) == [1, 1, 1, 2, 2, 2]

    def test_unclosed_ring_rejected(self):
        with pytest.raises(ExecutionError):
            parse_smiles("C1CC")

    def test_unbalanced_branch_rejected(self):
        with pytest.raises(ExecutionError):
            parse_smiles("C(C")
        with pytest.raises(ExecutionError):
            parse_smiles("C)C")

    def test_bad_character(self):
        with pytest.raises(ExecutionError):
            parse_smiles("CxC")

    def test_empty(self):
        with pytest.raises(ExecutionError):
            parse_smiles("")


class TestWriterRoundtrip:
    @pytest.mark.parametrize("notation", [
        "C", "CCO", "CC(C)C", "C1CCCCC1", "C=CC#N", "ClC(Br)I",
        "CC(=O)OC1CCCCC1",
    ])
    def test_roundtrip_isomorphic(self, notation):
        mol = parse_smiles(notation)
        again = parse_smiles(to_smiles(mol))
        assert certificate(mol) == certificate(again)
        assert mol.atom_count == again.atom_count
        assert mol.bond_count == again.bond_count

    def test_random_molecules_roundtrip(self):
        rng = random.Random(1)
        for __ in range(30):
            mol = random_molecule(rng, size=rng.randint(2, 15))
            again = parse_smiles(to_smiles(mol))
            assert certificate(mol) == certificate(again)


class TestCertificates:
    def test_isomorphic_relabelings_agree(self):
        # same molecule written two ways
        a = parse_smiles("CCO")
        b = parse_smiles("OCC")
        assert certificate(a) == certificate(b)

    def test_different_molecules_differ(self):
        assert certificate(parse_smiles("CCO")) != certificate(
            parse_smiles("CCN"))
        assert certificate(parse_smiles("CCC")) != certificate(
            parse_smiles("CCCC"))
        # structural isomers: same formula, different connectivity
        assert certificate(parse_smiles("CCCC")) != certificate(
            parse_smiles("CC(C)C"))

    def test_bond_order_matters(self):
        assert certificate(parse_smiles("CC")) != certificate(
            parse_smiles("C=C"))

    #: certificate() / tautomer_key() of fixed structures, as stored
    #: (hashed) in every ChemIndexType record.  These pin the index data
    #: format: change them and ChemIndexMethods.format_version together,
    #: so indexes written before the change go UNUSABLE until REBUILD.
    GOLDEN = [
        ("CCCCCC", "6:5:7c4dad1969482a10", "6:5:7c4dad1969482a10"),
        ("CC(C)(C)O", "5:4:978500e8f724dafc", "5:4:978500e8f724dafc"),
        ("C1CCOCC1", "6:6:33e0613d78d0f6c5", "6:6:33e0613d78d0f6c5"),
        ("C=CC#N", "4:3:52e270d66f7d6746", "4:3:03ae03182ee21780"),
        ("OC(=O)CNS", "6:5:268695a72d50fb3c", "6:5:cce5078e3c35ed0d"),
    ]

    def test_stored_keys_are_pinned_to_the_format_version(self):
        from repro.cartridges.chemistry import ChemIndexMethods
        assert ChemIndexMethods.format_version == 2
        for notation, cert, taut in self.GOLDEN:
            mol = parse_smiles(notation)
            assert (certificate(mol), tautomer_key(mol)) == (cert, taut), \
                notation

    def test_tautomer_key_ignores_bond_orders(self):
        assert tautomer_key(parse_smiles("CC=O")) == tautomer_key(
            parse_smiles("CCO"))
        assert tautomer_key(parse_smiles("CC=O")) != tautomer_key(
            parse_smiles("CCN"))

    def test_full_match(self):
        assert full_match(parse_smiles("C(C)O"), parse_smiles("OCC"))
        assert not full_match(parse_smiles("CCO"), parse_smiles("CC=O"))


class TestFingerprints:
    def test_paths_enumerated(self):
        paths = path_strings(parse_smiles("CCO"))
        assert "C" in paths
        assert "O" in paths
        assert "C1C" in paths
        assert min("C1C1O", "O1C1C") in paths

    def test_identical_molecules_same_fp(self):
        assert fingerprint(parse_smiles("CCO")) == fingerprint(
            parse_smiles("OCC"))

    def test_screening_property_on_random_substructures(self):
        rng = random.Random(2)
        for __ in range(30):
            mol = random_molecule(rng, size=rng.randint(4, 14))
            sub = random_substructure(rng, mol, size=rng.randint(1, 4))
            assert screen_passes(fingerprint(sub), fingerprint(mol))

    def test_tanimoto_bounds(self):
        a = fingerprint(parse_smiles("CCO"))
        b = fingerprint(parse_smiles("CCN"))
        assert 0 <= tanimoto(a, b) < 1
        assert tanimoto(a, a) == 1.0
        assert tanimoto(0, 0) == 1.0

    def test_serialize_roundtrip(self):
        fp = fingerprint(parse_smiles("CC(=O)O"))
        assert fingerprint_from_bytes(fingerprint_bytes(fp)) == fp


class TestSubstructureSearch:
    def test_chain_in_ring(self):
        assert substructure_match(parse_smiles("CCC"),
                                  parse_smiles("C1CCCCC1"))

    def test_ring_not_in_chain(self):
        assert not substructure_match(parse_smiles("C1CC1"),
                                      parse_smiles("CCCCCC"))

    def test_element_mismatch(self):
        assert not substructure_match(parse_smiles("N"), parse_smiles("CCO"))

    def test_bond_order_respected(self):
        assert substructure_match(parse_smiles("C=C"), parse_smiles("CC=CC"))
        assert not substructure_match(parse_smiles("C#C"),
                                      parse_smiles("CC=CC"))

    def test_self_match(self):
        mol = parse_smiles("CC(=O)OC")
        assert substructure_match(mol, mol)

    def test_larger_pattern_never_matches(self):
        assert not substructure_match(parse_smiles("CCCC"),
                                      parse_smiles("CC"))

    def test_random_substructures_always_match(self):
        rng = random.Random(3)
        for __ in range(25):
            mol = random_molecule(rng, size=rng.randint(4, 12))
            sub = random_substructure(rng, mol, size=rng.randint(1, 5))
            assert substructure_match(sub, mol)

    def test_similarity_and_nn(self):
        rng = random.Random(4)
        mols = [random_molecule(rng, 8) for __ in range(20)]
        query = mols[5]
        ranked = nearest_neighbors(query, list(enumerate(mols)), k=3)
        assert len(ranked) == 3
        assert ranked[0][0] == 5 and ranked[0][1] == 1.0
        assert ranked[0][1] >= ranked[1][1] >= ranked[2][1]
        assert similarity(query, query) == 1.0


class TestFingerprintIndexFile:
    @pytest.fixture
    def index_file(self):
        store = bytearray()

        class Handle:
            def __init__(self):
                self.pos = 0

            def seek(self, offset, whence=0):
                self.pos = offset if whence == 0 else (
                    self.pos + offset if whence == 1 else len(store) + offset)

            def read(self, count=-1):
                out = bytes(store[self.pos:]) if count < 0 \
                    else bytes(store[self.pos:self.pos + count])
                self.pos += len(out)
                return out

            def write(self, data):
                end = self.pos + len(data)
                if len(store) < self.pos:
                    store.extend(b"\x00" * (self.pos - len(store)))
                store[self.pos:end] = data
                self.pos = end
                return len(data)

            def truncate(self, size=None):
                del store[self.pos if size is None else size:]

        index = FingerprintIndexFile(Handle)
        index.initialize()
        return index

    def _record(self, i, fp=0b1010, tomb=False):
        return Record(rowid=(1, 0, i), cert_hash=i * 7,
                      taut_hash=i * 13, fingerprint=fp, tombstone=tomb)

    def test_append_and_read(self, index_file):
        index_file.append_many([self._record(1), self._record(2)])
        records = list(index_file.records())
        assert [r.rowid[2] for r in records] == [1, 2]
        assert index_file.record_count() == 2

    def test_append_many(self, index_file):
        index_file.append_many([self._record(i) for i in range(5)])
        assert len(list(index_file.records())) == 5

    def test_tombstone_hides_entry(self, index_file):
        index_file.append_many([self._record(1), self._record(2)])
        index_file.tombstone([(1, 0, 1)])
        assert [r.rowid[2] for r in index_file.records()] == [2]
        assert index_file.record_count() == 3  # physical records

    def test_tombstone_then_reinsert_same_rowid(self, index_file):
        index_file.append_many([self._record(1, fp=1)])
        index_file.tombstone([(1, 0, 1)])
        index_file.append_many([self._record(1, fp=2)])
        live = list(index_file.records())
        assert len(live) == 1
        assert live[0].fingerprint == 2

    def test_compact_removes_dead(self, index_file):
        index_file.append_many([self._record(i) for i in range(4)])
        index_file.tombstone([(1, 0, 0)])
        assert index_file.compact() == 3
        assert index_file.record_count() == 3
        assert [r.rowid[2] for r in index_file.records()] == [1, 2, 3]

    def test_hash_lookups(self, index_file):
        index_file.append_many([self._record(3)])
        assert index_file.find_by_cert(21)[0].rowid[2] == 3
        assert index_file.find_by_tautomer(39)[0].rowid[2] == 3
        assert index_file.find_by_cert(999) == []

    def test_uninitialized_rejected(self):
        class Empty:
            def seek(self, *a):
                pass

            def read(self, n=-1):
                return b""

        index = FingerprintIndexFile(Empty)
        with pytest.raises(StorageError):
            index.record_count()

    def test_record_pack_roundtrip(self):
        record = Record(rowid=(7, 3, 2), cert_hash=123456789,
                        taut_hash=987654321, fingerprint=(1 << 200) | 5)
        assert Record.unpack(record.pack()) == record


def _read_record_at_a_time(open_handle):
    """The reference reader: one ``read`` and one :class:`Record` per
    record, then tombstones applied (each cancels the earliest live
    entry of its rowid).  Returns ``(physical records, live records)``."""
    size = len(Record((0, 0, 0), 0, 0, 0).pack())
    handle = open_handle()
    handle.seek(0)
    header = handle.read(8)
    count = int.from_bytes(header[4:], "big")
    raw = []
    for __ in range(count):
        data = handle.read(size)
        if len(data) < size:
            raise StorageError("truncated")
        raw.append(Record.unpack(data))
    dead = {}
    for record in raw:
        if record.tombstone:
            dead[record.rowid] = dead.get(record.rowid, 0) + 1
    live = []
    for record in raw:
        if record.tombstone:
            continue
        if dead.get(record.rowid):
            dead[record.rowid] -= 1
            continue
        live.append(record)
    return raw, live


class TestOneReadDecoder:
    """The fingerprint file is decoded from one read of its image by one
    ``struct.iter_unpack``, and the LOB and the external file share that
    code path: both answer what reading a record at a time answers."""

    @pytest.fixture(params=["LOB", "FILE"])
    def store(self, request):
        from repro.storage.filestore import FileStore
        from repro.storage.lob import LobManager
        stats = IOStats()
        if request.param == "LOB":
            lobs = LobManager(BufferCache(stats))
            lob_id = lobs.create().lob_id
            return request.param, stats, lambda: lobs.open(lob_id)
        files = FileStore(stats)
        files.create("fp.cfp")
        return request.param, stats, lambda: files.open("fp.cfp")

    @staticmethod
    def _fill(index_file):
        """300 records over several LOB chunks: duplicate rowids,
        tombstones of one, both and none of a rowid's entries, a
        tombstone with no entry, re-inserts after a tombstone."""
        rng = random.Random(5)
        index_file.initialize()

        def record(slot, tag):
            return Record(rowid=(2, slot // 50, slot % 50),
                          cert_hash=slot % 17, taut_hash=tag % 11,
                          fingerprint=rng.getrandbits(512))
        index_file.append_many([record(s, s) for s in range(200)])
        index_file.append_many([record(s, s + 1) for s in range(0, 60, 3)])
        index_file.tombstone([(2, slot // 50, slot % 50)
                              for slot in (0, 3, 4, 7, 9, 400)])
        index_file.tombstone([(2, 0, 3)])
        index_file.append_many([record(s, s + 2) for s in (4, 9, 250)])

    def test_decoder_equals_the_record_at_a_time_reader(self, store):
        __, __, open_handle = store
        index_file = FingerprintIndexFile(open_handle)
        self._fill(index_file)
        raw, live = _read_record_at_a_time(open_handle)
        assert index_file.record_count() == len(raw) > 200
        assert list(index_file.raw_records()) == raw
        assert index_file.records() == live
        assert {r.rowid for r in live} != {r.rowid for r in raw}
        for value in range(17):
            assert index_file.find_by_cert(value) == [
                r for r in live if r.cert_hash == value]
        for value in range(11):
            assert index_file.find_by_tautomer(value) == [
                r for r in live if r.taut_hash == value]

    def test_one_read_of_the_image(self, store):
        kind, stats, open_handle = store
        index_file = FingerprintIndexFile(open_handle)
        self._fill(index_file)
        reads = stats.file_reads
        assert len(index_file.records()) > 200
        # a file read is the header, then the image; a LOB's reads go
        # through the buffer cache and count none
        assert stats.file_reads - reads == (2 if kind == "FILE" else 0)

    def test_truncated_image_raises(self, store):
        __, __, open_handle = store
        index_file = FingerprintIndexFile(open_handle)
        self._fill(index_file)
        handle = open_handle()
        handle.truncate(handle.length() - 40)
        for read in (index_file.records, index_file.raw_records,
                     lambda: index_file.find_by_cert(3)):
            with pytest.raises(StorageError, match="truncated"):
                read()
        with pytest.raises(StorageError):
            _read_record_at_a_time(open_handle)
