"""Cross-cartridge edge cases: languages, polygons, NULLs, empty tables."""

import pytest

from repro.types.values import NULL


class TestTextLanguages:
    @pytest.fixture
    def german_db(self, text_db):
        text_db.execute("CREATE TABLE de_docs (body VARCHAR2(200))")
        text_db.execute("INSERT INTO de_docs VALUES"
                        " ('die Datenbank und der Index')")
        text_db.execute("CREATE INDEX de_idx ON de_docs(body)"
                        " INDEXTYPE IS TextIndexType"
                        " PARAMETERS (':Language German')")
        return text_db

    def test_german_stopwords_not_indexed(self, german_db):
        rows = german_db.execute(
            "SELECT token FROM de_idx_terms ORDER BY 1").fetchall()
        tokens = [r[0] for r in rows]
        assert "datenbank" in tokens
        assert "die" not in tokens and "und" not in tokens

    def test_query_works(self, german_db):
        rows = german_db.execute(
            "SELECT COUNT(*) FROM de_docs WHERE Contains(body, 'Datenbank')"
        ).fetchall()
        assert rows == [(1,)]


class TestNullColumns:
    def test_null_text_not_indexed(self, text_db):
        text_db.execute("CREATE TABLE t (body VARCHAR2(100))")
        text_db.execute("INSERT INTO t VALUES (NULL)")
        text_db.execute("CREATE INDEX t_idx ON t(body)"
                        " INDEXTYPE IS TextIndexType")
        assert text_db.execute(
            "SELECT COUNT(*) FROM t_idx_terms").fetchall() == [(0,)]
        text_db.execute("INSERT INTO t VALUES (NULL)")  # maintained, no-op
        assert text_db.execute(
            "SELECT COUNT(*) FROM t_idx_terms").fetchall() == [(0,)]

    def test_update_null_to_value(self, text_db):
        text_db.execute("CREATE TABLE t (id INTEGER, body VARCHAR2(100))")
        text_db.execute("INSERT INTO t VALUES (1, NULL)")
        text_db.execute("CREATE INDEX t_idx ON t(body)"
                        " INDEXTYPE IS TextIndexType")
        text_db.execute("UPDATE t SET body = 'now oracle' WHERE id = 1")
        rows = text_db.execute(
            "SELECT id FROM t WHERE Contains(body, 'oracle')").fetchall()
        assert rows == [(1,)]

    def test_update_value_to_null(self, text_db):
        text_db.execute("CREATE TABLE t (id INTEGER, body VARCHAR2(100))")
        text_db.execute("INSERT INTO t VALUES (1, 'oracle docs')")
        text_db.execute("CREATE INDEX t_idx ON t(body)"
                        " INDEXTYPE IS TextIndexType")
        text_db.execute("UPDATE t SET body = NULL WHERE id = 1")
        assert text_db.execute(
            "SELECT id FROM t WHERE Contains(body, 'oracle')").fetchall() == []
        assert text_db.execute(
            "SELECT COUNT(*) FROM t_idx_terms").fetchall() == [(0,)]


class TestEmptyTables:
    def test_create_index_on_empty_table(self, text_db):
        text_db.execute("CREATE TABLE empty_t (body VARCHAR2(100))")
        text_db.execute("CREATE INDEX e_idx ON empty_t(body)"
                        " INDEXTYPE IS TextIndexType")
        assert text_db.execute(
            "SELECT * FROM empty_t WHERE Contains(body, 'x')").fetchall() == []

    def test_spatial_empty_query(self, spatial_db):
        from repro.cartridges.spatial import make_rect
        spatial_db.execute(
            "CREATE TABLE geo (gid INTEGER, geometry SDO_GEOMETRY)")
        spatial_db.execute("CREATE INDEX g_idx ON geo(geometry)"
                           " INDEXTYPE IS SpatialIndexType")
        gt = spatial_db.catalog.get_object_type("SDO_GEOMETRY")
        window = make_rect(gt, 0, 0, 100, 100)
        assert spatial_db.execute(
            "SELECT gid FROM geo WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [window]
        ).fetchall() == []


class TestSpatialPolygons:
    def test_triangle_through_sql(self, spatial_db):
        from repro.cartridges.spatial import make_polygon, make_rect
        spatial_db.execute(
            "CREATE TABLE shapes (sid INTEGER, geometry SDO_GEOMETRY)")
        gt = spatial_db.catalog.get_object_type("SDO_GEOMETRY")
        triangle = make_polygon(gt, [100, 100, 300, 100, 200, 300])
        spatial_db.execute("INSERT INTO shapes VALUES (1, :1)", [triangle])
        spatial_db.execute("CREATE INDEX s_idx ON shapes(geometry)"
                           " INDEXTYPE IS SpatialIndexType")
        inside_window = make_rect(gt, 50, 50, 350, 350)
        rows = spatial_db.execute(
            "SELECT sid FROM shapes WHERE "
            "Sdo_Relate(geometry, :1, 'mask=INSIDE')", [inside_window]
        ).fetchall()
        assert rows == [(1,)]
        # a window overlapping only the triangle's bbox corner, not the
        # triangle itself, must not match (exact filter at work)
        corner = make_rect(gt, 280, 250, 310, 290)
        rows = spatial_db.execute(
            "SELECT sid FROM shapes WHERE "
            "Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')", [corner]
        ).fetchall()
        assert rows == []

    def test_sql_polygon_constructor(self, spatial_db):
        spatial_db.execute(
            "CREATE TABLE shapes (sid INTEGER, geometry SDO_GEOMETRY)")
        spatial_db.execute(
            "INSERT INTO shapes VALUES (1,"
            " sdo_polygon(10, 10, 50, 10, 30, 40))")
        rows = spatial_db.execute(
            "SELECT geometry.gtype FROM shapes").fetchall()
        assert rows == [(3,)]


class TestVirNullAndEdge:
    def test_null_image_skipped(self, vir_db):
        vir_db.execute("CREATE TABLE imgs (iid INTEGER, img IMAGE_T)")
        vir_db.execute("INSERT INTO imgs VALUES (1, NULL)")
        vir_db.execute("CREATE INDEX i_idx ON imgs(img)"
                       " INDEXTYPE IS VirIndexType")
        assert vir_db.execute(
            "SELECT COUNT(*) FROM i_idx_coarse").fetchall() == [(0,)]

    def test_zero_threshold_only_exact(self, vir_db):
        import random

        from repro.cartridges.vir import random_signature
        image_type = vir_db.catalog.get_object_type("IMAGE_T")
        rng = random.Random(5)
        sig = random_signature(rng)
        vir_db.execute("CREATE TABLE imgs (iid INTEGER, img IMAGE_T)")
        vir_db.execute("INSERT INTO imgs VALUES (1, :1)",
                       [image_type.new(signature=sig)])
        vir_db.execute("INSERT INTO imgs VALUES (2, :1)",
                       [image_type.new(signature=random_signature(rng))])
        vir_db.execute("CREATE INDEX i_idx ON imgs(img)"
                       " INDEXTYPE IS VirIndexType")
        rows = vir_db.execute(
            "SELECT iid FROM imgs WHERE "
            "VIRSimilar(img.signature, :1, '', 0)", [sig]).fetchall()
        assert rows == [(1,)]


class TestChemistryReopen:
    def test_index_survives_methods_cache_reset(self, chem_db):
        chem_db.execute("CREATE TABLE m (mid INTEGER, mol VARCHAR2(100))")
        chem_db.execute("INSERT INTO m VALUES (1, 'CCO')")
        chem_db.execute("CREATE INDEX m_idx ON m(mol)"
                        " INDEXTYPE IS ChemIndexType"
                        " PARAMETERS (':Storage LOB')")
        # simulate a fresh methods instance (e.g. engine restart): the
        # storage factory must be rediscoverable from the meta table
        index = chem_db.catalog.get_index("m_idx")
        index.domain.methods._factory = None
        index.domain.methods._storage_kind = None
        rows = chem_db.execute(
            "SELECT mid FROM m WHERE Chem_Match(mol, 'OCC')").fetchall()
        assert rows == [(1,)]
