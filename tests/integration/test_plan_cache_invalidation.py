"""Plan-cache invalidation through real cartridge paths (text + spatial).

Cached plans must be recompiled whenever schema or statistics state that
influenced them changes: DROP INDEX, CREATE INDEX, ANALYZE, and
indextype statistics (re-)association all bump ``Catalog.version`` and
so invalidate every cached plan.
"""

import pytest

from repro.bench.workloads import make_rect_layer
from repro.cartridges.spatial import make_rect


TEXT_SQL = ("SELECT name FROM employees"
            " WHERE Contains(resume, 'Oracle') = 1")


def uses_domain_scan(lines, index_name):
    return any(f"DOMAIN INDEX SCAN {index_name}" in line for line in lines)


class TestTextPathInvalidation:
    def test_drop_index_replans_to_functional(self, employees_db):
        db = employees_db
        assert uses_domain_scan(db.explain(TEXT_SQL), "resume_text_index")
        before = sorted(db.execute(TEXT_SQL).fetchall())
        stats = db.plan_cache.stats
        stats.reset()
        db.execute("DROP INDEX resume_text_index")
        lines = db.explain(TEXT_SQL)
        assert stats.invalidations == 1
        assert not uses_domain_scan(lines, "resume_text_index")
        # the replanned (functional) evaluation returns the same rows
        assert sorted(db.execute(TEXT_SQL).fetchall()) == before

    def test_create_index_replans_to_domain_scan(self, employees_db):
        db = employees_db
        db.execute("DROP INDEX resume_text_index")
        assert not uses_domain_scan(db.explain(TEXT_SQL),
                                    "resume_text_index")
        db.execute(
            "CREATE INDEX resume_text_index ON employees(resume)"
            " INDEXTYPE IS TextIndexType"
            " PARAMETERS (':Language English :Ignore the a an')")
        stats = db.plan_cache.stats
        stats.reset()
        lines = db.explain(TEXT_SQL)
        assert stats.invalidations == 1
        assert uses_domain_scan(lines, "resume_text_index")

    def test_analyze_invalidates_cached_plan(self, employees_db):
        db = employees_db
        db.execute(TEXT_SQL).fetchall()
        stats = db.plan_cache.stats
        stats.reset()
        db.execute("ANALYZE TABLE employees COMPUTE STATISTICS")
        db.execute(TEXT_SQL).fetchall()
        # callback SQL shares the cache, so other entries may also have
        # been invalidated by the same version bump — at least this one was
        assert stats.invalidations >= 1
        assert stats.hits == 0

    def test_statistics_reassociation_invalidates(self, employees_db):
        db = employees_db
        db.execute(TEXT_SQL).fetchall()
        stats = db.plan_cache.stats
        stats.reset()
        db.execute("ASSOCIATE STATISTICS WITH INDEXTYPES TextIndexType"
                   " USING TextStatsMethods")
        db.execute(TEXT_SQL).fetchall()
        assert stats.invalidations >= 1
        assert stats.hits == 0

    def test_warm_statement_hits_without_replanning(self, employees_db):
        db = employees_db
        db.execute(TEXT_SQL).fetchall()
        db.execute(TEXT_SQL).fetchall()
        stats = db.plan_cache.stats
        stats.reset()
        db.execute(TEXT_SQL).fetchall()
        # top-level statement and its callback SQL are all warm now
        assert stats.hits >= 1
        assert stats.misses == 0
        assert stats.stores == 0


@pytest.fixture
def parks_db(spatial_db):
    db = spatial_db
    db.execute("CREATE TABLE parks (gid INTEGER, geometry SDO_GEOMETRY)")
    gt = db.catalog.get_object_type("SDO_GEOMETRY")
    parks = make_rect_layer(gt, 40, seed=3, min_size=20, max_size=120,
                            start_gid=1)
    db.insert_rows("parks", [[g, geom] for g, geom in parks])
    db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
               " INDEXTYPE IS SpatialIndexType")
    db.window = make_rect(gt, 400, 400, 500, 500)
    return db


SPATIAL_SQL = ("SELECT gid FROM parks WHERE"
               " Sdo_Relate(geometry, :1, 'mask=ANYINTERACT')")


class TestSpatialPathInvalidation:
    def test_repeat_window_query_hits_cache(self, parks_db):
        db = parks_db
        first = sorted(db.execute(SPATIAL_SQL, [db.window]).fetchall())
        stats = db.plan_cache.stats
        stats.reset()
        assert sorted(db.execute(SPATIAL_SQL, [db.window]).fetchall()) == first
        assert stats.hits >= 1
        assert stats.stores == 0

    def test_drop_index_replans_and_matches(self, parks_db):
        db = parks_db
        before = sorted(db.execute(SPATIAL_SQL, [db.window]).fetchall())
        stats = db.plan_cache.stats
        stats.reset()
        db.execute("DROP INDEX parks_sidx")
        lines = db.explain(SPATIAL_SQL, [db.window])
        assert stats.invalidations >= 1
        assert not uses_domain_scan(lines, "parks_sidx")
        assert sorted(db.execute(
            SPATIAL_SQL, [db.window]).fetchall()) == before

    def test_create_index_replans_to_domain_scan(self, parks_db):
        db = parks_db
        db.execute("DROP INDEX parks_sidx")
        db.execute(SPATIAL_SQL, [db.window]).fetchall()
        db.execute("CREATE INDEX parks_sidx ON parks(geometry)"
                   " INDEXTYPE IS SpatialIndexType")
        stats = db.plan_cache.stats
        stats.reset()
        lines = db.explain(SPATIAL_SQL, [db.window])
        assert stats.invalidations >= 1
        assert uses_domain_scan(lines, "parks_sidx")

    def test_analyze_invalidates_cached_plan(self, parks_db):
        db = parks_db
        db.execute(SPATIAL_SQL, [db.window]).fetchall()
        stats = db.plan_cache.stats
        stats.reset()
        db.execute("ANALYZE TABLE parks COMPUTE STATISTICS")
        db.execute(SPATIAL_SQL, [db.window]).fetchall()
        assert stats.invalidations >= 1
        assert stats.stores >= 1  # the query was recompiled and re-stored
