"""VIR cartridge: signatures, weights, three-phase evaluation (§3.2.3)."""

import random

import pytest

from repro.bench.workloads import make_signature_table
from repro.cartridges.vir import (
    COARSE_DIMS, Weights, coarse_distance, coarse_vector, make_signature,
    parse_weights, perturb_signature, random_signature, signature_distance,
    vir_similar_functional)
from repro.cartridges.vir.signature import (
    _SLICES, SIGNATURE_LENGTH, component_bound)
from repro.errors import ExecutionError
from repro.types.values import is_null


class TestWeights:
    def test_parse_paper_style(self):
        weights = parse_weights(
            "globalcolor=0.5,localcolor=0.0,texture=0.5,structure=0.0")
        assert weights.globalcolor == 0.5
        assert weights.localcolor == 0.0
        assert weights.total == 1.0

    def test_unmentioned_components_get_zero(self):
        weights = parse_weights("texture=1.0")
        assert weights.globalcolor == 0.0
        assert weights.texture == 1.0

    def test_empty_string_defaults_to_all_ones(self):
        assert parse_weights("").total == 4.0

    def test_all_zero_rejected(self):
        with pytest.raises(ExecutionError):
            parse_weights("globalcolor=0.0")

    def test_unknown_component(self):
        with pytest.raises(ExecutionError):
            parse_weights("sparkle=1.0")

    def test_bad_value(self):
        with pytest.raises(ExecutionError):
            parse_weights("texture=abc")

    def test_whitespace_separator(self):
        weights = parse_weights("globalcolor=1 texture=0.5")
        assert weights.texture == 0.5


def _generator_distance(sig_a, sig_b, weights):
    """``signature_distance`` with a generator over each component's pairs."""
    total = 0.0
    for (__, sl), weight in zip(_SLICES, weights.as_tuple()):
        if weight == 0.0:
            continue
        component_a = sig_a[sl]
        component_b = sig_b[sl]
        diff = sum(abs(x - y) for x, y in zip(component_a, component_b))
        total += weight * (diff / len(component_a))
    return 100.0 * total / weights.total


class TestSignatures:
    def test_make_signature_validates_length(self):
        with pytest.raises(ExecutionError):
            make_signature([0.5] * 3)

    def test_make_signature_validates_range(self):
        with pytest.raises(ExecutionError):
            make_signature([2.0] * SIGNATURE_LENGTH)

    def test_random_signature_in_range(self):
        sig = random_signature(random.Random(1))
        assert len(sig) == SIGNATURE_LENGTH
        assert all(0 <= v <= 1 for v in sig)

    def test_distance_zero_for_identical(self):
        sig = random_signature(random.Random(2))
        assert signature_distance(sig, sig, Weights()) == 0.0

    def test_distance_symmetric(self):
        rng = random.Random(3)
        a, b = random_signature(rng), random_signature(rng)
        weights = Weights()
        assert signature_distance(a, b, weights) == pytest.approx(
            signature_distance(b, a, weights))

    def test_distance_bounded_by_100(self):
        zero = make_signature([0.0] * SIGNATURE_LENGTH)
        one = make_signature([1.0] * SIGNATURE_LENGTH)
        assert signature_distance(zero, one, Weights()) == pytest.approx(100)

    def test_zero_weight_component_ignored(self):
        rng = random.Random(4)
        a = random_signature(rng)
        b = list(a)
        b[0] = 1.0 - b[0]  # change a globalcolor value only
        weights = parse_weights("texture=1.0")
        assert signature_distance(a, b, weights) == 0.0

    def test_distance_equals_generator_form(self):
        """The ``map`` form adds the same differences in the same order
        as a generator over each component's pairs: equal, not close."""
        rng = random.Random(8)
        for trial in range(200):
            a, b = random_signature(rng), random_signature(rng)
            values = [rng.choice((0.0, rng.uniform(0.0, 2.0)))
                      for __ in range(4)]
            values[trial % 4] = rng.uniform(0.1, 2.0)
            weights = Weights(*values)
            assert signature_distance(a, b, weights) \
                == _generator_distance(a, b, weights)

    def test_perturbed_is_near(self):
        rng = random.Random(5)
        base = random_signature(rng)
        near = perturb_signature(rng, base, 0.02)
        assert signature_distance(base, near, Weights()) < 5

    def test_coarse_vector_is_means(self):
        sig = make_signature([0.5] * SIGNATURE_LENGTH)
        assert coarse_vector(sig) == tuple([0.5] * COARSE_DIMS)

    def test_coarse_distance_admissible(self):
        rng = random.Random(6)
        weights = parse_weights("globalcolor=0.7,texture=0.3")
        for __ in range(50):
            a, b = random_signature(rng), random_signature(rng)
            assert coarse_distance(coarse_vector(a), coarse_vector(b),
                                   weights) <= signature_distance(
                a, b, weights) + 1e-9

    def test_component_bound_admissible(self):
        rng = random.Random(7)
        weights = parse_weights("globalcolor=0.5,texture=0.5")
        threshold = 15.0
        for __ in range(50):
            a, b = random_signature(rng), random_signature(rng)
            if signature_distance(a, b, weights) <= threshold:
                ca, cb = coarse_vector(a), coarse_vector(b)
                assert abs(ca[0] - cb[0]) <= component_bound(
                    threshold, weights, 0) + 1e-9


class TestFunctionalOperator:
    def test_match_and_miss(self):
        rng = random.Random(8)
        base = random_signature(rng)
        near = perturb_signature(rng, base, 0.01)
        far = tuple(1.0 - v for v in base)
        assert vir_similar_functional(near, base, "", 10) == 1
        assert vir_similar_functional(far, base, "", 10) == 0

    def test_null_inputs(self):
        from repro.types.values import NULL
        assert vir_similar_functional(NULL, (0.5,), "", 10) == 0


class TestVirIndex:
    @pytest.fixture
    def images(self, vir_db):
        rows, centre = make_signature_table(300, cluster_every=10, seed=4)
        image_type = vir_db.catalog.get_object_type("IMAGE_T")
        vir_db.execute("CREATE TABLE images (iid INTEGER, img IMAGE_T)")
        vir_db.insert_rows("images", [
            [i, image_type.new(signature=sig, width=64, height=64)]
            for i, sig in rows])
        vir_db.execute("CREATE INDEX images_vidx ON images(img)"
                       " INDEXTYPE IS VirIndexType")
        vir_db.rows_data = rows
        vir_db.centre = centre
        return vir_db

    WEIGHTS = "globalcolor=0.5,localcolor=0.2,texture=0.2,structure=0.1"

    def _truth(self, db, threshold):
        weights = parse_weights(self.WEIGHTS)
        return sorted(i for i, sig in db.rows_data
                      if signature_distance(sig, db.centre,
                                            weights) <= threshold)

    def test_index_matches_functional(self, images):
        got = images.execute(
            "SELECT iid FROM images WHERE "
            "VIRSimilar(img.signature, :1, :2, 8)",
            [images.centre, self.WEIGHTS]).fetchall()
        assert sorted(r[0] for r in got) == self._truth(images, 8)

    def test_plan_uses_domain_index(self, images):
        plan = images.explain(
            "SELECT iid FROM images WHERE "
            "VIRSimilar(img.signature, :1, :2, 8)",
            [images.centre, self.WEIGHTS])
        assert any("DOMAIN INDEX SCAN images_vidx" in line for line in plan)

    def test_phase_funnel_recorded(self, images):
        images.stats.extra.clear()
        images.execute(
            "SELECT iid FROM images WHERE "
            "VIRSimilar(img.signature, :1, :2, 8)",
            [images.centre, self.WEIGHTS]).fetchall()
        extra = images.stats.extra
        assert extra["vir_phase1_candidates"] >= extra["vir_phase2_candidates"]
        assert extra["vir_phase2_candidates"] >= extra["vir_phase3_comparisons"]
        # phase 1 already prunes hard relative to the table size
        assert extra["vir_phase1_candidates"] < 300

    def test_maintenance(self, images):
        image_type = images.catalog.get_object_type("IMAGE_T")
        images.execute("INSERT INTO images VALUES (:1, :2)",
                       [9999, image_type.new(signature=images.centre,
                                             width=1, height=1)])
        got = images.execute(
            "SELECT iid FROM images WHERE "
            "VIRSimilar(img.signature, :1, :2, 1)",
            [images.centre, self.WEIGHTS]).fetchall()
        assert 9999 in [r[0] for r in got]
        images.execute("DELETE FROM images WHERE iid = 9999")
        got = images.execute(
            "SELECT iid FROM images WHERE "
            "VIRSimilar(img.signature, :1, :2, 1)",
            [images.centre, self.WEIGHTS]).fetchall()
        assert 9999 not in [r[0] for r in got]

    @staticmethod
    def _assert_coarse_rows_match_images(db):
        """The coarse table holds exactly one row per live image, with
        its signature's coarse vector.  Answers cannot show a row left
        behind (phase 3 re-reads the base row), so this is the check
        that a delete found its coarse row."""
        expected = [
            (rid, *coarse_vector(img.get("signature")))
            for rid, img in db.execute(
                "SELECT rowid, img FROM images").fetchall()
            if not is_null(img)]
        assert sorted(db.execute(
            "SELECT rid, c1, c2, c3, c4 FROM images_vidx_coarse").fetchall()) \
            == sorted(expected)

    def test_coarse_rows_follow_delete_and_update(self, images):
        image_type = images.catalog.get_object_type("IMAGE_T")
        self._assert_coarse_rows_match_images(images)
        images.execute("DELETE FROM images WHERE iid < 40")
        self._assert_coarse_rows_match_images(images)
        assert images.execute(
            "SELECT COUNT(*) FROM images_vidx_coarse").fetchall() == [(260,)]
        # a moved signature: its coarse row is found by the old c1
        images.execute(
            "UPDATE images SET img = :1 WHERE iid >= 40 AND iid < 80",
            [image_type.new(signature=images.centre, width=1, height=1)])
        self._assert_coarse_rows_match_images(images)
        images.execute(
            "UPDATE images SET img = NULL WHERE iid >= 80 AND iid < 90")
        self._assert_coarse_rows_match_images(images)
        assert images.execute(
            "SELECT COUNT(*) FROM images_vidx_coarse").fetchall() == [(250,)]
        images.execute("DELETE FROM images WHERE iid < 100")
        self._assert_coarse_rows_match_images(images)
        assert images.execute(
            "SELECT COUNT(*) FROM images_vidx_coarse").fetchall() == [(200,)]

    def test_keyed_delete_probes_the_c1_btree(self, images):
        """The delete routine's statement: the old coarse vector's c1
        bounds an index range scan, not a scan of the coarse table."""
        rid, c1 = images.execute(
            "SELECT rid, c1 FROM images_vidx_coarse").fetchone()
        plan = images.explain(
            "DELETE FROM images_vidx_coarse WHERE c1 = :1 AND rid = :2",
            [c1, rid])
        assert any("INDEX RANGE SCAN images_vidx_coarse_c1" in line
                   for line in plan), plan

    def test_truncate_table_empties_the_index(self, images):
        """TRUNCATE TABLE runs VIR's ODCIIndexTruncate: the coarse table
        is emptied, the index stays VALID, and rows inserted afterwards
        (under the old rows' rowids) are each found once."""
        query = ("SELECT iid FROM images WHERE "
                 "VIRSimilar(img.signature, :1, :2, 8)")
        params = [images.centre, self.WEIGHTS]
        matching = set(self._truth(images, 8))
        images.execute("TRUNCATE TABLE images")
        assert images.execute(
            "SELECT COUNT(*) FROM images_vidx_coarse").fetchall() == [(0,)]
        assert images.execute(
            "SELECT status FROM user_indexes"
            " WHERE index_name = 'images_vidx'").fetchall() == [("VALID",)]
        image_type = images.catalog.get_object_type("IMAGE_T")

        def reinsert(keep):
            images.insert_rows("images", [
                [i, image_type.new(signature=sig, width=64, height=64)]
                for i, sig in images.rows_data if keep(i)])

        def indexed():
            assert any("DOMAIN INDEX SCAN images_vidx" in line
                       for line in images.explain(query, params))
            return sorted(r[0] for r in images.execute(
                query, params).fetchall())

        reinsert(lambda i: i not in matching)
        assert indexed() == []
        reinsert(lambda i: i in matching)
        assert indexed() == sorted(matching)

    def test_tight_threshold_returns_subset(self, images):
        wide = images.execute(
            "SELECT iid FROM images WHERE "
            "VIRSimilar(img.signature, :1, :2, 12)",
            [images.centre, self.WEIGHTS]).fetchall()
        tight = images.execute(
            "SELECT iid FROM images WHERE "
            "VIRSimilar(img.signature, :1, :2, 4)",
            [images.centre, self.WEIGHTS]).fetchall()
        assert set(r[0] for r in tight) <= set(r[0] for r in wide)
