"""Smoke the kill-at-random-point harness from pytest.

The full 200-seed sweep runs from the CLI
(``python -m repro.testing.crash --seeds 200``) and in CI's crash job;
here we run a small deterministic slice so ``pytest -m crash`` alone
exercises the subprocess SIGKILL machinery end to end, plus unit checks
that the seed-derived plans are stable.
"""

import zlib

import pytest

from repro.testing.crash import (kill_spec, plan_workload,
                                 recovery_kill_spec, run_seed)

pytestmark = pytest.mark.crash

SMOKE_SEEDS = 12


class TestSeedDeterminism:
    def test_workload_plan_is_pure(self):
        a = plan_workload(42)
        b = plan_workload(42)
        assert [(p.tag, p.rows, p.update_n, p.delete_n, p.counters,
                 p.undo, p.load, p.load_rows) for p in a] == \
               [(p.tag, p.rows, p.update_n, p.delete_n, p.counters,
                 p.undo, p.load, p.load_rows) for p in b]

    @pytest.mark.parametrize("seed, digest", [(0, 1293686219),
                                              (42, 3797050329)])
    def test_rollbacks_leave_the_commit_plans_as_they_were(self, seed,
                                                           digest):
        """The rollback draws come from their own stream: each seed's
        rows, updates, deletes and counters are the ones it drew before
        plans rolled back (the digests were taken then)."""
        plans = plan_workload(seed)
        assert zlib.crc32(repr([(p.tag, p.rows, p.update_n, p.delete_n,
                                 p.counters) for p in plans]).encode()) \
            == digest
        undone = [p.undo for p in plans]
        assert undone.count("rollback") and undone.count("savepoint")

    @pytest.mark.parametrize("seed", [0, 42])
    def test_loads_span_pages_and_some_are_rolled_back(self, seed):
        """Loads draw from their own stream too (the digests above hold);
        each covers at least two pages of ``h``, and some commit, some
        roll back to a savepoint and some end in ROLLBACK."""
        from repro.storage.page import PAGE_SIZE, estimate_row_size
        plans = plan_workload(seed)
        loads = [p for p in plans if p.load]
        assert {p.load for p in loads} == {"keep", "savepoint"}
        assert any(p.undo == "rollback" for p in loads)
        for plan in loads:
            size = sum(estimate_row_size((plan.tag, n, v))
                       for n, v in plan.loaded())
            assert size > 2 * PAGE_SIZE

    def test_kill_specs_are_pure(self):
        assert kill_spec(7) == kill_spec(7)
        assert recovery_kill_spec(7) == recovery_kill_spec(7)

    def test_distinct_seeds_diverge(self):
        # not a guarantee for every pair, but these must differ or the
        # sweep is re-running one scenario 200 times
        specs = {kill_spec(s) for s in range(20)}
        assert len(specs) > 5


class TestSmokeSweep:
    @pytest.mark.parametrize("seed", range(SMOKE_SEEDS))
    def test_seed_survives_kill_and_verifies(self, seed):
        result = run_seed(seed)
        # verify() raised if any ACID property failed; sanity-check the
        # ledger shape here
        assert result["seed"] == seed
        assert result["acked"] <= result["recovered"]
        if not result["killed"]:
            # the child ran to completion: every planned txn that does
            # not end in ROLLBACK committed
            committed = sum(p.undo != "rollback"
                            for p in plan_workload(seed))
            assert result["acked"] == result["recovered"] == committed
