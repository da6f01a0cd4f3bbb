"""Self-test of the benchmark's own checks, on a small biogrid-sim.

Run from the repository root::

    python3 -m pytest wirebench/tests -q
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import harness  # noqa: E402

harness.configure()

import update  # noqa: E402
import workloads  # noqa: E402
from repro.core.dynamic import assert_repair_matches_rebuild  # noqa: E402
from repro.store.cache import IndexStore  # noqa: E402

SMALL = workloads.Workload("selftest", "biogrid-sim", 8, rate=100.0, scale=0.1)


@pytest.fixture()
def fixture() -> workloads.Fixture:
    return workloads.load_fixture(SMALL)


def test_perturbed_index_is_reported_as_failed(fixture: workloads.Fixture) -> None:
    requests = workloads.make_requests(SMALL, fixture, seed=3, count=60)
    with tempfile.TemporaryDirectory(dir=harness.BUILD) as run_dir:
        index_dir = os.path.join(run_dir, "index")
        harness.prepare(SMALL, index_dir, os.path.join(run_dir, "prepare.log"))
        # Shorten every ChromLand landmark distance: estimates drop below
        # the in-memory reference (and below the exact distance).
        chromland = workloads.load_fixture(SMALL).references["chromland"]
        chromland.mono = np.where(chromland.mono > 1, chromland.mono - 1,
                                  chromland.mono)
        IndexStore(index_dir).save(chromland)
        server = harness.boot(SMALL, index_dir, os.path.join(run_dir, "serve.log"))
        tally = harness.Tally()
        try:
            harness.drive(SMALL, server, requests, tally)
        finally:
            server.stop()
    assert tally.attempted == len(requests)
    failed_share = tally.failed / tally.attempted
    assert failed_share > 0
    # Only ChromLand requests can fail: PowCov was left intact.
    assert tally.failed <= sum(r.oracle == "chromland" for r in requests)


def test_unperturbed_index_verifies(fixture: workloads.Fixture) -> None:
    requests = workloads.make_requests(SMALL, fixture, seed=4, count=40)
    with tempfile.TemporaryDirectory(dir=harness.BUILD) as run_dir:
        index_dir = os.path.join(run_dir, "index")
        harness.prepare(SMALL, index_dir, os.path.join(run_dir, "prepare.log"))
        server = harness.boot(SMALL, index_dir, os.path.join(run_dir, "serve.log"))
        tally = harness.Tally()
        try:
            harness.drive(SMALL, server, requests, tally)
        finally:
            server.stop()
    assert (tally.attempted, tally.failed) == (len(requests), 0)


def test_update_replica_matches_rebuild(fixture: workloads.Fixture) -> None:
    _requests, _due, hot = update.make_requests(
        fixture, seed=5, seconds=8.0, delta_path="/graphs/biogrid-sim/delta")
    replica = update.Replica(fixture, hot)
    schedule = update.delta_schedule(fixture, 8.0)
    assert {bool(d.insertions) for _due, d in schedule} == {True, False}
    for _due, delta in schedule:
        replica.advance(delta)
    for oracle in replica.oracles.values():
        assert oracle.graph is replica.graph
        assert_repair_matches_rebuild(oracle, hot["powcov"][:200])
    assert len(replica.tables) == len(schedule) + 1
