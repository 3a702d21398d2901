"""The facade's diagnostics stream like its estimators do.

``api.compare`` / ``api.evaluate`` with ``diagnostics=True`` (the
default) run :func:`~repro.core.diagnostics.overlap_report` next to the
estimator panel.  On a sharded trace both must read chunk by chunk:

* under ``on_corruption="quarantine"`` the overlap report degrades with
  the estimates — it covers exactly the surviving records — while a
  shortfall the quarantine does not account for stays a hard
  :class:`~repro.errors.StoreError`;
* nothing on the facade path materialises records, so the whole
  evaluation runs with every record-building entry point disabled.
"""

from __future__ import annotations

import pytest

from repro import api, core
from repro.core.diagnostics import overlap_report
from repro.errors import StoreError
from repro.store import ShardedTrace
from repro.store import sharded as sharded_module
from repro.testing.faults import flip_shard_bit

from .conftest import build_trace

SHARD_SIZE = 1000
RECORDS = 3 * SHARD_SIZE


@pytest.fixture(scope="module")
def dense():
    return build_trace(n=RECORDS)


@pytest.fixture(scope="module")
def policy(dense):
    decisions = sorted(dense.decision_set(), key=repr)
    return core.UniformRandomPolicy(core.DecisionSpace(decisions))


@pytest.fixture
def shard_dir(dense, tmp_path):
    directory = tmp_path / "shards"
    dense.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


class TestQuarantinedDiagnostics:
    def test_overlap_covers_exactly_the_surviving_chunks(
        self, dense, policy, shard_dir
    ):
        flip_shard_bit(shard_dir, 1)
        trace = ShardedTrace(shard_dir, on_corruption="quarantine")
        report = api.compare(trace, policy)
        survivors = core.Trace(
            list(dense[:SHARD_SIZE]) + list(dense[2 * SHARD_SIZE :])
        )
        expected = overlap_report(policy, survivors)
        assert report.overlap == expected
        assert list(report.overlap.decision_coverage) == list(
            expected.decision_coverage
        )
        assert report.overlap.n == RECORDS - SHARD_SIZE
        for result in report.estimates.values():
            assert result.n == report.overlap.n
            assert "store_quarantine" in result.diagnostics
        assert not report.failed

    def test_unaccounted_shortfall_stays_a_store_error(
        self, policy, shard_dir, monkeypatch
    ):
        flip_shard_bit(shard_dir, 1)
        trace = ShardedTrace(shard_dir, on_corruption="quarantine")
        # A reader that skips a shard without accounting for it.
        monkeypatch.setattr(trace, "quarantined_records", lambda: 0)
        with pytest.raises(StoreError, match="streaming read 2000 records"):
            overlap_report(policy, trace)
        with pytest.raises(StoreError, match="streaming read 2000 records"):
            api.compare(trace, policy, diagnostics=False)


class TestBoundedResources:
    def test_facade_never_materialises_records(
        self, dense, policy, shard_dir, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the facade path materialised records")

        monkeypatch.setattr(sharded_module.ShardedTrace, "materialize", refuse)
        monkeypatch.setattr(sharded_module.ShardedTrace, "__iter__", refuse)
        monkeypatch.setattr(sharded_module._ShardStore, "decode_records", refuse)
        trace = ShardedTrace(shard_dir, chunk_records=700)
        estimators = ["dm", "snips", "dr"]
        compared = api.compare(trace, policy, estimators)
        evaluated = api.evaluate(trace, policy, "dr")
        assert compared.overlap is not None and evaluated.overlap is not None
        monkeypatch.undo()
        assert compared.to_json() == api.compare(dense, policy, estimators).to_json()
        assert evaluated.to_json() == api.evaluate(dense, policy, "dr").to_json()
