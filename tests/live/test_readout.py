"""Live readouts come from the moment summary, never from the prefix.

``LiveWatch.report()`` reads each policy's estimate from its
``IncrementalEstimator``'s block tree (O(log n + 4096)).  These tests
make every prefix-reading path raise while a report is taken, check
that each snapshot still equals the O(n) offline-identical
``result()`` bit for bit, chunk by chunk, and check that the confidence
sequence brackets the value the watch reports.
"""

from __future__ import annotations

import math

import pytest

from repro.core.estimators import IPS, ClippedIPS, DoublyRobust, SelfNormalizedIPS
from repro.core.estimators.moments import BLOCK_SIZE
from repro.core.models.tabular import TabularMeanModel
from repro.core.types import Trace
from repro.live import IncrementalEstimator, LiveWatch
from repro.workloads.drift import LiveTrafficGenerator

#: Chunks that straddle the 4096-record block boundaries.
CHUNK = 3_000
CHUNKS = 8


def generator(scenario="flash-crowd", seed=5, chunk_records=CHUNK):
    return LiveTrafficGenerator(
        scenario=scenario, seed=seed, chunk_records=chunk_records
    )


@pytest.fixture(scope="module")
def fitted_model():
    source = generator(seed=99)
    records = []
    for _ in range(4):
        records.extend(source.next_batch().iter_records())
    model = TabularMeanModel()
    model.fit(Trace(records))
    return model


def factories(model):
    return {
        "ips": IPS,
        "snips": SelfNormalizedIPS,
        "clipped-ips": lambda: ClippedIPS(clip=2.0),
        "dr": lambda: DoublyRobust(model, fit_on_trace=False),
    }


class _PrefixRead(AssertionError):
    pass


def _refuse(*args, **kwargs):
    raise _PrefixRead("report() read the gathered prefix")


@pytest.mark.parametrize("name", ["ips", "snips", "clipped-ips", "dr"])
def test_report_never_reads_the_prefix(name, fitted_model, monkeypatch):
    factory = factories(fitted_model)[name]
    source = generator()
    watch = LiveWatch(factory, source.candidate_policies(2))
    estimator_types = {type(m.incremental.estimator) for m in watch.monitors.values()}
    for index in range(CHUNKS):
        watch.process(source.next_batch())
        with monkeypatch.context() as patch:
            patch.setattr(IncrementalEstimator, "result", _refuse)
            patch.setattr(IncrementalEstimator, "column_prefix", _refuse)
            for estimator_type in estimator_types:
                patch.setattr(estimator_type, "_stream_finalize", _refuse)
            payload = watch.report().to_json()
        for policy, monitor in watch.monitors.items():
            entry = payload["policies"][policy]
            result = monitor.result()
            assert entry["value"] == result.value, (index, policy)
            assert entry["std_error"] == result.std_error, (index, policy)
            assert entry["n"] == result.n == (index + 1) * CHUNK
    assert watch.records > 5 * BLOCK_SIZE


@pytest.mark.parametrize(
    "factory",
    [IPS, SelfNormalizedIPS, lambda: ClippedIPS(clip=1.0)],
    ids=["ips", "snips", "clipped-ips"],
)
def test_confidence_sequence_brackets_the_reported_value(factory):
    # The stationary stream of seed 1 with clip=1 is where a sequence
    # built from raw w·r sat wholly above the clipped value.
    source = generator(scenario="stationary", seed=1, chunk_records=BLOCK_SIZE)
    watch = LiveWatch(factory, source.candidate_policies(2))
    for _ in range(20):
        watch.process(source.next_batch())
        for name, entry in watch.report().to_json()["policies"].items():
            assert math.isfinite(entry["cs_width"]), name
            assert entry["cs_lower"] <= entry["value"] <= entry["cs_upper"], (
                name,
                entry,
            )
