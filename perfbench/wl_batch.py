"""batch-jsonl: an analyst's what-if run over a logged JSONL trace.

The unit op is one pass of the pipeline: ``write_shards`` over
``iter_jsonl_records`` of the log, then ``api.compare`` on the sharded
trace with the DM/SNIPS/DR panel and diagnostics on, then
``report.to_json()`` written to a file.  The log comes from an
epsilon-greedy logger with logged propensities over 8**4 = 4096
context cells, so decode interning and the tabular models have real
working sets.  Each pass is timed as three stages, each scaled to
reference host speed (``harness.Pace``, ``harness.INTERPRETER``).
"""

from __future__ import annotations

import json
import shutil
import time

import numpy as np

import repro.store
from repro import api
from repro.core.estimators import DoublyRobust
from repro.core.models.tabular import TabularMeanModel
from repro.core.types import Trace
from repro.store import ShardedTrace, stream_estimate

import harness

RECORDS = 10_000
TINY_RECORDS = 2_000
FEATURES = 4
CARDINALITY = 8
DECISIONS = tuple(f"d{i}" for i in range(4))
LOGGING_EPSILON = 0.2
ESTIMATORS = ("dm", "snips", "dr")
#: Passes per run at the least, so a slow spell of the host is averaged
#: over as many passes as a quiet one.
MIN_PASSES = 12

#: The candidate policy the analyst asks about.
POLICY = {
    "kind": "epsilon-greedy",
    "options": {
        "epsilon": 0.1,
        "base": {
            "kind": "constant",
            "options": {"space": list(DECISIONS), "decision": DECISIONS[1]},
        },
    },
}


def write_log(path, records: int, seed: int) -> None:
    """A seeded JSONL log in ``Trace.to_jsonl`` form.

    Epsilon-greedy around ``d0`` with its propensities logged; rewards
    are a fixed per-(cell, decision) effect plus Gaussian noise.
    """
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, CARDINALITY, size=(records, FEATURES))
    explore = rng.random(records) < LOGGING_EPSILON
    decisions = np.where(explore, rng.integers(0, len(DECISIONS), size=records), 0)
    greedy = 1.0 - LOGGING_EPSILON + LOGGING_EPSILON / len(DECISIONS)
    propensities = np.where(decisions == 0, greedy, LOGGING_EPSILON / len(DECISIONS))
    effects = np.random.default_rng([seed, 1]).normal(
        0.0, 1.0, size=(CARDINALITY**FEATURES, len(DECISIONS))
    )
    cell_index = cells @ (CARDINALITY ** np.arange(FEATURES))
    rewards = 2.0 + effects[cell_index, decisions] + rng.normal(0.0, 0.3, size=records)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(records):
            handle.write(
                json.dumps(
                    {
                        "context": {f"f{j}": f"v{cells[i, j]}" for j in range(FEATURES)},
                        "decision": DECISIONS[decisions[i]],
                        "reward": float(rewards[i]),
                        "propensity": float(propensities[i]),
                        "timestamp": None,
                        "state": None,
                    }
                )
                + "\n"
            )


def setup_probe() -> None:
    """Registry load: resolve the policy spec and build the panel."""
    api.resolve_policy_spec(POLICY)
    for name in ESTIMATORS:
        api.default_registry.build_estimator(name)


def run(ctx: harness.Context) -> harness.Outcome:
    records = TINY_RECORDS if ctx.tiny else RECORDS
    log = ctx.work / "log.jsonl"
    started = time.perf_counter()
    write_log(log, records, ctx.seed)
    inputgen = time.perf_counter() - started
    setup = harness.measure_setup(ctx)
    pace = harness.Pace(harness.INTERPRETER)

    reports = []
    quarantined = [0]
    #: Per pass, the (start, end) of each of its three stages.
    stages = []

    def one_pass(index: int) -> float:
        shards = ctx.work / f"shards-{index}"
        spans = []

        def stage(work):
            # This host can change speed twice within one pass, so an
            # untraced pass samples it before each stage, untimed.
            if not ctx.trace:
                pace.checkpoint(force=True)
            started = time.perf_counter()
            result = work()
            spans.append((started, time.perf_counter()))
            return result

        def compare():
            trace = ShardedTrace(shards)
            return trace, api.compare(trace, POLICY, list(ESTIMATORS))

        def write():
            text = report.to_json()
            (ctx.work / "report.json").write_text(text, encoding="utf-8")
            return text

        stage(lambda: repro.store.write_shards(repro.store.iter_jsonl_records(log), shards))
        trace, report = stage(compare)
        text = stage(write)
        stages.append(spans)
        quarantined[0] += trace.quarantined_records()
        if not reports:
            reports.append(text)
        return sum(end - start for start, end in spans)

    def clean(index: int) -> None:
        shutil.rmtree(ctx.work / f"shards-{index}")

    plain, traced, tracer = harness.measure(
        ctx, one_pass, clean, fresh_heap=True, min_ops=MIN_PASSES, pace=pace
    )
    rss = harness.peak_rss_mb()
    passes = len(plain) + len(traced)

    outcome = harness.Outcome(
        attempted=records * passes,
        failed=quarantined[0],
        stamp={
            "records": records,
            "context_cells": CARDINALITY**FEATURES,
            "input_bytes": log.stat().st_size,
            "inputgen_s": inputgen,
            "passes": passes,
            "latency_samples": {"pass": len(plain)},
            "host_speed": pace.summary(),
        },
    )
    outcome.samples = {"pass": plain}
    sharded_text = reports[0]
    if ctx.perturb:
        sharded_text = harness.flip_float(sharded_text)
    dense = api.compare(Trace.from_jsonl(str(log)), POLICY, list(ESTIMATORS))
    outcome.gates["sharded_report_equals_dense"] = sharded_text == dense.to_json()

    if not ctx.trace:
        # Each stage at the host speed sampled right before and after it.
        latencies = [
            sum((end - start) * pace.scale(start, end, window=0.0) for start, end in spans)
            for spans in stages
        ]
        outcome.metrics = {
            "setup_s": setup,
            "peak_rss_mb": rss,
            **harness.op_metrics(latencies, sum(latencies), records * len(latencies), 1),
        }
        return outcome

    from shims import SCALE

    outcome.spans = tracer.spans
    layers = harness.layer_table(tracer, SCALE)
    layers["obs.tracing_overhead"] = harness.overhead(plain, traced)
    layers["core.reporting.report_bytes"] = len(sharded_text.encode("utf-8"))
    probes, identical = _store_probes(ctx, log)
    layers.update(probes)
    outcome.gates["streaming_dr_w2_equals_w1"] = identical
    outcome.layers = layers
    return outcome


def _store_probes(ctx: harness.Context, log):
    """Store-layer numbers measured apart from the span tree, and whether
    the two-worker streaming DR equals the sequential one."""
    shards = ctx.work / "probe-shards"
    repro.store.write_shards(repro.store.iter_jsonl_records(log), shards)
    probes = {
        "store.shard_bytes": sum(p.stat().st_size for p in shards.iterdir() if p.is_file())
    }
    started = time.perf_counter()
    for chunk in ShardedTrace(shards).iter_chunks():
        chunk.columns()
    probes["store.decode_s"] = time.perf_counter() - started
    policy = api.resolve_policy_spec(POLICY)
    results = []
    for workers, metric in ((1, "store.streaming.dr_s"), (2, "store.streaming.dr_w2_s")):
        started = time.perf_counter()
        results.append(
            stream_estimate(
                DoublyRobust(TabularMeanModel()), policy, ShardedTrace(shards), workers=workers
            )
        )
        probes[metric] = time.perf_counter() - started
    return probes, results[0].value == results[1].value
