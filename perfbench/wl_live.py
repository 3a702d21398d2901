"""live-flash-crowd: an operator tailing a live stream.

``LiveTrafficGenerator(scenario="flash-crowd")`` feeds a
``LiveWatch(SelfNormalizedIPS, 2 candidate policies)``; the unit op (a
tick) hands one chunk to the watch and reads a refreshed
``LiveWatch.report()``.  A run replays the same fixed-length stream,
with a fresh watch each time, until the measured time is used, so the
prefix lengths the readouts see do not depend on machine speed.
Generator time is measured apart and excluded.  Each tick's time is
scaled to reference host speed by the memory reference
(``harness.MEMORY``), sampled between ticks.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.estimators import SelfNormalizedIPS
from repro.core.types import Trace
from repro.errors import ReproError
from repro.live import LiveWatch
from repro.workloads.drift import LiveTrafficGenerator

import harness

CHUNK_RECORDS = 16_384
CHUNKS = 128
TINY_CHUNKS = 8
TINY_CHUNK_RECORDS = 4_096
#: The offline gate replays this many chunks from the same seed.
GATE_CHUNKS = 4


def generator(seed: int, chunk_records: int) -> LiveTrafficGenerator:
    return LiveTrafficGenerator(scenario="flash-crowd", seed=seed, chunk_records=chunk_records)


def setup_probe() -> None:
    """Build the watch: candidate policies snapshotted onto the grid."""
    LiveWatch(SelfNormalizedIPS, generator(0, CHUNK_RECORDS).candidate_policies(2))


def run(ctx: harness.Context) -> harness.Outcome:
    chunks = TINY_CHUNKS if ctx.tiny else CHUNKS
    chunk_records = TINY_CHUNK_RECORDS if ctx.tiny else CHUNK_RECORDS
    setup = harness.measure_setup(ctx)
    pace = harness.Pace(harness.MEMORY)

    policies = generator(ctx.seed, chunk_records).candidate_policies(2)
    state = {"rejected": 0, "gate_readout": None, "segments": 0, "input_bytes": 0}
    generation = []
    intervals = []

    def next_chunk(index: int) -> None:
        """Untimed, between ticks: the load source emits the next chunk."""
        position = index % chunks
        if position == 0:
            state["source"] = generator(ctx.seed, chunk_records)
            state["watch"] = LiveWatch(SelfNormalizedIPS, policies)
        started = time.perf_counter()
        state["chunk"] = state["source"].next_batch()
        generation.append(time.perf_counter() - started)
        if index < chunks:
            state["input_bytes"] += _batch_bytes(state["chunk"])

    def tick(index: int) -> float:
        watch = state["watch"]
        started = time.perf_counter()
        try:
            watch.process(state["chunk"])
        except ReproError:
            state["rejected"] += 1
        report = watch.report()
        elapsed = time.perf_counter() - started
        intervals.append((started, started + elapsed))
        if index == GATE_CHUNKS - 1:
            state["gate_readout"] = report.to_json()["policies"]
        if index % chunks == chunks - 1:
            state["segments"] = len(watch.detector.segments)
        return elapsed

    # One untimed stream first.  The first time a process grows the
    # watch's buffers it takes fresh pages from the kernel; every replay
    # after it reuses them.  Timing warm streams only keeps the mix of
    # ticks the same however many streams fit in a run.
    warm = LiveWatch(SelfNormalizedIPS, policies)
    source = generator(ctx.seed, chunk_records)
    for _ in range(chunks):
        warm.process(source.next_batch())
        warm.report()
    del warm, source

    next_chunk(0)
    # Whole streams only: a partial replay would skew the tick mix.
    plain, traced, tracer = harness.measure(
        ctx, tick, lambda index: next_chunk(index + 1), group=chunks, pace=pace
    )
    rss = harness.peak_rss_mb()
    state.pop("watch")

    outcome = harness.Outcome(
        attempted=len(plain) + len(traced),
        failed=state["rejected"],
        stamp={
            "records": chunks * chunk_records,
            "chunks": chunks,
            "chunk_records": chunk_records,
            "input_bytes": state["input_bytes"],
            "inputgen_s": sum(generation),
            "streams": (len(plain) + len(traced)) // chunks,
            "warmup_streams": 1,
            "host_speed": pace.summary(),
            "latency_samples": {"tick": len(plain)},
        },
    )
    outcome.samples = {"tick": plain}
    outcome.gates["replayed_prefix_equals_offline"] = _offline_gate(
        ctx, chunk_records, policies, state["gate_readout"]
    )

    if not ctx.trace:
        scaled = [latency * pace.scale(*span) for latency, span in zip(plain, intervals)]
        outcome.metrics = {
            "setup_s": setup,
            "peak_rss_mb": rss,
            **harness.op_metrics(scaled, sum(scaled), len(plain) * chunk_records, chunks),
        }
        return outcome

    from shims import SCALE

    outcome.spans = tracer.spans
    layers = harness.layer_table(tracer, SCALE)
    process = tracer.durations("live.process")
    readout = tracer.durations("live.readout")
    layers.update(
        {
            "obs.tracing_overhead": harness.overhead(plain, traced),
            "live.process_ms_p50": harness.quantile(process, 0.5) * 1e3,
            "live.process_ms_p90": harness.quantile(process, 0.9) * 1e3,
            "live.readout_ms_p50": harness.quantile(readout, 0.5) * 1e3,
            "live.readout_ms_last": readout[chunks - 1] * 1e3,
            "live.segments": state["segments"],
            "workloads.drift.next_batch_ms": harness.median(
                tracer.durations("workloads.drift.next_batch")
            )
            * 1e3,
        }
    )
    outcome.layers = layers
    return outcome


def _batch_bytes(batch) -> int:
    columns = batch.columns()
    return int(columns.rewards.nbytes + columns.propensities.nbytes)


def _offline_gate(ctx, chunk_records, policies, timed_readout) -> bool:
    """Replay the first chunks from the same seed into a fresh watch.

    Its final readout must equal, bit for bit, the offline SNIPS engine
    over the same records, and the readout the timed run produced at the
    same point of the stream.
    """
    source = generator(ctx.seed, chunk_records)
    watch = LiveWatch(SelfNormalizedIPS, policies)
    records = []
    for _ in range(GATE_CHUNKS):
        batch = source.next_batch()
        watch.process(batch)
        records.extend(batch.iter_records())
    readout = watch.report().to_json()["policies"]
    if ctx.perturb:
        name = next(iter(readout))
        readout[name]["value"] = float(np.nextafter(readout[name]["value"], np.inf))
    trace = Trace(records)
    for name, policy in policies.items():
        live = watch.monitors[name].result()
        offline = SelfNormalizedIPS().estimate(policy, trace)
        if not (
            readout[name]["value"] == offline.value
            and live.n == offline.n
            and np.array_equal(live.contributions, offline.contributions)
        ):
            return False
    return readout == timed_readout
