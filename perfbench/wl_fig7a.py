"""fig7a-sweep: the paper's Fig 7a sweep, sequential.

``run_fig7a(runs=50)``: per run, generate a dense WISE trace, learn a
fresh CBN and compare the WISE DM estimate with DR.  Many small dense
traces, so per-call overhead dominates.  A run of the benchmark repeats
the same sweep until the measured time is used, and at least three
times, and reports the best of the repeats, as ``repro bench`` times
fig7a, taken per part of the sweep: each seed's fastest run across the
sweeps, and the harness's least time between runs.

Each run's time is scaled to reference host speed (``harness.Pace``).
A sweep is one call, so the reference cannot run between its runs from
outside; the untraced sweeps get a :class:`PacedScenario` instead, the
WISE scenario itself, which times the reference as each run starts.
That time is taken back out of the run's duration.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cbn.scenario import WiseScenario
from repro.experiments import fig7

import harness

RUNS = 50
TINY_RUNS = 4
#: Best of at least this many sweeps, however slow the host is.
MIN_SWEEPS = 3


class PacedScenario:
    """A :class:`WiseScenario` that samples the host's speed as each run
    starts (in ``generate_trace``) and keeps the sample's interval."""

    def __init__(self, pace: harness.Pace):
        self._scenario = WiseScenario()
        self.pace = pace
        #: (reference started, run's own work started), one per run.
        self.marks = []

    def __getattr__(self, name):
        return getattr(self._scenario, name)

    def generate_trace(self, rng):
        started = time.perf_counter()
        self.pace.checkpoint(force=True)
        self.marks.append((started, time.perf_counter()))
        return self._scenario.generate_trace(rng)


def setup_probe() -> None:
    """Build the scenario and its logging and candidate policies."""
    scenario = WiseScenario()
    scenario.old_policy()
    scenario.new_policy()


def run(ctx: harness.Context) -> harness.Outcome:
    runs = TINY_RUNS if ctx.tiny else RUNS
    setup = harness.measure_setup(ctx)
    pace = harness.Pace(harness.INTERPRETER)
    started = time.perf_counter()
    trace_records = len(WiseScenario().generate_trace(np.random.default_rng(ctx.seed)))
    inputgen = time.perf_counter() - started

    sweeps, paced = [], []

    def sweep(index: int) -> float:
        scenario = None if ctx.trace else PacedScenario(pace)
        started = time.perf_counter()
        sweeps.append(fig7.run_fig7a(runs=runs, seed=ctx.seed, scenario=scenario))
        ended = time.perf_counter()
        paced.append((scenario, ended))
        return ended - started

    plain, traced, tracer = harness.measure(
        ctx, sweep, fresh_heap=True, min_ops=MIN_SWEEPS, pace=pace
    )
    rss = harness.peak_rss_mb()

    started = time.perf_counter()
    parallel = fig7.run_fig7a(runs=runs, seed=ctx.seed, workers=2)
    parallel_s = time.perf_counter() - started
    sequential = sweeps[0].summaries
    if ctx.perturb:
        name = next(iter(sequential))
        sequential = dict(sequential)
        sequential[name] = None

    # Best of repeats: each seed's fastest run, as the harness timed it
    # less its reference sample, at the host speed around that run; and
    # the least time a sweep spent outside its runs.
    timed = sweeps[: len(plain)]
    durations = [_paced_durations(result, *paced[i]) for i, result in enumerate(timed)]
    latencies = [min(sweep[index] for sweep in durations) for index in range(runs)]
    harness_s = min(
        (wall - sum(record.duration for record in result.records))
        * (1.0 if ctx.trace else pace.scale(ended - wall, ended))
        for wall, result, (_, ended) in zip(plain, timed, paced)
    )
    best_sweep_s = sum(latencies) + harness_s
    outcome = harness.Outcome(
        attempted=runs * len(sweeps),
        failed=sum(result.failed_runs for result in sweeps) + parallel.failed_runs,
        stamp={
            "records": trace_records,
            "runs": runs,
            "input_bytes": None,
            "inputs": "each run's trace is drawn in-process by WiseScenario from the seed",
            "inputgen_s": inputgen,
            "sweeps": len(sweeps),
            "latency_samples": {"run": len(latencies), "repeats": len(timed)},
            "host_speed": pace.summary(),
        },
    )
    outcome.samples = {
        "sweep": plain,
        "paced_run": durations,
        "run": [[record.duration for record in result.records] for result in timed],
    }
    outcome.gates["sequential_equals_workers2"] = sequential == parallel.summaries
    outcome.gates["sweeps_agree"] = all(r.summaries == sweeps[0].summaries for r in sweeps)

    if not ctx.trace:
        outcome.metrics = {
            "setup_s": setup,
            "peak_rss_mb": rss,
            **harness.op_metrics(latencies, best_sweep_s, trace_records * runs, 1),
        }
        return outcome

    from shims import SCALE

    outcome.spans = tracer.spans
    layers = harness.layer_table(tracer, SCALE)
    layers["obs.tracing_overhead"] = harness.overhead(plain, traced)
    layers["experiments.w2_runs_per_s"] = runs / parallel_s
    outcome.layers = layers
    return outcome


def _paced_durations(result, scenario, ended):
    """Each run's duration at reference host speed, its reference
    sample taken out; as timed when the sweep was traced."""
    records = result.records
    if scenario is None:
        return [record.duration for record in records]
    marks = scenario.marks
    durations = []
    for index, record in enumerate(records):
        sampled, start = marks[index]
        end = marks[index + 1][0] if index + 1 < len(marks) else ended
        durations.append((record.duration - (start - sampled)) * scenario.pace.scale(start, end))
    return durations
