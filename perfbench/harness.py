"""Shared pieces of the benchmark: the run context, timing helpers, the
host-speed reference, the set-up probe and the span tracer the traced
runs install.

Nothing here imports ``repro``; the workload modules do, after ``run.py``
has put the checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

import numpy as np

HERE = Path(__file__).resolve().parent

#: Set-up is measured this many times per run and the median reported.
SETUP_REPEATS = 3
#: Set-up's host-speed reference: a fresh interpreter that imports
#: numpy, run before each set-up probe.  Set-up times are scaled by
#: STARTUP_S over its time, like :class:`Pace` scales op times.
STARTUP_REFERENCE = (sys.executable, "-c", "import numpy")
STARTUP_S = 0.2

#: A host-speed reference sample (:class:`Pace`) is taken between
#: operations at most this often.
PACE_INTERVAL_S = 0.25
#: An op is scaled by the median of the reference samples taken within
#: this many seconds of it (or the nearest ones on each side).
PACE_WINDOW_S = 1.0


@dataclass
class Context:
    """What one benchmark run was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    perturb: bool
    work: Path
    env: Dict[str, str]


@dataclass
class Outcome:
    """What one workload measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gates: Dict[str, bool] = field(default_factory=dict)
    stamp: Dict[str, Any] = field(default_factory=dict)
    spans: List[tuple] = field(default_factory=list)
    #: Raw timed samples (seconds) by name, kept in the result file only.
    samples: Dict[str, Any] = field(default_factory=dict)


def quantile(samples: Iterable[float], fraction: float) -> float:
    """The *fraction* quantile of *samples*, linearly interpolated."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: Iterable[float]) -> float:
    return statistics.median(list(samples))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def op_metrics(
    latencies: List[float],
    busy_seconds: float,
    records: int,
    ops_per_run: int,
) -> Dict[str, float]:
    """The end-to-end metrics of a workload whose unit ops are all alike.

    *latencies* are the unit operations (seconds); *records* is how many
    logged records they consumed in total, and *ops_per_run* how many
    unit operations make one complete pass of the workload.  With no
    cache to hit or miss, ``hit_*`` and ``miss_ms_p50`` report the unit
    op's latency too.
    """
    return {
        "records_per_s": records / busy_seconds,
        "hit_ms_p50": quantile(latencies, 0.5) * 1e3,
        "hit_ms_p99": quantile(latencies, 0.99) * 1e3,
        "miss_ms_p50": quantile(latencies, 0.5) * 1e3,
        "qps": len(latencies) / busy_seconds,
        "tick_ms_p50": quantile(latencies, 0.5) * 1e3,
        "tick_ms_p90": quantile(latencies, 0.9) * 1e3,
        "runs_per_s": len(latencies) / ops_per_run / busy_seconds,
    }


class Reference(NamedTuple):
    """Fixed work that never calls the program, and its time on a host
    at reference speed.  :class:`Pace` builds its data and times it."""

    name: str
    make: Callable[[], Any]
    work: Callable[[Any], None]
    nominal_s: float


def _interpreter_work(arrays) -> None:
    values, out = arrays
    table: Dict[int, int] = {}
    for i in range(20_000):
        table[i & 1023] = table.get(i & 1023, 0) + len(str(i))
    for _ in range(2):
        np.sort(values)
        np.multiply(values, 1.5, out=out)
        np.add(out, values, out=out)
        float(out.sum())


def _memory_work(values) -> None:
    for _ in range(4):
        float(values.sum())


def _floats(count: int):
    return np.random.default_rng(0).random(count)


#: Interpreter-bound dict and string work, then sorts and elementwise
#: passes over half a megabyte of floats: for ops of one process that
#: are mostly interpreter work (batch passes, fig7a runs).  It allocates
#: almost nothing, so it leaves ``peak_rss_mb`` alone.
INTERPRETER = Reference(
    "interpreter",
    lambda: (_floats(1 << 16), np.empty(1 << 16)),
    _interpreter_work,
    0.010,
)
#: Four sums over 8 MB of floats, more than a core's cache holds: for
#: ops that stream through large numpy buffers (live ticks).  Its array
#: adds 8 MB to ``peak_rss_mb``.
MEMORY = Reference("memory", lambda: _floats(1 << 20), _memory_work, 0.004)


class Pace:
    """Host-speed samples: the time of a :class:`Reference`, taken
    between the program's timed operations.

    A shared host runs the same work at speeds that differ by up to two
    times for stretches of a second to minutes.  Dividing an operation's
    time by the reference's time around it removes most of that drift:
    the op then reads as its time on a host where the reference takes
    its nominal time.  The reference never touches the program, so a
    change to the program moves the scaled times in full.

    A reference only tracks work like its own, run in the same process
    at nearly the same moment.  A server in another process drifts in
    ways neither reference follows, so serve-mixed's requests are timed
    in plain wall time; set-up has its own reference
    (:func:`startup_scale`).
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.times: List[float] = []
        self.samples: List[float] = []
        self._data = reference.make()
        reference.work(self._data)  # warm it, untimed

    def checkpoint(self, force: bool = False) -> None:
        """Time the reference if :data:`PACE_INTERVAL_S` has passed since
        the last sample (or at once with *force*): once, or after a long
        operation once per interval it spanned, up to four times."""
        now = time.perf_counter()
        since = now - self.times[-1] if self.times else PACE_INTERVAL_S
        if not force and since < PACE_INTERVAL_S:
            return
        for _ in range(min(4, max(1, int(since / PACE_INTERVAL_S)))):
            started = time.perf_counter()
            self.reference.work(self._data)
            self.times.append(started)
            self.samples.append(time.perf_counter() - started)

    def scale(self, start: float, end: float, window: float = PACE_WINDOW_S) -> float:
        """The factor that turns a time measured over ``[start, end]``
        into reference-speed time."""
        near = [
            sample
            for at, sample in zip(self.times, self.samples)
            if start - window <= at <= end + window
        ]
        if not near:
            before = [s for at, s in zip(self.times, self.samples) if at < start]
            after = [s for at, s in zip(self.times, self.samples) if at > end]
            near = before[-1:] + after[:1]
        return self.reference.nominal_s / median(near)

    def summary(self) -> Dict[str, float]:
        """For the run's stamp: how fast the host ran against reference."""
        summary = {"reference": self.reference.name, "nominal_s": self.reference.nominal_s}
        if not self.samples:
            return {**summary, "samples": 0}
        return {
            **summary,
            "samples": len(self.samples),
            "median_s": median(self.samples),
            "min_s": min(self.samples),
            "max_s": max(self.samples),
        }


def startup_scale(env: Dict[str, str]) -> float:
    """Time :data:`STARTUP_REFERENCE` once; the factor that turns a
    set-up time taken now into reference-speed time."""
    started = time.perf_counter()
    # No timeout: waiting with one polls in up to 50 ms sleeps, which
    # would quantise the measurement.
    subprocess.run(STARTUP_REFERENCE, env=env, check=True)
    return STARTUP_S / (time.perf_counter() - started)


def measure_setup(ctx: Context, repeats: int = SETUP_REPEATS) -> float:
    """Median of *repeats* fresh interpreters doing the workload's
    set-up, each timed right after :func:`startup_scale` and scaled by it.

    Each probe is a child process running ``probe.py``: interpreter
    start, the workload's imports and its registry/object set-up, exit.
    Start-up drifts with the host in ways :class:`Pace`'s in-process
    references do not follow; a fresh interpreter's own start-up does.
    """
    command = [sys.executable, str(HERE / "probe.py"), ctx.workload]
    samples = []
    for _ in range(repeats):
        scale = startup_scale(ctx.env)
        started = time.perf_counter()
        subprocess.run(command, env=ctx.env, check=True)
        samples.append((time.perf_counter() - started) * scale)
    return median(samples)


def run_until(
    seconds: float,
    op: Callable[[int], float],
    between: Optional[Callable[[int], None]] = None,
    group: int = 1,
    fresh_heap: bool = False,
    min_ops: int = 1,
    pace: Optional[Pace] = None,
) -> List[float]:
    """Call ``op(index)`` until *seconds* of op time have passed and at
    least *min_ops* calls were made.

    Each call returns its own measured latency; ``between(index)``, when
    given, runs untimed after each call (clean-up, or preparing the next
    input).  Calls come in whole groups of *group* (at least one group).
    Returns the latencies in call order.  With *pace*, a host-speed
    sample is taken untimed between calls.

    With *fresh_heap*, a full garbage collection runs untimed before
    every call.  Only workloads whose op stands for a separate program
    run (a batch pass, a sweep) ask for it: the op then starts from the
    collector state a fresh process would have.  Ops that share one
    long-lived process (live ticks) pay for its collections, as the
    real process does.
    """
    latencies: List[float] = []
    if pace is not None:
        pace.checkpoint(force=True)
    while (
        sum(latencies) < seconds or len(latencies) < max(min_ops, 1) or len(latencies) % group
    ):
        if fresh_heap:
            gc.collect()
        latencies.append(op(len(latencies)))
        if between is not None:
            between(len(latencies) - 1)
        if pace is not None:
            pace.checkpoint()
    if pace is not None:
        pace.checkpoint(force=True)
    return latencies


def measure(
    ctx: Context,
    op: Callable[[int], float],
    between: Optional[Callable[[int], None]] = None,
    group: int = 1,
    fresh_heap: bool = False,
    min_ops: int = 1,
    pace: Optional[Pace] = None,
):
    """Run a workload's unit op for the run's measured time.

    Untraced, every op counts toward the end-to-end metrics, at least
    *min_ops* ops run however slow the host is, and *pace*, when given,
    samples the host's speed between ops.  Traced,
    the first third of the time runs untraced (the base of
    ``obs.tracing_overhead``) and the rest runs with the shims of
    :mod:`shims` installed, each op as a root span.  Returns
    ``(untraced latencies, traced latencies, tracer or None)``.
    """
    if not ctx.trace:
        return run_until(ctx.seconds, op, between, group, fresh_heap, min_ops, pace), [], None
    plain = run_until(ctx.seconds / 3, op, between, group, fresh_heap)
    import shims

    tracer = Tracer()
    shims.install(tracer)
    offset = len(plain)
    try:
        traced = run_until(
            ctx.seconds * 2 / 3,
            lambda index: tracer.op(op, offset + index),
            None if between is None else (lambda index: between(offset + index)),
            group,
            fresh_heap,
        )
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def overhead(plain: List[float], traced: List[float]) -> float:
    """Traced over untraced median op time, the untraced cold op left out."""
    return median(traced) / median(plain[1:] or plain)


def flip_float(text: str) -> str:
    """*text* with its first ``"value": <float>`` moved by one ulp.

    The self-tests use it to corrupt one checked output, which the
    workload's correctness gate must then catch.
    """
    match = re.search(r'"value": (-?[0-9][0-9.eE+-]*)', text)
    if match is None:
        raise ValueError("no float value to flip")
    flipped = repr(math.nextafter(float(match.group(1)), math.inf))
    return text[: match.start(1)] + flipped + text[match.end(1):]


class Tracer:
    """In-memory spans recorded by shims around public ``repro`` calls.

    A span is ``(id, parent, name, start, end, request)``.  Spans are
    appended to a list and written out by ``run.py`` when the run ends.
    The benchmark's own unit operation is the root span ``bench.op``;
    everything a shim records while one is open becomes its descendant.
    """

    ROOT = "bench.op"

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._request = 0
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Run ``function(*args, **kwargs)`` inside a span called *name*."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = self._reserve()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end, self._request)

    def _reserve(self) -> int:
        with self._lock:
            self.spans.append(None)
            return len(self.spans) - 1

    def op(self, function: Callable, *args, **kwargs):
        """Run one unit operation as a new request's root span."""
        self._request += 1
        return self.call(self.ROOT, function, *args, **kwargs)

    def record(self, name: str, start: float, busy: float, parent: Optional[int]) -> None:
        """Record an aggregated span: *busy* seconds spent in many short
        slices (a generator's ``next`` calls) under *parent*."""
        span_id = self._reserve()
        self.spans[span_id] = (span_id, parent, name, start, start + busy, self._request)

    # -- shims ------------------------------------------------------------

    def wrap(self, owner: Any, attribute: str, name) -> None:
        """Replace ``owner.attribute`` with a timing shim.

        *name* is the span name, or a callable taking the call's first
        argument (``self`` for methods) and returning it.
        """
        original = owner.__dict__[attribute]
        naming = name if callable(name) else (lambda _first, _name=name: _name)

        @functools.wraps(original)
        def shim(*args, **kwargs):
            return self.call(naming(args[0] if args else None), original, *args, **kwargs)

        self._patch(owner, attribute, original, shim)

    def wrap_generator(self, owner: Any, attribute: str, name: str) -> None:
        """Replace a generator function with one that times each ``next``
        and records the total as one aggregated span."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def shim(*args, **kwargs):
            inner = original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            first = time.perf_counter()
            busy = 0.0
            try:
                while True:
                    started = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - started
                        return
                    busy += time.perf_counter() - started
                    yield item
            finally:
                tracer.record(name, first, busy, parent)

        self._patch(owner, attribute, original, shim)

    def _patch(self, owner: Any, attribute: str, original: Any, shim: Any) -> None:
        setattr(owner, attribute, shim)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, summed over every root op.

        A span's self time is its duration minus its direct children's
        durations.  The root's own self time is reported as ``other``;
        the values therefore add up to the traced wall time, which is
        returned under ``wall`` beside the op count under ``ops``.
        """
        spans = [span for span in self.spans if span is not None]
        by_id = {span[0]: span for span in spans}
        children: Dict[int, float] = {}
        for span in spans:
            if span[1] is not None:
                children[span[1]] = children.get(span[1], 0.0) + span[4] - span[3]

        def root_of(span) -> Optional[tuple]:
            while span[1] is not None:
                span = by_id[span[1]]
            return span if span[2] == self.ROOT else None

        totals: Dict[str, float] = {"wall": 0.0, "ops": 0.0}
        for span in spans:
            if root_of(span) is None:
                continue
            own = span[4] - span[3] - children.get(span[0], 0.0)
            key = "other" if span[2] == self.ROOT else span[2]
            totals[key] = totals.get(key, 0.0) + own
            if span[2] == self.ROOT:
                totals["wall"] += span[4] - span[3]
                totals["ops"] += 1
        return totals

    def durations(self, name: str) -> List[float]:
        """Durations of every span called *name*, in recording order."""
        return [s[4] - s[3] for s in self.spans if s is not None and s[2] == name]


def layer_table(tracer: Tracer, scale: Dict[str, tuple]) -> Dict[str, float]:
    """Per-op self times from *tracer*, keyed by metric name.

    *scale* maps a span name to ``(metric name, unit factor)``; each
    metric is the span's summed self time per root op times the factor.
    ``obs.other_s``, ``obs.traced_wall_s`` and ``obs.traced_ops`` are
    always included, also per op, so the self times plus ``other`` add
    up to ``obs.traced_wall_s``.
    """
    totals = tracer.self_times()
    ops = totals["ops"]
    table = {
        "obs.traced_ops": ops,
        "obs.traced_wall_s": totals["wall"] / ops,
        "obs.other_s": totals.get("other", 0.0) / ops,
    }
    for span_name, (metric, factor) in scale.items():
        table[metric] = table.get(metric, 0.0) + totals.get(span_name, 0.0) / ops * factor
    unattributed = set(totals) - set(scale) - {"wall", "ops", "other"}
    if unattributed:
        raise RuntimeError(f"spans without a metric: {sorted(unattributed)}")
    return table


def child_env() -> Dict[str, str]:
    """The environment for child interpreters: ``src`` on the path."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
