"""serve-mixed: dashboards polling ``repro serve`` in a closed loop.

The server is ``python -m repro.cli serve`` in its own process over a
sharded trace written before any timing.  Two client threads, each with
one keep-alive connection, send their next request as soon as the last
one is answered (a closed loop with no pause).  About 98% of requests
repeat a small hot set of questions (cache hits); about 2% are
first-time policy specs (true misses, each computed once).  Hits and
misses share the server's event loop and interpreter, so a miss that
holds the interpreter shows up in hit latency.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from repro import api
from repro.errors import ServeError
from repro.serve.app import EvaluationService
from repro.serve.client import ServeClient
from repro.serve.http import HttpRequest, render_response
from repro.serve.validate import validate_response_payload
from repro.store.naming import TraceCatalog
from repro.workloads import SyntheticWorkload

import harness

RECORDS = 5_000
TINY_RECORDS = 1_000
CLIENTS = 2
#: Every MISS_PERIOD-th request is a first-time question (2%).
MISS_PERIOD = 50
HOT_ESTIMATORS = ("snips", "dr")
HOT_POLICIES = 2
MISS_ESTIMATOR = "dr"
TIMEOUT_S = 30.0
#: hit_ms_p99 needs ten samples beyond it, and is steadier with twenty:
#: the loop runs past the measured time until this many hits were
#: answered (or the cap).
MIN_HITS = 2_000
TINY_MIN_HITS = 20
CAP_S = 120.0
#: Servers booted per run for setup_s (the median of them); the last
#: one stays up for the run.
BOOTS = 3
TRACE_NAME = "bench"

WORKLOAD = SyntheticWorkload()
DECISIONS = WORKLOAD.space().decisions


def policy_spec(epsilon: float, decision: int) -> dict:
    return {
        "kind": "epsilon-greedy",
        "options": {
            "epsilon": epsilon,
            "base": {
                "kind": "constant",
                "options": {"space": list(DECISIONS), "decision": DECISIONS[decision]},
            },
        },
    }


def question(spec: dict, estimator: str) -> dict:
    return {"trace": {"name": TRACE_NAME}, "policy": spec, "estimator": {"name": estimator}}


HOT_SET = [
    question(policy_spec(0.1, index), estimator)
    for index in range(HOT_POLICIES)
    for estimator in HOT_ESTIMATORS
]


def request_stream(seed: int, count: int) -> list:
    """The seeded request order: hot-set repeats with first-time misses.

    Every ``MISS_PERIOD``-th request is a miss, so each run has the
    same share of them; the seed picks the hot questions' order and the
    misses' policies.  Miss *k* asks about a policy no earlier request
    named (its epsilon is unique), so every miss is a true cache miss.
    All misses use DR, so their latencies form one population.
    """
    rng = np.random.default_rng([seed, 2])
    stream = []
    for index in range(count):
        if index % MISS_PERIOD == MISS_PERIOD - 1:
            misses = index // MISS_PERIOD
            spec = policy_spec(0.2 + 0.0005 * misses, int(rng.integers(len(DECISIONS))))
            stream.append(question(spec, MISS_ESTIMATOR))
        else:
            stream.append(HOT_SET[int(rng.integers(len(HOT_SET)))])
    return stream


def key(request: dict) -> str:
    return json.dumps(request, sort_keys=True)


class Server:
    """One ``repro serve`` process, from spawn to shutdown."""

    def __init__(self, ctx: harness.Context, registry):
        self.stderr = ""
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(registry), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=ctx.env,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            found = re.search(r"http://([0-9.]+):([0-9]+)", line)
            if found is None:
                raise ServeError(f"server did not report its address: {line!r}", 500)
            self.address = (found.group(1), int(found.group(2)))
            with ServeClient(*self.address, timeout=TIMEOUT_S) as client:
                client.health()
                self.boot_s = time.perf_counter() - started
                started = time.perf_counter()
                for request in HOT_SET:
                    client.request("POST", "/v1/evaluate", body=request)
                self.warm_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """SIGINT (what an operator's Ctrl-C sends), then wait for exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            _, self.stderr = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            _, self.stderr = self.process.communicate()

    def shutdown_tracebacks(self) -> int:
        """Logged shutdown error reports that end in a CancelledError."""
        reports = self.stderr.split("Exception in callback")[1:]
        return sum(1 for report in reports if "CancelledError" in report)


def drive(address, stream, seconds: float, min_hits: int, perturb: bool):
    """Two closed-loop clients over *stream* for *seconds*, and on until
    *min_hits* hits were answered.

    Returns per-request ``(kind, latency)`` samples, the failure count,
    the first report per distinct question, whether every repeat of a
    question carried the same report, the wall time and one sampled
    payload.
    """
    cursor = iter(range(len(stream)))
    lock = threading.Lock()
    samples, first, state = [], {}, {"failed": 0, "consistent": True, "sample": None, "hits": 0}
    started = time.perf_counter()
    deadline, cap = started + seconds, started + CAP_S

    def more() -> bool:
        now = time.perf_counter()
        return now < cap and (now < deadline or state["hits"] < min_hits)

    def client_loop():
        with ServeClient(*address, timeout=TIMEOUT_S) as client:
            while more():
                with lock:
                    index = next(cursor)
                request = stream[index]
                started = time.perf_counter()
                try:
                    payload = client.request("POST", "/v1/evaluate", body=request)
                except ServeError:
                    with lock:
                        state["failed"] += 1
                    continue
                latency = time.perf_counter() - started
                kind = "hit" if payload["cache"]["hit"] else "miss"
                name = key(request)
                with lock:
                    samples.append((kind, latency))
                    state["hits"] += kind == "hit"
                    if name not in first:
                        first[name] = payload["report"]
                    elif index % 25 == 0 and payload["report"] != first[name]:
                        state["consistent"] = False
                    if state["sample"] is None and kind == "hit":
                        state["sample"] = payload

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if perturb:
        name = next(iter(first))
        first[name] = json.loads(harness.flip_float(json.dumps(first[name])))
    return samples, state["failed"], first, state["consistent"], wall, state["sample"]


def run(ctx: harness.Context) -> harness.Outcome:
    records = TINY_RECORDS if ctx.tiny else RECORDS
    started = time.perf_counter()
    shards = ctx.work / "shards"
    sharded = WORKLOAD.generate_to_shards(
        WORKLOAD.logging_policy(epsilon=0.3), records, np.random.default_rng(ctx.seed), shards
    )
    registry = ctx.work / "registry.json"
    registry.write_text(json.dumps({"traces": {TRACE_NAME: "shards"}}), encoding="utf-8")
    stream = request_stream(ctx.seed, 200_000)
    inputgen = time.perf_counter() - started

    # Set-up is booted several times; the last server stays up for the run.
    servers, scales = [], []
    try:
        for _ in range(BOOTS):
            if servers:
                servers[-1].stop()
            scales.append(harness.startup_scale(ctx.env))
            servers.append(Server(ctx, registry))
        server = servers[-1]
        samples, failed, first, consistent, wall, sample = drive(
            server.address,
            stream,
            ctx.seconds,
            TINY_MIN_HITS if ctx.tiny else MIN_HITS,
            ctx.perturb,
        )
        with ServeClient(*server.address, timeout=TIMEOUT_S) as client:
            counters = client.telemetry()["metrics"].get("counters", {})
        rss = harness.process_peak_rss_mb(server.process.pid)
    finally:
        for server in servers:
            server.stop()

    # Every boot is stopped with SIGINT; each may log the known report.
    tracebacks = sum(s.shutdown_tracebacks() for s in servers)
    hits = [latency for kind, latency in samples if kind == "hit"]
    misses = [latency for kind, latency in samples if kind == "miss"]
    distinct = len(first)
    outcome = harness.Outcome(
        attempted=len(samples) + failed,
        failed=failed,
        stamp={
            "records": records,
            "input_bytes": sum(p.stat().st_size for p in shards.iterdir() if p.is_file()),
            "inputgen_s": inputgen,
            "latency_samples": {"request": len(samples), "hit": len(hits), "miss": len(misses)},
            "distinct_questions": distinct,
            "serve.shutdown_tracebacks": tracebacks,
        },
    )
    outcome.samples = {"hit": hits, "miss": misses, "boot": [s.boot_s + s.warm_s for s in servers]}
    computed = counters.get("serve.evaluate.computed", 0)
    outcome.gates["served_equals_direct_api"] = consistent and all(
        api.EvaluationReport.from_json_dict(report).to_json()
        == api.evaluate(
            sharded, json.loads(name)["policy"], estimator=json.loads(name)["estimator"]["name"]
        ).to_json()
        for name, report in first.items()
    )
    outcome.gates["computed_equals_distinct_questions"] = computed == distinct
    try:
        validate_response_payload(sample)
        outcome.gates["sampled_response_valid"] = True
    except ServeError:
        outcome.gates["sampled_response_valid"] = False

    setup = harness.median((s.boot_s + s.warm_s) * k for s, k in zip(servers, scales))
    if not ctx.trace:
        outcome.metrics = {
            "setup_s": setup,
            "records_per_s": records * len(samples) / wall,
            "peak_rss_mb": rss,
            "hit_ms_p50": harness.quantile(hits, 0.5) * 1e3,
            "hit_ms_p99": harness.quantile(hits, 0.99) * 1e3,
            "miss_ms_p50": harness.quantile(misses, 0.5) * 1e3,
            "qps": len(samples) / wall,
            "tick_ms_p50": harness.quantile([s[1] for s in samples], 0.5) * 1e3,
            "tick_ms_p90": harness.quantile([s[1] for s in samples], 0.9) * 1e3,
            "runs_per_s": len(samples) / len(HOT_SET) / wall,
        }
        return outcome

    layers, spans = _in_process_layers(ctx, registry, stream, sharded)
    outcome.spans = spans
    layers["serve.transport_ms"] = (
        harness.quantile(hits, 0.5) * 1e3
        - layers["serve.handle_hit_ms"]
        - layers["serve.encode_hit_ms"]
    )
    layers.update(
        {
            "serve.requests": len(samples),
            "serve.distinct_questions": distinct,
            "serve.computed": computed,
            "serve.coalesced": counters.get("serve.coalesced", 0),
            "serve.cache.hit_ratio": counters.get("serve.cache.hit", 0)
            / counters.get("serve.request.evaluate", 1),
            "serve.boot_s": harness.median(s.boot_s for s in servers),
            "serve.warm_s": harness.median(s.warm_s for s in servers),
            "serve.shutdown_tracebacks": tracebacks,
        }
    )
    outcome.layers = layers
    return outcome


def _in_process_layers(ctx, registry, stream, sharded):
    """Hit and miss costs measured without a socket.

    An in-process :class:`EvaluationService` answers the hot set once
    (warm), then hits are timed through ``handle`` and the HTTP encoder.
    Misses are timed as the ``api.evaluate`` call the service makes,
    first untraced, then with the shims installed, which gives the
    span tree of a miss.
    """
    service = EvaluationService(TraceCatalog.from_file(registry))
    loop = asyncio.new_event_loop()
    try:

        def handle(request):
            http = HttpRequest("POST", "/v1/evaluate", {}, json.dumps(request).encode())
            return loop.run_until_complete(service.handle(http))

        for request in HOT_SET:
            handle(request)
        handle_ms, encode_ms, hit_bytes = [], [], 0
        for index in range(200 if not ctx.tiny else 20):
            started = time.perf_counter()
            status, payload = handle(HOT_SET[index % len(HOT_SET)])
            middle = time.perf_counter()
            body = render_response(status, json.dumps(payload, allow_nan=False).encode("utf-8"))
            ended = time.perf_counter()
            handle_ms.append((middle - started) * 1e3)
            encode_ms.append((ended - middle) * 1e3)
            hit_bytes = len(body)
    finally:
        loop.close()

    misses = stream[MISS_PERIOD - 1 :: MISS_PERIOD][:12]
    miss_count = len(misses) // 2

    def evaluate(index: int) -> float:
        request = misses[index % len(misses)]
        started = time.perf_counter()
        api.evaluate(sharded, request["policy"], estimator=request["estimator"]["name"])
        return time.perf_counter() - started

    plain = [evaluate(index) for index in range(miss_count)]
    tracer = harness.Tracer()
    import shims

    shims.install(tracer)
    try:
        traced = [tracer.op(evaluate, miss_count + index) for index in range(miss_count)]
    finally:
        tracer.uninstall()
    layers = harness.layer_table(tracer, shims.SCALE)
    layers.update(
        {
            "obs.tracing_overhead": harness.overhead(plain, traced),
            "serve.handle_hit_ms": harness.median(handle_ms),
            "serve.encode_hit_ms": harness.median(encode_ms),
            "serve.hit_bytes": hit_bytes,
            "serve.miss_api_ms": harness.median(plain) * 1e3,
        }
    )
    return layers, tracer.spans
