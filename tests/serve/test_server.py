"""End-to-end tests for the evaluation service over real HTTP.

One background server per module, talking to a real sharded store and a
flat jsonl trace.  The headline assertion is the PR's acceptance
criterion: for **every registered estimator**, the served report —
after its JSON round trip — is bit-identical to the direct
:func:`repro.api.evaluate` call on the same trace.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import api, core
from repro.api.registry import default_registry
from repro.core.reporting import EvaluationReport
from repro.errors import ServeError
from repro.obs.spans import disable, enable
from repro.serve.app import EvaluationService
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.server import BackgroundServer
from repro.serve.validate import validate_response_payload
from repro.store.naming import TraceCatalog
from repro.workloads import SyntheticWorkload

from tests.conftest import make_uniform_trace

WORKLOAD = SyntheticWorkload()
DECISIONS = list(WORKLOAD.space().decisions)

POLICY = {
    "kind": "constant",
    "options": {"space": DECISIONS, "decision": DECISIONS[1]},
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live server over a sharded trace and a flat jsonl trace."""
    root = tmp_path_factory.mktemp("serve")
    shard_dir = root / "shards"
    sharded = WORKLOAD.generate_to_shards(
        core.UniformRandomPolicy(WORKLOAD.space()),
        1200,
        np.random.default_rng(11),
        shard_dir,
    )
    flat_path = root / "flat.jsonl"
    flat_trace = make_uniform_trace(
        core.DecisionSpace(["a", "b", "c"]),
        lambda c, d: {"a": 1.0, "b": 2.0, "c": 3.0}[d],
        np.random.default_rng(5),
        n=120,
    )
    flat_trace.to_jsonl(str(flat_path))
    registry_path = root / "registry.json"
    registry_path.write_text(
        json.dumps(
            {"traces": {"demo": str(shard_dir), "flat": {"path": str(flat_path)}}}
        )
    )
    recorder = enable()
    service = EvaluationService(
        TraceCatalog.from_file(registry_path),
        cache=ResultCache(max_entries=64),
        recorder=recorder,
    )
    background = BackgroundServer(service)
    background.start()
    host, port = background.address
    try:
        yield {
            "host": host,
            "port": port,
            "sharded": sharded,
            "flat_path": flat_path,
            "recorder": recorder,
            "service": service,
        }
    finally:
        background.stop()
        disable()


@pytest.fixture
def client(server):
    with ServeClient(server["host"], server["port"]) as live:
        yield live


def _counter(server, name: str) -> int:
    counters = server["recorder"].metrics.snapshot().get("counters", {})
    return int(counters.get(name, 0))


class TestBitIdentity:
    """Served == direct, for every registered estimator (acceptance)."""

    @pytest.mark.parametrize("name", default_registry.estimator_names())
    def test_evaluate_every_estimator(self, name, client, server):
        payload = client.evaluate("demo", POLICY, estimator={"name": name})
        validate_response_payload(payload)
        served = EvaluationReport.from_json_dict(payload["report"])
        direct = api.evaluate(server["sharded"], POLICY, estimator=name)
        assert served.to_json() == direct.to_json()

    def test_compare_panel(self, client, server):
        payload = client.compare("demo", POLICY, estimators=["ips", "dr"])
        validate_response_payload(payload)
        served = EvaluationReport.from_json_dict(payload["report"])
        direct = api.compare(server["sharded"], POLICY, estimators=("ips", "dr"))
        assert served.to_json() == direct.to_json()

    def test_bootstrap_seed_reproducible(self, client, server):
        options = {"estimator": "snips", "bootstrap_replicates": 20, "seed": 9}
        payload = client.evaluate("demo", POLICY, **options)
        direct = api.evaluate(
            server["sharded"],
            POLICY,
            estimator="snips",
            bootstrap_replicates=20,
            rng=9,
        )
        served = EvaluationReport.from_json_dict(payload["report"])
        assert served.to_json() == direct.to_json()


class TestCaching:
    def test_repeat_hits_cache(self, client, server):
        body = {"estimator": "ips", "diagnostics": False}
        first = client.evaluate("flat", POLICY_FLAT, **body)
        hits_before = _counter(server, "serve.cache.hit")
        second = client.evaluate("flat", POLICY_FLAT, **body)
        assert second["cache"]["hit"] is True
        assert _counter(server, "serve.cache.hit") == hits_before + 1
        # The cached payload is the same computation, not a re-run.
        assert second["report"] == first["report"]

    def test_bypass_recomputes(self, client, server):
        body = {"estimator": "snips", "diagnostics": False}
        client.evaluate("flat", POLICY_FLAT, **body)
        computed_before = _counter(server, "serve.evaluate.computed")
        bypassed = client.evaluate("flat", POLICY_FLAT, cache="bypass", **body)
        assert bypassed["cache"]["hit"] is False
        assert bypassed["cache"]["bypass"] is True
        assert _counter(server, "serve.evaluate.computed") == computed_before + 1

    def test_distinct_options_distinct_entries(self, client):
        a = client.evaluate("flat", POLICY_FLAT, estimator="ips")
        b = client.evaluate(
            "flat", POLICY_FLAT, estimator={"name": "clipped-ips", "options": {"clip": 2.0}}
        )
        assert a["cache"]["key"] != b["cache"]["key"]

    def test_concurrent_identical_requests_coalesce(self, server):
        # A unique body nothing else uses: the herd must do ONE estimation.
        body = {
            "trace": {"name": "demo"},
            "policy": {
                "kind": "epsilon-greedy",
                "options": {"epsilon": 0.123, "base": POLICY},
            },
            "estimator": {"name": "dr"},
        }
        computed_before = _counter(server, "serve.evaluate.computed")

        def one(_index):
            with ServeClient(server["host"], server["port"]) as c:
                return c.request("POST", "/v1/evaluate", body=body)

        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(one, range(8)))
        assert _counter(server, "serve.evaluate.computed") == computed_before + 1
        reports = {json.dumps(a["report"], sort_keys=True) for a in answers}
        assert len(reports) == 1
        assert sum(
            1
            for a in answers
            if a["cache"]["coalesced"] or a["cache"]["hit"]
        ) >= 7

    def test_schema_change_invalidates(self, client, server):
        body = {"estimator": "ips", "diagnostics": False}
        first = client.evaluate("flat", POLICY_FLAT, **body)
        again = client.evaluate("flat", POLICY_FLAT, **body)
        assert again["cache"]["hit"] is True
        # Rewrite the jsonl trace with an extra feature column: the
        # catalog re-stats the file, the schema hash moves, and the old
        # cache entry silently misses.
        flat_path = Path(server["flat_path"])
        space = core.DecisionSpace(["a", "b", "c"])
        old = core.UniformRandomPolicy(space)
        rng = np.random.default_rng(6)
        records = []
        for _ in range(100):
            context = core.ClientContext(x=1.0, y=2.0, isp="isp-0")
            decision = old.sample(context, rng)
            records.append(
                core.TraceRecord(
                    context=context,
                    decision=decision,
                    reward=1.0,
                    propensity=old.propensity(decision, context),
                )
            )
        time.sleep(0.01)  # ensure a fresh mtime even on coarse clocks
        core.Trace(records).to_jsonl(str(flat_path))
        after = client.evaluate("flat", POLICY_FLAT, **body)
        assert after["cache"]["hit"] is False
        assert after["cache"]["key"] != first["cache"]["key"]
        assert after["trace"]["schema_hash"] != first["trace"]["schema_hash"]


POLICY_FLAT = {
    "kind": "constant",
    "options": {"space": ["a", "b", "c"], "decision": "c"},
}


class TestGetEndpoints:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert set(payload["traces"]) == {"demo", "flat"}
        assert "hits" in payload["cache"]

    def test_registry(self, client):
        payload = client.registry()
        assert "dr" in payload["estimators"]
        assert "uniform" in payload["policy_kinds"]
        assert set(payload["traces"]) == {"demo", "flat"}

    def test_telemetry(self, client):
        client.health()
        payload = client.telemetry()
        assert payload["recording"] is True
        assert payload["metrics"]["counters"]["serve.request"] >= 1


class TestErrors:
    def test_unknown_trace_404(self, client):
        payload = client.request(
            "POST",
            "/v1/evaluate",
            body={"trace": {"name": "ghost"}, "policy": POLICY},
            expect_errors=True,
        )
        assert payload["kind"] == "repro.serve.error"
        assert payload["status"] == 404
        assert "registered traces" in payload["error"]
        validate_response_payload(payload)

    def test_unknown_route_404(self, client):
        payload = client.request("GET", "/v2/nope", expect_errors=True)
        assert payload["status"] == 404
        assert "endpoints" in payload["error"]

    def test_malformed_json_400(self, server):
        with ServeClient(server["host"], server["port"]) as raw:
            with pytest.raises(ServeError) as info:
                raw.request("POST", "/v1/evaluate", body=None)
        assert info.value.status == 400

    def test_unknown_body_key_400(self, client):
        payload = client.request(
            "POST",
            "/v1/evaluate",
            body={"trace": {"name": "demo"}, "policy": POLICY, "oops": 1},
            expect_errors=True,
        )
        assert payload["status"] == 400
        assert "unknown key" in payload["error"]

    def test_compare_rejects_propensity_floor(self, client):
        payload = client.request(
            "POST",
            "/v1/compare",
            body={
                "trace": {"name": "demo"},
                "policy": POLICY,
                "propensity_floor": 0.01,
            },
            expect_errors=True,
        )
        assert payload["status"] == 400
        assert "propensity_floor" in payload["error"]

    def test_unknown_estimator_option_400(self, client):
        payload = client.request(
            "POST",
            "/v1/evaluate",
            body={
                "trace": {"name": "demo"},
                "policy": POLICY,
                "estimator": {"name": "dr", "options": {"bogus": 1}},
            },
            expect_errors=True,
        )
        assert payload["status"] == 400
        assert "supported options" in payload["error"]

    def test_unknown_policy_kind_400(self, client):
        payload = client.request(
            "POST",
            "/v1/evaluate",
            body={"trace": {"name": "demo"}, "policy": {"kind": "warp", "options": {}}},
            expect_errors=True,
        )
        assert payload["status"] == 400
        assert "registered kinds" in payload["error"]

    def test_rejected_requests_counted(self, client, server):
        before = _counter(server, "serve.request.rejected")
        client.request("POST", "/v1/evaluate", body={}, expect_errors=True)
        assert _counter(server, "serve.request.rejected") == before + 1


def _spawn_cli_server(tmp_path, unbuffered: bool) -> subprocess.Popen:
    """Start `repro serve --port 0` on a small flat trace, stdout piped."""
    flat_path = tmp_path / "flat.jsonl"
    make_uniform_trace(
        core.DecisionSpace(["a", "b", "c"]),
        lambda c, d: {"a": 1.0, "b": 2.0, "c": 3.0}[d],
        np.random.default_rng(5),
        n=30,
    ).to_jsonl(str(flat_path))
    registry_path = tmp_path / "registry.json"
    registry_path.write_text(
        json.dumps({"traces": {"flat": {"path": str(flat_path)}}})
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(registry_path),
         "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


class TestShutdown:
    def test_listening_line_reaches_a_pipe_without_unbuffered_mode(
        self, tmp_path
    ):
        # A supervisor learns the ephemeral port from the first stdout
        # line; it must arrive while the server runs, not at exit.
        import selectors

        process = _spawn_cli_server(tmp_path, unbuffered=False)
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(process.stdout, selectors.EVENT_READ)
                ready = selector.select(timeout=30)
            assert ready, "no 'listening on' line within 30 s"
            line = process.stdout.readline()
            assert "listening on http://" in line
            process.send_signal(signal.SIGINT)
            stdout, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "shutting down" in stdout

    def test_sigint_with_open_keep_alive_connection_logs_no_error(
        self, tmp_path
    ):
        # `repro serve` as an operator runs it: Ctrl-C while a dashboard
        # client still holds its keep-alive connection open.
        process = _spawn_cli_server(tmp_path, unbuffered=True)
        try:
            found = re.search(
                r"http://([0-9.]+):([0-9]+)", process.stdout.readline()
            )
            assert found is not None
            with ServeClient(found.group(1), int(found.group(2))) as client:
                assert client.health()["status"] == "ok"
                process.send_signal(signal.SIGINT)
                stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "shutting down" in stdout
        assert "Exception in callback" not in stderr
        assert "CancelledError" not in stderr
