"""Tests for overlap/randomness diagnostics."""

import tempfile
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import core
from repro.core.diagnostics import OverlapReport, overlap_report, randomness_report
from repro.core.estimators.base import (
    EstimateResult,
    importance_weights,
    weight_diagnostics,
)
from repro.core.propensity import EmpiricalPropensityModel, resolve_propensity_source
from repro.core.reporting import EvaluationReport
from repro.core.types import ClientContext, Trace, TraceRecord
from repro.errors import PropensityError, ReproError
from repro.store import ShardedTrace

from tests.conftest import make_uniform_trace
from tests.core.test_batch_equivalence import (
    SPACE,
    full_support_policies,
    policies,
    traces,
)


def _truth(context, decision):
    return {"a": 1.0, "b": 2.0, "c": 3.0}[decision]


class TestOverlapReport:
    def test_healthy_under_uniform_logging(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=600)
        new = core.UniformRandomPolicy(abc_space)
        report = overlap_report(new, trace, old_policy=core.UniformRandomPolicy(abc_space))
        assert report.healthy()
        assert report.ess == pytest.approx(600, rel=0.01)
        assert report.n == 600

    def test_warns_on_thin_overlap(self, abc_space, rng):
        # Old policy almost never takes 'c'; new policy always does.
        base = core.DeterministicPolicy(abc_space, lambda c: "a")
        old = core.EpsilonGreedyPolicy(base, epsilon=0.03)
        records = []
        for _ in range(300):
            context = ClientContext(x=0.0)
            decision = old.sample(context, rng)
            records.append(
                TraceRecord(
                    context, decision, 1.0, propensity=old.propensity(decision, context)
                )
            )
        trace = Trace(records)
        new = core.DeterministicPolicy(abc_space, lambda c: "c")
        report = overlap_report(new, trace, old_policy=old)
        assert not report.healthy()
        assert any("effective sample size" in w for w in report.warnings)

    def test_no_match_warning(self, abc_space):
        trace = Trace(
            [TraceRecord(ClientContext(x=0.0), "a", 1.0, propensity=0.5)] * 3
        )
        new = core.DeterministicPolicy(abc_space, lambda c: "c")
        report = overlap_report(new, trace)
        assert report.match_fraction == 0.0
        assert any("matching" in w or "matches" in w for w in report.warnings)

    def test_decision_coverage_counts(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=300)
        new = core.UniformRandomPolicy(abc_space)
        report = overlap_report(new, trace)
        assert sum(report.decision_coverage.values()) == 300
        assert set(report.decision_coverage) == {"a", "b", "c"}

    def test_render_contains_key_lines(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=100)
        report = overlap_report(core.UniformRandomPolicy(abc_space), trace)
        text = report.render()
        assert "effective sample size" in text
        assert "min logged propensity" in text

    def test_requires_propensity_source(self, abc_space):
        trace = Trace([TraceRecord(ClientContext(x=0.0), "a", 1.0)])
        with pytest.raises(PropensityError):
            overlap_report(core.UniformRandomPolicy(abc_space), trace)


class TestRandomnessReport:
    def test_uniform_policy_max_entropy(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=100)
        report = randomness_report(core.UniformRandomPolicy(abc_space), trace)
        assert report.mean_entropy == pytest.approx(np.log(3), abs=1e-9)
        assert report.deterministic_fraction == 0.0

    def test_deterministic_policy_zero_entropy(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=50)
        policy = core.DeterministicPolicy(abc_space, lambda c: "a")
        report = randomness_report(policy, trace)
        assert report.mean_entropy == 0.0
        assert report.deterministic_fraction == 1.0

    def test_render(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=20)
        text = randomness_report(core.UniformRandomPolicy(abc_space), trace).render()
        assert "entropy" in text


# -- the columnar scan against the per-record loop it replaced -----------------


def scalar_overlap_report(
    new_policy,
    trace,
    old_policy=None,
    propensity_model=None,
    ess_warning_fraction=0.1,
    weight_warning=50.0,
):
    """The per-record reference: one scalar call per record, three loops."""
    source = resolve_propensity_source(trace, old_policy, propensity_model)
    weights = importance_weights(new_policy, trace, source)
    stats = weight_diagnostics(weights)
    propensities = np.asarray(
        [source.propensity(record, index) for index, record in enumerate(trace)]
    )
    matches = sum(
        1
        for record in trace
        if record.decision == new_policy.greedy_decision(record.context)
    )
    coverage: Dict = {}
    for record in trace:
        coverage[record.decision] = coverage.get(record.decision, 0) + 1

    warnings: List[str] = []
    n = len(trace)
    if stats["ess"] < ess_warning_fraction * n:
        warnings.append(
            f"effective sample size {stats['ess']:.1f} is below "
            f"{ess_warning_fraction:.0%} of n={n}; IPS/DR corrections will be "
            "high-variance (paper §2.2.2)"
        )
    if stats["max_weight"] > weight_warning:
        warnings.append(
            f"max importance weight {stats['max_weight']:.1f} exceeds "
            f"{weight_warning}; a few records dominate the estimate (paper §4.1)"
        )
    if stats["zero_weight_fraction"] > 0.9:
        warnings.append(
            f"{stats['zero_weight_fraction']:.0%} of records have zero weight "
            "under the new policy; overlap is nearly empty (paper Fig 5)"
        )
    if matches == 0:
        warnings.append(
            "no record's logged decision matches the new policy's choice; "
            "matching-style evaluation is impossible (paper Fig 5)"
        )
    return OverlapReport(
        n=n,
        ess=stats["ess"],
        match_fraction=matches / n,
        max_weight=stats["max_weight"],
        mean_weight=stats["mean_weight"],
        zero_weight_fraction=stats["zero_weight_fraction"],
        min_propensity=float(propensities.min()),
        decision_coverage=coverage,
        warnings=tuple(warnings),
    )


def scalar_randomness_report(old_policy, trace):
    """The per-record reference: one ``probabilities()`` call per record."""
    entropies = []
    deterministic = 0
    for record in trace:
        distribution = old_policy.probabilities(record.context)
        probabilities = np.asarray(
            [p for p in distribution.values() if p > 0], dtype=float
        )
        entropy = float(-(probabilities * np.log(probabilities)).sum())
        entropies.append(entropy)
        if entropy < 1e-9:
            deterministic += 1
    entropies_array = np.asarray(entropies)
    return core.RandomnessReport(
        n=len(trace),
        mean_entropy=float(entropies_array.mean()),
        min_entropy=float(entropies_array.min()),
        deterministic_fraction=deterministic / len(trace),
    )


def outcome(function, *args, **kwargs):
    """A call's result, or its typed error and message."""
    try:
        return function(*args, **kwargs)
    except ReproError as error:
        return type(error), str(error)


def report_json(overlap: OverlapReport) -> str:
    return EvaluationReport(
        estimates={"ips": EstimateResult(value=0.5, method="ips", n=overlap.n)},
        overlap=overlap,
        bootstrap=None,
        recommended="ips",
    ).to_json()


def assert_same(actual, expected) -> None:
    """Field for field, coverage key order, and report JSON bytes."""
    if not isinstance(expected, OverlapReport):
        assert actual == expected
        return
    assert isinstance(actual, OverlapReport)
    assert actual == expected
    assert list(actual.decision_coverage) == list(expected.decision_coverage)
    assert report_json(actual) == report_json(expected)


@st.composite
def propensity_sources(draw, trace):
    """Keyword arguments for one of the three propensity sources."""
    kind = draw(st.sampled_from(["logged", "old-policy", "model"]))
    if kind == "logged":
        return {}
    if kind == "old-policy":
        return {"old_policy": draw(full_support_policies())}
    return {"propensity_model": EmpiricalPropensityModel(SPACE).fit(trace)}


def sharded_views(trace: Trace, root: Path, shard_size: int):
    """The trace as shards, read back one record, seven and n per chunk."""
    trace.to_shards(root / "shards", shard_size=shard_size)
    for chunk_records in (1, 7, len(trace)):
        yield ShardedTrace(root / "shards", chunk_records=chunk_records)


class TestColumnarScanEquivalence:
    @given(policy=policies(), trace=traces(), data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_dense_matches_scalar_loop(self, policy, trace, data):
        kwargs = data.draw(propensity_sources(trace))
        assert_same(
            outcome(overlap_report, policy, trace, **kwargs),
            outcome(scalar_overlap_report, policy, trace, **kwargs),
        )

    @given(
        policy=policies(),
        trace=traces(max_size=30),
        shard_size=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sharded_matches_scalar_loop_for_every_chunking(
        self, policy, trace, shard_size, data
    ):
        kwargs = data.draw(propensity_sources(trace))
        expected = outcome(scalar_overlap_report, policy, trace, **kwargs)
        with tempfile.TemporaryDirectory() as root:
            for sharded in sharded_views(trace, Path(root), shard_size):
                assert_same(outcome(overlap_report, policy, sharded, **kwargs), expected)

    @given(
        policy=policies(),
        trace=traces(min_size=6, max_size=30),
        start=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_views_keep_first_occurrence_coverage_order(
        self, policy, trace, start, data
    ):
        # A view's chunks share the parent's decision vocabulary, whose
        # code order need not be the view's first-occurrence order.
        kwargs = data.draw(propensity_sources(trace))
        trace.columns()
        view = trace[start:]
        expected = outcome(scalar_overlap_report, policy, Trace(list(view)), **kwargs)
        assert_same(outcome(overlap_report, policy, view, **kwargs), expected)
        with tempfile.TemporaryDirectory() as root:
            trace.to_shards(Path(root) / "shards", shard_size=len(trace))
            sharded = ShardedTrace(Path(root) / "shards", chunk_records=3)[start:]
            assert_same(outcome(overlap_report, policy, sharded, **kwargs), expected)

    @given(
        size=st.integers(min_value=2, max_value=20),
        bad=st.sets(st.integers(min_value=0, max_value=19), min_size=1),
        negative=st.booleans(),
        shard_size=st.integers(min_value=1, max_value=8),
    )
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_zero_or_negative_propensity_raises_at_the_same_record(
        self, size, bad, negative, shard_size
    ):
        # Record k logs its own decision "dk", so the error message (which
        # names the decision) pins which record the scan rejected first.
        bad = {index for index in bad if index < size}
        assume(bad)
        decisions = [f"d{index}" for index in range(size)]
        space = core.DecisionSpace(decisions)
        # -1e-7 is inside FunctionPolicy's tolerance but not the
        # propensity contract's.
        floor = -1e-7 if negative else 0.0
        share = 1.0 / (size - len(bad)) if len(bad) < size else 0.0
        distribution = {
            decision: (floor if index in bad else share)
            for index, decision in enumerate(decisions)
        }
        if len(bad) == size:
            distribution[decisions[0]] = 1.0
        old = core.FunctionPolicy(space, lambda context: dict(distribution))
        trace = Trace(
            TraceRecord(ClientContext(x=float(index)), decision, 1.0)
            for index, decision in enumerate(decisions)
        )
        new = core.UniformRandomPolicy(space)
        expected = outcome(scalar_overlap_report, new, trace, old_policy=old)
        assert isinstance(expected, tuple) and issubclass(expected[0], PropensityError)
        first = min(index for index in bad if distribution[decisions[index]] <= 0.0)
        assert f"'d{first}'" in expected[1]
        assert outcome(overlap_report, new, trace, old_policy=old) == expected
        with tempfile.TemporaryDirectory() as root:
            for sharded in sharded_views(trace, Path(root), shard_size):
                assert outcome(overlap_report, new, sharded, old_policy=old) == expected


def _space_ordered(policy, trace) -> bool:
    """Whether every distribution lists its decisions in space order."""
    order = {decision: index for index, decision in enumerate(SPACE)}
    for context in trace.columns().contexts:
        positions = [order[d] for d in policy.probabilities(context)]
        if positions != sorted(positions):
            return False
    return True


class TestRandomnessReportEquivalence:
    @given(policy=policies(), trace=traces())
    @settings(deadline=None, max_examples=60)
    def test_matches_scalar_loop(self, policy, trace):
        # The matrix is in space order, so the per-row entropy sums are
        # the scalar sums exactly when the policy's dict is too.
        assume(_space_ordered(policy, trace))
        assert outcome(randomness_report, policy, trace) == outcome(
            scalar_randomness_report, policy, trace
        )

    @given(policy=policies(), trace=traces(max_size=30), data=st.data())
    @settings(
        deadline=None,
        max_examples=15,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_sharded_matches_dense(self, policy, trace, data):
        expected = outcome(randomness_report, policy, trace)
        shard_size = data.draw(st.integers(min_value=1, max_value=12))
        with tempfile.TemporaryDirectory() as root:
            for sharded in sharded_views(trace, Path(root), shard_size):
                assert outcome(randomness_report, policy, sharded) == expected

    def test_wide_supports_match_scalar_loop(self, rng):
        # Support sizes beyond numpy's 8-way unrolled summation.
        space = core.DecisionSpace([f"d{index}" for index in range(23)])
        scores = rng.normal(size=(50, 23))
        policy = core.SoftmaxPolicy(
            space,
            lambda context, decision: float(
                scores[int(context["row"]), space.index_of(decision)]
            ),
        )
        trace = Trace(
            TraceRecord(ClientContext(row=index), "d0", 1.0, propensity=0.5)
            for index in range(50)
        )
        assert randomness_report(policy, trace) == scalar_randomness_report(
            policy, trace
        )
