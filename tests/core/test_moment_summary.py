"""The moment summary every estimate reduces through (DESIGN.md §10.3).

Each streaming estimator declares up to three per-record terms; their
moments are reduced over fixed 4096-record blocks keyed by absolute
position and merged along a binary-counter tree.  This suite pins what
that buys:

* every path — dense, ``stream_estimate`` with one and two workers, a
  live ``IncrementalEstimator``'s O(1) :meth:`readout` and its O(n)
  :meth:`result` — gives the same bits, for chunk sizes around the block
  size and for arbitrary chunkings over streams that cross many block
  boundaries;
* the summary agrees with an exact ``fractions.Fraction`` reference to
  a rounding-error bound derived below;
* the edge cases keep their meaning: one record gives a NaN standard
  error, and SNIPS with no overlap still raises at readout.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cfa.matching import CriticalFeatureMatching
from repro.core.estimators import (
    IPS,
    ClippedIPS,
    DirectMethod,
    DoublyRobust,
    MatchingEstimator,
    SelfNormalizedDR,
    SelfNormalizedIPS,
    SwitchDR,
)
from repro.core.estimators.moments import (
    BLOCK_SIZE,
    MomentAccumulator,
    mean_readout,
    summarize,
)
from repro.core.models.tabular import TabularMeanModel
from repro.core.types import Trace
from repro.errors import EstimatorError
from repro.live import IncrementalEstimator
from repro.store import ShardedTrace
from repro.store.streaming import _fork_available, stream_estimate
from repro.workloads.synthetic import SyntheticWorkload

#: Three full blocks plus a partial one.
RECORDS = 3 * BLOCK_SIZE + 1000
SHARD_SIZE = 5_000

ESTIMATORS = {
    "ips": lambda model: IPS(),
    "clipped-ips": lambda model: ClippedIPS(clip=5.0),
    "snips": lambda model: SelfNormalizedIPS(),
    "matching": lambda model: MatchingEstimator(),
    "dm": lambda model: DirectMethod(model, fit_on_trace=False),
    "dr": lambda model: DoublyRobust(model, fit_on_trace=False),
    "sndr": lambda model: SelfNormalizedDR(model, fit_on_trace=False),
    "switch-dr": lambda model: SwitchDR(model, clip=5.0, fit_on_trace=False),
}

#: Unit roundoff of float64.
UNIT = 2.0**-53


@pytest.fixture(scope="module")
def workload():
    return SyntheticWorkload()


@pytest.fixture(scope="module")
def new_policy(workload):
    return workload.logging_policy(epsilon=0.1, base_index=1)


@pytest.fixture(scope="module")
def dense(workload):
    trace = workload.generate_trace(
        workload.logging_policy(epsilon=0.3), RECORDS, np.random.default_rng(11)
    )
    trace.columns()
    return trace


@pytest.fixture(scope="module")
def fitted_model(dense):
    return TabularMeanModel().fit(dense)


@pytest.fixture(scope="module")
def shard_dir(dense, tmp_path_factory):
    directory = tmp_path_factory.mktemp("moment-summary") / "shards"
    dense.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


@pytest.fixture(scope="module")
def dense_results(dense, new_policy, fitted_model):
    """Dense estimates over the whole trace, one per estimator."""
    return {
        name: factory(fitted_model).estimate(new_policy, dense)
        for name, factory in ESTIMATORS.items()
    }


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_same_result(expected, actual):
    assert actual.method == expected.method
    assert actual.n == expected.n
    assert actual.value == expected.value
    assert same_float(actual.std_error, expected.std_error)
    np.testing.assert_array_equal(actual.contributions, expected.contributions)
    assert actual.diagnostics == expected.diagnostics


def assert_readout_matches(readout, result):
    assert readout.value == result.value
    assert same_float(readout.std_error, result.std_error)
    assert readout.n == result.n


def live(factory, model, policy, trace, sizes):
    """Feed *trace* to a fresh IncrementalEstimator in chunks of *sizes*;
    check readout == result after every chunk; return the final pair."""
    incremental = IncrementalEstimator(factory(model), policy)
    cursor = 0
    for size in sizes:
        incremental.observe_chunk(trace[cursor : cursor + size])
        cursor += size
        try:
            result = incremental.result()
        except EstimatorError as error:
            # A short prefix may have no overlap yet (matching); the
            # readout must then refuse with the same error.
            with pytest.raises(EstimatorError) as refused:
                incremental.readout()
            assert str(refused.value) == str(error)
            continue
        assert_readout_matches(incremental.readout(), result)
    assert cursor == len(trace)
    return incremental.readout(), incremental.result()


def fixed_chunks(total: int, size: int) -> list:
    return [min(size, total - start) for start in range(0, total, size)]


class TestEveryPathSameBits:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    @pytest.mark.parametrize(
        "chunk_records", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1]
    )
    def test_dense_stream_parallel_live(
        self, name, chunk_records, dense, shard_dir, new_policy, fitted_model
    ):
        # Chunks of one record are slow; a stream just past the first
        # block boundary exercises them.
        n = BLOCK_SIZE + 5 if chunk_records == 1 else RECORDS
        factory = ESTIMATORS[name]
        expected = factory(fitted_model).estimate(new_policy, dense[0:n])
        sharded = ShardedTrace(shard_dir, chunk_records=chunk_records)[0:n]
        worker_counts = (1, 2) if _fork_available() else (1,)
        for workers in worker_counts:
            assert_same_result(
                expected,
                stream_estimate(
                    factory(fitted_model), new_policy, sharded, workers=workers
                ),
            )
        readout, result = live(
            factory, fitted_model, new_policy, dense[0:n], fixed_chunks(n, chunk_records)
        )
        assert_same_result(expected, result)
        assert_readout_matches(readout, expected)

    def test_cfa_matching_dense_stream_parallel(self, dense, shard_dir, new_policy):
        # Its setup indexes the whole trace, so it has no live form; the
        # offline paths must still agree bit for bit.
        expected = CriticalFeatureMatching().estimate(new_policy, dense)
        sharded = ShardedTrace(shard_dir, chunk_records=BLOCK_SIZE + 1)
        for workers in (1, 2) if _fork_available() else (1,):
            assert_same_result(
                expected,
                stream_estimate(
                    CriticalFeatureMatching(), new_policy, sharded, workers=workers
                ),
            )

    @settings(
        deadline=None,
        max_examples=30,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        name=st.sampled_from(sorted(ESTIMATORS)),
        sizes=st.lists(
            st.integers(min_value=50, max_value=2 * BLOCK_SIZE + 3),
            min_size=1,
            max_size=12,
        ),
    )
    def test_any_chunking(
        self, name, sizes, dense, new_policy, fitted_model, dense_results
    ):
        chunks = []
        total = 0
        for size in sizes * (RECORDS // sum(sizes) + 1):
            size = min(size, RECORDS - total)
            if size == 0:
                break
            chunks.append(size)
            total += size
        readout, result = live(
            ESTIMATORS[name], fitted_model, new_policy, dense, chunks
        )
        expected = dense_results[name]
        assert_same_result(expected, result)
        assert_readout_matches(readout, expected)


class TestAccumulator:
    @settings(deadline=None, max_examples=40)
    @given(
        width=st.integers(min_value=1, max_value=3),
        length=st.integers(min_value=1, max_value=5 * BLOCK_SIZE + 7),
        sizes=st.lists(
            st.one_of(
                st.just(1),
                st.sampled_from([BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1]),
                st.integers(min_value=1, max_value=3 * BLOCK_SIZE),
            ),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_chunking_never_moves_a_bit(self, width, length, sizes, seed):
        rng = np.random.default_rng(seed)
        terms = [rng.standard_normal(length) * 10.0**rng.integers(-3, 6) for _ in range(width)]
        expected = summarize(terms)
        accumulator = MomentAccumulator(width)
        cursor = 0
        position = 0
        while cursor < length:
            size = min(sizes[position % len(sizes)], length - cursor)
            accumulator.extend([term[cursor : cursor + size] for term in terms])
            cursor += size
            position += 1
            # Reading the tree mid-stream never disturbs it.
            assert accumulator.moments().count == cursor
        assert accumulator.count == length
        assert accumulator.moments() == expected

    def test_one_block_is_numpy_mean_and_variance(self):
        values = np.random.default_rng(3).standard_normal(BLOCK_SIZE) + 7.0
        readout = mean_readout(summarize([values]))
        assert readout.value == float(values.mean())
        assert readout.std_error == float(values.std(ddof=1) / np.sqrt(values.size))

    def test_width_validated(self):
        with pytest.raises(EstimatorError, match="1 to 3 terms"):
            MomentAccumulator(4)
        with pytest.raises(EstimatorError, match="expected 2 term arrays"):
            MomentAccumulator(2).extend([np.zeros(3)])
        with pytest.raises(EstimatorError, match="equal length"):
            MomentAccumulator(2).extend([np.zeros(3), np.zeros(4)])


def exact_moments(terms):
    """Exact sums and centred co-moments of float arrays, as Fractions.

    Every float is an integer over a power of two, so scaling a term by
    its largest denominator makes it an exact integer array; the
    co-moment ``Σ x_i x_j − S_i S_j / n`` is then integer arithmetic.
    """
    n = len(terms[0])
    scaled = []
    for term in terms:
        fractions = [Fraction(float(value)) for value in term]
        denominator = max(fraction.denominator for fraction in fractions)
        scaled.append(
            ([fraction.numerator * (denominator // fraction.denominator) for fraction in fractions], denominator)
        )
    sums = [Fraction(sum(values), denominator) for values, denominator in scaled]
    comoments = [
        [
            Fraction(
                n * sum(a * b for a, b in zip(scaled[i][0], scaled[j][0]))
                - sum(scaled[i][0]) * sum(scaled[j][0]),
                n * scaled[i][1] * scaled[j][1],
            )
            for j in range(len(terms))
        ]
        for i in range(len(terms))
    ]
    return sums, comoments


class TestExactReference:
    """Agreement with exact rational arithmetic, to a derived bound.

    Error model (u = 2⁻⁵³, the float64 unit roundoff).  Each record's
    value passes through at most ``d`` roundings on its way into a sum:
    numpy's pairwise sum inside a 4096-record block adds at most 16
    sequential steps per accumulator, 3 to combine its 8 accumulators
    and 5 levels of 128-record halves (24 in all); the binary-counter
    tree and the readout fold add at most ``2·⌈log2(blocks + 1)⌉ + 1``.
    With ``d ≤ 64`` for every stream here, the standard bound gives

        |Ŝ_i − S_i| ≤ 64·u·Σ|x_i|.

    A centred co-moment rounds each centred product once more and is
    otherwise summed the same way, so within blocks its error is at most
    ``64·u·Σ|d_i||d_j| ≤ 64·u·sqrt(C_ii·C_jj)`` (Cauchy–Schwarz).  Each
    Chan merge adds ``δ_i·δ_j·n_a·n_b/n`` where ``δ`` is a difference of
    two block means, each carrying an error below ``64·u·max|x|``; summed
    over the merges (whose ``δ_j²·n_a·n_b/n`` terms add up to at most
    ``C_jj``, and whose ``n_a·n_b/n`` add up to at most ``n·depth/2``),
    Cauchy–Schwarz bounds that part by
    ``64·u·(max|x_i|·sqrt(C_jj) + max|x_j|·sqrt(C_ii))·sqrt(n·depth)``.
    The test asserts the sum of both parts, with depth ≤ 16.
    """

    @settings(deadline=None, max_examples=12)
    @given(
        width=st.integers(min_value=1, max_value=3),
        length=st.sampled_from([1, 2, BLOCK_SIZE - 1, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 17]),
        offset=st.sampled_from([0.0, 1.0, -250.0, 1e6]),
        scale=st.sampled_from([1e-3, 1.0, 1e4]),
        heavy=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_summary_within_derived_bound(
        self, width, length, offset, scale, heavy, seed
    ):
        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(width):
            draw = rng.pareto(1.5, length) if heavy else rng.standard_normal(length)
            terms.append(offset + scale * draw)
        moments = summarize(terms)
        sums, comoments = exact_moments(terms)
        bound = 64 * UNIT
        depth = 16
        assert moments.count == length
        for i in range(width):
            absolute = float(np.abs(terms[i]).sum())
            assert abs(Fraction(moments.sums[i]) - sums[i]) <= Fraction(bound * absolute)
        for i in range(width):
            for j in range(width):
                c_ii, c_jj = float(comoments[i][i]), float(comoments[j][j])
                peak_i = float(np.abs(terms[i]).max())
                peak_j = float(np.abs(terms[j]).max())
                tolerance = bound * (
                    math.sqrt(c_ii * c_jj)
                    + (peak_i * math.sqrt(c_jj) + peak_j * math.sqrt(c_ii))
                    * math.sqrt(length * depth)
                )
                error = abs(Fraction(moments.comoments[i][j]) - comoments[i][j])
                assert error <= Fraction(tolerance), (i, j, float(error), tolerance)

    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_snips_value_within_derived_bound(self, seed):
        # SNIPS = S_a / S_b: relative error at most the two sums'
        # relative bounds plus one rounding of the division.
        rng = np.random.default_rng(seed)
        length = 2 * BLOCK_SIZE + 99
        weights = rng.pareto(1.5, length)
        rewards = rng.standard_normal(length) + 3.0
        products = weights * rewards
        readout = SelfNormalizedIPS()._readout(summarize([products, weights]))
        sums, _ = exact_moments([products, weights])
        exact = sums[0] / sums[1]
        relative = (
            64 * UNIT * float(np.abs(products).sum()) / abs(float(sums[0]))
            + 64 * UNIT * float(weights.sum()) / float(sums[1])
            + UNIT
        )
        assert abs(Fraction(readout.value) - exact) <= abs(exact) * Fraction(relative)


class TestEdgeCases:
    @pytest.mark.parametrize("name", sorted(set(ESTIMATORS) - {"matching"}))
    def test_one_record_has_nan_std_error(self, name, dense, new_policy, fitted_model):
        factory = ESTIMATORS[name]
        single = dense[0:1]
        assert math.isnan(factory(fitted_model).estimate(new_policy, single).std_error)
        incremental = IncrementalEstimator(factory(fitted_model), new_policy)
        incremental.observe_chunk(single)
        assert math.isnan(incremental.readout().std_error)

    def test_one_matched_record_has_nan_std_error(self, dense, new_policy):
        greedy = new_policy.greedy_decision_batch(dense.columns().contexts)
        position = next(
            index
            for index, decision in enumerate(dense.columns().decisions)
            if decision == greedy[index]
        )
        result = MatchingEstimator().estimate(new_policy, dense[position : position + 1])
        assert result.n == 1
        assert math.isnan(result.std_error)

    def test_snips_without_overlap_raises_at_readout(self, workload, dense):
        policy = workload.fixed_policy(1)
        logged = Trace(
            [record for record in dense if record.decision != policy.space.decisions[1]]
        )
        assert len(logged) > BLOCK_SIZE
        with pytest.raises(EstimatorError, match="SNIPS undefined") as dense_error:
            SelfNormalizedIPS().estimate(policy, logged)
        incremental = IncrementalEstimator(SelfNormalizedIPS(), policy)
        for start in range(0, len(logged), 3000):
            incremental.observe_chunk(logged[start : start + 3000])
        with pytest.raises(EstimatorError) as live_error:
            incremental.readout()
        assert str(live_error.value) == str(dense_error.value)
        with pytest.raises(EstimatorError, match="SNIPS undefined"):
            incremental.result()
