"""StreamBatch / CodedSequence / GridPolicy: the columnar fast paths.

The load-bearing property throughout: the coded fast paths and the
object-level slow paths must return the **same float64 objects bit for
bit** — both read the same stored matrix entries; only the addressing
differs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PolicyError, SimulationError
from repro.live import CodedSequence, GridPolicy, StreamBatch, grid_cells
from repro.workloads.drift import LiveTrafficGenerator


@pytest.fixture(scope="module")
def generator():
    return LiveTrafficGenerator(seed=13, chunk_records=256)


@pytest.fixture(scope="module")
def batch(generator):
    return generator.next_batch()


class TestCodedSequence:
    def test_behaves_like_the_materialised_tuple(self, batch):
        sequence = batch.columns().decisions
        assert isinstance(sequence, CodedSequence)
        expected = [
            batch.decisions_vocabulary[code] for code in batch.decision_codes
        ]
        assert len(sequence) == len(expected)
        assert list(sequence) == expected
        assert sequence[0] == expected[0]
        assert sequence[-1] == expected[-1]
        assert sequence == expected

    def test_slice_stays_coded(self, batch):
        sequence = batch.columns().decisions
        sliced = sequence[10:20]
        assert isinstance(sliced, CodedSequence)
        assert sliced.vocabulary is sequence.vocabulary
        assert list(sliced) == list(sequence)[10:20]

    def test_identity_vocab_equality_compares_codes(self, batch):
        sequence = batch.columns().decisions
        twin = CodedSequence(sequence.codes.copy(), sequence.vocabulary)
        assert sequence == twin
        other = CodedSequence(
            (sequence.codes + 1) % len(sequence.vocabulary),
            sequence.vocabulary,
        )
        assert sequence != other


class TestStreamBatch:
    def test_columns_match_record_materialisation(self, batch):
        columns = batch.columns()
        records = list(batch.iter_records())
        assert len(records) == len(batch)
        for index in (0, 7, len(batch) - 1):
            record = records[index]
            assert record.context == columns.contexts[index]
            assert record.decision == columns.decisions[index]
            assert record.reward == float(columns.rewards[index])
            assert record.propensity == float(columns.propensities[index])
        assert batch[3] == records[3]

    def test_has_propensities(self, batch):
        assert batch.has_propensities()

    def test_shape_mismatch_rejected(self, batch):
        with pytest.raises(SimulationError, match="rewards"):
            StreamBatch(
                batch.context_codes,
                batch.decision_codes,
                batch.rewards[:-1],
                batch.propensities,
                batch.timestamps,
                batch.contexts_vocabulary,
                batch.decisions_vocabulary,
                batch.feature_names,
            )


class TestGridPolicy:
    def test_fast_and_slow_paths_are_bit_identical(self, generator, batch):
        policy = generator.candidate_policy(0)
        columns = batch.columns()
        fast = policy.propensity_batch(columns.decisions, columns.contexts)
        slow = policy.propensity_batch(
            list(columns.decisions), list(columns.contexts)
        )
        np.testing.assert_array_equal(fast, slow)
        matrix = policy.probability_matrix(columns.contexts)
        slow_matrix = policy.probability_matrix(list(columns.contexts))
        np.testing.assert_array_equal(matrix, slow_matrix)

    def test_matches_base_policy_probabilities(self, generator):
        base = generator.workload.logging_policy(epsilon=0.2)
        policy = GridPolicy(base, generator.cells)
        cell = generator.cells[3]
        assert policy.probabilities(cell) == base.probabilities(cell)

    def test_foreign_vocabulary_falls_back(self, generator, batch):
        policy = generator.candidate_policy(1)
        columns = batch.columns()
        # A value-equal but non-identical vocabulary must take the slow
        # path and still agree (the fast path requires identity; note
        # tuple(t) returns t itself, so build a genuinely new tuple).
        foreign = CodedSequence(
            batch.decision_codes, tuple(list(generator.decisions_vocabulary))
        )
        assert foreign.vocabulary is not batch.decisions_vocabulary
        fast = policy.propensity_batch(columns.decisions, columns.contexts)
        fallback = policy.propensity_batch(foreign, columns.contexts)
        np.testing.assert_array_equal(fast, fallback)

    def test_equal_vocabulary_of_another_generator_is_coded(
        self, generator, batch, monkeypatch
    ):
        # Policies built from one generator valuing the stream of
        # another (same workload): the vocabularies are equal but not
        # identical, and the gather must still be one coded lookup.
        policy = LiveTrafficGenerator(seed=14, chunk_records=256).candidate_policy(1)
        columns = batch.columns()
        assert columns.contexts.vocabulary is not policy.cells
        slow = policy.propensity_batch(
            list(columns.decisions), list(columns.contexts)
        )
        slow_matrix = policy.probability_matrix(list(columns.contexts))

        def refuse(context):
            raise AssertionError("per-record lookup on a coded batch")

        monkeypatch.setattr(policy, "_row", refuse)
        for _ in range(2):
            np.testing.assert_array_equal(
                policy.propensity_batch(columns.decisions, columns.contexts), slow
            )
            np.testing.assert_array_equal(
                policy.probability_matrix(columns.contexts), slow_matrix
            )

    def test_unknown_context_is_an_error(self, generator):
        from repro.core.types import ClientContext

        policy = generator.candidate_policy(0)
        stranger = ClientContext(
            {name: "nope" for name in generator.feature_names}
        )
        with pytest.raises(PolicyError, match="not a cell"):
            policy.probabilities(stranger)

    def test_vocabulary_value_check(self, generator):
        base = generator.workload.logging_policy(epsilon=0.2)
        with pytest.raises(PolicyError, match="decision space order"):
            GridPolicy(
                base,
                generator.cells,
                decisions_vocabulary=tuple(
                    reversed(generator.decisions_vocabulary)
                ),
            )

    def test_grid_cells_helper(self, generator):
        assert grid_cells(generator.space) == generator.decisions_vocabulary
