"""Incremental off-policy estimator state over an unbounded stream.

:class:`IncrementalEstimator` is the live twin of
:func:`repro.store.streaming.stream_estimate`: the same hook
decomposition (``_stream_setup`` once, ``_stream_chunk`` per chunk,
``_stream_finalize`` over the gathered columns), plus a running moment
summary of the estimator's per-record terms
(:class:`~repro.core.estimators.moments.MomentAccumulator`).

Two readouts, one set of bits:

* :meth:`IncrementalEstimator.readout` maps the summary's block tree to
  value and standard error in O(log n + 4096): completed 4096-record
  blocks are never revisited.  This is what the live monitor reads after
  every chunk.
* :meth:`IncrementalEstimator.result` runs ``_stream_finalize`` over the
  gather buffers (they *grow* by capacity doubling, since the stream has
  no known length) and also returns per-record contributions and weight
  diagnostics.  It is O(n) and serves offline verification.

**The pinned guarantee** (``tests/live/test_incremental_equivalence.py``,
``tests/core/test_moment_summary.py``): after observing any sequence of
chunks covering records ``[0, n)``, :meth:`result` is **bit-identical**
to ``stream_estimate`` (and therefore to the dense path) over those same
``n`` records — value, std error, contributions, diagnostics — and
:meth:`readout` carries the same value and std error.  Terms are pure
elementwise functions of the ``_stream_chunk`` columns, and every path
reduces them over the same position-keyed 4096-record blocks merged
along the same binary-counter tree (DESIGN.md §10.3), so neither the
chunking nor *when* a block completed can move a bit.  A running
``total += chunk.sum()`` accumulator would not have this property:
float addition is not associative, and its rounding would follow the
chunk boundaries.

Scope of the guarantee: it requires ``_stream_setup`` to be independent
of the stream (true for the model-free IPS family, and for DM/DR/SNDR
with a **pre-fitted** reward model).  A model-fitting estimator in live
mode would otherwise fit on whatever prefix existed at setup time;
:class:`IncrementalEstimator` refuses that ambiguity by requiring
``fit_on_trace=False`` semantics — pass a fitted model.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.contracts import check_trace_columns
from repro.core.estimators.base import EstimateResult, OffPolicyEstimator
from repro.core.estimators.moments import MomentAccumulator, Readout
from repro.core.policy import Policy
from repro.core.propensity import (
    PropensityModel,
    PropensitySource,
    resolve_propensity_source,
)
from repro.errors import EstimatorError

#: Initial per-column buffer capacity (records).  Doubles as needed.
INITIAL_CAPACITY = 4096


class IncrementalEstimator:
    """Running estimator state, updated chunk by chunk.

    Parameters
    ----------
    estimator:
        Any :class:`~repro.core.estimators.base.OffPolicyEstimator` with
        streaming hooks.  Model-backed estimators must carry a
        *pre-fitted* model (see module docstring).
    new_policy:
        The policy being valued.
    old_policy / propensity_model:
        Optional explicit propensity source, resolved with the same
        preference order as the offline engine (policy > model > logged
        per-record propensities).  Resolution happens against the first
        observed chunk.
    """

    def __init__(
        self,
        estimator: OffPolicyEstimator,
        new_policy: Policy,
        old_policy: Optional[Policy] = None,
        propensity_model: Optional[PropensityModel] = None,
        propensity_floor: Optional[float] = None,
    ):
        self._estimator = estimator
        self._policy = new_policy
        self._old_policy = old_policy
        self._propensity_model = propensity_model
        self._propensity_floor = propensity_floor
        self._source: Optional[PropensitySource] = None
        self._buffers: Optional[Dict[str, np.ndarray]] = None
        self._summary: Optional[MomentAccumulator] = None
        self._last_terms: Tuple[np.ndarray, ...] = ()
        self._capacity = 0
        self._length = 0
        self._chunks = 0

    @property
    def estimator(self) -> OffPolicyEstimator:
        """The wrapped estimator."""
        return self._estimator

    @property
    def n(self) -> int:
        """Records observed so far."""
        return self._length

    @property
    def chunks(self) -> int:
        """Chunks observed so far."""
        return self._chunks

    def _ensure_capacity(self, needed: int, template: Dict[str, np.ndarray]) -> None:
        if self._buffers is None:
            capacity = max(INITIAL_CAPACITY, needed)
            self._buffers = {
                key: np.empty(capacity, dtype=array.dtype)
                for key, array in template.items()
            }
            self._capacity = capacity
            return
        if needed <= self._capacity:
            return
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        for key, buffer in self._buffers.items():
            grown = np.empty(capacity, dtype=buffer.dtype)
            grown[: self._length] = buffer[: self._length]
            self._buffers[key] = grown
        self._capacity = capacity

    def observe_chunk(self, chunk) -> int:
        """Score one chunk and append its per-record columns.

        *chunk* is anything satisfying the streaming chunk contract
        (``len``, ``columns()``, ``has_propensities()``):
        a :class:`~repro.live.chunks.StreamBatch`, a
        :class:`~repro.store.sharded.ShardChunk`, or a dense
        :class:`~repro.core.types.Trace`.  Returns the total record
        count after the append.

        Validation mirrors the offline engine exactly — vectorised
        contracts with absolute record offsets, shape checks, and a
        stable column set across chunks.
        """
        estimator = self._estimator
        size = len(chunk)
        if size == 0:
            return self._length
        if self._chunks == 0:
            # Same setup/resolution order as stream_estimate: source
            # first (so missing propensities fail before any model
            # work), then the estimator's one-time setup.
            if estimator.requires_propensities:
                self._source = resolve_propensity_source(
                    chunk,
                    self._old_policy,
                    self._propensity_model,
                    floor=self._propensity_floor,
                )
            estimator._stream_setup(self._policy, chunk)
        cursor = self._length
        check_trace_columns(
            chunk.columns(),
            where=f"{estimator.name} input trace",
            offset=cursor,
        )
        columns = estimator._stream_chunk(self._policy, chunk, self._source, cursor)
        if not columns:
            raise EstimatorError(
                f"{estimator.name}._stream_chunk returned no columns"
            )
        arrays: Dict[str, np.ndarray] = {}
        for key, value in columns.items():
            array = np.asarray(value)
            if array.shape != (size,):
                raise EstimatorError(
                    f"{estimator.name}._stream_chunk column {key!r} has "
                    f"shape {array.shape}, expected ({size},)"
                )
            arrays[key] = array
        if self._buffers is not None and set(arrays) != set(self._buffers):
            raise EstimatorError(
                f"{estimator.name}._stream_chunk changed its column set "
                f"mid-stream: {sorted(self._buffers)} vs {sorted(arrays)}"
            )
        terms = tuple(
            np.asarray(term, dtype=np.float64)
            for term in estimator._stream_terms(arrays)
        )
        if any(term.shape != (size,) for term in terms):
            raise EstimatorError(
                f"{estimator.name}._stream_terms returned shapes "
                f"{[term.shape for term in terms]}, expected ({size},) each"
            )
        if self._summary is None:
            self._summary = MomentAccumulator(len(terms))
        self._summary.extend(terms)
        self._ensure_capacity(cursor + size, arrays)
        for key, array in arrays.items():
            self._buffers[key][cursor : cursor + size] = array
        self._last_terms = terms
        self._length = cursor + size
        self._chunks += 1
        return self._length

    @property
    def last_terms(self) -> Tuple[np.ndarray, ...]:
        """The estimator's per-record terms for the last observed chunk."""
        return self._last_terms

    def readout(self) -> Readout:
        """Value and standard error over everything observed so far.

        Reads the moment summary's block tree plus the open tail block —
        O(log n + 4096), never the gathered prefix — and equals
        :meth:`result`'s ``value``/``std_error``/``n`` bit for bit.
        Raises the estimator's own error where :meth:`result` would
        (e.g. SNIPS with no overlap).
        """
        if self._summary is None or self._length == 0:
            raise EstimatorError("cannot estimate from an empty stream")
        return self._estimator._readout(self._summary.moments())

    def result(self, extra_diagnostics: Optional[Dict[str, Any]] = None) -> EstimateResult:
        """Finalize over everything observed so far.

        Runs ``_stream_finalize`` on the assembled prefix — an O(n)
        pass, identical to what the offline engine would run over the
        same records.  Use :meth:`readout` when value and standard error
        are all you need.  *extra_diagnostics* entries (e.g. a store
        quarantine report) are attached afterwards, mirroring how
        ``stream_estimate`` decorates degraded results.
        """
        if self._buffers is None or self._length == 0:
            raise EstimatorError("cannot estimate from an empty stream")
        columns = {
            key: buffer[: self._length] for key, buffer in self._buffers.items()
        }
        result = self._estimator._stream_finalize(columns, self._length)
        if extra_diagnostics:
            result.diagnostics.update(extra_diagnostics)
        return result

    def column_prefix(self, key: str) -> np.ndarray:
        """Read-only view of one gathered column's observed prefix."""
        if self._buffers is None or key not in self._buffers:
            raise EstimatorError(f"no gathered column {key!r}")
        return self._buffers[key][: self._length]
