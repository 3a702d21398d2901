"""Grid policies: vectorised policy evaluation over a finite context grid.

The synthetic workloads draw contexts from a finite categorical grid
(``cardinality ** n_features`` cells).  Over such a grid any policy is
fully described by one ``(cells, decisions)`` probability matrix — and
once that matrix is precomputed, every propensity query is a gather, not
a dict lookup.  :class:`GridPolicy` snapshots a base policy into that
matrix form:

* ``propensity_batch`` over :class:`~repro.live.chunks.CodedSequence`
  inputs coded against the policy's own grid resolves as
  ``matrix[context_codes, decision_codes]`` — one fused numpy gather for
  the whole chunk, the >1M records/s path.  A vocabulary qualifies when
  it *is* the policy's own, or equals it element by element (the grid of
  another generator instance); an equal one is compared once and then
  remembered, so later batches pay an identity check only.
* Any other input falls back to per-element lookups against the same
  stored matrix, so fast and slow paths return the same float64 objects
  bit for bit (both *read* matrix entries; neither recomputes them).

The matrix itself is built once via the base policy's own
``probability_matrix`` — after construction the grid policy is a pure
function of the snapshot, immune to any statefulness in the base.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.policy import Policy
from repro.core.spaces import DecisionSpace
from repro.core.types import ClientContext, Decision
from repro.errors import PolicyError
from repro.live.chunks import CodedSequence


class GridPolicy(Policy):
    """A policy tabulated over a finite grid of context cells.

    Parameters
    ----------
    base:
        Any policy; its ``probability_matrix`` over *cells* becomes the
        snapshot this policy serves forever after.
    cells:
        The context grid, as a tuple of (interned) contexts.  Batches
        coded against this tuple, or an equal one (the traffic
        generator's :attr:`~repro.live.chunks.StreamBatch.contexts_vocabulary`),
        take the coded fast path.
    """

    def __init__(
        self,
        base: Policy,
        cells: Tuple[ClientContext, ...],
        decisions_vocabulary: Tuple[Decision, ...] = None,
    ):
        super().__init__(base.space)
        if not cells:
            raise PolicyError("GridPolicy needs at least one context cell")
        self._cells = tuple(cells)
        if decisions_vocabulary is None:
            self._decisions = self._space.decisions
        else:
            # The caller shares one vocabulary tuple across policies and
            # stream batches; keeping the shared object (after a value
            # check) lets the coded fast path match it by identity.
            if tuple(decisions_vocabulary) != self._space.decisions:
                raise PolicyError(
                    "decisions_vocabulary does not match the decision space order"
                )
            self._decisions = decisions_vocabulary
        self._cell_rows: Dict[ClientContext, int] = {
            cell: row for row, cell in enumerate(self._cells)
        }
        if len(self._cell_rows) != len(self._cells):
            raise PolicyError("GridPolicy context cells must be distinct")
        matrix = np.asarray(base.probability_matrix(self._cells), dtype=float)
        if matrix.shape != (len(self._cells), len(self._decisions)):
            raise PolicyError(
                f"base policy produced a {matrix.shape} probability matrix; "
                f"expected {(len(self._cells), len(self._decisions))}"
            )
        matrix.setflags(write=False)
        self._matrix = matrix
        # id(own vocabulary) -> the last foreign vocabulary found equal.
        self._aliases: Dict[int, Tuple] = {}

    def _coded(self, sequence: Sequence, own: Tuple) -> bool:
        """Whether *sequence*'s codes index *own*'s rows/columns directly."""
        if not isinstance(sequence, CodedSequence):
            return False
        vocabulary = sequence.vocabulary
        if vocabulary is own or vocabulary is self._aliases.get(id(own)):
            return True
        if isinstance(vocabulary, tuple) and vocabulary == own:
            self._aliases[id(own)] = vocabulary
            return True
        return False

    @property
    def cells(self) -> Tuple[ClientContext, ...]:
        """The context grid, in matrix row order."""
        return self._cells

    @property
    def matrix(self) -> np.ndarray:
        """The (read-only) ``(cells, decisions)`` probability snapshot."""
        return self._matrix

    def _row(self, context: ClientContext) -> int:
        try:
            return self._cell_rows[context]
        except KeyError:
            raise PolicyError(
                f"context {context!r} is not a cell of this GridPolicy's grid"
            ) from None

    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        """The snapshot row for *context* as a decision → probability dict."""
        row = self._matrix[self._row(context)]
        return {
            decision: float(row[column])
            for column, decision in enumerate(self._decisions)
        }

    def propensity_batch(
        self,
        decisions: Sequence[Decision],
        contexts: Sequence[ClientContext],
    ) -> np.ndarray:
        """``mu(d_k | c_k)`` via one matrix gather where possible.

        Both branches read the same stored float64 entries, so they are
        bit-identical; only the addressing differs (codes vs hashed
        lookups).
        """
        if self._coded(contexts, self._cells) and self._coded(
            decisions, self._decisions
        ):
            return self._matrix[contexts.codes, decisions.codes]
        if len(decisions) != len(contexts):
            raise PolicyError(
                f"batch length mismatch: {len(decisions)} decisions vs "
                f"{len(contexts)} contexts"
            )
        rows = np.fromiter(
            (self._row(context) for context in contexts),
            dtype=np.intp,
            count=len(contexts),
        )
        space = self._space
        columns = np.fromiter(
            (space.index_of(decision) for decision in decisions),
            dtype=np.intp,
            count=len(decisions),
        )
        return self._matrix[rows, columns]

    def probability_matrix(self, contexts: Sequence[ClientContext]) -> np.ndarray:
        """``mu(d | c_k)`` rows gathered from the snapshot."""
        if self._coded(contexts, self._cells):
            return self._matrix[contexts.codes]
        rows = np.fromiter(
            (self._row(context) for context in contexts),
            dtype=np.intp,
            count=len(contexts),
        )
        return self._matrix[rows]


def grid_cells(space: DecisionSpace) -> Tuple[Decision, ...]:
    """The decision vocabulary a :class:`GridPolicy` codes against.

    Thin alias for ``space.decisions`` so call sites spell out which
    vocabulary the coded fast path matches (by identity first, then by
    a one-time value comparison).
    """
    return space.decisions
