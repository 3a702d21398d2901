"""Order-stable, mergeable moment summaries: the one reduction behind
every streaming estimate.

Each estimator with streaming hooks declares at most three elementwise
per-record *terms* (``_stream_terms``: IPS ``w·r``, SNIPS ``(w·r, w)``,
SNDR ``(dm, w·res, w)``, ...) and maps their :class:`Moments` — record
count, per-term sums and centred co-moments — to a value and standard
error (``_readout``).  The moments are reduced the same way on every
path:

* the terms are cut into fixed blocks of :data:`BLOCK_SIZE` records
  keyed by absolute record position (block ``k`` holds records
  ``[k·B, (k+1)·B)``), so no block's contents depend on how the stream
  was chunked;
* each full block is reduced two-pass by numpy over exactly its ``B``
  contiguous values: sums first, then sums of centred products;
* completed blocks merge by Chan's pairwise rule along a binary-counter
  tree — a new block merges with its equal-sized left neighbours, so
  the tree's shape depends on the block count alone;
* the open tail block (fewer than ``B`` records) is reduced the same way
  at readout and folded in last.

Dense, streamed, parallel and live evaluation therefore give the same
bits for any chunking, and a live readout costs O(log n + B) instead of
a pass over the prefix (Chan, Golub & LeVeque, "Algorithms for computing
the sample variance", 1983).  A trace of at most ``B`` records is one
block: its mean and sample variance are numpy's own ``mean()`` and
``var(ddof=1)`` to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import EstimatorError

#: Records per moment block.  A module constant, not a parameter: the
#: block grid is part of every estimate's rounding, so changing it
#: changes results in the last ulp.
BLOCK_SIZE = 4096

#: Most terms an estimator may declare.
MAX_TERMS = 3


@dataclass(frozen=True)
class Moments:
    """Count, per-term sums and centred co-moments of a run of records.

    ``comoments[i][j]`` is ``Σ (x_i − mean_i)(x_j − mean_j)`` over the
    records, so ``comoments[i][i] / (count − 1)`` is term ``i``'s sample
    variance.
    """

    count: int
    sums: Tuple[float, ...]
    comoments: Tuple[Tuple[float, ...], ...]

    def mean(self, index: int = 0) -> float:
        """Mean of term *index*."""
        return self.sums[index] / self.count

    def merge(self, right: "Moments") -> "Moments":
        """Chan's pairwise rule: the moments of ``self`` followed by *right*."""
        left_count, right_count = self.count, right.count
        count = left_count + right_count
        factor = left_count * right_count / count
        deltas = [
            right_sum / right_count - left_sum / left_count
            for left_sum, right_sum in zip(self.sums, right.sums)
        ]
        return Moments(
            count,
            tuple(a + b for a, b in zip(self.sums, right.sums)),
            tuple(
                tuple(
                    left + right_value + deltas[i] * deltas[j] * factor
                    for j, (left, right_value) in enumerate(zip(left_row, right_row))
                )
                for i, (left_row, right_row) in enumerate(
                    zip(self.comoments, right.comoments)
                )
            ),
        )

    def centred_square_sum(self, i: int, j: int, coefficient: float) -> float:
        """``Σ ((x_i − mean_i) + c·(x_j − mean_j))²`` with ``c = coefficient``.

        The residual sum of squares behind every ratio-style standard
        error (SNIPS, matching: ``c = −value``; SNDR: ``c = n/Σw``).
        Clamped at zero: rounding can push an exactly-zero sum slightly
        negative.
        """
        total = (
            self.comoments[i][i]
            + 2.0 * coefficient * self.comoments[i][j]
            + coefficient * coefficient * self.comoments[j][j]
        )
        return max(total, 0.0)


@dataclass(frozen=True)
class Readout:
    """What an estimator's moments say: value, standard error, and the
    record count the estimate stands on, plus moment-derived
    diagnostics (SNIPS ``weight_sum``, matching ``match_count``, ...)."""

    value: float
    std_error: float
    n: int
    diagnostics: Dict[str, Any] = field(default_factory=dict)


def _block_moments(rows: Sequence[np.ndarray]) -> List[Moments]:
    """Two-pass moments of each row of the ``(blocks, size)`` term arrays."""
    size = rows[0].shape[1]
    sums = [row.sum(axis=1) for row in rows]
    centred = [row - (total / size)[:, None] for row, total in zip(rows, sums)]
    width = len(rows)
    products = {
        (i, j): (centred[i] * centred[j]).sum(axis=1).tolist()
        for i in range(width)
        for j in range(i, width)
    }
    sum_lists = [total.tolist() for total in sums]
    return [
        Moments(
            size,
            tuple(column[block] for column in sum_lists),
            tuple(
                tuple(products[min(i, j), max(i, j)][block] for j in range(width))
                for i in range(width)
            ),
        )
        for block in range(rows[0].shape[0])
    ]


class MomentAccumulator:
    """The block tree over a growing stream of term arrays.

    :meth:`extend` appends records (any chunking); :meth:`moments`
    reads the summary of everything appended so far without touching
    completed blocks' records again.  State: at most ``log2(n/B) + 1``
    tree nodes plus one ``(width, B)`` tail buffer.
    """

    def __init__(self, width: int):
        if not 1 <= width <= MAX_TERMS:
            raise EstimatorError(
                f"an estimator declares 1 to {MAX_TERMS} terms, got {width}"
            )
        self._width = width
        self._tail = np.empty((width, BLOCK_SIZE), dtype=np.float64)
        self._fill = 0
        self._count = 0
        # (level, node): a node at level L summarises 2**L blocks.
        self._nodes: List[Tuple[int, Moments]] = []

    @property
    def count(self) -> int:
        """Records appended so far."""
        return self._count

    def _push(self, blocks: List[Moments]) -> None:
        for node in blocks:
            level = 0
            while self._nodes and self._nodes[-1][0] == level:
                node = self._nodes.pop()[1].merge(node)
                level += 1
            self._nodes.append((level, node))

    def extend(self, terms: Sequence[np.ndarray]) -> None:
        """Append one run of records: one equal-length array per term."""
        if len(terms) != self._width:
            raise EstimatorError(
                f"expected {self._width} term arrays, got {len(terms)}"
            )
        arrays = [np.asarray(term, dtype=np.float64) for term in terms]
        size = arrays[0].shape[0] if arrays[0].ndim == 1 else -1
        if any(array.shape != (size,) for array in arrays):
            raise EstimatorError(
                "term arrays must be one-dimensional and of equal length, got "
                f"shapes {[array.shape for array in arrays]}"
            )
        start = 0
        if self._fill:
            start = min(BLOCK_SIZE - self._fill, size)
            for row, array in zip(self._tail, arrays):
                row[self._fill : self._fill + start] = array[:start]
            self._fill += start
            if self._fill == BLOCK_SIZE:
                self._push(_block_moments([row[None, :] for row in self._tail]))
                self._fill = 0
        full = (size - start) // BLOCK_SIZE
        if full:
            stop = start + full * BLOCK_SIZE
            self._push(
                _block_moments(
                    [array[start:stop].reshape(full, BLOCK_SIZE) for array in arrays]
                )
            )
            start = stop
        if start < size:
            self._fill = size - start
            for row, array in zip(self._tail, arrays):
                row[: self._fill] = array[start:]
        self._count += size

    def moments(self) -> Moments:
        """The summary of every record appended so far.

        Folds the tree's nodes left to right, then the tail block.
        """
        summary = None
        for _, node in self._nodes:
            summary = node if summary is None else summary.merge(node)
        if self._fill:
            (tail,) = _block_moments([row[None, : self._fill] for row in self._tail])
            summary = tail if summary is None else summary.merge(tail)
        if summary is None:
            raise EstimatorError("no records to summarise")
        return summary


def summarize(terms: Sequence[np.ndarray]) -> Moments:
    """The block-tree moments of whole term arrays (the dense case)."""
    accumulator = MomentAccumulator(len(terms))
    accumulator.extend(terms)
    return accumulator.moments()


def standard_error(square_sum: float, count: int) -> float:
    """Standard error of a mean of *count* values whose centred sum of
    squares is *square_sum*: ``sqrt(square_sum / (count − 1)) /
    sqrt(count)``, NaN below two values."""
    if count < 2:
        return float("nan")
    return math.sqrt(square_sum / (count - 1)) / math.sqrt(count)


def mean_readout(moments: Moments) -> Readout:
    """The mean of the single term and its standard error."""
    return Readout(
        value=moments.mean(0),
        std_error=standard_error(moments.comoments[0][0], moments.count),
        n=moments.count,
    )
