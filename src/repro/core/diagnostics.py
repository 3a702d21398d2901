"""Pre-flight diagnostics for trace-driven evaluation.

Before trusting any estimate, the paper's pitfalls (§2.2) suggest
checking (a) how much *overlap* there is between the old and new policy,
(b) how much *randomness* the logging policy actually had, and (c) how
thin the coverage of specific subpopulations is.  This module computes
those checks and renders them as a human-readable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.contracts import check_weights
from repro.core.estimators.base import weight_diagnostics
from repro.core.policy import Policy, greedy_columns
from repro.core.propensity import PropensityModel, resolve_propensity_source
from repro.core.spaces import DecisionSpace
from repro.core.types import Decision, Trace, TraceColumns
from repro.errors import EstimatorError


@dataclass(frozen=True)
class OverlapReport:
    """Summary of the old/new policy overlap on a trace.

    Attributes
    ----------
    n:
        Trace length.
    ess:
        Kish effective sample size of the importance weights; ``ess << n``
        is the high-variance regime of §2.2.2.
    match_fraction:
        Fraction of records whose logged decision is the new policy's
        greedy decision (the CFA matching coverage of Fig 5).
    max_weight, mean_weight:
        Importance-weight tail indicators.
    zero_weight_fraction:
        Records the new policy would never take (wasted by IPS).
    min_propensity:
        Smallest logging propensity among used records — the denominator
        the paper warns about ("term in the denominator ... will be very
        small", §4.1).
    decision_coverage:
        Per-decision record counts in the trace.
    warnings:
        Human-readable red flags.
    """

    n: int
    ess: float
    match_fraction: float
    max_weight: float
    mean_weight: float
    zero_weight_fraction: float
    min_propensity: float
    decision_coverage: Dict[Decision, int] = field(default_factory=dict)
    warnings: Tuple[str, ...] = ()

    def healthy(self) -> bool:
        """``True`` when no warnings fired."""
        return not self.warnings

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"overlap report over n={self.n} records",
            f"  effective sample size : {self.ess:10.1f} ({self.ess / self.n:6.1%} of n)",
            f"  exact-match fraction  : {self.match_fraction:10.3f}",
            f"  importance weights    : mean={self.mean_weight:.3f} max={self.max_weight:.3f}",
            f"  zero-weight fraction  : {self.zero_weight_fraction:10.3f}",
            f"  min logged propensity : {self.min_propensity:10.6f}",
        ]
        if self.warnings:
            lines.append("  warnings:")
            lines.extend(f"    - {warning}" for warning in self.warnings)
        else:
            lines.append("  no warnings")
        return "\n".join(lines)


def overlap_report(
    new_policy: Policy,
    trace: Trace,
    old_policy: Optional[Policy] = None,
    propensity_model: Optional[PropensityModel] = None,
    ess_warning_fraction: float = 0.1,
    weight_warning: float = 50.0,
) -> OverlapReport:
    """Compute an :class:`OverlapReport` for evaluating *new_policy* on *trace*.

    One columnar pass over the trace's chunks (a dense :class:`Trace`
    is the single chunk; a :class:`~repro.store.ShardedTrace` is read in
    bounded memory and never materialised).  Per chunk, the logging
    propensities come from the source's ``propensity_batch`` and one
    :meth:`~repro.core.policy.Policy.probability_matrix` yields both the
    new policy's propensities and its greedy decisions.  Weights and
    propensities are gathered into trace-length buffers and reduced once
    (as estimators' weight diagnostics are, DESIGN.md §10.3), so every field is
    bit-identical for every chunking.  Under ``on_corruption=
    "quarantine"`` the report covers exactly the surviving records.
    """
    from repro.kernels import get_backend  # local: keeps repro.core import-light
    from repro.store.streaming import scan_chunks  # repro.store depends on repro.core

    source = resolve_propensity_source(trace, old_policy, propensity_model)
    space = new_policy.space
    weights = np.empty(len(trace), dtype=float)
    propensities = np.empty(len(trace), dtype=float)
    coverage: Dict[Decision, int] = {}
    matches = 0
    n = 0
    for cursor, chunk in scan_chunks(trace):
        columns = chunk.columns()
        n = cursor + len(chunk)
        old = source.propensity_batch(chunk)
        logged = _logged_columns(space, columns, coverage)
        matrix = new_policy.probability_matrix(columns.contexts)
        new = matrix[np.arange(len(logged)), logged]
        weights[cursor:n] = get_backend().importance_ratio(new, old)
        propensities[cursor:n] = old
        matches += int(np.count_nonzero(greedy_columns(matrix) == logged))
    if n == 0:
        raise EstimatorError("cannot compute overlap diagnostics on an empty trace")
    weights = check_weights(weights[:n], where="importance weights").values
    stats = weight_diagnostics(weights)

    warnings: List[str] = []
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
        min_propensity=float(propensities[:n].min()),
        decision_coverage=coverage,
        warnings=tuple(warnings),
    )


def _logged_columns(
    space: DecisionSpace, columns: TraceColumns, coverage: Dict[Decision, int]
) -> np.ndarray:
    """Space positions of a chunk's logged decisions, counting coverage.

    Walks the chunk's distinct decision codes in first-occurrence order,
    so *coverage* (merged across chunks) keeps the trace's
    first-occurrence key order, and a decision outside *space* raises
    the same :class:`~repro.errors.PolicyError` the per-record
    ``propensity`` validation would, for the first offending record.
    """
    codes = columns.decision_codes
    used, first, counts = np.unique(codes, return_index=True, return_counts=True)
    positions = np.zeros(len(columns.decision_vocabulary), dtype=np.intp)
    for rank in np.argsort(first):
        code = int(used[rank])
        decision = columns.decision_vocabulary[code]
        positions[code] = space.index_of(decision)
        coverage[decision] = coverage.get(decision, 0) + int(counts[rank])
    return positions[codes]


@dataclass(frozen=True)
class RandomnessReport:
    """How stochastic the *logging* policy actually was (§4.1).

    A deterministic logging policy (``min_entropy == 0`` everywhere and
    every propensity 1.0) cannot support IPS/DR at all for decisions it
    never took.
    """

    n: int
    mean_entropy: float
    min_entropy: float
    deterministic_fraction: float

    def render(self) -> str:
        """One-line summary."""
        return (
            f"logging randomness: mean entropy {self.mean_entropy:.3f} nats, "
            f"min {self.min_entropy:.3f}, deterministic on "
            f"{self.deterministic_fraction:.0%} of contexts"
        )


def randomness_report(old_policy: Policy, trace: Trace) -> RandomnessReport:
    """Entropy statistics of *old_policy* over the trace's contexts.

    Columnar, like :func:`overlap_report`: one
    :meth:`~repro.core.policy.Policy.probability_matrix` per chunk, the
    per-context entropies gathered and reduced once.  Each entropy sums
    ``-p log p`` over the positive entries in space order, which is
    bit-identical to summing the policy's ``probabilities()`` values
    whenever that distribution lists its decisions in space order (every
    built-in family does).
    """
    from repro.store.streaming import scan_chunks  # repro.store depends on repro.core

    entropies = np.empty(len(trace), dtype=float)
    n = 0
    for cursor, chunk in scan_chunks(trace):
        n = cursor + len(chunk)
        matrix = old_policy.probability_matrix(chunk.columns().contexts)
        entropies[cursor:n] = _row_entropies(matrix)
    entropies = entropies[:n]
    return RandomnessReport(
        n=n,
        mean_entropy=float(entropies.mean()),
        min_entropy=float(entropies.min()),
        deterministic_fraction=int(np.count_nonzero(entropies < 1e-9)) / n,
    )


def _row_entropies(matrix: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each row over its positive entries.

    Rows are grouped by support size so each group's positive entries
    pack into a dense block whose row sums run the same numpy reduction,
    element for element, as summing one row's positive entries alone.
    """
    positive = matrix > 0
    support = positive.sum(axis=1)
    entropies = np.empty(len(matrix), dtype=float)
    for width in np.unique(support):
        rows = support == width
        packed = matrix[rows][positive[rows]].reshape(int(rows.sum()), int(width))
        entropies[rows] = -(packed * np.log(packed)).sum(axis=1)
    return entropies
