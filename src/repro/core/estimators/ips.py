"""Inverse Propensity Score (IPS) estimators.

Paper §3: *"IPS uses importance weighting to correct for the incorrect
proportions.  Concretely, the estimator is a weighted sum of rewards r_k
actually observed: V_IPS = (1/n) Σ_k [mu_new(d_k|c_k) / mu_old(d_k|c_k)] r_k."*

IPS is unbiased when the logging policy's propensities are known and
positive on the new policy's support, but its variance explodes when
``mu_old(d_k|c_k)`` is small (§4.1 "Coverage and randomness").  Two
standard variance-control variants are included:

* :class:`ClippedIPS` caps each weight at ``clip`` (biased, lower
  variance).
* :class:`SelfNormalizedIPS` divides by the sum of weights instead of n
  (consistent, usually much lower variance, invariant to reward shifts).
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np

from repro.core.estimators.base import (
    EstimateResult,
    OffPolicyEstimator,
    importance_weights,
    resolve_legacy_kwarg,
    result_from_contributions,
    result_from_readout,
    weight_diagnostics,
)
from repro.core.estimators.moments import (
    Moments,
    Readout,
    standard_error,
    summarize,
)
from repro.core.policy import Policy
from repro.core.propensity import PropensitySource
from repro.core.types import Trace
from repro.errors import EstimatorError
from repro.kernels import get_backend


class IPS(OffPolicyEstimator):
    """The plain (unnormalised) IPS estimator of the paper."""

    failure_modes = ("missing-propensities", "propensity-violation", "nonfinite-weight")

    @property
    def name(self) -> str:
        return "ips"

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        # importance_weights has already validated the array; re-checking
        # here would double the validation cost on the hot path.
        weights = importance_weights(new_policy, chunk, propensities)
        return {"weights": weights, "rewards": chunk.columns().rewards}

    def _stream_terms(self, columns: dict) -> tuple:
        weights = columns["weights"]
        return (get_backend().ips_contributions(weights, columns["rewards"]),)

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        (contributions,) = self._stream_terms(columns)
        return result_from_contributions(
            self.name, contributions, weight_diagnostics(columns["weights"])
        )


class ClippedIPS(OffPolicyEstimator):
    """IPS with importance weights clipped at ``clip``.

    Clipping trades a controlled amount of bias for bounded variance —
    the pragmatic fix when the old policy's exploration is thin.
    (``max_weight=`` is accepted as a deprecated alias for ``clip=``.)
    """

    failure_modes = ("missing-propensities", "propensity-violation")

    def __init__(self, clip: Optional[float] = None, **legacy):
        clip = resolve_legacy_kwarg(
            type(self).__name__, "clip", clip, legacy, "max_weight"
        )
        if clip is None:
            clip = 10.0
        if clip <= 0:
            raise EstimatorError(f"clip must be positive, got {clip}")
        self._clip = float(clip)

    @property
    def name(self) -> str:
        return "clipped-ips"

    @property
    def clip(self) -> float:
        """The clipping threshold."""
        return self._clip

    @property
    def max_weight(self) -> float:
        """Deprecated spelling of :attr:`clip` (kept for compatibility)."""
        warnings.warn(
            "ClippedIPS.max_weight is deprecated; read .clip instead "
            "(removal planned for 2.0, see DESIGN.md)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._clip

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        # Raw (unclipped) weights are gathered; clipping is elementwise,
        # but the clipped_fraction diagnostic needs the raw tail.
        weights = importance_weights(new_policy, chunk, propensities)
        return {"weights": weights, "rewards": chunk.columns().rewards}

    def _stream_terms(self, columns: dict) -> tuple:
        backend = get_backend()
        clipped = backend.clip_weights(columns["weights"], self._clip)
        return (backend.ips_contributions(clipped, columns["rewards"]),)

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        weights = columns["weights"]
        (contributions,) = self._stream_terms(columns)
        clipped = get_backend().clip_weights(weights, self._clip)
        diagnostics = weight_diagnostics(clipped)
        diagnostics["clipped_fraction"] = float((weights > self._clip).mean())
        return result_from_contributions(self.name, contributions, diagnostics)


class SelfNormalizedIPS(OffPolicyEstimator):
    """SNIPS: ``Σ w_k r_k / Σ w_k``.

    The weight normalisation makes the estimate invariant to additive
    reward shifts and dramatically tames variance, at the cost of a small
    finite-sample bias that vanishes as n grows.
    """

    failure_modes = ("missing-propensities", "propensity-violation", "no-overlap")

    @property
    def name(self) -> str:
        return "snips"

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        weights = importance_weights(new_policy, chunk, propensities)
        return {"weights": weights, "rewards": chunk.columns().rewards}

    def _stream_terms(self, columns: dict) -> tuple:
        weights = columns["weights"]
        return (get_backend().ips_contributions(weights, columns["rewards"]), weights)

    def _readout(self, moments: Moments) -> Readout:
        # Value Σw·r / Σw; delta-method standard error
        # sqrt(Σ (w·r − value·w)² / (Σw)² · n/(n−1)), the residual sum
        # taken from the centred co-moments of (w·r, w).
        total = moments.sums[1]
        if total <= 0:
            # The new policy never takes any logged decision: SNIPS is
            # undefined.  Surface that as a diagnostic-rich failure rather
            # than a silent 0/0.
            raise EstimatorError(
                "SNIPS undefined: the new policy puts zero probability on "
                "every logged decision (no overlap, cf. paper Fig 5)"
            )
        n = moments.count
        value = moments.sums[0] / total
        if n > 1:
            square_sum = moments.centred_square_sum(0, 1, -value)
            variance = square_sum / (total * total)
            std_error = math.sqrt(variance) * math.sqrt(n / (n - 1))
        else:
            std_error = float("nan")
        return Readout(value, std_error, n, {"weight_sum": total})

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        terms = self._stream_terms(columns)
        readout = self._readout(summarize(terms))
        return result_from_readout(
            self.name,
            readout,
            terms[0] * (n / readout.diagnostics["weight_sum"]),
            weight_diagnostics(columns["weights"]),
        )


class MatchingEstimator(OffPolicyEstimator):
    """Exact-match estimator: average reward over records whose logged
    decision is what the new policy would (deterministically) choose.

    This is the "primitive form of IPS" the paper attributes to CFA's
    overlap technique (§3): unbiased under a uniformly random logging
    policy, but its effective sample size collapses as the decision space
    grows (Fig 5).  For stochastic new policies the match is defined as
    the new policy's *greedy* decision.
    """

    requires_propensities = False

    failure_modes = ("no-overlap",)

    @property
    def name(self) -> str:
        return "matching"

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        columns = chunk.columns()
        greedy = new_policy.greedy_decision_batch(columns.contexts)
        matched = np.fromiter(
            (
                decision == chosen
                for decision, chosen in zip(columns.decisions, greedy)
            ),
            dtype=bool,
            count=len(chunk),
        )
        return {"matched": matched, "rewards": columns.rewards}

    def _stream_terms(self, columns: dict) -> tuple:
        matched = columns["matched"].astype(np.float64)
        return (matched * columns["rewards"], matched)

    def _readout(self, moments: Moments) -> Readout:
        # The mean reward over matched records: n is the match count,
        # and Σ_matched (r − value)² = Σ (m·r − value·m)² over all
        # records, from the centred co-moments of (m·r, m).
        matched = moments.sums[1]
        if matched <= 0:
            raise EstimatorError(
                "matching estimator found no records whose logged decision "
                "equals the new policy's decision (no overlap, cf. paper Fig 5)"
            )
        value = moments.sums[0] / matched
        count = int(matched)
        return Readout(
            value,
            standard_error(moments.centred_square_sum(0, 1, -value), count),
            count,
            {"match_count": count, "match_fraction": count / moments.count},
        )

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        return result_from_readout(
            self.name,
            self._readout(summarize(self._stream_terms(columns))),
            columns["rewards"][columns["matched"]],
        )
