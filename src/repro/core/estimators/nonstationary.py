"""DR for non-stationary (history-dependent) policies — paper §4.2.

The paper extends the basic DR estimator to policies whose decisions
depend on the history of previous (client, decision, reward) triples,
using the rejection-sampling replay idea of Li et al.'s contextual-bandit
evaluation: maintain a *separate* history ``g`` containing only the
clients on which the new policy's sampled decision matched the logged
one.  Verbatim algorithm (§4.2):

    h_1 = ∅ (old policy history); g_1 = ∅ (new policy history); M = 0
    for k = 1..n:
      1. sample d' ~ mu_new(. | c_k, g_k)
      2. if d' == d_k:
           M += Σ_d mu_new(d|c_k, g_k) r̂(c_k, d)
                + mu_new(d_k|c_k, g_k) / mu_old(d_k|c_k, h_k) · (r_k − r̂(c_k, d_k))
           g_{k+1} = g_k ⊕ (c_k, d_k, r_k)
         else: g_{k+1} = g_k
      4. h_{k+1} = h_k ⊕ (c_k, d_k, r_k)
    return M / |g_{n+1}|

For stationary policies this reduces to basic DR restricted to a random
matched subset; the paper notes it "is identical to the basic DR under
the assumption of stationary policies" (in expectation), which our
property tests verify statistically.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.contracts import check_propensity, check_trace
from repro.core.estimators.base import EstimateResult
from repro.core.history import History, HistoryPolicy, StationaryAdapter
from repro.core.models.base import RewardModel
from repro.core.policy import Policy
from repro.core.random import ensure_rng
from repro.core.types import Trace
from repro.errors import EstimatorError, PropensityError

OldPolicyLike = Union[Policy, HistoryPolicy, None]


class ReplayDoublyRobust:
    """Rejection-sampling DR for history-dependent policies.

    Parameters
    ----------
    model:
        Reward model r̂ for the DM half; fit on the trace if not fitted.
    rng:
        Seed or generator for the rejection-sampling draws (step 1).

    Notes
    -----
    Unlike the stationary estimators this class does not subclass
    :class:`OffPolicyEstimator` — its signature differs (the new policy is
    a :class:`HistoryPolicy`, and the old policy may be one too).
    """

    #: Anticipated contract failures, mirroring
    #: :attr:`repro.core.estimators.base.OffPolicyEstimator.failure_modes`
    #: even though this estimator sits outside that hierarchy.
    failure_modes = (
        "missing-propensities",
        "propensity-violation",
        "no-matched-records",
    )

    def __init__(self, model: RewardModel, rng=None):
        self._model = model
        self._rng = ensure_rng(rng)

    @property
    def name(self) -> str:
        """Estimator name used in reports."""
        return "replay-dr"

    def estimate(
        self,
        new_policy: Union[HistoryPolicy, Policy],
        trace: Trace,
        old_policy: OldPolicyLike = None,
    ) -> EstimateResult:
        """Run the §4.2 algorithm over *trace*.

        *old_policy* may be stationary, history-dependent, or ``None``
        (in which case logged per-record propensities are required).
        """
        if len(trace) == 0:
            raise EstimatorError("cannot estimate from an empty trace")
        check_trace(trace, where=f"{self.name} input trace")
        if isinstance(new_policy, Policy):
            new_policy = StationaryAdapter(new_policy)
        if isinstance(old_policy, Policy):
            old_policy = StationaryAdapter(old_policy)
        if not self._model.fitted:
            self._model.fit(trace)

        old_history = History()
        new_history = History()
        matched_terms: list[float] = []
        for index, record in enumerate(trace):
            # Step 1: sample the new policy's decision under its own history.
            # noqa rationale: the distribution depends on the history of
            # decisions sampled for earlier records, so it cannot be
            # evaluated as one probability matrix ahead of this pass.
            new_distribution = new_policy.probabilities(  # noqa: REP007
                record.context, new_history
            )
            sampled = _sample_from(new_distribution, self._rng)
            if sampled == record.decision:
                # Step 2: DR update on this matched client.
                old_propensity = self._old_propensity(
                    old_policy, record, index, old_history
                )
                new_propensity = new_distribution.get(record.decision, 0.0)
                # noqa rationale: replay is history-dependent — each
                # record's distribution depends on the decisions sampled
                # for earlier records, so the predictions cannot be
                # batched ahead of the sequential pass.
                dm_term = sum(
                    probability
                    * self._model.predict(record.context, decision)  # noqa: REP007
                    for decision, probability in new_distribution.items()
                    if probability > 0.0
                )
                residual = record.reward - self._model.predict(  # noqa: REP007
                    record.context, record.decision
                )
                matched_terms.append(
                    dm_term + (new_propensity / old_propensity) * residual
                )
                new_history.append(record.context, record.decision, record.reward)
            # Step 4: the old policy saw every record.
            old_history.append(record.context, record.decision, record.reward)

        if not matched_terms:
            raise EstimatorError(
                "replay estimator matched no trace records; the new policy "
                "never sampled the logged decision (no overlap)"
            )
        contributions = np.asarray(matched_terms, dtype=float)
        value = float(contributions.mean())
        std_error = (
            float(contributions.std(ddof=1) / np.sqrt(contributions.size))
            if contributions.size > 1
            else float("nan")
        )
        return EstimateResult(
            value=value,
            method=self.name,
            n=len(trace),
            contributions=contributions,
            std_error=std_error,
            diagnostics={
                "match_count": int(contributions.size),
                "match_fraction": contributions.size / len(trace),
            },
        )

    def _old_propensity(
        self,
        old_policy: Optional[HistoryPolicy],
        record,
        index: int,
        old_history: History,
    ) -> float:
        if old_policy is not None:
            value = old_policy.propensity(record.decision, record.context, old_history)
        elif record.propensity is not None:
            value = record.propensity
        else:
            raise PropensityError(
                f"trace record {index} has no logged propensity and no old "
                "policy was given"
            )
        return check_propensity(
            value, where=f"old-policy propensity at record {index}"
        )


def _sample_from(distribution, rng: np.random.Generator):
    """Sample a decision from a dict distribution."""
    decisions = list(distribution.keys())
    probabilities = np.asarray([distribution[d] for d in decisions], dtype=float)
    probabilities = np.clip(probabilities, 0.0, None)
    probabilities /= probabilities.sum()
    index = rng.choice(len(decisions), p=probabilities)
    return decisions[int(index)]
