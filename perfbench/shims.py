"""Timing shims around the public ``repro`` calls each layer exposes.

The traced runs install these; the untraced runs never import this
module, so their numbers carry no shim cost.  Each shim is a wrapper the
benchmark owns around a public function or method: nothing inside
``src/repro`` is edited.
"""

from __future__ import annotations

from typing import Dict

import repro.api
import repro.store
from repro.cbn.scenario import WiseScenario
from repro.cbn.wise import WiseRewardModel
from repro.core.estimators.base import OffPolicyEstimator
from repro.core.models.base import RewardModel
from repro.core.models.tabular import TabularMeanModel
from repro.core.reporting import EvaluationReport
from repro.experiments import fig7
from repro.live.changepoint import OnlineChangePointDetector
from repro.live.confidence import ConfidenceSequence, RatioConfidenceSequence
from repro.live.incremental import IncrementalEstimator
from repro.live.watch import LiveWatch
from repro.workloads.drift import LiveTrafficGenerator

from harness import Tracer

PREDICT_METHODS = (
    "predict",
    "predict_batch",
    "predict_trace",
    "predict_trace_for_decision",
    "predict_batch_for_indices",
)

#: Span name -> (per-layer metric, unit factor from seconds).  A span
#: recorded under a root op must appear here, so that the self times
#: plus ``obs.other_s`` add up to the traced wall time.
SCALE: Dict[str, tuple] = {
    "store.parse": ("store.parse_s", 1.0),
    "store.write_shards": ("store.write_s", 1.0),
    "core.diagnostics.overlap": ("core.diagnostics.overlap_s", 1.0),
    "core.estimators.dm": ("core.estimators.dm_s", 1.0),
    "core.estimators.snips": ("core.estimators.snips_s", 1.0),
    "core.estimators.dr": ("core.estimators.dr_s", 1.0),
    "core.models.fit": ("core.models.fit_s", 1.0),
    "core.models.predict": ("core.models.predict_s", 1.0),
    "core.reporting.to_json": ("core.reporting.to_json_s", 1.0),
    "api.compare": ("api.compare.self_s", 1.0),
    "api.evaluate": ("api.evaluate_s", 1.0),
    "live.process": ("live.process_self_ms", 1e3),
    "live.readout": ("live.readout_self_ms", 1e3),
    "live.observe": ("live.observe_ms", 1e3),
    "live.cs_update": ("live.cs_update_ms", 1e3),
    "live.changepoint": ("live.changepoint_ms", 1e3),
    "cbn.generate": ("cbn.generate_s", 1.0),
    "cbn.fit": ("cbn.fit_s", 1.0),
    "experiments.run_fig7a": ("experiments.harness_self_s", 1.0),
}


def _model_fit_name(model) -> str:
    return "cbn.fit" if isinstance(model, WiseRewardModel) else "core.models.fit"


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the workloads reach."""
    tracer.wrap_generator(repro.store, "iter_jsonl_records", "store.parse")
    tracer.wrap(repro.store, "write_shards", "store.write_shards")
    # The facade imported overlap_report by name; its call site looks it
    # up in the facade's namespace.
    tracer.wrap(repro.api, "overlap_report", "core.diagnostics.overlap")
    tracer.wrap(repro.api, "compare", "api.compare")
    tracer.wrap(repro.api, "evaluate", "api.evaluate")
    tracer.wrap(
        OffPolicyEstimator, "estimate", lambda estimator: f"core.estimators.{estimator.name}"
    )
    tracer.wrap(RewardModel, "fit", _model_fit_name)
    for model_class in (RewardModel, TabularMeanModel, WiseRewardModel):
        for method in PREDICT_METHODS:
            if method in model_class.__dict__:
                tracer.wrap(model_class, method, "core.models.predict")
    tracer.wrap(EvaluationReport, "to_json", "core.reporting.to_json")
    tracer.wrap(WiseScenario, "generate_trace", "cbn.generate")
    tracer.wrap(fig7, "run_fig7a", "experiments.run_fig7a")
    tracer.wrap(LiveWatch, "process", "live.process")
    tracer.wrap(LiveWatch, "report", "live.readout")
    tracer.wrap(IncrementalEstimator, "observe_chunk", "live.observe")
    tracer.wrap(ConfidenceSequence, "update", "live.cs_update")
    tracer.wrap(RatioConfidenceSequence, "update", "live.cs_update")
    tracer.wrap(OnlineChangePointDetector, "update", "live.changepoint")
    tracer.wrap(LiveTrafficGenerator, "next_batch", "workloads.drift.next_batch")
