"""Which nodemend entry points the traced run wraps, and the per-layer
metrics derived from the spans and counts they record.

Each entry is wrapped where its caller looks it up, so one function can
appear under several owners (``dml.train_dml`` is called by the benchmark,
``modelio.train_dml`` by ``update_model``); all aliases share a span name.
"""

from __future__ import annotations

import statistics

from tracer import Tracer, summarize

POLICIES = ("random", "legacy", "always_reboot", "always_redeploy", "engine", "oracle")
SOURCES = ("Model", "Fallback", "CapacityOverride", "RepeatOverride")

PER_LAYER = (
    "learners.crossfit_outcome_s",
    "learners.crossfit_propensity_s",
    "learners.trees_fit",
    "learners.predict_s",
    "forest.fit_s",
    "forest.nodes",
    "forest.predict_single_ms",
    "forest.single_row_calls",
    "forest.predict_batch_s",
    "forest.predict_batch_rows",
    "dml.train_self_s",
    "dml.psi_s",
    "domain.encode_matrix_s",
    "domain.encode_features_us",
    "decisions.decide_us",
    *(f"decisions.source.{s}" for s in SOURCES),
    "simulate.sample_event_s",
    "simulate.potential_outcomes_s",
    "simulate.step_node_s",
    "simulate.events",
    "simulate.chain_steps",
    *(f"evaluation.policy.{p}_s" for p in POLICIES),
    "evaluation.counterfactual_s",
    "interpret.policy_tree_s",
    "interpret.cate_s",
    "modelio.read_events_s",
    "modelio.save_s",
    "modelio.model_bytes",
    "modelio.load_s",
    "modelio.log_us",
    "trace.spans",
    "trace.overhead_est_s",
)

UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_bytes": "bytes"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _rows(args, kwargs) -> int:
    X = args[1] if len(args) > 1 else kwargs.get("X")
    shape = getattr(X, "shape", None)
    return int(shape[0]) if shape and len(shape) == 2 else 1


def install(tracer: Tracer, nm) -> None:
    """Wrap the layer entry points of the ``nodemend`` package ``nm``."""
    dml, evaluation, interpret, modelio = nm.dml, nm.evaluation, nm.interpret, nm.modelio
    counts = tracer.counts

    def count_trees(args, kwargs, result):
        counts["learners.trees_fit"] += sum(len(getattr(lr, "trees", ())) for lr in result[1])

    def count_nodes(args, kwargs, result):
        counts["forest.nodes"] += sum(len(t.feature) for t in getattr(result, "trees", ()))

    def count_rows(args, kwargs, result):
        rows = _rows(args, kwargs)
        counts["forest.predict_batch_rows" if rows > 1 else "forest.single_row_calls"] += rows if rows > 1 else 1

    def count_theta_rows(args, kwargs, result):
        counts["forest.predict_batch_rows"] += _rows(args, kwargs)

    def count_source(args, kwargs, result):
        counts[f"decisions.source.{result.source.value}"] += 1

    def crossfit_name(args, kwargs):
        mode = kwargs.get("mode", args[4] if len(args) > 4 else "regression")
        return "learners.crossfit_outcome" if mode == "regression" else "learners.crossfit_propensity"

    def predict_name(args, kwargs):
        return "forest.predict_batch" if _rows(args, kwargs) > 1 else "forest.predict_single"

    plan = [
        (dml, "crossfit_predict", crossfit_name, count_trees),
        (dml, "fit_forest", "forest.fit_forest", count_nodes),
        (dml, "predict_tau_ci", predict_name, count_rows),
        (dml, "theta_values", "forest.predict_batch", count_theta_rows),
        (dml, "nuisance_predictions", "learners.predict", None),
        (dml, "encode_matrix", "domain.encode_matrix", None),
        (nm.domain, "encode_matrix", "domain.encode_matrix", None),
        (dml, "encode_features", "domain.encode_features", None),
        (dml, "train_dml", "dml.train_dml", None),
        (modelio, "train_dml", "dml.train_dml", None),
        (dml, "psi_loss", "dml.psi_loss", None),
        (modelio, "psi_loss", "dml.psi_loss", None),
        (dml, "estimate_ite", "dml.estimate_ite", None),
        (evaluation, "estimate_ite", "dml.estimate_ite", None),
        (dml, "estimate_ite_batch", "dml.estimate_ite_batch", None),
        (evaluation, "estimate_ite_batch", "dml.estimate_ite_batch", None),
        (interpret, "estimate_ite_batch", "dml.estimate_ite_batch", None),
        (nm.decisions, "decide", "decisions.decide", count_source),
        (evaluation, "decide", "decisions.decide", count_source),
        (evaluation, "sample_event", "simulate.sample_event", None),
        (evaluation, "potential_outcomes", "simulate.potential_outcomes", None),
        (evaluation, "step_node", "simulate.step_node", None),
        (evaluation, "_run_one_policy", lambda a, k: f"evaluation.policy.{a[0].name}", None),
        (evaluation.EnginePolicy, "prepare", "evaluation.policy.engine", None),
        (evaluation, "run_policy_comparison", "evaluation.run_policy_comparison", None),
        (evaluation, "counterfactual_analysis", "evaluation.counterfactual_analysis", None),
        (interpret, "fit_policy_tree", "interpret.fit_policy_tree", None),
        (interpret, "cate_by_feature", "interpret.cate_by_feature", None),
        (interpret, "interpret_model", "interpret.interpret_model", None),
        (modelio, "read_events_jsonl", "modelio.read_events_jsonl", None),
        (modelio, "save_model", "modelio.save_model", None),
        (modelio, "load_model", "modelio.load_model", None),
        (modelio, "update_model", "modelio.update_model", None),
        (modelio.ActionLogger, "log", "modelio.log", None),
    ]
    for owner, attr, name, on_result in plan:
        tracer.wrap(owner, attr, name, on_result)


def metrics(tracer: Tracer, span_cost_s: float) -> dict[str, float]:
    """Every PER_LAYER metric; a layer the workload never entered reads 0."""
    by_name = summarize(tracer.spans)

    def total(name: str) -> float:
        return by_name.get(name, {}).get("total_s", 0.0)

    def mean(name: str, scale: float) -> float:
        row = by_name.get(name)
        return row["total_s"] / row["calls"] * scale if row else 0.0

    counts = tracer.counts
    single = [end - start for name, start, end, _, _ in tracer.spans if name == "forest.predict_single"]
    out = {
        "learners.crossfit_outcome_s": total("learners.crossfit_outcome"),
        "learners.crossfit_propensity_s": total("learners.crossfit_propensity"),
        "learners.trees_fit": counts["learners.trees_fit"],
        "learners.predict_s": total("learners.predict"),
        "forest.fit_s": total("forest.fit_forest"),
        "forest.nodes": counts["forest.nodes"],
        "forest.predict_single_ms": statistics.median(single) * 1e3 if single else 0.0,
        "forest.single_row_calls": counts["forest.single_row_calls"],
        "forest.predict_batch_s": total("forest.predict_batch"),
        "forest.predict_batch_rows": counts["forest.predict_batch_rows"],
        "dml.train_self_s": by_name.get("dml.train_dml", {}).get("self_s", 0.0),
        "dml.psi_s": total("dml.psi_loss"),
        "domain.encode_matrix_s": total("domain.encode_matrix"),
        "domain.encode_features_us": mean("domain.encode_features", 1e6),
        "decisions.decide_us": mean("decisions.decide", 1e6),
        "simulate.sample_event_s": total("simulate.sample_event"),
        "simulate.potential_outcomes_s": total("simulate.potential_outcomes"),
        "simulate.step_node_s": total("simulate.step_node"),
        "simulate.events": by_name.get("simulate.sample_event", {}).get("calls", 0),
        "simulate.chain_steps": by_name.get("simulate.step_node", {}).get("calls", 0),
        "evaluation.counterfactual_s": total("evaluation.counterfactual_analysis"),
        "interpret.policy_tree_s": total("interpret.fit_policy_tree"),
        "interpret.cate_s": total("interpret.cate_by_feature"),
        "modelio.read_events_s": total("modelio.read_events_jsonl"),
        "modelio.save_s": total("modelio.save_model"),
        "modelio.model_bytes": counts["modelio.model_bytes"],
        "modelio.load_s": total("modelio.load_model"),
        "modelio.log_us": mean("modelio.log", 1e6),
        "trace.spans": len(tracer.spans),
        "trace.overhead_est_s": len(tracer.spans) * span_cost_s,
    }
    for source in SOURCES:
        out[f"decisions.source.{source}"] = counts[f"decisions.source.{source}"]
    for policy in POLICIES:
        out[f"evaluation.policy.{policy}_s"] = total(f"evaluation.policy.{policy}")
    return {name: out[name] for name in PER_LAYER}
