"""Command-line surface tying the modules into reproducible runs.

Exit codes: 0 success, 2 config error, 3 data error, 4 model error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import evaluation, modelio
from .config import load_experiment_config, parse_section
from .decisions import DecisionConfig, decide
from .dml import estimate_ite, psi_loss, train_dml
from .domain import DiagnosticSignals, from_record, to_record
from .errors import ConfigError, DataError, InvalidArgument, MissingTruth, ModelError, NodemendError, SchemaViolation
from .evaluation import adjusted_effect, counterfactual_analysis, naive_effect, run_policy_comparison
from .interpret import cate_by_feature, check_bins, check_depth, check_feature, interpret_model
from .modelio import ActionLogRecord, ActionLogger, load_model, read_events_jsonl, read_truth_jsonl, save_model
from .simulate import generate_observational_dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nodemend", description="Causal mitigation engine for unhealthy cloud nodes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate an observational dataset plus its ground-truth file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("train", help="train the two-stage model on an event file")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--final-stage", choices=["forest", "linear"], default=None)

    p = sub.add_parser("eval", help="score a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("compare", help="run the policy-comparison harness")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--policies", default=",".join(evaluation.POLICY_NAMES))
    p.add_argument("--plot-data", default=None, help="optional CSV path for downtime histograms")

    p = sub.add_parser("counterfactual", help="what-if analysis of logged actions under the model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--truth", default=None)

    p = sub.add_parser("recommend", help="decide one event from a signals JSON file")
    p.add_argument("--model", required=True)
    p.add_argument("--signals", required=True)
    p.add_argument("--decision-config", default=None, help="JSON file with decision thresholds")
    p.add_argument("--log", default="actions.jsonl", help="action log sink (JSONL, appended)")
    p.add_argument("--experiment", default="adhoc")
    p.add_argument("--node-id", default="unknown-node")
    p.add_argument("--event-id", default="adhoc-event")
    p.add_argument("--timestamp", type=int, default=0)

    p = sub.add_parser("interpret", help="extract the if-else policy and optional effect curve")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--cate-feature", default=None)
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--cate-out", default=None, help="CSV path for the effect curve (default: stdout)")

    p = sub.add_parser("abtest", help="sticky-assignment experiment with per-group KPIs")
    p.add_argument("--config", required=True)
    p.add_argument("--experiment", required=True)
    p.add_argument("--groups", required=True, help="e.g. legacy:0.5,engine:0.5")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", default=None, help="required when a group uses the engine policy")
    p.add_argument("--out", default=None)

    p = sub.add_parser("update", help="retrain on recent data and deploy only on a holdout win")
    p.add_argument("--current", required=True)
    p.add_argument("--recent", required=True)
    p.add_argument("--holdout", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--margin", type=float, default=0.0)

    return parser


def _check_outputs(*paths: str | None) -> None:
    """Refuse an output path that cannot be written before any work runs."""
    for path in paths:
        if path:
            modelio.check_writable(path)


def _cmd_simulate(args) -> int:
    cfg = load_experiment_config(args.config)
    _check_outputs(args.out, args.truth)
    events, truths = generate_observational_dataset(args.n, cfg.sim)
    modelio.write_events_jsonl(events, args.out)
    modelio.write_truth_jsonl(truths, args.truth)
    print(json.dumps({"events": len(events), "out": args.out, "truth": args.truth}, allow_nan=False))
    return 0


def _cmd_train(args) -> int:
    cfg = load_experiment_config(args.config)
    train_cfg = cfg.train
    if args.final_stage is not None:
        try:
            train_cfg = replace(train_cfg, final_stage=args.final_stage)
        except InvalidArgument as exc:
            raise ConfigError(str(exc)) from exc
    _check_outputs(args.out)
    events = read_events_jsonl(args.data, cfg.sim.schema())
    model = train_dml(events, train_cfg, cfg.sim.schema())
    save_model(model, args.out)
    print(json.dumps({"model": args.out, "n": len(events), "final_stage": train_cfg.final_stage}, allow_nan=False))
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    events = read_events_jsonl(args.data, model.schema)
    result = {
        "psi": psi_loss(model, events),
        "naive_effect": naive_effect(events),
        "adjusted_effect": adjusted_effect(model, events),
        "n": len(events),
    }
    print(json.dumps(result, sort_keys=True, allow_nan=False))
    return 0


def _cmd_compare(args) -> int:
    cfg = load_experiment_config(args.config)
    _check_outputs(args.out, args.plot_data)
    model = load_model(args.model)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    report = run_policy_comparison(policies, args.n, cfg.sim, cfg.seed, model=model, decision_config=cfg.decision)
    modelio.atomic_write_text(args.out, json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n")
    if args.plot_data:
        modelio.atomic_write_text(args.plot_data, report.histogram_csv())
    print(report.to_text_table())
    return 0


def _cmd_counterfactual(args) -> int:
    model = load_model(args.model)
    events = read_events_jsonl(args.data, model.schema)
    truths = read_truth_jsonl(args.truth) if args.truth else None
    try:
        report = counterfactual_analysis(model, events, truths)
    except MissingTruth as exc:
        raise DataError(f"truth file {args.truth} has {exc}") from exc
    print(json.dumps(to_record(report), sort_keys=True, allow_nan=False))
    return 0


def _cmd_recommend(args) -> int:
    model = load_model(args.model)
    try:
        with open(args.signals, "r", encoding="utf-8") as fh:
            signals = from_record(DiagnosticSignals, json.load(fh), "signals")
        model.schema.check(signals)
    except (OSError, ValueError, SchemaViolation) as exc:
        raise DataError(f"bad signals file {args.signals}: {exc}") from exc
    if args.decision_config:
        try:
            with open(args.decision_config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad decision config {args.decision_config}: {exc}") from exc
        cfg = parse_section(DecisionConfig, raw, "decision")
    else:
        cfg = DecisionConfig()
    # open the sink before deciding: a decision that cannot be logged is not made
    try:
        logger = ActionLogger(args.log)
    except OSError as exc:
        raise DataError(f"cannot open action log {args.log}: {exc}") from exc
    with logger:
        ite = estimate_ite(model, signals)
        decision = decide(ite, signals, cfg)
        record = ActionLogRecord(
            unhealthy_timestamp=args.timestamp,
            action_timestamp=args.timestamp + 1,
            experiment_name=args.experiment,
            model_type=model.final_stage,
            model_name="nodemend",
            model_version=model.metadata.version,
            tau=ite.tau,
            tau_lower=ite.tau_lower,
            tau_upper=ite.tau_upper,
            action=int(decision.action),
            source=decision.source.value,
            reason=decision.reason,
            node_id=args.node_id,
            event_id=args.event_id,
        )
        logger.log(record)
    print(json.dumps(decision.to_dict(), sort_keys=True, allow_nan=False))
    return 0


def _cmd_interpret(args) -> int:
    checks = [("--depth", check_depth, args.depth), ("--bins", check_bins, args.bins)]
    if args.cate_feature:
        checks.append(("--cate-feature", check_feature, args.cate_feature))
    for flag, check, value in checks:
        try:
            check(value)
        except InvalidArgument as exc:
            raise InvalidArgument(f"{flag}: {exc}") from exc
    _check_outputs(args.cate_out)
    model = load_model(args.model)
    events = read_events_jsonl(args.data, model.schema)
    tree, text = interpret_model(model, events, max_depth=args.depth)
    print(text)
    if args.cate_feature:
        curve = cate_by_feature(model, events, args.cate_feature, args.bins)
        lines = ["bin_center,mean_tau,count"] + [f"{c:.6g},{t:.6g},{n}" for c, t, n in curve]
        csv = "\n".join(lines) + "\n"
        if args.cate_out:
            modelio.atomic_write_text(args.cate_out, csv)
        else:
            print(csv, end="")
    return 0


def _parse_groups(spec: str) -> list[tuple[str, float]]:
    groups = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"group {part!r} must look like name:weight")
        name, _, weight = part.partition(":")
        try:
            value = float(weight)
        except ValueError as exc:
            raise ConfigError(f"bad weight in {part!r}") from exc
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"weight in {part!r} must be finite and positive")
        groups.append((name, value))
    if not groups:
        raise ConfigError("no groups given")
    return groups


def _cmd_abtest(args) -> int:
    cfg = load_experiment_config(args.config)
    groups = _parse_groups(args.groups)
    try:
        evaluation.check_policies([name for name, _ in groups], args.model is not None, "group names")
    except InvalidArgument as exc:
        raise ConfigError(str(exc)) from exc
    _check_outputs(args.out)
    model = load_model(args.model) if args.model else None
    report = evaluation.run_ab_experiment(
        groups, args.experiment, args.n, cfg.sim, cfg.seed, model=model, decision_config=cfg.decision
    )
    out = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        modelio.atomic_write_text(args.out, out)
    print(out, end="")
    return 0


def _finite_or_none(x: float | None) -> float | None:
    return x if x is not None and math.isfinite(x) else None


def _cmd_update(args) -> int:
    try:
        modelio.check_margin(args.margin)
    except InvalidArgument as exc:
        raise ConfigError(f"--margin: {exc}") from exc
    _check_outputs(args.out)
    current = load_model(args.current)
    # both windows must encode under the current schema, so a bad row is a
    # data error naming its line, not a failed retrain
    recent = read_events_jsonl(args.recent, current.schema)
    holdout = read_events_jsonl(args.holdout, current.schema)
    result = modelio.update_model(current, recent, holdout, margin=args.margin)
    deployed_model = result.candidate if result.deployed else current
    save_model(deployed_model, args.out)
    print(
        json.dumps(
            {
                "deployed": result.deployed,
                "reason": result.reason,
                # JSON holds no Infinity or NaN: a non-finite score prints as null
                "psi_current": _finite_or_none(result.psi_current),
                "psi_candidate": _finite_or_none(result.psi_candidate),
                "out": args.out,
            },
            sort_keys=True,
            allow_nan=False,
        )
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "counterfactual": _cmd_counterfactual,
    "recommend": _cmd_recommend,
    "interpret": _cmd_interpret,
    "abtest": _cmd_abtest,
    "update": _cmd_update,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NodemendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
