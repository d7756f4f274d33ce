import json
import math
import os
import re
import shutil
import warnings

import pytest

from nodemend import cli, evaluation, modelio
from nodemend.cli import main
from nodemend.errors import ModelIntegrityError, ModelVersionError
from nodemend.modelio import load_model, read_action_log, read_events_jsonl

from conftest import drop_last_tree, reseal


FAST_CONFIG = {
    "seed": 17,
    "sim": {"preset": "default"},
    "nuisance": {"rounds": 60},
    "folds": 3,
    "forest": {"bags": 6, "trees_per_bag": 4, "max_depth": 6},
    "decision": {},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(FAST_CONFIG))
    events = root / "events.jsonl"
    truth = root / "truth.jsonl"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(events), "--truth", str(truth), "--n", "500"]) == 0
    model = root / "model.bin"
    assert main(["train", "--config", str(cfg_path), "--data", str(events), "--out", str(model)]) == 0
    return {"root": root, "config": cfg_path, "events": events, "truth": truth, "model": model}


def test_simulate_outputs(workspace):
    events = read_events_jsonl(str(workspace["events"]))
    assert len(events) == 500
    # determinism: a second run writes identical bytes
    out2 = workspace["root"] / "events2.jsonl"
    truth2 = workspace["root"] / "truth2.jsonl"
    assert main(["simulate", "--config", str(workspace["config"]), "--out", str(out2), "--truth", str(truth2), "--n", "500"]) == 0
    assert out2.read_bytes() == workspace["events"].read_bytes()
    assert truth2.read_bytes() == workspace["truth"].read_bytes()


def test_train_and_linear_override(workspace, capsys):
    model = load_model(str(workspace["model"]))
    assert model.final_stage == "forest"
    lin_path = workspace["root"] / "model_linear.bin"
    assert (
        main(
            [
                "train",
                "--config",
                str(workspace["config"]),
                "--data",
                str(workspace["events"]),
                "--out",
                str(lin_path),
                "--final-stage",
                "linear",
            ]
        )
        == 0
    )
    assert load_model(str(lin_path)).final_stage == "linear"


def test_eval_prints_scores(workspace, capsys):
    assert main(["eval", "--model", str(workspace["model"]), "--data", str(workspace["events"])]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert set(out) == {"psi", "naive_effect", "adjusted_effect", "n"}
    assert out["psi"] >= 0.0


def test_compare_writes_report(workspace, capsys):
    report_path = workspace["root"] / "report.json"
    csv_path = workspace["root"] / "hist.csv"
    rc = main(
        [
            "compare",
            "--config",
            str(workspace["config"]),
            "--model",
            str(workspace["model"]),
            "--n",
            "300",
            "--out",
            str(report_path),
            "--policies",
            "legacy,engine,oracle",
            "--plot-data",
            str(csv_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert set(report["policies"]) == {"legacy", "engine", "oracle"}
    table = capsys.readouterr().out
    assert "policy" in table and "oracle" in table
    assert csv_path.read_text().startswith("policy,bin_left,bin_right,count")


@pytest.mark.parametrize("policies", [",", "legacy,legacy"])
def test_compare_refuses_an_empty_or_repeated_policy_list(workspace, capsys, policies):
    report_path = workspace["root"] / "refused.json"
    argv = ["compare", "--config", str(workspace["config"]), "--model", str(workspace["model"]), "--n", "50",
            "--out", str(report_path), "--policies", policies]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "error: policies must be a non-empty list of distinct names" in err
    assert not report_path.exists()


def test_counterfactual_output(workspace, capsys):
    rc = main(
        [
            "counterfactual",
            "--model",
            str(workspace["model"]),
            "--data",
            str(workspace["events"]),
            "--truth",
            str(workspace["truth"]),
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip())
    total = out["agree_fraction"] + out["switch_to_reboot_fraction"] + out["switch_to_redeploy_fraction"]
    assert total == pytest.approx(1.0, abs=1e-9)
    assert out["true_saving_to_reboot"] is not None


def test_counterfactual_refuses_a_truth_file_missing_an_event(workspace, tmp_path, capsys, monkeypatch):
    # the truth file holds the first 100 of the 500 events: refused as a data
    # error naming the file and the first event it lacks, before any estimate
    monkeypatch.setattr(evaluation, "estimate_ite_batch", lambda *a, **k: pytest.fail("estimate_ite_batch ran"))
    truth = tmp_path / "truth.jsonl"
    truth.write_text("".join(workspace["truth"].read_text().splitlines(keepends=True)[:100]))
    argv = ["counterfactual", "--model", str(workspace["model"]), "--data", str(workspace["events"]), "--truth", str(truth)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"data error: truth file {truth} has no record of event ev-00000100" in captured.err
    assert captured.out == ""


def test_recommend_logs_action(workspace, capsys):
    signals_path = workspace["root"] / "signals.json"
    signals_path.write_text(
        json.dumps(
            {
                "vm_count": 3,
                "has_important_workload": True,
                "network_ok": False,
                "error_code": "hw_failure",
                "repeat_count": 2,
                "uncorrectable_tag": False,
                "hardware_type": "gen4_compute",
                "session_type": "standard",
            }
        )
    )
    log_path = workspace["root"] / "actions.jsonl"
    rc = main(
        [
            "recommend",
            "--model",
            str(workspace["model"]),
            "--signals",
            str(signals_path),
            "--log",
            str(log_path),
            "--node-id",
            "node-xyz",
            "--timestamp",
            "500",
        ]
    )
    assert rc == 0
    decision = json.loads(capsys.readouterr().out.strip())
    assert decision["action"] in (0, 1)
    assert decision["source"] in ("Model", "Fallback", "CapacityOverride", "RepeatOverride")
    records = read_action_log(str(log_path))
    assert len(records) == 1
    assert records[0].node_id == "node-xyz"
    assert records[0].action_timestamp >= records[0].unhealthy_timestamp
    # a second call appends
    assert main(["recommend", "--model", str(workspace["model"]), "--signals", str(signals_path), "--log", str(log_path)]) == 0
    assert len(read_action_log(str(log_path))) == 2


def test_interpret_outputs_tree_and_curve(workspace, capsys):
    curve_path = workspace["root"] / "cate.csv"
    rc = main(
        [
            "interpret",
            "--model",
            str(workspace["model"]),
            "--data",
            str(workspace["events"]),
            "--depth",
            "2",
            "--cate-feature",
            "vm_count",
            "--bins",
            "4",
            "--cate-out",
            str(curve_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "→ Reboot" in out or "→ Redeploy" in out
    lines = curve_path.read_text().strip().splitlines()
    assert lines[0] == "bin_center,mean_tau,count"
    assert len(lines) >= 2


def test_abtest_runs_groups(workspace, capsys):
    rc = main(
        [
            "abtest",
            "--config",
            str(workspace["config"]),
            "--experiment",
            "cli-ab",
            "--groups",
            "legacy:0.5,engine:0.5",
            "--n",
            "300",
            "--model",
            str(workspace["model"]),
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["experiment"] == "cli-ab"
    assert set(out["groups"]) <= {"legacy", "engine"}
    assert sum(out["assignment_counts"].values()) == 300


def test_abtest_engine_requires_model(workspace, capsys):
    rc = main(
        [
            "abtest",
            "--config",
            str(workspace["config"]),
            "--experiment",
            "x",
            "--groups",
            "legacy:0.5,engine:0.5",
            "--n",
            "10",
        ]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "groups, message",
    [
        ("legacy:1,legacy:1", "group names must be a non-empty list of distinct names"),
        ("legacy:1,bogus:1", "unknown policy 'bogus'"),
    ],
)
def test_abtest_refuses_a_bad_group_list_as_a_config_error(workspace, capsys, monkeypatch, groups, message):
    # refused by the policy-list check before any model loads or event is drawn
    monkeypatch.setattr(evaluation, "run_ab_experiment", lambda *a, **k: pytest.fail("run_ab_experiment ran"))
    monkeypatch.setattr(cli, "load_model", lambda *a, **k: pytest.fail("load_model ran"))
    rc = main(["abtest", "--config", str(workspace["config"]), "--experiment", "x", "--groups", groups, "--n", "200"])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"config error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("weight", ["inf", "nan", "-inf", "0", "-1"])
def test_abtest_refuses_a_weight_that_is_not_finite_and_positive(workspace, capsys, weight):
    groups = f"legacy:{weight},oracle:1"
    rc = main(["abtest", "--config", str(workspace["config"]), "--experiment", "x", "--groups", groups, "--n", "200"])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"legacy:{weight}" in captured.err and "finite and positive" in captured.err
    assert captured.out == ""


def test_forest_depth_past_the_keyed_bound_is_a_config_error(workspace, tmp_path, capsys, monkeypatch):
    # a node's feature draw is keyed by its heap position, below 2^32 only
    # up to depth 32: a deeper forest is refused before any data is read
    monkeypatch.setattr(cli, "read_events_jsonl", lambda *a, **k: pytest.fail("read_events_jsonl ran"))
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text(json.dumps({**FAST_CONFIG, "forest": {"max_depth": 40}}))
    argv = ["train", "--config", str(cfg_path), "--data", str(workspace["events"]), "--out", str(tmp_path / "model.bin")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err and "max_depth must be <= 32, got 40" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_update_gate(workspace, capsys):
    out_path = workspace["root"] / "updated.bin"
    rc = main(
        [
            "update",
            "--current",
            str(workspace["model"]),
            "--recent",
            str(workspace["events"]),
            "--holdout",
            str(workspace["events"]),
            "--out",
            str(out_path),
        ]
    )
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip())
    assert result["deployed"] in (True, False)
    assert os.path.exists(out_path)
    load_model(str(out_path))


def test_update_refuses_a_candidate_whose_holdout_score_is_not_finite(tmp_path, capsys):
    # one outcome of 1e160 in the recent window overflows the candidate's
    # holdout psi; the gate refuses it by name and prints plain JSON
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 5, "sim": {"preset": "two_regime"}}))
    events, model = tmp_path / "events.jsonl", tmp_path / "model.bin"
    assert main(["simulate", "--config", str(cfg), "--n", "2000", "--out", str(events), "--truth", str(tmp_path / "truth.jsonl")]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(events), "--out", str(model)]) == 0
    lines = events.read_text().splitlines()[:1500]
    row = json.loads(lines[7])
    row["avd"] = 1e160
    lines[7] = json.dumps(row)
    recent = tmp_path / "recent.jsonl"
    recent.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "updated.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        rc = main(["update", "--current", str(model), "--recent", str(recent), "--holdout", str(events), "--out", str(out)])
    assert rc == 0

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    result = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert result["deployed"] is False
    assert result["reason"] == "candidate holdout score is not finite"
    assert result["psi_candidate"] is None and math.isfinite(result["psi_current"])
    assert out.read_bytes() == model.read_bytes()


def test_exit_code_config_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1, "wrong_key": 2}))
    rc = main(["simulate", "--config", str(bad), "--out", "x", "--truth", "y", "--n", "5"])
    assert rc == 2


def test_exit_code_data_error(workspace, capsys):
    rc = main(["eval", "--model", str(workspace["model"]), "--data", "/nonexistent/path.jsonl"])
    assert rc == 3


def test_exit_code_model_error(workspace, tmp_path, capsys):
    broken = tmp_path / "broken.bin"
    broken.write_text("not a model at all")
    rc = main(["eval", "--model", str(broken), "--data", str(workspace["events"])])
    assert rc == 4


def test_missing_model_file_is_a_model_error(workspace, tmp_path, capsys):
    missing = tmp_path / "no_such_model.bin"
    rc = main(["eval", "--model", str(missing), "--data", str(workspace["events"])])
    assert rc == 4
    err = capsys.readouterr().err
    assert "model error:" in err
    assert str(missing) in err


def test_recommend_unwritable_log_is_a_data_error(workspace, tmp_path, capsys):
    signals_path = tmp_path / "signals.json"
    signals_path.write_text(json.dumps(json.loads(workspace["events"].read_text().splitlines()[0])["signals"]))
    log_path = tmp_path / "no_such_dir" / "actions.jsonl"
    rc = main(["recommend", "--model", str(workspace["model"]), "--signals", str(signals_path), "--log", str(log_path)])
    assert rc == 3
    out, err = capsys.readouterr()
    assert "data error:" in err
    assert str(log_path) in err
    assert out == ""


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.pop("schema"),
        lambda p: p.pop("forest"),
        lambda p: p["train_config"].update(final_stage="boosted"),
        lambda p: p["train_config"].update(folds="five"),
        lambda p: p.update(outcome_learners="gbm"),
        lambda p: p["train_config"]["learner"].update(rounds=3.5),
        lambda p: p["schema"].update(colour="red"),
        lambda p: p["forest"]["params"].update(max_depth=True),
    ],
    ids=["no_schema", "no_forest", "bad_final_stage", "bad_folds", "bad_learners", "float_rounds", "schema_key", "bool_depth"],
)
def test_malformed_payload_with_valid_checksum_is_a_model_error(workspace, tmp_path, capsys, edit):
    bad = tmp_path / "malformed.bin"
    shutil.copy(workspace["model"], bad)
    reseal(bad, edit)
    with pytest.raises(ModelIntegrityError):
        load_model(str(bad))
    assert main(["eval", "--model", str(bad), "--data", str(workspace["events"])]) == 4


def _first(feature, leaf):
    """Index of a tree's first leaf (or split) node, given its feature column."""
    return next(i for i, f in enumerate(feature) if (f < 0) == leaf)


def _split_on_feature_99(p):
    trees = p["forest"]["trees"]
    trees["feature"][_first(trees["feature"], leaf=False)] = 99


def _nan_forest_leaf(p):
    trees = p["forest"]["trees"]
    trees["value"][_first(trees["feature"], leaf=True)] = float("nan")


def _inf_gbm_leaf(p):
    trees = p["outcome_learners"][0]["trees"]
    trees["value"][_first(trees["feature"], leaf=True)] = float("inf")


def _negative_n_estimate(p):
    p["forest"]["trees"]["count"][0] = -1


def _swap_roots(p):
    roots = p["forest"]["trees"]["roots"]
    roots[1], roots[2] = roots[2], roots[1]


def _child_in_next_tree(p):
    # the first tree's last node moves into the second: a split of the first
    # tree would have its right child in the next tree
    p["forest"]["trees"]["roots"][1] -= 1


ROOTS = "tree roots must start at 0 and rise strictly inside the node columns"


@pytest.mark.parametrize(
    "edit,cause",
    [
        (_split_on_feature_99, "trees split on feature 99, rows have 18 columns"),
        (_nan_forest_leaf, "model.forest.trees.value must be a list of finite numbers"),
        (_inf_gbm_leaf, "model.outcome_learners[0].trees.value must be a list of finite numbers"),
        (lambda p: p.update(metadata="x"), "model.metadata must be an object"),
        (_negative_n_estimate, "a tree record needs counts >= 0 and features >= -1"),
        (lambda p: drop_last_tree(p["outcome_learners"][0]["trees"]), "a learner of 60 rounds holds 59 trees"),
        (lambda p: p["outcome_learners"][0]["config"].update(learning_rate=float("nan")), "learning_rate must be finite"),
        (lambda p: p["forest"]["params"].update(variance_floor=float("nan")), "variance_floor must be finite"),
        (lambda p: p["outcome_learners"].pop(), "a model of 3 folds holds 2 outcome and 3 propensity learners"),
        (
            lambda p: p["propensity_learners"].append(p["propensity_learners"][0]),
            "a model of 3 folds holds 3 outcome and 4 propensity learners",
        ),
        (lambda p: p["forest"]["trees"]["roots"].__setitem__(0, 1), ROOTS),
        (_swap_roots, ROOTS),
        (lambda p: p["forest"]["trees"]["roots"].append(len(p["forest"]["trees"]["feature"])), ROOTS),
        (lambda p: p["forest"]["trees"]["threshold"].pop(), "a tree record's node columns must share their length"),
        (_child_in_next_tree, "a tree of s splits must hold 2s + 1 nodes, its i-th split at most 2i past its root"),
    ],
    ids=[
        "feature_99",
        "nan_forest_leaf",
        "inf_gbm_leaf",
        "metadata_str",
        "negative_n_estimate",
        "short_gbm",
        "nan_learning_rate",
        "nan_variance_floor",
        "missing_outcome_learner",
        "extra_propensity_learner",
        "first_root_not_0",
        "falling_roots",
        "root_past_end",
        "unequal_columns",
        "child_in_next_tree",
    ],
)
def test_model_that_could_not_serve_fails_at_load(workspace, tmp_path, capsys, edit, cause):
    # refused at load, so that recommend never decides on such a model
    bad = tmp_path / "unservable.bin"
    shutil.copy(workspace["model"], bad)
    reseal(bad, edit)
    with pytest.raises(ModelIntegrityError, match=re.escape(cause)):
        load_model(str(bad))
    signals_path = tmp_path / "signals.json"
    signals_path.write_text(json.dumps(json.loads(workspace["events"].read_text().splitlines()[0])["signals"]))
    log_path = tmp_path / "actions.jsonl"
    assert main(["recommend", "--model", str(bad), "--signals", str(signals_path), "--log", str(log_path)]) == 4
    assert cause in capsys.readouterr().err
    assert not log_path.exists()


def test_format_1_model_is_refused(workspace, tmp_path, capsys):
    old = tmp_path / "model_v1.bin"
    payload = json.loads(workspace["model"].read_bytes().partition(b"\n")[2])
    old.write_text(json.dumps({"checksum": "0" * 64, "format": "nodemend-model", "format_version": "1.0", "payload": payload}))
    with pytest.raises(ModelVersionError, match=re.escape("model format '1.0' is incompatible with '6.0'")):
        load_model(str(old))
    assert main(["eval", "--model", str(old), "--data", str(workspace["events"])]) == 4
    assert "'1.0'" in capsys.readouterr().err


def test_mistyped_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps({"seed": "x"}))
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "e"), "--truth", str(tmp_path / "t"), "--n", "5"])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_recommend_rejects_mistyped_signals(workspace, tmp_path, capsys):
    signals = {
        "vm_count": 3,
        "has_important_workload": "false",
        "network_ok": True,
        "error_code": None,
        "repeat_count": 0,
        "uncorrectable_tag": False,
        "hardware_type": "gen4_compute",
        "session_type": "standard",
    }
    signals_path = tmp_path / "signals.json"
    signals_path.write_text(json.dumps(signals))
    log_path = tmp_path / "actions.jsonl"
    rc = main(["recommend", "--model", str(workspace["model"]), "--signals", str(signals_path), "--log", str(log_path)])
    assert rc == 3
    assert "has_important_workload" in capsys.readouterr().err
    assert not log_path.exists()


def test_recommend_bad_decision_config_is_a_config_error(workspace, tmp_path, capsys):
    signals_path = tmp_path / "signals.json"
    signals_path.write_text(json.dumps(json.loads(workspace["events"].read_text().splitlines()[0])["signals"]))
    for content in ({"fallback_tau": 1.0, "unknown_knob": 2}, [1], {"fallback_tau": "x"}):
        cfg_path = tmp_path / "decision.json"
        cfg_path.write_text(json.dumps(content))
        argv = ["recommend", "--model", str(workspace["model"]), "--signals", str(signals_path)]
        rc = main(argv + ["--decision-config", str(cfg_path), "--log", str(tmp_path / "actions.jsonl")])
        assert rc == 2, content
        assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", ['{"fallback_tau": NaN}', '{"fallback_width": Infinity}', '{"capacity_tau": -Infinity}'])
def test_recommend_non_finite_decision_threshold_is_a_config_error(workspace, tmp_path, capsys, content):
    # every comparison with NaN is false, so a NaN threshold would silently
    # switch its rule off
    signals_path = tmp_path / "signals.json"
    signals_path.write_text(json.dumps(json.loads(workspace["events"].read_text().splitlines()[0])["signals"]))
    cfg_path = tmp_path / "decision.json"
    cfg_path.write_text(content)
    log_path = tmp_path / "actions.jsonl"
    argv = ["recommend", "--model", str(workspace["model"]), "--signals", str(signals_path)]
    assert main(argv + ["--decision-config", str(cfg_path), "--log", str(log_path)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not log_path.exists()


def test_format_3_model_is_refused(workspace, tmp_path, capsys):
    old = tmp_path / "model_v3.bin"
    head, _, payload = workspace["model"].read_bytes().partition(b"\n")
    old.write_bytes(json.dumps({**json.loads(head), "format_version": "3.0"}).encode() + b"\n" + payload)
    assert main(["eval", "--model", str(old), "--data", str(workspace["events"])]) == 4
    assert "model format '3.0' is incompatible with '6.0'" in capsys.readouterr().err


def test_format_4_model_is_refused(workspace, tmp_path, capsys):
    # 4.x learner records held a propensity mode and a seed, and the linear
    # record a condition number
    old = tmp_path / "model_v4.bin"
    head, _, payload = workspace["model"].read_bytes().partition(b"\n")
    old.write_bytes(json.dumps({**json.loads(head), "format_version": "4.0"}).encode() + b"\n" + payload)
    with pytest.raises(ModelVersionError, match=re.escape("model format '4.0' is incompatible with '6.0'")):
        load_model(str(old))
    assert main(["eval", "--model", str(old), "--data", str(workspace["events"])]) == 4
    captured = capsys.readouterr()
    assert "model error: model format '4.0' is incompatible with '6.0'" in captured.err
    assert captured.out == ""


def test_format_5_model_is_refused(workspace, tmp_path, capsys):
    # 5.x tree records stored each split's children in ``left`` and ``right``
    old = tmp_path / "model_v5.bin"
    head, _, payload = workspace["model"].read_bytes().partition(b"\n")
    old.write_bytes(json.dumps({**json.loads(head), "format_version": "5.0"}).encode() + b"\n" + payload)
    with pytest.raises(ModelVersionError, match=re.escape("model format '5.0' is incompatible with '6.0'")):
        load_model(str(old))
    assert main(["eval", "--model", str(old), "--data", str(workspace["events"])]) == 4
    captured = capsys.readouterr()
    assert "model error: model format '5.0' is incompatible with '6.0'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field,value", [("mode", "propensity"), ("seed", 7)])
def test_learner_record_with_a_removed_field_is_refused(workspace, tmp_path, capsys, field, value):
    bad = tmp_path / "learner_field.bin"
    shutil.copy(workspace["model"], bad)
    reseal(bad, lambda p: p["propensity_learners"][0].update({field: value}))
    cause = f"model.propensity_learners[0]: unknown keys ['{field}']"
    with pytest.raises(ModelIntegrityError, match=re.escape(cause)):
        load_model(str(bad))
    assert main(["eval", "--model", str(bad), "--data", str(workspace["events"])]) == 4
    captured = capsys.readouterr()
    assert cause in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("knob", [{"kind": "ridge"}, {"ridge_alpha": 1e-8}])
def test_removed_learner_knobs_are_config_errors(tmp_path, capsys, knob):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**FAST_CONFIG, "nuisance": knob}))
    events = tmp_path / "events.jsonl"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(events), "--truth", str(tmp_path / "t"), "--n", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err and f"unknown keys {list(knob)}" in err
    assert not events.exists()


# each command that writes a file, as the arguments that write it to path p
OUTPUT_ARGS = {
    "simulate_out": lambda ws, tmp, p: ["simulate", "--config", ws["config"], "--n", 20, "--out", p, "--truth", tmp / "t"],
    "simulate_truth": lambda ws, tmp, p: ["simulate", "--config", ws["config"], "--n", 20, "--out", tmp / "e", "--truth", p],
    "train_out": lambda ws, tmp, p: ["train", "--config", ws["config"], "--data", ws["events"], "--out", p],
    "compare_out": lambda ws, tmp, p: [
        "compare", "--config", ws["config"], "--model", ws["model"], "--n", 20, "--policies", "legacy", "--out", p
    ],
    "compare_plot_data": lambda ws, tmp, p: [
        "compare", "--config", ws["config"], "--model", ws["model"], "--n", 20, "--policies", "legacy",
        "--out", tmp / "report.json", "--plot-data", p,
    ],
    "interpret_cate_out": lambda ws, tmp, p: [
        "interpret", "--model", ws["model"], "--data", ws["events"], "--cate-feature", "vm_count", "--cate-out", p
    ],
    "abtest_out": lambda ws, tmp, p: [
        "abtest", "--config", ws["config"], "--experiment", "x", "--groups", "legacy:1", "--n", 20, "--out", p
    ],
    "update_out": lambda ws, tmp, p: [
        "update", "--current", ws["model"], "--recent", ws["events"], "--holdout", ws["events"], "--out", p
    ],
}


# what the commands load and compute, each wrapped to fail the test if it runs
WORK = {
    cli: ("generate_observational_dataset", "train_dml", "run_policy_comparison", "interpret_model", "load_model", "read_events_jsonl"),
    evaluation: ("run_ab_experiment",),
    modelio: ("update_model",),
}


def refuse_work(monkeypatch):
    for module, names in WORK.items():
        for name in names:

            def ran(*args, name=name, **kwargs):
                raise AssertionError(f"{name} ran")

            monkeypatch.setattr(module, name, ran)


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize("command", OUTPUT_ARGS)
def test_unwritable_output_path_is_a_data_error(workspace, tmp_path, capsys, monkeypatch, command, target):
    # checked before any data loads or any work runs
    refuse_work(monkeypatch)
    if target == "missing_dir":
        out = tmp_path / "no_such_dir" / "out"
    else:
        out = tmp_path / "taken"
        out.mkdir()
    assert main([str(arg) for arg in OUTPUT_ARGS[command](workspace, tmp_path, out)]) == 3
    captured = capsys.readouterr()
    assert "data error: cannot write" in captured.err and str(out) in captured.err
    assert captured.out == ""
    assert list(tmp_path.rglob("*.tmp.*")) == []
    assert target == "missing_dir" or list(out.iterdir()) == []


@pytest.mark.parametrize("window", ["recent", "holdout"])
def test_update_window_outside_the_schema_is_a_data_error(workspace, tmp_path, capsys, monkeypatch, window):
    # one row of an unknown hardware type, on line 3: refused before
    # training, naming the file, the line and the field
    lines = workspace["events"].read_text().splitlines()
    row = json.loads(lines[2])
    row["signals"]["hardware_type"] = "b"
    lines[2] = json.dumps(row)
    bad = tmp_path / "window.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(modelio, "update_model", lambda *a, **k: pytest.fail("update_model ran"))
    windows = {"recent": str(workspace["events"]), "holdout": str(workspace["events"]), window: str(bad)}
    out = tmp_path / "updated.bin"
    argv = ["update", "--current", str(workspace["model"]), "--recent", windows["recent"], "--holdout", windows["holdout"]]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert f"data error: {bad}:3: unknown hardware_type 'b'" in captured.err
    assert captured.out == ""
    assert not out.exists() and list(tmp_path.rglob("*.tmp.*")) == []


@pytest.mark.parametrize(
    "flags,cause",
    [
        (["--depth", "-1"], "--depth: max_depth must be >= 0"),
        (["--bins", "0", "--cate-feature", "vm_count"], "--bins: bins must be >= 1"),
        (["--cate-feature", "nope"], "--cate-feature: unknown feature 'nope'; choose from"),
    ],
    ids=["depth", "bins", "cate_feature"],
)
def test_interpret_refuses_bad_flags_before_the_work(workspace, tmp_path, capsys, monkeypatch, flags, cause):
    refuse_work(monkeypatch)
    curve = tmp_path / "curve.csv"
    argv = ["interpret", "--model", str(workspace["model"]), "--data", str(workspace["events"]), "--cate-out", str(curve)]
    assert main(argv + flags) == 3
    captured = capsys.readouterr()
    assert f"data error: {cause}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("margin", ["-inf", "-1e9", "-0.5", "nan", "inf"])
def test_update_refuses_a_margin_that_is_not_finite_and_non_negative(workspace, tmp_path, capsys, margin):
    # a negative margin could deploy a candidate that scores worse on the
    # holdout; NaN or inf would never deploy
    out = tmp_path / "updated.bin"
    events = str(workspace["events"])
    argv = ["update", "--current", str(workspace["model"]), "--recent", events, "--holdout", events]
    assert main(argv + ["--out", str(out), f"--margin={margin}"]) == 2
    captured = capsys.readouterr()
    assert "config error: --margin" in captured.err and "finite and >= 0" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_recommend_refuses_a_negative_repeat_threshold(workspace, tmp_path, capsys):
    # with -1 every event, repeat_count 0 included, would be a RepeatOverride
    signals_path = tmp_path / "signals.json"
    signals_path.write_text(json.dumps(json.loads(workspace["events"].read_text().splitlines()[0])["signals"]))
    cfg_path = tmp_path / "decision.json"
    cfg_path.write_text(json.dumps({"repeat_threshold": -1}))
    log_path = tmp_path / "actions.jsonl"
    argv = ["recommend", "--model", str(workspace["model"]), "--signals", str(signals_path)]
    assert main(argv + ["--decision-config", str(cfg_path), "--log", str(log_path)]) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err and "repeat_threshold must be >= 0" in captured.err
    assert captured.out == ""
    assert not log_path.exists()
    assert list(tmp_path.rglob("*.tmp.*")) == []


# each command that reads signals records, as its arguments with the
# records read from path p
SCHEMA_ARGS = {
    "train": lambda ws, tmp, p: ["train", "--config", ws["config"], "--data", p, "--out", tmp / "model.bin"],
    "eval": lambda ws, tmp, p: ["eval", "--model", ws["model"], "--data", p],
    "counterfactual": lambda ws, tmp, p: ["counterfactual", "--model", ws["model"], "--data", p, "--truth", ws["truth"]],
    "interpret": lambda ws, tmp, p: [
        "interpret", "--model", ws["model"], "--data", p, "--cate-feature", "vm_count", "--cate-out", tmp / "curve.csv"
    ],
    "recommend": lambda ws, tmp, p: ["recommend", "--model", ws["model"], "--signals", p, "--log", tmp / "actions.jsonl"],
}


@pytest.mark.parametrize("command", SCHEMA_ARGS)
def test_signals_outside_the_schema_are_refused_naming_the_file(workspace, tmp_path, capsys, monkeypatch, command):
    # one record of an unknown hardware type, on line 5 of an event file or
    # as the signals file: refused before any model work, writing nothing
    for name in ("train_dml", "psi_loss", "naive_effect", "counterfactual_analysis", "interpret_model", "estimate_ite"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    rows = [json.loads(line) for line in workspace["events"].read_text().splitlines()]
    rows[4]["signals"]["hardware_type"] = "b"
    if command == "recommend":
        bad = tmp_path / "signals.json"
        bad.write_text(json.dumps(rows[4]["signals"]))
        where = f"bad signals file {bad}"
    else:
        bad = tmp_path / "events.jsonl"
        bad.write_text("".join(json.dumps(row) + "\n" for row in rows))
        where = f"{bad}:5"
    assert main([str(arg) for arg in SCHEMA_ARGS[command](workspace, tmp_path, bad)]) == 3
    captured = capsys.readouterr()
    assert f"data error: {where}: unknown hardware_type 'b'" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [bad]
