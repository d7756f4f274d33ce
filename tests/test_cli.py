import json
import os
import re
import shutil

import pytest

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
    trees = p["forest"]["trees"]
    trees["left"][_first(trees["feature"], leaf=False)] = trees["roots"][1]


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
        (_child_in_next_tree, "a tree's children must follow their parent inside the tree"),
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
    with pytest.raises(ModelVersionError, match=re.escape("model format '1.0' is incompatible with '3.0'")):
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
