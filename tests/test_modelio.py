import dataclasses
import errno
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodemend.dml import LinearTheta, TrainConfig, estimate_ite, estimate_ite_batch, train_dml
from nodemend.domain import (
    DEFAULT_HARDWARE_TYPES,
    DEFAULT_SESSION_TYPES,
    MAX_OUTCOME,
    DiagnosticSignals,
    LabeledEvent,
    from_record,
    to_record,
)
from nodemend import modelio
from nodemend.errors import (
    DataError,
    DegenerateTreatment,
    InsufficientData,
    InvalidArgument,
    ModelError,
    ModelIntegrityError,
    ModelVersionError,
)
from nodemend.forest import audit_honesty
from nodemend.modelio import (
    ActionLogRecord,
    ActionLogger,
    load_model,
    read_action_log,
    read_events_jsonl,
    read_truth_jsonl,
    save_model,
    update_model,
    write_events_jsonl,
    write_truth_jsonl,
)
from nodemend.simulate import SimConfig, generate_observational_dataset

from conftest import drop_last_tree, reseal


@pytest.fixture(scope="module")
def small_model():
    cfg = SimConfig(seed=81)
    events, _ = generate_observational_dataset(400, cfg)
    model = train_dml(events, TrainConfig(seed=81), cfg.schema())
    return cfg, events, model


def test_model_round_trip_bitwise(tmp_path, small_model):
    cfg, events, model = small_model
    path = str(tmp_path / "model.bin")
    save_model(model, path)
    loaded = load_model(path)
    probe_cfg = SimConfig(seed=82)
    probe, _ = generate_observational_dataset(100, probe_cfg)
    for e in probe:
        before = estimate_ite(model, e.signals)
        after = estimate_ite(loaded, e.signals)
        assert before == after  # bitwise: exact float equality



@pytest.fixture(scope="module")
def saved_and_loaded(tmp_path_factory, small_model):
    _, _, model = small_model
    path = str(tmp_path_factory.mktemp("model") / "model.bin")
    save_model(model, path)
    return model, load_model(path)


signal_rows = st.lists(
    st.builds(
        DiagnosticSignals,
        vm_count=st.integers(0, 40),
        has_important_workload=st.booleans(),
        network_ok=st.booleans(),
        error_code=st.sampled_from([None, "none", "net_timeout", "sw_fault", "hw_failure", "other"]),
        repeat_count=st.integers(0, 40),
        uncorrectable_tag=st.booleans(),
        hardware_type=st.sampled_from(DEFAULT_HARDWARE_TYPES),
        session_type=st.sampled_from(DEFAULT_SESSION_TYPES),
    ),
    min_size=1,
    max_size=50,
)


@settings(max_examples=60)
@given(rows=signal_rows)
def test_batch_estimates_are_bitwise_after_save_and_load(saved_and_loaded, rows):
    model, loaded = saved_and_loaded
    assert estimate_ite_batch(loaded, rows) == estimate_ite_batch(model, rows)  # exact float equality

def test_model_save_is_deterministic(tmp_path, small_model):
    _, _, model = small_model
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_model(model, p1)
    save_model(model, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_model_version_mismatch(tmp_path, small_model):
    _, _, model = small_model
    path = str(tmp_path / "model.bin")
    save_model(model, path)
    head, _, payload = open(path, "rb").read().partition(b"\n")
    header = json.loads(head)
    header["format_version"] = "2.0"
    open(path, "wb").write(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(ModelVersionError, match="'2.0' is incompatible with '6.0'"):
        load_model(path)


def test_model_truncated_file(tmp_path, small_model):
    _, _, model = small_model
    path = str(tmp_path / "model.bin")
    save_model(model, path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[: len(data) // 2])
    with pytest.raises(ModelIntegrityError):
        load_model(path)


def test_model_payload_tamper(tmp_path, small_model):
    _, _, model = small_model
    path = str(tmp_path / "model.bin")
    save_model(model, path)
    head, _, payload = open(path, "rb").read().partition(b"\n")
    record = json.loads(payload)
    record["metadata"]["n"] = 999999
    open(path, "wb").write(head + b"\n" + json.dumps(record).encode())
    with pytest.raises(ModelIntegrityError, match="checksum"):
        load_model(path)


def test_model_file_is_a_header_line_and_the_payload_it_hashes(tmp_path, small_model):
    _, _, model = small_model
    path = str(tmp_path / "model.bin")
    save_model(model, path)
    head, _, payload = open(path, "rb").read().partition(b"\n")
    assert json.loads(head) == {
        "format": "nodemend-model",
        "format_version": "6.0",
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    record = json.loads(payload)
    # every ensemble is one record; the honesty halves are drawn again from
    # the forest's seed, never stored
    columns = {"roots", "feature", "threshold", "value", "count"}
    assert set(record["forest"]["trees"]) == columns
    assert set(record["outcome_learners"][0]["trees"]) == columns
    assert "final_stage" not in record and record["train_config"]["final_stage"] == "forest"
    assert record["forest"]["n"] == 400
    assert audit_honesty(load_model(path).forest)


def test_singular_linear_design_round_trips(tmp_path, small_model):
    _, events, model = small_model
    linear = LinearTheta(intercept=0.5, coef=np.zeros(model.schema.width))
    singular = dataclasses.replace(
        model,
        forest=None,
        linear=linear,
        train_config=dataclasses.replace(model.train_config, final_stage="linear"),
    )
    path = str(tmp_path / "singular.bin")
    save_model(singular, path)
    # every number in the file is finite, so it is plain JSON
    data = open(path, "rb").read()
    assert b"Infinity" not in data and b"NaN" not in data
    loaded = load_model(path)
    assert loaded.final_stage == "linear"
    assert estimate_ite(loaded, events[0].signals) == estimate_ite(singular, events[0].signals)


def _loop_first_split(payload):
    # the root of the first tree that splits (a one-leaf tree has nothing to
    # swap) swaps with its first leaf: the tree's first split then lies past
    # its root, and the numbering would make it its own left child, or a
    # node before it
    trees = payload["forest"]["trees"]
    feature = trees["feature"]
    root = next(r for r in trees["roots"] if feature[r] >= 0)
    leaf = feature.index(-1, root)
    feature[root], feature[leaf] = feature[leaf], feature[root]


def _uneven_bags(payload):
    # the last bag holds one tree fewer than trees_per_bag
    drop_last_tree(payload["forest"]["trees"])


@pytest.mark.parametrize("edit", [_loop_first_split, _uneven_bags], ids=["looped_tree", "uneven_bags"])
def test_model_checksummed_bad_forest_fails_closed(tmp_path, small_model, edit):
    # a node that is its own child used to send the walk round forever
    _, _, model = small_model
    path = str(tmp_path / "model.bin")
    save_model(model, path)
    reseal(path, edit)
    with pytest.raises(ModelIntegrityError):
        load_model(path)


def test_model_not_a_model(tmp_path):
    path = str(tmp_path / "nope.bin")
    open(path, "w").write('{"hello": 1}')
    with pytest.raises(ModelIntegrityError):
        load_model(path)


@pytest.mark.parametrize("name", ["missing.bin", "."], ids=["missing", "directory"])
def test_model_unreadable_path_is_a_model_error(tmp_path, name):
    path = str(tmp_path / name)
    with pytest.raises(ModelError, match=re.escape(path)):
        load_model(path)


def test_events_jsonl_round_trip_and_bytes(tmp_path):
    cfg = SimConfig(seed=83)
    events, truths = generate_observational_dataset(200, cfg)
    p1, p2 = str(tmp_path / "e1.jsonl"), str(tmp_path / "e2.jsonl")
    write_events_jsonl(events, p1)
    write_events_jsonl(events, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert read_events_jsonl(p1) == events
    tp = str(tmp_path / "t.jsonl")
    write_truth_jsonl(truths, tp)
    assert read_truth_jsonl(tp) == truths
    # UTF-8, LF line endings
    blob = open(p1, "rb").read()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")


def test_files_and_log_lines_are_the_bytes_of_compact_json_dumps(tmp_path, small_model):
    # non-ASCII text, None and nested signals: each line, and the model
    # payload, is what json.dumps writes with the compact UTF-8 arguments
    def dumps(record) -> str:
        return json.dumps(to_record(record), separators=(",", ":"), ensure_ascii=False)

    _, _, model = small_model
    events, truths = generate_observational_dataset(40, SimConfig(seed=84))
    events = [
        dataclasses.replace(e, node_id=f"nœud-{i}-東京", signals=dataclasses.replace(e.signals, error_code=None) if i % 2 else e.signals)
        for i, e in enumerate(events)
    ]
    records = [dataclasses.replace(make_record(i), reason="repli — règle «héritée»", tau=None if i % 2 else 0.25) for i in range(3)]
    paths = {name: str(tmp_path / f"{name}.jsonl") for name in ("events", "truth", "actions")}
    write_events_jsonl(events, paths["events"])
    write_truth_jsonl(truths, paths["truth"])
    with ActionLogger(paths["actions"]) as logger:
        for record in records:
            logger.log(record)
    for name, rows in (("events", events), ("truth", truths), ("actions", records)):
        assert open(paths[name], "rb").read() == "".join(dumps(r) + "\n" for r in rows).encode("utf-8"), name
    assert any(e.signals.error_code is None for e in events) and "œ" in open(paths["events"], encoding="utf-8").read()
    model_path = str(tmp_path / "model.bin")
    save_model(model, model_path)
    assert open(model_path, "rb").read().partition(b"\n")[2] == dumps(model).encode("utf-8")


def test_events_jsonl_bad_record(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    open(path, "w").write('{"event_id": "x"}\n')
    with pytest.raises(DataError):
        read_events_jsonl(path)


@pytest.mark.parametrize("field,value", [("avd", "NaN"), ("blackout", "Infinity"), ("unallocatable", "NaN")])
def test_events_jsonl_non_finite_outcome(tmp_path, field, value):
    events, _ = generate_observational_dataset(3, SimConfig(seed=84))
    path = str(tmp_path / "outcomes.jsonl")
    write_events_jsonl(events, path)
    lines = open(path).read().splitlines()
    lines[1] = lines[1].replace(f'"{field}":{json.dumps(getattr(events[1], field))}', f'"{field}":{value}')
    assert value in lines[1]
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"{path}:2: .*{field} must be finite"):
        read_events_jsonl(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["signals"].update(has_important_workload="false"),
        lambda d: d["signals"].update(vm_count=2.7),
        lambda d: d["signals"].update(repeat_count=True),
        lambda d: d.update(action="1"),
    ],
    ids=["important_str", "vm_count_float", "repeat_count_bool", "action_str"],
)
def test_events_jsonl_mistyped_value(tmp_path, edit):
    events, _ = generate_observational_dataset(3, SimConfig(seed=84))
    path = str(tmp_path / "typed.jsonl")
    write_events_jsonl(events, path)
    lines = open(path).read().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: ")):
        read_events_jsonl(path)


def test_events_read_from_one_file_share_their_categorical_strings(tmp_path):
    events, _ = generate_observational_dataset(60, SimConfig(seed=86))
    events = [dataclasses.replace(e, signals=dataclasses.replace(e.signals, error_code=None)) if i % 3 == 0 else e for i, e in enumerate(events)]
    path = str(tmp_path / "events.jsonl")
    write_events_jsonl(events, path)
    read = read_events_jsonl(path)
    assert read == events
    assert all(e.signals.error_code is None for e in read[::3])
    # json.loads makes a string object per line; equal values now share one
    first = read[0].signals
    assert sum(e.signals.hardware_type is first.hardware_type for e in read) > 1
    values = [(name, getattr(e.signals, name)) for e in read for name in ("error_code", "hardware_type", "session_type")]
    values += [("cause", t.cause) for t in read_truth_jsonl(_truth_file(tmp_path))]
    shared = {}
    assert all(shared.setdefault(key, key[1]) is key[1] for key in values)


def _truth_file(tmp_path, n=20):
    _, truths = generate_observational_dataset(n, SimConfig(seed=86))
    path = str(tmp_path / "truth.jsonl")
    write_truth_jsonl(truths, path)
    return path


def _split_reference(path: str, cls) -> tuple[list, str | None]:
    """The records of a JSONL file and its first fault, ``file:line: cause``,
    read the way a whole-file reader does: ``split(b"\\n")``, blank lines
    skipped, each ``event_id`` once."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    records, first_line = [], {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = from_record(cls, json.loads(line.decode("utf-8")))
        except (ValueError, DataError) as exc:
            return records, f"{path}:{lineno}: {exc}"
        if first_line.setdefault(record.event_id, lineno) != lineno:
            return records, f"{path}:{lineno}: event_id {record.event_id!r} repeats line {first_line[record.event_id]}"
        records.append(record)
    return records, None


LAYOUT_EVENTS, _ = generate_observational_dataset(4, SimConfig(seed=87))
LAYOUT_LINES = [json.dumps(to_record(e)).encode("utf-8") for e in LAYOUT_EVENTS]
BLANKS = [b"", b" ", b"\r", b"\t "]
BAD_LINES = [b'{"event_id": "x"}', b"{not json", b"\xff\xfe", b'{"avd": NaN}']


@settings(max_examples=80)
@given(
    body=st.lists(
        st.one_of(st.sampled_from(range(len(LAYOUT_LINES))), st.sampled_from(BLANKS)),
        max_size=10,
    ),
    endings=st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=12, max_size=12),
    final_newline=st.booleans(),
    tail=st.one_of(
        st.none(),
        st.sampled_from(BAD_LINES),
        st.tuples(st.sampled_from(range(len(LAYOUT_LINES))), st.integers(1, 50)),
    ),
)
def test_the_streaming_reader_reads_any_line_layout_as_a_split_does(tmp_path_factory, body, endings, final_newline, tail):
    # CRLF or LF, blank lines, repeated ids, no final newline, and a bad or
    # torn last line: the same records, or the same file:line fault
    lines = [LAYOUT_LINES[x] if isinstance(x, int) else x for x in body]
    if isinstance(tail, tuple):
        lines.append(LAYOUT_LINES[tail[0]][: tail[1]])
    elif tail is not None:
        lines.append(tail)
    blob = b"".join(line + end for line, end in zip(lines, endings))
    if lines and not final_newline:
        blob = blob[: -len(endings[len(lines) - 1])]
    path = str(tmp_path_factory.mktemp("layout") / "events.jsonl")
    with open(path, "wb") as fh:
        fh.write(blob)
    want, fault = _split_reference(path, LabeledEvent)
    if fault is None:
        assert read_events_jsonl(path) == want
    else:
        with pytest.raises(DataError) as info:
            read_events_jsonl(path)
        assert str(info.value) == fault


def test_an_os_error_mid_read_is_a_data_error(tmp_path, monkeypatch):
    events, _ = generate_observational_dataset(3, SimConfig(seed=84))
    path = str(tmp_path / "events.jsonl")
    write_events_jsonl(events, path)

    class FailsAfterOneLine:
        """The file, whose device fails after its first line."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __iter__(self):
            yield self.fh.readline()
            raise OSError(errno.EIO, "Input/output error")

        def read(self, *args):
            raise OSError(errno.EIO, "Input/output error")

    real_open = open
    monkeypatch.setattr(modelio, "open", lambda *args, **kw: FailsAfterOneLine(real_open(*args, **kw)), raising=False)
    with pytest.raises(DataError, match=re.escape(f"cannot read {path}: [Errno 5] Input/output error")):
        read_events_jsonl(path)


@pytest.mark.parametrize(
    "field,value",
    [("y_reboot", math.nan), ("y_redeploy", math.inf), ("y_reboot", -0.5), ("y_redeploy", 1e160)],
    ids=["nan", "inf", "negative", "over_bound"],
)
def test_truth_jsonl_refuses_an_outcome_the_fit_cannot_square(tmp_path, field, value):
    # json.loads reads NaN and Infinity, and the codec takes any float; the record refuses them
    path = _truth_file(tmp_path, 3)
    lines = open(path).read().splitlines()
    record = json.loads(lines[1])
    record[field] = value
    lines[1] = json.dumps(record)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: {field} must be finite, >= 0 and <= {MAX_OUTCOME:.6g}, got ")):
        read_truth_jsonl(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(weather="fine"),
        lambda d: d.pop("cause"),
        lambda d: d.update(y_reboot="1.5"),
    ],
    ids=["unknown_key", "missing_key", "mistyped"],
)
def test_truth_jsonl_fails_closed(tmp_path, edit):
    _, truths = generate_observational_dataset(2, SimConfig(seed=85))
    path = str(tmp_path / "truth.jsonl")
    write_truth_jsonl(truths, path)
    lines = open(path).read().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: ")):
        read_truth_jsonl(path)


def make_record(i=0, source="Fallback", reason="wide interval"):
    return ActionLogRecord(
        unhealthy_timestamp=100 + i,
        action_timestamp=101 + i,
        experiment_name="exp",
        model_type="forest",
        model_name="nodemend",
        model_version="1.0",
        tau=0.5,
        tau_lower=-3.0,
        tau_upper=4.0,
        action=1,
        source=source,
        reason=reason,
        node_id=f"node-{i}",
        event_id=f"ev-{i}",
    )


def test_action_log_round_trip(tmp_path):
    path = str(tmp_path / "actions.jsonl")
    with ActionLogger(path) as logger:
        logger.log(make_record())
    records = read_action_log(path)
    assert len(records) == 1
    assert records[0] == make_record()
    assert records[0].source == "Fallback"
    assert records[0].reason


def test_action_log_order_preserved(tmp_path):
    path = str(tmp_path / "actions.jsonl")
    with ActionLogger(path) as logger:
        for i in range(1000):
            logger.log(make_record(i))
    records = read_action_log(path)
    assert len(records) == 1000
    assert [r.event_id for r in records] == [f"ev-{i}" for i in range(1000)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_figure_is_never_written_as_json(tmp_path, value):
    # JSON holds no NaN or Infinity: the encoder refuses the record, and the
    # log keeps no partial line
    path = str(tmp_path / "actions.jsonl")
    with ActionLogger(path) as logger, pytest.raises(ValueError, match="not JSON compliant"):
        logger.log(dataclasses.replace(make_record(), tau=value))
    assert open(path).read() == ""
    with pytest.raises(ValueError, match="not JSON compliant"):
        modelio._compact({"psi": value})


def test_action_log_parameters_field_present(tmp_path):
    path = str(tmp_path / "actions.jsonl")
    with ActionLogger(path) as logger:
        logger.log(make_record())
    raw = json.loads(open(path).read().strip())
    assert raw["action_parameters"] == {}


@pytest.mark.parametrize(
    "tail",
    [
        lambda line: line[: len(line) // 2],
        lambda line: line.replace('"action_parameters"', '"action_params"'),
        lambda line: line.replace('"action":1', '"action":"1"'),
    ],
    ids=["torn", "unknown_key", "mistyped"],
)
def test_action_log_bad_last_line(tmp_path, tail):
    path = str(tmp_path / "actions.jsonl")
    with ActionLogger(path) as logger:
        logger.log(make_record(0))
        logger.log(make_record(1))
    line = open(path).read().splitlines()[0]
    with open(path, "a") as fh:
        fh.write(tail(line))
    with pytest.raises(DataError, match=re.escape(f"{path}:3: ")):
        read_action_log(path)


def test_action_timestamp_ordering_enforced():
    with pytest.raises(DataError):
        ActionLogRecord(
            unhealthy_timestamp=10,
            action_timestamp=9,
            experiment_name="e",
            model_type="forest",
            model_name="m",
            model_version="1",
            tau=None,
            tau_lower=None,
            tau_upper=None,
            action=0,
            source="Model",
            reason="",
            node_id="n",
            event_id="ev",
        )


def test_update_tie_keeps_current(small_model):
    cfg, events, model = small_model
    recent = events[:300]
    holdout = events[300:]
    # candidate trained with the identical recipe and data scores identically
    result = update_model(model, recent, holdout)
    cand = result.candidate
    assert result.psi_current is not None
    if result.psi_candidate == result.psi_current:
        assert not result.deployed


@pytest.mark.parametrize("margin", [-1.0, float("-inf"), float("nan"), float("inf")])
def test_update_refuses_a_margin_that_is_not_finite_and_non_negative(small_model, margin):
    _, events, model = small_model
    with pytest.raises(InvalidArgument, match="margin must be finite and >= 0"):
        update_model(model, events[:300], events[300:], margin=margin)


def test_atomic_write_leaves_no_temp_file_on_failure(tmp_path):
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(DataError, match=re.escape(f"cannot write {taken}")):
        modelio.atomic_write_text(str(taken), "x")
    with pytest.raises(TypeError):
        modelio.atomic_write_text(str(tmp_path / "out.txt"), None)
    assert list(tmp_path.iterdir()) == [taken]


def test_update_replaces_corrupted_current(small_model):
    import dataclasses

    cfg, events, model = small_model
    from nodemend.dml import DmlModel, LinearTheta

    broken = DmlModel(
        schema=model.schema,
        outcome_learners=model.outcome_learners,
        propensity_learners=model.propensity_learners,
        forest=None,
        linear=LinearTheta(intercept=500.0, coef=np.zeros(model.schema.width)),
        train_config=dataclasses.replace(model.train_config, final_stage="linear"),
        metadata=model.metadata,
    )
    result = update_model(broken, events[:300], events[300:])
    assert result.deployed
    assert result.psi_candidate < result.psi_current


def test_update_empty_recent_keeps_current(small_model):
    _, events, model = small_model
    result = update_model(model, [], events[:50])
    assert not result.deployed
    assert "insufficient" in result.reason


def test_update_identical_training_is_a_tie(small_model):
    cfg, events, model = small_model
    # retraining on the exact original data with the same seed reproduces
    # the model, so the gate must keep the incumbent
    result = update_model(model, events, events[:100])
    assert result.psi_candidate == pytest.approx(result.psi_current, rel=1e-12)
    assert not result.deployed


def _raise(exc):
    def train(*args, **kwargs):
        raise exc

    return train


@pytest.mark.parametrize(
    "exc,reason",
    [
        (InsufficientData("12 rows"), "insufficient recent data: 12 rows"),
        (DegenerateTreatment("one action"), "training failed: one action"),
        (np.linalg.LinAlgError("singular"), "training failed: singular"),
    ],
    ids=["insufficient", "degenerate", "linalg"],
)
def test_update_training_failure_keeps_current(small_model, monkeypatch, exc, reason):
    _, events, model = small_model
    monkeypatch.setattr(modelio, "train_dml", _raise(exc))
    result = update_model(model, events[:300], events[300:])
    assert not result.deployed
    assert result.reason == reason


def test_update_training_bug_propagates(small_model, monkeypatch):
    # a bug is not a reason to keep the current model quietly
    _, events, model = small_model
    monkeypatch.setattr(modelio, "train_dml", _raise(RuntimeError("bug in training")))
    with pytest.raises(RuntimeError, match="bug in training"):
        update_model(model, events[:300], events[300:])
