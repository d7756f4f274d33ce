import numpy as np
import pytest

from nodemend.domain import (
    DEFAULT_SCHEMA,
    DiagnosticSignals,
    FeatureSchema,
    IteEstimate,
    LabeledEvent,
    MitigationAction,
    decode_categoricals,
    encode_features,
    from_record,
    to_record,
)
from nodemend.errors import InvalidArgument, SchemaViolation


def make_signals(**overrides):
    base = dict(
        vm_count=3,
        has_important_workload=True,
        network_ok=True,
        error_code="sw_fault",
        repeat_count=1,
        uncorrectable_tag=False,
        hardware_type="gen4_compute",
        session_type="standard",
    )
    base.update(overrides)
    return DiagnosticSignals(**base)


def test_action_codes_are_fixed():
    assert MitigationAction.REBOOT == 0
    assert MitigationAction.REDEPLOY == 1
    assert len(MitigationAction) == 2


def test_schema_width_formula():
    s = DEFAULT_SCHEMA
    expected = 5 + len(s.error_codes) + 1 + len(s.hardware_types) + len(s.session_types)
    assert s.width == expected == 18
    assert len(s.column_names) == s.width


def test_encode_all_zero_case():
    sig = make_signals(
        vm_count=0,
        has_important_workload=False,
        network_ok=False,
        error_code=None,
        repeat_count=0,
        uncorrectable_tag=False,
    )
    vec = encode_features(sig)
    v = np.asarray(vec.values)
    assert v[0] == 0.0  # vm_count
    names = DEFAULT_SCHEMA.column_names
    missing_idx = names.index("error_code_missing")
    assert v[missing_idx] == 1.0
    onehots = [i for i, n in enumerate(names) if n.startswith("error_code=")]
    assert all(v[i] == 0.0 for i in onehots)


def test_encode_determinism():
    sig = make_signals()
    a = encode_features(sig)
    b = encode_features(sig)
    assert a == b
    assert a.values == b.values


def test_encode_one_hot_definition():
    vec = encode_features(make_signals(error_code="hw_failure"))
    names = DEFAULT_SCHEMA.column_names
    v = vec.values
    assert v[names.index("error_code=hw_failure")] == 1.0
    assert v[names.index("error_code_missing")] == 0.0
    others = [n for n in names if n.startswith("error_code=") and n != "error_code=hw_failure"]
    assert all(v[names.index(n)] == 0.0 for n in others)


def test_encode_rejects_unknown_categorical():
    with pytest.raises(SchemaViolation):
        encode_features(make_signals(error_code="totally_new"))
    with pytest.raises(SchemaViolation):
        encode_features(make_signals(hardware_type="mystery_rack"))
    with pytest.raises(SchemaViolation):
        encode_features(make_signals(session_type="dev"))


def test_encode_no_nan_inf_and_fixed_width():
    rng = np.random.default_rng(7)
    schema = DEFAULT_SCHEMA
    for _ in range(200):
        sig = make_signals(
            vm_count=int(rng.integers(0, 50)),
            repeat_count=int(rng.integers(0, 30)),
            error_code=rng.choice([None, *schema.error_codes]),
            hardware_type=str(rng.choice(schema.hardware_types)),
            session_type=str(rng.choice(schema.session_types)),
            has_important_workload=bool(rng.integers(0, 2)),
            network_ok=bool(rng.integers(0, 2)),
            uncorrectable_tag=bool(rng.integers(0, 2)),
        )
        vec = encode_features(sig)
        assert len(vec.values) == schema.width
        assert np.all(np.isfinite(vec.values))


def test_one_hot_round_trip():
    rng = np.random.default_rng(11)
    schema = DEFAULT_SCHEMA
    for _ in range(100):
        sig = make_signals(
            error_code=rng.choice([None, *schema.error_codes]),
            hardware_type=str(rng.choice(schema.hardware_types)),
            session_type=str(rng.choice(schema.session_types)),
        )
        decoded = decode_categoricals(encode_features(sig), schema)
        assert decoded["error_code"] == sig.error_code
        assert decoded["hardware_type"] == sig.hardware_type
        assert decoded["session_type"] == sig.session_type


def test_schema_id_changes_with_layout():
    assert FeatureSchema().schema_id == FeatureSchema().schema_id
    other = FeatureSchema(hardware_types=("alpha", "beta"))
    assert other.schema_id != FeatureSchema().schema_id
    with pytest.raises(SchemaViolation):
        decode_categoricals(encode_features(make_signals()), other)


def test_signal_invariants():
    with pytest.raises(InvalidArgument):
        make_signals(vm_count=-1)
    with pytest.raises(InvalidArgument):
        make_signals(repeat_count=-2)


def test_missing_error_code_distinct_from_other():
    missing = encode_features(make_signals(error_code=None))
    other = encode_features(make_signals(error_code="other"))
    assert missing.values != other.values


def test_ite_estimate_invariants():
    est = IteEstimate(tau=1.0, tau_lower=0.5, tau_upper=2.0, confidence_level=0.9)
    assert est.width == 1.5
    with pytest.raises(InvalidArgument):
        IteEstimate(tau=1.0, tau_lower=1.5, tau_upper=2.0, confidence_level=0.9)
    with pytest.raises(InvalidArgument):
        IteEstimate(tau=1.0, tau_lower=0.5, tau_upper=2.0, confidence_level=1.5)


def test_labeled_event_round_trip():
    ev = LabeledEvent(
        event_id="ev-1",
        node_id="node-9",
        timestamp=42,
        signals=make_signals(),
        action=MitigationAction.REDEPLOY,
        avd=3.5,
        interruptions=3,
        blackout=0.4,
        unallocatable=2.0,
    )
    assert from_record(LabeledEvent, to_record(ev)) == ev
    with pytest.raises(InvalidArgument):
        LabeledEvent(
            event_id="e",
            node_id="n",
            timestamp=0,
            signals=make_signals(),
            action=MitigationAction.REBOOT,
            avd=-1.0,
            interruptions=0,
            blackout=0.0,
            unallocatable=0.0,
        )
