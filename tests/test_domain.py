import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodemend.domain import (
    DEFAULT_SCHEMA,
    DiagnosticSignals,
    FeatureSchema,
    FeatureVector,
    IteEstimate,
    LabeledEvent,
    MitigationAction,
    encode_features,
    encode_matrix,
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


def test_schema_id_changes_with_layout():
    assert FeatureSchema().schema_id == FeatureSchema().schema_id
    other = FeatureSchema(hardware_types=("alpha", "beta"))
    assert other.schema_id != FeatureSchema().schema_id
    with pytest.raises(SchemaViolation):
        encode_features(make_signals(), other)


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


def reference_encode_features(signals: DiagnosticSignals, schema: FeatureSchema = DEFAULT_SCHEMA) -> FeatureVector:
    """The row encoder that ``encode_matrix`` replaced, kept as it was."""
    vec = np.zeros(schema.width, dtype=np.float64)
    vec[0] = float(signals.vm_count)
    vec[1] = 1.0 if signals.has_important_workload else 0.0
    vec[2] = 1.0 if signals.network_ok else 0.0
    vec[3] = float(signals.repeat_count)
    vec[4] = 1.0 if signals.uncorrectable_tag else 0.0

    off = 5
    if signals.error_code is not None:
        if signals.error_code not in schema.error_codes:
            raise SchemaViolation(f"unknown error_code {signals.error_code!r}")
        vec[off + schema.error_codes.index(signals.error_code)] = 1.0
    off += len(schema.error_codes)
    if signals.error_code is None:
        vec[off] = 1.0
    off += 1

    if signals.hardware_type not in schema.hardware_types:
        raise SchemaViolation(f"unknown hardware_type {signals.hardware_type!r}")
    vec[off + schema.hardware_types.index(signals.hardware_type)] = 1.0
    off += len(schema.hardware_types)

    if signals.session_type not in schema.session_types:
        raise SchemaViolation(f"unknown session_type {signals.session_type!r}")
    vec[off + schema.session_types.index(signals.session_type)] = 1.0

    return FeatureVector(values=tuple(float(v) for v in vec), schema_id=schema.schema_id)


def reference_encode_matrix(signal_rows, schema):
    out = np.empty((len(signal_rows), schema.width), dtype=np.float64)
    for i, s in enumerate(signal_rows):
        out[i, :] = reference_encode_features(s, schema).values
    return out


SMALL_SCHEMA = FeatureSchema(hardware_types=("alpha", "beta"), session_types=("solo",), error_codes=("e1", "e2"))
CATEGORICALS = {
    "error_code": (None, *DEFAULT_SCHEMA.error_codes, *SMALL_SCHEMA.error_codes, "never_seen"),
    "hardware_type": (*DEFAULT_SCHEMA.hardware_types, *SMALL_SCHEMA.hardware_types, "never_seen"),
    "session_type": (*DEFAULT_SCHEMA.session_types, *SMALL_SCHEMA.session_types, "never_seen"),
}
SIGNALS = st.builds(
    DiagnosticSignals,
    vm_count=st.integers(0, 2**80),
    has_important_workload=st.booleans(),
    network_ok=st.booleans(),
    error_code=st.sampled_from(CATEGORICALS["error_code"]),
    repeat_count=st.integers(0, 2**80),
    uncorrectable_tag=st.booleans(),
    hardware_type=st.sampled_from(CATEGORICALS["hardware_type"]),
    session_type=st.sampled_from(CATEGORICALS["session_type"]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from((DEFAULT_SCHEMA, SMALL_SCHEMA)), st.lists(SIGNALS, max_size=12))
def test_encode_matrix_matches_row_encoder(schema, rows):
    try:
        want = reference_encode_matrix(rows, schema)
    except SchemaViolation:
        closed = {
            "error_code": (*schema.error_codes, None),
            "hardware_type": schema.hardware_types,
            "session_type": schema.session_types,
        }
        bad = {
            f"unknown {name} {getattr(s, name)!r}" for s in rows for name, values in closed.items() if getattr(s, name) not in values
        }
        with pytest.raises(SchemaViolation) as info:
            encode_matrix(rows, schema)
        assert str(info.value) in bad
        return
    got = encode_matrix(rows, schema)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for s in rows:
        assert encode_features(s, schema) == reference_encode_features(s, schema)
