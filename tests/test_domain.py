import dataclasses
import math
import pathlib
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodemend.domain import (
    DEFAULT_SCHEMA,
    KEYED_EVENTS,
    MAX_OUTCOME,
    DiagnosticSignals,
    FeatureSchema,
    FeatureVector,
    IteEstimate,
    LabeledEvent,
    MitigationAction,
    distinct_rows,
    encode_features,
    encode_matrix,
    from_record,
    keyed_counters,
    keyed_sample,
    keyed_uniforms,
    to_record,
)
from nodemend import domain
from nodemend.errors import InvalidArgument, SchemaViolation
from nodemend.forest import ForestParams, bag_subsamples, honest_halves
from nodemend.learners import make_folds
from nodemend.simulate import GroundTruth

from conftest import signal_columns


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


def make_event(**overrides):
    base = dict(
        event_id="ev-1",
        node_id="node-1",
        timestamp=7,
        signals=make_signals(),
        action=MitigationAction.REDEPLOY,
        avd=2.5,
        interruptions=3,
        blackout=0.25,
        unallocatable=0.0,
    )
    base.update(overrides)
    return LabeledEvent(**base)


RECORDS = {
    "DiagnosticSignals": make_signals(error_code=None),
    "LabeledEvent": make_event(),
    "IteEstimate": IteEstimate(tau=1.0, tau_lower=0.5, tau_upper=1.5, confidence_level=0.9),
    "GroundTruth": GroundTruth(event_id="ev-1", y_reboot=1.5, y_redeploy=2.5, cause="software_fault"),
}


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS.keys())
def test_records_hold_no_dict_and_still_pickle_and_replace(record):
    # slotted: an instance is its fields, with no per-instance dict
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
    assert dataclasses.replace(record) == record
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, dataclasses.fields(record)[0].name, None)


def test_signals_hold_one_string_object_per_categorical_value():
    # "".join builds a new string object each time, as json.loads does
    a, b = (make_signals(hardware_type="".join(["gpu_", "accel"]), error_code="".join(["sw_", "fault"])) for _ in range(2))
    assert a.hardware_type is b.hardware_type and a.error_code is b.error_code
    assert make_signals(error_code=None).error_code is None


def test_max_outcome_is_the_largest_whose_keyed_sum_squares_finitely():
    # a fit holds fewer than KEYED_EVENTS rows and squares sums of outcomes
    with np.errstate(over="ignore"):
        assert np.isfinite(np.square(np.float64(KEYED_EVENTS) * MAX_OUTCOME))
        assert not np.isfinite(np.square(np.float64(KEYED_EVENTS) * np.nextafter(MAX_OUTCOME, np.inf)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, np.nextafter(MAX_OUTCOME, np.inf), 1e160])
@pytest.mark.parametrize("field", ["avd", "blackout", "unallocatable", "y_reboot", "y_redeploy"])
def test_outcomes_the_fit_cannot_square_are_refused(field, value):
    make = make_event if field in ("avd", "blackout", "unallocatable") else GroundTruth
    base = {} if make is make_event else dict(event_id="ev-1", y_reboot=1.0, y_redeploy=1.0, cause="software_fault")
    with pytest.raises(InvalidArgument, match=re.escape(f"{field} must be finite, >= 0 and <= {MAX_OUTCOME:.6g}, got ")):
        make(**{**base, field: value})
    assert getattr(make(**{**base, field: MAX_OUTCOME}), field) == MAX_OUTCOME


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


def test_schemas_used_alternately_each_encode_to_their_own_columns():
    # each schema builds its value -> column maps once; two layouts in one
    # process must never read each other's maps
    first = FeatureSchema(hardware_types=("alpha", "beta"))
    second = FeatureSchema(hardware_types=("gamma", "delta", "beta"), session_types=("solo",))
    for _ in range(2):
        for schema, hardware, session in ((first, "beta", "premium"), (second, "beta", "solo"), (first, "alpha", "system")):
            row = encode_matrix([make_signals(hardware_type=hardware, session_type=session)], schema)[0]
            names = schema.column_names
            hot = {names.index("error_code=sw_fault"), names.index(f"hardware_type={hardware}"), names.index(f"session_type={session}")}
            assert len(row) == schema.width
            assert {i for i in range(5, schema.width) if row[i] == 1.0} == hot
            assert all(row[i] == 0.0 for i in range(5, schema.width) if i not in hot)
        with pytest.raises(SchemaViolation):
            encode_matrix([make_signals(hardware_type="gamma", session_type="standard")], first)
        with pytest.raises(SchemaViolation):
            encode_matrix([make_signals(hardware_type="alpha", session_type="solo")], second)


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


@settings(max_examples=300)
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


# counts past int64, as far as 10^30, where a numpy column of them is an object array
WIDE_COUNTS = st.one_of(st.integers(0, 2**80), st.sampled_from((2**63 - 1, 2**63, 2**64, 10**30)))


@settings(max_examples=300)
@given(
    st.sampled_from((DEFAULT_SCHEMA, SMALL_SCHEMA)),
    st.lists(SIGNALS.flatmap(lambda s: st.builds(dataclasses.replace, st.just(s), vm_count=WIDE_COUNTS, repeat_count=WIDE_COUNTS)), max_size=12),
)
def test_records_and_their_columns_encode_alike(schema, rows):
    # a list of records skips the column arrays; the matrix, or the first
    # unknown category named, must be what its SignalColumns gives
    columns = signal_columns(rows)
    try:
        want = encode_matrix(columns, schema)
    except SchemaViolation as exc:
        with pytest.raises(SchemaViolation) as info:
            encode_matrix(rows, schema)
        assert str(info.value) == str(exc)
        return
    got = encode_matrix(rows, schema)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_keyed_uniforms_lie_in_the_unit_interval_with_mean_one_half():
    u = keyed_uniforms(5, np.arange(20_000)[None, :], 3, np.arange(8)[:, None]).ravel()
    assert u.size == 160_000
    assert u.min() >= 0.0 and u.max() < 1.0
    # the mean of n uniforms has sd 1/sqrt(12 n), ~7e-4 here
    assert abs(u.mean() - 0.5) < 4 / np.sqrt(12 * u.size)
    assert keyed_uniforms(5, np.arange(100), 0, 0).dtype == np.float64


def test_keyed_counters_are_distinct_over_a_grid_of_keys():
    events = np.array([0, 1, 2, 255, 256, 2**24, 2**32 - 1])
    steps = (0, 1, 2, 255, 256, 2**24 - 1)
    flat = [c for step in steps for c in keyed_counters(events[:, None], step, np.arange(256)).ravel().tolist()]
    assert len(flat) == len(events) * 256 * 6
    assert len(set(flat)) == len(flat)
    for key in ((-1, 0, 0), (2**32, 0, 0), (0, -1, 0), (0, 2**24, 0), (0, 0, -1), (0, 0, 256)):
        with pytest.raises(InvalidArgument):
            keyed_counters(*key)


def test_keyed_uniforms_are_uncorrelated_across_slots_steps_and_events():
    n = 100_000
    events = np.arange(n)
    base = keyed_uniforms(9, events, 4, 2)
    neighbours = {
        "next slot": keyed_uniforms(9, events, 4, 3),
        "next step": keyed_uniforms(9, events, 5, 2),
        "next event": keyed_uniforms(9, events + 1, 4, 2),
        "other seed": keyed_uniforms(10, events, 4, 2),
    }
    for name, other in neighbours.items():
        # the correlation of n independent pairs has sd 1/sqrt(n), ~3e-3 here
        assert abs(np.corrcoef(base, other)[0, 1]) < 4 / np.sqrt(n), name
        assert not np.array_equal(base, other), name


def test_a_keyed_uniform_is_the_same_alone_or_in_a_batch():
    events = np.arange(10_000)
    batch = keyed_uniforms(21, events[None, :], 6, np.arange(12)[:, None])
    for event in (0, 1, 4_999, 9_999):
        for slot in (0, 5, 11):
            assert keyed_uniforms(21, event, 6, slot) == batch[slot, event]
            assert keyed_uniforms(21, [event], 6, [slot])[0] == batch[slot, event]
    shuffled = np.random.default_rng(0).permutation(events)
    assert np.array_equal(keyed_uniforms(21, shuffled, 6, 3), batch[3, shuffled])


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    k=st.integers(0, 320),
    step=st.integers(0, 2**24 - 1),
    levels=st.sampled_from((None, 2, 7)),
)
def test_keyed_sample_is_the_first_k_of_a_stable_sort_of_its_keys(seed, n, k, step, levels):
    # coarse keys force ties at the k-th value: the lower rows win, as in a
    # stable sort
    keys = keyed_uniforms if levels is None else (lambda *key: np.floor(keyed_uniforms(*key) * levels) / levels)
    u = keys(seed, np.arange(n), step, 0)
    want = np.sort(np.argsort(u, kind="stable")[:k])
    with mock.patch.object(domain, "keyed_uniforms", keys):
        rows = keyed_sample(seed, n, k, step)
    np.testing.assert_array_equal(rows, want)
    assert len(rows) == min(k, n)
    assert np.all(np.diff(rows) > 0)
    if k >= n:
        np.testing.assert_array_equal(rows, np.arange(n))


def test_keyed_draws_of_every_site_are_pinned():
    # each learner draw is a keyed sample: its rows depend on the keys alone,
    # so no numpy release can move a model without failing this test
    assert keyed_sample(7, 12, 5).tolist() == [0, 1, 5, 6, 7]
    assert keyed_sample(7, 12, 5, 3).tolist() == [2, 3, 6, 8, 10]
    assert make_folds(10, 3, 7).tolist() == [0, 1, 1, 1, 2, 0, 0, 0, 2, 2]
    params = ForestParams(trees_per_bag=2)
    assert [sub.tolist() for sub in bag_subsamples(12, params, 7, 1)] == [[1, 7, 8], [1, 5, 8]]
    halves = honest_halves(np.arange(20, 30), params, 7)
    assert [half.tolist() for half in halves] == [[20, 23, 25, 27, 28], [21, 22, 24, 26, 29]]


def test_one_random_source():
    # every draw in the package is a keyed uniform; numpy's Generator streams
    # may change between releases (NEP 19), so the sources use np.random only
    # for seed_for's SeedSequence
    uses = []
    for path in sorted(pathlib.Path(domain.__file__).parent.glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            uses += [(path.name, m) for m in re.findall(r"\b(?:np|numpy)\.random\b(?:\.\w+)?|\bfrom numpy import .*\brandom\b", line)]
    assert uses == [("domain.py", "np.random.SeedSequence")]


@settings(max_examples=100)
@given(st.lists(SIGNALS, max_size=12), st.data())
def test_signal_columns_keep_their_records_when_indexed_and_round_tripped(rows, data):
    columns = signal_columns(rows)
    assert all(len(getattr(columns, name)) == len(rows) for name in ("vm_count", "error_code", "session_type"))
    assert columns.records() == rows
    assert signal_columns(columns.records()).records() == rows
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1)) if rows else st.just([]), label="picks")
    assert columns[np.array(picks, dtype=np.int64)].records() == [rows[i] for i in picks]
    with pytest.raises(TypeError):
        iter(columns)  # a row is read by index, never by iteration


def byte_keyed_distinct_rows(matrix):
    """``distinct_rows`` as it was: ``np.unique`` over each row's bytes."""
    keys = np.ascontiguousarray(matrix).view(np.dtype((np.void, matrix.itemsize * matrix.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


@settings(max_examples=100)
@given(st.data())
def test_distinct_rows_equal_the_byte_keyed_unique(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(0, 200), label="n")
    d = data.draw(st.integers(1, 6), label="d")
    codes = rng.integers(0, data.draw(st.sampled_from([2, 5, 300, 70_000]), label="high"), size=(n, d))
    # code rows: non-negative ints, whose big-endian bytes order as the
    # rows do, so even the group numbers agree
    size = next(s for s in (1, 2, 4, 8) if codes.max(initial=0) < 1 << (8 * s))
    first, inverse = distinct_rows(codes)
    want_first, want_inverse = byte_keyed_distinct_rows(np.ascontiguousarray(codes, dtype=f">u{size}"))
    assert (first.tolist(), inverse.tolist()) == (want_first.tolist(), want_inverse.tolist())
    # float rows: the same partition, each group's first row the same
    X = rng.integers(-3, 4, size=(n, d)) * 0.5
    first, inverse = distinct_rows(X)
    want_first, want_inverse = byte_keyed_distinct_rows(X)
    relabel = dict(zip(inverse.tolist(), want_inverse.tolist()))
    assert len(relabel) == len(set(relabel.values())) == len(first)
    assert [relabel[g] for g in inverse.tolist()] == want_inverse.tolist()
    assert sorted(first.tolist()) == sorted(want_first.tolist())
    assert (X[first][inverse] == X).all()


def test_distinct_rows_share_signed_zeros_and_never_nan():
    # -0.0 and 0.0 compare equal, and so walk every tree alike; NaN equals
    # nothing, so a row holding it is never merged with another
    X = np.array([[0.0, 1.0], [np.nan, 1.0], [-0.0, 1.0], [np.nan, 1.0], [2.0, np.nan]])
    first, inverse = distinct_rows(X)
    assert inverse[0] == inverse[2] and first[inverse[0]] == 0
    assert len({inverse[1], inverse[3], inverse[4], inverse[0]}) == 4 == len(first)
    for n in (0, 1):
        assert [a.tolist() for a in distinct_rows(np.zeros((n, 3)))] == [list(range(n))] * 2
