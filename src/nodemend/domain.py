"""Core vocabulary: actions, diagnostic signals, events, effect estimates,
and the seed derivation every random draw in the package goes through.

Everything here is an immutable value type, safe to share across threads.
The feature encoding is a pure function of a schema plus a signals record,
so every estimator in the package sees exactly the same numeric layout.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import IntEnum

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgument, SchemaViolation

ERROR_CODES = ("none", "hw_failure", "sw_fault", "net_timeout", "other")
DEFAULT_HARDWARE_TYPES = ("gen4_compute", "gen5_compute", "gpu_accel", "storage_dense")
DEFAULT_SESSION_TYPES = ("standard", "premium", "system")

# array fields of records; see from_record
IntArray = NDArray[np.int64]
FloatArray = NDArray[np.float64]


def seed_for(seed: int, *key: int) -> int:
    """A 32-bit seed for the independent stream ``key`` under ``seed``."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


# Counter-based draws (the idea of Random123, Salmon et al., SC 2011): the
# uniform of (event, step, slot) is the SplitMix64 output (Steele, Lea &
# Flood, OOPSLA 2014) at the packed counter event·2³² + step·2⁸ + slot of
# a stream whose start derives from the seed.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
KEYED_EVENTS, KEYED_STEPS, KEYED_SLOTS = 2**32, 2**24, 2**8


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=16)
def _keyed_start(seed: int) -> np.uint64:
    return _splitmix64(np.array([seed_for(seed, 200)], dtype=np.uint64))[0]


def keyed_counters(events, step: int, slots) -> np.ndarray:
    """The packed 64-bit counters of (event, step, slot); ``events`` and
    ``slots`` broadcast against each other. Distinct keys get distinct
    counters: events below 2³², steps below 2²⁴, slots below 2⁸."""
    events = np.asarray(events, dtype=np.int64)
    slots = np.asarray(slots, dtype=np.int64)
    if not 0 <= step < KEYED_STEPS:
        raise InvalidArgument(f"keyed step must lie in [0, {KEYED_STEPS}), got {step}")
    for name, values, bound in (("event", events, KEYED_EVENTS), ("slot", slots, KEYED_SLOTS)):
        if values.size and not (0 <= values.min() and values.max() < bound):
            raise InvalidArgument(f"keyed {name} must lie in [0, {bound})")
    return (events.astype(np.uint64) << 32) | np.uint64(step << 8) | slots.astype(np.uint64)


def keyed_uniforms(seed: int, events, step: int, slots) -> np.ndarray:
    """Uniforms in [0, 1), each a pure function of (seed, event, step, slot):
    a draw is the same alone or inside any batch, and no key shares it."""
    counters = keyed_counters(events, step, slots)
    z = _splitmix64(counters.reshape(-1) * _GAMMA + _keyed_start(seed))  # 1-d: wraps without a warning
    return ((z >> 11).astype(np.float64) * 2.0**-53).reshape(counters.shape)


def keyed_sample(seed: int, n: int, k: int, step: int = 0) -> IntArray:
    """The k rows of 0..n-1 with the smallest keyed uniform of (seed, row,
    step), ascending; all n when k >= n. ``np.partition`` only finds the
    k-th value, so the pick rests on the keys alone, ties lowest row first."""
    if k >= n:
        return np.arange(n)
    u = keyed_uniforms(seed, np.arange(n), step, 0)
    rows = np.flatnonzero(u <= np.partition(u, k - 1)[k - 1])
    return rows if len(rows) == k else np.sort(rows[np.argsort(u[rows], kind="stable")[:k]])


class MitigationAction(IntEnum):
    """The two mitigation actions. Integer codes are fixed and persisted."""

    REBOOT = 0
    REDEPLOY = 1


@dataclass(frozen=True)
class DiagnosticSignals:
    """Observable features of one unhealthy event.

    ``error_code`` is ``None`` when diagnostics returned nothing; that state
    is distinct from the literal code ``"other"`` and gets its own indicator
    column in the encoding.
    """

    vm_count: int
    has_important_workload: bool
    network_ok: bool
    error_code: str | None
    repeat_count: int
    uncorrectable_tag: bool
    hardware_type: str
    session_type: str

    def __post_init__(self) -> None:
        if self.vm_count < 0:
            raise InvalidArgument(f"vm_count must be >= 0, got {self.vm_count}")
        if self.repeat_count < 0:
            raise InvalidArgument(f"repeat_count must be >= 0, got {self.repeat_count}")


@dataclass(frozen=True)
class LabeledEvent:
    """One observational row: signals, the action taken, factual outcomes."""

    event_id: str
    node_id: str
    timestamp: int
    signals: DiagnosticSignals
    action: MitigationAction
    avd: float
    interruptions: int
    blackout: float
    unallocatable: float

    def __post_init__(self) -> None:
        for name in ("avd", "blackout", "unallocatable"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InvalidArgument(f"{name} must be finite and >= 0, got {value}")
        if self.interruptions < 0:
            raise InvalidArgument("interruptions must be >= 0")


@dataclass(frozen=True)
class IteEstimate:
    """Estimated downtime difference (redeploy minus reboot) with bounds.

    Positive tau means Redeploy is expected to cost more downtime, so the
    decision layer prefers Reboot.
    """

    tau: float
    tau_lower: float
    tau_upper: float
    confidence_level: float

    def __post_init__(self) -> None:
        if not (self.tau_lower <= self.tau <= self.tau_upper):
            raise InvalidArgument(
                f"bounds must satisfy lower <= tau <= upper, got "
                f"({self.tau_lower}, {self.tau}, {self.tau_upper})"
            )
        if not (0.0 < self.confidence_level < 1.0):
            raise InvalidArgument("confidence_level must be in (0, 1)")

    @property
    def width(self) -> float:
        return self.tau_upper - self.tau_lower


class _Columns:
    """Equal-length arrays, read by index, never iterated: indexing it indexes every field."""

    __iter__ = None

    def __getitem__(self, rows):
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))


_SIGNAL_FIELDS = tuple(f.name for f in fields(DiagnosticSignals))
_signal_fields = operator.attrgetter(*_SIGNAL_FIELDS)
_CATEGORICAL = ("error_code", "hardware_type", "session_type")


@dataclass(frozen=True)
class SignalColumns(_Columns):
    """The signals of many events, one array per field; object arrays for the categoricals."""

    vm_count: np.ndarray
    has_important_workload: np.ndarray
    network_ok: np.ndarray
    error_code: np.ndarray
    repeat_count: np.ndarray
    uncorrectable_tag: np.ndarray
    hardware_type: np.ndarray
    session_type: np.ndarray

    def records(self) -> list[DiagnosticSignals]:
        """Row i as the record ``DiagnosticSignals``, for every row."""
        return [DiagnosticSignals(*row) for row in zip(*(getattr(self, name).tolist() for name in _SIGNAL_FIELDS))]


@dataclass(frozen=True)
class FeatureSchema:
    """Fixed column layout for encoded signals.

    Column order:
      0  vm_count
      1  has_important_workload
      2  network_ok
      3  repeat_count
      4  uncorrectable_tag
      5..9   error_code one-hot over ERROR_CODES
      10     error_code missing indicator
      then hardware_type one-hot, then session_type one-hot.
    """

    hardware_types: tuple[str, ...] = DEFAULT_HARDWARE_TYPES
    session_types: tuple[str, ...] = DEFAULT_SESSION_TYPES
    error_codes: tuple[str, ...] = ERROR_CODES

    @property
    def column_names(self) -> tuple[str, ...]:
        cols = ["vm_count", "has_important_workload", "network_ok", "repeat_count", "uncorrectable_tag"]
        cols += [f"error_code={c}" for c in self.error_codes]
        cols += ["error_code_missing"]
        cols += [f"hardware_type={h}" for h in self.hardware_types]
        cols += [f"session_type={s}" for s in self.session_types]
        return tuple(cols)

    @property
    def categories(self) -> tuple[tuple[str, tuple], ...]:
        """(field, closed set) of each categorical signal, in column order;
        error_code's set ends with None, its missing indicator."""
        return (
            ("error_code", (*self.error_codes, None)),
            ("hardware_type", self.hardware_types),
            ("session_type", self.session_types),
        )

    @functools.cached_property
    def category_columns(self) -> tuple[tuple[str, dict], ...]:
        """(field, value -> column) of each categorical signal, in column
        order; built once per schema, for ``encode_matrix``."""
        columns, off = [], 5
        for name, values in self.categories:
            columns.append((name, {v: off + i for i, v in enumerate(values)}))
            off += len(values)
        return tuple(columns)

    @property
    def width(self) -> int:
        return 5 + len(self.error_codes) + 1 + len(self.hardware_types) + len(self.session_types)

    def check(self, signals: DiagnosticSignals) -> None:
        """Raise SchemaViolation, as ``encode_matrix`` would, for a
        categorical value outside its closed set."""
        for name, values in self.categories:
            if getattr(signals, name) not in values:
                raise SchemaViolation(f"unknown {name} {getattr(signals, name)!r}")

    @property
    def schema_id(self) -> str:
        digest = hashlib.sha256("\x1f".join(self.column_names).encode("utf-8")).hexdigest()
        return digest[:16]


DEFAULT_SCHEMA = FeatureSchema()


@dataclass(frozen=True)
class FeatureVector:
    """Encoded signals plus the id of the schema that produced them."""

    values: tuple[float, ...]
    schema_id: str


def encode_features(signals: DiagnosticSignals, schema: FeatureSchema = DEFAULT_SCHEMA) -> FeatureVector:
    """One row of ``encode_matrix``, with the id of its schema."""
    return FeatureVector(values=tuple(encode_matrix([signals], schema)[0].tolist()), schema_id=schema.schema_id)


def encode_matrix(signals: SignalColumns | list[DiagnosticSignals], schema: FeatureSchema = DEFAULT_SCHEMA) -> np.ndarray:
    """Encode signals, columns or a list of records, into a dense (n, width)
    float64 matrix, column by column, in the schema's column layout.

    Numerics pass through, booleans become 0/1, categoricals one-hot over
    their closed set. A missing error_code keeps its one-hot block all zero
    and sets the dedicated missing-indicator column, which follows that
    block, to 1.

    Raises SchemaViolation for any categorical value outside the closed set.
    """
    if isinstance(signals, SignalColumns):
        fields_of = {name: getattr(signals, name) for name in _SIGNAL_FIELDS}
    else:
        # one pass over the records: a tuple of values per field, no arrays
        fields_of = dict(zip(_SIGNAL_FIELDS, zip(*map(_signal_fields, signals)))) or dict.fromkeys(_SIGNAL_FIELDS, ())
    # the numeric fields, in field order, are the first five columns
    numeric = np.array([fields_of[name] for name in _SIGNAL_FIELDS if name not in _CATEGORICAL], dtype=np.float64)
    out = np.zeros((numeric.shape[1], schema.width), dtype=np.float64)
    out[:, :5] = numeric.T
    cols = []
    for name, column in schema.category_columns:
        values = fields_of[name]
        try:
            cols.append([column[v] for v in (values.tolist() if isinstance(values, np.ndarray) else values)])
        except KeyError as exc:
            raise SchemaViolation(f"unknown {name} {exc.args[0]!r}") from None
    out[np.arange(len(out)), np.array(cols, dtype=np.int64)] = 1.0
    return out


def distinct_rows(matrix: np.ndarray) -> tuple[IntArray, IntArray]:
    """(first, inverse) of the distinct rows of a 2-d array: row ``first[g]``
    is the first of group g, and row i belongs to group ``inverse[i]``.
    Groups follow the rows' lexicographic order, column 0 first: a
    ``lexsort``, then one comparison of each sorted row with the one before
    marks where groups start. ``-0.0`` and ``0.0`` share a group; a row
    holding NaN is a group of its own."""
    if len(matrix) < 2:
        return np.arange(len(matrix)), np.arange(len(matrix))
    order = np.lexsort(matrix.T[::-1])
    ranked = matrix[order]
    start = np.concatenate([[True], np.any(ranked[1:] != ranked[:-1], axis=1)])
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(start) - 1
    # lexsort is stable, so a group's first row in that order is its first
    return order[start], inverse


# ---------------------------------------------------------------------------
# record codec: every dataclass that crosses a file boundary is written and
# read through one plan per class, built once from its type annotations.

_PLANS: dict[type, tuple] = {}


def to_record(obj) -> dict:
    """A JSON-ready dict of a dataclass, in field order: tuples and arrays
    become lists, enums their int code, nested dataclasses nested dicts."""
    return {
        name: getattr(obj, name) if encode is None else encode(getattr(obj, name))
        for name, _, _, encode, _ in _plan(type(obj))
    }


def from_record(cls, d, what: str | None = None):
    """Build ``cls`` from a dict, checking every field against its annotation.

    A non-object, an unknown key, a missing required key or a mistyped value
    raises InvalidArgument naming ``what`` (default: the class name) and the
    field. ``bool``, ``int`` and ``str`` must be exactly that type; ``float``
    also takes an int. An ``NDArray[np.int64]`` comes from a list of ints,
    an ``NDArray[np.float64]`` from a list of finite numbers. Fields with
    defaults may be absent; fields outside ``__init__`` are neither written
    nor read.
    """
    what = what or cls.__name__
    if not isinstance(d, dict):
        raise InvalidArgument(f"{what} must be an object, got {type(d).__name__}")
    kwargs = {}
    for name, exact, decode, _, required in _plan(cls):
        v = d.get(name, MISSING)
        if v is MISSING:
            if required:
                raise InvalidArgument(f"{what}: missing key {name!r}")
        else:
            kwargs[name] = v if type(v) is exact else decode(v, what, name)
    if len(kwargs) != len(d):
        raise InvalidArgument(f"{what}: unknown keys {sorted(set(d) - set(kwargs), key=str)}")
    return cls(**kwargs)


def _plan(cls) -> tuple:
    """(name, exact, decode, encode, required) for every field of ``cls``:
    a value whose type is ``exact`` is stored as it is, any other goes
    through ``decode``; ``encode`` None means the value is written as it is."""
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        plan = tuple(
            (f.name, *_codec(hints[f.name]), f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)
            if f.init
        )
        _PLANS[cls] = plan
    return plan


def _mistyped(what: str, name: str, expected: str, value) -> InvalidArgument:
    return InvalidArgument(f"{what}.{name} must be {expected}, got {value!r}")


def _refuse(expected: str):
    def decode(v, what, name):
        raise _mistyped(what, name, expected, v)

    return decode


def _float(v, what, name):
    if type(v) is int:
        return float(v)
    raise _mistyped(what, name, "a number", v)


_EXACT = {bool: "a bool", int: "an int", str: "a string", dict: "an object"}


def _codec(tp) -> tuple:
    """(exact, decode, encode) for one annotation."""
    if tp in _EXACT:
        return tp, _refuse(_EXACT[tp]), None
    if tp is float:
        return float, _float, None
    if is_dataclass(tp):

        def decode_record(v, what, name):
            return from_record(tp, v, f"{what}.{name}")

        return None, decode_record, to_record
    if isinstance(tp, type) and issubclass(tp, IntEnum):

        def decode_enum(v, what, name):
            if type(v) is int:
                try:
                    return tp(v)
                except ValueError:
                    pass
            raise _mistyped(what, name, f"one of {[int(m) for m in tp]}", v)

        return None, decode_enum, int
    args = typing.get_args(tp)
    if typing.get_origin(tp) is np.ndarray:
        return None, _array(typing.get_args(args[1])[0]), np.ndarray.tolist
    if isinstance(tp, types.UnionType) and len(args) == 2 and type(None) in args:
        exact, inner_decode, inner_encode = _codec(args[0] if args[1] is type(None) else args[1])

        def decode_optional(v, what, name):
            return None if v is None else inner_decode(v, what, name)

        def encode_optional(v):
            return None if v is None else inner_encode(v)

        return exact, decode_optional, None if inner_encode is None else encode_optional
    if typing.get_origin(tp) is tuple and args:
        variadic = len(args) == 2 and args[1] is Ellipsis
        codecs = [_codec(a) for a in args[: 1 if variadic else None]]

        def decode_tuple(v, what, name):
            if type(v) not in (list, tuple) or not (variadic or len(v) == len(codecs)):
                raise _mistyped(what, name, "a list" if variadic else f"a list of {len(codecs)} items", v)
            items = []
            for i, x in enumerate(v):
                exact, decode, _ = codecs[0 if variadic else i]
                items.append(x if type(x) is exact else decode(x, what, f"{name}[{i}]"))
            return tuple(items)

        def encode_tuple(v):
            encoders = [encode for _, _, encode in codecs] * (len(v) if variadic else 1)
            return [x if encode is None else encode(x) for x, encode in zip(v, encoders)]

        return None, decode_tuple, encode_tuple if any(encode for _, _, encode in codecs) else list
    raise TypeError(f"no record codec for {tp!r}")


def _array(dtype) -> typing.Callable:
    """Decoder of a JSON list into a 1-d array: an int64 array takes ints
    only, a float64 array finite numbers only."""
    kinds, expected = ({int}, "a list of ints") if dtype is np.int64 else ({int, float}, "a list of finite numbers")

    def decode_array(v, what, name):
        if type(v) is list and set(map(type, v)) <= kinds:
            try:
                arr = np.array(v, dtype=dtype)
            except OverflowError:
                arr = None
            if arr is not None and (dtype is np.int64 or np.isfinite(arr).all()):
                return arr
        raise InvalidArgument(f"{what}.{name} must be {expected}")

    return decode_array
