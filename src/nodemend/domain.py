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


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """A generator for the independent stream ``key`` under ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


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
    def width(self) -> int:
        return 5 + len(self.error_codes) + 1 + len(self.hardware_types) + len(self.session_types)

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


def encode_matrix(signal_rows: list[DiagnosticSignals], schema: FeatureSchema = DEFAULT_SCHEMA) -> np.ndarray:
    """Encode signal records into a dense (n, width) float64 matrix, column
    by column, in the schema's column layout.

    Numerics pass through, booleans become 0/1, categoricals one-hot over
    their closed set. A missing error_code keeps its one-hot block all zero
    and sets the dedicated missing-indicator column, which follows that
    block, to 1.

    Raises SchemaViolation for any categorical value outside the closed set.
    """
    n = len(signal_rows)
    out = np.zeros((n, schema.width), dtype=np.float64)
    numeric = [[s.vm_count, s.has_important_workload, s.network_ok, s.repeat_count, s.uncorrectable_tag] for s in signal_rows]
    out[:, :5] = np.array(numeric, dtype=np.float64).reshape(n, 5)
    off = 5
    for name, values in (
        ("error_code", (*schema.error_codes, None)),
        ("hardware_type", schema.hardware_types),
        ("session_type", schema.session_types),
    ):
        column = {v: off + i for i, v in enumerate(values)}
        try:
            cols = [column[getattr(s, name)] for s in signal_rows]
        except KeyError as exc:
            raise SchemaViolation(f"unknown {name} {exc.args[0]!r}") from None
        out[np.arange(n), np.asarray(cols, dtype=np.int64)] = 1.0
        off += len(values)
    return out


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
    an ``NDArray[np.float64]`` from a list of finite numbers. A union of
    dataclasses decodes as its first member whose required fields the
    object holds. Fields with defaults may be absent; fields outside
    ``__init__`` are neither written nor read.
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
    if isinstance(tp, types.UnionType) and all(map(is_dataclass, args)):

        def decode_union(v, what, name):
            # the first member whose required fields the object holds
            held = v.keys() if type(v) is dict else ()
            cls = next((a for a in args if all(p[0] in held for p in _plan(a) if p[4])), args[0])
            return from_record(cls, v, f"{what}.{name}")

        return None, decode_union, to_record
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
