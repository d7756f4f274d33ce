"""Core vocabulary: actions, diagnostic signals, events, effect estimates,
and the seed derivation every random draw in the package goes through.

Everything here is an immutable value type, safe to share across threads.
The feature encoding is a pure function of a schema plus a signals record,
so every estimator in the package sees exactly the same numeric layout.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import InvalidArgument, SchemaViolation

ERROR_CODES = ("none", "hw_failure", "sw_fault", "net_timeout", "other")
DEFAULT_HARDWARE_TYPES = ("gen4_compute", "gen5_compute", "gpu_accel", "storage_dense")
DEFAULT_SESSION_TYPES = ("standard", "premium", "system")


def seed_for(seed: int, *key: int) -> int:
    """A 32-bit seed for the independent stream ``key`` under ``seed``."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """A generator for the independent stream ``key`` under ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


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

    def to_dict(self) -> dict:
        return {
            "vm_count": self.vm_count,
            "has_important_workload": self.has_important_workload,
            "network_ok": self.network_ok,
            "error_code": self.error_code,
            "repeat_count": self.repeat_count,
            "uncorrectable_tag": self.uncorrectable_tag,
            "hardware_type": self.hardware_type,
            "session_type": self.session_type,
        }

    @staticmethod
    def from_dict(d: dict) -> "DiagnosticSignals":
        return DiagnosticSignals(
            vm_count=int(d["vm_count"]),
            has_important_workload=bool(d["has_important_workload"]),
            network_ok=bool(d["network_ok"]),
            error_code=d["error_code"],
            repeat_count=int(d["repeat_count"]),
            uncorrectable_tag=bool(d["uncorrectable_tag"]),
            hardware_type=str(d["hardware_type"]),
            session_type=str(d["session_type"]),
        )


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

    def to_dict(self) -> dict:
        return {
            "event_id": self.event_id,
            "node_id": self.node_id,
            "timestamp": self.timestamp,
            "signals": self.signals.to_dict(),
            "action": int(self.action),
            "avd": self.avd,
            "interruptions": self.interruptions,
            "blackout": self.blackout,
            "unallocatable": self.unallocatable,
        }

    @staticmethod
    def from_dict(d: dict) -> "LabeledEvent":
        return LabeledEvent(
            event_id=str(d["event_id"]),
            node_id=str(d["node_id"]),
            timestamp=int(d["timestamp"]),
            signals=DiagnosticSignals.from_dict(d["signals"]),
            action=MitigationAction(int(d["action"])),
            avd=float(d["avd"]),
            interruptions=int(d["interruptions"]),
            blackout=float(d["blackout"]),
            unallocatable=float(d["unallocatable"]),
        )


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

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise InvalidArgument(f"unknown feature {name!r}") from None

    def to_dict(self) -> dict:
        return {
            "hardware_types": list(self.hardware_types),
            "session_types": list(self.session_types),
            "error_codes": list(self.error_codes),
        }

    @staticmethod
    def from_dict(d: dict) -> "FeatureSchema":
        return FeatureSchema(
            hardware_types=tuple(d["hardware_types"]),
            session_types=tuple(d["session_types"]),
            error_codes=tuple(d["error_codes"]),
        )


DEFAULT_SCHEMA = FeatureSchema()


@dataclass(frozen=True)
class FeatureVector:
    """Encoded signals plus the id of the schema that produced them."""

    values: tuple[float, ...]
    schema_id: str


def encode_features(signals: DiagnosticSignals, schema: FeatureSchema = DEFAULT_SCHEMA) -> FeatureVector:
    """Deterministically encode signals into the schema's column layout.

    Numerics pass through, booleans become 0/1, categoricals one-hot over
    their closed set. A missing error_code keeps its one-hot block all zero
    and sets the dedicated missing-indicator column to 1.

    Raises SchemaViolation for any categorical value outside the closed set.
    """
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


def decode_categoricals(vector: FeatureVector, schema: FeatureSchema = DEFAULT_SCHEMA) -> dict:
    """Recover categorical values from the one-hot blocks of an encoded vector."""
    if vector.schema_id != schema.schema_id:
        raise SchemaViolation("vector was encoded under a different schema")
    v = vector.values
    off = 5
    block = v[off : off + len(schema.error_codes)]
    missing = v[off + len(schema.error_codes)] == 1.0
    error_code = None if missing else schema.error_codes[block.index(1.0)]
    off += len(schema.error_codes) + 1
    hw_block = v[off : off + len(schema.hardware_types)]
    hardware_type = schema.hardware_types[hw_block.index(1.0)]
    off += len(schema.hardware_types)
    se_block = v[off : off + len(schema.session_types)]
    session_type = schema.session_types[se_block.index(1.0)]
    return {"error_code": error_code, "hardware_type": hardware_type, "session_type": session_type}


def encode_matrix(signal_rows: list[DiagnosticSignals], schema: FeatureSchema = DEFAULT_SCHEMA) -> np.ndarray:
    """Encode many signal records into a dense (n, width) float64 matrix."""
    out = np.empty((len(signal_rows), schema.width), dtype=np.float64)
    for i, s in enumerate(signal_rows):
        out[i, :] = encode_features(s, schema).values
    return out
