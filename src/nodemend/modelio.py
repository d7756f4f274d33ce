"""Persistence: model files, dataset files, the action log, the update gate.

A model file is one JSON header line, ``{"format", "format_version",
"sha256"}``, then the payload: the model's record (``domain.to_record``)
as compact JSON. The checksum covers the payload bytes as written. Load
checks the format, then the version, then the checksum, before it decodes
anything. Floats are serialized via repr, so a round trip reproduces
estimates bitwise. Writes go through a temp file, fsync and an atomic
rename, so a deployed-model path never dangles.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dml import DmlModel, psi_loss, train_dml
from .domain import FeatureSchema, LabeledEvent, from_record, to_record
from .errors import (
    DataError,
    InsufficientData,
    InvalidArgument,
    ModelError,
    ModelIntegrityError,
    ModelVersionError,
    NodemendError,
)
from .simulate import GroundTruth

MODEL_FORMAT = "nodemend-model"
FORMAT_VERSION = "6.0"

# json.dumps(..., separators=(",", ":"), ensure_ascii=False) for every JSONL
# line and model payload, from one encoder rather than a new one per call
_compact = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def atomic_write_text(path: str, content: str) -> None:
    """Write ``content`` to a temp file beside ``path``, then rename it over
    ``path``. The temp file never outlives the call; an OSError is a
    DataError naming ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def check_writable(path: str) -> None:
    """Fail now, as ``atomic_write_text`` would after the work, where
    ``path`` cannot be written: no temp file can be made beside it, or a
    directory stands at it. Leaves nothing behind."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        open(tmp, "w").close()
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def save_model(model: DmlModel, path: str) -> None:
    payload = _compact(to_record(model))
    header = {
        "format": MODEL_FORMAT,
        "format_version": FORMAT_VERSION,
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }
    atomic_write_text(path, json.dumps(header, separators=(",", ":")) + "\n" + payload)


def load_model(path: str) -> DmlModel:
    try:
        with open(path, "rb") as fh:
            head, _, payload = fh.read().partition(b"\n")
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    try:
        header = json.loads(head)
    except ValueError as exc:
        raise ModelIntegrityError(f"model file is corrupt: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
        raise ModelIntegrityError("not a model file")
    version = str(header.get("format_version", ""))
    if version.split(".")[0] != FORMAT_VERSION.split(".")[0]:
        raise ModelVersionError(f"model format {version!r} is incompatible with {FORMAT_VERSION!r}")
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise ModelIntegrityError("model checksum mismatch")
    try:
        return from_record(DmlModel, json.loads(payload), "model")
    except ValueError as exc:
        raise ModelIntegrityError(f"model payload is malformed: {exc}") from exc


# ---------------------------------------------------------------------------
# dataset files: one JSON object per line, UTF-8, LF


def _write_jsonl(path: str, records: list) -> None:
    lines = [_compact(to_record(r)) for r in records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def _read_jsonl(path: str, cls, check=None) -> list:
    """Every non-blank line as a ``cls`` record, passed to ``check`` when
    given; any fault names file:line."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = from_record(cls, json.loads(line.decode("utf-8")))
            if check is not None:
                check(record)
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        records.append(record)
    return records


def write_events_jsonl(events: list[LabeledEvent], path: str) -> None:
    _write_jsonl(path, events)


def read_events_jsonl(path: str, schema: FeatureSchema | None = None) -> list[LabeledEvent]:
    """The events of a file; given a schema, every event's signals must
    lie in its closed sets."""
    return _read_jsonl(path, LabeledEvent, None if schema is None else lambda e: schema.check(e.signals))


def write_truth_jsonl(truths: list[GroundTruth], path: str) -> None:
    _write_jsonl(path, truths)


def read_truth_jsonl(path: str) -> list[GroundTruth]:
    return _read_jsonl(path, GroundTruth)


# ---------------------------------------------------------------------------
# action log


@dataclass(frozen=True)
class ActionLogRecord:
    unhealthy_timestamp: int
    action_timestamp: int
    experiment_name: str
    model_type: str
    model_name: str
    model_version: str
    tau: float | None
    tau_lower: float | None
    tau_upper: float | None
    action: int
    source: str
    reason: str
    node_id: str
    event_id: str
    action_parameters: dict = field(default_factory=dict)  # actions carry none; kept for log-format parity

    def __post_init__(self) -> None:
        if self.action_timestamp < self.unhealthy_timestamp:
            raise DataError("action_timestamp must be >= unhealthy_timestamp")


class ActionLogger:
    """Append-only JSONL sink; flushes every record so logs survive crashes."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "a", encoding="utf-8", newline="\n")

    def log(self, record: ActionLogRecord) -> None:
        self._fh.write(_compact(to_record(record)) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ActionLogger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_action_log(path: str) -> list[ActionLogRecord]:
    return _read_jsonl(path, ActionLogRecord)


# ---------------------------------------------------------------------------
# model update gate


@dataclass(frozen=True)
class UpdateResult:
    deployed: bool
    reason: str
    psi_current: float | None
    psi_candidate: float | None
    candidate: DmlModel | None


def check_margin(margin: float) -> None:
    """Refuse a gate margin that could deploy a worse model (below 0 or
    -inf) or never deploy (NaN, +inf)."""
    if not 0.0 <= margin < math.inf:
        raise InvalidArgument(f"margin must be finite and >= 0, got {margin}")


def update_model(
    current: DmlModel,
    recent: list[LabeledEvent],
    holdout: list[LabeledEvent],
    margin: float = 0.0,
) -> UpdateResult:
    """Retrain on the recent window and deploy only on a strict holdout win.

    The candidate reuses the current model's training recipe. With the
    default zero margin a tie keeps the current model. A candidate whose
    holdout score is not finite is refused.
    """
    check_margin(margin)
    if not holdout:
        return UpdateResult(False, "empty holdout", None, None, None)
    try:
        candidate = train_dml(recent, current.train_config, current.schema)
    except InsufficientData as exc:
        return UpdateResult(False, f"insufficient recent data: {exc}", None, None, None)
    except (NodemendError, np.linalg.LinAlgError) as exc:  # anything else is a bug and propagates
        return UpdateResult(False, f"training failed: {exc}", None, None, None)
    psi_cur = psi_loss(current, holdout)
    psi_cand = psi_loss(candidate, holdout)
    if not math.isfinite(psi_cand):
        return UpdateResult(False, "candidate holdout score is not finite", psi_cur, psi_cand, candidate)
    if psi_cand < psi_cur - margin:
        return UpdateResult(True, "candidate improved holdout score", psi_cur, psi_cand, candidate)
    return UpdateResult(False, "candidate did not improve holdout score", psi_cur, psi_cand, candidate)
