"""One format for the artifacts a command reads back, controller checkpoints
and baseline curves: JSON holding a format_version, the artifact's kind, named
float64 vectors and metadata. Float reprs round-trip IEEE doubles exactly, so
save -> load is bit-exact; `load` returns only what it has checked."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    pass


def save(path, kind: str, arrays: dict, metadata: dict) -> None:
    """A non-finite value raises ValueError, since `load` would refuse it."""
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "metadata": metadata,
           "arrays": {name: np.asarray(a, dtype=np.float64).tolist()
                      for name, a in arrays.items()}}
    Path(path).write_text(json.dumps(doc, allow_nan=False))


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise CheckpointError(f"non-finite value {text}")
    return value


def load(path, kind: str) -> tuple:
    """(arrays, metadata) of a format-2 artifact of this kind; anything else
    raises CheckpointError."""
    try:
        doc = json.loads(Path(path).read_text(), parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError, CheckpointError) as exc:  # ValueError: not JSON text
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    version = doc.get("format_version", "missing") if isinstance(doc, dict) else "missing"
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format_version {version!r}, "
                              f"this reader reads {FORMAT_VERSION}")
    if doc.get("kind") != kind:
        raise CheckpointError(f"{path}: a {doc.get('kind')!r} file, not a {kind!r}")
    try:
        arrays = {name: np.array(v, dtype=np.float64) for name, v in doc["arrays"].items()}
        metadata = dict(doc["metadata"])
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed array table or metadata: {exc!r}") from exc
    if any(a.ndim != 1 or not np.isfinite(a).all() for a in arrays.values()):
        raise CheckpointError(f"{path}: an array is not a finite vector")  # null reads as NaN
    return arrays, metadata
