"""Self-describing structured-text parameter checkpoints.

JSON with a mandatory format_version, per-tensor name/shape/row-major values,
and free-form metadata. Python's float repr round-trips IEEE doubles exactly,
so save -> load is bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


def tensors_to_doc(tensors: dict) -> list:
    out = []
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)
        out.append({"name": name, "shape": list(arr.shape),
                    "values": arr.reshape(-1).tolist()})
    return out


def doc_to_tensors(doc: list) -> dict:
    out = {}
    for entry in doc:
        arr = np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])
        out[entry["name"]] = arr
    return out


def save(path, tensors: dict, metadata: dict) -> None:
    doc = {"format_version": FORMAT_VERSION,
           "metadata": metadata,
           "tensors": tensors_to_doc(tensors)}
    Path(path).write_text(json.dumps(doc))


def load(path) -> tuple:
    """Returns (tensors dict, metadata dict); corrupt files raise."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CheckpointError(f"{path}: missing format_version field")
    if doc["format_version"] != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format_version {doc['format_version']}")
    try:
        tensors = doc_to_tensors(doc["tensors"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed tensor table: {exc}") from exc
    return tensors, doc.get("metadata", {})


def net_tensors(prefix: str, net) -> dict:
    out = {}
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        out[f"{prefix}.layer{i}.weight"] = w
        out[f"{prefix}.layer{i}.bias"] = b
    return out


def tensor(tensors: dict, name: str) -> np.ndarray:
    if name not in tensors:
        raise CheckpointError(f"missing tensor {name}")
    return tensors[name]


def load_net(prefix: str, tensors: dict, net) -> None:
    """Copy the prefix's tensors into net.theta. A missing, mis-shaped or
    non-finite tensor raises and leaves net untouched."""
    staged = net.copy()
    for name, dst in net_tensors(prefix, staged).items():
        src = tensor(tensors, name)
        if src.shape != dst.shape:
            raise CheckpointError(f"tensor {name} has shape {src.shape}, expected {dst.shape}")
        dst[...] = src
    staged.validate()
    net.theta[:] = staged.theta
