"""The TTNBORN1 checkpoint container.

Layout: 8-byte magic ``TTNBORN1``, a little-endian u64 byte length followed
by a UTF-8 JSON header, then each tensor as a little-endian u64 byte length
followed by row-major little-endian float64 data.  The header carries
model_type (ttn | mps | treefg), n_sites, d_max, per-edge bond dimensions,
tensor shapes in storage order, the ordering descriptor, seed and epoch.
A tree or chain with a canonical center is loaded only if it is canonical
about it, so that log Z and every read stay exact, and only if its
header's n_sites and bond_dims are those of its tensors.
A treefg header's n_vars, edges and visible must be the heap layout of its
factor stack (see ``factor_graph``); any other tree is rejected.

A tree or chain with a nonzero ``log_norm`` stores it in the header field
``log_norm``, so a save then load is bit-identical; an absent field means
0, a present one must be a finite number.  Field order is fixed, making
identical models byte-identical on disk.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys

import numpy as np

from .born import max_canonical_deviation
from .errors import FormatError
from .data import OrderingDescriptor
from .tensor import DenseTensor
from .ttn import TtnModel
from .mps import MpsModel
from .factor_graph import TreeFactorGraph

MAGIC = b"TTNBORN1"

# Largest canonical deviation of a loaded model with a center (training and
# canonicalization keep it near 1e-14); every read relies on that form.
CANONICAL_TOL = 1e-8

_MODELS = {"ttn": TtnModel, "mps": MpsModel}


def _heap_fields(fg: TreeFactorGraph) -> dict:
    """The header fields of a tree factor graph: its heap layout."""
    return {"n_vars": fg.n_vars, "edges": [list(e) for e in fg.edges],
            "visible": fg.visible}


def _bond_dims(model) -> dict:
    """The header's ``bond_dims`` of a tree or chain, as JSON reads it."""
    return {str(k): int(v) for k, v in model.bond_dims().items()}


def save_checkpoint(path, model, *, ordering: OrderingDescriptor = None,
                    seed=None, epoch=None):
    """Write a model; returns the header dict actually stored."""
    header = {"format": "ttnborn-checkpoint-v1"}
    if isinstance(model, TreeFactorGraph):
        arrays = list(model.factors)
        header.update(model_type="treefg", n_sites=model.n_sites, d_max=None,
                      bond_dims={}, **_heap_fields(model))
    elif isinstance(model, (TtnModel, MpsModel)):
        arrays = [t.data for t in model.tensors[model.first_tensor:]]
        header.update(model_type=model.model_type, n_sites=model.n_sites,
                      d_max=model.d_max, bond_dims=_bond_dims(model),
                      canonical_center=model.canonical_center)
        if model.log_norm:
            header["log_norm"] = model.log_norm
    else:
        raise TypeError(f"cannot checkpoint {type(model).__name__}")
    header.update(tensor_shapes=[list(a.shape) for a in arrays],
                  ordering=ordering and ordering.to_json_dict(),
                  seed=seed, epoch=epoch)
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<Q", len(blob)) + blob)
        for a in arrays:
            raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
            f.write(struct.pack("<Q", len(raw)))
            f.write(raw)
    return header


def _ints(v) -> bool:
    return type(v) is list and all(type(x) is int for x in v)


# Checks of the header fields the loader reads, per model type.
_FIELDS = {"ttn": {"n_sites": lambda v: type(v) is int,
                   "canonical_center": lambda v: type(v) in (int, type(None)),
                   "d_max": lambda v: type(v) in (int, type(None))},
           "treefg": {"n_vars": lambda v: type(v) is int, "visible": _ints,
                      "edges": lambda v: type(v) is list and all(
                          _ints(e) and len(e) == 2 for e in v)}}
_FIELDS["mps"] = _FIELDS["ttn"]


def _checked_header(blob: bytes, path) -> dict:
    """The decoded header; FormatError unless it is a JSON object with the
    fields the loader reads, of the types it reads them as."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: header is not JSON: {exc}") from None
    model_type = header.get("model_type") if type(header) is dict else None
    if type(model_type) is not str or model_type not in _FIELDS:
        raise FormatError(f"{path}: header has no known model_type")
    checks = {"tensor_shapes": lambda v: type(v) is list and all(
        _ints(s) and min(s, default=0) >= 0 for s in v), **_FIELDS[model_type]}
    for name, ok in checks.items():
        if not ok(header.get(name)):
            raise FormatError(f"{path}: bad {name} in header")
    log_norm = header.get("log_norm", 0.0)   # finite, as an int too
    if type(log_norm) not in (int, float) or not (
            abs(log_norm) <= sys.float_info.max):
        raise FormatError(f"{path}: bad log_norm in header")
    return header


def load_checkpoint(path):
    """Read a checkpoint; returns (model, header).

    The ordering descriptor, when present, is reconstructed and attached to
    the header under the key "ordering_descriptor".  A malformed container,
    a header the model constructor rejects, or a tree or chain whose tensors
    are not canonical about its stored center (``CANONICAL_TOL``) or do not
    have its header's n_sites and bond_dims raises ``FormatError``.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(8)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if size < 16:
            raise FormatError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<Q", f.read(8))
        if hlen > size - 16:
            raise FormatError(f"{path}: truncated header")
        header = _checked_header(f.read(hlen), path)
        nbytes = [8 * math.prod(shape) for shape in header["tensor_shapes"]]
        if size - 16 - hlen != sum(8 + n for n in nbytes):
            raise FormatError(f"{path}: file size does not match tensor_shapes")
        arrays = []
        for shape, n in zip(header["tensor_shapes"], nbytes):
            (blen,) = struct.unpack("<Q", f.read(8))
            if blen != n:
                raise FormatError(f"{path}: {blen} bytes for shape {shape}")
            arrays.append(np.empty(shape, dtype="<f8"))
            f.readinto(arrays[-1])
    if not all(np.isfinite(a).all() for a in arrays):
        raise FormatError(f"{path}: tensor data is not finite")
    model_type = header["model_type"]
    try:   # TopologyError and DimensionError are ValueErrors too
        if model_type in _MODELS:
            cls, center = _MODELS[model_type], header.get("canonical_center")
            model = cls([None] * cls.first_tensor + [
                DenseTensor(a, validate=False) for a in arrays], center,
                header.get("d_max"))
            model.log_norm = float(header.get("log_norm", 0.0))
            deviation = (0.0 if center is None
                         else max_canonical_deviation(model))
            if not deviation <= CANONICAL_TOL:
                raise ValueError(f"the tensors are not canonical about center "
                                 f"{center} (deviation {deviation:.3g})")
            if (header["n_sites"], header.get("bond_dims")) != (
                    model.n_sites, _bond_dims(model)):
                raise ValueError("header n_sites or bond_dims do not match "
                                 "the tensors")
        else:
            model = TreeFactorGraph(len(header["visible"]), arrays)
            if any(header[k] != v for k, v in _heap_fields(model).items()):
                raise ValueError("treefg edges are not the heap layout")
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if header.get("ordering"):
        try:
            header["ordering_descriptor"] = OrderingDescriptor.from_json_dict(
                header["ordering"])
        except (KeyError, TypeError, ValueError):
            raise FormatError(f"{path}: bad ordering in header") from None
    return model, header
