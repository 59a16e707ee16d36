"""Binary datasets, leaf orderings and padding.

Models consume pixels in "leaf order": a flat vector whose length is a power
of two.  An :class:`OrderingDescriptor` records how raw image pixels map onto
leaf slots, every other slot being always-zero padding, so samples can be
routed into a model and generated samples routed back out.

Two orderings are provided:

* ``raster-1d``: row-major pixels, zero padding split between the two ends of
  the chain (extra slot on the right end).
* ``hierarchical-2d``: the image is padded to the smallest 2^k x 2^k square
  (equal border, extra on the bottom/right), then pixels are laid out along
  the Z-order (Morton) curve with the column bit least significant, so each
  subtree of the model owns one aligned block of the image.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FormatError, ParseError
from .born import sample_matrix


@dataclass
class BinaryDataset:
    """|T| binary samples of equal length, plus the raw image shape."""

    samples: np.ndarray                  # (|T|, n_raw) of {0,1}, uint8
    image_shape: tuple                   # (h, w) for images, (n,) for flat data
    name: str = ""

    def __post_init__(self):
        try:
            self.samples = sample_matrix(self.samples)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        self.image_shape = tuple(int(x) for x in self.image_shape)
        if int(np.prod(self.image_shape)) != self.samples.shape[1]:
            raise FormatError(
                f"image_shape {self.image_shape} does not match row length "
                f"{self.samples.shape[1]}")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.samples.shape[1]


@dataclass
class OrderingDescriptor:
    """Bijection from raw pixels onto the non-padding slots of a leaf vector."""

    kind: str                            # "raster-1d" | "hierarchical-2d"
    raw_shape: tuple
    padded_size: int                     # number of leaf slots, a power of 2
    permutation: np.ndarray = field(repr=False)   # raw index -> leaf slot

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "raw_shape": list(self.raw_shape)}

    @classmethod
    def from_json_dict(cls, d) -> "OrderingDescriptor":
        return make_ordering(d["kind"], tuple(d["raw_shape"]))


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def morton_index(row: int, col: int, bits: int) -> int:
    """Z-order index of (row, col); the column bit is least significant."""
    code = 0
    for b in range(bits):
        code |= ((col >> b) & 1) << (2 * b)
        code |= ((row >> b) & 1) << (2 * b + 1)
    return code


def make_ordering(kind: str, image_shape) -> OrderingDescriptor:
    """Build the descriptor for a raw shape under the given ordering kind."""
    image_shape = tuple(int(x) for x in image_shape)
    if kind == "raster-1d":
        n_raw = int(np.prod(image_shape))
        padded = max(4, _next_pow2(n_raw))
        pad = padded - n_raw
        left = pad // 2   # extra padding slot goes to the right end
        perm = np.arange(n_raw, dtype=np.int64) + left
        return OrderingDescriptor(kind, image_shape, padded, perm)
    if kind == "hierarchical-2d":
        if len(image_shape) != 2:
            raise ValueError("hierarchical-2d ordering requires a 2-D shape")
        h, w = image_shape
        side = max(2, _next_pow2(max(h, w)))
        top = (side - h) // 2   # extra border goes to the bottom/right
        left = (side - w) // 2
        bits = side.bit_length() - 1
        rows = np.arange(h)[:, None] + top
        cols = np.arange(w)[None, :] + left
        perm = np.empty((h, w), dtype=np.int64)
        for r in range(h):
            for c in range(w):
                perm[r, c] = morton_index(int(rows[r, 0]), int(cols[0, c]), bits)
        return OrderingDescriptor(kind, image_shape, side * side, perm.ravel())
    raise ValueError(f"unknown ordering kind: {kind!r}")


def apply_ordering(dataset: BinaryDataset, desc: OrderingDescriptor) -> np.ndarray:
    """Route raw samples into leaf order; padding slots are filled with 0."""
    if dataset.n_pixels != len(desc.permutation):
        raise DimensionError(
            f"dataset has {dataset.n_pixels} pixels but ordering expects "
            f"{len(desc.permutation)}")
    out = np.zeros((dataset.n_samples, desc.padded_size), dtype=np.uint8)
    out[:, desc.permutation] = dataset.samples
    return out

def invert_ordering(leaf_matrix: np.ndarray, desc: OrderingDescriptor) -> np.ndarray:
    """Strip padding and undo the permutation: leaf order back to raw pixels,
    of a row or a matrix of ``desc.padded_size`` leaves a row."""
    leaf_matrix = np.asarray(leaf_matrix)
    if leaf_matrix.ndim not in (1, 2) or (
            leaf_matrix.shape[-1] != desc.padded_size):
        raise DimensionError(f"ordering expects rows of {desc.padded_size} "
                             f"leaves, got shape {leaf_matrix.shape}")
    return leaf_matrix[..., desc.permutation]


def text_lines(path):
    """(number, line) of each line of a UTF-8 text file, split as ``open``
    splits text; ParseError at the first byte that does not decode (which
    "surrogateescape" reads as the character U+DC00 + the byte)."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for ln, line in enumerate(f, start=1):
            if bad := re.search("[\udc80-\udcff]", line):
                raise ParseError(f"byte {ord(bad[0]) - 0xdc00:#04x} is not "
                                 "UTF-8 text", ln, bad.start() + 1)
            yield ln, line


def load_binarized_text(path) -> BinaryDataset:
    """Load a whitespace-separated 0/1 text file, one sample per line.

    Tokens like "0.0000"/"1.0000" (float text that is exactly 0 or 1) are
    accepted; anything else is a parse error naming line and column.  784
    pixels per row are interpreted as 28x28 images.
    """
    rows = []
    width = None
    for ln, line in text_lines(path):
        tokens = line.split()
        if not tokens:
            continue
        try:
            vals = np.array(tokens, dtype=np.float64)
        except ValueError:
            vals = None
        if vals is None or not np.all((vals == 0.0) | (vals == 1.0)):
            for col, tok in enumerate(tokens, start=1):
                try:
                    v = float(tok)
                except ValueError:
                    raise ParseError(f"token {tok!r} is not 0 or 1", ln, col)
                if v not in (0.0, 1.0):
                    raise ParseError(f"token {tok!r} is not 0 or 1", ln, col)
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise FormatError(
                f"line {ln} has {len(vals)} tokens, expected {width}")
        rows.append(vals.astype(np.uint8))
    if not rows:
        raise FormatError(f"{path}: no samples found")
    samples = np.stack(rows)
    shape = (28, 28) if width == 784 else (width,)
    return BinaryDataset(samples, shape, name=str(path))


def save_binarized_text(path, dataset: BinaryDataset):
    np.savetxt(path, dataset.samples, fmt="%d")


def gen_random_patterns(n_pixels: int, count: int, seed: int,
                        distinct: bool = False) -> BinaryDataset:
    """count i.i.d. fair-coin patterns of n_pixels bits, seeded.

    With ``distinct`` set, duplicate rows are rejected and resampled.
    """
    if n_pixels < 1 or count < 1:
        raise ValueError("n_pixels and count must be positive")
    if distinct and count > 2 ** n_pixels:
        raise ValueError(f"only {2 ** n_pixels} distinct patterns of "
                         f"{n_pixels} pixels exist, {count} asked for")
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, 2, size=(count, n_pixels), dtype=np.uint8)
    if distinct:
        seen = {samples[i].tobytes(): i for i in range(count)}
        while len(seen) < count:
            for i in range(count):
                key = samples[i].tobytes()
                if seen.get(key) != i:
                    samples[i] = rng.integers(0, 2, size=n_pixels, dtype=np.uint8)
            seen = {}
            for i in range(count):
                key = samples[i].tobytes()
                if key not in seen:
                    seen[key] = i
    return BinaryDataset(samples, (n_pixels,), name=f"random(seed={seed})")
