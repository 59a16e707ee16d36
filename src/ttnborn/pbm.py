"""Raw (P4) portable-bitmap reading and writing.

Pixel value 1 maps to a set bit (black).  Rows are bit-packed MSB-first and
padded to whole bytes, per the format.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FormatError


def write_pbm(path, image):
    image = np.asarray(image)
    if image.ndim != 2:
        raise FormatError("PBM image must be 2-D")
    h, w = image.shape
    bits = (image != 0).astype(np.uint8)
    packed = np.packbits(bits, axis=1)
    with open(path, "wb") as f:
        f.write(b"P4\n%d %d\n" % (w, h))
        f.write(packed.tobytes())


def read_pbm(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P4"):
        raise FormatError(f"{path}: not a raw PBM (P4) file")
    # Header: magic, width, height as ASCII tokens; '#' starts a comment.
    pos, tokens = 2, []
    while len(tokens) < 2:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    pos += 1  # single whitespace after the header
    if not all(t.isdigit() for t in tokens) or 0 in map(int, tokens):
        raise FormatError(f"{path}: width and height must be positive "
                          f"decimal integers, got {b' '.join(tokens)!r}")
    w, h = int(tokens[0]), int(tokens[1])
    row_bytes = (w + 7) // 8
    body = np.frombuffer(raw[pos:pos + h * row_bytes], dtype=np.uint8)
    if body.size != h * row_bytes:
        raise FormatError(f"{path}: truncated pixel data")
    bits = np.unpackbits(body.reshape(h, row_bytes), axis=1)[:, :w]
    return bits.astype(np.uint8)


def read_pbm_dir(path) -> np.ndarray:
    """All .pbm images of a directory (sorted by name) as a sample matrix."""
    names = sorted(n for n in os.listdir(path) if n.endswith(".pbm"))
    if not names:
        raise FormatError(f"{path}: no .pbm files")
    images = [read_pbm(os.path.join(path, n)) for n in names]
    shape = images[0].shape
    for n, img in zip(names, images):
        if img.shape != shape:
            raise FormatError(f"{n}: shape {img.shape} != {shape}")
    return np.stack([img.ravel() for img in images]), shape


def write_contact_sheet(path, images):
    """Tile images into one PBM, ceil(sqrt(count)) to a row, with a
    one-pixel white separator between tiles."""
    images = np.asarray(images)
    count, h, w = images.shape
    if count == 0:
        raise ValueError("a contact sheet needs at least one image")
    cols = int(np.ceil(np.sqrt(count)))
    rows = (count + cols - 1) // cols
    sheet = np.zeros((rows * (h + 1) - 1, cols * (w + 1) - 1), dtype=np.uint8)
    for i in range(count):
        r, c = divmod(i, cols)
        sheet[r * (h + 1):r * (h + 1) + h,
              c * (w + 1):c * (w + 1) + w] = images[i]
    write_pbm(path, sheet)
