"""Fuzzed readers: byte flips, truncations, insertions and (for
checkpoints) header edits of valid checkpoints of all three model types,
PBM images, text datasets and config files.  Every mutated input either
loads as a validated object or raises ``FormatError`` or ``ParseError``.

A loaded tree or chain with a center is validated by its log Z, which must
equal that of a fresh canonicalization of the loaded tensors; one without
a center must canonicalize to a log Z that is not NaN.  A factor graph
must give a finite log Z, a PBM image a nonempty 0/1 matrix, and a text
dataset and a config file are checked by their readers' own constructors.

The runs are reproducible: each property is drawn from ``SEED`` with
``MAX_EXAMPLES`` examples and no example database.
"""

import functools
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from ttnborn import (build_random, canonicalize, heap_shaped_fg,
                     load_checkpoint, mps_build_random, partition_function,
                     save_checkpoint, sum_product_log_z)
from ttnborn import cli, pbm
from ttnborn.data import load_binarized_text
from ttnborn.errors import FormatError, ParseError

SEED = 20240601
MAX_EXAMPLES = 300

fuzz = settings(max_examples=MAX_EXAMPLES, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

# the values a header edit writes: wrong types, non-finite and huge numbers,
# and valid values in the wrong place
_HEADER_VALUES = st.sampled_from([
    None, True, 0, 1, 3, 7, -1, 99, 10 ** 400, 0.5, math.nan, math.inf,
    -math.inf, 1e300, "1.5", "ttn", "mps", "treefg", [], [1, 2], [[2, 2]],
    {}, {"kind": "raster-1d", "raw_shape": [16]}])
_HEADER_KEYS = st.sampled_from([
    "model_type", "n_sites", "d_max", "bond_dims", "canonical_center",
    "log_norm", "tensor_shapes", "ordering", "n_vars", "edges", "visible",
    "format"])


def _flip(raw, at, byte):
    at %= len(raw)
    return raw[:at] + bytes([raw[at] ^ byte]) + raw[at + 1:]


def _mutations(header_edits: bool):
    """A strategy of mutation lists, each applied to the bytes in turn."""
    pos = st.integers(0, 2 ** 16)
    kinds = [st.tuples(st.just("flip"), pos, st.integers(1, 255)),
             st.tuples(st.just("cut"), pos),
             st.tuples(st.just("insert"), pos, st.binary(min_size=1,
                                                         max_size=8))]
    if header_edits:
        kinds.append(st.tuples(st.just("header"), _HEADER_KEYS,
                               _HEADER_VALUES))
        # the three log_norm values named in the container's contract
        kinds.append(st.tuples(st.just("raw-log-norm"),
                               st.sampled_from([b"NaN", b'"12.5"', b"1e400"])))
    return st.lists(st.one_of(kinds), min_size=1, max_size=3)


def _mutate(raw: bytes, mutations) -> bytes:
    for kind, *args in mutations:
        if kind == "flip" and raw:
            raw = _flip(raw, *args)
        elif kind == "cut":
            raw = raw[:args[0] % (len(raw) + 1)]
        elif kind == "insert":
            at = args[0] % (len(raw) + 1)
            raw = raw[:at] + args[1] + raw[at:]
        elif kind in ("header", "raw-log-norm"):
            raw = _edit_header(raw, kind, *args)
    return raw


def _edit_header(raw, kind, key, value=None):
    """``raw`` with one header field set (as JSON text for raw-log-norm,
    whose value ``json.dumps`` would not write), when the header parses."""
    try:
        size = struct.unpack("<Q", raw[8:16])[0]
        header = json.loads(raw[16:16 + size])
    except (struct.error, ValueError):
        return raw
    if not isinstance(header, dict):
        return raw
    if kind == "raw-log-norm":
        header.pop("log_norm", None)
        blob = json.dumps(header)[:-1].encode() + b', "log_norm": %s}' % key
    else:
        blob = json.dumps({**header, key: value}).encode()
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + size:]


@functools.cache
def _checkpoint(kind: str) -> bytes:
    """The bytes of a valid checkpoint of a model type; the tree carries a
    nonzero log_norm and is canonical off its root."""
    if kind == "ttn":
        model = build_random(16, 4, seed=1)
        canonicalize(model, 5)
        model.log_norm = 12.5
    else:
        model = (mps_build_random(8, 4, seed=2) if kind == "mps"
                 else heap_shaped_fg(8, seed=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ttnborn"
        save_checkpoint(path, model)
        return path.read_bytes()


def _validated_checkpoint(path):
    model, header = load_checkpoint(path)
    if header["model_type"] == "treefg":
        assert math.isfinite(sum_product_log_z(model))
        return
    center = model.canonical_center
    fresh = model.copy()
    fresh.canonical_center = None
    canonicalize(fresh, model.first_tensor if center is None else center)
    if center is None:
        assert not math.isnan(partition_function(fresh))
        return
    got, want = partition_function(model), partition_function(fresh)
    assert got == want or math.isclose(got, want, rel_tol=1e-9,
                                       abs_tol=1e-9), (got, want)


def _outcome(read, path, data: bytes):
    """Write ``data`` to ``path`` and read it: the reader either validates
    it or raises one of the two typed errors."""
    path.write_bytes(data)
    try:
        read(path)
    except (FormatError, ParseError):
        pass


@pytest.mark.parametrize("kind", ["ttn", "mps", "treefg"])
@seed(SEED)
@fuzz
@given(mutations=_mutations(header_edits=True))
def test_checkpoint(tmp_path, kind, mutations):
    _outcome(_validated_checkpoint, tmp_path / "m.ttnborn",
             _mutate(_checkpoint(kind), mutations))


def _validated_pbm(path):
    image = pbm.read_pbm(path)
    assert image.ndim == 2 and image.size and set(np.unique(image)) <= {0, 1}


_PBM = b"P4\n# a comment\n11 5\n" + bytes(range(7, 17))


@seed(SEED)
@fuzz
@given(mutations=_mutations(header_edits=False))
def test_pbm(tmp_path, mutations):
    _outcome(_validated_pbm, tmp_path / "a.pbm", _mutate(_PBM, mutations))


_TEXT = b"0 1 1 0 1 0\n1.0 0 0 1 0.0 1\n\n0 0 0 0 1 1\n"


@seed(SEED)
@fuzz
@given(mutations=_mutations(header_edits=False))
def test_text_dataset(tmp_path, mutations):
    _outcome(load_binarized_text, tmp_path / "d.txt",
             _mutate(_TEXT, mutations))


_CONFIG = (b"# training defaults\ndmax = 4\nepochs = 2\nscheme = two-site\n"
           b"lr = 0.05\nmodel = mps\norder = 2d\nsheet = yes\n"
           b"out = runs/a\n")


def _validated_config(path):
    parser = cli.build_parser()
    argv = ["--config", str(path), "gen-random", "--n-pixels", "4",
            "--count", "2", "--seed", "1", "--out", "x"]
    cli._apply_config_defaults(parser, argv)
    parser.parse_args(argv)


@seed(SEED)
@fuzz
@given(mutations=_mutations(header_edits=False))
def test_config_file(tmp_path, mutations):
    _outcome(_validated_config, tmp_path / "c.cfg",
             _mutate(_CONFIG, mutations))
