import hashlib
import json
import math
import struct

import numpy as np
import pytest

from ttnborn import (DenseTensor, build_random, canonicalize,
                     gen_random_patterns, heap_shaped_fg, load_checkpoint,
                     log_probs,
                     make_ordering, mps_build_random, partition_function,
                     save_checkpoint, sum_product_log_z)
from ttnborn.checkpoint import MAGIC
from ttnborn.mps import mps_log_probs
from ttnborn.errors import FormatError

from helpers import all_configs, with_header


class TestRoundTrip:
    def test_ttn_bits_and_header(self, tmp_path):
        model = build_random(8, 4, seed=70)
        desc = make_ordering("raster-1d", (8,))
        path = tmp_path / "m.ttnborn"
        header = save_checkpoint(path, model, ordering=desc, seed=70, epoch=3)
        loaded, h2 = load_checkpoint(path)
        assert h2["model_type"] == "ttn"
        assert h2["n_sites"] == 8 and h2["seed"] == 70 and h2["epoch"] == 3
        assert h2["bond_dims"] == {str(n): model.tensors[n].shape[0]
                                   for n in range(2, 8)}
        for n in range(1, 8):
            assert np.array_equal(loaded.tensors[n].data,
                                  model.tensors[n].data)
        assert loaded.canonical_center == model.canonical_center
        assert h2["ordering_descriptor"].kind == "raster-1d"
        assert "log_norm" not in h2 and loaded.log_norm == 0.0

    def test_mps_roundtrip_preserves_distribution(self, tmp_path):
        model = mps_build_random(8, 4, seed=71)
        path = tmp_path / "m.ttnborn"
        save_checkpoint(path, model)
        loaded, header = load_checkpoint(path)
        assert header["model_type"] == "mps"
        configs = all_configs(8)
        assert np.max(np.abs(mps_log_probs(loaded, configs)
                             - mps_log_probs(model, configs))) < 1e-12

    def test_treefg_roundtrip(self, tmp_path):
        fg = heap_shaped_fg(8, seed=72)
        path = tmp_path / "fg.ttnborn"
        save_checkpoint(path, fg)
        loaded, header = load_checkpoint(path)
        assert header["model_type"] == "treefg"
        assert loaded.edges == fg.edges
        assert abs(sum_product_log_z(loaded) - sum_product_log_z(fg)) < 1e-12

    def test_log_scales_folded_without_changing_the_model(self, tmp_path):
        model = build_random(8, 4, seed=73)
        # scatter some gauge scale around: Psi must survive serialization
        t2 = model.tensors[2]
        model.tensors[2] = DenseTensor(t2.data * math.exp(-3.0), 3.0)
        configs = all_configs(8)
        before = log_probs(model, configs)
        path = tmp_path / "m.ttnborn"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert all(loaded.tensors[n].log_scale == 0.0 for n in range(1, 8))
        assert np.max(np.abs(log_probs(loaded, configs) - before)) < 1e-10

    def test_large_canonical_scale_is_absorbed_by_the_center(self, tmp_path):
        # a fresh n=64 canonicalization piles a huge log_scale on the center;
        # the writer must still produce finite floats
        model = build_random(64, 4, seed=74)
        t1 = model.tensors[1]
        assert t1.log_scale == 0.0  # canonical builds fold into data already
        model.tensors[1] = DenseTensor(t1.data, 40.0)
        path = tmp_path / "m.ttnborn"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert np.all(np.isfinite(loaded.tensors[1].data))


class TestLogNorm:
    @pytest.mark.parametrize("build,d_max", [(build_random, 16),
                                             (mps_build_random, 32)])
    def test_fresh_1024_site_model_round_trips_exactly(self, tmp_path, build,
                                                       d_max):
        # a fresh canonicalization leaves a log_norm far past exp's range;
        # written as a header field, it comes back with the tensors' bits
        model = build(1024, d_max, 3)
        assert model.log_norm > 700.0
        path = tmp_path / "m.ttnborn"
        assert save_checkpoint(path, model)["log_norm"] == model.log_norm
        loaded, _ = load_checkpoint(path)
        assert loaded.log_norm == model.log_norm
        assert partition_function(loaded) == partition_function(model)
        rows = gen_random_patterns(1024, 16, seed=4).samples
        assert np.array_equal(log_probs(loaded, rows), log_probs(model, rows))

    def test_integer_log_norm_is_read_as_a_float(self, tmp_path):
        model = build_random(8, 4, seed=79)
        path = tmp_path / "m.ttnborn"
        save_checkpoint(path, model)
        path.write_bytes(with_header(path.read_bytes(), log_norm=3))
        loaded, _ = load_checkpoint(path)
        assert loaded.log_norm == 3.0
        assert abs(partition_function(loaded) - partition_function(model)
                   - 6.0) < 1e-12


class TestHeaderMatchesTensors:
    @pytest.mark.parametrize("fields", [
        {"n_sites": 99}, {"n_sites": 16}, {"bond_dims": {"1": 999}},
        {"bond_dims": {str(k): 1 for k in range(8)}}],
        ids=["n-sites-99", "n-sites-16", "bond-dims-999", "bond-dims-ones"])
    @pytest.mark.parametrize("build", [build_random, mps_build_random],
                             ids=["ttn", "mps"])
    def test_mismatch_raises_format_error(self, tmp_path, build, fields):
        path = tmp_path / "m.ttnborn"
        save_checkpoint(path, build(8, 4, seed=80))
        path.write_bytes(with_header(path.read_bytes(), **fields))
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestFormat:
    def test_magic_at_offset_zero(self, tmp_path):
        model = build_random(4, 2, seed=0)
        path = tmp_path / "m.ttnborn"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC == b"TTNBORN1"
        (hlen,) = struct.unpack("<Q", raw[8:16])
        import json
        header = json.loads(raw[16:16 + hlen])
        assert header["model_type"] == "ttn"

    def test_tensor_payload_is_little_endian_f64(self, tmp_path):
        model = build_random(4, 2, seed=1)
        path = tmp_path / "m.ttnborn"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        pos = 16 + hlen
        (blen,) = struct.unpack("<Q", raw[pos:pos + 8])
        first = np.frombuffer(raw[pos + 8:pos + 8 + blen], dtype="<f8")
        assert np.array_equal(first.reshape(model.tensors[1].shape),
                              model.tensors[1].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ttnborn"
        path.write_bytes(b"NOTVALID" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = build_random(4, 2, seed=2)
        path = tmp_path / "m.ttnborn"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises((FormatError, ValueError)):
            load_checkpoint(path)

    def test_identical_models_identical_bytes(self, tmp_path):
        desc = make_ordering("hierarchical-2d", (4, 4))
        digests = []
        for name in ("a", "b"):
            model = build_random(16, 4, seed=75)
            canonicalize(model, 5)
            path = tmp_path / f"{name}.ttnborn"
            save_checkpoint(path, model, ordering=desc, seed=75, epoch=9)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


def _container(header, payloads):
    """A TTNBORN1 file from a header (dict or raw bytes) and tensor bytes."""
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    out = MAGIC + struct.pack("<Q", len(blob)) + blob
    for p in payloads:
        out += struct.pack("<Q", len(p)) + p
    return out


def _without(header, key):
    return {k: v for k, v in header.items() if k != key}


def _treefg(first_edge=None, first_factor=None):
    """A tree-factor-graph container (15 variables), with its first edge or
    its first factor table replaced when given."""
    fg = heap_shaped_fg(8, seed=1)
    edges = [list(e) for e in fg.edges]
    factors = list(fg.factors)
    if first_edge is not None:
        edges[0] = list(first_edge)
    if first_factor is not None:
        factors[0] = first_factor
    header = {"model_type": "treefg", "n_vars": fg.n_vars, "edges": edges,
              "visible": fg.visible, "tensor_shapes": [[2, 2]] * len(edges)}
    return _container(header, [f.astype("<f8").tobytes() for f in factors])


class TestCanonicalCenter:
    @pytest.mark.parametrize("kind,center", [
        ("ttn", None), ("ttn", 1), ("ttn", 3), ("ttn", 7),
        ("mps", None), ("mps", 0), ("mps", 3), ("mps", 7)])
    def test_valid_checkpoints_round_trip_bit_identical(self, tmp_path, kind,
                                                        center):
        build = build_random if kind == "ttn" else mps_build_random
        model = build(8, 4, seed=77)
        if center is None:
            model.canonical_center = None
        elif center != model.canonical_center:
            canonicalize(model, center)
        path = tmp_path / "m.ttnborn"
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.canonical_center == center
        assert all(np.array_equal(a.data, b.data) for a, b in zip(
            loaded.tensors[model.first_tensor:],
            model.tensors[model.first_tensor:]))
        if center is not None:
            configs = all_configs(8)
            assert np.array_equal(log_probs(loaded, configs),
                                  log_probs(model, configs))

    def test_deviation_past_the_tolerance_is_named(self, tmp_path):
        model = build_random(8, 4, seed=78)
        model.tensors[2].data[0, 0, 0] += 1e-6
        path = tmp_path / "m.ttnborn"
        save_checkpoint(path, model)
        with pytest.raises(FormatError, match="not canonical about center 1"):
            load_checkpoint(path)
        model.tensors[2].data[0, 0, 0] -= 1e-6 - 1e-12
        save_checkpoint(path, model)
        assert load_checkpoint(path)[0].canonical_center == 1


def _with_nan(payload):
    """Tensor bytes with their first entry replaced by NaN."""
    data = np.frombuffer(payload, dtype="<f8").copy()
    data[0] = np.nan
    return data.tobytes()


def _ttn_shape(header, node, shape):
    """``header`` of the saved 8-site TTN with ``node`` stored under
    ``shape`` (same size, so the container itself stays consistent)."""
    shapes = list(header["tensor_shapes"])
    shapes[node - 1] = shape
    return {**header, "tensor_shapes": shapes}


def _mps_with_shapes(shapes=None, center=3):
    """A 4-site MPS container whose tensor bytes are stored under
    ``shapes`` (by default their own) with ``center`` in the header."""
    mps = mps_build_random(4, 2, seed=1)
    if shapes is None:
        shapes = [list(t.shape) for t in mps.tensors]
    header = {"model_type": "mps", "n_sites": 4, "canonical_center": center,
              "d_max": 2, "tensor_shapes": shapes}
    return _container(header, [t.data.astype("<f8").tobytes()
                               for t in mps.tensors])


# each case maps (saved bytes, its header, its tensor payloads) to a
# malformed file
_MALFORMED = {
    "cut-in-header-length": lambda raw, h, p: raw[:12],
    "header-length-past-end": lambda raw, h, p:
        raw[:8] + struct.pack("<Q", 2 ** 62) + raw[16:],
    "undecodable-json": lambda raw, h, p: _container(b'{"model_type": ', p),
    "non-utf8-header": lambda raw, h, p: _container(b"\xff\xfe", p),
    "json-not-an-object": lambda raw, h, p: _container(b"[1, 2]", p),
    "no-model-type": lambda raw, h, p:
        _container(_without(h, "model_type"), p),
    "unhashable-model-type": lambda raw, h, p:
        _container({**h, "model_type": ["ttn"]}, p),
    "unknown-model-type": lambda raw, h, p:
        _container({**h, "model_type": "peps"}, p),
    "no-tensor-shapes": lambda raw, h, p:
        _container(_without(h, "tensor_shapes"), p),
    "string-shape": lambda raw, h, p:
        _container({**h, "tensor_shapes": ["4x4"] + h["tensor_shapes"][1:]},
                   p),
    "negative-dims": lambda raw, h, p:
        _container({**h, "tensor_shapes": [[-4, -4]]
                    + h["tensor_shapes"][1:]}, p),
    "shape-size-mismatch": lambda raw, h, p:
        _container({**h, "tensor_shapes": [[3, 4]] + h["tensor_shapes"][1:]},
                   p),
    "string-n-sites": lambda raw, h, p: _container({**h, "n_sites": "8"}, p),
    "n-sites-not-a-power-of-2": lambda raw, h, p:
        _container({**h, "n_sites": 6}, p),
    "treefg-edge-out-of-range": lambda raw, h, p: _treefg(first_edge=(0, 99)),
    "treefg-nan-factor": lambda raw, h, p:
        _treefg(first_factor=np.array([[1.0, np.nan], [1.0, 1.0]])),
    "ttn-nan-data": lambda raw, h, p: _container(h, [_with_nan(p[0])] + p[1:]),
    # the saved tree has a (4, 4) root, (4, 4, 4) nodes 2, 3, (4, 2, 2) leaves
    "ttn-reversed-leaf-shape": lambda raw, h, p:
        _container(_ttn_shape(h, 4, [2, 2, 4]), p),
    "ttn-bonds-disagree": lambda raw, h, p:
        _container(_ttn_shape(h, 2, [4, 2, 8]), p),
    "ttn-root-with-3-axes": lambda raw, h, p:
        _container(_ttn_shape(h, 1, [4, 2, 2]), p),
    "float-center": lambda raw, h, p:
        _container({**h, "canonical_center": 1.0}, p),
    # the tree's tensors are 1..7, slot 0 is unused
    "ttn-center-99": lambda raw, h, p:
        _container({**h, "canonical_center": 99}, p),
    "ttn-center-0": lambda raw, h, p:
        _container({**h, "canonical_center": 0}, p),
    "ttn-center-negative": lambda raw, h, p:
        _container({**h, "canonical_center": -1}, p),
    "mps-center-99": lambda raw, h, p: _mps_with_shapes(center=99),
    # the saved tree is canonical at 1 and the chain at 3; read at the moved
    # center, the tree's log Z is 1.39 against 6.54 and its probabilities
    # sum to 172, the chain's log Z 0.69 against -0.83
    "ttn-center-moved": lambda raw, h, p:
        _container({**h, "canonical_center": 3}, p),
    "mps-center-moved": lambda raw, h, p: _mps_with_shapes(center=0),
    "treefg-without-edges": lambda raw, h, p:
        _container({**h, "model_type": "treefg", "n_vars": 15,
                    "visible": list(range(7, 15))}, p),
    "nan-log-norm": lambda raw, h, p:
        _container({**h, "log_norm": math.nan}, p),
    "string-log-norm": lambda raw, h, p:
        _container({**h, "log_norm": "1.5"}, p),
    "null-log-norm": lambda raw, h, p: _container({**h, "log_norm": None}, p),
    "bool-log-norm": lambda raw, h, p: _container({**h, "log_norm": True}, p),
    # JSON reads 1e400 as inf; an integer past the float range stays an int
    "overflowing-log-norm": lambda raw, h, p: _container(
        json.dumps(h)[:-1].encode() + b', "log_norm": 1e400}', p),
    "huge-int-log-norm": lambda raw, h, p:
        _container({**h, "log_norm": 10 ** 400}, p),
    "bad-ordering": lambda raw, h, p:
        _container({**h, "ordering": {"kind": "spiral", "raw_shape": [8]}},
                   p),
    "cut-in-tensor-length": lambda raw, h, p: raw[:-len(p[-1]) - 4],
    "mps-2d-shapes": lambda raw, h, p:
        _mps_with_shapes([[1, 4], [2, 4], [2, 4], [2, 2]]),
    "mps-pixel-axis-not-2": lambda raw, h, p:
        _mps_with_shapes([[1, 2, 2], [2, 4, 1], [2, 2, 2], [2, 2, 1]]),
    "mps-bonds-disagree": lambda raw, h, p:
        _mps_with_shapes([[1, 2, 2], [2, 2, 2], [4, 2, 1], [2, 2, 1]]),
}


class TestMalformedContainer:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_raises_format_error(self, tmp_path, case):
        path = tmp_path / "m.ttnborn"
        header = save_checkpoint(path, build_random(8, 4, seed=76),
                                 ordering=make_ordering("raster-1d", (8,)))
        raw = path.read_bytes()
        pos, payloads = 16 + struct.unpack("<Q", raw[8:16])[0], []
        while pos < len(raw):
            (blen,) = struct.unpack("<Q", raw[pos:pos + 8])
            payloads.append(raw[pos + 8:pos + 8 + blen])
            pos += 8 + blen
        path.write_bytes(_MALFORMED[case](raw, header, payloads))
        with pytest.raises(FormatError):
            load_checkpoint(path)
