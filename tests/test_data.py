import os
import subprocess
import sys

import numpy as np
import pytest

import ttnborn
from ttnborn import (BinaryDataset, apply_ordering, gen_random_patterns,
                     invert_ordering, load_binarized_text, make_ordering,
                     save_binarized_text)
from ttnborn.data import morton_index
from ttnborn.errors import DimensionError, FormatError, ParseError
from ttnborn import pbm


class TestLoader:
    def test_well_formed_three_lines(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0 1 0 1\n1 1 0 0\n0 0 0 0\n")
        ds = load_binarized_text(p)
        assert ds.n_samples == 3 and ds.n_pixels == 4
        assert ds.image_shape == (4,)

    def test_float_text_tolerated(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.0000 1.0000 1 0\n")
        ds = load_binarized_text(p)
        assert np.array_equal(ds.samples, [[0, 1, 1, 0]])

    def test_half_is_a_parse_error_not_rounding(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0 1 0.5 1\n")
        with pytest.raises(ParseError) as err:
            load_binarized_text(p)
        assert err.value.line == 1 and err.value.column == 3

    def test_garbage_token_names_position(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0 1\n1 x\n")
        with pytest.raises(ParseError) as err:
            load_binarized_text(p)
        assert err.value.line == 2 and err.value.column == 2

    def test_ragged_rows_are_a_format_error(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0 1 0\n1 1\n")
        with pytest.raises(FormatError):
            load_binarized_text(p)

    def test_784_pixels_get_mnist_shape(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text(" ".join(["0"] * 784) + "\n")
        ds = load_binarized_text(p)
        assert ds.image_shape == (28, 28)

    def test_roundtrip_with_writer(self, tmp_path):
        ds = gen_random_patterns(16, 10, seed=3)
        p = tmp_path / "d.txt"
        save_binarized_text(p, ds)
        back = load_binarized_text(p)
        assert np.array_equal(back.samples, ds.samples)


class TestRandomPatterns:
    def test_deterministic(self):
        a = gen_random_patterns(16, 10, seed=7)
        b = gen_random_patterns(16, 10, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_shape(self):
        ds = gen_random_patterns(16, 10, seed=0)
        assert ds.samples.shape == (10, 16)

    def test_bit_balance_within_three_sigma(self):
        ds = gen_random_patterns(1000, 1000, seed=1)
        n = ds.samples.size
        sigma = 0.5 / np.sqrt(n)
        assert abs(ds.samples.mean() - 0.5) < 3 * sigma

    @pytest.mark.parametrize("args, name", [
        ((0, 2, 0), "n_pixels"), ((4, 0, 0), "count"), ((4, 2, -1), "seed"),
        ((4.0, 2, 0), "n_pixels"), ((4, True, 0), "count"),
        ((4, 2, True), "seed"), ((4, 2.0, 0), "count")])
    def test_non_integer_or_out_of_range_arguments_rejected(self, args, name):
        # a bool is no count or seed; a float is no size
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            gen_random_patterns(*args)

    def test_numpy_integer_arguments_accepted(self):
        ds = gen_random_patterns(np.int64(4), np.uint8(3), seed=np.int32(7))
        assert np.array_equal(ds.samples, gen_random_patterns(4, 3, 7).samples)
        assert ds.name == "random(seed=7)"

    def test_distinct_flag(self):
        ds = gen_random_patterns(2, 4, seed=0, distinct=True)
        assert len({r.tobytes() for r in ds.samples}) == 4

    def test_distinct_beyond_all_patterns_rejected(self, tmp_path):
        # in a subprocess, so that resampling forever fails on the timeout
        # instead of hanging the suite
        src = os.path.dirname(os.path.dirname(ttnborn.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "ttnborn.cli", "gen-random",
             "--n-pixels", "2", "--count", "5", "--seed", "0", "--distinct",
             "--out", str(tmp_path / "d.txt")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 1
        assert "error [argument]" in proc.stderr


def _padding_slots(desc):
    """The sorted leaf slots that no raw pixel maps to."""
    return np.setdiff1d(np.arange(desc.padded_size), desc.permutation)


class TestOrdering:
    def test_2x2_base_case(self):
        desc = make_ordering("hierarchical-2d", (2, 2))
        # leaf order [(0,0), (0,1), (1,0), (1,1)]
        assert list(desc.permutation) == [0, 1, 2, 3]
        assert desc.padded_size == 4 and len(_padding_slots(desc)) == 0

    def test_28x28_pads_to_32_with_border_2(self):
        desc = make_ordering("hierarchical-2d", (28, 28))
        assert desc.padded_size == 1024
        assert len(_padding_slots(desc)) == 1024 - 784
        # the corner pixel lands inside a border of width 2
        assert desc.permutation[0] == morton_index(2, 2, 5)

    def test_raster_14_pads_one_each_end(self):
        desc = make_ordering("raster-1d", (14,))
        assert desc.padded_size == 16
        assert list(_padding_slots(desc)) == [0, 15]

    def test_raster_odd_extra_padding_goes_right(self):
        desc = make_ordering("raster-1d", (13,))
        assert list(_padding_slots(desc)) == [0, 14, 15]

    def test_apply_invert_roundtrip(self):
        ds = gen_random_patterns(784, 5, seed=2)
        ds = BinaryDataset(ds.samples, (28, 28))
        desc = make_ordering("hierarchical-2d", (28, 28))
        leaf = apply_ordering(ds, desc)
        assert np.array_equal(invert_ordering(leaf, desc), ds.samples)

    @pytest.mark.parametrize("shape", [(5, 1023), (1023,), (5, 1024, 1)])
    def test_invert_rejects_rows_of_another_width(self, shape):
        desc = make_ordering("hierarchical-2d", (28, 28))
        with pytest.raises(DimensionError):
            invert_ordering(np.zeros(shape, np.uint8), desc)

    def test_all_ones_image_counts(self):
        ds = BinaryDataset(np.ones((1, 784), dtype=np.uint8), (28, 28))
        desc = make_ordering("hierarchical-2d", (28, 28))
        leaf = apply_ordering(ds, desc)
        assert leaf.sum() == 784 and leaf.shape[1] == 1024

    def test_padding_slots_always_zero(self):
        ds = gen_random_patterns(784, 3, seed=9)
        ds = BinaryDataset(ds.samples, (28, 28))
        desc = make_ordering("hierarchical-2d", (28, 28))
        leaf = apply_ordering(ds, desc)
        assert not leaf[:, _padding_slots(desc)].any()

    def test_2d_requires_2d_shape(self):
        with pytest.raises(ValueError):
            make_ordering("hierarchical-2d", (16,))

    def test_morton_blocks_are_contiguous(self):
        # every aligned 2^j x 2^j block occupies a contiguous leaf range
        side, bits = 16, 4
        codes = np.array([[morton_index(r, c, bits) for c in range(side)]
                          for r in range(side)])
        for j in (1, 2, 3):
            b = 2 ** j
            for r0 in range(0, side, b):
                for c0 in range(0, side, b):
                    block = codes[r0:r0 + b, c0:c0 + b].ravel()
                    assert block.max() - block.min() == b * b - 1

    def test_sibling_leaves_are_horizontal_pairs(self):
        bits = 3
        for r in range(8):
            for c in range(0, 8, 2):
                assert morton_index(r, c + 1, bits) == morton_index(r, c, bits) + 1

    def test_striped_images_tree_distance_2d_beats_1d(self):
        # vertically adjacent pixels are the correlated pairs in
        # vertical stripes; measure their leaf-to-leaf tree distance
        h = w = 8
        def tree_distance(desc, a, b):
            n_sites = desc.padded_size
            na = (n_sites + int(desc.permutation[a])) // 2
            nb = (n_sites + int(desc.permutation[b])) // 2
            d = 0
            while na != nb:
                if na > nb:
                    na //= 2
                else:
                    nb //= 2
                d += 1
            return d
        pairs = [(r * w + c, (r + 1) * w + c)
                 for r in range(h - 1) for c in range(w)]
        d2 = make_ordering("hierarchical-2d", (h, w))
        d1 = make_ordering("raster-1d", (h * w,))
        mean2 = np.mean([tree_distance(d2, a, b) for a, b in pairs])
        mean1 = np.mean([tree_distance(d1, a, b) for a, b in pairs])
        assert mean2 < mean1


class TestPbm:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 2, size=(11, 13)).astype(np.uint8)
        path = tmp_path / "x.pbm"
        pbm.write_pbm(path, img)
        assert np.array_equal(pbm.read_pbm(path), img)

    def test_directory_reader(self, tmp_path, rng):
        for i in range(3):
            pbm.write_pbm(tmp_path / f"{i}.pbm",
                          rng.integers(0, 2, size=(4, 6)).astype(np.uint8))
        mat, shape = pbm.read_pbm_dir(tmp_path)
        assert mat.shape == (3, 24) and shape == (4, 6)

    def test_contact_sheet(self, tmp_path, rng):
        imgs = rng.integers(0, 2, size=(5, 4, 4)).astype(np.uint8)
        path = tmp_path / "sheet.pbm"
        pbm.write_contact_sheet(path, imgs)
        sheet = pbm.read_pbm(path)
        assert sheet.shape == (2 * 4 + 1, 3 * 4 + 2)   # 5 images on a 2x3 grid
        assert np.array_equal(sheet[:4, :4], imgs[0])
        with pytest.raises(ValueError, match="at least one image"):
            pbm.write_contact_sheet(tmp_path / "empty.pbm", imgs[:0])

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
    def test_dataset_without_rows_or_pixels_rejected(self, shape):
        with pytest.raises(FormatError):
            BinaryDataset(np.zeros(shape, dtype=np.uint8), (shape[1],))

    @pytest.mark.parametrize("value, dtype", [(0.5, np.float64),
                                              (256, np.int64)])
    def test_dataset_values_outside_0_1_rejected(self, value, dtype):
        # checked before the cast to uint8, which reads both as 0
        rows = np.zeros((2, 4), dtype=dtype)
        rows[1, 2] = value
        with pytest.raises(FormatError, match="0 or 1"):
            BinaryDataset(rows, (4,))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pbm"
        path.write_bytes(b"P1\n2 2\n0 1 1 0\n")
        with pytest.raises(FormatError):
            pbm.read_pbm(path)
