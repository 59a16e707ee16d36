import math

import numpy as np
import pytest

import ttnborn.born as born
from ttnborn import (TrainConfig, TreeFactorGraph, contract_pixel_vectors,
                     fg_nll, fg_to_ttn, fg_train, heap_shaped_fg,
                     load_checkpoint, save_checkpoint, sum_product_log_z)
from ttnborn.errors import FormatError
from ttnborn.factor_graph import fg_gradient, fg_log_ptilde
from ttnborn.ttn import amplitudes_from_vectors

from helpers import all_configs, with_header


_STATES = {n_vars: all_configs(n_vars) for n_vars in (7, 15)}


def enum_log_z(fg, clamped=None):
    """log Z by summing the factor product over all 2^(2n - 1) states."""
    states = _STATES[fg.n_vars]
    keep = np.ones(len(states), dtype=bool)
    for p, v in (clamped or {}).items():
        keep &= states[:, fg.visible[p]] == v
    weight = np.ones(len(states))
    for (a, b), f in zip(fg.edges, fg.factors):
        weight *= f[states[:, a], states[:, b]]
    return math.log(weight[keep].sum())


def random_heap_fg(n, rng):
    return TreeFactorGraph(n, np.exp(rng.standard_normal((2 * n - 2, 2, 2))))


class TestSumProduct:
    def test_random_15_node_tree(self, rng):
        # the 8-pixel heap: 7 hidden variables and 8 pixels
        fg = random_heap_fg(8, rng)
        assert fg.n_vars == 15
        assert abs(sum_product_log_z(fg) - enum_log_z(fg)) < 1e-10

    def test_200_random_trees(self, rng):
        # heap graphs of 7 and 15 variables with random factors
        for _ in range(200):
            fg = random_heap_fg(int(rng.choice([4, 8])), rng)
            assert abs(sum_product_log_z(fg) - enum_log_z(fg)) < 1e-10

    def test_clamped_matches_enumeration(self, rng):
        for n in (4, 8):
            fg = random_heap_fg(n, rng)
            for pix in range(n):
                for v in (0, 1):
                    assert abs(sum_product_log_z(fg, {pix: v})
                               - enum_log_z(fg, {pix: v})) < 1e-10

    def test_log_ptilde_matches_enumeration(self, rng):
        fg = random_heap_fg(4, rng)
        configs = all_configs(4)
        expect = [enum_log_z(fg, dict(enumerate(c))) for c in configs]
        assert np.max(np.abs(fg_log_ptilde(fg, configs) - expect)) < 1e-10

    @pytest.mark.parametrize("clamped", [
        {0: -1}, {0: 2}, {0: 0.5}, {1.5: 0}, {-1: 0}, {8: 1}, {"0": 1}],
        ids=["value--1", "value-2", "value-0.5", "pixel-1.5", "pixel--1",
             "pixel-8", "pixel-str"])
    def test_bad_clamp_rejected(self, clamped):
        with pytest.raises(ValueError):
            sum_product_log_z(heap_shaped_fg(8, seed=1), clamped)

    def test_a_row_scores_alike_alone_and_in_a_batch(self, rng):
        # each 2-state product is explicit multiply-adds, so a row's log p~
        # does not depend on the rows that share its pass
        fg = random_heap_fg(128, rng)
        rows = rng.integers(0, 2, size=(20, 128))
        lp = fg_log_ptilde(fg, rows)
        assert all(fg_log_ptilde(fg, row)[0] == x for row, x in zip(rows, lp))
        assert fg_nll(fg, rows) == sum_product_log_z(fg) - np.mean(lp)

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_queries_do_not_depend_on_the_chunk(self, monkeypatch, rng,
                                                chunk):
        fg = random_heap_fg(16, rng)
        rows = rng.integers(0, 2, size=(200, 16))
        whole = (fg_log_ptilde(fg, rows), fg_nll(fg, rows),
                 fg_gradient(fg, rows))
        assert born._chunk_rows(16 * 16, len(rows)) == len(rows)
        monkeypatch.setattr(born, "_chunk_rows", lambda m, c: chunk)
        assert np.array_equal(fg_log_ptilde(fg, rows), whole[0])
        assert fg_nll(fg, rows) == whole[1]
        assert np.max(np.abs(fg_gradient(fg, rows) - whole[2])) < 1e-14

    def test_nonpositive_factor_rejected(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            factors = np.ones((6, 2, 2))
            factors[2, 0, 1] = bad
            with pytest.raises(ValueError):
                TreeFactorGraph(4, factors)


class TestHeapLayout:
    def test_header_layout_is_pinned(self, tmp_path):
        header = save_checkpoint(tmp_path / "fg.ttnborn", heap_shaped_fg(4))
        assert header["edges"] == [[1, 0], [2, 0], [3, 1], [4, 1], [5, 2],
                                   [6, 2]]
        assert header["visible"] == [3, 4, 5, 6]
        assert header["n_vars"] == 7

    @pytest.mark.parametrize("fields", [
        {"edges": [[0, 1], [2, 0], [3, 1], [4, 1], [5, 2], [6, 2]]},
        {"edges": [[2, 0], [1, 0], [3, 1], [4, 1], [5, 2], [6, 2]]},
        {"edges": [[2, 0], [1, 0], [3, 2], [4, 2], [5, 1], [6, 1]]},
        {"edges": [[1, 0], [2, 0], [3, 1], [4, 1], [5, 2], [6, 99]]},
        {"visible": [6, 5, 4, 3]},
        {"visible": [3, 4, 5, -1]},
        {"n_vars": 8},
    ], ids=["swapped", "permuted", "renumbered", "edge-out-of-range",
            "visible", "visible-out-of-range", "n-vars"])
    def test_non_heap_header_rejected(self, tmp_path, fields):
        path = tmp_path / "fg.ttnborn"
        save_checkpoint(path, heap_shaped_fg(4, seed=3))
        path.write_bytes(with_header(path.read_bytes(), **fields))
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestTraining:
    def test_all_zeros_data_converges(self):
        # the optimum is a hard assignment at the log-space boundary, so the
        # residual mass shrinks like 1/(lr * epochs)
        fg = TreeFactorGraph(4, np.ones((6, 2, 2)))
        data = np.zeros((4, 4), dtype=int)
        cfg = TrainConfig(learning_rate=4.0, epochs=1200, d_max=2)
        fg, _ = fg_train(fg, data, cfg)
        p0 = math.exp(fg_log_ptilde(fg, data[:1])[0] - sum_product_log_z(fg))
        assert abs(p0 - 1.0) < 1e-3

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(3):
            fg = random_heap_fg(8, rng)
            batch = rng.integers(0, 2, size=(6, 8))
            grads = fg_gradient(fg, batch)
            h = 1e-6
            for index in np.ndindex(fg.factors.shape):
                f0 = fg.factors[index]
                fg.factors[index] = f0 * math.exp(h)
                up = fg_nll(fg, batch)
                fg.factors[index] = f0 * math.exp(-h)
                down = fg_nll(fg, batch)
                fg.factors[index] = f0
                assert abs((up - down) / (2 * h) - grads[index]) < 1e-5

    @pytest.mark.parametrize("value", [-1, 2])
    @pytest.mark.parametrize("call", [
        fg_log_ptilde, fg_gradient, fg_nll,
        lambda fg, rows: fg_train(fg, rows, TrainConfig(epochs=1))])
    def test_pixel_values_outside_0_1_rejected(self, call, value):
        rows = np.array([[1, 0, 1, 1, 0, 0, 1, 0]] * 2)
        rows[1, 0] = value
        with pytest.raises(ValueError, match="pixel values"):
            call(heap_shaped_fg(8, seed=1), rows)

    def test_row_dtype_does_not_change_training(self, rng):
        data = rng.integers(0, 2, size=(12, 8))
        runs = []
        for dtype in (np.uint8, np.int64, np.bool_, np.float64):
            fg, stats = fg_train(heap_shaped_fg(8, seed=4), data.astype(dtype),
                                 TrainConfig(learning_rate=0.5, epochs=3))
            runs.append((stats["nll"], fg.factors))
        for nlls, factors in runs[1:]:
            assert nlls == runs[0][0]
            assert np.array_equal(factors, runs[0][1])

    def test_recorded_nll_is_the_model_nll(self, rng):
        data = rng.integers(0, 2, size=(12, 8))
        fg = heap_shaped_fg(8, seed=5)
        recorded = []
        fg_train(fg, data, TrainConfig(learning_rate=2.0, epochs=6),
                 on_epoch=lambda g, e, st: recorded.append(
                     st["nll"][-1] == fg_nll(g, data)))
        assert recorded == [True] * 6

    def test_nll_decreases_under_guarded_steps(self, rng):
        fg = heap_shaped_fg(8, seed=4)
        data = rng.integers(0, 2, size=(12, 8))
        cfg = TrainConfig(learning_rate=0.5, epochs=25, d_max=2)
        fg, stats = fg_train(fg, data, cfg)
        assert all(b <= a + 1e-12
                   for a, b in zip(stats["nll"][:-1], stats["nll"][1:]))

    def test_materially_worse_than_ttn_on_same_data(self):
        # directional: the 2-state tree factor graph cannot memorize random
        # patterns that the Born machine stores exactly
        from ttnborn import build_random, gen_random_patterns, train
        data = gen_random_patterns(64, 10, seed=3000, distinct=True).samples
        ttn = build_random(64, 10, seed=1)
        ttn, stats = train(ttn, data, TrainConfig(
            learning_rate=0.05, d_max=10, scheme="two-site", epochs=20,
            seed=0))
        fg = heap_shaped_fg(64, seed=2)
        fg, fg_stats = fg_train(fg, data, TrainConfig(
            learning_rate=0.5, epochs=40, d_max=2))
        assert fg_stats["nll"][-1] > stats.nll[-1] + 0.5


class TestMapping:
    def test_all_ones_factors_give_uniform_measure(self):
        n = 8
        fg = TreeFactorGraph(n, np.ones((2 * n - 2, 2, 2)))
        assert abs(sum_product_log_z(fg) - (2 * n - 1) * math.log(2)) < 1e-12
        amp = contract_pixel_vectors(fg_to_ttn(fg), np.ones((n, 2)))
        assert abs(amp.log_abs - sum_product_log_z(fg)) < 1e-10

    def test_random_factors_match_per_configuration(self):
        fg = heap_shaped_fg(4, seed=5)
        ttn = fg_to_ttn(fg)
        configs = all_configs(4)
        log_abs, sign = amplitudes_from_vectors(ttn, np.eye(2)[configs])
        expect = fg_log_ptilde(fg, configs)
        assert np.all(sign == 1)
        assert np.max(np.abs(log_abs - expect)) < 1e-10

    def test_qr_split_halves_reconstruct_edge_matrices(self, rng):
        from ttnborn.tensor import DenseTensor, qr_split
        m = np.exp(rng.standard_normal((2, 2)))
        q, r = qr_split(DenseTensor(m), [0], [1])
        recon = q @ r
        assert np.max(np.abs(recon - m)) < 1e-12

    def test_hundred_random_graphs_free_and_clamped(self, rng):
        for trial in range(100):
            n = int(rng.choice([4, 8, 16]))
            fg = heap_shaped_fg(n, seed=int(rng.integers(0, 2 ** 31)))
            ttn = fg_to_ttn(fg)
            free = contract_pixel_vectors(ttn, np.ones((n, 2)))
            assert abs(free.log_abs - sum_product_log_z(fg)) < 1e-10
            pix = int(rng.integers(0, n))
            for v in (0, 1):
                vecs = np.ones((n, 2))
                vecs[pix] = np.eye(2)[v]
                amp = contract_pixel_vectors(ttn, vecs)
                assert abs(amp.log_abs - sum_product_log_z(fg, {pix: v})) \
                    < 1e-10

    def test_multi_pixel_clampings_up_to_three(self, rng):
        for trial in range(20):
            n = int(rng.choice([8, 16]))
            fg = heap_shaped_fg(n, seed=int(rng.integers(0, 2 ** 31)))
            ttn = fg_to_ttn(fg)
            for size in (2, 3):
                pixels = rng.choice(n, size=size, replace=False)
                values = rng.integers(0, 2, size=size)
                clamp = {int(p): int(v) for p, v in zip(pixels, values)}
                vecs = np.ones((n, 2))
                for p, v in clamp.items():
                    vecs[p] = np.eye(2)[v]
                amp = contract_pixel_vectors(ttn, vecs)
                assert abs(amp.log_abs - sum_product_log_z(fg, clamp)) < 1e-10
