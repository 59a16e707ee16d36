import itertools
import math

import numpy as np
import pytest

from ttnborn import (TrainConfig, TreeFactorGraph, contract_pixel_vectors,
                     amplitudes_from_vectors, fg_gradient, fg_log_ptilde,
                     fg_nll, fg_to_ttn, fg_train, heap_shaped_fg,
                     sum_product_log_z)
from ttnborn.errors import DimensionError, TopologyError
from ttnborn.factor_graph import _unary, fg_edge_marginals

from helpers import all_configs


def enum_log_z(fg, clamped=None):
    clamped = clamped or {}
    total = 0.0
    for states in itertools.product([0, 1], repeat=fg.n_vars):
        if any(states[fg.visible[p]] != v for p, v in clamped.items()):
            continue
        w = 1.0
        for (a, b), f in zip(fg.edges, fg.factors):
            w *= f[states[a], states[b]]
        total += w
    return math.log(total)


def random_tree(n_vars, n_visible, rng):
    edges = [(i, int(rng.integers(0, i))) for i in range(1, n_vars)]
    factors = [np.exp(rng.standard_normal((2, 2))) for _ in edges]
    visible = sorted(rng.choice(n_vars, size=n_visible, replace=False).tolist())
    return TreeFactorGraph(n_vars, edges, factors, visible)


class TestSumProduct:
    def test_single_edge_all_ones(self):
        fg = TreeFactorGraph(2, [(1, 0)], [np.ones((2, 2))], visible=[1])
        assert abs(sum_product_log_z(fg) - math.log(4)) < 1e-12

    def test_two_factor_chain_hand_computed(self):
        f1 = np.array([[1.0, 2.0], [3.0, 4.0]])   # (h0, h1)
        f2 = np.array([[2.0, 1.0], [1.0, 2.0]])   # (x, h1)
        fg = TreeFactorGraph(3, [(0, 1), (2, 1)], [f1, f2], visible=[2])
        assert abs(sum_product_log_z(fg) - enum_log_z(fg)) < 1e-12

    def test_random_15_node_tree(self, rng):
        fg = random_tree(15, 4, rng)
        assert abs(sum_product_log_z(fg) - enum_log_z(fg)) < 1e-10

    def test_200_random_trees(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 13))
            fg = random_tree(n, min(3, n - 1), rng)
            assert abs(sum_product_log_z(fg) - enum_log_z(fg)) < 1e-10

    def test_clamped_matches_enumeration(self, rng):
        fg = random_tree(10, 4, rng)
        for pix in range(4):
            for v in (0, 1):
                assert abs(sum_product_log_z(fg, {pix: v})
                           - enum_log_z(fg, {pix: v})) < 1e-10

    def test_a_row_scores_alike_alone_and_in_a_batch(self, rng):
        # a message's product must not round by the number of rows that
        # share it, so one pass over the free row and the data rows gives
        # what separate passes give
        fg = heap_shaped_fg(128, seed=8)
        fg.factors = [np.exp(rng.standard_normal((2, 2))) for _ in fg.edges]
        rows = rng.integers(0, 2, size=(20, 128))
        batch = fg_edge_marginals(fg, _unary(fg, None, rows))
        for i in range(len(rows) + 1):
            alone = fg_edge_marginals(fg, _unary(fg, None, rows[i - 1:i])
                                      if i else _unary(fg, None, None))
            assert all(np.array_equal(a[-1], b[i])
                       for a, b in zip(alone, batch))
        lp = fg_log_ptilde(fg, rows)
        assert all(fg_log_ptilde(fg, row)[0] == x for row, x in zip(rows, lp))
        assert fg_nll(fg, rows) == sum_product_log_z(fg) - np.mean(lp)

    def test_cycle_rejected(self):
        with pytest.raises(TopologyError):
            TreeFactorGraph(3, [(0, 1), (1, 2), (2, 0)],
                            [np.ones((2, 2))] * 3, visible=[0])

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError):
            TreeFactorGraph(4, [(0, 1), (0, 1), (2, 3)],
                            [np.ones((2, 2))] * 3, visible=[0])

    @pytest.mark.parametrize("edges, visible", [
        ([(0, 1), (0, 99)], [1, 2]),
        ([(0, 1), (-1, 2)], [1, 2]),
        ([(0, 1), (0, 2)], [1, 3]),
    ])
    def test_variable_out_of_range_rejected(self, edges, visible):
        with pytest.raises(TopologyError):
            TreeFactorGraph(3, edges, [np.ones((2, 2))] * 2, visible)

    def test_nonpositive_factor_rejected(self):
        for bad in (0.0, np.nan):
            with pytest.raises(ValueError):
                TreeFactorGraph(2, [(1, 0)],
                                [np.array([[1.0, bad], [1.0, 1.0]])],
                                visible=[1])


class TestTraining:
    def test_single_visible_all_zeros_converges(self):
        # the optimum is a hard assignment at the log-space boundary, so the
        # residual mass shrinks like 1/(lr * epochs)
        fg = TreeFactorGraph(2, [(1, 0)], [np.ones((2, 2))], visible=[1])
        data = np.zeros((4, 1), dtype=int)
        cfg = TrainConfig(learning_rate=4.0, epochs=600, d_max=2)
        fg, _ = fg_train(fg, data, cfg)
        p0 = math.exp(fg_log_ptilde(fg, np.array([[0]]))[0]
                      - sum_product_log_z(fg))
        assert abs(p0 - 1.0) < 1e-3

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(3):
            fg = random_tree(7, 3, rng)
            batch = rng.integers(0, 2, size=(6, 3))
            grads = fg_gradient(fg, batch)
            h = 1e-6
            for e in range(len(fg.edges)):
                for a in range(2):
                    for b in range(2):
                        f0 = fg.factors[e][a, b]
                        fg.factors[e][a, b] = f0 * math.exp(h)
                        up = fg_nll(fg, batch)
                        fg.factors[e][a, b] = f0 * math.exp(-h)
                        down = fg_nll(fg, batch)
                        fg.factors[e][a, b] = f0
                        fd = (up - down) / (2 * h)
                        assert abs(fd - grads[e][a, b]) < 1e-5

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
            assert all(np.array_equal(a, b)
                       for a, b in zip(factors, runs[0][1]))

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
        edge_count = (n - 2) + n
        fg = heap_shaped_fg(n, factors=[np.ones((2, 2))] * edge_count)
        ttn = fg_to_ttn(fg)
        amp = contract_pixel_vectors(ttn, np.ones((n, 2)))
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
        res = qr_split(DenseTensor(m), [0], [1])
        recon = res.q.data @ res.r.data * math.exp(res.r.log_scale)
        assert np.max(np.abs(recon - m)) < 1e-12

    def test_wrong_topology_rejected(self, rng):
        fg = random_tree(12, 8, rng)
        with pytest.raises(DimensionError):
            fg_to_ttn(fg)

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
