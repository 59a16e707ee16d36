import math

import numpy as np
import pytest

from ttnborn import (DenseTensor, MpsModel, TrainConfig, gen_random_patterns,
                     mps_build_random, mps_canonicalize, mps_correlation,
                     mps_correlation_map, mps_log_probs, mps_marginal, mps_max_canonical_deviation, mps_nll,
                     mps_partition_function, mps_sample_batch,
                     mps_sweep_epoch, mps_train)
from ttnborn.errors import StateError, TopologyError

from helpers import (all_configs, chi_square_pvalue, config_indices,
                     mps_from_patterns, mps_state_vector)


def uniform_mps(n):
    return MpsModel([DenseTensor(np.full((1, 2, 1), 1.0)) for _ in range(n)])


class TestStructure:
    def test_build_caps_bonds_by_capacity(self):
        m = mps_build_random(8, 16, seed=0)
        dims = [t.shape for t in m.tensors]
        assert dims[0] == (1, 2, 2) and dims[-1] == (2, 2, 1)
        assert max(d[0] for d in dims) == 16   # middle bond min(16, 2^4)
        capped = mps_build_random(8, 5, seed=0)
        assert max(t.shape[0] for t in capped.tensors) == 5

    def test_boundary_bond_violation_rejected(self):
        with pytest.raises(TopologyError):
            MpsModel([DenseTensor(np.ones((2, 2, 1))),
                      DenseTensor(np.ones((1, 2, 1)))])

    def test_build_deterministic(self):
        a = mps_build_random(8, 4, seed=5)
        b = mps_build_random(8, 4, seed=5)
        assert all(np.array_equal(x.data, y.data)
                   for x, y in zip(a.tensors, b.tensors))


class TestCanonicalForm:
    def test_identities_at_every_center(self):
        m = mps_build_random(12, 4, seed=1)
        for center in (0, 3, 7, 11):
            mps_canonicalize(m, center)
            assert mps_max_canonical_deviation(m) < 1e-10

    def test_center_moves_preserve_probabilities(self):
        m = mps_build_random(8, 4, seed=2)
        configs = all_configs(8)
        base = mps_log_probs(m, configs)
        mps_canonicalize(m, 0)
        assert np.max(np.abs(mps_log_probs(m, configs) - base)) < 1e-10

    def test_partition_function_matches_enumeration(self):
        m = mps_build_random(8, 4, seed=3)
        amps = mps_state_vector(m)
        assert abs(mps_partition_function(m)
                   - math.log(np.sum(amps * amps))) < 1e-10

    def test_partition_needs_center(self):
        with pytest.raises(StateError):
            mps_partition_function(uniform_mps(4))


class TestProbabilities:
    def test_normalization_n12(self):
        m = mps_build_random(12, 3, seed=4)
        total = np.sum(np.exp(mps_log_probs(m, all_configs(12))))
        assert abs(total - 1.0) < 1e-10

    def test_uniform_init_nll_is_n_log2(self):
        m = uniform_mps(10)
        mps_canonicalize(m, 9)
        data = gen_random_patterns(10, 7, seed=5).samples
        assert abs(mps_nll(m, data) - 10 * math.log(2)) < 1e-12

    def test_log_prob_matches_state_vector(self):
        m = mps_build_random(8, 4, seed=6)
        amps = mps_state_vector(m)
        z = np.sum(amps * amps)
        configs = all_configs(8)
        idx = config_indices(configs)
        expect = np.log(amps[idx] ** 2 / z)
        assert np.max(np.abs(mps_log_probs(m, configs) - expect)) < 1e-10

    def test_marginal_and_correlation_match_enumeration(self):
        m = mps_build_random(8, 4, seed=7)
        configs = all_configs(8)
        p = np.exp(mps_log_probs(m, configs))
        p0, p1 = mps_marginal(m, {1: 1}, 5)
        mask = configs[:, 1] == 1
        expect1 = p[mask & (configs[:, 5] == 1)].sum() / p[mask].sum()
        assert abs(p1 - expect1) < 1e-10
        s = 2.0 * configs - 1.0
        for i, j in ((0, 7), (2, 4)):
            expect = float(p @ (s[:, i] * s[:, j])
                           - (p @ s[:, i]) * (p @ s[:, j]))
            assert abs(mps_correlation(m, i, j) - expect) < 1e-10
        cmap = mps_correlation_map(m, 2)
        assert abs(cmap[6] - mps_correlation(m, 2, 6)) < 1e-12


class TestTraining:
    def test_memorizes_ten_patterns(self):
        data = gen_random_patterns(16, 10, seed=8, distinct=True).samples
        cfg = TrainConfig(learning_rate=0.05, d_max=10, scheme="two-site",
                          epochs=40, seed=0)
        model, stats = mps_train(data, cfg)
        assert stats.nll[-1] - math.log(10) < 0.01
        assert mps_max_canonical_deviation(model) < 1e-10

    def test_one_site_scheme_also_memorizes(self):
        data = gen_random_patterns(16, 6, seed=9, distinct=True).samples
        cfg = TrainConfig(learning_rate=0.05, d_max=8, scheme="one-site",
                          epochs=80, seed=0)
        model, stats = mps_train(data, cfg)
        assert min(stats.nll) - math.log(6) < 0.01

    def test_epoch_updates_every_site_twice(self):
        data = gen_random_patterns(8, 4, seed=10).samples
        model = mps_build_random(8, 4, seed=11)
        counts = {i: 0 for i in range(8)}

        def on_step(m, info):
            i, _, due = info
            if due:
                counts[i] += 1
        cfg = TrainConfig(learning_rate=0.05, d_max=4, epochs=1, seed=0)
        mps_sweep_epoch(model, data, cfg, on_step=on_step)
        assert all(c == 2 for c in counts.values())

    def test_deterministic(self):
        data = gen_random_patterns(16, 8, seed=12).samples
        cfg = TrainConfig(learning_rate=0.05, d_max=6, epochs=5, seed=1)
        a = mps_train(data, cfg)[1].nll
        b = mps_train(data, cfg)[1].nll
        assert a == b

    def test_nll_bounded_by_log_t(self):
        data = gen_random_patterns(16, 10, seed=13, distinct=True).samples
        cfg = TrainConfig(learning_rate=0.1, d_max=10, epochs=30, seed=0)
        _, stats = mps_train(data, cfg)
        assert all(v >= math.log(10) - 1e-9 for v in stats.nll)


class TestSampling:
    def test_chain_rule_identity(self):
        m = mps_build_random(8, 4, seed=14)
        samples, chain = mps_sample_batch(m, 500, seed=15,
                                          return_chain_log=True)
        lp = mps_log_probs(m, samples)
        assert np.max(np.abs(chain - lp)) < 1e-10

    def test_empirical_matches_exact(self):
        m = mps_build_random(8, 4, seed=16)
        probs = np.exp(mps_log_probs(m, all_configs(8)))
        samples = mps_sample_batch(m, 200_000, seed=17)
        counts = np.bincount(config_indices(samples), minlength=256)
        assert chi_square_pvalue(counts, probs) > 0.01

    def test_memorized_patterns_only(self):
        data = gen_random_patterns(12, 5, seed=18, distinct=True).samples
        model = mps_from_patterns(data)
        mps_canonicalize(model, 11)
        samples = mps_sample_batch(model, 2000, seed=19)
        patterns = {r.tobytes() for r in data.astype(np.uint8)}
        assert all(r.tobytes() in patterns for r in samples)

    @pytest.mark.parametrize("center", [0, 3, 7])
    def test_chain_log_from_any_center(self, center):
        m = mps_build_random(8, 4, seed=14)
        mps_canonicalize(m, center)
        before = [t.data.copy() for t in m.tensors]
        samples, chain = mps_sample_batch(m, 500, seed=15,
                                          return_chain_log=True)
        assert m.canonical_center == center
        assert all(np.array_equal(t.data, b) for t, b in zip(m.tensors, before))
        assert np.max(np.abs(chain - mps_log_probs(m, samples))) < 1e-10

    @pytest.mark.parametrize("center", [0, 7])
    def test_empirical_matches_exact_from_either_end(self, center):
        m = mps_build_random(8, 4, seed=22)
        mps_canonicalize(m, center)
        probs = np.exp(mps_log_probs(m, all_configs(8)))
        samples = mps_sample_batch(m, 100_000, seed=23)
        counts = np.bincount(config_indices(samples), minlength=256)
        assert chi_square_pvalue(counts, probs) > 0.01

    def test_deterministic_and_single(self):
        m = mps_build_random(8, 3, seed=20)
        assert np.array_equal(mps_sample_batch(m, 5, seed=21),
                              mps_sample_batch(m, 5, seed=21))
        assert np.array_equal(mps_sample_batch(m, 1, seed=21)[0],
                              mps_sample_batch(m, 5, seed=21)[0])
