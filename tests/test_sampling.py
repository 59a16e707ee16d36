import numpy as np
import pytest

from ttnborn import (build_random, canonicalize, gen_random_patterns,
                     log_probs, marginal, sample_batch, sample_one,
                     save_samples_pbm, train, TrainConfig)
from ttnborn import pbm
from ttnborn.errors import StateError

from helpers import all_configs, chi_square_pvalue, config_indices, \
    ttn_from_patterns, uniform_ttn


class TestSampleOne:
    def test_single_pattern_model_always_returns_it(self):
        pattern = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        model = ttn_from_patterns(pattern[np.newaxis])
        canonicalize(model, 1)
        for seed in range(10):
            assert np.array_equal(sample_one(model, seed), pattern)

    def test_uniform_model_chi_square(self):
        model = uniform_ttn(4)
        canonicalize(model, 1)
        samples = sample_batch(model, 100_000, seed=1)
        counts = np.bincount(config_indices(samples), minlength=16)
        assert chi_square_pvalue(counts, np.full(16, 1 / 16)) > 0.01

    def test_requires_canonical_model(self):
        model = uniform_ttn(4)
        with pytest.raises(StateError):
            sample_one(model, 0)


class TestSampleBatch:
    def test_count_one_equals_sample_one(self):
        model = build_random(8, 4, seed=30)
        assert np.array_equal(sample_batch(model, 1, seed=5)[0],
                              sample_one(model, seed=5))

    def test_same_seed_identical_batches(self):
        model = build_random(8, 4, seed=31)
        a = sample_batch(model, 50, seed=7)
        b = sample_batch(model, 50, seed=7)
        assert np.array_equal(a, b)

    def test_chunking_does_not_change_the_stream(self):
        import ttnborn.sampling as sampling
        model = build_random(8, 4, seed=32)
        whole = sample_batch(model, 300, seed=9)
        orig = sampling._chunk_rows
        sampling._chunk_rows = lambda m, c: 64
        try:
            chunked = sample_batch(model, 300, seed=9)
        finally:
            sampling._chunk_rows = orig
        assert np.array_equal(whole, chunked)

    def test_sampling_does_not_mutate_the_model(self):
        model = build_random(8, 4, seed=33)
        canonicalize(model, 5)
        before = [model.tensors[n].data.copy() for n in range(1, 8)]
        sample_batch(model, 10, seed=1)
        assert model.canonical_center == 5
        for n in range(1, 8):
            assert np.array_equal(model.tensors[n].data, before[n - 1])

    def test_empirical_distribution_matches_exact(self):
        model = build_random(8, 4, seed=34)
        probs = np.exp(log_probs(model, all_configs(8)))
        samples = sample_batch(model, 200_000, seed=13)
        counts = np.bincount(config_indices(samples), minlength=256)
        assert chi_square_pvalue(counts, probs) > 0.01

    def test_reversed_order_same_distribution(self):
        model = build_random(8, 4, seed=34)
        probs = np.exp(log_probs(model, all_configs(8)))
        samples = sample_batch(model, 200_000, seed=14, order="leaf-reversed")
        counts = np.bincount(config_indices(samples), minlength=256)
        assert chi_square_pvalue(counts, probs) > 0.01

    def test_unknown_order_rejected(self):
        model = build_random(8, 2, seed=0)
        with pytest.raises(ValueError):
            sample_batch(model, 1, seed=0, order="spiral")


class TestChainRule:
    def test_chain_log_equals_model_log_prob(self):
        model = build_random(8, 4, seed=35)
        samples, chain = sample_batch(model, 1000, seed=17,
                                      return_chain_log=True)
        lp = log_probs(model, samples)
        assert np.max(np.abs(chain - lp)) < 1e-10

    def test_cached_conditionals_match_marginal_recomputation(self):
        # replay a sample's conditionals through the standalone marginal()
        model = build_random(8, 3, seed=36)
        sample, chain = sample_batch(model, 1, seed=19, return_chain_log=True)
        sample = sample[0]
        total = 0.0
        fixed = {}
        for k in range(8):
            pv = marginal(model, fixed, k)[sample[k]]
            total += np.log(pv)
            fixed[k] = int(sample[k])
        assert abs(total - chain[0]) < 1e-12


def _uneven_model():
    """16 pixels trained under a d_max cap, some of them constant, so bonds
    run from 2 to 5 and differ between siblings."""
    model = build_random(16, 2, seed=40)
    data = gen_random_patterns(16, 12, seed=41).samples.copy()
    data[:, 0:2] = 0
    data[:, 8:12] = 1
    model, _ = train(model, data, TrainConfig(d_max=5, epochs=3))
    return model


def _direct_down_message(state, u, c):
    """Doubled-network environment above c, contracted by one einsum."""
    t = state.model.tensors[u].data
    sib = c ^ 1
    if u == 1:
        tc = t if c == 2 else t.T                    # (d_c, d_sib)
        if sib in state.complete:
            w = state.complete[sib] @ tc.T
            m = np.einsum('sa,sb->sab', w, w)
        else:
            m = np.broadcast_to(np.einsum('ax,bx->ab', tc, tc),
                                (state.count,) + (tc.shape[0],) * 2)
    else:
        tc = t if c == 2 * u else t.transpose(0, 2, 1)   # (da, d_c, d_sib)
        d = state.downs[u]
        if sib in state.complete:
            v = state.complete[sib]
            m = np.einsum('sab,acx,bey,sx,sy->sce', d, tc, tc, v, v)
        else:
            m = np.einsum('sab,acx,bex->sce', d, tc, tc)
    scale = np.max(np.abs(m.reshape(len(m), -1)), axis=1)
    return m / scale[:, None, None]


class TestDownMessages:
    def test_every_down_message_matches_the_doubled_network(self):
        from ttnborn.sampling import SampleState, _rooted_copy
        model = _rooted_copy(_uneven_model())
        # inner nodes (children not leaves) whose two child bonds differ
        assert any(model.tensors[u].shape[1] != model.tensors[u].shape[2]
                   for u in range(2, model.n_tensors // 2 + 1))
        seen = set()

        class Checked(SampleState):
            def _down_message(self, u, c):
                got = super()._down_message(u, c)
                want = _direct_down_message(self, u, c)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) < 1e-12
                seen.add((u == 1, c % 2, (c ^ 1) in self.complete))
                return got

        uniforms = np.random.default_rng(0).random((7, 16))
        for order in (list(range(16)), list(range(15, -1, -1))):
            Checked(model, uniforms, order).run()
        # root and inner nodes, both child axes, sibling open and complete
        assert len(seen) == 8

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunks_agree_with_sample_one(self, monkeypatch, chunk):
        import ttnborn.sampling as sampling
        model = _uneven_model()
        whole, log = sample_batch(model, 20, seed=5, return_chain_log=True)
        monkeypatch.setattr(sampling, "_chunk_rows", lambda m, c: chunk)
        rows, logs = sample_batch(model, 20, seed=5, return_chain_log=True)
        first, first_log = sample_batch(model, 1, seed=5,
                                        return_chain_log=True)
        assert np.array_equal(rows, whole)
        assert np.array_equal(first[0], whole[0])
        assert np.array_equal(sample_one(model, 5), whole[0])
        # completed-subtree messages are one GEMM over the chunk, whose
        # rounding depends on the number of rows
        assert np.max(np.abs(logs - log)) < 1e-12
        assert abs(first_log[0] - log[0]) < 1e-12


class TestMemorizedSampling:
    def test_all_samples_come_from_the_training_set(self):
        data = gen_random_patterns(16, 10, seed=50, distinct=True)
        model = build_random(16, 10, seed=51)
        cfg = TrainConfig(learning_rate=0.05, d_max=10, scheme="two-site",
                          epochs=60, seed=0)
        model, stats = train(model, data.samples, cfg)
        assert stats.nll[-1] - np.log(10) < 1e-9
        samples = sample_batch(model, 10_000, seed=52)
        patterns = {r.tobytes() for r in data.samples}
        hits = sum(r.tobytes() in patterns for r in samples.astype(np.uint8))
        assert hits == 10_000
        idx = {r.tobytes(): i for i, r in enumerate(data.samples)}
        counts = np.bincount(
            [idx[r.tobytes()] for r in samples.astype(np.uint8)], minlength=10)
        assert chi_square_pvalue(counts, np.full(10, 0.1)) > 0.01


class TestOrderingAndFiles:
    def test_padding_stripped_with_descriptor(self):
        from ttnborn import apply_ordering, make_ordering
        raw = gen_random_patterns(12, 6, seed=60)
        desc = make_ordering("raster-1d", (12,))
        leaf = apply_ordering(raw, desc)
        model = ttn_from_patterns(leaf)
        canonicalize(model, 1)
        out = sample_batch(model, 20, seed=61, ordering=desc)
        assert out.shape == (20, 12)
        patterns = {r.tobytes() for r in raw.samples}
        assert all(r.tobytes() in patterns for r in out.astype(np.uint8))

    def test_pbm_emission(self, tmp_path):
        model = build_random(16, 4, seed=62)
        samples = sample_batch(model, 4, seed=63)
        paths = save_samples_pbm(samples, (4, 4), tmp_path, prefix="img")
        assert len(paths) == 4
        back = pbm.read_pbm(paths[0])
        assert np.array_equal(back.ravel(), samples[0])

    def test_contact_sheet_emission(self, tmp_path):
        model = build_random(16, 4, seed=64)
        samples = sample_batch(model, 6, seed=65)
        paths = save_samples_pbm(samples, (4, 4), tmp_path, sheet=True)
        assert len(paths) == 1 and paths[0].endswith("_sheet.pbm")
