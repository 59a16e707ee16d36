import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttnborn import (DenseTensor, MpsModel, TrainConfig, canonicalize,
                     correlation, gen_random_patterns, marginal,
                     mps_build_random, mps_train, partition_function)
from ttnborn.errors import (DegenerateDistributionError, StateError,
                            TopologyError)
import ttnborn.mps as mps
import ttnborn.ttn as ttn
from ttnborn.sampling import _sampler
from ttnborn.mps import (mps_amplitudes, mps_correlation_map, mps_log_probs,
                         mps_max_canonical_deviation, mps_nll,
                         mps_sample_batch, mps_sweep_epoch)

from helpers import (all_configs, chi_square_pvalue, config_indices,
                     mps_from_patterns, mps_state_vector, sharp_product_mps,
                     uneven_mps)

# the largest float64 below 1, the top of the uniform stream
_U_MAX = 1.0 - 2.0 ** -53


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
            canonicalize(m, center)
            assert mps_max_canonical_deviation(m) < 1e-10

    def test_center_moves_preserve_probabilities(self):
        m = mps_build_random(8, 4, seed=2)
        configs = all_configs(8)
        base = mps_log_probs(m, configs)
        canonicalize(m, 0)
        assert np.max(np.abs(mps_log_probs(m, configs) - base)) < 1e-10

    def test_partition_function_matches_enumeration(self):
        m = mps_build_random(8, 4, seed=3)
        amps = mps_state_vector(m)
        assert abs(partition_function(m)
                   - math.log(np.sum(amps * amps))) < 1e-10

    def test_partition_needs_center(self):
        with pytest.raises(StateError):
            partition_function(uniform_mps(4))


class TestProbabilities:
    def test_normalization_n12(self):
        m = mps_build_random(12, 3, seed=4)
        total = np.sum(np.exp(mps_log_probs(m, all_configs(12))))
        assert abs(total - 1.0) < 1e-10

    def test_uniform_init_nll_is_n_log2(self):
        m = uniform_mps(10)
        canonicalize(m, 9)
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
        p0, p1 = marginal(m, {1: 1}, 5)
        mask = configs[:, 1] == 1
        expect1 = p[mask & (configs[:, 5] == 1)].sum() / p[mask].sum()
        assert abs(p1 - expect1) < 1e-10
        s = 2.0 * configs - 1.0
        for i, j in ((0, 7), (2, 4)):
            expect = float(p @ (s[:, i] * s[:, j])
                           - (p @ s[:, i]) * (p @ s[:, j]))
            assert abs(correlation(m, i, j) - expect) < 1e-10
        cmap = mps_correlation_map(m, 2)
        assert abs(cmap[6] - correlation(m, 2, 6)) < 1e-12


_CONFIGS16 = all_configs(16)


@pytest.fixture(scope="module", params=[0, 7, 15, None])
def uneven(request):
    """The uneven 16-site chain at each center, or not canonical, with its
    enumerated probabilities."""
    model = uneven_mps(request.param)
    p = mps_state_vector(model) ** 2
    return model, p / p.sum()


def _enumerated(p, fixed):
    """(mass of the clamped set, (16, 2) conditional marginals given it)."""
    mask = np.ones(len(p), dtype=bool)
    for k, v in fixed.items():
        mask &= _CONFIGS16[:, k] == v
    mass = float(p[mask].sum())
    p1 = p[mask] @ _CONFIGS16[mask] / mass
    return mass, np.stack([1.0 - p1, p1], axis=1)


class TestMarginalStack:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.dictionaries(st.integers(0, 15), st.integers(0, 1),
                                    max_size=8),
                    min_size=1, max_size=3))
    def test_stacked_random_clamps(self, uneven, branches):
        model, p = uneven
        wants = []
        for fixed in branches:
            mass, want = _enumerated(p, fixed)
            assume(mass > 1e-6)
            wants.append(want)
        got = ttn._doubled_marginals(model._marginal_view(), branches)
        assert got.shape == (len(branches), 16, 2)
        assert np.max(np.abs(got - np.array(wants))) < 1e-9

    @pytest.mark.parametrize("center", [None, 0, 5, 11])
    def test_zero_mass_branch_raises(self, center):
        patterns = gen_random_patterns(12, 5, seed=30).samples.copy()
        patterns[:, 3] = 0
        model = mps_from_patterns(patterns)
        if center is not None:
            canonicalize(model, center)
        with pytest.raises(DegenerateDistributionError):
            ttn._doubled_marginals(model._marginal_view(), [{}, {3: 1}])


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
        canonicalize(model, 11)
        samples = mps_sample_batch(model, 2000, seed=19)
        patterns = {r.tobytes() for r in data.astype(np.uint8)}
        assert all(r.tobytes() in patterns for r in samples)

    @pytest.mark.parametrize("center", [0, 3, 7])
    def test_chain_log_from_any_center(self, center):
        m = mps_build_random(8, 4, seed=14)
        canonicalize(m, center)
        before = [t.data.copy() for t in m.tensors]
        samples, chain = mps_sample_batch(m, 500, seed=15,
                                          return_chain_log=True)
        assert m.canonical_center == center
        assert all(np.array_equal(t.data, b) for t, b in zip(m.tensors, before))
        assert np.max(np.abs(chain - mps_log_probs(m, samples))) < 1e-10

    @pytest.mark.parametrize("center", [0, 7])
    def test_empirical_matches_exact_from_either_end(self, center):
        m = mps_build_random(8, 4, seed=22)
        canonicalize(m, center)
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


def _chains():
    """Tiny and odd chains, and the 16-site chain whose every pair of sites
    is its own shape class, not canonical."""
    return [(f"n{n}", mps_build_random(n, 4, seed=60 + n)) for n in (2, 3, 7)
            ] + [("uneven", uneven_mps(None))]


class TestOddAndUnevenChains:
    @pytest.mark.parametrize("name, model", _chains())
    def test_amplitudes_match_state_vector(self, name, model):
        want = mps_state_vector(model)
        log_abs, sign = mps_amplitudes(model, all_configs(model.n_sites))
        got = sign * np.exp(log_abs)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("end", ["first", "last"])
    @pytest.mark.parametrize("name, model", _chains())
    def test_chain_log_and_distribution(self, name, model, end):
        n = model.n_sites
        canonicalize(model, 0 if end == "first" else n - 1)
        samples, chain = mps_sample_batch(model, 100_000, seed=61,
                                          return_chain_log=True)
        assert np.max(np.abs(chain - mps_log_probs(model, samples))) < 1e-10
        p = mps_state_vector(model) ** 2
        p /= p.sum()
        # the joint law of up to 8 pixels, windows straddling the blocks
        for lo in sorted({0, max(n - 8, 0), min(5, max(n - 8, 0))}):
            hi = min(lo + 8, n)
            marg = p.reshape(2 ** lo, 2 ** (hi - lo), -1).sum(axis=(0, 2))
            counts = np.bincount(config_indices(samples[:, lo:hi]),
                                 minlength=2 ** (hi - lo))
            assert chi_square_pvalue(counts, marg) > 0.01


def count_blocks(monkeypatch):
    """The (Da, Db, Dc) bonds of each pair block that ``mps._pair_block``
    builds from now on, in call order; a lone site passes through
    uncounted."""
    built, block = [], mps._pair_block

    def counted(a, b=None):
        if b is not None:
            built.append((a.shape[0], a.shape[2], b.shape[2]))
        return block(a, b)
    monkeypatch.setattr(mps, "_pair_block", counted)
    return built


class TestChainKernel:
    """``mps_amplitudes`` builds a pair's block below ``mps._BLOCK_MADDS``
    and walks the pair's two sites at or above it."""

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_one_block_per_pair_up_to_d16(self, monkeypatch, d):
        model = mps_build_random(1024, d, seed=70)
        rows = gen_random_patterns(1024, 3, seed=71).samples
        built = count_blocks(monkeypatch)
        mps_log_probs(model, rows)
        assert len(built) == 512

    def test_no_block_inside_a_d32_chain(self, monkeypatch):
        # bonds grow 1, 2, 4, 8, 16, 32 from either end: only the three
        # pairs at each end, under the D = 32 count, keep their blocks
        model = mps_build_random(1024, 32, seed=72)
        rows = gen_random_patterns(1024, 3, seed=73).samples
        built = count_blocks(monkeypatch)
        mps_log_probs(model, rows)
        assert built == [(1, 2, 4), (4, 8, 16), (16, 32, 32),
                         (32, 32, 16), (16, 8, 4), (4, 2, 1)]

    @pytest.mark.parametrize("n", [12, 13])
    def test_log_probs_match_enumeration_across_the_rule(self, monkeypatch,
                                                         n):
        # bonds up to 64: the pairs in the middle walk their sites, those
        # nearer the ends keep their blocks, and n = 13 ends on a lone site
        model = mps_build_random(n, 64, seed=74 + n)
        configs = all_configs(n)
        built = count_blocks(monkeypatch)
        mps_amplitudes(model, configs.astype(np.uint8))
        assert 0 < len(built) < n // 2
        got = mps_log_probs(model, configs)
        p = mps_state_vector(model) ** 2
        want = np.log(p / p.sum())
        p_want = np.exp(want)
        assert np.max(np.abs(np.exp(got) - p_want)) < 1e-13 * p_want.max()
        # a row far below uniform carries its amplitude's cancellation
        # error, in whatever order the sums run
        kept = want > -n * math.log(2) - 5
        assert np.all(np.abs(got - want)[kept] <= 1e-13 * -want[kept])

    def test_one_call_equals_three_chunks_bit_for_bit(self, monkeypatch):
        model = mps_build_random(64, 40, seed=76)
        rows = gen_random_patterns(64, 300, seed=77).samples
        whole = mps_log_probs(model, rows)
        monkeypatch.setattr(ttn, "_chunk_rows", lambda m, c: 100)
        assert np.array_equal(mps_log_probs(model, rows), whole)

    def test_site_walk_carries_rows_far_below_the_float_range(
            self, monkeypatch):
        # p ~ 1e-2046 for each row: one rescale per pair keeps the
        # messages in range when every pair walks its two sites
        model = sharp_product_mps(1024, 0.99)
        rows = np.zeros((3, 1024), dtype=np.uint8)
        rows[1, 0] = rows[2, 1023] = 1
        blocked = mps_log_probs(model, rows)
        monkeypatch.setattr(mps, "_BLOCK_MADDS", 0)
        walked = mps_log_probs(model, rows)
        assert np.all(blocked < -4700.0)
        assert np.all(np.abs(walked - blocked) <= 1e-13 * np.abs(blocked))


class TestSamplerCore:
    @pytest.mark.parametrize("center", [0, 11])
    @pytest.mark.parametrize("u", [0.0, _U_MAX])
    def test_extreme_uniforms_draw_patterns(self, center, u):
        data = gen_random_patterns(12, 5, seed=62, distinct=True).samples
        model = canonicalize(mps_from_patterns(data), center)
        _, columns, draw = _sampler(model)
        rows, chain = draw(np.full((3, columns), u))
        patterns = {r.tobytes() for r in data.astype(np.uint8)}
        assert all(r.tobytes() in patterns for r in rows)
        assert np.max(np.abs(chain + math.log(5))) < 1e-12

    @pytest.mark.parametrize("q", [1e-9, 1e-12])
    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("end", ["first", "last"])
    def test_conditional_near_one_keeps_the_chain_log(self, q, n, end):
        # independent pixels, each 0 with probability q, and u = 0 draws
        # each node's first value, the 0s: log(1 - p1) would be off by
        # 2.8e-8 nats per pixel at q = 1e-9.  (The amplitudes are built from
        # q itself; from 1 - p1 they would carry the same rounding as
        # 1 - p1.)
        amp = np.sqrt([q, 1.0 - q]).reshape(1, 2, 1)
        model = MpsModel([DenseTensor(amp) for _ in range(n)],
                         canonical_center=0 if end == "first" else n - 1)
        _, columns, draw = _sampler(model)
        rows, chain = draw(np.zeros((2, columns)))
        assert not rows.any()
        lp = mps_log_probs(model, rows)
        assert np.allclose(lp, n * math.log(q), rtol=1e-6)
        assert np.max(np.abs(chain - lp)) < 1e-12


class TestEvalMemory:
    def test_ten_thousand_rows_at_1024_sites_stay_under_64_mib(self):
        # a (rows, sites, 2) one-hot of these rows alone would be 156 MiB
        import tracemalloc
        model = mps_build_random(1024, 4, seed=63)
        rows = gen_random_patterns(1024, 10_000, seed=64).samples
        assert rows.dtype == np.uint8
        tracemalloc.start()
        try:
            mps_log_probs(model, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
