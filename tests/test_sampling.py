import numpy as np
import pytest

from ttnborn import (DenseTensor, build_random, canonicalize,
                     correlation_map, gen_random_patterns, log_probs,
                     make_ordering, marginal, mps_build_random, sample_batch,
                     save_samples_pbm, single_site_marginals, train,
                     TrainConfig)
from ttnborn import pbm, sampling
from ttnborn.errors import (DegenerateDistributionError, DimensionError,
                            StateError)
from ttnborn.sampling import _sampler
from ttnborn.born import rooted_copy

from helpers import all_configs, brute_force_amplitudes, chi_square_pvalue, \
    config_indices, mps_from_patterns, random_uneven_ttn, sharp_product_mps, \
    sharp_product_ttn, ttn_from_patterns, uneven_ttn, uniform_ttn


class TestSampleOne:
    def test_single_pattern_model_always_returns_it(self):
        pattern = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        model = ttn_from_patterns(pattern[np.newaxis])
        canonicalize(model, 1)
        for seed in range(10):
            assert np.array_equal(sample_batch(model, 1, seed)[0], pattern)

    def test_uniform_model_chi_square(self):
        model = uniform_ttn(4)
        canonicalize(model, 1)
        samples = sample_batch(model, 100_000, seed=1)
        counts = np.bincount(config_indices(samples), minlength=16)
        assert chi_square_pvalue(counts, np.full(16, 1 / 16)) > 0.01

    def test_requires_canonical_model(self):
        model = uniform_ttn(4)
        with pytest.raises(StateError):
            sample_batch(model, 1, 0)


class TestSampleBatch:
    def test_count_one_equals_sample_one(self):
        model = build_random(8, 4, seed=30)
        assert np.array_equal(sample_batch(model, 1, seed=5)[0],
                              sample_batch(model, 40, seed=5)[0])

    def test_same_seed_identical_batches(self):
        model = build_random(8, 4, seed=31)
        a = sample_batch(model, 50, seed=7)
        b = sample_batch(model, 50, seed=7)
        assert np.array_equal(a, b)

    def test_chunking_does_not_change_the_stream(self):
        import ttnborn.born as born
        model = build_random(8, 4, seed=32)
        whole = sample_batch(model, 300, seed=9)
        orig = born._chunk_rows
        born._chunk_rows = lambda m, c: 64
        try:
            chunked = sample_batch(model, 300, seed=9)
        finally:
            born._chunk_rows = orig
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


class TestDownMessages:
    def test_uneven_tree_matches_enumeration(self):
        # bonds of 2 to 5 that differ between siblings; each centre roots a
        # different gauge
        model = uneven_ttn()
        assert any(model.tensors[u].shape[1] != model.tensors[u].shape[2]
                   for u in range(2, model.n_tensors // 2 + 1))
        for center, seed in ((15, 70), (6, 72), (1, 74)):
            canonicalize(model, center)
            amps = brute_force_amplitudes(model)
            first8 = (amps * amps).reshape(256, 256).sum(axis=1)
            first8 /= first8.sum()
            rows, chain = sample_batch(model, 50_000, seed=seed,
                                       return_chain_log=True)
            assert np.max(np.abs(chain - log_probs(model, rows))) < 1e-12
            counts = np.bincount(config_indices(rows[:, :8]), minlength=256)
            assert chi_square_pvalue(counts, first8) > 0.01

    @pytest.mark.parametrize("build,window", [
        (uneven_ttn, np.r_[2:8, 12:16]),
        (lambda: random_uneven_ttn(16, seed=16), np.r_[2:10])])
    def test_group_draws_match_enumeration(self, build, window):
        # each window straddles groups on both sides of the root cut, whose
        # blocks fall into several shape classes; bins expecting fewer than
        # five rows are pooled
        model = build()
        canonicalize(model, 15)
        amps = brute_force_amplitudes(model).reshape((2,) * 16)
        rest = tuple(k for k in range(16) if k not in window)
        p = np.sum(amps ** 2, axis=rest).ravel()
        p /= p.sum()
        rows, chain = sample_batch(model, 50_000, seed=76,
                                   return_chain_log=True)
        assert np.max(np.abs(chain - log_probs(model, rows))) < 1e-12
        counts = np.bincount(config_indices(rows[:, window]), minlength=p.size)
        small = p * len(rows) < 5
        assert chi_square_pvalue(
            np.append(counts[~small], counts[small].sum()),
            np.append(p[~small], p[small].sum())) > 0.01

    def test_four_pixels_are_one_group(self):
        model = random_uneven_ttn(4, seed=4)
        canonicalize(model, 3)
        p = brute_force_amplitudes(model) ** 2
        rows = sample_batch(model, 20_000, seed=77)
        counts = np.bincount(config_indices(rows), minlength=16)
        assert chi_square_pvalue(counts, p / p.sum()) > 0.01

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunks_agree_with_sample_one(self, monkeypatch, chunk):
        import ttnborn.born as born
        model = uneven_ttn()
        whole, log = sample_batch(model, 20, seed=5, return_chain_log=True)
        monkeypatch.setattr(born, "_chunk_rows", lambda m, c: chunk)
        rows, logs = sample_batch(model, 20, seed=5, return_chain_log=True)
        first, first_log = sample_batch(model, 1, seed=5,
                                        return_chain_log=True)
        assert np.array_equal(rows, whole)
        assert np.array_equal(first[0], whole[0])
        # completed-subtree messages are one GEMM over the chunk, whose
        # rounding depends on the number of rows
        assert np.max(np.abs(logs - log)) < 1e-12
        assert abs(first_log[0] - log[0]) < 1e-12


class TestNodeTable:
    @pytest.mark.parametrize("n", [4, 8, 16, 64, 1024])
    def test_tree_draws_once_per_node_above_the_groups(self, n):
        # one draw per 8-pixel subtree and per node above them; at n=4 the
        # root is one 4-pixel group
        _, columns, _ = _sampler(build_random(n, 4, seed=n))
        assert columns == (n // 4 - 1 if n >= 8 else 1)

    @pytest.mark.parametrize("n", [2, 5, 8, 33, 64])
    def test_chain_draws_once_per_pair(self, n):
        _, columns, _ = _sampler(mps_build_random(n, 4, seed=n))
        assert columns == (n + 1) // 2

    def test_chain_rows_are_pinned(self):
        # recorded before the tree's sampler took 8-pixel draws, which left
        # the chain's node table, uniforms and draws as they were; the logs
        # pass through BLAS products, whose last bits may differ between
        # BLAS builds
        rows, chain_log = sample_batch(mps_build_random(64, 8, seed=5), 6,
                                       seed=11, return_chain_log=True)
        assert [np.packbits(r).tobytes().hex() for r in rows] == [
            "67da6766c25b0c28", "2c58a09c0b50766c", "56d8256d0d901383",
            "55d0216c4352f44f", "68a14669c4b2f035", "57ab195fac24caed"]
        assert np.allclose(chain_log, [
            -35.44876947538127, -41.00251246590579, -39.29696594355263,
            -37.86915235092131, -36.29737976505802, -42.21255471273829],
            rtol=1e-13, atol=0.0)

    def test_tree_rows_are_pinned(self):
        # recorded while each 8-pixel subtree was drawn from its two groups'
        # blocks; drawing it from its (256, D) table keeps the rows.  Centred
        # off the root, so the rooted copy moves the centre first
        model = canonicalize(build_random(64, 8, seed=5), 63)
        rows, chain_log = sample_batch(model, 6, seed=11,
                                       return_chain_log=True)
        assert [np.packbits(r).tobytes().hex() for r in rows] == [
            "55e85871547c3e30", "b0ab35a130c2ba1c", "47eb164140695aed",
            "1f2cbbae45431a30", "aada07bc1c120e5b", "f2a34d84d8051757"]
        assert np.allclose(chain_log, [
            -36.86264845004627, -37.85652080183405, -41.49701820930368,
            -37.550227504672264, -39.69448794776677, -40.5584483145677],
            rtol=1e-13, atol=0.0)


def _dead_leading_bond_index(model):
    """The same state with a zero-weight index prepended to every bond."""
    work = model.copy()
    for k in range(model.first_tensor, model.n_sites):
        widths = [(1, 0) if isinstance(s, int) else (0, 0)
                  for s in model.axis_sites(k)]
        work.tensors[k] = DenseTensor(np.pad(model.tensors[k].data, widths),
                                      validate=False)
    return work


def _lone_one_uniform(model, pixel: int, p1: float):
    """(column, u) that draw ``pixel`` as 1 and the other pixels of its draw
    as 0, for independent pixels each 1 with probability ``p1``: the middle
    of that value's interval of cumulative weight.  A pixel's draw is its
    8-pixel subtree on the tree (its 4-pixel group at n=4) and its pair on
    the chain."""
    nodes = model._sample_view()[0].nodes
    for k in range(len(nodes)):
        _, first, _ = nodes[k]
        drawn = range(model.n_sites)[first] if isinstance(first, slice) else ()
        if pixel in drawn:
            q = len(drawn)
            bits = np.array(list(np.ndindex((2,) * q)))
            cum = np.cumsum(np.prod(np.where(bits, p1, 1.0 - p1), axis=1))
            x = 2 ** (q - 1 - drawn.index(pixel))
            return k, (cum[x - 1] + cum[x]) / (2.0 * cum[-1])
    raise AssertionError(f"pixel {pixel} is drawn by no node")


class TestExtremeUniforms:
    """On the tree; ``TestExtremeUniformsMps`` runs them on the chain."""

    # canonical at the sampling root, with amplitude 1 on each pattern
    patterned = staticmethod(lambda p: rooted_copy(ttn_from_patterns(p), 1))
    build = staticmethod(build_random)

    @pytest.mark.parametrize("dead_index", [False, True])
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0 ** -53])
    def test_zero_weight_values_are_never_drawn(self, u, dead_index):
        # most bond indices and pixel values carry zero weight here (with
        # dead_index, the first index of every bond); u at either end of
        # [0, 1) must still land on one of positive weight
        patterns = gen_random_patterns(16, 6, seed=53, distinct=True).samples
        work = self.patterned(patterns)
        if dead_index:
            work = _dead_leading_bond_index(work)
        _, columns, draw = _sampler(work)
        rows, chain_log = draw(np.full((4, columns), u))
        known = {r.tobytes() for r in patterns.astype(np.uint8)}
        assert all(r.tobytes() in known for r in rows)
        assert np.all(np.isfinite(chain_log))
        assert np.allclose(chain_log, -np.log(6), rtol=0, atol=1e-12)

    def test_zero_mass_raises(self):
        model = self.build(8, 2, seed=54)
        center = model.canonical_center
        model.tensors[center] = DenseTensor(
            np.zeros(model.tensors[center].shape))
        with pytest.raises(DegenerateDistributionError):
            sample_batch(model, 3, seed=0)


class TestExtremeUniformsMps(TestExtremeUniforms):
    patterned = staticmethod(
        lambda p: canonicalize(mps_from_patterns(p), p.shape[1] - 1))
    build = staticmethod(mps_build_random)


class TestChainLogAtScale:
    """On the tree; ``TestChainLogAtScaleMps`` runs them on the chain."""

    build = staticmethod(build_random)
    # independent pixels, each 1 with probability p1
    sharp = staticmethod(sharp_product_ttn)

    def test_random_tree_centred_off_root(self):
        model = self.build(1024, 6, seed=21)
        canonicalize(model, 700)
        rows, chain = sample_batch(model, 16, seed=55, return_chain_log=True)
        lp = log_probs(model, rows)
        assert np.all(np.abs(chain - lp) <= 1e-10 * np.abs(lp))

    # whether the walk's floor rescales rows below: the tree's draws that
    # fall far are at its tables, which end their walks, while the chain's
    # mass falls along its one walk
    floor_fires = False

    def test_rows_far_below_the_float_range(self, monkeypatch):
        # all zeros but at most one pixel: p ~ 1e-2046, so the amplitudes
        # underflow unless their scales are carried in logs.  u = 0 draws
        # each node's first value, all zeros.  (All ones, the last value,
        # would hold 1e-16 of an 8-pixel draw's mass at p1 = 0.01, less than
        # the 2^-53 step of u below 1, so no u could draw it.)
        model = self.sharp(1024, 0.99)
        _, columns, draw = _sampler(model)
        uniforms = np.zeros((4, columns))
        for row, pixel in enumerate((0, 513, 1023), start=1):
            column, u = _lone_one_uniform(model, pixel, 0.99)
            uniforms[row, column] = u
        formed = _count_formed(monkeypatch)
        rows, chain_log = draw(uniforms)
        assert (len(formed) > columns) == self.floor_fires
        assert rows.sum(axis=1).tolist() == [0, 1, 1, 1]
        assert rows[np.arange(1, 4), [0, 513, 1023]].tolist() == [1, 1, 1]
        lp = log_probs(model, rows)
        assert np.all(lp < -4700.0)
        assert np.all(np.abs(chain_log - lp) <= 1e-10 * np.abs(lp))


class TestChainLogAtScaleMps(TestChainLogAtScale):
    build = staticmethod(mps_build_random)
    sharp = staticmethod(sharp_product_mps)
    floor_fires = True


def _count_formed(monkeypatch):
    """The calls of ``sampling._formed`` from now on: one per node and
    chunk, and one more wherever the floor rescales the chunk's rows."""
    calls, formed = [], sampling._formed

    def counted(*args):
        calls.append(args)
        return formed(*args)
    monkeypatch.setattr(sampling, "_formed", counted)
    return calls


def _weak_index_tree():
    """A D = 2 tree whose root gives its second bond's first index 1e-200
    of the mass: u = 0 draws it, and the first subtree's walk starts from a
    state far below the floor."""
    model = build_random(64, 2, seed=58)
    model.tensors[1] = DenseTensor(np.diag([1e-100, 1.0]))
    return model


_FLOOR_CASES = {
    "random-tree": lambda: canonicalize(build_random(1024, 6, seed=21), 700),
    "random-chain": lambda: canonicalize(mps_build_random(1024, 6, seed=21),
                                         300),
    "sharp-tree": lambda: sharp_product_ttn(1024, 0.99),
    "sharp-chain": lambda: sharp_product_mps(1024, 0.99),
    "weak-index-tree": _weak_index_tree,
}


class TestFloorRescales:
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0 ** -53, None])
    @pytest.mark.parametrize("case", sorted(_FLOOR_CASES))
    def test_on_demand_walk_equals_a_rescale_at_every_node(
            self, monkeypatch, case, u):
        # an infinite floor rescales every row at every node; powers of two
        # change no draw, and the chain logs only in their last bits.  The
        # random ones are centred off the sampling root, so the rooted copy
        # moves the centre first
        model = _FLOOR_CASES[case]()
        _, columns, draw = _sampler(model)
        uniforms = (np.random.default_rng(59).random((8, columns))
                    if u is None else np.full((8, columns), u))
        formed = _count_formed(monkeypatch)
        rows, chain_log = draw(uniforms)
        monkeypatch.setattr(sampling, "_FLOOR", np.inf)
        every_rows, every_log = draw(uniforms)
        assert np.array_equal(rows, every_rows)
        assert np.all(np.abs(chain_log - every_log)
                      <= 1e-13 * np.abs(every_log))
        if u == 0.0 and case in ("sharp-chain", "weak-index-tree"):
            assert len(formed) > columns


class TestCentreScale:
    @pytest.mark.parametrize("factor", [1e-200, 1e160])
    @pytest.mark.parametrize("build", [build_random, mps_build_random])
    def test_reads_of_a_scaled_centre_equal_the_model_s(self, build,
                                                        factor):
        # a centre far from unit norm: the draw weights and the marginal
        # passes' masses would leave the float range without the rooted
        # copy's power-of-two scale
        model, scaled = build(64, 4, seed=1), build(64, 4, seed=1)
        c = model.canonical_center
        scaled.tensors[c] = DenseTensor(scaled.tensors[c].data * factor)
        before = scaled.tensors[c].data.copy()
        rows, chain_log = sample_batch(model, 20, seed=3,
                                       return_chain_log=True)
        got, got_log = sample_batch(scaled, 20, seed=3, return_chain_log=True)
        assert np.array_equal(got, rows)
        assert np.all(np.abs(got_log - chain_log) <= 1e-13 * -chain_log)
        assert np.all(np.abs(log_probs(scaled, rows) - chain_log)
                      <= 1e-13 * -chain_log)
        assert np.max(np.abs(single_site_marginals(scaled)
                             - single_site_marginals(model))) < 1e-13
        assert np.max(np.abs(correlation_map(scaled, 5)
                             - correlation_map(model, 5))) < 1e-13
        assert np.array_equal(scaled.tensors[c].data, before)


class TestSamplerMemory:
    def test_thousand_rows_at_1024_sites_stay_under_64_mib(self):
        import tracemalloc
        model = build_random(1024, 16, seed=56)
        tracemalloc.start()
        try:
            sample_batch(model, 1000, seed=57)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


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

    @pytest.mark.parametrize("raw_shape", [(4,), (100,)])
    def test_ordering_of_another_width_is_rejected(self, raw_shape):
        # 4 leaves would keep the first 4 of 16 pixels, and 128 index past
        # them
        model = build_random(16, 3, seed=1)
        with pytest.raises(DimensionError):
            sample_batch(model, 3, 0,
                         ordering=make_ordering("raster-1d", raw_shape))

    def test_pbm_emission(self, tmp_path):
        model = build_random(16, 4, seed=62)
        samples = sample_batch(model, 4, seed=63)
        paths = save_samples_pbm(samples, (4, 4), tmp_path, prefix="img")
        assert len(paths) == 4
        back = pbm.read_pbm(paths[0])
        assert np.array_equal(back.ravel(), samples[0])

    @pytest.mark.parametrize("rows, error", [
        (np.zeros((0, 16)), ValueError), (np.full((2, 16), 7), ValueError),
        (np.zeros((2, 12)), DimensionError)])
    @pytest.mark.parametrize("sheet", [False, True])
    def test_rows_are_checked_before_writing(self, tmp_path, rows, error,
                                             sheet):
        # unchecked, no rows divided by zero in the sheet, and 7 was
        # written as a set bit
        with pytest.raises(ValueError) as err:
            save_samples_pbm(rows, (4, 4), tmp_path / "out", sheet=sheet)
        assert type(err.value) is error
        assert not (tmp_path / "out").exists()

    def test_contact_sheet_emission(self, tmp_path):
        model = build_random(16, 4, seed=64)
        samples = sample_batch(model, 6, seed=65)
        paths = save_samples_pbm(samples, (4, 4), tmp_path, sheet=True)
        assert len(paths) == 1 and paths[0].endswith("_sheet.pbm")
