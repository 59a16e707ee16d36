import math

import numpy as np
import pytest

from ttnborn import (DenseTensor, TrainConfig, TtnModel, build_random,
                     canonicalize, gen_random_patterns, gradient_one_site,
                     gradient_two_site, log_probs, max_canonical_deviation,
                     merge_split_two_site, merged_tensor, nll,
                     partition_function, sweep_epoch, sweep_steps, train,
                     update_one_site)
from ttnborn.errors import DegenerateSampleError, StateError

from helpers import all_configs, brute_force_amplitudes, ttn_from_patterns


def nll_by_enumeration(model, batch):
    """NLL with Z summed over all configurations; no canonical shortcut."""
    amps = brute_force_amplitudes(model)
    z = np.sum(amps * amps)
    idx = np.asarray(batch) @ (1 << np.arange(model.n_sites - 1, -1, -1))
    vals = amps[idx] ** 2
    return float(np.mean(-np.log(vals / z)))


def finite_difference(model, k, batch, entry, h=1e-5, merged_edge=None):
    t = model.tensors[k]
    orig = t.data[entry]
    t.data[entry] = orig + h
    up = nll_by_enumeration(model, batch)
    t.data[entry] = orig - h
    down = nll_by_enumeration(model, batch)
    t.data[entry] = orig
    return (up - down) / (2 * h)


class TestGradientOneSite:
    def test_hand_derived_toy_gradient(self):
        # A two-pixel toy embedded at n=4: pixels 2,3 are pinned to zero by a
        # deterministic right leaf, the left leaf holds the identity and is
        # the center.  For the single training sample (0,0,0,0) the gradient
        # at the center is [[-1, 0], [0, 1]].
        t1 = DenseTensor(np.ones((1, 1)))
        t2 = DenseTensor(np.eye(2).reshape(1, 2, 2))
        t3 = DenseTensor(np.array([[[1.0, 0.0], [0.0, 0.0]]]))
        model = TtnModel(4, [None, t1, t2, t3], canonical_center=2)
        batch = np.array([[0, 0, 0, 0]])
        g = gradient_one_site(model, batch, 2)
        assert np.max(np.abs(g.data - np.array([[[-1.0, 0.0], [0.0, 1.0]]]))) \
            < 1e-12

    def test_stationary_point_has_zero_gradient(self):
        pattern = np.array([[0, 1, 1, 0, 0, 1, 0, 1]])
        model = ttn_from_patterns(pattern)
        canonicalize(model, 1)
        g = gradient_one_site(model, pattern, 1)
        assert np.max(np.abs(g.data)) < 1e-10
        for entry in np.ndindex(model.tensors[1].data.shape):
            assert abs(finite_difference(model, 1, pattern, entry)) < 1e-8

    @pytest.mark.parametrize("center", [1, 2, 3, 4, 7])
    def test_matches_finite_differences(self, center, rng):
        model = build_random(8, 3, seed=21)
        canonicalize(model, center)
        batch = rng.integers(0, 2, size=(4, 8))
        g = gradient_one_site(model, batch, center).data
        for entry in np.ndindex(g.shape):
            fd = finite_difference(model, center, batch, entry)
            err = abs(fd - g[entry])
            assert err < 1e-5 * max(abs(fd), 1.0) or err < 1e-8

    def test_requires_matching_center(self):
        model = build_random(8, 2, seed=0)
        with pytest.raises(StateError):
            gradient_one_site(model, np.zeros((1, 8), dtype=int), 4)

    def test_zero_amplitude_sample_is_an_error(self):
        model = ttn_from_patterns(np.array([[0, 0, 0, 0]]))
        canonicalize(model, 1)
        bad = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
        with pytest.raises(DegenerateSampleError) as err:
            gradient_one_site(model, bad, 1)
        assert err.value.sample_index == 1


class TestUpdateOneSite:
    def test_zero_learning_rate_keeps_model(self):
        model = build_random(8, 3, seed=22)
        before = model.tensors[1].data.copy()
        g = gradient_one_site(model, np.zeros((1, 8), dtype=int), 1)
        update_one_site(model, 1, g, TrainConfig(learning_rate=0.0,
                                                 renormalize_center=False))
        assert np.array_equal(model.tensors[1].data, before)

    def test_degenerate_full_step_zeroes_tensor(self):
        model = build_random(8, 3, seed=23)
        t = model.tensors[1]
        cfg = TrainConfig(learning_rate=1.0, renormalize_center=False)
        update_one_site(model, 1, DenseTensor(t.data.copy()), cfg)
        assert np.all(model.tensors[1].data == 0.0)
        data = gen_random_patterns(8, 3, seed=0).samples
        assert nll(model, data) == float("inf")

    def test_renormalize_pins_unit_norm(self):
        model = build_random(8, 3, seed=24)
        g = gradient_one_site(model, gen_random_patterns(8, 4, 1).samples, 1)
        update_one_site(model, 1, g, TrainConfig(learning_rate=0.05))
        assert abs(np.linalg.norm(model.tensors[1].data.ravel()) - 1.0) < 1e-12
        assert abs(partition_function(model)) < 1e-12

    def test_monotone_descent_over_ten_one_site_sweeps(self):
        data = gen_random_patterns(8, 4, seed=31).samples
        model = build_random(8, 4, seed=31)
        cfg = TrainConfig(learning_rate=0.05, d_max=4, scheme="one-site",
                          epochs=10, seed=0)
        model, stats = train(model, data, cfg)
        diffs = np.diff(stats.nll)
        assert np.all(diffs < 1e-12)


class TestGradientTwoSite:
    @pytest.mark.parametrize("edge", [(1, 2), (2, 4), (2, 5), (3, 7), (1, 3)])
    def test_matches_finite_differences(self, edge, rng):
        k, j = edge
        model = build_random(8, 3, seed=25)
        canonicalize(model, k)
        batch = rng.integers(0, 2, size=(4, 8))
        g = gradient_two_site(model, (k, j), batch).data
        merged = merged_tensor(model, k, j)
        # finite differences on the merged tensor: evaluate by substituting
        # the perturbed merge as a fresh pair via an exact SVD split
        from ttnborn.tensor import svd_split
        ak = model.axis_toward(k, j)
        aj = model.axis_toward(j, k)
        k_axes = [a for a in range(model.tensors[k].ndim) if a != ak]
        j_axes = [a for a in range(model.tensors[j].ndim) if a != aj]
        rows = list(range(len(k_axes)))
        cols = list(range(len(k_axes), len(k_axes) + len(j_axes)))

        def nll_of_merged(mdata):
            res = svd_split(DenseTensor(mdata), rows, cols,
                            d_max=mdata.size, cutoff=0.0)
            trial = model.copy()
            knew = np.moveaxis(res.u.data * np.asarray(res.s), -1, ak)
            jnew = np.moveaxis(res.v.data, -1, aj)
            trial.tensors[k] = DenseTensor(np.ascontiguousarray(knew))
            trial.tensors[j] = DenseTensor(np.ascontiguousarray(jnew))
            return nll_by_enumeration(trial, batch)

        h = 1e-5
        checked = 0
        flat = merged.data.copy()
        for entry in np.ndindex(merged.data.shape):
            pert = flat.copy()
            pert[entry] = flat[entry] + h
            up = nll_of_merged(pert)
            pert[entry] = flat[entry] - h
            down = nll_of_merged(pert)
            fd = (up - down) / (2 * h)
            err = abs(fd - g[entry])
            assert err < 1e-4 * max(abs(fd), 1.0) or err < 1e-7
            checked += 1
            if checked >= 24:   # two dozen entries per edge keep this quick
                break


class TestSweepEpoch:
    def test_n4_visits_each_tensor_once_per_pass(self):
        model = build_random(4, 2, seed=0)
        r2l = sweep_steps(model, 3, rightward=False)
        l2r = sweep_steps(model, 2, rightward=True)
        assert [u for u, v, due in r2l if due] == [3, 1, 2]
        assert [u for u, v, due in l2r if due] == [2, 1, 3]

    def test_epoch_coverage_both_schemes(self):
        data = gen_random_patterns(16, 5, seed=1).samples
        for scheme in ("one-site", "two-site"):
            model = build_random(16, 4, seed=2)
            counts = {n: 0 for n in range(1, 16)}

            def on_step(m, info):
                u, v, due = info
                if due:
                    counts[u] += 1
            cfg = TrainConfig(learning_rate=0.05, d_max=4, scheme=scheme,
                              epochs=1, seed=0)
            canonicalize(model, 15)
            sweep_epoch(model, data, cfg, on_step=on_step)
            assert all(c == 2 for c in counts.values()), (scheme, counts)

    def test_zero_learning_rate_epoch_only_regauges(self):
        data = gen_random_patterns(8, 4, seed=3).samples
        model = build_random(8, 4, seed=4)
        configs = all_configs(8)
        before = log_probs(model, configs)
        cfg = TrainConfig(learning_rate=0.0, d_max=4, scheme="one-site",
                          epochs=1, seed=0)
        model, _ = sweep_epoch(model, data, cfg)
        assert model.canonical_center == model.n_tensors
        assert max_canonical_deviation(model) < 1e-10
        assert np.max(np.abs(log_probs(model, configs) - before)) < 1e-10

    def test_canonical_identities_hold_after_every_step(self):
        data = gen_random_patterns(8, 4, seed=5).samples
        for scheme in ("one-site", "two-site"):
            model = build_random(8, 4, seed=6)
            worsts = []

            def on_step(m, info):
                worsts.append(max_canonical_deviation(m))
            cfg = TrainConfig(learning_rate=0.05, d_max=4, scheme=scheme,
                              epochs=1, seed=0)
            sweep_epoch(model, data, cfg, on_step=on_step)
            assert max(worsts) < 1e-10

    def test_memorizes_ten_patterns_one_site(self):
        data = gen_random_patterns(16, 10, seed=40).samples
        model = build_random(16, 16, seed=41)
        cfg = TrainConfig(learning_rate=0.05, d_max=16, scheme="one-site",
                          epochs=100, seed=0)
        model, stats = train(model, data, cfg)
        assert min(stats.nll) - math.log(10) < 0.01


class TestMergeSplitTwoSite:
    def test_alpha_zero_no_truncation_preserves_distribution(self):
        model = build_random(8, 4, seed=26)
        data = gen_random_patterns(8, 4, seed=7).samples
        configs = all_configs(8)
        before = log_probs(model, configs)
        cfg = TrainConfig(learning_rate=0.0, d_max=64, svd_cutoff=0.0)
        canonicalize(model, 1)
        merge_split_two_site(model, (1, 2), data, cfg)
        assert model.canonical_center == 2
        after = log_probs(model, configs)
        assert np.max(np.abs(after - before)) < 1e-9

    def test_dmax_one_factorizes_the_cut(self):
        from ttnborn import correlation
        model = build_random(8, 4, seed=27)
        data = gen_random_patterns(8, 4, seed=8).samples
        cfg = TrainConfig(learning_rate=0.0, d_max=1, svd_cutoff=0.0)
        canonicalize(model, 1)
        merge_split_two_site(model, (1, 2), data, cfg)
        # bond above node 2 is now 1: pixels under node 2 (0..3) decouple
        # from the rest
        assert model.tensors[2].shape[0] == 1
        for i, j in ((0, 4), (2, 6), (3, 7)):
            assert abs(correlation(model, i, j)) < 1e-10

    def test_two_site_grows_bonds_up_to_dmax(self):
        # growth is capped by the product of surrounding bonds per split, so
        # seed with D=2 and let the sweeps widen the bonds toward d_max
        data = gen_random_patterns(16, 10, seed=9).samples
        model = build_random(16, 2, seed=10)
        cfg = TrainConfig(learning_rate=0.05, d_max=10, scheme="two-site",
                          epochs=10, seed=0)
        model, _ = train(model, data, cfg)
        assert model.max_bond() > 2
        assert model.max_bond() <= 10

    def test_memorizes_faster_than_one_site(self):
        data = gen_random_patterns(16, 10, seed=42).samples

        def epochs_to_converge(scheme, cap=120):
            model = build_random(16, 10, seed=7)
            cfg = TrainConfig(learning_rate=0.05, d_max=10, scheme=scheme,
                              epochs=1, seed=0)
            for epoch in range(1, cap + 1):
                model, stats = train(model, data, cfg)
                if stats.nll[-1] - math.log(10) < 0.01:
                    return epoch
            return cap + 1

        two = epochs_to_converge("two-site")
        one = epochs_to_converge("one-site")
        assert two - math.log(10) != 0  # keep flake8 quiet about math import
        assert two <= one

    def test_requires_center_at_k(self):
        model = build_random(8, 2, seed=0)
        canonicalize(model, 1)
        with pytest.raises(StateError):
            merge_split_two_site(model, (2, 4), np.zeros((1, 8), dtype=int),
                                 TrainConfig())


def _near_optimal_merge(n_samples, seed, size=16):
    """A merge that nearly fits its samples: each sample's environments are
    a noisy one-hot pair and the merge holds a noisy unit weight there."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(size * size, size=n_samples, replace=False)
    a, b = cells // size, cells % size
    theta = np.zeros((size, size))
    theta[a, b] = 1.0 + 0.2 * rng.standard_normal(n_samples)
    u, s, vt = np.linalg.svd(theta)
    rank = int(np.sum(s > 1e-12 * s[0]))
    kmat = u[:, :rank] * s[:rank]
    jmat = vt[:rank]
    uk = np.eye(size)[a] + 0.05 * rng.standard_normal((n_samples, size))
    vj = np.eye(size)[b] + 0.05 * rng.standard_normal((n_samples, size))
    return kmat, jmat, uk, vj


def _local_nll(merged, uk, vj):
    psi = np.einsum('sr,rc,sc->s', uk, merged, vj)
    return (math.log(float(np.vdot(merged, merged)))
            - (2.0 / len(psi)) * float(np.sum(np.log(np.abs(psi)))))


class TestGuardedMergeFactors:
    # 16 x 16 merges: S = 5 (bond 5) takes the factored form, S = 40 the
    # dense one; learning rate 0.05 is accepted and 1.0 overshoots.
    @pytest.mark.parametrize("n_samples, dense", [(5, False), (40, True)])
    @pytest.mark.parametrize("lr, rejected", [(0.05, 0), (1.0, 1)])
    def test_matches_direct_evaluation(self, monkeypatch, n_samples, dense,
                                       lr, rejected):
        import ttnborn.training as training
        dense_calls = []
        split_dense = training._split_dense

        def spy(m, d_max, cutoff):
            dense_calls.append(m.shape)
            return split_dense(m, d_max, cutoff)

        monkeypatch.setattr(training, "_split_dense", spy)
        kmat, jmat, uk, vj = _near_optimal_merge(n_samples, seed=n_samples)
        cfg = TrainConfig(learning_rate=lr, d_max=16, svd_cutoff=0.0,
                          max_backtracks=0)
        stats = training.TrainStats()
        k_new, j_new, err = training.guarded_merge_factors(
            kmat, jmat, uk, vj, cfg, stats, center_on_j=True)
        assert bool(dense_calls) == dense
        assert stats.rejected_steps == rejected
        assert err < 1e-20

        k_hat = kmat / np.linalg.norm(kmat @ jmat)
        base = k_hat @ jmat
        psi = np.einsum('sr,rc,sc->s', uk, base, vj)
        m_grad = uk.T @ (((2.0 / n_samples) / psi)[:, None] * vj)
        stepped = (1.0 - 2.0 * lr) * base + lr * m_grad
        expected = base if rejected else stepped
        got = k_new @ j_new
        expected = expected / np.linalg.norm(expected)
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))
        assert (_local_nll(stepped, uk, vj) > _local_nll(base, uk, vj)) \
            == bool(rejected)

    def test_memory_is_linear_in_the_batch(self):
        # the S x S Gram alone would be 4000^2 doubles = 128 MB
        import tracemalloc
        from ttnborn.training import TrainStats, guarded_merge_factors
        rng = np.random.default_rng(3)
        kmat = rng.standard_normal((16, 4))
        jmat = rng.standard_normal((4, 16))
        uk = rng.standard_normal((4000, 16))
        vj = rng.standard_normal((4000, 16))
        tracemalloc.start()
        try:
            guarded_merge_factors(kmat, jmat, uk, vj, TrainConfig(d_max=16),
                                  TrainStats(), center_on_j=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTrain:
    def test_zero_epochs_identity(self):
        model = build_random(8, 3, seed=28)
        data = gen_random_patterns(8, 3, seed=11).samples
        cfg = TrainConfig(epochs=0, d_max=3)
        out, stats = train(model, data, cfg)
        assert stats.nll == [] and out is model

    def test_deterministic_given_seed(self):
        data = gen_random_patterns(16, 8, seed=12).samples
        runs = []
        for _ in range(2):
            model = build_random(16, 6, seed=13)
            cfg = TrainConfig(learning_rate=0.05, d_max=6, scheme="two-site",
                              epochs=6, seed=3)
            model, stats = train(model, data, cfg)
            runs.append(stats.nll)
        assert runs[0] == runs[1]

    def test_minibatch_runs_and_reports_full_nll(self):
        data = gen_random_patterns(16, 12, seed=14).samples
        model = build_random(16, 8, seed=15)
        cfg = TrainConfig(learning_rate=0.05, d_max=8, scheme="two-site",
                          epochs=8, seed=4, batch_size=6)
        model, stats = train(model, data, cfg)
        assert len(stats.nll) == 8
        assert abs(stats.nll[-1] - nll(model, data)) < 1e-12

    def test_nll_never_below_log_t(self):
        data = gen_random_patterns(16, 10, seed=16, distinct=True).samples
        model = build_random(16, 10, seed=17)
        cfg = TrainConfig(learning_rate=0.1, d_max=10, scheme="two-site",
                          epochs=40, seed=0)
        model, stats = train(model, data, cfg)
        assert all(v >= math.log(10) - 1e-9 for v in stats.nll)

    def test_renormalized_center_invariance(self):
        data = gen_random_patterns(8, 5, seed=18).samples
        configs = all_configs(8)
        paths = {}
        for renorm in (True, False):
            model = build_random(8, 4, seed=19)
            cfg = TrainConfig(learning_rate=0.05, d_max=4, scheme="one-site",
                              epochs=3, seed=0, renormalize_center=renorm)
            model, stats = train(model, data, cfg)
            paths[renorm] = log_probs(model, configs)
            if renorm:
                assert abs(partition_function(model)) < 1e-12
        assert np.max(np.abs(paths[True] - paths[False])) < 1e-10

    def test_lenient_zero_amplitude_floors_and_counts(self):
        from helpers import ttn_from_patterns
        model = ttn_from_patterns(np.array([[0, 0, 0, 0]]))
        canonicalize(model, model.n_tensors)
        bad = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
        cfg = TrainConfig(learning_rate=0.01, d_max=2, scheme="one-site",
                          epochs=1, seed=0, zero_amplitude="lenient")
        model, stats = sweep_epoch(model, bad, cfg)
        assert stats.zero_amplitude_warnings > 0

    def test_stats_csv_schema(self, tmp_path):
        data = gen_random_patterns(8, 4, seed=20).samples
        model = build_random(8, 3, seed=20)
        cfg = TrainConfig(learning_rate=0.05, d_max=3, epochs=2, seed=0)
        model, stats = train(model, data, cfg)
        path = tmp_path / "stats.csv"
        stats.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# ttnborn-stats-v1"
        assert lines[1] == "epoch,nll,seconds,max_bond,mean_truncation_error"
        assert len(lines) == 4
        assert lines[2].split(",")[2] == "0.000000"   # timing zeroed by default


class TestDeskReplicaSystemSize:
    def test_fig2b_style_capacity_vs_system_size(self):
        # |T| = 50 random patterns: at D=50 the floor ln 50 is reached for
        # every n; at D=16 the shortfall grows with n
        gaps_16 = []
        for n in (16, 32, 64):
            data = gen_random_patterns(n, 50, seed=1000 + n).samples
            big = build_random(n, 50, seed=2)
            big, s_big = train(big, data, TrainConfig(
                learning_rate=0.05, d_max=50, scheme="two-site", epochs=25,
                seed=0))
            assert min(s_big.nll) - math.log(50) < 0.05, n
            small = build_random(n, 16, seed=2)
            small, s_small = train(small, data, TrainConfig(
                learning_rate=0.05, d_max=16, scheme="two-site", epochs=25,
                seed=0))
            gaps_16.append(min(s_small.nll) - math.log(50))
        assert gaps_16[0] < gaps_16[1] < gaps_16[2]
