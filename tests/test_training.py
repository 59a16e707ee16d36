import math

import numpy as np
import pytest

from ttnborn import (DenseTensor, MpsModel, TrainConfig, TtnModel,
                     build_random, canonicalize, gen_random_patterns,
                     gradient_one_site, gradient_two_site, log_probs,
                     max_canonical_deviation, merged_tensor, mps_build_random,
                     nll, partition_function, sweep_epoch, train)
from ttnborn.errors import DegenerateSampleError, StateError
from ttnborn.training import _EnvCache, _unit_max_rows, sweep_steps

from helpers import (all_configs, brute_force_amplitudes, mps_from_patterns,
                     mps_state_vector, ttn_from_patterns)


def nll_by_enumeration(model, batch):
    """NLL with Z summed over all configurations; no canonical shortcut."""
    if isinstance(model, MpsModel):
        amps = mps_state_vector(model)
    else:
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
        model = TtnModel([None, t1, t2, t3], canonical_center=2)
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

    # every center of an 8-site MPS, which runs the same cache and gradient
    @pytest.mark.parametrize("model_type, center", [
        *(pytest.param("ttn", c, id=str(c)) for c in (1, 2, 3, 4, 7)),
        *(pytest.param("mps", c, id=f"mps-{c}") for c in range(8))])
    def test_matches_finite_differences(self, model_type, center, rng):
        if model_type == "ttn":
            model = build_random(8, 3, seed=21)
        else:
            model = mps_build_random(8, 3, seed=21)
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


def _environments(model, k, batch):
    """Each row's environment of T[k], by enumeration: its amplitude with
    T[k] replaced by each unit tensor in turn."""
    amplitudes = (mps_state_vector if isinstance(model, MpsModel)
                  else brute_force_amplitudes)
    idx = np.asarray(batch) @ (1 << np.arange(model.n_sites - 1, -1, -1))
    t = model.tensors[k]
    env = np.empty((len(batch),) + t.shape)
    for entry in np.ndindex(t.shape):
        unit = np.zeros(t.shape)
        unit[entry] = 1.0
        model.tensors[k] = DenseTensor(unit, validate=False)
        env[(slice(None),) + entry] = amplitudes(model)[idx]
    model.tensors[k] = t
    return env


class TestUpdateOneSite:
    # An inner tree center and an inner chain site, in a model that nearly
    # fits its rows: each is a noisy copy of the model holding amplitude 1
    # on every row.  Learning rate 0.05 is accepted and 1.0 overshoots.
    @pytest.mark.parametrize("from_patterns, center", [
        pytest.param(ttn_from_patterns, 2, id="ttn"),
        pytest.param(mps_from_patterns, 3, id="mps")])
    @pytest.mark.parametrize("lr, rejected", [(0.05, 0), (1.0, 1)])
    def test_matches_direct_evaluation(self, monkeypatch, from_patterns,
                                       center, lr, rejected):
        import ttnborn.training as training
        monkeypatch.setattr(training, "MAX_BACKTRACKS", 0)
        batch = gen_random_patterns(8, 4, seed=0, distinct=True).samples
        model = from_patterns(batch)
        rng = np.random.default_rng(0)
        for i, t in enumerate(model.tensors):
            if t is not None:
                model.tensors[i] = DenseTensor(
                    t.data + 0.05 * rng.standard_normal(t.shape))
        canonicalize(model, center)
        t_hat = model.tensors[center].data
        t_hat = t_hat / np.linalg.norm(t_hat)
        env = _environments(model, center, batch)

        def local_nll(t):
            psi = np.tensordot(env, t, axes=t.ndim)
            return (math.log(float(np.vdot(t, t)))
                    - (2.0 / len(psi)) * float(np.sum(np.log(np.abs(psi)))))

        psi = np.tensordot(env, t_hat, axes=t_hat.ndim)
        m_grad = np.tensordot((2.0 / len(batch)) / psi, env, axes=1)
        stepped = (1.0 - 2.0 * lr) * t_hat + lr * m_grad
        stats = training.TrainStats()
        training._site_step(model, training._EnvCache(model, batch, center),
                            center, TrainConfig(learning_rate=lr), stats)
        expected = t_hat if rejected else stepped
        expected = expected / np.linalg.norm(expected)
        got = model.tensors[center].data
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))
        assert stats.rejected_steps == rejected
        assert (local_nll(stepped) > local_nll(t_hat)) == bool(rejected)

    def test_renormalize_pins_unit_norm(self):
        # the one-site step leaves a unit-norm center, so log Z = 0
        model = build_random(8, 3, seed=24)
        sweep_epoch(model, gen_random_patterns(8, 4, 1).samples,
                    TrainConfig(learning_rate=0.05, scheme="one-site"))
        center = model.tensors[model.canonical_center]
        assert abs(np.linalg.norm(center.data.ravel()) - 1.0) < 1e-12
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
    # and every edge of an 8-site MPS, from either side
    @pytest.mark.parametrize("model_type, edge", [
        *(pytest.param("ttn", e, id=f"edge{i}") for i, e in enumerate(
            [(1, 2), (2, 4), (2, 5), (3, 7), (1, 3)])),
        *(pytest.param("mps", (k, j), id=f"mps-{k}-{j}")
          for k in range(8) for j in (k - 1, k + 1) if 0 <= j < 8)])
    def test_matches_finite_differences(self, model_type, edge, rng):
        k, j = edge
        if model_type == "ttn":
            model = build_random(8, 3, seed=25)
        else:
            model = mps_build_random(8, 3, seed=25)
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


class TestUnitMaxRows:
    @pytest.mark.parametrize("zero_row", [False, True])
    def test_matches_the_masked_formula_bit_for_bit(self, zero_row):
        # the environment messages' scale: negative entries, subnormals
        # and, with zero_row, a row of zeros (signed, so a lost -0.0 shows)
        m = np.array([[-3.0, 1.5, 0.0, 2.0],
                      [5e-324, -1e-310, 0.0, 2.5e-320],
                      [2.0, -7.0, 1e-300, -0.0],
                      [-1e300, 3e299, -2e-5, 1.0]])
        if zero_row:
            m[1] = [0.0, -0.0, 0.0, 0.0]
        logs = np.array([0.5, -1.0, 2.0, -3.25])
        mx = np.max(np.abs(m), axis=1)
        mx[mx == 0.0] = 1.0
        want, want_logs = m / mx[:, None], logs + np.log(mx)
        got, got_logs = _unit_max_rows(m.copy(), logs.copy())
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got_logs.view(np.int64),
                              want_logs.view(np.int64))


class TestSweepEpoch:
    def test_visits_each_tensor_once_per_pass(self):
        T, F = True, False
        pinned = {
            4: ([(3, 1, T), (1, 2, T), (2, None, T)],
                [(2, 1, T), (1, 3, T), (3, None, T)]),
            8: ([(7, 3, T), (3, 6, F), (6, 3, T), (3, 1, T), (1, 2, T),
                 (2, 5, F), (5, 2, T), (2, 4, T), (4, None, T)],
                [(4, 2, T), (2, 5, F), (5, 2, T), (2, 1, T), (1, 3, T),
                 (3, 6, F), (6, 3, T), (3, 7, T), (7, None, T)]),
            # the 8-site chain: one path, no subtree off it
            "mps": ([(7, 6, T), (6, 5, T), (5, 4, T), (4, 3, T), (3, 2, T),
                     (2, 1, T), (1, 0, T), (0, None, T)],
                    [(0, 1, T), (1, 2, T), (2, 3, T), (3, 4, T), (4, 5, T),
                     (5, 6, T), (6, 7, T), (7, None, T)]),
        }
        for n in (4, 8, 1024, "mps"):
            if n == "mps":
                model = mps_build_random(8, 2, seed=0)
            else:
                model = build_random(n, 2, seed=0)
            first, last = model.first_leaf, model.n_sites - 1
            r2l = sweep_steps(model, last, rightward=False)
            l2r = sweep_steps(model, first, rightward=True)
            if n in pinned:
                assert (r2l, l2r) == pinned[n]
            for steps, start, end in ((r2l, last, first), (l2r, first, last)):
                assert [u for u, _, _ in steps] \
                    == [start] + [v for _, v, _ in steps[:-1]]
                assert all(v in model.neighbors(u) for u, v, _ in steps[:-1])
                assert steps[-1] == (end, None, True)
                assert sorted(u for u, _, due in steps if due) \
                    == list(range(model.first_tensor, model.n_sites))

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

    @pytest.mark.parametrize("scheme", ["one-site", "two-site"])
    @pytest.mark.parametrize("build", [build_random, mps_build_random],
                             ids=["ttn", "mps"])
    def test_cache_holds_one_message_per_edge(self, build, scheme):
        # the message back across the edge the center moved over is stale,
        # and is dropped
        data = gen_random_patterns(16, 5, seed=1).samples
        model = build(16, 4, seed=2)
        canonicalize(model, 15)
        cache = _EnvCache(model, data, 15)
        sweep_epoch(model, data, TrainConfig(learning_rate=0.05, d_max=4,
                                             scheme=scheme, epochs=1, seed=0),
                    cache=cache)
        edges = {frozenset(key) for key in cache.msgs}
        assert len(edges) == len(cache.msgs) == len(model.bond_dims())

    @pytest.mark.parametrize("build", [build_random, mps_build_random],
                             ids=["ttn", "mps"])
    def test_cache_keeps_no_per_pixel_array(self, build):
        # a pixel's one-hot message is gathered on each use; keeping one per
        # pixel would add 1 MB here (S x n x 2 floats)
        import tracemalloc
        from ttnborn import training
        data = gen_random_patterns(128, 500, seed=6).samples
        model = build(128, 8, seed=5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = training._EnvCache(model, data, model.n_sites - 1)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        held = sum(m.nbytes + logs.nbytes for m, logs in cache.msgs.values())
        assert retained <= held + cache.samples.nbytes + 64 * 2 ** 10

    def test_root_message_leaves_the_message_it_reads(self):
        # the root's message toward child 3 has one part, child 2's cached
        # message, whose logs the row rescale must not write into
        data = gen_random_patterns(16, 5, seed=1).samples
        model = build_random(16, 4, seed=2)
        canonicalize(model, 15)
        cache = _EnvCache(model, data, 15)
        logs = cache.msgs[(2, 1)][1].copy()
        cache.refresh_move(1, 3)
        assert np.array_equal(cache.msgs[(2, 1)][1], logs)

    def test_two_site_epoch_pushes_into_no_leaf(self, monkeypatch):
        # a round trip into a leaf is merged straight back, so the two-site
        # scheme pushes only on the round trips into internal nodes
        from ttnborn import training
        data = gen_random_patterns(16, 6, seed=9).samples
        model = build_random(16, 4, seed=10)
        canonicalize(model, 15)
        steps = (sweep_steps(model, 15, rightward=False)
                 + sweep_steps(model, 8, rightward=True))
        descents = [v for _, v, due in steps if not due]
        targets = []
        push = training.push_qr

        def counted(m, u, v):
            targets.append(v)
            return push(m, u, v)
        monkeypatch.setattr(training, "push_qr", counted)
        sweep_epoch(model, data, TrainConfig(d_max=4, epochs=1, seed=0))
        assert len(descents) == 16
        assert sorted(targets) == sorted(v for v in descents
                                         if not model.is_leaf(v))
        assert len(targets) == 4
        assert max_canonical_deviation(model) < 1e-12

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
        sweep_epoch(model, data, cfg)
        assert model.canonical_center == model.n_tensors
        after = log_probs(model, configs)
        assert np.max(np.abs(after - before)) < 1e-9

    def test_dmax_one_factorizes_the_cut(self):
        from ttnborn import correlation
        model = build_random(8, 4, seed=27)
        data = gen_random_patterns(8, 4, seed=8).samples
        cfg = TrainConfig(learning_rate=0.0, d_max=1, svd_cutoff=0.0)
        sweep_epoch(model, data, cfg)
        # the bond above node 2 is now 1: pixels under node 2 (0..3)
        # decouple from the rest
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

    @pytest.mark.parametrize("build", [build_random, mps_build_random])
    @pytest.mark.parametrize("start_d, d_max", [(2, 6), (8, 3)])
    def test_max_bond_reads_the_bond_dims(self, build, start_d, d_max):
        # (2, 6) grows the bonds, (8, 3) truncates them
        data = gen_random_patterns(16, 12, seed=11).samples
        model = build(16, start_d, seed=12)
        assert model.max_bond() == max(model.bond_dims().values()) == start_d
        seen = []

        def check(model, epoch, stats):
            seen.append(model.max_bond())
            assert seen[-1] == max(model.bond_dims().values())

        cfg = TrainConfig(learning_rate=0.05, d_max=d_max, epochs=3, seed=0)
        _, stats = train(model, data, cfg, on_epoch=check)
        assert seen == stats.max_bond
        assert (max(seen) > start_d) if start_d < d_max else seen[0] == d_max

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
        assert two <= one

    def test_requires_center_at_k(self):
        model = build_random(8, 2, seed=0)
        canonicalize(model, 1)
        with pytest.raises(StateError):
            gradient_two_site(model, (2, 4), np.zeros((1, 8), dtype=int))


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
        factored_calls = []
        split_factored = training._split_factored

        def spy(*args):
            factored_calls.append(args)
            return split_factored(*args)

        monkeypatch.setattr(training, "_split_factored", spy)
        monkeypatch.setattr(training, "MAX_BACKTRACKS", 0)
        kmat, jmat, uk, vj = _near_optimal_merge(n_samples, seed=n_samples)
        cfg = TrainConfig(learning_rate=lr, d_max=16, svd_cutoff=0.0)
        stats = training.TrainStats()
        k_new, j_new, err = training.guarded_merge_factors(
            kmat, jmat, uk, vj, cfg, stats, center_on_j=True)
        assert bool(factored_calls) != dense
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


def _train_wide_tree(monkeypatch, gram, epochs=2):
    """Two-site epochs of a 32-pixel, D=16 tree on 256 random rows, whose
    six merges next to the root are dense and 256 x 256.  Returns the
    TrainStats, the dense merges and, per merge, whether the Gram split
    took it; with ``gram`` False every dense merge takes the full SVD."""
    import ttnborn.training as training
    merges, taken = [], []
    gram_split = training._gram_split

    def spy(m, d_max, cutoff):
        merges.append(m.copy())
        out = gram_split(m, d_max, cutoff) if gram else None
        taken.append(out is not None)
        return out

    monkeypatch.setattr(training, "_gram_split", spy)
    data = gen_random_patterns(32, 256, seed=21).samples
    model = build_random(32, 16, seed=22)
    cfg = TrainConfig(learning_rate=0.05, d_max=16, epochs=epochs, seed=0)
    _, stats = train(model, data, cfg)
    monkeypatch.undo()
    return stats, merges, taken


def _planted_merge(values, seed, side=256):
    """A side x side merge with the given leading singular values and
    random singular vectors (the rest zero)."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((side, len(values))))[0]
    v = np.linalg.qr(rng.standard_normal((side, len(values))))[0]
    return (u * np.asarray(values, dtype=float)) @ v.T


class TestGramSplit:
    """A dense merge with its smaller side >= 4 d_max is split from its
    Gram matrix where the gap test passes, else by the full SVD."""

    @pytest.mark.parametrize("transpose", [False, True])
    def test_matches_the_svd_split(self, monkeypatch, transpose):
        from ttnborn.tensor import truncated_svd
        from ttnborn.training import _gram_split
        _, merges, _ = _train_wide_tree(monkeypatch, gram=True, epochs=1)
        big = [m for m in merges if m.shape == (256, 256)]
        assert len(big) >= 6
        for m in big:
            m = np.ascontiguousarray(m.T) if transpose else m
            got = _gram_split(m, 16, 1e-12)
            assert got is not None
            u, s, vt, err = got
            u_ref, s_ref, vt_ref, err_ref = truncated_svd(m, 16, 1e-12)
            assert s.shape == s_ref.shape == (16,)
            assert np.max(np.abs(s - s_ref)) <= 1e-12 * s_ref[0]
            product = (u * s) @ vt - (u_ref * s_ref) @ vt_ref
            assert np.linalg.norm(product) <= 1e-12 * np.linalg.norm(m)
            assert abs(err - err_ref) <= 1e-12
            for q in (u.T @ u, vt @ vt.T):
                assert np.max(np.abs(q - np.eye(16))) < 1e-13

    @pytest.mark.parametrize("case", ["tied", "tiny-kept", "straddles-cutoff",
                                      "zero"])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_falls_back_to_the_svd_bit_for_bit(self, case, transpose):
        from ttnborn.tensor import svd_sign_fix, truncated_svd
        from ttnborn.training import _gram_split, _split_dense
        d_max, cutoff = 16, 1e-12
        values = np.linspace(2.0, 1.0, 40)
        if case == "tied":
            values[16] = values[15]
        elif case == "tiny-kept":
            # a clean gap below the 16th value, which the Gram squares away
            values[15], values[16:] = 1e-7 * values[0], 1e-9
            cutoff = 0.0
        elif case == "straddles-cutoff":
            # rank 9 from the cutoff, with the 9th value's share of the
            # weight at the cutoff itself
            values = np.ones(9)
            cutoff = 1e-4
            values[8] = math.sqrt(8 * cutoff / (1 - cutoff))
        m = (np.zeros((256, 256)) if case == "zero"
             else _planted_merge(values, seed=23))
        if transpose:
            m = np.ascontiguousarray(m.T)
        assert _gram_split(m, d_max, cutoff) is None
        got = _split_dense(m, d_max, cutoff)
        u, s, vt, err = truncated_svd(m, d_max, cutoff)
        ref = (*svd_sign_fix(u.copy(), vt.copy()), s, err)
        for a, b in zip((got[0], got[2], got[1], got[3]), ref):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_size_rule_keeps_small_merges_on_the_svd(self):
        from ttnborn.training import _gram_split
        m = _planted_merge(np.linspace(2.0, 1.0, 40), seed=24, side=128)
        assert _gram_split(m[:, :63], 16, 1e-12) is None
        assert _gram_split(m[:63], 16, 1e-12) is None
        assert _gram_split(m[:, :64], 16, 1e-12) is not None

    def test_training_matches_an_all_svd_run(self, monkeypatch):
        stats, merges, taken = _train_wide_tree(monkeypatch, gram=True)
        ref, ref_merges, ref_taken = _train_wide_tree(monkeypatch, gram=False)
        assert sum(taken) >= 12 and not any(ref_taken)
        assert len(merges) == len(ref_merges)
        steps = sum(len(e) for e in stats.truncation_errors)
        assert steps == sum(len(e) for e in ref.truncation_errors)
        assert stats.rejected_steps == ref.rejected_steps
        assert stats.max_bond == ref.max_bond
        assert len(stats.nll) == 2
        for a, b in zip(stats.nll, ref.nll):
            assert abs(a - b) <= 1e-10 * abs(b)


def _isometric_merge(rows, cols, bond, n_samples, seed, side):
    """A random (kmat, jmat, uk, vj) merge whose ``side`` factor ("a" for
    kmat, "b" for jmat) is an isometry toward the shared bond."""
    rng = np.random.default_rng(seed)
    kmat = rng.standard_normal((rows, bond))
    jmat = rng.standard_normal((bond, cols))
    if side == "a":
        kmat = np.linalg.qr(kmat)[0]
    else:
        jmat = np.linalg.qr(jmat.T)[0].T
    uk = rng.standard_normal((n_samples, rows))
    vj = rng.standard_normal((n_samples, cols))
    return kmat, jmat, uk, vj


class TestProjectedSplit:
    """The factored split reuses the isometric side's columns as a basis and
    QR-factors only the rest; it must agree with the plain two-QR split."""

    @staticmethod
    def _run(monkeypatch, merge, lr, center_on_j, plain):
        import ttnborn.training as training
        bases = []
        qr_on_basis = training._qr_on_basis

        def spy(basis, gamma, rest):
            bases.append(basis.shape[1])
            return qr_on_basis(basis, gamma, rest)

        monkeypatch.setattr(training, "_qr_on_basis", spy)
        if plain:
            monkeypatch.setattr(training, "_is_isometry", lambda gram: False)
        cfg = TrainConfig(learning_rate=lr, d_max=64, svd_cutoff=0.0)
        out = training.guarded_merge_factors(*merge, cfg, training.TrainStats(),
                                             center_on_j=center_on_j)
        monkeypatch.undo()
        return out, bases

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("variant", ["generic", "vj-in-span",
                                         "duplicate-rows", "alpha-zero"])
    @pytest.mark.parametrize("center_on_j", [False, True])
    def test_matches_plain_split(self, monkeypatch, side, variant,
                                 center_on_j):
        bond, n_samples = 8, 6
        kmat, jmat, uk, vj = _isometric_merge(64, 48, bond, n_samples,
                                              seed=31, side=side)
        rng = np.random.default_rng(32)
        if variant == "vj-in-span":
            vj = rng.standard_normal((n_samples, bond)) @ jmat
        if variant == "duplicate-rows":
            vj[1] = vj[0]
            vj[4] = vj[0]
            uk[3] = uk[2]
        lr = 0.0 if variant == "alpha-zero" else 0.05
        merge = (kmat, jmat, uk, vj)
        (k_new, j_new, err), bases = self._run(monkeypatch, merge, lr,
                                               center_on_j, plain=False)
        (k_ref, j_ref, err_ref), ref_bases = self._run(
            monkeypatch, merge, lr, center_on_j, plain=True)
        assert ref_bases == [0, 0]
        assert bases == ([bond, 0] if side == "a" else [0, bond])
        got, ref = k_new @ j_new, k_ref @ j_ref
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
        s_got = np.linalg.svd(got, compute_uv=False)[:k_new.shape[1]]
        s_ref = np.linalg.svd(ref, compute_uv=False)[:k_ref.shape[1]]
        assert k_new.shape == k_ref.shape and j_new.shape == j_ref.shape
        assert np.max(np.abs(s_got - s_ref)) < 1e-12 * s_ref[0]
        assert abs(err - err_ref) < 1e-12
        # the factor that does not carry the center is an isometry
        iso = j_new @ j_new.T if not center_on_j else k_new.T @ k_new
        assert np.max(np.abs(iso - np.eye(iso.shape[0]))) < 1e-12

    def test_empty_basis_is_the_plain_qr(self, rng):
        from ttnborn.training import _qr_on_basis
        rest = rng.standard_normal((40, 12))
        q, r = _qr_on_basis(np.empty((40, 0)), 1.0, rest)
        q_ref, r_ref = np.linalg.qr(rest, mode="reduced")
        assert np.array_equal(q, q_ref) and np.array_equal(r, r_ref)

    def test_basis_block_factorization(self, rng):
        from ttnborn.training import _qr_on_basis
        basis = np.linalg.qr(rng.standard_normal((50, 7)))[0]
        rest = rng.standard_normal((50, 5))
        rest[:, 3] = rest[:, 0]
        q, r = _qr_on_basis(basis, 0.3, rest)
        assert np.array_equal(q[:, :7], basis)
        assert np.max(np.abs(q.T @ q - np.eye(12))) < 1e-14
        block = np.concatenate([0.3 * basis, rest], axis=1)
        assert np.max(np.abs(q @ r - block)) < 1e-14 * np.max(np.abs(block))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -0.1), ("learning_rate", math.nan),
        ("learning_rate", math.inf), ("d_max", 0), ("d_max", -1),
        ("svd_cutoff", -1e-12), ("svd_cutoff", math.nan),
        ("svd_cutoff", math.inf), ("epochs", -1), ("scheme", "three-site"),
        ("zero_amplitude", "loose"), ("batch_size", 0), ("d_max", 2.5),
        ("d_max", True), ("batch_size", 2.5), ("epochs", 1.5),
        ("seed", -1), ("seed", 0.5)])
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


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
        # Every epoch reports the exact NLL of the full data.  An epoch that
        # would raise it is undone, so all 8 complete, the NLL never rises,
        # and an epoch that repeats its predecessor's NLL left the tensors
        # as they were.
        data = gen_random_patterns(16, 12, seed=14).samples
        model = build_random(16, 8, seed=15)
        cfg = TrainConfig(learning_rate=0.05, d_max=8, scheme="two-site",
                          epochs=8, seed=4, batch_size=6)
        reported, tensors = [], []

        def on_epoch(model, epoch, stats):
            assert stats.nll[-1] == nll(model, data)
            reported.append(stats.nll[-1])
            tensors.append([t.data.copy() for t in model.tensors[1:]])

        _, stats = train(model, data, cfg, on_epoch=on_epoch)
        assert reported == stats.nll and len(reported) == 8
        assert all(b <= a for a, b in zip(reported, reported[1:]))
        assert reported[-1] < reported[0]
        undone = [e for e in range(1, 8) if reported[e] == reported[e - 1]]
        assert undone
        for e in undone:
            assert all(np.array_equal(a, b)
                       for a, b in zip(tensors[e], tensors[e - 1]))

    def test_an_undone_epoch_restores_log_norm(self):
        # batches of 2 of these 12 rows raise the full NLL in the first
        # epoch, which is undone: the model is the one training started
        # from, its log_norm included (the sweep had set it to 0)
        data = gen_random_patterns(16, 12, seed=14).samples
        model = build_random(16, 8, seed=15)
        model.log_norm = 3.0
        start = canonicalize(model.copy(), 15)
        cfg = TrainConfig(learning_rate=0.05, d_max=8, epochs=1, seed=0,
                          batch_size=2)
        _, stats = train(model, data, cfg)
        assert stats.nll == [nll(start, data)]
        assert model.log_norm == 3.0
        assert partition_function(model) == partition_function(start)

    @pytest.mark.parametrize("build", [build_random, mps_build_random])
    def test_row_dtype_does_not_change_an_epoch(self, build):
        # rows are held as uint8 whatever their dtype; a bool matrix must
        # not reach an index, where it would read as a mask
        data = gen_random_patterns(16, 12, seed=14).samples
        runs = []
        for dtype in (np.uint8, np.int64, np.bool_, np.float64):
            cfg = TrainConfig(learning_rate=0.05, d_max=6, epochs=2, seed=4,
                              batch_size=8)
            model, stats = train(build(16, 6, seed=15), data.astype(dtype),
                                 cfg)
            runs.append((stats.nll, [t.data for t in model.tensors if t]))
        for nlls, tensors in runs[1:]:
            assert nlls == runs[0][0]
            assert all(np.array_equal(a, b)
                       for a, b in zip(tensors, runs[0][1]))

    def test_small_batches_never_raise_the_full_nll(self):
        # Without the epoch check, batches of 50 of these 200 rows raise the
        # full-data NLL at epoch 3 (49.34 -> 50.16 nats) and end at 49.63,
        # less than a nat below the untrained 50.50; with it, at 41.70.
        data = gen_random_patterns(64, 200, seed=0).samples
        model = build_random(64, 16, seed=0)
        untrained = nll(model, data)
        cfg = TrainConfig(learning_rate=0.05, d_max=16, epochs=8, seed=0,
                          batch_size=50)
        _, stats = train(model, data, cfg)
        trajectory = [untrained] + stats.nll
        assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))
        assert stats.nll[-1] < untrained - 5.0

    def test_nll_never_below_log_t(self):
        data = gen_random_patterns(16, 10, seed=16, distinct=True).samples
        model = build_random(16, 10, seed=17)
        cfg = TrainConfig(learning_rate=0.1, d_max=10, scheme="two-site",
                          epochs=40, seed=0)
        model, stats = train(model, data, cfg)
        assert all(v >= math.log(10) - 1e-9 for v in stats.nll)

    @pytest.mark.parametrize("scheme", ["one-site", "two-site"])
    @pytest.mark.parametrize("from_patterns", [
        pytest.param(ttn_from_patterns, id="ttn"),
        pytest.param(mps_from_patterns, id="mps")])
    def test_lenient_zero_amplitude_floors_and_counts(self, from_patterns,
                                                      scheme):
        model = from_patterns(np.array([[0, 0, 0, 0]]))
        canonicalize(model, model.n_sites - 1)
        bad = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
        cfg = TrainConfig(learning_rate=0.01, d_max=2, scheme=scheme,
                          epochs=1, seed=0, zero_amplitude="lenient")
        model, stats = model.sweep_epoch(bad, cfg)
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
