import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttnborn import (BinaryDataset, DenseTensor, MpsModel, TtnModel,
                     apply_ordering, build_random, canonicalize,
                     contract_pixel_vectors, correlation, correlation_map,
                     gen_random_patterns, load_binarized_text, log_probs,
                     make_ordering, marginal, max_canonical_deviation, nll,
                     partition_function, sample_batch, single_site_marginals,
                     train, TrainConfig)
from ttnborn.errors import (DegenerateDistributionError, DimensionError,
                            StateError, TopologyError)
from ttnborn.tensor import frobenius_norm
from ttnborn.mps import (mps_build_random, mps_correlation_map,
                         mps_single_site_marginals)
from ttnborn.born import _doubled_marginals, rescale_rows, sample_matrix
from ttnborn.ttn import _node_data, amplitudes_from_vectors

from helpers import (all_configs, brute_force_amplitudes, config_indices,
                     count_lifts, enum_log_z, mps_from_patterns,
                     mps_state_vector, random_uneven_ttn, sharp_product_mps,
                     sharp_product_ttn, ttn_from_patterns, uneven_ttn,
                     uniform_ttn)

DIGITS = os.path.join(os.path.dirname(__file__), "fixtures",
                      "digits_28x28.txt")


class TestBuildRandom:
    def test_n4_capacity_rule(self):
        m = build_random(4, 10, seed=0)
        assert m.n_tensors == 3
        assert m.tensors[1].shape == (4, 4)          # root bond min(10, 2^2)
        assert m.tensors[2].shape == (4, 2, 2)       # physical dims 2

    def test_n8_dmax2_everything_capped(self):
        m = build_random(8, 2, seed=0)
        assert m.n_tensors == 7
        assert all(d == 2 for d in m.bond_dims().values())

    def test_same_seed_bit_identical(self):
        a = build_random(8, 4, seed=11)
        b = build_random(8, 4, seed=11)
        for n in range(1, 8):
            assert np.array_equal(a.tensors[n].data, b.tensors[n].data)
            assert a.tensors[n].log_scale == b.tensors[n].log_scale

    def test_capacity_verified_by_exact_rank(self):
        # a D-capped bond can always be filled: the represented state of a
        # random n=4 model has full rank 4 across the root split
        m = build_random(4, 10, seed=3)
        amps = brute_force_amplitudes(m).reshape(4, 4)
        assert np.linalg.matrix_rank(amps, tol=1e-12) == 4

    def test_not_power_of_two_rejected(self):
        with pytest.raises(TopologyError):
            build_random(12, 4, seed=0)
        with pytest.raises(TopologyError):
            build_random(2, 4, seed=0)

    @pytest.mark.parametrize("build, size, d_max, error", [
        (build_random, 16, 2.5, ValueError),
        (mps_build_random, 8, 2.5, ValueError),
        (build_random, 16, True, ValueError),
        (mps_build_random, 8, True, ValueError),
        (build_random, 16.0, 4, ValueError),
        (mps_build_random, 8.0, 4, ValueError),
        (build_random, True, 4, ValueError),
        (build_random, 16, 0, DimensionError),
        (mps_build_random, 8, 0, DimensionError),
        (build_random, 12, 4, TopologyError),
        (mps_build_random, 1, 4, TopologyError),
    ])
    def test_sizes_and_d_max_follow_the_integer_rule(self, build, size,
                                                     d_max, error):
        with pytest.raises(error):
            build(size, d_max, seed=0)

    @pytest.mark.parametrize("build", [build_random, mps_build_random])
    def test_numpy_integer_sizes_build_the_same_model(self, build):
        a, b = build(16, 3, seed=2), build(np.int64(16), np.int32(3), seed=2)
        assert a.bond_dims() == b.bond_dims()
        assert all(np.array_equal(s.data, t.data) for s, t in
                   zip(a.tensors[a.first_tensor:], b.tensors[b.first_tensor:]))

    def test_built_model_is_canonical_at_root(self):
        m = build_random(16, 5, seed=1)
        assert m.canonical_center == 1
        assert max_canonical_deviation(m) < 1e-12


class TestCanonicalize:
    def test_idempotent_at_same_center(self):
        m = build_random(8, 4, seed=2)
        before = [m.tensors[n].data.copy() for n in range(1, 8)]
        canonicalize(m, 1)
        for n in range(1, 8):
            assert np.max(np.abs(m.tensors[n].data - before[n - 1])) < 1e-12

    def test_identities_hold_at_every_center(self):
        m = build_random(8, 4, seed=3)
        for center in range(1, 8):
            canonicalize(m, center)
            assert m.canonical_center == center
            assert max_canonical_deviation(m) < 1e-10

    @pytest.mark.parametrize("build", [build_random, mps_build_random])
    def test_deviation_sees_every_tensor(self, build):
        # a wrong center, a log scale, and a NaN past the first shape class
        m = build(64, 4, seed=5)
        canonicalize(m, 33)
        m.canonical_center = 40
        assert max_canonical_deviation(m) > 1e-3
        m.canonical_center = 33
        t = m.tensors[34]
        m.tensors[34] = DenseTensor(t.data * np.exp(-3.0), 3.0)
        assert max_canonical_deviation(m) < 1e-12
        m.tensors[60].data[0, 0, 0] = np.nan
        assert np.isnan(max_canonical_deviation(m))

    @pytest.mark.parametrize("build", [build_random, mps_build_random])
    def test_gram_past_the_float_range_is_not_finite(self, build):
        # a centre with entries near 1e200, then a centre moved off it
        m = build(8, 4, seed=6)
        c = m.canonical_center
        m.tensors[c] = DenseTensor(m.tensors[c].data * 1e200)
        m.canonical_center = 7 - c
        assert not np.isfinite(max_canonical_deviation(m))

    def test_center_moves_leave_probabilities_invariant(self):
        m = build_random(8, 4, seed=4)
        configs = all_configs(8)
        base = log_probs(m, configs)
        canonicalize(m, 5)
        mid = log_probs(m, configs)
        canonicalize(m, 1)
        back = log_probs(m, configs)
        assert np.max(np.abs(mid - base)) < 1e-10
        assert np.max(np.abs(back - base)) < 1e-10

    def test_center_out_of_range(self):
        m = build_random(8, 4, seed=0)
        with pytest.raises(TopologyError):
            canonicalize(m, 9)


class TestLogNorm:
    """Psi = exp(log_norm) x the network of the tensors' data."""

    @staticmethod
    def _far_from_one(seed):
        # entries near 1e90 under node 2 and 1e-80 under node 3: each first
        # push into node 2 or 3 leaves 1e+-150, while Psi stays near 1e30
        m = build_random(8, 2, seed=seed)
        for k, f in ((2, 1e90), (4, 1e90), (5, 1e90),
                     (3, 1e-80), (6, 1e-80), (7, 1e-80)):
            m.tensors[k] = DenseTensor(m.tensors[k].data * f)
        m.canonical_center = None
        return m

    def test_canonicalize_keeps_entries_in_the_window(self):
        for seed in range(3):
            m = self._far_from_one(seed)
            expect = enum_log_z(m)
            configs = all_configs(8)
            amps = brute_force_amplitudes(m)
            canonicalize(m, 1)
            tops = [np.abs(t.data).max() for t in m.tensors[1:]]
            assert 1e-150 <= min(tops) and max(tops) <= 1e150
            assert abs(m.log_norm) > 10.0
            assert abs(partition_function(m) - expect) < 1e-12 * abs(expect)
            assert abs(enum_log_z(m) - expect) < 1e-12 * abs(expect)
            # log_probs leave log_norm out, amplitudes_from_vectors keep it
            assert np.allclose(log_probs(m, configs),
                               2.0 * np.log(np.abs(amps)) - expect,
                               rtol=0.0, atol=1e-10)
            log_abs, _ = amplitudes_from_vectors(m, np.eye(2)[configs])
            assert np.allclose(log_abs, np.log(np.abs(amps)),
                               rtol=0.0, atol=1e-10)

    def test_moving_the_centre_keeps_log_z(self):
        m = self._far_from_one(3)
        canonicalize(m, 1)
        log_z = partition_function(m)
        for center in (5, 7, 1):
            canonicalize(m, center)
            assert abs(partition_function(m) - log_z) < 1e-12 * abs(log_z)


class TestPartitionFunction:
    def test_unit_norm_center_gives_zero(self):
        m = build_random(8, 3, seed=5)
        t = m.tensors[1]
        m.tensors[1] = DenseTensor(t.data / np.linalg.norm(t.data.ravel()),
                                   0.0)
        assert abs(partition_function(m)) < 1e-12

    def test_norm_five_center(self):
        m = uniform_ttn(4)
        canonicalize(m, 1)
        t = m.tensors[1]
        scale = 5.0 / math.exp(frobenius_norm(t))
        m.tensors[1] = DenseTensor(t.data * math.exp(t.log_scale) * scale, 0.0)
        assert abs(partition_function(m) - 2 * math.log(5)) < 1e-12

    def test_matches_enumeration(self):
        for seed in range(5):
            m = build_random(8, 4, seed=seed)
            assert abs(partition_function(m) - enum_log_z(m)) < 1e-10

    def test_requires_canonical_center(self):
        m = uniform_ttn(4)
        with pytest.raises(StateError):
            partition_function(m)


class TestAmplitude:
    def test_all_equal_tensors_are_symmetric(self):
        tensors = [None, DenseTensor(np.ones((2, 2)))]
        tensors += [DenseTensor(np.ones((2, 2, 2))) for _ in range(2)]
        m = TtnModel(tensors)
        configs = all_configs(4)
        vals = [contract_pixel_vectors(m, np.eye(2)[c]) for c in configs]
        assert len({(round(a.log_abs, 12), a.sign) for a in vals}) == 1

    def test_single_pattern_model_signs(self):
        pattern = np.array([[0, 0, 0, 0]])
        m = ttn_from_patterns(pattern)
        for c in all_configs(4):
            a = contract_pixel_vectors(m, np.eye(2)[c])
            if np.array_equal(c, pattern[0]):
                assert a.sign == 1 and abs(a.log_abs) < 1e-12
            else:
                assert a.sign == 0 and a.log_abs == float("-inf")

    def test_matches_brute_force_oracle(self):
        m = build_random(8, 4, seed=6)
        amps = brute_force_amplitudes(m)
        for i, c in enumerate(all_configs(8)):
            a = contract_pixel_vectors(m, np.eye(2)[c])
            expect = amps[i]
            got = a.sign * math.exp(a.log_abs)
            assert abs(got - expect) < 1e-10 * max(1.0, abs(expect))

    def test_wrong_length_rejected(self):
        m = build_random(8, 2, seed=0)
        with pytest.raises(DimensionError):
            contract_pixel_vectors(m, np.eye(2)[np.zeros(7, dtype=int)])

    @pytest.mark.parametrize("shape", [(16,), (), (1, 16, 2, 1)])
    def test_vectors_of_the_wrong_rank_rejected(self, shape):
        m = build_random(16, 2, seed=0)
        for contract in (contract_pixel_vectors, amplitudes_from_vectors):
            with pytest.raises(DimensionError, match=r"\(S, 16, 2\)"):
                contract(m, np.ones(shape))

    def test_linear_contraction_with_ones_sums_amplitudes(self):
        m = build_random(8, 3, seed=7)
        a = contract_pixel_vectors(m, np.ones((8, 2)))
        total = brute_force_amplitudes(m).sum()
        assert abs(a.sign * math.exp(a.log_abs) - total) < 1e-9 * abs(total)


class TestRescaleRows:
    @pytest.mark.parametrize("zero_row", [False, True])
    def test_scales_each_row_by_a_power_of_two_bit_for_bit(self, zero_row):
        # negative entries, subnormals, a 1e300 row and, with zero_row, a
        # row of zeros (signed, so a lost -0.0 shows in the bits)
        m = np.array([[-3.0, 1.5, 0.0, 2.0],
                      [5e-324, -1e-310, 0.0, 2.5e-320],
                      [2.0, -7.0, 1e-300, -0.0],
                      [-1e300, 3e299, -2e-5, 1.0]])
        if zero_row:
            m[1] = [0.0, -0.0, 0.0, 0.0]
        logs = np.array([0.5, -1.0, 2.0, -3.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, got_logs = rescale_rows(m.copy(), logs.copy())
        e = np.rint((got_logs - logs) / math.log(2.0)).astype(int)
        assert np.all(np.abs(got_logs - logs - e * math.log(2.0)) < 1e-12)
        assert np.array_equal(np.ldexp(got, e[:, None]).view(np.int64),
                              m.view(np.int64))
        top = np.abs(got).max(axis=1)
        nonzero = np.abs(m).max(axis=1) > 0.0
        assert np.all((top[nonzero] >= 0.5) & (top[nonzero] < 1.0))
        assert nonzero.all() != zero_row
        if zero_row:
            assert np.array_equal(got[1].view(np.int64),
                                  m[1].view(np.int64))
            assert got_logs[1] == -1.0


class TestLogProb:
    def test_uniform_model(self):
        m = uniform_ttn(4)
        canonicalize(m, 1)
        for c in all_configs(4):
            assert abs(log_probs(m, c)[0] + 4 * math.log(2)) < 1e-12

    def test_single_pattern_prob_one(self):
        m = ttn_from_patterns(np.array([[0, 1, 1, 0]]))
        canonicalize(m, 1)
        assert abs(log_probs(m, [0, 1, 1, 0])[0]) < 1e-12
        assert log_probs(m, [1, 1, 1, 1])[0] == float("-inf")

    def test_probabilities_sum_to_one(self):
        m = build_random(8, 4, seed=8)
        total = np.sum(np.exp(log_probs(m, all_configs(8))))
        assert abs(total - 1.0) < 1e-10

    def test_normalization_n12(self):
        m = build_random(16, 3, seed=9)
        total = np.sum(np.exp(log_probs(m, all_configs(16))))
        assert abs(total - 1.0) < 1e-10


class TestNll:
    def test_ten_stored_patterns_reach_log_ten(self):
        patterns = gen_random_patterns(16, 10, seed=0, distinct=True).samples
        m = ttn_from_patterns(patterns)
        canonicalize(m, 1)
        assert abs(nll(m, patterns) - math.log(10)) < 1e-10

    def test_uniform_model_nll_is_n_log2(self):
        m = uniform_ttn(8)
        canonicalize(m, 1)
        data = gen_random_patterns(8, 5, seed=1).samples
        assert abs(nll(m, data) - 8 * math.log(2)) < 1e-12

    def test_matches_direct_summation_with_enum_z(self):
        m = build_random(8, 4, seed=10)
        data = gen_random_patterns(8, 7, seed=2).samples
        amps = brute_force_amplitudes(m)
        z = np.sum(amps * amps)
        idx = data @ (1 << np.arange(7, -1, -1))
        direct = float(np.mean(-np.log(amps[idx] ** 2 / z)))
        assert abs(nll(m, data) - direct) < 1e-10

    def test_zero_probability_sample_gives_inf(self):
        m = ttn_from_patterns(np.array([[0, 0, 0, 0]]))
        canonicalize(m, 1)
        assert nll(m, np.array([[0, 0, 0, 0], [1, 0, 0, 0]])) == float("inf")

    def test_empty_dataset_rejected(self):
        m = build_random(4, 2, seed=0)
        with pytest.raises(ValueError):
            nll(m, np.zeros((0, 4), dtype=int))


class TestPixelValues:
    # as an index, -1 would read as pixel value 1 and 2 would overrun
    @pytest.mark.parametrize("value", [-1, 2])
    @pytest.mark.parametrize("build", [build_random, mps_build_random])
    def test_values_outside_zero_one_rejected(self, build, value):
        model = build(8, 2, seed=0)
        rows = gen_random_patterns(8, 3, seed=1).samples.astype(np.int64)
        rows[1, 0] = value
        with pytest.raises(ValueError, match="0 or 1"):
            model.log_probs(rows)
        with pytest.raises(ValueError, match="0 or 1"):
            model.log_probs(rows[1])
        with pytest.raises(ValueError, match="0 or 1"):
            nll(model, rows)
        with pytest.raises(ValueError, match="0 or 1"):
            train(model, rows, TrainConfig(d_max=2, epochs=1))

    def test_single_row_and_bool_rows_still_accepted(self):
        model = build_random(8, 2, seed=0)
        rows = gen_random_patterns(8, 3, seed=1).samples
        assert abs(log_probs(model, rows[0])[0]
                   - log_probs(model, rows)[0]) < 1e-12
        assert np.array_equal(log_probs(model, rows.astype(bool)),
                              log_probs(model, rows))

    @pytest.mark.parametrize("dtype, bad, shown", [
        (np.int64, -1, "-1"), (np.int8, 2, "2"), (np.uint8, 7, "7"),
        (np.float64, 0.5, "0.5")])
    def test_first_bad_value_is_named(self, dtype, bad, shown):
        rows = np.zeros((4, 8), dtype=dtype)
        rows[2, 5], rows[3, 1] = bad, 3 * bad   # the first bad one is named
        with pytest.raises(ValueError) as err:
            sample_matrix(rows, 8)
        assert str(err.value) == f"pixel values must be 0 or 1, got {shown}"

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64,
                                       np.float64])
    def test_zero_one_rows_pass_unchanged(self, dtype):
        # as uint8, and uint8 rows as they are, not copied
        rows = gen_random_patterns(8, 5, seed=9).samples.astype(dtype)
        got = sample_matrix(rows, 8)
        assert got.dtype == np.uint8 and np.array_equal(got, rows)
        assert (got is rows) == (dtype is np.uint8)


class TestMarginal:
    def test_uniform_model_half_half(self):
        m = uniform_ttn(8)
        canonicalize(m, 1)
        p0, p1 = marginal(m, {}, 3)
        assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12

    def test_single_pattern_deterministic(self):
        pattern = [0, 1, 1, 0, 1, 0, 0, 1]
        m = ttn_from_patterns(np.array([pattern]))
        canonicalize(m, 1)
        for k in (2, 5):
            p0, p1 = marginal(m, {0: 0, 1: 1}, k)
            assert abs((p0, p1)[pattern[k]] - 1.0) < 1e-12

    def test_matches_enumeration_with_three_fixed(self):
        m = build_random(8, 4, seed=11)
        p = np.exp(log_probs(m, all_configs(8)))
        configs = all_configs(8)
        fixed = {0: 1, 3: 0, 6: 1}
        mask = np.ones(256, dtype=bool)
        for k, v in fixed.items():
            mask &= configs[:, k] == v
        for open_pixel in (1, 4, 7):
            p0, p1 = marginal(m, fixed, open_pixel)
            sub = p[mask]
            m1 = configs[mask, open_pixel] == 1
            expect1 = sub[m1].sum() / sub.sum()
            assert abs(p1 - expect1) < 1e-10
            assert abs(p0 + p1 - 1.0) < 1e-12

    def test_open_pixel_already_fixed_rejected(self):
        m = build_random(8, 2, seed=0)
        with pytest.raises(ValueError):
            marginal(m, {3: 1}, 3)

    def test_degenerate_conditional_raises(self):
        m = ttn_from_patterns(np.array([[0, 0, 0, 0]]))
        canonicalize(m, 1)
        with pytest.raises(DegenerateDistributionError):
            marginal(m, {0: 1}, 2)

    def test_chain_rule_product_equals_log_prob(self):
        m = build_random(8, 4, seed=12)
        sample = [1, 0, 1, 1, 0, 0, 1, 0]
        total = 0.0
        fixed = {}
        for k in range(8):
            pv = marginal(m, fixed, k)[sample[k]]
            total += math.log(pv)
            fixed[k] = sample[k]
        assert abs(total - log_probs(m, sample)[0]) < 1e-10


class TestCorrelation:
    def test_uniform_model_uncorrelated(self):
        m = uniform_ttn(8)
        canonicalize(m, 1)
        assert abs(correlation(m, 1, 6)) < 1e-12

    def test_two_opposite_patterns_fully_correlated(self):
        m = ttn_from_patterns(np.array([[0] * 8, [1] * 8]))
        canonicalize(m, 1)
        for i, j in ((0, 7), (2, 5)):
            assert abs(correlation(m, i, j) - 1.0) < 1e-12

    def test_matches_enumeration(self):
        m = build_random(8, 4, seed=13)
        p = np.exp(log_probs(m, all_configs(8)))
        s = 2.0 * all_configs(8) - 1.0
        for i, j in ((0, 1), (2, 7), (3, 4)):
            expect = float(p @ (s[:, i] * s[:, j])
                           - (p @ s[:, i]) * (p @ s[:, j]))
            assert abs(correlation(m, i, j) - expect) < 1e-10

    def test_same_pixel_rejected(self):
        m = build_random(8, 2, seed=0)
        with pytest.raises(ValueError):
            correlation(m, 3, 3)

    def test_map_agrees_with_pairwise(self):
        m = build_random(8, 3, seed=14)
        cmap = correlation_map(m, 2)
        for j in (0, 4, 7):
            assert abs(cmap[j] - correlation(m, 2, j)) < 1e-12


_CONFIGS16 = all_configs(16)


@pytest.fixture(scope="module")
def uneven():
    return uneven_ttn()


def _enumerated(model, fixed):
    """(mass of the clamped set, (n, 2) conditional marginals given it)."""
    p = brute_force_amplitudes(model) ** 2
    p = p / p.sum()
    mask = np.ones(len(p), dtype=bool)
    for k, v in fixed.items():
        mask &= _CONFIGS16[:, k] == v
    mass = float(p[mask].sum())
    p1 = p[mask] @ _CONFIGS16[mask] / mass
    return mass, np.stack([1.0 - p1, p1], axis=1)


def _model_state(model):
    return (model.canonical_center, [id(t) for t in model.tensors[1:]],
            [(t.data.tobytes(), t.log_scale) for t in model.tensors[1:]])


class TestMarginalsByEnumeration:
    """Every pixel's conditional marginals on a 16-pixel tree with uneven
    bonds, against the full enumerated distribution."""

    CLAMPS = [
        {},
        {3: 1},
        {2: 0, 13: 1},                 # both halves of the root cut
        {4: 1, 5: 0},                  # both pixels of one leaf
        {0: 0, 6: 1, 7: 0, 9: 1, 14: 0},
    ]

    @pytest.mark.parametrize("center", [15, 6, 2, 1])
    def test_every_center(self, uneven, center):
        model = uneven.copy()
        canonicalize(model, center)
        for fixed in self.CLAMPS:
            _, want = _enumerated(model, fixed)
            got = single_site_marginals(model, fixed)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_model_without_canonical_center(self):
        patterns = gen_random_patterns(16, 5, seed=3).samples
        model = ttn_from_patterns(patterns)
        before = _model_state(model)
        for fixed in ({}, {int(k): int(patterns[1, k]) for k in (0, 1, 9)}):
            _, want = _enumerated(model, fixed)
            assert np.max(np.abs(single_site_marginals(model, fixed)
                                 - want)) < 1e-12
        assert _model_state(model) == before

    def test_correlation_map_matches_enumeration(self, uneven):
        model = uneven.copy()
        canonicalize(model, 12)
        p = brute_force_amplitudes(model) ** 2
        p = p / p.sum()
        s = 2.0 * _CONFIGS16 - 1.0
        for ref in (0, 5, 10):
            want = p @ (s * s[:, ref:ref + 1]) - (p @ s[:, ref]) * (p @ s)
            assert np.max(np.abs(correlation_map(model, ref) - want)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.dictionaries(st.integers(0, 15), st.integers(0, 1),
                                    max_size=8),
                    min_size=1, max_size=3))
    def test_stacked_random_clamps(self, uneven, branches):
        wants = []
        for fixed in branches:
            mass, want = _enumerated(uneven, fixed)
            assume(mass > 1e-6)
            wants.append(want)
        got = _doubled_marginals(uneven._marginal_view(), branches)
        assert got.shape == (len(branches), 16, 2)
        assert np.max(np.abs(got - np.array(wants))) < 1e-9

    @pytest.mark.parametrize("fixed", [{16: 0}, {-1: 1}, {3: 2}])
    def test_bad_clamp_rejected(self, uneven, fixed):
        chain = mps_build_random(16, 3, seed=0)
        for model, marginals, marginal_of in (
                (uneven, single_site_marginals, marginal),
                (chain, mps_single_site_marginals, marginal)):
            with pytest.raises(ValueError):
                marginals(model, fixed)
            with pytest.raises(ValueError):
                marginal_of(model, fixed, 5)

    def test_bad_reference_pixel_rejected(self, uneven):
        chain = mps_build_random(16, 3, seed=0)
        for model, cmap, corr, marginal_of in (
                (uneven, correlation_map, correlation, marginal),
                (chain, mps_correlation_map, correlation, marginal)):
            for pixel in (16, -1):
                with pytest.raises(ValueError):
                    cmap(model, pixel)
                with pytest.raises(ValueError):
                    corr(model, 3, pixel)
                with pytest.raises(ValueError):
                    corr(model, pixel, 3)
                with pytest.raises(ValueError):
                    marginal_of(model, {}, pixel)

    def test_evaluation_leaves_the_model_untouched(self, uneven):
        model = uneven.copy()
        canonicalize(model, 6)
        before = _model_state(model)
        sample_batch(model, 5, seed=0)
        single_site_marginals(model, {3: 1})
        correlation_map(model, 7)
        assert _model_state(model) == before


class TestClampValues:
    """A clamp value is any value equal to 0 or 1, as a row of log_probs
    is; a pixel index is an integer, never a bool."""

    @pytest.fixture(params=["ttn", "mps"])
    def model(self, request, uneven):
        return uneven if request.param == "ttn" else mps_build_random(
            16, 3, seed=0)

    @pytest.mark.parametrize("value", [True, False, 1.0, 0.0, np.float64(1.0),
                                       np.bool_(True), np.int8(0)])
    def test_any_zero_or_one_clamps_like_the_int(self, model, value):
        v = int(value)
        want = single_site_marginals(model, {3: v})
        assert np.array_equal(want[3], np.eye(2)[v])
        assert np.array_equal(single_site_marginals(model, {3: value}), want)
        assert np.array_equal(_doubled_marginals(
            model._marginal_view(), [{3: value}, {}])[0], want)
        assert marginal(model, {3: value}, 5) == tuple(want[5])

    @pytest.mark.parametrize("value", [0.5, 2.0, -1, "1", None])
    def test_other_values_rejected(self, model, value):
        with pytest.raises(ValueError):
            single_site_marginals(model, {3: value})

    def test_bool_pixel_index_rejected(self, model):
        for pixel in (True, False):
            with pytest.raises(ValueError):
                correlation_map(model, pixel)
            with pytest.raises(ValueError):
                marginal(model, {}, pixel)
            with pytest.raises(ValueError):
                marginal(model, {1: 0}, pixel)
            with pytest.raises(ValueError):
                single_site_marginals(model, {pixel: 1})
            with pytest.raises(ValueError):
                _doubled_marginals(model._marginal_view(), [{}, {pixel: 0}])


def _enumerated_map(amps, ref):
    """Connected correlations of pixel ``ref`` from a full amplitude table."""
    configs = all_configs(int(np.log2(len(amps))))
    p = amps ** 2 / np.sum(amps ** 2)
    s = 2.0 * configs - 1.0
    return p @ (s * s[:, ref:ref + 1]) - (p @ s[:, ref]) * (p @ s)


class TestCorrelationMapOneBranch:
    """A map clamps the reference pixel only to its likelier value; the
    corner cases of that choice, on both models, against enumeration."""

    # pixels 1 and 4 always 1, pixel 3 always 0; pixel 0 is 1 in half the
    # patterns, pixel 5 copies it
    PATTERNS = np.array([[0, 1, 1, 0, 1, 0, 0, 1],
                         [1, 1, 0, 0, 1, 1, 0, 1],
                         [0, 1, 0, 0, 1, 0, 1, 1],
                         [1, 1, 1, 0, 1, 1, 1, 0]])

    @pytest.mark.parametrize("kind", ["ttn", "mps"])
    @pytest.mark.parametrize("center", [None, 2, 7])
    def test_deterministic_and_even_reference_pixels(self, kind, center):
        if kind == "ttn":
            model, amps_of = ttn_from_patterns(self.PATTERNS), \
                brute_force_amplitudes
            marginals, cmap = single_site_marginals, correlation_map
        else:
            model, amps_of = mps_from_patterns(self.PATTERNS), \
                mps_state_vector
            marginals, cmap = mps_single_site_marginals, mps_correlation_map
        if center is not None:
            canonicalize(model, center)
        base = marginals(model)
        assert base[0, 1] == 0.5                       # a tie: p = 1/2
        assert base[1, 0] == 0.0 and base[3, 1] == 0.0  # deterministic
        amps = amps_of(model)
        for ref in (0, 1, 3, 5):
            got = cmap(model, ref)
            assert np.max(np.abs(got - _enumerated_map(amps, ref))) < 1e-12
        assert np.all(cmap(model, 1) == 0.0)
        assert abs(cmap(model, 0)[5] - 1.0) < 1e-12

    def test_one_rooting_one_block_build_two_passes(self, monkeypatch):
        import ttnborn.born as born
        import ttnborn.ttn as ttn_module
        model = random_uneven_ttn(16, seed=31)
        canonicalize(model, model.n_tensors)            # a leaf
        calls = {}
        for module, name in ((born, "canonicalize"),
                             (ttn_module, "_group_blocks"),
                             (born, "_doubled_marginals")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        correlation_map(model, 6)
        assert calls == {"canonicalize": 1, "_group_blocks": 1,
                         "_doubled_marginals": 2}


def _random_chain(n_sites, seed):
    """Random chain, not canonicalized, with each bond drawn from 1 to 4
    (capped by what either side can carry)."""
    rng = np.random.default_rng(seed)
    dims = [1] + [int(rng.integers(1, min(4, 2 ** i, 2 ** (n_sites - i)) + 1))
                  for i in range(1, n_sites)] + [1]
    return MpsModel([DenseTensor(rng.uniform(-1, 1, (dl, 2, dr)))
                     for dl, dr in zip(dims[:-1], dims[1:])], d_max=4)


def _small_models():
    """(id, build, amplitude table of a model): odd chains, whose last pair
    node has one site, and the smallest trees, each with a center of every
    kind (none, the first tensor, a middle one, the last)."""
    for n in (3, 5, 7):
        for center in (None, 0, n // 2, n - 1):
            yield f"mps-{n}-{center}", lambda n=n, c=center: (
                _random_chain(n, seed=n), c), mps_state_vector
    for n in (4, 8):
        for center in (None, 1, n // 2 - 1, n - 1):
            yield f"ttn-{n}-{center}", lambda n=n, c=center: (
                random_uneven_ttn(n, seed=n), c), brute_force_amplitudes


_SMALL_MODELS = {name: (build, amps) for name, build, amps in _small_models()}


class TestDoubledPassOnSmallModels:
    """The one doubled marginal pass on the node tables no other test
    reaches, against enumeration: stacks of up to 3 clamp branches, and
    every map."""

    @pytest.fixture(params=sorted(_SMALL_MODELS))
    def small(self, request):
        build, amps_of = _SMALL_MODELS[request.param]
        model, center = build()
        if center is not None:
            canonicalize(model, center)
        return model, amps_of(model)

    def test_marginal_stacks(self, small):
        model, amps = small
        n = model.n_sites
        configs = all_configs(n)
        p = amps ** 2 / np.sum(amps ** 2)

        def enumerated(fixed):
            mask = np.all(configs[:, list(fixed)] == list(fixed.values()),
                          axis=1)
            p1 = p[mask] @ configs[mask] / p[mask].sum()
            return np.stack([1.0 - p1, p1], axis=1)

        for branches in ([{}], [{n - 1: 1}], [{}, {0: 1}, {n - 1: 0, 1: 1}],
                         [{n // 2: 0, n - 1: 1}, {0: 0, 1: 1, 2: 0}]):
            got = _doubled_marginals(model._marginal_view(), branches)
            want = np.array([enumerated(fixed) for fixed in branches])
            assert np.max(np.abs(got - want)) < 1e-12

    def test_correlation_maps(self, small):
        model, amps = small
        for ref in range(model.n_sites):
            got = correlation_map(model, ref)
            assert np.max(np.abs(got - _enumerated_map(amps, ref))) < 1e-12


_GROUP_MODELS = {"random-4": lambda: random_uneven_ttn(4, seed=4),
                 "random-8": lambda: random_uneven_ttn(8, seed=8),
                 "random-16": lambda: random_uneven_ttn(16, seed=16),
                 "trained-16": uneven_ttn}


@pytest.fixture(scope="module", params=sorted(_GROUP_MODELS))
def group_model(request):
    """A tree of 4, 8 or 16 pixels, canonical away from the root; beyond 4
    pixels its group roots fall into more than one shape class."""
    model = _GROUP_MODELS[request.param]()
    canonicalize(model, model.n_tensors)
    return model


class TestGroupView:
    """Evaluation, marginals and correlations read each 4-pixel subtree as
    one (16, D) block; every read must equal the enumerated distribution."""

    def test_group_roots_span_several_shape_classes(self, group_model):
        roots = range(group_model.n_sites // 4, group_model.n_sites // 2)
        shapes = {_node_data(group_model, g).shape for g in roots}
        assert group_model.n_sites == 4 or len(shapes) > 1

    def test_log_probs_and_amplitudes(self, group_model):
        model = group_model
        n = model.n_sites
        configs = all_configs(n)
        amps = brute_force_amplitudes(model)
        p = amps ** 2 / np.sum(amps ** 2)
        got = log_probs(model, configs)
        assert np.max(np.abs(np.exp(got) - p)) < 1e-15
        # the oracle's own rounding grows as p shrinks
        big = p > 1e-9
        assert np.max(np.abs(got[big] / np.log(p[big]) - 1.0)) < 1e-12
        vectors = np.random.default_rng(n).uniform(-1, 1, (3, n, 2))
        vectors = np.concatenate([vectors, np.ones((1, n, 2))])
        # sum over x of Psi(x) prod_k v_k(x_k)
        weights = np.prod(vectors[:, np.arange(n), configs], axis=2)
        want = weights @ amps
        log_abs, sign = amplitudes_from_vectors(model, vectors)
        got = sign * np.exp(log_abs)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10

    def test_marginals_and_correlations(self, group_model):
        model = group_model
        n = model.n_sites
        configs = all_configs(n)
        p = brute_force_amplitudes(model) ** 2
        p = p / p.sum()
        clamps = [{}, {1: 1}, {0: 0, n - 1: 1}, {k: k % 2 for k in range(3)}]
        wants = []
        for fixed in clamps:
            mask = np.ones(len(p), dtype=bool)
            for k, v in fixed.items():
                mask &= configs[:, k] == v
            p1 = p[mask] @ configs[mask] / p[mask].sum()
            wants.append(np.stack([1.0 - p1, p1], axis=1))
            got = single_site_marginals(model, fixed)
            assert np.max(np.abs(got - wants[-1])) < 1e-12
        assert np.max(np.abs(_doubled_marginals(model._marginal_view(), clamps)
                             - np.array(wants))) < 1e-12
        s = 2.0 * configs - 1.0
        for ref in (0, n // 2 + 1, n - 1):
            want = p @ (s * s[:, ref:ref + 1]) - (p @ s[:, ref]) * (p @ s)
            assert np.max(np.abs(correlation_map(model, ref) - want)) < 1e-12


_OCTET_MODELS = {"random-8": lambda: random_uneven_ttn(8, seed=8),
                 "random-16": lambda: random_uneven_ttn(16, seed=17),
                 "random-64": lambda: random_uneven_ttn(64, seed=64),
                 "random-1024": lambda: random_uneven_ttn(1024, seed=1024)}


def _both_sides(monkeypatch, model, rows):
    """log_probs of ``rows`` below the octet size rule and above it, each
    checked to build the octet tables (heap level n/8) only above it."""
    import ttnborn.ttn as ttn_module
    built, sides = count_lifts(monkeypatch), []
    for margin in (math.inf, 0.0):
        monkeypatch.setattr(ttn_module, "_OCTET_MARGIN", margin)
        built.clear()
        sides.append(log_probs(model, rows))
        assert built.count(model.n_sites // 8) == (
            margin == 0.0 and model.n_sites >= 8)
    return sides


class TestOctetTables:
    """Above the size rule evaluation gathers each 8-pixel subtree's row
    from one (256, D) table; below it, it contracts the octet level from the
    group tables.  Both sides give the same log p."""

    @pytest.mark.parametrize("name", sorted(_OCTET_MODELS))
    def test_both_sides_of_the_size_rule_agree(self, monkeypatch, name):
        model = _OCTET_MODELS[name]()
        n = model.n_sites
        canonicalize(model, n // 2 + 3)
        octets = {_node_data(model, k).shape for k in range(n // 8, n // 4)}
        assert n == 8 or len(octets) > 1
        rows = (all_configs(n) if n <= 16
                else gen_random_patterns(n, 300, seed=n).samples)
        below, above = _both_sides(monkeypatch, model, rows)
        assert np.all(np.abs(above - below) <= 1e-13 * np.abs(below))
        if n <= 16:
            p = brute_force_amplitudes(model) ** 2
            assert np.max(np.abs(np.exp(above) - p / p.sum())) < 1e-15

    def test_four_pixels_have_no_octet(self, monkeypatch):
        model = random_uneven_ttn(4, seed=4)
        canonicalize(model, 3)
        below, above = _both_sides(monkeypatch, model, all_configs(4))
        assert np.array_equal(above, below)
        p = brute_force_amplitudes(model) ** 2
        assert np.max(np.abs(np.exp(above) - p / p.sum())) < 1e-15

    def test_rows_far_below_the_float_range(self, monkeypatch):
        # independent pixels, each 1 with probability 0.01: the all-ones
        # row has p = 1e-2048
        model = sharp_product_ttn(1024, 0.01)
        rows = gen_random_patterns(1024, 40, seed=9).samples
        rows[:3] = 1
        rows[3] = 0
        below, above = _both_sides(monkeypatch, model, rows)
        ones = rows.sum(axis=1)
        want = ones * math.log(0.01) + (1024 - ones) * math.log(0.99)
        assert above[0] < -4700.0
        for side in (below, above):
            assert np.all(np.abs(side - want) <= 1e-13 * np.abs(want))


def _row_set(kind, n, count, seed):
    """``count`` rows of n pixels: copies of one row, noisy copies of four
    base rows (2% of pixels flipped), distinct random rows or one row."""
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        rows = (all_configs(n)[rng.permutation(2 ** n)[:count]] if n <= 16
                else rng.integers(0, 2, (count, n)))
        assert len(np.unique(rows, axis=0)) == count
        return rows
    base = rng.integers(0, 2, (4, n))
    if kind == "one":
        return base[:1]
    if kind == "identical":
        return np.repeat(base[:1], count, axis=0)
    rows = base[rng.integers(4, size=count)]
    return rows ^ (rng.random(rows.shape) < 0.02)


def _per_row_log_probs(model, rows):
    """log p of each row from the per-row contraction of one-hot vectors,
    which labels no pattern."""
    log_abs, sign = amplitudes_from_vectors(model, np.eye(2)[rows])
    return np.where(sign != 0, 2.0 * log_abs - partition_function(model),
                    -np.inf)


class TestDistinctPatterns:
    """Evaluation contracts each node above the tables once per distinct
    row pattern of its subtree, as long as the patterns repeat; every row
    gets the log p of its own per-row contraction."""

    @pytest.mark.parametrize("kind", ["identical", "noisy", "distinct",
                                      "one", "noisy-1-row-chunks"])
    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_agrees_with_the_per_row_contraction(self, monkeypatch, n, kind):
        import ttnborn.born as born
        model = _OCTET_MODELS[f"random-{n}"]()
        canonicalize(model, n // 2 + 3)
        if kind.endswith("chunks"):
            monkeypatch.setattr(born, "_chunk_rows", lambda m, c: 1)
        rows = _row_set(kind.split("-")[0], n, 40 if kind.endswith("chunks")
                        else 300 if n > 8 else 200, seed=n)
        want = _per_row_log_probs(model, rows)
        for side in _both_sides(monkeypatch, model, rows):
            assert np.all(np.abs(side - want) <= 1e-13 * np.abs(want))
            if n <= 16:
                p = brute_force_amplitudes(model) ** 2
                p = p[config_indices(rows)] / p.sum()
                assert np.max(np.abs(np.exp(side) - p)) < 1e-15

    def test_copies_contract_one_row_per_node(self, monkeypatch):
        import ttnborn.ttn as ttn_module
        model = build_random(1024, 16, seed=5)
        canonicalize(model, model.n_tensors)
        row = gen_random_patterns(1024, 1, seed=6).samples
        single = log_probs(model, row)
        contract, rows = ttn_module.contract_node, []

        def counted(t, parts, out=None):
            rows.append(len(parts[0][0]))
            return contract(t, parts, out)
        monkeypatch.setattr(ttn_module, "contract_node", counted)
        got = log_probs(model, np.repeat(row, 100, axis=0))
        # no octet tables, so every node above the 256 group roots
        assert rows == [1] * 255
        assert np.all(got == single)

    def test_copies_build_no_octet_table(self, monkeypatch):
        model = build_random(128, 16, seed=3)
        canonicalize(model, model.n_tensors)
        rows = gen_random_patterns(128, 300, seed=4).samples
        built = count_lifts(monkeypatch)
        log_probs(model, np.repeat(rows[:1], 300, axis=0))
        assert built == [128 // 4]
        built.clear()
        log_probs(model, rows)
        assert built == [128 // 4, 128 // 8]


class TestEvaluationMemory:
    """log_probs holds one (S, D) message per live node, an (S, G) group
    index and two levels' pattern labels, never an (S, n, 2) one-hot or
    (S, G, 16) weights, with S at most one chunk of rows (10,000 rows at
    once peaked at 208 MiB)."""

    @pytest.mark.parametrize("n,rows,limit_mib", [(1024, 250, 13),
                                                  (128, 2000, 17),
                                                  (1024, 10_000, 32)])
    def test_peak_stays_bounded(self, n, rows, limit_mib):
        model = build_random(n, 16, seed=57)
        canonicalize(model, model.n_tensors)
        samples = gen_random_patterns(n, rows, seed=58).samples
        tracemalloc.start()
        try:
            log_probs(model, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2 ** 20

    def test_octet_tables_at_d32_stay_bounded(self):
        # 200 rows pay for the 128 octet tables, 8 MiB at D=32; measured
        # peak 11.1 MiB (2.9 MiB on the octet level's contraction)
        model = build_random(1024, 32, seed=57)
        canonicalize(model, model.n_tensors)
        samples = gen_random_patterns(1024, 200, seed=58).samples
        tracemalloc.start()
        try:
            log_probs(model, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2 ** 20

    def test_noisy_digit_copies_at_d32_stay_bounded(self):
        # 10,000 noisy copies of the 20 fixture digits in hierarchical-2d
        # order, whose subtree patterns repeat
        raw = load_binarized_text(DIGITS)
        rng = np.random.default_rng(59)
        noisy = raw.samples[rng.integers(raw.n_samples, size=10_000)]
        noisy ^= (rng.random(noisy.shape) < 0.02).astype(np.uint8)
        samples = apply_ordering(
            BinaryDataset(noisy, raw.image_shape),
            make_ordering("hierarchical-2d", raw.image_shape))
        model = build_random(1024, 32, seed=57)
        canonicalize(model, model.n_tensors)
        tracemalloc.start()
        try:
            log_probs(model, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestMarginalsAtScale:
    @pytest.mark.parametrize("kind", ["random", "sharp", "mps-random",
                                      "mps-sharp"])
    def test_heavy_clamping_stays_exact(self, kind):
        # every pixel but one clamped to a held-out row: the marginal is the
        # ratio of the two completions' probabilities.  In the sharp model
        # the clamped row has probability ~1e-2000, far below the float range.
        chain = kind.startswith("mps-")
        if kind.endswith("random"):
            build = mps_build_random if chain else build_random
            model = build(1024, 6, seed=21)
            canonicalize(model, 700)
            row = gen_random_patterns(1024, 1, seed=22).samples[0]
        else:
            model = (sharp_product_mps if chain else sharp_product_ttn)(1024,
                                                                        0.01)
            row = np.ones(1024)
        row = row.astype(int)
        for open_pixel in (0, 513, 1023):
            fixed = {k: int(v) for k, v in enumerate(row) if k != open_pixel}
            completions = np.repeat(row[None], 2, axis=0)
            completions[:, open_pixel] = (0, 1)
            lp0, lp1 = model.log_probs(completions)
            assert lp0 < -500.0
            _, p1 = marginal(model, fixed, open_pixel)
            assert abs(p1 - 1.0 / (1.0 + math.exp(lp0 - lp1))) < 1e-10

    def test_correlation_map_mirrors_the_benchmark_check(self):
        data = gen_random_patterns(64, 30, seed=24).samples
        for build, marginals in ((build_random, single_site_marginals),
                                 (mps_build_random,
                                  mps_single_site_marginals)):
            model, _ = train(build(64, 6, seed=23), data,
                             TrainConfig(d_max=6, epochs=2))
            means = marginals(model) @ np.array([-1.0, 1.0])
            for ref in (0, 21, 42, 63):
                cmap = correlation_map(model, ref)
                assert cmap[ref] == 1.0 - means[ref] ** 2
                assert np.all(np.isfinite(cmap))
                assert np.all(np.abs(cmap) <= 1.0 + 1e-9)


class TestGaugeAndCapacity:
    def test_gauge_invariance_across_centers(self):
        m = build_random(8, 4, seed=15)
        configs = all_configs(8)
        base = log_probs(m, configs)
        for center in (2, 7, 4, 1):
            canonicalize(m, center)
            assert np.max(np.abs(log_probs(m, configs) - base)) < 1e-10

    def test_single_site_marginals_rows_normalized(self):
        m = build_random(8, 4, seed=16)
        rows = single_site_marginals(m)
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-12

    def test_entropy_capacity_bound(self):
        # D+1 distinct patterns with perfectly correlated halves need more
        # than ln D of mutual information across the root cut, so a D-capped
        # model cannot reach the ln(D+1) floor
        blocks = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0]])
        patterns = np.concatenate([blocks, blocks], axis=1)
        best = float("inf")
        for seed in range(2):
            model = build_random(8, 2, seed=seed)
            cfg = TrainConfig(learning_rate=0.1, d_max=2, scheme="two-site",
                              epochs=120, seed=0)
            model, stats = train(model, patterns, cfg)
            best = min(best, min(stats.nll))
        assert best - math.log(3) > 0.01
