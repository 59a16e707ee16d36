import itertools
import math

import numpy as np
import pytest

from ttnborn import DenseTensor, qr_split, svd_split
from ttnborn.tensor import frobenius_norm
from ttnborn.errors import DimensionError


class TestConstructorScale:
    def test_log_scale_is_folded_into_the_data(self, rng):
        x = rng.standard_normal((3, 2, 4))
        for s in (7.5, -300.0, 0.0):
            t = DenseTensor(x, s)
            assert np.array_equal(t.data, DenseTensor(x * np.exp(s)).data)
            assert t.log_scale == 0.0
        assert DenseTensor(x, 0.0).data is x     # no copy without a scale

    def test_scale_past_the_float_range_raises(self):
        x = np.full((2, 2), 1e100)
        for s in (600.0, 800.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                DenseTensor(x, s)
        with pytest.raises(ValueError):   # even unvalidated
            DenseTensor(x, 800.0, validate=False)
        assert np.all(DenseTensor(x, -800.0).data == 0.0)


class TestQrSplit:
    def test_identity(self):
        q, r = qr_split(DenseTensor(np.eye(2)), [0], [1])
        assert np.allclose(np.abs(q), np.eye(2))
        assert np.allclose(np.abs(np.diag(r.reshape(2, 2))), 1.0)

    def test_rank_one(self):
        t = DenseTensor(np.array([[2.0, 0.0], [0.0, 0.0]]))
        q, r = qr_split(t, [0], [1])
        assert np.allclose(np.abs(q[:, 0]), [1, 0])
        assert abs(abs(r[0, 0]) - 2.0) < 1e-12

    def test_random_reconstruction_and_orthonormality(self, rng):
        t = rng.standard_normal((4, 3, 2))
        q, r = qr_split(DenseTensor(t), [0, 1], [2])
        m = q.reshape(12, 2)
        assert np.max(np.abs(m.T @ m - np.eye(2))) < 1e-12
        recon = np.einsum('abk,kc->abc', q, r)
        assert np.max(np.abs(recon - t)) / np.linalg.norm(t) < 1e-12

    def test_r_diagonal_nonnegative(self, rng):
        for _ in range(20):
            t = rng.standard_normal((5, 4))
            _, r = qr_split(DenseTensor(t), [0], [1])
            assert np.all(np.diag(r) >= 0)

    def test_invalid_partition_raises(self):
        with pytest.raises(DimensionError):
            qr_split(DenseTensor(np.zeros((2, 2, 2))), [0], [1])

    def test_thousand_random_reconstructions(self, rng):
        for _ in range(1000):
            ndim = rng.integers(2, 4)
            shape = tuple(rng.integers(1, 7) for _ in range(ndim))
            t = rng.standard_normal(shape)
            axes = list(rng.permutation(ndim))
            cut = int(rng.integers(1, ndim))
            rows, cols = sorted(axes[:cut]), sorted(axes[cut:])
            q, r = qr_split(DenseTensor(t), rows, cols)
            k = q.shape[-1]
            recon = np.tensordot(q, r, axes=([len(rows)], [0]))
            expect = np.transpose(t, rows + cols)
            denom = max(np.linalg.norm(t), 1e-300)
            assert np.max(np.abs(recon - expect)) / denom < 1e-12


class TestSvdSplit:
    def test_diag_full_rank(self):
        res = svd_split(DenseTensor(np.diag([3.0, 1.0])), [0], [1], d_max=2,
                        cutoff=0.0)
        assert np.allclose(res.s, [3.0, 1.0])
        assert res.truncation_error == 0.0

    def test_diag_truncated_error_is_ratio(self):
        res = svd_split(DenseTensor(np.diag([3.0, 1.0])), [0], [1], d_max=1,
                        cutoff=0.0)
        assert np.allclose(res.s, [3.0])
        assert abs(res.truncation_error - 0.1) < 1e-15

    def test_random_full_rank_reconstructs(self, rng):
        t = rng.standard_normal((6, 6))
        res = svd_split(DenseTensor(t), [0], [1], d_max=6, cutoff=0.0)
        recon = (res.u.data * np.asarray(res.s)) @ res.v.data.T
        assert np.max(np.abs(recon - t)) / np.linalg.norm(t) < 1e-12

    def test_orthonormal_factors(self, rng):
        t = rng.standard_normal((4, 3, 5))
        res = svd_split(DenseTensor(t), [0, 1], [2], d_max=3, cutoff=0.0)
        u = res.u.data.reshape(-1, len(res.s))
        v = res.v.data.reshape(-1, len(res.s))
        assert np.max(np.abs(u.T @ u - np.eye(len(res.s)))) < 1e-12
        assert np.max(np.abs(v.T @ v - np.eye(len(res.s)))) < 1e-12

    def test_all_zero_tensor(self):
        res = svd_split(DenseTensor(np.zeros((3, 4))), [0], [1], d_max=2)
        assert res.s == [0.0]
        assert res.truncation_error == 0.0
        assert res.u.shape == (3, 1) and res.v.shape == (4, 1)

    def test_descending_and_nonnegative(self, rng):
        t = rng.standard_normal((5, 7))
        res = svd_split(DenseTensor(t), [0], [1], d_max=5, cutoff=0.0)
        s = np.asarray(res.s)
        assert np.all(s >= 0) and np.all(np.diff(s) <= 0)

    def test_cutoff_drops_small_values(self):
        t = np.diag([1.0, 1e-9])
        res = svd_split(DenseTensor(t), [0], [1], d_max=2, cutoff=1e-12)
        assert len(res.s) == 1

    def test_invalid_partition_raises(self):
        with pytest.raises(DimensionError):
            svd_split(DenseTensor(np.zeros((2, 2))), [0], [0], 1)


class TestFrobeniusNorm:
    def test_identity(self):
        assert abs(frobenius_norm(DenseTensor(np.eye(2))) - math.log(math.sqrt(2))) < 1e-15

    def test_three_four_five(self):
        assert abs(frobenius_norm(DenseTensor(np.array([3.0, 4.0]))) - math.log(5)) < 1e-15

    def test_zero_tensor_sentinel(self):
        assert frobenius_norm(DenseTensor(np.zeros((2, 2)))) == float("-inf")

    def test_square_past_the_float_range(self):
        # the sum of squares overflows; the norm itself, 2e200, does not
        got = frobenius_norm(DenseTensor(np.full((2, 2), 1e200)))
        assert abs(got - math.log(2e200)) < 1e-12

    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
    def test_square_below_the_float_range(self, scale):
        # the sum of squares underflows, to subnormals or to zero
        got = frobenius_norm(DenseTensor(np.array([3.0, 4.0]) * scale))
        want = math.log(5.0 * scale)
        assert abs(got - want) <= 1e-15 * abs(want)

    def test_random_matches_loop_sum(self, rng):
        t = rng.standard_normal((3, 4, 2))
        total = 0.0
        for idx in itertools.product(*(range(s) for s in t.shape)):
            total += t[idx] ** 2
        got = frobenius_norm(DenseTensor(t, 2.5))
        assert abs(got - (0.5 * math.log(total) + 2.5)) < 1e-12


class TestAlgebraicProperties:
    def test_svd_identity_roundtrip_on_random_tensors(self, rng):
        for _ in range(50):
            t = rng.standard_normal((4, 6))
            res = svd_split(DenseTensor(t), [0], [1], d_max=6, cutoff=0.0)
            recon = (res.u.data * np.asarray(res.s)) @ res.v.data.T
            assert np.max(np.abs(recon - t)) / np.linalg.norm(t) < 1e-12


def _sign_fix_by_loop(u, vt):
    """The per-column reference: flip a column whose first largest-magnitude
    entry is negative."""
    u, vt = u.copy(), vt.copy()
    for col in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, col])))
        if u[i, col] < 0:
            u[:, col] = -u[:, col]
            vt[col, :] = -vt[col, :]
    return u, vt


class TestSvdKernels:
    def test_sign_fix_matches_the_column_loop_bit_for_bit(self, rng):
        from ttnborn.tensor import svd_sign_fix
        u = rng.standard_normal((9, 6))
        vt = rng.standard_normal((6, 11))
        # tied magnitudes: the first of the tied entries decides
        u[:, 1] = [0.5, -0.5, 0.1, 0, 0, 0, 0, 0, 0]
        u[:, 2] = [-0.5, 0.5, 0.1, 0, 0, 0, 0, 0, 0]
        u[:, 3] = [0.0, -0.0, 0, 0, 0, 0, 0, 0, 0]
        u[:, 4] = [0.1, -0.7, 0.2, 0.7, 0, 0, 0, 0, 0]
        ref_u, ref_vt = _sign_fix_by_loop(u, vt)
        got_u, got_vt = svd_sign_fix(u.copy(), vt.copy())
        for got, ref in ((got_u, ref_u), (got_vt, ref_vt)):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(4, 9), (16, 512), (7, 7), (30, 8)])
    def test_truncated_svd_of_wide_matches_its_transpose(self, rng, shape):
        from ttnborn.tensor import svd_sign_fix, truncated_svd
        m = rng.standard_normal(shape)
        u, s, vt, err = truncated_svd(m, 5, 0.0)
        v_t, s_t, ut_t, err_t = truncated_svd(np.ascontiguousarray(m.T), 5,
                                              0.0)
        assert len(s) == min(5, *shape)
        assert np.max(np.abs(s - s_t)) < 1e-12 * s[0]
        assert abs(err - err_t) < 1e-12
        u, vt = svd_sign_fix(u.copy(), vt.copy())
        u_t, vt_t = svd_sign_fix(ut_t.T.copy(), v_t.T.copy())
        assert np.max(np.abs(u - u_t)) < 1e-12
        assert np.max(np.abs(vt - vt_t)) < 1e-12
        full = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(s - full[:len(s)])) < 1e-12 * full[0]
        assert abs(err - np.sum(full[len(s):] ** 2) / np.sum(full ** 2)) < 1e-12


def test_names_only_unit_tests_use_are_not_exported():
    # each is imported from its module where a test needs it
    import ttnborn
    for name in ("QrResult", "SvdResult", "frobenius_norm", "Amplitude",
                 "contract_pixel_vectors", "sweep_steps", "morton_index"):
        assert not hasattr(ttnborn, name), name
