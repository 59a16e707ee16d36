"""Dense real tensors.

Every multi-way array in this package is a ``DenseTensor``, a thin holder of
a float64 ndarray ``data``.  What keeps contractions of ~1000 tensors finite
is one log scale per model, its ``log_norm`` (``born.BornMachine``).

Four operations cover everything built on top: matricized QR, truncated
SVD, the Frobenius norm and the row-wise Kronecker product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

NEG_INF = float("-inf")


class DenseTensor:
    """A float64 array; immutable by convention."""

    __slots__ = ("data",)

    # a nonzero ``log_scale`` is folded into the data on construction; both
    # exist only because ``perfbench`` builds and reads tensors with them
    log_scale = 0.0

    def __init__(self, data, log_scale: float = 0.0, validate: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if log_scale != 0.0:
            with np.errstate(over="ignore", invalid="ignore"):
                arr = arr * np.exp(log_scale)
        if (validate or log_scale) and not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        self.data = arr

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def copy(self) -> "DenseTensor":
        return DenseTensor(self.data.copy(), validate=False)

    def __repr__(self):
        return f"DenseTensor(shape={self.shape})"


@dataclass
class SvdResult:
    u: DenseTensor          # (row_axes..., k), orthonormal columns
    s: list                 # kept singular values, descending
    v: DenseTensor          # (col_axes..., k), orthonormal columns
    truncation_error: float  # discarded weight / total weight, in [0, 1]


def move_axis(data: np.ndarray, source: int, dest: int) -> np.ndarray:
    """``np.moveaxis`` as a bare transpose, or ``data`` if already in place."""
    perm = [a for a in range(data.ndim) if a != source % data.ndim]
    perm.insert(dest % data.ndim, source % data.ndim)
    return data if perm == sorted(perm) else data.transpose(perm)


def _check_axis_partition(t: DenseTensor, row_axes, col_axes):
    axes = list(row_axes) + list(col_axes)
    if sorted(axes) != list(range(t.ndim)):
        raise DimensionError(
            f"row_axes {list(row_axes)} and col_axes {list(col_axes)} do not "
            f"partition the {t.ndim} axes of the tensor")


def _matricize(t: DenseTensor, row_axes, col_axes):
    row_axes, col_axes = list(row_axes), list(col_axes)
    perm = row_axes + col_axes
    row_dims = [t.shape[a] for a in row_axes]
    col_dims = [t.shape[a] for a in col_axes]
    mat = np.transpose(t.data, perm).reshape(
        int(np.prod(row_dims, dtype=np.int64)) if row_dims else 1,
        int(np.prod(col_dims, dtype=np.int64)) if col_dims else 1)
    return np.ascontiguousarray(mat), row_dims, col_dims


def qr_split(t: DenseTensor, row_axes, col_axes):
    """QR-factor the matricization rows=row_axes, cols=col_axes.

    Returns the arrays (q, r): q reshaped to (row_axes..., k) with exactly
    orthonormal columns, r to (k, col_axes...).  The diagonal of r is
    forced non-negative so the decomposition is deterministic.
    """
    _check_axis_partition(t, row_axes, col_axes)
    mat, row_dims, col_dims = _matricize(t, row_axes, col_axes)
    q, r = np.linalg.qr(mat, mode="reduced")
    diag_sign = np.sign(np.diag(r))
    diag_sign[diag_sign == 0] = 1.0
    q = q * diag_sign[np.newaxis, :]
    r = r * diag_sign[:, np.newaxis]
    k = q.shape[1]
    return q.reshape(row_dims + [k]), r.reshape([k] + col_dims)


def kept_rank(sq: np.ndarray, d_max: int, cutoff: float) -> int:
    """Number of singular values to keep, read from their squares ``sq``:
    min(d_max, #above-cutoff, all), >= 1.

    A value is above the cutoff when its squared relative weight exceeds it.
    """
    total = float(np.sum(sq))
    if total == 0.0:
        return 1
    significant = int(np.sum(sq / total > cutoff))
    return max(1, min(int(d_max), significant, len(sq)))


def svd_sign_fix(u, vt):
    """Deterministic sign convention: the largest-magnitude entry of each
    left singular vector is positive (in place; the first of tied entries
    decides).  Multiplying by +-1 is exact, so this equals negating the
    flipped columns bit for bit."""
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    sign = np.where(lead < 0, -1.0, 1.0)
    u *= sign
    vt *= sign[:, None]
    return u, vt


def truncated_svd(m: np.ndarray, d_max: int, cutoff: float):
    """Dense SVD of ``m`` truncated to ``kept_rank`` values, signs not yet
    fixed: (u, s, vt views, discarded / total squared weight).

    A wide ``m`` is factored through its transpose, which LAPACK takes
    about twice as fast from a C-ordered array.
    """
    if m.shape[0] < m.shape[1]:
        v, s, ut = np.linalg.svd(m.T, full_matrices=False)
        u, vt = ut.T, v.T
    else:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    sq = s * s
    keep = kept_rank(sq, d_max, cutoff)
    total = float(np.sum(sq))
    err = float(np.sum(sq[keep:])) / total if total > 0 else 0.0
    return u[:, :keep], s[:keep], vt[:keep, :], err


def svd_split(t: DenseTensor, row_axes, col_axes, d_max: int,
              cutoff: float = 0.0) -> SvdResult:
    """Truncated SVD of the matricization rows=row_axes, cols=col_axes.

    Both factors have orthonormal columns.  ``truncation_error`` is the
    discarded squared weight relative to the total squared weight.
    """
    if d_max < 1:
        raise DimensionError("d_max must be >= 1")
    _check_axis_partition(t, row_axes, col_axes)
    mat, row_dims, col_dims = _matricize(t, row_axes, col_axes)
    if not np.any(mat):
        # All-zero tensor: a single zero singular value by convention.
        u = np.zeros((mat.shape[0], 1))
        v = np.zeros((mat.shape[1], 1))
        u[0, 0] = 1.0
        v[0, 0] = 1.0
        return SvdResult(
            u=DenseTensor(u.reshape(row_dims + [1]), validate=False),
            s=[0.0],
            v=DenseTensor(v.reshape(col_dims + [1]), validate=False),
            truncation_error=0.0)
    u, s, vt, err = truncated_svd(mat, d_max, cutoff)
    u, vt = svd_sign_fix(u, vt)
    k = len(s)
    return SvdResult(
        u=DenseTensor(u.reshape(row_dims + [k]), validate=False),
        s=[float(x) for x in s],
        v=DenseTensor(np.ascontiguousarray(vt.T).reshape(col_dims + [k]),
                      validate=False),
        truncation_error=err)


def kron_rows(mats):
    """The row-wise Kronecker product of (S, d_i) matrices, (S, prod d_i),
    the first one's index most significant; formed left to right, so the
    first matrix itself when there is one."""
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, :, None] * m[:, None, :]).reshape(len(out), -1)
    return out


def frobenius_norm(t: DenseTensor) -> float:
    """log of the Frobenius norm; -inf for the zero tensor.  A norm whose
    square may have left the float range (above it, or below 1e-300) is
    taken of the data scaled to unit max."""
    if t.data.size == 0:
        raise DimensionError("tensor is empty")
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(t.data.ravel()))
    if not 1e-150 <= n < math.inf:
        top = float(np.abs(t.data).max())
        if top == 0.0:
            return NEG_INF
        return math.log(top) + math.log(np.linalg.norm(t.data.ravel() / top))
    return math.log(n)
