"""Sweeping gradient training of the TTN Born machine.

An epoch is a right-to-left pass followed by a left-to-right pass.  Each pass
walks the canonical center along tree edges, updating every tensor exactly
once: at each position the center tensor (one-site scheme) or the 4-way
merge of the center with the next tensor (two-site scheme) takes a gradient
step on the negative log-likelihood, after which a QR (or truncated SVD)
pushes the non-canonical part one edge further.  Because everything but the
center is canonical, the partition function is the squared norm of the
center and per-sample environments come from cached subtree messages, so a
full epoch costs one message update per edge crossing.

The gradient of the two-site step is a rank-(1 + batch) correction of the
merged tensor.  With a small batch the step works on that factored form and
never materializes the merge; otherwise it materializes the merge and never
the batch x batch Gram, so its memory stays linear in the batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateSampleError, DimensionError, NumericalError,
                     StateError)
from .tensor import DenseTensor, kept_rank
from .ttn import TtnModel, canonicalize, nll, push_qr

_EYE2 = np.eye(2)
_PSI_FLOOR = math.exp(-300)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    d_max: int = 16
    scheme: str = "two-site"          # "one-site" | "two-site"
    svd_cutoff: float = 1e-12
    epochs: int = 10
    batch_size: int | None = None     # None = full batch
    seed: int = 0
    renormalize_center: bool = True
    max_backtracks: int = 8           # halvings of the learning rate per step
    zero_amplitude: str = "strict"    # "strict" | "lenient"

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.scheme not in ("one-site", "two-site"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.zero_amplitude not in ("strict", "lenient"):
            raise ValueError(f"unknown zero_amplitude mode {self.zero_amplitude!r}")
        if self.batch_size is not None and self.batch_size != "full":
            if int(self.batch_size) < 1:
                raise ValueError("batch_size must be >= 1")


@dataclass
class TrainStats:
    nll: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    max_bond: list = field(default_factory=list)
    truncation_errors: list = field(default_factory=list)  # one list per epoch
    rejected_steps: int = 0
    zero_amplitude_warnings: int = 0
    final_bond_dims: dict = field(default_factory=dict)

    def mean_truncation_errors(self):
        return [float(np.mean(t)) if t else 0.0 for t in self.truncation_errors]

    def write_csv(self, path, record_timing: bool = False):
        """Fixed, versioned CSV schema; wall times are zeroed unless asked
        for, so identical runs produce byte-identical files."""
        mean_te = self.mean_truncation_errors()
        with open(path, "w") as f:
            f.write("# ttnborn-stats-v1\n")
            f.write("epoch,nll,seconds,max_bond,mean_truncation_error\n")
            for e in range(len(self.nll)):
                secs = self.seconds[e] if record_timing else 0.0
                f.write("%d,%.17g,%.6f,%d,%.17g\n"
                        % (e, self.nll[e], secs, self.max_bond[e], mean_te[e]))


# -- per-sample message cache -------------------------------------------------


def _rescale_rows(m, logs):
    mx = np.max(np.abs(m), axis=1)
    nz = mx > 0
    if np.any(nz):
        logs[nz] += np.log(mx[nz])
        m[nz] /= mx[nz, None]
    return m, logs


class _EnvCache:
    """Cached upward/downward per-sample messages around the moving center.

    ``ups[n]`` holds the contraction of node n's subtree with the batch
    clamped (one (S, D) matrix plus per-sample log factors), ``downs[n]`` the
    contraction of everything outside n's subtree.  Moving the center across
    an edge invalidates exactly one directed message, which is recomputed on
    the spot; every message a gradient needs is then always fresh.
    """

    def __init__(self, model: TtnModel, samples: np.ndarray, center: int):
        self.model = model
        self.samples = np.asarray(samples, dtype=np.int64)
        if self.samples.ndim != 2 or self.samples.shape[1] != model.n_sites:
            raise DimensionError(
                f"batch must be (S, {model.n_sites}), got {self.samples.shape}")
        self.n_samples = self.samples.shape[0]
        self.ups = {}
        self.downs = {}
        self._onehots = {}
        path = set(model.path(1, center))
        for n in range(model.n_tensors, 1, -1):
            if n not in path:
                self.refresh_up(n)
        chain = model.path(1, center)
        for u, c in zip(chain[:-1], chain[1:]):
            self.refresh_down(c)

    def onehot(self, pixel: int):
        if pixel not in self._onehots:
            self._onehots[pixel] = (_EYE2[self.samples[:, pixel]],
                                    np.zeros(self.n_samples))
        return self._onehots[pixel]

    def refresh_up(self, n: int):
        model = self.model
        t = model.tensors[n]
        if model.is_leaf(n):
            k1, k2 = model.pixels_of_leaf(n)
            m = t.data[:, self.samples[:, k1], self.samples[:, k2]].T.copy()
            logs = np.full(self.n_samples, t.log_scale)
        else:
            ml, logl = self.ups[2 * n]
            mr, logr = self.ups[2 * n + 1]
            x = np.tensordot(ml, t.data, axes=([1], [1]))
            m = np.einsum('sac,sc->sa', x, mr)
            logs = logl + logr + t.log_scale
        self.ups[n] = _rescale_rows(m, logs)

    def refresh_down(self, c: int):
        """Recompute the downward message into node c from its parent side."""
        model = self.model
        u = model.parent(c)
        if u == 1:
            t1 = model.tensors[1]
            sib = 3 if c == 2 else 2
            ms, logs_s = self.ups[sib]
            if c == 2:
                m = ms @ t1.data.T
            else:
                m = ms @ t1.data
            logs = logs_s + t1.log_scale
        else:
            t = model.tensors[u]
            md, logd = self.downs[u]
            sib = 2 * u + 1 if c == 2 * u else 2 * u
            ms, logs_s = self._lower_message(u, sib)
            x = np.tensordot(md, t.data, axes=([1], [0]))   # (S, b, c)
            if c == 2 * u:
                m = np.einsum('sbc,sc->sb', x, ms)
            else:
                m = np.einsum('sbc,sb->sc', x, ms)
            logs = logd + logs_s + t.log_scale
        self.downs[c] = _rescale_rows(m, logs)

    def _lower_message(self, parent: int, child_slot: int):
        """Message entering ``parent`` from heap slot ``child_slot`` below it."""
        if child_slot > self.model.n_tensors:
            return self.onehot(child_slot - self.model.n_sites)
        return self.ups[child_slot]

    def refresh_move(self, u: int, v: int):
        """Update the one directed message changed by moving the center u->v."""
        if v == self.model.parent(u):
            self.refresh_up(u)
        else:
            self.refresh_down(v)

    def center_parts(self, k: int):
        """Messages entering each axis of tensor k, in axis order."""
        if k == 1:
            return [self.ups[2], self.ups[3]]
        return [self.downs[k],
                self._lower_message(k, 2 * k),
                self._lower_message(k, 2 * k + 1)]

    def merged_parts(self, k: int, j: int):
        """Messages entering the open axes of the (k, j) merge, k-side first."""
        model = self.model
        ak = model.axis_toward(k, j)
        aj = model.axis_toward(j, k)
        parts_k = [self._part_at_axis(k, a)
                   for a in range(model.tensors[k].ndim) if a != ak]
        parts_j = [self._part_at_axis(j, a)
                   for a in range(model.tensors[j].ndim) if a != aj]
        return parts_k, parts_j

    def _part_at_axis(self, k: int, axis: int):
        if k == 1:
            return self.ups[2] if axis == 0 else self.ups[3]
        if axis == 0:
            return self.downs[k]
        return self._lower_message(k, 2 * k + (axis - 1))


# -- gradient building blocks -------------------------------------------------


def _psi_raw(tdata: np.ndarray, parts):
    """<T, env_s> for every sample, in the cached messages' scale."""
    s_count = parts[0][0].shape[0]
    cur = np.tensordot(parts[0][0], tdata, axes=([1], [0]))
    cur = cur.reshape(s_count, -1)
    trail = list(tdata.shape[1:])
    for m, _ in parts[1:]:
        d = trail.pop(0)
        cur = np.einsum('sir,si->sr', cur.reshape(s_count, d, -1), m)
    return cur.reshape(s_count)


def _kron_rows(parts):
    out = parts[0][0]
    for m, _ in parts[1:]:
        s = out.shape[0]
        out = (out[:, :, None] * m[:, None, :]).reshape(s, -1)
    return out


def _weighted_env_sum(parts, weights, shape):
    """sum_s weights[s] * outer(parts...[s]), shaped like the center tensor."""
    half = max(1, len(parts) // 2)
    left = _kron_rows(parts[:half]) * weights[:, None]
    right = _kron_rows(parts[half:])
    return (left.T @ right).reshape(shape)


def _check_zero_amplitudes(psi, mode, stats):
    zero = psi == 0.0
    if not np.any(zero):
        return psi
    if mode == "strict":
        raise DegenerateSampleError(int(np.argmax(zero)))
    if stats is not None:
        stats.zero_amplitude_warnings += int(np.sum(zero))
    out = psi.copy()
    out[zero] = _PSI_FLOOR
    return out


def _fold_scale_data(tensors, k: int):
    t = tensors[k]
    if t.log_scale != 0.0:
        data = t.data * math.exp(t.log_scale)
        if not np.all(np.isfinite(data)):
            raise NumericalError(
                f"tensor {k} log_scale {t.log_scale:.3g} cannot be folded")
        tensors[k] = DenseTensor(data, 0.0, validate=False)


def _fold_scale(model: TtnModel, k: int):
    _fold_scale_data(model.tensors, k)


# -- public single-site operations --------------------------------------------


def gradient_one_site(model: TtnModel, batch, k: int,
                      zero_amplitude: str = "strict") -> DenseTensor:
    """NLL gradient with respect to the center tensor T[k].

    The model must be canonical at k, so the normalization term is
    2 T / |T|^2 and each sample contributes its environment divided by its
    amplitude (cached message scales cancel in the ratio).
    """
    if model.canonical_center != k:
        raise StateError(f"model must be canonical at {k}, center is "
                         f"{model.canonical_center}")
    samples = batch.samples if hasattr(batch, "samples") else np.asarray(batch)
    _fold_scale(model, k)
    cache = _EnvCache(model, samples, k)
    return DenseTensor(_gradient_from_cache(model, cache, k, zero_amplitude),
                       0.0, validate=False)


def _gradient_from_cache(model, cache, k, zero_amplitude, stats=None):
    t = model.tensors[k]
    parts = cache.center_parts(k)
    psi = _check_zero_amplitudes(_psi_raw(t.data, parts), zero_amplitude, stats)
    norm_sq = float(np.vdot(t.data, t.data))
    b = psi.shape[0]
    data_term = _weighted_env_sum(parts, 1.0 / psi, t.data.shape)
    return 2.0 * t.data / norm_sq - (2.0 / b) * data_term


def update_one_site(model: TtnModel, k: int, gradient, config: TrainConfig):
    """Plain gradient step T[k] <- T[k] - lr * gradient.

    With ``renormalize_center`` the new center is scaled to unit Frobenius
    norm, which leaves probabilities invariant and pins Z = 1.
    """
    g = gradient.data if isinstance(gradient, DenseTensor) else np.asarray(gradient)
    t = model.tensors[k]
    if g.shape != t.data.shape:
        raise DimensionError(f"gradient shape {g.shape} != tensor shape {t.shape}")
    if config.renormalize_center and t.log_scale != 0.0:
        # The represented scale is about to be divided out anyway; normalize
        # first so extreme log scales never have to be materialized.
        n = np.linalg.norm(t.data.ravel())
        model.tensors[k] = DenseTensor(t.data / n if n > 0 else t.data, 0.0,
                                       validate=False)
    else:
        _fold_scale(model, k)
    new = model.tensors[k].data - config.learning_rate * g
    if config.renormalize_center:
        n = np.linalg.norm(new.ravel())
        if n > 0:
            new = new / n
    model.tensors[k] = DenseTensor(new, 0.0, validate=False)
    return model


def guarded_site_new_data(tdata, parts, cfg, stats):
    """Shared core of the one-site step: backtracked gradient update.

    Minimizes the local batch NLL log |T|^2 - (2/B) sum log |<T, env_s>|,
    which is the global NLL as a function of the center alone; the candidate
    objective is closed-form in the step size, so backtracking is cheap.
    The step is taken on the unit-norm gauge representative (the NLL does
    not depend on the center's scale), so training trajectories agree
    exactly whether or not the center is renormalized afterwards.
    """
    old_norm = float(np.linalg.norm(tdata.ravel()))
    if old_norm > 0:
        tdata = tdata / old_norm
    psi = _check_zero_amplitudes(_psi_raw(tdata, parts), cfg.zero_amplitude,
                                 stats)
    b = psi.shape[0]
    norm_sq = float(np.vdot(tdata, tdata))
    grad = 2.0 * tdata / norm_sq \
        - (2.0 / b) * _weighted_env_sum(parts, 1.0 / psi, tdata.shape)
    psi_g = _psi_raw(grad, parts)
    tg = float(np.vdot(tdata, grad))
    gg = float(np.vdot(grad, grad))

    def local_nll(alpha):
        nsq = norm_sq - 2.0 * alpha * tg + alpha * alpha * gg
        p = psi - alpha * psi_g
        if nsq <= 0.0 or np.any(p == 0.0):
            return float("inf")
        return math.log(nsq) - (2.0 / b) * float(np.sum(np.log(np.abs(p))))

    base = local_nll(0.0)
    alpha = cfg.learning_rate
    accepted = None
    for _ in range(cfg.max_backtracks + 1):
        if local_nll(alpha) <= base:
            accepted = alpha
            break
        alpha *= 0.5
    if accepted is None:
        stats.rejected_steps += 1
        new = tdata
    else:
        new = tdata - accepted * grad
    if cfg.renormalize_center:
        n = np.linalg.norm(new.ravel())
        if n > 0:
            new = new / n
    elif old_norm > 0:
        new = new * old_norm
    if not np.all(np.isfinite(new)):
        raise NumericalError("non-finite tensor after a one-site step")
    return new


def _site_step(model, cache, k, cfg, stats):
    _fold_scale(model, k)
    parts = cache.center_parts(k)
    new = guarded_site_new_data(model.tensors[k].data, parts, cfg, stats)
    model.tensors[k] = DenseTensor(new, 0.0, validate=False)


# -- two-site operations -------------------------------------------------------


def _matricize_pair(model, k, j):
    """Matricize T[k] and T[j] against their shared bond."""
    ak = model.axis_toward(k, j)
    aj = model.axis_toward(j, k)
    tk, tj = model.tensors[k], model.tensors[j]
    k_axes = [a for a in range(tk.ndim) if a != ak]
    j_axes = [a for a in range(tj.ndim) if a != aj]
    k_dims = [tk.shape[a] for a in k_axes]
    j_dims = [tj.shape[a] for a in j_axes]
    kmat = np.transpose(tk.data, k_axes + [ak]).reshape(-1, tk.shape[ak])
    jmat = np.transpose(tj.data, [aj] + j_axes).reshape(tj.shape[aj], -1)
    return kmat, jmat, k_dims, j_dims, ak, aj


def merged_tensor(model: TtnModel, k: int, j: int) -> DenseTensor:
    """The merge of T[k] and T[j] over their shared bond (k's axes first)."""
    kmat, jmat, k_dims, j_dims, _, _ = _matricize_pair(model, k, j)
    scale = model.tensors[k].log_scale + model.tensors[j].log_scale
    return DenseTensor((kmat @ jmat).reshape(k_dims + j_dims), scale,
                       validate=False).rescaled()


def gradient_two_site(model: TtnModel, edge, batch,
                      zero_amplitude: str = "strict") -> DenseTensor:
    """NLL gradient with respect to the merged tensor across ``edge``.

    ``edge`` is (k, j) with k the canonical center and j adjacent; the
    result has k's open axes first, then j's.
    """
    k, j = edge
    if model.canonical_center != k:
        raise StateError(f"model must be canonical at {k}, center is "
                         f"{model.canonical_center}")
    if j not in model.neighbors(k):
        raise DimensionError(f"{j} is not adjacent to {k}")
    samples = batch.samples if hasattr(batch, "samples") else np.asarray(batch)
    _fold_scale(model, k)
    _fold_scale(model, j)
    cache = _EnvCache(model, samples, k)
    parts_k, parts_j = cache.merged_parts(k, j)
    parts = parts_k + parts_j
    m = merged_tensor(model, k, j).to_array()
    psi = _check_zero_amplitudes(_psi_raw(m, parts), zero_amplitude, None)
    b = psi.shape[0]
    norm_sq = float(np.vdot(m, m))
    grad = 2.0 * m / norm_sq \
        - (2.0 / b) * _weighted_env_sum(parts, 1.0 / psi, m.shape)
    return DenseTensor(grad, 0.0, validate=False)


def _svd_sign_fix(u, vt):
    for col in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, col])))
        if u[i, col] < 0:
            u[:, col] = -u[:, col]
            vt[col, :] = -vt[col, :]
    return u, vt


def _split_factored(a, bt, d_max, cutoff):
    """Exact truncated SVD of a @ bt given in factored form."""
    qa, ra = np.linalg.qr(a, mode="reduced")
    qb, rb = np.linalg.qr(bt.T, mode="reduced")
    core = ra @ rb.T
    u, s, vt = np.linalg.svd(core, full_matrices=False)
    keep = kept_rank(s, d_max, cutoff)
    total = float(np.sum(s * s))
    err = float(np.sum(s[keep:] * s[keep:])) / total if total > 0 else 0.0
    u_full = qa @ u[:, :keep]
    vt_full = vt[:keep, :] @ qb.T
    u_full, vt_full = _svd_sign_fix(u_full, vt_full)
    return u_full, s[:keep], vt_full, err


def _split_dense(m, d_max, cutoff):
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = kept_rank(s, d_max, cutoff)
    total = float(np.sum(s * s))
    err = float(np.sum(s[keep:] * s[keep:])) / total if total > 0 else 0.0
    u, vt = _svd_sign_fix(u[:, :keep].copy(), vt[:keep, :].copy())
    return u, s[:keep], vt, err


def guarded_merge_factors(kmat, jmat, uk, vj, cfg, stats, center_on_j):
    """Shared core of the two-site step for chain and tree models.

    Takes the pair matricized against their shared bond (kmat: rows x bond,
    jmat: bond x cols) and the batch environments of each side (uk: S x rows,
    vj: S x cols).  Gradient-updates the merge with a backtracked step and
    returns the truncated factors (k_new rows x r, j_new r x cols) plus the
    truncation error.  Singular values land on the j factor when
    ``center_on_j``.

    The step is c0 * K J + alpha * M with M = uk^T diag(w) vj, a rank-S
    correction.  One of two forms is chosen once, from the shapes:

    - factored, when bond + S < 0.8 * min(rows, cols): the line search runs
      on the S x S Gram of the environments and the exact SVD is taken in
      factored form, O(S^2 (rows + cols)).  Here S^2 < rows * cols, so the
      Gram is never larger than the merged tensor.
    - dense, otherwise: M is formed (rows x cols), the line search reads
      u_s^T M v_s and ||M||_F^2 from it, and the merge c0 * K J + alpha * M
      is split by a dense SVD, O(S * rows * cols).  No S x S array exists.
    """
    c_kk = kmat.T @ kmat
    c_jj = jmat @ jmat.T
    merge_norm = math.sqrt(max(float(np.sum(c_kk * c_jj)), 0.0))
    if merge_norm == 0.0:
        raise NumericalError("two-site step on an all-zero merged tensor")
    # Step on the unit-norm merge (its scale is pure gauge) so the
    # renormalized and plain trajectories coincide exactly.
    kmat = kmat / merge_norm
    a_env = uk @ kmat                 # (S, bond)
    b_env = vj @ jmat.T               # (S, bond)
    psi = _check_zero_amplitudes(np.einsum('sb,sb->s', a_env, b_env),
                                 cfg.zero_amplitude, stats)
    b = psi.shape[0]
    rows, cols = kmat.shape[0], jmat.shape[1]
    factored = kmat.shape[1] + b < 0.8 * min(rows, cols)
    norm_sq = 1.0
    w_base = (2.0 / b) / psi
    # Overlaps of each environment with M (gw) and |M|^2 (wgw), all in the
    # cached scale (per-sample factors cancel against psi).
    if factored:
        gram = (uk @ uk.T) * (vj @ vj.T)
        gw = gram @ w_base
        wgw = float(w_base @ gw)
    else:
        m_grad = (uk.T * w_base[None, :]) @ vj          # (rows, cols)
        gw = np.einsum('sc,sc->s', uk @ m_grad, vj)
        wgw = float(np.vdot(m_grad, m_grad))
    psi_w = float(psi @ w_base)

    def local_nll(alpha):
        c0 = 1.0 - 2.0 * alpha / norm_sq
        nsq = (c0 * c0 * norm_sq + 2.0 * c0 * alpha * psi_w
               + alpha * alpha * wgw)
        p = c0 * psi + alpha * gw
        if nsq <= 0.0 or np.any(p == 0.0):
            return float("inf")
        return math.log(nsq) - (2.0 / b) * float(np.sum(np.log(np.abs(p))))

    base = local_nll(0.0)
    alpha = cfg.learning_rate
    accepted = 0.0
    for _ in range(cfg.max_backtracks + 1):
        if alpha == 0.0 or local_nll(alpha) <= base:
            accepted = alpha
            break
        alpha *= 0.5
    else:
        stats.rejected_steps += 1
    c0 = 1.0 - 2.0 * accepted / norm_sq
    if factored:
        a_fac = np.concatenate([c0 * kmat, uk.T * (accepted * w_base)[None, :]],
                               axis=1)
        bt_fac = np.concatenate([jmat, vj], axis=0)
        u, s, vt, err = _split_factored(a_fac, bt_fac, cfg.d_max, cfg.svd_cutoff)
    else:
        merged = c0 * (kmat @ jmat) + accepted * m_grad
        u, s, vt, err = _split_dense(merged, cfg.d_max, cfg.svd_cutoff)
    if center_on_j:
        k_new = u
        j_new = s[:, None] * vt
    else:
        k_new = u * s[None, :]
        j_new = vt
    if cfg.renormalize_center:
        n = np.linalg.norm(s)
        if n > 0:
            if center_on_j:
                j_new = j_new / n
            else:
                k_new = k_new / n
    else:
        # restore the gauge scale divided out at entry
        if center_on_j:
            j_new = j_new * merge_norm
        else:
            k_new = k_new * merge_norm
    if not (np.all(np.isfinite(k_new)) and np.all(np.isfinite(j_new))):
        raise NumericalError("non-finite tensors after a two-site step")
    return k_new, j_new, err


def _merge_step(model, cache, k, j, cfg, stats, center_to):
    """Gradient-update the (k, j) merge and re-split it with truncation."""
    _fold_scale(model, k)
    _fold_scale(model, j)
    kmat, jmat, k_dims, j_dims, ak, aj = _matricize_pair(model, k, j)
    parts_k, parts_j = cache.merged_parts(k, j)
    uk = _kron_rows(parts_k)
    vj = _kron_rows(parts_j)
    k_new, j_new, err = guarded_merge_factors(kmat, jmat, uk, vj, cfg, stats,
                                              center_on_j=(center_to == j))
    stats.truncation_errors[-1].append(err)
    rank = k_new.shape[1]
    k_tensor = np.moveaxis(k_new.reshape(k_dims + [rank]), -1, ak)
    j_tensor = np.moveaxis(j_new.reshape([rank] + j_dims), 0, aj)
    model.tensors[k] = DenseTensor(np.ascontiguousarray(k_tensor), 0.0,
                                   validate=False)
    model.tensors[j] = DenseTensor(np.ascontiguousarray(j_tensor), 0.0,
                                   validate=False)
    model.canonical_center = center_to
    if center_to == j:
        cache.refresh_move(k, j)
    else:
        cache.refresh_move(j, k)


def merge_split_two_site(model: TtnModel, edge, batch, config: TrainConfig):
    """One guarded two-site update across ``edge`` = (center, neighbor).

    The center moves to the neighbor, which receives the singular values;
    the bond dimension may grow up to d_max or shrink past the cutoff.
    """
    k, j = edge
    if model.canonical_center != k:
        raise StateError(f"model must be canonical at {k}, center is "
                         f"{model.canonical_center}")
    if j not in model.neighbors(k):
        raise DimensionError(f"{j} is not adjacent to {k}")
    samples = batch.samples if hasattr(batch, "samples") else np.asarray(batch)
    cache = _EnvCache(model, samples, k)
    stats = TrainStats()
    stats.truncation_errors.append([])
    _merge_step(model, cache, k, j, config, stats, center_to=j)
    return model


# -- sweep driver ---------------------------------------------------------------


def _direction_key(model: TtnModel, u: int, v: int, rightward: bool):
    """Ranking of neighbor v as the next center position from u.

    Children are ranked by the extreme pixel of their subtree (rightmost
    first on the right-to-left pass and vice versa); the parent direction
    always ranks last, so a pass finishes every subtree before climbing.
    Ranking the parent by reachable extreme instead livelocks on trees with
    three or more levels, because a node and its unfinished parent would
    each point back at the other.
    """
    if u > 1 and v == model.parent(u):
        return model.n_sites if rightward else -1
    lo, hi = model.pixel_span(v)
    return lo if rightward else hi


def sweep_steps(model: TtnModel, start: int, rightward: bool):
    """The walk of one pass: (node, next node or None, update due) triples.

    Follows the sweep rule: update the current tensor once all but at most
    one adjacent direction is exhausted, then move toward the extreme
    unupdated region (rightmost for the right-to-left pass, leftmost for the
    return pass), QR-pushing the center along each crossed edge.
    """
    unupdated = set(range(1, model.n_tensors + 1))
    pick = min if rightward else max
    tc = start
    steps = []
    for _ in range(6 * model.n_tensors + 6):
        cand = [v for v in model.neighbors(tc) if v in unupdated]
        due = tc in unupdated and len(cand) <= 1
        if due:
            unupdated.discard(tc)
        if not unupdated:
            steps.append((tc, None, due))
            return steps
        if cand:
            nxt = pick(cand, key=lambda v: _direction_key(model, tc, v, rightward))
        else:
            target = pick(unupdated,
                          key=lambda n: model.pixel_span(n)[0 if rightward else 1])
            nxt = model.path(tc, target)[1]
        steps.append((tc, nxt, due))
        tc = nxt
    raise NumericalError("sweep walk failed to terminate")


def _execute_pass(model, cache, cfg, start, rightward, stats, on_step):
    for u, v, due in sweep_steps(model, start, rightward):
        if cfg.scheme == "one-site":
            if due:
                _site_step(model, cache, u, cfg, stats)
            if v is not None:
                push_qr(model, u, v)
                model.canonical_center = v
                cache.refresh_move(u, v)
        else:
            if v is None:
                _merge_step(model, cache, u, model.parent(u), cfg, stats,
                            center_to=u)
            elif due:
                _merge_step(model, cache, u, v, cfg, stats, center_to=v)
            else:
                push_qr(model, u, v)
                model.canonical_center = v
                cache.refresh_move(u, v)
        if on_step is not None:
            on_step(model, (u, v, due))


def _as_matrix(dataset):
    samples = dataset.samples if hasattr(dataset, "samples") else np.asarray(dataset)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("dataset must be a nonempty sample matrix")
    return samples.astype(np.int64)


def sweep_epoch(model: TtnModel, dataset, config: TrainConfig, *,
                cache=None, stats: TrainStats | None = None, on_step=None):
    """One full epoch: a right-to-left pass then a left-to-right pass.

    The model must be (and ends up) canonical at the rightmost tensor; every
    tensor is updated exactly once per pass.
    """
    samples = _as_matrix(dataset)
    if samples.shape[1] != model.n_sites:
        raise DimensionError(
            f"dataset has {samples.shape[1]} pixels, model has {model.n_sites}")
    rightmost = model.n_tensors
    if model.canonical_center != rightmost:
        canonicalize(model, rightmost)
    if config.renormalize_center:
        # Normalize in place of folding: a freshly canonicalized center can
        # carry a log_scale far beyond float range, but the represented
        # distribution does not depend on it.
        t = model.tensors[rightmost]
        n = np.linalg.norm(t.data.ravel())
        if n > 0:
            model.tensors[rightmost] = DenseTensor(t.data / n, 0.0,
                                                   validate=False)
    else:
        _fold_scale(model, rightmost)
    if stats is None:
        stats = TrainStats()
    if cache is None:
        cache = _EnvCache(model, samples, rightmost)
    stats.truncation_errors.append([])
    started = time.perf_counter()
    _execute_pass(model, cache, config, rightmost, False, stats, on_step)
    _execute_pass(model, cache, config, model.first_leaf, True, stats, on_step)
    elapsed = time.perf_counter() - started
    epoch_nll = nll(model, samples)
    stats.nll.append(epoch_nll)
    stats.seconds.append(elapsed)
    stats.max_bond.append(model.max_bond())
    stats.final_bond_dims = {str(k): int(v) for k, v in model.bond_dims().items()}
    return model, stats


def train(model: TtnModel, dataset, config: TrainConfig, *, on_epoch=None):
    """Run ``config.epochs`` sweeping epochs, recording per-epoch NLL.

    The epoch NLL is always measured on the full dataset with the exact
    partition function.  With ``batch_size`` set, each epoch samples that
    many training rows without replacement (seeded) and sweeps on them.
    """
    full = _as_matrix(dataset)
    if full.shape[1] != model.n_sites:
        raise DimensionError(
            f"dataset has {full.shape[1]} pixels, model has {model.n_sites}")
    stats = TrainStats()
    canonicalize(model, model.n_tensors)
    rng = np.random.default_rng(config.seed)
    batch_size = config.batch_size
    if batch_size in (None, "full") or int(batch_size) >= full.shape[0]:
        batch_size = None
    cache = None
    for epoch in range(config.epochs):
        if batch_size is None:
            batch = full
        else:
            idx = np.sort(rng.choice(full.shape[0], size=int(batch_size),
                                     replace=False))
            batch = full[idx]
            cache = None
        t0 = time.perf_counter()
        if cache is None:
            # Valid to build here: the model is canonical at the rightmost
            # tensor (train entry or the previous epoch's postcondition), and
            # the center-only adjustments at epoch entry touch no message.
            cache = _EnvCache(model, batch, model.n_tensors)
        _, stats = sweep_epoch(model, batch, config, cache=cache, stats=stats)
        stats.seconds[-1] = time.perf_counter() - t0
        if batch_size is not None:
            stats.nll[-1] = nll(model, full)
            cache = None
        if on_epoch is not None:
            on_epoch(model, epoch, stats)
    return model, stats
