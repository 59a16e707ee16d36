"""Sweeping gradient training of the TTN Born machine.

An epoch is a right-to-left pass followed by a left-to-right pass.  Each pass
walks the canonical center along tree edges, updating every tensor exactly
once: it follows the path from one outermost leaf node to the other and, at
each node on it, first makes a round trip into every child subtree off the
path.  At each update the center tensor (one-site scheme) or the 4-way
merge of the center with the next tensor (two-site scheme) takes a gradient
step on the negative log-likelihood, after which a QR (or truncated SVD)
pushes the non-canonical part one edge further.  Because everything but the
center is canonical, the partition function is the squared norm of the
center and per-sample environments come from cached subtree messages, each
one contraction of a node with the messages on its other axes
(``ttn._contract_node``), so a full epoch costs one message update per edge
crossing.

The gradient of the two-site step is a rank-(1 + batch) correction of the
merged tensor.  With a small batch the step works on that factored form and
never materializes the merge; otherwise it materializes the merge and never
the batch x batch Gram, so its memory stays linear in the batch.

``train``, the epoch entry and exit, the pass driver and the guarded one-
and two-site steps are shared with the MPS (``mps``), which supplies its own
walk, QR push, two-site matricization and environment cache.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateSampleError, DimensionError, NumericalError,
                     StateError)
from .tensor import DenseTensor, _svd_sign_fix, _truncated_svd
from .ttn import (_EYE2, TtnModel, _contract_node, nll, push_qr,
                  sample_matrix)

_PSI_FLOOR = math.exp(-300)
MAX_BACKTRACKS = 8    # halvings of the learning rate per step


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    d_max: int = 16
    scheme: str = "two-site"          # "one-site" | "two-site"
    svd_cutoff: float = 1e-12
    epochs: int = 10
    batch_size: int | None = None     # None = full batch
    seed: int = 0
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
        if self.batch_size is not None and int(self.batch_size) < 1:
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
        self.n_samples = self.samples.shape[0]
        self.ups = {}
        self.downs = {}
        self._onehots = {}
        chain = model.path(1, center)
        for n in range(model.n_tensors, 1, -1):
            if n not in chain:
                self.refresh_up(n)
        for c in chain[1:]:
            self.refresh_down(c)

    def onehot(self, pixel: int):
        if pixel not in self._onehots:
            self._onehots[pixel] = (_EYE2[self.samples[:, pixel]],
                                    np.zeros(self.n_samples))
        return self._onehots[pixel]

    def refresh_up(self, n: int):
        self.ups[n] = _contract_node(self.model.tensors[n],
                                     self.center_parts(n, 0), 0)

    def refresh_down(self, c: int):
        """Recompute the downward message into node c from its parent side."""
        u = self.model.parent(c)
        out = self.model.axis_toward(u, c)
        self.downs[c] = _contract_node(self.model.tensors[u],
                                       self.center_parts(u, out), out)

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

    def center_parts(self, k: int, out=None):
        """Messages entering every axis of tensor k but ``out``, in axis
        order."""
        return [self._part_at_axis(k, a)
                for a in range(self.model.tensors[k].ndim) if a != out]

    def merged_parts(self, k: int, j: int):
        """Messages entering the open axes of the (k, j) merge, k-side first."""
        model = self.model
        return (self.center_parts(k, model.axis_toward(k, j)),
                self.center_parts(j, model.axis_toward(j, k)))

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
    return _env_outer(_kron_rows(parts[:half]), weights,
                      _kron_rows(parts[half:])).reshape(shape)


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


def _site_gradient(tdata, parts, zero_amplitude, stats=None):
    """NLL gradient with respect to a center tensor, with the batch
    amplitudes and |T|^2 it was formed from.

    With every other tensor canonical, the normalization term is
    2 T / |T|^2 and each sample contributes its environment divided by its
    amplitude (cached message scales cancel in the ratio).
    """
    psi = _check_zero_amplitudes(_psi_raw(tdata, parts), zero_amplitude, stats)
    norm_sq = float(np.vdot(tdata, tdata))
    grad = 2.0 * tdata / norm_sq \
        - (2.0 / psi.shape[0]) * _weighted_env_sum(parts, 1.0 / psi, tdata.shape)
    return grad, psi, norm_sq


def _env_outer(uk, w, vj):
    """uk^T diag(w) vj: the weighted environment sum of a merge, matricized
    against the merged bond (rows x cols)."""
    return (uk.T * w[None, :]) @ vj


# -- public single-site operations --------------------------------------------


def _step_batch(model: TtnModel, batch, k: int, j: int | None = None):
    """The sample matrix of ``batch`` for a single step at center k (across
    the edge to j), after checking that k is the center and j adjacent."""
    if model.canonical_center != k:
        raise StateError(f"model must be canonical at {k}, center is "
                         f"{model.canonical_center}")
    if j is not None and j not in model.neighbors(k):
        raise DimensionError(f"{j} is not adjacent to {k}")
    return sample_matrix(batch, model.n_sites)


def gradient_one_site(model: TtnModel, batch, k: int,
                      zero_amplitude: str = "strict") -> DenseTensor:
    """NLL gradient with respect to the center tensor T[k], by the function
    the one-site step runs.  The model must be canonical at k."""
    samples = _step_batch(model, batch, k)
    _fold_scale_data(model.tensors, k)
    cache = _EnvCache(model, samples, k)
    grad, _, _ = _site_gradient(model.tensors[k].data, cache.center_parts(k),
                                zero_amplitude)
    return DenseTensor(grad, 0.0, validate=False)


def _backtracked(local_nll, cfg, stats):
    """The first step size of lr, lr/2, ... (``MAX_BACKTRACKS`` halvings)
    at which the local NLL does not rise; None, counted as a rejected step,
    if there is none."""
    base = local_nll(0.0)
    alpha = cfg.learning_rate
    for _ in range(MAX_BACKTRACKS + 1):
        if alpha == 0.0 or local_nll(alpha) <= base:
            return alpha
        alpha *= 0.5
    stats.rejected_steps += 1
    return None


def guarded_site_new_data(tdata, parts, cfg, stats):
    """Shared core of the one-site step: backtracked gradient update.

    Minimizes the local batch NLL log |T|^2 - (2/B) sum log |<T, env_s>|,
    which is the global NLL as a function of the center alone; the candidate
    objective is closed-form in the step size, so backtracking is cheap.
    The step is taken on the unit-norm gauge representative (the NLL does
    not depend on the center's scale), and the new center is normalized.
    """
    old_norm = float(np.linalg.norm(tdata.ravel()))
    if old_norm > 0:
        tdata = tdata / old_norm
    grad, psi, norm_sq = _site_gradient(tdata, parts, cfg.zero_amplitude,
                                        stats)
    b = psi.shape[0]
    psi_g = _psi_raw(grad, parts)
    tg = float(np.vdot(tdata, grad))
    gg = float(np.vdot(grad, grad))

    def local_nll(alpha):
        nsq = norm_sq - 2.0 * alpha * tg + alpha * alpha * gg
        p = psi - alpha * psi_g
        if nsq <= 0.0 or np.any(p == 0.0):
            return float("inf")
        return math.log(nsq) - (2.0 / b) * float(np.sum(np.log(np.abs(p))))

    accepted = _backtracked(local_nll, cfg, stats)
    new = tdata if accepted is None else tdata - accepted * grad
    n = np.linalg.norm(new.ravel())
    if n > 0:
        new = new / n
    if not np.all(np.isfinite(new)):
        raise NumericalError("non-finite tensor after a one-site step")
    return new


def _site_step(model, cache, k, cfg, stats):
    """The one-site step at center k, for the tree and the chain alike."""
    _fold_scale_data(model.tensors, k)
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
    result has k's open axes first, then j's.  Its data term is the
    ``_env_outer`` matrix that the dense two-site step adds to the merge.
    """
    k, j = edge
    samples = _step_batch(model, batch, k, j)
    _fold_scale_data(model.tensors, k)
    _fold_scale_data(model.tensors, j)
    cache = _EnvCache(model, samples, k)
    parts_k, parts_j = cache.merged_parts(k, j)
    uk, vj = _kron_rows(parts_k), _kron_rows(parts_j)
    kmat, jmat, k_dims, j_dims, _, _ = _matricize_pair(model, k, j)
    m = kmat @ jmat
    psi = _check_zero_amplitudes(np.einsum('sc,sc->s', uk @ m, vj),
                                 zero_amplitude, None)
    grad = 2.0 * m / float(np.vdot(m, m)) \
        - _env_outer(uk, (2.0 / psi.shape[0]) / psi, vj)
    return DenseTensor(grad.reshape(k_dims + j_dims), 0.0, validate=False)


def _split_factored(a, bt, d_max, cutoff):
    """Exact truncated SVD of a @ bt given in factored form."""
    qa, ra = np.linalg.qr(a, mode="reduced")
    qb, rb = np.linalg.qr(bt.T, mode="reduced")
    u, s, vt, err = _truncated_svd(ra @ rb.T, d_max, cutoff)
    u_full, vt_full = _svd_sign_fix(qa @ u, vt @ qb.T)
    return u_full, s, vt_full, err


def guarded_merge_factors(kmat, jmat, uk, vj, cfg, stats, center_on_j):
    """Shared core of the two-site step for chain and tree models.

    Takes the pair matricized against their shared bond (kmat: rows x bond,
    jmat: bond x cols) and the batch environments of each side (uk: S x rows,
    vj: S x cols).  Gradient-updates the merge with a backtracked step and
    returns the truncated factors (k_new rows x r, j_new r x cols) plus the
    truncation error.  Singular values land on the j factor when
    ``center_on_j``, normalized to unit norm.

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
    # Step on the unit-norm merge: its scale is pure gauge.
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
        m_grad = _env_outer(uk, w_base, vj)             # (rows, cols)
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

    accepted = _backtracked(local_nll, cfg, stats)
    if accepted is None:
        accepted = 0.0
    c0 = 1.0 - 2.0 * accepted / norm_sq
    if factored:
        a_fac = np.concatenate([c0 * kmat, uk.T * (accepted * w_base)[None, :]],
                               axis=1)
        bt_fac = np.concatenate([jmat, vj], axis=0)
        u, s, vt, err = _split_factored(a_fac, bt_fac, cfg.d_max, cfg.svd_cutoff)
    else:
        merged = c0 * (kmat @ jmat) + accepted * m_grad
        u, s, vt, err = _truncated_svd(merged, cfg.d_max, cfg.svd_cutoff)
        u, vt = _svd_sign_fix(u.copy(), vt.copy())
    if center_on_j:
        k_new = u
        j_new = s[:, None] * vt
    else:
        k_new = u * s[None, :]
        j_new = vt
    n = np.linalg.norm(s)
    if n > 0:
        if center_on_j:
            j_new = j_new / n
        else:
            k_new = k_new / n
    if not (np.all(np.isfinite(k_new)) and np.all(np.isfinite(j_new))):
        raise NumericalError("non-finite tensors after a two-site step")
    return k_new, j_new, err


def _merge_step(model, cache, k, j, cfg, stats, center_to):
    """Gradient-update the (k, j) merge and re-split it with truncation."""
    _fold_scale_data(model.tensors, k)
    _fold_scale_data(model.tensors, j)
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


# -- sweep driver ---------------------------------------------------------------


def sweep_steps(model: TtnModel, start: int, rightward: bool):
    """The walk of one pass: (node, next node or None, update due) triples.

    The pass runs from the leaf node ``start`` to the leaf node at the other
    end of the tree (the last tensor on the left-to-right pass, the first
    leaf on the right-to-left one).  Each node on that path first makes a
    round trip into every child subtree off the path, updating each of its
    nodes on the way back up, then is updated itself and hands the center
    on.  Children are visited left first on the left-to-right pass and right
    first on the other, so every tensor is updated exactly once.
    """
    order = list if rightward else reversed
    steps = []

    def round_trip(parent, node):
        steps.append((parent, node, False))
        for child in order([v for v in model.neighbors(node) if v != parent]):
            round_trip(node, child)
        steps.append((node, parent, True))

    end = model.n_tensors if rightward else model.first_leaf
    path = model.path(start, end)
    for u, v in zip(path, path[1:] + [None]):
        for child in order([w for w in model.neighbors(u) if w not in path]):
            round_trip(u, child)
        steps.append((u, v, True))
    return steps


def _execute_pass(model, cache, cfg, steps, stats, on_step, push, merge_step):
    """Run one pass of (node, next node or None, update due) steps, for the
    tree and the chain alike.  ``push(model, u, v)`` QR-moves the center and
    ``merge_step`` is the model's two-site step; a pass ends on a tensor
    with one neighbor, which the two-site scheme merges with it."""
    for u, v, due in steps:
        if cfg.scheme == "one-site" and due:
            _site_step(model, cache, u, cfg, stats)
        if cfg.scheme == "two-site" and v is None:
            merge_step(model, cache, u, model.neighbors(u)[0], cfg, stats,
                       center_to=u)
        elif cfg.scheme == "two-site" and due:
            merge_step(model, cache, u, v, cfg, stats, center_to=v)
        elif v is not None:
            push(model, u, v)
            model.canonical_center = v
            cache.refresh_move(u, v)
        if on_step is not None:
            on_step(model, (u, v, due))


def _enter_epoch(model, dataset, config: TrainConfig, cache, stats):
    """The shared entry of a sweep epoch, for the tree and the chain.

    Checks the data, canonicalizes the model to its last tensor and
    normalizes that center, builds the environment cache unless given one,
    and opens this epoch's list of truncation errors.  Returns the int64
    sample matrix, the cache and the stats.
    """
    samples = sample_matrix(dataset, model.n_sites).astype(np.int64)
    last = model.n_sites - 1
    if model.canonical_center != last:
        model.canonicalize(last)
    # Normalize in place of folding: a freshly canonicalized center can
    # carry a log_scale far beyond float range, but the represented
    # distribution does not depend on it.
    t = model.tensors[last]
    n = np.linalg.norm(t.data.ravel())
    if n > 0:
        model.tensors[last] = DenseTensor(t.data / n, 0.0, validate=False)
    if stats is None:
        stats = TrainStats()
    if cache is None:
        cache = model.sweep_cache(samples)
    stats.truncation_errors.append([])
    return samples, cache, stats


def _exit_epoch(model, stats: TrainStats, seconds: float, epoch_nll: float):
    """The shared exit of a sweep epoch: records its NLL, time and bonds."""
    stats.nll.append(epoch_nll)
    stats.seconds.append(seconds)
    stats.max_bond.append(model.max_bond())
    stats.final_bond_dims = {str(k): int(v) for k, v in model.bond_dims().items()}
    return model, stats


def sweep_epoch(model: TtnModel, dataset, config: TrainConfig, *,
                cache=None, stats: TrainStats | None = None, on_step=None):
    """One full epoch: a right-to-left pass then a left-to-right pass.

    The model must be (and ends up) canonical at the rightmost tensor; every
    tensor is updated exactly once per pass.
    """
    samples, cache, stats = _enter_epoch(model, dataset, config, cache, stats)
    started = time.perf_counter()
    for start, rightward in ((model.n_tensors, False), (model.first_leaf, True)):
        _execute_pass(model, cache, config, sweep_steps(model, start, rightward),
                      stats, on_step, push_qr, _merge_step)
    return _exit_epoch(model, stats, time.perf_counter() - started,
                       nll(model, samples))


def train(model, dataset, config: TrainConfig, *, on_epoch=None):
    """Run ``config.epochs`` sweeping epochs of a TTN or MPS, recording
    per-epoch NLL.

    The epoch NLL is always measured on the full dataset with the exact
    partition function.  With ``batch_size`` set, each epoch samples that
    many training rows without replacement (seeded) and sweeps on them.
    """
    full = sample_matrix(dataset, model.n_sites).astype(np.int64)
    stats = TrainStats()
    model.canonicalize(model.n_sites - 1)
    rng = np.random.default_rng(config.seed)
    batch_size = config.batch_size
    if batch_size is None or int(batch_size) >= full.shape[0]:
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
            # Valid to build here: the model is canonical at its last
            # tensor (train entry or the previous epoch's postcondition), and
            # the center-only adjustments at epoch entry touch no message.
            cache = model.sweep_cache(batch)
        _, stats = model.sweep_epoch(batch, config, cache=cache, stats=stats)
        stats.seconds[-1] = time.perf_counter() - t0
        if batch_size is not None:
            stats.nll[-1] = nll(model, full)
            cache = None
        if on_epoch is not None:
            on_epoch(model, epoch, stats)
    return model, stats
