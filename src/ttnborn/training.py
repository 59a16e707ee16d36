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
the batch x batch Gram, so its memory stays linear in the batch.  In the
factored form the tensor that is not the center is an isometry toward it,
so its columns are already an orthonormal basis: the split QR-factors only
the part of that side's environment block outside the basis.

Everything here serves the MPS (``mps``) too: the chain is the degenerate
tree, one path with a pixel on every tensor, and the cache, the walk, the
QR push and the one- and two-site steps read only the per-axis topology
answer of ``ttn.BornMachine``.  The MPS supplies only its own epoch entry
point, so that its epoch and its two-site core are timed under its name.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (DegenerateSampleError, DimensionError, NumericalError,
                     StateError, TopologyError)
from .tensor import DenseTensor, _svd_sign_fix, _truncated_svd, move_axis
from .ttn import (_EYE2, BornMachine, Pixel, _contract_node, _toward, nll,
                  push_qr, sample_matrix)

_PSI_FLOOR = math.exp(-300)
MAX_BACKTRACKS = 8    # halvings of the learning rate per step
# A two-site factor whose Gram matrix is the identity to this tolerance is
# taken as an isometry, whose columns the factored split reuses as a basis.
_ISOMETRY_TOL = 1e-10
# Overlap with that basis above which the residual's Q is re-projected.
_BASIS_TOL = 1e-13


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
    """Cached per-sample messages around the moving center, for the tree
    and the chain alike.

    ``msgs[(u, v)]`` holds the contraction of everything on u's side of the
    edge (u, v) with the batch clamped: one (S, D) matrix plus per-sample
    log factors.  Moving the center across an edge invalidates exactly one
    directed message, which is recomputed on the spot; every message a
    gradient needs is then always fresh.
    """

    def __init__(self, model, samples: np.ndarray, center: int):
        self.model = model
        self.samples = np.asarray(samples, dtype=np.uint8)
        self.n_samples = self.samples.shape[0]
        self.msgs = {}
        self._onehots = {}
        # the logs of every unscaled message: one shared, never written
        self._zeros = np.zeros(self.n_samples)
        self._boundary = (np.ones((self.n_samples, 1)), self._zeros)
        order, toward = _toward(model, center)
        for u in reversed(order[1:]):
            self.refresh_move(u, toward[u])

    def refresh_move(self, u: int, v: int, sites=None):
        """Recompute the message from u into v, the one directed message
        changed by moving the center u -> v (``sites``: u's axis sites)."""
        sites = sites or self.model.axis_sites(u)
        out = sites.index(v)
        self.msgs[(u, v)] = _contract_node(
            self.model.tensors[u], self.center_parts(u, out, sites), out)

    def center_parts(self, k: int, out=None, sites=None):
        """Messages entering every axis of tensor k but ``out``, in axis
        order."""
        sites = sites or self.model.axis_sites(k)
        return [self._part(k, s) for a, s in enumerate(sites) if a != out]

    def merged_parts(self, k: int, j: int, pair):
        """Messages entering the open axes of the (k, j) merge, k-side
        first, given its topology from ``_matricize_pair``."""
        return (self.center_parts(k, pair[2], pair[0]),
                self.center_parts(j, pair[3], pair[1]))

    def _part(self, k: int, site):
        """The message entering tensor k from ``site``, one of its axis
        sites."""
        if site is None:
            return self._boundary
        if not isinstance(site, Pixel):
            return self.msgs[(site, k)]
        if site.index not in self._onehots:
            self._onehots[site.index] = (_EYE2[self.samples[:, site.index]],
                                         self._zeros)
        return self._onehots[site.index]


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


def _step_batch(model: BornMachine, batch, k: int, j: int | None = None):
    """The sample matrix of ``batch`` for a single step at center k (across
    the edge to j), after checking that k is the center and j adjacent."""
    if model.canonical_center != k:
        raise StateError(f"model must be canonical at {k}, center is "
                         f"{model.canonical_center}")
    if j is not None and j not in model.neighbors(k):
        raise DimensionError(f"{j} is not adjacent to {k}")
    return sample_matrix(batch, model.n_sites)


def gradient_one_site(model: BornMachine, batch, k: int,
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
    """Matricize T[k] and T[j] against their shared bond.  Returns the
    matrices, the dimensions of their other axes and the step's topology,
    computed once: each tensor's axis sites and its axis on the bond."""
    sites_k, sites_j = model.axis_sites(k), model.axis_sites(j)
    if j not in sites_k:
        raise TopologyError(f"{j} is not adjacent to {k}")
    ak, aj = sites_k.index(j), sites_j.index(k)
    tk, tj = model.tensors[k], model.tensors[j]
    k_dims = [d for a, d in enumerate(tk.shape) if a != ak]
    j_dims = [d for a, d in enumerate(tj.shape) if a != aj]
    kmat = move_axis(tk.data, ak, -1).reshape(-1, tk.shape[ak])
    jmat = move_axis(tj.data, aj, 0).reshape(tj.shape[aj], -1)
    return kmat, jmat, k_dims, j_dims, (sites_k, sites_j, ak, aj)


def merged_tensor(model: BornMachine, k: int, j: int) -> DenseTensor:
    """The merge of T[k] and T[j] over their shared bond (k's axes first)."""
    kmat, jmat, k_dims, j_dims, _ = _matricize_pair(model, k, j)
    scale = model.tensors[k].log_scale + model.tensors[j].log_scale
    return DenseTensor((kmat @ jmat).reshape(k_dims + j_dims), scale,
                       validate=False).rescaled()


def gradient_two_site(model: BornMachine, edge, batch,
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
    kmat, jmat, k_dims, j_dims, pair = _matricize_pair(model, k, j)
    parts_k, parts_j = cache.merged_parts(k, j, pair)
    uk, vj = _kron_rows(parts_k), _kron_rows(parts_j)
    m = kmat @ jmat
    psi = _check_zero_amplitudes(np.einsum('sc,sc->s', uk @ m, vj),
                                 zero_amplitude, None)
    grad = 2.0 * m / float(np.vdot(m, m)) \
        - _env_outer(uk, (2.0 / psi.shape[0]) / psi, vj)
    return DenseTensor(grad.reshape(k_dims + j_dims), 0.0, validate=False)


def _qr_on_basis(basis, gamma, rest):
    """QR of the tall block [gamma * basis | rest] whose left part
    ``basis`` already has orthonormal columns (possibly none).

    [gamma * basis | rest] = [basis | q] [[gamma I, p], [0, r]]: p is the
    projection of ``rest`` onto the basis, taken with one
    re-orthogonalisation pass, and q r is the QR of the residual, so only
    the columns outside the basis are factored.  Where the residual is
    rank-deficient, Householder completes q with arbitrary directions; if
    these reach into the basis they are projected out and q refactored.
    With no basis this is the plain QR of ``rest``.
    """
    k = basis.shape[1]
    if not k:
        return np.linalg.qr(rest, mode="reduced")
    p = basis.T @ rest
    rest = rest - basis @ p
    p2 = basis.T @ rest
    rest -= basis @ p2
    p += p2
    q, r = np.linalg.qr(rest, mode="reduced")
    c = basis.T @ q
    if np.max(np.abs(c)) > _BASIS_TOL:
        q, r2 = np.linalg.qr(q - basis @ c, mode="reduced")
        p += c @ r
        r = r2 @ r
    r_full = np.zeros((k + r.shape[0], k + r.shape[1]))
    np.fill_diagonal(r_full[:k, :k], gamma)
    r_full[:k, k:] = p
    r_full[k:, k:] = r
    return np.concatenate([basis, q], axis=1), r_full


def _split_factored(a, bt, d_max, cutoff):
    """Exact truncated SVD of a @ bt given in factored form.

    ``a`` and ``bt.T`` are each passed as (basis, gamma, rest), the factor
    [gamma * basis | rest] with ``basis`` orthonormal columns, so that
    ``_qr_on_basis`` factors only what lies outside the basis.
    """
    qa, ra = _qr_on_basis(*a)
    qb, rb = _qr_on_basis(*bt)
    u, s, vt, err = _truncated_svd(ra @ rb.T, d_max, cutoff)
    u_full, vt_full = _svd_sign_fix(qa @ u, vt @ qb.T)
    return u_full, s, vt_full, err


def _is_isometry(gram) -> bool:
    """Whether a factor whose Gram matrix is ``gram`` has orthonormal
    columns, to ``_ISOMETRY_TOL``."""
    return float(np.max(np.abs(gram - np.eye(gram.shape[0])))) < _ISOMETRY_TOL


def _factor_side(gram, mat, gamma, rest):
    """One side of a factored merge, [gamma * mat | rest], as the
    (basis, gamma, rest) of ``_qr_on_basis``: ``mat`` is the basis if its
    Gram matrix ``gram`` is the identity, else the whole block is plain."""
    if _is_isometry(gram):
        return mat, gamma, rest
    block = np.concatenate([gamma * mat.T, rest.T], axis=0).T
    return np.empty((mat.shape[0], 0)), 1.0, block


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
      factored form, O((bond + S)^2 (rows + cols)).  Here S^2 < rows * cols,
      so the Gram is never larger than the merged tensor.  A side whose
      Gram (c_kk or c_jj) is the identity is an isometry, as every tensor
      but the center is in a canonical sweep: j in every sweep step, where
      k holds the center.  Its columns serve as the basis of its QR, and
      only the S environment columns outside their span are factored; the
      other side gets a plain QR.
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
    k_basis = kmat
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
        a_fac = _factor_side(c_kk, k_basis, c0 / merge_norm,
                             uk.T * (accepted * w_base)[None, :])
        bt_fac = _factor_side(c_jj, jmat.T, 1.0, vj.T)
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


def _merge_step(model, cache, k, j, cfg, stats, center_to, merge_factors):
    """Gradient-update the (k, j) merge by ``merge_factors`` (the guarded
    two-site core) and re-split it with truncation."""
    _fold_scale_data(model.tensors, k)
    _fold_scale_data(model.tensors, j)
    kmat, jmat, k_dims, j_dims, pair = _matricize_pair(model, k, j)
    parts_k, parts_j = cache.merged_parts(k, j, pair)
    uk, vj = _kron_rows(parts_k), _kron_rows(parts_j)
    k_new, j_new, err = merge_factors(kmat, jmat, uk, vj, cfg, stats,
                                      center_on_j=(center_to == j))
    stats.truncation_errors[-1].append(err)
    rank = k_new.shape[1]
    sites_k, sites_j, ak, aj = pair
    k_tensor = move_axis(k_new.reshape(k_dims + [rank]), -1, ak)
    j_tensor = move_axis(j_new.reshape([rank] + j_dims), 0, aj)
    model.tensors[k] = DenseTensor(np.ascontiguousarray(k_tensor), 0.0,
                                   validate=False)
    model.tensors[j] = DenseTensor(np.ascontiguousarray(j_tensor), 0.0,
                                   validate=False)
    model.canonical_center = center_to
    cache.refresh_move(*((k, j, sites_k) if center_to == j
                         else (j, k, sites_j)))


# -- sweep driver ---------------------------------------------------------------


def sweep_steps(model: BornMachine, start: int, rightward: bool):
    """The walk of one pass: (node, next node or None, update due) triples.

    The pass runs from the leaf ``start`` to the leaf at the other end of
    the network (the last tensor on the left-to-right pass, ``first_leaf``
    on the right-to-left one).  Each node on that path first makes a round
    trip into every subtree off the path, updating each of its nodes on the
    way back, then is updated itself and hands the center on.  Subtrees are
    visited left first on the left-to-right pass and right first on the
    other, so every tensor is updated exactly once.  On the chain no subtree
    is off the path.
    """
    order = list if rightward else reversed
    steps = []

    def round_trip(parent, node):
        steps.append((parent, node, False))
        for child in order([v for v in model.neighbors(node) if v != parent]):
            round_trip(node, child)
        steps.append((node, parent, True))

    end = model.n_sites - 1 if rightward else model.first_leaf
    path = model.path(start, end)
    on_path = set(path)
    for u, v in zip(path, path[1:] + [None]):
        for child in order([w for w in model.neighbors(u) if w not in on_path]):
            round_trip(u, child)
        steps.append((u, v, True))
    del round_trip  # a self-referencing closure would hold ``model`` until gc
    return steps


def _execute_pass(model, cache, cfg, steps, stats, on_step, push,
                  merge_factors):
    """Run one pass of (node, next node or None, update due) steps.
    ``push(model, u, v)`` QR-moves the center and ``merge_factors`` is the
    guarded two-site core; a pass ends on a tensor with one neighbor, which
    the two-site scheme merges with it.

    The two-site scheme skips the push into a leaf on a round trip: the
    next step merges the leaf back with u, and every tensor outside that
    pair is already isometric toward u, so neither the push's QR nor the
    u -> leaf message it refreshes is ever read (the center stays at u).
    """
    two_site = cfg.scheme == "two-site"
    for u, v, due in steps:
        if cfg.scheme == "one-site" and due:
            _site_step(model, cache, u, cfg, stats)
        if two_site and v is None:
            _merge_step(model, cache, u, model.neighbors(u)[0], cfg, stats,
                        u, merge_factors)
        elif two_site and due:
            _merge_step(model, cache, u, v, cfg, stats, v, merge_factors)
        elif v is not None and not (two_site
                                    and len(model.neighbors(v)) == 1):
            push(model, u, v)
            model.canonical_center = v
            cache.refresh_move(u, v)
        if on_step is not None:
            on_step(model, (u, v, due))


def _sweep(model, dataset, config: TrainConfig, cache, stats, on_step, push,
           merge_factors):
    """The body of a sweep epoch, for the tree and the chain alike: a
    right-to-left pass then a left-to-right pass, each of ``sweep_steps``.

    Checks the data, canonicalizes the model to its last tensor and
    normalizes that center, and builds the environment cache unless given
    one.  Returns the uint8 sample matrix, the stats (with this epoch's
    truncation errors) and the seconds the passes took.
    """
    samples = sample_matrix(dataset, model.n_sites)
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
    started = time.perf_counter()
    for start, rightward in ((last, False), (model.first_leaf, True)):
        _execute_pass(model, cache, config, sweep_steps(model, start, rightward),
                      stats, on_step, push, merge_factors)
    return samples, stats, time.perf_counter() - started


def _exit_epoch(model, stats: TrainStats, seconds: float, epoch_nll: float):
    """The shared exit of a sweep epoch: records its NLL, time and bonds."""
    stats.nll.append(epoch_nll)
    stats.seconds.append(seconds)
    stats.max_bond.append(model.max_bond())
    stats.final_bond_dims = {str(k): int(v) for k, v in model.bond_dims().items()}
    return model, stats


def sweep_epoch(model: BornMachine, dataset, config: TrainConfig, *,
                cache=None, stats: TrainStats | None = None, on_step=None):
    """One full epoch: a right-to-left pass then a left-to-right pass.

    The model must be (and ends up) canonical at the rightmost tensor; every
    tensor is updated exactly once per pass.
    """
    samples, stats, seconds = _sweep(model, dataset, config, cache, stats,
                                     on_step, push_qr, guarded_merge_factors)
    return _exit_epoch(model, stats, seconds, nll(model, samples))


def train(model, dataset, config: TrainConfig, *, on_epoch=None):
    """Run ``config.epochs`` sweeping epochs of a TTN or MPS, recording
    per-epoch NLL.

    The epoch NLL is always measured on the full dataset with the exact
    partition function.  With ``batch_size`` set, each epoch samples that
    many training rows without replacement (seeded) and sweeps on them.
    Such an epoch is kept only if the full-data NLL did not rise; otherwise
    the model before it is restored, its NLL and bonds are recorded for
    the epoch, and the learning rate is halved for the epochs after it.
    """
    full = sample_matrix(dataset, model.n_sites)
    stats = TrainStats()
    model.canonicalize(model.n_sites - 1)
    rng = np.random.default_rng(config.seed)
    batch_size = config.batch_size
    if batch_size is None or int(batch_size) >= full.shape[0]:
        batch_size = None
    else:
        kept = nll(model, full)
    cache = None
    for epoch in range(config.epochs):
        if batch_size is None:
            batch = full
        else:
            idx = np.sort(rng.choice(full.shape[0], size=int(batch_size),
                                     replace=False))
            batch = full[idx]
            cache, before = None, model.copy()
        t0 = time.perf_counter()
        if cache is None:
            # Valid to build here: the model is canonical at its last
            # tensor (train entry or the previous epoch's postcondition), and
            # the center-only adjustments at epoch entry touch no message.
            cache = model.sweep_cache(batch)
        _, stats = model.sweep_epoch(batch, config, cache=cache, stats=stats)
        seconds = stats.seconds[-1] = time.perf_counter() - t0
        if batch_size is not None:
            stats.nll[-1] = nll(model, full)
            if stats.nll[-1] <= kept:
                kept = stats.nll[-1]
            else:
                # both are canonical at the last tensor
                model.tensors = before.tensors
                for record in (stats.nll, stats.seconds, stats.max_bond):
                    record.pop()
                _exit_epoch(model, stats, seconds, kept)
                config = replace(config,
                                 learning_rate=config.learning_rate / 2)
            cache = None
        if on_epoch is not None:
            on_epoch(model, epoch, stats)
    return model, stats
