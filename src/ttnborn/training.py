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
(``born.contract_node``), so a full epoch costs one message update per edge
crossing.

Both schemes take one gradient step (``_gradient_step``), on a matrix
product K J whose rows and columns meet the batch environments.  The
two-site step is that step on the merge of the pair, matricized against
their bond, followed by a truncated SVD; the one-site step is the same step
on the center, matricized against its last axis with the identity as J, and
no split.  The finite-difference-checked gradients are built from the
step's own terms (``_unit_merge``).

The gradient is a rank-(1 + batch) correction of the merge.  With a small
batch the two-site step works on that factored form and never materializes
the merge; otherwise it materializes the merge and never the batch x batch
Gram, so its memory stays linear in the batch.  In the factored form the
tensor that is not the center is an isometry toward it, so its columns are
already an orthonormal basis: the split QR-factors only the part of that
side's environment block outside the basis.

Everything here serves the MPS (``mps``) too: the chain is the degenerate
tree, one path with a pixel on every tensor, and the cache, the walk, the
QR push and the one- and two-site steps read only the per-axis topology
answer of ``born.BornMachine``.  The MPS supplies only its own epoch entry
point, so that its epoch and its two-site core are timed under its name.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .born import (BornMachine, Pixel, canonicalize, check_int,
                   contract_node, nll, push_qr, sample_matrix, toward_center)
from .errors import (DegenerateSampleError, DimensionError, NumericalError,
                     StateError, TopologyError)
from .tensor import (DenseTensor, kept_rank, kron_rows, move_axis,
                     svd_sign_fix, truncated_svd)

_EYE2 = np.eye(2)     # the one-hot rows of pixel values 0 and 1
_PSI_FLOOR = math.exp(-300)
MAX_BACKTRACKS = 8    # halvings of the learning rate per step
# A two-site factor whose Gram matrix is the identity to this tolerance is
# taken as an isometry, whose columns the factored split reuses as a basis.
_ISOMETRY_TOL = 1e-10
# Overlap with that basis above which the residual's Q is re-projected.
_BASIS_TOL = 1e-13
# A dense merge whose smaller side is at least this many times d_max is split
# from its Gram matrix (``_gram_split``); below it the full SVD is about as
# fast or faster.
_GRAM_SIDE = 4
# ... and only where eigh's kept subspace is accurate to this angle.
_GAP_TOL = 1e-10


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")
        if not (math.isfinite(self.svd_cutoff) and self.svd_cutoff >= 0):
            raise ValueError("svd_cutoff must be finite and >= 0")
        for name, low in (("d_max", 1), ("epochs", 0), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if self.batch_size is not None:
            check_int("batch_size", self.batch_size, 1)
        if self.scheme not in ("one-site", "two-site"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.zero_amplitude not in ("strict", "lenient"):
            raise ValueError(f"unknown zero_amplitude mode {self.zero_amplitude!r}")


@dataclass
class TrainStats:
    nll: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    max_bond: list = field(default_factory=list)
    truncation_errors: list = field(default_factory=list)  # one list per epoch
    rejected_steps: int = 0
    zero_amplitude_warnings: int = 0

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


def _unit_max_rows(m, logs):
    """Each row of ``m`` divided by its max magnitude in place, its log
    added to ``logs`` (zero rows kept).  Not ``born.rescale_rows``: a sweep
    turns any change in its messages' last bits into another model."""
    mx = np.abs(m).max(axis=1, initial=0.0)
    if not mx.all():
        mx[mx == 0.0] = 1.0
    m /= mx[:, None]
    logs += np.log(mx)
    return m, logs


class _EnvCache:
    """Cached per-sample messages around the moving center, for the tree
    and the chain alike.

    ``msgs[(u, v)]`` holds the contraction of everything on u's side of the
    edge (u, v) with the batch clamped: one (S, D) matrix plus per-sample
    log factors.  Moving the center across an edge invalidates exactly one
    directed message, which is recomputed on the spot; every message a
    gradient needs is then always fresh.  The message the other way across
    that edge is dropped, since nothing reads it before it is recomputed,
    so the cache holds one message per edge, pointing at the center.
    """

    def __init__(self, model, samples: np.ndarray, center: int):
        self.model = model
        self.samples = samples     # checked uint8 rows (``sample_matrix``)
        self.n_samples = self.samples.shape[0]
        self.msgs = {}
        # the logs of every unscaled message: one shared, never written
        self._zeros = np.zeros(self.n_samples)
        self._boundary = (np.ones((self.n_samples, 1)), self._zeros)
        order, toward = toward_center(model, center)
        for u in reversed(order[1:]):
            self.refresh_move(u, toward[u])

    def refresh_move(self, u: int, v: int, sites=None):
        """Recompute the message from u into v, the one directed message
        changed by moving the center u -> v (``sites``: u's axis sites)."""
        sites = sites or self.model.axis_sites(u)
        out = sites.index(v)
        self.msgs.pop((v, u), None)
        self.msgs[(u, v)] = _unit_max_rows(*contract_node(
            self.model.tensors[u], self.center_parts(u, out, sites), out))

    def center_parts(self, k: int, out=None, sites=None):
        """Messages entering every axis of tensor k but ``out``, in axis
        order."""
        sites = sites or self.model.axis_sites(k)
        return [self._part(k, s) for a, s in enumerate(sites) if a != out]

    def _part(self, k: int, site):
        """The message entering tensor k from ``site``, one of its axis
        sites."""
        if site is None:
            return self._boundary
        if not isinstance(site, Pixel):
            return self.msgs[(site, k)]
        # gathered on each use, so that no per-pixel array is kept
        return _EYE2.take(self.samples[:, site.index], axis=0), self._zeros


# -- the gradient step ---------------------------------------------------------


def _env_outer(uk, w, vj):
    """uk^T diag(w) vj: the weighted environment sum of a merge, matricized
    against the merged bond (rows x cols)."""
    return (uk.T * w[None, :]) @ vj


def _unit_merge(kmat, jmat, uk, vj, zero_amplitude, stats=None):
    """The terms that a gradient step on the merge m = kmat @ jmat is built
    from, given the batch environments of its rows (uk: S x rows) and
    columns (vj: S x cols).

    The NLL log |m|^2 - (2/S) sum_s log |<m, env_s>| does not depend on the
    scale of m, so the step works on the unit-norm merge k_hat @ jmat.
    Returns the Gram matrices of kmat and jmat, |m|, k_hat, the amplitudes
    psi of the unit-norm merge (in the cached messages' scale) and the
    weights w = (2/S) / psi.  The NLL gradient is then
    (2 k_hat @ jmat - _env_outer(uk, w, vj)) / |m|.

    A zero amplitude raises ``DegenerateSampleError`` in "strict" mode; in
    "lenient" mode it is floored and counted in ``stats``.
    """
    c_kk = kmat.T @ kmat
    c_jj = jmat @ jmat.T
    norm = math.sqrt(max(float(np.sum(c_kk * c_jj)), 0.0))
    if norm == 0.0:
        raise NumericalError("gradient step on an all-zero tensor")
    k_hat = kmat / norm
    psi = np.einsum('sb,sb->s', uk @ k_hat, vj @ jmat.T)
    zero = psi == 0.0
    if np.any(zero):
        if zero_amplitude == "strict":
            raise DegenerateSampleError(int(np.argmax(zero)))
        if stats is not None:
            stats.zero_amplitude_warnings += int(np.sum(zero))
        psi = np.where(zero, _PSI_FLOOR, psi)
    return c_kk, c_jj, norm, k_hat, psi, (2.0 / psi.shape[0]) / psi


def _gradient_step(kmat, jmat, uk, vj, cfg, stats):
    """The backtracked gradient step of both schemes, on the merge
    m = kmat @ jmat (rows x bond, bond x cols) with the batch environments
    uk (S x rows) and vj (S x cols).

    The step moves the unit-norm merge against its gradient:
    c0 * m_hat + alpha * M with M = uk^T diag(w) vj, a rank-S correction,
    and c0 = 1 - 2 alpha.  The local batch NLL, the global NLL as a
    function of m alone, is closed-form in alpha, so backtracking is cheap:
    the step takes the first of lr, lr/2, ... (``MAX_BACKTRACKS`` halvings)
    at which it does not rise, or alpha = 0, counted as a rejected step, if
    there is none.  One of two forms is chosen from the shapes:

    - factored, when bond + S < 0.8 * min(rows, cols): the line search runs
      on the S x S Gram of the environments (S^2 < rows * cols, so it is
      never larger than the merge), and the stepped merge is returned as
      the two sides [c0 / |m| * kmat | alpha uk^T diag(w)] and
      [jmat^T | vj^T] of ``_split_factored``, whose product it is.
    - dense, otherwise, and always when jmat is the identity (cols = bond):
      M is formed (rows x cols), the line search reads u_s^T M v_s and
      ||M||_F^2 from it, and the stepped merge is returned as a rows x cols
      matrix, which the two-site step splits by ``_split_dense``.  No S x S
      array exists.
    """
    c_kk, c_jj, norm, k_hat, psi, w = _unit_merge(
        kmat, jmat, uk, vj, cfg.zero_amplitude, stats)
    b = psi.shape[0]
    factored = kmat.shape[1] + b < 0.8 * min(kmat.shape[0], jmat.shape[1])
    # Overlaps of each environment with M (gw) and |M|^2 (wgw), all in the
    # cached scale (per-sample factors cancel against psi).
    if factored:
        gram = (uk @ uk.T) * (vj @ vj.T)
        gw = gram @ w
        wgw = float(w @ gw)
    else:
        m_grad = _env_outer(uk, w, vj)                  # (rows, cols)
        gw = np.einsum('sc,sc->s', uk @ m_grad, vj)
        wgw = float(np.vdot(m_grad, m_grad))
    psi_w = float(psi @ w)

    def local_nll(alpha):
        c0 = 1.0 - 2.0 * alpha
        nsq = c0 * c0 + 2.0 * c0 * alpha * psi_w + alpha * alpha * wgw
        p = c0 * psi + alpha * gw
        if nsq <= 0.0 or np.any(p == 0.0):
            return float("inf")
        return math.log(nsq) - (2.0 / b) * float(np.sum(np.log(np.abs(p))))

    base, alpha = local_nll(0.0), cfg.learning_rate
    for _ in range(MAX_BACKTRACKS + 1):
        if alpha == 0.0 or local_nll(alpha) <= base:
            break
        alpha *= 0.5
    else:
        stats.rejected_steps += 1
        alpha = 0.0
    c0 = 1.0 - 2.0 * alpha
    if factored:
        return (_factor_side(c_kk, kmat, c0 / norm,
                             uk.T * (alpha * w)[None, :]),
                _factor_side(c_jj, jmat.T, 1.0, vj.T))
    return c0 * (k_hat @ jmat) + alpha * m_grad


# -- the step's operands and the gradients -------------------------------------


def _site_operands(model, cache, k):
    """The one-site step's operands (kmat, jmat, uk, vj): T[k] matricized
    against its last axis, the identity, and the environments of its rows
    and columns."""
    t = model.tensors[k].data
    parts = cache.center_parts(k)
    return (t.reshape(-1, t.shape[-1]), np.eye(t.shape[-1]),
            kron_rows([m for m, _ in parts[:-1]]), parts[-1][0])


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


def _merge_operands(model, cache, k, j):
    """The two-site step's operands (kmat, jmat, uk, vj) for the (k, j)
    merge, and (k_dims, j_dims, topology) from ``_matricize_pair``."""
    kmat, jmat, k_dims, j_dims, pair = _matricize_pair(model, k, j)
    sites_k, sites_j, ak, aj = pair
    uk = kron_rows([m for m, _ in cache.center_parts(k, ak, sites_k)])
    vj = kron_rows([m for m, _ in cache.center_parts(j, aj, sites_j)])
    return (kmat, jmat, uk, vj), (k_dims, j_dims, pair)


def merged_tensor(model: BornMachine, k: int, j: int) -> DenseTensor:
    """The merge of T[k] and T[j] over their shared bond (k's axes first)."""
    kmat, jmat, k_dims, j_dims, _ = _matricize_pair(model, k, j)
    return DenseTensor((kmat @ jmat).reshape(k_dims + j_dims), validate=False)


def _gradient(model: BornMachine, batch, k: int, j: int | None,
              zero_amplitude: str) -> DenseTensor:
    """The NLL gradient with respect to the center T[k] (j None) or the
    (k, j) merge, from the terms of the step that training takes on it:
    (2 m_hat - M(w)) / |m|, in the notation of ``_unit_merge``."""
    if model.canonical_center != k:
        raise StateError(f"model must be canonical at {k}, center is "
                         f"{model.canonical_center}")
    if j is not None and j not in model.neighbors(k):
        raise DimensionError(f"{j} is not adjacent to {k}")
    cache = _EnvCache(model, sample_matrix(batch, model.n_sites), k)
    if j is None:
        shape = model.tensors[k].shape
        kmat, jmat, uk, vj = _site_operands(model, cache, k)
    else:
        (kmat, jmat, uk, vj), (k_dims, j_dims, _) = _merge_operands(
            model, cache, k, j)
        shape = k_dims + j_dims
    _, _, norm, k_hat, _, w = _unit_merge(kmat, jmat, uk, vj, zero_amplitude)
    grad = (2.0 * (k_hat @ jmat) - _env_outer(uk, w, vj)) / norm
    return DenseTensor(grad.reshape(shape), validate=False)


def gradient_one_site(model: BornMachine, batch, k: int,
                      zero_amplitude: str = "strict") -> DenseTensor:
    """NLL gradient with respect to the center tensor T[k], from the terms
    of the one-site step.  The model must be canonical at k."""
    return _gradient(model, batch, k, None, zero_amplitude)


def gradient_two_site(model: BornMachine, edge, batch,
                      zero_amplitude: str = "strict") -> DenseTensor:
    """NLL gradient with respect to the merged tensor across ``edge``, from
    the terms of the two-site step.

    ``edge`` is (k, j) with k the canonical center and j adjacent; the
    result has k's open axes first, then j's.
    """
    return _gradient(model, batch, *edge, zero_amplitude)


def _site_step(model, cache, k, cfg, stats):
    """The one-site step at center k, for the tree and the chain alike: the
    gradient step with no split, normalized."""
    shape = model.tensors[k].shape
    new = _gradient_step(*_site_operands(model, cache, k), cfg, stats)
    new = new / (np.linalg.norm(new) or 1.0)
    if not np.all(np.isfinite(new)):
        raise NumericalError("non-finite tensor after a one-site step")
    model.tensors[k] = DenseTensor(new.reshape(shape), validate=False)


# -- the two-site split ---------------------------------------------------------


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
    u, s, vt, err = truncated_svd(ra @ rb.T, d_max, cutoff)
    u_full, vt_full = svd_sign_fix(qa @ u, vt @ qb.T)
    return u_full, s, vt_full, err


def _gram_split(m, d_max, cutoff):
    """``truncated_svd`` of the dense merge ``m`` from the eigenvectors of
    its Gram matrix, or None where that is not safe.

    With ``a`` the tall one of m and m^T, eigh of the (smaller side)^2 Gram
    a^T a gives the kept right singular vectors V_k, and one SVD of a V_k
    (rows x keep) turns them into orthonormal factors and the kept values.
    The Gram squares the condition number, so this runs only where the
    kept subspace stands apart from the rest, eps n lambda_1 /
    (lambda_k - lambda_{k+1}) <= ``_GAP_TOL``, and where the cutoff rather
    than d_max sets the rank, lambda_k and lambda_{k+1} each lie more than
    eps n lambda_1 from it: then eigh keeps the same rank as the SVD.
    """
    a = m.T if m.shape[0] < m.shape[1] else m
    n = a.shape[1]
    if n < _GRAM_SIDE * d_max:
        return None
    lam, v = np.linalg.eigh(a.T @ a)
    lam = np.maximum(lam[::-1], 0.0)
    keep = kept_rank(np.sqrt(lam), d_max, cutoff)
    slack = np.finfo(float).eps * n * lam[0]
    gap = lam[keep - 1] - lam[keep]
    edge = lam[keep - 1:keep + (keep < d_max)] - cutoff * float(np.sum(lam))
    if not (gap > 0.0 and slack <= _GAP_TOL * gap
            and np.all(np.abs(edge) > slack)):
        return None
    v_k = v[:, n - keep:][:, ::-1]
    ub, s, wt = np.linalg.svd(a @ v_k, full_matrices=False)
    vt = wt @ v_k.T
    total = float(np.vdot(a, a))
    err = max(total - float(s @ s), 0.0) / total
    return (ub, s, vt, err) if a is m else (vt.T, s, ub.T, err)


def _split_dense(m, d_max, cutoff):
    """Truncated SVD of a dense merge, signs fixed: ``_gram_split`` where
    it is safe, else ``truncated_svd``."""
    u, s, vt, err = (_gram_split(m, d_max, cutoff)
                     or truncated_svd(m, d_max, cutoff))
    u, vt = svd_sign_fix(u.copy(), vt.copy())
    return u, s, vt, err


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
    vj: S x cols).  Gradient-updates the merge by ``_gradient_step`` and
    returns the truncated factors (k_new rows x r, j_new r x cols) plus the
    truncation error.  Singular values land on the j factor when
    ``center_on_j``, normalized to unit norm.

    A step in factored form is split by an exact SVD in factored form,
    O((bond + S)^2 (rows + cols)).  A side whose Gram matrix is the identity
    is an isometry, as every tensor but the center is in a canonical sweep:
    j in every sweep step, where k holds the center.  Its columns serve as
    the basis of its QR, and only the S environment columns outside their
    span are factored; the other side gets a plain QR.  A dense step is
    split by ``_split_dense``: from the eigenvectors of its Gram matrix
    (``_gram_split``) where its smaller side is at least 4 d_max and the
    kept values pass a gap test, else by the full SVD.
    """
    stepped = _gradient_step(kmat, jmat, uk, vj, cfg, stats)
    if isinstance(stepped, tuple):
        u, s, vt, err = _split_factored(*stepped, cfg.d_max, cfg.svd_cutoff)
    else:
        u, s, vt, err = _split_dense(stepped, cfg.d_max, cfg.svd_cutoff)
    n = np.linalg.norm(s) or 1.0
    if center_on_j:
        k_new, j_new = u, s[:, None] * vt / n
    else:
        k_new, j_new = u * s[None, :] / n, vt
    if not (np.all(np.isfinite(k_new)) and np.all(np.isfinite(j_new))):
        raise NumericalError("non-finite tensors after a two-site step")
    return k_new, j_new, err


def _merge_step(model, cache, k, j, cfg, stats, center_to, merge_factors):
    """Gradient-update the (k, j) merge by ``merge_factors`` (the guarded
    two-site core) and re-split it with truncation."""
    operands, (k_dims, j_dims, pair) = _merge_operands(model, cache, k, j)
    k_new, j_new, err = merge_factors(*operands, cfg, stats,
                                      center_on_j=(center_to == j))
    stats.truncation_errors[-1].append(err)
    rank = k_new.shape[1]
    sites_k, sites_j, ak, aj = pair
    k_tensor = move_axis(k_new.reshape(k_dims + [rank]), -1, ak)
    j_tensor = move_axis(j_new.reshape([rank] + j_dims), 0, aj)
    model.tensors[k] = DenseTensor(np.ascontiguousarray(k_tensor),
                                   validate=False)
    model.tensors[j] = DenseTensor(np.ascontiguousarray(j_tensor),
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


def sweep(model, dataset, config: TrainConfig, cache, stats, on_step, push,
          merge_factors):
    """The body of a sweep epoch, for the tree and the chain alike: a
    right-to-left pass then a left-to-right pass, each of ``sweep_steps``.

    Checks the data, canonicalizes the model to its last tensor and
    normalizes that center (with ``log_norm`` 0), and builds the environment
    cache unless given one.  Returns the uint8 sample matrix, the stats
    (with this epoch's truncation errors) and the seconds the passes took.
    """
    samples = sample_matrix(dataset, model.n_sites)
    last = model.n_sites - 1
    if model.canonical_center != last:
        canonicalize(model, last)
    # p depends on neither the center's norm nor log_norm, however large
    t = model.tensors[last]
    n = np.linalg.norm(t.data.ravel())
    if n > 0:
        model.tensors[last] = DenseTensor(t.data / n, validate=False)
    model.log_norm = 0.0
    if stats is None:
        stats = TrainStats()
    if cache is None:
        cache = _EnvCache(model, samples, last)
    stats.truncation_errors.append([])
    started = time.perf_counter()
    for start, rightward in ((last, False), (model.first_leaf, True)):
        _execute_pass(model, cache, config, sweep_steps(model, start, rightward),
                      stats, on_step, push, merge_factors)
    return samples, stats, time.perf_counter() - started


def exit_epoch(model, stats: TrainStats, seconds: float, epoch_nll: float):
    """The shared exit of a sweep epoch: records its NLL, time and largest
    bond."""
    stats.nll.append(epoch_nll)
    stats.seconds.append(seconds)
    stats.max_bond.append(model.max_bond())
    return model, stats


def sweep_epoch(model: BornMachine, dataset, config: TrainConfig, *,
                cache=None, stats: TrainStats | None = None, on_step=None):
    """One full epoch: a right-to-left pass then a left-to-right pass.

    The model must be (and ends up) canonical at the rightmost tensor; every
    tensor is updated exactly once per pass.
    """
    samples, stats, seconds = sweep(model, dataset, config, cache, stats,
                                    on_step, push_qr, guarded_merge_factors)
    return exit_epoch(model, stats, seconds, nll(model, samples))


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
    canonicalize(model, model.n_sites - 1)
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
            cache = _EnvCache(model, batch, model.n_sites - 1)
        _, stats = model.sweep_epoch(batch, config, cache=cache, stats=stats)
        seconds = stats.seconds[-1] = time.perf_counter() - t0
        if batch_size is not None:
            stats.nll[-1] = nll(model, full)
            if stats.nll[-1] <= kept:
                kept = stats.nll[-1]
            else:
                # both are canonical at the last tensor
                model.tensors, model.log_norm = before.tensors, before.log_norm
                for record in (stats.nll, stats.seconds, stats.max_bond):
                    record.pop()
                exit_epoch(model, stats, seconds, kept)
                config = replace(config,
                                 learning_rate=config.learning_rate / 2)
            cache = None
        if on_epoch is not None:
            on_epoch(model, epoch, stats)
    return model, stats
