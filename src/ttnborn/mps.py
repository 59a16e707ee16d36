"""Matrix product state Born machine baseline.

A chain of 3-way tensors (left bond, pixel, right bond) with dimension-1
boundary bonds, trained, evaluated and sampled with the same machinery as
the tree model: exact partition function from the canonical center, sweeps
with QR pushes, two-site updates with truncated SVD, and ancestral sampling
from exact conditionals.  It implements the tree's Born-machine interface
(``ttn.BornMachine``), so the NLL, marginals, correlations, the training
loop, the sweep-epoch entry and exit, the pass driver and the one-site step
are the tree's own code, and the comparisons between the two models are
like for like.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import (DegenerateDistributionError, DimensionError, StateError,
                     TopologyError)
from .tensor import DenseTensor, qr_split
from .training import (TrainConfig, _enter_epoch, _execute_pass, _exit_epoch,
                       _fold_scale_data, guarded_merge_factors, train)
from .ttn import (_EYE2, BornMachine, _born_log_probs, _check_pixel_values,
                  _clamp_weights, _isometry_deviation, _normalized_marginals,
                  _rescale_batch, _rescale_rows, _signed_logs, correlation,
                  correlation_map, marginal, nll, partition_function)


class MpsModel(BornMachine):
    """Open-boundary MPS over binary pixels with a canonical center."""

    def __init__(self, tensors, canonical_center=None, d_max=None):
        self.tensors = list(tensors)
        if len(self.tensors) < 2:
            raise TopologyError("an MPS needs at least 2 sites")
        for i, t in enumerate(self.tensors):
            if t.ndim != 3 or t.shape[1] != 2:
                raise TopologyError(f"site {i} has shape {t.shape}, not "
                                    "(left bond, 2, right bond)")
            if i and self.tensors[i - 1].shape[2] != t.shape[0]:
                raise TopologyError(f"bond {i} has dimensions "
                                    f"{self.tensors[i - 1].shape[2]} and "
                                    f"{t.shape[0]} on its two sides")
        if self.tensors[0].shape[0] != 1 or self.tensors[-1].shape[2] != 1:
            raise TopologyError("boundary bonds must have dimension 1")
        self.canonical_center = canonical_center
        self.d_max = d_max

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    def neighbors(self, i: int):
        return [j for j in (i - 1, i + 1) if 0 <= j < self.n_sites]

    def bond_dims(self) -> dict:
        return {i: self.tensors[i].shape[0] for i in range(1, self.n_sites)}

    def copy(self) -> "MpsModel":
        return MpsModel([t.copy() for t in self.tensors],
                        self.canonical_center, self.d_max)

    # -- the Born-machine interface (see ``ttn.BornMachine``) ---------------

    model_type = "mps"
    first_tensor = 0

    def canonicalize(self, center: int):
        return mps_canonicalize(self, center)

    def log_z(self) -> float:
        return mps_partition_function(self)

    def log_probs(self, samples) -> np.ndarray:
        return mps_log_probs(self, samples)

    def single_site_marginals(self, assignment=None) -> np.ndarray:
        return mps_single_site_marginals(self, assignment)

    def marginal_stack(self, assignments) -> np.ndarray:
        return np.stack([mps_single_site_marginals(self, a)
                         for a in assignments])

    def sample(self, count: int, seed: int, ordering=None):
        return mps_sample_batch(self, count, seed, ordering=ordering)

    def sweep_cache(self, samples):
        return _ChainCache(self, samples, self.n_sites - 1)

    def sweep_epoch(self, dataset, config, **kwargs):
        return mps_sweep_epoch(self, dataset, config, **kwargs)


def mps_build_random(n_sites: int, d_max: int, seed: int) -> MpsModel:
    """Random MPS with capacity-capped bonds, canonicalized to the last site."""
    if n_sites < 2:
        raise TopologyError("n_sites must be >= 2")
    if d_max < 1:
        raise DimensionError("d_max must be >= 1")
    dims = [1]
    for i in range(n_sites - 1):
        left_sites = min(i + 1, 62)
        right_sites = min(n_sites - 1 - i, 62)
        dims.append(min(d_max, 2 ** left_sites, 2 ** right_sites))
    dims.append(1)
    rng = np.random.default_rng(seed)
    tensors = [DenseTensor(rng.uniform(-1.0, 1.0, size=(dims[i], 2, dims[i + 1])),
                           validate=False)
               for i in range(n_sites)]
    model = MpsModel(tensors, canonical_center=None, d_max=d_max)
    mps_canonicalize(model, n_sites - 1)
    return model


def _push(model: MpsModel, i: int, j: int):
    """QR-push the non-canonical part from site i to adjacent site j."""
    t, tj = model.tensors[i], model.tensors[j]
    if j == i + 1:
        res = qr_split(t, [0, 1], [2])
        q = res.q.data
        merged = np.tensordot(res.r.data, tj.data, axes=([1], [0]))
    elif j == i - 1:
        res = qr_split(t, [1, 2], [0])
        q = np.ascontiguousarray(np.moveaxis(res.q.data, -1, 0))
        merged = np.tensordot(tj.data, res.r.data, axes=([2], [1]))
    else:
        raise TopologyError(f"sites {i} and {j} are not adjacent")
    model.tensors[i] = DenseTensor(q, 0.0, validate=False)
    model.tensors[j] = DenseTensor(
        merged, tj.log_scale + res.r.log_scale, validate=False).rescaled()


def mps_canonicalize(model: MpsModel, center: int) -> MpsModel:
    if not 0 <= center < model.n_sites:
        raise TopologyError(f"center {center} out of range")
    if model.canonical_center is None:
        for i in range(center):
            _push(model, i, i + 1)
        for i in range(model.n_sites - 1, center, -1):
            _push(model, i, i - 1)
    else:
        c = model.canonical_center
        step = 1 if center > c else -1
        for i in range(c, center, step):
            _push(model, i, i + step)
    model.canonical_center = center
    return model


def mps_max_canonical_deviation(model: MpsModel) -> float:
    if model.canonical_center is None:
        raise StateError("model has no canonical center")
    worst = 0.0
    for i, t in enumerate(model.tensors):
        if i != model.canonical_center:
            axis = 2 if i < model.canonical_center else 0
            worst = max(worst, _isometry_deviation(t, axis))
    return worst


mps_partition_function = partition_function


def mps_amplitudes(model: MpsModel, samples) -> tuple:
    """(log|Psi|, sign) arrays for a batch of pixel configurations."""
    samples = np.asarray(samples, dtype=np.int64)
    if samples.ndim == 1:
        samples = samples[np.newaxis]
    if samples.shape[1] != model.n_sites:
        raise DimensionError(
            f"samples have {samples.shape[1]} pixels, model has {model.n_sites}")
    s_count = samples.shape[0]
    vec = np.ones((s_count, 1))
    logs = np.zeros(s_count)
    for i, t in enumerate(model.tensors):
        slab = t.data[:, samples[:, i], :]            # (l, S, r)
        vec = np.einsum('sl,lsr->sr', vec, slab)
        logs += t.log_scale
        vec, logs = _rescale_rows(vec, logs)
    return _signed_logs(vec[:, 0], logs)


def mps_log_probs(model: MpsModel, samples) -> np.ndarray:
    log_z = mps_partition_function(model)
    amps = mps_amplitudes(model, _check_pixel_values(samples))
    return _born_log_probs(log_z, *amps)


# -- marginals and correlations (doubled chain contractions) ------------------

def _doubled_edge(t, op, mat, from_left):
    """Transfer the doubled boundary matrix through one site."""
    if from_left:
        x = np.tensordot(mat, t.data, axes=([0], [0]))         # (b, p, r)
        x = np.einsum('bpr,pq->bqr', x, op)
        out = np.tensordot(x, t.data, axes=([0, 1], [0, 1]))   # (r, r')
    else:
        x = np.tensordot(t.data, mat, axes=([2], [0]))         # (l, p, r')
        x = np.einsum('lpr,pq->lqr', x, op)
        out = np.tensordot(x, t.data, axes=([1, 2], [1, 2]))   # (l, l')
    m = float(np.max(np.abs(out)))
    return out / m if m > 0 else out


def mps_single_site_marginals(model: MpsModel, assignment=None) -> np.ndarray:
    """(n_sites, 2) conditional marginals of every pixel given ``assignment``,
    from the doubled boundary matrices left and right of each site.

    Clamped pixels get a one-hot row.  Raises if the clamped assignment has
    zero total probability mass.
    """
    assignment = dict(assignment or {})
    n = model.n_sites
    ops = _clamp_weights(n, [assignment])[0][:, :, None] * _EYE2
    lefts = [np.ones((1, 1))]
    for i in range(n - 1):
        lefts.append(_doubled_edge(model.tensors[i], ops[i], lefts[-1], True))
    rights = [np.ones((1, 1))]
    for i in range(n - 1, 0, -1):
        rights.append(_doubled_edge(model.tensors[i], ops[i], rights[-1], False))
    rights = rights[::-1]
    out = np.empty((1, n, 2))
    for i in range(n):
        t = model.tensors[i].data
        x = np.tensordot(lefts[i], t, axes=([0], [0]))         # (b, p, r)
        y = np.tensordot(x, rights[i], axes=([2], [0]))        # (b, p, r')
        out[0, i] = np.diag(np.tensordot(y, t, axes=([0, 2], [0, 2])))
    return _normalized_marginals(out, [assignment])[0]


# The model-generic functions, under their MPS names.
mps_nll = nll
mps_marginal = marginal
mps_correlation = correlation
mps_correlation_map = correlation_map


# -- training ------------------------------------------------------------------

class _ChainCache:
    """Clamped environments left and right of the moving center."""

    def __init__(self, model: MpsModel, samples: np.ndarray, center: int):
        self.model = model
        self.samples = np.asarray(samples, dtype=np.int64)
        self.lefts = {0: np.ones((self.samples.shape[0], 1))}
        self.rights = {model.n_sites - 1: np.ones((self.samples.shape[0], 1))}
        for i in range(center):
            self.refresh_left(i + 1)
        for i in range(model.n_sites - 1, center, -1):
            self.refresh_right(i - 1)

    def refresh_left(self, i: int):
        """Environment of sites < i (depends on site i-1 and lefts[i-1])."""
        t = self.model.tensors[i - 1].data
        slab = t[:, self.samples[:, i - 1], :]
        self.lefts[i] = _rescale_batch(np.einsum('sl,lsr->sr',
                                                 self.lefts[i - 1], slab))

    def refresh_right(self, i: int):
        t = self.model.tensors[i + 1].data
        slab = t[:, self.samples[:, i + 1], :]
        self.rights[i] = _rescale_batch(np.einsum('lsr,sr->sl', slab,
                                                  self.rights[i + 1]))

    def onehot(self, i: int):
        return _EYE2[self.samples[:, i]]

    def refresh_move(self, u: int, v: int):
        """Update the one environment changed by moving the center u -> v."""
        if v == u + 1:
            self.refresh_left(v)
        else:
            self.refresh_right(v)

    def center_parts(self, i: int):
        return [(self.lefts[i], None), (self.onehot(i), None),
                (self.rights[i], None)]


def _mps_merge_step(model, cache, i, j, cfg, stats, center_to):
    """Two-site update across the (i, j) bond; center lands on center_to."""
    _fold_scale_data(model.tensors, i)
    _fold_scale_data(model.tensors, j)
    left, right = (i, j) if j == i + 1 else (j, i)
    tl, tr = model.tensors[left], model.tensors[right]
    dl = tl.shape[0]
    dr = tr.shape[2]
    lmat = tl.data.reshape(dl * 2, -1)            # (left env x pixel, bond)
    rmat = tr.data.reshape(-1, 2 * dr)            # (bond, pixel x right env)
    ul = (cache.lefts[left][:, :, None] * cache.onehot(left)[:, None, :])
    ul = ul.reshape(ul.shape[0], -1)
    vr = (cache.onehot(right)[:, :, None] * cache.rights[right][:, None, :])
    vr = vr.reshape(vr.shape[0], -1)
    l_new, r_new, err = guarded_merge_factors(
        lmat, rmat, ul, vr, cfg, stats, center_on_j=(center_to == right))
    stats.truncation_errors[-1].append(err)
    rank = l_new.shape[1]
    model.tensors[left] = DenseTensor(l_new.reshape(dl, 2, rank), 0.0,
                                      validate=False)
    model.tensors[right] = DenseTensor(r_new.reshape(rank, 2, dr), 0.0,
                                       validate=False)
    model.canonical_center = center_to
    cache.refresh_move(j if center_to == i else i, center_to)


def mps_sweep_epoch(model: MpsModel, dataset, config: TrainConfig, *,
                    cache=None, stats=None, on_step=None):
    """Right-to-left then left-to-right pass, every site updated once each."""
    samples, cache, stats = _enter_epoch(model, dataset, config, cache, stats)
    last = model.n_sites - 1
    started = time.perf_counter()
    for sites in (list(range(last, -1, -1)), list(range(last + 1))):
        steps = [(i, j, True) for i, j in zip(sites, sites[1:] + [None])]
        _execute_pass(model, cache, config, steps, stats, on_step, _push,
                      _mps_merge_step)
    return _exit_epoch(model, stats, time.perf_counter() - started,
                       mps_nll(model, samples))


def mps_train(dataset, config: TrainConfig, *, model: MpsModel = None,
              on_epoch=None):
    """Train an MPS Born machine with the shared loop, ``training.train``;
    builds a fresh random model unless given one."""
    if model is None:
        samples = dataset.samples if hasattr(dataset, "samples") else np.asarray(dataset)
        model = mps_build_random(samples.shape[1], config.d_max, config.seed)
    return train(model, dataset, config, on_epoch=on_epoch)


# -- sampling -------------------------------------------------------------------

def mps_sample_batch(model: MpsModel, count: int, seed: int, *,
                     ordering=None, return_chain_log: bool = False):
    """Ancestral sampling from exact conditionals, away from the center.

    With the center at an end of the chain, the other tensors are
    isometries toward it and the conditionals need no environment: at site
    0 the chain is sampled left to right, at the last site (where training
    leaves it) right to left, on the model itself.  A center elsewhere is
    first moved to the nearer end on a copy.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if model.canonical_center is None:
        raise StateError("sampling requires a canonicalized model")
    n = model.n_sites
    center = model.canonical_center
    if center not in (0, n - 1):
        model = mps_canonicalize(model.copy(), 0 if center < n - 1 - center
                                 else n - 1)
    tensors = [t.data for t in model.tensors]
    reverse = model.canonical_center == n - 1
    if reverse:
        tensors = [t.transpose(2, 1, 0) for t in reversed(tensors)]
    uniforms = np.random.default_rng(seed).random((count, n))
    samples = np.zeros((count, n), dtype=np.uint8)
    chain_log = np.zeros(count)
    vec = np.ones((count, 1))
    for i, t in enumerate(tensors):
        a0 = vec @ t[:, 0, :]
        a1 = vec @ t[:, 1, :]
        p0 = np.sum(a0 * a0, axis=1)
        p1 = np.sum(a1 * a1, axis=1)
        total = p0 + p1
        if np.any(total <= 0.0):
            site = n - 1 - i if reverse else i
            raise DegenerateDistributionError(
                f"zero conditional mass at site {site}")
        prob1 = p1 / total
        draw = (uniforms[:, i] < prob1).astype(np.uint8)
        samples[:, i] = draw
        chain_log += np.log(np.where(draw == 1, prob1, 1.0 - prob1))
        vec = _rescale_batch(np.where(draw[:, None] == 1, a1, a0))
    if reverse:
        samples = np.ascontiguousarray(samples[:, ::-1])
    if ordering is not None:
        from .data import invert_ordering
        samples = invert_ordering(samples, ordering)
    if return_chain_log:
        return samples, chain_log
    return samples
