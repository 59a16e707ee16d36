"""Matrix product state Born machine baseline.

A chain of 3-way tensors (left bond, pixel, right bond) with dimension-1
boundary bonds.  ``MpsModel`` answers the topology question of the tree's
Born-machine interface (``ttn.BornMachine.axis_sites``), so the canonical
form, the QR push, the training cache, the sweep walk, the one- and two-site
steps, the NLL, marginals and correlations are the tree's own code, and the
comparisons between the two models are like for like.  This module supplies
the chain's topology, amplitudes (on the tree's node contraction), marginals
(on the identities of the canonical form, as the tree's) and sampler.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateDistributionError, DimensionError, StateError,
                     TopologyError)
# Not called here; ``perfbench`` wraps ``mps.qr_split`` by name.
from .tensor import DenseTensor, qr_split  # noqa: F401
from .training import (TrainConfig, _exit_epoch, _sweep,
                       guarded_merge_factors, train)
from .ttn import (BornMachine, Pixel, _born_log_probs, _check_pixel_values,
                  _clamp_weights, _contract_node, _normalized_marginals,
                  _one_hot, _rescale_batch, _signed_logs, canonicalize,
                  correlation, correlation_map, marginal,
                  max_canonical_deviation, nll, partition_function, push_qr,
                  single_site_marginals)


class MpsModel(BornMachine):
    """Open-boundary MPS over binary pixels with a canonical center."""

    def __init__(self, tensors, canonical_center=None, d_max=None):
        self.tensors = list(tensors)
        if len(self.tensors) < 2:
            raise TopologyError("an MPS needs at least 2 sites")
        self.canonical_center = canonical_center
        self.d_max = d_max
        self._check_shapes()

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    def axis_sites(self, i: int):
        return [i - 1 if i > 0 else None, Pixel(i),
                i + 1 if i < self.n_sites - 1 else None]

    def path(self, i: int, j: int):
        step = 1 if j >= i else -1
        return list(range(i, j + step, step))

    def bond_dims(self) -> dict:
        return {i: self.tensors[i].shape[0] for i in range(1, self.n_sites)}

    # -- the Born-machine interface (see ``ttn.BornMachine``) ---------------

    model_type = "mps"
    first_tensor = 0
    first_leaf = 0

    def log_probs(self, samples) -> np.ndarray:
        return mps_log_probs(self, samples)

    def single_site_marginals(self, assignment=None) -> np.ndarray:
        return mps_single_site_marginals(self, assignment)

    def marginal_stack(self, assignments) -> np.ndarray:
        return _marginal_stack(self, assignments)

    def sample(self, count: int, seed: int, ordering=None):
        return mps_sample_batch(self, count, seed, ordering=ordering)

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


# The tree's canonical-form functions, under their MPS names.
mps_canonicalize = canonicalize
mps_max_canonical_deviation = max_canonical_deviation
mps_partition_function = partition_function


def mps_amplitudes(model: MpsModel, samples) -> tuple:
    """(log|Psi|, sign) arrays for a batch of pixel configurations."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.int64))
    s_count, n = samples.shape
    if n != model.n_sites:
        raise DimensionError(
            f"samples have {n} pixels, model has {model.n_sites}")
    onehot, zeros = _one_hot(samples.T), np.zeros(s_count)     # (n, S, 2)
    msg = (np.ones((s_count, 1)), zeros)
    for i, t in enumerate(model.tensors):
        msg = _contract_node(t, [msg, (onehot[i], zeros)], 2)
    return _signed_logs(msg[0][:, 0], msg[1])


def mps_log_probs(model: MpsModel, samples) -> np.ndarray:
    log_z = mps_partition_function(model)
    amps = mps_amplitudes(model, _check_pixel_values(samples))
    return _born_log_probs(log_z, *amps)


# -- marginals and correlations (doubled chain, canonical identities) --------

def _marginal_stack(model: MpsModel, assignments) -> np.ndarray:
    """(B, n_sites, 2) conditional marginals of every pixel, one block per
    clamp assignment, as ``ttn._marginal_stack`` gives them for the tree.

    Left of the canonical center c the tensors are left isometries and right
    of it right isometries, so the doubled message is the identity from the
    left end up to ``lo``, the first of c and the clamped pixels, and from
    the right end down to ``hi``, the last of them (without c, the ends).
    """
    n, count = model.n_sites, len(assignments)
    ops = _clamp_weights(n, assignments)[:, :, None, :, None]
    clamped = {k for assignment in assignments for k in assignment}
    c = model.canonical_center
    lo, hi = (0, n - 1) if c is None else (min(clamped | {c}),
                                           max(clamped | {c}))
    # through an unclamped isometry, from its isometric side, a message
    # keeps its trace and needs no rescaling
    free = set() if c is None else set(range(n)) - clamped

    def through(i, t, m, keeps_trace):
        # (m·t, the doubled message past t), t's incoming bond first
        da, _, db = t.shape
        y = (t[None] if m is None else np.matmul(
            m, t.reshape(da, 2 * db))).reshape(-1, da, 2, db)
        x = (y * ops[:, i] if i in clamped else y).reshape(-1, 2 * da, db)
        m = np.matmul(x.transpose(0, 2, 1), t.reshape(2 * da, db))
        return y, m if keeps_trace else _rescale_batch(m)

    lefts, m = {}, None                  # None stands for the identity
    for i in range(lo, n - 1):            # store the messages past lo
        m = lefts[i + 1] = through(i, model.tensors[i].data, m,
                                   i in free and i > c)[1]
    out, m = np.empty((count, n, 2)), None
    for i in range(n - 1, -1, -1):        # read every marginal
        t = np.ascontiguousarray(model.tensors[i].data.transpose(2, 1, 0))
        y, m = (t[None], None) if i > hi else through(i, t, m,
                                                      i in free and i < c)
        if i > lo:
            y = np.matmul(y.reshape(len(y), -1, t.shape[2]),
                          lefts.pop(i)).reshape(-1, *t.shape)
        out[:, i] = np.sum(y * t, axis=(1, 3))
    return _normalized_marginals(out, assignments)


# The model-generic functions, under their MPS names.
mps_nll = nll
mps_single_site_marginals = single_site_marginals
mps_marginal = marginal
mps_correlation = correlation
mps_correlation_map = correlation_map


# -- training ------------------------------------------------------------------

def mps_sweep_epoch(model: MpsModel, dataset, config: TrainConfig, *,
                    cache=None, stats=None, on_step=None):
    """Right-to-left then left-to-right pass, every site updated once each,
    by the tree's sweep (``training._sweep``)."""
    samples, stats, seconds = _sweep(model, dataset, config, cache, stats,
                                     on_step, push_qr, guarded_merge_factors)
    return _exit_epoch(model, stats, seconds, mps_nll(model, samples))


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
