"""Matrix product state Born machine baseline.

A chain of 3-way tensors (left bond, pixel, right bond) with dimension-1
boundary bonds.  ``MpsModel`` answers the topology question of the tree's
Born-machine interface (``ttn.BornMachine.axis_sites``), so the canonical
form, the QR push, the training cache, the sweep walk, the one- and two-site
steps, the evaluation and sampling drivers, the NLL, marginals and
correlations are the tree's own code, and the comparisons between the two
models are like for like.  This module supplies the chain's topology, its
amplitude and sampling kernels (both walking n/2 two-site blocks) and
marginals (on the identities of the canonical form, as the tree's).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, TopologyError
from .sampling import _draw_pixels, sample_batch
# Not called here; ``perfbench`` wraps ``mps.qr_split`` by name.
from .tensor import DenseTensor, qr_split  # noqa: F401
from .training import (TrainConfig, _exit_epoch, _sweep,
                       guarded_merge_factors, train)
from .ttn import (BornMachine, Pixel, _clamp_weights, _normalized_marginals,
                  _rescale_batch, _rescale_rows, _rooted_copy, _signed_logs,
                  canonicalize, correlation_map, log_probs,
                  max_canonical_deviation, nll, push_qr,
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

    def _amplitude_kernel(self):
        # the uint8 row; one two-site block product, its gather and rescale
        return (10 * self.max_bond() + 8 + self.n_sites // 8,
                lambda rows: mps_amplitudes(self, rows))

    def _sampler(self):
        # one uniform per pixel, from a copy centred at the nearer end; one
        # two-site block product, the uniforms and the rows
        n, c = self.n_sites, self.canonical_center
        work = _rooted_copy(self, 0 if c < n - 1 - c else n - 1)
        return (4 * self.max_bond() + 3 * n // 2, n,
                lambda uniforms: _draw(work, uniforms))


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
    canonicalize(model, n_sites - 1)
    return model


# The tree's functions, under their MPS names.
mps_max_canonical_deviation = max_canonical_deviation
mps_log_probs = log_probs
mps_sample_batch = sample_batch


def _pair_blocks(tensors):
    """Yield the chain in walk order as (Da, 4, Dc) blocks of sites 2k and
    2k+1, indexed by 2 x_first + x_second, then the plain (Da, 2, Db) last
    site when n is odd; one block is built at a time."""
    for a, b in zip(tensors[0::2], tensors[1::2]):
        yield (a.reshape(-1, a.shape[2]) @ b.reshape(b.shape[0], -1)
               ).reshape(a.shape[0], 4, -1)
    if len(tensors) % 2:
        yield tensors[-1]


def mps_amplitudes(model: MpsModel, samples) -> tuple:
    """(log|Psi|, sign) arrays for a (S, n_sites) batch of checked pixel
    configurations.  Each row's message takes one GEMM per two-site block,
    then a gather at the row's pair index."""
    s_count = samples.shape[0]
    rows, msg = np.arange(s_count), np.ones((s_count, 1))
    logs = np.full(s_count, sum(t.log_scale for t in model.tensors))
    for k, b in enumerate(_pair_blocks([t.data for t in model.tensors])):
        da, m, db = b.shape
        index = samples[:, 2 * k].astype(np.intp)
        if m == 4:
            index = 2 * index + samples[:, 2 * k + 1]
        x = (msg @ b.reshape(da, -1)).reshape(s_count, m, db)
        msg, logs = _rescale_rows(x[rows, index], logs)
    return _signed_logs(msg[:, 0], logs)


# -- marginals and correlations (doubled chain, canonical identities) --------

def _marginal_stack(model: MpsModel, assignments) -> np.ndarray:
    """(B, n_sites, 2) conditional marginals of every pixel, one block per
    clamp assignment, as ``ttn._doubled_marginals`` gives them for the tree.

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

def _draw(model: MpsModel, uniforms):
    """(samples, chain log) of the rows that ``uniforms`` draw from a chain
    canonical at an end, column i drawing the i-th pixel in sampling order.

    With the center at an end, the other tensors are isometries toward it
    and the conditionals need no environment: at site 0 the chain is
    sampled left to right, at the last site (where training leaves it)
    right to left.  It is walked in two-site blocks B (``_pair_blocks``):
    from the pure state v on its incoming bond, a block's pixels are drawn
    in turn from its exact weights |v . B[x]|^2, and v moves on to the
    drawn row, normalized.  The chain log sums the log of each drawn weight
    over the block's total, so no conditional near 1 is subtracted from 1.
    """
    count, n = uniforms.shape
    tensors = [t.data for t in model.tensors]
    reverse = model.canonical_center == n - 1
    if reverse:
        tensors = [t.transpose(2, 1, 0) for t in reversed(tensors)]
    rows = np.arange(count)
    samples = np.empty((count, n), dtype=np.uint8)
    chain_log, vec = np.zeros(count), np.ones((count, 1))
    for k, b in enumerate(_pair_blocks(tensors)):
        da, m, db = b.shape
        a = (vec @ b.reshape(da, -1)).reshape(count, m, db)
        w = np.einsum("rxb,rxb->rx", a, a)
        cols = slice(2 * k, 2 * k + m // 2)
        samples[:, cols], index = _draw_pixels(
            w, uniforms[:, cols], n - 1 - 2 * k if reverse else 2 * k)
        drawn = w[rows, index]
        chain_log += np.log(drawn / w.sum(axis=1))
        vec = a[rows, index] / np.sqrt(drawn)[:, None]
    return (samples[:, ::-1] if reverse else samples), chain_log
