"""Matrix product state Born machine baseline.

A chain of 3-way tensors (left bond, pixel, right bond) with dimension-1
boundary bonds.  ``MpsModel`` answers the topology question of the tree's
Born-machine interface (``ttn.BornMachine.axis_sites``), so the canonical
form, training, the evaluation and sampling drivers, the NLL, marginals and
correlations are the tree's own code, and the two models compare like for
like.  This module supplies the chain's topology, its amplitude kernel,
site by site except for pairs cheap enough to block, and the rooted node
table of the sampler and the marginal pass, on n/2 two-site blocks.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, TopologyError
from . import sampling
# Not called here; ``perfbench`` wraps ``mps.qr_split`` by name.
from .tensor import DenseTensor, qr_split  # noqa: F401
from .training import (TrainConfig, _exit_epoch, _sweep,
                       guarded_merge_factors, train)
from .ttn import (BornMachine, Pixel, _rescale_rows, _rooted_copy,
                  _signed_logs, canonicalize, correlation_map, log_probs,
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
        # per model, so that perfbench's ttn.log_probs counts no chain rows
        return mps_log_probs(self, samples)

    def single_site_marginals(self, assignment=None) -> np.ndarray:
        # perfbench's mps.single_site_marginals span fires only through here
        return mps_single_site_marginals(self, assignment)

    def sweep_epoch(self, dataset, config, **kwargs):
        # perfbench's mps.sweep span fires only through here
        return mps_sweep_epoch(self, dataset, config, **kwargs)

    def _amplitude_kernel(self):
        # the uint8 row; a pair's block product (or a site's), its gather
        return (10 * self.max_bond() + 8 + self.n_sites // 8,
                lambda rows: mps_amplitudes(self, rows))

    def _sample_view(self):     # a block product and its message per row
        return _RootedChain(self), 8 * self.max_bond()

    def _marginal_view(self):
        work = _RootedChain(self)
        work.nodes = [work.nodes[k] for k in range(len(work.nodes))]
        return work


class _RootedChain(MpsModel):
    """A copy of a chain canonical at the end nearer its center (the last
    site if it has none) with its ``_PairNodes`` table, which
    ``_marginal_view`` builds once for every pass made on the copy."""

    def __init__(self, model: MpsModel):
        n, c = model.n_sites, model.canonical_center
        root = 0 if c is not None and c < n - 1 - c else n - 1
        vars(self).update(vars(_rooted_copy(model, root)))
        self.nodes = _PairNodes(self)

    def _marginal_view(self):
        return self


def mps_build_random(n_sites: int, d_max: int, seed: int) -> MpsModel:
    """Random MPS with capacity-capped bonds, canonicalized to the last site."""
    if n_sites < 2:
        raise TopologyError("n_sites must be >= 2")
    if d_max < 1:
        raise DimensionError("d_max must be >= 1")
    # bond i holds at most 2^i and 2^(n - i) states (exponents capped at 62)
    dims = [1] + [min(d_max, 2 ** min(i, 62), 2 ** min(n_sites - i, 62))
                  for i in range(1, n_sites)] + [1]
    rng = np.random.default_rng(seed)
    tensors = [DenseTensor(rng.uniform(-1.0, 1.0, size=(dl, 2, dr)),
                           validate=False) for dl, dr in zip(dims, dims[1:])]
    model = MpsModel(tensors, canonical_center=None, d_max=d_max)
    canonicalize(model, n_sites - 1)
    return model


# The tree's and the model-generic functions, under their MPS names.
mps_max_canonical_deviation = max_canonical_deviation
mps_log_probs = log_probs
mps_nll = nll
mps_single_site_marginals = single_site_marginals
mps_correlation_map = correlation_map


def mps_sample_batch(model: MpsModel, count: int, seed: int, **kwargs):
    """``sampling.sample_batch``, looked up per call, so that a wrap of the
    driver both models share (``perfbench``) times the chain's calls too."""
    return sampling.sample_batch(model, count, seed, **kwargs)


def _pair_block(a, b=None):
    """The (Da, 4, Dc) block of two neighbouring sites, indexed by
    2 x_a + x_b, or the plain (Da, 2, Db) site ``a`` when it has no pair."""
    if b is None:
        return a
    return (a.reshape(-1, a.shape[2]) @ b.reshape(b.shape[0], -1)
            ).reshape(a.shape[0], 4, -1)


class _PairNodes:
    """The rooted node table (``sampling``) of a chain canonical at an end:
    node k is the k-th pair of sites from that end, its contiguous block
    (``_pair_block``) built when a walk reads it, with node k + 1 as its
    second child.  When n is odd, the last site is a node of its own."""

    def __init__(self, model: MpsModel):
        self.tensors = [t.data for t in model.tensors]
        self.reverse = model.canonical_center == model.n_sites - 1

    def __len__(self):
        return (len(self.tensors) + 1) // 2

    def __getitem__(self, k: int):
        j = len(self) - 1 - k if self.reverse else k
        block = _pair_block(*self.tensors[2 * j:2 * j + 2])
        return (np.ascontiguousarray(block.transpose(2, 1, 0))
                if self.reverse else block,
                slice(2 * j, 2 * j + 2), k + 1 if k + 1 < len(self) else None)


# A pair's block costs 4 Da Db Dc multiply-adds; from the D = 32 count up
# that outweighs the GEMM call and gather it saves: walk the two sites.
_BLOCK_MADDS = 4 * 32 ** 3


def mps_amplitudes(model: MpsModel, samples) -> tuple:
    """(log|Psi|, sign) arrays, without ``log_norm``, of a (S, n_sites) batch
    of checked pixel configurations.  Each row's message takes one GEMM and
    one gather per site, or per pair below ``_BLOCK_MADDS``, and one rescale
    per pair."""
    s_count = samples.shape[0]
    rows, msg = np.arange(s_count), np.ones((s_count, 1))
    logs = np.zeros(s_count)
    tensors = [t.data for t in model.tensors]
    for k in range(0, model.n_sites, 2):
        pair = tensors[k:k + 2]     # a lone last site: one part either way
        madds = 2 * pair[0].size * pair[-1].shape[2]     # 4 Da Db Dc
        parts = [pair] if madds < _BLOCK_MADDS else [[t] for t in pair]
        for j, part in zip((k, k + 1), parts):
            b = _pair_block(*part)
            da, m, db = b.shape
            index = samples[:, j].astype(np.intp)
            if m == 4:
                index = 2 * index + samples[:, j + 1]
            msg = (msg @ b.reshape(da, -1)).reshape(-1, m, db)[rows, index]
        msg, logs = _rescale_rows(msg, logs)
    return _signed_logs(msg[:, 0], logs)


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
