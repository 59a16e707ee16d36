"""Matrix product state Born machine baseline.

A chain of 3-way tensors (left bond, pixel, right bond) with dimension-1
boundary bonds.  ``MpsModel`` answers the topology question of the
Born-machine interface (``born.BornMachine.axis_sites``), so the canonical
form, the evaluation driver, the NLL, marginals and correlations (through
``born``), training and sampling are the code the tree runs too, and the
two models compare like for like.  This module supplies the chain's
topology, its amplitude kernel, site by site except for pairs cheap enough
to block, and the rooted node table of the sampler and the marginal pass,
on n/2 two-site blocks.
"""

from __future__ import annotations

import numpy as np

from . import sampling
from .born import (BornMachine, Pixel, bond_capacity, canonicalize,
                   check_int, correlation_map, log_probs,
                   max_canonical_deviation, nll, push_qr, random_tensors,
                   rescale_rows, rooted_copy, sample_matrix, signed_logs,
                   single_site_marginals)
from .errors import DimensionError, TopologyError
# Not called here; ``perfbench`` wraps ``mps.qr_split`` by name.
from .tensor import qr_split  # noqa: F401
from .training import (TrainConfig, exit_epoch, guarded_merge_factors,
                       sweep, train)


class MpsModel(BornMachine):
    """Open-boundary MPS over binary pixels with a canonical center."""

    def _check_size(self):
        if self.n_sites < 2:
            raise TopologyError("an MPS needs at least 2 sites")

    def axis_sites(self, i: int):
        return [i - 1 if i > 0 else None, Pixel(i),
                i + 1 if i < self.n_sites - 1 else None]

    def path(self, i: int, j: int):
        step = 1 if j >= i else -1
        return list(range(i, j + step, step))

    # -- the Born-machine interface (see ``born.BornMachine``) --------------

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
        vars(self).update(vars(rooted_copy(model, root)))
        self.nodes = _PairNodes(self)

    def _marginal_view(self):
        return self


def mps_build_random(n_sites: int, d_max: int, seed: int) -> MpsModel:
    """Random MPS with capacity-capped bonds, canonicalized to the last site.
    ``n_sites`` and ``d_max`` are integers (numpy ones too, never a bool;
    else ValueError), >= 2 (else TopologyError) and >= 1 (else
    DimensionError)."""
    check_int("n_sites", n_sites)
    check_int("d_max", d_max)
    if n_sites < 2:
        raise TopologyError("n_sites must be >= 2")
    if d_max < 1:
        raise DimensionError("d_max must be >= 1")
    # bond i has i pixels on its left
    dims = [1] + [bond_capacity(d_max, i, n_sites)
                  for i in range(1, n_sites)] + [1]
    shapes = [(dl, 2, dr) for dl, dr in zip(dims, dims[1:])]
    model = MpsModel(random_tensors(shapes, seed), d_max=d_max)
    canonicalize(model, n_sites - 1)
    return model


# The model-generic functions (``born``), under their MPS names.
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
# Rows are rescaled every _SPAN pairs: at D = 32, spans of 8, 16 and 32 took
# 0.74, 0.68 and 0.64 of the time of a division per pair (medians, README)
_SPAN, _FLOOR = 16, 2.0 ** -800


def mps_amplitudes(model: MpsModel, samples) -> tuple:
    """(log|Psi|, sign) arrays, without ``log_norm``, of a (S, n_sites) batch
    of checked pixel configurations.  Each row's message takes one GEMM and
    one gather per site, or per pair below ``_BLOCK_MADDS``.  Non-centre
    slices A[:, x, :] of a canonical chain have operator norm <= 1, so rows
    are rescaled only every ``_SPAN`` pairs, before the centre's pair and at
    the end; a row then below ``_FLOOR`` is walked again from the last
    rescale, one rescale per pair to the end."""
    tensors, c = [t.data for t in model.tensors], model.canonical_center
    stop = (len(tensors) + 1) // 2
    msg_out, logs_out = np.empty(len(samples)), np.empty(len(samples))

    def walk(msg, logs, rows, ids, first, span):   # pairs first .. stop - 1
        last, last_logs, at = msg, logs, np.arange(len(ids))
        for p in range(first, stop):
            pair = tensors[2 * p:2 * p + 2]   # a lone last site: one part
            madds = 2 * pair[0].size * pair[-1].shape[2]     # 4 Da Db Dc
            parts = [pair] if madds < _BLOCK_MADDS else [[t] for t in pair]
            for j, part in zip((2 * p, 2 * p + 1), parts):
                b = _pair_block(*part)
                da, m, db = b.shape
                index = rows[:, j].astype(np.intp)
                if m == 4:
                    index = 2 * index + rows[:, j + 1]
                msg = (msg @ b.reshape(da, -1)).reshape(-1, m, db)[at, index]
            if (p + 1) % span and p + 1 not in (c // 2, stop):
                continue    # inside a span: no check, no rescale
            if p > first:   # pairs since ``last``: rows may have underflowed
                low = np.flatnonzero(np.abs(msg).max(axis=1) < _FLOOR)
                redo = low[last[low].any(axis=1)]   # not zero at ``last``
                if len(redo):
                    walk(last[redo], last_logs[redo], rows[redo], ids[redo],
                         first, 1)
                    keep = np.delete(at, redo)
                    if not len(keep):
                        return
                    msg, logs, rows, ids = (msg[keep], logs[keep], rows[keep],
                                            ids[keep])
                    at = np.arange(len(ids))
            msg, logs = rescale_rows(msg, logs)
            last, last_logs, first = msg, logs, p + 1
        msg_out[ids], logs_out[ids] = msg[:, 0], logs

    walk(np.ones((len(samples), 1)), np.zeros(len(samples)), samples,
         np.arange(len(samples)), 0, 1 if c is None else _SPAN)
    return signed_logs(msg_out, logs_out)


def mps_sweep_epoch(model: MpsModel, dataset, config: TrainConfig, *,
                    cache=None, stats=None, on_step=None):
    """Right-to-left then left-to-right pass, every site updated once each,
    by the tree's sweep (``training.sweep``)."""
    samples, stats, seconds = sweep(model, dataset, config, cache, stats,
                                    on_step, push_qr, guarded_merge_factors)
    return exit_epoch(model, stats, seconds, mps_nll(model, samples))


def mps_train(dataset, config: TrainConfig, *, model: MpsModel = None,
              on_epoch=None):
    """Train an MPS Born machine with the shared loop, ``training.train``;
    builds a fresh random model, as wide as the rows, unless given one."""
    samples = sample_matrix(dataset)   # its width is checked by ``train``
    if model is None:
        model = mps_build_random(samples.shape[1], config.d_max, config.seed)
    return train(model, samples, config, on_epoch=on_epoch)
