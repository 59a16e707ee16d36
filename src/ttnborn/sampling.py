"""Direct (ancestral) sampling from a trained model.

Configurations are drawn from the exact Born distribution p(x), so a
returned row has exactly its model probability; no Markov chain is
involved.  ``sample_batch`` draws for both models, chunk by chunk, with
the model's kernel (``_sampler``) on a copy centred at the root for the
tree (``SampleState`` below) and at the nearer end for the chain
(``mps._draw``).

Rooted, every tree tensor below the root is an isometry, so the amplitude
vectors of each subtree are orthonormal.  A node entered with a pure state
``v`` has the amplitude matrix ``M = v . T`` over its two child bonds, and
the first child's pixels are distributed as
``p(x_first) = sum_s |M[:, s] . C_first(x_first)|^2`` over the open
sibling's bond index ``s``.  The sampler draws ``s`` with weight
``|M[:, s]|^2`` as an auxiliary variable, samples the first subtree from
the pure state ``M[:, s]``, then the second subtree from the pure state
``M^T C_first(x_first)``.  The auxiliary index is forgotten once the first
subtree is drawn, so the rows follow p(x) exactly while every message is a
per-row vector: one depth-first pass costs O(D^3) per node and row.

The pass stops at the group roots, the parents of two leaves (the root
itself at 4 pixels).  A group root entered with ``v`` draws the four pixels
below it in turn, each from its conditional of the 16 exact weights
``|v . B[x]|^2`` of the group's (16, D) block B (``ttn._group_blocks``).

The chain log returned with the samples is log p(x) itself, from the
amplitude assembled in the same pass: the completed subtree vectors carry
their log scales up to the root, where ``psi = C_2^T T_1 C_3``.

Batches are drawn in lockstep.  Row ``i`` uses the ``i``-th row of the
seeded generator's uniform stream, with one column per pixel and, for the
tree, one per internal node, so it is reproducible from (seed, i) alone
and batches of any size agree on shared indices.  A pixel is 1 iff its
uniform is below its conditional p1.  The column of a group root now goes
unused, since no bond index is drawn there.  (The tree's rows a seed
yields changed twice, when the auxiliary-index pass replaced per-pixel
conditionals and when group draws replaced the bottom auxiliary index; the
distribution did not.)
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDistributionError, StateError
from .ttn import (BornMachine, _node_data, _rescale_batch, _rescale_rows,
                  _row_chunks, partition_function)
from .data import OrderingDescriptor, invert_ordering
from . import pbm


def _draw_pixels(weights, uniforms, pixel: int):
    """Draw the q pixels that index (count, 2^q) exact weights, the first
    most significant, each from its conditional given those before it:
    pixel j is 1 iff ``uniforms[:, j]`` is below its p1.  Returns the
    (count, q) pixels and their (count,) index; ``pixel`` names the first
    in the error for zero mass."""
    count, q = uniforms.shape
    rows, index = np.arange(count), np.zeros(count, dtype=np.intp)
    x = np.empty((count, q), dtype=np.uint8)
    for j in range(q):
        w = weights.reshape(count, -1, 2, 2 ** (q - 1 - j))[rows, index]
        w = w.sum(axis=2)
        total = w[:, 0] + w[:, 1]
        # a drawn value has positive weight, so only the first level can
        # lack mass
        if j == 0 and not (total > 0.0).all():
            raise DegenerateDistributionError(
                f"zero conditional mass at pixel {pixel}")
        x[:, j] = uniforms[:, j] < w[:, 1] / total
        index = 2 * index + x[:, j]
    return x, index


class SampleState:
    """Lockstep sampling of one chunk of rows from a root-canonical tree
    with its group blocks (``ttn._RootedTree``)."""

    def __init__(self, model, uniforms: np.ndarray):
        self.model = model
        self.u = uniforms
        self.count = uniforms.shape[0]
        self.samples = np.zeros((self.count, model.n_sites), dtype=np.uint8)
        self.chain_log = np.zeros(self.count)
        self._rows = np.arange(self.count)
        self.blocks = model.blocks

    def _bond_index(self, weights, node: int):
        """Draw the smallest s with cum_weight[s] > u * total, so an index
        of zero weight is never chosen (u lies in [0, 1))."""
        cum = np.cumsum(weights, axis=1)
        total = cum[:, -1]
        if not np.all(total > 0.0):
            raise DegenerateDistributionError(
                f"zero mass at the bond index below node {node}")
        cut = self.u[:, self.model.n_sites + node - 1] * total
        return np.count_nonzero(cum <= cut[:, None], axis=1)

    def _group(self, node: int, v):
        """Draw the four pixels under group root ``node`` from the pure
        state ``v`` on its parent bond, one at a time from the 16 weights
        |v . B|^2 of its block B; return the drawn rows of B, rescaled."""
        block = self.blocks[node - self.model.n_sites // 4]
        first = 4 * node - self.model.n_sites
        self.samples[:, first:first + 4], index = _draw_pixels(
            (v @ block.T) ** 2, self.u[:, first:first + 4], first)
        return _rescale_rows(block[index], np.zeros(self.count))

    def _subtree(self, node: int, v):
        """Sample the subtree under ``node`` from the pure state ``v`` on its
        parent bond, through an auxiliary bond index ``s``; return its
        completed amplitude vector, rescaled to unit max, and the per-row
        log of the scale taken out of it."""
        if node >= self.model.n_sites // 4:
            return self._group(node, v)
        t = _node_data(self.model, node)
        da = t.shape[0]
        m = (_rescale_batch(v) @ t.reshape(da, -1)).reshape(
            (self.count,) + t.shape[1:])
        s = self._bond_index(np.einsum('rfs,rfs->rs', m, m), node)
        left, log1 = self._subtree(2 * node, m[self._rows, :, s])
        right, log2 = self._subtree(2 * node + 1,
                                    np.einsum('rf,rfs->rs', left, m))
        pair = left[:, :, None] * right[:, None, :]
        return _rescale_rows(pair.reshape(self.count, -1)
                             @ t.reshape(da, -1).T, log1 + log2)

    def run(self):
        """Fill and return ``samples`` and ``chain_log`` (log p of each
        row)."""
        model = self.model
        amp, log = self._subtree(1, np.ones((self.count, 1)))
        scale = sum(model.tensors[n].log_scale
                    for n in range(1, model.n_tensors + 1))
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(amp[:, 0])) + log + scale
        self.chain_log = 2.0 * log_abs - partition_function(model)
        return self.samples, self.chain_log


def sample_batch(model: BornMachine, count: int, seed: int, *,
                 ordering: OrderingDescriptor = None,
                 return_chain_log: bool = False):
    """Draw ``count`` exact samples of either model, a (count, pixels) matrix.

    Row ``i`` depends only on (seed, i), whatever ``count`` and the chunk
    size (the rows changed twice, as the module notes; their distribution
    did not).  With an ordering descriptor the padding slots are stripped
    and pixels are returned in raw image order.
    ``return_chain_log`` additionally returns each row's log p(x), computed
    from the amplitude the sampler assembled (not a sum of conditionals),
    for auditing against ``log_probs``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if model.canonical_center is None:
        raise StateError("sampling requires a canonicalized model")
    row_floats, columns, draw = model._sampler()
    rng = np.random.default_rng(seed)
    samples = np.empty((count, model.n_sites), dtype=np.uint8)
    chain_log = np.empty(count)
    for rows in _row_chunks(row_floats, count):
        # successive draws continue one stream, so row i does not depend on
        # the chunk size
        samples[rows], chain_log[rows] = draw(
            rng.random((rows.stop - rows.start, columns)))
    if ordering is not None:
        samples = invert_ordering(samples, ordering)
    if return_chain_log:
        return samples, chain_log
    return samples


def save_samples_pbm(samples: np.ndarray, shape, out_dir, *,
                     prefix: str = "sample", sheet: bool = False):
    """Write samples as PBM (P4) files, one per sample or a tiled sheet.

    ``shape`` is (height, width); flat sample vectors are reshaped to it.
    Returns the list of paths written.
    """
    import os

    samples = np.asarray(samples)
    h, w = (shape if len(shape) == 2 else (1, int(shape[0])))
    images = samples.reshape(samples.shape[0], h, w)
    os.makedirs(out_dir, exist_ok=True)
    if sheet:
        path = os.path.join(out_dir, f"{prefix}_sheet.pbm")
        pbm.write_contact_sheet(path, images)
        return [path]
    paths = []
    digits = max(4, len(str(samples.shape[0] - 1)))
    for i, img in enumerate(images):
        path = os.path.join(out_dir, f"{prefix}_{i:0{digits}d}.pbm")
        pbm.write_pbm(path, img)
        paths.append(path)
    return paths
