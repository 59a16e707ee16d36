"""Direct (ancestral) sampling from a trained model.

Configurations are drawn from the exact Born distribution p(x), so a
returned row has exactly its model probability; no Markov chain is
involved.  The model is rooted first: below the root every tensor is then
an isometry, so the amplitude vectors of each subtree are orthonormal.

A node entered with a pure state ``v`` has the amplitude matrix
``M = v . T`` over its two child bonds, and the first child's pixels are
distributed as ``p(x_first) = sum_s |M[:, s] . C_first(x_first)|^2`` over
the open sibling's bond index ``s``.  The sampler draws ``s`` with weight
``|M[:, s]|^2`` as an auxiliary variable, samples the first subtree from
the pure state ``M[:, s]``, then the second subtree from the pure state
``M^T C_first(x_first)``.  At a leaf the two pixels are drawn in turn from
``|v . T[:, x1, x2]|^2``.  The auxiliary index is forgotten once the first
subtree is drawn, so the rows follow p(x) exactly while every message is a
per-row vector: one depth-first pass costs O(D^3) per node and row.

The chain log returned with the samples is log p(x) itself, from the
amplitude assembled in the same pass: the completed subtree vectors carry
their log scales up to the root, where ``psi = C_2^T T_1 C_3``.

Batches are drawn in lockstep.  Row ``i`` uses the ``i``-th row of the
seeded generator's uniform stream, with one column per pixel and one per
internal node, so it is reproducible from (seed, i) alone and batches of any
size agree on shared indices.  (The streams changed once when the
auxiliary-index pass replaced per-pixel conditionals; the distribution did
not.)
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDistributionError, StateError
from .ttn import (TtnModel, _rescale_batch, _rescale_rows, _rooted_copy,
                  partition_function)
from .data import OrderingDescriptor, invert_ordering
from . import pbm

def _uniform_columns(model: TtnModel) -> int:
    """One uniform per pixel (column k) and per internal node u (column
    n_sites + u - 1)."""
    return model.n_sites + model.first_leaf - 1


class SampleState:
    """Lockstep sampling of one chunk of rows from a root-canonical model."""

    def __init__(self, model: TtnModel, uniforms: np.ndarray):
        self.model = model
        self.u = uniforms
        self.count = uniforms.shape[0]
        self.samples = np.zeros((self.count, model.n_sites), dtype=np.uint8)
        self.chain_log = np.zeros(self.count)
        self._rows = np.arange(self.count)

    def _pixel(self, weights, pixel: int):
        """Draw pixel values from (count, 2) weights: 1 iff u < p1."""
        total = weights[:, 0] + weights[:, 1]
        if not np.all(total > 0.0):
            raise DegenerateDistributionError(
                f"zero conditional mass at pixel {pixel}")
        return (self.u[:, pixel] < weights[:, 1] / total).astype(np.uint8)

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

    def _leaf(self, leaf: int, t, v):
        amp = (v @ t.reshape(t.shape[0], 4)).reshape(self.count, 2, 2)
        w = amp * amp
        k1, k2 = self.model.pixels_of_leaf(leaf)
        x = self._pixel(w.sum(axis=2), k1)
        self.samples[:, k1] = x
        self.samples[:, k2] = self._pixel(w[self._rows, x], k2)
        return t[:, self.samples[:, k1], self.samples[:, k2]].T

    def _children(self, node: int, m):
        """Sample both subtrees below ``node`` from the (count, D_left,
        D_right) amplitude matrix ``m``; return their completed vectors and
        the sum of their log scales."""
        s = self._bond_index(np.einsum('rfs,rfs->rs', m, m), node)
        c1, log1 = self._subtree(2 * node, m[self._rows, :, s])
        c2, log2 = self._subtree(2 * node + 1, np.einsum('rf,rfs->rs', c1, m))
        return c1, c2, log1 + log2

    def _subtree(self, node: int, v):
        """Sample the subtree under ``node`` from the pure state ``v`` on its
        parent bond; return its completed amplitude vector and the per-row
        log of the scale taken out of it.  A leaf's vector (a column of an
        isometry, so entries of at most one) keeps its scale; an inner
        node's is rescaled to unit max."""
        t = self.model.tensors[node].data
        if self.model.is_leaf(node):
            return self._leaf(node, t, v), np.zeros(self.count)
        da = t.shape[0]
        m = _rescale_batch(v) @ t.reshape(da, -1)
        left, right, log = self._children(
            node, m.reshape((self.count,) + t.shape[1:]))
        pair = left[:, :, None] * right[:, None, :]
        return _rescale_rows(pair.reshape(self.count, -1)
                             @ t.reshape(da, -1).T, log)

    def run(self):
        """Fill ``samples`` and ``chain_log`` (log p of each row)."""
        model = self.model
        root = model.tensors[1].data
        m = np.broadcast_to(root, (self.count,) + root.shape)
        left, right, log = self._children(1, m)
        amp = np.einsum('rb,rb->r', left @ root, right)
        scale = sum(model.tensors[n].log_scale
                    for n in range(1, model.n_tensors + 1))
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(amp)) + log + scale
        self.chain_log = 2.0 * log_abs - partition_function(model)
        return self.samples


def _chunk_rows(model: TtnModel, count: int) -> int:
    """Rows per chunk, so that the live amplitude matrices (one per level of
    the depth-first path, D^2 each) and the uniforms stay near 32 MB."""
    d = max(model.max_bond(), 2)
    depth = model.n_sites.bit_length() - 1
    per_row = d * d * depth + _uniform_columns(model)
    return int(max(64, min(count, 4_000_000 // per_row)))


def sample_batch(model: TtnModel, count: int, seed: int, *,
                 ordering: OrderingDescriptor = None,
                 return_chain_log: bool = False):
    """Draw ``count`` exact samples; returns a (count, pixels) 0/1 matrix.

    Row ``i`` depends only on (seed, i), whatever ``count`` and the chunk
    size.  (The rows a given seed yields changed once, when the sampler
    moved from per-pixel conditionals to auxiliary bond indices; their
    distribution did not.)  With an ordering descriptor the padding slots
    are stripped and pixels are returned in raw image order.
    ``return_chain_log`` additionally returns each row's log p(x), computed
    from the amplitude the sampler assembled (not a sum of conditionals),
    for auditing against ``log_probs``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if model.canonical_center is None:
        raise StateError("sampling requires a canonicalized model")
    work = _rooted_copy(model)
    rng = np.random.default_rng(seed)
    width = _uniform_columns(work)
    chunk = _chunk_rows(work, count)
    outs, logs = [], []
    for start in range(0, count, chunk):
        # successive draws continue one stream, so row i does not depend on
        # the chunk size
        rows = min(chunk, count - start)
        state = SampleState(work, rng.random((rows, width)))
        outs.append(state.run())
        logs.append(state.chain_log)
    samples = np.concatenate(outs, axis=0)
    chain_log = np.concatenate(logs)
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
