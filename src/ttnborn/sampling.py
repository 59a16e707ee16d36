"""Direct (ancestral) sampling from a trained model.

Pixels are drawn one at a time in leaf order from their exact conditionals,
so a returned configuration has exactly its model probability; no Markov
chain is involved.  With the canonical center parked at the root, every
untouched subtree traces to the identity, so the conditional of the next
pixel only needs (a) clamped vector messages from completed subtrees, built
once each, and (b) doubled matrix messages down the current root-to-leaf
path, refreshed only on the path segments that change.  Sampling a full
image therefore costs O(sites) message updates.

Batches are drawn in lockstep: all requested samples advance through the
same pixel schedule with vectorized messages.  The uniform variates for
sample ``i`` are the ``i``-th row of the stream of the seeded generator,
so row ``i`` is reproducible from (seed, i) alone and batches of any size
agree with ``sample_one`` on shared indices.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDistributionError, StateError
from .ttn import TtnModel, canonicalize
from .data import OrderingDescriptor, invert_ordering
from . import pbm

_EYE2 = np.eye(2)


def _rescale_batch(arr):
    """Scale each sample's message to unit max magnitude (scales cancel in
    every conditional, so no log bookkeeping is needed)."""
    flat = arr.reshape(arr.shape[0], -1)
    mx = np.max(np.abs(flat), axis=1)
    nz = mx > 0
    if np.any(nz):
        flat[nz] /= mx[nz, None]
    return arr


class SampleState:
    """Lockstep sampling state for one chunk of samples.

    Holds the partial assignment, the completed-subtree vector messages and
    the doubled messages cached along the current root-to-leaf path.
    """

    def __init__(self, model: TtnModel, uniforms: np.ndarray, order,
                 record_conditionals=False):
        self.model = model
        self.u = uniforms
        self.count = uniforms.shape[0]
        self.order = order
        self.samples = np.zeros((self.count, model.n_sites), dtype=np.int64)
        self.assigned = np.zeros(model.n_sites, dtype=bool)
        self.complete = {}    # node -> (count, D) clamped subtree message
        self.downs = {}       # node -> (count, D, D) environment above node
        self.prev_path = [1]
        self.chain_log = np.zeros(self.count)
        self.conditionals = [] if record_conditionals else None
        # Scratch for the open-sibling down message, allocated once: fresh
        # per-node products of this size would each be a new mmap (and page
        # faults) whenever they exceed the allocator's mmap threshold.
        self._work = np.empty(2 * self.count * model.max_bond() ** 3)

    # -- message maintenance ------------------------------------------------

    def _down_message(self, u: int, c: int):
        model = self.model
        t = model.tensors[u].data
        if u == 1:
            sib = 3 if c == 2 else 2
            if sib in self.complete:
                v = self.complete[sib]
                w = v @ t.T if c == 2 else v @ t
                # w: (count, D_c); environment is the rank-1 pair w (x) w
                m = w[:, :, None] * w[:, None, :]
            else:
                g = t @ t.T if c == 2 else t.T @ t
                m = np.broadcast_to(g, (self.count,) + g.shape).copy()
            return _rescale_batch(m)
        d = self.downs[u]
        child_axis = 1 if c == 2 * u else 2
        sib = 2 * u + 1 if c == 2 * u else 2 * u
        da, d1, d2 = t.shape
        if sib in self.complete:
            v = self.complete[sib]
            if child_axis == 1:
                w = (v @ t.transpose(2, 0, 1).reshape(d2, da * d1))
                w = w.reshape(self.count, da, d1)
            else:
                w = (v @ t.transpose(1, 0, 2).reshape(d1, da * d2))
                w = w.reshape(self.count, da, d2)
            m = np.matmul(w.transpose(0, 2, 1), np.matmul(d, w))
        else:
            # y and its transposed copy live in the reused workspace
            size = self.count * da * d1 * d2
            y = self._work[:size].reshape(self.count, da, d1 * d2)
            np.matmul(d, t.reshape(da, d1 * d2), out=y)
            y = y.reshape(self.count, da, d1, d2)
            if child_axis == 1:
                yt = y.transpose(0, 2, 1, 3)
                tt = t.transpose(0, 2, 1).reshape(da * d2, d1)
            else:
                yt = y.transpose(0, 3, 1, 2)
                tt = t.reshape(da * d1, d2)
            buf = self._work[size:2 * size].reshape(yt.shape)
            np.copyto(buf, yt)
            m = np.matmul(buf.reshape(self.count, yt.shape[1], -1), tt)
        return _rescale_batch(m)

    def _ensure_path(self, leaf: int):
        path = self.model.path(1, leaf)
        keep = set(path)
        for node in self.prev_path:
            if node not in keep:
                self.downs.pop(node, None)
        for u, c in zip(path[:-1], path[1:]):
            if c not in self.downs:
                self.downs[c] = self._down_message(u, c)
        self.prev_path = path

    def _complete_leaf(self, leaf: int):
        model = self.model
        k1, k2 = model.pixels_of_leaf(leaf)
        t = model.tensors[leaf].data
        vec = t[:, self.samples[:, k1], self.samples[:, k2]].T.copy()
        self.complete[leaf] = _rescale_batch(vec)
        node = leaf
        while node > 3:
            parent = model.parent(node)
            sib = 2 * parent + 1 if node == 2 * parent else 2 * parent
            if sib not in self.complete:
                break
            tp = model.tensors[parent].data
            vl, vr = self.complete[2 * parent], self.complete[2 * parent + 1]
            x = np.tensordot(vl, tp, axes=([1], [1]))   # (count, a, c)
            vec = np.einsum('sac,sc->sa', x, vr)
            self.complete[parent] = _rescale_batch(vec)
            node = parent

    # -- the conditional of one pixel ----------------------------------------

    def _conditional(self, leaf: int, axis: int, pixel: int):
        model = self.model
        t = model.tensors[leaf].data
        d = self.downs[leaf]
        k1, k2 = model.pixels_of_leaf(leaf)
        other = k2 if axis == 1 else k1
        probs = np.empty((2, self.count))
        for v in (0, 1):
            if axis == 1:
                slab = t[:, v, :]                     # (D, 2) over other pixel
            else:
                slab = t[:, :, v]
            if self.assigned[other]:
                g = slab[:, self.samples[:, other]].T  # (count, D)
                e = np.matmul(d, g[:, :, None])[:, :, 0]
                probs[v] = np.sum(g * e, axis=1)
            else:
                kmat = slab @ slab.T
                probs[v] = np.einsum('sab,ab->s', d, kmat)
        np.maximum(probs, 0.0, out=probs)
        total = probs[0] + probs[1]
        if np.any(total <= 0.0):
            raise DegenerateDistributionError(
                f"zero conditional mass at pixel {pixel}")
        return probs[1] / total

    def run(self):
        for step, pixel in enumerate(self.order):
            leaf, axis = self.model.leaf_of_pixel(pixel)
            self._ensure_path(leaf)
            p1 = self._conditional(leaf, axis, pixel)
            draw = (self.u[:, step] < p1).astype(np.int64)
            self.samples[:, pixel] = draw
            self.assigned[pixel] = True
            chosen = np.where(draw == 1, p1, 1.0 - p1)
            self.chain_log += np.log(chosen)
            if self.conditionals is not None:
                self.conditionals.append((pixel, p1.copy()))
            k1, k2 = self.model.pixels_of_leaf(leaf)
            if self.assigned[k1] and self.assigned[k2]:
                self._complete_leaf(leaf)
        return self.samples


def _rooted_copy(model: TtnModel) -> TtnModel:
    if model.canonical_center is None:
        raise StateError("sampling requires a canonicalized model")
    work = model.copy()
    if work.canonical_center != 1:
        canonicalize(work, 1)
    return work


def _chunk_rows(model: TtnModel, count: int) -> int:
    d = max(model.max_bond(), 2)
    return int(max(64, min(count, 65536, 4_000_000 // (d * d))))


def sample_batch(model: TtnModel, count: int, seed: int, *,
                 order: str = "leaf", ordering: OrderingDescriptor = None,
                 return_chain_log: bool = False):
    """Draw ``count`` exact samples; returns a (count, pixels) 0/1 matrix.

    With an ordering descriptor the padding slots are stripped and pixels
    are returned in raw image order.  ``return_chain_log`` additionally
    returns each sample's log-probability accumulated from the conditionals
    actually used, for auditing against the model's log p(x).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if order == "leaf":
        pixel_order = list(range(model.n_sites))
    elif order == "leaf-reversed":
        pixel_order = list(range(model.n_sites - 1, -1, -1))
    else:
        raise ValueError(f"unknown sampling order {order!r}")
    work = _rooted_copy(model)
    uniforms = np.random.default_rng(seed).random((count, model.n_sites))
    chunk = _chunk_rows(work, count)
    outs, logs = [], []
    for start in range(0, count, chunk):
        state = SampleState(work, uniforms[start:start + chunk], pixel_order)
        outs.append(state.run().astype(np.uint8))
        logs.append(state.chain_log)
    samples = np.concatenate(outs, axis=0)
    chain_log = np.concatenate(logs)
    if ordering is not None:
        samples = invert_ordering(samples, ordering)
    if return_chain_log:
        return samples, chain_log
    return samples


def sample_one(model: TtnModel, seed: int, *, order: str = "leaf",
               ordering: OrderingDescriptor = None):
    """One exact sample: the first row of the (seed-derived) batch stream."""
    return sample_batch(model, 1, seed, order=order, ordering=ordering)[0]


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
