"""Direct (ancestral) sampling from a trained model.

Configurations are drawn from the exact Born distribution p(x), so a
returned row has exactly its model probability; no Markov chain is
involved.  ``sample_batch`` draws for both models, chunk by chunk, by one
walk (``SampleState``) over the rooted node table of a re-centred copy
(``_sampler``): the tree rooted at its root, down to its
8-pixel subtrees' (256, D) amplitude tables (``ttn._RootedTree``), or the
chain, the degenerate tree, rooted at its nearer end, one two-site block
per node (``mps._PairNodes``).  The marginal pass (``ttn._doubled_marginals``)
walks tables of this format, the tree's down to its 4-pixel groups.

Node k is ``(T, first, second)``, T with the axes (parent bond, first,
second).  ``first`` is a child node or a slice of pixels, whose values
index T's middle axis, the first pixel most significant; ``second`` is a
child node, or None where its axis has dimension 1, as at a subtree's
table A, whose node is ``A^T[:, :, None]``.  Rooted, every tensor below
the root is an isometry onto its parent bond.  The walk goes down a chain
of second children, entering each node with a pure state ``v`` on its
parent bond, and forms ``M = v . T``.  Below a pixel slice it draws the
slice's value x with weight ``sum_s |M[x, s]|^2`` and moves on with
``v = M[x]``; at a table that is ``|v . A^T|^2``, the exact joint law of
its pixels given v.  Below a child node it draws the second bond's index s
with weight ``|M[:, s]|^2`` as an auxiliary variable, completes the first
subtree from the pure state ``M[:, s]`` into its amplitude vector c, and
moves on with ``v = c^T M``; c is then exact whatever s was, so the rows
follow p(x) exactly (Ferris and Vidal, PRB 85:165146, 2012).  A completed
subtree ends at a table, ``c = A[x]``, and folds its path back up,
``c = T . (c_first (x) c_second)``.  At the root the last ``v`` is the
amplitude psi(x), its log scale carried along, so the chain log returned
with the samples is ``2 log|psi| - log Z``, both without ``log_norm``.

Batches are drawn in lockstep.  Row ``i`` uses the ``i``-th row of the
seeded generator's uniform stream, one column per node (n/4 - 1 for a tree
of 8 pixels or more), so it depends on (seed, i) alone; each draw is one
``_draw``.  The rows a seed yields changed for both models when the tree's
and the chain's samplers became this walk, and for the tree again when it
took one draw per 8-pixel subtree (and twice before); the distribution did
not.  Drawing that subtree from its table instead of its two groups'
blocks left the rows as they were.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DegenerateDistributionError, StateError
from .ttn import BornMachine, _data_log_z, _rescale_rows, _row_chunks
from .data import OrderingDescriptor, invert_ordering
from . import pbm


# row x holds the 8 bits of x, most significant first; a q-pixel value
# reads its last q columns
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)


def _draw(weights, u):
    """The smallest index in each row of ``weights`` whose cumulative weight
    exceeds ``u`` times the total: never one of zero weight (0 <= u < 1).
    ``weights`` is overwritten by its cumulative sums."""
    cum = np.cumsum(weights, axis=1, out=weights)
    total = cum[:, -1]
    if not (total > 0.0).all():
        raise DegenerateDistributionError("zero mass at a sampling node")
    return (cum <= (u * total)[:, None]).sum(axis=1)


class SampleState:
    """Lockstep sampling of one chunk of rows by one walk over the node
    table ``nodes`` of ``model``, a rooted copy."""

    def __init__(self, model, uniforms: np.ndarray):
        self.model, self.u, self.count = model, uniforms, len(uniforms)
        self.samples = np.zeros((self.count, model.n_sites), dtype=np.uint8)
        self._rows = np.arange(self.count)

    def _walk(self, node: int, v, complete: bool = False):
        """Draw the subtree under ``node`` from the pure state ``v`` on its
        parent bond.  Returns the last node's ``v`` or, if ``complete``, the
        subtree's amplitude vector, with the per-row log of its scale."""
        count, rows = self.count, self._rows
        logs, path = np.zeros(count), []
        while True:
            t, first, second = self.model.nodes[node]
            da, m1, m2 = t.shape
            v, logs = _rescale_rows(v, logs)
            m = (v @ t.reshape(da, -1)).reshape(count, m1, m2)
            if isinstance(first, slice):
                x = _draw(np.einsum("rxs,rxs->rx", m, m), self.u[:, node])
                self.samples[:, first] = _BITS[x, 9 - m1.bit_length():]
                v = m[rows, x]
            else:
                s = _draw(np.einsum("rfs,rfs->rs", m, m), self.u[:, node])
                c, log = self._walk(first, m[rows, :, s], True)
                v, logs = np.einsum("rf,rfs->rs", c, m), logs + log
                if complete:
                    path.append((t, c, log))
            if second is None:
                break
            node = second
        if not complete:
            return v, logs
        # fold the path back up from the row x of the table the walk ended
        # at, c = T.(c (x) v)
        v, logs = t[:, x, 0].T, np.zeros(count)
        for t, c, log in reversed(path):
            pair = (c[:, :, None] * v[:, None, :]).reshape(count, -1)
            v, logs = _rescale_rows(pair @ t.reshape(len(t), -1).T, logs + log)
        return v, logs

    def run(self):
        """The chunk's (samples, chain log), the log p of each row."""
        psi, logs = self._walk(0, np.ones((self.count, 1)))
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(psi[:, 0])) + logs
        return self.samples, 2.0 * log_abs - _data_log_z(self.model)


def _sampler(model: BornMachine):
    """(floats per row, uniforms per row, draw): one walk over the node
    table of ``model._sample_view()``, with one uniform per node."""
    work, walk_floats = model._sample_view()
    columns = len(work.nodes)
    return (walk_floats + columns + model.n_sites // 8, columns,
            lambda uniforms: SampleState(work, uniforms).run())


def sample_batch(model: BornMachine, count: int, seed: int, *,
                 ordering: OrderingDescriptor = None,
                 return_chain_log: bool = False):
    """Draw ``count`` exact samples of either model, a (count, pixels) matrix.

    ``count`` is an integer >= 1 and ``seed`` an integer >= 0, so every
    draw follows an explicit seed.  Row ``i`` depends only on (seed, i),
    whatever ``count`` and the chunk size (the module notes when the rows
    changed; their distribution did not).  With an ordering descriptor the
    padding slots are stripped and pixels are returned in raw image order.
    ``return_chain_log`` additionally returns each row's log p(x), computed
    from the amplitude the sampler assembled (not a sum of conditionals),
    for auditing against ``log_probs``.
    """
    for name, value, low in (("count", count, 1), ("seed", seed, 0)):
        if (isinstance(value, bool)
                or not isinstance(value, (int, np.integer)) or value < low):
            raise ValueError(f"{name} must be an integer >= {low}, "
                             f"got {value!r}")
    if model.canonical_center is None:
        raise StateError("sampling requires a canonicalized model")
    row_floats, columns, draw = _sampler(model)
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
