"""The tree tensor network Born machine.

Topology
--------
The model is a perfect binary tree stored heap-style.  For ``n_sites``
pixels (a power of two, >= 4) there are ``n_sites - 1`` tensors indexed
1..n_sites-1; ``TtnModel(tensors, canonical_center=None, d_max=None)``
takes them after an unused slot 0 (None), so that ``n_sites`` is
``len(tensors)``, as for the chain.  Tensor 1 is the 2-way root with axes
(bond to node 2, bond to node 3); every other tensor ``n`` is 3-way with
axes (bond to parent ``n // 2``, bond to child ``2n``, bond to child
``2n + 1``).  Nodes whose children indices exceed the tensor count are
leaves; their two lower axes are physical with dimension 2, and heap slot
``n_sites + k`` corresponds to pixel ``k``, so pixels run left to right
across the leaves.

``TtnModel.axis_sites`` turns that arithmetic into the one topology answer
(what sits on each axis of a tensor: a neighbouring node or a pixel) that
``born.BornMachine`` derives the rest from, so all but the tree's topology,
amplitude kernel and rooted node table is shared with the chain (``born``,
``training``, ``sampling``).  The tree's reads take each 4-pixel subtree
as one (16, D) block, a per-call view that replaces the bottom two levels
of the heap (``_group_blocks``), and sampling and evaluation (given enough
distinct rows) each 8-pixel subtree as one (256, D) table lifted from them
(``_lifted``).
"""

from __future__ import annotations

import numpy as np

from . import training
from .born import (LIFT_FLOATS, BornMachine, Pixel, bond_capacity,
                   canonicalize, check_int, contract_node, distinct_keys,
                   key_ranks, log_probs, random_tensors, rescale_rows,
                   rooted_copy, signed_logs, single_site_marginals)
from .errors import DimensionError, TopologyError
from .tensor import kron_rows
# Not called here; ``perfbench`` calls or wraps these by their ``ttn`` names.
from .born import (correlation_map, max_canonical_deviation,  # noqa: F401
                   nll, push_qr)
from .tensor import qr_split  # noqa: F401


class TtnModel(BornMachine):
    """Heap-indexed binary tree of tensors with canonical-center bookkeeping."""

    # -- topology ----------------------------------------------------------

    def _check_size(self):
        n = self.n_sites   # slot 0 counted, unused
        if n < 4 or n & (n - 1):
            raise TopologyError(f"n_sites must be a power of 2 >= 4, got {n}")

    @property
    def n_tensors(self) -> int:
        return self.n_sites - 1

    @property
    def first_leaf(self) -> int:
        return self.n_sites // 2

    def is_leaf(self, n: int) -> bool:
        return 2 * n > self.n_tensors

    def axis_sites(self, n: int):
        up = [n // 2] if n > 1 else []
        if self.is_leaf(n):
            k = 2 * n - self.n_sites
            return up + [Pixel(k), Pixel(k + 1)]
        return up + [2 * n, 2 * n + 1]

    def path(self, u: int, v: int):
        """Nodes along the tree path from u to v, inclusive."""
        up_u, up_v = [u], [v]
        a, b = u, v
        while a != b:
            if a > b:
                a //= 2
                up_u.append(a)
            else:
                b //= 2
                up_v.append(b)
        return up_u[:-1] + up_v[::-1]

    # -- the Born-machine interface ------------------------------------------

    model_type = "ttn"
    first_tensor = 1

    def log_probs(self, samples) -> np.ndarray:
        # per model, so that perfbench's ttn.log_probs counts tree rows only
        return log_probs(self, samples)

    def single_site_marginals(self, assignment=None) -> np.ndarray:
        # per model, as perfbench times each model's marginals apart
        return single_site_marginals(self, assignment)

    def _marginal_view(self):
        return _RootedTree(self, 4)

    def _amplitude_kernel(self):
        # each group table's rows scaled once, so a gathered row needs none;
        # the octet tables, lifted from them, once the distinct octet values
        # of a chunk whose rows could pay for their build do (_OCTET_MARGIN)
        groups = _group_blocks(self, scaled=True)
        octet = self.n_sites // 8
        shapes = [_node_data(self, k).shape for k in range(octet, 2 * octet)]
        build = sum(16 * d * d1 * (d2 + 16) for d, d1, d2 in shapes)
        saves, octets = [d * d1 * d2 for d, d1, d2 in shapes], None

        def kernel(rows):   # each table's rows at its subtrees' patterns
            nonlocal octets
            index = np.packbits(rows, axis=1)   # (rows, octets) values
            if octets is None and saves and (
                    len(rows) * sum(saves) >= _OCTET_MARGIN * build):
                seen = np.zeros((octet, 256), bool)
                seen.reshape(-1)[index + np.arange(0, 256 * octet, 256)] = True
                if (np.count_nonzero(seen, axis=1) @ saves
                        >= _OCTET_MARGIN * build):
                    octets = _lifted(self, octet, *groups, True)
            tables, logs = groups if octets is None else octets
            if octets is None:   # the groups' values, the octets' halves
                index = np.stack([index >> 4, index & 15], axis=2).reshape(
                    len(rows), -1)
            labels = index[:, :len(tables)].T    # (tables, rows)
            if len(rows) == 1:   # one row, one pattern: no labelling
                return _amplitudes(self, len(tables), lambda j: (
                    tables[j][labels[j]], logs[j][labels[j]]))
            picks, expand = _pattern_picks(np.ascontiguousarray(labels),
                                           len(tables[0]))
            log_abs, sign = _amplitudes(self, len(tables), lambda j: (
                tables[j], logs[j]), picks)
            return log_abs[expand], sign[expand]
        # a (D, D) product at a node, a (rows, D) message per level, the row
        # as uint8, its index and two levels' labels, with their temporaries
        d, n = max(self.max_bond(), 2), self.n_sites
        return (2 * d + n.bit_length()) * d + n // 4 + 5 * n // 8, kernel

    def _sample_view(self):
        # a (D, D) message per level and three (256,) weight rows
        d, n = max(self.max_bond(), 4), self.n_sites
        return _RootedTree(self, 8), d * d * (n.bit_length() - 2) + 3 * 256

    def sweep_epoch(self, dataset, config, **kwargs):
        # per model, as perfbench times each model's epoch apart
        return training.sweep_epoch(self, dataset, config, **kwargs)


def build_random(n_pixels_padded: int, d_max: int, seed: int) -> TtnModel:
    """Random TTN with capacity-capped bonds (``born.bond_capacity``; the
    edge above node n has n_pixels_padded / 2^level(n) pixels below it),
    canonicalized to the root; its entries are ``born.random_tensors``.
    ``n_pixels_padded`` and ``d_max`` are integers (numpy ones too, never a
    bool; else ValueError), a power of two >= 4 (else TopologyError) and
    >= 1 (else DimensionError)."""
    n = n_pixels_padded
    check_int("n_pixels_padded", n)
    check_int("d_max", d_max)
    if n < 4 or n & (n - 1):
        raise TopologyError(
            f"n_pixels_padded must be a power of 2 >= 4, got {n}")
    if d_max < 1:
        raise DimensionError("d_max must be >= 1")
    dims = {k: bond_capacity(d_max, n >> (k.bit_length() - 1), n)
            for k in range(2, n)}
    shapes = [(dims[2], dims[3])] + [
        (dims[k],) + ((2, 2) if 2 * k >= n else (dims[2 * k], dims[2 * k + 1]))
        for k in range(2, n)]
    model = TtnModel([None] + random_tensors(shapes, seed), d_max=d_max)
    canonicalize(model, 1)
    return model


def _node_data(model: TtnModel, n: int) -> np.ndarray:
    """Tensor n's data, the root's with a dimension-1 parent bond."""
    t = model.tensors[n]
    return t.data.reshape((-1,) + t.shape[-2:])


def _lifted(model: TtnModel, first: int, tables, logs, scaled: bool):
    """The amplitude tables of heap nodes first … 2·first − 1 and their
    (first, rows) row logs, from the level below's ``tables`` and ``logs``
    (node first + j's children at 2j and 2j + 1): row i·kb + j of node T's
    table is sum_ab L[i, a] T[:, a, b] R[j, b] for its children's tables L
    (ka, Da) and R (kb, Db), kb·Db·Da·D + ka·kb·Da·D multiply-adds.  Each
    shape class is one array, written by two stacked products a few nodes
    at a time; ``scaled`` rescales their rows (``rescale_rows``)."""
    nodes = [_node_data(model, k) for k in range(first, 2 * first)]
    logs = (logs[0::2, :, None] + logs[1::2, None, :]).reshape(first, -1)
    level, classes = [None] * first, {}
    for j, t in enumerate(nodes):
        classes.setdefault(t.shape, []).append(j)
    for (d, da, _), pick in classes.items():
        ka, kb = len(tables[2 * pick[0]]), len(tables[2 * pick[0] + 1])
        out = np.empty((len(pick), ka * kb, d))
        step = max(1, LIFT_FLOATS // (da * kb * d))
        for s in range(0, len(pick), step):
            part = pick[s:s + step]
            left, right = (np.stack([tables[2 * j + c] for j in part])
                           for c in (0, 1))
            t = np.stack([nodes[j] for j in part]).transpose(0, 2, 3, 1)
            p = np.matmul(right[:, None], t)        # (nodes, Da, kb, D)
            np.matmul(left, p.reshape(len(part), da, -1),
                      out=out[s:s + step].reshape(len(part), ka, -1))
            if scaled:
                part_logs = logs[part]
                rescale_rows(out[s:s + step].reshape(-1, d),
                              part_logs.reshape(-1))
                logs[part] = part_logs
        for j, table in zip(pick, out):
            level[j] = table
    return level, logs


def _group_blocks(model: TtnModel, scaled: bool = False):
    """The (16, D) amplitude table of each 4-pixel subtree and its rows'
    log scales, by group j (pixels 4j..4j+3, the first most significant in
    the row index).  A group root is a parent of two leaves (the root at 4
    pixels), D its parent bond: the leaves' (4, D) tables lifted one
    level.  Without ``scaled`` every log is 0."""
    leaves = model.tensors[model.n_sites // 2:]
    return _lifted(model, model.n_sites // 4,
                   [t.data.reshape(-1, 4).T for t in leaves],
                   np.zeros((len(leaves), 4)), scaled)


# Octet tables are built when a chunk's distinct values of each octet,
# each saving D·D1·D2 multiply-adds of the octet level's contraction, reach
# this multiple of the build's sum 16·D·D1·(D2 + 16); measured once
# (CHANGES.md).  A chunk is the call's rows unless the call outgrows one.
_OCTET_MARGIN = 2.0


def _pattern_picks(labels: np.ndarray, bound: int):
    """``_amplitudes``'s picks, node -> the rows of its children's messages
    it contracts, and the index that expands the root's values to rows,
    from the tables' (nodes, rows) ``labels``, each below ``bound``.

    Level by level, a node's key is its children's labels, and its labels
    rank its distinct keys, which it contracts.  Labelling stops at the
    first level whose distinct keys fill over 7/8 of its (node, row)
    entries (for random rows, the first), which contracts every row."""
    picks = {}
    while len(labels) > 1:
        first = len(labels) // 2
        keys = labels[0::2].astype(np.intp) * bound + labels[1::2]
        ordered, new = distinct_keys(keys)
        if 8 * np.count_nonzero(new) > 7 * keys.size:
            picks.update((first + j, labels[2 * j:2 * j + 2])
                         for j in range(first))
            return picks, slice(None)
        labels = key_ranks(keys, new)
        picks.update((first + j, np.divmod(o[s], bound))
                     for j, (o, s) in enumerate(zip(ordered, new)))
        bound = int(labels.max()) + 1
    return picks, labels[0]


def _amplitudes(model: TtnModel, first: int, message, picks=()):
    """(log_abs, sign) of every row: the tree above heap level ``first``
    (the group roots n/4, or the octets n/8) contracted with node
    first + j's (rows, logs) message ``message(j)``, depth first, so one
    message per level is live, not a level of them.  A node in the
    mapping ``picks`` contracts the rows of its children's it names."""

    def up(n):   # node n's message; the root in full, to (S,) values
        if n >= first:
            return message(n - first)
        parts = [up(2 * n), up(2 * n + 1)]
        if n in picks:
            parts = [(m[i], logs[i]) for (m, logs), i in zip(parts, picks[n])]
        x = contract_node(model.tensors[n], parts, 0 if n > 1 else None)
        return rescale_rows(*x) if n > 1 else x

    rows, logs = up(1)
    return signed_logs(rows.reshape(-1), logs)


def amplitudes_from_vectors(model: TtnModel, vectors: np.ndarray):
    """Batched linear contraction of the network with per-pixel 2-vectors.

    ``vectors`` has shape (S, n_sites, 2); returns (log_abs, sign) arrays of
    shape (S,).  One-hot rows give amplitudes of pixel configurations; other
    vectors give weighted sums of amplitudes (e.g. all-ones sums Psi over all
    configurations).  The amplitudes include ``log_norm``.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 2:
        vectors = vectors[np.newaxis]
    if vectors.ndim != 3 or vectors.shape[1:] != (model.n_sites, 2):
        raise DimensionError(
            f"expected vectors of shape (S, {model.n_sites}, 2), got "
            f"{vectors.shape}")
    blocks, _ = _group_blocks(model)
    log_abs, sign = _amplitudes(model, len(blocks), lambda j: rescale_rows(
        kron_rows(vectors.transpose(1, 0, 2)[4 * j:4 * j + 4]) @ blocks[j],
        np.zeros(vectors.shape[0])))
    return log_abs + model.log_norm, sign


class _RootedTree(TtnModel):
    """A root-canonical copy of a tree (``rooted_copy``) with its node
    table, built once for every pass made on it: the two marginal passes of
    ``correlation_map``, or every chunk of a sample.  Heap node k is entry
    k - 1 down to the subtrees of ``width`` pixels (4 or 8, and 4 at n = 4),
    and subtree j's root is its amplitude table A_j as A_j^T[:, :, None],
    a view.  It does not see later changes to the model it copies, and
    lives as long as its caller holds it."""

    def __init__(self, model: TtnModel, width: int):
        vars(self).update(vars(rooted_copy(model, 1)))
        tables, n = _group_blocks(self), self.n_sites
        if width == 8 and n >= 8:
            tables = _lifted(self, n // 8, *tables, False)
        tables, width = tables[0], n // len(tables[0])
        self.nodes = [(_node_data(self, k), 2 * k - 1, 2 * k)
                      for k in range(1, len(tables))] + [
            (a.T[:, :, None], slice(width * j, width * j + width), None)
            for j, a in enumerate(tables)]

    def _marginal_view(self):
        return self

