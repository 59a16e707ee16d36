"""The tree tensor network Born machine.

Topology
--------
The model is a perfect binary tree stored heap-style.  For ``n_sites``
pixels (a power of two, >= 4) there are ``n_sites - 1`` tensors indexed
1..n_sites-1.  Tensor 1 is the 2-way root with axes (bond to node 2,
bond to node 3); every other tensor ``n`` is 3-way with axes
(bond to parent ``n // 2``, bond to child ``2n``, bond to child ``2n + 1``).
Nodes whose children indices exceed the tensor count are leaves; their two
lower axes are physical with dimension 2, and heap slot ``n_sites + k``
corresponds to pixel ``k``, so pixels run left to right across the leaves.

``TtnModel.axis_sites`` turns that arithmetic into the one topology answer
the model gives (what sits on each axis of a tensor: a neighbouring node or
a pixel).  ``BornMachine`` derives neighbors, axis lookup and the shape
check from it, and the chain (``mps``) answers the same question, so the
canonical form, QR pushes, the training cache, the sweep walk and the
two-site step are written once for both, and so are evaluation, over
per-model kernels, and sampling, over per-model node tables.  The tree's
reads take each 4-pixel subtree as one (16, D) block, a per-call view that
replaces the bottom two levels of the heap (``_group_blocks``).

The squared amplitude of a pixel configuration, normalized by the partition
function, is the model probability.  In mixed canonical form every tensor
except one (the center) contracts with itself over its two non-center-facing
axes to the identity, which makes the partition function the squared
Frobenius norm of the center tensor.
"""

from __future__ import annotations

import math
from copy import copy as shallow_copy
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDistributionError, DimensionError, StateError,
                     TopologyError)
from .tensor import NEG_INF, DenseTensor, frobenius_norm, move_axis, qr_split

_EYE2 = np.eye(2)


@dataclass
class Amplitude:
    """A signed scalar carried as (log |value|, sign)."""

    log_abs: float
    sign: int  # -1, 0, +1; 0 iff the value is exactly zero (log_abs = -inf)


@dataclass
class Pixel:
    """The axis of a tensor that carries pixel ``index``."""

    index: int


class BornMachine:
    """The interface shared by the tree (``TtnModel``) and the chain
    (``mps.MpsModel``); the model-generic functions below and
    ``training.train`` are written once on top of it.

    A model has ``n_sites``, ``tensors`` indexed from ``first_tensor`` to
    n_sites - 1 (where training keeps the center), ``first_leaf`` (where
    the right-to-left sweep ends), ``canonical_center`` and ``bond_dims()``,
    and the methods ``log_probs``, ``single_site_marginals`` and its
    stacked clamp form ``marginal_stack``, ``sample`` and ``sweep_epoch``.
    Each calls its model's module function by name, so wrapping that
    function covers it too.  ``log_probs`` and ``sampling.sample_batch``
    walk the rows in chunks through two kernels built once per call, each
    with the floats a row holds in it, which size the chunks:
    ``_amplitude_kernel()`` maps rows to (log |Psi|, sign), and
    ``_sampler()`` gives the uniforms per row and a map from uniforms to
    (rows, log p): one walk over the rooted node table of the re-centred
    copy that ``_sample_view()`` gives.

    Each model answers one topology question, ``axis_sites(k)``: what sits
    on each axis of tensor k, in axis order, a neighbouring tensor (its
    index), a ``Pixel`` or None for a dimension-1 boundary bond (the
    chain's two ends); ``path(u, v)`` lists the tensors from u to v.
    Neighbors, axis lookup, the shape check, ``copy``, ``canonicalize``,
    ``log_z`` and ``sweep_cache`` are written here once for both models.
    """

    def neighbors(self, k: int):
        return [s for s in self.axis_sites(k)
                if s is not None and not isinstance(s, Pixel)]

    def axis_toward(self, u: int, v: int) -> int:
        """The axis of tensor u on the edge to neighbor v."""
        sites = self.axis_sites(u)
        if v not in sites:
            raise TopologyError(f"{v} is not adjacent to {u}")
        return sites.index(v)

    def _check_shapes(self):
        """TopologyError unless the center is a tensor and each tensor has one
        axis per site: of dimension 2 on a pixel, 1 on a boundary bond and, on
        each bond, that of the neighbor's side (seen from the higher index)."""
        c = self.canonical_center
        if c is not None and not self.first_tensor <= c < self.n_sites:
            raise TopologyError(f"canonical center {c} out of range")
        for k in range(self.first_tensor, self.n_sites):
            shape, sites = self.tensors[k].shape, self.axis_sites(k)
            if len(shape) != len(sites):
                raise TopologyError(f"tensor {k} has shape {shape}, not "
                                    f"{len(sites)} axes")
            for a, s in enumerate(sites):
                if s is None or isinstance(s, Pixel):
                    want = 1 if s is None else 2
                elif s < k:
                    want = self.tensors[s].shape[self.axis_toward(s, k)]
                else:
                    continue
                if shape[a] != want:
                    raise TopologyError(
                        f"axis {a} of tensor {k} has dimension {shape[a]}, "
                        f"not {want}")

    def copy(self):
        """A copy with its own tensors, made without re-checking shapes."""
        work = shallow_copy(self)
        work.tensors = [t if t is None else t.copy() for t in self.tensors]
        return work

    def max_bond(self) -> int:
        return max(self.bond_dims().values())

    def canonicalize(self, center: int):
        return canonicalize(self, center)

    def log_z(self) -> float:
        return partition_function(self)

    def _marginal_view(self):
        """The model to make several marginal passes on: itself, or for
        the tree a rooted copy that all of them share (``_RootedTree``)."""
        return self

    def _sampler(self):
        """(floats per row, uniforms per row, draw): one walk over the node
        table of ``_sample_view()``, with one uniform per node."""
        from .sampling import SampleState
        work, walk_floats = self._sample_view()
        columns = len(work.nodes)
        return (walk_floats + columns + self.n_sites // 8, columns,
                lambda uniforms: SampleState(work, uniforms).run())

    def sweep_cache(self, samples):
        from . import training
        return training._EnvCache(self, samples, self.n_sites - 1)


class TtnModel(BornMachine):
    """Heap-indexed binary tree of tensors with canonical-center bookkeeping."""

    def __init__(self, n_sites: int, tensors, canonical_center=None,
                 d_max=None):
        if n_sites < 4 or n_sites & (n_sites - 1):
            raise TopologyError(f"n_sites must be a power of 2 >= 4, got {n_sites}")
        self.n_sites = n_sites
        self.tensors = list(tensors)           # index 0 unused
        if len(self.tensors) != n_sites:
            raise TopologyError(
                f"expected {n_sites - 1} tensors (plus unused slot 0), got "
                f"{len(self.tensors) - 1}")
        self.canonical_center = canonical_center
        self.d_max = d_max
        self._check_shapes()

    # -- topology ----------------------------------------------------------

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

    def bond_dims(self) -> dict:
        """Dimension of the parent edge above each node n >= 2."""
        return {n: self.tensors[n].shape[0] for n in range(2, self.n_tensors + 1)}

    # -- the Born-machine interface ------------------------------------------

    model_type = "ttn"
    first_tensor = 1

    def log_probs(self, samples) -> np.ndarray:
        return log_probs(self, samples)

    def single_site_marginals(self, assignment=None) -> np.ndarray:
        return single_site_marginals(self, assignment)

    def marginal_stack(self, assignments) -> np.ndarray:
        return _RootedTree(self).marginal_stack(assignments)

    def _marginal_view(self):
        return _RootedTree(self)

    def _amplitude_kernel(self):
        # each block row scaled to unit max once, so a gathered row needs none
        tables = [_rescale_rows(b.copy(), np.full(16, lg))
                  for b, lg in zip(*_group_blocks(self))]

        def kernel(rows):   # each group's table gathered at its row index
            index = rows.reshape(len(rows), -1, 4) @ np.uint8([8, 4, 2, 1])
            return _amplitudes(self, lambda j: (tables[j][0][index[:, j]],
                                                tables[j][1][index[:, j]]))
        # a (D, D) product at a node, a (rows, D) message per level, and the
        # row as uint8 and its group index, each with room for temporaries
        d, n = max(self.max_bond(), 2), self.n_sites
        return (2 * d + n.bit_length()) * d + n // 4, kernel

    def _sample_view(self):
        # the rooted copy with its node table: heap node k is entry k - 1,
        # an octet its tensor and its groups' blocks, the root of 4 pixels
        # its block as (1, 16, 1).  A (D, D) message per level, an octet's
        # (D, 16) product and three (256,) weight rows
        work, d, n = _RootedTree(self), max(self.max_bond(), 4), self.n_sites
        b, octet = work.blocks, n // 8
        work.nodes = [(_node_data(work, k), 2 * k - 1, 2 * k)
                      for k in range(1, octet)] + [
            (_node_data(work, octet + j), slice(8 * j, 8 * j + 8),
             (b[2 * j], b[2 * j + 1])) for j in range(octet)] or [
            (b[0].T[:, :, None], slice(0, 4), None)]
        return work, d * (d * (n.bit_length() - 2) + 16) + 3 * 256

    def sample(self, count: int, seed: int, ordering=None):
        from . import sampling
        return sampling.sample_batch(self, count, seed, ordering=ordering)

    def sweep_epoch(self, dataset, config, **kwargs):
        from . import training
        return training.sweep_epoch(self, dataset, config, **kwargs)


def bond_capacity(n_sites: int, node: int, d_max: int) -> int:
    """Bond dimension of the edge above ``node``: d_max capped by what the
    subtree can carry (2 to the number of pixels below the edge)."""
    sites_below = n_sites >> (node.bit_length() - 1)   # halved per level
    if sites_below >= 62:
        return d_max
    return min(d_max, 2 ** sites_below)


def build_random(n_pixels_padded: int, d_max: int, seed: int) -> TtnModel:
    """Random TTN with capacity-capped bonds, canonicalized to the root.

    Entries are i.i.d. uniform on (-1, 1) from a seeded generator, so the
    same seed always yields the identical model.
    """
    if n_pixels_padded < 4 or n_pixels_padded & (n_pixels_padded - 1):
        raise TopologyError(
            f"n_pixels_padded must be a power of 2 >= 4, got {n_pixels_padded}")
    if d_max < 1:
        raise DimensionError("d_max must be >= 1")
    n_t = n_pixels_padded - 1
    dims = {n: bond_capacity(n_pixels_padded, n, d_max) for n in range(2, n_t + 1)}
    rng = np.random.default_rng(seed)
    tensors = [None]
    for n in range(1, n_t + 1):
        if n == 1:
            shape = (dims[2], dims[3])
        elif 2 * n > n_t:
            shape = (dims[n], 2, 2)
        else:
            shape = (dims[n], dims[2 * n], dims[2 * n + 1])
        tensors.append(DenseTensor(rng.uniform(-1.0, 1.0, size=shape),
                                   validate=False))
    model = TtnModel(n_pixels_padded, tensors, canonical_center=None,
                     d_max=d_max)
    canonicalize(model, 1)
    return model


# -- canonical form ---------------------------------------------------------

def push_qr(model: BornMachine, u: int, v: int):
    """Make tensor u canonical toward neighbor v, absorbing R into v."""
    au = model.axis_toward(u, v)
    t = model.tensors[u]
    rows = [i for i in range(t.ndim) if i != au]
    res = qr_split(t, rows, [au])
    q = move_axis(res.q.data, -1, au)
    model.tensors[u] = DenseTensor(np.ascontiguousarray(q), 0.0, validate=False)
    av = model.axis_toward(v, u)
    tv = model.tensors[v]
    merged = np.tensordot(res.r.data, tv.data, axes=([1], [av]))
    merged = move_axis(merged, 0, av)
    model.tensors[v] = DenseTensor(
        np.ascontiguousarray(merged), tv.log_scale + res.r.log_scale,
        validate=False).rescaled()


def _toward(model: BornMachine, center: int):
    """The tensors in breadth-first order from ``center``, and each one's
    next hop toward it (None at the center)."""
    order, toward = [center], {center: None}
    for node in order:
        for nb in model.neighbors(node):
            if nb not in toward:
                toward[nb] = node
                order.append(nb)
    return order, toward


def canonicalize(model: BornMachine, center: int) -> BornMachine:
    """Push all non-canonical weight onto ``center``; Psi is unchanged."""
    if not model.first_tensor <= center < model.n_sites:
        raise TopologyError(f"center {center} out of range")
    if model.canonical_center is not None:
        path = model.path(model.canonical_center, center)
        for a, b in zip(path[:-1], path[1:]):
            push_qr(model, a, b)
    else:
        # push farthest nodes first so every push lands on a neighbor that
        # has not been finalized yet
        order, toward = _toward(model, center)
        for node in reversed(order[1:]):
            push_qr(model, node, toward[node])
    model.canonical_center = center
    return model


def max_canonical_deviation(model: BornMachine) -> float:
    """Largest deviation of any non-center tensor from its canonical identity."""
    if model.canonical_center is None:
        raise StateError("model has no canonical center")
    worst = 0.0
    for n, nxt in _toward(model, model.canonical_center)[1].items():
        if nxt is not None:
            worst = max(worst, _isometry_deviation(
                model.tensors[n], model.axis_toward(n, nxt)))
    return worst


def _isometry_deviation(t: DenseTensor, axis: int) -> float:
    """max |G - 1| for the Gram matrix G of ``t`` contracted with itself
    over every axis but ``axis``; 0 for an isometry onto that axis."""
    others = [i for i in range(t.ndim) if i != axis]
    g = np.tensordot(t.data, t.data, axes=(others, others))
    g = g * math.exp(2.0 * t.log_scale)
    return float(np.max(np.abs(g - np.eye(g.shape[0]))))


def partition_function(model) -> float:
    """log Z for a model (tree or chain) in mixed canonical form."""
    if model.canonical_center is None:
        raise StateError("partition_function requires a canonical center; "
                         "canonicalize the model first")
    log_norm = frobenius_norm(model.tensors[model.canonical_center])
    return 2.0 * log_norm


# -- amplitudes --------------------------------------------------------------

def _rescale_rows(m, logs):
    """Scale each row of ``m`` to unit max magnitude in place, adding the
    log of its factor to ``logs``; zero rows stay zero."""
    mx = np.abs(m).max(axis=1)
    if not mx.all():
        mx[mx == 0.0] = 1.0
    m /= mx[:, None]
    logs += np.log(mx)
    return m, logs


def _contract_node(t: DenseTensor, parts, out=None):
    """Contract node tensor ``t`` with per-sample (rows, logs) messages on
    every axis but ``out``, or on all its axes when ``out`` is None.

    ``parts`` lists the messages in axis order.  The message on the lowest
    axis enters by one GEMM, the other (if any) by a per-sample product.
    Returns the (rows, logs) message along ``out``, rescaled, or for a full
    contraction the unscaled per-sample values with their logs.
    """
    axes = [a for a in range(t.ndim) if a != out]
    m, logs = parts[0]
    x = np.tensordot(m, t.data, axes=([1], [axes[0]]))
    if len(parts) > 1:
        m, log_m = parts[1]
        logs = logs + log_m
        # x has the sample axis, then t's axes but the lowest, so t's axis
        # axes[1] is x's axis axes[1]
        keep = [i for i in range(x.ndim) if i != axes[1]]
        x = np.einsum(x, range(x.ndim), m, [0, axes[1]], keep)
    logs = logs + t.log_scale
    if out is None:
        return x, logs
    return _rescale_rows(x, logs)


def _signed_logs(val: np.ndarray, logs: np.ndarray):
    """(log |amplitude|, sign) of amplitudes ``val * exp(logs)``."""
    sign = np.sign(val).astype(np.int64)
    log_abs = np.full(val.shape[0], NEG_INF)
    nz = val != 0.0
    log_abs[nz] = np.log(np.abs(val[nz])) + logs[nz]
    return log_abs, sign


def _node_data(model: TtnModel, n: int) -> np.ndarray:
    """Tensor n's data, the root's with a dimension-1 parent bond."""
    t = model.tensors[n]
    return t.data.reshape((-1,) + t.shape[-2:])


def _group_blocks(model: TtnModel):
    """The (16, D) amplitude table of each 4-pixel subtree and its log
    scale, by group j (pixels 4j..4j+3, the first most significant in the
    row index).  A group root is a parent of two leaves (the root at 4
    pixels), D its parent bond; one stacked product per shape class."""
    first, tensors = model.n_sites // 4, model.tensors
    classes, blocks = {}, [None] * first
    for g in range(first, 2 * first):
        classes.setdefault(tensors[g].data.shape, []).append(g)
    for shape, pick in classes.items():
        t = np.stack([tensors[g].data for g in pick])
        t = t.reshape((len(pick), -1) + shape[-2:])
        da, db, dc = t.shape[1:]
        left = np.stack([tensors[2 * g].data for g in pick])
        right = np.stack([tensors[2 * g + 1].data for g in pick])
        x = np.matmul(left.reshape(-1, 1, db, 4).transpose(0, 1, 3, 2),
                      t @ right.reshape(-1, 1, dc, 4))
        x = x.reshape(len(pick), da, 16).transpose(0, 2, 1)
        for g, b in zip(pick, np.ascontiguousarray(x)):
            blocks[g - first] = b
    logs = [tensors[g].log_scale + tensors[2 * g].log_scale
            + tensors[2 * g + 1].log_scale for g in range(first, 2 * first)]
    return blocks, logs


def _kron_groups(v: np.ndarray) -> np.ndarray:
    """(..., 16) products of (..., 4, 2) per-pixel vectors, in row order."""
    return np.einsum("...a,...b,...c,...d->...abcd",
                     *np.moveaxis(v, -2, 0)).reshape(v.shape[:-2] + (16,))


def _amplitudes(model: TtnModel, group_message):
    """(log_abs, sign) of every row: the tree above the group roots
    contracted with group j's (rows, logs) message ``group_message(j)``,
    depth first, so one message per level is live, not a level of them."""
    first = model.n_sites // 4

    def up(n):   # node n's message; the root in full, to (S,) values
        if n >= first:
            return group_message(n - first)
        return _contract_node(model.tensors[n], [up(2 * n), up(2 * n + 1)],
                              0 if n > 1 else None)

    rows, logs = up(1)
    return _signed_logs(rows.reshape(-1), logs)


def amplitudes_from_vectors(model: TtnModel, vectors: np.ndarray):
    """Batched linear contraction of the network with per-pixel 2-vectors.

    ``vectors`` has shape (S, n_sites, 2); returns (log_abs, sign) arrays of
    shape (S,).  One-hot rows give amplitudes of pixel configurations; other
    vectors give weighted sums of amplitudes (e.g. all-ones sums Psi over all
    configurations).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 2:
        vectors = vectors[np.newaxis]
    if vectors.shape[1] != model.n_sites or vectors.shape[2] != 2:
        raise DimensionError(
            f"expected vectors of shape (S, {model.n_sites}, 2), got "
            f"{vectors.shape}")
    blocks, logs = _group_blocks(model)
    return _amplitudes(model, lambda j: _rescale_rows(
        _kron_groups(vectors[:, 4 * j:4 * j + 4]) @ blocks[j],
        np.full(vectors.shape[0], logs[j])))


def contract_pixel_vectors(model: TtnModel, vectors) -> Amplitude:
    """Linear contraction with arbitrary per-pixel 2-vectors (one row)."""
    log_abs, sign = amplitudes_from_vectors(model, np.asarray(vectors))
    return Amplitude(float(log_abs[0]), int(sign[0]))


def _born_log_probs(log_z: float, log_abs, sign) -> np.ndarray:
    """log p(x) = 2 log |Psi(x)| - log Z; -inf where Psi(x) is zero."""
    with np.errstate(invalid="ignore"):
        return np.where(sign != 0, 2.0 * log_abs - log_z, NEG_INF)


_ROW_BUDGET = 2 ** 22   # floats per chunk of rows, 32 MiB


def _chunk_rows(row_floats: int, count: int) -> int:
    """Rows per chunk of ``log_probs``, ``sampling.sample_batch`` and the
    factor graph's queries: as many as fit ``_ROW_BUDGET`` at
    ``row_floats`` per row, and at least 64."""
    return int(max(64, min(count, _ROW_BUDGET // row_floats)))


def _row_chunks(row_floats: int, count: int):
    """Consecutive slices of ``count`` rows, ``_chunk_rows`` at a time."""
    step = _chunk_rows(row_floats, count)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def log_probs(model: BornMachine, samples) -> np.ndarray:
    """log p(x) for a batch of samples, of either model; -inf where the
    amplitude is zero.  The rows are checked once, then passed chunk by
    chunk, as uint8, to the model's ``_amplitude_kernel``."""
    log_z = partition_function(model)
    samples = np.atleast_2d(_check_pixel_values(samples))
    if samples.shape[1] != model.n_sites:
        raise DimensionError(f"samples have {samples.shape[1]} pixels, "
                             f"model has {model.n_sites}")
    row_floats, kernel = model._amplitude_kernel()
    out = np.empty(samples.shape[0])
    for rows in _row_chunks(row_floats, samples.shape[0]):
        out[rows] = _born_log_probs(log_z, *kernel(
            samples[rows].astype(np.uint8, copy=False)))
    return out


# -- doubled-network contractions (marginals, correlations) ------------------

def _rooted_copy(model: BornMachine, center: int) -> BornMachine:
    """A copy of ``model`` canonical at ``center`` that shares every
    tensor the move leaves alone.  The copy has its own tensor list, and
    ``canonicalize`` replaces the tensors it touches (those on the path from
    the old center, or all of them when ``model`` has none) instead of
    writing into them, so ``model`` is unchanged."""
    work = shallow_copy(model)
    work.tensors = list(model.tensors)
    if work.canonical_center != center:
        canonicalize(work, center)
    return work


def _rescale_batch(arr):
    """Scale each row or branch (leading index) to unit max magnitude; zero
    ones stay zero.  For messages whose scales cancel in every normalized
    output, so no log bookkeeping is needed."""
    arr = np.ascontiguousarray(arr)
    flat = arr.reshape(arr.shape[0], -1)
    mx = np.max(np.abs(flat), axis=1)
    nz = mx > 0
    if np.any(nz):
        flat[nz] /= mx[nz, None]
    return arr


def _up_message(t, left, right):
    """sum T[a,b,c] L[s,b,d] R[s,c,e] T[f,d,e], (B, a, f), where an absent
    (None) child message stands for the identity."""
    x = t if right is None else np.matmul(t, right[:, None])
    if left is not None:
        x = np.matmul(left.transpose(0, 2, 1)[:, None], x)
    da = t.shape[0]
    return np.matmul(x.reshape(-1, da, x.shape[-2] * x.shape[-1]),
                     t.reshape(da, -1).T)


class _RootedTree(TtnModel):
    """A root-canonical copy of a tree (``_rooted_copy``) with its group
    blocks, built once for every pass made on it: the two marginal passes
    of ``correlation_map``, or every chunk of a sample.  It does not see
    later changes to the model it copies, and lives as long as its caller
    holds it."""

    def __init__(self, model: TtnModel):
        vars(self).update(vars(_rooted_copy(model, 1)))
        self.blocks = _group_blocks(self)[0]

    def marginal_stack(self, assignments) -> np.ndarray:
        return _doubled_marginals(self, self.blocks, assignments)


def _doubled_marginals(work: TtnModel, blocks, assignments) -> np.ndarray:
    """(B, n_sites, 2) conditional marginals of every pixel, one block per
    clamp assignment in ``assignments``, on ``work``, a root-canonical
    tree, and its group blocks.

    Below the root every tensor is an isometry onto its parent bond, so a
    subtree without a clamped pixel contracts to the identity in the
    doubled network.  Doubled up-messages are formed only for subtrees
    that hold a clamped pixel (of any branch); the one downward pass
    carries the B branches stacked and stops at the group roots, where
    each group's 16 doubled weights are read off its block.  Clamped
    pixels get a one-hot row.  Raises if a branch has zero mass.
    """
    n_sites, count = work.n_sites, len(assignments)
    ops = _clamp_weights(n_sites, assignments)
    first = n_sites // 4
    group_ops = _kron_groups(ops.reshape(count, first, 4, 2))
    hot = set()
    for k in {k for assignment in assignments for k in assignment}:
        node = (n_sites + k) // 4
        while node > 1 and node not in hot:
            hot.add(node)
            node //= 2

    up = {}
    for node in sorted(hot, reverse=True):
        if node >= first:
            b = blocks[node - first]
            m = np.matmul(b.T * group_ops[:, node - first, None], b)
        else:
            m = _up_message(work.tensors[node].data, up.get(2 * node),
                            up.get(2 * node + 1))
        up[node] = _rescale_batch(m)

    # Environments above each node, (B, D, D).  Through an isometry with an
    # identity sibling the trace is preserved, so only the root's messages
    # and those with a clamped sibling need rescaling.
    down = {1: np.ones((count, 1, 1))}
    for node in range(1, first):
        t = _node_data(work, node)
        da, dl, dr = t.shape
        y = down.pop(node).reshape(count * da, da) @ t.reshape(da, dl * dr)
        y = y.reshape(count, da, dl, dr)
        # each child's environment is y against t with the sibling's
        # up-message, if any, applied to the sibling's axis of t
        ul, ur = up.get(2 * node), up.get(2 * node + 1)
        tr = t if ur is None else np.matmul(t.reshape(da * dl, dr), ur)
        tl = t if ul is None else np.matmul(ul.transpose(0, 2, 1)[:, None], t)
        left = np.matmul(y.transpose(0, 2, 1, 3).reshape(count, dl, da * dr),
                         tr.reshape(-1, da, dl, dr).transpose(0, 1, 3, 2)
                         .reshape(-1, da * dr, dl))
        right = np.matmul(y.reshape(count, da * dl, dr).transpose(0, 2, 1),
                          tl.reshape(-1, da * dl, dr))
        down[2 * node] = left if ur is None else _rescale_batch(left)
        down[2 * node + 1] = right if ul is None else _rescale_batch(right)
        if node == 1:
            down[2], down[3] = _rescale_batch(down[2]), _rescale_batch(down[3])

    # each group's 16 doubled weights B E B^T, one stacked product per
    # group root bond dimension
    dims = np.array([b.shape[1] for b in blocks])
    joint = np.empty((count, first, 16))
    for d in np.unique(dims):
        pick = np.flatnonzero(dims == d)
        e = np.stack([down[first + i] for i in pick], axis=1)
        b = np.stack([blocks[i] for i in pick])
        joint[:, pick] = np.sum(np.matmul(b, e) * b, axis=3)
    # a pixel's own clamp weighs only its row, which is set one-hot below
    joint = (joint * group_ops).reshape(count, first, 2, 2, 2, 2)
    out = np.stack([joint.sum(axis=tuple(a for a in range(2, 6) if a != j))
                    for j in range(2, 6)], axis=2)
    return _normalized_marginals(out.reshape(count, n_sites, 2), assignments)


# -- model-generic functions (any BornMachine) ---------------------------------

def single_site_marginals(model, assignment=None) -> np.ndarray:
    """(n_sites, 2) conditional marginals of every pixel given ``assignment``.

    Clamped pixels get a one-hot row.  Raises if the clamped assignment has
    zero total probability mass.  Relies on the canonical form: a model with
    a canonical center must be canonical about it.
    """
    return model.marginal_stack([dict(assignment or {})])[0]


def sample_matrix(dataset, n_sites: int) -> np.ndarray:
    """The (S, n_sites) sample matrix of a dataset or array, checked, as
    uint8 (a bool matrix would index as a mask); not copied if it is."""
    samples = dataset.samples if hasattr(dataset, "samples") else np.asarray(dataset)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("dataset must be a nonempty matrix of samples")
    if samples.shape[1] != n_sites:
        raise DimensionError(
            f"dataset has {samples.shape[1]} pixels, model has {n_sites}")
    return _check_pixel_values(samples).astype(np.uint8, copy=False)


def _check_pixel_values(samples) -> np.ndarray:
    """``samples`` as an array, once every value is checked to be 0 or 1
    (as an index, -1 would silently read as pixel value 1): integers and
    bools by their min and max, other dtypes value by value."""
    samples = np.asarray(samples)
    if samples.dtype.kind in "biu" and (
            samples.size == 0 or samples.min() >= 0 and samples.max() <= 1):
        return samples
    bad = (samples != 0) & (samples != 1)
    if np.any(bad):
        raise ValueError(f"pixel values must be 0 or 1, got {samples[bad][0]}")
    return samples


def _check_pixel(k: int, n_sites: int):
    if not (isinstance(k, (int, np.integer)) and 0 <= k < n_sites):
        raise ValueError(f"pixel {k!r} is not an integer in range({n_sites})")


def _clamp_weights(n_sites: int, assignments) -> np.ndarray:
    """(B, n_sites, 2) diagonal pixel operators of B clamp assignments:
    (1, 1) for a free pixel, one-hot for a clamped one."""
    ops = np.ones((len(assignments), n_sites, 2))
    for s, assignment in enumerate(assignments):
        for k, v in assignment.items():
            _check_pixel(k, n_sites)
            if v not in (0, 1):
                raise ValueError(f"pixel value must be 0 or 1, got {v!r}")
            ops[s, k, 1 - int(v)] = 0.0
    return ops


def _normalized_marginals(out: np.ndarray, assignments) -> np.ndarray:
    """Normalize (B, n_sites, 2) unnormalized marginals in place and give
    clamped pixels a one-hot row; raises if a branch has zero mass."""
    np.maximum(out, 0.0, out=out)
    totals = out.sum(axis=2)
    if np.any(totals <= 0.0):
        raise DegenerateDistributionError(
            "clamped configuration has zero probability mass")
    out /= totals[:, :, None]
    for s, assignment in enumerate(assignments):
        for k, v in assignment.items():
            out[s, k] = 0.0
            out[s, k, v] = 1.0
    return out


def nll(model, dataset) -> float:
    """Mean negative log-likelihood; +inf if any sample has zero probability."""
    lp = model.log_probs(sample_matrix(dataset, model.n_sites))
    if np.any(np.isneginf(lp)):
        return float("inf")
    return float(-np.mean(lp))


def marginal(model, fixed, open_pixel: int):
    """(p0, p1) for ``open_pixel`` given the clamped pixels in ``fixed``."""
    fixed = dict(fixed or {})
    if open_pixel in fixed:
        raise ValueError(f"pixel {open_pixel} is already fixed")
    _check_pixel(open_pixel, model.n_sites)
    row = model.single_site_marginals(fixed)[open_pixel]
    return float(row[0]), float(row[1])


def correlation(model, pixel_i: int, pixel_j: int) -> float:
    """Connected correlation <s_i s_j> - <s_i><s_j> with pixels mapped to +-1."""
    if pixel_i == pixel_j:
        raise ValueError("correlation requires two distinct pixels")
    _check_pixel(pixel_j, model.n_sites)
    return float(correlation_map(model, pixel_i)[pixel_j])


def correlation_map(model, ref_pixel: int) -> np.ndarray:
    """Connected correlations of ``ref_pixel`` with every pixel (its
    variance at itself): one unclamped marginals pass plus one pass with
    ``ref_pixel`` clamped to its likelier value v.

    With s = +-1 the spin of a pixel and p_v >= 1/2 the probability of v,
    cov(s_r, s_j) = s(v) 2 p_v (E[s_j | x_r = v] - E[s_j]), so the branch
    at the other value is not needed, and this one never has zero mass.
    Both passes run on one ``_marginal_view``; the means are those of
    ``single_site_marginals``, bit for bit.
    """
    _check_pixel(ref_pixel, model.n_sites)
    view = model._marginal_view()
    base = view.single_site_marginals()
    spin = np.array([-1.0, 1.0])
    means = base @ spin
    v = int(base[ref_pixel, 1] > base[ref_pixel, 0])
    cond = view.marginal_stack([{ref_pixel: v}])[0]
    out = (2.0 * spin[v] * base[ref_pixel, v]) * (cond @ spin - means)
    out[ref_pixel] = 1.0 - means[ref_pixel] ** 2
    return out
