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
per-model kernels, and sampling and the doubled marginal pass, over
per-model rooted node tables.  The tree's reads take each 4-pixel subtree
as one (16, D) block, a per-call view that replaces the bottom two levels
of the heap (``_group_blocks``), and sampling and evaluation (given enough
distinct rows) each 8-pixel subtree as one (256, D) table lifted from them
(``_lifted``).

The squared amplitude of a pixel configuration, normalized by the partition
function, is the model probability.  In mixed canonical form every tensor
except one (the center) contracts with itself over its two non-center-facing
axes to the identity, which makes the partition function the squared
Frobenius norm of the center tensor, times exp(2 ``BornMachine.log_norm``).
"""

from __future__ import annotations

import math
from copy import copy as shallow_copy
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDistributionError, DimensionError, StateError,
                     TopologyError)
from .tensor import (NEG_INF, DenseTensor, frobenius_norm, kron_rows,
                     move_axis, qr_split)

_EYE2 = np.eye(2)
_TINY = np.finfo(float).tiny
_WINDOW = (1e-150, 1e150)   # of max |entry|, kept by ``push_qr``


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
    and three methods, ``log_probs``, ``single_site_marginals`` and
    ``sweep_epoch``, that call its model's module function by name; every
    other operation is only a module function.  ``log_probs`` and
    ``sampling.sample_batch`` walk the rows in chunks through two kernels
    built once per call, each with the floats a row holds in it, which size
    the chunks: ``_amplitude_kernel()`` maps rows to (log |Psi|, sign), and
    ``sampling._sampler`` gives the uniforms per row and a map from uniforms
    to (rows, log p): one walk over the rooted node table of the re-centred
    copy that ``_sample_view()`` gives, as ``_doubled_marginals`` (stacked
    clamps) is one doubled pass over that of ``_marginal_view()``.

    Each model answers one topology question, ``axis_sites(k)``: what sits
    on each axis of tensor k, in axis order, a neighbouring tensor (its
    index), a ``Pixel`` or None for a dimension-1 boundary bond (the
    chain's two ends); ``path(u, v)`` lists the tensors from u to v.
    Neighbors, axis lookup, the shape check and ``copy`` are written here
    once for both models.  Psi is exp(``log_norm``) times the network of
    the tensors' data; ``partition_function`` and
    ``amplitudes_from_vectors`` include it, ``log_probs`` and the sampler's
    chain log, where it cancels, do not.
    """

    log_norm = 0.0

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
        """``max(bond_dims().values())`` without the dict: in both models
        every bond is axis 0 of one tensor past the first."""
        return max(len(t.data) for t in self.tensors[self.first_tensor + 1:])


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
        from . import training      # which imports this module
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

def _in_window(model: BornMachine, a: np.ndarray) -> np.ndarray:
    """``a``, or where its max |entry| m leaves ``_WINDOW``, a / m with
    log m moved onto ``model.log_norm``."""
    m = float(np.max(np.abs(a))) if a.size else 0.0
    if m == 0.0 or _WINDOW[0] <= m <= _WINDOW[1]:
        return a
    model.log_norm += math.log(m)
    return a / m


def push_qr(model: BornMachine, u: int, v: int):
    """Make u canonical toward v, absorbing R into v (both ``_in_window``)."""
    au = model.axis_toward(u, v)
    t = model.tensors[u]
    rows = [i for i in range(t.ndim) if i != au]
    res = qr_split(t, rows, [au])
    q = move_axis(res.q.data, -1, au)
    model.tensors[u] = DenseTensor(np.ascontiguousarray(q), validate=False)
    av = model.axis_toward(v, u)
    merged = np.tensordot(_in_window(model, res.r.data),
                          model.tensors[v].data, axes=([1], [av]))
    merged = move_axis(merged, 0, av)
    model.tensors[v] = DenseTensor(
        _in_window(model, np.ascontiguousarray(merged)), validate=False)


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
    """Largest deviation of any non-center tensor from its canonical
    identity, max |G - 1| for its Gram matrix G over all axes but the one
    toward the center (axis 0 off the path from the center to the first
    tensor), checked a shape class ``_LIFT_FLOATS`` at a time; inf or NaN
    where a Gram passes the float range."""
    c = model.canonical_center
    if c is None:
        raise StateError("model has no canonical center")
    path = model.path(c, model.first_tensor)
    toward = {n: model.axis_toward(n, nxt) for n, nxt in zip(path[1:], path)}
    classes, worst = {}, 0.0
    for n in range(model.first_tensor, model.n_sites):
        t, axis = model.tensors[n], toward.get(n, 0)
        if n == c:
            continue
        # as a (that axis, the rest) matrix, a view if it can
        a = (t.data.reshape(-1, t.data.shape[-1]).T if axis == t.ndim - 1
             else t.data.swapaxes(0, axis).reshape(t.data.shape[axis], -1))
        classes.setdefault(a.shape, []).append(a)
    for (d, _), mats in classes.items():
        g = np.empty((min(len(mats), max(1, _LIFT_FLOATS // d ** 2)), d, d))
        for s in range(0, len(mats), len(g)):
            part = mats[s:s + len(g)]
            with np.errstate(over="ignore", invalid="ignore"):
                for i, a in enumerate(part):
                    np.matmul(a, a.T, out=g[i])
            h = g[:len(part)] - np.eye(d)
            worst = np.maximum(worst, np.abs(h, out=h).max())   # keeps a NaN
    return float(worst)


def partition_function(model) -> float:
    """log Z for a model (tree or chain) in mixed canonical form."""
    return _data_log_z(model) + 2.0 * model.log_norm


def _data_log_z(model) -> float:
    """log Z of the network of the tensors' data, without ``log_norm``."""
    if model.canonical_center is None:
        raise StateError("partition_function requires a canonical center; "
                         "canonicalize the model first")
    return 2.0 * frobenius_norm(model.tensors[model.canonical_center])


# -- amplitudes --------------------------------------------------------------

def _rescale_rows(m, logs):
    """Scale each row of ``m`` in place by the power of two 2^-e that puts
    its max magnitude in [0.5, 1), adding e·ln 2 to ``logs``: no mantissa
    bit changes, and a zero row keeps its bits and log.  (``np.ldexp``, as a
    factor 2^-e overflows at a subnormal max; ``initial`` halves the
    reduction's time on rows of 8 or more floats.)"""
    e = np.frexp(np.abs(m).max(axis=1, initial=0.0))[1]
    np.ldexp(m, -e[:, None], out=m)
    logs += e * math.log(2.0)
    return m, logs


def _contract_node(t: DenseTensor, parts, out=None):
    """Contract node tensor ``t`` with per-sample (rows, logs) messages on
    every axis but ``out``, or on all its axes when ``out`` is None.

    ``parts`` lists the messages in axis order.  The message on the lowest
    axis enters by one GEMM, the other (if any) by a per-sample product.
    Returns the (rows, logs) message along ``out``, unscaled, or for a full
    contraction the per-sample values, each with new logs.
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
    else:
        logs = logs.copy()
    return x, logs


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


# floats of one stacked product in ``_lifted``, which lifts a level a few
# nodes at a time, never a whole class's (nodes, Da, kb, D) at once
_LIFT_FLOATS = 2 ** 16


def _lifted(model: TtnModel, first: int, tables, logs, scaled: bool):
    """The amplitude tables of heap nodes first … 2·first − 1 and their
    (first, rows) row logs, from the level below's ``tables`` and ``logs``
    (node first + j's children at 2j and 2j + 1): row i·kb + j of node T's
    table is sum_ab L[i, a] T[:, a, b] R[j, b] for its children's tables L
    (ka, Da) and R (kb, Db), kb·Db·Da·D + ka·kb·Da·D multiply-adds.  Each
    shape class is one array, written by two stacked products a few nodes
    at a time; ``scaled`` rescales their rows (``_rescale_rows``)."""
    nodes = [_node_data(model, k) for k in range(first, 2 * first)]
    logs = (logs[0::2, :, None] + logs[1::2, None, :]).reshape(first, -1)
    level, classes = [None] * first, {}
    for j, t in enumerate(nodes):
        classes.setdefault(t.shape, []).append(j)
    for (d, da, _), pick in classes.items():
        ka, kb = len(tables[2 * pick[0]]), len(tables[2 * pick[0] + 1])
        out = np.empty((len(pick), ka * kb, d))
        step = max(1, _LIFT_FLOATS // (da * kb * d))
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
                _rescale_rows(out[s:s + step].reshape(-1, d),
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
        ordered = np.sort(keys, axis=1)
        new = np.ones(keys.shape, bool)
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
        if 8 * np.count_nonzero(new) > 7 * keys.size:
            picks.update((first + j, labels[2 * j:2 * j + 2])
                         for j in range(first))
            return picks, slice(None)
        rank = np.cumsum(new, axis=1) - 1
        labels = np.empty_like(rank)
        np.put_along_axis(labels, np.argsort(keys, axis=1), rank, axis=1)
        picks.update((first + j, np.divmod(o[s], bound))
                     for j, (o, s) in enumerate(zip(ordered, new)))
        bound = int(rank[:, -1].max()) + 1
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
        x = _contract_node(model.tensors[n], parts, 0 if n > 1 else None)
        return _rescale_rows(*x) if n > 1 else x

    rows, logs = up(1)
    return _signed_logs(rows.reshape(-1), logs)


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
    log_abs, sign = _amplitudes(model, len(blocks), lambda j: _rescale_rows(
        kron_rows(vectors.transpose(1, 0, 2)[4 * j:4 * j + 4]) @ blocks[j],
        np.zeros(vectors.shape[0])))
    return log_abs + model.log_norm, sign


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
    amplitude is zero.  The rows are checked once (``sample_matrix``), then
    passed chunk by chunk to the model's ``_amplitude_kernel``; neither its
    amplitudes nor this log Z include ``log_norm``."""
    log_z = _data_log_z(model)
    samples = sample_matrix(samples, model.n_sites)
    row_floats, kernel = model._amplitude_kernel()
    out = np.empty(samples.shape[0])
    for rows in _row_chunks(row_floats, samples.shape[0]):
        out[rows] = _born_log_probs(log_z, *kernel(samples[rows]))
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


def _rescale_batch(m):
    """Each branch's (leading index) message scaled to unit max magnitude,
    a zero one kept; for messages whose scales cancel in every normalized
    output, so no log bookkeeping is needed."""
    return m / np.maximum(np.abs(m).max(axis=(1, 2), keepdims=True), _TINY)


class _RootedTree(TtnModel):
    """A root-canonical copy of a tree (``_rooted_copy``) with its node
    table, built once for every pass made on it: the two marginal passes of
    ``correlation_map``, or every chunk of a sample.  Heap node k is entry
    k - 1 down to the subtrees of ``width`` pixels (4 or 8, and 4 at n = 4),
    and subtree j's root is its amplitude table A_j as A_j^T[:, :, None],
    a view.  It does not see later changes to the model it copies, and
    lives as long as its caller holds it."""

    def __init__(self, model: TtnModel, width: int):
        vars(self).update(vars(_rooted_copy(model, 1)))
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


def _doubled_marginals(view: BornMachine, assignments) -> np.ndarray:
    """(B, n_sites, 2) conditional marginals of every pixel, one block per
    clamp assignment, from the rooted node table ``view.nodes`` of a
    re-centred copy (``_marginal_view``), in the sampler's format
    (``sampling``), each child after its parent.

    Below the root every T is an isometry onto its parent bond, so a
    subtree without a clamped pixel contracts to the identity in the
    doubled network (Shi, Duan and Vidal, PRA 74:022320, 2006): up-messages
    are formed only for subtrees that hold a clamped pixel (of any branch).
    The one downward pass carries the B branches stacked and reads each
    pixel slice's values off its environment, those of the slices without a
    second child in one product per shape class.  A message is scaled
    only where a clamped sibling or the root breaks its trace.  Clamped
    pixels get a one-hot row.  Raises if a branch has zero mass.
    """
    nodes, n_sites, count = view.nodes, view.n_sites, len(assignments)
    ops = _clamp_weights(n_sites, assignments)
    clamped = {k for assignment in assignments for k in assignment}

    def on_first(t, u):   # (B, M1) weights or a (B, M1, M1) message on axis 1
        if u.ndim == 2:
            return t * u[:, None, :, None]
        return np.matmul(u.transpose(0, 2, 1)[:, None], t)

    # the clamp weights of each slice with a clamped pixel (one past the last
    # pixel is clipped), and the up-messages of the entries below the root
    # that hold one, sum T[a,x,s] U1[x,x'] U2[s,s'] T[a',x',s'], (B, a, a')
    weights, up = {}, {}
    for e in range(len(nodes) - 1, -1, -1) if clamped else ():
        t, first, second = nodes[e]
        if isinstance(first, slice):
            pixels = range(n_sites)[first]
            if not clamped.isdisjoint(pixels):
                weights[e] = kron_rows(ops.transpose(1, 0, 2)[first])
        u1 = weights.get(e) if isinstance(first, slice) else up.get(first)
        u2 = up.get(second)
        if e and (u1 is not None or u2 is not None):
            da, m1, m2 = t.shape
            x = t if u2 is None else np.matmul(t, u2[:, None])
            x = x if u1 is None else on_first(x, u1)
            up[e] = _rescale_batch(np.matmul(x.reshape(-1, da, m1 * m2),
                                             t.reshape(da, -1).T))

    # environments on each entry's parent bond, (B, Da, Da); by width M1,
    # the first pixels and (B, J, M1) values of J slices
    down, values, leaves = {0: np.ones((count, 1, 1))}, {}, {}
    for e, (t, first, second) in enumerate(nodes):
        if second is None and isinstance(first, slice):
            leaves.setdefault(t.shape, []).append(e)
            continue
        da, m1, m2 = t.shape
        y = (down.pop(e).reshape(count * da, da) @ t.reshape(da, m1 * m2)
             ).reshape(count, da, m1, m2)
        u1 = weights.get(e) if isinstance(first, slice) else up.get(first)
        u2 = up.get(second)
        tr = t if u2 is None else np.matmul(t.reshape(da * m1, m2), u2)
        if second is not None:
            tl = t if u1 is None else on_first(t, u1)
            m = np.matmul(y.reshape(count, da * m1, m2).transpose(0, 2, 1),
                          tl.reshape(-1, da * m1, m2))
            down[second] = m if e and u1 is None else _rescale_batch(m)
        if isinstance(first, slice):
            joint = np.sum(y * tr.reshape(-1, da, m1, m2), axis=(1, 3))
            values.setdefault(m1, []).append(([first.start], joint[:, None]))
            continue
        m = np.matmul(y.transpose(0, 2, 1, 3).reshape(count, m1, da * m2),
                      tr.reshape(-1, da, m1, m2).transpose(0, 1, 3, 2)
                      .reshape(-1, da * m2, m1))
        down[first] = m if e and u2 is None else _rescale_batch(m)
    # the slices without a second child: B E B^T for each one's (M1, Da)
    # block B
    for (_, m1, _), pick in leaves.items():
        b = np.stack([nodes[e][0][:, :, 0].T for e in pick])
        joint = np.sum(np.matmul(b, np.stack([down[e] for e in pick], axis=1))
                       * b, axis=3)
        values.setdefault(m1, []).append(
            ([nodes[e][1].start for e in pick], joint))

    # each pixel's sums over its slice's values, the first pixel most
    # significant, once each pixel's own clamp weighs them
    out = np.empty((count, n_sites, 2))
    for m1, parts in values.items():
        q = m1.bit_length() - 1
        joint = np.concatenate([j for _, j in parts], axis=1).reshape(
            (count, -1) + (2,) * q)
        pixels = np.add.outer([k for firsts, _ in parts for k in firsts],
                              np.arange(q))
        for p in range(q):
            joint *= ops[:, pixels[:, p]].reshape(
                (count, -1) + (1,) * p + (2,) + (1,) * (q - 1 - p))
        out[:, pixels.ravel()] = np.stack(
            [joint.sum(axis=tuple(a for a in range(2, q + 2) if a != p))
             for p in range(2, q + 2)], axis=2).reshape(count, -1, 2)
    return _normalized_marginals(out, assignments)


# -- model-generic functions (any BornMachine) ---------------------------------

def single_site_marginals(model, assignment=None) -> np.ndarray:
    """(n_sites, 2) conditional marginals of every pixel given ``assignment``.

    Clamped pixels get a one-hot row.  Raises if the clamped assignment has
    zero total probability mass.  Relies on the canonical form: a model with
    a canonical center must be canonical about it.
    """
    return _doubled_marginals(model._marginal_view(),
                              [dict(assignment or {})])[0]


def sample_matrix(rows, n_sites=None) -> np.ndarray:
    """The one check of pixel rows, a ``BinaryDataset`` or an array-like:
    an (S, n_sites) uint8 matrix (a bool one would index as a mask), not
    copied if the rows already are one.  A 1-D array is one row.  There
    must be a row, of ``n_sites`` pixels unless that is None, and every
    value must be 0 or 1 (as an index, -1 would read as pixel value 1),
    checked by min and max for integers and bools; the first bad one is
    named."""
    samples = np.asarray(getattr(rows, "samples", rows))
    if samples.ndim == 1:
        samples = samples[None]
    if samples.ndim != 2:
        raise DimensionError(f"rows must be a 1-D or 2-D array, got "
                             f"{samples.ndim}-D")
    if n_sites is not None and samples.shape[1] != n_sites:
        raise DimensionError(
            f"rows have {samples.shape[1]} pixels, model has {n_sites}")
    if 0 in samples.shape:
        raise ValueError("need at least one row of pixels")
    if not (samples.dtype.kind in "biu"
            and samples.min() >= 0 and samples.max() <= 1):
        bad = (samples != 0) & (samples != 1)
        if np.any(bad):
            raise ValueError(
                f"pixel values must be 0 or 1, got {samples[bad][0]}")
    return samples.astype(np.uint8, copy=False)


def _check_pixel(k: int, n_sites: int):
    # a bool is an int, but True is no pixel index
    if isinstance(k, bool) or not (isinstance(k, (int, np.integer))
                                   and 0 <= k < n_sites):
        raise ValueError(f"pixel {k!r} is not an integer in range({n_sites})")


def _clamp_weights(n_sites: int, assignments) -> np.ndarray:
    """(B, n_sites, 2) diagonal pixel operators of B clamp assignments:
    (1, 1) for a free pixel, one-hot for a clamped one.  A clamp value may
    be any value equal to 0 or 1 (a bool, a float)."""
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
            out[s, k, int(v)] = 1.0    # a bool v would index as a mask
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
    _check_pixel(open_pixel, model.n_sites)
    if open_pixel in fixed:
        raise ValueError(f"pixel {open_pixel} is already fixed")
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
    cond = _doubled_marginals(view, [{ref_pixel: v}])[0]
    out = (2.0 * spin[v] * base[ref_pixel, v]) * (cond @ spin - means)
    out[ref_pixel] = 1.0 - means[ref_pixel] ** 2
    return out
