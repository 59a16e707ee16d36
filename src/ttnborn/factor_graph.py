"""Tree-structure factor graph baseline and its mapping onto a TTN.

The graph has the heap TTN's topology.  Its hidden variables are the heap
nodes 1..n-1 of an n-pixel TTN, and pixel k is heap node n + k, a child of
heap leaf (n + k) // 2; so the graph is the full binary heap 1..2n-1, and
variable id m - 1 stands for heap node m.  Variables are binary.  Every
node m >= 2 shares one strictly positive 2x2 factor with its parent m // 2,
indexed f[state of m, state of m // 2].  The factors are one (2n - 2, 2, 2)
stack, ``factors[m - 2]``: heap nodes 2..n-1 first, then pixels 0..n-1 as
f[pixel value, leaf state].  Heap level L is the slice
``factors[2^L - 2 : 2^(L+1) - 2]``, and the stack order is the order of the
checkpoint's edges and tensors.

The unnormalized probability of a pixel configuration is the product of all
factors summed over the hidden states.  Every query runs the sum-product
recursion (Kschischang, Frey and Loeliger, IEEE Trans. Inf. Theory 47:498,
2001) one heap level at a time: an upward pass, with each message scaled
to a maximum of 1, gives log Z and log p~, and a downward pass adds the edge
marginals of the gradient.  Each 2-state product is written as
explicit multiply-adds, so a row rounds alike alone, in a batch and in any
chunk of ``ttn._row_chunks``.

``fg_to_ttn`` maps the graph exactly onto a TTN, which makes the mapping a
structural cross-check between the two machines.
"""

from __future__ import annotations

import time

import numpy as np

from .errors import DimensionError, TopologyError
from .tensor import DenseTensor, qr_split
from .training import MAX_BACKTRACKS
from .ttn import (TtnModel, _check_pixel_values, _clamp_weights,
                  _in_window, _row_chunks)


class TreeFactorGraph:
    """Pairwise factor graph over the binary heap of an n-pixel TTN."""

    def __init__(self, n_sites: int, factors):
        if n_sites < 4 or n_sites & (n_sites - 1):
            raise TopologyError(f"n_sites must be a power of 2 >= 4, got {n_sites}")
        self.n_sites = n_sites
        self.factors = np.array(factors, dtype=np.float64)
        if self.factors.shape != (2 * n_sites - 2, 2, 2):
            raise DimensionError(f"expected {2 * n_sites - 2} 2x2 factor "
                                 f"tables, got shape {self.factors.shape}")
        if not np.all(np.isfinite(self.factors) & (self.factors > 0)):
            raise ValueError("factor tables must be strictly positive and finite")

    @property
    def n_vars(self) -> int:
        return 2 * self.n_sites - 1

    @property
    def edges(self) -> list:
        """(child, parent) variable ids, in the order of ``factors``."""
        return [(m - 1, m // 2 - 1) for m in range(2, 2 * self.n_sites)]

    @property
    def visible(self) -> list:
        return list(range(self.n_sites - 1, 2 * self.n_sites - 1))

    def copy(self) -> "TreeFactorGraph":
        return TreeFactorGraph(self.n_sites, self.factors)


def _levels(factors: np.ndarray, weights: np.ndarray):
    """The upward pass over (2, S, n) pixel weights: ones for a free pixel,
    one-hot for an observed one.  Returns each row's log Z and, bottom up,
    each level's beliefs, messages up and factors, indexed [state, row,
    node] and [child state, parent state, -, node] (W nodes a level)."""
    stack = factors.transpose(1, 2, 0)[:, :, None, :]
    log_z = np.zeros(weights.shape[1])
    levels = []
    belief, width = weights, weights.shape[2]
    while width > 1:
        f = stack[..., width - 2:2 * width - 2]
        msg = belief[0] * f[0] + belief[1] * f[1]
        scale = np.maximum(msg[0], msg[1])
        log_z += np.log(scale).sum(axis=1)
        msg = msg / scale
        levels.append((belief, msg, f))
        belief = msg[:, :, 0::2] * msg[:, :, 1::2]
        width //= 2
    return log_z + np.log(belief[0, :, 0] + belief[1, :, 0]), levels


def _edge_marginals(factors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The (2n - 2, 2, 2) sum over the rows of ``weights`` of each edge's
    marginal P(x_m, x_m//2), by the upward and one downward pass."""
    _, levels = _levels(factors, weights)
    rows = weights.shape[1]
    out = np.empty_like(factors)
    top = np.ones((2, rows, 1))   # the message into the root from above
    for belief, msg, f in reversed(levels):
        width = msg.shape[2]
        # into each parent, from all but the node's own subtree
        down = (msg.reshape(2, rows, width // 2, 2)[..., ::-1]
                * top[..., None]).reshape(2, rows, width)
        top = f[:, 0] * down[0] + f[:, 1] * down[1]   # into each node
        # P(a, b) = belief[a] f[a, b] down[b] / sum_a belief[a] top[a]
        belief = belief / (belief[0] * top[0] + belief[1] * top[1])
        pairs = (belief[:, None] * down[None]).sum(axis=2)
        out[width - 2:2 * width - 2] = (f[..., 0, :] * pairs).transpose(2, 0, 1)
        top = top / np.maximum(top[0], top[1])
    return out


def _rows(fg: TreeFactorGraph, dataset) -> np.ndarray:
    """The checked (S, pixels) uint8 rows of a dataset or array."""
    samples = np.atleast_2d(_check_pixel_values(
        getattr(dataset, "samples", dataset)))
    if samples.shape[1] != fg.n_sites:
        raise DimensionError(f"expected {fg.n_sites} pixels, got {samples.shape[1]}")
    return samples.astype(np.uint8, copy=False)


def _chunks(fg: TreeFactorGraph, rows: np.ndarray):
    """(2, S, n) one-hot pixel weights of ``rows``, chunk by chunk; both
    passes hold about 16 floats per pixel of a row."""
    for chunk in _row_chunks(16 * fg.n_sites, rows.shape[0]):
        x = rows[chunk]
        yield chunk, np.array([1 - x, x], dtype=np.float64)


def sum_product_log_z(fg: TreeFactorGraph, clamped=None) -> float:
    """Exact log Z of the factor graph, with the pixels in ``clamped``
    (pixel -> value) fixed."""
    weights = _clamp_weights(fg.n_sites, [dict(clamped or {})])
    return float(_levels(fg.factors, weights.transpose(2, 0, 1))[0][0])


def fg_log_ptilde(fg: TreeFactorGraph, samples) -> np.ndarray:
    """log of the unnormalized probability of fully clamped configurations."""
    rows = _rows(fg, samples)
    out = np.empty(rows.shape[0])
    for chunk, weights in _chunks(fg, rows):
        out[chunk] = _levels(fg.factors, weights)[0]
    return out


def fg_nll(fg: TreeFactorGraph, dataset) -> float:
    """log Z minus the mean log p~ of the rows."""
    return float(sum_product_log_z(fg) - np.mean(fg_log_ptilde(fg, dataset)))


def fg_gradient(fg: TreeFactorGraph, samples) -> np.ndarray:
    """Gradient of the NLL in log-parameter space, stacked like ``factors``:
    d NLL / d log f_e[a, b] = P_free(edge e = (a, b)) - mean_clamped P(...),
    both terms exact by sum-product."""
    rows = _rows(fg, samples)
    clamped = np.zeros_like(fg.factors)
    for _, weights in _chunks(fg, rows):
        clamped += _edge_marginals(fg.factors, weights)
    free = _edge_marginals(fg.factors, np.ones((2, 1, fg.n_sites)))
    return free - clamped / rows.shape[0]


def fg_train(fg: TreeFactorGraph, dataset, config, *, on_epoch=None) -> tuple:
    """Gradient descent on the NLL in log-space, with step halving.

    Log-parameterization keeps every factor table strictly positive without
    projection; a step that fails to improve the NLL is halved and finally
    rejected.  ``on_epoch(fg, epoch, stats)`` runs after every epoch, as in
    ``training.train``.
    """
    samples = _rows(fg, dataset)
    stats = {"nll": [], "seconds": [], "rejected_steps": 0}
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        if epoch == 0:
            base = fg_nll(fg, samples)   # later, the previous epoch's NLL
        grads = fg_gradient(fg, samples)
        alpha = config.learning_rate
        for _try in range(MAX_BACKTRACKS + 1):
            cand = TreeFactorGraph(fg.n_sites,
                                   fg.factors * np.exp(-alpha * grads))
            cand_nll = fg_nll(cand, samples)
            if cand_nll <= base:
                fg.factors, base = cand.factors, cand_nll
                break
            alpha *= 0.5
        else:
            stats["rejected_steps"] += 1
        stats["nll"].append(base)
        stats["seconds"].append(time.perf_counter() - t0)
        if on_epoch is not None:
            on_epoch(fg, epoch, stats)
    return fg, stats


# -- TTN-shaped graphs and the exact mapping ---------------------------------

def heap_shaped_fg(n_sites: int, seed=None) -> TreeFactorGraph:
    """Factor graph whose hidden tree mirrors the heap TTN topology, with
    factors exp of standard normals from the seed."""
    factors = np.exp(np.random.default_rng(seed).standard_normal(
        (max(2 * n_sites - 2, 0), 2, 2)))
    return TreeFactorGraph(n_sites, factors)


def fg_to_ttn(fg: TreeFactorGraph) -> TtnModel:
    """Exact mapping of the factor graph onto a linear TTN.

    Each tree-edge matrix M = A B is QR-split: A (child state, bond) rides up
    with the child, and B (bond, parent state) is absorbed by the parent
    through the hidden variable's 3-way identity.  A pixel hands its leaf its
    whole factor, so the pixel index stays physical.  The network's plain
    (un-squared) contraction equals the factor graph's unnormalized
    probability for every configuration.
    """
    n_sites = fg.n_sites
    below, above = list(fg.factors), {}
    for node in range(2, n_sites):
        res = qr_split(DenseTensor(below[node - 2]), [0], [1])
        above[node] = res.q.data
        below[node - 2] = res.r.data
    tensors = [np.einsum('lx,rx->lr', below[0], below[1])] + [
        np.einsum('lx,rx,xu->ulr', below[2 * node - 2], below[2 * node - 1],
                  above[node]) for node in range(2, n_sites)]
    model = TtnModel(n_sites, [None] + [DenseTensor(t, validate=False)
                                        for t in tensors], d_max=2)
    for t in model.tensors[1:]:     # new tensors, so written in place
        t.data = _in_window(model, t.data)
    return model
