"""Tree-structure factor graph baseline and its mapping onto a TTN.

Variables are binary; every edge carries a strictly positive 2x2 factor
table indexed ``f[child_state, parent_state]`` (for visible edges the pixel
is the child).  The unnormalized probability of a pixel configuration is the
product of all factors summed over hidden variables, computed exactly by
leaf-to-root message passing with per-message rescaling.

Any such graph maps exactly onto a tree tensor network: each edge matrix is
QR-split, the halves are absorbed into per-node tensors through the 3-way
identity tensor of the hidden variable, and pixels become physical axes.
The linear contraction of the resulting network reproduces the factor
graph's unnormalized probabilities, which makes the mapping a structural
cross-check between the two machines.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .errors import DimensionError, TopologyError
from .tensor import DenseTensor, qr_split
from .training import MAX_BACKTRACKS
from .ttn import TtnModel, _check_pixel_values


class TreeFactorGraph:
    """Acyclic pairwise factor graph over binary variables."""

    def __init__(self, n_vars: int, edges, factors, visible):
        self.n_vars = int(n_vars)
        self.edges = [(int(a), int(b)) for a, b in edges]
        self.factors = [np.asarray(f, dtype=np.float64) for f in factors]
        self.visible = [int(v) for v in visible]
        for v in [v for e in self.edges for v in e] + self.visible:
            if not 0 <= v < self.n_vars:
                raise TopologyError(
                    f"variable {v} is not in range({self.n_vars})")
        if len(self.edges) != len(self.factors):
            raise DimensionError("one factor table per edge required")
        for f in self.factors:
            if f.shape != (2, 2):
                raise DimensionError("factor tables must be 2x2")
            if np.any(f <= 0):
                raise ValueError("factor tables must be strictly positive")
        self.adjacency = {v: [] for v in range(self.n_vars)}
        for idx, (a, b) in enumerate(self.edges):
            self.adjacency[a].append((b, idx))
            self.adjacency[b].append((a, idx))
        self._check_tree()
        self._pixel_of = {v: i for i, v in enumerate(self.visible)}

    def _check_tree(self):
        if len(self.edges) != self.n_vars - 1:
            raise TopologyError(
                f"{len(self.edges)} edges on {self.n_vars} variables is not a tree")
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v, _ in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != self.n_vars:
            raise TopologyError("factor graph is not connected")

    def copy(self) -> "TreeFactorGraph":
        return TreeFactorGraph(self.n_vars, self.edges,
                               [f.copy() for f in self.factors], self.visible)

    def factor_in_direction(self, idx, from_var):
        """The factor of edge idx as a matrix (state of from_var, other)."""
        a, b = self.edges[idx]
        f = self.factors[idx]
        return f if from_var == a else f.T

    def bfs_order(self, root=0):
        """(node, parent, edge idx) triples in breadth-first order."""
        order = [(root, None, None)]
        seen = {root}
        qi = 0
        while qi < len(order):
            u = order[qi][0]
            qi += 1
            for v, idx in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    order.append((v, u, idx))
        return order


def _unary(fg: TreeFactorGraph, clamped, batch):
    """(n_vars, S, 2) indicator/ones table for a batch of clampings."""
    s = 1 if batch is None else batch.shape[0]
    u = np.ones((fg.n_vars, s, 2))
    if clamped:
        for pix, val in clamped.items():
            var = fg.visible[pix]
            u[var] = 0.0
            u[var, :, int(val)] = 1.0
    if batch is not None:
        for i, var in enumerate(fg.visible):
            u[var] = np.eye(2)[batch[:, i]]
    return u


def _sum_product_logz(fg: TreeFactorGraph, unary) -> np.ndarray:
    """Batched log partition function via leaf-to-root messages."""
    order = fg.bfs_order(0)
    s = unary.shape[1]
    logs = np.zeros(s)
    beliefs = [unary[v].copy() for v in range(fg.n_vars)]
    for node, parent, idx in reversed(order[1:]):
        f = fg.factor_in_direction(idx, node)       # (node state, parent state)
        msg = np.tensordot(beliefs[node], f, axes=([1], [0]))
        mx = np.max(msg, axis=1)
        alive = mx > 0
        logs[alive] += np.log(mx[alive])
        logs[~alive] = float("-inf")
        scale = np.where(alive, mx, 1.0)
        beliefs[parent] = beliefs[parent] * (msg / scale[:, None])
    total = np.sum(beliefs[0], axis=1)
    with np.errstate(divide="ignore"):
        return logs + np.where(total > 0, np.log(np.maximum(total, 1e-300)),
                               float("-inf"))


def sum_product_log_z(fg: TreeFactorGraph, clamped=None) -> float:
    """Exact log Z of the (optionally pixel-clamped) factor graph."""
    clamped = dict(clamped or {})
    for pix in clamped:
        if not 0 <= pix < len(fg.visible):
            raise ValueError(f"clamped pixel {pix} out of range")
    return float(_sum_product_logz(fg, _unary(fg, clamped, None))[0])


def fg_log_ptilde(fg: TreeFactorGraph, samples) -> np.ndarray:
    """log of the unnormalized probability of fully clamped configurations."""
    samples = np.asarray(_check_pixel_values(samples), dtype=np.int64)
    if samples.ndim == 1:
        samples = samples[np.newaxis]
    if samples.shape[1] != len(fg.visible):
        raise DimensionError(
            f"expected {len(fg.visible)} pixels, got {samples.shape[1]}")
    return _sum_product_logz(fg, _unary(fg, None, samples))


def fg_nll(fg: TreeFactorGraph, dataset) -> float:
    samples = dataset.samples if hasattr(dataset, "samples") else np.asarray(dataset)
    log_z = sum_product_log_z(fg)
    return float(log_z - np.mean(fg_log_ptilde(fg, samples)))


def _directed_messages(fg: TreeFactorGraph, unary):
    """All directed messages (u -> v), batched, with per-message rescaling."""
    order = fg.bfs_order(0)
    msgs = {}

    def message(u, v, idx):
        prod = unary[u].copy()
        for w, widx in fg.adjacency[u]:
            if w != v:
                prod = prod * msgs[(w, u)]
        out = np.tensordot(prod, fg.factor_in_direction(idx, u), axes=([1], [0]))
        mx = np.max(out, axis=1)
        mx[mx <= 0] = 1.0
        return out / mx[:, None]

    for node, parent, idx in reversed(order[1:]):
        msgs[(node, parent)] = message(node, parent, idx)
    for node, parent, idx in order[1:]:
        msgs[(parent, node)] = message(parent, node, idx)
    return msgs


def fg_edge_marginals(fg: TreeFactorGraph, unary) -> list:
    """Pairwise marginal of each edge, batched: list of (S, 2, 2) arrays."""
    msgs = _directed_messages(fg, unary)
    out = []
    for idx, (a, b) in enumerate(fg.edges):
        mu_a = unary[a].copy()
        for w, _ in fg.adjacency[a]:
            if w != b:
                mu_a = mu_a * msgs[(w, a)]
        mu_b = unary[b].copy()
        for w, _ in fg.adjacency[b]:
            if w != a:
                mu_b = mu_b * msgs[(w, b)]
        belief = mu_a[:, :, None] * fg.factors[idx][None, :, :] * mu_b[:, None, :]
        totals = belief.sum(axis=(1, 2), keepdims=True)
        out.append(belief / totals)
    return out


def fg_gradient(fg: TreeFactorGraph, samples) -> list:
    """Gradient of the NLL in log-parameter space, one (2, 2) array per edge.

    d NLL / d log f_e[a, b] = P_free(edge e = (a, b)) - mean_clamped P(...),
    both terms exact by sum-product.
    """
    samples = np.asarray(_check_pixel_values(samples), dtype=np.int64)
    clamped = fg_edge_marginals(fg, _unary(fg, None, samples))
    free = fg_edge_marginals(fg, _unary(fg, None, None))
    return [free[i][0] - clamped[i].mean(axis=0) for i in range(len(fg.edges))]


def fg_train(fg: TreeFactorGraph, dataset, config, *, on_epoch=None) -> tuple:
    """Gradient descent on the NLL in log-space, with step halving.

    Log-parameterization keeps every factor table strictly positive without
    projection; a step that fails to improve the NLL is halved and finally
    rejected.  ``on_epoch(fg, epoch, stats)`` runs after every epoch, as in
    ``training.train``.
    """
    samples = dataset.samples if hasattr(dataset, "samples") else np.asarray(dataset)
    samples = samples.astype(np.int64)
    stats = {"nll": [], "seconds": [], "rejected_steps": 0}
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        base = fg_nll(fg, samples)
        grads = fg_gradient(fg, samples)
        alpha = config.learning_rate
        accepted = False
        for _try in range(MAX_BACKTRACKS + 1):
            cand = fg.copy()
            for e in range(len(fg.edges)):
                cand.factors[e] = fg.factors[e] * np.exp(-alpha * grads[e])
            if fg_nll(cand, samples) <= base:
                fg.factors = cand.factors
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            stats["rejected_steps"] += 1
        stats["nll"].append(fg_nll(fg, samples))
        stats["seconds"].append(time.perf_counter() - t0)
        if on_epoch is not None:
            on_epoch(fg, epoch, stats)
    return fg, stats


# -- TTN-shaped graphs and the exact mapping ---------------------------------

def heap_shaped_fg(n_sites: int, seed=None, factors=None) -> TreeFactorGraph:
    """Factor graph whose hidden tree mirrors the heap TTN topology.

    Hidden variable ids 0..n_sites-2 stand for heap nodes 1..n_sites-1;
    pixel k is variable n_sites-1+k, attached to its heap leaf.  Factors
    default to exp of standard normals from the seed.
    """
    if n_sites < 4 or n_sites & (n_sites - 1):
        raise TopologyError(f"n_sites must be a power of 2 >= 4, got {n_sites}")
    n_hidden = n_sites - 1
    edges = []
    for node in range(2, n_hidden + 1):
        edges.append((node - 1, node // 2 - 1))          # child, parent
    for pixel in range(n_sites):
        leaf = (n_sites + pixel) // 2
        edges.append((n_hidden + pixel, leaf - 1))
    if factors is None:
        rng = np.random.default_rng(seed)
        factors = [np.exp(rng.standard_normal((2, 2))) for _ in edges]
    visible = list(range(n_hidden, n_hidden + n_sites))
    return TreeFactorGraph(n_hidden + n_sites, edges, factors, visible)


def fg_to_ttn(fg: TreeFactorGraph) -> TtnModel:
    """Exact mapping of a heap-shaped factor graph onto a linear TTN.

    Each tree-edge matrix is QR-split; the orthogonal half rides up with the
    child, the triangular half is absorbed by the parent through the hidden
    variable's 3-way identity.  Visible factors enter the leaf tensors with
    the pixel index left physical.  The resulting network's plain (un-squared)
    contraction equals the factor graph's unnormalized probability for every
    configuration.
    """
    n_sites = len(fg.visible)
    n_hidden = n_sites - 1
    if fg.n_vars != n_hidden + n_sites:
        raise DimensionError("factor graph does not have the heap TTN shape")
    tree_edges = {}
    pixel_edges = {}
    for idx, (a, b) in enumerate(fg.edges):
        if a in fg._pixel_of or b in fg._pixel_of:
            pix = fg._pixel_of.get(a, fg._pixel_of.get(b))
            hidden = b if a in fg._pixel_of else a
            expect = (n_sites + pix) // 2 - 1
            if hidden != expect:
                raise DimensionError("pixel attached to the wrong heap leaf")
            oriented = fg.factors[idx] if a in fg._pixel_of else fg.factors[idx].T
            pixel_edges[pix] = oriented          # (pixel value, hidden state)
        else:
            child, parent = (a, b) if a > b else (b, a)
            node = child + 1                     # heap index of the child
            if parent + 1 != node // 2:
                raise DimensionError("hidden tree is not heap-shaped")
            oriented = fg.factors[idx] if a == child else fg.factors[idx].T
            tree_edges[node] = oriented          # (child state, parent state)
    if len(pixel_edges) != n_sites or len(tree_edges) != n_hidden - 1:
        raise DimensionError("factor graph does not have the heap TTN shape")

    # Split every tree-edge matrix M = A B; A (child state, bond) goes to the
    # child, B (bond, parent state) to the parent.
    a_half, b_half = {}, {}
    for node, m in tree_edges.items():
        res = qr_split(DenseTensor(m), [0], [1])
        a_half[node] = res.q.data
        b_half[node] = res.r.data * math.exp(res.r.log_scale)

    tensors = [None]
    for node in range(1, n_sites):
        if node == 1:
            t = np.einsum('lx,rx->lr', b_half[2], b_half[3])
        elif 2 * node > n_sites - 1:
            k1 = 2 * node - n_sites
            fl = pixel_edges[k1]
            fr = pixel_edges[k1 + 1]
            t = np.einsum('px,qx,xu->upq', fl, fr, a_half[node])
        else:
            t = np.einsum('lx,rx,xu->ulr', b_half[2 * node],
                          b_half[2 * node + 1], a_half[node])
        tensors.append(DenseTensor(t, validate=False).rescaled())
    return TtnModel(n_sites, tensors, canonical_center=None, d_max=2)
