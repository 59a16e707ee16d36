"""The Born-machine layer under the tree (``ttn``) and the chain (``mps``).

The interface both models implement (``BornMachine``), the canonical form
and its QR pushes, log Z, the evaluation driver, the doubled marginal pass
and the model-generic reads, each written once; ``training`` and
``sampling`` build on it.  In mixed canonical form every tensor but the
center contracts with itself over its non-center-facing axes to the
identity, so the partition function is the squared Frobenius norm of the
center tensor, times exp(2 ``BornMachine.log_norm``).
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

_TINY = np.finfo(float).tiny
_WINDOW = (1e-150, 1e150)   # of max |entry|, kept by ``push_qr``
# floats of one stacked product in the tree's ``ttn._lifted``, which lifts a
# level a few nodes at a time, never a whole class's (nodes, Da, kb, D) at
# once, and of one stack of Grams in ``max_canonical_deviation``
LIFT_FLOATS = 2 ** 16


@dataclass
class Pixel:
    """The axis of a tensor that carries pixel ``index``."""

    index: int


class BornMachine:
    """The interface shared by the tree (``ttn.TtnModel``) and the chain
    (``mps.MpsModel``); the model-generic functions below and
    ``training.train`` are written once on top of it.

    A model is built one way, ``Model(tensors, canonical_center=None,
    d_max=None)``: ``n_sites`` is ``len(tensors)``, indexed from
    ``first_tensor`` (the slots before it unused) to n_sites - 1, where
    training keeps the center.  It has ``first_leaf`` (where the
    right-to-left sweep ends), ``bond_dims()`` and three methods,
    ``log_probs``, ``single_site_marginals`` and ``sweep_epoch``, that call
    its model's module function by name; every other operation is only a
    module function.  ``log_probs`` and ``sampling.sample_batch`` walk the
    rows in chunks through two kernels built once per call, each with the
    floats a row holds in it, which size the chunks: ``_amplitude_kernel()``
    maps rows to (log |Psi|, sign), and ``sampling._sampler`` gives the
    uniforms per row and a map from uniforms to (rows, log p): one walk over
    the rooted node table of the re-centred copy that ``_sample_view()``
    gives, as ``_doubled_marginals`` (stacked clamps) is one doubled pass
    over that of ``_marginal_view()``.

    Each model answers one topology question, ``axis_sites(k)``: what sits
    on each axis of tensor k, in axis order, a neighbouring tensor (its
    index), a ``Pixel`` or None for a dimension-1 boundary bond (the
    chain's two ends); ``path(u, v)`` lists the tensors from u to v, and
    ``_check_size()`` rejects a tensor count it has no topology for.
    Neighbors, axis lookup, the shape check, ``bond_dims`` and ``copy`` are
    written here once for both models.  Psi is exp(``log_norm``) times the
    network of the tensors' data; ``partition_function`` and
    ``ttn.amplitudes_from_vectors`` include it, ``log_probs`` and the
    sampler's chain log, where it cancels, do not.
    """

    log_norm = 0.0

    def __init__(self, tensors, canonical_center=None, d_max=None):
        self.tensors = list(tensors)
        self._check_size()
        self.canonical_center = canonical_center
        self.d_max = d_max
        self._check_shapes()

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    def bond_dims(self) -> dict:
        """Each bond's dimension, by the tensor whose axis 0 it is."""
        return {k: self.tensors[k].shape[0]
                for k in range(self.first_tensor + 1, self.n_sites)}

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
        """``max(bond_dims().values())`` without the dict."""
        return max(len(t.data) for t in self.tensors[self.first_tensor + 1:])


def bond_capacity(d_max: int, pixels: int, n_sites: int) -> int:
    """d_max, capped by 2^k for the k pixels on either side of a bond with
    ``pixels`` of the ``n_sites`` on one side (and k by 62)."""
    return min(d_max, 2 ** min(pixels, n_sites - pixels, 62))


def random_tensors(shapes, seed) -> list:
    """Tensors of the given shapes, in order, with entries i.i.d. uniform
    on (-1, 1) from one seeded generator, so a seed gives one model."""
    rng = np.random.default_rng(seed)
    return [DenseTensor(rng.uniform(-1.0, 1.0, size=shape), validate=False)
            for shape in shapes]


# -- canonical form ---------------------------------------------------------

def in_window(model: BornMachine, a: np.ndarray) -> np.ndarray:
    """``a``, or where its max |entry| m leaves ``_WINDOW``, a / m with
    log m moved onto ``model.log_norm``."""
    m = float(np.max(np.abs(a))) if a.size else 0.0
    if m == 0.0 or _WINDOW[0] <= m <= _WINDOW[1]:
        return a
    model.log_norm += math.log(m)
    return a / m


def push_qr(model: BornMachine, u: int, v: int):
    """Make u canonical toward v, absorbing R into v (both ``in_window``)."""
    au = model.axis_toward(u, v)
    t = model.tensors[u]
    rows = [i for i in range(t.ndim) if i != au]
    q, r = qr_split(t, rows, [au])
    q = move_axis(q, -1, au)
    model.tensors[u] = DenseTensor(np.ascontiguousarray(q), validate=False)
    av = model.axis_toward(v, u)
    merged = np.tensordot(in_window(model, r),
                          model.tensors[v].data, axes=([1], [av]))
    merged = move_axis(merged, 0, av)
    model.tensors[v] = DenseTensor(
        in_window(model, np.ascontiguousarray(merged)), validate=False)


def toward_center(model: BornMachine, center: int):
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
        order, toward = toward_center(model, center)
        for node in reversed(order[1:]):
            push_qr(model, node, toward[node])
    model.canonical_center = center
    return model


def max_canonical_deviation(model: BornMachine) -> float:
    """Largest deviation of any non-center tensor from its canonical
    identity, max |G - 1| for its Gram matrix G over all axes but the one
    toward the center (axis 0 off the path from the center to the first
    tensor), checked a shape class ``LIFT_FLOATS`` at a time; inf or NaN
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
        g = np.empty((min(len(mats), max(1, LIFT_FLOATS // d ** 2)), d, d))
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
    return data_log_z(model) + 2.0 * model.log_norm


def data_log_z(model) -> float:
    """log Z of the network of the tensors' data, without ``log_norm``."""
    if model.canonical_center is None:
        raise StateError("partition_function requires a canonical center; "
                         "canonicalize the model first")
    return 2.0 * frobenius_norm(model.tensors[model.canonical_center])


# -- amplitudes --------------------------------------------------------------

def rescale_rows(m, logs):
    """Scale each row of ``m`` in place by the power of two 2^-e that puts
    its max magnitude in [0.5, 1), adding e·ln 2 to ``logs``: no mantissa
    bit changes, and a zero row keeps its bits and log.  (``np.ldexp``, as a
    factor 2^-e overflows at a subnormal max; ``initial`` halves the
    reduction's time on rows of 8 or more floats.)"""
    e = np.frexp(np.abs(m).max(axis=1, initial=0.0))[1]
    np.ldexp(m, -e[:, None], out=m)
    logs += e * math.log(2.0)
    return m, logs


def contract_node(t: DenseTensor, parts, out=None):
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


def signed_logs(val: np.ndarray, logs: np.ndarray):
    """(log |amplitude|, sign) of amplitudes ``val * exp(logs)``."""
    sign = np.sign(val).astype(np.int64)
    log_abs = np.full(val.shape[0], NEG_INF)
    nz = val != 0.0
    log_abs[nz] = np.log(np.abs(val[nz])) + logs[nz]
    return log_abs, sign


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


def row_chunks(row_floats: int, count: int):
    """Consecutive slices of ``count`` rows, ``_chunk_rows`` at a time."""
    step = _chunk_rows(row_floats, count)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def log_probs(model: BornMachine, samples) -> np.ndarray:
    """log p(x) for a batch of samples, of either model; -inf where the
    amplitude is zero.  The rows are checked once (``sample_matrix``), then
    passed chunk by chunk to the model's ``_amplitude_kernel``; neither its
    amplitudes nor this log Z include ``log_norm``."""
    log_z = data_log_z(model)
    samples = sample_matrix(samples, model.n_sites)
    row_floats, kernel = model._amplitude_kernel()
    out = np.empty(samples.shape[0])
    for rows in row_chunks(row_floats, samples.shape[0]):
        out[rows] = _born_log_probs(log_z, *kernel(samples[rows]))
    return out


# -- doubled-network contractions (marginals, correlations) ------------------

def rooted_copy(model: BornMachine, center: int) -> BornMachine:
    """A copy of ``model`` canonical at ``center`` that shares every
    tensor the move leaves alone.  The copy has its own tensor list, and
    ``canonicalize`` replaces the tensors it touches (those on the path from
    the old center, or all of them when ``model`` has none) instead of
    writing into them, so ``model`` is unchanged.  The copy's center is a
    new tensor with its max magnitude in [0.5, 1), by a power of two carried
    on ``log_norm``, so the reads of any center scale stay in float range."""
    work = shallow_copy(model)
    work.tensors = list(model.tensors)
    if work.canonical_center != center:
        canonicalize(work, center)
    t = work.tensors[center].data
    e = int(np.frexp(np.abs(t).max(initial=0.0))[1])
    if e:
        work.tensors[center] = DenseTensor(np.ldexp(t, -e), validate=False)
        work.log_norm += e * math.log(2.0)
    return work


def _rescale_batch(m):
    """Each branch's (leading index) message scaled to unit max magnitude,
    a zero one kept; for messages whose scales cancel in every normalized
    output, so no log bookkeeping is needed."""
    return m / np.maximum(np.abs(m).max(axis=(1, 2), keepdims=True), _TINY)


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
    ops = clamp_weights(n_sites, assignments)
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


def check_int(name: str, value, low=-math.inf, high=math.inf):
    """ValueError unless ``value`` is an integer in [low, high), a numpy
    one too but never a bool (an int, but True is no count or index)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value < high):
        bound = ("" if low == -math.inf else f" >= {low}" if high == math.inf
                 else f" in range({low}, {high})")
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def clamp_weights(n_sites: int, assignments) -> np.ndarray:
    """(B, n_sites, 2) diagonal pixel operators of B clamp assignments:
    (1, 1) for a free pixel, one-hot for a clamped one.  A clamp value may
    be any value equal to 0 or 1 (a bool, a float)."""
    ops = np.ones((len(assignments), n_sites, 2))
    for s, assignment in enumerate(assignments):
        for k, v in assignment.items():
            check_int("pixel", k, 0, n_sites)
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
    check_int("pixel", open_pixel, 0, model.n_sites)
    if open_pixel in fixed:
        raise ValueError(f"pixel {open_pixel} is already fixed")
    row = model.single_site_marginals(fixed)[open_pixel]
    return float(row[0]), float(row[1])


def correlation(model, pixel_i: int, pixel_j: int) -> float:
    """Connected correlation <s_i s_j> - <s_i><s_j> with pixels mapped to +-1."""
    if pixel_i == pixel_j:
        raise ValueError("correlation requires two distinct pixels")
    check_int("pixel", pixel_j, 0, model.n_sites)
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
    check_int("pixel", ref_pixel, 0, model.n_sites)
    view = model._marginal_view()
    base = view.single_site_marginals()
    spin = np.array([-1.0, 1.0])
    means = base @ spin
    v = int(base[ref_pixel, 1] > base[ref_pixel, 0])
    cond = _doubled_marginals(view, [{ref_pixel: v}])[0]
    out = (2.0 * spin[v] * base[ref_pixel, v]) * (cond @ spin - means)
    out[ref_pixel] = 1.0 - means[ref_pixel] ** 2
    return out
