"""Shared test oracles, kept independent of the library's evaluation paths."""

import itertools
import json
import math

import numpy as np

from ttnborn import (DenseTensor, MpsModel, TrainConfig, TtnModel,
                     build_random, canonicalize, gen_random_patterns, train)
from ttnborn.ttn import bond_capacity


def all_configs(n):
    return np.array(list(itertools.product([0, 1], repeat=n)), dtype=np.int64)


def with_header(raw: bytes, **fields) -> bytes:
    """The bytes of a checkpoint file with some header fields replaced."""
    size = int.from_bytes(raw[8:16], "little")
    blob = json.dumps({**json.loads(raw[16:16 + size]), **fields}).encode()
    return raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + size:]


def brute_force_amplitudes(model: TtnModel) -> np.ndarray:
    """Full 2^n amplitude table by whole-subtree contraction.

    Builds the complete state vector of every subtree instead of clamping
    samples, so it exercises none of the library's message passing.  Index
    order puts pixel 0 in the most significant bit, matching all_configs.
    The model's ``log_norm`` scales the table.
    """
    tables = {}
    for n in range(model.n_tensors, 1, -1):
        t = model.tensors[n]
        if model.is_leaf(n):
            tables[n] = t.data.reshape(t.shape[0], 4)
        else:
            left = tables.pop(2 * n)
            right = tables.pop(2 * n + 1)
            full = np.einsum('abc,bl,cr->alr', t.data, left, right)
            tables[n] = full.reshape(t.shape[0], -1)
    t1 = model.tensors[1]
    vec = np.einsum('bc,bl,cr->lr', t1.data, tables[2], tables[3]).ravel()
    return vec * math.exp(model.log_norm)


def mps_state_vector(model: MpsModel) -> np.ndarray:
    """Full 2^n amplitude table of an MPS, pixel 0 most significant, scaled
    by the model's ``log_norm``."""
    acc = np.ones((1, 1))          # (config block, right bond)
    for t in model.tensors:
        acc = np.einsum('xl,lpr->xpr', acc, t.data)
        acc = acc.reshape(-1, acc.shape[-1])
    return acc.ravel() * math.exp(model.log_norm)


def ttn_from_patterns(patterns) -> TtnModel:
    """TTN whose amplitude is 1 on each (distinct) pattern and 0 elsewhere."""
    patterns = np.asarray(patterns, dtype=np.int64)
    count, n_sites = patterns.shape
    tensors = [None]
    for node in range(1, n_sites):
        if node == 1:
            data = np.eye(count)
        elif 2 * node > n_sites - 1:
            k = 2 * node - n_sites
            data = np.zeros((count, 2, 2))
            for a in range(count):
                data[a, patterns[a, k], patterns[a, k + 1]] = 1.0
        else:
            data = np.zeros((count, count, count))
            for a in range(count):
                data[a, a, a] = 1.0
        tensors.append(DenseTensor(data, validate=False))
    return TtnModel(n_sites, tensors, canonical_center=None, d_max=count)


def mps_from_patterns(patterns) -> MpsModel:
    patterns = np.asarray(patterns, dtype=np.int64)
    count, n_sites = patterns.shape
    tensors = []
    for i in range(n_sites):
        dl = 1 if i == 0 else count
        dr = 1 if i == n_sites - 1 else count
        data = np.zeros((dl, 2, dr))
        for a in range(count):
            data[min(a, dl - 1), patterns[a, i], min(a, dr - 1)] = 1.0
        tensors.append(DenseTensor(data, validate=False))
    return MpsModel(tensors, canonical_center=None, d_max=count)


def uneven_ttn() -> TtnModel:
    """16 pixels trained under a d_max cap, some of them constant, so bonds
    run from 2 to 5 and differ between siblings.  Training leaves the
    canonical center on leaf 15."""
    model = build_random(16, 2, seed=40)
    data = gen_random_patterns(16, 12, seed=41).samples.copy()
    data[:, 0:2] = 0
    data[:, 8:12] = 1
    model, _ = train(model, data, TrainConfig(d_max=5, epochs=3))
    return model


def random_uneven_ttn(n_sites, seed, d_max=5) -> TtnModel:
    """Random tree, not canonicalized, with each bond drawn from 1 to
    d_max (capped at the capacity of the subtree below it), so siblings
    differ and the group roots (parents of two leaves) fall into several
    shape classes."""
    rng = np.random.default_rng(seed)
    dims = {n: int(rng.integers(1, bond_capacity(n_sites, n, d_max) + 1))
            for n in range(2, n_sites)}
    tensors = [None, DenseTensor(rng.uniform(-1, 1, (dims[2], dims[3])))]
    for n in range(2, n_sites):
        below = (2, 2) if 2 * n >= n_sites else (dims[2 * n], dims[2 * n + 1])
        tensors.append(DenseTensor(rng.uniform(-1, 1, (dims[n],) + below)))
    return TtnModel(n_sites, tensors, canonical_center=None, d_max=d_max)


def uniform_ttn(n_sites) -> TtnModel:
    """Product model with equal amplitude on every configuration."""
    tensors = [None, DenseTensor(np.ones((1, 1)))]
    for node in range(2, n_sites):
        if 2 * node > n_sites - 1:
            tensors.append(DenseTensor(np.full((1, 2, 2), 0.5)))
        else:
            tensors.append(DenseTensor(np.ones((1, 1, 1))))
    return TtnModel(n_sites, tensors, canonical_center=None, d_max=1)


def sharp_product_ttn(n_sites, p1):
    """Bond-1 tree of independent pixels, each 1 with probability p1,
    canonical at the root."""
    amp = np.sqrt([1.0 - p1, p1])
    tensors = [None, DenseTensor(np.ones((1, 1)))]
    for node in range(2, n_sites):
        if 2 * node > n_sites - 1:
            tensors.append(DenseTensor(np.outer(amp, amp)[None]))
        else:
            tensors.append(DenseTensor(np.ones((1, 1, 1))))
    return TtnModel(n_sites, tensors, canonical_center=1, d_max=1)


def sharp_product_mps(n_sites, p1) -> MpsModel:
    """Bond-1 chain of independent pixels, each 1 with probability p1.
    Every site is an isometry, so it is canonical at any site; the last is
    named, as training leaves it."""
    amp = np.sqrt([1.0 - p1, p1]).reshape(1, 2, 1)
    return MpsModel([DenseTensor(amp) for _ in range(n_sites)],
                    canonical_center=n_sites - 1, d_max=1)


def uneven_mps(center) -> MpsModel:
    """16-site chain of random tensors whose bonds run from 2 to 5 and
    change at almost every site, canonical at ``center``, or left as drawn
    (not canonical) when ``center`` is None."""
    dims = [1, 2, 4, 3, 5, 3, 2, 4, 5, 3, 4, 2, 3, 4, 2, 2, 1]
    rng = np.random.default_rng(42)
    model = MpsModel([DenseTensor(rng.uniform(-1.0, 1.0, (dl, 2, dr)))
                      for dl, dr in zip(dims[:-1], dims[1:])], d_max=5)
    if center is not None:
        canonicalize(model, center)
    return model


def count_lifts(monkeypatch):
    """The heap levels (their first node) that ``ttn._lifted`` builds
    tables for from now on, in call order: n/4 the groups, n/8 the
    octets."""
    import ttnborn.ttn as ttn
    built, lifted = [], ttn._lifted

    def counted(model, first, *args):
        built.append(first)
        return lifted(model, first, *args)
    monkeypatch.setattr(ttn, "_lifted", counted)
    return built


def enum_log_z(model: TtnModel) -> float:
    amps = brute_force_amplitudes(model)
    return float(np.log(np.sum(amps * amps)))


def chi_square_pvalue(counts, probs):
    from scipy.stats import chi2
    counts = np.asarray(counts, dtype=np.float64)
    expected = probs * counts.sum()
    mask = expected > 0
    stat = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
    dof = int(mask.sum()) - 1
    return chi2.sf(stat, dof)


def config_indices(samples):
    n = samples.shape[1]
    return samples.astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))
