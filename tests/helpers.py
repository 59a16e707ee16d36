"""Shared test oracles, kept independent of the library's evaluation paths."""

import itertools
import json
import math

import numpy as np
import pytest

from ttnborn import (DenseTensor, MpsModel, TrainConfig, TtnModel,
                     build_random, canonicalize, gen_random_patterns, train)
from ttnborn import training
from ttnborn.born import bond_capacity


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
    return TtnModel(tensors, canonical_center=None, d_max=count)


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
    dims = {n: int(rng.integers(1, bond_capacity(
                d_max, n_sites >> (n.bit_length() - 1), n_sites) + 1))
            for n in range(2, n_sites)}
    tensors = [None, DenseTensor(rng.uniform(-1, 1, (dims[2], dims[3])))]
    for n in range(2, n_sites):
        below = (2, 2) if 2 * n >= n_sites else (dims[2 * n], dims[2 * n + 1])
        tensors.append(DenseTensor(rng.uniform(-1, 1, (dims[n],) + below)))
    return TtnModel(tensors, canonical_center=None, d_max=d_max)


def uniform_ttn(n_sites) -> TtnModel:
    """Product model with equal amplitude on every configuration."""
    tensors = [None, DenseTensor(np.ones((1, 1)))]
    for node in range(2, n_sites):
        if 2 * node > n_sites - 1:
            tensors.append(DenseTensor(np.full((1, 2, 2), 0.5)))
        else:
            tensors.append(DenseTensor(np.ones((1, 1, 1))))
    return TtnModel(tensors, canonical_center=None, d_max=1)


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
    return TtnModel(tensors, canonical_center=1, d_max=1)


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


# -- a training check that survives rounding ----------------------------------
#
# Sweep training amplifies a one-ulp change: a step whose correction one row
# dominates can grow it twentyfold, so a change that only rounds differently
# cannot keep training bit-identical.  Such a change is judged against the
# code it replaces, which ``reference(monkeypatch)`` installs, at two levels.
# The bounds were set before any comparison was run; a change that fails
# them does not move them.

STEP_RTOL = 1e-12       # step level: stepped tensors and messages
TRAJECTORY_K = 10.0     # trajectory level: times the reference's own spread
TRAJECTORY_FLOOR = 1e-9  # ... or this many nats, whichever is larger


def _relative(a, b):
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


def first_two_steps(model, samples, config: TrainConfig):
    """The epoch's opening run from ``model`` (canonical at its last tensor):
    the right-to-left pass up to and including its second update, which
    reads a message the first refreshed.  Returns the stepped copy, its
    message cache and stats."""
    model = model.copy()
    last = model.n_sites - 1
    steps = training.sweep_steps(model, last, rightward=False)
    due = [i for i, (_, _, d) in enumerate(steps) if d]
    cache = training._EnvCache(model, samples, last)
    stats = training.TrainStats(truncation_errors=[[]])
    training._execute_pass(model, cache, config, steps[:due[1] + 1], stats,
                           None, training.push_qr,
                           training.guarded_merge_factors)
    return model, cache, stats


def assert_steps_equivalent(reference, model, samples, d_max):
    """One-site and two-site steps from ``model`` agree with the reference's
    to ``STEP_RTOL`` relative, tensor by tensor and message by message (a
    message compared on the reference's row scale), with the same
    ``rejected_steps``."""
    for scheme in ("one-site", "two-site"):
        config = TrainConfig(d_max=d_max, scheme=scheme)
        got, got_cache, got_stats = first_two_steps(model, samples, config)
        with pytest.MonkeyPatch.context() as mp:
            reference(mp)
            want, want_cache, want_stats = first_two_steps(model, samples,
                                                           config)
        assert got_stats.rejected_steps == want_stats.rejected_steps, scheme
        for k in range(got.first_tensor, got.n_sites):
            assert (_relative(got.tensors[k].data, want.tensors[k].data)
                    <= STEP_RTOL), (scheme, k)
        assert got_cache.msgs.keys() == want_cache.msgs.keys(), scheme
        for key, (m, logs) in got_cache.msgs.items():
            want_m, want_logs = want_cache.msgs[key]
            on_theirs = m * np.exp(logs - want_logs)[:, None]
            assert _relative(on_theirs, want_m) <= STEP_RTOL, (scheme, key)


def assert_trajectories_equivalent(reference, build, samples,
                                   config: TrainConfig, seeds):
    """Per-epoch NLLs of the current code within their bound of the
    reference's on each model seed (at least five; ``build(seed)`` gives
    the initial model).  The bound is ``TRAJECTORY_K`` times the reference's
    own one-ulp spread, the largest move that raising one of three centre
    entries by one ulp gives it, or ``TRAJECTORY_FLOOR``, whichever is
    larger.  Returns one record per (seed, epoch)."""
    assert len(seeds) >= 5
    records = []
    for seed in seeds:
        model = build(seed)
        last = model.n_sites - 1
        canonicalize(model, last)
        got = train(model.copy(), samples, config)[1].nll
        nudged = []
        for entry in np.linspace(0, model.tensors[last].data.size - 1,
                                 3).astype(int):
            copy = model.copy()
            flat = copy.tensors[last].data.reshape(-1)
            flat[entry] = np.nextafter(flat[entry], np.inf)
            nudged.append(copy)
        with pytest.MonkeyPatch.context() as mp:
            reference(mp)
            want = train(model.copy(), samples, config)[1].nll
            nudged = [train(m, samples, config)[1].nll for m in nudged]
        for epoch, (g, w) in enumerate(zip(got, want)):
            spread = max(abs(n[epoch] - w) for n in nudged)
            records.append({"seed": seed, "epoch": epoch, "diff": abs(g - w),
                            "spread": spread,
                            "bound": max(TRAJECTORY_K * spread,
                                         TRAJECTORY_FLOOR)})
    outside = [r for r in records if not r["diff"] <= r["bound"]]
    assert not outside, outside
    return records
