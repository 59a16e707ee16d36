"""Workloads, phases, metrics and correctness checks of the ttnborn benchmark.

Every workload is one user session driven through the public library API by
a single caller: set up the data and the three models (including a TTNBORN1
save/load round trip), train the TTN, the MPS and the tree factor graph,
map the factor graph onto a TTN, then evaluate held-out rows, sample and
compute correlation maps on the trained models.  The workloads differ in
the input properties the layers depend on (batch width, number of sites,
bond dimension, how much of the session is inference), so each one stresses
a different layer; README.md lists which layer metric should move where.

Times are CPU seconds scaled to a reference machine speed (see ``Timer``).
The process runs one Python thread and one BLAS thread, so its CPU time is
its busy time; unlike wall time it excludes time the hypervisor takes the
core away, which on a shared two-core virtual machine can add half again to
a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ttnborn import (checkpoint, data, factor_graph, mps, sampling, training,
                     ttn)
from ttnborn.tensor import DenseTensor

from tracing import Tracer, summarize

# The thread's CPU time: the process has one Python thread and one BLAS
# thread.  (While an ITIMER_PROF timer is armed, Linux updates the process
# CPU clock only at scheduler ticks, so process_time is too coarse.)
CLOCK = time.thread_time
# CPU seconds the speed probe takes at the reference speed (see Timer).
REFERENCE_PROBE_S = 0.001
PROBE_INTERVAL_S = 0.02
PROBE_WINDOW = 8
_PROBE_SMALL = np.random.default_rng(0).random((32, 32))
_PROBE_GEMM = np.random.default_rng(1).random((64, 64))
ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "digits_28x28.txt"
# Set up at least SETUP_REPS times and for SETUP_MIN_S (scaled), so that a
# set-up of tens of milliseconds is timed often enough for a steady median.
SETUP_REPS = 5
SETUP_MIN_S = 1.0
MODEL_SEED = 0

# (name, unit, better) -- must match BENCHMARK.json, which a test checks.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ttn_epoch_s", "s", "lower"),
    ("mps_epoch_s", "s", "lower"),
    ("fg_epoch_s", "s", "lower"),
    ("ttn_train_nll", "nats", "lower"),
    ("mps_train_nll", "nats", "lower"),
    ("fg_train_nll", "nats", "lower"),
    ("ttn_eval_rows_per_s", "rows/s", "higher"),
    ("mps_eval_rows_per_s", "rows/s", "higher"),
    ("ttn_sample_rows_per_s", "rows/s", "higher"),
    ("mps_sample_rows_per_s", "rows/s", "higher"),
    ("ttn_corr_map_s", "s", "lower"),
    ("mps_corr_map_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("training.merge_core_s", "s", "lower"),
    ("training.sweep_self_s", "s", "lower"),
    ("training.merge_steps", "count", "lower"),
    ("training.rejected_steps", "count", "lower"),
    ("training.accept_ratio", "ratio", "higher"),
    ("training.mean_truncation_error", "ratio", "lower"),
    ("training.max_bond", "count", "lower"),
    ("ttn.push_qr_s", "s", "lower"),
    ("ttn.push_qr_calls", "count", "lower"),
    ("tensor.qr_split_s", "s", "lower"),
    ("tensor.qr_split_calls", "count", "lower"),
    ("linalg.qr_s", "s", "lower"),
    ("linalg.qr_calls", "count", "lower"),
    ("linalg.qr_flops", "flop", "lower"),
    ("linalg.svd_s", "s", "lower"),
    ("linalg.svd_calls", "count", "lower"),
    ("linalg.svd_flops", "flop", "lower"),
    ("ttn.log_probs_s", "s", "lower"),
    ("ttn.log_probs_rows", "rows", "lower"),
    ("ttn.single_site_marginals_s", "s", "lower"),
    ("ttn.single_site_marginals_calls", "count", "lower"),
    ("sampling.run_s", "s", "lower"),
    ("sampling.rooting_s", "s", "lower"),
    ("sampling.chunks", "count", "lower"),
    ("mps.sweep_self_s", "s", "lower"),
    ("mps.merge_core_s", "s", "lower"),
    ("mps.nll_s", "s", "lower"),
    ("mps.amplitudes_s", "s", "lower"),
    ("mps.amplitudes_rows", "rows", "lower"),
    ("mps.sample_s", "s", "lower"),
    ("mps.single_site_marginals_s", "s", "lower"),
    ("factor_graph.nll_s", "s", "lower"),
    ("factor_graph.nll_calls", "count", "lower"),
    ("factor_graph.gradient_s", "s", "lower"),
    ("factor_graph.to_ttn_s", "s", "lower"),
    ("factor_graph.rejected_steps", "count", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.ordering_s", "s", "lower"),
    ("trace.cycle_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


@dataclass(frozen=True)
class Workload:
    n_sites: int
    train_rows: int | None     # None: the 20-digit fixture, padded to 32x32
    ttn_d: int
    mps_d: int
    eval_rows: int             # held-out rows per log_probs call
    sample_rows: int           # rows per sampling call
    calls: int                 # calls of each inference phase per cycle,
                               # each with its own reference pixel


# Every cycle trains each model for one epoch from the loaded checkpoint and
# makes the same inference calls, so a run repeats identical work and every
# metric is sampled throughout the run.  Cycles are kept to 7-15 s here so
# that a 30-second run usually holds two or more.
WORKLOADS = {
    # 1000 random rows of 128 pixels: the S x S Gram of the two-site step
    # dominates training.
    "train-wide": Workload(128, 1000, 16, 16, 2000, 128, 2),
    # 1024 sites and S = 20: QR and SVD dominate TTN training.
    "train-digits": Workload(1024, None, 32, 32, 200, 16, 2),
    # Checkpoints fine-tuned on 8 rows, then batched evaluation, sampling
    # and doubled-network marginals at 1024 sites.
    "infer": Workload(1024, 8, 16, 32, 250, 50, 3),
}

SMOKE = {
    "train-wide": Workload(32, 64, 4, 4, 40, 8, 2),
    "train-digits": Workload(1024, None, 2, 2, 8, 2, 1),
    "infer": Workload(64, 4, 4, 4, 40, 8, 2),
}


class Audit:
    """Operations attempted and the ones that failed (epochs, phase calls
    and correctness checks)."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def ops(self):
        self.attempted += 1

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _seeds(seed, count):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1,
                                                                 size=count)]


def _normalize_center(tensors, center):
    """Unit-norm center, the state training leaves a model in; its scale
    is pure gauge, so no probability changes."""
    data_ = tensors[center].data
    tensors[center] = DenseTensor(data_ / np.linalg.norm(data_), 0.0)


@dataclass
class Setup:
    train: np.ndarray
    held_out: np.ndarray
    refs: list
    saved: tuple        # (ttn, mps, factor graph) as written
    loaded: tuple       # the same models read back
    checkpoint_bytes: int


def set_up(w: Workload, seed: int, ckpt_dir: str) -> Setup:
    """Data, models and their checkpoint round trip (through ``ckpt_dir``).

    The held-out rows follow ``seed``.  The training rows and the initial
    models do not, as a user's data set and checkpoints do not, so every
    run trains the same models and does the same amount of work (the
    factor graph's step halvings and the trained bond dimensions, for two,
    depend on them).
    """
    held_out_seed = _seeds(seed, 1)[0]
    train_seed, ttn_seed, mps_seed, fg_seed = _seeds(MODEL_SEED, 4)
    n = w.n_sites
    if w.train_rows is None:
        raw = data.load_binarized_text(FIXTURE)
        order = data.make_ordering("hierarchical-2d", raw.image_shape)
        train = data.apply_ordering(raw, order)
        rng = np.random.default_rng(held_out_seed)
        noisy = raw.samples[rng.integers(raw.n_samples, size=w.eval_rows)]
        noisy ^= (rng.random(noisy.shape) < 0.02).astype(np.uint8)
        held_out = data.apply_ordering(
            data.BinaryDataset(noisy, raw.image_shape), order)
        h, width = raw.image_shape
        cols = np.linspace(width // 4, 3 * width // 4, w.calls).astype(int)
        refs = [int(order.permutation[(h // 2) * width + c]) for c in cols]
    else:
        train = data.gen_random_patterns(n, w.train_rows, train_seed).samples
        held_out = data.gen_random_patterns(n, w.eval_rows,
                                            held_out_seed).samples
        refs = [n * (i + 1) // (w.calls + 1) for i in range(w.calls)]
    tree = ttn.build_random(n, w.ttn_d, ttn_seed)
    ttn.canonicalize(tree, tree.n_tensors)
    _normalize_center(tree.tensors, tree.n_tensors)
    chain = mps.mps_build_random(n, w.mps_d, mps_seed)
    _normalize_center(chain.tensors, n - 1)
    graph = factor_graph.heap_shaped_fg(n, seed=fg_seed)
    saved = (tree, chain, graph)
    loaded, nbytes = [], 0
    for name, model in zip(("ttn", "mps", "fg"), saved):
        path = os.path.join(ckpt_dir, name + ".ckpt")
        checkpoint.save_checkpoint(path, model)
        nbytes += os.path.getsize(path)
        loaded.append(checkpoint.load_checkpoint(path)[0])
    return Setup(train, held_out, refs, saved, tuple(loaded), nbytes)


def check_setup(st: Setup, audit: Audit):
    rows = st.held_out[:64]
    (t0, m0, f0), (t1, m1, f1) = st.saved, st.loaded
    audit.check("ttn checkpoint round trip is bit-identical",
                np.array_equal(ttn.log_probs(t0, rows), ttn.log_probs(t1, rows)))
    audit.check("mps checkpoint round trip is bit-identical",
                np.array_equal(mps.mps_log_probs(m0, rows),
                               mps.mps_log_probs(m1, rows)))
    audit.check("factor graph checkpoint round trip is bit-identical",
                np.array_equal(factor_graph.fg_log_ptilde(f0, rows),
                               factor_graph.fg_log_ptilde(f1, rows)))


@dataclass
class Cycle:
    samples: dict           # metric name -> measurements of this cycle
    fingerprint: dict       # deterministic outputs, compared across cycles
    counts: dict            # TrainStats-derived per-layer counts
    cpu_s: float
    stats: tuple            # (ttn stats, mps stats, fg stats)
    models: tuple | None    # trained (ttn, mps, factor graph, fg_to_ttn)
    drawn: dict | None      # model -> (rows, chain log)
    maps: dict | None       # model -> {reference pixel: correlation map}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def speed_probe():
    """A fixed mix like the library's own: small QR and SVD, a small GEMM
    and interpreted Python (about 1 ms)."""
    for _ in range(4):
        np.linalg.qr(_PROBE_SMALL)
        np.linalg.svd(_PROBE_SMALL)
        _PROBE_GEMM @ _PROBE_GEMM
        sum(i * i for i in range(100))


class Timer:
    """Times calls in CPU seconds scaled to the reference machine speed.

    Inside ``probing()``, SIGPROF runs ``speed_probe`` every
    ``PROBE_INTERVAL_S`` of CPU time, during the timed calls and between
    them.  A call's time is its CPU time less that of the probes inside it,
    multiplied by ``REFERENCE_PROBE_S`` over the mean probe time inside it
    (over the last ``PROBE_WINDOW`` probes when it holds fewer).  The
    machine this was built on switches between speeds up to 1.9x apart
    every few seconds, also within one call; probing inside the calls
    follows the switches.  Without ``probed`` (the traced run, whose spans
    must not see the probes) times are plain CPU seconds.
    """

    def __init__(self, probed: bool):
        self.probed = probed
        self.raw = []
        self.probes = []        # (start, CPU seconds) of every probe

    def _probe(self, signum=None, frame=None):
        t0 = CLOCK()
        speed_probe()
        self.probes.append((t0, CLOCK() - t0))

    @contextlib.contextmanager
    def probing(self):
        if not self.probed:
            yield
            return
        previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            for _ in range(PROBE_WINDOW):
                self._probe()
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def __call__(self, fn, *args, **kwargs):
        """``(result, scaled seconds)`` of ``fn(*args, **kwargs)``."""
        t0 = CLOCK()
        out = fn(*args, **kwargs)
        t1 = CLOCK()
        elapsed, scale = t1 - t0, 1.0
        if self.probed:
            inside = [d for start, d in self.probes if t0 <= start < t1]
            elapsed -= sum(inside)
            if len(inside) < PROBE_WINDOW:
                inside = [d for start, d in self.probes
                          if start < t1][-PROBE_WINDOW:]
            scale = REFERENCE_PROBE_S / statistics.fmean(inside)
        self.raw.append(elapsed)
        return out, elapsed * scale


def run_cycle(w: Workload, seed: int, st: Setup, audit: Audit, span,
              timer: Timer) -> Cycle:
    """One epoch of each model from the loaded checkpoints, then the
    inference calls on the trained models."""
    samples = {name: [] for name, _, _ in END_TO_END}

    def timed(metric, fn, *args, rows=None, **kwargs):
        out, elapsed = timer(fn, *args, **kwargs)
        samples[metric].append(elapsed if rows is None else rows / elapsed)
        audit.ops()
        return out

    started = CLOCK()
    sample_seed = _seeds(seed + 1, 1)[0]
    models, stats, log_p, drawn, maps = [], [], {}, {}, {}
    for name, loaded, train, d_max, log_probs_fn, sample_fn, corr_fn in (
            ("ttn", st.loaded[0], training.train, w.ttn_d, ttn.log_probs,
             sampling.sample_batch, ttn.correlation_map),
            ("mps", st.loaded[1], _mps_train, w.mps_d, mps.mps_log_probs,
             mps.mps_sample_batch, mps.mps_correlation_map)):
        with span(f"phase.{name}_train"):
            cfg = training.TrainConfig(d_max=d_max, epochs=1, seed=seed)
            model = loaded.copy()
            model, train_stats = timed(f"{name}_epoch_s", train, model,
                                       st.train, cfg)
        # Repeated calls give identical outputs; the first is kept.
        maps[name] = {}
        for ref in st.refs:
            with span(f"phase.{name}_eval"):
                log_p.setdefault(name, timed(
                    f"{name}_eval_rows_per_s", log_probs_fn, model,
                    st.held_out, rows=len(st.held_out)))
            with span(f"phase.{name}_sample"):
                drawn.setdefault(name, timed(
                    f"{name}_sample_rows_per_s", sample_fn, model,
                    w.sample_rows, sample_seed, rows=w.sample_rows,
                    return_chain_log=True))
            with span(f"phase.{name}_corr"):
                maps[name][ref] = timed(f"{name}_corr_map_s", corr_fn,
                                        model, ref)
        models.append(model)
        stats.append(train_stats)
    with span("phase.fg_train"):
        graph, fg_stats = timed("fg_epoch_s", factor_graph.fg_train,
                                st.loaded[2].copy(), st.train,
                                training.TrainConfig(epochs=1))
        mapped = factor_graph.fg_to_ttn(graph)
        audit.ops()
    cpu_s = CLOCK() - started

    ttn_stats, mps_stats = stats
    steps = [e for epoch in ttn_stats.truncation_errors for e in epoch]
    counts = {
        "training.merge_steps": len(steps),
        "training.rejected_steps": ttn_stats.rejected_steps,
        "training.accept_ratio": 1.0 - ttn_stats.rejected_steps / len(steps),
        "training.mean_truncation_error": float(np.mean(steps)),
        "training.max_bond": max(ttn_stats.max_bond),
        "factor_graph.rejected_steps": fg_stats["rejected_steps"],
    }
    fingerprint = {
        "ttn_nll": ttn_stats.nll, "mps_nll": mps_stats.nll,
        "fg_nll": fg_stats["nll"],
        "mps_rejected_steps": mps_stats.rejected_steps,
        "mps_max_bond": mps_stats.max_bond,
        "log_probs": {k_: _digest(v) for k_, v in log_p.items()},
        "samples": {k_: _digest(*v) for k_, v in drawn.items()},
        "corr": {k_: {ref: _digest(m) for ref, m in per.items()}
                 for k_, per in maps.items()},
        **counts,
    }
    return Cycle(samples, fingerprint, counts, cpu_s,
                 (ttn_stats, mps_stats, fg_stats),
                 (models[0], models[1], graph, mapped), drawn, maps)


def _mps_train(model, samples, cfg):
    """``mps_train`` with the argument order of ``train``."""
    return mps.mps_train(samples, cfg, model=model)


def _close(a, b, rel=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


def check_cycle(st: Setup, c: Cycle, audit: Audit):
    tree, chain, graph, mapped = c.models
    ttn_stats, mps_stats, fg_stats = c.stats
    audit.check("ttn canonical after training",
                ttn.max_canonical_deviation(tree) <= 1e-8)
    audit.check("mps canonical after training",
                mps.mps_max_canonical_deviation(chain) <= 1e-8)
    audit.check("ttn nll equals the last TrainStats nll",
                ttn.nll(tree, st.train) == ttn_stats.nll[-1])
    audit.check("mps nll equals the last TrainStats nll",
                mps.mps_nll(chain, st.train) == mps_stats.nll[-1])
    audit.check("factor graph nll equals the last fg_train nll",
                factor_graph.fg_nll(graph, st.train) == fg_stats["nll"][-1])

    rows, chain_log = c.drawn["ttn"]
    audit.check("ttn sampler chain log equals log_probs",
                _close(chain_log, ttn.log_probs(tree, rows)))
    rows, chain_log = c.drawn["mps"]
    audit.check("mps sampler chain log equals log_probs",
                _close(chain_log, mps.mps_log_probs(chain, rows)))

    rows = st.held_out[:64]
    log_abs, sign = ttn.amplitudes_from_vectors(mapped, np.eye(2)[rows])
    audit.check("fg_to_ttn amplitudes equal fg_log_ptilde",
                bool(np.all(sign == 1))
                and _close(log_abs, factor_graph.fg_log_ptilde(graph, rows)))
    free, _ = ttn.amplitudes_from_vectors(mapped,
                                          np.ones((1, st.train.shape[1], 2)))
    audit.check("fg_to_ttn free contraction equals sum_product_log_z",
                _close(free[0], factor_graph.sum_product_log_z(graph)))

    spin = np.array([-1.0, 1.0])
    for name, marginals, model in (("ttn", ttn.single_site_marginals, tree),
                                   ("mps", mps.mps_single_site_marginals, chain)):
        means = marginals(model) @ spin
        for ref, cmap in c.maps[name].items():
            audit.check(f"{name} correlation_map({ref}) diagonal and range",
                        cmap[ref] == 1.0 - means[ref] ** 2
                        and bool(np.all(np.isfinite(cmap)))
                        and bool(np.all(np.abs(cmap) <= 1.0 + 1e-9)))


def _median(values):
    return float(statistics.median(values))


def end_to_end(setup_times, cycles):
    """End-to-end metrics: medians over the set-up repetitions and over the
    cycles."""
    pooled = {name: [] for name, _, _ in END_TO_END}
    for c in cycles:
        for name, values in c.samples.items():
            pooled[name] += values
    ttn_stats, mps_stats, fg_stats = cycles[0].stats
    pooled["setup_s"] = setup_times
    pooled["ttn_train_nll"] = [ttn_stats.nll[-1]]
    pooled["mps_train_nll"] = [mps_stats.nll[-1]]
    pooled["fg_train_nll"] = [fg_stats["nll"][-1]]
    pooled["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return {name: {"value": _median(pooled[name]), "unit": unit}
            for name, unit, _ in END_TO_END}


def trace_targets():
    """(owner, attribute, span name, amount) for every wrapped layer call."""
    def rows(args):
        return int(np.shape(args[1])[0]) if np.ndim(args[1]) == 2 else 1

    def dims(args):
        a = np.asarray(args[0])
        m, n = a.shape[-2:]
        return int(np.prod(a.shape[:-2], dtype=np.int64)), max(m, n), min(m, n)

    def qr_flops(args):
        # Householder counts: geqrf 2MN^2 - 2N^3/3, orgqr for the reduced Q
        # the same again (M >= N).
        batch, m, n = dims(args)
        return batch * int(4 * m * n * n - 4 * n ** 3 / 3)

    def svd_flops(args):
        # Golub & Van Loan's R-SVD count for thin U, S, V^T: 6MN^2 + 20N^3.
        batch, m, n = dims(args)
        return batch * int(6 * m * n * n + 20 * n ** 3)

    return [
        (training, "sweep_epoch", "training.sweep", None),
        (training, "guarded_merge_factors", "training.merge_core", None),
        (training, "push_qr", "ttn.push_qr", None),
        (ttn, "push_qr", "ttn.push_qr", None),
        (ttn, "qr_split", "tensor.qr_split", None),
        (mps, "qr_split", "tensor.qr_split", None),
        (factor_graph, "qr_split", "tensor.qr_split", None),
        (np.linalg, "qr", "linalg.qr", qr_flops),
        (np.linalg, "svd", "linalg.svd", svd_flops),
        (ttn, "log_probs", "ttn.log_probs", rows),
        (ttn, "single_site_marginals", "ttn.single_site_marginals", None),
        (sampling, "sample_batch", "sampling.sample_batch", None),
        (sampling.SampleState, "run", "sampling.run", None),
        (mps, "mps_sweep_epoch", "mps.sweep", None),
        (mps, "guarded_merge_factors", "mps.merge_core", None),
        (mps, "mps_nll", "mps.nll", None),
        (mps, "mps_amplitudes", "mps.amplitudes", rows),
        (mps, "mps_sample_batch", "mps.sample", None),
        (mps, "mps_single_site_marginals", "mps.single_site_marginals", None),
        (factor_graph, "fg_nll", "factor_graph.nll", None),
        (factor_graph, "fg_gradient", "factor_graph.gradient", None),
        (factor_graph, "fg_to_ttn", "factor_graph.to_ttn", None),
        (checkpoint, "save_checkpoint", "checkpoint.save", None),
        (checkpoint, "load_checkpoint", "checkpoint.load", None),
        (data, "load_binarized_text", "data.load", None),
        (data, "gen_random_patterns", "data.load", None),
        (data, "make_ordering", "data.ordering", None),
        (data, "apply_ordering", "data.ordering", None),
    ]


def per_layer(layers, phases, st: Setup, c: Cycle, traced_cpu, untraced_cpu):
    """Per-layer metrics from the traced run's span summary.

    ``_s`` metrics are self times, except ``mps.nll_s`` (inclusive time of
    ``mps_nll``) and ``sampling.rooting_s`` (``sample_batch`` minus ``run``).
    ``trace.unattributed_s`` is the part of the traced cycle that no wrapped
    layer accounts for.
    """
    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    attributed = sum(own for phase, per in phases.items()
                     if phase != "phase.setup"
                     for name, own in per.items() if name != phase)
    out = {
        "training.merge_core_s": get("training.merge_core", "self"),
        "training.sweep_self_s": get("training.sweep", "self"),
        "ttn.push_qr_s": get("ttn.push_qr", "self"),
        "ttn.push_qr_calls": get("ttn.push_qr", "calls"),
        "tensor.qr_split_s": get("tensor.qr_split", "self"),
        "tensor.qr_split_calls": get("tensor.qr_split", "calls"),
        "ttn.log_probs_s": get("ttn.log_probs", "self"),
        "ttn.log_probs_rows": get("ttn.log_probs", "amount"),
        "ttn.single_site_marginals_s": get("ttn.single_site_marginals", "self"),
        "ttn.single_site_marginals_calls":
            get("ttn.single_site_marginals", "calls"),
        "sampling.run_s": get("sampling.run", "self"),
        "sampling.rooting_s": (get("sampling.sample_batch", "incl")
                               - get("sampling.run", "incl")),
        "sampling.chunks": get("sampling.run", "calls"),
        "mps.sweep_self_s": get("mps.sweep", "self"),
        "mps.merge_core_s": get("mps.merge_core", "self"),
        "mps.nll_s": get("mps.nll", "incl"),
        "mps.amplitudes_s": get("mps.amplitudes", "self"),
        "mps.amplitudes_rows": get("mps.amplitudes", "amount"),
        "mps.sample_s": get("mps.sample", "self"),
        "mps.single_site_marginals_s": get("mps.single_site_marginals", "self"),
        "factor_graph.nll_s": get("factor_graph.nll", "self"),
        "factor_graph.nll_calls": get("factor_graph.nll", "calls"),
        "factor_graph.gradient_s": get("factor_graph.gradient", "self"),
        "factor_graph.to_ttn_s": get("factor_graph.to_ttn", "self"),
        "checkpoint.save_s": get("checkpoint.save", "self"),
        "checkpoint.load_s": get("checkpoint.load", "self"),
        "checkpoint.bytes": st.checkpoint_bytes,
        "data.load_s": get("data.load", "self"),
        "data.ordering_s": get("data.ordering", "self"),
        "trace.cycle_s": traced_cpu,
        "trace.unattributed_s": traced_cpu - attributed,
        "trace.overhead_s": traced_cpu - untraced_cpu,
    }
    for op in ("qr", "svd"):
        out[f"linalg.{op}_s"] = get(f"linalg.{op}", "self")
        out[f"linalg.{op}_calls"] = get(f"linalg.{op}", "calls")
        out[f"linalg.{op}_flops"] = get(f"linalg.{op}", "amount")
    out.update(c.counts)
    return {name: {"value": out[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def _no_span(name):
    return contextlib.nullcontext()


def _cycle_medians(c: Cycle):
    return {name: _median(v) for name, v in c.samples.items() if v}


@dataclass
class Report:
    metrics: dict       # name -> {"value": ..., "unit": ...}
    details: dict       # JSON-ready record for the results file


def run(name: str, seed: int, seconds: float, trace: bool, audit: Audit,
        size: str = "full", out_dir=None) -> Report:
    """Run one workload; end-to-end metrics, or per-layer ones with trace.

    Operations and checks are counted in ``audit``; an operation that
    raises propagates to the caller.
    """
    w = (SMOKE if size == "smoke" else WORKLOADS)[name]
    ckpt_dir = tempfile.mkdtemp(prefix="ckpt-", dir=out_dir)
    try:
        if trace:
            return _traced(w, seed, audit, ckpt_dir)
        return _untraced(w, seed, seconds, audit, ckpt_dir)
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)


def _check_determinism(cycles, audit):
    """Every cycle repeats the same work, so its outputs must agree bit for
    bit with the first cycle's."""
    for c in cycles:
        audit.check("cycles are deterministic",
                    c.fingerprint == cycles[0].fingerprint)


def _untraced(w, seed, seconds, audit, ckpt_dir):
    timer = Timer(probed=True)
    with timer.probing():
        setup_times = []
        while (len(setup_times) < SETUP_REPS
               or sum(setup_times) < SETUP_MIN_S):
            st, elapsed = timer(set_up, w, seed, ckpt_dir)
            setup_times.append(elapsed)
            audit.ops()
        check_setup(st, audit)
        # Whole cycles until the next one would overrun the budget; at
        # least one.
        cycles = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            cycles.append(run_cycle(w, seed, st, audit, _no_span,
                                    timer))
            cycle_s = time.perf_counter() - t0
            if len(cycles) == 1:
                check_cycle(st, cycles[0], audit)
            # Drop the models once checked; later cycles are compared with
            # the first by fingerprint.
            cycles[-1].models = cycles[-1].drawn = cycles[-1].maps = None
            if time.perf_counter() - start + cycle_s > seconds:
                break
    _check_determinism(cycles, audit)
    metrics = end_to_end(setup_times, cycles)
    details = {"cycles": len(cycles), "setup_s": setup_times,
               "samples": [c.samples for c in cycles],
               "unscaled_s": timer.raw,
               "fingerprint": cycles[0].fingerprint}
    return Report(metrics, details)


def _traced(w, seed, audit, ckpt_dir):
    st = set_up(w, seed, ckpt_dir)
    audit.ops()
    check_setup(st, audit)
    plain = run_cycle(w, seed, st, audit, _no_span, Timer(probed=False))
    check_cycle(st, plain, audit)

    tracer = Tracer(CLOCK)
    tracer.install(trace_targets())
    try:
        with tracer.span("phase.setup"):
            st = set_up(w, seed, ckpt_dir)
        audit.ops()
        traced = run_cycle(w, seed, st, audit, tracer.span,
                           Timer(probed=False))
        with tracer.paused():
            check_cycle(st, traced, audit)
    finally:
        restored = tracer.uninstall()
    audit.check("every trace wrapper removed",
                all(getattr(owner, attr) is original
                    for owner, attr, original in restored))
    audit.check("traced cycle reproduces the untraced deterministic outputs",
                traced.fingerprint == plain.fingerprint)

    layers, phases = summarize(tracer.spans)
    metrics = per_layer(layers, phases, st, traced, traced.cpu_s, plain.cpu_s)
    untraced_m, traced_m = _cycle_medians(plain), _cycle_medians(traced)
    details = {
        "phases": phases,
        "layers": layers,
        "overhead": {k: traced_m[k] - untraced_m[k] for k in untraced_m},
        "spans": [s[:4] for s in tracer.spans],
        "fingerprint": traced.fingerprint,
    }
    return Report(metrics, details)
