"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line when its assertions hold (run with -s to watch
them live); runtime-budgeted criteria also assert their wall-clock bound.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest

import ttnborn as tb
from ttnborn.cli import main as cli_main
from ttnborn.ttn import amplitudes_from_vectors

from helpers import (all_configs, brute_force_amplitudes, chi_square_pvalue,
                     config_indices)

HERE = os.path.dirname(__file__)
DIGITS = os.path.join(HERE, "fixtures", "digits_28x28.txt")


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_c1_exactness_oracle_suite():
    started = time.perf_counter()
    configs = all_configs(8)
    spin = 2.0 * configs - 1.0
    for seed in range(20):
        model = tb.build_random(8, 4, seed=seed)
        amps = brute_force_amplitudes(model)
        probs_enum = amps * amps / np.sum(amps * amps)
        # exact partition function against full enumeration
        assert abs(tb.partition_function(model)
                   - math.log(np.sum(amps * amps))) < 1e-10
        # total probability mass
        p = np.exp(tb.log_probs(model, configs))
        assert abs(p.sum() - 1.0) < 1e-10
        assert np.max(np.abs(p - probs_enum)) < 1e-10
        # marginals and conditionals against clamped enumeration
        fixed = {0: (seed >> 0) & 1, 5: (seed >> 1) & 1}
        mask = np.ones(256, dtype=bool)
        for k, v in fixed.items():
            mask &= configs[:, k] == v
        for open_pixel in (2, 6):
            p0, p1 = tb.marginal(model, fixed, open_pixel)
            sub = probs_enum[mask]
            expect1 = sub[configs[mask, open_pixel] == 1].sum() / sub.sum()
            assert abs(p1 - expect1) < 1e-10
            assert abs(p0 + p1 - 1.0) < 1e-12
        free0, free1 = tb.marginal(model, {}, 3)
        expect1 = probs_enum[configs[:, 3] == 1].sum()
        assert abs(free1 - expect1) < 1e-10
        # correlations
        for i, j in ((1, 6), (0, 7)):
            expect = float(probs_enum @ (spin[:, i] * spin[:, j])
                           - (probs_enum @ spin[:, i])
                           * (probs_enum @ spin[:, j]))
            assert abs(tb.correlation(model, i, j) - expect) < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"exactness suite took {elapsed:.1f}s"
    _ok(1, f"logZ/probabilities/marginals/correlations exact over 20 seeds "
           f"({elapsed:.1f}s)")


def _nll_by_enumeration(model, batch):
    amps = brute_force_amplitudes(model)
    z = np.sum(amps * amps)
    idx = config_indices(np.asarray(batch))
    return float(np.mean(-np.log(amps[idx] ** 2 / z)))


def test_c2_gradient_correctness():
    started = time.perf_counter()
    h = 1e-5
    edges = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7)]
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        batch = rng.integers(0, 2, size=(4, 8))
        # single-site gradient at every center position
        for center in range(1, 8):
            model = tb.build_random(8, 3, seed=seed)
            tb.canonicalize(model, center)
            grad = tb.gradient_one_site(model, batch, center).data
            t = model.tensors[center]
            for entry in np.ndindex(t.data.shape):
                orig = t.data[entry]
                t.data[entry] = orig + h
                up = _nll_by_enumeration(model, batch)
                t.data[entry] = orig - h
                down = _nll_by_enumeration(model, batch)
                t.data[entry] = orig
                fd = (up - down) / (2 * h)
                err = abs(fd - grad[entry])
                assert err < 1e-5 * abs(fd) or err < 1e-8, \
                    (seed, center, entry, fd, grad[entry])
        # two-site gradient across every edge
        for k, j in edges:
            model = tb.build_random(8, 3, seed=seed)
            tb.canonicalize(model, k)
            grad = tb.gradient_two_site(model, (k, j), batch).data
            merged = tb.merged_tensor(model, k, j)
            ak = model.axis_toward(k, j)
            aj = model.axis_toward(j, k)
            k_axes = [a for a in range(model.tensors[k].ndim) if a != ak]
            j_axes = [a for a in range(model.tensors[j].ndim) if a != aj]
            rows = list(range(len(k_axes)))
            cols = list(range(len(k_axes), len(k_axes) + len(j_axes)))

            def nll_of_merged(mdata):
                res = tb.svd_split(tb.DenseTensor(mdata), rows, cols,
                                   d_max=mdata.size, cutoff=0.0)
                trial = model.copy()
                knew = np.moveaxis(res.u.data * np.asarray(res.s), -1, ak)
                jnew = np.moveaxis(res.v.data, -1, aj)
                trial.tensors[k] = tb.DenseTensor(np.ascontiguousarray(knew))
                trial.tensors[j] = tb.DenseTensor(np.ascontiguousarray(jnew))
                return _nll_by_enumeration(trial, batch)

            for entry in np.ndindex(merged.data.shape):
                pert = merged.data.copy()
                pert[entry] += h
                up = nll_of_merged(pert)
                pert[entry] -= 2 * h
                down = nll_of_merged(pert)
                fd = (up - down) / (2 * h)
                err = abs(fd - grad[entry])
                assert err < 1e-5 * abs(fd) or err < 1e-8, \
                    (seed, (k, j), entry, fd, grad[entry])
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    _ok(2, f"one- and two-site gradients match finite differences at every "
           f"position, 5 seeds ({elapsed:.1f}s)")


def test_c3_canonical_form_suite():
    data = tb.gen_random_patterns(8, 5, seed=77).samples
    configs = all_configs(8)
    # after build and after canonicalizing anywhere
    model = tb.build_random(8, 4, seed=78)
    assert tb.max_canonical_deviation(model) < 1e-10
    base = tb.log_probs(model, configs)
    for center in (4, 2, 7, 1, 6):
        tb.canonicalize(model, center)
        assert tb.max_canonical_deviation(model) < 1e-10
        assert np.max(np.abs(tb.log_probs(model, configs) - base)) < 1e-10
    # after every sweep step and every two-site split
    for scheme in ("one-site", "two-site"):
        model = tb.build_random(8, 4, seed=79)
        devs = []
        cfg = tb.TrainConfig(learning_rate=0.05, d_max=4, scheme=scheme,
                             epochs=2, seed=0)
        tb.train(model, data, cfg)
        tb.sweep_epoch(model, data, cfg,
                       on_step=lambda m, info:
                       devs.append(tb.max_canonical_deviation(m)))
        assert max(devs) < 1e-10, scheme
    _ok(3, "canonical identities hold after build, canonicalize, every "
           "sweep step and every split; center moves leave all 256 "
           "log-probabilities invariant")


def test_c4_random_pattern_memorization():
    started = time.perf_counter()
    results = []
    for t_count in (10, 30, 50):
        data = tb.gen_random_patterns(16, t_count, seed=500 + t_count,
                                      distinct=True).samples
        floor = math.log(t_count)
        model = tb.build_random(16, t_count, seed=1)
        gap_full = float("inf")
        epochs = 0
        while epochs < 200:
            cfg = tb.TrainConfig(learning_rate=0.05, d_max=t_count,
                                 scheme="two-site", epochs=10, seed=0)
            model, stats = tb.train(model, data, cfg)
            epochs += 10
            gap_full = min(gap_full, min(stats.nll) - floor)
            if gap_full < 0.02:
                break
        assert gap_full < 0.02, (t_count, gap_full)
        half = t_count // 2
        small = tb.build_random(16, half, seed=1)
        cfg = tb.TrainConfig(learning_rate=0.05, d_max=half,
                             scheme="two-site", epochs=60, seed=0)
        small, stats = tb.train(small, data, cfg)
        gap_half = min(stats.nll) - floor
        assert gap_half > 0.1, (t_count, gap_half)
        results.append((t_count, epochs, gap_full, gap_half))
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"memorization suite took {elapsed:.1f}s"
    detail = "; ".join(
        f"|T|={t}: ln|T| hit within {g:.1e} in {e} epochs, D=|T|/2 gap {gh:.2f}"
        for t, e, g, gh in results)
    _ok(4, f"{detail} ({elapsed:.0f}s)")


# criterion 5 state shared between the hard assertions and the directional one
_C5 = {}


def test_c5_system_size_robustness_ttn():
    started = time.perf_counter()
    floor = math.log(10)
    gaps = {}
    for n in (64, 256, 1024):
        data = tb.gen_random_patterns(n, 10, seed=600 + n).samples
        model = tb.build_random(n, 10, seed=5)
        gap = float("inf")
        epochs = 0
        while epochs < 60:
            cfg = tb.TrainConfig(learning_rate=0.05, d_max=10,
                                 scheme="two-site", epochs=5, seed=0)
            model, stats = tb.train(model, data, cfg)
            epochs += 5
            gap = min(gap, min(stats.nll) - floor)
            if gap < 0.05:
                break
        gaps[n] = gap
        assert gap < 0.05, (n, gap)
    # MPS baseline at the same epoch budget, for the directional check
    data = tb.gen_random_patterns(1024, 10, seed=600 + 1024).samples
    cfg = tb.TrainConfig(learning_rate=0.05, d_max=12, scheme="two-site",
                         epochs=60, seed=0)
    _, mps_stats = tb.mps_train(data, cfg)
    _C5["mps_gap"] = min(mps_stats.nll) - floor
    _C5["ttn_gaps"] = gaps
    elapsed = time.perf_counter() - started
    _C5["elapsed"] = elapsed
    assert elapsed < 1800.0, f"system-size suite took {elapsed:.1f}s"
    _ok(5, "TTN D=10 reaches ln 10 within 0.05 at n=64/256/1024: gaps "
           + ", ".join(f"{g:.4f}" for g in gaps.values())
           + f" ({elapsed:.0f}s)")


def test_c5_directional_mps_gap():
    if "mps_gap" not in _C5:
        pytest.skip("TTN part of criterion 5 did not run")
    mps_gap = _C5["mps_gap"]
    ttn_gap = _C5["ttn_gaps"][1024]
    print(f"criterion 5 numbers: TTN(D=10, n=1024) gap={ttn_gap:.4f}, "
          f"MPS(D=12, n=1024) gap={mps_gap:.4f}")
    assert mps_gap > 0.1, \
        f"directional claim failed: MPS gap {mps_gap:.4f} closed below 0.1"
    _ok(5, f"directional: MPS(D=12) stalls at gap {mps_gap:.2f} where "
           f"TTN(D=10) reaches {ttn_gap:.4f}")


def test_c6_sampler_fidelity():
    model = tb.build_random(8, 4, seed=81)
    probs = np.exp(tb.log_probs(model, all_configs(8)))
    samples = tb.sample_batch(model, 1_000_000, seed=82)
    counts = np.bincount(config_indices(samples), minlength=256)
    pvalue = chi_square_pvalue(counts, probs)
    assert pvalue > 0.01, f"chi-square p={pvalue}"
    audited, chain = tb.sample_batch(model, 1000, seed=83,
                                     return_chain_log=True)
    drift = np.max(np.abs(chain - tb.log_probs(model, audited)))
    assert drift < 1e-10
    _ok(6, f"10^6 draws match exact p(x) (chi-square p={pvalue:.3f}); "
           f"chain-rule identity within {drift:.1e} on 10^3 audited draws")


def test_c7_mnist_memorization():
    started = time.perf_counter()
    dataset = tb.load_binarized_text(DIGITS)
    assert dataset.samples.shape == (20, 784)
    desc = tb.make_ordering("hierarchical-2d", (28, 28))
    assert desc.padded_size == 1024
    leaf = tb.apply_ordering(dataset, desc)
    floor = math.log(20)
    model = tb.build_random(1024, 20, seed=11)
    gap = float("inf")
    epochs = 0
    while epochs < 60:
        cfg = tb.TrainConfig(learning_rate=0.05, d_max=20, scheme="two-site",
                             epochs=5, seed=0)
        model, stats = tb.train(model, leaf, cfg)
        epochs += 5
        gap = min(gap, min(stats.nll) - floor)
        if gap < 1e-9:
            break
    assert gap < 0.1, f"training NLL gap {gap}"
    samples = tb.sample_batch(model, 200, seed=12, ordering=desc)
    images = {r.tobytes() for r in dataset.samples}
    hits = sum(r.tobytes() in images for r in samples.astype(np.uint8))
    assert hits == 200, f"only {hits}/200 samples are training images"
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0, f"digit memorization took {elapsed:.1f}s"
    _ok(7, f"20 handwritten digits memorized to NLL gap {gap:.1e} in "
           f"{epochs} epochs; 200/200 samples are training images "
           f"({elapsed:.0f}s)")


def test_c8_factor_graph_equivalence():
    rng = np.random.default_rng(90)
    for trial in range(100):
        n = int(rng.choice([4, 8, 16]))
        fg = tb.heap_shaped_fg(n, seed=int(rng.integers(0, 2 ** 31)))
        ttn = tb.fg_to_ttn(fg)
        # the free contraction, then every pixel clamped to 0 and to 1
        vecs = np.ones((1 + 2 * n, n, 2))
        for pix in range(n):
            vecs[1 + 2 * pix:3 + 2 * pix, pix] = np.eye(2)
        log_abs, _ = amplitudes_from_vectors(ttn, vecs)
        expect = [tb.sum_product_log_z(fg)] + [
            tb.sum_product_log_z(fg, {pix: v})
            for pix in range(n) for v in (0, 1)]
        assert np.max(np.abs(log_abs - expect)) < 1e-10, trial
    _ok(8, "100 random heap-topology factor graphs map to networks whose "
           "contraction matches sum-product for the free Z and every "
           "single-pixel clamping")


def test_c9_cli_determinism(tmp_path):
    def digest(path):
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    data = tmp_path / "train.txt"
    assert cli_main(["gen-random", "--n-pixels", "16", "--count", "10",
                     "--seed", "4", "--out", str(data)]) == 0
    hashes = []
    for run, threads in (("a", "1"), ("b", "2")):
        out = tmp_path / run
        rc = cli_main(["--threads", threads, "train", "--model", "ttn",
                       "--data", str(data), "--order", "1d", "--dmax", "10",
                       "--scheme", "two-site", "--epochs", "8",
                       "--lr", "0.05", "--seed", "7", "--out", str(out)])
        assert rc == 0
        sample_dir = tmp_path / f"s_{run}"
        rc = cli_main(["--threads", threads, "sample", "--model-path",
                       str(out / "model.ttnborn"), "--count", "16",
                       "--seed", "3", "--out", str(sample_dir),
                       "--format", "txt"])
        assert rc == 0
        hashes.append((digest(out / "model.ttnborn"),
                       digest(out / "stats.csv"),
                       digest(sample_dir / "samples.txt")))
    assert hashes[0] == hashes[1]
    _ok(9, "identical flags+seed give byte-identical checkpoints, stats "
           "CSVs and samples across reruns and thread counts")
