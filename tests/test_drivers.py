"""The evaluation and sampling drivers that both Born machines share:
``log_probs`` and ``sample_batch`` walk the rows in chunks of
``ttn._chunk_rows`` and hand each chunk to the model's kernel."""

import tracemalloc

import numpy as np
import pytest

import ttnborn.ttn as ttn
from ttnborn import (build_random, canonicalize, gen_random_patterns,
                     log_probs, mps_build_random, sample_batch)
from ttnborn.mps import mps_log_probs, mps_sample_batch

from helpers import count_lifts, uneven_mps, uneven_ttn


def _models():
    tree, chain = uneven_ttn(), uneven_mps(6)
    canonicalize(tree, 5)
    return {"ttn": (tree, log_probs, sample_batch),
            "mps": (chain, mps_log_probs, mps_sample_batch)}


class TestChunkIndependence:
    @pytest.mark.parametrize("kind", ["ttn", "mps"])
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_log_probs_do_not_depend_on_the_chunk(self, monkeypatch, kind,
                                                  chunk):
        model, evaluate, _ = _models()[kind]
        rows = gen_random_patterns(16, 200, seed=3).samples
        whole = evaluate(model, rows)
        assert ttn._chunk_rows(model._amplitude_kernel()[0],
                               len(rows)) == len(rows)
        monkeypatch.setattr(ttn, "_chunk_rows", lambda m, c: chunk)
        chunked = evaluate(model, rows)
        assert np.all(np.abs(chunked - whole) <= 1e-12 * np.abs(whole))

    @pytest.mark.parametrize("kind", ["ttn", "mps"])
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_samples_do_not_depend_on_the_chunk(self, monkeypatch, kind,
                                                chunk):
        model, evaluate, draw = _models()[kind]
        whole, log = draw(model, 200, 7, return_chain_log=True)
        monkeypatch.setattr(ttn, "_chunk_rows", lambda m, c: chunk)
        rows, logs = draw(model, 200, 7, return_chain_log=True)
        assert np.array_equal(rows, whole)
        assert np.all(np.abs(logs - log) <= 1e-12 * np.abs(log))
        assert np.all(np.abs(logs - evaluate(model, rows))
                      <= 1e-10 * np.abs(log))


class TestOctetTableBuilds:
    """The tree's octet tables cost a fixed build per call, so a call
    builds them only when its rows pay for it, and then once."""

    @pytest.mark.parametrize("rows, chunk, builds", [
        (1, None, 0), (2000, None, 1), (2000, 500, 1)])
    def test_built_at_most_once_and_only_for_enough_rows(
            self, monkeypatch, rows, chunk, builds):
        model = build_random(128, 16, seed=3)
        canonicalize(model, model.n_tensors)
        samples = gen_random_patterns(128, rows, seed=4).samples
        want = log_probs(model, samples)
        built = count_lifts(monkeypatch)
        if chunk is not None:
            monkeypatch.setattr(ttn, "_chunk_rows", lambda m, c: chunk)
        got = log_probs(model, samples)
        assert built.count(128 // 8) == builds
        assert built.count(128 // 4) == 1        # the group tables
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


class TestRowTypes:
    @pytest.mark.parametrize("kind", ["ttn", "mps"])
    def test_every_0_1_dtype_evaluates_alike(self, kind):
        # the kernels index with the row values, so chunks are cast to uint8
        model, evaluate, _ = _models()[kind]
        rows = gen_random_patterns(16, 40, seed=4).samples
        want = evaluate(model, rows.astype(np.uint8))
        for dtype in (np.int64, np.bool_, np.float64):
            assert np.array_equal(evaluate(model, rows.astype(dtype)), want)


class TestChainSamplerMemory:
    def test_twenty_thousand_rows_at_1024_sites_stay_under_64_mib(self):
        # all uniforms at once peaked at 221 MiB; the 20 MiB of returned
        # rows are counted
        model = mps_build_random(1024, 32, seed=67)
        tracemalloc.start()
        try:
            mps_sample_batch(model, 20_000, seed=68)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestSampleArguments:
    @pytest.mark.parametrize("kind", ["ttn", "mps"])
    @pytest.mark.parametrize("count, seed, ok", [
        (np.int64(3), np.uint32(7), True), (3, 7, True),
        (2.5, 7, False), (0, 7, False), (True, 7, False), ("3", 7, False),
        (3, None, False), (3, -1, False), (3, 7.0, False), (3, False, False)])
    def test_count_and_seed_are_checked_integers(self, kind, count, seed, ok):
        # a seed of None would draw from OS entropy, outside every
        # explicit seed
        model, _, draw = _models()[kind]
        if ok:
            assert np.array_equal(draw(model, count, seed), draw(model, 3, 7))
        else:
            with pytest.raises(ValueError):
                draw(model, count, seed)
