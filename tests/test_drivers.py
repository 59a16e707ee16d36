"""The evaluation and sampling drivers that both Born machines share:
``log_probs`` and ``sample_batch`` walk the rows in chunks of
``ttn._chunk_rows`` and hand each chunk to the model's kernel."""

import tracemalloc

import numpy as np
import pytest

import ttnborn.ttn as ttn
from ttnborn import (canonicalize, gen_random_patterns, log_probs,
                     mps_build_random, mps_log_probs, mps_sample_batch,
                     sample_batch)

from helpers import uneven_mps, uneven_ttn


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
