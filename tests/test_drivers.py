"""The evaluation and sampling drivers that both Born machines share:
``log_probs`` and ``sample_batch`` walk the rows in chunks of
``born._chunk_rows`` and hand each chunk to the model's kernel.  Every
function that takes pixel rows checks them by ``born.sample_matrix``."""

import tracemalloc

import numpy as np
import pytest

import ttnborn.born as born
from ttnborn import (BinaryDataset, TrainConfig, build_random, canonicalize,
                     fg_nll, fg_train, gen_random_patterns, gradient_one_site,
                     gradient_two_site, heap_shaped_fg, log_probs,
                     mps_build_random, mps_train, nll, sample_batch,
                     sweep_epoch, train)
from ttnborn.errors import DimensionError
from ttnborn.factor_graph import fg_gradient, fg_log_ptilde
from ttnborn.mps import mps_log_probs, mps_sample_batch, mps_sweep_epoch

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
        assert born._chunk_rows(model._amplitude_kernel()[0],
                                len(rows)) == len(rows)
        monkeypatch.setattr(born, "_chunk_rows", lambda m, c: chunk)
        chunked = evaluate(model, rows)
        assert np.all(np.abs(chunked - whole) <= 1e-12 * np.abs(whole))

    @pytest.mark.parametrize("kind", ["ttn", "mps"])
    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_samples_do_not_depend_on_the_chunk(self, monkeypatch, kind,
                                                chunk):
        model, evaluate, draw = _models()[kind]
        whole, log = draw(model, 200, 7, return_chain_log=True)
        monkeypatch.setattr(born, "_chunk_rows", lambda m, c: chunk)
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
            monkeypatch.setattr(born, "_chunk_rows", lambda m, c: chunk)
        got = log_probs(model, samples)
        assert built.count(128 // 8) == builds
        assert built.count(128 // 4) == 1        # the group tables
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def _tree(center=7):
    model = build_random(8, 2, seed=1)
    return canonicalize(model, center)


def _chain():
    return mps_build_random(8, 2, seed=1)


_CFG = TrainConfig(d_max=2, epochs=1, seed=0)

# Every function that takes pixel rows, each on a fresh 8-pixel model, as
# rows -> a result that two calls on the same rows give bit for bit.
ROW_ENTRY_POINTS = {
    "sample_matrix": lambda rows: born.sample_matrix(rows, 8),
    "log_probs": lambda rows: log_probs(_tree(), rows),
    "mps_log_probs": lambda rows: mps_log_probs(_chain(), rows),
    "nll": lambda rows: nll(_tree(), rows),
    "train": lambda rows: train(_tree(), rows, _CFG)[1].nll,
    "sweep_epoch": lambda rows: sweep_epoch(_tree(), rows, _CFG)[1].nll,
    "mps_sweep_epoch":
        lambda rows: mps_sweep_epoch(_chain(), rows, _CFG)[1].nll,
    "gradient_one_site":
        lambda rows: gradient_one_site(_tree(3), rows, 3).data,
    "gradient_two_site":
        lambda rows: gradient_two_site(_tree(3), (3, 6), rows).data,
    # sized from the rows, so that any width is accepted
    "mps_train": lambda rows: mps_train(rows, _CFG)[1].nll,
    "mps_train(model)":
        lambda rows: mps_train(rows, _CFG, model=_chain())[1].nll,
    "fg_log_ptilde": lambda rows: fg_log_ptilde(heap_shaped_fg(8, 1), rows),
    "fg_nll": lambda rows: fg_nll(heap_shaped_fg(8, 1), rows),
    "fg_gradient": lambda rows: fg_gradient(heap_shaped_fg(8, 1), rows),
    "fg_train":
        lambda rows: fg_train(heap_shaped_fg(8, 1), rows, _CFG)[1]["nll"],
}

_ROWS = gen_random_patterns(8, 5, seed=4).samples


def _with(value, dtype):
    rows = _ROWS.astype(dtype)
    rows[2, 3] = value
    return rows


ACCEPTED_ROWS = {
    "uint8": _ROWS, "bool": _ROWS.astype(bool),
    "int64": _ROWS.astype(np.int64), "float64": _ROWS.astype(np.float64),
    "list": _ROWS.tolist(), "dataset": BinaryDataset(_ROWS, (8,)),
}
REJECTED_ROWS = {
    "no rows": (_ROWS[:0], ValueError),
    "3-D": (_ROWS[None], DimensionError),
    "width": (_ROWS[:, :7], DimensionError),
    "value 2": (_with(2, np.uint8), ValueError),
    "value 0.5": (_with(0.5, np.float64), ValueError),
    "value -1": (_with(-1, np.int64), ValueError),
}


class TestRowTypes:
    @pytest.mark.parametrize("kind", ["ttn", "mps"])
    def test_every_0_1_dtype_evaluates_alike(self, kind):
        # the kernels index with the row values, so rows are cast to uint8
        model, evaluate, _ = _models()[kind]
        rows = gen_random_patterns(16, 40, seed=4).samples
        want = evaluate(model, rows.astype(np.uint8))
        for dtype in (np.int64, np.bool_, np.float64):
            assert np.array_equal(evaluate(model, rows.astype(dtype)), want)

    @pytest.mark.parametrize("entry", ROW_ENTRY_POINTS)
    def test_every_accepted_form_gives_one_result(self, entry):
        call = ROW_ENTRY_POINTS[entry]
        want = call(_ROWS)
        for form, rows in ACCEPTED_ROWS.items():
            assert np.array_equal(call(rows), want), form
        # a 1-D array is one row
        assert np.array_equal(call(_ROWS[0]), call(_ROWS[:1]))

    @pytest.mark.parametrize("entry, case", [
        (entry, case) for entry in ROW_ENTRY_POINTS for case in REJECTED_ROWS
        if (entry, case) != ("mps_train", "width")])
    def test_every_rejected_form_raises_one_typed_error(self, entry, case):
        rows, error = REJECTED_ROWS[case]
        with pytest.raises(ValueError) as err:
            ROW_ENTRY_POINTS[entry](rows)
        assert type(err.value) is error


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
