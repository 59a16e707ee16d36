import hashlib
import os

import numpy as np
import pytest

from ttnborn import (apply_ordering, build_random, heap_shaped_fg,
                     load_binarized_text, load_checkpoint, nll,
                     save_checkpoint)
from ttnborn.cli import main
from ttnborn import pbm

from helpers import with_header


def run(args):
    return main([str(a) for a in args])


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture
def patterns_file(tmp_path):
    path = tmp_path / "train.txt"
    assert run(["gen-random", "--n-pixels", 16, "--count", 10,
                "--seed", 4, "--out", path]) == 0
    return path


class TestGenRandom:
    def test_deterministic_and_loadable(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run(["gen-random", "--n-pixels", 12, "--count", 7,
                        "--seed", 9, "--out", out]) == 0
        assert digest(a) == digest(b)
        ds = load_binarized_text(a)
        assert ds.samples.shape == (7, 12)

    def test_bit_balance(self, tmp_path):
        out = tmp_path / "big.txt"
        run(["gen-random", "--n-pixels", 1000, "--count", 500,
             "--seed", 1, "--out", out])
        ds = load_binarized_text(out)
        n = ds.samples.size
        assert abs(ds.samples.mean() - 0.5) < 3 * 0.5 / np.sqrt(n)


class TestTrain:
    def test_writes_outputs_and_prints_nll(self, patterns_file, tmp_path,
                                           capsys):
        out = tmp_path / "run"
        rc = run(["train", "--model", "ttn", "--data", patterns_file,
                  "--order", "1d", "--dmax", 10, "--scheme", "two-site",
                  "--epochs", 12, "--lr", "0.05", "--seed", 7, "--out", out])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.startswith("train_nll=")
        assert (out / "model.ttnborn").exists()
        assert (out / "stats.csv").exists()
        value = float(printed.split("=")[1])
        assert value - np.log(10) < 0.01

    def test_reruns_are_byte_identical(self, patterns_file, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = run(["train", "--model", "ttn", "--data", patterns_file,
                      "--dmax", 8, "--epochs", 5, "--seed", 3, "--out", out])
            assert rc == 0
            outs.append(out)
        assert digest(outs[0] / "model.ttnborn") == digest(outs[1] / "model.ttnborn")
        assert digest(outs[0] / "stats.csv") == digest(outs[1] / "stats.csv")

    def test_mps_model_type(self, patterns_file, tmp_path):
        out = tmp_path / "mps_run"
        rc = run(["train", "--model", "mps", "--data", patterns_file,
                  "--dmax", 10, "--epochs", 10, "--seed", 2, "--out", out])
        assert rc == 0
        _, header = load_checkpoint(out / "model.ttnborn")
        assert header["model_type"] == "mps"

    def test_treefg_model_type(self, patterns_file, tmp_path):
        out = tmp_path / "fg_run"
        rc = run(["train", "--model", "treefg", "--data", patterns_file,
                  "--dmax", 2, "--epochs", 5, "--lr", "0.5",
                  "--seed", 2, "--out", out])
        assert rc == 0
        _, header = load_checkpoint(out / "model.ttnborn")
        assert header["model_type"] == "treefg"

    def test_2d_order_requires_2d_shape(self, patterns_file, tmp_path,
                                        capsys):
        rc = run(["train", "--model", "ttn", "--data", patterns_file,
                  "--order", "2d", "--dmax", 4, "--epochs", 1, "--seed", 1,
                  "--out", tmp_path / "x"])
        assert rc == 1
        assert "error [shape]" in capsys.readouterr().err

    def test_2d_order_with_shape_flag(self, patterns_file, tmp_path):
        out = tmp_path / "run2d"
        rc = run(["train", "--model", "ttn", "--data", patterns_file,
                  "--order", "2d", "--shape", "4x4", "--dmax", 8,
                  "--epochs", 8, "--seed", 1, "--out", out])
        assert rc == 0
        _, header = load_checkpoint(out / "model.ttnborn")
        assert header["ordering"]["kind"] == "hierarchical-2d"

    def test_missing_required_flag_fails_cleanly(self, patterns_file,
                                                 tmp_path, capsys):
        rc = run(["train", "--data", patterns_file, "--epochs", 1,
                  "--seed", 1, "--out", tmp_path / "x"])
        assert rc == 1
        assert "--dmax" in capsys.readouterr().err

    def test_invalid_config_fails_before_writing(self, patterns_file,
                                                 tmp_path, capsys):
        out = tmp_path / "x"
        rc = run(["train", "--data", patterns_file, "--dmax", 2, "--epochs", 1,
                  "--seed", 1, "--svd-cutoff", "nan", "--out", out])
        assert rc == 1
        assert "error [argument]" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_file(self, tmp_path, capsys):
        rc = run(["train", "--data", tmp_path / "nope.txt", "--dmax", 2,
                  "--epochs", 1, "--seed", 1, "--out", tmp_path / "x"])
        assert rc == 1
        assert "error [io]" in capsys.readouterr().err

    def test_checkpoint_every(self, patterns_file, tmp_path):
        out = tmp_path / "ck"
        rc = run(["train", "--data", patterns_file, "--dmax", 4,
                  "--epochs", 4, "--seed", 1, "--out", out,
                  "--checkpoint-every", 2])
        assert rc == 0
        assert (out / "model_epoch00002.ttnborn").exists()
        assert (out / "model_epoch00004.ttnborn").exists()

    def test_treefg_checkpoint_every_and_progress(self, patterns_file,
                                                  tmp_path, capsys):
        out = tmp_path / "fg_ck"
        rc = run(["train", "--model", "treefg", "--data", patterns_file,
                  "--dmax", 2, "--epochs", 2, "--lr", "0.5", "--seed", 2,
                  "--out", out, "--checkpoint-every", 1])
        assert rc == 0
        for epoch in (1, 2):
            _, header = load_checkpoint(out / f"model_epoch{epoch:05d}.ttnborn")
            assert header["model_type"] == "treefg"
            assert header["epoch"] == epoch
        assert digest(out / "model_epoch00002.ttnborn") == \
            digest(out / "model.ttnborn")
        progress = capsys.readouterr().err.splitlines()
        assert [line.split(" nll=")[0] for line in progress] == \
            ["treefg epoch 0", "treefg epoch 1"]


class TestEvalSampleCorrelate:
    @pytest.fixture
    def trained(self, patterns_file, tmp_path):
        out = tmp_path / "trained"
        run(["train", "--model", "ttn", "--data", patterns_file,
             "--dmax", 10, "--epochs", 15, "--seed", 7, "--out", out])
        return out / "model.ttnborn", patterns_file

    def test_eval_matches_library(self, trained, capsys):
        model_path, data_path = trained
        rc = run(["eval", "--model-path", model_path, "--data", data_path])
        assert rc == 0
        printed = capsys.readouterr().out
        model, header = load_checkpoint(model_path)
        ds = load_binarized_text(data_path)
        matrix = apply_ordering(ds, header["ordering_descriptor"])
        assert printed.strip() == f"nll={nll(model, matrix):.6f}"

    def test_eval_rejects_malformed_checkpoint(self, trained, tmp_path,
                                               capsys):
        model_path, data_path = trained
        raw = model_path.read_bytes()
        bad = tmp_path / "bad.ttnborn"
        bad.write_bytes(raw[:16] + b"x" + raw[17:])   # header JSON broken
        rc = run(["eval", "--model-path", bad, "--data", data_path])
        assert rc == 1
        assert "error [parse]" in capsys.readouterr().err

    def test_eval_rejects_treefg_edge_out_of_range(self, patterns_file,
                                                   tmp_path, capsys):
        good, bad = tmp_path / "good.ttnborn", tmp_path / "bad.ttnborn"
        edges = save_checkpoint(good, heap_shaped_fg(16, seed=1))["edges"]
        bad.write_bytes(with_header(good.read_bytes(),
                                    edges=[[0, 99]] + edges[1:]))
        rc = run(["eval", "--model-path", bad, "--data", patterns_file])
        assert rc == 1
        assert "error [parse]" in capsys.readouterr().err

    def test_sample_writes_pbm_and_txt(self, trained, tmp_path):
        model_path, data_path = trained
        out = tmp_path / "samples"
        rc = run(["sample", "--model-path", model_path, "--count", 5,
                  "--seed", 3, "--out", out, "--format", "both"])
        assert rc == 0
        files = sorted(os.listdir(out))
        assert "sample_0000.pbm" in files and "samples.txt" in files
        img = pbm.read_pbm(out / "sample_0000.pbm")
        assert img.size == 16
        txt = np.loadtxt(out / "samples.txt", dtype=int)
        patterns = {r.tobytes() for r in
                    load_binarized_text(data_path).samples}
        assert all(r.astype(np.uint8).tobytes() in patterns for r in txt)

    def test_sample_determinism(self, trained, tmp_path):
        model_path, _ = trained
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            run(["sample", "--model-path", model_path, "--count", 3,
                 "--seed", 11, "--out", out, "--format", "txt"])
            outs.append(digest(out / "samples.txt"))
        assert outs[0] == outs[1]

    def test_sheet_flag(self, trained, tmp_path):
        model_path, _ = trained
        out = tmp_path / "sheet"
        rc = run(["sample", "--model-path", model_path, "--count", 4,
                  "--seed", 2, "--out", out, "--sheet"])
        assert rc == 0
        assert (out / "sample_sheet.pbm").exists()

    def test_correlate_memorized_model(self, trained, tmp_path):
        model_path, data_path = trained
        out = tmp_path / "corr"
        rc = run(["correlate", "--model-path", model_path,
                  "--pixels", "0,5", "--out", out])
        assert rc == 0
        grid = np.loadtxt(out / "corr_0.csv", delimiter=",").ravel()
        ds = load_binarized_text(data_path)
        s = 2.0 * ds.samples - 1.0
        expect = s.T @ s[:, 0] / 10 - s.mean(axis=0) * s[:, 0].mean()
        assert np.max(np.abs(grid - expect)) < 1e-6

    def test_correlate_uniform_model_all_zero(self, tmp_path):
        import ttnborn as tb
        import sys
        sys.path.insert(0, os.path.dirname(__file__))
        from helpers import uniform_ttn
        model = uniform_ttn(16)
        tb.canonicalize(model, 1)
        path = tmp_path / "uniform.ttnborn"
        tb.save_checkpoint(path, model,
                           ordering=tb.make_ordering("raster-1d", (16,)))
        out = tmp_path / "corr"
        rc = run(["correlate", "--model-path", path, "--pixels", "3",
                  "--out", out])
        assert rc == 0
        grid = np.loadtxt(out / "corr_3.csv", delimiter=",").ravel()
        grid[3] = 0.0   # self entry reports the variance
        assert np.max(np.abs(grid)) < 1e-12

    @pytest.mark.parametrize("kind", ["ttn", "mps"])
    @pytest.mark.parametrize("pixel", ["-1", "16"])
    def test_correlate_rejects_out_of_range_pixel(self, patterns_file,
                                                  tmp_path, capsys, kind,
                                                  pixel):
        run(["train", "--model", kind, "--data", patterns_file, "--dmax", 4,
             "--epochs", 1, "--seed", 1, "--out", tmp_path / "run"])
        out = tmp_path / "corr"
        capsys.readouterr()
        rc = run(["correlate", "--model-path",
                  tmp_path / "run" / "model.ttnborn",
                  f"--pixels=0,{pixel}", "--out", out])
        assert rc == 1
        assert "error [argument]" in capsys.readouterr().err
        assert not out.exists() or os.listdir(out) == []


class TestPbmInput:
    def test_train_from_pbm_directory(self, tmp_path, rng):
        imgs = tmp_path / "imgs"
        os.makedirs(imgs)
        for i in range(6):
            pbm.write_pbm(imgs / f"{i}.pbm",
                          rng.integers(0, 2, size=(4, 4)).astype(np.uint8))
        out = tmp_path / "run"
        rc = run(["train", "--data", imgs, "--order", "2d", "--dmax", 6,
                  "--epochs", 8, "--seed", 1, "--out", out])
        assert rc == 0
        _, header = load_checkpoint(out / "model.ttnborn")
        assert header["ordering"]["kind"] == "hierarchical-2d"
        assert header["n_sites"] == 16

    # a width or height that is missing, not decimal or not positive; the
    # last two once loaded as an empty image that train then fitted
    @pytest.mark.parametrize("raw", [b"P4", b"P4\n4", b"P4\nx 2\n\0\0",
                                     b"P4\n4 2.0\n\0\0", b"P4\n-4 2\n\0\0",
                                     b"P4\n4 0x2\n\0\0", b"P4\n0 0\n",
                                     b"P4\n4 0\n"])
    def test_bad_image_size_is_a_parse_error(self, tmp_path, capsys, raw):
        imgs = tmp_path / "imgs"
        os.makedirs(imgs)
        (imgs / "0.pbm").write_bytes(raw)
        out = tmp_path / "run"
        rc = run(["train", "--data", imgs, "--epochs", 1, "--seed", 1,
                  "--out", out])
        assert rc == 1
        assert "error [parse]" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_mps_checkpoint(self, patterns_file, tmp_path, capsys):
        out = tmp_path / "mps_run"
        run(["train", "--model", "mps", "--data", patterns_file,
             "--dmax", 8, "--epochs", 8, "--seed", 2, "--out", out])
        capsys.readouterr()
        rc = run(["eval", "--model-path", out / "model.ttnborn",
                  "--data", patterns_file])
        assert rc == 0
        assert capsys.readouterr().out.startswith("nll=")


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, patterns_file,
                                                tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dmax = 10\nepochs = 12\nseed = 7\n"
                       "lr = 0.05\n# comment\nscheme = two-site\n")
        out = tmp_path / "cfgrun"
        rc = run(["--config", cfg, "train", "--data", patterns_file,
                  "--out", out])
        assert rc == 0
        nll_from_cfg = capsys.readouterr().out
        # explicit flag beats the config value
        out2 = tmp_path / "cfgrun2"
        rc = run(["--config", cfg, "train", "--data", patterns_file,
                  "--epochs", 1, "--out", out2])
        assert rc == 0
        _, header = load_checkpoint(out2 / "model.ttnborn")
        assert header["epoch"] == 1
        assert nll_from_cfg.startswith("train_nll=")

    def test_unknown_config_key_rejected(self, patterns_file, tmp_path,
                                         capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("granularity = 9\n")
        rc = run(["--config", cfg, "train", "--data", patterns_file,
                  "--dmax", 2, "--epochs", 1, "--seed", 1,
                  "--out", tmp_path / "x"])
        assert rc == 1
        assert "error [parse]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("train", "model", "foo"), ("train", "order", "3d"),
        ("train", "dmax", "abc"), ("sample", "format", "xyz")])
    def test_value_its_flag_rejects_is_a_parse_error(
            self, patterns_file, tmp_path, capsys, command, key, value):
        # each of these once ran (an MPS, raster order, a sample call that
        # wrote no file) or failed as a bare ValueError from the flag's type
        cfg, out = tmp_path / "bad.cfg", tmp_path / "x"
        cfg.write_text(f"{key} = {value}\n")
        if command == "train":
            args = ["train", "--data", patterns_file, "--epochs", 1]
            args += [] if key == "dmax" else ["--dmax", 2]
        else:
            model_path = tmp_path / "m.ttnborn"
            save_checkpoint(model_path, build_random(16, 2, seed=1))
            args = ["sample", "--model-path", model_path, "--count", 3]
        rc = run(["--config", cfg] + args + ["--seed", 1, "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error [parse]" in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sheet", "distinct", "record_timing"])
    def test_switch_value_neither_yes_nor_no_is_a_parse_error(
            self, patterns_file, tmp_path, capsys, key):
        # "maybe" once read as false: ``sheet`` wrote a file per sample
        cfg, out = tmp_path / "bad.cfg", tmp_path / "x"
        cfg.write_text(f"{key} = maybe\n")
        if key == "sheet":
            model_path = tmp_path / "m.ttnborn"
            save_checkpoint(model_path, build_random(16, 2, seed=1))
            args = ["sample", "--model-path", model_path, "--count", 3]
        elif key == "distinct":
            args = ["gen-random", "--n-pixels", 16, "--count", 3]
        else:
            args = ["train", "--data", patterns_file, "--dmax", 2,
                    "--epochs", 1]
        rc = run(["--config", cfg] + args + ["--seed", 1, "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error [parse]" in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("value, sheet", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), ("NO", False), ("Off", False)])
    def test_switch_values_read_case_insensitively(self, tmp_path, value,
                                                   sheet):
        cfg, out = tmp_path / "run.cfg", tmp_path / "x"
        cfg.write_text(f"sheet = {value}\n")
        model_path = tmp_path / "m.ttnborn"
        save_checkpoint(model_path, build_random(16, 2, seed=1))
        rc = run(["--config", cfg, "sample", "--model-path", model_path,
                  "--count", 3, "--seed", 1, "--out", out])
        assert rc == 0
        assert (out / "sample_sheet.pbm").exists() == sheet
        assert (out / "sample_0000.pbm").exists() != sheet


class TestUndecodableText:
    """A byte that is not UTF-8 once escaped as a UnicodeDecodeError,
    reported as ``error [argument]``."""

    def test_dataset_byte_is_a_parse_error_naming_the_line(self, tmp_path,
                                                           capsys):
        data, out = tmp_path / "bad.txt", tmp_path / "x"
        data.write_bytes(b"0 1 0 1\n1 0 \xff 1\n")
        rc = run(["train", "--data", data, "--dmax", 2, "--epochs", 1,
                  "--seed", 1, "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error [parse]: line 2, column 5: byte 0xff" in err
        assert not out.exists()

    def test_config_byte_is_a_parse_error_naming_the_line(
            self, patterns_file, tmp_path, capsys):
        cfg, out = tmp_path / "bad.cfg", tmp_path / "x"
        cfg.write_bytes(b"dmax = 2\r\nepochs = 1\xc3\n")
        rc = run(["--config", cfg, "train", "--data", patterns_file,
                  "--seed", 1, "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error [parse]: line 2, column 11: byte 0xc3" in err
        assert not out.exists()
