"""The paper's correlation claim as a number.

A tree in hierarchical-2d order keeps the connected correlation of
vertically neighbouring pixels, which a chain in raster order, where they
are 28 sites apart, loses; both keep that of horizontal neighbours.
"""

import os

import numpy as np

import ttnborn as tb

DIGITS = os.path.join(os.path.dirname(__file__), "fixtures",
                      "digits_28x28.txt")


def test_tree_keeps_the_vertical_correlations_a_raster_chain_loses():
    # measured: mean vertical error 0.021 (tree) against 0.369 (chain),
    # horizontal 0.0008 and 0.0026
    dataset = tb.load_binarized_text(DIGITS)
    spins = 2.0 * dataset.samples - 1.0
    data_cov = np.cov(spins, rowvar=False, bias=True)
    # reference pixels with a pixel below and one to the right, whose spin
    # variance exceeds 0.3
    pixels = np.arange(28 * 28)
    usable = ((pixels // 28 < 27) & (pixels % 28 < 27)
              & (np.diag(data_cov) > 0.3))
    refs = np.random.default_rng(0).choice(pixels[usable], 30, replace=False)
    cfg = tb.TrainConfig(learning_rate=0.05, d_max=6, scheme="two-site",
                         epochs=10, seed=0)
    errors = {}
    for name, order, build in (("ttn", "hierarchical-2d", tb.build_random),
                               ("mps", "raster-1d", tb.mps_build_random)):
        desc = tb.make_ordering(order, (28, 28))
        model, _ = tb.train(build(desc.padded_size, 6, seed=1),
                            tb.apply_ordering(dataset, desc), cfg)
        slot = desc.permutation
        err = np.empty((len(refs), 2))
        for i, r in enumerate(refs):
            cmap = tb.correlation_map(model, int(slot[r]))
            err[i] = [abs(cmap[slot[r + step]] - data_cov[r, r + step])
                      for step in (28, 1)]
        errors[name] = err.mean(axis=0)
    (ttn_vertical, ttn_horizontal), (mps_vertical, mps_horizontal) = (
        errors["ttn"], errors["mps"])
    assert ttn_vertical < mps_vertical / 4, errors
    assert ttn_horizontal < 0.02 and mps_horizontal < 0.02, errors
