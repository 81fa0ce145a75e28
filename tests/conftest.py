import numpy as np

from kdia import nn


def make_random_model(seed, widths, split_index):
    rng = np.random.default_rng(seed)
    return nn.he_uniform_init(widths, split_index, rng)


def params_equal(a: nn.ModelParams, b: nn.ModelParams) -> bool:
    """Bit-exact equality of two models."""
    return a.layout == b.layout and np.array_equal(a.flat, b.flat)
