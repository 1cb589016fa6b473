"""Live module graphs have no static shape check: a mis-wired conv,
residual, linear or concat raises on its first forward."""

import numpy as np
import pytest

from repro.nn import layers as nn


def _forward(model, *shape):
    return model.forward(np.zeros((2, *shape), dtype=np.float32))


def test_module_checker_catches_channel_mismatch():
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1),
        nn.Conv2d(16, 8, 3, padding=1),  # wrong: gets 8 channels
    )
    with pytest.raises(ValueError, match="16 channels"):
        _forward(model, 3, 32, 32)


def test_module_checker_catches_residual_mismatch():
    model = nn.Residual(main=nn.Conv2d(8, 16, 3, padding=1))
    with pytest.raises(ValueError, match="residual"):
        _forward(model, 8, 16, 16)


def test_module_checker_catches_bad_linear_after_flatten():
    model = nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1),
        nn.Flatten(),
        nn.Linear(4 * 8 * 8 + 1, 10),
    )
    with pytest.raises(ValueError, match="Linear"):
        _forward(model, 3, 8, 8)


def test_module_checker_concat_branches():
    good = nn.ConcatBranches(
        [nn.Conv2d(3, 4, 1), nn.Conv2d(3, 6, 3, padding=1)]
    )
    assert _forward(good, 3, 16, 16).shape == (2, 10, 16, 16)
    bad = nn.ConcatBranches(
        [nn.Conv2d(3, 4, 1), nn.Conv2d(3, 6, 3)]  # spatial shrinks
    )
    with pytest.raises(ValueError):
        _forward(bad, 3, 16, 16)
