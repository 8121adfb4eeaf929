"""Finite-difference verification of every layer primitive's backward pass.

Each layer runs as a float64 model of one node (``zoo_models.check_layer``),
checked by central differences with relative error
|analytic - numeric| / max(1, |analytic| + |numeric|). Inputs for kinked
activations (ReLU, clamp) are kept away from their kinks; everything else
uses plain random tensors. The kink tests put a ReLU input or a max-pool
runner-up 5e-7 from its kink: inside a step of 1e-6, outside the checker's
1e-7.
"""
import numpy as np
import pytest

from conedrive.errors import NumericError
from conedrive.gradcheck import grad_check_model
from conedrive.graph import Model, spec
from conedrive.layers import BatchNorm2d, Conv2d, Linear, smooth_l1
from conedrive.zoo import make_realvalue_model
from zoo_models import check_layer, check_loss

SEEDS = range(10)
TOL = 1e-5


def rng(seed):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_linear(seed):
    layer = Linear(4, 3, rng(seed), np.float64)
    x = rng(seed + 50).standard_normal((3, 4))
    assert check_layer(spec("linear", out_features=3), x, layer.state()) < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_relu_away_from_kink(seed):
    x = rng(seed).standard_normal((3, 5))
    x = np.where(np.abs(x) < 0.1, x + 0.2, x)  # bound away from 0
    assert check_layer(spec("relu"), x) < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d(seed):
    layer = Conv2d(2, 3, 3, 1, rng(seed), np.float64)
    x = rng(seed + 50).standard_normal((1, 2, 8, 8))
    assert check_layer(spec("conv", out_depth=3, kernel=3, stride=1), x,
                       layer.state()) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_strided(seed):
    layer = Conv2d(2, 2, 3, 2, rng(seed), np.float64)
    x = rng(seed + 50).standard_normal((2, 2, 7, 7))
    assert check_layer(spec("conv", out_depth=2, kernel=3, stride=2), x,
                       layer.state()) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_maxpool(seed):
    x = rng(seed).standard_normal((2, 2, 6, 6))
    assert check_layer(spec("maxpool", window=2, stride=2), x) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_batchnorm_train_mode(seed):
    layer = BatchNorm2d(3, dtype=np.float64)
    layer.gamma.value = rng(seed).uniform(0.5, 1.5, 3)
    layer.beta.value = rng(seed + 1).standard_normal(3)
    x = rng(seed + 50).standard_normal((4, 3, 4, 4))
    assert check_layer(spec("batchnorm"), x, layer.state()) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_clamp_scale_away_from_bounds(seed):
    x = rng(seed).uniform(-200, 200, (3, 4))
    x = np.where(np.abs(np.abs(x) - 90.0) < 0.5, x * 0.5, x)
    assert check_layer(spec("clamp_scale", lo=-90.0, hi=90.0), x) < 1e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_sigmoid(seed):
    x = rng(seed).standard_normal((3, 2)) * 3.0
    assert check_layer(spec("scaled_sigmoid", scale=256.0), x) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_flatten(seed):
    x = rng(seed).standard_normal((2, 2, 3, 3))
    assert check_layer(spec("flatten"), x) < 1e-6


def test_relu_input_near_its_kink():
    # a step of 1e-6 straddles the kink and reads 0.143
    x = np.array([[0.5, -0.5, 5e-7, 0.25]])
    assert check_layer(spec("relu"), x) < 1e-6


def test_maxpool_runner_up_near_the_max():
    # a step of 1e-6 swaps the window's max and reads 0.031
    x = np.array([[[[1.0, -0.5], [0.25, 1.0 - 5e-7]]]])
    assert check_layer(spec("maxpool", window=2, stride=2), x) < TOL


def test_nonfinite_reported_with_coordinate():
    with pytest.raises(NumericError, match="input"):
        check_loss(
            lambda x: (float(x.sum()), np.full_like(x, np.nan)),
            np.zeros((2, 2)),
        )


def test_inputs_are_probed_in_copies_of_the_model_dtype():
    # a float32 input checks as well as its float64 cast, since a probe of
    # 1e-7 on a float32 value would be mostly lost to rounding
    model = Model(make_realvalue_model("3CL-2FC", input_hw=16), seed=0,
                  dtype=np.float64)
    x = rng(0).standard_normal((2, 3, 16, 16)).astype(np.float32)
    target = rng(1).uniform(-60, 60, (2, 1))
    before = x.tobytes()

    def check(image):
        return grad_check_model(model, {"image": image},
                                lambda out: smooth_l1(out, target), max_coords=8)

    assert check(x) == check(x.astype(np.float64))
    assert x.tobytes() == before
