"""Checkpoint round-trips and corruption diagnostics."""
import struct

import numpy as np
import pytest

from conedrive.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from conedrive.errors import CheckpointError, ShapeError
from conedrive.graph import Model
from conedrive.train import TrainConfig, lr_at_epoch
from conedrive.zoo import make_brake_throttle_model, make_discrete_model


@pytest.fixture
def trained_ish_model():
    model = Model(make_discrete_model("2CL-2FC", input_hw=32), seed=7)
    # nudge parameters and running stats away from their init values
    rng = np.random.default_rng(0)
    x = rng.random((4, 3, 32, 32), dtype=np.float32)
    model.forward({"image": x}, mode="train")
    for _, p in model.parameters():
        p.value += rng.normal(0, 0.01, p.value.shape).astype(p.value.dtype)
    model.epoch = 17
    return model


def test_roundtrip_forward_bit_identical(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_ish_model, path)
    loaded = load_checkpoint(path)
    x = np.random.default_rng(1).random((2, 3, 32, 32), dtype=np.float32)
    a = trained_ish_model.forward({"image": x}, mode="eval")
    b = loaded.forward({"image": x}, mode="eval")
    np.testing.assert_array_equal(a, b)


def test_roundtrip_parameters_bit_exact(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_ish_model, path)
    loaded = load_checkpoint(path)
    for (na, a), (nb, b) in zip(trained_ish_model.state_tensors(),
                                loaded.state_tensors()):
        assert na == nb
        np.testing.assert_array_equal(a, b)


def test_roundtrip_preserves_epoch_and_seed(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_ish_model, path)
    loaded = load_checkpoint(path)
    assert loaded.epoch == 17
    assert loaded.seed == 7
    lr = lr_at_epoch(TrainConfig(), loaded.epoch)
    assert lr == pytest.approx(0.01 * (1 / 1.01) ** 17, rel=1e-12)


def test_brake_throttle_roundtrip(tmp_path):
    model = Model(make_brake_throttle_model(input_hw=32), seed=3)
    path = tmp_path / "bt.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    rng = np.random.default_rng(5)
    inputs = {"image": rng.random((2, 3, 32, 32), dtype=np.float32),
              "motor": rng.uniform(0, 256, (2, 2)).astype(np.float32)}
    np.testing.assert_array_equal(model.forward(inputs, mode="eval"),
                                  loaded.forward(inputs, mode="eval"))


def test_corrupted_magic_rejected(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_ish_model, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_ish_model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_future_version_rejected(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_ish_model, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # version field follows the 4 magic bytes
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        load_checkpoint(path)


def test_distinct_diagnostics_are_distinct(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_ish_model, path)
    blob = path.read_bytes()
    cases = {}
    bad_magic = b"XXXX" + blob[4:]
    truncated = blob[:40]
    future = blob[:4] + bytes([77]) + blob[5:]
    for name, payload in (("magic", bad_magic), ("trunc", truncated),
                          ("version", future)):
        p = tmp_path / f"{name}.ckpt"
        p.write_bytes(payload)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p)
        cases[name] = str(err.value)
    assert len(set(cases.values())) == 3


def save_with_tensors(model, path, tensors) -> None:
    """Save ``model`` with ``tensors`` in place of its state tensors."""
    model.state_tensors = lambda: tensors
    save_checkpoint(model, path)


def test_undecodable_tensor_name_names_the_file_and_byte(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_ish_model, path)
    blob = bytearray(path.read_bytes())
    # the first name follows the model text (from byte 24, its u32 length just
    # before), the u32 tensor count and the name's u16 length
    (spec_len,) = struct.unpack_from("<I", blob, 20)
    at = 24 + spec_len + 4 + 2
    blob[at] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError,
                       match=f"model.ckpt: tensor name is not UTF-8 text at byte {at}"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_ish_model, path)
    path.write_bytes(path.read_bytes() + b"\0\0\0")
    with pytest.raises(CheckpointError, match="3 trailing bytes"):
        load_checkpoint(path)


def test_tensor_stored_twice_rejected(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    state = trained_ish_model.state_tensors()
    save_with_tensors(trained_ish_model, path, state + state[-1:])
    with pytest.raises(CheckpointError, match="'head/bias' is stored twice"):
        load_checkpoint(path)


def test_tensor_set_must_match_the_model(tmp_path, trained_ish_model):
    path = tmp_path / "model.ckpt"
    state = trained_ish_model.state_tensors()
    ghost = ("ghost/weight", np.zeros(2, dtype=np.float32))
    save_with_tensors(trained_ish_model, path, state[1:] + [ghost])
    with pytest.raises(ShapeError,
                       match=r"missing \['conv1/weight'\], unexpected \['ghost/weight'\]"):
        load_checkpoint(path)
    save_with_tensors(trained_ish_model, path, state + [ghost])
    with pytest.raises(ShapeError, match=r"missing \[\], unexpected \['ghost/weight'\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["bn1/running_mean", "conv1/weight"])
def test_tensor_shape_must_match_the_model(tmp_path, trained_ish_model, name):
    path = tmp_path / "model.ckpt"
    state = [(n, np.ones(1, dtype=np.float32) if n == name else v)
             for n, v in trained_ish_model.state_tensors()]
    save_with_tensors(trained_ish_model, path, state)
    with pytest.raises(ShapeError, match=rf"'{name}' has shape \(1,\)"):
        load_checkpoint(path)


def test_magic_constant():
    assert MAGIC == b"FSPT"
