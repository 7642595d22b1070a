import numpy as np
import pytest

from depthlab.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    split_controller_params,
)
from depthlab.controller import init_controller_params
from depthlab.model import DecoderModel, ModelConfig, init_params

CFG = ModelConfig(num_layers=3, hidden_dim=16, num_heads=2, ffn_dim=32, max_context=32)


def test_round_trip_preserves_values_to_f32(tmp_path):
    params = init_params(CFG, seed=0)
    save_checkpoint(tmp_path / "ckpt", CFG, params, extra={"seed": 0})
    cfg, loaded, extra = load_checkpoint(tmp_path / "ckpt")
    assert cfg == CFG
    assert extra == {"seed": 0}
    for name in params:
        np.testing.assert_allclose(loaded[name], params[name], atol=1e-6)


def test_save_load_save_byte_identical(tmp_path):
    params = init_params(CFG, seed=1)
    save_checkpoint(tmp_path / "a", CFG, params)
    _, loaded, _ = load_checkpoint(tmp_path / "a")
    save_checkpoint(tmp_path / "b", CFG, loaded)
    for name in ("weights.bin", "manifest.json", "config.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_truncated_weights_fails_checksum(tmp_path):
    save_checkpoint(tmp_path / "ckpt", CFG, init_params(CFG, seed=2))
    blob = (tmp_path / "ckpt" / "weights.bin").read_bytes()
    (tmp_path / "ckpt" / "weights.bin").write_bytes(blob[:-40])
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(tmp_path / "ckpt")


def test_shape_mismatch_names_tensor(tmp_path):
    params = init_params(CFG, seed=3)
    params["head.w"] = params["head.w"][:, :-1]
    save_checkpoint(tmp_path / "ckpt", CFG, params)
    with pytest.raises(CheckpointError, match="head.w"):
        load_checkpoint(tmp_path / "ckpt")


def test_missing_file_reported(tmp_path):
    save_checkpoint(tmp_path / "ckpt", CFG, init_params(CFG, seed=4))
    (tmp_path / "ckpt" / "manifest.json").unlink()
    with pytest.raises(CheckpointError, match="manifest.json"):
        load_checkpoint(tmp_path / "ckpt")


def test_v1_checkpoint_is_refused(tmp_path):
    # v1 weights were trained under the erf GELU; the block now runs the
    # sigmoid form, so they must not load.
    save_checkpoint(tmp_path / "ckpt", CFG, init_params(CFG, seed=4))
    for name in ("config.json", "manifest.json"):
        path = tmp_path / "ckpt" / name
        path.write_text(path.read_text().replace("depthlab-ckpt-v2", "depthlab-ckpt-v1"))
    with pytest.raises(CheckpointError, match="depthlab-ckpt-v1"):
        load_checkpoint(tmp_path / "ckpt")


def test_forward_drift_after_round_trip_below_1e5(tmp_path):
    params = init_params(CFG, seed=5)
    model = DecoderModel(CFG, params)
    probe_tokens = [1, 5, 9, 200, 43]
    _, logits_before = model.forward_hidden(probe_tokens)
    save_checkpoint(tmp_path / "ckpt", CFG, params)
    _, loaded, _ = load_checkpoint(tmp_path / "ckpt")
    _, logits_after = DecoderModel(CFG, loaded).forward_hidden(probe_tokens)
    assert np.max(np.abs(logits_before - logits_after)) < 1e-5


def test_controller_namespace_round_trip(tmp_path):
    params = init_params(CFG, seed=6)
    ctrl = init_controller_params(CFG, [2], seed=7)
    save_checkpoint(tmp_path / "ckpt", CFG, {**params, **ctrl}, extra={"alpha": 2.0})
    _, loaded, extra = load_checkpoint(tmp_path / "ckpt")
    backbone, controllers = split_controller_params(loaded)
    assert set(controllers) == set(ctrl)
    assert set(backbone) == set(params)
    assert extra["alpha"] == 2.0
    np.testing.assert_allclose(controllers["controller.layer2.w"], ctrl["controller.layer2.w"], atol=1e-6)
