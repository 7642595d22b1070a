"""Checkpoint directory format: config.json (model config, layer-norm eps,
tokenizer id), manifest.json (tensor name -> shape/offset/checksum), and
weights.bin (little-endian float32, row-major, in manifest order)."""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .model import ModelConfig, param_shapes
from .tokenizer import TOKENIZER_ID

# v2: the block's MLP uses the sigmoid-form GELU, so v1 weights (trained with
# the erf GELU) are refused rather than run under another activation.
FORMAT = "depthlab-ckpt-v2"


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(
    directory: str | Path,
    cfg: ModelConfig,
    params: dict[str, np.ndarray],
    extra: dict | None = None,
) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    order = sorted(params)
    tensors = {}
    offset = 0
    blobs = []
    for name in order:
        blob = np.ascontiguousarray(params[name], dtype="<f4").tobytes()
        tensors[name] = {
            "shape": list(params[name].shape),
            "offset": offset,
            "nbytes": len(blob),
            "crc32": zlib.crc32(blob),
        }
        blobs.append(blob)
        offset += len(blob)
    (directory / "weights.bin").write_bytes(b"".join(blobs))
    manifest = {"format": FORMAT, "dtype": "<f4", "order": order, "tensors": tensors}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    config = {
        "format": FORMAT,
        "model": asdict(cfg),
        "tokenizer_id": TOKENIZER_ID,
        "extra": extra or {},
    }
    (directory / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def load_checkpoint(directory: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray], dict]:
    directory = Path(directory)
    for required in ("config.json", "manifest.json", "weights.bin"):
        if not (directory / required).exists():
            raise CheckpointError(f"missing {required} in {directory}")
    config = json.loads((directory / "config.json").read_text())
    manifest = json.loads((directory / "manifest.json").read_text())
    found = {config.get("format"), manifest.get("format")}
    if found != {FORMAT}:
        raise CheckpointError(f"unrecognized checkpoint format {sorted(map(str, found))}, expected {FORMAT!r}")
    cfg = ModelConfig(**config["model"])
    raw = (directory / "weights.bin").read_bytes()

    params: dict[str, np.ndarray] = {}
    for name in manifest["order"]:
        meta = manifest["tensors"][name]
        blob = raw[meta["offset"] : meta["offset"] + meta["nbytes"]]
        if len(blob) != meta["nbytes"] or zlib.crc32(blob) != meta["crc32"]:
            raise CheckpointError(f"checksum mismatch for tensor {name}")
        arr = np.frombuffer(blob, dtype="<f4").astype(np.float64).reshape(meta["shape"])
        params[name] = arr

    expected = param_shapes(cfg)
    for name, shape in expected.items():
        if name not in params:
            raise CheckpointError(f"missing tensor {name}")
        if params[name].shape != shape:
            raise CheckpointError(
                f"shape mismatch for tensor {name}: {params[name].shape} vs config {shape}"
            )
    for name, arr in params.items():
        if name.startswith("controller."):
            d = cfg.hidden_dim
            ok = (name.endswith(".w") and arr.shape == (d, 2)) or (
                name.endswith(".b") and arr.shape == (2,)
            )
            if not ok:
                raise CheckpointError(f"shape mismatch for tensor {name}: {arr.shape}")
    return cfg, params, config.get("extra", {})


def split_controller_params(
    params: dict[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Separate backbone tensors from the controller namespace."""
    backbone = {k: v for k, v in params.items() if not k.startswith("controller.")}
    controllers = {k: v for k, v in params.items() if k.startswith("controller.")}
    return backbone, controllers
