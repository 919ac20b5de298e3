"""Codebook and checkpoint files.

Codebooks from `disq codebooks` travel as a DSQF centroid matrix plus a JSON
sidecar carrying provenance (`CodebookSidecar`). A checkpoint is exact
instead: `meta.json` (with the checkpoint `format`), one float64 `.npy` per
parameter tensor at its logical shape, and the codebooks it was trained on
as float64 `.npy` centroids next to the same sidecar, so that eval runs the
very model and books that `train` kept.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dataio import FeatureSequence, read_feature_file, read_json, write_feature_file, write_json
from .fusion import FusionParams
from .model import HeadParams, ModelParams, init_model_params
from .quantize import Codebook


@dataclass
class CodebookSidecar:
    """A codebook's `.json` sidecar: its provenance. Only `disq codebooks` records `train_frames`."""

    stream_id: str
    k: int
    seed: int
    final_distortion: float
    iterations_run: int
    train_frames: int | None = None


def _write_sidecar(cb: Codebook, base: Path, extra: dict | None) -> None:
    sidecar = CodebookSidecar(cb.stream_id, cb.k, cb.seed, cb.final_distortion, cb.iterations_run, **(extra or {}))
    # no null is stored: an exact book's sidecar has no `train_frames` key
    write_json({name: v for name, v in asdict(sidecar).items() if v is not None}, base.with_suffix(".json"))


def save_codebook(cb: Codebook, base_path, extra: dict | None = None) -> None:
    """Write <base>.dsqf (centroids) and <base>.json (provenance; `extra` holds `train_frames`)."""
    base = Path(base_path)
    write_feature_file(FeatureSequence(cb.centroids, stream_id=cb.stream_id), base.with_suffix(".dsqf"))
    _write_sidecar(cb, base, extra)


def save_exact_codebook(cb: Codebook, base_path) -> None:
    """Write <base>.npy (float64 centroids, bit for bit) and <base>.json."""
    base = Path(base_path)
    np.save(base.with_suffix(".npy"), np.asarray(cb.centroids, dtype=np.float64), allow_pickle=False)
    _write_sidecar(cb, base, None)


def _load_float64(path: Path) -> np.ndarray:
    """Read a finite float64 `.npy` array without pickles; any failure is a ValueError naming `path`."""
    try:
        arr = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if arr.dtype != np.float64:
        raise ValueError(f"{path}: holds {arr.dtype}, not float64")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: non-finite values")
    return arr


def _load_book(base: Path, suffix: str, read_centroids) -> Codebook:
    """A codebook from its sidecar and its centroid file <base><suffix>, read as float64 by `read_centroids`."""
    sidecar = read_json(CodebookSidecar, base.with_suffix(".json"))
    centroids = read_centroids(base.with_suffix(suffix))
    if centroids.ndim != 2 or centroids.shape[0] != sidecar.k:
        raise ValueError(f"{base}: payload has shape {centroids.shape}, sidecar says k={sidecar.k}")
    return Codebook(
        centroids, sidecar.stream_id, sidecar.k, sidecar.seed, sidecar.final_distortion, sidecar.iterations_run
    )


def load_codebook(base_path) -> Codebook:
    """Read a codebook written by `save_codebook`."""
    return _load_book(Path(base_path), ".dsqf", lambda path: read_feature_file(path).frames.astype(np.float64))


def load_exact_codebook(base_path) -> Codebook:
    """Read a codebook written by `save_exact_codebook`."""
    return _load_book(Path(base_path), ".npy", _load_float64)


CHECKPOINT_FORMAT = 2


def save_checkpoint(ckpt_dir, params: ModelParams, meta: dict) -> None:
    """Checkpoint = meta.json (with `format`) + params/<name>.npy, one float64 tensor per file."""
    ckpt_dir = Path(ckpt_dir)
    (ckpt_dir / "params").mkdir(parents=True, exist_ok=True)
    for name, arr in params.param_items() + [("head.class_weights", params.head.class_weights)]:
        np.save(ckpt_dir / "params" / f"{name}.npy", np.asarray(arr, dtype=np.float64), allow_pickle=False)
    write_json(dict(meta, format=CHECKPOINT_FORMAT), ckpt_dir / "meta.json")


def load_checkpoint(ckpt_dir) -> tuple[ModelParams, dict]:
    """Read a checkpoint written by `save_checkpoint`; any other format is a ValueError naming meta.json."""
    ckpt_dir = Path(ckpt_dir)
    meta_path = ckpt_dir / "meta.json"
    meta = read_json(dict, meta_path)
    found = meta.get("format")
    if found != CHECKPOINT_FORMAT:
        raise ValueError(f"{meta_path}: checkpoint format {found}, not {CHECKPOINT_FORMAT}; retrain it with this disq")
    params_dir = ckpt_dir / "params"
    # the optional modality branch (the None-default fields) is stored whole
    # or not at all: one of its files makes every other one required
    optional = [f.name for f in fields(FusionParams) if f.default is None]
    augmented = any((params_dir / f"fusion.{name}.npy").is_file() for name in optional)

    paths = {
        f"{prefix}.{f.name}": params_dir / f"{prefix}.{f.name}.npy"
        for prefix, cls in (("fusion", FusionParams), ("head", HeadParams))
        for f in fields(cls)
        if augmented or f.default is not None
    }
    arrays = {name: _load_float64(path) for name, path in paths.items()}

    def sizes(name: str, ndim: int) -> tuple[int, ...]:
        if arrays[name].ndim != ndim:
            raise ValueError(f"{paths[name]}: {arrays[name].ndim}-D, not {ndim}-D")
        return arrays[name].shape

    # every tensor's shape follows from n_layers and dim (layer_gain), osm_dim and hidden:
    # a freshly initialized model of those sizes has it
    n_layers, dim = sizes("fusion.layer_gain", 2)
    osm_dim = sizes("fusion.mod_gain_osm", 1)[0] if augmented else None
    like = init_model_params(np.random.default_rng(0), n_layers, dim, osm_dim, sizes("head.w1", 2)[0])
    for name, want in like.param_items() + [("head.class_weights", like.head.class_weights)]:
        if arrays[name].shape != want.shape:
            raise ValueError(f"{paths[name]}: shape {arrays[name].shape}, the checkpoint's sizes imply {want.shape}")

    def build(cls, prefix: str):
        return cls(**{name.split(".")[1]: arr for name, arr in arrays.items() if name.startswith(f"{prefix}.")})

    return ModelParams(build(FusionParams, "fusion"), build(HeadParams, "head")), meta
