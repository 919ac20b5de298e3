"""Codebook and checkpoint files.

Codebooks from `disq codebooks` travel as a DSQF centroid matrix plus a JSON
sidecar carrying provenance. A checkpoint is exact instead: `meta.json`
(with the checkpoint `format`), one float64 `.npy` per parameter tensor at
its logical shape, and the codebooks it was trained on as float64 `.npy`
centroids next to the same sidecar, so that eval runs the very model and
books that `train` kept.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .dataio import FeatureSequence, read_feature_file, write_feature_file
from .fusion import FusionParams
from .model import HeadParams, ModelParams, init_model_params
from .quantize import Codebook


def _write_sidecar(cb: Codebook, base: Path, extra: dict | None) -> None:
    sidecar = {
        "stream_id": cb.stream_id,
        "k": cb.k,
        "seed": cb.seed,
        "final_distortion": cb.final_distortion,
        "iterations_run": cb.iterations_run,
    }
    if extra:
        sidecar.update(extra)
    base.with_suffix(".json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def save_codebook(cb: Codebook, base_path, extra: dict | None = None) -> None:
    """Write <base>.dsqf (centroids) and <base>.json (provenance)."""
    base = Path(base_path)
    write_feature_file(FeatureSequence(cb.centroids, stream_id=cb.stream_id), base.with_suffix(".dsqf"))
    _write_sidecar(cb, base, extra)


def save_exact_codebook(cb: Codebook, base_path) -> None:
    """Write <base>.npy (float64 centroids, bit for bit) and <base>.json."""
    base = Path(base_path)
    np.save(base.with_suffix(".npy"), np.asarray(cb.centroids, dtype=np.float64), allow_pickle=False)
    _write_sidecar(cb, base, None)


SIDECAR_FIELDS = ("stream_id", "k", "seed", "final_distortion", "iterations_run")


def _read_sidecar(base: Path) -> dict:
    sidecar_path = base.with_suffix(".json")
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    missing = [name for name in SIDECAR_FIELDS if name not in sidecar]
    if missing:
        raise ValueError(f"{sidecar_path}: missing {', '.join(missing)}")
    return sidecar


def _codebook(base: Path, centroids: np.ndarray, sidecar: dict) -> Codebook:
    if centroids.ndim != 2 or centroids.shape[0] != sidecar["k"]:
        raise ValueError(f"{base}: payload has shape {centroids.shape}, sidecar says k={sidecar['k']}")
    return Codebook(
        centroids=centroids,
        stream_id=sidecar["stream_id"],
        k=int(sidecar["k"]),
        seed=int(sidecar["seed"]),
        final_distortion=float(sidecar["final_distortion"]),
        iterations_run=int(sidecar["iterations_run"]),
    )


def load_codebook(base_path) -> Codebook:
    """Read a codebook written by `save_codebook`."""
    base = Path(base_path)
    sidecar = _read_sidecar(base)
    seq = read_feature_file(base.with_suffix(".dsqf"), stream_id=sidecar["stream_id"])
    return _codebook(base, seq.frames.astype(np.float64), sidecar)


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


def load_exact_codebook(base_path) -> Codebook:
    """Read a codebook written by `save_exact_codebook`."""
    base = Path(base_path)
    sidecar = _read_sidecar(base)
    return _codebook(base, _load_float64(base.with_suffix(".npy")), sidecar)


CHECKPOINT_FORMAT = 2


def save_checkpoint(ckpt_dir, params: ModelParams, meta: dict) -> None:
    """Checkpoint = meta.json (with `format`) + params/<name>.npy, one float64 tensor per file."""
    ckpt_dir = Path(ckpt_dir)
    (ckpt_dir / "params").mkdir(parents=True, exist_ok=True)
    for name, arr in params.param_items() + [("head.class_weights", params.head.class_weights)]:
        np.save(ckpt_dir / "params" / f"{name}.npy", np.asarray(arr, dtype=np.float64), allow_pickle=False)
    doc = dict(meta, format=CHECKPOINT_FORMAT)
    (ckpt_dir / "meta.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def load_checkpoint(ckpt_dir) -> tuple[ModelParams, dict]:
    """Read a checkpoint written by `save_checkpoint`; any other format is a ValueError naming meta.json."""
    ckpt_dir = Path(ckpt_dir)
    meta_path = ckpt_dir / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    found = meta.get("format") if isinstance(meta, dict) else None
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
