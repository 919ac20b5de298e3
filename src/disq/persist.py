"""Codebook and checkpoint files.

Codebooks travel as a DSQF centroid matrix plus a JSON sidecar carrying
provenance; checkpoints are a directory of one DSQF payload per parameter
tensor plus JSON metadata. Tensors are stored float32; logical shapes that
are not 2-D are recorded in the metadata and restored on load. The codebooks
a checkpoint was trained on are kept exact instead: float64 `.npy` centroids
next to the same sidecar, so that eval quantizes with the very same books.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .dataio import FeatureSequence, read_feature_file, write_feature_file
from .fusion import FusionParams
from .model import HeadParams, ModelParams
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


def load_exact_codebook(base_path) -> Codebook:
    """Read a codebook written by `save_exact_codebook`."""
    base = Path(base_path)
    sidecar = _read_sidecar(base)
    centroids = np.load(base.with_suffix(".npy"), allow_pickle=False)
    if centroids.dtype != np.float64:
        raise ValueError(f"{base.with_suffix('.npy')}: centroids are {centroids.dtype}, not float64")
    if not np.isfinite(centroids).all():
        raise ValueError(f"{base.with_suffix('.npy')}: non-finite centroids")
    return _codebook(base, centroids, sidecar)


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    if arr.ndim == 2:
        return arr
    raise ValueError(f"cannot store tensor of rank {arr.ndim}")


def save_checkpoint(ckpt_dir, params: ModelParams, meta: dict) -> None:
    """Checkpoint = meta.json + params/<name>.dsqf, one payload per tensor."""
    ckpt_dir = Path(ckpt_dir)
    (ckpt_dir / "params").mkdir(parents=True, exist_ok=True)
    shapes = {}
    names = params.param_items() + [("head.class_weights", params.head.class_weights)]
    for name, arr in names:
        shapes[name] = list(arr.shape)
        write_feature_file(
            FeatureSequence(_as_matrix(arr), stream_id=name), ckpt_dir / "params" / f"{name}.dsqf"
        )
    doc = dict(meta)
    doc["param_shapes"] = shapes
    (ckpt_dir / "meta.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_checkpoint(ckpt_dir) -> tuple[ModelParams, dict]:
    ckpt_dir = Path(ckpt_dir)
    meta = json.loads((ckpt_dir / "meta.json").read_text(encoding="utf-8"))
    shapes = meta["param_shapes"]

    def tensor(name: str) -> np.ndarray:
        seq = read_feature_file(ckpt_dir / "params" / f"{name}.dsqf", stream_id=name)
        return seq.frames.astype(np.float64).reshape(shapes[name])

    # the optional modality branch (the None-default fields) is stored whole
    # or not at all; FusionParams.augmented keys it on mod_gain_osm
    augmented = "fusion.mod_gain_osm" in shapes

    def build(cls, prefix: str):
        return cls(
            **{
                f.name: tensor(f"{prefix}.{f.name}")
                for f in fields(cls)
                if augmented or f.default is not None
            }
        )

    return ModelParams(build(FusionParams, "fusion"), build(HeadParams, "head")), meta
