import json

import pytest

from disq.model import init_model_params
from disq.persist import load_checkpoint, load_codebook, save_checkpoint, save_codebook
from disq.quantize import kmeans_fit


def test_codebook_roundtrip(tmp_path, rng):
    cb = kmeans_fit(rng.standard_normal((60, 5)), 8, seed=3, stream_id="layer:7")
    save_codebook(cb, tmp_path / "layer_07", extra={"train_frames": 60})
    back = load_codebook(tmp_path / "layer_07")
    assert back.stream_id == "layer:7"
    assert back.k == 8 and back.seed == 3
    assert back.iterations_run == cb.iterations_run
    assert back.final_distortion == pytest.approx(cb.final_distortion, rel=1e-12)
    # payload is float32 on disk
    assert back.centroids == pytest.approx(cb.centroids, abs=1e-5)


def test_codebook_sidecar_mismatch(tmp_path, rng):
    cb = kmeans_fit(rng.standard_normal((30, 4)), 4, seed=0)
    save_codebook(cb, tmp_path / "cb")
    sidecar = (tmp_path / "cb.json").read_text().replace('"k": 4', '"k": 5')
    (tmp_path / "cb.json").write_text(sidecar)
    with pytest.raises(ValueError):
        load_codebook(tmp_path / "cb")


@pytest.mark.parametrize("osm_dim", [None, 6])
def test_checkpoint_roundtrip(tmp_path, rng, osm_dim):
    params = init_model_params(rng, 3, 5, osm_dim, hidden=7, class_weights=rng.uniform(0.5, 2, 8))
    meta = {"layer_set": "x", "k": 8, "aug": "none", "best_epoch": 2}
    save_checkpoint(tmp_path / "ckpt", params, meta)
    back, meta_back = load_checkpoint(tmp_path / "ckpt")
    assert meta_back["best_epoch"] == 2
    assert back.fusion.augmented == (osm_dim is not None)
    for (name, arr), (_, arr2) in zip(params.param_items(), back.param_items()):
        assert arr2.shape == arr.shape, name
        assert arr2 == pytest.approx(arr, abs=1e-5), name
    assert back.head.class_weights == pytest.approx(params.head.class_weights, abs=1e-6)


@pytest.mark.parametrize("missing", ["head.w1", "head.class_weights", "fusion.attn_w", "fusion.gamma_osm"])
def test_checkpoint_missing_required_tensor(tmp_path, rng, missing):
    params = init_model_params(rng, 3, 5, 6, hidden=7)
    save_checkpoint(tmp_path / "ckpt", params, {})
    meta_path = tmp_path / "ckpt" / "meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["param_shapes"][missing]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(KeyError):
        load_checkpoint(tmp_path / "ckpt")
