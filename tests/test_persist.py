import re

import numpy as np
import pytest

from disq.model import collate, forward_batch, init_model_params, predict, train
from disq.persist import load_checkpoint, load_codebook, save_checkpoint, save_codebook
from disq.quantize import kmeans_fit
from disq.sweep import prepare_items

from conftest import tiny_train_config


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
    assert meta_back == dict(meta, format=2)
    assert back.fusion.augmented == (osm_dim is not None)
    assert [name for name, _ in back.param_items()] == [name for name, _ in params.param_items()]
    for (name, arr), (_, arr2) in zip(params.param_items(), back.param_items()):
        assert arr2.dtype == np.float64 and arr2.shape == np.shape(arr), name
        assert arr2.tobytes() == np.asarray(arr).tobytes(), name
    assert back.head.class_weights.tobytes() == params.head.class_weights.tobytes()


@pytest.mark.parametrize(
    "missing", ["head.w1", "head.class_weights", "fusion.attn_w", "fusion.gamma_osm", "fusion.mod_gain_osm"]
)
def test_checkpoint_missing_required_tensor(tmp_path, rng, missing):
    """A missing tensor, a modality one included, is an error naming its file."""
    params = init_model_params(rng, 3, 5, 6, hidden=7)
    save_checkpoint(tmp_path / "ckpt", params, {})
    path = tmp_path / "ckpt" / "params" / f"{missing}.npy"
    path.unlink()
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("osm_dim", [None, 6])
def test_reloaded_checkpoint_runs_the_trained_model_bitwise(tmp_path, tiny_dataset, tiny_cache, osm_dim):
    aug = "none" if osm_dim is None else "prosody"
    train_items, dev_items = (
        prepare_items(tiny_dataset, split, (2, 3), 8, tiny_cache, 0, aug) for split in ("train", "dev")
    )
    params = train(train_items, dev_items, tiny_train_config(epochs=2, hidden=8)).params
    save_checkpoint(tmp_path / "ckpt", params, {})
    back, _ = load_checkpoint(tmp_path / "ckpt")
    assert back.fusion.augmented == (osm_dim is not None)
    preds, alphas = predict(params, dev_items)
    preds_back, alphas_back = predict(back, dev_items)
    assert preds_back.tobytes() == preds.tobytes() and alphas_back.tobytes() == alphas.tobytes()
    batch = collate(dev_items)
    logits = forward_batch(params, batch)[1]["logits"]
    assert forward_batch(back, batch)[1]["logits"].tobytes() == logits.tobytes()
