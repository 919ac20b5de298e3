import hashlib
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from disq.dataio import (
    DimensionOverflowError,
    FeatureFormatError,
    FeatureSequence,
    NonFinitePayloadError,
    SyntheticSpec,
    TruncatedPayloadError,
    generate_synthetic,
    load_manifest,
    load_split,
    load_utterance,
    manifest_path,
    read_feature_file,
    save_manifest,
    synthetic_class_means,
    write_feature_file,
)
from disq.reference import reference_spec

from conftest import tiny_spec


def roundtrip(tmp_path, frames):
    path = tmp_path / "x.dsqf"
    write_feature_file(FeatureSequence(frames, stream_id="t"), path)
    return read_feature_file(path)


def test_roundtrip_1x1_and_file_size(tmp_path):
    path = tmp_path / "one.dsqf"
    write_feature_file(FeatureSequence(np.array([[0.0]], dtype=np.float32)), path)
    # header: 4 magic + 2 version + 2 reserved + 4 T + 4 D, then one float32
    assert path.stat().st_size == 20
    back = read_feature_file(path)
    assert back.frames.shape == (1, 1)
    assert back.frames[0, 0] == 0.0


def test_roundtrip_2x3_bitwise(tmp_path):
    frames = np.array([[1.5, -2.25, 3.125], [4.0, 5.5, -6.75]], dtype=np.float32)
    back = roundtrip(tmp_path, frames)
    assert back.frames.dtype == np.float32
    assert np.array_equal(back.frames.view(np.uint32), frames.view(np.uint32))


def test_write_is_byte_stable(tmp_path):
    frames = np.random.default_rng(7).standard_normal((100, 1024)).astype(np.float32)
    seq = FeatureSequence(frames)
    p1, p2 = tmp_path / "a.dsqf", tmp_path / "b.dsqf"
    write_feature_file(seq, p1)
    write_feature_file(seq, p2)
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert digest(p1) == digest(p2)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(
        dtype=np.float32,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
)
def test_roundtrip_property(tmp_path_factory, frames):
    tmp = tmp_path_factory.mktemp("rt")
    back = roundtrip(tmp, frames)
    assert np.array_equal(back.frames.view(np.uint32), frames.view(np.uint32))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.dsqf"
    write_feature_file(FeatureSequence(np.zeros((2, 2), dtype=np.float32)), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FeatureFormatError):
        read_feature_file(path)


def test_truncated_payload_names_byte_counts(tmp_path):
    path = tmp_path / "trunc.dsqf"
    write_feature_file(FeatureSequence(np.zeros((3, 4), dtype=np.float32)), path)
    full = path.read_bytes()
    path.write_bytes(full[:-5])
    with pytest.raises(TruncatedPayloadError) as err:
        read_feature_file(path)
    assert str(len(full)) in str(err.value)  # expected byte count
    assert str(len(full) - 5) in str(err.value)  # actual byte count


def test_dimension_overflow(tmp_path):
    path = tmp_path / "dims.dsqf"
    path.write_bytes(struct.pack("<4sHHII", b"DSQF", 1, 0, 2**31 - 1, 2**31 - 1))
    with pytest.raises(DimensionOverflowError):
        read_feature_file(path)
    path.write_bytes(struct.pack("<4sHHII", b"DSQF", 1, 0, 0, 4))
    with pytest.raises(DimensionOverflowError):
        read_feature_file(path)


def test_nan_payload(tmp_path):
    path = tmp_path / "nan.dsqf"
    payload = np.array([[1.0, np.nan]], dtype="<f4")
    path.write_bytes(struct.pack("<4sHHII", b"DSQF", 1, 0, 1, 2) + payload.tobytes())
    with pytest.raises(NonFinitePayloadError):
        read_feature_file(path)


def test_write_rejects_non_finite():
    with pytest.raises(ValueError):
        FeatureSequence(np.array([[np.inf]]))
    # values that only overflow after the float32 cast are rejected at write
    seq = FeatureSequence(np.array([[1e300]]))
    with pytest.raises(ValueError):
        write_feature_file(seq, "/tmp/never_written.dsqf")


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.dsqf"
    write_feature_file(FeatureSequence(np.zeros((1, 1), dtype=np.float32)), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FeatureFormatError):
        read_feature_file(path)


def _dir_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_generate_deterministic(tmp_path):
    spec = tiny_spec(seed=7)
    generate_synthetic(spec, tmp_path / "a")
    generate_synthetic(spec, tmp_path / "b")
    assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")


def test_generate_split_stratification(tmp_path):
    spec = tiny_spec(n_per_class=17, seed=3)
    manifests = generate_synthetic(spec, tmp_path)
    fractions = {"train": 0.8, "dev": 0.1, "test": 0.1}
    for split, manifest in manifests.items():
        counts = np.bincount(manifest.labels(), minlength=8)
        exact = fractions[split] * spec.n_per_class
        assert all(abs(c - exact) <= 1.0 for c in counts), (split, counts)
    # no utterance in two splits, none lost
    ids = [r.utt_id for m in manifests.values() for r in m.records]
    assert len(ids) == len(set(ids)) == 8 * 17


def test_missing_layer_file_is_error_missing_opensmile_is_not(tmp_path):
    manifests = generate_synthetic(tiny_spec(n_per_class=2), tmp_path)
    manifest = manifests["train"]
    record = manifest.records[0]

    # opensmile may legally be absent from a record
    (manifest.root / record.opensmile).unlink()
    record_doc_path = manifest_path(tmp_path, "train")
    doc = record_doc_path.read_text().replace(record.opensmile, "")
    import json

    doc = json.loads(record_doc_path.read_text())
    for rec in doc["records"]:
        if rec["utt_id"] == record.utt_id:
            rec["opensmile"] = None
    record_doc_path.write_text(json.dumps(doc))
    manifest2 = load_manifest(record_doc_path)
    utt = load_utterance(manifest2, manifest2.records[0])
    assert utt.opensmile is None

    # a missing layer file is always an error
    (manifest.root / record.layers[1]).unlink()
    with pytest.raises(FileNotFoundError):
        load_manifest(record_doc_path)


@pytest.mark.parametrize("stream", ["layer", "opensmile"])
def test_a_feature_file_of_the_wrong_width_is_named(tmp_path, stream):
    manifest = generate_synthetic(tiny_spec(n_per_class=2), tmp_path)["train"]
    record = manifest.records[0]
    path = manifest.root / (record.layers[2] if stream == "layer" else record.opensmile)
    t = read_feature_file(path).n_frames
    write_feature_file(FeatureSequence(np.zeros((t, 5), dtype=np.float32)), path)
    want = f"{record.utt_id}: {path}: dim 5 != 12" if stream == "layer" else f"{path}: {record.utt_id}: opensmile dim 5"
    with pytest.raises(ValueError) as info:
        load_utterance(manifest, record)
    assert str(info.value).startswith(want)


def test_nearest_class_mean_oracle_on_planted_layer(tmp_path):
    spec = tiny_spec(
        n_per_class=12,
        layer_informativeness=(0.0, 0.0, 0.0, 1.0),
        noise_sigma=0.3,
        paralinguistic_gain=3.0,
        t_range=(18, 24),
        seed=11,
    )
    generate_synthetic(spec, tmp_path)
    mu, _ = synthetic_class_means(spec)
    last = spec.layer_count - 1
    correct = total = 0
    for split in ("train", "dev", "test"):
        manifest = load_split(tmp_path, split)
        for rec in manifest.records:
            utt = load_utterance(manifest, rec)
            pooled = utt.layers[last].frames.mean(axis=0)
            pred = int(np.argmin(((mu[last] - pooled) ** 2).sum(axis=1)))
            correct += pred == rec.label
            total += 1
    assert correct / total > 0.95


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(n_per_class=0)
    with pytest.raises(ValueError):
        tiny_spec(t_range=(9, 3))
    with pytest.raises(ValueError):
        tiny_spec(noise_sigma=0.0)
    with pytest.raises(ValueError):
        tiny_spec(layer_informativeness=(0.1, 0.2))  # wrong length
    with pytest.raises(ValueError):
        tiny_spec(layer_informativeness=(0.1, 0.2, 0.3, 1.5))  # out of range
    spec = tiny_spec()
    assert SyntheticSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("seed", [40, 80, 166])
def test_class_means_restart_a_stuck_placement(seed):
    # greedy placement of the 8 prosody means in 6 dims gets stuck for these seeds
    mu, nu = synthetic_class_means(replace(reference_spec(), seed=seed))
    for means in (*mu, nu):
        dots = means @ means.T
        assert np.allclose(np.diag(dots), 1.0)
        assert dots[~np.eye(len(means), dtype=bool)].max() <= 0.2


def test_manifest_reads_back_and_rewrites_byte_identically(tmp_path):
    manifests = generate_synthetic(tiny_spec(n_per_class=3), tmp_path)
    for split, manifest in manifests.items():
        path = manifest_path(tmp_path, split)
        loaded = load_manifest(path)
        assert loaded == manifest
        save_manifest(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
