"""On-disk dataset contract: binary feature files, JSON manifests, synthetic data.

Feature files use a small fixed container ("DSQF"): a 16-byte header
(magic, format version, reserved word, row and column counts) followed by
the frame matrix as little-endian float32 in row-major order. Per-layer
hidden-state sequences, paralinguistic frames, token reconstructions and the
centroids `disq codebooks` writes travel in this format; a checkpoint keeps
its parameters and codebooks as float64 `.npy` instead (see `persist`),
since float32 would move them.

A loaded utterance holds its layer frames once: `load_utterance` reads the
wanted layer files into one read-only float32 block, and every consumer
(codebook fits, continuous model inputs) reads views of it.

The synthetic generator plants controllable class structure: each layer
carries a tunable fraction of a seeded per-class mean direction, and the
paralinguistic stream carries class signal only in its prosody block. That
makes layer orderings and augmentation effects testable without any
external feature extractor.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import struct
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"DSQF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHII")  # magic, version, reserved, T, D
MAX_ELEMENTS = 1 << 31  # refuse absurd T*D before allocating

N_CLASSES = 8
OPENSMILE_DIM = 74
PROSODY_COLS = slice(0, 6)  # class signal block in synthetic opensmile frames

SPLITS = ("train", "dev", "test")
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)


class FeatureFileError(Exception):
    """Base class for feature-file format violations."""


class FeatureFormatError(FeatureFileError):
    """Bad magic, unsupported version, or trailing garbage."""


class TruncatedPayloadError(FeatureFileError):
    """File ends before the declared payload; message names expected vs actual bytes."""


class DimensionOverflowError(FeatureFileError):
    """Declared dimensions are zero or too large to be a real feature file."""


class NonFinitePayloadError(FeatureFileError):
    """Payload contains NaN or Inf."""


@dataclass
class FeatureSequence:
    """One stream's T x D frame matrix for a single utterance."""

    frames: np.ndarray
    stream_id: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2:
            raise ValueError(f"frames must be 2-D, got shape {self.frames.shape}")
        t, d = self.frames.shape
        if t < 1 or d < 1:
            raise ValueError(f"frames must have T,D >= 1, got shape {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            raise ValueError(f"non-finite entries in stream {self.stream_id!r}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def write_feature_file(seq: FeatureSequence, path) -> None:
    """Serialize a FeatureSequence to the DSQF container (float32 payload)."""
    with np.errstate(over="ignore"):
        frames = np.ascontiguousarray(seq.frames, dtype="<f4")
    if not np.isfinite(frames).all():
        raise ValueError("non-finite entries after float32 conversion; refusing to write")
    t, d = frames.shape
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, 0, t, d)
    Path(path).write_bytes(header + frames.tobytes())


def read_feature_file(path, stream_id: str | None = None) -> FeatureSequence:
    """Parse a DSQF file, validating header, size, and payload finiteness."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise FeatureFormatError(f"{path}: bad magic bytes {raw[:4]!r}")
    if len(raw) < _HEADER.size:
        raise TruncatedPayloadError(
            f"{path}: header truncated, expected at least {_HEADER.size} bytes, got {len(raw)}"
        )
    _, version, _, t, d = _HEADER.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise FeatureFormatError(f"{path}: unsupported format version {version}")
    if t < 1 or d < 1 or t * d > MAX_ELEMENTS:
        raise DimensionOverflowError(f"{path}: dimensions {t} x {d} out of supported range")
    expected = _HEADER.size + 4 * t * d
    if len(raw) < expected:
        raise TruncatedPayloadError(f"{path}: expected {expected} bytes, got {len(raw)}")
    if len(raw) > expected:
        raise FeatureFormatError(f"{path}: {len(raw) - expected} trailing bytes after payload")
    frames = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(t, d).copy()
    try:
        return FeatureSequence(frames, stream_id=stream_id if stream_id is not None else path.stem)
    except ValueError:  # the shape is valid, so finiteness is the check that failed
        raise NonFinitePayloadError(f"{path}: payload contains NaN or Inf") from None


@dataclass
class UtteranceRecord:
    """All streams of one utterance: its loaded layers' frames, optional opensmile, label.

    The frames of the loaded layers `layer_ids` are held once, as one
    read-only float32 `block` of shape (len(layer_ids), T, dim); each
    `layers[l].frames` is a view of its row of the block. Nothing writes
    into loaded frames, so a forked worker that reads them copies no page.
    """

    utt_id: str
    block: np.ndarray
    layer_ids: tuple[int, ...]
    opensmile: FeatureSequence | None
    label: int
    layers: dict[int, FeatureSequence] = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if self.block.ndim != 3 or not self.layer_ids or len(self.layer_ids) != len(self.block):
            raise ValueError(f"{self.utt_id}: block {self.block.shape} does not hold layers {self.layer_ids}")
        self.block.flags.writeable = False  # before the views, which inherit the flag
        self.layers = {l: FeatureSequence(self.block[i], stream_id=f"layer:{l}") for i, l in enumerate(self.layer_ids)}
        if self.opensmile is not None and self.opensmile.dim != OPENSMILE_DIM:
            raise ValueError(
                f"{self.utt_id}: opensmile dim {self.opensmile.dim} != {OPENSMILE_DIM}"
            )
        if not 0 <= self.label < N_CLASSES:
            raise ValueError(f"{self.utt_id}: label {self.label} out of range")

    @property
    def n_frames(self) -> int:
        return self.block.shape[1]

    def stack(self, layers) -> np.ndarray:
        """The read-only (len(layers), T, dim) frames of `layers`, copying only when it must.

        A basic-slice view of the block when the layers' rows in it are
        evenly spaced and increasing (the loaded layers in load order view
        the whole block), one gather otherwise.
        """
        row = {l: i for i, l in enumerate(self.layer_ids)}
        rows = [row[l] for l in layers]
        step = rows[1] - rows[0] if len(rows) > 1 else 1
        if step > 0 and rows == list(range(rows[0], rows[-1] + 1, step)):
            return self.block[rows[0] : rows[-1] + 1 : step]
        out = self.block[rows]
        out.flags.writeable = False
        return out


@dataclass
class ManifestRecord:
    """One utterance of a manifest: its layer files in layer order, its optional opensmile file, its label."""

    utt_id: str
    label: int
    layers: tuple[str, ...]
    opensmile: str | None = None


MANIFEST_VERSION = 1


@dataclass
class DatasetManifest:
    """A manifest file's document: one split's utterances, paths relative to `root`.

    `root`, the manifest's directory, is not stored: loading or generating a manifest sets it.
    """

    version: int
    split: str
    layer_count: int
    feature_dim: int
    records: tuple[ManifestRecord, ...]
    root: Path | None = dataclasses.field(default=None, init=False)

    def __post_init__(self):
        """Each record's label is a class index, and it lists one layer path per layer."""
        for i, rec in enumerate(self.records):
            if not 0 <= rec.label < N_CLASSES:
                raise ValueError(f"records[{i}].label: {rec.label} is not in 0..{N_CLASSES - 1}")
            if len(rec.layers) != self.layer_count:
                raise ValueError(f"records[{i}].layers: {len(rec.layers)} layer paths, expected {self.layer_count}")

    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=int)


def manifest_path(dataset_dir, split: str) -> Path:
    return Path(dataset_dir) / f"manifest_{split}.json"


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = dataclasses.asdict(manifest)
    del doc["root"]
    write_json(doc, path)


def load_manifest(path) -> DatasetManifest:
    """Load and validate a manifest: every listed path must resolve, and no utterance is listed twice.

    The document is read through `read_json`, so a missing or unknown field,
    a wrong JSON type (a label of 2.7) or a broken value rule (a label of
    -1, a record with too few layer paths) raises ValueError naming the
    file and the field. A record may omit its opensmile stream (tokens-only
    experiments), but a missing layer file is always an error.
    """
    path = Path(path)
    manifest = read_json(DatasetManifest, path)
    if manifest.version != MANIFEST_VERSION:
        raise ValueError(f"{path}: version: expected {MANIFEST_VERSION}, got {manifest.version}")
    manifest.root = path.parent
    base = str(path.parent)  # os.path on strings: a pathlib join per listed file costs more than the stat
    seen = set()
    for rec in manifest.records:
        if rec.utt_id in seen:
            raise ValueError(f"{path}: utt_id {rec.utt_id!r} is listed twice")
        seen.add(rec.utt_id)
        for rel in rec.layers:
            if not os.path.isfile(os.path.join(base, rel)):
                raise FileNotFoundError(f"{rec.utt_id}: missing layer file {manifest.root / rel}")
        if rec.opensmile is not None and not os.path.isfile(os.path.join(base, rec.opensmile)):
            raise FileNotFoundError(f"{rec.utt_id}: missing opensmile file {manifest.root / rec.opensmile}")
    if manifest.split == "train":
        counts = np.bincount(manifest.labels(), minlength=N_CLASSES)
        if (counts == 0).any():
            missing = np.flatnonzero(counts == 0).tolist()
            raise ValueError(f"{path}: train split has no utterances for classes {missing}")
    return manifest


def load_utterance(
    manifest: DatasetManifest, record: ManifestRecord, layers=None, opensmile: bool = True
) -> UtteranceRecord:
    """Read one utterance's `layers` (default: every layer) and, if `opensmile`, its opensmile stream.

    The layer files are read into one block, in `layers` order (see
    `UtteranceRecord`). A layer file whose frame count differs from the
    first one read raises ValueError naming the utterance, both files and
    both frame counts; a file of the wrong width raises one naming it.
    """
    wanted = tuple(range(len(record.layers)) if layers is None else layers)
    if not wanted:
        raise ValueError(f"{record.utt_id}: no layer streams")
    block = None
    for row, idx in enumerate(wanted):
        path = manifest.root / record.layers[idx]
        frames = read_feature_file(path, stream_id=f"layer:{idx}").frames
        if frames.shape[1] != manifest.feature_dim:
            raise ValueError(f"{record.utt_id}: {path}: dim {frames.shape[1]} != {manifest.feature_dim}")
        if block is None:
            block = np.empty((len(wanted), *frames.shape), dtype=np.float32)
        elif len(frames) != block.shape[1]:
            first = manifest.root / record.layers[wanted[0]]
            raise ValueError(
                f"{record.utt_id}: {path} has {len(frames)} frames, but {first} has {block.shape[1]}"
            )
        block[row] = frames
    osm = None
    if opensmile and record.opensmile is not None:
        osm = read_feature_file(manifest.root / record.opensmile, stream_id="osm")
    try:
        return UtteranceRecord(record.utt_id, block, wanted, osm, record.label)
    except ValueError as exc:  # an opensmile stream of the wrong width: the layers were checked above
        raise ValueError(f"{manifest.root / record.opensmile}: {exc}") from None


def load_split(dataset_dir, split: str) -> DatasetManifest:
    return load_manifest(manifest_path(dataset_dir, split))


@dataclass
class SyntheticSpec:
    """Recipe for a seeded synthetic dataset with planted class structure.

    `layer_informativeness[l]` scales the class-mean signal injected into
    layer l; `paralinguistic_gain` scales class signal injected only into
    the prosody block of the opensmile stream.
    """

    n_per_class: int
    layer_count: int
    feature_dim: int
    t_range: tuple[int, int]
    layer_informativeness: tuple[float, ...]
    paralinguistic_gain: float
    noise_sigma: float
    seed: int
    n_classes: int = N_CLASSES

    def __post_init__(self):
        self.t_range = (int(self.t_range[0]), int(self.t_range[1]))
        self.layer_informativeness = tuple(float(v) for v in self.layer_informativeness)
        if self.n_classes != N_CLASSES:
            raise ValueError(f"n_classes must be {N_CLASSES}, got {self.n_classes}")
        for name in ("n_per_class", "layer_count", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if len(self.layer_informativeness) != self.layer_count:
            raise ValueError("layer_informativeness length must equal layer_count")
        if any(not 0.0 <= v <= 1.0 for v in self.layer_informativeness):
            raise ValueError("layer_informativeness entries must lie in [0, 1]")
        if self.paralinguistic_gain < 0:
            raise ValueError("paralinguistic_gain must be >= 0")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be > 0")
        if self.t_range[0] < 1 or self.t_range[0] > self.t_range[1]:
            raise ValueError(f"invalid t_range {self.t_range}")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "SyntheticSpec":
        return from_json(cls, doc)


# --- JSON documents: configs and the files disq writes and reads back ------------

_JSON_NAMES = {
    type(None): "null", bool: "boolean", int: "integer", float: "number",
    str: "string", list: "array", tuple: "array", dict: "object",
}


def from_json(cls, doc, path: str = "", doc_name: str = "config"):
    """Read a parsed JSON value as `cls`, a document dataclass or one of its field types.

    Unknown fields, missing required fields and wrong JSON types raise
    ValueError naming the field's dotted path (`train.beta1`, `ks[0]`). A
    bool is not a number, an int is accepted where a float goes, a list
    stands for a tuple (its elements are checked), a nested dataclass is
    read recursively and `X | None` also takes null. Value rules stay in
    each dataclass's __post_init__; a nested one's error is prefixed with
    its path. `path` is where `doc` sits in an enclosing document;
    `doc_name` is what an error about the whole document calls it ("" when
    the caller prefixes its own file name).
    """
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin in (typing.Union, types.UnionType):
        if doc is None and type(None) in args:
            return None
        (inner,) = (a for a in args if a is not type(None))  # documents only use `X | None`
        return from_json(inner, doc, path, doc_name)
    if origin is tuple:
        if not isinstance(doc, (list, tuple)):
            raise _type_error("array", doc, path or doc_name)
        if args[-1] is Ellipsis and args[0] in (int, str):  # one flat loop: manifests list many paths
            for i, v in enumerate(doc):
                if not isinstance(v, args[0]) or isinstance(v, bool):
                    raise _type_error(_JSON_NAMES[args[0]], v, f"{path}[{i}]")
            return tuple(doc)
        if args[-1] is Ellipsis:
            args = args[:1] * len(doc)
        elif len(doc) != len(args):
            raise ValueError(f"{path}: expected {len(args)} elements, got {len(doc)}")
        return tuple(from_json(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, doc)))
    if not dataclasses.is_dataclass(cls):
        if cls is float and type(doc) is int:
            return float(doc)
        if not isinstance(doc, cls) or isinstance(doc, bool) != (cls is bool):
            raise _type_error(_JSON_NAMES[cls], doc, path or doc_name)
        return doc
    if not isinstance(doc, dict):
        raise _type_error("object", doc, path or doc_name)
    hints, fields = _schema(cls)
    kwargs = {}
    for name, value in doc.items():
        key = f"{path}.{name}".lstrip(".")
        if name not in fields:
            raise ValueError(f"{key}: unknown field")
        kwargs[name] = from_json(hints[name], value, key)
    for name, f in fields.items():
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and name not in doc:
            raise ValueError(f"{path}.{name}: missing required field".lstrip("."))
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not path:
            raise
        raise ValueError(f"{path}: {exc}") from exc


@functools.cache
def _schema(cls) -> tuple[dict, dict]:
    """A dataclass's resolved field types and its init fields, once per class (type hints compile strings)."""
    return typing.get_type_hints(cls), {f.name: f for f in dataclasses.fields(cls) if f.init}


def _type_error(expected: str, doc, where: str) -> ValueError:
    got = _JSON_NAMES.get(type(doc), type(doc).__name__)
    prefix = f"{where}: " if where else ""
    return ValueError(f"{prefix}expected {expected}, got {got}")


def read_json(cls, path):
    """Read the JSON file at `path` as `cls` through `from_json`; a ValueError names the file."""
    path = Path(path)
    try:
        return from_json(cls, json.loads(path.read_text(encoding="utf-8")), doc_name="")
    except ValueError as exc:  # a JSONDecodeError too
        raise ValueError(f"{path}: {exc}") from exc


def write_json(doc, path) -> None:
    """Write a JSON document as disq stores them: one-space indent, sorted keys, a final newline."""
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


PLACEMENT_RESTARTS = 10
PLACEMENT_TRIES = 20000
MAX_DOT = 0.2  # largest dot product between two class-mean directions


def separated_unit_vectors(rng, n: int, dim: int):
    """Draw n unit vectors with pairwise dot products <= MAX_DOT (rejection sampled).

    Greedy placement can get stuck with a set that leaves no room for the
    next vector; after PLACEMENT_TRIES draws it starts again from an empty
    set, at most PLACEMENT_RESTARTS times. A placement that fits in its
    first PLACEMENT_TRIES draws never restarts, so the restarts change no
    such draw. Raises ValueError when no attempt places all n.
    """
    for _ in range(PLACEMENT_RESTARTS + 1):
        rows: list[np.ndarray] = []
        tries = 0
        while len(rows) < n and tries < PLACEMENT_TRIES:
            tries += 1
            v = rng.standard_normal(dim)
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                continue
            v = v / norm
            if all(float(v @ r) <= MAX_DOT for r in rows):
                rows.append(v)
        if len(rows) == n:
            return np.stack(rows)
    raise ValueError(f"could not place {n} separated vectors in {dim} dims")


def synthetic_class_means(spec: SyntheticSpec):
    """Seeded class-mean directions: (layer_count, n_classes, D) and prosody (n_classes, 6).

    Regenerable without touching any generated files, so tests can use the
    true means as a nearest-class-mean oracle.
    """
    rng = np.random.default_rng([spec.seed, 1])
    mu = np.stack(
        [separated_unit_vectors(rng, spec.n_classes, spec.feature_dim) for _ in range(spec.layer_count)]
    )
    nu = separated_unit_vectors(rng, spec.n_classes, PROSODY_COLS.stop - PROSODY_COLS.start)
    return mu, nu


def _split_sizes(n: int) -> tuple[int, int, int]:
    """Largest-remainder allocation of n items to the 80/10/10 splits."""
    exact = [f * n for f in SPLIT_FRACTIONS]
    sizes = [math.floor(e) for e in exact]
    remainders = sorted(range(3), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in range(n - sum(sizes)):
        sizes[remainders[i]] += 1
    return tuple(sizes)


def generate_synthetic(spec: SyntheticSpec, out_dir) -> dict[str, DatasetManifest]:
    """Write a synthetic dataset under out_dir and return its three manifests.

    Deterministic for a fixed spec: all draws come from generators seeded
    off spec.seed, and files are written in a fixed order.
    """
    mu, nu = synthetic_class_means(spec)  # before anything is created: the placement can fail
    out_dir = Path(out_dir)
    (out_dir / "feats").mkdir(parents=True, exist_ok=True)
    data_rng = np.random.default_rng([spec.seed, 2])
    split_rng = np.random.default_rng([spec.seed, 3])
    info = np.asarray(spec.layer_informativeness)

    records: list[ManifestRecord] = []
    t_lo, t_hi = spec.t_range
    for label in range(spec.n_classes):
        for _ in range(spec.n_per_class):
            idx = len(records)
            utt_id = f"utt{idx:05d}"
            utt_dir = out_dir / "feats" / utt_id
            utt_dir.mkdir(exist_ok=True)
            t = int(data_rng.integers(t_lo, t_hi + 1))
            noise = data_rng.standard_normal((spec.layer_count, t, spec.feature_dim))
            frames = spec.noise_sigma * noise + info[:, None, None] * mu[:, label][:, None, :]
            layer_paths = []
            for layer in range(spec.layer_count):
                rel = f"feats/{utt_id}/layer_{layer:02d}.dsqf"
                write_feature_file(
                    FeatureSequence(frames[layer], stream_id=f"layer:{layer}"), out_dir / rel
                )
                layer_paths.append(rel)
            t_os = math.ceil(t / 2)
            osm = spec.noise_sigma * data_rng.standard_normal((t_os, OPENSMILE_DIM))
            osm[:, PROSODY_COLS] += spec.paralinguistic_gain * nu[label]
            osm_rel = f"feats/{utt_id}/opensmile.dsqf"
            write_feature_file(FeatureSequence(osm, stream_id="osm"), out_dir / osm_rel)
            records.append(ManifestRecord(utt_id, label, tuple(layer_paths), osm_rel))

    by_split: dict[str, list[ManifestRecord]] = {s: [] for s in SPLITS}
    for label in range(spec.n_classes):
        members = [r for r in records if r.label == label]
        order = split_rng.permutation(len(members))
        sizes = _split_sizes(len(members))
        start = 0
        for split, size in zip(SPLITS, sizes):
            by_split[split].extend(members[i] for i in order[start : start + size])
            start += size

    manifests = {}
    for split in SPLITS:
        recs = tuple(sorted(by_split[split], key=lambda r: r.utt_id))
        manifest = DatasetManifest(MANIFEST_VERSION, split, spec.layer_count, spec.feature_dim, recs)
        manifest.root = out_dir
        save_manifest(manifest, manifest_path(out_dir, split))
        manifests[split] = manifest
    return manifests
