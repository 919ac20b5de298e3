"""Experiment grid runner: codebook caching, stream preparation, reports.

A sweep cell is one (layer set, K, augmentation) combination; each cell is
trained once per seed on frozen reconstructions. Codebooks are trained once
per (stream, K, codebook seed, train-split hash) and shared by every cell
that touches them, mirroring a generate-once-then-freeze protocol.
"""

from __future__ import annotations

import csv
import hashlib
import io
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import dataio
from .dataio import N_CLASSES, FeatureSequence, UtteranceRecord
from .fusion import LAYER_SETS, resolve_layer_set, resample
from .metrics import confusion_matrix, macro_f1, per_class_f1
from .model import ModelParams, PreparedUtterance, TrainConfig, predict, train
from .quantize import (
    OPENSMILE_CATEGORIES,
    Codebook,
    assign,
    fit_opensmile_codebooks,
    kmeans_fit,
    quantize_opensmile,
    rvq_encode,
    rvq_fit,
)

AUGMENTATIONS = OPENSMILE_CATEGORIES.names() + ("all",)


def check_augmentation(aug: str) -> None:
    """An augmentation is "none", one paralinguistic category name, or "all"."""
    if aug != "none" and aug not in AUGMENTATIONS:
        raise ValueError(f"unknown augmentation {aug!r}")


def _csv_header(n_alpha: int) -> list[str]:
    return (
        ["layer_set", "K", "seed", "aug", "macro_f1"]
        + [f"f1_c{i}" for i in range(N_CLASSES)]
        + [f"alpha_l{i}" for i in range(n_alpha)]
    )


CSV_COLUMNS = _csv_header(24)  # the header while no row uses a layer past 23


@dataclass
class ResultRow:
    """One experiment outcome; seed is an int or "avg" for seed-averaged rows."""

    layer_set: str
    k: int | None  # None = continuous features (quantization bypassed)
    seed: int | str
    aug: str
    macro_f1: float
    per_class_f1: np.ndarray
    mean_alpha: dict[int, float]


@dataclass
class LoadedDataset:
    """The utterances of the loaded splits and a content hash of the train split.

    `layers` are the layers whose feature files were read; `layer_count` is
    the dataset's depth.
    """

    root: str
    utterances: dict[str, list[UtteranceRecord]]
    layer_count: int
    feature_dim: int
    train_hash: str
    layers: tuple[int, ...]


def load_dataset(dataset_dir, splits=dataio.SPLITS, layers=None, opensmile: bool = True) -> LoadedDataset:
    """Read the manifests of `splits`, and their feature files of `layers` and of opensmile.

    `layers` is a sequence of layer indices, or a function that picks them
    from the dataset's layer count (so that a named layer set resolves
    before any feature file is read). The default reads every layer; a
    caller that needs less leaves the rest on disk. Without `opensmile` no
    utterance gets an opensmile stream. The train split's hash
    is taken from its manifest's bytes, whether or not it is loaded.
    """
    manifests = {split: dataio.load_split(dataset_dir, split) for split in dict.fromkeys(splits)}
    shapes = {(m.layer_count, m.feature_dim) for m in manifests.values()}
    if len(shapes) != 1:
        listing = ", ".join(f"{s}: {m.layer_count} x {m.feature_dim}" for s, m in manifests.items())
        raise ValueError(f"manifests disagree on layer count x feature dim ({listing})")
    ((layer_count, feature_dim),) = shapes
    if layers is None:
        layers = range(layer_count)
    elif callable(layers):
        layers = layers(layer_count)
    layers = tuple(layers)
    outside = sorted(set(layers) - set(range(layer_count)))
    if outside:
        raise ValueError(f"layers {outside} are not in the dataset's 0..{layer_count - 1}")
    utterances = {
        split: [dataio.load_utterance(m, rec, layers, opensmile) for rec in m.records]
        for split, m in manifests.items()
    }
    train_bytes = dataio.manifest_path(dataset_dir, "train").read_bytes()
    return LoadedDataset(
        root=str(dataset_dir),
        utterances=utterances,
        layer_count=layer_count,
        feature_dim=feature_dim,
        train_hash=hashlib.sha256(train_bytes).hexdigest(),
        layers=layers,
    )


def _train_frames(ds: LoadedDataset, layer: int) -> np.ndarray:
    return np.concatenate([u.layers[layer].frames for u in ds.utterances["train"]])


class _KeyedCache:
    """Write-once cache safe under concurrent sweep workers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._cells: dict = {}
        self.hits = 0
        self.misses = 0

    def get_or_fit(self, key, fit_fn):
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = {"event": threading.Event(), "value": None, "error": None}
                self._cells[key] = cell
                owner = True
                self.misses += 1
            else:
                owner = False
                self.hits += 1
        if owner:
            try:
                cell["value"] = fit_fn()
            except BaseException as exc:
                cell["error"] = exc
                raise
            finally:
                cell["event"].set()
        else:
            cell["event"].wait()
            if cell["error"] is not None:
                raise cell["error"]
        return cell["value"]

    def put(self, key, value) -> None:
        """Hold a value made elsewhere; counts neither a hit nor a miss."""
        cell = {"event": threading.Event(), "value": value, "error": None}
        cell["event"].set()
        with self._lock:
            self._cells[key] = cell


def _layer_key(ds: LoadedDataset, layer: int, k: int, seed: int) -> tuple:
    return ("layer", ds.train_hash, layer, k, seed)


def _osm_key(ds: LoadedDataset, seed: int) -> tuple:
    return ("osm", ds.train_hash, seed)


class CodebookCache:
    """Caches trained codebooks and each split's tokens for one dataset.

    A split is encoded once per codebook: its token entry holds one 1-D
    integer index array per utterance (the paralinguistic entry one per
    category), and `prepare_items` looks the frames up in the codebook.
    Keys include the train-split hash so a cache can never serve a different
    dataset by accident. `misses` counts actual codebook fits.
    """

    def __init__(self, kmeans_max_iters: int = 100):
        self._books = _KeyedCache()
        self._tokens = _KeyedCache()
        self.max_iters = kmeans_max_iters

    @property
    def hits(self) -> int:
        return self._books.hits

    @property
    def misses(self) -> int:
        return self._books.misses

    def hold(
        self,
        ds: LoadedDataset,
        seed: int,
        layer_books: dict[int, Codebook],
        osm_books: dict[str, Codebook] | None,
    ) -> None:
        """Serve codebooks fitted earlier (a checkpoint's) as if fitted here.

        Each is stored under the key its fit would have had, so lookups for
        it return it; holding a codebook counts no fit.
        """
        for layer, cb in layer_books.items():
            self._books.put(_layer_key(ds, layer, cb.k, seed), cb)
        if osm_books is not None:
            self._books.put(_osm_key(ds, seed), osm_books)

    def layer_codebook(self, ds: LoadedDataset, layer: int, k: int, seed: int) -> Codebook:
        return self._books.get_or_fit(
            _layer_key(ds, layer, k, seed),
            lambda: kmeans_fit(_train_frames(ds, layer), k, seed, self.max_iters, stream_id=f"layer:{layer}"),
        )

    def osm_codebooks(self, ds: LoadedDataset, seed: int) -> dict[str, Codebook]:
        def fit():
            frames = [u.opensmile.frames for u in ds.utterances["train"] if u.opensmile is not None]
            if not frames:
                raise ValueError("no opensmile streams in the train split")
            return fit_opensmile_codebooks(np.concatenate(frames), seed, self.max_iters)

        return self._books.get_or_fit(_osm_key(ds, seed), fit)

    def layer_tokens(self, ds: LoadedDataset, split: str, layer: int, k: int, seed: int) -> list[np.ndarray]:
        """Per-utterance token indices of one (layer, K) stream."""

        def build():
            cb = self.layer_codebook(ds, layer, k, seed)
            return per_part(lambda h: assign(cb, h).indices, [u.layers[layer].frames for u in ds.utterances[split]])

        return self._tokens.get_or_fit(("layer", ds.train_hash, split, layer, k, seed), build)

    def osm_tokens(self, ds: LoadedDataset, split: str, seed: int) -> list[dict[str, np.ndarray] | None]:
        """Per-utterance token indices of each opensmile category; None where a stream is missing."""

        def build():
            books = self.osm_codebooks(ds, seed)
            utts = ds.utterances[split]
            rows = iter(
                per_part(
                    lambda h: tuple(t.indices for t in quantize_opensmile(h, books).values()),
                    [u.opensmile.frames for u in utts if u.opensmile is not None],
                )
            )
            names = OPENSMILE_CATEGORIES.names()
            return [None if u.opensmile is None else dict(zip(names, next(rows))) for u in utts]

        return self._tokens.get_or_fit(("osm", ds.train_hash, split, seed), build)


def per_part(frame_fn, parts: list[np.ndarray]) -> list:
    """Run a row-wise frame_fn once on all parts' frames, cut back per part.

    frame_fn returns one row-aligned array, or a tuple of them; each part
    gets its rows of that array, or a tuple of its rows of each.
    """
    if not parts:
        return []
    cuts = np.cumsum([len(p) for p in parts])[:-1]
    rows = frame_fn(FeatureSequence(np.concatenate(parts)))
    if isinstance(rows, tuple):
        return list(zip(*(np.split(r, cuts) for r in rows)))
    return np.split(rows, cuts)


def _osm_block(frames74: np.ndarray, aug: str) -> np.ndarray:
    if aug == "all":
        return frames74
    return frames74[:, OPENSMILE_CATEGORIES.column_slice(aug)]


def prepare_rvq_items(
    ds: LoadedDataset,
    split: str,
    layer: int,
    n_stages: int,
    k_per_stage: int,
    seed: int = 0,
    stages_used: tuple[int, ...] | None = None,
) -> list[PreparedUtterance]:
    """Codec-style streams: per-stage RVQ reconstructions of one layer.

    The quantizer is trained on the train split's frames for `layer`; each
    selected stage's centroid lookup becomes one stream, so the downstream
    attention head consumes them exactly like per-layer streams. The split
    is encoded in one pass over its concatenated frames.
    """
    rvq = rvq_fit(_train_frames(ds, layer), n_stages, k_per_stage, seed, stream_id=f"rvq:layer{layer}")
    stages = tuple(range(n_stages)) if stages_used is None else tuple(stages_used)
    if not stages or any(s < 0 or s >= n_stages for s in stages):
        raise ValueError(f"stages_used {stages} outside 0..{n_stages - 1}")
    utts = ds.utterances[split]

    def stage_rows(h):
        tokens = rvq_encode(rvq, h)
        return tuple(rvq.stages[s].centroids[tokens[s].indices].astype(np.float32) for s in stages)

    return [
        PreparedUtterance(utt_id=utt.utt_id, streams=np.stack(rows), label=utt.label, osm=None)
        for utt, rows in zip(utts, per_part(stage_rows, [u.layers[layer].frames for u in utts]))
    ]


def prepare_items(
    ds: LoadedDataset,
    split: str,
    layers: tuple[int, ...],
    k: int | None,
    cache: CodebookCache,
    codebook_seed: int = 0,
    aug: str = "none",
) -> list[PreparedUtterance]:
    """Assemble frozen model inputs for one split.

    k=None bypasses quantization entirely (continuous features, and a raw
    paralinguistic block if augmentation is on). The paralinguistic frames
    are aligned to each utterance's frame count here, once, since they are
    frozen during training.
    """
    check_augmentation(aug)
    if k is not None and cache is None:
        raise ValueError("quantized preparation needs a CodebookCache")
    utts = ds.utterances[split]
    if k is not None:  # float32(C)[idx] has the bits of float32(C[idx])
        books = [cache.layer_codebook(ds, l, k, codebook_seed).centroids.astype(np.float32) for l in layers]
        tokens = [cache.layer_tokens(ds, split, l, k, codebook_seed) for l in layers]
        if aug != "none":
            osm_books = {n: cb.centroids.astype(np.float32) for n, cb in cache.osm_codebooks(ds, codebook_seed).items()}
            osm_tokens = cache.osm_tokens(ds, split, codebook_seed)

    items = []
    for i, utt in enumerate(utts):
        if k is None:
            streams = np.stack([utt.layers[l].frames for l in layers]).astype(np.float32, copy=False)
        else:
            streams = np.stack([c[t[i]] for c, t in zip(books, tokens)])
        osm = None
        if aug != "none":
            if utt.opensmile is None:
                raise ValueError(f"{utt.utt_id}: augmentation requested but no opensmile stream")
            if k is None:
                osm74 = utt.opensmile.frames
            else:
                osm74 = np.concatenate([osm_books[n][idx] for n, idx in osm_tokens[i].items()], axis=1)
            osm = resample(_osm_block(osm74, aug), streams.shape[1])
        items.append(PreparedUtterance(utt_id=utt.utt_id, streams=streams, label=utt.label, osm=osm))
    return items


def evaluate(
    params: ModelParams,
    items: list[PreparedUtterance],
    layers: tuple[int, ...],
    layer_set: str = "",
    k: int | None = None,
    seed: int | str = 0,
    aug: str = "none",
) -> ResultRow:
    """Argmax predictions over a split, folded into one result row."""
    if params.fusion.n_layers != len(layers):
        raise ValueError(
            f"params cover {params.fusion.n_layers} layers but config names {len(layers)}"
        )
    preds, alphas = predict(params, items)
    labels = np.array([it.label for it in items])
    cm = confusion_matrix(labels, preds)
    mean_alpha = alphas.mean(axis=0)
    return ResultRow(
        layer_set=layer_set,
        k=k,
        seed=seed,
        aug=aug,
        macro_f1=macro_f1(cm),
        per_class_f1=per_class_f1(cm),
        mean_alpha={layer: float(a) for layer, a in zip(layers, mean_alpha)},
    )


@dataclass
class SweepGrid:
    """Axes of one sweep: cluster counts x layer sets x seeds x augmentations."""

    ks: tuple[int, ...]
    layer_sets: tuple[str, ...]
    seeds: tuple[int, ...]
    augmentations: tuple[str, ...] = ("none",)
    include_continuous: bool = False
    codebook_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        for name in ("ks", "seeds"):
            values = tuple(getattr(self, name))
            for i, v in enumerate(values):
                if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                    raise ValueError(f"{name}[{i}]: expected an integer, got {v!r}")
            setattr(self, name, tuple(int(v) for v in values))
        self.layer_sets = tuple(self.layer_sets)
        self.augmentations = tuple(self.augmentations)
        if not (self.ks and self.layer_sets and self.seeds and self.augmentations):
            raise ValueError("every grid axis must be non-empty")
        for aug in self.augmentations:
            check_augmentation(aug)

    def cells(self) -> list[tuple[int | None, str, str]]:
        out: list[tuple[int | None, str, str]] = []
        for k in self.ks:
            for ls in self.layer_sets:
                for aug in self.augmentations:
                    out.append((k, ls, aug))
        if self.include_continuous:
            for ls in self.layer_sets:
                out.append((None, ls, "none"))
        return out

    @classmethod
    def from_json(cls, doc: dict) -> "SweepGrid":
        return dataio.from_json(cls, doc)


@dataclass
class CellFailure:
    k: int | None
    layer_set: str
    aug: str
    seed: int | str
    error: str


@dataclass
class SweepResult:
    rows: list[ResultRow]  # seed rows then the averaged row, cell by cell
    failures: list[CellFailure]
    cache: CodebookCache


def average_rows(rows: list[ResultRow]) -> ResultRow:
    """Arithmetic mean over seed rows of one cell."""
    first = rows[0]
    layers = sorted(first.mean_alpha)
    return ResultRow(
        layer_set=first.layer_set,
        k=first.k,
        seed="avg",
        aug=first.aug,
        macro_f1=float(np.mean([r.macro_f1 for r in rows])),
        per_class_f1=np.mean([r.per_class_f1 for r in rows], axis=0),
        mean_alpha={l: float(np.mean([r.mean_alpha[l] for r in rows])) for l in layers},
    )


def run_cell(
    ds: LoadedDataset,
    layer_set,
    k: int | None,
    seeds,
    cache: CodebookCache,
    train_config: TrainConfig,
    aug: str = "none",
    codebook_seed: int = 0,
) -> tuple[list[ResultRow], list[CellFailure]]:
    """Train and evaluate one cell across its seeds; reconstructions are shared."""
    name, layers = resolve_layer_set(layer_set, ds.layer_count)
    splits = {split: prepare_items(ds, split, layers, k, cache, codebook_seed, aug) for split in dataio.SPLITS}
    rows, failures = [], []
    for seed in seeds:
        try:
            result = train(splits["train"], splits["dev"], replace(train_config, seed=seed))
            rows.append(
                evaluate(result.params, splits["test"], layers, name, k, seed, aug)
            )
        except Exception as exc:  # isolate the cell, keep the sweep going
            failures.append(CellFailure(k, name, aug, seed, f"{type(exc).__name__}: {exc}"))
    return rows, failures


def run_sweep(grid: SweepGrid, ds: LoadedDataset, workers: int = 1) -> SweepResult:
    """Every grid cell per seed plus seed-averaged rows, in deterministic order."""
    cache = CodebookCache()
    cells = grid.cells()

    def job(cell):
        k, ls, aug = cell
        try:
            return run_cell(ds, ls, k, grid.seeds, cache, grid.train, aug, grid.codebook_seed)
        except Exception as exc:
            name = ls if isinstance(ls, str) else ",".join(map(str, ls))
            return [], [
                CellFailure(k, name, aug, s, f"{type(exc).__name__}: {exc}") for s in grid.seeds
            ]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(job, cells))
    else:
        outcomes = [job(cell) for cell in cells]

    rows: list[ResultRow] = []
    failures: list[CellFailure] = []
    for cell_rows, cell_failures in outcomes:
        rows.extend(cell_rows)
        failures.extend(cell_failures)
        if cell_rows:
            rows.append(average_rows(cell_rows))
    return SweepResult(rows, failures, cache)


# --- rendering ----------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def rows_to_csv(rows: list[ResultRow]) -> str:
    """Machine contract: CSV_COLUMNS, blanks for absent layers.

    Rows over layers past 23 widen the alpha columns to their highest layer,
    so that no fusion weight is dropped.
    """
    n_alpha = max([24] + [layer + 1 for row in rows for layer in row.mean_alpha])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_csv_header(n_alpha))
    for row in rows:
        record = [
            row.layer_set,
            "" if row.k is None else str(row.k),
            str(row.seed),
            row.aug,
            _fmt(row.macro_f1),
        ]
        record += [_fmt(v) for v in row.per_class_f1]
        record += [_fmt(row.mean_alpha[i]) if i in row.mean_alpha else "" for i in range(n_alpha)]
        writer.writerow(record)
    return buf.getvalue()


def rows_to_text(rows: list[ResultRow]) -> str:
    """Aligned table for humans; the CSV is the machine contract."""
    header = ["layer_set", "K", "seed", "aug", "macro_f1"]
    body = [
        [
            r.layer_set,
            "-" if r.k is None else str(r.k),
            str(r.seed),
            r.aug,
            f"{r.macro_f1:.4f}",
        ]
        for r in rows
    ]
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h) for i, h in enumerate(header)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(v.ljust(w) for v, w in zip(b, widths)) for b in body]
    return "\n".join(lines) + "\n"


@dataclass
class AugGain:
    layer_set: str
    k: int | None
    category: str
    base_f1: float
    aug_f1: float
    gain_pct: float


def _set_size(name: str, layer_count: int) -> int:
    if name in LAYER_SETS:
        return len(resolve_layer_set(name, layer_count)[1])
    return len(name.split(","))


def augmentation_report(rows: list[ResultRow], layer_count: int = 24) -> list[AugGain]:
    """Percentage gain of each augmentation over its no-augmentation baseline.

    Works on seed-averaged rows and orders the table sparse to dense (by
    layer-set size, with named sets resolved against `layer_count`, the
    depth of the dataset the rows come from).
    """
    avg = [r for r in rows if r.seed == "avg"]
    baselines = {(r.layer_set, r.k): r for r in avg if r.aug == "none"}
    gains: list[AugGain] = []
    for row in avg:
        if row.aug == "none":
            continue
        base = baselines.get((row.layer_set, row.k))
        if base is None:
            raise ValueError(f"missing augmentation baseline for {(row.layer_set, row.k)}")
        if base.macro_f1 <= 0:
            raise ValueError(f"baseline macro F1 is 0 for {(row.layer_set, row.k)}")
        gains.append(
            AugGain(
                layer_set=row.layer_set,
                k=row.k,
                category=row.aug,
                base_f1=base.macro_f1,
                aug_f1=row.macro_f1,
                gain_pct=100.0 * (row.macro_f1 - base.macro_f1) / base.macro_f1,
            )
        )
    order = {name: i for i, name in enumerate(AUGMENTATIONS)}
    gains.sort(key=lambda g: (_set_size(g.layer_set, layer_count), g.layer_set, order.get(g.category, 99)))
    return gains


def gains_to_csv(gains: list[AugGain]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["layer_set", "K", "category", "base_f1", "aug_f1", "gain_pct"])
    for g in gains:
        writer.writerow(
            [
                g.layer_set,
                "" if g.k is None else str(g.k),
                g.category,
                _fmt(g.base_f1),
                _fmt(g.aug_f1),
                _fmt(g.gain_pct),
            ]
        )
    return buf.getvalue()
